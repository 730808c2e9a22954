#!/usr/bin/env python3
"""Closed-loop benchmark of the transfinite-af CLI and engines.

    python3 bench/run.py --workload finite-ground --seed 1 --seconds 10 --trace 0

One client, one request at a time, in this process: each request is a CLI
command run through `transfinite_af.cli.main(argv)` with stdout captured
(the window engine, which the CLI does not expose, is called directly).
The run sets up its corpus five times and reports the median set-up
time, then makes passes over the request list until `--seconds` have
elapsed.  Times are medians over the passes: the pass time, and each
request's latency.  Every answer is checked against a reference outside
the timed region.  The last stdout line is one JSON object: end-to-end
metrics with `--trace 0`; with `--trace 1`, per-layer metrics from a
traced set-up, a traced run of the warm-up requests, and traced passes
that alternate with untraced ones, which give the tracing overhead.
Spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUPS = 5
# Host speed: a fixed pure-Python snippet is timed before every request
# (and around every set-up).  Its mean time over a stretch, relative to
# REFERENCE_CALIBRATION_S (its median on the 2-core machine the baseline
# was taken on), is the host's pace there, and every time is divided by
# the pace of its stretch: a pass by that of the pass, a request by that
# of the PACE_WINDOW requests on either side.  Other tenants of a shared
# host change its speed by 20-40% for seconds at a time; the snippet
# slows with it, and the program's code does not change it.
CALIBRATION_ROUNDS = 100
REFERENCE_CALIBRATION_S = 45e-6
SETUP_CALIBRATIONS = 100
PACE_WINDOW = 10


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def calibrate() -> float:
    """Time the host-speed snippet: dict, set and tuple work."""
    t0 = time.perf_counter()
    counts, seen = {}, set()
    for i in range(CALIBRATION_ROUNDS):
        k = (i % 7, i % 5)
        counts[k] = counts.get(k, 0) + i
        seen.add(k)
    sorted(counts.items())
    return time.perf_counter() - t0


def pace(calibration_s: float, samples: int) -> float:
    """How much slower than the reference the host ran (1.0: as fast)."""
    return calibration_s / samples / REFERENCE_CALIBRATION_S


def local_paces(samples: list) -> list:
    """The pace around each request: over the snippet times of the
    PACE_WINDOW requests on either side of it."""
    prefix = [0.0]
    for t in samples:
        prefix.append(prefix[-1] + t)
    out = []
    for i in range(len(samples)):
        lo = max(0, i - PACE_WINDOW)
        hi = min(len(samples), i + PACE_WINDOW + 1)
        out.append(pace(prefix[hi] - prefix[lo], hi - lo))
    return out


def execute(cli, req):
    """Run one request; (exit code, stdout or result, stderr)."""
    if req.call is not None:
        try:
            return 0, req.call(), ""
        except Exception:
            return -1, None, traceback.format_exc()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(req.argv)
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Run:
    """Request execution and answer checking for one benchmark run."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.verified = {}

    def run(self, requests, tracer=None, key=""):
        """Time each request; return (wall seconds, latencies, answers,
        pace of the pass, pace around each request).  Times leave out the
        host-speed snippet run before each request, and are not yet
        divided by the pace."""
        latencies, answers, snippets = [], [], []
        clock = time.perf_counter
        start = clock()
        for i, req in enumerate(requests):
            snippets.append(calibrate())
            if tracer is not None:
                tracer.request, tracer.tag = f"{key}{i}", req.tag
                tracer.requests += 1
            t0 = clock()
            answer = execute(self.cli, req)
            latencies.append(clock() - t0)
            answers.append(answer)
            if tracer is not None and req.argv is not None:
                tracer.extra["output_bytes"] += len(answer[1])
        wall = clock() - start - sum(snippets)
        return (wall, latencies, answers,
                pace(sum(snippets), len(snippets)), local_paces(snippets))

    def check(self, requests, answers, key=""):
        """Check answers outside the timed region; count each mismatch."""
        for i, (req, (rc, out, err)) in enumerate(zip(requests, answers)):
            self.attempted += 1
            ident = (key, i)
            digest = (hashlib.sha256(out.encode()).digest()
                      if isinstance(out, str) else out)
            if rc == 0 and self.verified.get(ident) == digest:
                continue
            problem = f"exit code {rc}: {err.strip()[-300:]}" if rc else None
            if problem is None:
                try:
                    problem = req.check(out)
                except Exception as e:
                    problem = f"unreadable answer ({type(e).__name__}: {e})"
            if problem:
                self.failed += 1
                self.problems.append(f"{req.label()}: {problem}")
            else:
                self.verified[ident] = digest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from transfinite_af import cli
        import workloads
        from tracing import Tracer
        from layers import layer_metrics
    except ImportError as e:
        print(f"error: the library is not importable from {ROOT}/src: {e}",
              file=sys.stderr)
        return 2
    if not cli.__file__.startswith(os.path.join(ROOT, "src")):
        print(f"error: imported {cli.__file__}, not the library under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join("bench", "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, cli, workloads, Tracer, layer_metrics, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, workloads, Tracer, layer_metrics, workdir) -> int:
    run = Run(cli)
    build = workloads.BUILDERS[args.workload]

    def setup(tracer=None):
        """(corpus, warm-up requests, set-up seconds divided by the pace
        measured just before and after it)."""
        gc.collect()
        calibration = sum(calibrate() for _ in range(SETUP_CALIBRATIONS))
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():
            corpus = build(args.seed, workdir)
            warm = workloads.warmup(workdir)
            answers = run.run(warm, tracer, key="warm")[2]
        elapsed = time.perf_counter() - t0
        calibration += sum(calibrate() for _ in range(SETUP_CALIBRATIONS))
        run.check(warm, answers, key="warm")
        return corpus, warm, elapsed / pace(calibration,
                                            2 * SETUP_CALIBRATIONS)

    if args.trace:
        setup_tracer, warm_tracer, pass_tracer = Tracer(), Tracer(), Tracer()
        corpus, warm, _ = setup(setup_tracer)
        # the ten warm-up requests once more, traced on their own: they
        # touch every engine, so no per-layer figure of a pass reads 0
        with warm_tracer:
            answers = run.run(warm, warm_tracer, key="warm")[2]
        run.check(warm, answers, key="warm")
    else:
        setup_times = []
        for _ in range(SETUPS):
            corpus = None       # let the previous corpus go first
            corpus, _, elapsed = setup()
            setup_times.append(elapsed)
    requests = corpus.requests

    walls = {False: [], True: []}         # divided by the pace
    raw_walls, paces = [], []
    latencies = [[] for _ in requests]    # per request, over passes
    deadline = time.perf_counter() + args.seconds
    k = 0
    # a traced run alternates untraced and traced passes, at least two each
    while k < (4 if args.trace else 1) or time.perf_counter() < deadline:
        traced = bool(args.trace) and k % 2 == 1
        tracer = pass_tracer if traced else None
        gc.collect()
        with tracer or contextlib.nullcontext():
            wall, lat, answers, slow, around = run.run(requests, tracer,
                                                       key=f"p{k}r")
        walls[traced].append(wall / slow)
        if not traced:
            raw_walls.append(wall)
            paces.append(slow)
            for mine, t, p in zip(latencies, lat, around):
                mine.append(t / p)
        run.check(requests, answers)
        k += 1

    if args.trace:
        os.makedirs(os.path.join("bench", "out"), exist_ok=True)
        path = os.path.join("bench", "out",
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"setup": setup_tracer.dump(),
                       "warmup": warm_tracer.dump(),
                       "passes": pass_tracer.dump(),
                       "traced_passes": len(walls[True])}, fh)
        pairs = list(zip(walls[False], walls[True]))
        metrics = layer_metrics(setup_tracer, warm_tracer, pass_tracer,
                                pairs)
    else:
        lat = sorted(statistics.median(t) for t in latencies)
        args_per_pass = sum(r.args for r in requests)
        wall = statistics.median(walls[False])
        metrics = {
            "wall_s": (wall, "s"),
            "req_ms.p50": (nearest_rank(lat, 0.5) * 1e3, "ms"),
            "req_ms.p90": (nearest_rank(lat, 0.9) * 1e3, "ms"),
            "args_per_s": (args_per_pass / wall, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }

    print(f"{args.workload} seed={args.seed}: {len(requests)} requests/pass, "
          f"pass seconds {[round(w, 3) for w in raw_walls]}, "
          f"host pace {[round(p, 3) for p in paces]}, "
          f"sizes {json.dumps(corpus.sizes())}, "
          f"fail_ratio {run.failed}/{run.attempted}", file=sys.stderr)
    for problem in run.problems[:10]:
        print(f"  FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
