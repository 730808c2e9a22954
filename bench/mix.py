#!/usr/bin/env python3
"""Measure the reduce-finite request mix and write bench/mix.json.

    python3 bench/mix.py --draws 40000 --seed 0

Draws requests from the reduce-finite request distribution (see
`workloads.reduce_af` and `workloads.cell_of`) and classifies each with
the benchmark's own references only, never the library's engines.  It
writes the share of each cell among the requests that finish and, for
the two pathless cells, whose cost is heavy-tailed, the cost keys at
evenly spaced quantiles, one per request a pass holds of that cell.
Set-up then picks, for each target, the candidate whose key is nearest.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter, defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import workloads  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--draws", type=int, default=40000)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    rng = random.Random(args.seed)
    counts, keys, failing, drawn = Counter(), defaultdict(list), 0, 0
    while drawn < args.draws:
        n, edges = workloads.reduce_af(rng)
        case = workloads.FiniteCase("", [f"a{j}" for j in range(n)], edges,
                                    "reduce")
        command = rng.choice(workloads.COMMANDS)
        choices = [x for x in range(n)
                   if command != "witness" or x not in case.grounded]
        if not choices:      # no non-grounded argument to ask a witness for
            continue
        drawn += 1
        x = rng.choice(choices)
        cell = workloads.cell_of(case, command, x)
        if cell is not None and cell.endswith("pathless"):
            key = workloads.cost_key(case, cell, x, workloads.STATE_CAP)
            if cell == "ta pathless" and key > workloads.STATE_CAP:
                cell = None
            else:
                keys[cell].append(key)
        if cell is None:
            failing += 1
        else:
            counts[cell] += 1
    done = sum(counts.values())
    shares = {cell: round(counts[cell] / done, 5) for cell in sorted(counts)}
    per_pass = workloads._allocate(shares, workloads.REDUCE_REQUESTS)
    targets = {}
    for cell, found in sorted(keys.items()):
        found.sort()
        k = per_pass[cell]
        targets[cell] = [found[int((b + 0.5) * len(found) / k)]
                         for b in range(k)]
    out = {"draws": args.draws, "seed": args.seed, "left_out": failing,
           "counts": dict(sorted(counts.items())), "shares": shares,
           "targets": targets}
    with open(os.path.join(BENCH, "mix.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: out[k] for k in ("left_out", "counts", "shares")}))
    for cell, t in targets.items():
        print(cell, t)


if __name__ == "__main__":
    main()
