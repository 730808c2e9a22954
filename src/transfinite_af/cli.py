"""Command-line surface.

Exit codes: 0 success, 1 property violation, 2 parse or configuration
error, 3 domain-contract error (including verification failures).
Output is deterministic for a fixed command line and seed; JSON is
printed in one piece or not at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .checks import run_suites
from .constructions import (
    GeneratorSpecError,
    materialize_spec,
    parse_generator_spec,
)
from .core import (
    ApxParseError,
    FiniteAF,
    format_apx,
    format_dot,
)
from .errors import DomainError, TransfiniteAFError
from .grounded import grounded_finite, verify_symbolic_stages
from .ordinals import (
    NEVER,
    OrdinalParseError,
    format_ordinal,
    parse_ordinal,
)
from .rank_analysis import (
    _ta_rank,
    _witness_path,
    expand_ts,
    largest_self_defending,
    ts_path_exists,
    witness_path,
)
from .trees import (
    FiniteTree,
    bounded_path_search,
    build_tree_of_rank,
    rank_finite,
    tree_from_json,
    tree_to_json,
    truncate_tree,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

# Cap on reduce's --depth and --length: path search and witness output
# grow in proportion to them, so larger values are refused up front.
MAX_PATH_LENGTH = 100_000


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="transfinite-af",
        description="Grounded semantics over finite and lazily presented AFs")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grounded", help="grounded extension of an AF")
    g.add_argument("spec", help="generator spec, e.g. apx:f.apx, bs, ord:w*2")
    g.add_argument("--stages", action="store_true", help="include the stage map")
    g.add_argument("--sample", type=int, default=64,
                   help="verification window for lazy AFs")
    g.add_argument("--format", choices=["json", "text"], default="json")

    sd = sub.add_parser("self-defending",
                        help="largest self-defending extension (finite AFs)")
    sd.add_argument("spec")

    t = sub.add_parser("tree", help="tree ranks, builders and path search")
    tsub = t.add_subparsers(dest="tree_command", required=True)
    tr = tsub.add_parser("rank")
    tr.add_argument("--input", required=True, help="finite-tree JSON file")
    tr.add_argument("--cap", type=int, default=200_000)
    tb = tsub.add_parser("build")
    tb.add_argument("--ordinal", required=True)
    tb.add_argument("--truncate-width", type=int, default=10)
    tb.add_argument("--truncate-depth", type=int, default=None)
    ts = tsub.add_parser("search")
    ts.add_argument("--input", help="finite-tree JSON file")
    ts.add_argument("--ordinal", help="search a built rank-alpha tree instead")
    ts.add_argument("--depth", type=int, required=True)
    ts.add_argument("--width", type=int, required=True)

    r = sub.add_parser("reduce", help="the T_S / T^a reductions")
    rsub = r.add_subparsers(dest="reduce_command", required=True)
    rts = rsub.add_parser("ts")
    rts.add_argument("--af", required=True)
    rts.add_argument("--set", default="", help="comma-separated argument names")
    rts.add_argument("--depth", type=int, default=100)
    rts.add_argument("--node-cap", type=int, default=20_000)
    rta = rsub.add_parser("ta")
    rta.add_argument("--af", required=True)
    rta.add_argument("--arg", required=True)
    rta.add_argument("--depth", type=int, default=100)
    rw = rsub.add_parser("witness")
    rw.add_argument("--af", required=True)
    rw.add_argument("--arg", required=True)
    rw.add_argument("--length", type=int, default=100)

    c = sub.add_parser("check", help="run the property suites")
    c.add_argument("suite", choices=["lemmas", "ordinals", "constructions", "all"])
    c.add_argument("--trials", type=int, default=50)
    c.add_argument("--max-args", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--emit-plot", metavar="CSV",
                   help="write truncation-size vs b0-stage data")
    c.add_argument("--inject", metavar="APX",
                   help="APX file with %%stage annotations to verify")

    gen = sub.add_parser("gen", help="materialize a generator spec")
    gen.add_argument("spec")
    gen.add_argument("-o", "--output", help="write to a file instead of stdout")
    gen.add_argument("--format", choices=["apx", "dot"], default="apx")
    return p


def _emit(text: str, output: Optional[str] = None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _materialize(spec_text: str):
    return materialize_spec(parse_generator_spec(spec_text), base_dir=".")


def _require_finite(af, what: str) -> FiniteAF:
    if not isinstance(af, FiniteAF):
        raise DomainError(
            f"{what} needs a finite AF; add a truncation to the generator spec")
    return af


def _stage_string(v) -> str:
    return "NEVER" if v is NEVER else format_ordinal(v)


def cmd_grounded(args) -> int:
    af = _materialize(args.spec)
    if isinstance(af, FiniteAF):
        result = grounded_finite(af)
        payload = {
            "grounded": [af.name(i) for i in sorted(result.grounded)],
            "grounding_ordinal": format_ordinal(result.grounding_ordinal),
        }
        if args.stages:
            payload["stages"] = {af.name(i): _stage_string(v)
                                 for i, v in result.stages.items()}
        if args.format == "text":
            lines = [f"grounded: {' '.join(payload['grounded'])}",
                     f"grounding ordinal: {payload['grounding_ordinal']}"]
            if args.stages:
                lines += [f"stage {name}: {v}"
                          for name, v in sorted(payload["stages"].items())]
            _emit("\n".join(lines))
        else:
            _emit(json.dumps(payload, sort_keys=True))
        return EXIT_OK

    if af.candidate_stages is None:
        raise DomainError("lazy AF without a candidate stage map; "
                          "nothing to verify")
    report = verify_symbolic_stages(af, af.candidate_stages, sample=args.sample)
    if not report.ok:
        for line in report.lines():
            print(line, file=sys.stderr)
        return EXIT_DOMAIN
    window = (args.sample if af.universe is None
              else min(args.sample, af.universe))
    stages = {af.name(i): _stage_string(af.candidate_stages.stage_of(i))
              for i in range(window)}
    payload = {
        "grounded": [name for name, v in sorted(stages.items())
                     if v != "NEVER"],
        "grounding_ordinal": format_ordinal(report.grounding_ordinal),
        "verified": True,
        "sample_window": window,
    }
    if args.stages:
        payload["stages"] = stages
    if args.format == "text":
        lines = [f"grounding ordinal: {payload['grounding_ordinal']} "
                 f"(verified on {window} arguments)"]
        if args.stages:
            lines += [f"stage {name}: {v}" for name, v in sorted(stages.items())]
        _emit("\n".join(lines))
    else:
        _emit(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_self_defending(args) -> int:
    af = _require_finite(_materialize(args.spec), "self-defending")
    members = largest_self_defending(af)
    _emit(json.dumps(
        {"largest_self_defending": [af.name(i) for i in sorted(members)]},
        sort_keys=True))
    return EXIT_OK


def _load_tree(path: str) -> FiniteTree:
    with open(path) as fh:
        return tree_from_json(fh.read())


def cmd_tree(args) -> int:
    if args.tree_command == "rank":
        tree = _load_tree(args.input)
        rank = rank_finite(tree, node_cap=args.cap)
        _emit(json.dumps({"rank": format_ordinal(rank)}))
        return EXIT_OK
    if args.tree_command == "build":
        alpha = parse_ordinal(args.ordinal)
        tree = build_tree_of_rank(alpha)
        finite = truncate_tree(tree, width=args.truncate_width,
                               depth=args.truncate_depth)
        _emit(tree_to_json(finite))
        return EXIT_OK
    if args.tree_command == "search":
        if (args.input is None) == (args.ordinal is None):
            raise DomainError("search needs exactly one of --input/--ordinal")
        tree = (_load_tree(args.input).as_lazy() if args.input
                else build_tree_of_rank(parse_ordinal(args.ordinal)))
        res = bounded_path_search(tree, depth=args.depth, width=args.width)
        if res.found:
            _emit(json.dumps({"found": True, "prefix": list(res.prefix)}))
        else:
            _emit(json.dumps({"found": False, "no_path_within": res.depth}))
        return EXIT_OK
    raise AssertionError


def _resolve_args(af: FiniteAF, names: str) -> frozenset:
    if not names:
        return frozenset()
    return frozenset(af.index_of(nm.strip()) for nm in names.split(","))


def cmd_reduce(args) -> int:
    flag, size = (("--length", args.length) if args.reduce_command == "witness"
                  else ("--depth", args.depth))
    if size > MAX_PATH_LENGTH:
        raise ValueError(f"{flag} {size} exceeds the cap of {MAX_PATH_LENGTH}")
    af = _require_finite(_materialize(args.af), "reduce")
    if args.reduce_command == "ts":
        seed = _resolve_args(af, args.set)
        decision = ts_path_exists(af, seed, prefix_depth=args.depth)
        if decision.path_exists:
            payload = {"path_exists": True, "prefix": list(decision.prefix)}
        else:
            tree = expand_ts(af, seed, node_cap=args.node_cap)
            payload = {"path_exists": False,
                       "rank": format_ordinal(decision.rank),
                       "tree": json.loads(tree_to_json(tree))}
        _emit(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    if args.reduce_command == "ta":
        a = af.index_of(args.arg)
        result = grounded_finite(af)
        if a in result.grounded:
            rank = _ta_rank(af, a, result)
            payload = {"path_exists": False, "rank": format_ordinal(rank)}
        else:
            prefix = _witness_path(af, a, args.depth, result)
            payload = {"path_exists": True, "prefix": list(prefix)}
        _emit(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    if args.reduce_command == "witness":
        a = af.index_of(args.arg)
        prefix = witness_path(af, a, args.length)
        _emit(json.dumps({"witness": list(prefix)}))
        return EXIT_OK
    raise AssertionError


def cmd_check(args) -> int:
    seed = int(os.environ.get("TRANSFINITE_AF_SEED", args.seed))
    result = run_suites(args.suite, trials=args.trials, max_args=args.max_args,
                        seed=seed, emit_plot=args.emit_plot, inject=args.inject)
    for line in result.lines():
        print(line)
    return EXIT_OK if result.passed else EXIT_VIOLATION


def cmd_gen(args) -> int:
    af = _require_finite(_materialize(args.spec), "gen")
    text = format_dot(af) if args.format == "dot" else format_apx(af)
    _emit(text, args.output)
    return EXIT_OK


_COMMANDS = {
    "grounded": cmd_grounded,
    "self-defending": cmd_self_defending,
    "tree": cmd_tree,
    "reduce": cmd_reduce,
    "check": cmd_check,
    "gen": cmd_gen,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_PARSE
    try:
        return _COMMANDS[args.command](args)
    except (ApxParseError, OrdinalParseError, GeneratorSpecError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except TransfiniteAFError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
