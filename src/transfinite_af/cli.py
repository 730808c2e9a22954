"""Command-line surface.

Exit codes: 0 success, 1 property violation, 2 usage, parse or
configuration error (including a size option outside its bounds), 3
domain-contract error (including verification failures).
Output is deterministic for a fixed command line and seed; JSON is
printed in one piece or not at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import List, Optional

from .constructions import materialize_spec, parse_generator_spec
from .core import FiniteAF, format_apx, format_dot
from .errors import DomainError, TransfiniteAFError
from .grounded import grounded_finite, verify_symbolic_stages
from .ordinals import format_ordinal, parse_ordinal
from .rank_analysis import (
    TS_NODE_CAP,
    expand_ts,
    ta_path_exists,
    ts_path_exists,
    witness_path,
)
from .trees import (
    RANK_NODE_CAP,
    TRUNCATE_NODE_CAP,
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

# Cap on reduce's --depth and --length and on tree search's --depth and
# --width: path search and witness output grow in proportion to them, so
# larger values are refused up front.
MAX_PATH_LENGTH = 100_000

# Cap on grounded's --sample: the verifier checks every argument below the
# window, and the largest built-in spec takes tens of seconds at the cap.
MAX_SAMPLE = 100_000

# Cap on check's --max-args: the random AFs draw one candidate attack per
# ordered pair of arguments.
MAX_CHECK_ARGS = 1_000

# Cap on check's --trials: a suite's time is linear in it (check all at
# the default --max-args took 2.8 s at 1,000 trials).
MAX_CHECK_TRIALS = 10_000

# Every integer size option, by flag: (minimum, cap or None).  A flag
# means the same size in every command that has it.  reduce ts's
# --node-cap shares the truncations' node budget.
_SIZE_BOUNDS = {
    "--sample": (1, MAX_SAMPLE),
    "--cap": (1, None),
    "--truncate-width": (1, None),
    "--truncate-depth": (0, None),
    "--depth": (1, MAX_PATH_LENGTH),
    "--width": (1, MAX_PATH_LENGTH),
    "--node-cap": (1, TRUNCATE_NODE_CAP),
    "--length": (1, MAX_PATH_LENGTH),
    "--trials": (0, MAX_CHECK_TRIALS),
    "--max-args": (1, MAX_CHECK_ARGS),
}
# (flag, dest, minimum, cap) of each size option, as _check_sizes reads them
_SIZE_CHECKS = tuple((flag, flag[2:].replace("-", "_"), low, cap)
                     for flag, (low, cap) in _SIZE_BOUNDS.items())


def _check_sizes(args) -> None:
    for flag, dest, low, cap in _SIZE_CHECKS:
        size = getattr(args, dest, None)
        if size is None:
            continue
        if size < low:
            raise ValueError(f"{flag} {size} is below the minimum of {low}")
        if cap is not None and size > cap:
            raise ValueError(f"{flag} {size} exceeds the cap of {cap}")


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
    tr.add_argument("--cap", type=int, default=RANK_NODE_CAP)
    tb = tsub.add_parser("build")
    tb.add_argument("--ordinal", required=True)
    tb.add_argument("--truncate-width", type=int, default=10)
    tb.add_argument("--truncate-depth", type=int, default=None)
    ts = tsub.add_parser("search")
    source = ts.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="finite-tree JSON file")
    source.add_argument("--ordinal", help="search a built rank-alpha tree instead")
    ts.add_argument("--depth", type=int, required=True)
    ts.add_argument("--width", type=int, required=True)

    r = sub.add_parser("reduce", help="the T_S / T^a reductions")
    rsub = r.add_subparsers(dest="reduce_command", required=True)
    rts = rsub.add_parser("ts")
    rts.add_argument("--af", required=True)
    rts.add_argument("--set", default="", help="comma-separated argument names")
    rts.add_argument("--depth", type=int, default=100)
    rts.add_argument("--node-cap", type=int, default=TS_NODE_CAP)
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
    c.add_argument("--trials", type=int, default=50,
                   help="lemma-suite trials; ordinals run "
                        "max(10 * trials, 200) and constructions "
                        "max(trials // 2, 5)")
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
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _materialize(spec_text: str):
    return materialize_spec(parse_generator_spec(spec_text))


def _require_finite(af, what: str) -> FiniteAF:
    if not isinstance(af, FiniteAF):
        raise DomainError(
            f"{what} needs a finite AF; add a truncation to the generator spec")
    return af


def cmd_grounded(args) -> int:
    af = _materialize(args.spec)
    if isinstance(af, FiniteAF):
        result = grounded_finite(af)
        names = af.names
        ordinal = format_ordinal(result.grounding_ordinal)
        grounded = result.of_grounded(names)
        payload = {"grounded": grounded}
        if args.format == "text":  # JSON prints no lines
            lines = [f"grounded: {' '.join(grounded)}",
                     f"grounding ordinal: {ordinal}"]
        stages = None
        if args.stages:
            # one text per layer, into its members' slots: no stage map
            slots = ["NEVER"] * af.n
            for k, layer in enumerate(result.layers, start=1):
                text = str(k)
                for x in layer:
                    slots[x] = text
            stages = dict(zip(names, slots))
    else:
        report = verify_symbolic_stages(af, af.candidate_stages,
                                        sample=args.sample)
        if not report.ok:
            for line in report.lines():
                print(line, file=sys.stderr)
            return EXIT_DOMAIN
        ordinal = format_ordinal(report.grounding_ordinal)
        # render each distinct stage once
        text = {v: str(v) for v in set(report.stages.values())}
        stages = {af.name(i): text[v] for i, v in report.stages.items()}
        payload = {
            "grounded": [name for name, v in sorted(stages.items())
                         if v != "NEVER"],
            "verified": True,
            "sample_window": report.checked,
        }
        lines = [f"grounding ordinal: {ordinal} "
                f"(verified on {report.checked} arguments)"]
    payload["grounding_ordinal"] = ordinal
    if args.stages:
        payload["stages"] = stages
    if args.format == "text":
        if args.stages:
            lines += [f"stage {name}: {v}" for name, v in sorted(stages.items())]
        _emit("\n".join(lines))
    else:
        _emit(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_self_defending(args) -> int:
    af = _require_finite(_materialize(args.spec), "self-defending")
    members = grounded_finite(af).outside_plus(af.names)
    _emit(json.dumps({"largest_self_defending": members}, sort_keys=True))
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
    tree = (_load_tree(args.input) if args.input
            else build_tree_of_rank(parse_ordinal(args.ordinal)))
    res = bounded_path_search(tree, depth=args.depth, width=args.width)
    if res.found:
        _emit(json.dumps({"found": True, "prefix": list(res.prefix)}))
    else:
        _emit(json.dumps({"found": False, "no_path_within": res.depth}))
    return EXIT_OK


def _resolve_args(af: FiniteAF, names: str) -> frozenset:
    if not names:
        return frozenset()
    return frozenset(af.index_of(nm.strip()) for nm in names.split(","))


def cmd_reduce(args) -> int:
    af = _require_finite(_materialize(args.af), "reduce")
    if args.reduce_command == "ts":
        seed = _resolve_args(af, args.set)
        decision = ts_path_exists(af, seed, prefix_depth=args.depth)
        if decision.path_exists:
            _emit(json.dumps({"path_exists": True,
                              "prefix": list(decision.prefix)}, sort_keys=True))
        else:
            tree = expand_ts(af, seed, node_cap=args.node_cap)
            head = json.dumps({"path_exists": False,
                               "rank": format_ordinal(decision.rank)},
                              sort_keys=True)
            # "tree" sorts after every other key, so it closes the object
            _emit(f'{head[:-1]}, "tree": {tree_to_json(tree)}}}')
        return EXIT_OK
    if args.reduce_command == "ta":
        decision = ta_path_exists(af, af.index_of(args.arg),
                                  prefix_depth=args.depth)
        if decision.path_exists:
            payload = {"path_exists": True, "prefix": list(decision.prefix)}
        else:
            payload = {"path_exists": False,
                       "rank": format_ordinal(decision.rank)}
        _emit(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    a = af.index_of(args.arg)
    prefix = witness_path(af, a, args.length)
    _emit(json.dumps({"witness": list(prefix)}))
    return EXIT_OK


def cmd_check(args) -> int:
    # imported here, so that only `check` pays for loading the oracles
    from .checks import run_suites

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


def compile_table(parser, path=(), defaults=None) -> dict:
    """The rows `_fast_args` reads, by leaf command path (("reduce", "ts")).

    A row holds the leaf's exact option strings mapped to (action, the
    type converter argparse calls), its positionals as such pairs, the
    default of every dest on the path with each subcommand dest set to
    its token, its required actions, and its mutually exclusive groups
    with their `required`.  A leaf with an action other than help,
    store_true or a one-value store that has no string default to
    convert, two actions on one dest, or prefix characters other than "-"
    gets no row, nor does any command below a parser with flags or
    positionals of its own.
    """
    actions = [a for a in parser._actions if type(a) is not argparse._HelpAction]
    if parser.prefix_chars != "-" or parser.fromfile_prefix_chars is not None:
        return {}
    defaults = {**(defaults or {}), **parser._defaults, **{
        a.dest: a.default for a in actions
        if argparse.SUPPRESS not in (a.dest, a.default)}}
    sub = actions[0] if len(actions) == 1 else None
    if type(sub) is argparse._SubParsersAction and sub.dest is not argparse.SUPPRESS:
        table = {}
        for name, child in sub.choices.items():
            table.update(compile_table(child, path + (name,),
                                       {**defaults, sub.dest: name}))
        return table
    if len({a.dest for a in actions}) < len(actions) or not all(
            type(a) is argparse._StoreTrueAction
            or type(a) is argparse._StoreAction and a.nargs is None
            and not (isinstance(a.default, str) and a.type is not None)
            for a in actions):
        return {}
    convert = {a: parser._registry_get("type", a.type, a.type) for a in actions}
    return {path: (
        {s: (a, convert[a]) for a in actions for s in a.option_strings},
        [(a, convert[a]) for a in actions if not a.option_strings],
        defaults,
        [a for a in actions if a.required],
        [(g._group_actions, g.required) for g in parser._mutually_exclusive_groups],
    )}


def _fast_args(argv) -> Optional[argparse.Namespace]:
    """`_PARSER.parse_args(argv)` read through `_TABLE`, or None unless
    argv is plain: a row's exact subcommand tokens, then exact flags of
    its leaf, each given once and, if it takes a value, followed by one
    not starting with "-", and positionals filling exactly; each value
    converts with its action's type into its choices, and every required
    action and group rule holds.  argparse reads everything else."""
    depth = next((n for n in _DEPTHS if tuple(argv[:n]) in _TABLE), None)
    if depth is None:
        return None
    flags, positionals, defaults, required, groups = _TABLE[tuple(argv[:depth])]
    given, words, tokens = {}, [], iter(argv[depth:])
    for token in tokens:
        if token[:1] != "-":
            words.append(token)
            continue
        action, convert = flags.get(token, (None, None))
        if action is None or action in given:
            return None
        text = None if action.nargs == 0 else next(tokens, "-")
        if text is not None and text[:1] == "-":
            return None
        given[action] = convert, text
    if len(words) != len(positionals):
        return None
    given.update((a, (convert, w)) for (a, convert), w in zip(positionals, words))
    values, seen = dict(defaults), set()
    for action, (convert, text) in given.items():
        try:
            value = action.const if text is None else convert(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        # argparse counts an action as present unless it set the default
        if text is None or value is not action.default:
            seen.add(action)
    if any(len(seen.intersection(group)) > 1 or needed and seen.isdisjoint(group)
           for group, needed in groups) or not all(a in given for a in required):
        return None
    return argparse.Namespace(**values)


# The one parser `main` uses: parsing leaves a parser as it was built, and
# building one costs more than most requests.  Plain argv skips it.
_PARSER = build_parser()
_TABLE = compile_table(_PARSER)
_DEPTHS = sorted({len(path) for path in _TABLE})


def main(argv: Optional[List[str]] = None) -> int:
    args = _fast_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as e:
            return e.code if e.code is not None else EXIT_PARSE
    # Warnings print as one line without a source location; entering
    # catch_warnings resets the show-once registry, so each call shows its
    # own.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            _check_sizes(args)
            return _COMMANDS[args.command](args)
        # the parse errors of every input grammar subclass ValueError
        except (ValueError, KeyError, OSError) as e:
            # str() of a KeyError is the repr of its message
            print(f"error: {e.args[0] if isinstance(e, KeyError) else e}",
                  file=sys.stderr)
            return EXIT_PARSE
        except TransfiniteAFError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
