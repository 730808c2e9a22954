"""The four seeded workloads: corpus, requests and answer checks.

Each workload turns a seed into a request list.  A request is a CLI argv
run in-process (or, for the window engine, a direct call), the number of
AF arguments it answers for, a tag naming its input shape, and a check
that compares the answer with a reference from `reference.py`.  Input
sizes are stratified: the seed moves every size inside fixed strata (for
reduce-finite, it draws the AFs that meet the cost targets of
`mix.json`), so each seed gets a corpus of the same shape and cost.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from transfinite_af import constructions, grounded, ordinals, rank_analysis, \
    trees
from transfinite_af.checks import bitmask_least_fixpoint
from transfinite_af.core import FiniteAF

import reference as ref

WORKLOADS = ("finite-ground", "lazy-certify", "build-targets", "reduce-finite")


@dataclass
class Request:
    """One timed request; `check(answer)` returns a problem or None."""

    args: int
    tag: str
    check: Callable[[object], Optional[str]]
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], object]] = None

    def label(self) -> str:
        return " ".join(self.argv) if self.argv else self.tag


@dataclass
class Corpus:
    requests: List[Request]
    sizes: Callable[[], Dict[str, int]]   # read after the run


# -- finite AFs on disk -----------------------------------------------------------


@dataclass
class FiniteCase:
    """A finite AF written as APX, with what its checks need."""

    path: str
    names: List[str]
    edges: List[Tuple[int, int]]
    tag: str
    expected: Optional[List[Optional[int]]] = None  # tree-lifted stages
    ts_memo: dict = field(default_factory=dict, repr=False)
    ts_graph: dict = field(default_factory=dict, repr=False)
    ts_counts: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def stages(self) -> List[Optional[int]]:
        return ref.least_stages(self.n, self.edges)

    @cached_property
    def grounded(self) -> set:
        return {i for i, s in enumerate(self.stages) if s is not None}

    @cached_property
    def gplus(self) -> set:
        return ref.attacked_by(self.edges, self.grounded)

    @cached_property
    def attackers(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.n)]
        for x, y in sorted(set(self.edges)):
            out[y].append(x)
        return out

    def ts_shape(self, x: int) -> Optional[Tuple[int, int, int]]:
        """(nodes, height, symbols) of T_S for the seed {x}, as in
        `reference.ts_tree_shape`."""
        return ref.ts_tree_shape(self.attackers, [x], self.gplus, TS_CAP,
                                 self.ts_memo)

    def ts_states(self, x: int, cap: int) -> int:
        if (x, cap) not in self.ts_counts:
            self.ts_counts[x, cap] = ref.ts_states(self.attackers, [x], cap,
                                                   self.ts_graph)
        return self.ts_counts[x, cap]

    def forget_ts(self) -> None:
        """Drop the T_S counts, which can be large, once they are used."""
        self.ts_memo.clear()
        self.ts_graph.clear()
        self.ts_counts.clear()

    @cached_property
    def af(self) -> FiniteAF:
        return FiniteAF(self.n, self.edges, self.names)

    @cached_property
    def reference_problem(self) -> Optional[str]:
        """Disagreement between independent references, if any."""
        if self.expected is not None and self.expected != self.stages:
            return "tree ranks and the stage reference disagree"
        if self.n <= 10 and bitmask_least_fixpoint(self.af) != self.grounded:
            return "bitmask fixpoint and the stage reference disagree"
        return None


def write_case(workdir: str, name: str, names: Sequence[str],
               edges: Sequence[Tuple[int, int]], tag: str,
               expected=None) -> FiniteCase:
    path = os.path.join(workdir, name + ".apx")
    lines = [f"arg({nm})." for nm in names]
    lines += [f"att({names[x]},{names[y]})." for x, y in edges]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return FiniteCase(path, list(names), list(edges), tag, expected)


def random_edges(rng: random.Random, n: int, m: int) -> List[Tuple[int, int]]:
    edges = set()
    while len(edges) < m:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return sorted(edges)


def random_case(rng: random.Random, workdir: str, name: str, n: int, m: int,
                tag: str) -> FiniteCase:
    return write_case(workdir, name, [f"a{i}" for i in range(n)],
                      random_edges(rng, n, m), tag)


def library_case(workdir: str, name: str, af: FiniteAF, tag: str,
                 expected=None) -> FiniteCase:
    return write_case(workdir, name, af.names, sorted(af.attack_pairs), tag,
                      expected)


def tree_lifted_case(workdir: str, name: str, alpha: ref.Cnf,
                     width: int) -> FiniteCase:
    """`ord:alpha:truncate=width`, built part by part so each part's
    tree ranks give the expected stages."""
    parts = [constructions.af_from_finite_tree(trees.truncate_tree(
        trees.build_tree_of_rank(ordinals.parse_ordinal(ref.cnf_str(t))),
        width=width)) for t in ref.target_trees(alpha, width)]
    limit = ref.is_limit(alpha)
    af = (constructions.disjoint_union([p.af for p in parts]) if limit
          else parts[0].af)
    by_name = {}
    for p, part in enumerate(parts):
        for i, v in part.expected_stages().items():
            nm = f"u{p}_{part.af.name(i)}" if limit else part.af.name(i)
            by_name[nm] = None if v is ordinals.NEVER else v.as_int()
    return library_case(workdir, name, af, "wide",
                        [by_name[nm] for nm in af.names])


# -- request builders -------------------------------------------------------------


def _loads(out) -> dict:
    return json.loads(out)


def _stage_text(s: Optional[int]) -> str:
    return "NEVER" if s is None else str(s)


def grounded_finite_request(case: FiniteCase) -> Request:
    def check(out):
        if case.reference_problem:
            return case.reference_problem
        st = case.stages
        want = {
            "grounded": [case.names[i] for i in range(case.n) if st[i]],
            "grounding_ordinal": str(max([s for s in st if s] or [0])),
            "stages": {case.names[i]: _stage_text(st[i])
                       for i in range(case.n)},
        }
        return None if _loads(out) == want else "stages differ from reference"
    return Request(case.n, case.tag, check,
                   argv=["grounded", "apx:" + case.path, "--stages"])


def self_defending_request(case: FiniteCase) -> Request:
    def check(out):
        want = [case.names[i] for i in range(case.n) if i not in case.gplus]
        got = _loads(out)["largest_self_defending"]
        return None if got == want else "not the complement of G+"
    return Request(case.n, case.tag, check,
                   argv=["self-defending", "apx:" + case.path])


def lazy_grounded_request(spec: str, sample: int, target: str) -> Request:
    def check(out):
        doc = _loads(out)
        if doc.get("verified") is not True:
            return "not verified"
        if doc["grounding_ordinal"] != target:
            return f"grounding ordinal {doc['grounding_ordinal']} != {target}"
        if doc["sample_window"] != sample:
            return "wrong sample window"
        return None
    return Request(sample, "lazy", check,
                   argv=["grounded", spec, "--sample", str(sample)])


def omega_request(spec: str, window: int) -> Request:
    def call():
        af = constructions.materialize_spec(
            constructions.parse_generator_spec(spec))
        return grounded.omega_approximation(af, window, steps=4 * window)

    def check(result):
        if not result.stabilized:
            return "window iteration did not stabilize"
        af = constructions.materialize_spec(
            constructions.parse_generator_spec(spec))
        members = sorted(result.closure)
        index = {x: i for i, x in enumerate(members)}
        edges = [(index[b], index[x]) for x in members
                 for b in af.attacker_spec(x).explicit]
        st = ref.least_stages(len(members), edges)
        want = {x: st[index[x]] for x in members if st[index[x]]}
        got = {x: v.as_int() for x, v in result.stages.items()}
        if got != want or set(result.never) != set(members) - set(want):
            return "window stages differ from reference"
        return None
    return Request(window, "window", check, call=call)


def tree_build_request(alpha: ref.Cnf, width: int) -> Request:
    nodes = ref.truncated_nodes(alpha, width)
    rank = ref.truncated_rank(alpha, width)

    def check(out):
        tree = trees.tree_from_json(out)
        if len(tree) != nodes:
            return f"{len(tree)} nodes, expected {nodes}"
        if tree.rank() != rank:
            return f"rank {tree.rank()}, expected {rank}"
        return None
    return Request(nodes, "tree", check,
                   argv=["tree", "build", "--ordinal", ref.cnf_str(alpha),
                         "--truncate-width", str(width)])


def gen_request(alpha: ref.Cnf, width: int) -> Request:
    parts = ref.target_trees(alpha, width)
    nodes = sum(ref.truncated_nodes(t, width) for t in parts)
    rounds = max(ref.truncated_rank(t, width) + 1 for t in parts)

    def check(out):
        names, edges = {}, []
        for line in out.splitlines():
            if line.startswith("arg("):
                names[line[4:-2]] = len(names)
            elif line.startswith("att("):
                x, y = line[4:-2].split(",")
                edges.append((names[x], names[y]))
        if len(names) != 2 * nodes or len(edges) != 2 * nodes - len(parts):
            return "emitted AF has the wrong size"
        st = ref.least_stages(len(names), edges)
        if (max(s for s in st if s) != rounds
                or sum(1 for s in st if s) != nodes):
            return "emitted AF has the wrong stages"
        return None
    return Request(2 * nodes, "union" if len(parts) > 1 else "gen", check,
                   argv=["gen", f"ord:{ref.cnf_str(alpha)}:truncate={width}"])


def ts_request(case: FiniteCase, seed: int) -> Request:
    def check(out):
        if case.reference_problem:
            return case.reference_problem
        doc = _loads(out)
        if doc["path_exists"] != (seed not in case.gplus):
            return "path existence differs from seed & G+"
        if doc["path_exists"]:
            if len(doc["prefix"]) != 100:
                return "prefix of the wrong length"
            problems = ref.ts_prefix_problems(case.n, case.attackers, [seed],
                                              case.gplus, doc["prefix"])
            return problems[0] if problems else None
        nodes, height, _ = case.ts_shape(seed)
        if len(doc["tree"]["nodes"]) != nodes:
            return f"{len(doc['tree']['nodes'])} tree nodes, expected {nodes}"
        if int(doc["rank"]) != height:
            return f"rank {doc['rank']}, expected {height}"
        if ref.path_tree_rank(doc["tree"]["nodes"]) != height:
            return "the emitted tree's rank differs from the stated rank"
        return None
    return Request(case.n, "ts", check,
                   argv=["reduce", "ts", "--af", "apx:" + case.path,
                         "--set", case.names[seed]])


def _ta_problems(case: FiniteCase, a: int, prefix) -> Optional[str]:
    if len(prefix) != 100:
        return "prefix of the wrong length"
    problems = rank_analysis.ta_path_violations(case.af, a, tuple(prefix),
                                                frozenset(case.gplus))
    return problems[0] if problems else None


def ta_request(case: FiniteCase, a: int) -> Request:
    def check(out):
        if case.reference_problem:
            return case.reference_problem
        doc = _loads(out)
        if doc["path_exists"] == (a in case.grounded):
            return "path existence differs from grounded membership"
        if doc["path_exists"]:
            return _ta_problems(case, a, doc["prefix"])
        if case.stages[a] > int(doc["rank"]) + 1:
            return "stage exceeds T^a rank + 1"
        return None
    return Request(case.n, "ta", check,
                   argv=["reduce", "ta", "--af", "apx:" + case.path,
                         "--arg", case.names[a]])


def witness_request(case: FiniteCase, a: int) -> Request:
    def check(out):
        if case.reference_problem:
            return case.reference_problem
        if a in case.grounded:
            return "witness requested for a grounded argument"
        return _ta_problems(case, a, _loads(out)["witness"])
    return Request(case.n, "witness", check,
                   argv=["reduce", "witness", "--af", "apx:" + case.path,
                         "--arg", case.names[a]])


# -- warm-up: one small request per engine, run in every workload's set-up ---------


def warmup(workdir: str) -> List[Request]:
    deep = library_case(workdir, "warm_deep",
                        constructions.baumann_spanring(truncate=3), "deep")
    wide = tree_lifted_case(workdir, "warm_wide", ((1, 2),), 2)
    chain = write_case(workdir, "warm_chain", ["a0", "a1", "a2"],
                       [(0, 1), (1, 2)], "ts")
    w2 = ((1, 2),)
    return [
        grounded_finite_request(deep), grounded_finite_request(wide),
        self_defending_request(deep),
        lazy_grounded_request("bs", 8, "w*2"), omega_request("ord:w", 8),
        tree_build_request(w2, 2), gen_request(w2, 2),
        ts_request(chain, 1), ta_request(chain, 2), witness_request(chain, 1),
    ]


# -- finite-ground ------------------------------------------------------------------

# AFs per shape (deep, wide, sparse): the same for each, as no shape is
# known to be more common than another.
SHAPE_AFS = 20
WIDE_ALPHAS = [((1, k), (0, m)) if m else ((1, k),)
               for k in (1, 2, 3) for m in range(4)]
WIDE_ALPHAS += [((2, 1),), ((2, 1), (1, 1))]


def _stratified_pick(rng: random.Random, items: list, bins: int,
                     key) -> list:
    """One random item from each of `bins` equal-count bins of `items`."""
    items = sorted(items, key=key)
    size = len(items) / bins
    return [items[int(b * size) + rng.randrange(max(1, int(size)))]
            for b in range(bins)]


def finite_ground(seed: int, workdir: str) -> Corpus:
    rng = random.Random(seed)
    cases = []
    for i in range(SHAPE_AFS):   # deep: one argument per round, many rounds
        n = 30 + 9 * i + rng.randrange(9)
        cases.append(library_case(workdir, f"deep{i}",
                                  constructions.baumann_spanring(truncate=n),
                                  "deep"))
    def wide_nodes(aw) -> int:
        return sum(ref.truncated_nodes(t, aw[1])
                   for t in ref.target_trees(*aw))

    wide = [aw for aw in itertools.product(WIDE_ALPHAS, range(2, 13))
            if 500 <= 2 * wide_nodes(aw) <= 2400]
    for i, (alpha, w) in enumerate(_stratified_pick(
            rng, wide, SHAPE_AFS, key=lambda aw: (wide_nodes(aw), aw))):
        cases.append(tree_lifted_case(workdir, f"wide{i}", alpha, w))
    for i in range(SHAPE_AFS):   # sparse random: 5-8 rounds, so cost follows n
        n = 60 + 33 * i + rng.randrange(33)
        while True:
            case = random_case(rng, workdir, f"sparse{i}", n, 3 * n // 2,
                               "sparse")
            if 5 <= max(filter(None, case.stages), default=0) <= 8:
                break
        cases.append(case)
    requests = []
    for case in cases:
        requests += [grounded_finite_request(case),
                     self_defending_request(case)]
    return Corpus(requests, lambda: {
        "afs": len(cases),
        "arguments": sum(c.n for c in cases),
        "attacks": sum(len(c.edges) for c in cases),
        "max_arguments": max(c.n for c in cases),
        **{f"max_rounds_{tag}": max(max(filter(None, c.stages), default=0)
                                    for c in cases if c.tag == tag)
           for tag in ("deep", "wide", "sparse")},
    })


# -- lazy-certify ----------------------------------------------------------------------

# Spec families, with the same number of requests each: no family is
# known to be more common than another.
LAZY_SPECS = ("bs", "ord:w*k+m", "union(bs,ord:w)", "ord:w^2", "ord:w^3")
LAZY_PER_FAMILY = 30
WINDOWS_PER_SPEC = 6


def lazy_certify(seed: int, workdir: str) -> Corpus:
    rng = random.Random(seed)
    requests = []
    count = LAZY_PER_FAMILY
    for family in LAZY_SPECS:
        for j in range(count):   # samples stratified over [64, 154)
            sample = 64 + 90 * j // count + rng.randrange(90 // count)
            if family == "ord:w*k+m":   # every k in 1-3 and m in 0-3
                k, m = 1 + j % 3, j // 3 % 4
                alpha = ((1, k),) + (((0, m),) if m else ())
                spec, target = f"ord:{ref.cnf_str(alpha)}", ref.cnf_str(alpha)
            elif family.startswith("ord:"):
                spec, target = family, family[4:]
            else:
                spec, target = family, "w*2"
            requests.append(lazy_grounded_request(spec, sample, target))
    for spec in ("ord:w", "union(ord:w,ord:w)"):
        for j in range(WINDOWS_PER_SPEC):   # windows 16-63; cost ~ window^3
            requests.append(omega_request(spec, 16 + 9 * j + rng.randrange(3)))
    return Corpus(requests, lambda: {
        "requests": len(requests),
        "sampled_arguments": sum(r.args for r in requests if r.argv),
        "max_sample": max(r.args for r in requests if r.argv),
        "max_window": max(r.args for r in requests if not r.argv),
    })


# -- build-targets ------------------------------------------------------------------------


# Widest truncation per leading exponent: w^3 at width 4 already has 2M nodes.
MAX_WIDTH = {1: 40, 2: 6, 3: 3}


def build_candidates() -> List[Tuple[ref.Cnf, int, int]]:
    """(alpha, width, tree nodes) below w^4 with 32 <= nodes < 512."""
    out = []
    for top in (1, 2, 3):
        for c in (1, 2, 3):
            for lower in itertools.product(range(4), repeat=top):
                alpha = ((top, c),) + tuple(
                    (e, k) for e, k in zip(range(top - 1, -1, -1), lower) if k)
                for width in range(2, MAX_WIDTH[top] + 1):
                    nodes = ref.truncated_nodes(alpha, width)
                    if 32 <= nodes < 512:
                        out.append((alpha, width, nodes))
    return out


def build_targets(seed: int, workdir: str) -> Corpus:
    rng = random.Random(seed)
    requests = []
    # 120 of the ~270 candidates, one per equal-count bin of tree size
    for alpha, width, _ in _stratified_pick(rng, build_candidates(), 120,
                                            key=lambda c: (c[2], c)):
        requests += [tree_build_request(alpha, width),
                     gen_request(alpha, width)]
    return Corpus(requests, lambda: {
        "requests": len(requests),
        "tree_nodes": sum(r.args for r in requests if r.tag == "tree"),
        "emitted_arguments": sum(r.args for r in requests if r.tag != "tree"),
        "max_tree_nodes": max(r.args for r in requests if r.tag == "tree"),
    })


# -- reduce-finite ---------------------------------------------------------------------------

# A reduce request: a random AF of 6-16 arguments and n-2n attacks, one
# of the three commands chosen uniformly, and a uniform argument (for
# `witness`, a uniform non-grounded one).  Its cell is the command and
# whether its tree has a path.  Requests whose T_S passes the CLI's node
# cap, or whose rank passes the state cap, fail and are left out.
COMMANDS = ("ts", "ta", "witness")
TS_CAP = 20_000          # `reduce ts --node-cap` default
STATE_CAP = 250_000      # `ts_rank` state cap default
REDUCE_REQUESTS = 500
# AFs probed in set-up, a fixed number so that set-up work does not hinge
# on the seed.  Their arguments give about ten candidates per request.
REDUCE_POOL = 200
# Cell shares and cost targets, written by `python3 bench/mix.py`.
MIX_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "mix.json")


def reduce_af(rng: random.Random) -> Tuple[int, List[Tuple[int, int]]]:
    n = rng.randint(6, 16)
    return n, random_edges(rng, n, rng.randint(n, 2 * n))


def cell_of(case: FiniteCase, command: str, x: int) -> Optional[str]:
    """The cell of one request; None if it fails (or is not a request).
    The state cap is checked by `cost_key`, which is dearer."""
    if command == "ts":
        if x not in case.gplus:
            return "ts path"
        return "ts pathless" if case.ts_shape(x)[0] <= TS_CAP else None
    if x in case.grounded:
        return "ta pathless" if command == "ta" else None
    return f"{command} path"


def cost_key(case: FiniteCase, cell: str, x: int, cap: int) -> int:
    """What a pathless request's cost follows: the symbols `reduce ts`
    prints (summed node depth of T_S), or the T_S states `reduce ta`
    visits to rank the attackers of x, counted up to `cap`."""
    if cell == "ts pathless":
        return case.ts_shape(x)[2]
    return sum(case.ts_states(i, cap) for i in case.attackers[x])


def _allocate(shares: Dict[str, float], total: int) -> Dict[str, int]:
    """Largest-remainder rounding of shares to whole request counts."""
    raw = {c: s * total for c, s in shares.items()}
    counts = {c: int(v) for c, v in raw.items()}
    for c in sorted(raw, key=lambda c: counts[c] - raw[c])[
            :total - sum(counts.values())]:
        counts[c] += 1
    return counts


def _nearest(keyed: list, targets: Sequence[int]) -> list:
    """For each target cost, from the largest, the unused candidate
    (key, case, argument) whose key is nearest to it on a log scale."""
    keyed = list(keyed)
    chosen = []
    for target in sorted(targets, reverse=True):
        j = min(range(len(keyed)), key=lambda j: abs(
            math.log1p(keyed[j][0]) - math.log1p(target)))
        chosen.append(keyed.pop(j))
    return chosen


def reduce_finite(seed: int, workdir: str) -> Corpus:
    with open(MIX_FILE) as fh:
        mix = json.load(fh)
    # Keys are counted up to 1.5 times the largest target; candidates past
    # that are not used.
    caps = {cell: 3 * max(t) // 2 for cell, t in mix["targets"].items()}
    rng = random.Random(seed)
    pool = defaultdict(list)   # cell -> [(case, argument)] or [(key, ...)]
    for i in range(REDUCE_POOL):
        n, edges = reduce_af(rng)
        case = write_case(workdir, f"r{i}", [f"a{j}" for j in range(n)],
                          edges, "reduce")
        for command, x in itertools.product(COMMANDS, range(n)):
            cell = cell_of(case, command, x)
            if cell in caps:
                key = cost_key(case, cell, x, caps[cell])
                if key <= caps[cell]:
                    pool[cell].append((key, case, x))
            elif cell is not None:
                pool[cell].append((case, x))
        case.forget_ts()
    make = {"ts": ts_request, "ta": ta_request, "witness": witness_request}
    requests, keys = [], defaultdict(int)
    for cell, count in _allocate(mix["shares"], REDUCE_REQUESTS).items():
        if cell in caps:
            chosen = _nearest(pool[cell], mix["targets"][cell])
            keys[cell] += sum(k for k, _, _ in chosen)
            chosen = [(case, x) for _, case, x in chosen]
        else:
            chosen = rng.sample(pool[cell], count)
        requests += [make[cell.split()[0]](case, x) for case, x in chosen]
    rng.shuffle(requests)
    return Corpus(requests, lambda: {
        "requests": len(requests),
        "max_arguments": max(r.args for r in requests),
        "arguments": sum(r.args for r in requests),
        "ts_symbols": keys["ts pathless"],
        "ta_states": keys["ta pathless"],
    })


BUILDERS = {
    "finite-ground": finite_ground,
    "lazy-certify": lazy_certify,
    "build-targets": build_targets,
    "reduce-finite": reduce_finite,
}
