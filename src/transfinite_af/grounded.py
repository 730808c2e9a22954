"""Grounded-extension engines.

Three regimes:

* finite AFs: the stages of the defense function from the empty set,
  built as layers by one counter-based worklist kernel (the grounded
  labelling of Modgil & Caminada 2009 and of Nofal, Atkinson & Dunne,
  Computer J. 2021).  Every argument counts its attackers not yet
  defeated; an argument entering G_k defeats its targets, and an
  argument whose count drops to 0 joins G_{k+1}, so a run costs O(n+m).
  The final counts are the grounded labelling (0 IN, below 0 OUT, above
  0 UNDEC); the result keeps them and the layers, and builds a stage map
  only when read.

* finitary lazy AFs: an attacker-closed window is iterated with the same
  kernel; stages are exact for every argument of the closure (the
  closure makes the restricted iteration agree with the global one level
  by level), and a stabilized closure decides NEVER too.

* family-presented lazy AFs: a symbolic verifier.  Inferring closed-form
  stages for arbitrary lazy AFs is not computable, so generators ship
  candidate stage maps and this module certifies them: the successor
  rule and its minimality are checked exactly through affine ordinal
  sups, the NEVER rule locally (co-inductively) from explicit attackers,
  and family closed forms against concrete members before any symbolic
  use.  An attacker family is read only through the closed form its
  generator vouched affine (Family.affine), proved at two or three
  members, or the all-NEVER verdict its generator minted it with
  (Family.all_never); any other attacker family, and every
  counter-attacker family, fails closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .core import Family, FiniteAF, LazyAF, spot_check_attacker_spec
from .errors import Budget, DomainError, IncompleteStageMap
from .ordinals import NEVER, ZERO, Ordinal, StageValue


# -- the stage kernel -----------------------------------------------------------


def _stage_layers(layer: List[int], pending, targets) -> Iterator[List[int]]:
    """Yield the layers G_1 - G_0, G_2 - G_1, ... while they are nonempty.

    `layer` is G_1, the nodes with no attacker; `pending[x]` counts, for
    every node x, the attackers of x inside the node set not yet
    defeated, and `targets[x]` lists the attack edges out of x inside the
    set; the set must be closed under attackers.  The counts are spent as
    the run goes: x joins the layer after the one that defeats its last
    attacker, and a defeated node's count is set to -1 and only falls
    after (its attacker in G is never defeated, so it never reaches 0).
    After a full run the counts are the grounded labelling: 0 for IN,
    below 0 for OUT, above 0 for UNDEC.  Each argument is defeated once and each
    of its outgoing edges decrements one count once: O(n+m) in all.
    """
    while layer:
        yield layer
        nxt = []
        for x in layer:
            for d in targets[x]:
                if pending[d] < 0:
                    continue
                pending[d] = -1
                for t in targets[d]:
                    pending[t] -= 1
                    if not pending[t]:
                        nxt.append(t)
        layer = nxt


# -- finite engine ------------------------------------------------------------


@dataclass(frozen=True)
class GroundedResult:
    """A finite AF's stage layers G_1 - G_0, G_2 - G_1, ... (none empty) and
    its arguments' final counts, whose signs alone carry meaning: 0 in G,
    below 0 in G+, above 0 undecided.  The stage map is built on read."""

    layers: Tuple[Tuple[int, ...], ...]
    counts: Tuple[int, ...]

    @property
    def grounding_ordinal(self) -> Ordinal:
        return Ordinal.from_int(len(self.layers))

    @cached_property
    def grounded(self) -> frozenset:
        return frozenset(chain.from_iterable(self.layers))

    def of_grounded(self, items) -> list:
        """The items at the indices in G, in index order."""
        return [item for item, count in zip(items, self.counts) if not count]

    def outside_plus(self, items) -> list:
        """The items at the indices outside G+ (IN or UNDEC), in index order."""
        return [item for item, count in zip(items, self.counts) if count >= 0]

    @cached_property
    def stages(self) -> Dict[int, StageValue]:
        stages = dict.fromkeys(range(len(self.counts)), NEVER)
        for k, layer in enumerate(self.layers, start=1):
            stage = Ordinal.from_int(k)
            for x in layer:
                stages[x] = stage
        return stages


def grounded_finite(af: FiniteAF) -> GroundedResult:
    """Least fixpoint of the defense function, as its stage layers.

    The stages G_1 <= G_2 <= ... are built as layers by the counter-based
    kernel in O(n+m) for n arguments and m attacks, from the attack rows
    alone: each argument's count of attackers is its number of entries
    in the rows, so no attacker row is built.  The grounding ordinal is
    the number of layers, and the kernel's final counts label G, G+ and
    the undecided rest.
    """
    pending = [0] * af.n
    for row in af._fwd:
        for y in row:
            pending[y] += 1
    first = [x for x in range(af.n) if not pending[x]]
    layers = tuple(map(tuple, _stage_layers(first, pending, af._fwd)))
    return GroundedResult(layers, tuple(pending))


def stages_finite(af: FiniteAF) -> Dict[int, StageValue]:
    """Least stage of every argument: the k of first entry, or NEVER."""
    return grounded_finite(af).stages


# -- windowed approximation for finitary lazy AFs ------------------------------


@dataclass(frozen=True)
class OmegaApproximation:
    """Stage information for an attacker-closed window of a lazy AF.

    stages holds exact finite stages for closure arguments that entered
    within the step budget.  When the closure iteration stabilized,
    `never` is exact as well; otherwise undecided arguments are left in
    `unknown`.
    """

    stages: Dict[int, Ordinal]
    never: frozenset
    unknown: frozenset
    closure: frozenset
    stabilized: bool


def _attacker_closure(af: LazyAF, window: int, closure_cap: Optional[int]
                      ) -> Dict[int, Tuple[int, ...]]:
    """{x: explicit attackers of x} over the attacker closure of [0, window).

    Grown by reverse reachability, each argument queued once when first
    seen; a family-presented attacker spec is a DomainError, and more
    distinct arguments than closure_cap (by default max(8 * window + 64,
    256)) are CapExceeded.
    """
    if closure_cap is None:
        closure_cap = max(8 * window + 64, 256)
    budget = Budget(f"attacker closure of window {window}", closure_cap,
                    "arguments")
    hi = window if af.universe is None else min(window, af.universe)
    frontier = list(range(hi))
    seen = set(frontier)
    budget.spend(hi)
    attackers: Dict[int, Tuple[int, ...]] = {}
    while frontier:
        a = frontier.pop()
        spec = af.attacker_spec(a)
        if spec.families:
            raise DomainError(
                f"argument {a} has family-presented attackers; "
                "use the symbolic engine")
        attackers[a] = spec.explicit
        for b in spec.explicit:
            if b not in seen:
                seen.add(b)
                budget.spend(1)
                frontier.append(b)
    return attackers


def omega_approximation(af: LazyAF, window: int, steps: int,
                        closure_cap: Optional[int] = None) -> OmegaApproximation:
    """Stages of the attacker closure of [0, window), for up to `steps` rounds.

    Every closure argument must have a purely explicit attacker spec;
    family-presented attackers belong to the symbolic engine.  The
    closure is grown by reverse reachability and capped: breaching the
    cap is an error, never a silent truncation.  The rounds run the stage
    kernel of `grounded_finite` over the closure, with target lists
    inverted from the attacker specs, in O(closure + its attacks).  The
    result is `stabilized` only when some round within `steps` adds no
    argument.
    """
    if window < 1 or steps < 1:
        raise ValueError("window and steps must be >= 1")
    attackers = _attacker_closure(af, window, closure_cap)
    targets: Dict[int, List[int]] = {x: [] for x in attackers}
    for x, xs in attackers.items():
        for b in xs:
            targets[b].append(x)

    stages: Dict[int, Ordinal] = {}
    layers = _stage_layers([x for x, xs in attackers.items() if not xs],
                           {x: len(xs) for x, xs in attackers.items()},
                           targets)
    rounds = 0
    for rounds, layer in enumerate(islice(layers, steps), start=1):
        stage = Ordinal.from_int(rounds)
        for x in layer:
            stages[x] = stage
    stabilized = rounds < steps

    closure = frozenset(attackers)
    rest = closure - set(stages)
    if stabilized:
        return OmegaApproximation(stages, rest, frozenset(), closure, True)
    return OmegaApproximation(stages, frozenset(), rest, closure, False)


# -- symbolic stage maps --------------------------------------------------------


class SymbolicStageMap:
    """Candidate per-argument least stages for a lazy AF.

    Finitely many explicit exceptions, finitely many affine stage
    families, and (for generator-structured AFs whose universe has no
    finite family decomposition) a total fallback callable.  The stage
    supremum is always computed from the exceptions and families; a
    fallback must stay at or below it, which the verifier checks on its
    window.  The map answers stages only: whether an attacker family is
    all-NEVER is the family's own all_never, set by the generator that
    mints it.
    """

    def __init__(self, families: Tuple[Family, ...] = (),
                 exceptions: Optional[Dict[int, StageValue]] = None,
                 fallback: Optional[Callable[[int], StageValue]] = None):
        self.families = tuple(families)
        self.exceptions = dict(exceptions or {})
        self.fallback = fallback

    @staticmethod
    def from_finite(stages: Dict[int, StageValue]) -> "SymbolicStageMap":
        return SymbolicStageMap(exceptions=dict(stages))

    def stage_of(self, index: int) -> StageValue:
        if index in self.exceptions:
            return self.exceptions[index]
        for fam in self.families:
            k = fam.index_map.invert(index)
            if k is not None and k >= fam.k_start:
                return NEVER if fam.expr is NEVER else fam.expr.evaluate(k)
        if self.fallback is not None:
            return self.fallback(index)
        raise IncompleteStageMap(f"no stage value for argument {index}")

    def declared_sup(self) -> Tuple[Ordinal, bool, Optional[int]]:
        """(value, attained, witness) for the sup of the non-NEVER stages
        of the exceptions and families; an attained sup's witness is the
        lowest-index exception, else the first family's first member,
        that reaches it."""
        best, attained, witness = ZERO, True, None
        for idx, v in sorted(self.exceptions.items()):
            if v is NEVER:
                continue
            if v > best or (v == best and not attained):
                best, attained, witness = v, True, idx
        for fam in self.families:
            if fam.expr is NEVER:
                continue
            value, att = fam.expr.sup_over(fam.k_start)
            if value > best or (value == best and att and not attained):
                best, attained = value, att
                witness = fam.index_map(fam.k_start) if att else None
        return best, attained, witness


# -- the verifier ----------------------------------------------------------------


@dataclass(frozen=True)
class StageViolation:
    subject: str
    rule: str
    message: str

    def __str__(self):
        return f"[{self.rule}] {self.subject}: {self.message}"


@dataclass
class VerificationReport:
    """The verdict on a candidate stage map, with the stages it checked:
    {index: stage} for every sampled argument the map has a value for."""

    violations: List[StageViolation]
    stages: Dict[int, StageValue]
    grounding_ordinal: Optional[Ordinal]

    @property
    def checked(self) -> int:
        return len(self.stages)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> List[str]:
        """The violations, one line each."""
        return [str(v) for v in self.violations]


class _Verifier:
    def __init__(self, af, candidate: SymbolicStageMap):
        self.candidate = candidate
        self.stage = candidate.stage_of
        self.spec = af.attacker_spec
        self.violations: List[StageViolation] = []

    def bad(self, subject, rule, message):
        self.violations.append(StageViolation(str(subject), rule, message))

    # minstage(b) = least stage among the counter-attackers of b; NEVER
    # when b is never counter-attacked (in particular when unattacked).
    # Only explicit counter-attackers are read: a family of them lies
    # outside the fragment the generators mint, so it fails closed (None).
    def minstage_concrete(self, b: int) -> Optional[StageValue]:
        spec = self.spec(b)
        if spec.families:
            self.bad(b, "fragment", "counter-attacked by a family; outside "
                     "the supported fragment of explicit counter-attackers")
            return None
        return min(map(self.stage, spec.explicit), default=NEVER)

    # -- rule (i): successor stages ------------------------------------

    def check_stage(self, a: int, s: Ordinal):
        if not s.is_successor:
            self.bad(a, "successor", f"stage {s} is not a successor ordinal")
            return
        beta = s.predecessor()
        spec = self.spec(a)
        tight = ZERO
        failed = False
        for b in spec.explicit:
            m = self.minstage_concrete(b)
            if m is None:
                failed = True
            elif m is NEVER:
                self.bad(a, "bound",
                         f"attacker {b} is never counter-attacked, yet stage is {s}")
                failed = True
            elif m > beta:
                self.bad(a, "bound",
                         f"attacker {b} first counter-attacked at {m} > {beta}")
                failed = True
            elif m > tight:
                tight = m
        for fam in spec.families:
            dse = fam.expr
            if dse is NEVER:
                self.bad(a, "bound",
                         f"attacker family {fam.index_map} is never "
                         f"counter-attacked, yet stage is {s}")
                failed = True
                continue
            if dse is None or not fam.affine:
                self.bad(a, "closed-form",
                         f"attacker family {fam.index_map} has no defense "
                         "stage closed form its generator vouched affine")
                failed = True
                continue
            # two members k >= 1 pin an affine form: CNF is unique and
            # every coefficient a*k + b is positive there.  At k = 0 a
            # term with b = 0 drops out of the CNF, so that member pins
            # nothing and is probed on its own.
            for k in range(fam.k_start, max(fam.k_start, 1) + 2):
                got = self.minstage_concrete(fam.member(k))
                want = dse.evaluate(k)
                if got != want:
                    if got is not None:
                        self.bad(a, "closed-form",
                                 f"defense closed form gives {want} at k={k}, "
                                 f"samples give {got}")
                    failed = True
                    break
            value, _attained = dse.sup_over(fam.k_start)
            if value > beta:
                self.bad(a, "bound",
                         f"family defense stages reach {value} > {beta}")
                failed = True
            elif value > tight:
                tight = value
        if not failed and tight != beta:
            self.bad(a, "least",
                     f"stage {s} claimed but defense completes at {tight}+1")

    # -- rule (ii): NEVER ------------------------------------------------

    # True when every counter-attacker of b is NEVER, False when one is
    # not, else the first family of them that its generator did not mint
    # all-NEVER.
    def attacker_never_in_g_plus(self, b: int):
        spec = self.spec(b)
        for c in spec.explicit:
            if self.stage(c) is not NEVER:
                return False
        for fam in spec.families:
            if not fam.all_never:
                return fam
        return True

    def check_never(self, a: int):
        spec = self.spec(a)
        unproven = None
        for b in spec.explicit:
            verdict = self.attacker_never_in_g_plus(b)
            if verdict is True:
                return
            if verdict is not False and unproven is None:
                unproven = (f"attacker {b}'s counter-attacker family "
                            f"{verdict.index_map} is not proved all-NEVER")
        if not spec.explicit and not spec.families:
            self.bad(a, "never", "claimed NEVER but the argument is unattacked")
        else:
            self.bad(a, "never", unproven or "no explicit attacker has all "
                     "its counter-attackers NEVER")

    # -- supremum / grounding ordinal -------------------------------------

    def check_sup(self, stages: Dict[int, StageValue]) -> Ordinal:
        value, attained, witness = self.candidate.declared_sup()
        for i, s in stages.items():
            if s is NEVER:
                continue
            if s > value:
                self.bad(i, "sup", f"stage {s} exceeds declared sup {value}")
            elif s == value and not attained:
                self.bad(i, "sup",
                         f"stage {s} attains a sup declared unattained")
        # an exception or an earlier family can shadow the attaining member
        if witness is not None and (w := self.stage(witness)) != value:
            self.bad("sup", "sup",
                     f"witness {witness} has stage {w}, declared sup {value}")
        return value


def verify_symbolic_stages(af, candidate: SymbolicStageMap,
                           sample: int = 64) -> VerificationReport:
    """Certify a candidate stage map against its AF.

    For each sampled argument: a successor stage must be exactly one
    above the level at which the last attacker gets counter-attacked
    (families handled through validated affine closed forms, so limits
    are exact), and a NEVER stage needs an explicit attacker whose own
    counter-attackers are all NEVER.  The grounding ordinal is the map's
    supremum, computed from its exceptions and families.  No sampled
    stage, a fallback's included, may exceed it, or reach it when it is
    unattained, and an attained one's witness must have it as its stage.
    The window is [0, sample) clipped to af.universe; its attacker specs
    are spot-checked against the attack predicate first.
    """
    if sample < 1:
        raise ValueError("sample must be >= 1")
    v = _Verifier(af, candidate)
    hi = sample if af.universe is None else min(sample, af.universe)
    indices = range(hi)
    v.violations.extend(
        StageViolation("spec", "attacker-spec", msg)
        for msg in spot_check_attacker_spec(af, indices, bound=max(hi, 16)))

    stages: Dict[int, StageValue] = {}
    for a in indices:
        try:
            s = stages[a] = candidate.stage_of(a)
        except IncompleteStageMap as e:
            v.bad(a, "complete", str(e))
            continue
        if s is NEVER:
            v.check_never(a)
        else:
            v.check_stage(a, s)

    value = v.check_sup(stages)
    ordinal = value if not v.violations else None
    return VerificationReport(v.violations, stages, ordinal)
