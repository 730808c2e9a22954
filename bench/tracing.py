"""In-memory tracing of the library's public functions, from outside it.

A Tracer replaces every module binding of each wrapped function (so
`cli.grounded_finite` and `rank_analysis.grounded_finite` are caught as
well as `grounded.grounded_finite`) and the few methods named below, and
puts the originals back on exit.  Span functions record (id, name,
start, end, parent, request) and their self time; hot functions only count
calls, because timing each of them would distort the run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from transfinite_af import (cli, constructions, core, grounded, ordinals,
                            rank_analysis, trees)
import transfinite_af
from transfinite_af import checks

SPAN_MODULES = (cli, core, trees, constructions, grounded, rank_analysis)
ALL_MODULES = SPAN_MODULES + (ordinals, checks, transfinite_af)
# Called so often that a span per call would swamp the run: counts only.
COUNT_ONLY = {"core.pair", "core.unpair"}


def _owner_name(fn) -> Optional[str]:
    mod = getattr(fn, "__module__", "") or ""
    if not mod.startswith("transfinite_af."):
        return None
    return mod.rsplit(".", 1)[1]


class Tracer:
    """Spans and counts for one traced stretch of the run."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.tag_ns: Dict[tuple, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        self.request = None
        self.requests = 0
        self.tag = None
        self._stack: List[list] = []   # [span id, start ns, child ns]
        self._active: Dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn: Callable, after=None) -> Callable:
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            outermost = tracer._active[name] == 0
            tracer._active[name] += 1
            frame = [sid, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                tracer._active[name] -= 1
                dur = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[2]
                if outermost:
                    tracer.incl_ns[name] += dur
                    tracer.tag_ns[(name, tracer.tag)] += dur
                if stack:
                    stack[-1][2] += dur
                tracer.spans.append((sid, name, frame[1], end, parent,
                                     tracer.request))
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks that measure useful work where it happens -------------------

    @staticmethod
    def _after_defense_step(tracer, args, result):
        tracer.extra["defense_useful"] += len(result)
        tracer.extra["defense_scanned"] += args[0].n

    @staticmethod
    def _after_verify(tracer, args, result):
        tracer.extra["verify_checked"] += result.checked

    @staticmethod
    def _after_truncate(tracer, args, result):
        tracer.extra["truncate_nodes"] += len(result)

    def _omega(self, fn: Callable) -> Callable:
        inner = self._span("grounded.omega_approximation", fn,
                           after=self._after_omega)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.calls["core.LazyAF.attacks"]
            tracer.extra["omega_attacks_before"] = before
            return inner(*args, **kwargs)
        return wrapper

    @staticmethod
    def _after_omega(tracer, args, result):
        tracer.extra["omega_closure"] += len(result.closure)
        tracer.extra["omega_attacks"] += (
            tracer.calls["core.LazyAF.attacks"]
            - tracer.extra["omega_attacks_before"])

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        hooks = {
            "grounded.verify_symbolic_stages": self._after_verify,
            "trees.truncate_tree": self._after_truncate,
        }
        wrapped = {}
        for mod in SPAN_MODULES + (ordinals,):
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or _owner_name(fn) != mod.__name__.rsplit(".", 1)[1]):
                    continue
                name = f"{_owner_name(fn)}.{attr}"
                if name == "grounded.omega_approximation":
                    wrapped[fn] = self._omega(fn)
                elif mod is ordinals or name in COUNT_ONLY:
                    wrapped[fn] = self._count(f"ordinals.{attr}"
                                              if mod is ordinals else name, fn)
                else:
                    wrapped[fn] = self._span(name, fn, after=hooks.get(name))
        for mod in ALL_MODULES:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])

        FiniteAF, LazyAF = core.FiniteAF, core.LazyAF
        self._set(FiniteAF, "__init__",
                  self._span("core.FiniteAF.init", FiniteAF.__init__))
        self._set(FiniteAF, "defense_step",
                  self._span("core.FiniteAF.defense_step",
                             FiniteAF.defense_step,
                             after=self._after_defense_step))
        self._set(LazyAF, "attacker_spec",
                  self._count("core.LazyAF.attacker_spec",
                              LazyAF.attacker_spec))
        self._set(LazyAF, "attacks",
                  self._count("core.LazyAF.attacks", LazyAF.attacks))
        self._set(trees.LazyTree, "member",
                  self._count("trees.LazyTree.member", trees.LazyTree.member))
        Ordinal = ordinals.Ordinal
        self._set(Ordinal, "__init__",
                  self._count("ordinals.Ordinal.init", Ordinal.__init__))
        for op in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            self._set(Ordinal, op,
                      self._count("ordinals.compare", getattr(Ordinal, op)))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def ms(self, name: str) -> float:
        return self.incl_ns.get(name, 0) / 1e6

    def module_self_ms(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_ns.items()
                   if k.startswith(prefix)) / 1e6

    def dump(self) -> dict:
        return {"fields": ["id", "name", "start_ns", "end_ns", "parent",
                           "request"],
                "spans": self.spans,
                "calls": dict(self.calls)}
