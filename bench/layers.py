"""Per-layer metrics from a traced run.

Each value covers one run of the ten warm-up requests plus one traced
pass (the mean over the traced passes); corpus generation is left out.
The `setup.` metrics cover one traced set-up: corpus generation, file
writing and warm-up.  `.ms` is inclusive time of the outermost call,
`self_ms` is span time minus the time of wrapped callees, and `.calls`
counts calls.  Ratios are taken over the same warm-up-plus-pass totals.
"""

from __future__ import annotations

import statistics

GF = "grounded.grounded_finite"
OMEGA = "grounded.omega_approximation"

# (metric, unit, tracer -> value)
TOTALS = [
    (GF + ".ms", "ms", lambda t: t.ms(GF)),
    (GF + ".deep_ms", "ms", lambda t: t.tag_ns[(GF, "deep")] / 1e6),
    (GF + ".wide_ms", "ms", lambda t: t.tag_ns[(GF, "wide")] / 1e6),
    ("grounded.defense_step.calls", "count",
     lambda t: t.calls["core.FiniteAF.defense_step"]),
    ("grounded.verify_symbolic_stages.ms", "ms",
     lambda t: t.ms("grounded.verify_symbolic_stages")),
    ("grounded.verify_symbolic_stages.checked", "count",
     lambda t: t.extra["verify_checked"]),
    (OMEGA + ".ms", "ms", lambda t: t.ms(OMEGA)),
    (OMEGA + ".closure", "count", lambda t: t.extra["omega_closure"]),
    ("rank_analysis.ts_rank.ms", "ms", lambda t: t.ms("rank_analysis.ts_rank")),
    ("rank_analysis.ta_rank.ms", "ms", lambda t: t.ms("rank_analysis.ta_rank")),
    ("rank_analysis.ts_path_exists.ms", "ms",
     lambda t: t.ms("rank_analysis.ts_path_exists")),
    ("rank_analysis.expand_ts.ms", "ms",
     lambda t: t.ms("rank_analysis.expand_ts")),
    ("rank_analysis.witness_path.ms", "ms",
     lambda t: t.ms("rank_analysis.witness_path")),
    ("rank_analysis.largest_self_defending.ms", "ms",
     lambda t: t.ms("rank_analysis.largest_self_defending")),
    ("trees.truncate_tree.ms", "ms", lambda t: t.ms("trees.truncate_tree")),
    ("trees.truncate_tree.nodes", "count", lambda t: t.extra["truncate_nodes"]),
    ("trees.tree_to_json.ms", "ms", lambda t: t.ms("trees.tree_to_json")),
    ("trees.LazyTree.member.calls", "count",
     lambda t: t.calls["trees.LazyTree.member"]),
    ("constructions.af_from_finite_tree.ms", "ms",
     lambda t: t.ms("constructions.af_from_finite_tree")),
    ("constructions.disjoint_union.ms", "ms",
     lambda t: t.ms("constructions.disjoint_union_with_embedding")),
    ("constructions.materialize_spec.ms", "ms",
     lambda t: t.ms("constructions.materialize_spec")),
    ("ordinals.Ordinal.init.calls", "count",
     lambda t: t.calls["ordinals.Ordinal.init"]),
    ("ordinals.fundamental_sequence.calls", "count",
     lambda t: t.calls["ordinals.fundamental_sequence"]),
    ("ordinals.compare.calls", "count", lambda t: t.calls["ordinals.compare"]),
    ("core.parse_apx.ms", "ms", lambda t: t.ms("core.parse_apx")),
    ("core.FiniteAF.init.ms", "ms", lambda t: t.ms("core.FiniteAF.init")),
    ("core.format_apx.ms", "ms", lambda t: t.ms("core.format_apx")),
    ("core.LazyAF.attacker_spec.calls", "count",
     lambda t: t.calls["core.LazyAF.attacker_spec"]),
    ("core.LazyAF.attacks.calls", "count",
     lambda t: t.calls["core.LazyAF.attacks"]),
    ("cli.main.self_ms", "ms", lambda t: t.module_self_ms("cli")),
    ("cli.output_bytes", "B", lambda t: t.extra["output_bytes"]),
] + [(f"{m}.self_ms", "ms", lambda t, m=m: t.module_self_ms(m))
     for m in ("core", "trees", "constructions", "grounded", "rank_analysis")]

# (metric, unit, numerator, denominator), each tracer -> value
RATIOS = [
    ("grounded.scan_useful_ratio", "ratio",
     lambda t: t.extra["defense_useful"], lambda t: t.extra["defense_scanned"]),
    (GF + ".calls_per_req", "count",
     lambda t: t.calls[GF], lambda t: t.requests),
    (OMEGA + ".attacks_per_closure_arg", "count",
     lambda t: t.extra["omega_attacks"], lambda t: t.extra["omega_closure"]),
]

# Set-up work: corpus generation (tree-lifted AFs in finite-ground),
# file writing and warm-up.  It moves `setup_s`, not the pass metrics.
SETUP = [("setup.trees.truncate_tree.ms", "ms",
          lambda t: t.ms("trees.truncate_tree"))] + [
    (f"setup.{m}.self_ms", "ms", lambda t, m=m: t.module_self_ms(m))
    for m in ("cli", "core", "trees", "constructions", "grounded",
              "rank_analysis")]

NAMES = [m for m, _, _ in TOTALS] + [m for m, _, _, _ in RATIOS] + [
    m for m, _, _ in SETUP] + [
    "trace.overhead_s", "trace.overhead_iqr_s", "trace.overhead_pct",
    "trace.untraced_wall_s"]


def layer_metrics(setup, warm, passes, pairs) -> dict:
    """{metric: (value, unit)} for one warm-up plus one pass, and set-up.

    `pairs` holds (untraced, traced) pass times of adjacent passes; the
    overhead is the median of their differences, and its spread the
    distance between their quartiles.
    """
    def total(fn):
        return fn(warm) + fn(passes) / len(pairs)

    out = {name: (total(fn), unit) for name, unit, fn in TOTALS}
    for name, unit, num, den in RATIOS:
        d = total(den)
        out[name] = (total(num) / d if d else 0.0, unit)
    for name, unit, fn in SETUP:
        out[name] = (fn(setup), unit)
    diffs = [traced - plain for plain, traced in pairs]
    q1, _, q3 = statistics.quantiles(diffs, n=4)
    untraced = statistics.median(plain for plain, _ in pairs)
    out["trace.overhead_s"] = (statistics.median(diffs), "s")
    out["trace.overhead_iqr_s"] = (q3 - q1, "s")
    out["trace.overhead_pct"] = (statistics.median(
        100 * (traced - plain) / plain for plain, traced in pairs), "%")
    out["trace.untraced_wall_s"] = (untraced, "s")
    return out
