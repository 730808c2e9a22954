"""Grounded semantics over finite and lazily presented argumentation frameworks."""

from .constructions import (
    af_from_finite_tree,
    af_from_tree,
    baumann_spanring,
    disjoint_union,
    materialize_spec,
    ordinal_target_af,
    parse_generator_spec,
)
from .core import (
    Family,
    FiniteAF,
    IndexMap,
    LazyAF,
    Members,
    format_apx,
    format_dot,
    pair,
    parse_apx,
    spot_check_attacker_spec,
    unpair,
)
from .grounded import (
    GroundedResult,
    SymbolicStageMap,
    VerificationReport,
    grounded_finite,
    omega_approximation,
    stages_finite,
    verify_symbolic_stages,
)
from .ordinals import (
    NEVER,
    OMEGA,
    ONE,
    ZERO,
    AffineOrdinalExpr,
    Ordinal,
    format_ordinal,
    fundamental_sequence,
    omega_power,
    parse_ordinal,
)
from .rank_analysis import (
    build_Ta,
    build_TS,
    largest_self_defending,
    ta_path_exists,
    ta_rank,
    ts_path_exists,
    witness_path,
)
from .trees import (
    FiniteTree,
    LazyTree,
    bounded_path_search,
    build_tree_of_rank,
    rank_finite,
    tree_from_json,
    tree_to_json,
    truncate_tree,
)

__all__ = [
    "AffineOrdinalExpr", "Family", "FiniteAF", "FiniteTree",
    "GroundedResult", "IndexMap", "LazyAF", "LazyTree", "Members",
    "NEVER", "OMEGA", "ONE", "Ordinal", "SymbolicStageMap",
    "VerificationReport", "ZERO",
    "af_from_finite_tree", "af_from_tree", "baumann_spanring",
    "bounded_path_search", "build_Ta", "build_TS", "build_tree_of_rank",
    "disjoint_union", "format_apx", "format_dot", "format_ordinal",
    "fundamental_sequence", "grounded_finite", "largest_self_defending",
    "materialize_spec", "omega_approximation", "omega_power",
    "ordinal_target_af", "pair", "parse_apx", "parse_generator_spec",
    "parse_ordinal", "rank_finite", "spot_check_attacker_spec",
    "stages_finite", "ta_path_exists", "ta_rank", "tree_from_json",
    "tree_to_json", "truncate_tree", "ts_path_exists", "unpair",
    "verify_symbolic_stages", "witness_path",
]
