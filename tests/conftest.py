"""Shared test helpers."""

import json

import pytest

from transfinite_af.checks import children_at, node_state
from transfinite_af.constructions import af_from_finite_tree
from transfinite_af.trees import tree_to_json


def _path_views(paths):
    """Order, children and ranks of a node set, straight from its paths."""
    order = sorted(paths, key=lambda p: (len(p), p))
    kids = {p: [] for p in order}
    for p in order[1:]:
        kids[p[:-1]].append(p[-1])
    ranks = {}
    for p in reversed(order):
        ranks[p] = 1 + max(ranks[p + (c,)] for c in kids[p]) if kids[p] else 0
    return order, kids, ranks


def _path_named_ft(order):
    """F_T's names and attacks, each argument found by its node's path."""
    row = {p: r for r, p in enumerate(order)}
    names = [side + "".join(f"_{s}" for s in p) for p in order for side in "ab"]
    attacks = {(2 * r, 2 * r + 1) for r in range(len(order))}
    attacks |= {(2 * row[p] + 1, 2 * row[p[:-1]]) for p in order if p}
    return tuple(names), frozenset(attacks)


def assert_same_nodes(got, want):
    """`got`, a node table, holds `want`'s nodes, node for node: paths,
    order, each node's state (its row) and children, ranks, tree JSON and
    the F_T built from it."""
    order, kids, ranks = _path_views(want.order)
    assert got == want and len(got) == len(order)
    assert list(got.order) == order and set(got.order) == set(want.order)
    for row, p in enumerate(order):
        assert node_state(got, p) == row
        assert children_at(got, p).explicit == tuple(kids[p])
    assert got.node_ranks() == ranks
    assert got.rank().as_int() == ranks[()]
    assert json.loads(tree_to_json(got)) == {"nodes": [list(p) for p in order]}
    ft = af_from_finite_tree(got)
    assert (ft.af.names, ft.af.attack_pairs) == _path_named_ft(order)


@pytest.fixture
def same_nodes():
    return assert_same_nodes
