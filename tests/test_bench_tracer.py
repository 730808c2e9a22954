"""The bench tracer patches library members by name: entering it fails
here, not in a traced bench run, once a library change removes one."""

from pathlib import Path

from transfinite_af import core, grounded, trees

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_the_bench_tracer_patches_and_restores_library_members(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    members = [(trees.LazyTree, "member"), (core.FiniteAF, "defense_step"),
               (grounded, "grounded_finite")]
    originals = [getattr(owner, attr) for owner, attr in members]
    with tracing.Tracer():
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(members, originals))
    assert [getattr(owner, attr) for owner, attr in members] == originals
