"""Mutants of the library that the tests have killed, kept as a table.

Each entry changes one module of the package: `old`, a text that occurs
exactly once in it, becomes `new`.  `kills` names the test node ids
that must fail on the mutated tree, and `origin` the change whose
tests first killed the mutant, in the words of its commit subject.  A
mutant that its tests no longer kill is a finding: mend the tests,
never the entry or its ids.

Run as a script, `python tests/mutants.py` copies src/, tests/ and
pyproject.toml into a fresh temporary directory for each mutant,
applies it there and runs `python -m pytest -x -q <kills>` in that
copy.  The whole tree is copied because pyproject.toml's pytest setting
`pythonpath = ["src"]` puts the checkout's own src/ ahead of
PYTHONPATH: a mutated src/ on PYTHONPATH alone would go untested.  The
script exits 1 naming every mutant that survived.  test_mutants.py
checks that the table fits the tree.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "transfinite_af")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    kills: Tuple[str, ...]
    origin: str


MUTANTS = (
    Mutant("grounded.py",
           "            if dse is None or not fam.affine:\n",
           "            if dse is None:\n",
           ("tests/test_constructions.py::"
            "test_an_unvouched_attacker_family_is_refused_at_every_sample",),
           "Refuse an attacker family without its generator's affine vouch"),
    Mutant("rank_analysis.py",
           "            row = symbol[n] = j + 1\n            commit(j)\n",
           "            row = symbol[n] = j + 1\n            pass\n",
           ("tests/test_rank_analysis.py::"
            "test_defense_prefixes_match_the_per_level_oracle",
            "tests/test_rank_analysis.py::test_witness_paths_random"),
           "Build T_S path prefixes in one pass over the levels"),
    Mutant("constructions.py",
           "    return replace(fam, index_map=fam.index_map.then(PairLeft(p)))\n",
           "    return replace(fam, index_map=fam.index_map.then(PairLeft(p)),\n"
           "                   all_never=False)\n",
           ("tests/test_constructions.py::test_a_verdict_lifted_twice_certifies",
            "tests/test_constructions.py::"
            "test_two_chain_never_evidence_survives_union"),
           "Carry the all-NEVER verdict on attacker families"),
    Mutant("grounded.py",
           "max(fam.k_start, 1) + 2",
           "max(fam.k_start, 1) + 1",
           ("tests/test_grounded.py::test_the_closed_form_rule_reads_a_vouched"
            "_family_at_three_members[0-True-probed0]",
            "tests/test_grounded.py::test_the_closed_form_rule_reads_a_vouched"
            "_family_at_three_members[2-True-probed1]",
            "tests/test_constructions.py::"
            "test_verification_work_at_sample_150_is_pinned"),
           "Check a generator-vouched attacker closed form at three points"),
)


def run(mutant: Mutant) -> int:
    """pytest's exit code on the mutant's tests, in a mutated copy of the
    tree: 1 when they kill it, 0 when it survives."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, tmp / tree,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / PACKAGE / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: old text does not occur once: "
                             f"{mutant.old!r}")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.kills],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        code = run(mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        print(f"{verdict}: {mutant.file}: {mutant.old.strip()!r} -> "
              f"{mutant.new.strip()!r} ({mutant.origin})", flush=True)
        if code != 1:
            survivors.append(mutant)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
