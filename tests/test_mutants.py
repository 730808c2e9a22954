"""The mutant table fits the tree: each mutant's old text occurs once in
its module, and each test it names is collected.  Running the table
itself (`python tests/mutants.py`) is a separate CI step."""

import subprocess
import sys

from mutants import MUTANTS, PACKAGE, ROOT


def test_each_mutant_text_occurs_once():
    for mutant in MUTANTS:
        text = (ROOT / PACKAGE / mutant.file).read_text()
        assert text.count(mutant.old) == 1, (mutant.file, mutant.old)
        assert mutant.new != mutant.old and mutant.kills and mutant.origin


def test_each_mutant_names_collected_tests(request):
    # a named function stands for all of its parametrized cases
    collected = {item.nodeid for item in request.session.items}
    collected |= {nodeid.split("[")[0] for nodeid in collected}
    named = {nodeid for mutant in MUTANTS for nodeid in mutant.kills}
    missing = sorted(named - collected)
    if missing:  # run without the named tests' modules: collect them alone
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
             "no:cacheprovider", *missing],
            cwd=ROOT, capture_output=True, text=True)
        assert done.returncode == 0, done.stdout + done.stderr
