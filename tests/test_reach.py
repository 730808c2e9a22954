"""The reach guard: every library line has a CLI reason.

tests/cli_corpus.py runs its CLI corpus in one subprocess under a line
collector.  Every statement of a function body in the library outside
checks.py and __init__.py must run, or lie in a scope that
CLI_UNREACHED_ALLOWED lists with the reason no CLI input reaches it, and
each listed scope must still hold a statement that does not run, so no
entry goes stale.  Scopes are dotted paths of the enclosing classes and
functions, as in OUTSIDE_READ_ALLOWED.  The same run pins every argv's
output with one recorded sha256.

The name-level guard in test_design.py counts a method as called when
any code reads its name, so it cannot see a branch no input takes, nor
a method whose name a live method of another class shares.  Only the
corpus runs traced: a tracer slows the suite about sixfold, past its
wall-clock bounds.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import transfinite_af
from cli_corpus import CORPUS, INPUTS, UNTRACED
from test_design import ACCEPTANCE, DEFINITIONS, plant, unnamed_definitions

SRC = Path(transfinite_af.__file__).parent
COLLECTOR = Path(__file__).parent / "cli_corpus.py"

API = "checks on Python-API input"
WRONG_MAP = "fires only on a wrong stage map or attacker spec"
BENCH = "the bench calls it"
CHECKS = "checks.py and the bench tracer read it"
DUNDER = "a dunder: Python calls it"
# Scopes holding statements that no CLI input runs, each with its reason.
CLI_UNREACHED_ALLOWED = {
    "cli.py": {
        "cmd_grounded": WRONG_MAP,
        "compile_table": API + ": parser features build_parser does not use",
    },
    "constructions.py": {
        "FiniteTreeAF.a_index": ACCEPTANCE,
        "FiniteTreeAF.b_index": ACCEPTANCE,
        "FiniteTreeAF.order": ACCEPTANCE,
        "_tree_af.predicate": API + ": a pair across parts, which no "
                                    "engine asks",
        "baumann_spanring": API,
        "materialize_spec": API,
    },
    "core.py": {
        "Affine.__post_init__": API,
        "Family.member": API + ": a member past the head the engines read",
        "FiniteAF.__eq__": DUNDER,
        "FiniteAF.__hash__": DUNDER,
        "FiniteAF.__init__": API,
        "FiniteAF.__repr__": DUNDER,
        "FiniteAF._as_extension": API,
        "FiniteAF._check": API,
        "FiniteAF.attacks": API,
        "FiniteAF.defense_step": CHECKS,
        "LazyAF._check": API,
        "LazyAF.attacks": API,
        "PairRight.apply": API + ": a limit target's root stage family is "
                                 "only inverted",
        "pair": API,
        "spot_check_attacker_spec": WRONG_MAP,
        "unpair": API,
    },
    "grounded.py": {
        "SymbolicStageMap.stage_of": WRONG_MAP,
        "VerificationReport.lines": WRONG_MAP,
        "_Verifier.attacker_never_in_g_plus": WRONG_MAP,
        "_Verifier.check_never": WRONG_MAP,
        "_Verifier.check_stage": WRONG_MAP + ", and " + API + ": an attacker "
                                                "family its generator did "
                                                "not vouch affine",
        "_Verifier.check_sup": WRONG_MAP,
        "_Verifier.minstage_concrete": WRONG_MAP + ": a counter-attacker "
                                                   "family, which no "
                                                   "generator mints",
        "_attacker_closure": BENCH,
        "omega_approximation": BENCH,
        "verify_symbolic_stages": WRONG_MAP + ", and " + API,
    },
    "ordinals.py": {
        "AffineOrdinalExpr.__eq__": DUNDER,
        "AffineOrdinalExpr.__hash__": DUNDER,
        "AffineOrdinalExpr.__init__": API,
        "AffineOrdinalExpr.__repr__": DUNDER,
        "AffineOrdinalExpr.add_finite": API,
        "AffineOrdinalExpr.evaluate": API,
        "AffineOrdinalExpr.sup_over": API + ": a constant family",
        "Ordinal.__add__": DUNDER,
        "Ordinal.__bool__": DUNDER,
        "Ordinal.__init__": API,
        "Ordinal.__radd__": DUNDER,
        "Ordinal.__repr__": DUNDER,
        "Ordinal.as_int": API,
        "Ordinal.from_int": API,
        "Ordinal.predecessor": API,
        "_coerce": API,
        "_compare": API,
        "format_ordinal": API,
        "fundamental_sequence": API,
        "fundamental_sequence_expr": API,
        "omega_power": API,
    },
    "rank_analysis.py": {
        "TsDecision.__repr__": DUNDER,
        "_defense_prefix": "fires only on a wrong grounding: the "
                           "complement of G+ defends itself",
        "_first_attacked_level": API + ": ts_rank on a seed nothing attacks",
        "_ts_rank_states.entry": API + ": ts_rank on a seed nothing attacks",
        "_witness_path": "fires only on a wrong grounding: an argument "
                         "outside G has an attacker outside G+",
        "build_Ta": ACCEPTANCE,
        "ta_path_exists": API,
        "ta_path_violations": BENCH + "; its problems fire only on a "
                                      "wrong path",
        "ta_rank": ACCEPTANCE,
        "ts_path_exists": API,
        "witness_path": API,
    },
    "trees.py": {
        "FiniteTree.__eq__": DUNDER,
        "FiniteTree.__hash__": DUNDER,
        "FiniteTree.__repr__": DUNDER,
        "FiniteTree.node_ranks": ACCEPTANCE,
        "FiniteTree.order": ACCEPTANCE,
        "LazyTree.member": CHECKS,
        "LazyTree.step": CHECKS,
        "PathSearchResult.__repr__": DUNDER,
        "bounded_path_search": API,
        "truncate_tree": API,
    },
}


def body_statements(tree: ast.Module) -> list:
    """(scope, statement) of every statement in a function body, nested
    ones included, but for docstrings; the scope is the dotted path of
    the enclosing classes and functions."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            docstring = (isinstance(node, DEFINITIONS) and child is node.body[0]
                         and isinstance(child, ast.Expr)
                         and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            if in_function and isinstance(child, ast.stmt) and not docstring:
                found.append((".".join(scope), child))
            if isinstance(child, DEFINITIONS):
                visit(child, scope + (child.name,),
                      not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(tree, (), False)
    return found


def unreached(src: Path, reached: dict) -> dict:
    """{module: {scope: [line]}} of the function-body statements, in the
    traced modules of `src`, none of whose lines ran; `reached` is the
    collector's {module file: [line]}.  A compound statement counts as
    run when any line of it, its body included, ran."""
    out = {}
    for path in sorted(src.glob("*.py")):
        if path.name in UNTRACED:
            continue
        ran = set(reached.get(path.name, ()))
        for scope, stmt in body_statements(ast.parse(path.read_text())):
            first = min([stmt.lineno] + [d.lineno for d in
                                         getattr(stmt, "decorator_list", ())])
            if ran.isdisjoint(range(first, stmt.end_lineno + 1)):
                out.setdefault(path.name, {}).setdefault(scope, []).append(
                    stmt.lineno)
    return out


def covers(allowed: dict, module: str, scope: str):
    """The allowed scope that `scope` of `module` lies in, or None."""
    return next((key for key in allowed.get(module, ())
                 if scope == key or scope.startswith(key + ".")), None)


def stray(found: dict, allowed: dict) -> dict:
    """The unreached statements in no allowed scope."""
    out = {}
    for module, scopes in found.items():
        for scope, lines in scopes.items():
            if covers(allowed, module, scope) is None:
                out.setdefault(module, {})[scope] = lines
    return out


def stale(found: dict, allowed: dict) -> dict:
    """{module: {scope}} of the allowed scopes holding no unreached
    statement."""
    live = {(module, covers(allowed, module, scope))
            for module, scopes in found.items() for scope in scopes}
    out = {}
    for module, scopes in allowed.items():
        for scope in scopes:
            if (module, scope) not in live:
                out.setdefault(module, set()).add(scope)
    return out


def run_traced(package: Path, argvs: list, cwd: Path):
    """Each argv's [exit code, stdout, stderr, -o file text or None] and
    the lines that ran, from one collector process over the package at
    `package`."""
    env = {key: value for key, value in os.environ.items()
           if key != "TRANSFINITE_AF_SEED"}
    done = subprocess.run(
        [sys.executable, str(COLLECTOR), str(package)], input=json.dumps(argvs),
        capture_output=True, text=True, cwd=cwd, timeout=120,
        env={**env, "PYTHONHASHSEED": "0", "COLUMNS": "80"})
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    return doc["results"], doc["reached"]


def test_every_library_line_has_a_cli_reason(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    results, reached = run_traced(SRC, [argv for argv, _ in CORPUS], tmp_path)
    assert [(argv, result[0]) for (argv, _), result in zip(CORPUS, results)] \
        == CORPUS
    assert [argv for (argv, _), (_, _, err, _) in zip(CORPUS, results)
            if "Traceback" in err] == []
    # sha256 of every argv's exit code, stdout, stderr and -o file,
    # re-recorded when the corpus gained a T_S prefix that commits an
    # attacked counter-attacker and the argument-less and repeated-%stage
    # injected maps, and again when it gained a NEVER claim resting on a
    # family lifted through two unions; the outputs of the argvs it held
    # before are unchanged
    digest = hashlib.sha256()
    for (argv, _), result in zip(CORPUS, results):
        record = [argv] + [text.replace(str(tmp_path), "DIR")
                           if isinstance(text, str) else text
                           for text in result]
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == \
        "da164c49ca7d6174c777b90e66156cd08638f36574c1bf123b2e5e08dd8c4eca"
    found = unreached(SRC, reached)
    assert stray(found, CLI_UNREACHED_ALLOWED) == {}
    assert stale(found, CLI_UNREACHED_ALLOWED) == {}
    assert all(isinstance(reason, str) and reason
               for scopes in CLI_UNREACHED_ALLOWED.values()
               for reason in scopes.values())


def test_the_reach_guard_sees_an_unreached_branch(tmp_path):
    (tmp_path / "planted").mkdir()
    package = plant(tmp_path / "planted", {
        "__init__.py": "",
        "mod.py": "class Box:\n"
                  "    def member(self, x):\n"
                  "        if x < 0:\n"
                  "            raise ValueError(x)\n"
                  "        return x\n"
                  "class Crate:\n"
                  "    def member(self, x):\n"
                  '        """Never called: Box.member takes its name."""\n'
                  "        return x\n"
                  "def table():\n"
                  "    return {}\n",
        "cli.py": "from .mod import Box, Crate, table\n"
                  "TABLE = table()\n"
                  "KINDS = (Box, Crate)\n"
                  "def main(argv):\n"
                  "    if argv == ['crash']:\n"
                  "        raise KeyError(argv[0])\n"
                  "    return KINDS[0]().member(len(argv))\n"
                  "if __name__ == '__main__':\n"
                  "    main([])\n"})
    results, reached = run_traced(package, [["box"], ["crash"]], tmp_path)
    assert results[0] == [1, "", "", None]
    assert results[1][0] is None and "Traceback" in results[1][2]
    # import-time calls count; the branch and the shadowed method do not
    found = unreached(package, reached)
    assert found == {"mod.py": {"Box.member": [4], "Crate.member": [9]}}
    # the name-level guard counts Crate.member as called
    assert unnamed_definitions(package) == {}
    allowed = {"mod.py": {"Box": "reason", "table": "reason"},
               "cli.py": {"main": "reason"}}
    assert stray(found, allowed) == {"mod.py": {"Crate.member": [9]}}
    assert stale(found, allowed) == {"mod.py": {"table"}, "cli.py": {"main"}}
