"""Design guards over the library's source.

The engines ask an AF the same attacker queries whatever its kind
(`universe`, `attacker_spec`, `attacker_candidates`), so only a few
places may test whether an AF is finite or lazy: the CLI's engine
choice, the generators' all-finite compaction and finite parts' exact
stages, and FiniteAF.__eq__.
"""

import ast
from pathlib import Path

import transfinite_af

SRC = Path(transfinite_af.__file__).parent
AF_KINDS = {"FiniteAF", "LazyAF"}
KIND_CHECKS_ALLOWED = {"cli.py", "constructions.py"}


def kind_checks(path: Path) -> list:
    """(scope, line) of every isinstance call whose class names an AF kind;
    the scope is the dotted path of the enclosing classes and functions."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & AF_KINDS:
                found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_only_the_engine_choice_asks_an_af_its_kind():
    stray = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name in KIND_CHECKS_ALLOWED:
            continue
        checks = [(scope, line) for scope, line in kind_checks(path)
                  if (path.name, scope) != ("core.py", "FiniteAF.__eq__")]
        if checks:
            stray[path.name] = checks
    assert stray == {}


def test_the_guard_sees_the_allowed_kind_checks():
    assert [scope for scope, _ in kind_checks(SRC / "core.py")] == \
        ["FiniteAF.__eq__"]
    assert kind_checks(SRC / "cli.py") and kind_checks(SRC / "constructions.py")
