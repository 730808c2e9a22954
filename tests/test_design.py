"""Design guards over the library's source.

The engines ask an AF the same attacker queries whatever its kind
(`universe`, `attacker_spec`, `attacker_candidates`), so only a few
places may test whether an AF is finite or lazy: the CLI's engine
choice, the generators' all-finite compaction and finite parts' exact
stages, and FiniteAF.__eq__.

Ordinals from public input are validated; only the ordinal arithmetic
and the rank-built trees' state helpers, which build Cantor normal forms
by construction, may skip that through `Ordinal._canonical`.

Finite AFs from public input are validated; only the APX parser and the
generators, whose tables are valid by construction, may skip that
through `FiniteAF._built`.

A finite grounding is its stage layers and the kernel's final counts:
only `grounded_finite` and its round-by-round reference in checks.py
build a `GroundedResult`, so no engine hands out a stage map in place of
the layers it came from.

A finite AF stores only its attack rows; the attack set `attack_pairs`
is built from them on each read.  No library module outside checks.py
reads it, so no engine or generator builds the set.

T_S and T^a are defined once, by the state machine `_ts_states`: no
other code in rank_analysis.py builds children or a lazy tree.

Children of a tree node, attackers of an argument and arguments of a
stage map come in one affine family type, `core.Family`: no other
library class has a `k_start` field unless it subclasses Family.  A
node's children and an argument's attackers are one member-set type,
`core.Members` (explicit members plus families): only it, Family and
Family's subclass define `contains`.

Every cap is a budget: only `errors.Budget.spend` constructs CapExceeded,
so each refusal reads "<what> exceeded <cap> <unit>" and each engine's
`used` against `cap` is read in one place.  The oracles in checks.py are
reference implementations and keep their own checks.

APX text has one definition, the per-line reader `_read_per_line`: it
is the only code in core.py that constructs ApxParseError, so every
parse error keeps one message and line; the block reader in front of
it, which reads format_apx's layout in whole-text passes, returns None
on any other text and never raises.

Tree JSON has one writer, `trees.tree_to_json`: no other library code
outside checks.py builds a "nodes" document, as a dict or as text, and
the dict-building `tree_document` it replaced stays gone.

The generators keep no module-level cache (no module-level container, no
functools.cache or lru_cache): what a lazy AF remembers lives in its
builder's closures and goes with it, so a request costs the same in one
long-lived process as in a fresh CLI process.

Every function, method and class of the library outside checks.py has a
caller there too, and that caller is live itself: a member that only
dead members call is dead as well.  The few that only the tests or the
bench read are listed with the reason they stay, and what they call
stays live with them.  Neither an `__all__` export nor a
mention in checks.py keeps a member, and a module-level function is
called only where its own module names it or another module imports it
from there, so a local variable of the same name elsewhere does not
count.

Every name a test module imports is read in that module; a test
function's parameter that names an imported fixture reads it.
"""

import ast
from pathlib import Path

import transfinite_af

SRC = Path(transfinite_af.__file__).parent
AF_KINDS = {"FiniteAF", "LazyAF"}
KIND_CHECKS_ALLOWED = {"cli.py", "constructions.py"}


def find(path: Path, matches) -> list:
    """(scope, line) of every node that `matches`; the scope is the dotted
    path of the enclosing classes and functions."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if matches(node):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def kind_checks(path: Path) -> list:
    """Every isinstance call whose class names an AF kind."""
    def is_kind_check(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            return False
        named = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(node.args[1])
                 if isinstance(n, (ast.Name, ast.Attribute))}
        return bool(named & AF_KINDS)

    return find(path, is_kind_check)


def uses(path: Path, name: str) -> list:
    """Every use of `name`, called or aliased."""
    return find(path, lambda node: name in (
        getattr(node, "id", None), getattr(node, "attr", None)))


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


CANONICAL_ALLOWED = {"ordinals.py", "trees.py"}
PARSER_SCOPES = ("_Parser", "parse_ordinal")


def test_only_arithmetic_builds_unchecked_ordinals():
    stray = {path.name: uses(path, "_canonical")
             for path in sorted(SRC.glob("*.py"))
             if path.name not in CANONICAL_ALLOWED and uses(path, "_canonical")}
    assert stray == {}
    in_parser = [(scope, line)
                 for scope, line in uses(SRC / "ordinals.py", "_canonical")
                 if scope.split(".")[0] in PARSER_SCOPES]
    assert in_parser == []


def test_the_guard_sees_the_allowed_canonical_uses():
    scopes = {scope for scope, _ in uses(SRC / "ordinals.py", "_canonical")}
    assert {"Ordinal.from_int", "Ordinal.__add__", "fundamental_sequence",
            "AffineOrdinalExpr.evaluate"} <= scopes
    assert {scope for scope, _ in uses(SRC / "trees.py", "_canonical")} == \
        {"_split", "_split_rank"}


BUILT_ALLOWED = {"core.py", "constructions.py"}


def test_only_the_parser_and_generators_build_unchecked_afs():
    stray = {path.name: uses(path, "_built") for path in sorted(SRC.glob("*.py"))
             if path.name not in BUILT_ALLOWED and uses(path, "_built")}
    assert stray == {}


def test_the_guard_sees_the_allowed_built_uses():
    assert {scope for scope, _ in uses(SRC / "core.py", "_built")} == \
        {"parse_apx"}
    assert {scope for scope, _ in uses(SRC / "constructions.py", "_built")} == \
        {"af_from_finite_tree", "baumann_spanring", "ordinal_target_af",
         "_compact_union"}


def test_only_the_grounding_engines_build_grounded_results():
    def builds(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "GroundedResult")
    assert {(path.name, scope) for path in sorted(SRC.glob("*.py"))
            for scope, _ in find(path, builds)} == \
        {("grounded.py", "grounded_finite"),
         ("checks.py", "iterated_defense_step")}


PAIRS_ALLOWED = {"checks.py"}


def test_no_engine_or_generator_reads_the_attack_set():
    stray = {path.name: uses(path, "attack_pairs")
             for path in sorted(SRC.glob("*.py"))
             if path.name not in PAIRS_ALLOWED and uses(path, "attack_pairs")}
    assert stray == {}


def test_the_guard_sees_the_allowed_attack_set_reads():
    assert {scope for scope, _ in uses(SRC / "checks.py", "attack_pairs")} == \
        {"bitmask_least_fixpoint", "remove_argument"}
    # the set itself stays for the code outside the library
    assert "FiniteAF.attack_pairs" in OUTSIDE_READ_ALLOWED["core.py"]


TREE_PARTS = {"Members", "LazyTree"}


def test_only_the_ts_state_machine_builds_tree_nodes():
    builds = find(SRC / "rank_analysis.py", lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in TREE_PARTS))
    assert {scope.split(".")[0] for scope, _ in builds} == {"_ts_states"}


LAZY_BUILDERS = {"_tree_af", "baumann_spanring", "disjoint_union"}


def test_one_builder_per_lazy_generator():
    # a limit target is _tree_af's forest and every union is disjoint_union's
    builders = {(path.name, scope.split(".")[0])
                for path in sorted(SRC.glob("*.py")) if path.name != "checks.py"
                for scope, _ in calls(path, "LazyAF")}
    assert builders == {("constructions.py", name) for name in LAZY_BUILDERS}


def test_the_guard_sees_each_lazy_builder():
    assert [scope for scope, _ in calls(SRC / "constructions.py", "LazyAF")] == \
        ["_tree_af", "baumann_spanring", "disjoint_union"]


def classes() -> dict:
    """{(module, class): (its base names, whether it stores a k_start)}
    over every library class; a store is an assignment to k_start (a
    field, or self.k_start) or the string "k_start" inside the class."""
    table = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b.id if isinstance(b, ast.Name) else b.attr
                     for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))}
            stores = any(
                (getattr(n, "id", None) == "k_start" or getattr(n, "attr", None)
                 == "k_start") and isinstance(getattr(n, "ctx", None), ast.Store)
                or isinstance(n, ast.Constant) and n.value == "k_start"
                for n in ast.walk(node))
            table[(path.name, node.name)] = bases, stores
    return table


def subclasses(table: dict, roots: set) -> set:
    """The roots and every class that inherits from one, by base name."""
    found = set(roots)
    while True:
        names = {name for _, name in found}
        more = {key for key, (bases, _) in table.items()
                if key not in found and bases & names}
        if not more:
            return found
        found |= more


def k_start_classes(table: dict) -> set:
    """Every class that stores a k_start or inherits one."""
    return subclasses(table, {key for key, (_, stores) in table.items() if stores})


def test_family_is_the_one_affine_family_type():
    table = classes()
    assert k_start_classes(table) - subclasses(table, {("core.py", "Family")}) \
        == set()


def test_the_guard_sees_family_and_its_subclass():
    assert k_start_classes(classes()) == \
        {("core.py", "Family"), ("trees.py", "_LimitFamily")}


def membership_classes(src: Path = SRC) -> set:
    """(module, class) of every library class that defines `contains`."""
    return {(path.name, node.name) for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name == "contains"
                for f in node.body)}


MEMBERSHIP = {("core.py", "Family"), ("trees.py", "_LimitFamily"),
              ("core.py", "Members")}


def test_members_is_the_one_member_set_type():
    assert membership_classes() == MEMBERSHIP


def test_the_guard_sees_a_second_member_set_type(tmp_path):
    (tmp_path / "trees.py").write_text(
        "class ChildrenSpec:\n"
        "    def contains(self, symbol):\n"
        "        return symbol in self.symbols\n"
        "def contains(spec, symbol):\n"
        "    return spec.contains(symbol)\n")
    assert membership_classes(tmp_path) == {("trees.py", "ChildrenSpec")}


def calls(path: Path, name: str) -> list:
    """Every call of `name`, by name or as an attribute."""
    return find(path, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def cap_refusals(path: Path) -> list:
    """Every call of CapExceeded, by name or as an attribute."""
    return calls(path, "CapExceeded")


def test_only_the_budget_raises_cap_exceeded():
    stray = {path.name: cap_refusals(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "checks.py" and cap_refusals(path)}
    assert {name: [scope for scope, _ in calls]
            for name, calls in stray.items()} == {"errors.py": ["Budget.spend"]}


def test_the_guard_sees_the_oracles_own_cap_checks():
    assert {scope for scope, _ in cap_refusals(SRC / "checks.py")} == \
        {"frozenset_ts_rank_states", "path_keyed_expand"}


def test_only_the_per_line_reader_raises_apx_parse_errors():
    assert {scope for scope, _ in calls(SRC / "core.py", "ApxParseError")} == \
        {"_read_per_line"}


def nodes_documents(path: Path) -> list:
    """Every dict or keyword keyed "nodes", and every string other than a
    docstring that holds the JSON key text '"nodes":'."""
    docstrings = {(node.value.lineno, node.value.col_offset)
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}

    def writes(node):
        if isinstance(node, ast.Dict):
            return any(isinstance(k, ast.Constant) and k.value == "nodes"
                       for k in node.keys)
        if isinstance(node, ast.keyword):
            return node.arg == "nodes"
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and '"nodes":' in node.value
                and (node.lineno, node.col_offset) not in docstrings)

    return find(path, writes)


def mentions(path: Path, name: str) -> list:
    """Every use, definition or import of `name`."""
    return find(path, lambda node: name in (
        getattr(node, "id", None), getattr(node, "attr", None),
        getattr(node, "name", None)))


def test_tree_to_json_is_the_one_tree_json_writer():
    writers = {path.name: {scope for scope, _ in nodes_documents(path)}
               for path in sorted(SRC.glob("*.py")) if path.name != "checks.py"}
    assert {name: scopes for name, scopes in writers.items() if scopes} == \
        {"trees.py": {"tree_to_json"}}
    named = {path.name: mentions(path, "tree_document")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in named.items() if found} == {}


def test_the_guard_sees_a_second_tree_json_writer(tmp_path):
    path = tmp_path / "writer.py"
    path.write_text(
        'from .trees import tree_document\n'
        'def tree_document(tree):\n'
        '    """{"nodes": [[], [0]]}"""\n'
        '    return {"nodes": [[]]}\n'
        'def spliced(tree):\n'
        '    return \'{"nodes": [[\' + "]]}" or dict(nodes=[])\n')
    assert nodes_documents(path) == \
        [("tree_document", 4), ("spliced", 6), ("spliced", 6)]
    assert [scope for scope, _ in mentions(path, "tree_document")] == \
        ["", "tree_document"]



MUTABLE_CONTAINERS = (ast.Dict, ast.List, ast.Set,
                      ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_BUILDERS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                      "Counter", "deque"}
CACHE_DECORATORS = {"cache", "lru_cache"}


def names_in(node) -> set:
    """The names and attribute names read anywhere in `node`."""
    return {getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(node)} - {None}


def module_caches(path: Path) -> list:
    """(scope, line) of every module-level assignment of a mutable
    container or of something built with functools.cache or lru_cache,
    and of every definition those decorate."""
    def caches(node):
        if isinstance(node, DEFINITIONS):
            return any(names_in(d) & CACHE_DECORATORS for d in node.decorator_list)
        # an unindented statement is a module-level one
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
                or node.col_offset or node.value is None:
            return False
        value = node.value
        return isinstance(value, MUTABLE_CONTAINERS) or bool(
            names_in(value) & CACHE_DECORATORS) or (
            isinstance(value, ast.Call)
            and names_in(value.func) & CONTAINER_BUILDERS)

    return find(path, caches)


def test_the_generators_keep_no_module_level_cache():
    # what a lazy AF remembers lives and dies with it, so separate CLI
    # processes and one long-lived process pay the same per request
    assert module_caches(SRC / "constructions.py") == []


def test_the_guard_sees_a_module_level_cache(tmp_path):
    path = tmp_path / "cached.py"
    path.write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "LIMIT = 8\n"
        "_SEEN = {}\n"
        "_ROWS: list = [1]\n"
        "_CODES = defaultdict(int)\n"
        "_slow = functools.cache(len)\n"
        "@lru_cache(maxsize=None)\n"
        "def decode(code):\n"
        "    local = {}\n"
        "    return local\n"
        "class Tree:\n"
        "    @functools.cache\n"
        "    def children(self, state):\n"
        "        return []\n")
    assert module_caches(path) == [("", 4), ("", 5), ("", 6), ("", 7),
                                   ("decode", 9), ("Tree.children", 14)]


DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
ACCEPTANCE = "tests/test_acceptance.py reads it"
# Members that only code outside the library reads, each with the reason
# it stays.
OUTSIDE_READ_ALLOWED = {
    "constructions.py": {"FiniteTreeAF.a_index": ACCEPTANCE,
                         "FiniteTreeAF.b_index": ACCEPTANCE,
                         "FiniteTreeAF.expected_stages": "the bench calls it"},
    "core.py": {"FiniteAF.attack_pairs": "the bench's set-up reads it",
                "FiniteAF.defense_step": "the bench tracer patches it",
                "FiniteAF.is_conflict_free": ACCEPTANCE,
                "FiniteAF.plus_set": ACCEPTANCE},
    "grounded.py": {"omega_approximation": "the bench calls it"},
    "rank_analysis.py": {
        "build_Ta": ACCEPTANCE,
        "largest_self_defending": ACCEPTANCE,
        "ta_rank": ACCEPTANCE,
        "ta_path_violations": "the bench calls it"},
    "trees.py": {"FiniteTree.node_ranks": ACCEPTANCE},
}


def definitions(tree: ast.Module) -> list:
    """(scope, node, whether a class holds it) of every function, method
    and class; the scope is the tuple of the enclosing names and its own."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                found.append((scope + (child.name,), child, in_class))
                visit(child, scope + (child.name,),
                      isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_class)

    visit(tree, (), False)
    return found


def references(tree: ast.Module) -> list:
    """(scope, kind, name) of every attribute read ("attr"), bare name
    ("name") and relative import ("import", (module file, name)); the
    scope is that of the innermost definition holding it, () at module
    level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                found.append((scope, "attr", child.attr))
            elif isinstance(child, ast.Name):
                found.append((scope, "name", child.id))
            elif isinstance(child, ast.ImportFrom) and child.level == 1:
                found.extend((scope, "import", (f"{child.module}.py", a.name))
                             for a in child.names)
            visit(child, scope + (child.name,)
                  if isinstance(child, DEFINITIONS) else scope)

    visit(tree, ())
    return found


def unnamed_definitions(src: Path = SRC, allowed: dict = None) -> dict:
    """{module: {dotted scope}} of every function, method and class, in a
    module of `src` other than checks.py, that no live code of such a
    module calls.

    Only modules other than __init__.py and checks.py count as callers,
    and an `__all__` entry is no call.  A method is called when one of
    them reads its name as an attribute, whatever the class: a method
    that shares its name with another class's live method counts as
    called though nothing calls it (`LazyTree.member` lives by
    `Family.member`), and a branch no input takes is not seen at all;
    the reach guard in test_reach.py runs the CLI to see both.  A
    function or class is called
    when its own module names it outside its definition or, at module
    level, when another module imports it from its module.  Code counts
    while the definition holding it is live: the reported members'
    bodies are dropped and the question asked again until nothing more
    is reported.  The `allowed` members ({module: names}) stay live."""
    allowed = allowed or {}
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted(src.glob("*.py"))
               if path.name not in ("__init__.py", "checks.py")}
    refs = [(module,) + ref for module, tree in modules.items()
            for ref in references(tree)]
    members = [(module, scope, method) for module, tree in modules.items()
               for scope, _, method in definitions(tree)
               if not scope[-1].startswith("__")
               and ".".join(scope) not in allowed.get(module, ())]
    dead = set()
    while True:
        live = [(module, scope, kind, name) for module, scope, kind, name in refs
                if not any(scope[:len(d)] == d for m, d in dead if m == module)]
        attributes = {name for _, _, kind, name in live if kind == "attr"}
        imported = {name for _, _, kind, name in live if kind == "import"}
        named = {}  # (module, bare name) -> the scopes naming it
        for module, scope, kind, name in live:
            if kind == "name":
                named.setdefault((module, name), set()).add(scope)
        found = set()
        for module, scope, method in members:
            name = scope[-1]
            if method:
                called = name in attributes
            else:
                called = any(s[:len(scope)] != scope
                             for s in named.get((module, name), ())) or \
                    len(scope) == 1 and (module, name) in imported
            if not called:
                found.add((module, scope))
        if found == dead:
            break
        dead = found
    out = {}
    for module, scope in dead:
        out.setdefault(module, set()).add(".".join(scope))
    return out


def test_every_library_member_has_a_library_caller():
    assert unnamed_definitions(allowed=OUTSIDE_READ_ALLOWED) == {}


def test_the_guard_sees_the_members_only_tests_read():
    # without the list: the listed members, and what only they call
    only_theirs = {"grounded.py": {"OmegaApproximation", "_attacker_closure",
                                   "GroundedResult.grounded"},
                   "rank_analysis.py": {"_attacks_safe"}}
    assert unnamed_definitions() == {
        name: set(reasons) | only_theirs.get(name, set())
        for name, reasons in OUTSIDE_READ_ALLOWED.items()}


def plant(tmp_path: Path, modules: dict) -> Path:
    """A package of the given {file name: source} in tmp_path."""
    for name, text in modules.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def test_the_guard_sees_a_function_only_all_exports(tmp_path):
    package = plant(tmp_path, {
        "__init__.py": 'from .mod import exported, used\n'
                       '__all__ = ["exported", "used"]\n',
        "mod.py": '__all__ = ["exported", "used"]\n'
                  'def exported():\n    pass\n'
                  'def used():\n    pass\n',
        "cli.py": "from .mod import used\nused()\n"})
    assert unnamed_definitions(package) == {"mod.py": {"exported"}}


def test_the_guard_sees_a_function_only_checks_names(tmp_path):
    package = plant(tmp_path, {
        "mod.py": "class Box:\n    def checked(self):\n        pass\n"
                  "def reference():\n    pass\n"
                  "def engine():\n    pass\n",
        "cli.py": "from .mod import engine\nengine()\n",
        "checks.py": "from .mod import Box, reference\n"
                     "reference()\nBox().checked()\n"})
    assert unnamed_definitions(package) == \
        {"mod.py": {"Box", "Box.checked", "reference"}}


def test_the_guard_sees_a_function_only_a_dead_function_calls(tmp_path):
    package = plant(tmp_path, {
        "mod.py": "def reference():\n    pass\n"
                  "def engine():\n    return reference()\n"
                  "def kept():\n    return helper()\n"
                  "def helper():\n    pass\n",
        "cli.py": "print()\n"})
    assert unnamed_definitions(package) == \
        {"mod.py": {"engine", "reference", "kept", "helper"}}
    # an allowed member stays live, and so do its callees
    assert unnamed_definitions(package, {"mod.py": {"kept": "reason"}}) == \
        {"mod.py": {"engine", "reference"}}


def test_the_guard_sees_a_function_only_a_local_variable_names(tmp_path):
    package = plant(tmp_path, {
        "ordinals.py": "def sup(values):\n    return sup(values[1:])\n"
                       "def best(values):\n    return max(values)\n",
        "grounded.py": "from .ordinals import best\n"
                       "def stage(values):\n    sup = best(values)\n"
                       "    return sup\n"
                       "stage([0])\n"})
    assert unnamed_definitions(package) == {"ordinals.py": {"sup"}}


TESTS = Path(__file__).parent


def unread_imports(path: Path) -> list:
    """(line, name) of every name the module imports and never reads;
    a function parameter of the same name, as a pytest fixture is asked
    for, reads it.  `from __future__` imports bind no name."""
    tree = ast.parse(path.read_text())
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_every_test_import_is_read():
    unread = {path.name: unread_imports(path)
              for path in sorted(TESTS.glob("*.py"))}
    assert {name: found for name, found in unread.items() if found} == {}


def test_the_guard_sees_an_unread_test_import(tmp_path):
    module = plant(tmp_path, {"test_planted.py":
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "from conftest import tmp_af\n"
        "from transfinite_af.core import FiniteAF, parse_apx as parse\n"
        "def test_reads(tmp_af):\n"
        "    assert parse(os.path.sep) == FiniteAF\n"}) / "test_planted.py"
    assert unread_imports(module) == [(2, "itertools")]
