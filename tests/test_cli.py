import hashlib
import json
import random
import re
import time
import warnings

import pytest

from transfinite_af import cli
from transfinite_af.checks import eliminated_self_defending, iterated_defense_step
from transfinite_af.cli import MAX_CHECK_ARGS, MAX_PATH_LENGTH, MAX_SAMPLE, \
    _SIZE_BOUNDS, build_parser, main
from transfinite_af.constructions import materialize_spec, parse_generator_spec
from transfinite_af.core import FiniteAF, format_apx, parse_apx
from transfinite_af.ordinals import NEVER, format_ordinal
from transfinite_af.rank_analysis import ts_rank
from transfinite_af.trees import TRUNCATE_NODE_CAP, TRUNCATE_SYMBOL_CAP


CHAIN_APX = "arg(a0).\narg(a1).\narg(a2).\natt(a0,a1).\natt(a1,a2).\n"


@pytest.fixture
def chain_path(tmp_path):
    p = tmp_path / "chain.apx"
    p.write_text(CHAIN_APX)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_grounded_finite_json(capsys, chain_path):
    code, out, _ = run(capsys, "grounded", f"apx:{chain_path}", "--stages")
    assert code == 0
    doc = json.loads(out)
    assert doc["grounded"] == ["a0", "a2"]
    assert doc["grounding_ordinal"] == "2"
    assert doc["stages"] == {"a0": "1", "a1": "NEVER", "a2": "2"}


def test_grounded_bs_reports_omega_times_two(capsys):
    code, out, _ = run(capsys, "grounded", "bs")
    assert code == 0
    assert json.loads(out)["grounding_ordinal"] == "w*2"


def test_grounded_ord_w(capsys):
    code, out, _ = run(capsys, "grounded", "ord:w")
    assert code == 0
    doc = json.loads(out)
    assert doc["grounding_ordinal"] == "w" and doc["verified"]


def test_grounded_finite_text(capsys, chain_path):
    code, out, err = run(capsys, "grounded", f"apx:{chain_path}", "--format", "text")
    assert (code, out, err) == (0, "grounded: a0 a2\ngrounding ordinal: 2\n", "")
    code, out, err = run(capsys, "grounded", f"apx:{chain_path}", "--format", "text",
                         "--stages")
    assert (code, err) == (0, "")
    assert out == ("grounded: a0 a2\ngrounding ordinal: 2\n"
                   "stage a0: 1\nstage a1: NEVER\nstage a2: 2\n")


def test_grounded_lazy_text_with_stages(capsys):
    code, out, err = run(capsys, "grounded", "ord:w*2+1", "--format", "text",
                         "--stages", "--sample", "6")
    assert (code, err) == (0, "")
    assert out == ("grounding ordinal: w*2+1 (verified on 6 arguments)\n"
                   "stage a: w*2+1\nstage a_0: w+1\nstage a_0_0: 1\n"
                   "stage b: NEVER\nstage b_0: NEVER\nstage b_0_0: NEVER\n")


def test_gen_output_file(capsys, tmp_path):
    _, printed, _ = run(capsys, "gen", "ord:w:truncate=3")
    target = tmp_path / "out.apx"
    code, out, err = run(capsys, "gen", "ord:w:truncate=3", "-o", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == printed and printed.count("arg(") == 12


def test_grounded_deterministic_output(capsys, chain_path):
    _, first, _ = run(capsys, "grounded", f"apx:{chain_path}", "--stages")
    _, second, _ = run(capsys, "grounded", f"apx:{chain_path}", "--stages")
    assert first == second


def test_self_defending(capsys, chain_path):
    code, out, _ = run(capsys, "self-defending", f"apx:{chain_path}")
    assert code == 0
    assert json.loads(out)["largest_self_defending"] == ["a0", "a2"]


def _oracle_stdout(af):
    """What `grounded --stages` and `self-defending` print, from the
    round-by-round reference engines."""
    r = iterated_defense_step(af)
    grounded = {
        "grounded": [af.name(i) for i in sorted(r.grounded)],
        "grounding_ordinal": format_ordinal(r.grounding_ordinal),
        "stages": {af.name(i): "NEVER" if v is NEVER else format_ordinal(v)
                   for i, v in r.stages.items()},
    }
    members = eliminated_self_defending(af)
    defending = {"largest_self_defending": [af.name(i) for i in sorted(members)]}
    return (json.dumps(grounded, sort_keys=True) + "\n",
            json.dumps(defending, sort_keys=True) + "\n")


@pytest.mark.parametrize("source", ["bs:truncate=40", "ord:w^2:truncate=4",
                                    "random"])
def test_finite_stdout_matches_reference_engines(capsys, tmp_path, source):
    if source == "random":
        # sparse, so that the stages run several rounds deep
        rng = random.Random(5)
        af = FiniteAF(120, [(rng.randrange(120), rng.randrange(120))
                            for _ in range(180)])
    else:
        af = materialize_spec(parse_generator_spec(source))
    path = tmp_path / "af.apx"
    path.write_text(format_apx(af))
    af = parse_apx(path.read_text())
    want_grounded, want_defending = _oracle_stdout(af)

    code, out, _ = run(capsys, "grounded", f"apx:{path}", "--stages")
    assert code == 0 and out == want_grounded
    code, out, _ = run(capsys, "self-defending", f"apx:{path}")
    assert code == 0 and out == want_defending


def test_tree_commands(capsys, tmp_path):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[]]}')
    code, out, _ = run(capsys, "tree", "rank", "--input", str(tree))
    assert code == 0 and json.loads(out)["rank"] == "0"

    code, out, _ = run(capsys, "tree", "build", "--ordinal", "2")
    assert code == 0
    assert json.loads(out)["nodes"] == [[], [0], [0, 0]]

    code, out, _ = run(capsys, "tree", "build", "--ordinal", "w*2",
                       "--truncate-width", "4")
    assert code == 0
    built = tmp_path / "w2.json"
    built.write_text(out)
    code, out, _ = run(capsys, "tree", "search", "--input", str(built),
                       "--depth", "3", "--width", "4")
    assert code == 0 and json.loads(out)["found"]

    code, out, _ = run(capsys, "tree", "search", "--ordinal", "w",
                       "--depth", "50", "--width", "5")
    assert code == 0
    assert json.loads(out) == {"found": False, "no_path_within": 50}


def test_reduce_ts(capsys, chain_path):
    code, out, _ = run(capsys, "reduce", "ts", "--af", f"apx:{chain_path}",
                       "--set", "a0", "--depth", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["path_exists"] and len(doc["prefix"]) == 30

    code, out, _ = run(capsys, "reduce", "ts", "--af", f"apx:{chain_path}",
                       "--set", "a1")
    doc = json.loads(out)
    assert not doc["path_exists"]
    assert doc["rank"] == "0" and doc["tree"]["nodes"] == [[]]


def test_reduce_ta(capsys, tmp_path):
    single = tmp_path / "one.apx"
    single.write_text("arg(x).\n")
    code, out, _ = run(capsys, "reduce", "ta", "--af", f"apx:{single}",
                       "--arg", "x")
    assert code == 0
    assert json.loads(out) == {"path_exists": False, "rank": "0"}


def test_reduce_witness(capsys, chain_path):
    code, out, _ = run(capsys, "reduce", "witness", "--af", f"apx:{chain_path}",
                       "--arg", "a1", "--length", "20")
    assert code == 0
    assert json.loads(out)["witness"] == [0] * 20

    code, _, err = run(capsys, "reduce", "witness", "--af", f"apx:{chain_path}",
                       "--arg", "a0", "--length", "20")
    assert code == 3 and "grounded" in err


@pytest.mark.parametrize("command", [
    ["reduce", "ts", "--af", "AF", "--set", "a0", "--depth"],
    ["reduce", "ta", "--af", "AF", "--arg", "a1", "--depth"],
    ["reduce", "witness", "--af", "AF", "--arg", "a1", "--length"],
    ["tree", "search", "--ordinal", "w^2", "--width", "3", "--depth"],
    ["tree", "search", "--ordinal", "w^2", "--depth", "3", "--width"],
])
def test_reduce_sizes_are_capped(capsys, chain_path, command):
    command = [f"apx:{chain_path}" if a == "AF" else a for a in command]
    code, out, err = run(capsys, *command, str(MAX_PATH_LENGTH + 1))
    assert code == 2 and out == ""
    assert f"{command[-1]} {MAX_PATH_LENGTH + 1} exceeds the cap of " \
        f"{MAX_PATH_LENGTH}" in err
    if command[0] == "tree":
        return

    code, out, _ = run(capsys, *command[:-1])
    assert code == 0
    doc = json.loads(out)
    assert len(doc.get("prefix", doc.get("witness"))) == 100


# T_S of {a9} is pathless with rank 78 but has more than 2,000,000 nodes
TS_OVER_BUDGET_APX = "".join(f"arg(a{i}).\n" for i in range(13)) + "".join(
    f"att(a{x},a{y}).\n" for x, y in [
        (0, 3), (2, 9), (3, 5), (4, 11), (5, 2), (5, 5), (6, 4), (7, 4), (7, 9),
        (8, 2), (8, 10), (9, 8), (11, 1), (11, 6), (11, 7), (11, 10), (12, 9),
        (12, 10)])


def test_reduce_ts_node_cap_is_capped(capsys, tmp_path):
    path = tmp_path / "ts13.apx"
    path.write_text(TS_OVER_BUDGET_APX)
    assert ts_rank(parse_apx(TS_OVER_BUDGET_APX), {9}) == 78
    command = ["reduce", "ts", "--af", f"apx:{path}", "--set", "a9"]
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--node-cap",
                         str(TRUNCATE_NODE_CAP + 1))
    assert time.perf_counter() - start < 1.0  # refused before any work
    assert code == 2 and out == ""
    assert err == f"error: --node-cap {TRUNCATE_NODE_CAP + 1} exceeds the " \
        f"cap of {TRUNCATE_NODE_CAP}\n"
    code, out, err = run(capsys, *command)
    assert code == 3 and out == ""
    assert err == "error: expansion exceeded 20000 nodes\n"


def test_check_max_args_is_capped(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "lemmas", "--trials", "1",
                         "--max-args", str(MAX_CHECK_ARGS + 1))
    assert time.perf_counter() - start < 1.0  # refused before any work
    assert code == 2 and out == ""
    assert err == f"error: --max-args {MAX_CHECK_ARGS + 1} exceeds the cap " \
        f"of {MAX_CHECK_ARGS}\n"


@pytest.mark.parametrize("spec", ["bs", "ord:w^3", "AF"])
def test_sample_is_capped(capsys, chain_path, spec):
    spec = f"apx:{chain_path}" if spec == "AF" else spec
    start = time.perf_counter()
    code, out, err = run(capsys, "grounded", spec, "--sample", str(MAX_SAMPLE + 1))
    assert time.perf_counter() - start < 1.0  # refused before any work
    assert code == 2 and out == ""
    assert err == f"error: --sample {MAX_SAMPLE + 1} exceeds the cap of {MAX_SAMPLE}\n"


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "8",
                       "--max-args", "7", "--seed", "42")
    assert code == 0
    assert "pass" in out


def test_check_env_seed_overrides(capsys, monkeypatch):
    monkeypatch.setenv("TRANSFINITE_AF_SEED", "9")
    _, first, _ = run(capsys, "check", "lemmas", "--trials", "3",
                      "--max-args", "5", "--seed", "1")
    _, second, _ = run(capsys, "check", "lemmas", "--trials", "3",
                       "--max-args", "5", "--seed", "2")
    assert first == second  # env var wins over --seed


def test_check_inject_tampered_fails(capsys, tmp_path):
    bad = tmp_path / "broken.apx"
    bad.write_text(CHAIN_APX + "%stage a0 1\n%stage a1 NEVER\n%stage a2 3\n")
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "2",
                       "--max-args", "4", "--inject", str(bad))
    assert code == 1
    assert "rejected" in out and "minimized" in out


def test_check_inject_exact_passes(capsys, tmp_path):
    good = tmp_path / "fine.apx"
    good.write_text(CHAIN_APX + "%stage a0 1\n%stage a1 NEVER\n%stage a2 2\n")
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "2",
                       "--max-args", "4", "--inject", str(good))
    assert code == 0


def test_check_emit_plot(capsys, tmp_path):
    csv = tmp_path / "growth.csv"
    code, _, _ = run(capsys, "check", "constructions", "--trials", "2",
                     "--emit-plot", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "truncate,args,b0_stage"
    assert len(lines) == 51
    stages = [int(line.split(",")[2]) for line in lines[1:]]
    assert stages == sorted(stages) and stages[-1] == 51


def test_gen_apx_and_dot_roundtrip(capsys):
    code, apx_out, _ = run(capsys, "gen", "bs:truncate=3")
    assert code == 0
    af = parse_apx(apx_out)
    assert af.n == 6

    code, dot_out, _ = run(capsys, "gen", "bs:truncate=3", "--format", "dot")
    assert code == 0
    nodes = set(re.findall(r'^\s*"([a-zA-Z0-9_]+)";$', dot_out, re.M))
    edges = set(re.findall(r'"([a-zA-Z0-9_]+)" -> "([a-zA-Z0-9_]+)";', dot_out))
    rebuilt = "".join(f"arg({n}).\n" for n in sorted(nodes))
    rebuilt += "".join(f"att({x},{y}).\n" for x, y in sorted(edges))
    reparsed = parse_apx(rebuilt)
    assert {(reparsed.name(x), reparsed.name(y))
            for x, y in reparsed.attack_pairs} == \
        {(af.name(x), af.name(y)) for x, y in af.attack_pairs}
    assert set(reparsed.names) == set(af.names)


def test_gen_lazy_without_truncation_is_domain_error(capsys):
    code, _, err = run(capsys, "gen", "bs")
    assert code == 3 and "truncation" in err


def test_parse_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "grounded", "nonsense:spec")
    assert code == 2
    bad = tmp_path / "bad.apx"
    bad.write_text("arg(a.\n")
    code, _, err = run(capsys, "grounded", f"apx:{bad}")
    assert code == 2
    code, _, _ = run(capsys, "grounded", "ord:w^")
    assert code == 2
    code, _, _ = run(capsys, "grounded", f"apx:{tmp_path}/missing.apx")
    assert code == 2


def test_os_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "grounded", f"apx:{tmp_path}")
    assert code == 2 and err.startswith("error:")


def test_deep_nesting_exits_2(capsys):
    def nested(depth):
        return "w^(" * depth + "1" + ")" * depth

    code, _, err = run(capsys, "grounded", f"ord:{nested(400)}")
    assert code == 2 and "nested deeper" in err
    code, _, err = run(capsys, "tree", "build", "--ordinal", nested(3000))
    assert code == 2 and "nested deeper" in err
    code, _, err = run(capsys, "grounded",
                       "union(" * 1000 + "bs:truncate=2" + ")" * 1000)
    assert code == 2 and "nested deeper" in err


def test_noncanonical_ordinal_warns_once_per_call(capsys):
    warning = "warning: ordinal 'w^(1)+1' normalized to 'w+1'\n"
    with warnings.catch_warnings():
        warnings.resetwarnings()  # the interpreter's once-per-location default
        for _ in range(2):
            code, _, err = run(capsys, "grounded", "ord:w^(1)+1")
            assert code == 0 and err == warning
        code, _, err = run(capsys, "grounded", "union(ord:w^(1)+1,ord:w^(1)+1)")
        assert code == 0 and err == warning


def test_truncated_limit_target_over_budget_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "ord:w:truncate=1000000")
    assert code == 3 and out == ""
    assert err == "error: expansion exceeded 500000 nodes\n"
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("command", [
    ["gen", "ord:w:truncate=999"],  # refused up front: parts hold >= 166M
    ["gen", "ord:w*2:truncate=70"],  # each part fits, their sum does not
    ["tree", "build", "--ordinal", "100000", "--truncate-width", "1"],
])
def test_path_symbol_budget_exits_3(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, *command)
    assert code == 3 and out == ""
    assert err == f"error: expansion exceeded {TRUNCATE_SYMBOL_CAP} path symbols\n"
    assert time.perf_counter() - start < 5


def test_gen_truncated_limit_target_output_is_pinned(capsys):
    # sha256 of the output before the parts shared one node budget
    code, out, _ = run(capsys, "gen", "ord:w*2:truncate=50")
    assert code == 0 and out.count("arg(") == 2 * 65_025
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a7f3f0825464344e75cf3260936685ed0e258798e9d273ec21d3bc69df1eb425"


def test_usage_error_exit_2(capsys):
    assert main(["tree"]) == 2


@pytest.mark.parametrize("command, minimum", [
    (["reduce", "ts", "--af", "AF", "--set", "a0", "--depth"], 1),
    (["reduce", "ts", "--af", "AF", "--set", "a1", "--node-cap"], 1),
    (["reduce", "ta", "--af", "AF", "--arg", "a1", "--depth"], 1),
    (["reduce", "witness", "--af", "AF", "--arg", "a1", "--length"], 1),
    (["tree", "rank", "--input", "TREE", "--cap"], 1),
    (["tree", "build", "--ordinal", "w", "--truncate-width"], 1),
    (["tree", "build", "--ordinal", "w", "--truncate-depth"], 0),
    (["tree", "search", "--ordinal", "w", "--width", "3", "--depth"], 1),
    (["tree", "search", "--ordinal", "w", "--depth", "3", "--width"], 1),
    (["check", "ordinals", "--trials"], 0),
    (["check", "lemmas", "--trials", "1", "--max-args"], 1),
    (["grounded", "bs", "--sample"], 1),
    (["grounded", "AF", "--sample"], 1),
])
def test_sizes_below_their_minimum_exit_2(capsys, chain_path, tmp_path,
                                          command, minimum):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[], [0]]}')
    command = [{"AF": f"apx:{chain_path}", "TREE": str(tree)}.get(a, a)
               for a in command]
    flag = command[-1]
    for size in (minimum - 1, -4):
        code, out, err = run(capsys, *command, str(size))
        assert code == 2 and out == ""
        assert err == f"error: {flag} {size} is below the minimum of {minimum}\n"
    code, _, err = run(capsys, *command, str(minimum))
    assert "below the minimum" not in err


@pytest.mark.parametrize("sources", [[], ["--input", "TREE", "--ordinal", "w"]])
def test_tree_search_needs_exactly_one_source(capsys, tmp_path, sources):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[]]}')
    sources = [str(tree) if a == "TREE" else a for a in sources]
    code, out, err = run(capsys, "tree", "search", *sources,
                         "--depth", "3", "--width", "3")
    assert code == 2 and out == ""
    assert "--input" in err and "--ordinal" in err


def test_every_integer_option_has_bounds():
    def int_flags(parser):
        for action in parser._actions:
            if action.type is int:
                yield from action.option_strings
            if isinstance(action.choices, dict):  # the subcommands
                for sub in action.choices.values():
                    yield from int_flags(sub)

    assert set(int_flags(build_parser())) == set(_SIZE_BOUNDS) | {"--seed"}


def test_back_to_back_calls_print_what_a_fresh_parser_prints(
        capsys, monkeypatch, chain_path):
    af = f"apx:{chain_path}"
    commands = [
        ["grounded", af, "--stages"],
        ["reduce", "ts", "--af", af, "--set", "a1"],
        ["reduce", "ta", "--af", af, "--arg", "a2"],
        ["reduce", "witness", "--af", af, "--arg", "a1", "--length", "5"],
        ["gen", "bs:truncate=2"],
        ["reduce", "ta", "--af", af, "--bogus"],
        ["reduce", "witness", "--af", af, "--arg", "a1",
         "--length", str(MAX_PATH_LENGTH + 1)],
        ["reduce", "witness", "--af", af, "--arg", "a0"],
        ["--help"],
        ["reduce", "ts", "--help"],
    ]
    fresh = []
    for argv in commands:
        monkeypatch.setattr(cli, "_PARSER", build_parser())
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 2, 2, 3, 0, 0]

    monkeypatch.setattr(cli, "_PARSER", build_parser())
    monkeypatch.setattr(cli, "build_parser", None)  # main builds none
    assert [run(capsys, *argv) for argv in commands] == fresh


@pytest.mark.parametrize("spec", ["bs", "ord:w*3+2", "ord:w^3+1",
                                  "union(bs,ord:w)"])
@pytest.mark.parametrize("sample", ["3", "97"])
def test_lazy_grounded_prints_the_window_it_verified(capsys, spec, sample):
    af = materialize_spec(parse_generator_spec(spec))
    window = (int(sample) if af.universe is None
              else min(int(sample), af.universe))
    want = {af.name(i): str(af.candidate_stages.stage_of(i))
            for i in range(window)}
    code, out, _ = run(capsys, "grounded", spec, "--stages", "--sample", sample)
    doc = json.loads(out)
    assert code == 0 and doc["sample_window"] == window
    assert doc["stages"] == want
    assert doc["grounded"] == sorted(n for n, v in want.items() if v != "NEVER")
    code, out, _ = run(capsys, "grounded", spec, "--format", "text",
                       "--sample", sample)
    assert code == 0 and f"(verified on {window} arguments)" in out


# -- pinned outputs of a seeded command corpus ----------------------------------

CORPUS_ORDINALS = ["3", "w", "w+2", "w*2", "w*2+1", "w^2", "w^2+w+1", "w^2*2",
                   "w^3", "w^3+w^2+2"]
CORPUS_LAZY_SPECS = ["bs", "ord:w", "ord:w+3", "ord:w*3+2", "ord:w^2",
                     "ord:w^2*2+w", "ord:w^3", "ord:w^3+1", "union(bs,ord:w)",
                     "union(ord:w^2,bs:truncate=3)",
                     "union(ord:w*2,union(ord:5,bs))"]


def seeded_corpus(rng, tmp_path):
    """About a hundred quick commands over every tree builder, the
    truncated targets, lazy verification and the reductions."""
    for i in range(4):
        n = rng.randint(1, 9)
        density = rng.uniform(0.05, 0.5)
        af = FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                          if rng.random() < density])
        path = tmp_path / f"af{i}.apx"
        path.write_text(format_apx(af))
        for _ in range(3):
            seed = rng.sample(af.names, rng.randint(1, min(2, n)))
            yield ["reduce", "ts", "--af", f"apx:{path}", "--set",
                   ",".join(seed), "--depth", str(rng.randint(1, 12))]
        for _ in range(2):
            yield ["reduce", "ta", "--af", f"apx:{path}", "--arg",
                   rng.choice(af.names), "--depth", str(rng.randint(1, 12))]
            yield ["reduce", "witness", "--af", f"apx:{path}", "--arg",
                   rng.choice(af.names), "--length", str(rng.randint(1, 12))]
        yield ["grounded", f"apx:{path}", "--format", "text", "--stages"]
        paths = [()]
        for _ in range(rng.randint(0, 29)):
            paths.append(rng.choice(paths) + (rng.randint(0, 3),))
        tree = tmp_path / f"t{i}.json"
        tree.write_text(json.dumps({"nodes": [list(p) for p in paths]}))
        yield ["tree", "search", "--input", str(tree),
               "--depth", str(rng.randint(1, 6)), "--width", str(rng.randint(1, 4))]
    for _ in range(24):
        argv = ["tree", "build", "--ordinal", rng.choice(CORPUS_ORDINALS),
                "--truncate-width", str(rng.randint(1, 3))]
        if rng.random() < 0.4:
            argv += ["--truncate-depth", str(rng.randint(0, 6))]
        yield argv
    for _ in range(12):
        yield ["tree", "search", "--ordinal", rng.choice(CORPUS_ORDINALS),
               "--depth", str(rng.randint(1, 12)), "--width", str(rng.randint(1, 4))]
    for _ in range(18):
        argv = ["gen", f"ord:{rng.choice(CORPUS_ORDINALS)}:"
                       f"truncate={rng.randint(1, 3)}"]
        if rng.random() < 0.3:
            argv += ["--format", "dot"]
        yield argv
    for _ in range(22):
        argv = ["grounded", rng.choice(CORPUS_LAZY_SPECS),
                "--sample", str(rng.randint(1, 60))]
        if rng.random() < 0.7:
            argv.append("--stages")
        if rng.random() < 0.3:
            argv += ["--format", "text"]
        yield argv


def test_seeded_corpus_output_is_pinned(capsys, tmp_path):
    # sha256 of every command's exit code, stdout and stderr, recorded
    # before lazy trees answered path queries from their node states
    digest = hashlib.sha256()
    count = 0
    for argv in seeded_corpus(random.Random(2026), tmp_path):
        code, out, err = run(capsys, *argv)
        record = [[a.replace(str(tmp_path), "DIR") for a in argv], code, out,
                  err.replace(str(tmp_path), "DIR")]
        digest.update(json.dumps(record).encode())
        count += 1
    assert count == 112
    assert digest.hexdigest() == \
        "b599a4c788aa439365164c8ea780aade5838c8592e48b8bddc5a8f87590a5696"
