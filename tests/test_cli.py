import json
import random
import re

import pytest

from transfinite_af.checks import eliminated_self_defending, iterated_defense_step
from transfinite_af.cli import MAX_PATH_LENGTH, main
from transfinite_af.constructions import materialize_spec, parse_generator_spec
from transfinite_af.core import FiniteAF, format_apx, parse_apx
from transfinite_af.ordinals import NEVER, format_ordinal


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
    ["ts", "--set", "a0", "--depth"],
    ["ta", "--arg", "a1", "--depth"],
    ["witness", "--arg", "a1", "--length"],
])
def test_reduce_sizes_are_capped(capsys, chain_path, command):
    code, out, err = run(capsys, "reduce", command[0], "--af", f"apx:{chain_path}",
                         *command[1:], str(MAX_PATH_LENGTH + 1))
    assert code == 2 and out == ""
    assert f"{command[-1]} {MAX_PATH_LENGTH + 1} exceeds the cap of " \
        f"{MAX_PATH_LENGTH}" in err

    code, out, _ = run(capsys, "reduce", command[0], "--af", f"apx:{chain_path}",
                       *command[1:-1])
    assert code == 0
    doc = json.loads(out)
    assert len(doc.get("prefix", doc.get("witness"))) == 100


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


def test_usage_error_exit_2(capsys):
    assert main(["tree"]) == 2
