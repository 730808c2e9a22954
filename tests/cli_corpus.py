"""A CLI corpus, and the line collector that runs it.

CORPUS lists argvs with the exit code each must give; INPUTS holds the
files they read, by name, written into the directory they run in.  The
argvs cover every command, format and lazy spec and each documented
error: exit 2 for a size outside its bounds, a missing file, bad input
text or a usage error, exit 3 for a domain error.  Refusals that take
long (a truncation that meets its node budget row by row) are left out,
so the corpus runs in about half a second.

Run as a script, `python cli_corpus.py <package dir>` reads a JSON list
of argvs on stdin, runs each through the package's `cli.main` in this
one process and prints a JSON object: each argv's [exit code, stdout,
stderr, the text of its `-o` file or null], and {module file: [line]}
of every line of the package's modules, other than checks.py and
__init__.py, that ran.  The collector starts before the package is
imported, so import-time code counts too; an exception that escapes
`main` is printed to that argv's stderr as a traceback.
"""

import io
import json
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

UNTRACED = {"checks.py", "__init__.py"}

CHAIN = "arg(a0).\narg(a1).\narg(a2).\natt(a0,a1).\natt(a1,a2).\n"

INPUTS = {
    "chain.apx": CHAIN,
    # spaces, a comment and a repeated attack: the per-line reader
    "spaced.apx": "arg(a).\n  arg(b). % two\narg(c).\n\natt(a, b).\n"
                  "att(b,c).\natt(a,b).\n",
    # the block reader's layout but for the "x" before an attack line
    "wedge.apx": "arg(a)x.\natt(a,a).\n",
    # a3 attacks a0 and a1 attacks a2: T_S's first attacked level lies
    # past level 0's diagonal
    "far.apx": "arg(a0).\narg(a1).\narg(a2).\narg(a3).\natt(a1,a2).\n"
               "att(a3,a0).\n",
    # a2 answers a1, the attacker of a0, and a3 attacks a2 back: the
    # counter-attacker committed at a1's level makes a3's level attacked
    "answer.apx": "arg(a0).\narg(a1).\narg(a2).\narg(a3).\natt(a1,a0).\n"
                  "att(a2,a1).\natt(a2,a3).\natt(a3,a2).\n",
    "unsorted.apx": "arg(a).\narg(b).\natt(b,a).\natt(a,b).\n",
    "duplicate.apx": "arg(a).\narg(a).\n",
    "unknown.apx": "arg(a).\natt(a,b).\n",
    "unrecognized.apx": "arg(a).\nattack(a,a).\n",
    "exact.apx": CHAIN + "%stage a0 1\n%stage a1 NEVER\n%stage a2 2\n",
    "tampered.apx": CHAIN + "%stage a0 1\n%stage a1 NEVER\n%stage a2 3\n",
    "explicit.apx": CHAIN + "%stage a0 1\n%stage a1 2\n%stage a2 NEVER\n",
    "unstaged.apx": CHAIN + "%stage a0 1\n",
    "badstage.apx": CHAIN + "%stage a0\n",
    "bare.apx": "% no arguments\n",
    "restaged.apx": CHAIN + "%stage a0 1\n%stage a0 1\n",
    # what `tree build --ordinal w+1 --truncate-width 2` prints
    "tree.json": '{"nodes": [[], [0], [0, 0], [0, 1], [0, 1, 0]]}',
    "deep.json": '{"nodes": [[], ' + "[" * 101 + "]" * 101 + "]}",
    "badnode.json": '{"nodes": [[], [' + ", ".join(["1" * 45] * 5) + ", -1]]}",
    "gap.json": '{"nodes": [[], [0, 0]]}',
    "rootless.json": '{"nodes": []}',
    "notjson.json": '{"nodes": [',
    "list.json": "[]",
    "flat.json": '{"nodes": 3}',
}

OK, VIOLATION, PARSE, DOMAIN = 0, 1, 2, 3

CORPUS = [
    # grounded, finite: the block reader, the per-line reader, both formats
    (["grounded", "apx:chain.apx"], OK),
    (["grounded", "apx:chain.apx", "--stages", "--format", "text"], OK),
    (["grounded", "apx:spaced.apx", "--stages"], OK),
    (["grounded", "apx:unsorted.apx", "--format", "text"], OK),
    (["grounded", "apx:duplicate.apx"], PARSE),
    (["grounded", "apx:unknown.apx"], PARSE),
    (["grounded", "apx:unrecognized.apx"], PARSE),
    (["grounded", "apx:missing.apx"], PARSE),
    (["grounded", "tree:tree.json", "--stages"], OK),
    (["grounded", "ord:0"], OK),
    (["grounded", "ord:4"], OK),
    (["grounded", "ord:w*2:truncate=2"], OK),
    (["grounded", "ord:w+2:truncate=2"], OK),
    (["grounded", "bs:truncate=5", "--stages"], OK),
    (["grounded", "union(apx:chain.apx,bs:truncate=2)"], OK),
    # grounded, lazy: every generator, a union with finite parts
    (["grounded", "bs", "--stages", "--sample", "40"], OK),
    (["grounded", "bs", "--format", "text", "--stages", "--sample", "8"], OK),
    (["grounded", "ord:w^2", "--sample", "30"], OK),
    (["grounded", "ord:w^3", "--sample", "20"], OK),
    (["grounded", "ord:w*2+1", "--sample", "20"], OK),
    (["grounded", "union(bs,ord:w)", "--sample", "24"], OK),
    (["grounded", "union(ord:2,bs,apx:chain.apx,ord:w:truncate=1)",
      "--sample", "40"], OK),
    (["grounded", "union(union(bs))", "--sample=8"], OK),
    # u0_u0_b1, index 54, rests on bs's odd-a family lifted twice
    (["grounded", "union(union(bs,ord:w),ord:w^2)", "--sample", "60",
      "--stages"], OK),
    (["grounded", "ord:1+w", "--sample", "4"], OK),
    (["grounded", "ord:w + 1", "--sample", "4"], OK),
    # bad specs and ordinals
    (["grounded", "ord:w^w"], DOMAIN),
    (["grounded", "ord:w+1:truncate=0"], PARSE),
    (["grounded", "bs:truncate=600000"], DOMAIN),
    (["grounded", "nope"], PARSE),
    (["grounded", "union(bs))"], PARSE),
    (["grounded", "union((bs)"], PARSE),
    (["grounded", "apx:wedge.apx"], PARSE),
    (["grounded", "union(" * 9 + "bs" + ")" * 9], PARSE),
    (["grounded", "ord:"], PARSE),
    (["grounded", "ord:w:cut"], PARSE),
    (["grounded", "ord:w:truncate=x"], PARSE),
    (["grounded", "ord:w:truncate=-1"], PARSE),
    (["grounded", "ord:w:truncate=1:2"], PARSE),
    (["grounded", "tree:"], PARSE),
    (["grounded", "apx:"], PARSE),
    (["grounded", "ord:" + "w^(" * 101 + "1" + ")" * 101], PARSE),
    (["grounded", "ord:w^(2"], PARSE),
    (["grounded", "ord:w^"], PARSE),
    (["grounded", "ord:w*"], PARSE),
    (["grounded", "ord:w+"], PARSE),
    (["grounded", "ord:w)"], PARSE),
    (["grounded", "ord:+"], PARSE),
    (["grounded", "ord:x"], PARSE),
    (["grounded", "ord:w^0+w*0+3"], OK),
    # sizes
    (["grounded", "bs", "--sample", "0"], PARSE),
    (["grounded", "bs", "--sample", "100001"], PARSE),
    (["grounded", "bs", "--sample", "-1"], PARSE),
    (["grounded", "bs", "--sample", "x"], PARSE),
    (["grounded", "bs", "--format", "xml"], PARSE),
    (["check", "lemmas", "--max-args", "1001"], PARSE),
    # usage errors and help
    (["grounded"], PARSE),
    (["frobnicate"], PARSE),
    (["grounded", "--help"], OK),
    (["self-defending", "apx:chain.apx"], OK),
    (["self-defending", "bs"], DOMAIN),
    # trees
    (["tree", "rank", "--input", "tree.json"], OK),
    (["tree", "rank", "--input", "tree.json", "--cap", "1"], DOMAIN),
    (["tree", "rank", "--input", "deep.json"], PARSE),
    (["tree", "rank", "--input", "badnode.json"], PARSE),
    (["tree", "rank", "--input", "gap.json"], PARSE),
    (["tree", "rank", "--input", "rootless.json"], PARSE),
    (["tree", "rank", "--input", "notjson.json"], PARSE),
    (["tree", "rank", "--input", "list.json"], PARSE),
    (["tree", "rank", "--input", "flat.json"], PARSE),
    (["tree", "build", "--ordinal", "w+1", "--truncate-width", "2"], OK),
    (["tree", "build", "--ordinal", " "], PARSE),
    (["tree", "build", "--ordinal", "w^2", "--truncate-width", "2",
      "--truncate-depth", "2"], OK),
    (["tree", "search", "--input", "tree.json", "--depth", "2",
      "--width", "2"], OK),
    (["tree", "search", "--input", "tree.json", "--depth", "9",
      "--width", "2"], OK),
    (["tree", "search", "--ordinal", "w^2", "--depth", "3", "--width", "2"], OK),
    (["tree", "search", "--input", "tree.json", "--ordinal", "w",
      "--depth", "1", "--width", "1"], PARSE),
    # the reductions
    (["reduce", "ts", "--af", "apx:chain.apx", "--set", "a1"], OK),
    (["reduce", "ts", "--af", "apx:chain.apx", "--set", "a0, a2",
      "--depth", "7"], OK),
    (["reduce", "ts", "--af", "apx:chain.apx"], OK),
    (["reduce", "ts", "--af", "ord:3", "--set", "b", "--node-cap", "1"],
     DOMAIN),
    (["reduce", "ts", "--af", "ord:3", "--set", "b"], OK),
    (["reduce", "ts", "--af", "apx:far.apx", "--set", "a0"], OK),
    (["reduce", "ts", "--af", "apx:far.apx", "--set", "a2"], OK),
    (["reduce", "ts", "--af", "apx:answer.apx", "--set", "a0"], OK),
    (["reduce", "ts", "--af", "apx:chain.apx", "--set", "zz"], PARSE),
    (["reduce", "ts", "--af", "ord:w^2"], DOMAIN),
    (["reduce", "ta", "--af", "apx:chain.apx", "--arg", "a2"], OK),
    (["reduce", "ta", "--af", "apx:chain.apx", "--arg", "a1"], OK),
    (["reduce", "witness", "--af", "apx:chain.apx", "--arg", "a1",
      "--length", "5"], OK),
    (["reduce", "witness", "--af", "apx:chain.apx", "--arg", "a0"], DOMAIN),
    # the suites and injected stage maps
    (["check", "all", "--trials", "2", "--seed", "1"], OK),
    (["check", "all", "--trials", "20", "--seed", "42"], OK),
    (["check", "ordinals", "--trials", "0", "--emit-plot", "plot.csv"], OK),
    (["check", "lemmas", "--trials", "0", "--inject", "exact.apx"], OK),
    (["check", "lemmas", "--trials", "0", "--inject", "tampered.apx"],
     VIOLATION),
    (["check", "lemmas", "--trials", "0", "--inject", "explicit.apx"],
     VIOLATION),
    (["check", "lemmas", "--trials", "0", "--inject", "unstaged.apx"], PARSE),
    (["check", "lemmas", "--trials", "0", "--inject", "badstage.apx"], PARSE),
    (["check", "lemmas", "--trials", "0", "--inject", "bare.apx"], OK),
    (["check", "lemmas", "--trials", "0", "--inject", "restaged.apx"], PARSE),
    # gen
    (["gen", "apx:spaced.apx"], OK),
    (["gen", "bs:truncate=3", "--format", "dot"], OK),
    (["gen", "ord:w*2:truncate=2", "-o", "out.apx"], OK),
    (["gen", "bs"], DOMAIN),
]


def _run(package_dir: str) -> dict:
    package_dir = os.path.abspath(package_dir)
    traced = {}  # code object -> its file's name, or None
    reached = set()

    def lines(frame, event, arg):
        if event == "line":
            reached.add((traced[frame.f_code], frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        name = traced.get(code, False)
        if name is False:
            path = code.co_filename
            name = traced[code] = (
                os.path.basename(path)
                if os.path.dirname(path) == package_dir
                and os.path.basename(path) not in UNTRACED else None)
        return None if name is None else lines

    argvs = json.load(sys.stdin)
    sys.path.insert(0, os.path.dirname(package_dir))
    sys.settrace(calls)
    try:
        main = __import__(os.path.basename(package_dir) + ".cli",
                          fromlist=["main"]).main
        results = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except Exception:
                    traceback.print_exc()
                    code = None
            written = None
            if "-o" in argv:
                with open(argv[argv.index("-o") + 1]) as f:
                    written = f.read()
            results.append([code, out.getvalue(), err.getvalue(), written])
    finally:
        sys.settrace(None)
    by_file = {}
    for name, line in reached:
        by_file.setdefault(name, []).append(line)
    return {"results": results,
            "reached": {name: sorted(found) for name, found in by_file.items()}}


if __name__ == "__main__":
    json.dump(_run(sys.argv[1]), sys.stdout)
