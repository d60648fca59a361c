import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skyline.cli import main
from skyline.fillings import BasementKind, Filling, SkewShape

LRS_RENDER = """\
  *   | [*] [*]   1
  *   |   1
  *   | [*] [*] [*]   2
  *   | [*]   2
  *   | [*] [*]   3   3   3"""

BASEMENT_RENDERS = {
    "ident": """\
  1   | [1] [1]
  2   |
  3   | [3] [3] [3]
  4   | [4]
  5   | [5] [5]""",
    "reversed": """\
  5   | [5] [5]
  4   |
  3   | [3] [3] [3]
  2   | [2]
  1   | [1] [1]""",
    "shifted": """\
   6    |  [6]  [6]
   7    |
   8    |  [8]  [8]  [8]
   9    |  [9]
  10    | [10] [10]""",
    "large": """\
  *   | [*] [*]
  *   |
  *   | [*] [*] [*]
  *   | [*]
  *   | [*] [*]""",
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_compute_atom(capsys):
    code, out = run(capsys, ["compute", "atom", "--shape", "1,0", "--n", "2"])
    assert code == 0 and out.strip() == "x1"


def test_compute_schur(capsys):
    code, out = run(capsys, ["compute", "schur", "--shape", "1", "--n", "2"])
    assert code == 0 and out.strip() == "x1 + x2"


def test_compute_qs_rectangle_matches_schur(capsys):
    _, qs_out = run(capsys, ["compute", "qs", "--shape", "2,2", "--n", "3"])
    _, schur_out = run(capsys, ["compute", "schur", "--shape", "2,2", "--n", "3"])
    assert qs_out == schur_out


def test_compute_json_roundtrip(capsys):
    code, out = run(capsys, ["compute", "char", "--shape", "1,2,0",
                             "--n", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and all(sum(t["e"]) == 3 for t in data["terms"])


def test_count_lrc(capsys):
    code, out = run(capsys, ["count", "lrc", "--outer", "4,3,1,2,2",
                             "--inner", "3,2,1", "--content", "1,2,3"])
    assert code == 0 and out.strip() == "4"


def test_count_lrs_and_lrk(capsys):
    code, out = run(capsys, ["count", "lrs", "--outer", "3,1,4,2,5",
                             "--inner", "2,0,3,1,2", "--content", "2,2,3"])
    assert code == 0 and out.strip() == "1"
    code, out = run(capsys, ["count", "lrk", "--outer", "5,1,3,2,4",
                             "--inner", "2,0,1,2,3", "--content", "2,2,3"])
    assert code == 0 and out.strip() == "1"


def test_count_list_roundtrips(capsys):
    code, out = run(capsys, ["count", "lrs", "--outer", "3,1,4,2,5",
                             "--inner", "2,0,3,1,2", "--content", "2,2,3",
                             "--list"])
    assert code == 0
    items = json.loads(out)
    assert len(items) == 1
    f = Filling.from_json(items[0])
    assert f.basement is BasementKind.LARGE


def test_count_ct(capsys):
    code, out = run(capsys, ["count", "ct", "--outer", "3,2,1",
                             "--inner", "2,1", "--content", "1,2"])
    assert code == 0 and out.strip() == "2"


def test_verify_small_all(capsys):
    code, out = run(capsys, ["verify", "all", "--max-n", "2",
                             "--max-size", "2", "--max-lambda", "1"])
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("instances passed")


def test_verify_json_is_one_json_dumps(capsys):
    code, out = run(capsys, ["verify", "all", "--max-n", "2", "--max-size", "2",
                             "--max-lambda", "1", "--json"])
    assert code == 0
    assert out == json.dumps(json.loads(out)) + "\n"


def test_verify_deterministic(capsys):
    argv = ["verify", "atoms", "--max-n", "2", "--max-size", "2",
            "--max-lambda", "1"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_verify_failure_exit_code(capsys, monkeypatch):
    import skyline.cli as cli

    monkeypatch.setattr(cli, "sweep",
                        lambda *a, **k: [("stub", False, "boom")])
    code, out = run(capsys, ["verify", "atoms"])
    assert code == 1 and "FAIL stub" in out


def test_render_filling(capsys, monkeypatch, lrs_example):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(lrs_example.to_json())))
    code, out = run(capsys, ["render"])
    assert code == 0 and out.rstrip("\n") == LRS_RENDER


@pytest.mark.parametrize("kind", list(BASEMENT_RENDERS))
def test_render_basements(capsys, monkeypatch, kind):
    f = Filling(SkewShape((2, 0, 3, 1, 2), (2, 0, 3, 1, 2)),
                BasementKind(kind), [[]] * 5)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(f.to_json())))
    code, out = run(capsys, ["render"])
    assert code == 0 and out.rstrip("\n") == BASEMENT_RENDERS[kind]


def test_render_empty_filling(capsys, monkeypatch):
    f = Filling(SkewShape((0, 0, 0)), BasementKind.IDENT, [[]] * 3)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(f.to_json())))
    code, out = run(capsys, ["render"])
    assert code == 0 and out.rstrip("\n") == "1 |\n2 |\n3 |"


def test_render_contretableau(capsys, monkeypatch, skew_ct_example):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(json.dumps(skew_ct_example.to_json())))
    code, out = run(capsys, ["render"])
    assert code == 0
    assert out.rstrip("\n") == ". . . 8\n. . 7 6\n5 4\n2"


def test_render_malformed(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    assert main(["render"]) == 2


def test_expand(capsys):
    code, out = run(capsys, ["expand", "atoms", "--shape", "1,0",
                             "--lambda", "1", "--n", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["enumerated"] == {"1,1": 1, "2,0": 1}


def test_usage_errors(capsys):
    assert main(["compute", "atom", "--shape", "1,0", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    with pytest.raises(SystemExit) as exc:
        main(["compute", "nope", "--shape", "1", "--n", "1"])
    assert exc.value.code == 2


def test_main_calls_in_one_process_match_fresh_processes(capsys):
    # main builds its parser once per process: each call must still print
    # and exit as a fresh process does, with no default of one call
    # leaking into the next, and a usage error must still exit 2
    import skyline
    src = str(Path(skyline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    calls = [(["verify", "all", "--max-n", "1"], 0),
             (["verify", "all"], 0),
             (["verify", "all", "--max-n", "-1"], 2),
             (["verify", "nope"], 2),
             (["expand", "qs", "--shape", "2,1", "--lambda", "2,1", "--n", "4"], 0)]
    for argv, expected in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "skyline", *argv],
                               capture_output=True, text=True, env=env)
        assert (got.out, got.err, code) == \
            (fresh.stdout, fresh.stderr, fresh.returncode), argv
        assert code == expected, argv


def test_compute_atom_long_row(capsys):
    # one row of 1200 cells: the enumerator must not recurse per cell
    code, out = run(capsys, ["compute", "atom", "--shape", "1200", "--n", "1"])
    assert code == 0 and out.strip() == "x1^1200"


def test_compute_qs_many_parts(capsys):
    # 1,100 parts: placing the index must not recurse per part
    code, out = run(capsys, ["compute", "qs", "--shape", ",".join(["1"] * 1100),
                             "--n", "1100"])
    assert code == 0
    assert out.strip() == "*".join(f"x{i}" for i in range(1, 1101))


@pytest.mark.parametrize("argv, stdin", [
    (["count", "lrs", "--outer", "a,b", "--inner", "0,0", "--content", "1"], None),
    (["compute", "schur", "--shape", "1,2", "--n", "2"], None),
    (["render"], '{"shape": [1, 2], "rows": [[1], [1, 1]]}'),
    (["render"], '{"shape": {"outer": [1], "inner": [0]}, "basement": "x", '
                 '"n": 1, "rows": [[1]]}'),
    (["render"], '{"shape": {"outer": [1], "inner": [0]}, "basement": "ident", '
                 '"n": 1, "rows": [[1.7]]}'),
    (["render"], '{"shape": [2], "rows": [[2, 1.5]]}'),
    (["count", "ct", "--outer", "1,2", "--content", "5"], None),
    (["count", "ct", "--outer", "1,2", "--content", "2,1"], None),
    (["render"], '{"shape": [3, 3, 3], "inner": [2, 0, 1], '
                 '"rows": [[1], [2, 1], [3, 2, 1]]}'),
    (["verify", "all", "--max-n", "-1"], None),
    (["verify", "qs", "--max-size", "-1", "--json"], None),
    (["verify", "consistency", "--max-lambda", "-2"], None),
    (["compute", "schur", "--shape", "", "--n", "-3"], None),
    (["compute", "qs", "--shape", "", "--n", "-1"], None),
    (["compute", "atom", "--shape", "", "--n", "-1"], None),
    (["expand", "qs", "--shape", "", "--lambda", "", "--n", "-1"], None),
    (["expand", "atoms", "--shape", "1,0", "--lambda", "2,1,0", "--n", "3"], None),
])
def test_bad_input_is_a_usage_error(capsys, monkeypatch, argv, stdin):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    n = argv[argv.index("--n") + 1] if "--n" in argv else "0"
    if int(n) < 0:  # one message for every command, not a shape error
        assert err == f"error: --n must be nonnegative, got {n}\n"
    if "2,1,0" in argv:  # --lambda takes a partition, and the error says so
        assert err == "error: partition parts must be positive: (2, 1, 0)\n"


# -- the exit-code contract over small random command lines ---------------

MALFORMED = ["a,b", "1,,2", "-1", "1.5"]
SEQ = st.one_of(st.lists(st.integers(0, 3), max_size=3)
                .map(lambda p: ",".join(map(str, p))),
                st.sampled_from(MALFORMED))
LAMBDA = st.sampled_from(["", "1", "2", "1,1", "1,2"] + MALFORMED)
N = st.integers(-1, 4).map(str)
FLAG = st.sampled_from([[], ["--json"]])

COMPUTE = st.tuples(st.just(["compute"]),
                    st.sampled_from(["schur", "atom", "char", "qs"]).map(lambda k: [k]),
                    SEQ.map(lambda s: ["--shape", s]), N.map(lambda n: ["--n", n]),
                    FLAG)
COUNT = st.tuples(st.just(["count"]),
                  st.sampled_from(["lrs", "lrk", "lrc", "ct"]).map(lambda k: [k]),
                  SEQ.map(lambda s: ["--outer", s]),
                  st.one_of(st.just([]), SEQ.map(lambda s: ["--inner", s])),
                  SEQ.map(lambda s: ["--content", s]),
                  st.sampled_from([[], ["--json"], ["--list"]]))
EXPAND = st.tuples(st.just(["expand"]),
                   st.sampled_from(["atoms", "chars", "qs"]).map(lambda k: [k]),
                   SEQ.map(lambda s: ["--shape", s]),
                   LAMBDA.map(lambda s: ["--lambda", s]),
                   N.map(lambda n: ["--n", n]), FLAG)
BOUND = st.integers(-1, 2).map(str)
VERIFY = st.tuples(st.just(["verify"]),
                   st.sampled_from(["atoms", "chars", "qs", "consistency", "all"])
                   .map(lambda k: [k]),
                   BOUND.map(lambda b: ["--max-n", b]),
                   BOUND.map(lambda b: ["--max-size", b]),
                   BOUND.map(lambda b: ["--max-lambda", b]), FLAG)
ARGV = st.one_of(COMPUTE, COUNT, EXPAND, VERIFY).map(lambda parts: sum(parts, []))

JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                      st.sampled_from(["", "x", "ident", "large", "1"]))
JSON_VALUE = st.recursive(JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["shape", "outer", "inner", "rows",
                                     "basement", "n"]), inner, max_size=4)),
    max_leaves=8)
SMALL = st.lists(st.integers(0, 3), max_size=3)
FILLING_LIKE = st.fixed_dictionaries({
    "shape": st.fixed_dictionaries({"outer": SMALL, "inner": SMALL}),
    "basement": st.sampled_from(["ident", "reversed", "shifted", "large", "x"]),
    "rows": st.lists(SMALL, max_size=3)})
CT_LIKE = st.fixed_dictionaries({"shape": SMALL, "inner": SMALL,
                                 "rows": st.lists(st.lists(JSON_LEAF, max_size=3),
                                                  max_size=3)})
STDIN = st.one_of(st.sampled_from(["", "{not json", "[", "null", '"x"',
                                  '{"shape": [Infinity], "rows": [[1]]}',
                                  '{"shape": [1], "rows": [[NaN]]}']),
                  st.one_of(JSON_VALUE, FILLING_LIKE, CT_LIKE).map(json.dumps))


@settings(max_examples=150, deadline=None)
@given(st.one_of(ARGV.map(lambda argv: (argv, None)),
                 STDIN.map(lambda text: (["render"], text))))
def test_cli_exit_code_contract(case):
    argv, stdin = case
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), (argv, stdin, code)
    assert "Traceback" not in err.getvalue()


def readme_commands():
    """The lines of the README's command-line block as (pipeline stages,
    trailing comment), with backslash continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    for line in block.splitlines():
        stages = [[]]
        for word in shlex.split(line, comments=True):
            if word == "|":
                stages.append([])
            else:
                stages[-1].append(word)
        if stages[0]:
            yield stages, line.partition("#")[2].strip()


def run_pipeline(stages):
    """Run each `skyline` stage through main(argv) and any other stage as
    a process, feeding each stage's output to the next; every stage must
    exit 0."""
    text = ""
    for argv in stages:
        if argv[0] == "skyline":
            out = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out):
                    code = main(argv[1:])
            finally:
                sys.stdin = saved
            assert code == 0, argv
            text = out.getvalue()
        else:
            text = subprocess.run([sys.executable if argv[0] == "python3"
                                   else argv[0], *argv[1:]], input=text,
                                  capture_output=True, text=True,
                                  check=True).stdout
    return text


def test_readme_commands():
    commands = list(readme_commands())
    assert len(commands) >= 10
    for stages, comment in commands:
        out = run_pipeline(stages)
        if comment == "equals the Schur output":
            schur = [["schur" if w == "qs" else w for w in stages[0]]]
            assert out == run_pipeline(schur)
        elif comment:
            assert out.strip() == comment, stages
