import contextlib
import io
import json
import pathlib
import subprocess
import sys
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from localsym import cli
from localsym.cli import main
from localsym.localfield import reduce
from localsym.prasad import w_gram

from conftest import mat_mul


def run_cli(args, capsys):
    code = 0
    try:
        main(args)
    except SystemExit as e:
        code = e.code or 0
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]) if out.strip() else None


def test_hilbert(capsys):
    code, env = run_cli(["hilbert", "-a", "3", "-b", "5", "-p", "3"], capsys)
    assert code == 0
    assert env["command"] == "hilbert" and env["version"] == 1
    assert env["payload"]["symbol"] in (1, -1)
    from localsym.localfield import Prime, hilbert_rational

    assert env["payload"]["symbol"] == hilbert_rational(3, 5, Prime(3))


def test_idempotent_output(capsys):
    try:
        main(["hilbert", "-a", "-1", "-b", "-1", "-p", "2"])
    except SystemExit:
        pass
    out1 = capsys.readouterr().out
    try:
        main(["hilbert", "-a", "-1", "-b", "-1", "-p", "2"])
    except SystemExit:
        pass
    out2 = capsys.readouterr().out
    assert out1 == out2  # identical invocations give identical bytes
    assert json.loads(out1)["payload"]["symbol"] == -1


def test_form_invariants(capsys):
    code, env = run_cli(
        ["form-invariants", "--case", "orthogonal", "--p", "3", "--gram", "[[0,1],[1,0]]"],
        capsys,
    )
    assert code == 0
    payload = env["payload"]
    assert payload["hasse"] == 1
    # disc -1 at 3: nontrivial unit class
    assert payload["disc"]["val"] == 0 and payload["disc"]["unit"] == 2


@pytest.mark.parametrize("gram", ["[[1,2,3],[2,5,6],[3]]", "{}"], ids=["ragged", "object"])
def test_form_invariants_bad_gram_is_malformed(gram, capsys):
    with pytest.raises(SystemExit) as e:
        main(["form-invariants", "--case", "orthogonal", "--p", "3", "--gram", gram])
    assert e.value.code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


@pytest.mark.parametrize("entries", ['{"1": 2}', '"12"'], ids=["object", "string"])
def test_form_invariants_bad_entries_is_malformed(entries, capsys):
    with pytest.raises(SystemExit) as e:
        main(["form-invariants", "--case", "orthogonal", "--p", "3", "--entries", entries])
    assert e.value.code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


def test_orbit_count_forms(capsys):
    code, env = run_cli(["orbit-count", "--case", "symplectic", "--n", "4"], capsys)
    assert code == 0 and env["payload"]["count"] == 1
    code, env = run_cli(
        ["orbit-count", "--case", "orthogonal", "--n", "3", "--disc", "1", "--p", "3"], capsys
    )
    assert env["payload"]["count"] == 2


def test_orbit_count_pair(capsys):
    pair = {"case": "unitary", "n0": 1, "j": ["1"], "n": 1, "p": 3, "a": -1, "b": 3}
    code, env = run_cli(["orbit-count", "--pair", json.dumps(pair)], capsys)
    assert code == 0 and env["payload"]["count"] == 2


def test_orbit_count_pair_kernel_only(capsys):
    # n = 0: the anisotropic kernel alone, diag(1) at 3 over Q(i)
    pair = {"case": "orthogonal", "n0": 1, "j": ["1"], "n": 0, "p": 3, "a": -1, "b": None}
    code, env = run_cli(["orbit-count", "--pair", json.dumps(pair)], capsys)
    assert code == 0 and env["payload"]["count"] == 2


def test_involutions(capsys):
    code, env = run_cli(["involutions", "--parts", "[1,1]"], capsys)
    assert code == 0 and env["payload"]["count"] == 6
    code, env = run_cli(["involutions", "--parts", "[1,1]", "--circ"], capsys)
    assert env["payload"]["count"] == 4


def test_build_tw(capsys):
    pair = {"case": "symplectic", "n0": 0, "j": [], "n": 1, "p": 3, "a": -1, "b": None}
    comp = {"parts": [1], "r": 0}
    w = {"rho": [1], "c": [1]}
    code, env = run_cli(
        ["build-tw", "--pair", json.dumps(pair), "--comp", json.dumps(comp), "--w", json.dumps(w)],
        capsys,
    )
    assert code == 0
    mat = env["payload"]["matrix"]
    assert mat[0][1][0] == "1" and mat[1][0][0] == "-1"


def test_descend(capsys):
    comp = {"parts": [1, 1], "r": 1}
    w = {"rho": [1, 2], "c": [1]}
    code, env = run_cli(["descend", "--comp", json.dumps(comp), "--w", json.dumps(w)], capsys)
    assert code == 0
    payload = env["payload"]
    assert len(payload["path"]) == 1
    step = payload["path"][0]
    assert set(step) == {"step", "alpha", "new_comp", "new_w"}
    assert payload["terminal"]["w"]["c"] == [2]
    assert payload["terminal_is_final"]


def test_cone(capsys):
    w = {"rho": [1, 2], "c": [1, 2]}
    code, env = run_cli(
        ["cone", "--w", json.dumps(w), "--lambda", '["5","3"]', "--c", "1"], capsys
    )
    assert code == 0 and env["payload"]["contains"] is True
    code, env = run_cli(
        ["cone", "--w", json.dumps(w), "--lambda", '["3","5"]', "--c", "1"], capsys
    )
    assert env["payload"]["contains"] is False


def test_distinguish_files(tmp_path, capsys):
    pair = {"case": "symplectic", "n0": 0, "j": [], "n": 2, "p": 3, "a": -1, "b": None}
    comp = {"parts": [1, 1], "r": 0}
    data = {"labels": ["pi1", "pi2"], "conj_dual": [[1, 2]]}
    target = {"case": "symplectic"}
    paths = {}
    for name, obj in [("pair", pair), ("comp", comp), ("data", data), ("target", target)]:
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(obj))
        paths[name] = str(f)
    code, env = run_cli(
        [
            "distinguish",
            "--pair", paths["pair"],
            "--comp", paths["comp"],
            "--data", paths["data"],
            "--target", paths["target"],
        ],
        capsys,
    )
    assert code == 0
    payload = env["payload"]
    assert payload["distinguished"] is True
    assert payload["witness"]["w"]["rho"] == [2, 1]


SPLIT_SO6 = {"case": "orthogonal", "n0": 0, "j": [], "n": 3, "p": 3, "a": -1, "b": None}
SO6_TARGET = {"case": "orthogonal", "component": "SX", "partial": {"p": 3, "val": 0, "unit": 2}, "hasse": 1}


def error_text(args, capsys):
    """The text of the one JSON error line with which the CLI exits 1."""
    with pytest.raises(SystemExit) as exit_:
        main(args)
    lines = capsys.readouterr().out.splitlines()
    assert exit_.value.code == 1 and len(lines) == 1, lines
    env = json.loads(lines[0])
    assert set(env) == {"error"}
    return env["error"]


@pytest.mark.parametrize("comp", [
    {"parts": [1, 2], "r": 0},
    {"parts": [1, 1], "r": 1},
    {"parts": [1, 1], "r": 0},
    {"parts": [1, 1, 1], "r": 0, "sign": 1},
], ids=["no-sign", "r1", "rank", "stray-sign"])
def test_distinguish_refuses_what_build_tw_refuses(comp, tmp_path, capsys):
    k = len(comp["parts"])
    w = {"rho": list(range(1, k + 1)), "c": []}
    expected = error_text(
        ["build-tw", "--pair", json.dumps(SPLIT_SO6), "--comp", json.dumps(comp), "--w", json.dumps(w)], capsys
    )
    args = ["distinguish"]
    for name, obj in [("pair", SPLIT_SO6), ("comp", comp), ("data", {"labels": [str(i) for i in range(k)]}),
                      ("target", SO6_TARGET)]:
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(obj))
        args += [f"--{name}", str(f)]
    assert error_text(args, capsys) == expected


def test_build_tw_refuses_odd_o_at_r0(capsys):
    # t_w of rho = id, c = {1} at r = 0 would have det -1, outside SO(6)
    args = ["build-tw", "--pair", json.dumps(SPLIT_SO6), "--comp", '{"parts":[1,1,1],"r":0}',
            "--w", '{"rho":[1,2,3],"c":[1]}']
    assert "o(c) must be even" in error_text(args, capsys)
    code, _ = run_cli(args[:-1] + ['{"rho":[1,2,3],"c":[1,2]}'], capsys)
    assert code == 0


def test_prasad_char(capsys):
    code, env = run_cli(
        ["prasad-char", "--group", '{"family":"SO","m":5}', "--ext", '{"p":3,"d":-1}',
         "--opposition"],
        capsys,
    )
    assert code == 0
    payload = env["payload"]
    assert payload["omega"] == {"kind": "sn", "exponent": 1, "eta": "E/F"}
    assert payload["opposition"]["family"] == "SO"


@pytest.mark.parametrize("d", ['"5"', '"5/4"', '"20"', "5"])
def test_prasad_opposition_reads_d_as_a_rational(d, capsys):
    # --opposition reads d as the extension does; a text d was a TypeError (exit 2)
    code, env = run_cli(
        ["prasad-char", "--group", '{"family":"GL","m":2}', "--ext", f'{{"d":{d},"p":3}}', "--opposition"],
        capsys,
    )
    assert code == 0
    assert env["payload"]["opposition"] == {"family": "U", "m": 2, "k": 5}


@pytest.mark.parametrize("group", [
    '{"family":"GL","m":true}',  # was read as m = 1, exit 0
    '{"family":"GL","m":2.5}',  # was a JSON serialization error
    '{"family":"SO","m":3.0}',
    '{"family":"U","m":2,"k":true}',
    '{"family":"U","m":2,"k":3.0}',
    '{"family":"U","m":2,"k":"3"}',
    '{"family":"SO","m":"3"}',  # the default kernel read m % 2 first: string formatting
    '{"family":"SO","m":[3]}',  # and an unsupported operand for a list
])
def test_prasad_group_sizes_must_be_integers(group, capsys):
    code, env = run_cli(["prasad-char", "--group", group, "--ext", '{"d":5,"p":3}'], capsys)
    assert code == 2
    assert env == {"error": "malformed input: m and k must be integers"}


def test_spinor_norm_file(tmp_path, capsys):
    f = tmp_path / "mat.json"
    f.write_text(json.dumps({"matrix": [["3", 0], [0, "1/3"]]}))
    code, env = run_cli(["spinor-norm", "--matrix", str(f), "--p", "3"], capsys)
    assert code == 0
    assert env["payload"]["rational"] == "3"
    assert env["payload"]["class"] == {"p": 3, "val": 1, "unit": 1}


def _unfactored_isometry():
    """(g, Q(v1) Q(v2)) for g = s_v1 s_v2 over w_gram(3), the default gram
    of a 3 x 3 matrix; its Wall determinant leaves the composite cofactor
    30931433989981341693223, which trial division cannot split."""
    gram = w_gram(3)
    vs = [[Fraction(-362, 443), Fraction(20, 33), Fraction(247, 161)],
          [Fraction(-239, 48), Fraction(417, 656), Fraction(-63, 886)]]
    g, qs = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)], []
    for v in vs:
        gv = [sum(gram[i][j] * v[j] for j in range(3)) for i in range(3)]
        q = sum(x * y for x, y in zip(v, gv))
        g = mat_mul(g, [[int(i == j) - 2 * v[i] * gv[j] / q for j in range(3)] for i in range(3)])
        qs.append(q)
    return g, qs[0] * qs[1]


def test_spinor_norm_class_needs_no_factoring(tmp_path, capsys):
    """With --p the class comes from the Wall determinant itself, and a
    rational spinor norm that would need the factoring reads null; without
    --p the refusal stands."""
    g, q = _unfactored_isometry()
    f = tmp_path / "mat.json"
    f.write_text(json.dumps({"matrix": [[str(x) for x in r] for r in g]}))
    code, env = run_cli(["spinor-norm", "--matrix", str(f), "--p", "3"], capsys)
    assert code == 0
    assert env["payload"] == {"rational": None, "class": reduce(q, 3).to_json()}
    assert env["payload"]["class"] == {"p": 3, "val": 1, "unit": 1}
    code, env = run_cli(["spinor-norm", "--matrix", str(f)], capsys)
    assert code == 1
    assert env == {"error": "cofactor 30931433989981341693223 has no prime factor below 1000000 "
                            "and is too large to certify"}


@pytest.mark.parametrize(
    "data",
    [
        [],
        [[1, 2], [3]],
        {"matrix": [[1, 0], [0, 1]], "gram": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]},
    ],
    ids=["empty", "ragged", "gram-size"],
)
def test_spinor_norm_bad_shape_is_a_domain_error(data, tmp_path, capsys):
    f = tmp_path / "mat.json"
    f.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as e:
        main(["spinor-norm", "--matrix", str(f), "--p", "3"])
    assert e.value.code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


def test_selftest(capsys, monkeypatch):
    # the symbol grid is fixed: no environment variable narrows or empties it
    monkeypatch.setenv("LOCALSYM_SELFTEST_BOUND", "0")
    code, env = run_cli(["selftest"], capsys)
    assert code == 0
    assert env["payload"]["failed"] == 0
    assert env["payload"]["bound"] == 6
    # the exact names, so a check that is dropped or renamed fails here
    assert set(env["payload"]["checks"]) == {
        "hilbert-formula-vs-oracle@p=2",
        "hilbert-formula-vs-oracle@p=3",
        "hilbert-formula-vs-oracle@p=5",
        "hilbert-reciprocity",
        "spinor-norm-so2",
        "gamma-bit-vs-hensel-oracle",
    }
    assert all(env["payload"]["checks"].values())


def test_error_codes(capsys):
    # domain error: 6 is not prime
    code, env = run_cli(["hilbert", "-a", "3", "-b", "5", "-p", "6"], capsys)
    assert code == 1 and "error" in env
    # malformed JSON: exit 2
    code, env = run_cli(["involutions", "--parts", "[1,"], capsys)
    assert code == 2 and "error" in env


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "localsym.cli", "hilbert", "-a", "2", "-b", "3", "-p", "5"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["command"] == "hilbert"


HUGE = 10**30 + 57  # no prime factor below 10^6, far above 10^12


@pytest.mark.parametrize(
    "args",
    [
        ["orbit-count", "--pair", json.dumps(
            {"case": "orthogonal", "n0": 0, "j": [], "n": 1, "p": 3, "a": HUGE})],
        ["prasad-char", "--group", json.dumps({"family": "U", "m": 2, "k": HUGE}),
         "--ext", json.dumps({"p": 3, "d": -1})],
    ],
    ids=["orbit-count", "prasad-char"],
)
def test_unfactorable_input_is_refused_in_bounded_time(args):
    # trial division stops at 10^6; the timeout guards against an unbounded factorizer
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "localsym.cli", *args], capture_output=True, text=True, timeout=30
    )
    elapsed = time.perf_counter() - start
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    assert elapsed < 2.0, f"refusal took {elapsed:.2f}s"


@pytest.mark.parametrize(
    "args",
    [
        ["hilbert", "-a", "1e300000", "-b", "3", "-p", "5"],
        ["form-invariants", "--case", "orthogonal", "--p", "5", "--entries", '["1e300000", 3]'],
        ["hilbert", "-a", "1" + "0" * 4300, "-b", "3", "-p", "5"],
        ["hilbert", "-a", "1e4300", "-b", "3", "-p", "5"],
        ["hilbert", "-a", "3", "-b", "1e-300000", "-p", "5"],
        ["form-invariants", "--case", "orthogonal", "--p", "5", "--gram", '[["1e300000", 0], [0, 3]]'],
        ["orbit-count", "--pair", json.dumps(
            {"case": "orthogonal", "n0": 1, "j": ["1e300000"], "n": 1, "p": 3, "a": 2})],
        ["prasad-char", "--group", '{"family": "U", "m": 2, "k": 3}', "--ext", '{"d": "1e300000", "p": 5}'],
        ["spinor-norm", "--matrix", '[["1e300000", 0], [0, "1e-300000"]]'],
    ],
    ids=["exponent", "entries", "spelled-out", "exponent-4301-digits", "denominator",
         "gram", "pair-j", "ext-d", "spinor-matrix"],
)
def test_huge_rational_is_refused_in_bounded_time(args, tmp_path):
    # 10^4300 has 4301 digits; 10^300000 once took 87 s in the p-adic split
    args = _matrix_to_file(args, tmp_path)
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "localsym.cli", *args], capture_output=True, text=True, timeout=30
    )
    elapsed = time.perf_counter() - start
    assert out.returncode == 2, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    assert elapsed < 2.0, f"refusal took {elapsed:.2f}s"


_NINE = [1] * 9
_W_NINE = json.dumps({"rho": list(range(1, 10))})
_PAIR_66 = {"case": "symplectic", "n0": 0, "j": [], "n": 33, "p": 3, "a": -1, "b": None}


@pytest.mark.parametrize(
    "args",
    [
        ["involutions", "--parts", json.dumps(_NINE)],
        ["descend", "--comp", json.dumps({"parts": _NINE, "r": 0}), "--w", _W_NINE],
        ["cone", "--w", _W_NINE, "--lambda", json.dumps(_NINE)],
        ["build-tw", "--pair", json.dumps(_PAIR_66), "--comp", '{"parts":[33],"r":0}', "--w", '{"rho":[1]}'],
        ["distinguish", "--pair", _PAIR_66, "--comp", {"parts": [33], "r": 0},
         "--data", {"labels": ["pi1"]}, "--target", {"case": "symplectic"}],
        ["distinguish", "--pair", dict(_PAIR_66, n=9), "--comp", {"parts": _NINE, "r": 0},
         "--data", {"labels": [f"pi{i}" for i in range(9)]}, "--target", {"case": "symplectic"}],
    ],
    ids=["involutions-9-blocks", "descend-9-blocks", "cone-9-blocks", "build-tw-N66",
         "distinguish-N66", "distinguish-9-blocks"],
)
def test_sizes_beyond_the_cli_bounds_are_refused_at_once(args, tmp_path):
    # 9 one-blocks took 8 s and printed 7 MB for involutions; build-tw at N = 1000 took 50 s
    args = [json.dumps(a) if isinstance(a, dict) else a for a in args]
    if args[0] == "distinguish":
        for i in range(2, len(args), 2):
            path = tmp_path / f"{args[i - 1][2:]}.json"
            path.write_text(args[i])
            args[i] = str(path)
    start = time.perf_counter()
    assert _assert_one_json_line(args) == 2
    assert time.perf_counter() - start < 1.0


def test_matrix_size_64_is_within_the_cli_bound(capsys):
    pair = dict(_PAIR_66, n=32)
    code, env = run_cli(["build-tw", "--pair", json.dumps(pair), "--comp", '{"parts":[32],"r":0}',
                         "--w", '{"rho":[1]}'], capsys)
    assert code == 0 and len(env["payload"]["matrix"]) == 64


def _matrix_to_file(args, folder):
    """args with the text after --matrix written to a file and replaced by
    its path: spinor-norm reads its matrix from a file."""
    if "--matrix" not in args:
        return args
    i = args.index("--matrix") + 1
    path = folder / "matrix.json"
    path.write_text(args[i])
    return [*args[:i], str(path), *args[i + 1:]]


def test_json_decimal_is_read_as_written(capsys):
    # 0.1 as a JSON number is 1/10, not the binary double nearest to it
    spellings = [["--gram", "[[0.1, 0], [0, 1]]"], ["--entries", "[0.1, 1]"],
                 ["--gram", '[["1/10", 0], [0, 1]]']]
    payloads = [run_cli(["form-invariants", "--p", "5", *s], capsys)[1]["payload"] for s in spellings]
    assert payloads[0] == payloads[1] == payloads[2]
    assert payloads[0]["disc"] == {"p": 5, "val": 1, "unit": 2}


@pytest.mark.parametrize("a", ["1e4299", "9" * 4300, "2e-4300"])
def test_rational_of_4300_digits_is_accepted(a, capsys):
    code, env = run_cli(["hilbert", "-a", a, "-b", "3", "-p", "5"], capsys)
    assert code == 0 and env["payload"]["symbol"] in (1, -1)


@pytest.mark.parametrize("script", sorted(__import__("pathlib").Path(__file__).parent.parent.joinpath("demos").glob("*.py")))
def test_demo_scripts_run(script):
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_cli_golden_fixtures(capsys):
    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "cli_fixtures.json").read_text()
    )
    assert golden["version"] == 1
    for case in golden["cases"]:
        code, env = run_cli(case["argv"], capsys)
        assert code == 0, case["name"]
        assert env["payload"] == case["payload"], case["name"]


def _outcome(argv, parse, monkeypatch):
    """(exit code, stdout, stderr) of main(argv) with `parse` as its parse."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with monkeypatch.context() as m, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        m.setattr(cli, "_parse", parse)
        try:
            main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_one_parse_matches_the_full_parser(tmp_path, monkeypatch):
    """main parses a subcommand's words with that subcommand's parser
    alone; its stdout, stderr and exit code equal those of the full
    parser's parse on every golden fixture and on malformed argv: none,
    -h, an unknown command, a missing required option, unknown trailing
    words, --opt=value, an abbreviated option and a -- separator."""
    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_fixtures.json").read_text())
    pair = '{"case":"symplectic","n0":0,"j":[],"n":2,"p":3,"a":-1}'
    comp = '{"parts":[1,1],"r":0}'
    w = '{"rho":[2,1],"c":[1,2]}'
    files = {}
    for name, text in (("pair", pair), ("comp", comp), ("data", '{"labels":["1","2"]}'),
                       ("target", '{"case":"symplectic"}')):
        files[name] = str(tmp_path / f"{name}.json")
        pathlib.Path(files[name]).write_text(text)
    distinguish = ["distinguish", "--pair", files["pair"], "--comp", files["comp"],
                   "--data", files["data"], "--target", files["target"]]
    malformed = [
        [],
        ["-h"],
        ["--help"],
        ["bogus"],
        ["bogus", "--pair", pair],
        ["distinguish", "-h"],
        ["distinguish", "--pair", files["pair"]],
        distinguish,
        distinguish + ["--bogus"],
        distinguish + ["extra", "words"],
        ["hilbert", "-a", "3", "-b", "2", "-p", "3", "--", "5"],
        ["form-invariants", "--p=3", "--entries=[1,2]"],
        ["build-tw", "--pa", pair, "--comp", comp, "--w", w],
        ["build-tw", "--pa=" + pair, "--co", comp, "--w", w, "--bogus=1"],
        ["involutions", "--parts", "[1,1]", "--circ", "--r", "x"],
    ]
    dispatch = cli._parse
    for argv in [case["argv"] for case in golden["cases"]] + malformed:
        full = _outcome(argv, lambda a: cli._parser().parse_args(a), monkeypatch)
        assert _outcome(argv, dispatch, monkeypatch) == full, argv
    code, _, err = _outcome(distinguish + ["--bogus"], dispatch, monkeypatch)
    assert code == 2 and err.startswith("usage: localsym [-h]")


def _fresh_cli(args):
    out = subprocess.run(
        [sys.executable, "-m", "localsym.cli", *args], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_reused_parser_matches_fresh_processes(capsys):
    """The parser is built once per process; a flag given in one call must
    not leak into the next."""
    comp = json.dumps({"parts": [1, 1], "r": 0})
    w = json.dumps({"rho": [2, 1], "c": [1, 2]})
    calls = [
        ["descend", "--comp", comp, "--w", w, "--wall-double"],
        ["descend", "--comp", comp, "--w", w],
        ["involutions", "--parts", "[1,1,2]", "--circ"],
        ["involutions", "--parts", "[1,1,2]"],
    ]
    in_process = []
    for args in calls:
        main(args)
        in_process.append(capsys.readouterr().out)
    assert in_process == [_fresh_cli(args) for args in calls]
    assert in_process[0] != in_process[1] and in_process[2] != in_process[3]


@pytest.mark.parametrize(
    "args",
    [
        ["orbit-count", "--pair",
         '{"case":"bogus","n0":1,"j":["1"],"n":1,"p":3,"a":-1,"b":3}'],
        ["prasad-char", "--group", '{"family":"XX","m":5}', "--ext", '{"p":3,"d":-1}'],
    ],
)
def test_unknown_enum_value_is_malformed_input(args, capsys):
    with pytest.raises(SystemExit) as e:
        main(args)
    assert e.value.code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


_TW_PAIR = '{"case":"symplectic","n0":0,"j":[],"n":2,"p":3,"a":-1}'
_W1 = '{"rho":[1],"c":[]}'


@pytest.mark.parametrize(
    "args",
    [
        ["cone", "--w", '{"rho":[1,2],"c":[1,2]}', "--lambda", '"53"'],
        ["cone", "--w", '{"rho":[1,2],"c":[1,2]}', "--lambda", '{"5":0,"3":0}'],
        ["involutions", "--parts", '"12"'],
        ["involutions", "--parts", '{"1":0,"2":0}'],
        ["involutions", "--parts", "[1.5]"],
        ["involutions", "--parts", "[true]"],
        ["build-tw", "--pair", _TW_PAIR, "--comp", '{"parts":[1.5],"r":0}', "--w", _W1],
        ["build-tw", "--pair", _TW_PAIR, "--comp", '{"parts":[true],"r":1}', "--w", _W1],
        ["build-tw", "--pair", _TW_PAIR, "--comp", '{"parts":[1],"r":1.0}', "--w", _W1],
        ["build-tw", "--pair", _TW_PAIR, "--comp", '{"parts":"2","r":0}', "--w", _W1],
        ["descend", "--comp", '{"parts":[1,1],"r":true}', "--w", '{"rho":[1,2],"c":[1]}'],
        ["descend", "--comp", '{"parts":[2],"r":0,"sign":true}', "--w", '{"rho":[1],"c":[1]}'],
    ],
    ids=[
        "lambda-string", "lambda-object", "parts-string", "parts-object", "parts-float",
        "parts-bool", "comp-float-part", "comp-bool-part", "comp-float-r", "comp-string-parts",
        "descend-bool-r", "descend-bool-sign",
    ],
)
def test_list_and_integer_arguments_are_malformed(args, capsys):
    with pytest.raises(SystemExit) as e:
        main(args)
    assert e.value.code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


# ---------------------------------------------------------------------------
# fuzz: malformed and edge-case JSON for every JSON argument, in process

_FUZZ_PAIR = {"case": "orthogonal", "n0": 1, "j": ["1"], "n": 1, "p": 3, "a": -1, "b": None}
_FUZZ_COMP = {"parts": [1, 1], "r": 0}
_FUZZ_DATA = {"labels": ["pi1", "pi2"], "conj_dual": [[1, 2]], "linear_dist": [1],
              "pi0_dist": [{"case": "orthogonal", "component": "SX", "hasse": 1,
                            "partial": {"p": 3, "val": 0, "unit": 1}}]}
_FUZZ_TARGET = {"case": "orthogonal", "component": "SX", "hasse": 1,
                "partial": {"p": 3, "val": 0, "unit": 1}}
_FUZZ_GROUPS = ({"family": "SO", "m": 3, "kernel": ["2"]}, {"family": "U", "m": 2, "k": 3})
_FUZZ_EXT = {"d": -1, "p": 3}
# diag(3, 1/3) preserves the antidiagonal gram, the default one
_FUZZ_MATRICES = ({"matrix": [["3", 0], [0, "1/3"]], "gram": [[0, 1], [1, 0]]},
                  [["3", 0], [0, "1/3"]])
_FUZZ_KEYS = sorted(set(_FUZZ_PAIR) | set(_FUZZ_COMP) | set(_FUZZ_DATA) | set(_FUZZ_TARGET)
                    | set(_FUZZ_GROUPS[0]) | set(_FUZZ_GROUPS[1]) | set(_FUZZ_EXT) | set(_FUZZ_MATRICES[0])
                    | {"gamma_bit", "sign", "val", "unit", "rho", "c"})

# small integers only: a large rank or block size is a large matrix, which is
# bounded time but not a fuzzing budget
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from(["1/2", "-1", "0", "1/0", "x", "1e3", "SX", "orthogonal", "unitary",
                     float("inf"), float("nan"), 10**30, -(10**30)]),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _edited(draw, base):
    """base (an object or a list) with one entry replaced, dropped or
    added, or an arbitrary value."""
    how = draw(st.sampled_from(["replace", "drop", "add", "any"]))
    if how == "any" or not base:
        return draw(_values)
    doc = dict(base) if isinstance(base, dict) else list(base)
    keys = sorted(doc) if isinstance(doc, dict) else range(len(doc))
    if how == "add":
        key = draw(st.sampled_from(_FUZZ_KEYS)) if isinstance(doc, dict) else len(doc)
    else:
        key = draw(st.sampled_from(keys))
    if how == "drop":
        doc.pop(key)
    elif isinstance(doc, list) and key == len(doc):
        doc.append(draw(_values))
    else:
        doc[key] = draw(_values)
    return doc


def _text(draw, base):
    """JSON text for base edited, or text that is not JSON at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(_NOT_JSON))
    return json.dumps(draw(_edited(base)))


_NOT_JSON = ["", "{", "[1,", "nan", "NaN", "[Infinity]", "-Infinity", "1e999", "[-1e999]",
             '"\\ud800"', "1" * 5000, "[" * 5000 + "]" * 5000, '{"a":' * 5000 + "1" + "}" * 5000]
_FUZZ_FLAGS = ("--pair", "--comp", "--data", "--target", "--gram", "--entries", "--group", "--ext", "--matrix")


@settings(max_examples=200, derandomize=True, deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_one_json_line_and_exit_code(tmp_path_factory, data):
    flag = data.draw(st.sampled_from(_FUZZ_FLAGS))
    if flag in ("--gram", "--entries"):
        base = [[1, 0], [0, "-1/2"]] if flag == "--gram" else ["1", "-1/2", 3]
        argv = ["form-invariants", "--case", data.draw(st.sampled_from(["orthogonal", "unitary"])),
                "--p", "3", "--ext-d", "-1", f"{flag}={_text(data.draw, base)}"]
    elif flag in ("--group", "--ext"):
        docs = {"--group": data.draw(st.sampled_from(_FUZZ_GROUPS)), "--ext": _FUZZ_EXT}
        argv = ["prasad-char", *(f"{name}={_text(data.draw, doc) if name == flag else json.dumps(doc)}"
                                 for name, doc in docs.items())]
        if data.draw(st.booleans()):
            argv.append("--opposition")
    elif flag == "--matrix":
        path = tmp_path_factory.mktemp("fuzz") / "matrix.json"
        path.write_text(_text(data.draw, data.draw(st.sampled_from(_FUZZ_MATRICES))))
        argv = ["spinor-norm", f"--matrix={path}", "--p", "3"]
    elif data.draw(st.booleans()) or flag in ("--data", "--target"):
        # distinguish reads its four arguments from files
        docs = {"--pair": _FUZZ_PAIR, "--comp": _FUZZ_COMP, "--data": _FUZZ_DATA, "--target": _FUZZ_TARGET}
        folder = tmp_path_factory.mktemp("fuzz")
        argv = ["distinguish"]
        for name, doc in docs.items():
            path = folder / f"{name[2:]}.json"
            path.write_text(_text(data.draw, doc) if name == flag else json.dumps(doc))
            argv.append(f"{name}={path}")
    elif flag == "--pair":
        argv = data.draw(st.sampled_from([
            ["orbit-count", "--component", "SX"],
            ["build-tw", "--comp", json.dumps(_FUZZ_COMP), "--w", '{"rho":[2,1],"c":[]}'],
        ])) + [f"--pair={_text(data.draw, _FUZZ_PAIR)}"]
    else:
        argv = data.draw(st.sampled_from([
            ["descend", "--w", '{"rho":[2,1],"c":[1,2]}'],
            ["build-tw", "--pair", json.dumps(_FUZZ_PAIR), "--w", '{"rho":[2,1],"c":[]}'],
        ])) + [f"--comp={_text(data.draw, _FUZZ_COMP)}"]
    _assert_one_json_line(argv)


def _assert_one_json_line(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(argv)
            code = 0
        except SystemExit as e:
            code = e.code
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    assert len(lines) == 1, (argv, lines)
    doc = json.loads(lines[0])
    assert set(doc) == ({"error"} if code else {"command", "version", "payload"}), (argv, doc)
    return code


@pytest.mark.parametrize("pair", [
    "[" * 5000 + "]" * 5000,  # too deep to decode: was a RecursionError traceback
    json.dumps(dict(_FUZZ_PAIR, j=[float("inf")])),  # was an OverflowError traceback
    json.dumps(_FUZZ_PAIR).replace('"1"', "1e999"),  # an overflowing float is infinite too
    json.dumps(dict(_FUZZ_PAIR, a=float("nan"))),
    json.dumps(dict(_FUZZ_PAIR, j=["1/0"])),  # was a ZeroDivisionError traceback
])
def test_cli_nonfinite_and_deep_json_is_malformed(pair):
    assert _assert_one_json_line(["orbit-count", f"--pair={pair}"]) == 2


@pytest.mark.parametrize("args", [
    ["form-invariants", "--p", "5", "--gram", '[["1/0", 0], [0, 3]]'],
    ["prasad-char", "--group", '{"family": "U", "m": 2, "k": 3}', "--ext", '{"d": "1/0", "p": 5}'],
    ["prasad-char", "--group", '{"family": "SO", "m": 3, "kernel": ["1/0"]}', "--ext", '{"d": -1, "p": 5}'],
    ["spinor-norm", "--matrix", '[["1/0", 0], [0, 1]]'],
], ids=["gram", "ext-d", "group-kernel", "spinor-matrix"])
def test_cli_zero_denominator_is_malformed(args, tmp_path):
    # each was a ZeroDivisionError traceback with no JSON line
    assert _assert_one_json_line(_matrix_to_file(args, tmp_path)) == 2
