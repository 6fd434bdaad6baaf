import contextlib
import io
import json
import subprocess
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from localsym.cli import main


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


def test_spinor_norm_file(tmp_path, capsys):
    f = tmp_path / "mat.json"
    f.write_text(json.dumps({"matrix": [["3", 0], [0, "1/3"]]}))
    code, env = run_cli(["spinor-norm", "--matrix", str(f), "--p", "3"], capsys)
    assert code == 0
    assert env["payload"]["rational"] == "3"
    assert env["payload"]["class"] == {"p": 3, "val": 1, "unit": 1}


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
    monkeypatch.setenv("LOCALSYM_SELFTEST_BOUND", "3")
    code, env = run_cli(["selftest"], capsys)
    assert code == 0
    assert env["payload"]["failed"] == 0
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
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "cli_fixtures.json").read_text()
    )
    assert golden["version"] == 1
    for case in golden["cases"]:
        code, env = run_cli(case["argv"], capsys)
        assert code == 0, case["name"]
        assert env["payload"] == case["payload"], case["name"]


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
