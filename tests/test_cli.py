import contextlib
import importlib
import io
import itertools
import json
import pathlib
import pkgutil
import subprocess
import sys
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import localsym
from localsym import cli, prasad
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
    assert "--gram" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("entries", ['{"1": 2}', '"12"'], ids=["object", "string"])
def test_form_invariants_bad_entries_is_malformed(entries, capsys):
    with pytest.raises(SystemExit) as e:
        main(["form-invariants", "--case", "orthogonal", "--p", "3", "--entries", entries])
    assert e.value.code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    assert json.loads(lines[0])["error"] == "malformed input: --entries must be a list"


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


def test_involutions_print_the_former_object_path(capsys):
    """`involutions` prints its rows' JSON byte for byte as the former
    path did, which built every involution and printed its to_json: every
    parts in {1, 2}^k for k <= 6 with r in {0, 1}, and 8 one-blocks (r
    plays no part in the rows), with and without --circ."""
    from localsym.weyl import Composition, enumerate_involutions

    cases = [(parts, r) for k in range(7) for parts in itertools.product((1, 2), repeat=k)
             for r in (0, 1)]
    for parts, r in cases + [((1,) * 8, 0)]:
        for circ in (False, True):
            ws = enumerate_involutions(Composition(parts, r), circ)
            payload = {"count": len(ws), "involutions": [w.to_json() for w in ws]}
            want = json.dumps({"command": "involutions", "version": 1, "payload": payload},
                              sort_keys=True, separators=(",", ":"))
            main(["involutions", "--parts", json.dumps(list(parts)), "--r", str(r)]
                 + ["--circ"] * circ)
            assert capsys.readouterr().out == want + "\n", (parts, r, circ)


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


def test_descend_from_the_empty_composition(capsys):
    # rank 0 has no roots: an empty path, as cone and involutions --parts [] answer k = 0
    for flag in ([], ["--wall-double"]):
        code, env = run_cli(
            ["descend", "--comp", '{"parts":[],"r":0}', "--w", '{"rho":[],"c":[]}', *flag], capsys
        )
        assert code == 0
        assert env["payload"] == {
            "path": [],
            "terminal": {"comp": {"parts": [], "r": 0}, "w": {"c": [], "rho": []}},
            "terminal_is_final": True,
        }
    code, env = run_cli(["cone", "--w", '{"rho":[],"c":[]}', "--lambda", "[]"], capsys)
    assert code == 0 and env["payload"]["contains"] is True
    code, env = run_cli(["involutions", "--parts", "[]"], capsys)
    assert code == 0 and env["payload"]["count"] == 1


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


@pytest.mark.parametrize("fields", [
    '"p":true,"a":-1,"b":3',  # was "True is not a prime", exit 1
    '"p":3,"a":-1,"b":true',  # was "b=True must be squarefree ...", exit 1
    '"p":3.0,"a":-1,"b":3',  # was "Fraction(3, 1) is not a prime", exit 1
    '"p":3,"a":true,"b":3',
    '"p":3,"a":-1.0,"b":3',
    '"p":3,"a":-1,"b":3.0',
], ids=["p-bool", "b-bool", "p-float", "a-bool", "a-float", "b-float"])
def test_pair_primes_and_field_must_be_integers(fields, capsys):
    pair = '{"case":"unitary","n0":1,"j":["1"],"n":1,' + fields + "}"
    code, env = run_cli(["orbit-count", "--pair", pair], capsys)
    assert code == 2
    assert env == {"error": "malformed input: p, a and b must be integers"}


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


def test_spinor_norm_runs_one_wall_determinant(tmp_path, capsys, monkeypatch):
    """With --p the rational norm and the class are both read from one Wall
    determinant."""
    calls = []
    wall_det = prasad._wall_det
    monkeypatch.setattr(prasad, "_wall_det", lambda *a: calls.append(a) or wall_det(*a))
    f = tmp_path / "mat.json"
    f.write_text(json.dumps({"matrix": [["3", 0], [0, "1/3"]]}))
    code, env = run_cli(["spinor-norm", "--matrix", str(f), "--p", "3"], capsys)
    assert code == 0 and env["payload"] == {"rational": "3", "class": {"p": 3, "val": 1, "unit": 1}}
    assert len(calls) == 1


def test_spinor_norm_p_zero_is_refused(tmp_path):
    """--p 0 is refused as not a prime, as --p 4 and hilbert -p 0 are,
    rather than dropped."""
    f = tmp_path / "mat.json"
    f.write_text(json.dumps({"matrix": [["3", 0], [0, "1/3"]]}))
    assert _assert_one_json_line(["spinor-norm", "--matrix", str(f), "--p", "0"]) == 1


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


def test_every_domain_error_derives_from_localsym_error():
    """main answers a LocalsymError with exit 1; an error class outside it
    would fall through to exit 2, malformed input, which CliError alone means."""
    found = {}
    for info in pkgutil.iter_modules(localsym.__path__):
        module = importlib.import_module(f"localsym.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = issubclass(obj, localsym.LocalsymError)
    assert found.pop("cli.CliError") is False
    assert {"localfield.LocalFieldError", "prasad.PrasadError", "distinction.DistinctionError"} <= set(found)
    assert all(found.values()), found


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


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _dense_gram(n):
    """A dense symmetric integer n x n gram, nonsingular by its dominant diagonal."""
    return [[(i * j + i + j) % 7 - 3 + 200 * (i == j) for j in range(n)] for i in range(n)]


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
        ["form-invariants", "--p", "2", "--entries", json.dumps([2] * 65)],
        ["form-invariants", "--p", "3", "--gram", json.dumps(_dense_gram(65))],
        ["spinor-norm", "--p", "3", "--matrix", json.dumps(_identity(65))],
        ["spinor-norm", "--p", "3", "--matrix", json.dumps({"matrix": _identity(65), "gram": _identity(65)})],
        ["spinor-norm", "--p", "3", "--matrix", json.dumps({"matrix": _identity(2), "gram": _identity(65)})],
    ],
    ids=["involutions-9-blocks", "descend-9-blocks", "cone-9-blocks", "build-tw-N66",
         "distinguish-N66", "distinguish-9-blocks", "form-invariants-65-entries",
         "form-invariants-gram-65", "spinor-norm-65", "spinor-norm-65-with-gram", "spinor-norm-gram-65"],
)
def test_sizes_beyond_the_cli_bounds_are_refused_at_once(args, tmp_path):
    # 9 one-blocks took 8 s and printed 7 MB for involutions; build-tw at N = 1000 took 50 s;
    # form-invariants on 4000 entries took 6.0 s, on a dense 200 x 200 gram 5.3 s, and
    # spinor-norm on the 480 x 480 identity 23.6 s
    args = _matrix_to_file([json.dumps(a) if isinstance(a, dict) else a for a in args], tmp_path)
    if args[0] == "distinguish":
        for i in range(2, len(args), 2):
            path = tmp_path / f"{args[i - 1][2:]}.json"
            path.write_text(args[i])
            args[i] = str(path)
    start = time.perf_counter()
    assert _assert_one_json_line(args) == 2
    assert time.perf_counter() - start < 1.0


def test_matrix_size_64_is_within_the_cli_bound(capsys, tmp_path):
    pair = dict(_PAIR_66, n=32)
    code, env = run_cli(["build-tw", "--pair", json.dumps(pair), "--comp", '{"parts":[32],"r":0}',
                         "--w", '{"rho":[1]}'], capsys)
    assert code == 0 and len(env["payload"]["matrix"]) == 64
    code, env = run_cli(["form-invariants", "--p", "2", "--entries", json.dumps([2] * 64)], capsys)
    assert code == 0 and env["payload"]["rank"] == 64
    code, env = run_cli(["form-invariants", "--p", "3", "--gram", json.dumps(_dense_gram(64))], capsys)
    assert code == 0 and env["payload"]["rank"] == 64
    for data in (_identity(64), {"matrix": _identity(64), "gram": _identity(64)}):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(data))
        code, env = run_cli(["spinor-norm", "--p", "3", "--matrix", str(path)], capsys)
        assert code == 0 and env["payload"] == {"rational": "1", "class": {"p": 3, "val": 0, "unit": 1}}


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
        full = _outcome(argv, lambda a: cli._parsers()[0].parse_args(a), monkeypatch)
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
    "args, listed",
    [
        (["cone", "--w", '{"rho":[1,2],"c":[1,2]}', "--lambda", '"53"'], "--lambda"),
        (["cone", "--w", '{"rho":[1,2],"c":[1,2]}', "--lambda", '{"5":0,"3":0}'], "--lambda"),
        (["involutions", "--parts", '"12"'], "--parts"),
        (["involutions", "--parts", '{"1":0,"2":0}'], "--parts"),
        (["involutions", "--parts", "[1.5]"], None),
        (["involutions", "--parts", "[true]"], None),
        (["build-tw", "--pair", _TW_PAIR, "--comp", '{"parts":[1.5],"r":0}', "--w", _W1], None),
        (["build-tw", "--pair", _TW_PAIR, "--comp", '{"parts":[true],"r":1}', "--w", _W1], None),
        (["build-tw", "--pair", _TW_PAIR, "--comp", '{"parts":[1],"r":1.0}', "--w", _W1], None),
        (["build-tw", "--pair", _TW_PAIR, "--comp", '{"parts":"2","r":0}', "--w", _W1], "parts"),
        (["descend", "--comp", '{"parts":[1,1],"r":true}', "--w", '{"rho":[1,2],"c":[1]}'], None),
        (["descend", "--comp", '{"parts":[2],"r":0,"sign":true}', "--w", '{"rho":[1],"c":[1]}'], None),
    ],
    ids=[
        "lambda-string", "lambda-object", "parts-string", "parts-object", "parts-float",
        "parts-bool", "comp-float-part", "comp-bool-part", "comp-float-r", "comp-string-parts",
        "descend-bool-r", "descend-bool-sign",
    ],
)
def test_list_and_integer_arguments_are_malformed(args, listed, capsys):
    # listed: the argument or field refused for not being a list, named in the error
    with pytest.raises(SystemExit) as e:
        main(args)
    assert e.value.code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    if listed:
        assert json.loads(lines[0])["error"] == f"malformed input: {listed} must be a list"


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


# the realizable target of the identity component of _FUZZ_PAIR
_SX_TARGET = {"case": "orthogonal", "component": "SX", "partial": {"p": 3, "val": 0, "unit": 2}, "hasse": 1}


def _distinguish_argv(folder, pair, comp, data, target):
    argv = ["distinguish"]
    for name, doc in (("pair", pair), ("comp", comp), ("data", data), ("target", target)):
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{name}", str(path)]
    return argv


@pytest.mark.parametrize("orbit", [
    dict(_SX_TARGET, case="bogus"),  # was read as orthogonal: exit 0 and a verdict
    dict(_SX_TARGET, component="sx"),  # was read as X-SX; this and the rest came back
    dict(_SX_TARGET, hasse=7),  # as "not realizable", exit 1
    dict(_SX_TARGET, hasse=True),
    {"case": "unitary", "gamma_bit": 5},
    {"case": "unitary", "gamma_bit": True},
    dict(_SX_TARGET, partial={"p": 3, "val": False, "unit": 2}),  # was read as val 0
], ids=["bogus-case", "component", "hasse-7", "hasse-bool", "gamma-bit-5", "gamma-bit-bool", "partial-bool"])
@pytest.mark.parametrize("where", ["target", "pi0_dist"])
def test_unknown_orbit_json_is_malformed(orbit, where, tmp_path):
    """An orbit that none of the three orbit classes writes is malformed
    input, as the target and as an entry of pi0_dist."""
    data = {"labels": ["1"], "linear_dist": [1], "pi0_dist": [_SX_TARGET]}
    if where == "pi0_dist":
        data["pi0_dist"].append(orbit)
    target = orbit if where == "target" else _SX_TARGET
    argv = _distinguish_argv(tmp_path, _FUZZ_PAIR, {"parts": [1], "r": 0}, data, target)
    assert _assert_one_json_line(argv) == 2


_UNITARY_PAIR = {"case": "unitary", "n0": 0, "j": [], "n": 2, "p": 3, "a": -1, "b": 3}
_UNITARY_DATUM = {"labels": ["1", "2"], "conj_dual": [[1, 2]], "sigma_tau": [[1, 2]], "linear_dist": [1, 2],
                  "unitary_dist": [[1, 0], [1, 1], [2, 0], [2, 1]]}


@pytest.mark.parametrize("args", [
    ["orbit-count", "--pair", json.dumps(dict(_UNITARY_PAIR, n=True))],  # was read as n = 1, exit 0
    ["orbit-count", "--pair", json.dumps(dict(_UNITARY_PAIR, n0=True))],
    ["orbit-count", "--pair", json.dumps(dict(_UNITARY_PAIR, n=2.0))],
    ["build-tw", "--pair", json.dumps(dict(_UNITARY_PAIR, n=True)),  # built a 2 x 2 t_w
     "--comp", '{"parts":[1],"r":0}', "--w", '{"rho":[1],"c":[1]}'],
    ["cone", "--w", '{"rho":[true],"c":[]}', "--lambda", '["1"]'],  # was read as rho = [1]
    ["cone", "--w", '{"rho":[1],"c":[true]}', "--lambda", '["1"]'],
    ["distinguish", {"linear_dist": [True, 2]}],  # was read as flags on labels 1 and 2
    ["distinguish", {"conj_dual": [[True, 2]]}],
    ["distinguish", {"sigma_tau": [[1, 2.0]]}],
    ["distinguish", {"unitary_dist": [[1, True], [2, 0]]}],  # a bool bit passed its (0, 1) check
    ["distinguish", {"unitary_dist": [[True, 0]]}],
], ids=["pair-n", "pair-n0", "pair-n-decimal", "build-tw-n", "w-rho", "w-c", "linear-dist",
        "conj-dual", "sigma-tau-decimal", "hermitian-bit", "hermitian-label"])
def test_json_bools_are_not_integers(args, tmp_path):
    """A JSON true or false, or a decimal, where an index, a size or a bit
    is read is malformed input: exit 2 and one JSON error line.  A
    distinguish case names its edit of a unitary datum."""
    if args[0] == "distinguish":
        args = _distinguish_argv(tmp_path, _UNITARY_PAIR, {"parts": [1, 1], "r": 0},
                                 dict(_UNITARY_DATUM, **args[1]), {"case": "unitary", "gamma_bit": 0})
    assert _assert_one_json_line(args) == 2


_SO3_PAIR = {"case": "orthogonal", "n0": 1, "j": ["1"], "n": 1, "p": 3, "a": -1, "b": None}
_EXT = '{"d":5,"p":3}'


@pytest.mark.parametrize("args, code", [
    # a JSON string, object or number where a list is read was read one character or key
    # at a time, and a bool or decimal --ext prime was a domain error: each answered 0 or 1
    (["orbit-count", "--pair", json.dumps(dict(_SO3_PAIR, n0=2, j="13", p=5, a=2))], 2),  # j = [1, 3]
    (["distinguish", {"labels": "ab"}], 2),  # two labels, distinguished
    (["distinguish", {"linear_dist": {}}], 2),  # no flag
    (["distinguish", {"pi0_dist": ""}], 2),
    (["distinguish", {"conj_dual": [[1, 2, 2]]}], 1),  # {1, 2}, though [1, 2, 3] is refused
    (["prasad-char", "--group", '{"family":"SO","m":4,"kernel":"13"}', "--ext", _EXT], 2),
    (["cone", "--w", '{"rho":[1],"c":""}', "--lambda", '["1"]'], 2),  # no sign
    (["descend", "--comp", '{"parts":"","r":0}', "--w", '{"rho":[],"c":[]}'], 2),  # no block
    (["spinor-norm", {"matrix": ["10", "01"]}], 2),  # each answered "rational": "1"
    (["spinor-norm", {"matrix": [[1, 0], [0, 1]], "gram": ["01", "10"]}], 2),
    (["prasad-char", "--group", '{"family":"GL","m":2}', "--ext", '{"d":5,"p":true}'], 2),
    (["prasad-char", "--group", '{"family":"GL","m":2}', "--ext", '{"d":5,"p":3.0}'], 2),
    # refusals that no other test reaches
    (["orbit-count", "--case", "orthogonal", "--n", "3", "--disc", "2"], 2),  # --disc needs --p
    (["distinguish", "--pair", "/nonexistent/pair.json", "--comp", "-", "--data", "-", "--target", "-"], 2),
    (["orbit-count", "--case", "orthogonal", "--n", "3"], 1),  # no discriminant class
    (["orbit-count", "--case", "symplectic", "--n", "0"], 1),
    (["form-invariants", "--p", "3", "--entries", "[0, 1]"], 1),
    (["orbit-count", "--pair", json.dumps(dict(_SO3_PAIR, n0=5, j=["1"] * 5))], 1),
    (["orbit-count", "--pair", json.dumps(dict(_SO3_PAIR, b=3))], 1),  # a biquadratic model
    (["prasad-char", "--group", '{"family":"Sp","m":3}', "--ext", _EXT], 1),
    (["prasad-char", "--group", '{"family":"GL","m":0}', "--ext", _EXT], 1),
    (["prasad-char", "--group", '{"family":"U","m":2,"k":4}', "--ext", _EXT], 1),
    (["prasad-char", "--group", '{"family":"GL","m":2,"kernel":["1"]}', "--ext", _EXT], 1),
    (["involutions", "--parts", "[1, 0]"], 1),
    (["involutions", "--parts", "[1, 1]", "--r", "-1"], 1),
    (["descend", "--comp", '{"parts":[1,1],"r":0,"sign":2}', "--w", '{"rho":[1,2],"c":[]}'], 1),
    (["distinguish", {"conj_dual": [[1, 5]]}], 1),
    (["distinguish", {"linear_dist": [5]}], 1),
    (["distinguish", {"unitary_dist": [[1, 2]]}], 1),
    (["distinguish", {"sigma_tau": [[1, 2, 3]]}], 1),
    (["distinguish", {}, dict(_SX_TARGET, partial={"p": 3, "val": 2, "unit": 1})], 1),
], ids=["pair-j", "labels", "linear-dist-object", "pi0-dist-string", "relation-repeated-index",
        "so-kernel", "w-c", "comp-parts", "spinor-matrix-rows", "spinor-gram-rows", "ext-p-bool", "ext-p-decimal",
        "disc-without-p", "unreadable-pair", "no-disc", "rank-0", "zero-entry", "pair-n0-5",
        "orthogonal-biquadratic", "sp-odd", "gl-size-0", "u-k-4", "gl-kernel", "part-0", "r-negative",
        "sign-2", "relation-index", "flag-index", "hermitian-bit", "relation-of-three", "partial-val-2"])
def test_cli_refusals(args, code, tmp_path):
    """Each refusal is one JSON error line, exit 2 for malformed input and
    1 for a domain error.  A distinguish case names its edit of the
    unitary datum and, with a third item, its orthogonal target on split
    SO(3); a spinor-norm case names the contents of its --matrix file."""
    if args[0] == "distinguish" and isinstance(args[1], dict):
        pair, target = _UNITARY_PAIR, {"case": "unitary", "gamma_bit": 0}
        if len(args) == 3:
            pair, target = _SO3_PAIR, args[2]
        args = _distinguish_argv(tmp_path, pair, {"parts": [1, 1], "r": 0}, dict(_UNITARY_DATUM, **args[1]), target)
    elif args[0] == "spinor-norm":
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(args[1]))
        args = ["spinor-norm", "--matrix", str(path)]
    assert _assert_one_json_line(args) == code
