"""Command-line surface: every subcommand reads JSON-ish arguments, prints
one JSON envelope {"command", "version", "payload"} on stdout and is
deterministic for identical inputs.

Exit codes: 0 on success, 1 on domain errors (a `localfield.LocalsymError`,
with an error payload), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

from . import distinction, forms, invgraph, localfield, numfield, prasad, symspace, weyl

VERSION = 1


class CliError(ValueError):
    pass


def _emit(command, payload):
    print(json.dumps({"command": command, "version": VERSION, "payload": payload},
                     sort_keys=True, separators=(",", ":")))


def _finite(text):
    """A JSON number with a fraction or an exponent, or a constant (NaN,
    Infinity, -Infinity): refused unless finite as a float, then read as
    written, so that 0.1 is 1/10."""
    if not math.isfinite(float(text)):
        raise CliError(f"number out of range: {text}")
    return localfield.rational(text)


_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def _json_arg(s, what):
    """The one JSON decoder of the CLI: NaN, infinities (as words or as an
    overflowing float) and nesting too deep to decode are malformed input."""
    try:
        return _DECODER.decode(s)
    except (json.JSONDecodeError, RecursionError) as e:
        raise CliError(f"bad JSON for {what}: {e}")


def _json_file(path, what):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(f"cannot read {what}: {e}")
    return _json_arg(text, what)


# Bounds on what a command builds, so that it runs in bounded time: 8
# one-blocks have 32400 signed involutions, t_w of a pair is N x N, and a
# form, a gram or a spinor-norm matrix has at most MAX_MATRIX_SIZE rows.
MAX_BLOCKS = 8
MAX_MATRIX_SIZE = 64


def _bound(size, limit, what):
    if size > limit:
        raise CliError(f"{what} is {size}; at most {limit} is supported")


def _rows_bound(rows, what):
    """Refuse a JSON list of more than MAX_MATRIX_SIZE rows; any other value
    is left to the command to refuse."""
    if isinstance(rows, list):
        _bound(len(rows), MAX_MATRIX_SIZE, f"the row count of {what}")


def _gram_arg(s):
    """--gram as a square list of rows, its size and shape checked here once."""
    gram = localfield.require_list(_json_arg(s, "--gram"), "--gram")
    _rows_bound(gram, "--gram")
    if any(not isinstance(row, list) or len(row) != len(gram) for row in gram):
        raise CliError("--gram must be a square JSON list of rows")
    return gram


def cmd_hilbert(args):
    p = localfield.Prime(args.p)
    sym = localfield.hilbert_rational(args.a, args.b, p)
    _emit("hilbert", {"symbol": sym})


def cmd_form_invariants(args):
    case = forms.Case(args.case)
    p = localfield.Prime(args.p)
    ext = localfield.QuadExtension.of(args.ext_d, p) if args.ext_d is not None else None
    if args.gram:
        form, _ = forms.diagonalize(_gram_arg(args.gram), p, case, ext)
    else:
        entries = localfield.require_list(_json_arg(args.entries, "--entries"), "--entries")
        _bound(len(entries), MAX_MATRIX_SIZE, "the length of --entries")
        form = forms.DiagForm(case, p, entries, ext=ext)
    _emit("form-invariants", forms.invariants(form).to_json())


def cmd_orbit_count(args):
    if args.pair:
        pair = symspace.ClassicalPair.from_json(_json_arg(args.pair, "--pair"))
        component = symspace.Component(args.component) if args.component else symspace.Component.FULL
        count = symspace.orbit_count_X(pair, component)
    else:
        case = forms.Case(args.case)
        disc = None
        if args.disc is not None:
            if args.p is None:
                raise CliError("--disc needs --p")
            disc = localfield.reduce(args.disc, localfield.Prime(args.p))
        count = forms.orbit_count(case, args.n, disc)
    _emit("orbit-count", {"count": count})


def cmd_involutions(args):
    parts = localfield.require_list(_json_arg(args.parts, "--parts"), "--parts")
    _bound(len(parts), MAX_BLOCKS, "the block count of --parts")
    comp = weyl.Composition(tuple(parts), args.r)
    rows = weyl.involution_rows(comp, circ=args.circ)
    _emit("involutions", {"count": len(rows),
                          "involutions": [weyl.involution_json(rho, c) for rho, c, _ in rows]})


def cmd_build_tw(args):
    pair = symspace.ClassicalPair.from_json(_json_arg(args.pair, "--pair"))
    _bound(pair.N, MAX_MATRIX_SIZE, "the matrix size N of --pair")
    comp = weyl.Composition.from_json(_json_arg(args.comp, "--comp"))
    w = weyl.SignedInvolution.from_json(_json_arg(args.w, "--w"))
    _bound(max(comp.k, w.k), MAX_BLOCKS, "the block count of --comp or --w")
    t = weyl.build_tw(comp, w, pair)
    _emit("build-tw", {"matrix": t.to_json()})


def cmd_descend(args):
    comp = weyl.Composition.from_json(_json_arg(args.comp, "--comp"))
    w = weyl.SignedInvolution.from_json(_json_arg(args.w, "--w"))
    _bound(max(comp.k, w.k), MAX_BLOCKS, "the block count of --comp or --w")
    conv = invgraph.Convention(wall_double=args.wall_double)
    vertex = invgraph.Vertex(comp, w)
    path, terminal = invgraph.descend(vertex, conv)
    _emit(
        "descend",
        {
            "path": [step.to_json() for step in path],
            "terminal": terminal.to_json(),
            "terminal_is_final": invgraph.is_terminal(terminal, conv),
        },
    )


def cmd_cone(args):
    w = weyl.SignedInvolution.from_json(_json_arg(args.w, "--w"))
    _bound(w.k, MAX_BLOCKS, "the block count of --w")
    conv = invgraph.Convention(wall_double=args.wall_double)
    theta = invgraph.ThetaAction.from_involution(w)
    lam = localfield.require_list(_json_arg(args.lam, "--lambda"), "--lambda")
    inside = invgraph.cone_contains(theta, lam, args.c, conv)
    _emit("cone", {"contains": inside})


def cmd_distinguish(args):
    pair = symspace.ClassicalPair.from_json(_json_file(args.pair, "--pair"))
    _bound(pair.N, MAX_MATRIX_SIZE, "the matrix size N of --pair")
    comp = weyl.Composition.from_json(_json_file(args.comp, "--comp"))
    _bound(comp.k, MAX_BLOCKS, "the block count of --comp")
    data = distinction.CuspidalDatum.from_json(_json_file(args.data, "--data"))
    target = symspace.orbit_from_json(_json_file(args.target, "--target"))
    verdict = distinction.decide(pair, comp, data, target)
    _emit("distinguish", verdict.to_json())


def cmd_prasad_char(args):
    group = prasad.GroupDescriptor.from_json(_json_arg(args.group, "--group"))
    extd = _json_arg(args.ext, "--ext")
    localfield.require_ints((extd["p"],), "p")
    ext = localfield.QuadExtension.of(extd["d"], localfield.Prime(extd["p"]))
    formula = prasad.prasad_character(group, ext)
    payload = {"omega": formula.to_json(), "trivial_as_character": formula.is_trivial}
    if args.opposition:
        payload["opposition"] = prasad.opposition_group(group, extd["d"]).to_json()
    _emit("prasad-char", payload)


def cmd_spinor_norm(args):
    data = _json_file(args.matrix, "--matrix")
    g = data["matrix"] if isinstance(data, dict) else data
    gram = data.get("gram") if isinstance(data, dict) else None
    _rows_bound(g, "--matrix")
    _rows_bound(gram, "the gram of --matrix")
    det = prasad._wall_det(g, gram)
    try:
        rational = str(prasad.squarefree_part(det))
    except localfield.LocalFieldError:
        # a Wall determinant too large to factor: the class needs no factoring
        if args.p is None:
            raise
        rational = None
    payload = {"rational": rational}
    if args.p is not None:
        payload["class"] = localfield.reduce(det, args.p).to_json()
    _emit("spinor-norm", payload)


SELFTEST_BOUND = 6


def _selftest_checks():
    """The named checks of `localsym selftest`, each True or False; the
    Hilbert symbols are compared on 0 < |a|, |b| <= SELFTEST_BOUND."""
    vals = [s * v for s in (1, -1) for v in range(1, SELFTEST_BOUND + 1)]
    checks = {}
    for p in (2, 3, 5):
        prime = localfield.Prime(p)
        checks[f"hilbert-formula-vs-oracle@p={p}"] = all(
            localfield.hilbert_rational(a, b, prime) == localfield.hilbert_oracle(a, b, prime)
            for a in vals for b in vals
        )
    import random

    rng = random.Random(77)
    checks["hilbert-reciprocity"] = all(
        localfield.reciprocity_check(
            Fraction(rng.randint(1, 50), rng.randint(1, 50)) * rng.choice([1, -1]),
            Fraction(rng.randint(1, 50), rng.randint(1, 50)) * rng.choice([1, -1]),
        ).ok
        for _ in range(200)
    )

    gram = prasad.w_gram(2)
    checks["spinor-norm-so2"] = all(
        prasad.spinor_norm_rational([[Fraction(t), 0], [0, Fraction(1, t)]], gram) == prasad.squarefree_part(t)
        for t in (2, 3, 5, 7)
    )

    # -1 = c^(1-sigma) with c = sqrt(a), so its coset bit is [(a, b)_p = -1]
    def minus_one_bit(a, b, p):
        field = numfield.BiquadField(a, b)
        pair = symspace.ClassicalPair(forms.Case.UNITARY, 0, (), 1, localfield.Prime(p), field)
        return symspace.gamma_bit(pair, field.element(-1))

    checks["gamma-bit-vs-hensel-oracle"] = all(
        minus_one_bit(a, b, p) == (localfield.hilbert_oracle(a, b, p) == -1)
        for a, b, p in ((-1, 3, 3), (2, 5, 5), (-1, 2, 2), (3, 5, 2))
    )
    return checks


def cmd_selftest(args):
    checks = _selftest_checks()
    ok = sum(checks.values())
    bad = len(checks) - ok
    _emit("selftest", {"passed": ok, "failed": bad, "checks": checks, "bound": SELFTEST_BOUND})
    if bad:
        raise SystemExit(1)


@lru_cache(maxsize=None)
def _parsers():
    """The top-level parser and its subcommand parsers by name, built once
    per process; each parse still returns a fresh Namespace, so nothing
    carries over between calls."""
    p = argparse.ArgumentParser(prog="localsym", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("hilbert", help="quadratic Hilbert symbol at p")
    q.add_argument("-a", required=True)
    q.add_argument("-b", required=True)
    q.add_argument("-p", type=int, required=True)
    q.set_defaults(fn=cmd_hilbert)

    q = sub.add_parser("form-invariants", help="complete invariants of a diagonal or Gram form")
    q.add_argument("--case", default="orthogonal")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--entries", help="JSON list of rationals")
    q.add_argument("--gram", help="JSON matrix")
    q.add_argument("--ext-d", dest="ext_d", type=int)
    q.set_defaults(fn=cmd_form_invariants)

    q = sub.add_parser("orbit-count", help="orbit counts for forms or the symmetric space")
    q.add_argument("--case")
    q.add_argument("--n", type=int)
    q.add_argument("--disc")
    q.add_argument("--p", type=int)
    q.add_argument("--pair", help="pair JSON: count symmetric-space orbits instead")
    q.add_argument("--component", choices=[c.value for c in symspace.Component])
    q.set_defaults(fn=cmd_orbit_count)

    q = sub.add_parser("involutions", help="compatible signed involutions")
    q.add_argument("--parts", required=True, help="JSON list of block sizes")
    q.add_argument("--r", type=int, default=0)
    q.add_argument("--circ", action="store_true")
    q.set_defaults(fn=cmd_involutions)

    q = sub.add_parser("build-tw", help="the block-matrix representative t_w")
    q.add_argument("--pair", required=True)
    q.add_argument("--comp", required=True)
    q.add_argument("--w", required=True)
    q.set_defaults(fn=cmd_build_tw)

    q = sub.add_parser("descend", help="descent through the involution graph")
    q.add_argument("--comp", required=True)
    q.add_argument("--w", required=True)
    q.add_argument("--wall-double", action="store_true")
    q.set_defaults(fn=cmd_descend)

    q = sub.add_parser("cone", help="membership in the convergence cone")
    q.add_argument("--w", required=True)
    q.add_argument("--lambda", dest="lam", required=True, help="JSON list of rationals")
    q.add_argument("--c", default="0")
    q.add_argument("--wall-double", action="store_true")
    q.set_defaults(fn=cmd_cone)

    q = sub.add_parser("distinguish", help="decide distinction for a cuspidal datum")
    q.add_argument("--pair", required=True, help="pair JSON file")
    q.add_argument("--comp", required=True, help="composition JSON file")
    q.add_argument("--data", required=True, help="cuspidal datum JSON file")
    q.add_argument("--target", required=True, help="target orbit JSON file")
    q.set_defaults(fn=cmd_distinguish)

    q = sub.add_parser("prasad-char", help="the quadratic-character table row")
    q.add_argument("--group", required=True)
    q.add_argument("--ext", required=True)
    q.add_argument("--opposition", action="store_true")
    q.set_defaults(fn=cmd_prasad_char)

    q = sub.add_parser("spinor-norm", help="spinor norm of a rational isometry")
    q.add_argument("--matrix", required=True, help="JSON file with the matrix (and optional gram)")
    q.add_argument("--p", type=int)
    q.set_defaults(fn=cmd_spinor_norm)

    q = sub.add_parser("selftest", help="run the bundled oracle suites")
    q.set_defaults(fn=cmd_selftest)
    return p, sub.choices


def _parse(argv):
    """One parse per command: argv whose first word names a subcommand is
    parsed by that subcommand's parser alone, where the full parser would
    parse it twice, and leftover words are refused by the top-level parser
    as it refuses them.  Anything else takes the full parser."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None):
    try:
        args = _parse(argv)
    except SystemExit as e:
        raise SystemExit(2 if e.code not in (0, None) else 0)
    try:
        args.fn(args)
    except CliError as e:
        print(json.dumps({"error": str(e)}, sort_keys=True))
        raise SystemExit(2)
    except localfield.LocalsymError as e:
        # before the ValueError clause: every domain error is a ValueError
        print(json.dumps({"error": str(e)}, sort_keys=True))
        raise SystemExit(1)
    except (KeyError, TypeError, ValueError) as e:
        print(json.dumps({"error": f"malformed input: {e}"}, sort_keys=True))
        raise SystemExit(2)
    return 0


if __name__ == "__main__":
    main()
