"""The integer-numerator Bq kernel against the textbook formulas evaluated
on plain Fraction 4-tuples (c0, c1, c2, c3) = c0 + c1 ra + c2 rb + c3 rab."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsym.numfield import BiquadField, Bq, Mat, NumFieldError, conj_transpose
from localsym.weyl import gl_star

F = BiquadField(-1, 3)
Q = BiquadField(2)  # quadratic model, tau = id

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def elements(draw, field):
    c = [draw(rationals) for _ in range(4)]
    if field.is_quadratic:
        c[2] = c[3] = Fraction(0)
    return tuple(c)


def ref_mul(field, x, y):
    a, b = field.a, field.b or 0
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 + a * b * x3 * y3,
        x0 * y1 + x1 * y0 + b * (x2 * y3 + x3 * y2),
        x0 * y2 + x2 * y0 + a * (x1 * y3 + x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
    )


def ref_sigma(field, x):
    return (x[0], -x[1], x[2], -x[3])


def ref_tau(field, x):
    return x if field.is_quadratic else (x[0], x[1], -x[2], -x[3])


def ref_sigma_tau(field, x):
    return ref_tau(field, ref_sigma(field, x))


def ref_cofactor(field, x):
    """sigma(x) tau(x) sigma_tau(x), so that x * cofactor is rational."""
    return ref_mul(field, ref_mul(field, ref_sigma(field, x), ref_tau(field, x)), ref_sigma_tau(field, x))


def ref_norm_to_Q(field, x):
    return ref_mul(field, x, ref_cofactor(field, x))[0]


def ref_inverse(field, x):
    cof = ref_cofactor(field, x)
    n = ref_mul(field, x, cof)[0]
    return tuple(c / n for c in cof)


kernel_settings = settings(max_examples=150, derandomize=True, deadline=None)


@pytest.mark.parametrize("field", [F, Q], ids=["biquadratic", "quadratic"])
@kernel_settings
@given(data=st.data())
def test_bq_matches_fraction_reference(field, data):
    x = data.draw(elements(field))
    y = data.draw(elements(field))
    bx, by = Bq(field, x), Bq(field, y)
    assert bx.coeffs == x
    assert all(type(c) is Fraction for c in bx.coeffs)
    assert (bx + by).coeffs == tuple(u + v for u, v in zip(x, y))
    assert (bx - by).coeffs == tuple(u - v for u, v in zip(x, y))
    assert (-bx).coeffs == tuple(-u for u in x)
    assert (bx * by).coeffs == ref_mul(field, x, y)
    assert bx.sigma().coeffs == ref_sigma(field, x)
    assert bx.tau().coeffs == ref_tau(field, x)
    assert bx.sigma_tau().coeffs == ref_sigma_tau(field, x)
    assert bx.norm_to_Q() == ref_norm_to_Q(field, x)
    assert bx.is_zero == (not any(x))
    assert bx.is_rational == (not any(x[1:]))
    if bx.is_rational:
        assert bx.rational == x[0]
    if any(x):
        assert bx.inverse().coeffs == ref_inverse(field, x)
        assert (by / bx).coeffs == ref_mul(field, y, ref_inverse(field, x))
    else:
        with pytest.raises(ZeroDivisionError):
            bx.inverse()
    # scalars lift on either side
    s = data.draw(rationals)
    assert (bx * s).coeffs == (s * bx).coeffs == tuple(s * u for u in x)
    assert (bx + s).coeffs == (s + bx).coeffs == (x[0] + s,) + x[1:]
    assert (s - bx).coeffs == (s - x[0],) + tuple(-u for u in x[1:])


@pytest.mark.parametrize("field", [F, Q], ids=["biquadratic", "quadratic"])
@kernel_settings
@given(data=st.data())
def test_bq_json_round_trip_and_structural_hash(field, data):
    x = data.draw(elements(field))
    y = data.draw(elements(field))
    bx, by = Bq(field, x), Bq(field, y)
    assert bx.to_json() == [str(c) for c in x]
    assert field.element(*bx.to_json()) == bx
    # the same value reached by other routes is the same object structurally
    for other in (bx + by - by, (bx * 6) / 6, Bq(field, tuple(str(c) for c in x))):
        assert other == bx
        assert hash(other) == hash(bx)
    if not by.is_zero:
        other = bx * by * by.inverse()
        assert other == bx and hash(other) == hash(bx)


def test_equal_values_built_differently_hash_equal():
    for field in (F, Q):
        half = field.element(Fraction(2, 4))
        for other in (field.one / 2, field.element("1/2"), Bq(field, (Fraction(1, 2), 0, 0, 0)), field.one * Fraction(3, 6)):
            assert other == half
            assert hash(other) == hash(half)
        assert field.element(0, Fraction(-4, 8)) == field.sqrt_a / -2
        assert field.element(3) != field.element(0, 3)
        assert {field.element(Fraction(6, 3)): 1}[field.one + 1] == 1


def test_bq_public_constructor_checks():
    with pytest.raises(NumFieldError):
        Bq(F, (1, 2, 3))
    with pytest.raises(NumFieldError):
        Bq(Q, (0, 0, 1, 0))
    with pytest.raises(NumFieldError):
        Q.element(0, 0, 0, "1/3")
    with pytest.raises(NumFieldError):
        F.one + Q.one
    assert repr(F.element("-3/4", 0, 2)) == "Bq(-3/4 + 2*rb)"
    assert F.element(1) != 1  # elements only equal elements


# ---------------------------------------------------------------------------
# the zero-skipping Mat kernel against dense references

# each example draws up to a few dozen entries, so fewer examples than above
matrix_settings = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def sparse_mats(draw, field, n, m):
    """An n x m matrix with about two entries in three zero, and mostly one
    row and one column all zero (index n or m picks none)."""
    zero_row = draw(st.integers(0, n))
    zero_col = draw(st.integers(0, m))
    rows = []
    for i in range(n):
        row = []
        for j in range(m):
            dense = i != zero_row and j != zero_col and draw(st.integers(0, 2)) == 0
            row.append(Bq(field, draw(elements(field))) if dense else field.zero)
        rows.append(row)
    return Mat(field, rows)


def dense_mul(a, b):
    zero = a.field.zero
    return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(a.m)), zero) for j in range(b.m)]
            for i in range(a.n)]


def leibniz_det(a):
    """Sum over permutations of the signed products, zero factors included."""
    field = a.field
    out = field.zero
    for perm in itertools.permutations(range(a.n)):
        inversions = sum(perm[i] > perm[j] for i in range(a.n) for j in range(i + 1, a.n))
        term = field.one if inversions % 2 == 0 else -field.one
        for i, j in enumerate(perm):
            term = term * a.rows[i][j]
        out = out + term
    return out


def dense_map(a, name):
    return [[getattr(e, name)() for e in r] for r in a.rows]


def zeros_are_the_fields_zero(a):
    return all(e is a.field.zero for r in a.rows for e in r if e.is_zero)


@pytest.mark.parametrize("field", [F, Q], ids=["biquadratic", "quadratic"])
@matrix_settings
@given(data=st.data())
def test_sparse_mat_kernel_matches_dense_reference(field, data):
    # Mat has no k x 0 or 0 x k shapes with k > 0 (its width is read off a row)
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(sparse_mats(field, n, k))
    b = data.draw(sparse_mats(field, k, m))
    assert [list(r) for r in (a * b).rows] == dense_mul(a, b)
    assert len((a * b).rows) == n and all(len(r) == m for r in (a * b).rows)
    for name in ("sigma", "tau", "sigma_tau"):
        image = getattr(a, name)()
        assert [list(r) for r in image.rows] == dense_map(a, name)
        assert zeros_are_the_fields_zero(image)
        ct = conj_transpose(a, name)
        assert [list(r) for r in ct.rows] == dense_map(a.T, name)
        assert zeros_are_the_fields_zero(ct)
    s = data.draw(sparse_mats(field, n, n))
    assert s.det() == leibniz_det(s)
    # a dense square factor exercises the cancellations of elimination
    d = Mat(field, [[Bq(field, data.draw(elements(field))) for _ in range(n)] for _ in range(n)])
    assert d.det() == leibniz_det(d)
    assert (s * d).det() == s.det() * d.det()


@st.composite
def monomial_mats(draw, field):
    n = draw(st.integers(1, 5))
    perm = draw(st.permutations(range(n)))
    rows = [[field.zero] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = Bq(field, draw(elements(field).filter(any)))
    return Mat(field, rows)


def general_gl_star(g):
    w = Mat.antidiag_ones(g.field, g.n)
    return w * conj_transpose(g, "tau").inv() * w


@pytest.mark.parametrize("field", [F, Q], ids=["biquadratic", "quadratic"])
@matrix_settings
@given(data=st.data())
def test_monomial_gl_star_is_closed_form(field, data):
    g = data.draw(monomial_mats(field))
    want = general_gl_star(g)
    with mock.patch.object(Mat, "inv", side_effect=AssertionError("monomial g* needs no inverse")):
        got = gl_star(g)
    assert got == want
    assert zeros_are_the_fields_zero(got)
    # a non-monomial g: row i of h is the sum of rows i and j of g
    n = g.n
    if n > 1:
        i = data.draw(st.integers(0, n - 1))
        j = (i + data.draw(st.integers(1, n - 1))) % n
        shear = Mat(field, [[field.one if r == c or (r, c) == (i, j) else field.zero for c in range(n)]
                            for r in range(n)])
        h = shear * g
        with mock.patch.object(Mat, "inv", autospec=True, side_effect=Mat.inv) as inv:
            got = gl_star(h)
        assert inv.call_count == 1
        w = Mat.antidiag_ones(field, n)
        assert (got * w * conj_transpose(h, "tau") * w).is_identity
