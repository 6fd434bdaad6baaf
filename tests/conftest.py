"""Bundled field models and pairs shared across the suite, the Fraction
reference for rational matrices, the reference Hilbert-90 split and the
reference twisted form."""

from fractions import Fraction
from itertools import permutations

import pytest

from localsym.forms import Case
from localsym.localfield import Prime
from localsym.numfield import BiquadField, Mat, NumFieldError, conj_transpose, recover_hilbert90_matrix, splits
from localsym.symspace import ClassicalPair, jn_mat

P2, P3, P5 = Prime(2), Prime(3), Prime(5)

# quadratic models: sqrt(a) generates the upstairs extension locally
QUAD_M3 = BiquadField(-1)      # Q(i), nonsquare at 3
QUAD_3 = BiquadField(3)        # Q(sqrt 3), ramified at 3
QUAD_M5 = BiquadField(2)       # Q(sqrt 2), nonsquare at 5

# biquadratic models (a, b, ab all nonsquare at p)
BIQ_3 = BiquadField(-1, 3)
BIQ_5 = BiquadField(2, 5)
BIQ_2 = BiquadField(-1, 2)


def mat_mul(a, b):
    """The product of two rational matrices, entry by entry in Fractions."""
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(r, c)), Fraction(0)) for c in zip(*b)] for r in a]


def leibniz_det(a):
    """The determinant by the Leibniz formula, in Fractions."""
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= Fraction(a[i][perm[i]])
        total += term
    return total


def hilbert90_reference(x):
    """The first z_t = (1 + t sqrt(a)) I + (1 - t sqrt(a)) x, trying every
    t = 0, 1, ..., n, with det z_t != 0 and z_t = x sigma(z_t); the same
    NumFieldError as `recover_hilbert90_matrix` when there is none."""
    field = x.field
    ident = Mat(field, [[field.one if i == j else field.zero for j in range(x.n)] for i in range(x.n)])
    for t in range(x.n + 1):
        z = ident * field.element(1, t) + x * field.element(1, -t)
        if not z.det().is_zero and x * z.sigma() == z:
            return z
    raise NumFieldError("no z_t with t <= n splits x")


def check_split(x):
    """Assert that `recover_hilbert90_matrix(x)` is the reference split and
    passes the full `splits` test against an unmarked copy of x, and that
    z_0 = I + x is singular when x is rational and not I; return whether x
    is rational, the x split in closed form."""
    z = recover_hilbert90_matrix(x)
    assert z == hilbert90_reference(x)
    assert splits(z, Mat(x.field, x.rows))
    if x.is_rational and not x.is_identity:
        assert (Mat.identity(x.field, x.n) + x).det().is_zero
    return x.is_rational


def twisted_form_reference(z, pair):
    """y = t(z)^tau J z as the product of Bq matrices, J = `jn_mat(pair)`."""
    return conj_transpose(z, "tau") * jn_mat(pair) * z


def make_pair(case, n0, j, n, p=P3, field=None):
    if field is None:
        field = BIQ_3 if case is Case.UNITARY else QUAD_M3
    return ClassicalPair(case, n0, tuple(j), n, p, field)


@pytest.fixture(scope="session")
def bundled_pairs():
    """Small-grid pairs used by the representative-identity criteria."""
    pairs = [
        make_pair(Case.SYMPLECTIC, 0, (), 1),
        make_pair(Case.SYMPLECTIC, 0, (), 2),
        make_pair(Case.SYMPLECTIC, 0, (), 3),
        make_pair(Case.ORTHOGONAL, 0, (), 1),
        make_pair(Case.ORTHOGONAL, 0, (), 2),
        make_pair(Case.ORTHOGONAL, 0, (), 3),
        make_pair(Case.ORTHOGONAL, 1, (1,), 1),
        make_pair(Case.ORTHOGONAL, 1, (1,), 2),
        make_pair(Case.ORTHOGONAL, 2, (1, 1), 1),
        make_pair(Case.ORTHOGONAL, 2, (1, 1), 2),
        make_pair(Case.UNITARY, 0, (), 1),
        make_pair(Case.UNITARY, 0, (), 2),
        make_pair(Case.UNITARY, 1, (1,), 1),
        make_pair(Case.UNITARY, 1, (1,), 2),
        make_pair(Case.UNITARY, 2, (1, 1), 1),
        # other residue characteristics, including p = 2
        ClassicalPair(Case.ORTHOGONAL, 1, (1,), 1, P2, BiquadField(-1)),
        ClassicalPair(Case.ORTHOGONAL, 0, (), 2, P5, QUAD_M5),
        ClassicalPair(Case.SYMPLECTIC, 0, (), 1, P2, BiquadField(-1)),
        ClassicalPair(Case.UNITARY, 0, (), 1, P2, BIQ_2),
        ClassicalPair(Case.UNITARY, 1, (1,), 1, P5, BIQ_5),
    ]
    return pairs
