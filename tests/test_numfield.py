import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localsym.numfield import (
    BiquadField,
    Bq,
    Mat,
    NumFieldError,
    conj_transpose,
    in_isometry_group,
    in_symmetric_space,
    int_det,
    recover_hilbert90,
    recover_hilbert90_matrix,
    splits,
)
from localsym.weyl import admissible_class, build_xw, enumerate_involutions, inner_z_choices

from conftest import check_split, hilbert90_reference
from test_distinction import small_grid

F = BiquadField(-1, 3)
Q = BiquadField(-1)  # quadratic model, tau = id


def rand_elem(field, rng, span=4):
    c = [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(4)]
    if field.is_quadratic:
        c[2] = c[3] = 0
    return Bq(field, tuple(Fraction(x) for x in c))


def test_field_validation():
    with pytest.raises(NumFieldError):
        BiquadField(4, 3)
    with pytest.raises(NumFieldError):
        BiquadField(2, 2)
    with pytest.raises(NumFieldError):
        BiquadField(1)
    BiquadField(-1)
    BiquadField(2, 5)


def test_involution_defining_actions():
    ra, rb, rab = F.sqrt_a, F.sqrt_b, F.sqrt_ab
    assert ra.sigma() == -ra
    assert ra.tau() == ra
    assert rb.tau() == -rb
    assert rb.sigma() == rb
    assert rab.sigma_tau() == rab
    assert rab.sigma() == -rab
    assert (ra * ra).rational == -1
    assert (rb * rb).rational == 3
    assert ra * rb == rab


def test_field_axioms_and_involution_homomorphy():
    rng = random.Random(5)
    for field in (F, Q):
        for _ in range(500):
            x, y, z = (rand_elem(field, rng) for _ in range(3))
            assert (x + y) * z == x * z + y * z
            assert x * (y * z) == (x * y) * z
            assert x * y == y * x
            for which in ("sigma", "tau", "sigma_tau"):
                assert (x * y).apply(which) == x.apply(which) * y.apply(which)
                assert x.apply(which).apply(which) == x
            assert x.sigma().tau() == x.tau().sigma()
            if not x.is_zero:
                assert (x * x.inverse()).rational == 1


def test_norm_tower_compatibility():
    rng = random.Random(6)
    for _ in range(100):
        x = rand_elem(F, rng)
        if x.is_zero:
            continue
        ne = x.norm_to_E()  # in Q(sqrt a)
        assert ne.tau() == ne
        assert x.norm_to_Q() == (ne * ne.sigma()).rational


def test_hilbert90_elements():
    rng = random.Random(7)
    count = 0
    while count < 100:
        c = rand_elem(F, rng)
        if c.is_zero:
            continue
        x = c / c.tau()
        cp = recover_hilbert90(x, "tau")
        assert (cp / cp.tau() - x).is_zero
        count += 1
    # the x = -1 branch uses the tau-negated generator
    minus1 = F.element(-1)
    c = recover_hilbert90(minus1, "tau")
    assert c == F.sqrt_b
    assert recover_hilbert90(Q.element(-1), "sigma") == Q.sqrt_a
    with pytest.raises(NumFieldError):
        recover_hilbert90(F.element(2), "tau")


@pytest.mark.parametrize("name", ["inverse", "norm_to_E", "coeffs"])
def test_apply_refuses_names_that_are_not_involutions(name):
    # each is a method of Bq, so a lookup by attribute name alone would run it
    x = F.element(2)
    with pytest.raises(NumFieldError):
        x.apply(name)
    with pytest.raises(NumFieldError):
        recover_hilbert90(x, name)


def test_matrix_basics():
    rng = random.Random(8)
    m = Mat(F, [[rand_elem(F, rng) for _ in range(3)] for _ in range(3)])
    i3 = Mat.identity(F, 3)
    assert m * i3 == m
    assert (m.T).T == m
    assert m.sigma().sigma() == m
    d = m.det()
    if not d.is_zero:
        assert (m * m.inv()).is_identity
        assert (m.inv() * m).is_identity
    # involutions commute with multiplication
    g = Mat(F, [[rand_elem(F, rng) for _ in range(3)] for _ in range(3)])
    assert (m * g).sigma() == m.sigma() * g.sigma()
    assert (m * g).tau() == m.tau() * g.tau()


def test_det_multiplicative_and_empty():
    rng = random.Random(9)
    a = Mat(F, [[rand_elem(F, rng) for _ in range(2)] for _ in range(2)])
    b = Mat(F, [[rand_elem(F, rng) for _ in range(2)] for _ in range(2)])
    assert (a * b).det() == a.det() * b.det()
    e = Mat(F, [])
    assert e.det() == F.one
    assert Mat.identity(F, 0).is_identity


def test_isometry_group_membership():
    # j = w_2, hermitian for tau
    j = Mat.antidiag_ones(F, 2)
    assert in_isometry_group(Mat.identity(F, 2), j, eps=1)
    # iota(t) = diag(t, t^{-tau}) preserves w_2
    t = F.sqrt_a
    g = Mat.diagonal(F, [t, t.tau().inverse()])
    assert in_isometry_group(g, j, eps=1)
    # a generic non-isometry
    bad = Mat.diagonal(F, [F.element(2), F.element(2)])
    assert not in_isometry_group(bad, j)
    with pytest.raises(NumFieldError):
        in_isometry_group(Mat.identity(F, 3), j)


def test_symmetric_space_membership():
    j = Mat.antidiag_ones(F, 2)
    assert in_symmetric_space(Mat.identity(F, 2), j, eps=1)
    # x with x sigma(x) != I
    t = F.element(1) + F.sqrt_a
    x = Mat.diagonal(F, [t, t.tau().inverse()])
    assert in_isometry_group(x, j)
    assert not in_symmetric_space(x, j)


def test_hilbert90_matrix():
    rng = random.Random(10)
    for field in (F, Q):
        for n in (1, 2, 3):
            for _ in range(20):
                while True:
                    z0 = Mat(field, [[rand_elem(field, rng, 2) for _ in range(n)] for _ in range(n)])
                    if not z0.det().is_zero:
                        break
                x = z0 * z0.sigma().inv()
                z = recover_hilbert90_matrix(x)
                assert z * z.sigma().inv() == x
    # scalar -1 corner case
    xm = Mat.diagonal(F, [F.element(-1)])
    z = recover_hilbert90_matrix(xm)
    assert z * z.sigma().inv() == xm


def test_splits():
    t = F.element(1) + F.sqrt_a
    z = Mat.diagonal(F, [t, F.one])
    x = z * z.sigma().inv()
    assert splits(z, x)
    assert not splits(z, Mat.identity(F, 2))
    assert not splits(Mat.diagonal(F, [0, 1]), Mat.diagonal(F, [-1, 1]))  # z = x sigma(z), det z = 0
    with pytest.raises(NumFieldError):
        splits(z, Mat.identity(F, 3))
    with pytest.raises(NumFieldError):
        splits(Mat(F, [[F.one, F.one]]), Mat(F, [[F.one, F.one]]))
    # outside X no z_t splits, whatever t
    with pytest.raises(NumFieldError, match="no z_t"):
        recover_hilbert90_matrix(Mat.diagonal(F, [2, 1]))


def test_public_constructor_refuses_ragged_rows():
    with pytest.raises(NumFieldError, match="ragged rows"):
        Mat(F, [[F.one, F.element(2)], [F.element(3)]])


def _mat(field, rows):
    return Mat(field, [[field.element(*c) for c in r] for r in rows])


# (x, z) with z = (1 + t sqrt(a)) I + (1 - t sqrt(a)) x, the splitting
# recover_hilbert90_matrix returns; the comment names the t taken
PINNED_SPLITTINGS = [
    ([[(1,), (0,)], [(0,), (1,)]], [[(2,), (0,)], [(0,), (2,)]]),  # t = 0
    ([[(-1,), (0,)], [(0,), (-1,)]], [[(0, 2), (0,)], [(0,), (0, 2)]]),  # t = 1
    ([[(0,), (1,)], [(1,), (0,)]], [[(1, 1), (1, -1)], [(1, -1), (1, 1)]]),  # t = 1
    ([[(-1,), (0,)], [(0,), (1,)]], [[(0, 2), (0,)], [(0,), (2,)]]),  # t = 1
    (
        [[(1,), (0,), (0,)], [(0,), (-1,), (0,)], [(0,), (0,), (-1,)]],
        [[(2,), (0,), (0,)], [(0,), (0, 2), (0,)], [(0,), (0,), (0, 2)]],
    ),  # t = 1
    ([[(-1,)]], [[(0, 2)]]),  # t = 1
    (
        [[(-1,), (0,), (0,)], [(0,), (-1,), (0,)], [(0,), (0,), (-1,)]],
        [[(0, 2), (0,), (0,)], [(0,), (0, 2), (0,)], [(0,), (0,), (0, 2)]],
    ),  # t = 1
]


@pytest.mark.parametrize("field", [F, BiquadField(2)], ids=["biquadratic", "quadratic"])
def test_hilbert90_matrix_pinned_candidate_order(field):
    for x_rows, z_rows in PINNED_SPLITTINGS:
        x = _mat(field, x_rows)
        z = recover_hilbert90_matrix(x)
        assert z == _mat(field, z_rows)
        assert z * z.sigma().inv() == x


@pytest.mark.parametrize("field", [F, BiquadField(2)], ids=["biquadratic", "quadratic"])
def test_hilbert90_matrix_degree_bound_is_tight(field):
    # x = diag(-s_0, ..., -s_{n-1}), s_t = (1 + t sqrt(a)) / (1 - t sqrt(a)),
    # makes z_t singular for every t < n, so the split takes t = n
    for n in (1, 2, 3):
        s = [field.element(1, t) / field.element(1, -t) for t in range(n)]
        x = Mat.diagonal(field, [-e for e in s])
        assert (x * x.sigma()).is_identity
        z = recover_hilbert90_matrix(x)
        c, cs = field.element(1, n), field.element(1, -n)
        assert z == Mat.identity(field, n) * c + x * cs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_hilbert90_matrix_splits_within_degree_bound(data):
    field = data.draw(st.sampled_from([F, BiquadField(2), BiquadField(3, 5)]))
    n = data.draw(st.integers(1, 4))
    coeff = st.integers(-3, 3)
    width = 2 if field.is_quadratic else 4
    z0 = Mat(field, [[field.element(*data.draw(st.lists(coeff, min_size=width, max_size=width)))
                      for _ in range(n)] for _ in range(n)])
    assume(not z0.det().is_zero)
    x = z0 * z0.sigma().inv()
    z = recover_hilbert90_matrix(x)
    assert z * z.sigma().inv() == x
    check_split(x)


def test_hilbert90_matrix_matches_the_reference_on_every_x_w(bundled_pairs):
    # every x_w of the bundled pairs over the small grid: each involution,
    # inner orbit and hermitian bit
    closed_form = total = 0
    for pair in bundled_pairs:
        for comp in small_grid(pair):
            for w in enumerate_involutions(comp, admissible_class(comp, pair)):
                iw = sorted(w.fixed_in_c)
                for z_inv, _ in inner_z_choices(comp, w, pair):
                    for bits in itertools.product((0, 1), repeat=len(iw)):
                        x, _ = build_xw(comp, w, dict(zip(iw, bits)), z_inv, pair)
                        closed_form += check_split(x)
                        total += 1
    assert total == 226 and 0 < closed_form < total


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_hilbert90_matrix_closed_form_on_rational_involutions(data):
    # x = S diag(+-1) S^-1 with S an integer matrix, so x^2 = I and x has
    # denominators; every such x is split in closed form
    field = data.draw(st.sampled_from([BiquadField(2), BiquadField(-1), F, BiquadField(3, 5)]))
    n = data.draw(st.integers(1, 12))
    kind = data.draw(st.sampled_from(["I", "-I", "signs"]))
    signs = [1] * n if kind == "I" else [-1] * n if kind == "-I" else \
        data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    s = [data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(n)]
    assume(int_det(s) != 0)
    s = Mat.from_rational(field, s)
    x = s * Mat.diagonal(field, signs) * s.inv()
    assert x.is_rational and (x * x).is_identity
    check_split(x)


def test_hilbert90_matrix_splits_plus_and_minus_i_and_the_empty_x():
    for field in (F, Q):
        empty = Mat(field, [])
        assert check_split(empty) and recover_hilbert90_matrix(empty) == empty
        for n in (1, 2, 5):
            for sign, z_entry in ((1, field.element(2)), (-1, field.element(0, 2))):
                x = Mat.diagonal(field, [sign] * n)
                assert check_split(x)
                assert recover_hilbert90_matrix(x) == Mat.diagonal(field, [z_entry] * n)


@pytest.mark.parametrize("field", [F, BiquadField(2)], ids=["biquadratic", "quadratic"])
def test_hilbert90_matrix_refuses_a_rational_x_whose_square_is_not_i(field):
    # sigma(x) = x, so x sigma(x) = x^2; x^2 != I leaves no split at any t
    for rows in (
        [[(2,), (0,)], [(0,), (1,)]],
        [[(1,), (1,)], [(0,), (1,)]],  # det 1, unipotent
        [[(0,), (2,)], [(1,), (0,)]],
        [[(0,), (-1,)], [(1,), (0,)]],  # rotation of order 4, x^2 = -I
        [[(0,), (1,)], [(0,), (0,)]],  # nilpotent
        [[(2,), (1,)], [(1,), (1,)]],  # det 1
        [[(1,), (1,)], [(1,), (0,)]],  # det -1
    ):
        x = _mat(field, rows)
        assert x.is_rational and not (x * x).is_identity
        for split in (recover_hilbert90_matrix, hilbert90_reference):
            with pytest.raises(NumFieldError, match="no z_t with t <= n splits x"):
                split(x)


@pytest.mark.parametrize("field", [F, Q], ids=["biquadratic", "quadratic"])
def test_hilbert90_matrix_refuses_a_non_square_x(field):
    for x in (Mat.from_rational(field, [[1, 0]]), Mat.from_rational(field, [[1], [0]]),
              Mat(field, [[field.sqrt_a, field.one]])):
        for split in (recover_hilbert90_matrix, hilbert90_reference):
            with pytest.raises(NumFieldError, match="dimension mismatch"):
                split(x)


_entries = st.lists(st.integers(-3, 3), min_size=2, max_size=2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernel_constants_equal_the_checked_constructor(data):
    field = data.draw(st.sampled_from([F, Q]))
    n = data.draw(st.integers(0, 4))
    one, zero = field.one, field.zero
    entries = [field.element(*data.draw(_entries)) for _ in range(n)]
    assert Mat.identity(field, n) == Mat(field, [[one if i == j else zero for j in range(n)] for i in range(n)])
    assert Mat.antidiag_ones(field, n) == Mat(
        field, [[one if i + j == n - 1 else zero for j in range(n)] for i in range(n)])
    diag = Mat(field, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])
    assert Mat.diagonal(field, entries) == diag
    blocks = [diag, Mat.antidiag_ones(field, 2), Mat.identity(field, data.draw(st.integers(0, 2)))]
    size = sum(b.n for b in blocks)
    rows = [[zero] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, r in enumerate(b.rows):
            rows[off + i][off:off + b.n] = r
        off += b.n
    assert Mat.block_diag(field, blocks) == Mat(field, rows)
