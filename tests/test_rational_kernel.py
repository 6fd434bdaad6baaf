"""The rational-matrix kernel on integer rows over one denominator
(`int_rows`, `int_mul`, `int_echelon`, `int_det`), integer square classes,
the fraction-free congruence diagonalization, the spinor norm from Wall's
determinant with its isometry test, and the chained Hasse product, each
against a reference:
the definitions for the kernel (the Fraction product and the Leibniz
determinant of conftest) and the Hasse sign, and copies of the former
Fraction-by-Fraction code for the rest."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localsym.forms import (
    Case,
    DiagForm,
    FormsError,
    congruent_diagonal,
    diagonal_entries,
    disc_and_hasse,
    invariants,
    split_gram,
)
from localsym.localfield import (
    LocalFieldError,
    Prime,
    QuadExtension,
    SquareClass,
    eta,
    hilbert,
    hilbert_oracle,
    hilbert_rational,
    reciprocity_check,
    reduce,
    valuation,
)
from localsym.numfield import BiquadField, Mat, NumFieldError, int_det, int_echelon, int_mul, int_rows
from localsym.prasad import (
    CharacterFormula,
    PrasadError,
    evaluate_character,
    spinor_norm,
    spinor_norm_rational,
    w_gram,
)

from conftest import leibniz_det, mat_mul

kernel_settings = settings(max_examples=200, derandomize=True, deadline=None)

PRIMES = [Prime(p) for p in (2, 3, 5, 7, 11, 211)]

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
nonzero = rationals.filter(bool) | st.builds(
    Fraction, st.integers(1, 10**6).map(lambda n: n * 211), st.integers(1, 10**4)
)


def as_kind(x: Fraction, kind):
    """x as an int (when integral), a Fraction or a string."""
    if kind == "int" and x.denominator == 1:
        return int(x)
    return str(x) if kind == "str" else x


# ---------------------------------------------------------------------------
# square classes


def ref_valuation(x, p):
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ref_reduce(x, p: Prime):
    x = Fraction(x)
    v = ref_valuation(x, p.p)
    u = x / Fraction(p.p) ** v
    num, den = u.numerator, u.denominator
    if p.odd:
        r = num * pow(den, -1, p.p) % p.p
        unit = 1 if p.legendre(r) == 1 else p.nonresidue
    else:
        unit = num * pow(den, -1, 8) % 8
    return SquareClass(p, v % 2, unit)


@kernel_settings
@given(a=nonzero, b=nonzero, p=st.sampled_from(PRIMES), kind=st.sampled_from(["int", "Fraction", "str"]))
def test_square_classes_match_fraction_reference(a, b, p, kind):
    x, y = as_kind(a, kind), as_kind(b, kind)
    assert valuation(x, p) == ref_valuation(a, p.p)
    assert valuation(x, p.p) == ref_valuation(a, p.p)
    assert reduce(x, p) == ref_reduce(a, p)
    assert hilbert_rational(x, y, p) == hilbert(ref_reduce(a, p), ref_reduce(b, p))


def ref_hilbert(a: SquareClass, b: SquareClass) -> int:
    """The former closed formula on two classes."""
    p = a.prime
    alpha, beta = a.val, b.val
    u, w = a.unit, b.unit
    if p.odd:
        s = (-1) ** (alpha * beta * ((p.p - 1) // 2))
        if beta:
            s *= p.legendre(u)
        if alpha:
            s *= p.legendre(w)
        return s
    eps_u, eps_w = (u - 1) // 2 % 2, (w - 1) // 2 % 2
    om_u, om_w = (u * u - 1) // 8 % 2, (w * w - 1) // 8 % 2
    return (-1) ** (eps_u * eps_w + alpha * om_w + beta * om_u)


ORACLE_FIT = 10**5  # the largest modulus p^m the brute-force oracle is run at here


@st.composite
def valued(draw, p):
    """A nonzero rational p^v u with v in -3..3 (zero, odd and even) and u
    prime to p, an integer about half the time."""
    def prime_to_p(n):
        return n if n % p else n + 1

    num = draw(st.integers(-10**4, 10**4).map(prime_to_p))
    den = draw(st.just(1) | st.integers(1, 10**3).map(prime_to_p))
    return Fraction(num, den) * Fraction(p) ** draw(st.integers(-3, 3))


kinds = st.sampled_from(["int", "Fraction", "str"])


@kernel_settings
@given(data=st.data(), p=st.sampled_from(PRIMES), kind_a=kinds, kind_b=kinds)
def test_integer_symbols_match_class_formula_and_oracle(data, p, kind_a, kind_b):
    a, b = data.draw(valued(p.p)), data.draw(valued(p.p))
    x, y = as_kind(a, kind_a), as_kind(b, kind_b)
    ca, cb = ref_reduce(a, p), ref_reduce(b, p)
    got = reduce(x, p)
    assert got == ca and got.to_json() == ca.to_json()
    symbol = hilbert_rational(x, y, p)
    assert symbol == ref_hilbert(ca, cb) == hilbert(ca, cb)
    # num * den lies in the square class of num / den
    ia, ib = a.numerator * a.denominator, b.numerator * b.denominator
    if p.p ** (2 * ref_valuation(4 * ia * ib, p.p) + 3) <= ORACLE_FIT:
        assert symbol == hilbert_oracle(ia, ib, p)


def test_reciprocity_factors_numerator_and_denominator_apart():
    # both are primes; their product 100000980001501 has no factor below the
    # trial-division bound and is too large to certify as a prime
    report = reciprocity_check(Fraction(10000019, 10000079), 3)
    assert report.ok
    assert [pl for pl, _ in report.symbols] == [2, 3, 10000019, 10000079, "inf"]


@pytest.mark.parametrize("zero", [0, Fraction(0), "0", "0/5"])
def test_square_classes_reject_zero(zero):
    with pytest.raises(LocalFieldError):
        reduce(zero, 3)
    with pytest.raises(LocalFieldError):
        valuation(zero, 2)


# ---------------------------------------------------------------------------
# the kernel against the definitions


@st.composite
def rat_matrices(draw, n=None, m=None, zeros=0.3):
    n = draw(st.integers(1, 5)) if n is None else n
    m = draw(st.integers(1, 5)) if m is None else m
    return [
        [Fraction(0) if draw(st.floats(0, 1)) < zeros else draw(rationals) for _ in range(m)]
        for _ in range(n)
    ]


@kernel_settings
@given(data=st.data())
def test_kernel_int_rows_and_mul_by_definition(data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(rat_matrices(n, k))
    b = data.draw(rat_matrices(k, m))
    (na, da), (nb, db) = int_rows(a), int_rows(b)
    assert [[Fraction(x, da) for x in r] for r in na] == a
    assert da > 0 and gcd(da, *(x for r in na for x in r)) == 1
    assert int_rows([[str(x) for x in r] for r in a]) == (na, da)
    prod = [[Fraction(x, da * db) for x in r] for r in int_mul(na, nb)]
    assert prod == mat_mul(a, b)


@kernel_settings
@given(data=st.data())
def test_kernel_det_and_inverse_by_definition(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(rat_matrices(n, n, zeros=data.draw(st.sampled_from([0.0, 0.4, 0.7]))))
    num, den = int_rows(a)
    assert Fraction(int_det(num), den**n) == leibniz_det(a)


def ref_rank(a):
    a = [list(r) for r in a]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is not None:
            a[rank], a[piv] = a[piv], a[rank]
            for r in a[rank + 1:]:
                f = r[c] / a[rank][c]
                r[:] = [x - f * y for x, y in zip(r, a[rank])]
            rank += 1
    return rank


@kernel_settings
@given(data=st.data())
def test_kernel_pivots_by_definition(data):
    # column c is a pivot when it raises the rank of the columns before it,
    # and the minor is that of some choice of rows on the pivot columns
    a = data.draw(rat_matrices(zeros=data.draw(st.sampled_from([0.0, 0.5, 0.8]))))
    num, _ = int_rows(a)
    pivots, minor = int_echelon(num)
    cols = list(zip(*a))
    assert pivots == [c for c in range(len(cols)) if ref_rank(cols[: c + 1]) > ref_rank(cols[:c])]
    rows = combinations([[r[j] for j in pivots] for r in num], len(pivots))
    assert minor and any(abs(leibniz_det(sub)) == abs(minor) for sub in rows)


def test_kernel_shapes():
    with pytest.raises(NumFieldError):
        int_det([[1, 2], [3]])
    with pytest.raises(NumFieldError):
        int_det([[1, 2]])
    assert int_det([]) == 1
    assert outcome(spinor_norm_rational, [[1, 0], [0]]) == (PrasadError, "malformed matrix: ragged rows")
    assert outcome(spinor_norm_rational, [[1, 0], [0, 1]], [[0, 1], [1]]) == (
        PrasadError,
        "malformed matrix: ragged rows",
    )


# ---------------------------------------------------------------------------
# congruence diagonalization against the former Fraction code


def ref_congruent_diagonal(gram):
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        if len(gram[i]) != n:
            raise FormsError("non-square matrix")
        for j in range(n):
            if g[i][j] != g[j][i]:
                raise FormsError("matrix is not symmetric")
    p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def add_col(dst, src, c):
        for i in range(n):
            g[i][dst] += c * g[i][src]
        for j in range(n):
            g[dst][j] += c * g[src][j]
        for i in range(n):
            p[i][dst] += c * p[i][src]

    def swap_cols(i, j):
        for r in range(n):
            g[r][i], g[r][j] = g[r][j], g[r][i]
        g[i], g[j] = g[j], g[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if g[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if g[i][i] != 0), None)
            if swap is not None:
                swap_cols(k, swap)
            else:
                j = next((j for j in range(k + 1, n) if g[k][j] != 0), None)
                if j is None:
                    raise FormsError("singular matrix")
                add_col(k, j, 1)
        piv = g[k][k]
        for j in range(k + 1, n):
            if g[k][j] != 0:
                add_col(j, k, -g[k][j] / piv)
    entries = tuple(g[i][i] for i in range(n))
    if any(e == 0 for e in entries):
        raise FormsError("singular matrix")
    return entries, p


@st.composite
def symmetric_matrices(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.8]))
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if draw(st.floats(0, 1)) >= zeros:
                g[i][j] = g[j][i] = draw(rationals)
    return g


def outcome(fn, *args):
    try:
        return fn(*args)
    except (FormsError, PrasadError) as e:
        return type(e), str(e)


@kernel_settings
@given(gram=symmetric_matrices())
def test_congruent_diagonal_matches_fraction_reference(gram):
    assert outcome(congruent_diagonal, gram) == outcome(ref_congruent_diagonal, gram)


@pytest.mark.parametrize(
    "gram",
    [
        [[0, 1], [1, 0]],
        [[0, 0, 1], [0, 0, 2], [1, 2, 0]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]],
        [[0, 2, 1], [2, 0, 0], [1, 0, 5]],
        [[1, 1], [1, 1]],
        [[1, 2], [3, 4]],
        # a swap repair at k = 2: rows and columns 2 and 3 (0-based) swapped
        [[1, 1, 0, 0, 0], [1, 2, 0, 1, 0], [0, 0, 0, 1, 1], [0, 1, 1, 0, 0], [0, 0, 1, 0, 3]],
        # an added-row repair at k = 4: row and column 5 added to 4, after the
        # Bareiss pivots 2, 1, -2, -1
        [[2, 1, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0], [0, 1, 0, 1, 0, 2], [0, 0, 1, 0, 0, 0],
         [0, 0, 0, 0, 0, 3], [0, 0, 2, 0, 3, 0]],
        # swaps at k = 0 and 1, an added row at k = 2, a swap at k = 3, then
        # singular at k = 4
        [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 2]],
    ],
)
def test_congruent_diagonal_zero_pivots(gram):
    assert outcome(congruent_diagonal, gram) == outcome(ref_congruent_diagonal, gram)
    assert outcome(diagonal_entries, *int_rows(gram)) == outcome(entries_only, gram)


def entries_only(gram):
    return congruent_diagonal(gram)[0]


@kernel_settings
@given(gram=symmetric_matrices(max_n=7))
def test_diagonal_entries_match_congruent_diagonal(gram):
    """The elimination on H alone gives the entries of the one on [H | tQ],
    and refuses what it refuses."""
    assert outcome(diagonal_entries, *int_rows(gram)) == outcome(entries_only, gram)


@kernel_settings
@given(
    a=st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4),
    b=st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=3, max_size=3),
)
def test_mat_int_rows_matches_int_rows(a, b):
    """Mat.int_rows reads each Bq's numerator and denominator; on a rational
    Mat, and on a product of two, it equals int_rows of the Fractions."""
    field = BiquadField(-1)
    prod = Mat.from_rational(field, a) * Mat.from_rational(field, b)
    assert Mat.from_rational(field, a).int_rows() == int_rows(a)
    assert prod.int_rows() == int_rows([[e.rational for e in r] for r in prod.rows])


def test_mat_int_rows_refuses_irrational():
    field = BiquadField(-1)
    with pytest.raises(NumFieldError):
        Mat(field, [[field.one, field.sqrt_a]]).int_rows()


# ---------------------------------------------------------------------------
# the spinor norm against the former Fraction reflection loop


def ref_mul(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def ref_inv(a):
    n = len(a)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        d = aug[c][c]
        aug[c] = [x / d for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def ref_reflection_decomposition(g, gram):
    m = len(g)
    ident = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    if ref_mul(ref_mul([list(r) for r in zip(*g)], gram), g) != gram:
        raise PrasadError("matrix does not preserve the form")
    entries, pmat = ref_congruent_diagonal(gram)
    d = list(entries)
    work = ref_mul(ref_mul(ref_inv(pmat), g), pmat)

    def q_val(v):
        return sum(d[i] * v[i] * v[i] for i in range(m))

    factors = []

    def reflect(v):
        qv = q_val(v)
        for col in range(m):
            x = [work[r][col] for r in range(m)]
            coef = 2 * sum(d[i] * x[i] * v[i] for i in range(m)) / qv
            for r in range(m):
                work[r][col] -= coef * v[r]
        factors.append(v)

    for i in range(m):
        e_i = ident[i]
        w_col = [work[r][i] for r in range(m)]
        if w_col == e_i:
            continue
        diff = [a - b for a, b in zip(w_col, e_i)]
        if q_val(diff) != 0:
            reflect(diff)
        else:
            reflect([a + b for a, b in zip(w_col, e_i)])
            reflect(list(e_i))
    assert work == ident
    vectors = [[sum(r[j] * v[j] for j in range(m)) for r in pmat] for v in factors]
    return vectors, [q_val(v) for v in factors]


def ref_squarefree_part(n):
    out = 1 if n > 0 else -1
    n = abs(n)
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


def ref_spinor_norm(g, gram):
    if leibniz_det(g) != 1:
        raise PrasadError("spinor norm computed on the special orthogonal group")
    _, qvals = ref_reflection_decomposition(g, gram)
    prod = Fraction(1)
    for q in qvals:
        prod *= q
    return Fraction(ref_squarefree_part(prod.numerator * prod.denominator))


def diagonal_gram(entries):
    return [[Fraction(x) if i == j else Fraction(0) for j in range(len(entries))] for i, x in enumerate(entries)]


# SO(3), SO(4) and SO(5) under the default unit gram, non-default diagonal
# grams, split grams with a kernel, and grams with non-integral entries
GRAMS = (
    [w_gram(m) for m in (3, 4, 5)]
    + [diagonal_gram((1, 2, -3, 5, 7)[:m]) for m in (3, 4, 5)]
    + [split_gram(1, (2,)), split_gram(1, (1, -3)), split_gram(2, (3,)), split_gram(1, (2, 5, -7))]
    + [diagonal_gram((Fraction(1, 2), 1, 3)), diagonal_gram((Fraction(-2, 3), Fraction(5, 4), 1, 7))]
    + [split_gram(1, (Fraction(1, 2),)), split_gram(1, (Fraction(3, 2), Fraction(-5, 6)))]
    + [[[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 3), 1, 0], [0, 0, Fraction(2, 5)]]]
)


def reflection(gram, v):
    """The reflection s_v of the gram, for an anisotropic v."""
    m = len(gram)
    gv = [sum(gram[i][j] * v[j] for j in range(m)) for i in range(m)]
    q = sum(v[i] * gv[i] for i in range(m))
    return [[Fraction(int(i == j)) - 2 * v[i] * gv[j] / q for j in range(m)] for i in range(m)]


def eichler(gram, u, w):
    """The Eichler transformation x -> x + B(x,u) w - B(x,w) u - Q(w) B(x,u) u
    of the gram, for an isotropic u with B(u,w) = 0 and Q(w) = B(w,w)/2:
    unipotent, so in SO with trivial spinor norm, and for w off the line
    of u, 1 - g has the image span(u, w)."""
    m = len(gram)
    hu = [sum(gram[i][j] * u[j] for j in range(m)) for i in range(m)]
    hw = [sum(gram[i][j] * w[j] for j in range(m)) for i in range(m)]
    q = sum(w[i] * hw[i] for i in range(m)) / 2
    return [
        [Fraction(int(i == j)) + hu[j] * w[i] - hw[j] * u[i] - q * hu[j] * u[i] for j in range(m)]
        for i in range(m)
    ]


def isotropic_vectors(gram):
    """The nonzero isotropic vectors of the gram with entries in -2..2."""
    m = len(gram)
    return [
        v
        for v in product(range(-2, 3), repeat=m)
        if any(v) and not sum(v[i] * gram[i][j] * v[j] for i in range(m) for j in range(m))
    ]


ISOTROPIC = [isotropic_vectors(gram) for gram in GRAMS]


def rank_two(u, w):
    return any(u[i] * w[j] != u[j] * w[i] for i, j in combinations(range(len(u)), 2))


@st.composite
def isometries(draw):
    """(g, gram, args): a product of reflections and Eichler transformations
    for the gram, and the arguments to pass, with the default gram left out
    half the time.  An Eichler factor can make dim im(1 - g) smaller than
    the count of reflections that the reference loop takes."""
    index = draw(st.sampled_from(range(len(GRAMS))))
    gram, isotropic = GRAMS[index], ISOTROPIC[index]
    m = len(gram)
    g = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    vectors = st.lists(st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2])), min_size=m, max_size=m)
    for v in draw(st.lists(vectors, max_size=5)):
        if isotropic and draw(st.booleans()):
            u = draw(st.sampled_from(isotropic))
            hu = [sum(u[i] * gram[i][j] for i in range(m)) for j in range(m)]
            # an isotropic w orthogonal to u and independent of it makes
            # span(u, w) totally isotropic: g then takes 4 reflections
            plane = [w for w in isotropic if not sum(map(mul, hu, w)) and rank_two(u, w)]
            if plane and draw(st.booleans()):
                w = draw(st.sampled_from(plane))
            else:
                # w = B(u, e_k) v - B(u, v) e_k, for the first k with B(u, e_k) != 0
                k = next(j for j, x in enumerate(hu) if x)
                w = [hu[k] * x for x in v]
                w[k] -= sum(map(mul, hu, v))
            g = ref_mul(g, eichler(gram, u, w))
        elif sum(v[i] * gram[i][j] * v[j] for i in range(m) for j in range(m)):
            g = ref_mul(g, reflection(gram, v))
    default = gram == w_gram(m) and draw(st.booleans())
    return g, gram, (g,) if default else (g, gram)


HALF_GRAM = diagonal_gram((Fraction(1, 2), 1, 3))
HALF_G = ref_mul(reflection(HALF_GRAM, [1, 1, 0]), reflection(HALF_GRAM, [0, 1, 1]))
# Eichler transformations on the totally isotropic plane span(e1, e2):
# alone on the split SO(4), dim im(1 - g) is 2 and the reference loop takes
# 4 reflections; times s_e3 s_(e1+e5) on the split SO(5) (spinor norm 2),
# dim im(1 - g) is 4 and the loop takes 6
SPLIT4, SPLIT5 = w_gram(4), w_gram(5)
PLANE_G = eichler(SPLIT4, [1, 0, 0, 0], [0, 1, 0, 0])
EICHLER_G = ref_mul(
    eichler(SPLIT5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]),
    ref_mul(reflection(SPLIT5, [0, 0, 1, 0, 0]), reflection(SPLIT5, [1, 0, 0, 0, 1])),
)


@settings(kernel_settings, max_examples=300)
@given(case=isometries())
# a gram with denominator 2: the reference loop's q-values are [2/3, 1], spinor norm 6
@example(case=(HALF_G, HALF_GRAM, (HALF_G, HALF_GRAM)))
@example(case=(PLANE_G, SPLIT4, (PLANE_G,)))
@example(case=(EICHLER_G, SPLIT5, (EICHLER_G, SPLIT5)))
def test_reflection_loop_matches_fraction_reference(case):
    g, gram, args = case
    assert outcome(spinor_norm_rational, *args) == outcome(ref_spinor_norm, g, gram)


def test_reflection_loop_keeps_its_refusals():
    gram = w_gram(3)
    shear = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    reflection = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    for g, message in [
        (shear, "matrix does not preserve the form"),
        (reflection, "spinor norm computed on the special orthogonal group"),
    ]:
        g = [[Fraction(x) for x in r] for r in g]
        assert outcome(spinor_norm_rational, g, gram) == outcome(ref_spinor_norm, g, gram) == (PrasadError, message)
    assert outcome(spinor_norm_rational, [[1, 0, 0], [0, 1, 0]], gram) == (
        PrasadError,
        "the matrix must be square and non-empty",
    )
    # the gram is checked after the isometry test and before the parity
    # test: symmetric, then nonsingular
    ident, flip, minus = [[1, 0], [0, 1]], [[-1, 0], [0, 1]], [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    for g, bad_gram, want in [
        (ident, [[0, 0], [0, 0]], (FormsError, "singular matrix")),
        (flip, [[0, 0], [0, 0]], (FormsError, "singular matrix")),
        (flip, [[0, 0], [0, 1]], (FormsError, "singular matrix")),
        (ident, [[1, 2], [3, 4]], (FormsError, "matrix is not symmetric")),
        (flip, [[1, 2], [3, 0]], (PrasadError, "matrix does not preserve the form")),
        (minus, [[1, 2, 0], [0, 1, 0], [0, 0, 0]], (FormsError, "matrix is not symmetric")),
    ]:
        assert outcome(spinor_norm_rational, g, bad_gram) == want


def test_spinor_class_needs_no_factoring():
    """spinor_norm(g, p) and the sn row read the class of the integer Wall
    determinant, with no trial division: for g = s_v1 s_v2 on w_gram(3)
    with v of numerators up to 999 and denominators up to 1009, both give
    the class of Q(v1) Q(v2), also where spinor_norm_rational refuses the
    determinant as too large to certify; where it answers, it agrees."""
    rng = random.Random(1009)
    gram = w_gram(3)
    sn = CharacterFormula("sn", 1, "E/F")
    answered = refused = 0
    while refused < 2 or answered < 2:
        vs = [[Fraction(rng.randint(-999, 999), rng.randint(1, 1009)) for _ in range(3)] for _ in range(2)]
        q1, q2 = (sum(v[i] * gram[i][j] * v[j] for i in range(3) for j in range(3)) for v in vs)
        if not q1 or not q2:
            continue
        g = ref_mul(reflection(gram, vs[0]), reflection(gram, vs[1]))
        try:
            rational = spinor_norm_rational(g, gram)
            answered += 1
        except LocalFieldError as e:
            assert "too large to certify" in str(e)
            rational = None
            refused += 1
        for p in (2, 3, 5, 7, 1000003):
            want = reduce(q1 * q2, p)
            assert spinor_norm(g, p, gram) == want
            if rational is not None:
                assert reduce(rational, p) == want
            for d in (d for d in (-1, 2, 3, 5) if not reduce(d, p).is_trivial):
                ext = QuadExtension.of(d, p)
                assert evaluate_character(sn, g, ext, gram) == hilbert_rational(q1 * q2, ext.d.rep, p)


# ---------------------------------------------------------------------------
# the one-pass discriminant and Hasse sign against the pairwise definition
# and the Fraction product


def ref_disc_and_hasse(entries, p):
    classes = [reduce(e, p) for e in entries]
    h = 1
    for x, y in combinations(classes, 2):
        h *= hilbert(x, y)
    return reduce(prod(entries, start=Fraction(1)), p), h


def _hasse_grid():
    """(entries, p): 0 to 8 small entries at small and large primes, and
    forms of 50 to 200 entries with numerators up to 10^30."""
    rng = random.Random(1701)
    for p in (2, 3, 5, 7, 11, 211, 10**12 + 39):
        for n in range(9):
            for _ in range(40):
                entries = []
                for _ in range(n):
                    num = rng.choice([-1, 1]) * rng.randint(1, 500) * rng.choice([1, p, p * p])
                    den = rng.choice([1, 1, 2, 3, p, 4 * p])
                    x = Fraction(num, den)
                    entries.append(int(x) if x.denominator == 1 and rng.random() < 0.5 else x)
                yield entries, p
        for n in (50, 120, 200):
            entries = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**30) * rng.choice([1, p]),
                                rng.randint(1, 10**6) * rng.choice([1, 1, p]))
                       for _ in range(n)]
            yield entries, p


def test_chained_hasse_matches_pairwise_definition():
    rng = random.Random(1702)
    for entries, p in _hasse_grid():
        prime = Prime(p)
        want = ref_disc_and_hasse(entries, prime)
        assert disc_and_hasse(entries, prime) == want
        assert disc_and_hasse(entries, p) == want
        if entries:
            entries = list(entries)
            entries[rng.randrange(len(entries))] = rng.choice([0, Fraction(0)])
            with pytest.raises(LocalFieldError, match="0 has no square class"):
                disc_and_hasse(entries, prime)


def test_unitary_invariants_match_the_fraction_product():
    for entries, p in _hasse_grid():
        det = prod(entries, start=Fraction(1))
        for d in (d for d in (-1, 2, 3, 5, p) if not reduce(d, p).is_trivial):
            ext = QuadExtension.of(d, p)
            bit = invariants(DiagForm(Case.UNITARY, Prime(p), entries, ext=ext)).det_norm_bit
            assert bit == (0 if eta(ext, det) == 1 else 1)
