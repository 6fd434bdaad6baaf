"""The integer rational-matrix kernel, integer square classes, the
fraction-free congruence diagonalization and the integer reflection loop,
each against a Fraction reference: the definitions for the kernel, and
copies of the former Fraction-by-Fraction code for the rest."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsym.forms import FormsError, congruent_diagonal
from localsym.localfield import (
    LocalFieldError,
    Prime,
    SquareClass,
    hilbert,
    hilbert_oracle,
    hilbert_rational,
    reciprocity_check,
    reduce,
    valuation,
)
from localsym.numfield import NumFieldError, RatMat
from localsym.prasad import PrasadError, reflection_decomposition, spinor_norm_rational, w_gram

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


def leibniz_det(a):
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
            term *= a[i][perm[i]]
        total += term
    return total


@kernel_settings
@given(data=st.data())
def test_kernel_mul_and_transpose_by_definition(data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(rat_matrices(n, k))
    b = data.draw(rat_matrices(k, m))
    prod = (RatMat.of(a) * RatMat.of(b)).fractions()
    assert prod == [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    assert RatMat.of(a).T.fractions() == [[a[i][j] for i in range(n)] for j in range(k)]
    assert RatMat.of(a) == RatMat.of([[str(x) for x in r] for r in a])
    with pytest.raises(NumFieldError):
        RatMat.of(a) * RatMat.of(data.draw(rat_matrices(k + 1, m)))


@kernel_settings
@given(data=st.data())
def test_kernel_det_and_inverse_by_definition(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(rat_matrices(n, n, zeros=data.draw(st.sampled_from([0.0, 0.4, 0.7]))))
    assert RatMat.of(a).det() == leibniz_det(a)


def test_kernel_shapes():
    with pytest.raises(NumFieldError):
        RatMat.of([[1, 2], [3]])
    with pytest.raises(NumFieldError):
        RatMat.of([[1, 2]]).det()
    assert RatMat.of([]).det() == 1


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
def symmetric_matrices(draw):
    n = draw(st.integers(1, 6))
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
    ],
)
def test_congruent_diagonal_zero_pivots(gram):
    assert outcome(congruent_diagonal, gram) == outcome(ref_congruent_diagonal, gram)


# ---------------------------------------------------------------------------
# the reflection loop against the former Fraction code


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


GRAMS = [
    w_gram(3),
    w_gram(4),
    [[Fraction(x) for x in r] for r in [[1, 0, 0], [0, 2, 0], [0, 0, -3]]],
]


@st.composite
def isometries(draw):
    gram = draw(st.sampled_from(GRAMS))
    m = len(gram)
    g = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    vectors = st.lists(st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2])), min_size=m, max_size=m)
    for v in draw(st.lists(vectors, max_size=5)):
        gv = [sum(gram[i][j] * v[j] for j in range(m)) for i in range(m)]
        q = sum(v[i] * gv[i] for i in range(m))
        if q:
            refl = [[Fraction(int(i == j)) - 2 * v[i] * gv[j] / q for j in range(m)] for i in range(m)]
            g = ref_mul(g, refl)
    return g, gram


@kernel_settings
@given(case=isometries())
def test_reflection_loop_matches_fraction_reference(case):
    g, gram = case
    assert reflection_decomposition(g, gram) == ref_reflection_decomposition(g, gram)
    assert outcome(spinor_norm_rational, g, gram) == outcome(ref_spinor_norm, g, gram)
