import itertools
import random
import time
from fractions import Fraction

import pytest

from localsym.localfield import (
    LocalFieldError,
    Prime,
    QuadExtension,
    SquareClass,
    TRIAL_LIMIT,
    _factorize,
    _rational_sqrt,
    _trial_division,
    eta,
    hilbert,
    hilbert_oracle,
    hilbert_rational,
    hilbert_real,
    is_prime,
    least_non_norm,
    non_norm_value,
    rational,
    reciprocity_check,
    reduce,
    square_class_reps,
    square_classes,
    squarefree_part,
    valuation,
)
from localsym.numfield import BiquadField

P2, P3, P5, P7 = Prime(2), Prime(3), Prime(5), Prime(7)


def test_prime_validation():
    with pytest.raises(LocalFieldError):
        Prime(6)
    with pytest.raises(LocalFieldError):
        Prime(1)
    assert Prime(2).p == 2
    assert Prime(101).odd


def test_valuation():
    assert valuation(50, P5) == 2
    assert valuation(Fraction(3, 50), P5) == -2
    assert valuation(7, P5) == 0
    with pytest.raises(LocalFieldError):
        valuation(0, P5)


def test_reduce_examples():
    # 9 is a square at 5
    assert reduce(9, P5) == SquareClass(P5, 0, 1)
    # the uniformizer has unit part 1
    assert reduce(5, P5) == SquareClass(P5, 1, 1)
    # 50 = 2 * 25: 2 is a non-residue mod 5, checked by enumerating squares
    squares_mod5 = {x * x % 5 for x in range(1, 5)}
    assert 2 not in squares_mod5
    assert reduce(50, P5) == reduce(2, P5)
    assert reduce(50, P5).unit == P5.nonresidue == 2


def test_reduce_group_sizes():
    assert len(set(square_classes(P3))) == 4
    assert len(set(square_classes(P2))) == 8


@pytest.mark.parametrize("p", [P2, P3, P5, P7])
def test_reduce_is_homomorphism(p):
    rng = random.Random(101)
    for _ in range(200):
        x = Fraction(rng.randint(1, 60), rng.randint(1, 60)) * rng.choice([1, -1])
        y = Fraction(rng.randint(1, 60), rng.randint(1, 60)) * rng.choice([1, -1])
        assert reduce(x, p) * reduce(y, p) == reduce(x * y, p)


@pytest.mark.parametrize("p", [P2, P3, P5, P7])
def test_hilbert_bimultiplicative_symmetric_nondegenerate(p):
    classes = square_classes(p)
    for a in classes:
        for b in classes:
            assert hilbert(a, b) == hilbert(b, a)
            for c in classes:
                assert hilbert(a * b, c) == hilbert(a, c) * hilbert(b, c)
    for a in classes:
        if not a.is_trivial:
            assert any(hilbert(a, b) == -1 for b in classes)


@pytest.mark.parametrize("p", [P2, P3, P5, P7])
def test_hilbert_trivial_identities(p):
    rng = random.Random(7)
    for _ in range(50):
        a = Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice([1, -1])
        assert hilbert_rational(1, a, p) == 1
        assert hilbert_rational(a, -a, p) == 1
        if a != 1:
            assert hilbert_rational(a, 1 - a, p) == 1


def test_hilbert_derived_example():
    # (3, u)_3 with u the non-residue: settled by the Hensel oracle
    u = P3.nonresidue
    assert hilbert_oracle(3, u, P3) == -1
    assert hilbert_rational(3, u, P3) == -1


def test_oracle_trivial_cases():
    assert hilbert_oracle(1, 7, P3) == 1
    assert hilbert_oracle(3, 3, P3) == hilbert_rational(3, 3, P3)
    assert hilbert_oracle(2, 5, P5) == hilbert_rational(2, 5, P5)


@pytest.mark.parametrize("p", [P2, P3, P5, P7])
def test_formula_vs_oracle_quick(p):
    vals = [1, -1, 2, -2, 3, -3, 5, -5]
    # a0 p^(2k), k <= 3, a0 of even and odd valuation: the oracle reads these
    # without their p-squares, at a modulus of at most 2^5 or p^3
    high = [v * p.p ** (2 * k) for v in sorted({*vals, p.p, -p.p}) for k in range(4)]
    for a, b in itertools.chain(itertools.product(vals, vals), itertools.product(high, high)):
        assert hilbert_rational(a, b, p) == hilbert_oracle(a, b, p), (a, b, p.p)


def test_eta():
    E = QuadExtension.of(3, P3)
    assert eta(E, 1) == 1
    # -d is the norm of sqrt(d)
    assert eta(E, -3) == 1
    assert eta(E, 2) == hilbert_oracle(2, 3, P3) == -1
    # multiplicativity over the class group
    for a in square_classes(P3):
        for b in square_classes(P3):
            assert eta(E, a * b) == eta(E, a) * eta(E, b)
    # norm group has index two
    assert sum(1 for a in square_classes(P3) if eta(E, a) == 1) == 2


def test_quad_extension_validation():
    with pytest.raises(LocalFieldError):
        QuadExtension.of(4, P3)


def test_rational_reads_text_and_refuses_malformed_values():
    q = Fraction(3, 4)
    assert rational(q) is q and type(rational(7)) is int
    assert rational("-3/4") == Fraction(-3, 4) and rational("0.1") == Fraction(1, 10)
    assert rational("2e-4300") == Fraction(2, 10**4300)
    for bad in ("1/0", "1e300000", "1e4300", "x", float("inf"), float("nan")):
        with pytest.raises(ValueError):
            rational(bad)
    for bad in (True, None, [1]):
        with pytest.raises(TypeError):
            rational(bad)


def test_reciprocity_minus_one():
    report = reciprocity_check(-1, -1)
    assert report.ok
    sym = dict(report.symbols)
    assert sym[2] == -1 and sym["inf"] == -1


def test_reciprocity_cases():
    assert reciprocity_check(1, 77).ok
    assert reciprocity_check(3, 5).ok
    rng = random.Random(2024)
    for _ in range(300):
        a = Fraction(rng.randint(1, 100), rng.randint(1, 100)) * rng.choice([1, -1])
        b = Fraction(rng.randint(1, 100), rng.randint(1, 100)) * rng.choice([1, -1])
        assert reciprocity_check(a, b).ok, (a, b)


def test_factorize_bounded_trial_division():
    assert _factorize(2**100) == [(2, 100)]
    assert _factorize(-999983 * 999979**2) == [(999979, 2), (999983, 1)]
    # a cofactor below 10^12 with no factor below 10^6 is prime
    assert _factorize(999999999989) == [(999999999989, 1)]
    with pytest.raises(LocalFieldError, match="too large to certify"):
        _factorize(10**30 + 57)
    with pytest.raises(LocalFieldError):
        reciprocity_check(3, 10**30 + 57)


def ref_trial_division(n):
    """The former trial division, which ran to TRIAL_LIMIT or sqrt(n)
    whatever the cofactor."""
    n = abs(n)
    out = []
    d = 2
    while d <= TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    return out, n


def test_trial_division_stops_at_a_proven_prime():
    """Stopping at a proven-prime cofactor keeps the factors and the
    cofactor of the full division: on primes above 10^6 (where it stops at
    once), a prime times small factors, a prime power, and p q^2 with both
    primes just below 10^6 (where it must divide to q)."""
    big = 10**12 + 39
    for n in (big, 2**61 - 1, 999999999989, 6 * big, -6 * big, 2**100, 999983 * 999979**2):
        assert _trial_division(n) == ref_trial_division(n), n
    # a prime cofactor ends the division at the start and after a prime
    # divided out, where the full division runs to 10^6 (about 0.07 s)
    for n, want in ((big, ([], big)), (6 * big, ([(2, 1), (3, 1)], big))):
        start = time.perf_counter()
        assert _trial_division(n) == want
        assert time.perf_counter() - start < 0.02, n


def test_large_cofactors_are_certified():
    """A cofactor of 10^12 or more that trial division leaves has no prime
    factor below 10^6: below 10^18 it is a prime, p q or p^2, and a prime
    is proven by `is_prime` below PSI_12.  Only a cofactor that neither
    settles is refused."""
    big, mersenne = 10**12 + 39, 2**61 - 1
    assert BiquadField(big).a == big and BiquadField(mersenne).a == mersenne
    assert _factorize(big) == [(big, 1)] and _factorize(-2 * mersenne) == [(2, 1), (mersenne, 1)]
    report = reciprocity_check(big, mersenne)
    assert report.ok and [place for place, _ in report.symbols] == [2, big, mersenne, "inf"]
    p, q = 1000003, 1000033
    assert squarefree_part(p * q) == p * q and squarefree_part(-7 * p * q) == -7 * p * q
    for composite in (p * q, (p * q) ** 2):
        with pytest.raises(LocalFieldError, match="too large to certify"):
            _factorize(composite)
    assert squarefree_part(5 * (p * q) ** 2) == 5
    assert squarefree_part(-3 * q * q) == -3 and _factorize(12 * q * q) == [(2, 2), (3, 1), (q, 2)]
    assert squarefree_part(5 * mersenne**2) == 5 and _factorize(mersenne**2) == [(mersenne, 2)]
    composite = p * q * 1000037
    assert composite >= 10**18
    for f in (squarefree_part, _factorize):
        with pytest.raises(LocalFieldError, match="too large to certify"):
            f(composite)


def test_hilbert_real():
    assert hilbert_real(-2, -3) == -1
    assert hilbert_real(-2, 3) == 1
    assert hilbert_real(2, 3) == 1


def test_square_class_reps_roundtrip():
    for p in (P2, P3, P5, P7):
        for r in square_class_reps(p):
            assert reduce(r, p).rep == r


P2_MODELS = (-1, 2, -2, 3, 5, 6, -6, 7, 10, -3)


def sweep_models():
    """(a, p): both quadratic models a = p and a = the least non-residue at
    every odd prime below 400, and the ten models at p = 2."""
    for p in range(3, 400):
        if is_prime(p):
            yield p, p
            yield Prime(p).nonresidue, p
    for a in P2_MODELS:
        yield a, 2


def test_least_non_norm_matches_reference_scan():
    for a, p in sweep_models():
        reference = next(u for u in itertools.count(2) if hilbert_rational(u, a, p) == -1)
        assert least_non_norm(a, p) == reference, (a, p)
    with pytest.raises(LocalFieldError):
        least_non_norm(4, 3)


def _check_non_norm_value(m, d, p):
    got = non_norm_value(m, d, p)
    if reduce(-m, p) == reduce(d, p):
        assert got is None, (m, d, p)
        return
    x, y = got
    t = x * x + Fraction(m) * y * y
    assert t != 0 and hilbert_rational(t, d, p) == -1, (m, d, p)


def odd_prime_grid(p):
    """The (m, d) grid at an odd prime: m over units, odd and even
    valuations and squares, d over the three nontrivial classes of
    units and odd valuation."""
    u = Prime(p).nonresidue
    for m in (1, -1, u, -u, p, -p, p * u, -p * u, -p * p * u, Fraction(-u, p * p), Fraction(3, 4 * p), 2 * p ** 3):
        for d in (u, p, p * u):
            yield m, d


def test_non_norm_value_at_odd_primes():
    for p in (3, 5, 7, 11, 13, 211, 397):
        for m, d in odd_prime_grid(p):
            _check_non_norm_value(m, d, p)


def ref_non_norm_value(m, d, p):
    """The former search: every x = 0, 1, ..., 2p - 1 in turn."""
    m = Fraction(m)
    if reduce(d, p).is_trivial or reduce(-m, p) == reduce(d, p):
        return None
    r = _rational_sqrt(-m)
    if r is not None:
        u = least_non_norm(d, p)
        return Fraction(u + 1, 2), Fraction(u - 1, 2) / r
    big, y = m.numerator * m.denominator, Fraction(m.denominator)
    while big % (p * p) == 0:
        big //= p * p
        y /= p
    return next((Fraction(x), y) for x in range(2 * p)
                if x * x + big and hilbert_rational(x * x + big, d, p) == -1)


def test_non_norm_value_matches_the_scan():
    """The Tonelli-Shanks root gives the x that the scan finds first, so
    the frozen values that depend on it do not move."""
    for p in range(3, 400):
        if is_prime(p):
            for m, d in odd_prime_grid(p):
                assert non_norm_value(m, d, p) == ref_non_norm_value(m, d, p), (m, d, p)


@pytest.mark.parametrize("p", [1000003, 2**31 - 1, 10**12 + 39, 2**61 - 1])
def test_non_norm_value_at_large_primes(p):
    """A large p costs a square root mod p, not a scan of x up to 2p."""
    start = time.perf_counter()
    for m, d in [(3, 3), *odd_prime_grid(p)]:
        _check_non_norm_value(m, d, p)
    assert time.perf_counter() - start < 0.5


def test_non_norm_value_at_2():
    for m in list(range(-40, 0)) + list(range(1, 40)) + [Fraction(1, 4), Fraction(-7, 16), 96]:
        for d in (3, 5, 7, 2, 6, 10, 14):
            _check_non_norm_value(m, d, 2)


def test_non_norm_value_residue_argument_at_2():
    # The scan x in {0, 1, 2, 3} at p = 2 is complete: for every M mod 64 with
    # v_2(M) <= 1 and every class d, some x gives t = x^2 + M with v_2(t) <= 3,
    # where t mod 64 fixes the class, and (t, d)_2 = -1, unless -M and d share
    # a class (then no value works).
    for r in range(64):
        if r % 4 == 0:
            continue
        for d in (3, 5, 7, 2, 6, 10, 14):
            if reduce(-r, 2) == reduce(d, 2):
                continue
            assert any(
                (x * x + r) % 16 and hilbert_rational((x * x + r) % 64, d, 2) == -1 for x in range(4)
            ), (r, d)
