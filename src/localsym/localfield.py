"""Square classes, Hilbert symbols and norm groups over p-adic completions of Q.

A nonzero rational number determines a class in Qp*/Qp*^2, a group of order
4 for odd p and of order 8 for p = 2.  Everything downstream (Hasse
invariants, norm-group membership, quadratic characters) factors through
these finite groups, so all computations here are exact and finite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

_ORACLE_MODULUS_CAP = 50_000_000


class LocalsymError(ValueError):
    """A domain error: well-formed input that the mathematics refuses.  Every
    module's error class derives from it, and the CLI answers it with exit 1."""


class LocalFieldError(LocalsymError):
    """Invalid local-field data: bad prime, zero input, mismatched primes."""


# psi_12 of Sorenson and Webster (Math. Comp. 86, 2017): the least strong
# pseudoprime to the twelve prime bases 2 to 37
PSI_12 = 318665857834031151167461


def is_prime(n):
    """Deterministic Miller-Rabin on the twelve prime bases 2 to 37, proven
    exact for n < PSI_12; above that it is a strong probable prime test."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, order=True)
class Prime:
    """A rational prime, p = 2 allowed."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise LocalFieldError(f"{self.p!r} is not a prime")

    @property
    def odd(self):
        return self.p != 2

    def legendre(self, a) -> int:
        """Legendre symbol (a|p) for odd p and a prime to p."""
        if not self.odd:
            raise LocalFieldError("Legendre symbol needs an odd prime")
        a %= self.p
        if a == 0:
            raise LocalFieldError("Legendre symbol of 0")
        return 1 if pow(a, (self.p - 1) // 2, self.p) == 1 else -1

    @property
    def nonresidue(self) -> int:
        """Smallest positive quadratic non-residue mod p (odd p)."""
        return _nonresidue(self.p)

    def __repr__(self):
        return f"Prime({self.p})"


@lru_cache(maxsize=None)
def _nonresidue(p):
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise LocalFieldError(f"no non-residue mod {p}")


def _as_prime(p) -> Prime:
    return p if isinstance(p, Prime) else _prime(p)


@lru_cache(maxsize=256)
def _prime(p) -> Prime:
    # a validated Prime per int, so callers passing plain ints do not rerun
    # the primality test on every symbol
    return Prime(p)


# the most decimal digits of a numerator or denominator read from text:
# Python's own int-string limit, so that 10^k spelled out and spelled "1ek"
# are refused alike
DIGIT_LIMIT = 4300
_TOO_LONG = 10**DIGIT_LIMIT
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*$", re.IGNORECASE)


def require_ints(values, what):
    """Refuse with TypeError any of `values` that is not an int: a JSON
    true or false, which Python reads as 1 or 0, and a JSON decimal such
    as 1.0 are malformed input, not integers."""
    if any(type(v) is not int for v in values):
        raise TypeError(f"{what} must be integers")


def require_list(value, what):
    """`value` if it is a list or a tuple; anything else is refused with
    TypeError.  A JSON string, object or number where a list is read is
    malformed input: a string would be read one character at a time."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{what} must be a list")
    return value


def rational(x):
    """x as an int or a Fraction: the one reader of rationals given from
    outside, such as the strings "-3/4" and "1e-5".  An int or a Fraction
    comes back unchanged; anything else is read by Fraction.  A bool, a zero
    denominator, and a numerator or denominator of more than DIGIT_LIMIT
    digits are refused with TypeError or ValueError; an exponent beyond
    DIGIT_LIMIT places is refused before 10^exponent is built."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise TypeError("a bool is not a rational")
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if exponent and abs(int(exponent[1])) > DIGIT_LIMIT:
            raise ValueError(f"exponent of {x!r} beyond {DIGIT_LIMIT} places")
    try:
        q = Fraction(x)
    except (ZeroDivisionError, OverflowError) as e:
        raise ValueError(f"bad rational {x!r}: {e}") from None
    if abs(q.numerator) >= _TOO_LONG or q.denominator >= _TOO_LONG:
        raise ValueError(f"rational with more than {DIGIT_LIMIT} digits")
    return q


def _num_den(x):
    """Numerator and positive denominator of a rational, read without
    building a Fraction for an int."""
    if type(x) is int:
        return x, 1
    if type(x) is not Fraction:
        x = rational(x)
    return x.numerator, x.denominator


def _split(n, p):
    """(v, u) with the nonzero integer n = p^v u and p prime to u."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _class_int(x):
    """A nonzero integer in the square class of the rational x: num / den
    and num * den differ by the square den^2."""
    num, den = _num_den(x)
    if num == 0:
        raise LocalFieldError("0 has no square class")
    return num * den


def valuation(x, p) -> int:
    """p-adic valuation of a nonzero rational."""
    p = _as_prime(p).p
    num, den = _num_den(x)
    if num == 0:
        raise LocalFieldError("valuation of 0")
    return _split(num, p)[0] - _split(den, p)[0]


@dataclass(frozen=True)
class SquareClass:
    """An element of Qp*/Qp*^2.

    `val` is the valuation mod 2 and `unit` a canonical label for the unit
    part: 1 or the smallest non-residue for odd p, a residue in {1,3,5,7}
    mod 8 for p = 2.
    """

    prime: Prime
    val: int
    unit: int

    def __post_init__(self):
        if self.val not in (0, 1):
            raise LocalFieldError("val must be 0 or 1")
        if self.prime.odd:
            if self.unit not in (1, self.prime.nonresidue):
                raise LocalFieldError(
                    f"unit label must be 1 or {self.prime.nonresidue} for p={self.prime.p}"
                )
        elif self.unit not in (1, 3, 5, 7):
            raise LocalFieldError("unit label must be in {1,3,5,7} for p=2")

    def __mul__(self, other):
        if not isinstance(other, SquareClass):
            return NotImplemented
        if other.prime != self.prime:
            raise LocalFieldError("mismatched primes")
        p = self.prime
        if p.odd:
            u = 1 if p.legendre(self.unit * other.unit) == 1 else p.nonresidue
        else:
            u = self.unit * other.unit % 8
        return _square_class(p.p, (self.val + other.val) % 2, u)

    @property
    def is_trivial(self):
        return self.val == 0 and self.unit == 1

    @property
    def rep(self) -> int:
        """Canonical integer representative."""
        return self.unit * self.prime.p ** self.val

    def to_json(self):
        return {"p": self.prime.p, "val": self.val, "unit": self.unit}

    @classmethod
    def from_json(cls, d):
        require_ints((d["p"], d["val"], d["unit"]), "p, val and unit")
        return cls(Prime(d["p"]), d["val"], d["unit"])

    def __repr__(self):
        return f"SquareClass({self.rep} @ {self.prime.p})"


@lru_cache(maxsize=1024)
def _square_class(p, val, unit):
    # one validated instance per class, shared by every caller
    return SquareClass(_prime(p), val, unit)


def reduce(x, p) -> SquareClass:
    """Canonicalize a nonzero rational into Qp*/Qp*^2."""
    p = _as_prime(p)
    v, u = _split(_class_int(x), p.p)
    # the unit class of u: its Legendre symbol for odd p, its residue mod 8
    # for p = 2
    if p.odd:
        unit = 1 if p.legendre(u) == 1 else p.nonresidue
    else:
        unit = u % 8
    return _square_class(p.p, v % 2, unit)


def square_classes(p):
    """All square classes of Qp, via canonical integer representatives."""
    p = _as_prime(p)
    units = (1, p.nonresidue) if p.odd else (1, 3, 5, 7)
    return tuple(
        _square_class(p.p, v, u) for v in (0, 1) for u in units
    )


def square_class_reps(p):
    return tuple(c.rep for c in square_classes(p))


def _symbol(alpha, u, beta, v, p) -> int:
    """(p^alpha u, p^beta v)_p for integers u, v prime to p (Serre, A Course
    in Arithmetic, ch. III, Thm 1)."""
    if p == 2:
        # eps(u) = 1 iff u = 3 mod 4, omega(u) = 1 iff u = 3, 5 mod 8
        e = (u % 4 == 3) * (v % 4 == 3) + alpha * (v % 8 in (3, 5)) + beta * (u % 8 in (3, 5))
    else:
        e = alpha * beta * (p - 1) // 2
        if beta % 2 and pow(u, (p - 1) // 2, p) != 1:
            e += 1
        if alpha % 2 and pow(v, (p - 1) // 2, p) != 1:
            e += 1
    return -1 if e % 2 else 1


def _hilbert_int(a, b, p) -> int:
    """(a, b)_p for nonzero integers a, b and a prime p."""
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    return _symbol(alpha, u, beta, v, p)


def hilbert(a: SquareClass, b: SquareClass) -> int:
    """Quadratic Hilbert symbol (a,b)_p by the closed formulas."""
    if a.prime != b.prime:
        raise LocalFieldError("mismatched primes")
    return _symbol(a.val, a.unit, b.val, b.unit, a.prime.p)


def hilbert_rational(a, b, p) -> int:
    """(a, b)_p for nonzero rationals, from integers in their square classes."""
    p = _as_prime(p).p
    return _hilbert_int(_class_int(a), _class_int(b), p)


def least_non_norm(a, p) -> int:
    """The least positive integer u with (u, a)_p = -1: a rational element
    outside the norm group of Qp(sqrt a).

    For odd p it is p itself when a is a unit (the norms are the classes of
    even valuation) and the least quadratic non-residue when v_p(a) is odd
    (the unit norms are the residues).  At p = 2 the positive classes of
    Q2*/Q2*^2 are those of 1, 2, 3, 5, 6, 7, 10 and 14, so a scan of 2..14
    meets every class and ends at the least non-norm."""
    p = _as_prime(p)
    cls = reduce(a, p)
    if cls.is_trivial:
        raise LocalFieldError("a is a square at p: every element is a norm")
    if p.odd:
        return p.p if cls.val == 0 else p.nonresidue
    return next(u for u in range(2, 15) if hilbert(reduce(u, p), cls) == -1)


def _rational_sqrt(x: Fraction):
    """The nonnegative square root of x when it is a rational square, else None."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_mod(a, p):
    """A square root of the nonzero quadratic residue a mod the odd prime
    p (Tonelli-Shanks).  For p - 1 = q 2^s with q odd, x = a^((q+1)/2)
    has x^2 = a t with t = a^q of order 2^i < 2^s; each round multiplies
    x by the power b of c = (non-residue)^q of order 2^(i+1), and t by
    b^2, which lowers the order of t, until t = 1."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    c = pow(_nonresidue(p), q, p)
    x, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        x, c, s = x * b % p, b * b % p, i
        t = t * c % p
    return x


def non_norm_value(m, d, p):
    """Rationals (x, y) with t = x^2 + m y^2 nonzero and (t, d)_p = -1: a norm
    from Q(sqrt(-m)) outside the norms from Qp(sqrt d).  None when there is
    none: when -m and d share a square class at p, or d is a square there.

    If -m = r^2 is a rational square, x = (u* + 1)/2 and y = (u* - 1)/(2r)
    give t = u*, the least non-norm.  Otherwise y scales m y^2 to an integer
    M with v_p(M) <= 1, and t = x^2 + M for 0 <= x < 2p holds a solution:
    - v_p(M) = 1: the norm group of the ramified Qp(sqrt(-M)) is {1, M}, so
      x = 0 (t = M) works whenever anything does;
    - odd p, d a unit: t needs odd valuation; then -M = x0^2 mod p with
      0 < x0 < p, and x0 or x0 + p gives v_p(t) = 1, as the two values of t
      differ by 2 x0 p + p^2.  For a unit M only the four x < 2p congruent
      to +-x0 make p divide t, so x0 comes from `_sqrt_mod` and those four
      are tried in increasing order: the same x as the scan, in time
      bounded in log p;
    - odd p, v_p(d) odd, M a unit: a non-residue t works, and x^2 + M is one
      for (p - (-M|p))/2 >= 1 residues x.  The scan stops at the first;
      measured, not a bound: over the (m, d) grid of the tests at every
      odd prime below 400 and at 1000003, 2^31 - 1, 10^12 + 39 and
      2^61 - 1, the largest x is 10 (m = 1, d = p = 10^12 + 39);
    - p = 2: t mod 2^(v(t)+3) fixes the class of t, and a check of every M
      mod 64 against every class d (repeated in the tests) finds a working
      x < 4 with v_2(t) <= 3."""
    p = _as_prime(p)
    m = rational(m)
    if m == 0:
        raise LocalFieldError("the norm form x^2 + m y^2 needs m != 0")
    dc = reduce(d, p)
    if dc.is_trivial or reduce(-m, p) == dc:
        return None
    r = _rational_sqrt(-m)
    if r is not None:
        u = least_non_norm(d, p)
        return Fraction(u + 1, 2), Fraction(u - 1, 2) / r
    big, y = m.numerator * m.denominator, Fraction(m.denominator)
    while big % (p.p * p.p) == 0:
        big //= p.p * p.p
        y /= p.p
    xs = range(2 * p.p)
    if p.odd and dc.val == 0 and big % p.p:
        x0 = _sqrt_mod(-big, p.p)
        xs = sorted((x0, p.p - x0, p.p + x0, 2 * p.p - x0))
    for x in xs:
        t = x * x + big
        if t and hilbert_rational(t, d, p) == -1:
            return Fraction(x), y
    raise LocalFieldError(f"no value of x^2 + {m} y^2 outside the norms at {p.p}: residue argument violated")


def hilbert_real(a, b) -> int:
    """Hilbert symbol at the real place."""
    if a == 0 or b == 0:
        raise LocalFieldError("zero input")
    return -1 if a < 0 and b < 0 else 1


def hilbert_oracle(a: int, b: int, p) -> int:
    """Brute-force symbol: decide z^2 = a x^2 + b y^2 over Qp by two
    searches, z^2 = a + b s mod p^m_x and z^2 = b + a s mod p^m_y over the
    squares s, with m_x = 2 val_p(2a) + 1 and m_y = 2 val_p(2b) + 1.

    A primitive solution has x or y a unit, and scaling that unit to 1
    gives a solution of one search.  Conversely, a solution of the x = 1
    search with s = y^2 makes f(X) = a X^2 + b y^2 - z^2 vanish at X = 1
    mod p^m_x, and f'(1) = 2a with 2 val_p(2a) < m_x, so by Hensel's lemma
    (Serre, A Course in Arithmetic, ch. II 2.2) f has a root X = 1 mod p,
    a unit; the y = 1 search likewise with f'(1) = 2b.

    a and b are read without their even powers of p, which bounds the
    modulus by 2^5 at p = 2 and p^3 at odd p (the cap binds only for odd
    p > 368 at odd valuation, or p above it); x' = p^k x maps the solutions
    of z^2 = a p^(2k) x^2 + b y^2 onto those of z^2 = a x'^2 + b y^2.

    Independent of `hilbert`; used as its ground truth in tests.
    """
    p = _as_prime(p)
    if a == 0 or b == 0:
        raise LocalFieldError("zero input")
    a, b = (n // p.p ** (valuation(n, p) // 2 * 2) for n in (a, b))
    for u, t in ((a, b), (b, a)):
        # the search z^2 = u + t s, whose solutions lift since f'(1) = 2u
        m = 2 * valuation(2 * u, p) + 1
        pm = p.p ** m
        if pm > _ORACLE_MODULUS_CAP:
            raise LocalFieldError(f"oracle modulus {p.p}^{m} too large for desk scale")
        sq = frozenset(x * x % pm for x in range(pm))
        if any((u + t * s) % pm in sq for s in sq):
            return 1
    return -1


@dataclass(frozen=True)
class QuadExtension:
    """A quadratic extension E = F(sqrt(d)) of F = Qp, given by a nontrivial
    square class d.  The norm group N(E/F) has index two in F*."""

    base: Prime
    d: SquareClass

    def __post_init__(self):
        if self.d.prime != self.base:
            raise LocalFieldError("d lives over the wrong prime")
        if self.d.is_trivial:
            raise LocalFieldError("d must be a non-square")

    @classmethod
    def of(cls, d, p):
        p = _as_prime(p)
        return cls(p, reduce(d, p))


def eta(ext: QuadExtension, a) -> int:
    """Quadratic character of F* with kernel N(E/F), evaluated as (a, d)_F."""
    cls = a if isinstance(a, SquareClass) else reduce(a, ext.base)
    return hilbert(cls, ext.d)


@dataclass(frozen=True)
class ReciprocityReport:
    ok: bool
    product: int
    symbols: tuple  # ((place, symbol), ...) with place an int prime or "inf"


TRIAL_LIMIT = 10**6


def _proven_prime(n):
    return n < PSI_12 and is_prime(n)


def _trial_division(n):
    """(factors, cofactor) for a nonzero integer n: its prime factors up to
    TRIAL_LIMIT as [(prime, exponent), ...] in increasing order, and the
    cofactor left, which has none; the sign is dropped.  A cofactor below
    TRIAL_LIMIT^2 is 1 or prime.  A cofactor above TRIAL_LIMIT that
    `is_prime` proves prime, tested at the start and after each prime
    divided out, ends the division, which would leave it whole anyway."""
    if n == 0:
        raise LocalFieldError("0 has no factorization")
    n = abs(n)
    out = []
    d = 2
    if n > TRIAL_LIMIT and _proven_prime(n):
        return out, n
    while d <= TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            if n > TRIAL_LIMIT and _proven_prime(n):
                break
        d += 1 if d == 2 else 2
    return out, n


def _too_large(n):
    return LocalFieldError(
        f"cofactor {n} has no prime factor below {TRIAL_LIMIT} and is too large to certify"
    )


def _factorize(n) -> list:
    """Prime factorization of a nonzero integer by trial division up to
    TRIAL_LIMIT, as [(prime, exponent), ...] in increasing order; the sign
    is dropped.  A cofactor of TRIAL_LIMIT^2 or more is kept when
    `is_prime` proves it prime or the square of a prime, and refused
    otherwise."""
    out, c = _trial_division(n)
    if c < TRIAL_LIMIT**2 or _proven_prime(c):
        if c > 1:
            out.append((c, 1))
        return out
    s = isqrt(c)
    if s * s != c or not _proven_prime(s):
        raise _too_large(c)
    return out + [(s, 2)]


def squarefree_part(n: int) -> int:
    """The squarefree integer in the class of the nonzero integer n modulo
    squares; the sign is kept.  The cofactor c that trial division leaves
    has no prime factor up to TRIAL_LIMIT, so below TRIAL_LIMIT^3 it is a
    prime, a product of two primes or a prime squared: it counts 1 when it
    is a perfect square and is kept otherwise.  A cofactor of TRIAL_LIMIT^3
    or more counts 1 when it is a perfect square, is kept when `is_prime`
    proves it prime, and is refused otherwise."""
    factors, c = _trial_division(n)
    if isqrt(c) ** 2 == c:
        c = 1
    elif c >= TRIAL_LIMIT**3 and not _proven_prime(c):
        raise _too_large(c)
    out = c if n > 0 else -c
    for q, e in factors:
        if e % 2:
            out *= q
    return out


def reciprocity_check(a, b) -> ReciprocityReport:
    """Check the product formula prod_v (a,b)_v = 1 over all places of Q.

    Only places dividing 2ab and the real place can contribute a sign.  A
    failing product signals an implementation bug in the symbol formulas.
    """
    (an, ad), (bn, bd) = _num_den(a), _num_den(b)
    if an == 0 or bn == 0:
        raise LocalFieldError("zero input")
    support = {2}
    for n in (an, ad, bn, bd):
        support.update(q for q, _ in _factorize(n))
    a, b = an * ad, bn * bd
    symbols = [(p, _hilbert_int(a, b, p)) for p in sorted(support)]
    symbols.append(("inf", hilbert_real(a, b)))
    product = prod(s for _, s in symbols)
    return ReciprocityReport(product == 1, product, tuple(symbols))
