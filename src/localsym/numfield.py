"""Exact arithmetic in biquadratic fields Q(sqrt(a), sqrt(b)) with the two
commuting involutions sigma (negates sqrt(a)) and tau (negates sqrt(b)),
and matrices over them.

The degenerate quadratic model Q(sqrt(a)) with tau = id is served by the
same interface (pass b = None), so symplectic and orthogonal pairs run
through the same code path as unitary ones.

Identities checked here are polynomial identities over a global field and
therefore hold in every completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .localfield import LocalsymError, rational, require_list, squarefree_part


class NumFieldError(LocalsymError):
    pass


@dataclass(frozen=True)
class BiquadField:
    """Q(sqrt(a), sqrt(b)); pass b = None for the quadratic model Q(sqrt(a)).

    sigma negates sqrt(a) and fixes sqrt(b); tau negates sqrt(b) and fixes
    sqrt(a) (tau = id on the quadratic model).  The four subfields are
    Q (fixed field of both), Q(sqrt(a)) = fix(tau), Q(sqrt(b)) = fix(sigma)
    and Q(sqrt(ab)) = fix(sigma tau).
    """

    a: int
    b: int | None = None

    def __post_init__(self):
        if self.a in (0, 1) or squarefree_part(self.a) != self.a:
            raise NumFieldError(f"a={self.a} must be squarefree and != 0, 1")
        if self.b is not None:
            if self.b in (0, 1) or squarefree_part(self.b) != self.b:
                raise NumFieldError(f"b={self.b} must be squarefree and != 0, 1")
            if self.b == self.a:
                raise NumFieldError("a and b must be distinct")

    @property
    def is_quadratic(self):
        return self.b is None

    def element(self, c0, c1=0, c2=0, c3=0) -> "Bq":
        return Bq(self, (c0, c1, c2, c3))

    # the constants are immutable, so one object per field serves every caller
    @cached_property
    def zero(self):
        return self.element(0)

    @cached_property
    def one(self):
        return self.element(1)

    @cached_property
    def sqrt_a(self):
        return self.element(0, 1)

    @cached_property
    def sqrt_b(self):
        return self.element(0, 0, 1)

    @cached_property
    def sqrt_ab(self):
        return self.element(0, 0, 0, 1)


_new = object.__new__


def _raw(field, num, den):
    """The Bq num / den; num is a 4-tuple of ints already in lowest terms
    with the int den > 0."""
    x = _new(Bq)
    x.field = field
    x._num = num
    x._den = den
    return x


def _reduced(field, n0, n1, n2, n3, den):
    """The Bq (n0, n1, n2, n3) / den for ints with den > 0, in lowest terms."""
    if den != 1:
        g = gcd(n0, n1, n2, n3, den)
        if g != 1:
            n0 //= g
            n1 //= g
            n2 //= g
            n3 //= g
            den //= g
    return _raw(field, (n0, n1, n2, n3), den)


class Bq:
    """c0 + c1 sqrt(a) + c2 sqrt(b) + c3 sqrt(ab), exact rational coefficients.

    Stored as four integer numerators over one positive integer denominator
    in lowest terms, so equal values compare and hash equal; `coeffs` gives
    the coefficients as Fractions.  Treat instances as immutable.
    """

    __slots__ = ("field", "_num", "_den")

    def __init__(self, field: BiquadField, coeffs):
        """coeffs: four ints, Fractions or strings such as "-3/4"."""
        if len(coeffs) != 4:
            raise NumFieldError("need 4 coefficients")
        cs = [rational(c) for c in coeffs]
        if field.is_quadratic and (cs[2] or cs[3]):
            raise NumFieldError("quadratic model has no sqrt(b) component")
        den = lcm(*(c.denominator for c in cs))
        self.field = field
        self._num = tuple(int(c.numerator) * (den // c.denominator) for c in cs)
        self._den = den

    @property
    def coeffs(self) -> tuple:
        d = self._den
        return tuple(Fraction(n, d) for n in self._num)

    def _lift(self, other):
        if isinstance(other, Bq):
            if other.field is not self.field and other.field != self.field:
                raise NumFieldError("mixed fields")
            return other
        if isinstance(other, int):
            return _raw(self.field, (int(other), 0, 0, 0), 1)
        if isinstance(other, Fraction):
            return _raw(self.field, (other.numerator, 0, 0, 0), other.denominator)
        return None

    def __eq__(self, other):
        if not isinstance(other, Bq):
            return NotImplemented
        return (
            self._num == other._num
            and self._den == other._den
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.field, self._num, self._den))

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        x0, x1, x2, x3 = self._num
        y0, y1, y2, y3 = o._num
        d, e = self._den, o._den
        if d == e:
            return _reduced(self.field, x0 + y0, x1 + y1, x2 + y2, x3 + y3, d)
        return _reduced(self.field, x0 * e + y0 * d, x1 * e + y1 * d, x2 * e + y2 * d, x3 * e + y3 * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        x0, x1, x2, x3 = self._num
        return _raw(self.field, (-x0, -x1, -x2, -x3), self._den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        x0, x1, x2, x3 = self._num
        y0, y1, y2, y3 = o._num
        d, e = self._den, o._den
        if d == e:
            return _reduced(self.field, x0 - y0, x1 - y1, x2 - y2, x3 - y3, d)
        return _reduced(self.field, x0 * e - y0 * d, x1 * e - y1 * d, x2 * e - y2 * d, x3 * e - y3 * d, d * e)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        field = self.field
        x0, x1, x2, x3 = self._num
        y0, y1, y2, y3 = o._num
        a, b = field.a, field.b
        den = self._den * o._den
        if b is None:
            return _reduced(field, x0 * y0 + a * x1 * y1, x0 * y1 + x1 * y0, 0, 0, den)
        return _reduced(
            field,
            x0 * y0 + a * x1 * y1 + b * (x2 * y2 + a * x3 * y3),
            x0 * y1 + x1 * y0 + b * (x2 * y3 + x3 * y2),
            x0 * y2 + x2 * y0 + a * (x1 * y3 + x3 * y1),
            x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
            den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    @property
    def is_zero(self):
        return self._num == (0, 0, 0, 0)

    @property
    def is_rational(self):
        _, x1, x2, x3 = self._num
        return not (x1 or x2 or x3)

    @property
    def rational(self) -> Fraction:
        if not self.is_rational:
            raise NumFieldError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    def sigma(self):
        x0, x1, x2, x3 = self._num
        return _raw(self.field, (x0, -x1, x2, -x3), self._den)

    def tau(self):
        if self.field.is_quadratic:
            return self
        x0, x1, x2, x3 = self._num
        return _raw(self.field, (x0, x1, -x2, -x3), self._den)

    def sigma_tau(self):
        x0, x1, x2, x3 = self._num
        return _raw(self.field, (x0, -x1, -x2, x3), self._den)

    def apply(self, which: str):
        """Apply an involution by name: 'sigma', 'tau' or 'sigma_tau'."""
        if which not in ("sigma", "tau", "sigma_tau"):
            raise NumFieldError(f"unknown involution {which!r}")
        return getattr(self, which)()

    def norm_to_E(self):
        """Norm to the subfield fixed by tau."""
        return self * self.tau()

    def norm_to_Fp(self):
        """Norm to the subfield fixed by sigma."""
        return self * self.sigma()

    def norm_to_Q(self) -> Fraction:
        n = self * self.sigma() * self.tau() * self.sigma_tau()
        return n.rational

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of 0")
        field = self.field
        a, b = field.a, field.b
        x0, x1, x2, x3 = self._num
        if b is None:
            # 1 / (x0 + x1 ra) = (x0 - x1 ra) / (x0^2 - a x1^2)
            n = x0 * x0 - a * x1 * x1
            c0, c1, c2, c3 = x0, -x1, 0, 0
        else:
            # u = x tau(x) lies in Q(ra), and 1/x = tau(x) sigma(u) / (u sigma(u))
            u0 = x0 * x0 + a * x1 * x1 - b * (x2 * x2 + a * x3 * x3)
            u1 = 2 * (x0 * x1 - b * x2 * x3)
            n = u0 * u0 - a * u1 * u1
            c0, c1, c2, c3 = x0 * u0 - a * x1 * u1, x1 * u0 - x0 * u1, a * x3 * u1 - x2 * u0, x2 * u1 - x3 * u0
        # x = num / den, so 1/x = den * c / n
        d = self._den if n > 0 else -self._den
        return _reduced(field, c0 * d, c1 * d, c2 * d, c3 * d, abs(n))

    def to_json(self):
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        names = ("", "*ra", "*rb", "*rab")
        parts = [f"{c}{n}" for c, n in zip(self.coeffs, names) if c]
        return "Bq(" + (" + ".join(parts) if parts else "0") + ")"


def recover_hilbert90(x: Bq, which: str = "tau") -> Bq:
    """Given x with x * inv(x) = 1, return c with c / inv(c) = x.

    c = 1 + x works unless x = -1, where the generator negated by the
    involution does (sqrt(b) for tau, sqrt(a) for sigma, sqrt(ab) for
    sigma_tau).  Both choices of c are nonzero, so c / inv(c) = x is checked
    as the product c = x * inv(c); for c = 1 + x that is x * inv(x) = 1.
    """
    c = x + 1
    if c.is_zero:
        f = x.field
        gens = {"sigma": f.sqrt_a}
        if not f.is_quadratic:
            gens["tau"] = f.sqrt_b
            gens["sigma_tau"] = f.sqrt_ab
        try:
            c = gens[which]
        except KeyError:
            raise NumFieldError(f"no generator is negated by {which!r} here")
    if c != x * c.apply(which):
        raise NumFieldError("x is not of norm one")
    return c


# ---------------------------------------------------------------------------
# rational matrices: integer rows over one common denominator


def int_rows(rows):
    """(numerators, den): the entries of a rational matrix (ints, Fractions
    or strings such as "-3/4") as lists of integer numerators over one
    positive common denominator, in lowest terms.  Rows are read one by one,
    so a ragged input comes back ragged; the matrix and each row must be a
    list or a tuple."""
    rows = [[rational(x) for x in require_list(r, "a matrix row")] for r in require_list(rows, "a matrix")]
    den = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (den // x.denominator) for x in r] for r in rows], den


def int_mul(a, b):
    """The product of two matrices given as integer rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in cols] for r in a]


def bareiss_step(a, k, c, prev):
    """Eliminate column c below row k of the integer rows a in place, by
    one fraction-free (Bareiss) step, and return the pivot a[k][c]: in the
    columns after c each later row becomes (pivot * row - row[c] * row k)
    / prev, prev being the pivot of the step before (1 at the first), and
    each quotient is exact (Sylvester's identity).  Column c is left as it
    was and is not read again."""
    rk = a[k]
    pk = rk[c]
    for ri in a[k + 1:]:
        f = ri[c]
        for j in range(c + 1, len(rk)):
            ri[j] = (pk * ri[j] - f * rk[j]) // prev
    return pk


def int_echelon(rows):
    """(pivots, minor): the pivot columns of integer rows, whose columns
    there span the column space, and the signed minor on the pivot rows
    and columns (1 when there are none), by Bareiss row reduction
    (`bareiss_step`).  A column with no nonzero entry left below the
    pivots is skipped."""
    a = [list(r) for r in rows]
    n = len(a)
    pivots, sign, prev = [], 1, 1
    for c in range(len(a[0]) if a else 0):
        k = len(pivots)
        piv = next((i for i in range(k, n) if a[i][c]), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        prev = bareiss_step(a, k, c, prev)
        pivots.append(c)
        if k + 1 == n:
            break
    return pivots, sign * prev


def int_det(rows) -> int:
    """The determinant of a square matrix of integer rows: the minor of
    `int_echelon` when every column is a pivot, else 0."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NumFieldError("not a square matrix")
    pivots, minor = int_echelon(rows)
    return minor if len(pivots) == n else 0


class Mat:
    """An immutable matrix over a biquadratic field.

    `_split` is the x whose split this matrix is known to be (see
    `recover_hilbert90_matrix`), else None; it takes no part in equality."""

    __slots__ = ("field", "rows", "n", "m", "_split")

    def __init__(self, field: BiquadField, rows: Sequence[Sequence[Bq]]):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        self.m = len(self.rows[0]) if self.rows else 0
        self._split = None
        for r in self.rows:
            if len(r) != self.m:
                raise NumFieldError("ragged rows")

    @classmethod
    def _of(cls, field, rows) -> "Mat":
        """The matrix on rows, a tuple of row tuples of one length, without
        the copy and the check: for the matrices the kernel builds itself,
        `identity`, `diagonal`, `block_diag` and `antidiag_ones` included."""
        g = _new(cls)
        g.field = field
        g.rows = rows
        g.n = len(rows)
        g.m = len(rows[0]) if rows else 0
        g._split = None
        return g

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls._of(field, tuple(tuple([one if i == j else zero for j in range(n)]) for i in range(n)))

    @classmethod
    def from_rational(cls, field, rows):
        return cls(field, [[field.element(x) for x in r] for r in rows])

    @classmethod
    def diagonal(cls, field, entries):
        entries = [e if isinstance(e, Bq) else field.element(e) for e in entries]
        zero = field.zero
        n = len(entries)
        return cls._of(field, tuple(tuple([entries[i] if i == j else zero for j in range(n)]) for i in range(n)))

    @classmethod
    def block_diag(cls, field, blocks):
        n = sum(b.n for b in blocks)
        zero = field.zero
        rows = [[zero] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(b.n):
                for j in range(b.m):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.n
        return cls._of(field, tuple(map(tuple, rows)))

    @classmethod
    def antidiag_ones(cls, field, n):
        """The matrix w_n with ones on the antidiagonal."""
        one, zero = field.one, field.zero
        return cls._of(field, tuple(tuple([one if i + j == n - 1 else zero for j in range(n)]) for i in range(n)))

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Bq)):
            s = other if isinstance(other, Bq) else self.field.element(other)
            return Mat._of(self.field, tuple(tuple([e * s for e in r]) for r in self.rows))
        if not isinstance(other, Mat):
            return NotImplemented
        if self.m != other.n:
            raise NumFieldError("dimension mismatch")
        # row i is the sum over the nonzero r[k] of r[k] times row k's nonzeros
        zero = self.field.zero
        terms = [[(j, f) for j, f in enumerate(r) if f._num != (0, 0, 0, 0)] for r in other.rows]
        out = []
        for r in self.rows:
            row = [zero] * other.m
            for e, ts in zip(r, terms):
                if ts and e._num != (0, 0, 0, 0):
                    for j, f in ts:
                        acc = row[j]
                        row[j] = e * f if acc is zero else acc + e * f
            out.append(tuple(row))
        return Mat._of(self.field, tuple(out))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Mat) or (self.n, self.m) != (other.n, other.m):
            raise NumFieldError("dimension mismatch")
        return Mat._of(
            self.field,
            tuple(tuple([x + y for x, y in zip(r, s)]) for r, s in zip(self.rows, other.rows)),
        )

    @property
    def T(self):
        return Mat._of(self.field, tuple(zip(*self.rows)))

    def _automorphism(self, fn):
        """An automorphism fn on the nonzero entries; zeros stay the field's zero."""
        zero = self.field.zero
        return Mat._of(self.field, tuple(tuple([zero if e._num == (0, 0, 0, 0) else fn(e) for e in r])
                                         for r in self.rows))

    def sigma(self):
        return self._automorphism(Bq.sigma)

    def tau(self):
        return self._automorphism(Bq.tau)

    def sigma_tau(self):
        return self._automorphism(Bq.sigma_tau)

    @property
    def is_identity(self):
        if self.n != self.m:
            return False
        one, zero = self.field.one, self.field.zero
        for i, r in enumerate(self.rows):
            for j, e in enumerate(r):
                if e != (one if i == j else zero):
                    return False
        return True

    @property
    def is_rational(self):
        return all(e.is_rational for r in self.rows for e in r)

    def int_rows(self):
        """(numerators, den) of a rational matrix, as `int_rows` gives them
        for its entries: each entry's numerator and denominator are read
        from its Bq, which keeps them in lowest terms."""
        if not self.is_rational:
            raise NumFieldError("matrix is not rational")
        rows = self.rows
        den = lcm(*(e._den for r in rows for e in r))
        return [[e._num[0] * (den // e._den) for e in r] for r in rows], den

    def det(self) -> Bq:
        if self.n != self.m:
            raise NumFieldError("determinant of non-square matrix")
        n = self.n
        if n == 0:
            return self.field.one
        rows = [list(r) for r in self.rows]
        det = self.field.one
        for col in range(n):
            piv = next((i for i in range(col, n) if rows[i][col]._num != (0, 0, 0, 0)), None)
            if piv is None:
                return self.field.zero
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = -det
            rc = rows[col]
            det = det * rc[col]
            inv = rc[col].inverse()
            # columns up to col are read no more; a zero of rc leaves its column
            cols = [j for j in range(col + 1, n) if rc[j]._num != (0, 0, 0, 0)]
            for ri in rows[col + 1:]:
                if ri[col]._num == (0, 0, 0, 0):
                    continue
                f = ri[col] * inv
                for j in cols:
                    ri[j] = ri[j] - f * rc[j]
        return det

    def inv(self):
        if self.n != self.m:
            raise NumFieldError("inverse of non-square matrix")
        n = self.n
        field = self.field
        ident = Mat.identity(field, n).rows
        aug = [list(r) + list(ident[i]) for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = next((i for i in range(col, n) if not aug[i][col].is_zero), None)
            if piv is None:
                raise NumFieldError("singular matrix")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = aug[col][col].inverse()
            aug[col] = [x * inv for x in aug[col]]
            for i in range(n):
                if i == col or aug[i][col].is_zero:
                    continue
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
        return Mat._of(field, tuple(tuple(r[n:]) for r in aug))

    def to_json(self):
        return [[e.to_json() for e in r] for r in self.rows]

    def __repr__(self):
        return f"Mat({self.n}x{self.m} over {self.field})"


def conj_transpose(g: Mat, which: str = "tau") -> Mat:
    if which not in ("sigma", "tau", "sigma_tau"):
        raise NumFieldError(f"unknown involution {which!r}")
    return getattr(g.T, which)()


def is_eps_hermitian(j: Mat, eps: int) -> bool:
    """t(j)^tau = eps * j."""
    return conj_transpose(j, "tau") == j * eps


def in_isometry_group(g: Mat, j: Mat, eps: int | None = None) -> bool:
    """Exact test of t(g)^tau j g = j."""
    if g.n != g.m or j.n != j.m or g.n != j.n:
        raise NumFieldError("dimension mismatch")
    if eps is not None and not is_eps_hermitian(j, eps):
        raise NumFieldError("form is not eps-hermitian")
    return conj_transpose(g, "tau") * j * g == j


def in_symmetric_space(x: Mat, j: Mat, eps: int | None = None) -> bool:
    """Isometry test plus the twisted-symmetry condition x sigma(x) = I."""
    return in_isometry_group(x, j, eps) and (x * x.sigma()).is_identity


def splits(z: Mat, x: Mat) -> bool:
    """Whether z sigma(z)^-1 = x, checked without an inverse: det z != 0
    and z = x sigma(z), one determinant and one product.  A z that
    `recover_hilbert90_matrix` returned for this very x object has been
    certified already and is not tested again; Mat and Bq are immutable, so
    the objects fix the values, and an equal but distinct x is tested in
    full.  Raises NumFieldError when z is not square or x is not of z's
    size."""
    if (x.n, x.m) != (z.n, z.m):
        raise NumFieldError("dimension mismatch")
    if z._split is x:
        return True
    return z.det()._num != (0, 0, 0, 0) and x * z.sigma() == z


def recover_hilbert90_matrix(x: Mat) -> Mat:
    """Given x with x sigma(x) = I, return invertible z with z sigma(z)^-1 = x.

    z = c + x sigma(c) satisfies z = x sigma(z) for every c.  Take
    c = (1 + t sqrt(a)) I for t = 0, 1, ..., n, so that
    z_t = (1 + t sqrt(a)) I + (1 - t sqrt(a)) x and
    det z_t = (1 - t sqrt(a))^n det(s_t I + x), s_t = (1 + t sqrt(a)) / (1 - t sqrt(a)).
    t -> s_t is injective on Q and the monic degree-n polynomial
    det(s I + x) has at most n roots, so some t <= n gives an invertible z_t.
    A non-rational x takes the first z_t that `splits` it, which certifies
    it; when none does, x sigma(x) != I.  The z returned is marked as the
    split of this x object, so `splits(z, x)` does not certify it a second
    time.  A non-square x raises "dimension mismatch".

    A rational x = X / d (integer rows X) is split in closed form and
    certified by the one integer identity X X = d^2 I:
    - sigma(x) = x, so z_t - x sigma(z_t) = (1 + t sqrt(a)) (I - x^2), and
      some z_t splits x exactly when x^2 = I; otherwise the search fails
      at every t and the same error is raised.
    - When x^2 = I, Q^n = ker(x - I) + ker(x + I).  z_1 acts as 2 on the
      first summand and as 2 sqrt(a) on the second, so
      det z_1 = 2^n sqrt(a)^dim ker(x + I) != 0.
    - z_0 = I + x is 2I for x = I and singular for any other such x, as
      (x - I)(x + I) = 0.
    So t = 0 for x = I, else t = 1, and the z returned and the error raised
    are those of the search from t = 0.
    """
    if x.n != x.m:
        raise NumFieldError("dimension mismatch")
    field = x.field
    zero = field.zero
    if x.is_rational:
        rows, d = x.int_rows()
        d_ident = [[d if i == j else 0 for j in range(x.n)] for i in range(x.n)]
        if int_mul(rows, rows) != [[d * e for e in r] for r in d_ident]:
            raise NumFieldError("no z_t with t <= n splits x")
        t = 0 if rows == d_ident else 1
        # z_t = ((d I + X) + t sqrt(a) (d I - X)) / d, zero exactly where d I and X are
        z = Mat._of(field, tuple(tuple([_reduced(field, p + e, t * (p - e), 0, 0, d) if p or e else zero
                                        for p, e in zip(dr, r)]) for dr, r in zip(d_ident, rows)))
        z._split = x
        return z
    for t in range(x.n + 1):
        c, cs = field.element(1, t), field.element(1, -t)
        z = Mat._of(field, tuple(tuple([cs * e + c if i == j else zero if e._num == (0, 0, 0, 0) else cs * e
                                         for j, e in enumerate(r)]) for i, r in enumerate(x.rows)))
        if splits(z, x):
            z._split = x
            return z
    raise NumFieldError("no z_t with t <= n splits x")
