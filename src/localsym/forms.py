"""Classification of epsilon-hermitian spaces over a p-adic base by their
complete invariants: rank, discriminant and Hasse sign in the orthogonal
case, rank and the determinant norm-class bit in the unitary case, rank
alone in the symplectic case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .localfield import (
    LocalsymError,
    Prime,
    QuadExtension,
    SquareClass,
    _as_prime,
    _class_int,
    _split,
    _symbol,
    eta,
    hilbert,
    hilbert_rational,
    rational,
    reduce,
)
from . import numfield


class FormsError(LocalsymError):
    pass


class Case(enum.Enum):
    SYMPLECTIC = "symplectic"
    ORTHOGONAL = "orthogonal"
    UNITARY = "unitary"

    @property
    def eps(self) -> int:
        return -1 if self is Case.SYMPLECTIC else 1


@dataclass(frozen=True)
class DiagForm:
    """A diagonalized form: nonzero rational entries for the orthogonal and
    unitary cases (unitary diagonal entries lie in the base field), rank
    only for the symplectic case."""

    case: Case
    prime: Prime
    entries: tuple = ()
    ext: QuadExtension | None = None
    symplectic_rank: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(rational, self.entries)))
        if any(e == 0 for e in self.entries):
            raise FormsError("zero diagonal entry")
        if self.case is Case.SYMPLECTIC:
            if self.entries:
                raise FormsError("symplectic forms carry no diagonal entries")
            if self.symplectic_rank is None or self.symplectic_rank % 2:
                raise FormsError("symplectic rank must be given and even")
        elif self.case is Case.UNITARY:
            if self.ext is None or self.ext.base != self.prime:
                raise FormsError("unitary case needs a quadratic extension over the same prime")
        elif self.ext is not None:
            raise FormsError("orthogonal case takes no extension")

    @property
    def rank(self) -> int:
        if self.case is Case.SYMPLECTIC:
            return self.symplectic_rank
        return len(self.entries)


@dataclass(frozen=True)
class FormInvariants:
    case: Case
    rank: int
    disc: SquareClass | None = None
    hasse: int | None = None
    det_norm_bit: int | None = None

    def to_json(self):
        out = {"case": self.case.value, "rank": self.rank}
        if self.disc is not None:
            out["disc"] = self.disc.to_json()
        if self.hasse is not None:
            out["hasse"] = self.hasse
        if self.det_norm_bit is not None:
            out["det_norm_bit"] = self.det_norm_bit
        return out


def disc_and_hasse(entries, p) -> tuple[SquareClass, int]:
    """The discriminant class and the Hasse sign prod_{i<j} (a_i, a_j)_p of
    the diagonal form with nonzero rational entries a_i, in one pass.

    By bilinearity the sign is the product over j of the symbols
    (a_j, a_1 ... a_{j-1})_p.  The running product is kept as p^beta v,
    beta its valuation mod 2 and v its unit part mod 8p: the unit's class
    depends only on v mod p for odd p and on v mod 8 at p = 2, so every
    symbol and the final `reduce` act on numbers of bounded size."""
    p = _as_prime(p).p
    m = 8 * p
    h, beta, v = 1, 0, 1
    for e in entries:
        alpha, u = _split(_class_int(e), p)
        u %= m
        h *= _symbol(alpha, u, beta, v, p)
        beta = (beta + alpha) % 2
        v = v * u % m
    return reduce(p**beta * v, p), h


def split_gram(n: int, kernel=(), eps: int = 1):
    """The split form with a diagonal kernel, as rows of Fractions:
    antidiagonal one-blocks of size n around diag(kernel), the lower one
    scaled by eps."""
    m = 2 * n + len(kernel)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(n):
        rows[i][m - 1 - i] = Fraction(1)
        rows[m - 1 - i][i] = Fraction(eps)
    for i, e in enumerate(kernel):
        rows[n + i][n + i] = Fraction(e)
    return rows


def _check_symmetric(h):
    """Refuse integer rows that are not a square symmetric matrix."""
    n = len(h)
    for i in range(n):
        if len(h[i]) != n:
            raise FormsError("non-square matrix")
        for j in range(n):
            if h[i][j] != h[j][i]:
                raise FormsError("matrix is not symmetric")


def _eliminate(a, den):
    """The congruence diagonalization of H / den, in place on the integer
    rows a whose first n = len(a) columns are the symmetric H; returns the
    n diagonal entries and the previous pivot of each step.

    A vanishing pivot is repaired by a basis swap when some later diagonal
    entry is nonzero, else by adding the column of a nonzero off-diagonal
    entry (its doubled value is a valid pivot in characteristic zero).  A
    repair is one row operation followed by the same operation on the
    first n columns, and each step is `numfield.bareiss_step` (Bareiss
    1968), which carries every later column of a along.  The k-th entry is
    a_k / (den a_{k-1}) for the pivots a_k.  A repaired pivot is never
    zero: a swap brings a nonzero diagonal entry, and an added row j
    doubles H[k][j]."""
    n = len(a)
    entries, scales = [], []
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            s = next((i for i in range(k + 1, n) if a[i][i]), None)
            if s is not None:
                a[k], a[s] = a[s], a[k]
                for r in a:
                    r[k], r[s] = r[s], r[k]
            else:
                s = next((j for j in range(k + 1, n) if a[k][j]), None)
                if s is None:
                    raise FormsError("singular matrix")
                a[k] = [x + y for x, y in zip(a[k], a[s])]
                for r in a:
                    r[k] += r[s]
        entries.append(Fraction(a[k][k], den * prev))
        scales.append(prev)
        prev = numfield.bareiss_step(a, k, k, prev)
    return tuple(entries), scales


def congruent_diagonal(gram):
    """Symmetric congruence diagonalization over Q.

    Returns (entries, P) with t(P) G P = diag(entries), P invertible
    rational.  `_eliminate` runs on the augmented integer rows [h | tQ],
    h = D G: a row operation on them is the column operation on Q that
    mirrors it.  Clearing column k scales every later row of tQ by the
    pivot a_k over the previous pivot a_{k-1}, so column k of P is its
    integer column over a_{k-1}.
    """
    h, den = numfield.int_rows(gram)
    _check_symmetric(h)
    n = len(h)
    a = [r + [int(i == j) for j in range(n)] for i, r in enumerate(h)]
    entries, scales = _eliminate(a, den)
    return entries, [[Fraction(x, d) for x, d in zip(c, scales)] for c in list(zip(*a))[n:]]


def diagonal_entries(h, den):
    """The entries of `congruent_diagonal` for the gram h / den given as
    integer rows over a positive denominator, without the change of
    basis: `_eliminate` on h alone."""
    _check_symmetric(h)
    return _eliminate([list(r) for r in h], den)[0]


def diagonalize(gram, p, case: Case = Case.ORTHOGONAL, ext=None):
    """Diagonalize a symmetric rational Gram matrix into a DiagForm.

    Returns (form, P) with t(P) gram P diagonal."""
    if case is Case.SYMPLECTIC:
        raise FormsError("symplectic forms are not diagonalizable")
    entries, pmat = congruent_diagonal(gram)
    p = _as_prime(p)
    return DiagForm(case, p, entries, ext=ext), pmat


def invariants(f: DiagForm) -> FormInvariants:
    if f.case is Case.SYMPLECTIC:
        raise FormsError("rank is the only symplectic invariant")
    disc, hasse = disc_and_hasse(f.entries, f.prime)
    if f.case is Case.ORTHOGONAL:
        return FormInvariants(f.case, f.rank, disc=disc, hasse=hasse)
    return FormInvariants(f.case, f.rank, det_norm_bit=0 if eta(f.ext, disc) == 1 else 1)


def equivalent(f: DiagForm, g: DiagForm) -> bool:
    if f.case is not g.case or f.prime != g.prime or f.ext != g.ext:
        raise FormsError("mixed cases")
    if f.rank != g.rank:
        return False
    if f.case is Case.SYMPLECTIC:
        return True
    return invariants(f) == invariants(g)


def orbit_count(case: Case, rank: int, disc: SquareClass | None = None) -> int:
    """Number of equivalence classes with the given rank (and, in the
    orthogonal case, the given discriminant class)."""
    if rank < 1:
        raise FormsError("rank must be positive")
    if case is Case.SYMPLECTIC:
        if rank % 2:
            raise FormsError("symplectic spaces have even rank")
        return 1
    if case is Case.UNITARY:
        return 2
    if disc is None:
        raise FormsError("orthogonal count needs a discriminant class")
    if rank == 1:
        return 1
    if rank == 2:
        return 1 if disc == reduce(-1, disc.prime) else 2
    return 2


def is_anisotropic(entries, p) -> bool:
    """Anisotropy of a rational diagonal quadratic form over Qp, by the
    standard rank-by-rank criteria."""
    p = _as_prime(p)
    n = len(entries)
    if any(e == 0 for e in entries):
        raise FormsError("zero diagonal entry")
    if n == 0 or n == 1:
        return True
    if n == 2:
        return not reduce(-entries[0] * entries[1], p).is_trivial
    d, h = disc_and_hasse(entries, p)
    if n == 3:
        return h != hilbert(reduce(-1, p), reduce(-1, p) * d)
    if n == 4:
        return d.is_trivial and h != hilbert_rational(-1, -1, p)
    return False


def is_anisotropic_hermitian(entries, ext: QuadExtension) -> bool:
    """Anisotropy of a diagonal hermitian form (entries in the base field)
    relative to a quadratic extension."""
    n = len(entries)
    if n <= 1:
        return True
    if n == 2:
        return eta(ext, -entries[0] * entries[1]) == -1
    return False
