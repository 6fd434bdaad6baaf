"""Classification of epsilon-hermitian spaces over a p-adic base by their
complete invariants: rank, discriminant and Hasse sign in the orthogonal
case, rank and the determinant norm-class bit in the unitary case, rank
alone in the symplectic case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .localfield import (
    Prime,
    QuadExtension,
    SquareClass,
    eta,
    hilbert,
    hilbert_rational,
    rational,
    reduce,
)
from . import numfield


class FormsError(ValueError):
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

    def to_json(self):
        return {
            "case": self.case.value,
            "p": self.prime.p,
            "entries": [str(e) for e in self.entries],
            "ext_d": self.ext.d.to_json() if self.ext else None,
            "rank": self.rank,
        }


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


def disc_class(entries, p) -> SquareClass:
    """The class of the product of int or Fraction entries, formed from the
    integers num * den, each in its entry's square class."""
    d = 1
    for e in entries:
        d *= e.numerator * e.denominator
    return reduce(d, p)


def hasse_invariant(entries, p) -> int:
    """Product of Hilbert symbols over pairs i < j of diagonal entries."""
    classes = [reduce(e, p) for e in entries]
    h = 1
    for x, y in combinations(classes, 2):
        h *= hilbert(x, y)
    return h


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


def congruent_diagonal(gram):
    """Symmetric congruence diagonalization over Q.

    Returns (entries, P) with t(P) G P = diag(entries), P invertible
    rational.  A vanishing pivot is repaired by a basis swap when some
    later diagonal entry is nonzero, else by adding the column of a
    nonzero off-diagonal entry (its doubled value is a valid pivot in
    characteristic zero).

    The elimination is fraction-free (Bareiss 1968) on the integer
    numerators h = D G: clearing row k scales every later column of P by
    the pivot a_k over the previous pivot a_{k-1}, each quotient being
    exact, so column k of P is its integer column over a_{k-1} and the
    k-th entry is a_k / (D a_{k-1}).
    """
    h, den = numfield.int_rows(gram)
    n = len(h)
    for i in range(n):
        if len(h[i]) != n:
            raise FormsError("non-square matrix")
        for j in range(n):
            if h[i][j] != h[j][i]:
                raise FormsError("matrix is not symmetric")
    q = [[int(i == j) for j in range(n)] for i in range(n)]

    def add_col(dst, src):
        # column operation plus the mirroring row operation on h
        for i in range(n):
            h[i][dst] += h[i][src]
        for j in range(n):
            h[dst][j] += h[src][j]
        for i in range(n):
            q[i][dst] += q[i][src]

    def swap_cols(i, j):
        for r in range(n):
            h[r][i], h[r][j] = h[r][j], h[r][i]
        h[i], h[j] = h[j], h[i]
        for r in range(n):
            q[r][i], q[r][j] = q[r][j], q[r][i]

    entries, scales = [], []
    prev = 1
    for k in range(n):
        if h[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if h[i][i] != 0), None)
            if swap is not None:
                swap_cols(k, swap)
            else:
                j = next((j for j in range(k + 1, n) if h[k][j] != 0), None)
                if j is None:
                    raise FormsError("singular matrix")
                add_col(k, j)
        hk = h[k]
        piv = hk[k]
        entries.append(Fraction(piv, den * prev))
        scales.append(prev)
        for i in range(k + 1, n):
            hi = h[i]
            f = hi[k]
            for j in range(k + 1, n):
                hi[j] = (piv * hi[j] - f * hk[j]) // prev
        for r in q:
            qk = r[k]
            for j in range(k + 1, n):
                r[j] = (piv * r[j] - hk[j] * qk) // prev
        prev = piv
    entries = tuple(entries)
    if any(e == 0 for e in entries):
        raise FormsError("singular matrix")
    return entries, [[Fraction(x, s) for x, s in zip(r, scales)] for r in q]


def diagonalize(gram, p, case: Case = Case.ORTHOGONAL, ext=None):
    """Diagonalize a symmetric rational Gram matrix into a DiagForm.

    Returns (form, P) with t(P) gram P diagonal."""
    if case is Case.SYMPLECTIC:
        raise FormsError("symplectic forms are not diagonalizable")
    entries, pmat = congruent_diagonal(gram)
    p = p if isinstance(p, Prime) else Prime(p)
    return DiagForm(case, p, entries, ext=ext), pmat


def invariants(f: DiagForm) -> FormInvariants:
    if f.case is Case.SYMPLECTIC:
        raise FormsError("rank is the only symplectic invariant")
    if f.case is Case.ORTHOGONAL:
        return FormInvariants(
            f.case,
            f.rank,
            disc=disc_class(f.entries, f.prime),
            hasse=hasse_invariant(f.entries, f.prime),
        )
    det = Fraction(1)
    for e in f.entries:
        det *= e
    bit = 0 if eta(f.ext, det) == 1 else 1
    return FormInvariants(f.case, f.rank, det_norm_bit=bit)


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
    p = p if isinstance(p, Prime) else Prime(p)
    n = len(entries)
    if any(e == 0 for e in entries):
        raise FormsError("zero diagonal entry")
    if n == 0 or n == 1:
        return True
    if n == 2:
        return not reduce(-entries[0] * entries[1], p).is_trivial
    d = disc_class(entries, p)
    h = hasse_invariant(entries, p)
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
