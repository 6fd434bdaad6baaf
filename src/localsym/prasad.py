"""Quadratic-character bookkeeping for quasi-split classical groups: the
character table rows, spinor norms by constructive reflection
decomposition, the determinant pullback for unitary groups, and the
opposition-group involution on descriptors.

Spinor norms are computed over Q and only then reduced at a prime, so one
decomposition serves every completion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from . import localfield
from .forms import congruent_diagonal, is_anisotropic, split_gram
from .localfield import QuadExtension, SquareClass, hilbert_rational, rational, reduce
from .numfield import Bq, Mat, NumFieldError, RatMat, conj_transpose, recover_hilbert90


class PrasadError(ValueError):
    pass


class Family(enum.Enum):
    GL = "GL"
    U = "U"
    SP = "Sp"
    SO = "SO"


def squarefree_part(n: int) -> int:
    if n == 0:
        raise PrasadError("zero has no squarefree part")
    return localfield.squarefree_part(n)


@dataclass(frozen=True)
class GroupDescriptor:
    """family GL(m) / U(m, K/F) / Sp(m) / SO(m, form).

    U stores the squarefree integer generating K (None means K = E when an
    extension is supplied later); SO stores the diagonal anisotropic kernel
    of its quasi-split defining form (size 0, 1 or 2)."""

    family: Family
    m: int
    k_gen: int | None = None
    so_kernel: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "so_kernel", tuple(map(rational, self.so_kernel)))
        if self.m < 1:
            raise PrasadError("size must be positive")
        if self.family is Family.SP and self.m % 2:
            raise PrasadError("symplectic size must be even")
        if self.family is Family.U and self.k_gen is not None:
            if squarefree_part(self.k_gen) != self.k_gen or self.k_gen == 1:
                raise PrasadError("K generator must be squarefree and nontrivial")
        if self.family is Family.SO:
            n0 = len(self.so_kernel)
            if (self.m - n0) % 2 or n0 > min(self.m, 4):
                raise PrasadError("kernel size incompatible with the matrix size")
        elif self.so_kernel:
            raise PrasadError("only SO stores a kernel form")

    @property
    def so_kernel_size(self):
        return len(self.so_kernel)

    def to_json(self):
        out = {"family": self.family.value, "m": self.m}
        if self.family is Family.U:
            out["k"] = self.k_gen
        if self.family is Family.SO:
            out["kernel"] = [str(e) for e in self.so_kernel]
        return out

    @classmethod
    def from_json(cls, d):
        fam = Family(d["family"])
        kernel = d.get("kernel", ())
        if fam is Family.SO and "kernel" not in d:
            kernel = (1,) if d["m"] % 2 else ()
        return cls(fam, d["m"], d.get("k"), kernel)


@dataclass(frozen=True)
class CharacterFormula:
    """A quadratic character as a symbolic composition: the named quadratic
    character of the named extension, raised to `exponent`, precomposed
    with det / sn / wsn (or nothing at all)."""

    kind: str  # "trivial" | "det" | "sn" | "wsn"
    exponent: int = 0
    eta_of: str | None = None  # "E/F" or "EK/K"

    @property
    def is_trivial(self):
        return self.kind == "trivial" or self.exponent % 2 == 0

    def to_json(self):
        if self.kind == "trivial":
            return {"kind": "trivial"}
        return {"kind": self.kind, "exponent": self.exponent, "eta": self.eta_of}


def prasad_character(Y: GroupDescriptor, E: QuadExtension) -> CharacterFormula:
    """The table row for the descriptor relative to the extension E/F."""
    if Y.family is Family.GL:
        return CharacterFormula("det", Y.m - 1, "E/F")
    if Y.family is Family.SP:
        return CharacterFormula("trivial")
    if Y.family is Family.SO:
        n0 = Y.so_kernel_size
        if n0 > 2:
            raise PrasadError("descriptor is not quasi-split")
        if n0 == 2 and not is_anisotropic(Y.so_kernel, E.base):
            raise PrasadError("descriptor is not quasi-split at this prime")
        return CharacterFormula("sn", n0, "E/F") if n0 else CharacterFormula("trivial")
    # unitary
    if Y.k_gen is None or reduce(Y.k_gen, E.base) == E.d:
        return CharacterFormula("trivial")
    if (reduce(Y.k_gen, E.base) * E.d).is_trivial:
        return CharacterFormula("trivial")  # K = E locally
    return CharacterFormula("wsn", Y.m - 1, "EK/K")


def opposition_group(Y: GroupDescriptor, e_gen: int) -> GroupDescriptor:
    """The opposition descriptor relative to E = F(sqrt(e_gen)): general
    linear and unitary-over-E swap, symplectic and special orthogonal are
    their own opposites, and a sideways unitary group moves to the third
    quadratic subextension."""
    e_gen = squarefree_part(e_gen)
    if Y.family is Family.GL:
        return GroupDescriptor(Family.U, Y.m, k_gen=e_gen)
    if Y.family in (Family.SP, Family.SO):
        return Y
    if Y.k_gen is None or Y.k_gen == e_gen:
        return GroupDescriptor(Family.GL, Y.m)
    third = squarefree_part(Y.k_gen * e_gen)
    return GroupDescriptor(Family.U, Y.m, k_gen=third)


# ---------------------------------------------------------------------------
# spinor norm by constructive reflection decomposition


def w_gram(m: int):
    """The antidiagonal unit form."""
    return split_gram(m // 2, (1,) * (m % 2))


def _isometry_data(g, gram):
    """g and its gram (w_gram by default) as RatMats, checked once: g square
    and non-empty, the gram of the same size."""
    try:
        g = RatMat.of(g)
        gram = RatMat.of(gram) if gram is not None else None
    except NumFieldError as e:
        raise PrasadError(f"malformed matrix: {e}")
    m = g.n
    if m == 0 or g.m != m:
        raise PrasadError("the matrix must be square and non-empty")
    if gram is None:
        gram = RatMat.of(w_gram(m))
    elif (gram.n, gram.m) != (m, m):
        raise PrasadError("the gram must be square of the matrix's size")
    return g, gram


@lru_cache(maxsize=64)
def _frame(gram: RatMat):
    """The diagonal frame of a gram, fixed by its entries: the diagonal D as
    integer numerators over one denominator, the change of basis P and
    P^-1 = D^-1 tP G, as tP G P = D."""
    entries, pmat = congruent_diagonal(gram.fractions())
    diag = RatMat.of([entries])
    pmat = RatMat.of(pmat)
    m = len(entries)
    d_inv = RatMat.of([[1 / e if i == j else 0 for j in range(m)] for i, e in enumerate(entries)])
    return diag.rows[0], diag.den, pmat, d_inv * pmat.T * gram


def _reflections(g: RatMat, gram: RatMat):
    """Reflections taking g to the identity, found in the diagonal frame of
    the gram, where every basis vector is anisotropic: a column that moves
    is fixed by one reflection when the difference vector is anisotropic
    and by two otherwise.

    The frame's work matrix is kept as integer rows W over one denominator
    den, and a reflection vector as integer numerators V (any scale gives
    the same reflection): s_V maps W / den to (Q W - 2 V S) / (Q den) with
    Q = sum_i d_i V_i^2 and S_c = sum_i d_i V_i W_ic, where d / dd is the
    frame's diagonal.  Returns the frame and [(V, den, Q)], one entry per
    reflection in application order, so that g = s_1 ... s_t: the vector
    is V / den, with q-value Q / (dd den^2).
    """
    if g.T * gram * g != gram:
        raise PrasadError("matrix does not preserve the form")
    frame = d, dd, pmat, pinv = _frame(gram)
    work = pinv * g * pmat
    w, den = [list(r) for r in work.rows], work.den
    m = len(w)
    factors = []

    def reflect(v, v_den):
        nonlocal w, den
        dv = list(map(mul, d, v))
        q = sum(map(mul, dv, v))
        s = [sum(map(mul, dv, col)) for col in zip(*w)]
        w = [[q * x - 2 * vi * sc for x, sc in zip(row, s)] for row, vi in zip(w, v)]
        den *= q
        if den < 0:
            w = [[-x for x in row] for row in w]
            den = -den
        c = gcd(den, *(x for row in w for x in row))
        if c != 1:
            w = [[x // c for x in row] for row in w]
            den //= c
        factors.append((v, v_den, q))

    for i in range(m):
        col = [row[i] for row in w]
        if all(x == (den if r == i else 0) for r, x in enumerate(col)):
            continue
        diff = list(col)
        diff[i] -= den
        if sum(map(mul, d, (x * x for x in diff))):
            reflect(diff, den)
        else:
            col[i] += den
            reflect(col, den)
            reflect([int(r == i) for r in range(m)], 1)
    if den != 1 or any(x != int(r == c) for r, row in enumerate(w) for c, x in enumerate(row)):
        raise PrasadError("reflection decomposition failed to terminate")
    return frame, factors


def reflection_decomposition(g, gram=None):
    """Write an isometry of a rational symmetric form as a product of
    reflections; returns the reflection vectors (in the original frame)
    and their q-values, ordered so that g = s_{v_1} ... s_{v_t}.
    """
    g, gram = _isometry_data(g, gram)
    (_, dd, pmat, _), factors = _reflections(g, gram)
    vectors = []
    for v, v_den, _ in factors:
        # P (v / v_den) in the original frame
        scale = pmat.den * v_den
        vectors.append([Fraction(sum(map(mul, row, v)), scale) for row in pmat.rows])
    return vectors, [Fraction(q, dd * v_den * v_den) for _, v_den, q in factors]


def spinor_norm_rational(g, gram=None) -> Fraction:
    """Product of the reflection q-values: a representative of the spinor
    norm in Q*/Q*^2, returned with squarefree normalization."""
    g, gram = _isometry_data(g, gram)
    if g.det() != 1:
        raise PrasadError("spinor norm computed on the special orthogonal group")
    (_, dd, _, _), factors = _reflections(g, gram)
    if len(factors) % 2:
        raise PrasadError("odd reflection count for a determinant-one isometry")
    prod = Fraction(1)
    for _, v_den, q in factors:
        prod *= Fraction(q, dd * v_den * v_den)
    return Fraction(squarefree_part(prod.numerator * prod.denominator))


def spinor_norm(g, p, gram=None) -> SquareClass:
    return reduce(spinor_norm_rational(g, gram), p)


# ---------------------------------------------------------------------------
# the unitary determinant pullback


@dataclass(frozen=True)
class KClassElement:
    """An element of K* up to F*-scaling, normalized so that the leading
    coefficient is one."""

    value: Bq

    @classmethod
    def of(cls, z: Bq):
        if z.is_zero:
            raise PrasadError("zero has no class")
        c0, c1 = z.coeffs[0], z.coeffs[1]
        scale = c0 if c0 else c1
        return cls(z / scale)

    def norm_to_base(self) -> Fraction:
        return self.value.norm_to_Fp().rational

    def to_json(self):
        return self.value.to_json()


def wsn(g: Mat, gram=None) -> KClassElement:
    """Determinant of a unitary matrix pulled back through the norm-one
    parametrization z F* -> z / conj(z); the result lives in K*/F*."""
    field = g.field
    if not field.is_quadratic:
        raise PrasadError("wsn works over a quadratic model")
    m = g.n
    gram_m = Mat.from_rational(field, gram if gram is not None else w_gram(m))
    if conj_transpose(g, "sigma") * gram_m * g != gram_m:
        raise PrasadError("matrix is not unitary for the form")
    det = g.det()
    try:
        z = recover_hilbert90(det, "sigma")
    except NumFieldError:
        raise PrasadError("unitary determinant should have norm one")
    return KClassElement.of(z)


def eta_on_k_class(cls_elt: KClassElement, e_gen: int, p) -> int:
    """Evaluate the quadratic character of K* attached to EK/K on a class in
    K*/F*, via the norm to the base field: well defined because the base
    multiplicative group lies inside the norms of the compositum."""
    n = cls_elt.norm_to_base()
    return hilbert_rational(n, e_gen, p)


def evaluate_character(formula: CharacterFormula, element, E: QuadExtension, gram=None) -> int:
    """Evaluate a table row on a group element: rational matrices for det
    and sn rows, a matrix over the quadratic K-model for wsn rows."""
    if formula.is_trivial:
        return 1
    e = formula.exponent % 2
    if formula.kind == "det":
        d = RatMat.of(element).det()
        return hilbert_rational(d, E.d.rep, E.base) ** e
    if formula.kind == "sn":
        s = spinor_norm_rational(element, gram)
        return hilbert_rational(s, E.d.rep, E.base) ** e
    if formula.kind == "wsn":
        return eta_on_k_class(wsn(element, gram), E.d.rep, E.base) ** e
    raise PrasadError(f"unknown formula kind {formula.kind!r}")


def so_form_gram(Y: GroupDescriptor):
    """The defining quasi-split form: antidiagonal unit blocks around the
    stored kernel."""
    if Y.family is not Family.SO:
        raise PrasadError("gram of a non-orthogonal descriptor")
    return split_gram((Y.m - Y.so_kernel_size) // 2, Y.so_kernel)
