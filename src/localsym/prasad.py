"""Quadratic-character bookkeeping for quasi-split classical groups: the
character table rows, spinor norms by Zassenhaus's formula (the
discriminant of Wall's form on the image of 1 - g), the determinant
pullback for unitary groups, and the opposition-group involution on
descriptors.

Spinor norms are computed over Q and only then reduced at a prime, so one
determinant serves every completion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import localfield
from .forms import FormsError, _check_symmetric, is_anisotropic, split_gram
from .localfield import LocalsymError, QuadExtension, SquareClass, hilbert_rational, rational, reduce, require_ints
from .numfield import Bq, Mat, NumFieldError, conj_transpose, int_det, int_echelon, int_mul, int_rows, recover_hilbert90


class PrasadError(LocalsymError):
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
        require_ints((self.m,) if self.k_gen is None else (self.m, self.k_gen), "m and k")
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
        kernel = localfield.require_list(d.get("kernel", ()), "kernel")
        if fam is Family.SO and "kernel" not in d:
            kernel = (1,) if isinstance(d["m"], int) and d["m"] % 2 else ()
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
        return CharacterFormula("trivial")  # K = E locally
    return CharacterFormula("wsn", Y.m - 1, "EK/K")


def opposition_group(Y: GroupDescriptor, e_gen) -> GroupDescriptor:
    """The opposition descriptor relative to E = F(sqrt(e_gen)): general
    linear and unitary-over-E swap, symplectic and special orthogonal are
    their own opposites, and a sideways unitary group moves to the third
    quadratic subextension.  e_gen is any nonzero rational (read as
    `QuadExtension.of` reads it); E is generated by the squarefree part of
    its numerator times its denominator."""
    e_gen = rational(e_gen)
    e_gen = squarefree_part(e_gen.numerator * e_gen.denominator)
    if Y.family is Family.GL:
        return GroupDescriptor(Family.U, Y.m, k_gen=e_gen)
    if Y.family in (Family.SP, Family.SO):
        return Y
    if Y.k_gen is None or Y.k_gen == e_gen:
        return GroupDescriptor(Family.GL, Y.m)
    third = squarefree_part(Y.k_gen * e_gen)
    return GroupDescriptor(Family.U, Y.m, k_gen=third)


# ---------------------------------------------------------------------------
# spinor norm from Wall's determinant


def w_gram(m: int):
    """The antidiagonal unit form."""
    return split_gram(m // 2, (1,) * (m % 2))


def _int_matrix(rows):
    """rows as (integer rows, den), a ragged matrix refused."""
    num, den = int_rows(rows)
    if any(len(r) != len(num[0]) for r in num):
        raise PrasadError("malformed matrix: ragged rows")
    return num, den


def _isometry_data(g, gram):
    """g as (integer rows, den) and the integer rows of its gram (w_gram
    by default), checked once: g square and non-empty, the gram of the
    same size."""
    g, den = _int_matrix(g)
    gram = None if gram is None else _int_matrix(gram)
    m = len(g)
    if m == 0 or len(g[0]) != m:
        raise PrasadError("the matrix must be square and non-empty")
    rows, _ = int_rows(w_gram(m)) if gram is None else gram
    if len(rows) != m or len(rows[0]) != m:
        raise PrasadError("the gram must be square of the matrix's size")
    return (g, den), rows


def _wall_det(g, gram):
    """An integer in the spinor norm's class of g in Q*/Q*^2, by
    Zassenhaus's formula: the discriminant of Wall's form [x, y] = B(x, v),
    y = (1 - g) v, on W = im(1 - g).

    For g = N / n and the gram H / h, the columns y_a = A e_a of
    A = n I - N at the pivot columns i_1 ... i_r of A are a basis of W,
    with v_a = n e_a, so Wall's matrix is (n / h) (tA H)[i_a][i_b]; its
    determinant is that of the integer block up to the square (n / h)^r.
    det g = (-1)^r, so an odd r is refused as outside SO.  N preserves
    the gram when tN H N == n^2 H, tested first; then the gram must be
    symmetric and nonsingular."""
    (n, den), h = _isometry_data(g, gram)
    if int_mul(list(zip(*n)), int_mul(h, n)) != [[den * den * x for x in r] for r in h]:
        raise PrasadError("matrix does not preserve the form")
    _check_symmetric(h)
    if not int_det(h):
        raise FormsError("singular matrix")
    a = [[den * (i == j) - x for j, x in enumerate(r)] for i, r in enumerate(n)]
    pivots, _ = int_echelon(a)
    if len(pivots) % 2:
        raise PrasadError("spinor norm computed on the special orthogonal group")
    ta_h = int_mul(list(zip(*a)), h)
    return int_det([[ta_h[i][j] for j in pivots] for i in pivots])


def spinor_norm_rational(g, gram=None) -> Fraction:
    """The spinor norm of g in Q*/Q*^2 (`_wall_det`), returned with
    squarefree normalization; a Wall determinant that trial division cannot
    finish is refused as too large to certify."""
    return Fraction(squarefree_part(_wall_det(g, gram)))


def spinor_norm(g, p, gram=None) -> SquareClass:
    """The spinor norm's class in Qp*/Qp*^2, read from the Wall
    determinant itself, with no factoring."""
    return reduce(_wall_det(g, gram), p)


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


def wsn(g: Mat, gram=None) -> KClassElement:
    """Determinant of a unitary matrix pulled back through the norm-one
    parametrization z F* -> z / conj(z); the result lives in K*/F*."""
    field = g.field
    if not field.is_quadratic:
        raise PrasadError("wsn works over a quadratic model")
    gram_m = Mat.from_rational(field, gram) if gram is not None else Mat.antidiag_ones(field, g.n)
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
        num, den = int_rows(element)
        d = Fraction(int_det(num), den ** len(num))
        return hilbert_rational(d, E.d.rep, E.base) ** e
    if formula.kind == "sn":
        return hilbert_rational(_wall_det(element, gram), E.d.rep, E.base) ** e
    if formula.kind == "wsn":
        return eta_on_k_class(wsn(element, gram), E.d.rep, E.base) ** e
    raise PrasadError(f"unknown formula kind {formula.kind!r}")


def so_form_gram(Y: GroupDescriptor):
    """The defining quasi-split form: antidiagonal unit blocks around the
    stored kernel."""
    if Y.family is not Family.SO:
        raise PrasadError("gram of a non-orthogonal descriptor")
    return split_gram((Y.m - Y.so_kernel_size) // 2, Y.so_kernel)
