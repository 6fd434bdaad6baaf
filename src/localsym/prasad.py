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

from .localfield import QuadExtension, SquareClass, hilbert_rational, reduce
from .numfield import Bq, Mat, conj_transpose


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
        object.__setattr__(self, "so_kernel", tuple(Fraction(e) for e in self.so_kernel))
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
        kernel = tuple(Fraction(e) for e in d.get("kernel", []))
        if fam is Family.SO and "kernel" not in d:
            kernel = (Fraction(1),) if d["m"] % 2 else ()
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
        if n0 == 2 and not _kernel_anisotropic(Y.so_kernel, E.base):
            raise PrasadError("descriptor is not quasi-split at this prime")
        return CharacterFormula("sn", n0, "E/F") if n0 else CharacterFormula("trivial")
    # unitary
    if Y.k_gen is None or reduce(Y.k_gen, E.base) == E.d:
        return CharacterFormula("trivial")
    if (reduce(Y.k_gen, E.base) * E.d).is_trivial:
        return CharacterFormula("trivial")  # K = E locally
    return CharacterFormula("wsn", Y.m - 1, "EK/K")


def _kernel_anisotropic(kernel, p):
    from .forms import is_anisotropic

    return is_anisotropic(kernel, p)


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


def _rat_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _mat_vec(a, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in a]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def _identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _rat_det(a):
    n = len(a)
    rows = [list(r) for r in a]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def _rat_inv(a):
    n = len(a)
    aug = [list(r) + row for r, row in zip(a, _identity(n))]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise PrasadError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        d = aug[c][c]
        aug[c] = [x / d for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def w_gram(m: int):
    """The antidiagonal unit form."""
    return [[Fraction(1 if i + j == m - 1 else 0) for j in range(m)] for i in range(m)]


def _q_val(d, v):
    return sum(d[i] * v[i] * v[i] for i in range(len(v)))


def _b_val(d, v, w):
    return sum(d[i] * v[i] * w[i] for i in range(len(v)))


def reflection_decomposition(g, gram=None):
    """Write an isometry of a rational symmetric form as a product of
    reflections; returns the reflection vectors (in the original frame)
    and their q-values, ordered so that g = s_{v_1} ... s_{v_t}.

    The work happens in a diagonalized frame, where every basis vector is
    anisotropic: a column that moves is fixed by one reflection when the
    difference vector is anisotropic and by two otherwise.
    """
    g = _rat_mat(g)
    m = len(g)
    gram = _rat_mat(gram) if gram is not None else w_gram(m)
    gt = _transpose(g)
    if _mat_mul(_mat_mul(gt, gram), g) != gram:
        raise PrasadError("matrix does not preserve the form")
    from .forms import congruent_diagonal

    entries, pmat = congruent_diagonal(gram)
    d = [Fraction(e) for e in entries]
    pinv = _rat_inv(pmat)
    work = _mat_mul(_mat_mul(pinv, g), pmat)

    factors = []  # diagonal-frame reflection vectors, applied left to right

    def reflect_in_place(v):
        qv = _q_val(d, v)
        for col in range(m):
            x = [work[r][col] for r in range(m)]
            coef = 2 * _b_val(d, x, v) / qv
            for r in range(m):
                work[r][col] -= coef * v[r]
        factors.append(v)

    for i in range(m):
        e_i = [Fraction(1 if r == i else 0) for r in range(m)]
        w_col = [work[r][i] for r in range(m)]
        if w_col == e_i:
            continue
        diff = [a - b for a, b in zip(w_col, e_i)]
        if _q_val(d, diff) != 0:
            reflect_in_place(diff)
        else:
            s = [a + b for a, b in zip(w_col, e_i)]
            reflect_in_place(s)
            reflect_in_place(e_i)
    if work != _identity(m):
        raise PrasadError("reflection decomposition failed to terminate")
    # s_{v_t} ... s_{v_1} g = I, so g is the product in application order
    vectors = [_mat_vec(pmat, v) for v in factors]
    qvals = [_q_val(d, v) for v in factors]
    return vectors, qvals


def spinor_norm_rational(g, gram=None) -> Fraction:
    """Product of the reflection q-values: a representative of the spinor
    norm in Q*/Q*^2, returned with squarefree normalization."""
    g = _rat_mat(g)
    gram_m = _rat_mat(gram) if gram is not None else w_gram(len(g))
    if _rat_det(g) != 1:
        raise PrasadError("spinor norm computed on the special orthogonal group")
    vectors, qvals = reflection_decomposition(g, gram_m)
    if len(qvals) % 2:
        raise PrasadError("odd reflection count for a determinant-one isometry")
    prod = Fraction(1)
    for q in qvals:
        prod *= q
    sf = Fraction(squarefree_part(prod.numerator * prod.denominator))
    return sf


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
    gram_m = Mat.from_rational(field, _rat_mat(gram) if gram is not None else w_gram(m))
    if conj_transpose(g, "sigma") * gram_m * g != gram_m:
        raise PrasadError("matrix is not unitary for the form")
    det = g.det()
    if not (det * det.sigma() - 1).is_zero:
        raise PrasadError("unitary determinant should have norm one")
    z = det + 1
    if z.is_zero:
        z = field.sqrt_a
    if not (z / z.sigma() - det).is_zero:
        raise PrasadError("norm-one parametrization does not recover the determinant")
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
        d = _rat_det(_rat_mat(element))
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
    n0 = Y.so_kernel_size
    n = (Y.m - n0) // 2
    m = Y.m
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(n):
        rows[i][m - n + (n - 1 - i)] = Fraction(1)
        rows[m - n + i][n - 1 - i] = Fraction(1)
    for i in range(n0):
        rows[n + i][n + i] = Fraction(Y.so_kernel[i])
    return rows
