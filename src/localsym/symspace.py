"""Twisted-conjugation orbits in X = {x in G(E) : x sigma(x) = I} for a
classical pair, classified by exact invariants: nothing for the symplectic
case (one orbit), a norm-coset bit for the unitary case, a discriminant
component plus a Hasse sign for the orthogonal case.

Matrices live over a global (bi)quadratic model of the relevant extension
tower; invariants are then read off at the working prime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .forms import (
    Case,
    congruent_diagonal,
    disc_class,
    hasse_invariant,
    is_anisotropic,
    is_anisotropic_hermitian,
    orbit_count,
    split_gram,
)
from .localfield import (
    Prime,
    QuadExtension,
    SquareClass,
    hilbert_rational,
    non_norm_value,
    rational,
    reduce,
)
from .numfield import (
    BiquadField,
    Bq,
    Mat,
    conj_transpose,
    recover_hilbert90,
    splits,
)


class SymspaceError(ValueError):
    pass


class Component(enum.Enum):
    FULL = "full"
    IDENTITY = "SX"
    COMPLEMENT = "X-SX"


@dataclass(frozen=True)
class SymplecticOrbit:
    def to_json(self):
        return {"case": "symplectic"}


@dataclass(frozen=True)
class UnitaryOrbit:
    gamma_bit: int

    def to_json(self):
        return {"case": "unitary", "gamma_bit": self.gamma_bit}


@dataclass(frozen=True)
class OrthogonalOrbit:
    component: int  # 0 on SX, 1 off it
    partial: SquareClass
    hasse: int

    def to_json(self):
        return {
            "case": "orthogonal",
            "component": "SX" if self.component == 0 else "X-SX",
            "partial": self.partial.to_json(),
            "hasse": self.hasse,
        }


@dataclass(frozen=True)
class ClassicalPair:
    """An anisotropic kernel of size n0 together with a Witt-index increment
    n >= 0 over the bundled field model; N = n0 + 2n >= 1 is the matrix size.
    With n = 0 the pair is the kernel alone, the inner group of an r = 0
    block.

    The model field is quadratic (sigma-conjugation, tau = id) for the
    symplectic and orthogonal cases and fully biquadratic for the unitary
    case, where sqrt(a) generates the upstairs extension and sqrt(b) the
    sideways one."""

    case: Case
    n0: int
    j_entries: tuple
    n: int
    prime: Prime
    field: BiquadField

    def __post_init__(self):
        object.__setattr__(self, "j_entries", tuple(map(rational, self.j_entries)))
        p = self.prime
        if self.n < 0 or self.N == 0:
            raise SymspaceError("need n >= 0 and a nonempty form (n0 + 2n >= 1)")
        if reduce(self.field.a, p).is_trivial:
            raise SymspaceError("sqrt(a) must generate a quadratic extension locally")
        if self.case is Case.UNITARY:
            if self.field.is_quadratic:
                raise SymspaceError("unitary case needs the biquadratic model")
            if reduce(self.field.b, p).is_trivial or reduce(self.field.a * self.field.b, p).is_trivial:
                raise SymspaceError("model is not locally biquadratic")
        else:
            if not self.field.is_quadratic:
                raise SymspaceError("symplectic/orthogonal cases use the quadratic model")
        if self.case is Case.SYMPLECTIC:
            if self.n0 != 0 or self.j_entries:
                raise SymspaceError("symplectic kernels are trivial")
        elif self.case is Case.ORTHOGONAL:
            if not 0 <= self.n0 <= 4 or len(self.j_entries) != self.n0:
                raise SymspaceError("orthogonal kernel size out of range")
            if self.n0 and not is_anisotropic(self.j_entries, p):
                raise SymspaceError("kernel form is isotropic at p")
        else:
            if not 0 <= self.n0 <= 2 or len(self.j_entries) != self.n0:
                raise SymspaceError("unitary kernel size out of range")
            if self.n0 and not is_anisotropic_hermitian(self.j_entries, self.ext_fp):
                raise SymspaceError("kernel form is isotropic at p")

    @property
    def eps(self):
        return self.case.eps

    @property
    def N(self):
        return self.n0 + 2 * self.n

    @property
    def ext_fp(self) -> QuadExtension:
        """F'/F, generated by sqrt(b) (unitary case)."""
        if self.field.is_quadratic:
            raise SymspaceError("no sideways extension in the quadratic model")
        return QuadExtension.of(self.field.b, self.prime)

    @property
    def split_even_orthogonal(self):
        return self.case is Case.ORTHOGONAL and self.n0 == 0

    def sub_pair(self, r: int) -> "ClassicalPair | None":
        """The pair of the inner r-block; None when n0 = r = 0."""
        return _sub_pair(self, r)

    def to_json(self):
        return {
            "case": self.case.value,
            "n0": self.n0,
            "j": [str(e) for e in self.j_entries],
            "n": self.n,
            "p": self.prime.p,
            "a": self.field.a,
            "b": self.field.b,
        }

    @classmethod
    def from_json(cls, d):
        field = BiquadField(d["a"], d.get("b"))
        return cls(
            Case(d["case"]), d["n0"], d["j"],
            d["n"], Prime(d["p"]), field,
        )


@lru_cache(maxsize=None)
def _sub_pair(pair, r):
    if r == 0 and pair.n0 == 0:
        return None
    return ClassicalPair(pair.case, pair.n0, pair.j_entries, r, pair.prime, pair.field)


@lru_cache(maxsize=None)
def jn_mat(pair) -> Mat:
    """The split form with anisotropic kernel: antidiagonal one-blocks of
    size n around the kernel, the lower one scaled by eps."""
    return Mat.from_rational(pair.field, split_gram(pair.n, pair.j_entries, pair.eps))


def det_jn(pair) -> Fraction:
    d = Fraction(1)
    for e in pair.j_entries:
        d *= e
    # det of the split block form is (-eps)^n times the kernel determinant
    return (-pair.eps) ** pair.n * d


@lru_cache(maxsize=None)
def jn_invariants(pair):
    """(disc class, Hasse sign) of the full orthogonal form at p, computed
    by direct diagonalization of the block matrix."""
    if pair.case is not Case.ORTHOGONAL:
        raise SymspaceError("orthogonal-only invariants")
    entries, _ = congruent_diagonal(split_gram(pair.n, pair.j_entries, pair.eps))
    return (disc_class(entries, pair.prime), hasse_invariant(entries, pair.prime))


def eta0_mat(pair) -> Mat:
    """The chosen kernel involution: determinant -1 in the orthogonal case,
    the identity in the unitary case."""
    field = pair.field
    if pair.case is Case.UNITARY:
        return Mat.identity(field, pair.n0)
    return Mat.diagonal(field, [field.element(-1)] + [field.one] * (pair.n0 - 1))


def eta_m_mat(pair, m: int) -> Mat:
    """The involution eta_m of the inner block of size n0 + 2m: eta0 on the
    kernel between identity blocks when n0 > 0; in the split orthogonal case
    the swap of the two middle coordinates (I_0 when m = 0); the identity
    otherwise."""
    field = pair.field
    size = pair.n0 + 2 * m
    if pair.n0 > 0:
        return Mat.block_diag(field, [Mat.identity(field, m), eta0_mat(pair), Mat.identity(field, m)])
    if pair.case is Case.ORTHOGONAL:
        if m == 0:
            return Mat.identity(field, 0)
        return Mat.block_diag(
            field,
            [Mat.identity(field, m - 1), Mat.antidiag_ones(field, 2), Mat.identity(field, m - 1)],
        )
    return Mat.identity(field, size)


def classify_x(x: Mat, z: Mat, pair):
    """Orbit invariant of x in X, using z with x = z sigma(z)^{-1}.

    Two checks certify the input: z splits x (`numfield.splits`), and the
    form y = t(z)^tau J z descends to the base field, sigma(y) = y.  They
    put x in X, so x needs no test of its own: x sigma(x) =
    z sigma(z)^-1 sigma(z) z^-1 = I, and since J is rational,
    t(x)^tau J x = t(sigma(z))^-tau y sigma(z)^-1
    = t(sigma(z))^-tau sigma(y) sigma(z)^-1 = J.  The classification data
    of y is the orbit invariant."""
    y = conj_transpose(z, "tau") * jn_mat(pair) * z  # first, so a z of the wrong size raises NumFieldError
    if not splits(z, x):
        raise SymspaceError("z does not split x")
    if y.sigma() != y:
        raise SymspaceError("twisted form does not descend; z inconsistent with x")
    if pair.case is Case.SYMPLECTIC:
        return SymplecticOrbit()
    if pair.case is Case.UNITARY:
        dy = y.det()
        if not dy.is_rational:
            raise SymspaceError("hermitian determinant should be rational")
        sign = hilbert_rational(dy.rational * det_jn(pair), pair.field.b, pair.prime)
        return UnitaryOrbit(0 if sign == 1 else 1)
    if not y.is_rational:
        raise SymspaceError("orthogonal form should be rational")
    gram = [[e.rational for e in row] for row in y.rows]
    entries, _ = congruent_diagonal(gram)
    disc = disc_class(entries, pair.prime)
    hasse = hasse_invariant(entries, pair.prime)
    base_disc = reduce(det_jn(pair), pair.prime)
    if disc == base_disc:
        component = 0
    elif disc == base_disc * reduce(pair.field.a, pair.prime):
        component = 1
    else:
        raise SymspaceError("discriminant outside the two admissible classes")
    return OrthogonalOrbit(component, disc, hasse)


@lru_cache(maxsize=None)
def component_orbits(pair, component: Component = Component.IDENTITY):
    """Invariants of the orbits in one component of X, one per orbit.  An
    orthogonal component carries both Hasse signs unless its rank and
    discriminant leave a single form class (rank 1, or rank 2 with
    discriminant -1); that sign is J's on SX and +1 off it."""
    if component is Component.FULL:
        raise SymspaceError("pick a component")
    if pair.case is not Case.ORTHOGONAL:
        if component is not Component.IDENTITY:
            raise SymspaceError("components are an orthogonal notion")
        if pair.case is Case.SYMPLECTIC:
            return (SymplecticOrbit(),)
        return (UnitaryOrbit(0), UnitaryOrbit(1))
    off = component is Component.COMPLEMENT
    disc = reduce(det_jn(pair) * (pair.field.a if off else 1), pair.prime)
    if orbit_count(Case.ORTHOGONAL, pair.N, disc) == 2:
        signs = (1, -1)
    else:
        signs = (1 if off else jn_invariants(pair)[1],)
    return tuple(OrthogonalOrbit(int(off), disc, h) for h in signs)


def orbit_count_X(pair, component: Component = Component.FULL) -> int:
    if pair.case is not Case.ORTHOGONAL:
        if component is not Component.FULL:
            raise SymspaceError("components are an orthogonal notion")
        return len(component_orbits(pair))
    if component is Component.FULL:
        return orbit_count_X(pair, Component.IDENTITY) + orbit_count_X(pair, Component.COMPLEMENT)
    return len(component_orbits(pair, component))


def realizable_targets(pair):
    """Invariants of the orbits meeting the identity component X-circ."""
    return component_orbits(pair, Component.IDENTITY)


# ---------------------------------------------------------------------------
# Gamma: the index-two subgroup of norm-one classes in the unitary case


@dataclass(frozen=True)
class GammaData:
    """The class of -1 in the two-element quotient (the identity has bit 0),
    with the box-search certificate c when -1 is a gamma product."""

    minus_one_bit: int
    certificate: tuple | None


GAMMA_BOX = 3


def gamma_product(c: Bq) -> Bq:
    """c^((1-sigma)(1-tau)), always a member of the index-two subgroup."""
    return (c * c.sigma_tau()) / (c.sigma() * c.tau())


def minus_one_gamma_certificate(field: BiquadField):
    """Box search for c with c^((1-sigma)(1-tau)) = -1 and coefficients in
    [-GAMMA_BOX, GAMMA_BOX]; None if exhausted."""
    rng = range(-GAMMA_BOX, GAMMA_BOX + 1)
    minus_one = field.element(-1)
    for c0, c1, c2, c3 in product(rng, repeat=4):
        if not (c0 or c1 or c2 or c3):
            continue
        c = field.element(c0, c1, c2, c3)
        if (c * c.sigma() * c.tau() * c.sigma_tau()).rational == 0:
            continue
        if gamma_product(c) == minus_one:
            return (c0, c1, c2, c3)
    return None


def gamma_index_data(pair) -> GammaData:
    """The two-element quotient of the norm-one group by the gamma products,
    with the class of -1 settled by the desk-scale box oracle."""
    if pair.case is not Case.UNITARY:
        raise SymspaceError("gamma data is a unitary notion")
    cert = minus_one_gamma_certificate(pair.field)
    return GammaData(0 if cert else 1, cert)


def gamma_bit(pair, gamma: Bq) -> int:
    """Coset bit of a norm-one element (fixed by sigma tau, norm one to both
    intermediate fields), via the rank-one orbit correspondence: split
    gamma = c^(1-sigma) and classify the descended 1x1 form at p."""
    if pair.case is not Case.UNITARY:
        raise SymspaceError("gamma bits are a unitary notion")
    if gamma.field != pair.field:
        raise SymspaceError("element from the wrong model")
    if not (gamma * gamma.sigma() - 1).is_zero or not (gamma * gamma.tau() - 1).is_zero:
        raise SymspaceError("element is not of norm one both ways")
    c = recover_hilbert90(gamma, "sigma")
    y = (c.tau() * c).rational
    return 0 if hilbert_rational(y, pair.field.b, pair.prime) == 1 else 1


# ---------------------------------------------------------------------------
# Representatives of the inner-block orbits


def _diag_frame(pair):
    """Rational congruence frame: entries D and g0 with t(g0) J g0 = D."""
    entries, p = congruent_diagonal(split_gram(pair.n, pair.j_entries, pair.eps))
    return entries, Mat.from_rational(pair.field, p)


def _block_coords(entries, p):
    """Two frame coordinates for the 2x2 block: a hyperbolic pair (entries
    alpha, beta with -alpha beta a square at p) where the frame has one, else
    the first two."""
    for i, j in combinations(range(len(entries)), 2):
        if reduce(-entries[i] * entries[j], p).is_trivial:
            return i, j
    return 0, 1


def _orth_candidates(pair, entries, component):
    """Closed-form frame twists for one component: pairs (diagonal of
    t(z_d) D z_d, z_d).  A twist puts sqrt(a) on coordinates T (det x =
    (-1)^|T|).  The block [[u, -s beta v], [v, s alpha u]] on a frame pair
    (alpha, beta), d = alpha beta, with u = x and v = alpha y w turns it into
    (g, s^2 d g), g = alpha (x^2 + m y^2), with det x = s / sigma(s): for
    s = 1, w = sqrt(a), m = a d it flips the Hasse sign of the untwisted pair,
    for s = w = sqrt(a), m = d that of the pair twisted at j, whenever
    (x^2 + m y^2, a)_p = -1.  `non_norm_value` finds such (x, y) unless -m
    and a share a class, which happens for at most one of the two.  So each
    list holds both signs of its component: a block and the twist it is
    compared with differ, and in the identity component the s = sqrt(a)
    block plus a twist at k differs from the twist at {j, k}."""
    field, p, a = pair.field, pair.prime, pair.field.a
    N = len(entries)
    i, j = _block_coords(entries, p) if N > 1 else (0, 0)
    k = next((t for t in range(N) if t not in (i, j)), None)
    if component is Component.IDENTITY:
        specs = [((), None), ((), 1), ((k,), "ra"), ((j, k), None)]
    else:
        specs = [((j,), None), ((), "ra"), ((k,), None), ((k,), 1)]
    alpha, beta = entries[i], entries[j]
    ra = field.sqrt_a
    for twist, s in specs:
        if None in twist or (s is not None and N < 2):
            continue
        new = [e * a if t in twist else e for t, e in enumerate(entries)]
        rows = [[(ra if r in twist else field.one) if r == c else field.zero for c in range(N)]
                for r in range(N)]
        if s is not None:
            m = a * alpha * beta if s == 1 else alpha * beta
            xy = non_norm_value(m, a, p)
            if xy is None:
                continue
            g = alpha * (xy[0] ** 2 + m * xy[1] ** 2)
            new[i], new[j] = g, (1 if s == 1 else a) * alpha * beta * g
            sv, w = (field.one, ra) if s == 1 else (ra, field.one)
            u, v = field.element(xy[0]), field.element(alpha * xy[1]) * w
            rows[i][i], rows[i][j], rows[j][i], rows[j][j] = u, -sv * beta * v, v, sv * alpha * u
        yield new, Mat(field, rows)


def _z_reps_orthogonal(pair, component: Component):
    entries, g0 = _diag_frame(pair)
    p = pair.prime
    want = set(component_orbits(pair, component))
    comp = 0 if component is Component.IDENTITY else 1
    found = {}
    for new_entries, z_d in _orth_candidates(pair, entries, component):
        inv = OrthogonalOrbit(comp, disc_class(new_entries, p), hasse_invariant(new_entries, p))
        if inv in found:
            continue
        z = g0 * z_d * g0.inv()
        x = z * z.sigma().inv()
        if classify_x(x, z, pair) != inv:
            raise SymspaceError("closed-form candidate disagrees with exact classification")
        found[inv] = (x, z)
        if found.keys() == want:
            return tuple((i, x, z) for i, (x, z) in found.items())
    raise SymspaceError(f"the closed forms gave {len(found)} of {len(want)} representatives for {component}")


def _z_reps_unitary(pair):
    """The identity, and diag(c, 1, ..., 1) in the frame with c = x + y sqrt(ab):
    c tau(c) = x^2 - ab y^2 is rational, and it lies outside the norms from
    Qp(sqrt b), which moves the determinant class to the other coset."""
    field = pair.field
    entries, g0 = _diag_frame(pair)
    N = pair.N
    i_n = Mat.identity(field, N)
    x, y = non_norm_value(-field.a * field.b, field.b, pair.prime)
    z = g0 * Mat.diagonal(field, [field.element(x, 0, 0, y)] + [field.one] * (N - 1)) * g0.inv()
    x_mat = z * z.sigma().inv()
    inv = classify_x(x_mat, z, pair)
    if inv != UnitaryOrbit(1):
        raise SymspaceError("nontrivial-coset candidate classifies as the trivial orbit")
    return ((UnitaryOrbit(0), i_n, i_n), (inv, x_mat, z))


@lru_cache(maxsize=None)
def z_orbit_representatives(pair, component: Component = Component.IDENTITY):
    """Triples (invariant, x, z) with x in the symmetric space of the pair,
    one per orbit of the requested component, and z a splitting with
    x = z sigma(z)^{-1}.  The identity component always starts with x = I."""
    field = pair.field
    N = pair.N
    if pair.case is Case.SYMPLECTIC:
        if component is not Component.IDENTITY:
            raise SymspaceError("symplectic space is connected")
        i_n = Mat.identity(field, N)
        return ((SymplecticOrbit(), i_n, i_n),)
    if pair.case is Case.UNITARY:
        if component is not Component.IDENTITY:
            raise SymspaceError("unitary group is connected")
        return _z_reps_unitary(pair)
    if component is Component.FULL:
        raise SymspaceError("pick a component")
    return _z_reps_orthogonal(pair, component)
