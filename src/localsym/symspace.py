"""Twisted-conjugation orbits in X = {x in G(E) : x sigma(x) = I} for a
classical pair, classified by exact invariants: nothing for the symplectic
case (one orbit), a norm-coset bit for the unitary case, a discriminant
component plus a Hasse sign for the orthogonal case.  An orbit is its
invariant object, so two orbits are the same exactly when they compare ==.

Matrices live over a global (bi)quadratic model of the relevant extension
tower; invariants are then read off at the working prime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import prod

from .forms import (
    Case,
    congruent_diagonal,
    diagonal_entries,
    disc_and_hasse,
    is_anisotropic,
    is_anisotropic_hermitian,
    orbit_count,
    split_gram,
)
from .localfield import (
    LocalsymError,
    Prime,
    QuadExtension,
    SquareClass,
    hilbert_rational,
    non_norm_value,
    rational,
    reduce,
    require_ints,
    require_list,
)
from .numfield import (
    BiquadField,
    Bq,
    Mat,
    conj_transpose,
    int_rows,
    recover_hilbert90,
    splits,
    twisted_form,
)


class SymspaceError(LocalsymError):
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


def orbit_from_json(d):
    """The orbit written by one of the three `to_json` methods above.  Any
    other case, component, Hasse sign or bit (a JSON bool included) is
    malformed input, refused with ValueError rather than a domain error."""
    case = d["case"]
    if case == "symplectic":
        return SymplecticOrbit()
    if case == "unitary":
        return UnitaryOrbit(_one_of(d, "gamma_bit", (0, 1)))
    if case == "orthogonal":
        component = _one_of(d, "component", ("SX", "X-SX"))
        return OrthogonalOrbit(int(component == "X-SX"), SquareClass.from_json(d["partial"]),
                               _one_of(d, "hasse", (1, -1)))
    raise ValueError(f"unknown orbit case {case!r}")


def _one_of(d, key, allowed):
    value = d[key]
    if type(value) is not type(allowed[0]) or value not in allowed:
        raise ValueError(f"{key} must be one of {list(allowed)}, not {value!r}")
    return value


@dataclass(frozen=True)
class ClassicalPair:
    """An anisotropic kernel of size n0 together with a Witt-index increment
    n >= 0 over the bundled field model; N = n0 + 2n >= 1 is the matrix size.
    With n = 0 the pair is the kernel alone, the inner group of an r = 0
    block.

    The model field is quadratic (sigma-conjugation, tau = id) for the
    symplectic and orthogonal cases and fully biquadratic for the unitary
    case, where sqrt(a) generates the upstairs extension and sqrt(b) the
    sideways one.

    Every per-pair cache hashes the pair, so its hash is computed once per
    object (`_hash`, not a field); equality stays the dataclass one."""

    case: Case
    n0: int
    j_entries: tuple
    n: int
    prime: Prime
    field: BiquadField

    def __post_init__(self):
        require_ints((self.n0, self.n), "n0 and n")
        # an integral entry is kept as an int, however given, so equal pairs print alike
        entries = tuple(map(rational, self.j_entries))
        object.__setattr__(self, "j_entries", tuple(e if e.denominator != 1 else int(e) for e in entries))
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

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash((self.case, self.n0, self.j_entries, self.n, self.prime, self.field))

    def __getstate__(self):
        # Case hashes its name, which differs between processes: a pickled
        # pair recomputes its hash
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

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
        b = d.get("b")
        require_ints((d["p"], d["a"]) if b is None else (d["p"], d["a"], b), "p, a and b")
        field = BiquadField(d["a"], b)
        return cls(
            Case(d["case"]), d["n0"], require_list(d["j"], "j"),
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


@lru_cache(maxsize=None)
def jn_terms(pair):
    """`jn_mat` by its one nonzero per row, as `twisted_form` reads J:
    ((column, integer numerator) of each row, the common denominator)."""
    rows, den = int_rows(split_gram(pair.n, pair.j_entries, pair.eps))
    return tuple(next((j, c) for j, c in enumerate(r) if c) for r in rows), den


def det_jn(pair) -> Fraction:
    # det of the split block form is (-eps)^n times the kernel determinant
    return (-pair.eps) ** pair.n * Fraction(prod(pair.j_entries))


@lru_cache(maxsize=None)
def component_discs(pair):
    """The discriminant classes at p of the two components of an orthogonal
    X, (SX, X-SX): J's, and J's times a."""
    base = reduce(det_jn(pair), pair.prime)
    return base, base * reduce(pair.field.a, pair.prime)


@lru_cache(maxsize=None)
def jn_frame(pair):
    """J diagonalized once per pair: (entries, g0) with g0 rational and
    t(g0) J g0 = diag(entries).  Needs a symmetric J, so not symplectic."""
    entries, g0 = congruent_diagonal(split_gram(pair.n, pair.j_entries, pair.eps))
    return tuple(entries), Mat.from_rational(pair.field, g0)


@lru_cache(maxsize=None)
def jn_invariants(pair):
    """(disc class, Hasse sign) of the full orthogonal form at p, read off
    the diagonal frame of the block matrix."""
    if pair.case is not Case.ORTHOGONAL:
        raise SymspaceError("orthogonal-only invariants")
    entries, _ = jn_frame(pair)
    return disc_and_hasse(entries, pair.prime)


def eta_m_mat(pair, m: int) -> Mat:
    """The involution eta_m of the inner block of size n0 + 2m.  Orthogonal:
    diag(-1, 1, ..., 1) on the kernel between identity blocks when n0 > 0
    (determinant -1), else the swap of the two middle coordinates (I_0 when
    m = 0).  The identity otherwise."""
    field = pair.field
    size = pair.n0 + 2 * m
    if pair.case is not Case.ORTHOGONAL:
        return Mat.identity(field, size)
    if pair.n0 > 0:
        return Mat.diagonal(field, [field.one] * m + [field.element(-1)] + [field.one] * (size - m - 1))
    if m == 0:
        return Mat.identity(field, 0)
    return Mat.block_diag(
        field,
        [Mat.identity(field, m - 1), Mat.antidiag_ones(field, 2), Mat.identity(field, m - 1)],
    )


def classify_x(x: Mat, z: Mat, pair):
    """Orbit invariant of x in X, using z with x = z sigma(z)^{-1}.

    Two checks certify the input: z splits x (`numfield.splits`), and the
    form y = t(z)^tau J z descends to the base field, sigma(y) = y.  The
    split is trusted without arithmetic only for the z that
    `recover_hilbert90_matrix` returned for this same x object, as that
    call has just proved det z != 0 and z = x sigma(z); every other (z, x),
    an equal copy of x included, gets the full test.  The checks put x
    in X, so x needs no test of its own: x sigma(x) =
    z sigma(z)^-1 sigma(z) z^-1 = I, and since J is rational,
    t(x)^tau J x = t(sigma(z))^-tau y sigma(z)^-1
    = t(sigma(z))^-tau sigma(y) sigma(z)^-1 = J.  The classification data
    of y is the orbit invariant.

    y is formed on integers by `twisted_form`: z's numerators over one
    denominator against J's one nonzero per row (`jn_terms`), so sigma(y)
    = y reads "no sqrt(a) or sqrt(ab) numerator".  An orthogonal y (the
    quadratic model, so a y that descends is rational) is diagonalized from
    its numerators without a change of basis; a unitary y becomes a `Mat`
    only for its determinant.  A z of the wrong size or over another field
    raises NumFieldError, as the Bq product does."""
    field = pair.field
    # first, so a z of the wrong size or over another field raises NumFieldError
    y, den = twisted_form(z, field, *jn_terms(pair))
    if not splits(z, x):
        raise SymspaceError("z does not split x")
    if any(e[1] or e[3] for r in y for e in r):
        raise SymspaceError("twisted form does not descend; z inconsistent with x")
    if pair.case is Case.SYMPLECTIC:
        return SymplecticOrbit()
    if pair.case is Case.UNITARY:
        dy = Mat.from_numerators(field, y, den).det()
        if not dy.is_rational:
            raise SymspaceError("hermitian determinant should be rational")
        sign = hilbert_rational(dy.rational * det_jn(pair), field.b, pair.prime)
        return UnitaryOrbit(0 if sign == 1 else 1)
    # the quadratic model has no sqrt(b) coordinates, so a y that descends is rational
    entries = diagonal_entries([[e[0] for e in r] for r in y], den)
    disc, hasse = disc_and_hasse(entries, pair.prime)
    try:
        component = component_discs(pair).index(disc)
    except ValueError:
        raise SymspaceError("discriminant outside the two admissible classes") from None
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
    disc = component_discs(pair)[off]
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


def _block_coords(entries, p):
    """Two frame coordinates for the 2x2 block: a hyperbolic pair (entries
    alpha, beta with -alpha beta a square at p) where the frame has one, else
    the first two."""
    for i, j in combinations(range(len(entries)), 2):
        if reduce(-entries[i] * entries[j], p).is_trivial:
            return i, j
    return 0, 1


def _orth_candidates(pair, entries, component):
    """Closed-form frame twists for one component: triples (predicted
    invariant, diagonal of t(z_d) D z_d, z_d).  A twist puts sqrt(a) on
    coordinates T (det x = (-1)^|T|).  The block
    [[u, -s beta v], [v, s alpha u]] on a frame pair (alpha, beta),
    d = alpha beta, with u = x and v = alpha y w turns it into
    (g, s^2 d g), g = alpha (x^2 + m y^2), with det x = s / sigma(s): for
    s = 1, w = sqrt(a), m = a d it flips the Hasse sign of the untwisted pair,
    for s = w = sqrt(a), m = d that of the pair twisted at j, whenever
    (x^2 + m y^2, a)_p = -1.  `non_norm_value` finds such (x, y) unless -m
    and a share a class, which happens for at most one of the two.  So each
    list holds both signs of its component: a block and the twist it is
    compared with differ, and in the identity component the s = sqrt(a)
    block plus a twist at k differs from the twist at {j, k}."""
    field, p, a = pair.field, pair.prime, pair.field.a
    comp = int(component is Component.COMPLEMENT)
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
        yield OrthogonalOrbit(comp, *disc_and_hasse(new, p)), new, Mat(field, rows)


@lru_cache(maxsize=None)
def u_star_sideways(pair):
    """A fixed element s + t sqrt(ab) of the sigma-tau-fixed subfield whose
    norm s^2 - ab t^2 is a local norm from neither Qp(sqrt a) nor Qp(sqrt b),
    as (s^2 - ab t^2, ab)_p = 1 (unitary case).  The signs are flipped to
    s, t <= 0, the element tests/golden/gamma_defaults.json records."""
    field = pair.field
    x, y = non_norm_value(-field.a * field.b, field.a, pair.prime)
    return field.element(-x, 0, 0, -y)


def _unitary_candidates(pair, entries):
    """The identity, and diag(c, 1, ..., 1) with c = -`u_star_sideways`:
    c tau(c) = s^2 - ab t^2 is rational, and it lies outside the norms from
    Qp(sqrt b), which moves the determinant class to the other coset."""
    field = pair.field
    N = len(entries)
    yield UnitaryOrbit(0), entries, Mat.identity(field, N)
    c = -u_star_sideways(pair)
    new = ((c * c.tau()).rational * entries[0],) + entries[1:]
    yield UnitaryOrbit(1), new, Mat.diagonal(field, [c] + [field.one] * (N - 1))


@lru_cache(maxsize=None)
def z_orbit_representatives(pair, component: Component = Component.IDENTITY):
    """Triples (invariant, x, z) with x in the symmetric space of the pair,
    one per orbit of the requested component, and z a splitting with
    x = z sigma(z)^{-1}.  The identity component always starts with x = I.

    Each candidate of the diagonal frame t(g0) J g0 = D is a triple: its
    predicted invariant, the rational diagonal y of t(z_d)^tau D z_d, and
    z_d.  With z = g0 z_d, t(z)^tau J z = y, so z^{-1} = y^{-1} t(z)^tau J
    and x = z sigma(z)^{-1} = z y^{-1} t(sigma(z))^tau J: no inverse is
    formed, and `classify_x` certifies every candidate (a wrong y would
    fail its split check)."""
    field = pair.field
    if pair.case is Case.SYMPLECTIC:
        if component is not Component.IDENTITY:
            raise SymspaceError("symplectic space is connected")
        i_n = Mat.identity(field, pair.N)
        return ((SymplecticOrbit(), i_n, i_n),)
    if pair.case is Case.UNITARY and component is not Component.IDENTITY:
        raise SymspaceError("unitary group is connected")
    want = set(component_orbits(pair, component))  # refuses FULL: "pick a component"
    entries, g0 = jn_frame(pair)
    if pair.case is Case.UNITARY:
        candidates = _unitary_candidates(pair, entries)
    else:
        candidates = _orth_candidates(pair, entries, component)
    found = {}
    for inv, y, z_d in candidates:
        if inv in found:
            continue
        z = g0 * z_d
        y_inv = Mat.diagonal(field, [1 / Fraction(e) for e in y])
        x = z * y_inv * conj_transpose(z.sigma(), "tau") * jn_mat(pair)
        if classify_x(x, z, pair) != inv:
            raise SymspaceError("closed-form candidate disagrees with exact classification")
        found[inv] = (x, z)
        if found.keys() == want:
            return tuple((i, x, z) for i, (x, z) in found.items())
    raise SymspaceError(f"the closed forms gave {len(found)} of {len(want)} representatives for {component}")
