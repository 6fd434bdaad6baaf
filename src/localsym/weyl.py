"""Signed-permutation combinatorics for a classical pair: involutions
compatible with a block composition, explicit block-matrix representatives
t_w and x_w, admissible-orbit counts and stabilizer shapes.

Indices are 0-based internally; JSON encodings are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .forms import Case
from .localfield import LocalsymError, hilbert_rational, least_non_norm, reduce, require_ints
from .numfield import Mat, conj_transpose
from .symspace import (
    Component,
    OrthogonalOrbit,
    SymplecticOrbit,
    UnitaryOrbit,
    component_orbits,
    eta_m_mat,
    jn_invariants,
    u_star_sideways,
    z_orbit_representatives,
)


class WeylError(LocalsymError):
    pass


@dataclass(frozen=True, slots=True)
class Composition:
    """Block sizes (n_1, ..., n_k) plus the inner rank r; the optional sign
    picks one of the two conjugate parabolic classes in the split even
    orthogonal case with r = 0 and n_k != 1."""

    parts: tuple
    r: int = 0
    split_even_sign: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        sign = () if self.split_even_sign is None else (self.split_even_sign,)
        require_ints((*self.parts, self.r, *sign), "parts, r and sign")
        if any(p < 1 for p in self.parts):
            raise WeylError("parts must be positive")
        if self.r < 0:
            raise WeylError("r must be nonnegative")
        if self.split_even_sign not in (None, 1, -1):
            raise WeylError("sign must be +-1")

    @property
    def k(self):
        return len(self.parts)

    @property
    def n(self):
        return sum(self.parts) + self.r

    def to_json(self):
        out = {"parts": list(self.parts), "r": self.r}
        if self.split_even_sign is not None:
            out["sign"] = self.split_even_sign
        return out

    @classmethod
    def from_json(cls, d):
        return cls(tuple(d["parts"]), d.get("r", 0), d.get("sign"))


@dataclass(frozen=True, slots=True)
class SignedPerm:
    """rho . c in the signed permutation group, with rho a permutation of
    [0, k) and c a subset; conjugation satisfies rho c rho^{-1} = rho(c)."""

    rho: tuple
    c: frozenset

    def __post_init__(self):
        _check_signed_perm(self.rho, self.c)

    @classmethod
    def identity(cls, k):
        return cls(tuple(range(k)), frozenset())

    @property
    def k(self):
        return len(self.rho)

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        if self.k != other.k:
            raise WeylError("mixed ranks")
        rho = tuple(self.rho[other.rho[i]] for i in range(self.k))
        inv2 = _inv_perm(other.rho)
        moved = frozenset(inv2[i] for i in self.c)
        return SignedPerm(rho, moved ^ other.c)

    def inv(self) -> "SignedPerm":
        return SignedPerm(_inv_perm(self.rho), frozenset(self.rho[i] for i in self.c))

    @property
    def is_identity(self):
        return self.rho == tuple(range(self.k)) and not self.c


def _check_signed_perm(rho, c):
    """Refuse a rho that is not a permutation of [0, k) and a c outside it."""
    k = len(rho)
    if sorted(rho) != list(range(k)):
        raise WeylError("rho is not a permutation")
    if not set(c) <= set(range(k)):
        raise WeylError("c out of range")


def _inv_perm(rho):
    out = [0] * len(rho)
    for i, v in enumerate(rho):
        out[v] = i
    return tuple(out)


@dataclass(frozen=True, slots=True)
class SignedInvolution(SignedPerm):
    """An involution rho . c: rho^2 = id and rho(c) = c."""

    def __post_init__(self):
        rho, c = self.rho, self.c
        _check_signed_perm(rho, c)
        if any(rho[rho[i]] != i for i in range(len(rho))) or any(rho[i] not in c for i in c):
            raise WeylError("not an involution")

    @property
    def fixed_in_c(self) -> frozenset:
        """I(w): sign-set indices fixed by the permutation."""
        return frozenset(i for i in self.c if self.rho[i] == i)

    def o(self, comp: Composition) -> int:
        """Number of sign-set indices with odd block size."""
        return sum(1 for i in self.c if comp.parts[i] % 2)

    def n_weight(self, comp: Composition) -> int:
        """Total size of the blocks at indices in I(w)."""
        return sum(comp.parts[i] for i in self.fixed_in_c)

    def compatible(self, comp: Composition) -> bool:
        return self.k == comp.k and all(
            comp.parts[self.rho[i]] == comp.parts[i] for i in range(self.k)
        )

    @property
    def sort_key(self):
        return (len(self.c), self.rho, tuple(sorted(self.c)))

    def conjugate_by(self, s: SignedPerm) -> "SignedInvolution":
        w = s * self * s.inv()
        return SignedInvolution(w.rho, w.c)

    def to_json(self):
        return involution_json(self.rho, sorted(self.c))

    @classmethod
    def from_json(cls, d):
        rho, c = list(d["rho"]), list(d.get("c", []))
        require_ints(rho + c, "rho and c")  # before the shift to 0-based, which reads true as 0
        return cls(tuple(i - 1 for i in rho), frozenset(i - 1 for i in c))

    @classmethod
    def _of_row(cls, rho, c) -> "SignedInvolution":
        """The involution of a row (rho, c) of `involution_rows`, without
        the checks, as the recursion forms only valid involutions."""
        w = object.__new__(cls)
        object.__setattr__(w, "rho", rho)
        object.__setattr__(w, "c", frozenset(c))
        return w


def involution_json(rho, c):
    """The 1-based JSON form of the involution rho . c, c given sorted."""
    return {"rho": [i + 1 for i in rho], "c": [i + 1 for i in c]}


def enumerate_involutions(comp: Composition, circ: bool = False):
    """Involutions rho . c with rho(c) = c and matching block sizes; `circ`
    additionally keeps only those with an even number of odd-size sign
    blocks (the restriction that `admissible_class` names)."""
    return _enumerated(comp.parts, bool(circ))


def involution_rows(comp: Composition, circ: bool = False):
    """The rows (rho, c, mask) of `enumerate_involutions(comp, circ)`, in
    the same order: rho, c as a sorted tuple, and the orbit mask."""
    return _involutions_for(comp.parts, bool(circ))


def orbit_bit(k: int, i: int, j: int, in_c) -> int:
    """The bit of the orbit {i, j} of a rank-k signed involution (i <= j,
    and i = j for a fixed index), in c or not.  Bits are ordered by the
    orbit's least index i."""
    return 2 * k * i + 2 * j + in_c


def orbit_of_bit(k: int, bit: int):
    """(i, j, in c) of an `orbit_bit`."""
    i, j = divmod(bit >> 1, k)
    return i, j, bit & 1


def orbit_mask(w: SignedInvolution) -> int:
    """One `orbit_bit` per orbit of w."""
    return sum(1 << orbit_bit(w.k, i, j, i in w.c) for i, j in enumerate(w.rho) if i <= j)


@lru_cache(maxsize=None)
def _involutions_for(parts: tuple, circ: bool):
    """The rows for block sizes `parts`, sorted as `sort_key` sorts their
    involutions; r and the sign play no part.  Each index in turn is fixed
    or swapped with a later free index of the same block size, and the
    orbit so formed is put in c or left out.  c is a bit set read from a
    table of the 2^k sorted subsets, no more than twice the rows in number."""
    k = len(parts)
    rho = [None] * k
    by_size = [[] for _ in range(k + 1)]
    pair_bits = [[1 << orbit_bit(k, i, j, 0) for j in range(k)] for i in range(k)]
    subsets = [tuple(j for j in range(k) if b >> j & 1) for b in range(1 << k)]

    def rec(i, cbits, mask):
        while i < k and rho[i] is not None:
            i += 1
        if i == k:
            c = subsets[cbits]
            if not (circ and sum(parts[j] % 2 for j in c) % 2):
                by_size[len(c)].append((tuple(rho), c, mask))
            return
        for j in range(i, k):
            if rho[j] is None and parts[j] == parts[i]:
                rho[i], rho[j] = j, i
                bit = pair_bits[i][j]
                rec(i + 1, cbits, mask | bit)
                rec(i + 1, cbits | 1 << i | 1 << j, mask | bit << 1)
                rho[i] = rho[j] = None

    rec(0, 0, 0)
    return tuple(row for rows in by_size for row in sorted(rows))


@lru_cache(maxsize=None)
def _enumerated(parts: tuple, circ: bool):
    return tuple(SignedInvolution._of_row(rho, c) for rho, c, _ in _involutions_for(parts, circ))


# ---------------------------------------------------------------------------
# fixed non-norm scalars and hermitian representatives


@lru_cache(maxsize=None)
def u_star_rational(pair) -> int:
    """Smallest positive integer that is not a local norm from the upstairs
    quadratic extension."""
    return least_non_norm(pair.field.a, pair.prime)


def y_representative(pair, size: int, bit: int) -> Mat:
    """Diagonal representative of one of the two hermitian classes relative
    to the sigma-tau involution; bit 1 twists the first entry by the fixed
    non-norm (scaled into the anti-hermitian line for the symplectic case)."""
    field = pair.field
    if bit not in (0, 1):
        raise WeylError("bit must be 0 or 1")
    if pair.case is Case.UNITARY:
        lead = u_star_sideways(pair) if bit else field.one
    else:
        lead = field.element(u_star_rational(pair)) if bit else field.one
    entries = [lead] + [field.one] * (size - 1)
    if pair.case is Case.SYMPLECTIC:
        entries = [field.sqrt_a * e for e in entries]
    return Mat.diagonal(field, entries)


# ---------------------------------------------------------------------------
# block-matrix representatives


def gl_star(g: Mat) -> Mat:
    """g* = w t(g)^{-tau} w on a square block, w the antidiagonal ones.

    A monomial g (one nonzero entry in each row and column, as every block
    that `build_xw` passes) has t(g)^{-tau} = g with each nonzero entry e
    replaced by tau(e)^{-1}; w on both sides reverses the rows and the
    columns, so no inverse is formed.  Any other g takes `Mat.inv`."""
    support = [[j for j, e in enumerate(r) if not e.is_zero] for r in g.rows]
    if g.m == g.n and all(len(s) == 1 for s in support) and len({s[0] for s in support}) == g.n:
        return Mat(g.field, [[e if e.is_zero else e.tau().inverse() for e in reversed(r)]
                             for r in reversed(g.rows)])
    w = Mat.antidiag_ones(g.field, g.n)
    return w * conj_transpose(g, "tau").inv() * w


def iota(pair, comp: Composition, blocks, h: Mat) -> Mat:
    """The Levi embedding diag(g_1, ..., g_k, h, g_k*, ..., g_1*)."""
    field = pair.field
    if len(blocks) != comp.k:
        raise WeylError("block count mismatch")
    for g, size in zip(blocks, comp.parts):
        if g.n != size or g.m != size:
            raise WeylError("block size mismatch")
    if h.n != pair.n0 + 2 * comp.r:
        raise WeylError("inner block size mismatch")
    mats = list(blocks) + [h] + [gl_star(g) for g in reversed(blocks)]
    return Mat.block_diag(field, mats)


def admissible_class(comp: Composition, pair) -> bool:
    """Refuse a composition that names no parabolic class of the pair; say
    whether only even o(c) is admissible (split even orthogonal, r = 0: an
    odd o(c) gives det t_w = -1 and no orbit meeting X-circ)."""
    if comp.n != pair.n:
        raise WeylError("composition does not sum to the pair rank")
    if pair.split_even_orthogonal:
        if comp.r == 1:
            raise WeylError("r = 1 is a repeated parabolic class here; fold it into the parts")
        if comp.r == 0 and comp.parts and comp.parts[-1] != 1:
            if comp.split_even_sign is None:
                raise WeylError("this parabolic class needs the +-1 sign")
        elif comp.split_even_sign is not None:
            raise WeylError("sign is only meaningful for r = 0 with n_k != 1")
    elif comp.split_even_sign is not None:
        raise WeylError("sign is a split even orthogonal notion")
    return pair.split_even_orthogonal and comp.r == 0


def _check_comp(comp: Composition, w: SignedInvolution, pair):
    """Refuse a composition that does not fit the pair, or an involution
    that does not fit the composition or that `admissible_class` rules out."""
    even_only = admissible_class(comp, pair)
    if not w.compatible(comp):
        raise WeylError("involution incompatible with the composition")
    if even_only and w.o(comp) % 2:
        raise WeylError("o(c) must be even for split even orthogonal data with r = 0")


def _signed_perm(comp, w, pair):
    """t_rho t_c as a signed permutation (dest, sign): column x of t_w is
    sign[x] e_dest[x] outside the inner block, where t_w acts as
    eta_r^{o(c)} (kappa aside).  t_c swaps each block in c with its mirror,
    the block's own columns picking up eps; t_rho moves block j and its
    mirror to those of rho(j)."""
    N = pair.N
    dest, sign = list(range(N)), [1] * N
    offs = [sum(comp.parts[:j]) for j in range(comp.k)]
    for j, size in enumerate(comp.parts):
        i = w.rho[j]
        for t in range(size):
            top, bot = offs[j] + t, N - offs[j] - size + t
            to_top, to_bot = offs[i] + t, N - offs[i] - size + t
            if j in w.c:
                dest[top], dest[bot], sign[top] = to_bot, to_top, pair.eps
            else:
                dest[top], dest[bot] = to_top, to_bot
    return dest, sign


def _kappa(comp, pair, m: Mat) -> Mat:
    """kappa m kappa^{-1} for the -1 sign (kappa swaps coordinates n-1 and
    n), else m."""
    if comp.split_even_sign != -1:
        return m
    kap = list(range(pair.N))
    kap[pair.n - 1], kap[pair.n] = pair.n, pair.n - 1
    return Mat(m.field, [[m.rows[a][b] for b in kap] for a in kap])


def _t_times(comp, w, pair, m: Mat) -> Mat:
    """kappa (t_rho t_c) m kappa^{-1}, by moving and negating the rows of m."""
    dest, sign = _signed_perm(comp, w, pair)
    rows = [None] * m.n
    for x, row in enumerate(m.rows):
        rows[dest[x]] = row if sign[x] == 1 else [-e for e in row]
    return _kappa(comp, pair, Mat(m.field, rows))


def build_tw(comp: Composition, w: SignedInvolution, pair) -> Mat:
    """The representative t_w = t_rho t_c, kappa-conjugated when the
    composition carries the -1 sign: a signed permutation off the inner
    block and eta_r^{o(c)} on it."""
    _check_comp(comp, w, pair)
    field = pair.field
    inner = eta_m_mat(pair, comp.r) if w.o(comp) % 2 else Mat.identity(field, pair.n0 + 2 * comp.r)
    outer = Mat.identity(field, comp.n - comp.r)
    return _t_times(comp, w, pair, Mat.block_diag(field, [outer, inner, outer]))


def t_w_square_pattern(comp, w, pair) -> Mat:
    """iota(u_1, ..., u_k; I) with u_i = eps on the sign set."""
    field = pair.field
    blocks = [
        Mat.identity(field, s) * (field.element(pair.eps) if i in w.c else field.one)
        for i, s in enumerate(comp.parts)
    ]
    return _kappa(comp, pair, iota(pair, comp, blocks, Mat.identity(field, pair.n0 + 2 * comp.r)))


def trivial_z_invariant(pair):
    if pair.case is Case.SYMPLECTIC:
        return SymplecticOrbit()
    if pair.case is Case.UNITARY:
        return UnitaryOrbit(0)
    return OrthogonalOrbit(0, reduce(1, pair.prime), 1)


def z_component_for(comp, w, pair) -> Component:
    """The inner component of the z block: X-circ's complement for an odd
    o(c) in the orthogonal case (`admissible_class` then has n0 > 0 or r > 1)."""
    if pair.case is Case.ORTHOGONAL and w.o(comp) % 2:
        return Component.COMPLEMENT
    return Component.IDENTITY


def inner_orbit_invariants(comp, w, pair):
    """Invariants of the admissible inner orbits, with no matrix
    construction (decide works on invariants alone)."""
    sub = pair.sub_pair(comp.r)
    if sub is None:
        return (trivial_z_invariant(pair),)
    return component_orbits(sub, z_component_for(comp, w, pair))


def inner_z_choices(comp, w, pair):
    """(invariant, element-of-X) pairs for the admissible inner blocks."""
    sub = pair.sub_pair(comp.r)
    if sub is None:
        empty = Mat.identity(pair.field, 0)
        return ((trivial_z_invariant(pair), empty),)
    return tuple(
        (inv, x) for inv, x, _ in z_orbit_representatives(sub, z_component_for(comp, w, pair))
    )


def build_xw(comp: Composition, w: SignedInvolution, y_bits, z_inv, pair):
    """The admissible-orbit representative x_w({y_i}, z) and its exact
    component-group orbit invariant.

    y_bits maps each index of I(w) to the orbit bit of the hermitian block;
    z_inv selects the inner-block orbit, which must be admissible for the
    sign parity of w."""
    _check_comp(comp, w, pair)
    iw = sorted(w.fixed_in_c)
    if set(y_bits) != set(iw):
        raise WeylError("y_bits must be indexed exactly by I(w)")
    field = pair.field
    choices = dict(inner_z_choices(comp, w, pair))
    if z_inv not in choices:
        raise WeylError(
            f"inner orbit {z_inv} is not realizable for this sign parity"
        )
    z = choices[z_inv]
    blocks = []
    for i, size in enumerate(comp.parts):
        if i in w.c and w.rho[i] == i:
            y = y_representative(pair, size, y_bits[i])
            blocks.append(Mat.antidiag_ones(field, size) * y.sigma())
        elif i in w.c and i > w.rho[i]:
            blocks.append(Mat.identity(field, size) * field.element(pair.eps))
        else:
            blocks.append(Mat.identity(field, size))
    # t_w carries eta_r^{o(c)} on the inner block and eta_r^2 = I, so
    # t_w iota(blocks; eta_r^{o(c)} z) is t_rho t_c applied to iota(blocks; z)
    x = _t_times(comp, w, pair, iota(pair, comp, blocks, z))
    return x, predicted_orbit_invariant(comp, w, y_bits, z_inv, pair)


@lru_cache(maxsize=None)
def unitary_parity_bits(pair):
    """Coset bits feeding the unitary orbit formula: the class of -1 and the
    class contributed by a nontrivial hermitian block.

    -1 = c^(1-sigma) with c = sqrt(a), so the class of -1 is
    [(a, b)_p = -1].  The contribution is 1 on every model: N(u) is a norm
    from Qp(sqrt ab) and not from Qp(sqrt a), so
    (N(u), b)_p = (N(u), a)_p = -1."""
    return int(hilbert_rational(pair.field.a, pair.field.b, pair.prime) == -1), 1


def predicted_orbit_invariant(comp, w, y_bits, z_inv, pair):
    """Closed-form orbit invariant of x_w from the inner-orbit data."""
    iw = sorted(w.fixed_in_c)
    o_c = w.o(comp) % 2
    if pair.case is Case.SYMPLECTIC:
        return SymplecticOrbit()
    if pair.case is Case.UNITARY:
        minus_one, _ = unitary_parity_bits(pair)
        bit = o_c * minus_one + sum(y_bits[i] for i in iw) + z_inv.gamma_bit
        return UnitaryOrbit(bit % 2)
    # orthogonal: the Hasse transfer formula, whose argument counts only up
    # to squares
    nw = w.n_weight(comp)
    sign = (comp.r * o_c + nw * (nw - 1) // 2) % 2
    odd_y = sum(y_bits[i] for i in iw) % 2
    disc, hasse = _orth_base(pair, comp.r, sign, o_c, odd_y)
    if pair.sub_pair(comp.r) is not None:
        hasse *= z_inv.hasse
    return OrthogonalOrbit(0, disc, hasse)


@lru_cache(maxsize=None)
def _orth_base(pair, r, sign, o_c, odd_y):
    """(disc, Hasse sign) of an orthogonal x_w before the inner orbit's own
    sign: J's invariants, the transfer (t, a)_p with
    t = (-1)^sign (2 det j)^o_c u*^odd_y, and the Hasse sign of the inner
    r-block's J when there is one.  The transfer argument of a w is
    (-1)^(r o(c) + n_w (n_w - 1) / 2) (2 det j)^o(c) u*^(set y-bits), so
    r and these three parities fix every prediction."""
    t = (-1) ** sign * Fraction(2 * prod(pair.j_entries)) ** o_c
    if odd_y:
        t *= u_star_rational(pair)
    hasse = hilbert_rational(t, pair.field.a, pair.prime)
    sub = pair.sub_pair(r)
    if sub is not None:
        hasse *= jn_invariants(sub)[1]
    base_disc, base_hasse = jn_invariants(pair)
    return base_disc, base_hasse * hasse


def admissible_orbit_count(comp: Composition, w: SignedInvolution, pair) -> int:
    """2^|I(w)| times the number of admissible inner orbits."""
    _check_comp(comp, w, pair)
    return 2 ** len(w.fixed_in_c) * len(inner_orbit_invariants(comp, w, pair))


@dataclass(frozen=True)
class GLFactor:
    size: int
    over: str  # "E'" or "F'"

    def to_json(self):
        return {"kind": "GL", "size": self.size, "over": self.over}


@dataclass(frozen=True)
class UnitaryFactor:
    size: int
    bit: int

    def to_json(self):
        return {"kind": "U", "size": self.size, "bit": self.bit}


@dataclass(frozen=True)
class InnerFactor:
    z_inv: object

    def to_json(self):
        return {"kind": "fixed-inner", "orbit": self.z_inv.to_json()}


@dataclass(frozen=True)
class StabilizerShape:
    factors: tuple


def stabilizer_shape(comp, w, y_bits, z_inv) -> StabilizerShape:
    """One factor per rho-orbit plus the inner block: paired indices give a
    general linear factor over the big field, fixed indices off the sign set
    one over the sideways-fixed field, fixed indices in the sign set a
    unitary factor."""
    factors = []
    for i in range(comp.k):
        if w.rho[i] == i and i not in w.c:
            factors.append(GLFactor(comp.parts[i], "F'"))
        elif w.rho[i] == i:
            factors.append(UnitaryFactor(comp.parts[i], y_bits[i]))
        elif i < w.rho[i]:
            factors.append(GLFactor(comp.parts[i], "E'"))
    factors.append(InnerFactor(z_inv))
    return StabilizerShape(tuple(factors))
