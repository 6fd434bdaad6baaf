"""The combinatorial graph on (composition, involution) vertices: the
twisted involution acts on the restricted-root space R^k, edges follow
simple roots made negative (but not anti-fixed) by the action, descent
walks edges along a route cached per involution until none remain, and the
convergence cone is an exact rational membership predicate, decided in
integers on each coordinate's reduced (numerator, denominator) pair: one
comparison per orbit of rho, then one sparse wall of each pair
{alpha, -theta alpha}, which an anti-invariant point meets alike.

Only the combinatorial layer lives here; no analytic data is attached to
edges.  Descent stops at vertices with no eligible simple root; stronger
minimality notions are not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .localfield import LocalsymError, rational
from .weyl import Composition, SignedInvolution, SignedPerm


class InvGraphError(LocalsymError):
    pass


_ZERO = Fraction(0)


@dataclass(frozen=True, slots=True)
class Convention:
    """Root normalization: the wall root is 2 e_k in the split even
    orthogonal convention with r = 0, else e_k."""

    wall_double: bool = False


@dataclass(frozen=True, slots=True)
class ThetaAction:
    """(theta l)_i = signs_i * l_{rho(i)}, signs -1 exactly on the sign set
    and +1 elsewhere."""

    rho: tuple
    signs: tuple

    @classmethod
    def from_involution(cls, w: SignedInvolution) -> "ThetaAction":
        return _theta(w)

    @property
    def k(self):
        return len(self.rho)

    def apply(self, vec):
        return tuple(vec[r] * s for s, r in zip(self.signs, self.rho))

    def anti_invariant_part(self, vec):
        """(vec - theta vec) / 2 in Fractions, one value per orbit of rho:
        coordinate rho(i) is -s_i times coordinate i, the same object when
        s_i = -1, and the coordinates fixed with s_i = +1 share one zero."""
        pts = _ratios(vec)
        out = [_ZERO] * self.k
        for i, r, s in _orbits(self):
            (n, d), (m, e) = pts[i], pts[r]
            if r != i:
                x = out[i] = _fraction(n * e - s * m * d, 2 * d * e)
                out[r] = x if s < 0 else -x
            elif s < 0:
                out[i] = _fraction(n, d)
        return tuple(out)


@lru_cache(maxsize=1024)
def _fraction(n, d):
    """Fraction(n, d), one object for each recent (n, d): the values of
    anti-invariant parts recur, and points that keep them share them."""
    return Fraction(n, d)


@lru_cache(maxsize=None)
def _theta(w: SignedInvolution) -> ThetaAction:
    return ThetaAction(w.rho, tuple(-1 if i in w.c else 1 for i in range(w.k)))


@lru_cache(maxsize=None)
def _orbits(theta: ThetaAction):
    """(i, rho(i), s_i) for i <= rho(i): lam is anti-invariant iff
    lam_rho(i) = -s_i lam_i on each."""
    return tuple((i, r, s) for i, (r, s) in enumerate(zip(theta.rho, theta.signs)) if i <= r)


@dataclass(frozen=True, slots=True)
class Vertex:
    comp: Composition
    w: SignedInvolution

    def __post_init__(self):
        if not self.w.compatible(self.comp):
            raise InvGraphError("involution incompatible with the composition")

    @classmethod
    def _image(cls, comp: Composition, w: SignedInvolution) -> "Vertex":
        """The image of a vertex under an elementary symmetry, which keeps
        the involution compatible, so the check is not run again."""
        v = object.__new__(cls)
        object.__setattr__(v, "comp", comp)
        object.__setattr__(v, "w", w)
        return v

    def to_json(self):
        return {"comp": self.comp.to_json(), "w": self.w.to_json()}


@lru_cache(maxsize=None)
def constraining_roots(theta: ThetaAction, conv: Convention):
    """Positive roots made negative by the action: the walls of the cone."""
    return tuple(
        alpha
        for alpha in positive_roots(theta.k, conv)
        if root_sign(theta.apply(alpha)) < 0
    )


@lru_cache(maxsize=None)
def _sparse_wall(alpha):
    """(i, j, s, f) with <lam, alpha^vee> = f (lam_i + s lam_j)."""
    support = [t for t, a in enumerate(alpha) if a]
    i, j = support[0], support[-1]
    return (i, j, alpha[j], 1) if i != j else (i, i, 0, 2 // alpha[i])


@lru_cache(maxsize=None)
def _cone(theta: ThetaAction, conv: Convention):
    """(orbits, walls): one sparse wall for each pair {alpha, -theta alpha}
    of constraining roots.  theta is an orthogonal involution, so for an
    anti-invariant lam, <lam, -theta alpha> = <theta lam, -alpha> =
    <lam, alpha> and |theta alpha| = |alpha|: the partner repeats alpha."""
    walls, partners = [], set()
    for alpha in constraining_roots(theta, conv):
        if alpha not in partners:
            partners.add(tuple(-x for x in theta.apply(alpha)))
            walls.append(_sparse_wall(alpha))
    return _orbits(theta), tuple(walls)


def _ratios(lam):
    """Each coordinate of lam as its reduced (numerator, denominator)."""
    return [rational(x).as_integer_ratio() for x in lam]


def _above(pts, p, q, walls) -> bool:
    """<lam, alpha^vee> > p / q on every sparse wall (i, j, s, f), with
    lam_i = n / d and lam_j = m / e read from pts: q f (n e + s m d) > p d e
    in integers, as d, e and q are positive."""
    for i, j, s, f in walls:
        (n, d), (m, e) = pts[i], pts[j]
        if q * f * (n * e + s * m * d) <= p * d * e:
            return False
    return True


@lru_cache(maxsize=None)
def simple_roots(k: int, conv: Convention):
    """e_i - e_{i+1} for i < k, then the wall root; none at rank 0."""
    if k == 0:
        return ()
    roots = []
    for i in range(k - 1):
        v = [0] * k
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    wall = [0] * k
    wall[k - 1] = 2 if conv.wall_double else 1
    roots.append(tuple(wall))
    return tuple(roots)


@lru_cache(maxsize=None)
def positive_roots(k: int, conv: Convention):
    """Reduced positive restricted roots: e_i +- e_j (i < j) and the walls."""
    roots = []
    for i in range(k):
        for j in range(i + 1, k):
            v = [0] * k
            v[i], v[j] = 1, -1
            roots.append(tuple(v))
            v = [0] * k
            v[i], v[j] = 1, 1
            roots.append(tuple(v))
    for i in range(k):
        v = [0] * k
        v[i] = 2 if conv.wall_double else 1
        roots.append(tuple(v))
    return tuple(roots)


def root_sign(vec) -> int:
    """+1 for a positive root, -1 for a negative one (first nonzero rules)."""
    for v in vec:
        if v:
            return 1 if v > 0 else -1
    raise InvGraphError("zero vector is not a root")


def theta_on_root(theta: ThetaAction, alpha):
    """Image of a root and its positivity classification."""
    if all(v == 0 for v in alpha):
        raise InvGraphError("zero vector is not a root")
    image = theta.apply(alpha)
    return image, ("positive" if root_sign(image) > 0 else "negative")


def coroot_pairing(lam, alpha) -> Fraction:
    """<lam, alpha^vee> in the standard normalization: alpha^vee is
    2 alpha / (alpha, alpha)."""
    n, d = 0, 1
    for l, a in zip(lam, alpha):
        x, e = rational(l).as_integer_ratio()
        n, d = n * e + a * x * d, d * e
    return Fraction(2 * n, d * sum(a * a for a in alpha))


@lru_cache(maxsize=None)
def _eligible(w: SignedInvolution, conv: Convention):
    theta = ThetaAction.from_involution(w)
    out = []
    for idx, alpha in enumerate(simple_roots(w.k, conv)):
        image, sign = theta_on_root(theta, alpha)
        if sign == "negative" and image != tuple(-x for x in alpha):
            out.append((idx, alpha))
    return tuple(out)


def eligible_simple_roots(v: Vertex, conv: Convention):
    """Simple roots alpha with theta(alpha) negative but not equal to
    -alpha: the edges out of the vertex."""
    return list(_eligible(v.w, conv))


def _symmetry_perm(k: int, idx: int) -> SignedPerm:
    if idx < k - 1:
        rho = list(range(k))
        rho[idx], rho[idx + 1] = idx + 1, idx
        return SignedPerm(tuple(rho), frozenset())
    return SignedPerm(tuple(range(k)), frozenset({k - 1}))


@lru_cache(maxsize=None)
def _reflect(w: SignedInvolution, idx: int) -> SignedInvolution:
    return w.conjugate_by(_symmetry_perm(w.k, idx))


@lru_cache(maxsize=None)
def _swap_parts(comp: Composition, idx: int) -> Composition:
    parts = list(comp.parts)
    parts[idx], parts[idx + 1] = parts[idx + 1], parts[idx]
    return Composition(tuple(parts), comp.r, comp.split_even_sign)


def apply_symmetry(v: Vertex, idx: int) -> Vertex:
    """The elementary symmetry at a simple root: swap the adjacent parts or
    fold the last one, conjugating the involution class."""
    comp2 = _swap_parts(v.comp, idx) if idx < v.comp.k - 1 else v.comp
    return Vertex._image(comp2, _reflect(v.w, idx))


def s_alpha_on_vector(k: int, idx: int, vec):
    if idx < k - 1:
        out = list(vec)
        out[idx], out[idx + 1] = out[idx + 1], out[idx]
        return tuple(out)
    out = list(vec)
    out[k - 1] = -out[k - 1]
    return tuple(out)


@dataclass(frozen=True, slots=True)
class DescentStep:
    step: int
    alpha: tuple
    vertex: Vertex

    def to_json(self):
        return {
            "step": self.step,
            "alpha": list(self.alpha),
            "new_comp": self.vertex.comp.to_json(),
            "new_w": self.vertex.w.to_json(),
        }


@lru_cache(maxsize=None)
def _route(w: SignedInvolution, conv: Convention):
    """The greedy descent from w as (idx, alpha, w') steps, w' the involution
    after the step: the route depends on the involution alone."""
    route = []
    bound = len(positive_roots(w.k, conv))
    while options := _eligible(w, conv):
        idx, alpha = options[0]
        w = _reflect(w, idx)
        route.append((idx, alpha, w))
        if len(route) > bound:
            raise InvGraphError("descent exceeded the positive-root bound")
    return tuple(route)


def descend(v: Vertex, conv: Convention):
    """Greedy descent along least eligible simple roots; returns the list of
    steps (empty for a terminal vertex) and the terminal vertex reached.

    The walk is bounded by the number of positive restricted roots; a longer
    one raises InvGraphError, which would signal a bug."""
    path = []
    current = v
    comp, last = v.comp, v.comp.k - 1
    for idx, alpha, w in _route(v.w, conv):
        if idx < last:
            comp = _swap_parts(comp, idx)
        current = Vertex._image(comp, w)
        path.append(DescentStep(len(path) + 1, alpha, current))
    return path, current


def is_terminal(v: Vertex, conv: Convention) -> bool:
    return not _eligible(v.w, conv)


def cone_contains(theta: ThetaAction, lam, c, conv: Convention) -> bool:
    """Membership in the open cone: lam anti-invariant under theta and
    <lam, alpha^vee> > c for every positive root made negative by theta.
    Decided in integers on each coordinate's reduced (numerator,
    denominator) pair: anti-invariance orbit by orbit, then one wall of
    each pair {alpha, -theta alpha}."""
    p, q = rational(c).as_integer_ratio()
    pts = _ratios(lam)
    if len(pts) != theta.k:
        raise InvGraphError("dimension mismatch")
    orbits, walls = _cone(theta, conv)
    for i, r, s in orbits:
        (n, d), (m, e) = pts[i], pts[r]
        if m != -s * n or e != d:
            return False
    return _above(pts, p, q, walls)


def cone_recursion_holds(v: Vertex, idx: int, lam, c, conv: Convention) -> bool:
    """The one-step cone identity along an edge: membership at the source
    equals membership of the reflected point at the target intersected with
    the wall condition for the crossed root."""
    alpha = simple_roots(v.comp.k, conv)[idx]
    target = apply_symmetry(v, idx)
    theta = ThetaAction.from_involution(v.w)
    theta1 = ThetaAction.from_involution(target.w)
    lhs = cone_contains(theta, lam, c, conv)
    moved = s_alpha_on_vector(v.comp.k, idx, lam)
    rhs = cone_contains(theta1, moved, c, conv) and _above(
        _ratios(lam), *rational(c).as_integer_ratio(), (_sparse_wall(alpha),)
    )
    return lhs == rhs
