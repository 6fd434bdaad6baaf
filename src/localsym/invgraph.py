"""The combinatorial graph on (composition, involution) vertices: the
twisted involution acts on the restricted-root space R^k, edges follow
simple roots made negative (but not anti-fixed) by the action, descent
walks edges until none remain, and the convergence cone is an exact
rational membership predicate, decided in integers: the point is put over
one common denominator and each wall is compared without Fractions.

Only the combinatorial layer lives here; no analytic data is attached to
edges.  Descent stops at vertices with no eligible simple root; stronger
minimality notions are not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .weyl import Composition, SignedInvolution, SignedPerm


class InvGraphError(ValueError):
    pass


_HALF = Fraction(1, 2)


def _exact(x):
    """x as an int or a Fraction; Fraction(x) runs only for other types."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class Convention:
    """Root normalization: the wall root is 2 e_k in the split even
    orthogonal convention with r = 0, else e_k."""

    wall_double: bool = False


@dataclass(frozen=True)
class ThetaAction:
    """(theta l)_i = signs_i * l_{rho(i)}, signs -1 exactly on the sign set
    and +1 elsewhere."""

    rho: tuple
    signs: tuple

    @classmethod
    def from_involution(cls, w: SignedInvolution) -> "ThetaAction":
        return cls(w.rho, tuple(-1 if i in w.c else 1 for i in range(w.k)))

    @property
    def k(self):
        return len(self.rho)

    def apply(self, vec):
        return tuple(vec[r] * s for s, r in zip(self.signs, self.rho))

    def anti_invariant_part(self, vec):
        vec = tuple(_exact(x) for x in vec)
        return tuple(_HALF * (v - t) for v, t in zip(vec, self.apply(vec)))


@dataclass(frozen=True)
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


def _wall_row(alpha):
    return alpha, sum(a * a for a in alpha)


@lru_cache(maxsize=None)
def _wall_rows(theta: ThetaAction, conv: Convention):
    """(alpha, |alpha|^2) for each wall of the cone."""
    return tuple(_wall_row(alpha) for alpha in constraining_roots(theta, conv))


def _integer_point(lam):
    """(n, d) with lam = n / d, n integers and d the lcm of the denominators."""
    lam = [_exact(x) for x in lam]
    dens = [x.denominator for x in lam]
    d = lcm(*dens)
    return tuple(x.numerator * (d // e) for x, e in zip(lam, dens)), d


def _above_walls(num, d, c, rows) -> bool:
    """<lam, alpha^vee> > c on every row (alpha, |alpha|^2), for lam = num / d
    and c = p / q: the wall test 2 q <num, alpha> > p d |alpha|^2 in integers."""
    q2 = 2 * c.denominator
    pd = c.numerator * d
    for alpha, norm2 in rows:
        if q2 * sum(map(mul, num, alpha)) <= pd * norm2:
            return False
    return True


@lru_cache(maxsize=None)
def simple_roots(k: int, conv: Convention):
    """e_i - e_{i+1} for i < k, then the wall root."""
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
    num = sum(Fraction(l) * a for l, a in zip(lam, alpha))
    den = sum(Fraction(a) * a for a in alpha)
    return 2 * num / den


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


@dataclass(frozen=True)
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


def descend(v: Vertex, conv: Convention):
    """Greedy descent along least eligible simple roots; returns the list of
    steps (empty for a terminal vertex) and the terminal vertex reached.

    The walk is bounded by the number of positive restricted roots; a longer
    one raises InvGraphError, which would signal a bug."""
    path = []
    bound = len(positive_roots(v.comp.k, conv))
    current = v
    while True:
        options = _eligible(current.w, conv)
        if not options:
            return path, current
        idx, alpha = options[0]
        current = apply_symmetry(current, idx)
        path.append(DescentStep(len(path) + 1, alpha, current))
        if len(path) > bound:
            raise InvGraphError("descent exceeded the positive-root bound")


def is_terminal(v: Vertex, conv: Convention) -> bool:
    return not _eligible(v.w, conv)


def cone_contains(theta: ThetaAction, lam, c, conv: Convention) -> bool:
    """Membership in the open cone: lam anti-invariant under theta and
    <lam, alpha^vee> > c for every positive root made negative by theta.
    Decided on the integer numerators of lam over its common denominator."""
    num, d = _integer_point(lam)
    if len(num) != theta.k:
        raise InvGraphError("dimension mismatch")
    if theta.apply(num) != tuple(-x for x in num):
        return False
    return _above_walls(num, d, _exact(c), _wall_rows(theta, conv))


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
    rhs = cone_contains(theta1, moved, c, conv) and _above_walls(
        *_integer_point(lam), _exact(c), (_wall_row(alpha),)
    )
    return lhs == rhs
