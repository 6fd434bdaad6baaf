"""The decision procedure for distinction of representations induced from
cuspidal data, at the combinatorial level: representation-theoretic facts
enter only through a finite relation/flag oracle, and the arithmetic side
is settled by the exact orbit formulas.

A verdict is a witness (involution, hermitian bits, inner orbit) or a
complete per-candidate failure log.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .symspace import (
    OrthogonalOrbit,
    SymplecticOrbit,
    UnitaryOrbit,
    realizable_targets,
)
from .weyl import (
    Composition,
    SignedInvolution,
    admissible_class,
    inner_orbit_invariants,
    involution_at,
    involution_rows,
    orbit_bit,
    orbit_mask,
    orbit_of_bit,
    predicted_orbit_invariant,
)


class DistinctionError(ValueError):
    pass


def _pairs(items):
    out = set()
    for it in items:
        pair = frozenset(it)
        if not pair or len(pair) > 2:
            raise DistinctionError(f"bad relation pair {it!r}")
        out.add(pair)
    return frozenset(out)


@dataclass(frozen=True)
class CuspidalDatum:
    """Opaque labels with a finite oracle of relations and distinction flags.

    conj_dual pairs {i, j} assert that label j is the conjugate dual of
    label i (an involutive relation, so unordered pairs suffice);
    sigma_tau pairs assert the sigma-tau twist relation.  linear_dist
    flags a label as distinguished by the sideways-rational block,
    unitary_dist(i, bit) by the hermitian block of the given orbit bit,
    and pi0_dist lists the inner orbits whose fixed group distinguishes
    the inner representation."""

    labels: tuple
    conj_dual: frozenset = frozenset()
    sigma_tau: frozenset = frozenset()
    linear_dist: frozenset = frozenset()
    unitary_dist: frozenset = frozenset()
    pi0_dist: tuple = ()

    @classmethod
    def build(cls, labels, conj_dual=(), sigma_tau=(), linear_dist=(), unitary_dist=(), pi0_dist=()):
        return cls(
            tuple(labels),
            _pairs(conj_dual),
            _pairs(sigma_tau),
            frozenset(linear_dist),
            frozenset((i, b) for i, b in unitary_dist),
            tuple(pi0_dist),
        )

    @property
    def k(self):
        return len(self.labels)

    def validate(self, comp: Composition):
        if self.k != comp.k:
            raise DistinctionError("label count does not match the composition")
        for rel in self.conj_dual | self.sigma_tau:
            idx = sorted(rel)
            if any(i not in range(self.k) for i in idx):
                raise DistinctionError("relation index out of range")
            if len(idx) == 2 and comp.parts[idx[0]] != comp.parts[idx[1]]:
                raise DistinctionError(
                    f"relation {tuple(i + 1 for i in idx)} asserted with mismatched block sizes"
                )
        for i in self.linear_dist:
            if i not in range(self.k):
                raise DistinctionError("flag index out of range")
        for i, b in self.unitary_dist:
            if i not in range(self.k) or b not in (0, 1):
                raise DistinctionError("bad hermitian flag")

    def unitary_bits(self, i):
        return tuple(sorted(b for j, b in self.unitary_dist if j == i))

    def to_json(self):
        return {
            "labels": list(self.labels),
            "conj_dual": sorted(sorted(i + 1 for i in rel) for rel in self.conj_dual),
            "sigma_tau": sorted(sorted(i + 1 for i in rel) for rel in self.sigma_tau),
            "linear_dist": sorted(i + 1 for i in self.linear_dist),
            "unitary_dist": sorted([i + 1, b] for i, b in self.unitary_dist),
            "pi0_dist": [inv.to_json() for inv in self.pi0_dist],
        }

    @classmethod
    def from_json(cls, d):
        return cls.build(
            d["labels"],
            [tuple(i - 1 for i in rel) for rel in d.get("conj_dual", [])],
            [tuple(i - 1 for i in rel) for rel in d.get("sigma_tau", [])],
            [i - 1 for i in d.get("linear_dist", [])],
            [(i - 1, b) for i, b in d.get("unitary_dist", [])],
            [orbit_from_json(o) for o in d.get("pi0_dist", [])],
        )


def orbit_from_json(d):
    case = d["case"]
    if case == "symplectic":
        return SymplecticOrbit()
    if case == "unitary":
        return UnitaryOrbit(d["gamma_bit"])
    from .localfield import SquareClass

    return OrthogonalOrbit(
        0 if d["component"] == "SX" else 1,
        SquareClass.from_json(d["partial"]),
        d["hasse"],
    )


@dataclass(frozen=True)
class Witness:
    w: SignedInvolution
    y_bits: tuple  # sorted ((index, bit), ...)
    z_orbit: object

    def to_json(self):
        return {
            "w": self.w.to_json(),
            "y_bits": {str(i + 1): b for i, b in self.y_bits},
            "z_orbit": self.z_orbit.to_json(),
        }


@dataclass(frozen=True)
class Verdict:
    distinguished: bool
    witness: Witness | None
    failure_log: tuple

    def __post_init__(self):
        if self.distinguished != (self.witness is not None):
            raise DistinctionError("a verdict is distinguished exactly when it has a witness")

    def to_json(self):
        return {
            "distinguished": self.distinguished,
            "witness": self.witness.to_json() if self.witness else None,
            "failure_log": list(self.failure_log),
        }


ROW_PROSE = {
    "rows.sigma_tau": "no sigma-tau relation between {} and {}",
    "rows.hermitian_flag": "label {} has no hermitian-distinction flag",
    "rows.conj_dual": "no conjugate-dual relation between {} and {}",
    "rows.linear_dist": "label {} is not flagged linearly distinguished",
}

# the reasons of a candidate that passes the rows: an inner orbit not
# flagged for pi0 (its JSON), or hermitian bits and an inner orbit whose
# predicted orbit is not the target (the bits tuple, the orbit's JSON)
SEARCH_PROSE = {
    "inner.pi0_unflagged": "inner orbit {} not flagged for pi0",
    "arith.other_orbit": "bits {} with inner orbit {} lands in another orbit",
}


def allowed_orbits(k, sigma_tau, hermitian, conj_dual, linear) -> int:
    """The `weyl.orbit_bit`s of the rank-k orbits that pass their row: a
    fixed index in c with a hermitian flag, one outside c with a linear
    flag, a pair in c with a sigma-tau relation and a pair outside c with
    a conjugate-dual relation.  Relations that are not two indices in
    [0, k) allow nothing."""
    allowed = 0
    for flags, in_c in ((linear, 0), (hermitian, 1)):
        for i in range(k):
            if i in flags:
                allowed |= 1 << orbit_bit(k, i, i, in_c)
    indices = frozenset(range(k))
    for relations, in_c in ((conj_dual, 0), (sigma_tau, 1)):
        for rel in relations:
            if len(rel) == 2 and indices.issuperset(rel):
                i, j = sorted(rel)
                allowed |= 1 << orbit_bit(k, int(i), int(j), in_c)
    return allowed


def first_failing_row(k, forbidden):
    """None, or (reason code, 1-based indices) of the lowest bit of a mask
    of forbidden rank-k orbits: the row of the least index."""
    if not forbidden:
        return None
    i, j, in_c = orbit_of_bit(k, (forbidden & -forbidden).bit_length() - 1)
    if i == j:
        return ("rows.hermitian_flag" if in_c else "rows.linear_dist"), (i + 1,)
    return ("rows.sigma_tau" if in_c else "rows.conj_dual"), (i + 1, j + 1)


def check_rows(w, sigma_tau, hermitian, conj_dual, linear):
    """The four condition rows of w against relation pairs and flagged
    indices: a signed pair needs a sigma-tau relation, a signed fixed point
    a hermitian flag, an unsigned pair a conjugate-dual relation and an
    unsigned fixed point a linear flag.  Takes 0-based indices; returns
    None, or (reason code, 1-based indices) for the first failing row,
    which ROW_PROSE renders."""
    allowed = allowed_orbits(w.k, sigma_tau, hermitian, conj_dual, linear)
    return first_failing_row(w.k, orbit_mask(w) & ~allowed)


@lru_cache(maxsize=None)
def _tags(parts: tuple, circ: bool) -> dict:
    """The failure-log tags 'w=<w.to_json()>: ' of the involution rows for
    block sizes `parts`, by position (which depends on nothing else);
    decide adds each tag when a search first reaches its row."""
    return {}


def _tag(rho, c) -> str:
    """The tag of a row (rho, c), byte-equal to f"w={w.to_json()}: "."""
    return f"w={{'rho': {[i + 1 for i in rho]}, 'c': {[i + 1 for i in c]}}}: "


@lru_cache(maxsize=None)
def _row_reasons(k: int) -> dict:
    """The log text 'rows: <ROW_PROSE>' of each rank-k orbit's row, keyed by
    the orbit's single-bit mask."""
    out = {}
    for i in range(k):
        for j in range(i, k):
            for in_c in (0, 1):
                bit = 1 << orbit_bit(k, i, j, in_c)
                code, idx = first_failing_row(k, bit)
                out[bit] = "rows: " + ROW_PROSE[code].format(*idx)
    return out


def decide(pair, comp: Composition, data: CuspidalDatum, target) -> Verdict:
    """Search for a witness (w, {y_i bits}, inner orbit) passing the five
    condition rows and the case arithmetic for the requested orbit.

    Enumeration order is deterministic: involutions by (|c|, rho, c), then
    hermitian bits in increasing binary order, then inner orbits.

    Each failure-log line is 'w=<tag>: <reason>', the tag being the Python
    repr (not JSON) of w.to_json(), 1-based.  The reason is 'rows: ' plus
    the ROW_PROSE of the failing row, or the SEARCH_PROSE of
    'inner.pi0_unflagged' or 'arith.other_orbit'.  The rows are one test per
    involution: its orbit mask against the datum's `allowed_orbits`, the
    lowest forbidden bit naming the failing row.  The search reads the
    involution rows (rho, c, mask); each row's tag is formatted once per
    process, when a search first reaches it, each row reason once per
    orbit, and a `SignedInvolution` is built only for a row that passes."""
    data.validate(comp)
    circ = admissible_class(comp, pair)
    if target not in realizable_targets(pair):
        raise DistinctionError(f"target {target} is not realizable for this pair")
    sub = pair.sub_pair(comp.r)
    hermitian = {i for i, _ in data.unitary_dist}
    forbidden = ~allowed_orbits(comp.k, data.sigma_tau, hermitian, data.conj_dual, data.linear_dist)
    reasons = _row_reasons(comp.k)
    tags = _tags(comp.parts, circ)
    log = []
    for pos, (rho, c, mask) in enumerate(involution_rows(comp, circ)):
        tag = tags.get(pos)
        if tag is None:
            tag = tags[pos] = _tag(rho, c)
        bad = mask & forbidden
        if bad:
            log.append(tag + reasons[bad & -bad])
            continue
        w = involution_at(comp, circ, pos)
        iw = sorted(w.fixed_in_c)
        bit_ranges = [data.unitary_bits(i) for i in iw]
        inner = inner_orbit_invariants(comp, w, pair)
        for bits in itertools.product(*bit_ranges):
            y_bits = dict(zip(iw, bits))
            for z_inv in inner:
                if sub is not None and z_inv not in data.pi0_dist:
                    log.append(tag + SEARCH_PROSE["inner.pi0_unflagged"].format(z_inv.to_json()))
                    continue
                predicted = predicted_orbit_invariant(comp, w, y_bits, z_inv, pair)
                if predicted == target:
                    witness = Witness(w, tuple(sorted(y_bits.items())), z_inv)
                    return Verdict(True, witness, tuple(log))
                log.append(tag + SEARCH_PROSE["arith.other_orbit"].format(bits, z_inv.to_json()))
    return Verdict(False, None, tuple(log))


def _singletons(relations):
    return {i for rel in relations if len(rel) == 1 for i in rel}


def necessary_condition(data: CuspidalDatum, w: SignedInvolution) -> bool:
    """The tuple identity w(pi_1, ..., pi_k; pi_0) = (conjugate duals; pi_0),
    verified symbolically: each slot must be derivably isomorphic to the
    conjugate dual of the original entry."""
    if data.k != w.k:
        raise DistinctionError("rank mismatch")
    # a fixed index also passes on a self-relation {i}
    hermitian = {i for i, _ in data.unitary_dist} | _singletons(data.sigma_tau)
    linear = data.linear_dist | _singletons(data.conj_dual)
    return check_rows(w, data.sigma_tau, hermitian, data.conj_dual, linear) is None


# ---------------------------------------------------------------------------
# the symbolic product check for the big linear group


@dataclass(frozen=True)
class GlBlocks:
    """A palindromic product pi_1 x ... x pi_k x Pi_0 x dual(pi_k) x ... x
    dual(pi_1) with relation and flag data on the pi_i and on Pi_0.  The
    positions follow from k: pi_i at i, the center (when center_size > 0)
    at k and dual(pi_i) at L - 1 - i, where L = 2k + (1 with a center).

    chi_dist maps a character tag ("trivial" or "eta") to the flagged
    indices; center_chi_dist lists the tags for which the center block is
    distinguished."""

    sizes: tuple
    center_size: int = 0
    conj_dual: frozenset = frozenset()
    sigma_tau: frozenset = frozenset()
    chi_dist: tuple = ()  # ((tag, frozenset of indices), ...)
    unitary_dist: frozenset = frozenset()
    center_chi_dist: frozenset = frozenset()

    @classmethod
    def build(cls, k, sizes, center_size=0, conj_dual=(), sigma_tau=(), chi_dist=(),
              unitary_dist=(), center_chi_dist=()):
        sizes = tuple(sizes)
        if k != len(sizes):
            raise DistinctionError("malformed palindrome")
        return cls(
            sizes,
            center_size,
            _pairs(conj_dual),
            _pairs(sigma_tau),
            tuple((tag, frozenset(idx)) for tag, idx in chi_dist),
            frozenset(unitary_dist),
            frozenset(center_chi_dist),
        )

    @property
    def k(self):
        return len(self.sizes)

    def chi_flags(self, chi):
        for tag, idx in self.chi_dist:
            if tag == chi:
                return idx
        return frozenset()


def gl_product_check(blocks: GlBlocks, chi: str = "trivial"):
    """Decide the twisted distinction of the palindromic product by pairing
    blocks into distinguished units: flagged singles by the closed-orbit
    argument, dual pairs by the open-orbit one.

    As in `decide`, the rows are one allowed mask per call and one orbit
    mask per involution row.

    Returns (ok, decomposition, pairing) where decomposition lists the
    units by block positions."""
    if chi not in ("trivial", "eta"):
        raise DistinctionError("chi must be 'trivial' or 'eta'")
    k = blocks.k
    if blocks.center_size and chi not in blocks.center_chi_dist:
        return False, None, None
    last = 2 * k - 1 + (1 if blocks.center_size else 0)  # dual(pi_i) sits at last - i
    flags = blocks.chi_flags(chi)
    forbidden = ~allowed_orbits(k, blocks.sigma_tau, blocks.unitary_dist, blocks.conj_dual, flags)
    for rho, c, mask in involution_rows(Composition(blocks.sizes, 0)):
        if mask & forbidden:
            continue
        units = []
        for i in range(k):
            j = rho[i]
            if j == i and i not in c:
                units.append({"type": "closed", "blocks": [i]})
                units.append({"type": "closed", "blocks": [last - i]})
            elif j == i:
                units.append({"type": "open", "blocks": [i, last - i]})
            elif i < j and i not in c:
                units.append({"type": "open", "blocks": [i, j]})
                units.append({"type": "open", "blocks": [last - i, last - j]})
            elif i < j:
                units.append({"type": "open", "blocks": [i, last - j]})
                units.append({"type": "open", "blocks": [j, last - i]})
        if blocks.center_size:
            units.append({"type": "closed", "blocks": [k]})
        return True, units, (rho, frozenset(c))
    return False, None, None
