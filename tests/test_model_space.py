"""Chain gate beyond the small grid: seeded random pairs, compositions and
data, each witness that `decide` returns built and certified.

The small grid of the other chain tests has at most two blocks of size at
most two, and their pairs have N <= 7.  Here a seeded generator draws:
- p in {2, 3, 5, 7, 13}, with a from the nontrivial square classes at p,
  and for unitary pairs (a, b) from the ordered pairs of distinct ones
- orthogonal kernels of rank 0, 3 or 4 and unitary kernels of rank <= 2,
  each entry a class representative times 1 or p^2; an isotropic kernel
  is drawn again
- 3 to 5 blocks of size 1 to 3 and N <= 16 (tier-1), or 3 to 8 blocks of
  size 1 to 4 and N <= 64 = `cli.MAX_MATRIX_SIZE` with
  LOCALSYM_FULL_SWEEP=1 set
- relations, flags and flagged inner orbits, each present with
  probability 0.9

For every realizable target each witness goes through build_xw ->
recover_hilbert90_matrix -> classify_x and must land in the target.  An
undistinguished verdict at k <= 5 must equal the separate reference search
of tests/test_distinction.py.  The counts are pinned, so that a change
which refuses more models cannot pass by certifying fewer.
"""

import os
import random

from localsym import distinction, symspace, weyl
from localsym.forms import Case
from localsym.localfield import Prime
from localsym.numfield import BiquadField, recover_hilbert90_matrix
from localsym.symspace import ClassicalPair, Component, SymspaceError

from test_distinction import reference_verdict
from test_local_models import class_reps

FULL = os.environ.get("LOCALSYM_FULL_SWEEP") == "1"
PRIMES = (2, 3, 5, 7, 13)
# draws, N bound, most blocks, largest block
SIZES = (400, 64, 8, 4) if FULL else (700, 16, 5, 3)
# (witnesses certified, undistinguished verdicts checked) for the sizes above
COUNTS = (647, 14) if FULL else (1123, 10)


def draw_pair(rng, max_n):
    while True:
        p = rng.choice(PRIMES)
        reps = class_reps(p)
        case = rng.choice((Case.SYMPLECTIC, Case.ORTHOGONAL, Case.ORTHOGONAL, Case.UNITARY))
        if case is Case.UNITARY:
            field = BiquadField(*rng.sample(reps[1:], 2))
            n0 = rng.randint(0, 2)
        else:
            field = BiquadField(rng.choice(reps[1:]))
            n0 = 0 if case is Case.SYMPLECTIC else rng.choice((0, 3, 4))
        kernel = tuple(rng.choice(reps) * rng.choice((1, p * p)) for _ in range(n0))
        try:
            return ClassicalPair(case, n0, kernel, rng.randint(3, (max_n - n0) // 2), Prime(p), field)
        except SymspaceError:
            pass  # an isotropic kernel is no model


def draw_composition(rng, pair, max_blocks, max_part):
    while True:
        parts = tuple(rng.randint(1, max_part) for _ in range(rng.randint(3, max_blocks)))
        r = pair.n - sum(parts)
        if r < 0 or (pair.split_even_orthogonal and r == 1):
            continue
        sign = rng.choice((1, -1)) if pair.split_even_orthogonal and r == 0 and parts[-1] != 1 else None
        return weyl.Composition(parts, r, sign)


def draw_datum(rng, pair, comp, density=0.9):
    k = comp.k
    same = [(i, j) for i in range(k) for j in range(i, k) if comp.parts[i] == comp.parts[j]]
    sub = pair.sub_pair(comp.r)
    inner = []
    if sub is not None:
        components = (Component.IDENTITY, Component.COMPLEMENT) if sub.case is Case.ORTHOGONAL else (Component.IDENTITY,)
        inner = [o for c in components for o in symspace.component_orbits(sub, c)]

    def some(items):
        return [x for x in items if rng.random() < density]

    return distinction.CuspidalDatum.build(
        [f"pi{i}" for i in range(k)], some(same), some(same), some(range(k)),
        some([(i, b) for i in range(k) for b in (0, 1)]), some(inner),
    )


def test_every_witness_certifies_beyond_the_small_grid():
    draws, max_n, max_blocks, max_part = SIZES
    rng = random.Random(8)
    certified, checked, seen = 0, 0, set()
    for _ in range(draws):
        pair = draw_pair(rng, max_n)
        comp = draw_composition(rng, pair, max_blocks, max_part)
        data = draw_datum(rng, pair, comp)
        for target in symspace.realizable_targets(pair):
            verdict = distinction.decide(pair, comp, data, target)
            where = (pair.to_json(), comp.to_json(), target.to_json())
            if not verdict.distinguished:
                if comp.k <= 5:
                    assert verdict.to_json() == reference_verdict(pair, comp, data, target), where
                    checked += 1
                continue
            wt = verdict.witness
            x, predicted = weyl.build_xw(comp, wt.w, dict(wt.y_bits), wt.z_orbit, pair)
            assert predicted == target, where
            assert symspace.classify_x(x, recover_hilbert90_matrix(x), pair) == target, where
            certified += 1
            p = pair.prime.p
            seen |= {("p", p), ("case", pair.case, pair.n0), ("N > 7", pair.N > 7), ("N", pair.N),
                     ("block of", max(comp.parts)), ("blocks", comp.k),
                     ("p^2 entry", any(e % (p * p) == 0 for e in pair.j_entries)),
                     ("rational x", x.is_rational)}
            if pair.case is Case.UNITARY:
                seen.add(("unitary at", p))
    assert (certified, checked) == COUNTS
    # the coverage the module docstring promises
    assert {("p", p) for p in PRIMES} | {("unitary at", 2), ("N > 7", True), ("N", max_n), ("p^2 entry", True),
                                         ("rational x", False)} <= seen
    assert {("case", Case.ORTHOGONAL, r) for r in (0, 3, 4)} | {("blocks", k) for k in (3, 4, 5)} <= seen
    assert {("block of", s) for s in range(1, max_part + 1)} <= seen
