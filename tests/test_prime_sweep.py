"""Prime-sweep gate: every witness that `decide` returns is realized by
`build_xw` and certified by `classify_x`, at every prime, over ramified and
unramified models alike.

Each pair runs decide -> build_xw -> recover_hilbert90_matrix -> classify_x
over the small grid, with every relation present and every inner orbit
flagged, for every realizable target.  Tier-1 sweeps the primes below 60,
211 (the first prime whose least non-norm in the unramified model is p
itself and lies beyond 200) and the p = 2 models; with LOCALSYM_FULL_SWEEP=1
set it sweeps every prime 3 <= p < 400.
"""

import os

import pytest

from localsym import distinction, symspace, weyl
from localsym.forms import Case
from localsym.localfield import Prime, is_prime
from localsym.numfield import BiquadField, recover_hilbert90_matrix
from localsym.symspace import ClassicalPair

from test_distinction import all_pi0, small_grid

FULL = os.environ.get("LOCALSYM_FULL_SWEEP") == "1"
ODD_PRIMES = [p for p in range(3, 400 if FULL else 60) if is_prime(p)] + ([] if FULL else [211])
P2_MODELS = (-1, 2, -2, 3, 5, 6, -6, 7, 10, -3)


def split_pairs(prime, a):
    field = BiquadField(a)
    return [
        ClassicalPair(Case.ORTHOGONAL, 0, (), 2, prime, field),
        ClassicalPair(Case.ORTHOGONAL, 0, (), 3, prime, field),
        ClassicalPair(Case.SYMPLECTIC, 0, (), 2, prime, field),
    ]


def sweep_pairs(p):
    """Split orthogonal (n = 2, 3) and symplectic (n = 2) pairs with a = p and
    a = the least non-residue u; unitary pairs (n0 <= 1, n <= 2) over the
    models (a, b) = (u, p), (p, u), (p, p u)."""
    prime = Prime(p)
    u = prime.nonresidue
    out = split_pairs(prime, p) + split_pairs(prime, u)
    for a, b in ((u, p), (p, u), (p, p * u)):
        field = BiquadField(a, b)
        for n0, j in ((0, ()), (1, (1,))):
            for n in (1, 2):
                out.append(ClassicalPair(Case.UNITARY, n0, j, n, prime, field))
    return out


def full_datum(pair, comp):
    """Every relation and flag present, every admissible inner orbit flagged."""
    k = comp.k
    same = [(i, j) for i in range(k) for j in range(i, k) if comp.parts[i] == comp.parts[j]]
    return distinction.CuspidalDatum.build(
        [f"pi{i}" for i in range(k)], same, same, range(k),
        [(i, b) for i in range(k) for b in (0, 1)], pi0_dist=all_pi0(pair, comp),
    )


def certify_all(pair):
    """Realize and certify the witness of every distinguished target; return
    how many were certified."""
    certified = 0
    for comp in small_grid(pair):
        data = full_datum(pair, comp)
        for target in symspace.realizable_targets(pair):
            verdict = distinction.decide(pair, comp, data, target)
            if not verdict.distinguished:
                continue
            wt = verdict.witness
            x, predicted = weyl.build_xw(comp, wt.w, dict(wt.y_bits), wt.z_orbit, pair)
            z = recover_hilbert90_matrix(x)
            assert predicted == target, (pair.to_json(), comp.to_json())
            assert symspace.classify_x(x, z, pair) == target, (pair.to_json(), comp.to_json())
            certified += 1
    return certified


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_every_witness_certifies_at_odd_p(p):
    assert sum(certify_all(pair) for pair in sweep_pairs(p)) > 0


@pytest.mark.parametrize("a", P2_MODELS)
def test_every_witness_certifies_at_2(a):
    assert sum(certify_all(pair) for pair in split_pairs(Prime(2), a)) > 0
