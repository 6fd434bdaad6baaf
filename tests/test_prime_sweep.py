"""Prime-sweep gate: every witness that `decide` returns is realized by
`build_xw` and certified by `classify_x`, at every prime, over ramified and
unramified models alike.

Each pair runs decide -> build_xw -> recover_hilbert90_matrix -> classify_x
over the small grid, with every relation present and every inner orbit
flagged, for every realizable target.  Tier-1 sweeps the primes below 60,
211 (the first prime whose least non-norm in the unramified model is p
itself and lies beyond 200), the p = 2 models and four large primes; with
LOCALSYM_FULL_SWEEP=1 set it sweeps every prime 3 <= p < 400.

Global-model invariance: a local pair is modelled by global squarefree a
and b, so every answer must depend on their square classes at p alone.
Each model is compared with two others, a and b multiplied by primes that
are squares in Qp.  Tier-1 compares a few models per prime at p = 2, 3
and 5; with LOCALSYM_FULL_SWEEP=1 set it compares all of them.
"""

import os

import pytest

from localsym import distinction, symspace, weyl
from localsym.forms import Case
from localsym.localfield import Prime, is_prime, reduce
from localsym.numfield import BiquadField, recover_hilbert90_matrix
from localsym.symspace import ClassicalPair

from test_distinction import all_pi0, small_grid

FULL = os.environ.get("LOCALSYM_FULL_SWEEP") == "1"
ODD_PRIMES = [p for p in range(3, 400 if FULL else 60) if is_prime(p)] + ([] if FULL else [211])
P2_MODELS = (-1, 2, -2, 3, 5, 6, -6, 7, 10, -3)
LARGE_PRIMES = (1000003, 2**31 - 1, 10**12 + 39, 2**61 - 1)


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


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_every_witness_certifies_at_large_p(p):
    """Every model of the sweep, ramified (a = p, or b = p or p u) and
    unramified, at primes whose squarefree check and non-norm values have
    no factor or scan of size p to lean on; each model certifies a witness."""
    pairs = sweep_pairs(p)
    assert any(pair.field.a == p for pair in pairs)
    assert all(certify_all(pair) > 0 for pair in pairs)


# ---------------------------------------------------------------------------
# global-model invariance


def invariance_models(p):
    """(case, n0, j, n, a, b): split orthogonal and symplectic pairs with
    n = 2, and unitary pairs with n0 <= 1 and n <= 2."""
    if p == 2:
        split, unitary = (-1, 2, 3, 5), ((-1, 2), (3, 5), (2, 5))
    else:
        u = Prime(p).nonresidue
        split, unitary = (p, u), ((u, p), (p, u), (p, p * u))
    out = [(case, 0, (), 2, a, None) for a in split for case in (Case.ORTHOGONAL, Case.SYMPLECTIC)]
    out += [(Case.UNITARY, n0, j, n, a, b) for a, b in unitary
            for n0, j in ((0, ()), (1, (1,))) for n in (1, 2)]
    return out if FULL else out[::4]


def square_primes(p, avoid, count=2):
    """The least primes prime to `avoid` that are squares in Qp."""
    out, q = [], 1
    while len(out) < count:
        q += 1
        if is_prime(q) and avoid % q and reduce(q, Prime(p)).is_trivial:
            out.append(q)
    return out


def model_answers(pair):
    """The orbit count and targets, then, for each small-grid composition,
    datum (every relation and flag, or none) and target: the verdict, the
    failure-log length and whether build_xw and classify_x certify the
    witness."""
    targets = symspace.realizable_targets(pair)
    answers = [symspace.orbit_count_X(pair), targets]
    for comp in small_grid(pair):
        bare = distinction.CuspidalDatum.build([f"pi{i}" for i in range(comp.k)])
        for data in (full_datum(pair, comp), bare):
            for target in targets:
                verdict = distinction.decide(pair, comp, data, target)
                certified = None
                if verdict.distinguished:
                    wt = verdict.witness
                    x, predicted = weyl.build_xw(comp, wt.w, dict(wt.y_bits), wt.z_orbit, pair)
                    certified = predicted == target and symspace.classify_x(
                        x, recover_hilbert90_matrix(x), pair) == target
                answers.append((verdict.distinguished, len(verdict.failure_log), certified))
    return answers


@pytest.mark.parametrize("p", [2, 3, 5])
def test_answers_depend_on_square_classes_only(p):
    prime = Prime(p)
    for case, n0, j, n, a, b in invariance_models(p):
        q1, q2 = square_primes(p, a * (b or 1))
        pair = ClassicalPair(case, n0, j, n, prime, BiquadField(a) if b is None else BiquadField(a, b))
        want = model_answers(pair)
        assert any(row[-1] for row in want[2:]), pair.to_json()
        for q, r in ((q1, q2), (q2, q1)):
            field = BiquadField(a * q) if b is None else BiquadField(a * q, b * r)
            other = ClassicalPair(case, n0, j, n, prime, field)
            assert model_answers(other) == want, (pair.to_json(), other.to_json())
