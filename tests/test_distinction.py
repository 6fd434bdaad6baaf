import hashlib
import itertools
import json
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsym.distinction import (
    ROW_PROSE,
    CuspidalDatum,
    DistinctionError,
    GlBlocks,
    Verdict,
    Witness,
    allowed_orbits,
    check_rows,
    decide,
    first_failing_row,
    gl_product_check,
    inner_orbit_invariants,
    necessary_condition,
)
from localsym.forms import Case
from localsym.localfield import Prime
from localsym.numfield import BiquadField, recover_hilbert90_matrix
from localsym.symspace import (
    ClassicalPair,
    Component,
    SymplecticOrbit,
    UnitaryOrbit,
    classify_x,
    realizable_targets,
)
from localsym.weyl import (
    Composition,
    SignedInvolution,
    WeylError,
    build_tw,
    build_xw,
    enumerate_involutions,
    inner_z_choices,
    involution_rows,
    orbit_mask,
    predicted_orbit_invariant,
)

from conftest import make_pair


def gamma_defaults():
    """Coset bits for the bundled unitary field models, as computed by the
    desk-scale box oracle and frozen in a versioned data file."""
    return json.loads((pathlib.Path(__file__).parent / "golden" / "gamma_defaults.json").read_text())


def permuted(data, perm):
    """Relabelled datum: index i becomes perm[i]."""
    return CuspidalDatum(
        tuple(data.labels[perm.index(i)] for i in range(data.k)),
        frozenset(frozenset(perm[i] for i in rel) for rel in data.conj_dual),
        frozenset(frozenset(perm[i] for i in rel) for rel in data.sigma_tau),
        frozenset(perm[i] for i in data.linear_dist),
        frozenset((perm[i], b) for i, b in data.unitary_dist),
        data.pi0_dist,
    )


def all_pi0(pair, comp):
    """Flag every admissible inner orbit as distinguished."""
    out = []
    circ = pair.split_even_orthogonal and comp.r == 0
    for w in enumerate_involutions(comp, circ):
        for inv in inner_orbit_invariants(comp, w, pair):
            if inv not in out:
                out.append(inv)
    return tuple(out)


def test_decide_symplectic_k1_linear():
    pair = make_pair(Case.SYMPLECTIC, 0, (), 1)
    comp = Composition((1,), 0)
    data = CuspidalDatum.build(["pi1"], linear_dist=[0])
    (target,) = realizable_targets(pair)
    verdict = decide(pair, comp, data, target)
    assert verdict.distinguished
    assert verdict.witness.w == SignedInvolution.identity(1)


def test_decide_symplectic_k2_conj_dual():
    pair = make_pair(Case.SYMPLECTIC, 0, (), 2)
    comp = Composition((1, 1), 0)
    data = CuspidalDatum.build(["pi1", "pi2"], conj_dual=[(0, 1)])
    (target,) = realizable_targets(pair)
    verdict = decide(pair, comp, data, target)
    assert verdict.distinguished
    assert verdict.witness.w == SignedInvolution((1, 0), frozenset())


def test_decide_empty_oracle():
    pair = make_pair(Case.SYMPLECTIC, 0, (), 2)
    comp = Composition((1, 1), 0)
    data = CuspidalDatum.build(["pi1", "pi2"])
    (target,) = realizable_targets(pair)
    verdict = decide(pair, comp, data, target)
    assert not verdict.distinguished
    assert verdict.witness is None
    assert len(verdict.failure_log) == 6  # one row failure per involution


def test_decide_validates():
    pair = make_pair(Case.SYMPLECTIC, 0, (), 2)
    comp = Composition((1, 1), 0)
    with pytest.raises(DistinctionError):
        decide(pair, comp, CuspidalDatum.build(["x"]), SymplecticOrbit())
    with pytest.raises(DistinctionError):
        decide(pair, comp, CuspidalDatum.build(["x", "y"]), UnitaryOrbit(0))
    bad = CuspidalDatum.build(["x", "y"], conj_dual=[(0, 1)])
    with pytest.raises(DistinctionError):
        decide(pair, Composition((1, 2), 0), CuspidalDatum.build(["x", "y"], conj_dual=[(0, 1)]),
               SymplecticOrbit())


def compositions(m):
    """Every ordered tuple of positive parts summing to m."""
    if m == 0:
        return [()]
    return [(first, *rest) for first in range(1, m + 1) for rest in compositions(m - first)]


def refusal(fn, *args):
    try:
        fn(*args)
    except (WeylError, DistinctionError) as e:
        return type(e).__name__, str(e)
    return None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decide_refuses_exactly_what_build_tw_refuses(n):
    """On split even orthogonal pairs, decide admits a composition exactly
    when build_tw does, and refuses it with the same error: r = 1, a
    missing or misplaced sign and a size that is not the pair's rank."""
    pair = make_pair(Case.ORTHOGONAL, 0, (), n)
    target = realizable_targets(pair)[0]
    outcomes = []
    for r in (0, 1, 2):
        for m in range(n + 1):
            for parts in compositions(m):
                for sign in (None, 1, -1):
                    comp = Composition(parts, r, sign)
                    data = CuspidalDatum.build([str(i) for i in range(comp.k)])
                    expected = refusal(build_tw, comp, SignedInvolution.identity(comp.k), pair)
                    assert refusal(decide, pair, comp, data, target) == expected, comp
                    outcomes.append(expected)
    assert None in outcomes
    messages = {e[1] for e in outcomes if e}
    assert {"composition does not sum to the pair rank", "this parabolic class needs the +-1 sign",
            "r = 1 is a repeated parabolic class here; fold it into the parts",
            "sign is only meaningful for r = 0 with n_k != 1"} == messages


def test_decide_unitary_bit_arithmetic():
    pair = make_pair(Case.UNITARY, 1, (1,), 1)
    comp = Composition((1,), 0)
    t0, t1 = realizable_targets(pair)
    # only the identity inner orbit flagged: the target bit must match it
    data = CuspidalDatum.build(["pi1"], linear_dist=[0], pi0_dist=(UnitaryOrbit(0),))
    v0 = decide(pair, comp, data, t0)
    assert v0.distinguished and v0.witness.z_orbit == UnitaryOrbit(0)
    v1 = decide(pair, comp, data, t1)
    assert not v1.distinguished
    # flagging the other inner orbit flips reachability
    data2 = CuspidalDatum.build(["pi1"], linear_dist=[0], pi0_dist=(UnitaryOrbit(1),))
    assert decide(pair, comp, data2, t1).distinguished
    assert not decide(pair, comp, data2, t0).distinguished


def test_decide_unitary_hermitian_bits():
    pair = make_pair(Case.UNITARY, 0, (), 1)
    comp = Composition((1,), 0)
    t0, t1 = realizable_targets(pair)
    # a sign-set fixed point: distinction through the hermitian block
    data = CuspidalDatum.build(["pi1"], unitary_dist=[(0, 0), (0, 1)])
    got = {decide(pair, comp, data, t).witness.y_bits[0][1] for t in (t0, t1)
           if decide(pair, comp, data, t).distinguished}
    # both targets are reachable using the two hermitian classes
    assert got == {0, 1}


def test_decide_deterministic_and_first_witness_order():
    pair = make_pair(Case.SYMPLECTIC, 0, (), 2)
    comp = Composition((1, 1), 0)
    data = CuspidalDatum.build(
        ["pi1", "pi2"], conj_dual=[(0, 1)], linear_dist=[0, 1], sigma_tau=[(0, 1)]
    )
    (target,) = realizable_targets(pair)
    v1 = decide(pair, comp, data, target)
    v2 = decide(pair, comp, data, target)
    assert v1 == v2
    # |c| = 0 candidates precede sign-set ones; identity rho sorts first
    assert v1.witness.w == SignedInvolution.identity(2)


def test_decide_relabeling_equivariance():
    pair = make_pair(Case.SYMPLECTIC, 0, (), 2)
    comp = Composition((1, 1), 0)
    (target,) = realizable_targets(pair)
    data = CuspidalDatum.build(["a", "b"], conj_dual=[(0, 1)], linear_dist=[1])
    perm = (1, 0)
    swapped = permuted(data, perm)
    v = decide(pair, comp, data, target)
    vs = decide(pair, comp, swapped, target)
    assert v.distinguished == vs.distinguished
    w = v.witness.w
    sw = vs.witness.w
    assert sw.rho == tuple(perm[w.rho[perm.index(i)]] for i in range(2))


def random_datum(rng, pair, comp):
    k = comp.k
    conj, st, lin, uni = set(), set(), set(), set()
    for i in range(k):
        for j in range(i, k):
            if comp.parts[i] != comp.parts[j]:
                continue
            if rng.random() < 0.4:
                conj.add((i, j))
            if rng.random() < 0.4:
                st.add((i, j))
        if rng.random() < 0.4:
            lin.add(i)
        for b in (0, 1):
            if rng.random() < 0.4:
                uni.add((i, b))
    return CuspidalDatum.build(
        [f"pi{i}" for i in range(k)], conj, st, lin, uni, pi0_dist=all_pi0(pair, comp)
    )


def small_grid(pair):
    out = []
    for kparts in [(1,), (2,), (1, 1), (1, 2), (2, 2)]:
        r = pair.n - sum(kparts)
        if r < 0:
            continue
        if pair.split_even_orthogonal and r == 1:
            continue
        if pair.split_even_orthogonal and r == 0 and kparts[-1] != 1:
            out.append(Composition(kparts, r, split_even_sign=1))
            out.append(Composition(kparts, r, split_even_sign=-1))
        else:
            out.append(Composition(kparts, r))
    return out


def test_end_to_end_soundness(bundled_pairs):
    """Witnesses returned by decide produce exact representatives landing in
    the requested orbit, and satisfy the necessary condition."""
    rng = random.Random(41)
    checked = 0
    for pair in bundled_pairs:
        for comp in small_grid(pair):
            for _ in range(4):
                data = random_datum(rng, pair, comp)
                for target in realizable_targets(pair):
                    verdict = decide(pair, comp, data, target)
                    if not verdict.distinguished:
                        continue
                    wt = verdict.witness
                    x, inv = build_xw(comp, wt.w, dict(wt.y_bits), wt.z_orbit, pair)
                    z = recover_hilbert90_matrix(x)
                    assert inv == target
                    assert classify_x(x, z, pair) == target
                    assert necessary_condition(data, wt.w)
                    checked += 1
    assert checked > 30


def test_inner_orbit_invariants_match_exact_reps(bundled_pairs):
    for pair in bundled_pairs:
        for comp in small_grid(pair):
            circ = pair.split_even_orthogonal and comp.r == 0
            for w in enumerate_involutions(comp, circ):
                descriptors = set(inner_orbit_invariants(comp, w, pair))
                exact = {inv for inv, _ in inner_z_choices(comp, w, pair)}
                assert descriptors == exact, (pair.case, comp, w)


def test_necessary_condition_negative_control():
    data = CuspidalDatum.build(["pi1", "pi2"])
    w = SignedInvolution((1, 0), frozenset())
    assert not necessary_condition(data, w)
    w2 = SignedInvolution((1, 0), frozenset({0, 1}))
    data2 = CuspidalDatum.build(["pi1", "pi2"], sigma_tau=[(0, 1)])
    assert necessary_condition(data2, w2)
    assert not necessary_condition(data2, SignedInvolution((1, 0), frozenset()))


def _necessary_by_definition(data, w):
    """Slot i of w(pi) is derivably the conjugate dual of pi_i: a moved
    index needs the pair relation of its row, a fixed one a self-relation
    {i} or the row's distinction flag."""
    for i, j in enumerate(w.rho):
        rels = data.sigma_tau if i in w.c else data.conj_dual
        if j != i:
            ok = frozenset({i, j}) in rels
        elif i in w.c:
            ok = frozenset({i}) in rels or any(f == i for f, _ in data.unitary_dist)
        else:
            ok = frozenset({i}) in rels or i in data.linear_dist
        if not ok:
            return False
    return True


def test_necessary_condition_matches_its_definition_with_self_relations():
    """Every involution for k <= 3 against random data whose relations
    include singletons {i}; some pairs hold only through a singleton."""
    rng = random.Random(2020)
    through_singleton = 0
    for k in range(1, 4):
        involutions = enumerate_involutions(Composition((1,) * k, 0))
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        selfs = [(i, i) for i in range(k)]
        for _ in range(300):
            def some(xs):
                return [x for x in xs if rng.random() < 0.5]

            conj_dual, sigma_tau = some(pairs), some(pairs)
            flags = dict(linear_dist=some(range(k)),
                         unitary_dist=[(i, rng.randint(0, 1)) for i in some(range(k))])
            data = CuspidalDatum.build(range(k), conj_dual + some(selfs), sigma_tau + some(selfs), **flags)
            plain = CuspidalDatum.build(range(k), conj_dual, sigma_tau, **flags)
            for w in involutions:
                expected = _necessary_by_definition(data, w)
                assert necessary_condition(data, w) == expected, (data, w)
                through_singleton += expected and not _necessary_by_definition(plain, w)
    assert through_singleton > 100


ALL_PAIRS = frozenset({frozenset({0, 1})})


@pytest.mark.parametrize("rho, c, drop, code, idx, prose", [
    ((1, 0), {0, 1}, "sigma_tau", "rows.sigma_tau", (1, 2), "no sigma-tau relation between 1 and 2"),
    ((0, 1), {0}, "hermitian", "rows.hermitian_flag", (1,), "label 1 has no hermitian-distinction flag"),
    ((1, 0), set(), "conj_dual", "rows.conj_dual", (1, 2), "no conjugate-dual relation between 1 and 2"),
    ((0, 1), set(), "linear", "rows.linear_dist", (2,), "label 2 is not flagged linearly distinguished"),
], ids=["sigma_tau", "hermitian_flag", "conj_dual", "linear_dist"])
def test_check_rows_reason_codes(rho, c, drop, code, idx, prose):
    w = SignedInvolution(rho, frozenset(c))
    full = {"sigma_tau": ALL_PAIRS, "hermitian": {0, 1}, "conj_dual": ALL_PAIRS, "linear": {0, 1}}
    assert check_rows(w, **full) is None
    emptied = dict(full, **{drop: {0} if drop == "linear" else frozenset()})
    assert check_rows(w, **emptied) == (code, idx)
    assert ROW_PROSE[code].format(*idx) == prose


def reference_rows(w, sigma_tau, hermitian, conj_dual, linear):
    """The four condition rows read index by index, with a relation looked
    up as the frozenset {i, j}: None, or (reason code, 1-based indices) of
    the first failing row."""
    for i, j in enumerate(w.rho):
        if i in w.c and j != i:
            if frozenset({i, j}) not in sigma_tau:
                return "rows.sigma_tau", (i + 1, j + 1)
        elif i in w.c:
            if i not in hermitian:
                return "rows.hermitian_flag", (i + 1,)
        elif j != i:
            if frozenset({i, j}) not in conj_dual:
                return "rows.conj_dual", (i + 1, j + 1)
        elif i not in linear:
            return "rows.linear_dist", (i + 1,)
    return None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(parts=st.lists(st.sampled_from((1, 2)), min_size=1, max_size=6), circ=st.booleans(),
       density=st.sampled_from((0.3, 0.7, 0.95)), rng=st.randoms(use_true_random=False))
def test_orbit_masks_match_reference_rows(parts, circ, density, rng):
    """Every involution's orbit mask against the datum's allowed orbits
    names the row that `reference_rows` fails first, and has one bit per
    orbit: the bits of `orbit_mask(w)`, from which `check_rows` reads its
    row the same way.  Relations include self-relations {i} and the
    out-of-range index k; neither allows an orbit."""
    k = len(parts)

    def some(xs):
        return [x for x in xs if rng.random() < density]

    relations = [frozenset(p) for p in itertools.combinations_with_replacement(range(k + 1), 2)]
    sigma_tau, conj_dual = frozenset(some(relations)), frozenset(some(relations))
    hermitian, linear = set(some(range(k + 1))), set(some(range(k + 1)))
    comp = Composition(tuple(parts), 0)
    allowed = allowed_orbits(k, sigma_tau, hermitian, conj_dual, linear)
    masks = [mask for _, _, mask in involution_rows(comp, circ)]
    for w, mask in zip(enumerate_involutions(comp, circ), masks, strict=True):
        expected = reference_rows(w, sigma_tau, hermitian, conj_dual, linear)
        assert first_failing_row(k, mask & ~allowed) == expected, (w, mask)
        assert mask == orbit_mask(w)
        assert mask.bit_count() == sum(1 for i, j in enumerate(w.rho) if i <= j)


def reference_verdict(pair, comp, data, target):
    """decide's search with every failure-log line formatted afresh from the
    involution's to_json and ROW_PROSE, and the rows read by
    `reference_rows`, not by the orbit masks: the CLI's log format."""
    circ = pair.split_even_orthogonal and comp.r == 0
    sub = pair.sub_pair(comp.r)
    hermitian = {i for i, _ in data.unitary_dist}
    log = []
    for w in enumerate_involutions(comp, circ):
        fail = reference_rows(w, data.sigma_tau, hermitian, data.conj_dual, data.linear_dist)
        if fail:
            code, idx = fail
            log.append(f"w={w.to_json()}: rows: {ROW_PROSE[code].format(*idx)}")
            continue
        iw = sorted(w.fixed_in_c)
        for bits in itertools.product(*(data.unitary_bits(i) for i in iw)):
            for z_inv in inner_orbit_invariants(comp, w, pair):
                if sub is not None and z_inv not in data.pi0_dist:
                    log.append(f"w={w.to_json()}: inner orbit {z_inv.to_json()} not flagged for pi0")
                    continue
                if predicted_orbit_invariant(comp, w, dict(zip(iw, bits)), z_inv, pair) == target:
                    witness = Witness(w, tuple(zip(iw, bits)), z_inv)
                    return Verdict(True, witness, tuple(log)).to_json()
                log.append(
                    f"w={w.to_json()}: bits {bits} with inner orbit {z_inv.to_json()} lands in another orbit"
                )
    return Verdict(False, None, tuple(log)).to_json()


def log_population():
    """(pair, comp, datum, target) for every composition of parts 1 and 2
    with k <= 5: the split even orthogonal pair with r = 0 (the circ list)
    first, then symplectic, orthogonal and unitary pairs with r = 0 and 1 on
    the same parts (the full list), each target at densities 0.5 and 0.15,
    with a random half of the inner orbits flagged for pi0."""
    rng = random.Random(16)
    p3, quad, biq = Prime(3), BiquadField(-1), BiquadField(-1, 3)
    for k in range(1, 6):
        for parts in itertools.product((1, 2), repeat=k):
            n = sum(parts)
            cells = [(ClassicalPair(Case.ORTHOGONAL, 0, (), n, p3, quad),
                      Composition(parts, 0, None if parts[-1] == 1 else 1))]
            for r in (0, 1):
                cells.append((ClassicalPair(Case.SYMPLECTIC, 0, (), n + r, p3, quad), Composition(parts, r)))
                cells.append((ClassicalPair(Case.ORTHOGONAL, 1, (1,), n + r, p3, quad), Composition(parts, r)))
                cells.append((ClassicalPair(Case.UNITARY, 0, (), n + r, p3, biq), Composition(parts, r)))
            for pair, comp in cells:
                circ = pair.split_even_orthogonal and comp.r == 0
                inner = []
                for w in enumerate_involutions(comp, circ):
                    for inv in inner_orbit_invariants(comp, w, pair):
                        if inv not in inner:
                            inner.append(inv)
                for target in realizable_targets(pair):
                    for density in (0.5, 0.15):
                        conj, st, lin, uni = [], [], [], []
                        for i in range(k):
                            for j in range(i, k):
                                if parts[i] == parts[j]:
                                    if rng.random() < density:
                                        conj.append((i, j))
                                    if rng.random() < density:
                                        st.append((i, j))
                            if rng.random() < density:
                                lin.append(i)
                            for b in (0, 1):
                                if rng.random() < density:
                                    uni.append((i, b))
                        pi0 = [inv for inv in inner if rng.random() < 0.5]
                        data = CuspidalDatum.build([f"pi{i}" for i in range(k)], conj, st, lin, uni, pi0)
                        yield pair, comp, data, target


# sha256 over the sorted-key JSON payloads of log_population, one per line,
# computed before the failure-log tags were cached
LOG_POPULATION_SHA256 = "60e14576640b32c691be627f1d2aef2b0db8010fbdda8a722fc9c70fa514489d"


def test_failure_log_byte_for_byte():
    """decide's whole payload equals the reference renderer's, query by
    query, and all payloads hash as frozen; all three kinds of log line
    occur."""
    digest = hashlib.sha256()
    kinds = dict.fromkeys(("rows: ", "not flagged for pi0", "lands in another orbit"), 0)
    for pair, comp, data, target in log_population():
        payload = decide(pair, comp, data, target).to_json()
        assert payload == reference_verdict(pair, comp, data, target), (pair.case, comp)
        digest.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
        for line in payload["failure_log"]:
            for kind in kinds:
                kinds[kind] += kind in line
    assert all(kinds.values()), kinds
    assert digest.hexdigest() == LOG_POPULATION_SHA256


def test_gl_product_check_closed_orbit():
    blocks = GlBlocks.build(
        2, (1, 2), 0, chi_dist=[("trivial", (0, 1))]
    )
    ok, units, pairing = gl_product_check(blocks, "trivial")
    assert ok
    assert sum(1 for u in units if u["type"] == "closed") == 4
    # every position is used exactly once
    used = sorted(p for u in units for p in u["blocks"])
    assert used == list(range(4))


def test_gl_product_check_open_orbit_single_pair():
    blocks = GlBlocks.build(1, (2,), 0, unitary_dist=[0])
    ok, units, pairing = gl_product_check(blocks, "trivial")
    assert ok
    assert units == [{"type": "open", "blocks": [0, 1]}]


def test_gl_product_check_center_and_eta():
    blocks = GlBlocks.build(
        1, (1,), 2,
        conj_dual=[(0, 0)],
        chi_dist=[("eta", (0,))],
        center_chi_dist=["eta"],
    )
    ok, units, _ = gl_product_check(blocks, "eta")
    assert ok
    assert {u["type"] for u in units} == {"closed"}
    # trivial character fails: the center flag is eta-only
    ok2, _, _ = gl_product_check(blocks, "trivial")
    assert not ok2


def test_gl_product_check_no_relations():
    blocks = GlBlocks.build(2, (1, 1), 0)
    ok, units, pairing = gl_product_check(blocks, "trivial")
    assert not ok and units is None


def test_gl_product_check_swap_relations():
    blocks = GlBlocks.build(2, (2, 2), 0, conj_dual=[(0, 1)])
    ok, units, (rho, c) = gl_product_check(blocks, "trivial")
    assert ok and rho == (1, 0) and not c
    assert all(u["type"] == "open" for u in units)
    blocks2 = GlBlocks.build(2, (2, 2), 0, sigma_tau=[(0, 1)])
    ok2, units2, (rho2, c2) = gl_product_check(blocks2, "trivial")
    assert ok2 and rho2 == (1, 0) and c2 == frozenset({0, 1})


def test_gl_product_malformed():
    # k is the number of sizes; any other k does not describe a palindrome
    with pytest.raises(DistinctionError, match="malformed palindrome"):
        gl_product_check(GlBlocks.build(3, (1, 1), 0))


@pytest.mark.parametrize("center_size, expected_units", [
    (0, []),
    (2, [{"type": "closed", "blocks": [0]}]),
])
def test_gl_product_check_without_blocks(center_size, expected_units):
    # k = 0: the only involution is the rank-0 identity, which passes every row
    blocks = GlBlocks.build(0, (), center_size, center_chi_dist=["trivial"])
    assert gl_product_check(blocks, "trivial") == (True, expected_units, ((), frozenset()))
    if center_size:
        assert gl_product_check(blocks, "eta") == (False, None, None)


def ref_gl_product_check(blocks, chi):
    """gl_product_check with the rows read by `check_rows` per involution,
    which rebuilds the allowed mask each time: the loop before the mask
    was built once per call."""
    k = blocks.k
    if blocks.center_size and chi not in blocks.center_chi_dist:
        return False, None, None
    last = 2 * k - 1 + (1 if blocks.center_size else 0)
    flags = blocks.chi_flags(chi)
    for w in enumerate_involutions(Composition(blocks.sizes, 0)):
        if check_rows(w, blocks.sigma_tau, blocks.unitary_dist, blocks.conj_dual, flags):
            continue
        rho, c = w.rho, w.c
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
        return True, units, (rho, c)
    return False, None, None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sizes=st.lists(st.sampled_from((1, 2)), min_size=1, max_size=6), center_size=st.sampled_from((0, 2)),
       density=st.sampled_from((0.3, 0.7, 0.95)), rng=st.randoms(use_true_random=False))
def test_gl_product_check_matches_reference_loop(sizes, center_size, density, rng):
    """Both characters, with relations (self-relations and the out-of-range
    index k among them) and flags drawn at random: the one allowed mask per
    call gives what `check_rows` per involution gave."""
    k = len(sizes)

    def some(xs):
        return [x for x in xs if rng.random() < density]

    relations = list(itertools.combinations_with_replacement(range(k + 1), 2))
    blocks = GlBlocks.build(
        k, sizes, center_size,
        conj_dual=some(relations),
        sigma_tau=some(relations),
        chi_dist=[(tag, some(range(k + 1))) for tag in ("trivial", "eta")],
        unitary_dist=some(range(k + 1)),
        center_chi_dist=some(("trivial", "eta")),
    )
    for chi in ("trivial", "eta"):
        assert gl_product_check(blocks, chi) == ref_gl_product_check(blocks, chi), chi


def test_datum_json_roundtrip():
    pair = make_pair(Case.UNITARY, 1, (1,), 1)
    data = CuspidalDatum.build(
        ["a", "b"], conj_dual=[(0, 1)], sigma_tau=[(1, 1)], linear_dist=[0],
        unitary_dist=[(1, 1)], pi0_dist=(UnitaryOrbit(0),),
    )
    again = CuspidalDatum.from_json(data.to_json())
    assert again == data


def test_gamma_defaults_file_frozen():
    """The frozen data file must match live recomputation, and its class of
    -1 must match the Hensel-search symbol: -1 = c^(1-sigma) with
    c = sqrt(a), so the bit is 1 exactly when (a, b)_p = -1."""
    from localsym.localfield import Prime, hilbert_oracle
    from localsym.numfield import BiquadField
    from localsym.symspace import ClassicalPair, gamma_bit
    from localsym.weyl import u_star_sideways, unitary_parity_bits

    data = gamma_defaults()
    assert data["version"] == 1
    assert len(data["models"]) == 4
    for row in data["models"]:
        field = BiquadField(row["a"], row["b"])
        pair = ClassicalPair(Case.UNITARY, 0, (), 1, Prime(row["p"]), field)
        assert row["minus_one_bit"] == (hilbert_oracle(row["a"], row["b"], row["p"]) == -1)
        assert gamma_bit(pair, field.element(-1)) == row["minus_one_bit"]
        u = u_star_sideways(pair)
        assert [str(c) for c in u.coeffs] == row["u_star"]
        assert gamma_bit(pair, u.sigma() / u) == row["nonnorm_contrib_bit"]
        minus_one, contrib = unitary_parity_bits(pair)
        assert (minus_one, contrib) == (row["minus_one_bit"], row["nonnorm_contrib_bit"])


def test_verdict_invariant_survives_optimize():
    with pytest.raises(DistinctionError):
        Verdict(True, None, ())
    code = (
        "from localsym.distinction import DistinctionError, Verdict\n"
        "try:\n"
        "    Verdict(True, None, ())\n"
        "except DistinctionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
