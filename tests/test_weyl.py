import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from localsym.forms import Case
from localsym.localfield import hilbert_rational
from localsym.numfield import (
    BiquadField,
    Mat,
    conj_transpose,
    in_isometry_group,
    in_symmetric_space,
    recover_hilbert90_matrix,
)
from localsym.symspace import (
    ClassicalPair,
    Component,
    OrthogonalOrbit,
    SymplecticOrbit,
    UnitaryOrbit,
    classify_x,
    jn_invariants,
    jn_mat,
    z_orbit_representatives,
)
from localsym.weyl import (
    Composition,
    SignedInvolution,
    SignedPerm,
    WeylError,
    admissible_class,
    admissible_orbit_count,
    build_tw,
    build_xw,
    enumerate_involutions,
    gl_star,
    inner_orbit_invariants,
    inner_z_choices,
    involution_at,
    involution_rows,
    iota,
    orbit_mask,
    predicted_orbit_invariant,
    stabilizer_shape,
    t_w_square_pattern,
    u_star_rational,
    u_star_sideways,
    unitary_parity_bits,
    y_representative,
)

from conftest import P2, P5, QUAD_M5, make_pair
from test_distinction import compositions
from test_prime_sweep import sweep_pairs


def brute_force_involutions(comp, circ=False):
    """Reference enumeration over all 2^k k! signed permutations."""
    k = comp.k
    out = set()
    for rho in itertools.permutations(range(k)):
        for csize in range(k + 1):
            for cs in itertools.combinations(range(k), csize):
                w = SignedPerm(rho, frozenset(cs))
                if not (w * w).is_identity:
                    continue
                if any(comp.parts[rho[i]] != comp.parts[i] for i in range(k)):
                    continue
                inv = SignedInvolution(rho, frozenset(cs))
                if circ and inv.o(comp) % 2:
                    continue
                out.add(inv)
    return out


def test_signed_perm_group_law():
    rng = random.Random(21)
    k = 4
    elems = []
    for _ in range(20):
        rho = list(range(k))
        rng.shuffle(rho)
        c = frozenset(i for i in range(k) if rng.random() < 0.5)
        elems.append(SignedPerm(tuple(rho), c))
    for x in elems[:8]:
        for y in elems[:8]:
            for z in elems[:8]:
                assert (x * y) * z == x * (y * z)
        assert (x * x.inv()).is_identity
    # conjugating a sign set by a permutation moves the set
    rho = SignedPerm((1, 2, 0, 3), frozenset())
    c = SignedPerm((0, 1, 2, 3), frozenset({0, 3}))
    assert (rho * c * rho.inv()).c == frozenset({1, 3})


def refusal(cls, rho, c):
    """None when cls(rho, c) is built, else its WeylError message."""
    try:
        cls(rho, c)
    except WeylError as e:
        return str(e)
    return None


def test_involution_check_matches_its_definition():
    """SignedInvolution accepts exactly the signed permutations w with
    w * w = 1, and refuses the rest with SignedPerm's messages; rho and c
    range past [0, k) to reach non-permutations and out-of-range signs."""
    accepted = []
    for k in range(5):
        count = 0
        for rho in itertools.product(range(k + 1), repeat=k):
            for bits in range(1 << (k + 1)):
                c = frozenset(i for i in range(k + 1) if bits >> i & 1)
                expected = refusal(SignedPerm, rho, c)
                if expected is None:
                    w = SignedPerm(rho, c)
                    expected = None if (w * w).is_identity else "not an involution"
                assert refusal(SignedInvolution, rho, c) == expected, (rho, c)
                count += expected is None
        accepted.append(count)
    assert accepted == [1, 2, 6, 20, 76]


def test_enumerate_involutions_examples():
    comp1 = Composition((2,), 0)
    assert len(enumerate_involutions(comp1)) == 2  # id and the sign flip
    comp2 = Composition((1, 1), 0)
    ws = enumerate_involutions(comp2)
    assert len(ws) == 6
    comp3 = Composition((1, 2), 0)
    ws = enumerate_involutions(comp3)
    assert len(ws) == 4  # the swap is excluded by the size constraint
    assert all(w.rho == (0, 1) for w in ws)


@pytest.mark.parametrize("parts", [(1,), (2, 1), (1, 1, 2), (1, 2, 1, 2), (1, 1, 1, 1, 2)])
def test_enumeration_matches_brute_force(parts):
    comp = Composition(parts, 0)
    for circ in (False, True):
        assert set(enumerate_involutions(comp, circ)) == brute_force_involutions(comp, circ)


def test_enumeration_cache_matches_reference():
    """The cached per-block-size tuple against the brute-force reference in
    sort_key order, for every parts in {1, 2}^k, k <= 5."""
    from localsym.weyl import _enumerated, _involution, _involutions_for

    all_ones = {}
    for k in range(1, 6):
        for parts in itertools.product((1, 2), repeat=k):
            comp = Composition(parts, 0)
            full = sorted(brute_force_involutions(comp), key=lambda w: w.sort_key)
            even = tuple(w for w in full if w.o(comp) % 2 == 0)
            for circ_first in (False, True):
                for cache in (_involutions_for, _involution, _enumerated):
                    cache.cache_clear()
                first = enumerate_involutions(comp, circ_first)
                second = enumerate_involutions(comp, not circ_first)
                plain, circ = (second, first) if circ_first else (first, second)
                assert plain == tuple(full)
                assert circ == even
            for other in (Composition(parts, 3), Composition(parts, 0, 1), Composition(parts, 2, -1)):
                for c in (False, True):
                    assert enumerate_involutions(other, c) == enumerate_involutions(comp, c)
            if set(parts) == {1}:
                all_ones[k] = len(enumerate_involutions(comp))
    assert all_ones == {1: 2, 2: 6, 3: 20, 4: 76, 5: 312}


def ref_involutions_for(parts, circ):
    """The former enumeration: the same recursion building every
    involution through its validating constructor, sorted by sort_key."""
    k = len(parts)
    rho = [None] * k
    found = []

    def rec(i, c):
        while i < k and rho[i] is not None:
            i += 1
        if i == k:
            if not (circ and sum(parts[j] % 2 for j in c) % 2):
                found.append(SignedInvolution(tuple(rho), c))
            return
        for j in range(i, k):
            if rho[j] is None and parts[j] == parts[i]:
                rho[i], rho[j] = j, i
                rec(i + 1, c)
                rec(i + 1, c | {i, j})
                rho[i] = rho[j] = None

    rec(0, frozenset())
    return tuple(sorted(found, key=lambda w: w.sort_key))


def test_rows_match_validated_involutions():
    """For every parts in {1, 2}^k, k <= 6, and both circ: the rows
    (rho, c, mask) are the former sorted tuple's (w.rho, sorted w.c,
    orbit_mask(w)); each row's failure-log tag is byte-equal to
    f"w={w.to_json()}: "; and the involutions built from the rows without
    the checks equal the validated ones."""
    from localsym.distinction import _tag

    for k in range(7):
        for parts in itertools.product((1, 2), repeat=k):
            comp = Composition(parts, 0)
            for circ in (False, True):
                ref = ref_involutions_for(parts, circ)
                rows = involution_rows(comp, circ)
                assert rows == tuple((w.rho, tuple(sorted(w.c)), orbit_mask(w)) for w in ref)
                for pos, (w, (rho, c, _)) in enumerate(zip(ref, rows)):
                    assert _tag(rho, c) == f"w={w.to_json()}: " == f"w={w.to_json()!r}: "
                    assert involution_at(comp, circ, pos) == w
                assert enumerate_involutions(comp, circ) == ref


def test_involution_stats():
    comp = Composition((1, 2, 1), 1)
    w = SignedInvolution((2, 1, 0), frozenset({0, 1, 2}))
    assert w.fixed_in_c == frozenset({1})
    assert w.o(comp) == 2  # indices 0 and 2 have odd size
    assert w.n_weight(comp) == 2


def test_iota_lands_in_isometry_group(bundled_pairs):
    rng = random.Random(22)
    for pair in bundled_pairs:
        comp = Composition((pair.n,), 0) if pair.n >= 1 else None
        field = pair.field
        while True:
            g = Mat(
                field,
                [
                    [
                        field.element(rng.randint(-2, 2), rng.randint(-1, 1))
                        for _ in range(pair.n)
                    ]
                    for _ in range(pair.n)
                ],
            )
            if not g.det().is_zero:
                break
        m = iota(pair, comp, [g], Mat.identity(field, pair.n0))
        assert in_isometry_group(m, jn_mat(pair), pair.eps)


def grid(pair):
    """Compositions with k <= 2, parts <= 2 compatible with the pair."""
    n = pair.n
    opts = []
    for k in (1, 2):
        for parts in itertools.product((1, 2), repeat=k):
            r = n - sum(parts)
            if r < 0:
                continue
            if pair.split_even_orthogonal and r == 1:
                continue
            if pair.split_even_orthogonal and r == 0 and parts[-1] != 1:
                opts.append(Composition(parts, r, split_even_sign=1))
                opts.append(Composition(parts, r, split_even_sign=-1))
            else:
                opts.append(Composition(parts, r))
    return opts


def test_build_tw_identities(bundled_pairs):
    rng = random.Random(23)
    for pair in bundled_pairs:
        jn = jn_mat(pair)
        for comp in grid(pair):
            circ = pair.split_even_orthogonal and comp.r == 0
            for w in enumerate_involutions(comp, circ):
                t = build_tw(comp, w, pair)
                # fixed by the galois bar
                assert t.sigma() == t
                # lies in the isometry group
                assert in_isometry_group(t, jn, pair.eps)
                # t^2 is the central pattern iota(eps on c; I)
                assert t * t == t_w_square_pattern(comp, w, pair)


def test_build_tw_identity_element(bundled_pairs):
    pair = bundled_pairs[0]
    comp = Composition((pair.n,), 0)
    w = SignedInvolution.identity(1)
    assert build_tw(comp, w, pair).is_identity


def test_conjugation_pattern(bundled_pairs):
    rng = random.Random(24)
    for pair in bundled_pairs[:8]:
        for comp in grid(pair):
            if comp.split_even_sign == -1:
                continue  # pattern is stated in the standard frame
            circ = pair.split_even_orthogonal and comp.r == 0
            for w in enumerate_involutions(comp, circ):
                t = build_tw(comp, w, pair)
                field = pair.field
                blocks = []
                for size in comp.parts:
                    while True:
                        g = Mat(
                            field,
                            [
                                [field.element(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(size)]
                                for _ in range(size)
                            ],
                        )
                        if not g.det().is_zero:
                            break
                    blocks.append(g)
                inner_size = pair.n0 + 2 * comp.r
                h = Mat.identity(field, inner_size)
                m = iota(pair, comp, blocks, h)
                conj = t * m * t.inv()
                expected_blocks = []
                for i in range(comp.k):
                    src = w.rho[i]
                    expected_blocks.append(gl_star(blocks[src]) if i in w.c else blocks[src])
                from localsym.symspace import eta_m_mat

                eta = eta_m_mat(pair, comp.r)
                hp = (eta * h * eta.inv()) if w.o(comp) % 2 else h
                assert conj == iota(pair, comp, expected_blocks, hp), (pair.case, comp, w)


def test_y_representatives(bundled_pairs):
    for pair in bundled_pairs:
        for size in (1, 2):
            for bit in (0, 1):
                y = y_representative(pair, size, bit)
                # eps-hermitian for the sigma-tau twist
                assert conj_transpose(y, "sigma_tau") == y * pair.eps


def test_build_xw_membership_small_grid(bundled_pairs):
    for pair in bundled_pairs:
        jn = jn_mat(pair)
        for comp in grid(pair):
            circ = pair.split_even_orthogonal and comp.r == 0
            for w in enumerate_involutions(comp, circ):
                for z_inv, _ in inner_z_choices(comp, w, pair):
                    iw = sorted(w.fixed_in_c)
                    for bits in itertools.product((0, 1), repeat=len(iw)):
                        y_bits = dict(zip(iw, bits))
                        x, inv = build_xw(comp, w, y_bits, z_inv, pair)
                        assert in_symmetric_space(x, jn, pair.eps), (pair.case, comp, w)


def test_build_xw_identity():
    pair = make_pair(Case.SYMPLECTIC, 0, (), 2)
    comp = Composition((2,), 0)
    w = SignedInvolution.identity(1)
    (z_inv, _), = inner_z_choices(comp, w, pair)
    x, inv = build_xw(comp, w, {}, z_inv, pair)
    assert x.is_identity


def test_build_xw_rejects_wrong_component():
    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 2)
    comp = Composition((1,), 1)
    w = SignedInvolution((0,), frozenset({0}))  # o(c) odd
    sub = pair.sub_pair(1)
    wrong = z_orbit_representatives(sub, Component.IDENTITY)[0][0]
    with pytest.raises(WeylError):
        build_xw(comp, w, {}, wrong, pair)


def test_unitary_determinant_formula(bundled_pairs):
    # det x_w = (-1)^{o(c)} det z  prod det y_i^{tau - 1}
    for pair in (p for p in bundled_pairs if p.case is Case.UNITARY):
        for comp in grid(pair):
            for w in enumerate_involutions(comp):
                for z_inv, zmat in inner_z_choices(comp, w, pair):
                    iw = sorted(w.fixed_in_c)
                    for bits in itertools.product((0, 1), repeat=len(iw)):
                        y_bits = dict(zip(iw, bits))
                        x, _ = build_xw(comp, w, y_bits, z_inv, pair)
                        field = pair.field
                        expected = field.element((-1) ** (w.o(comp) % 2)) * zmat.det()
                        for i in iw:
                            dy = y_representative(pair, comp.parts[i], y_bits[i]).det()
                            expected = expected * (dy.tau() / dy)
                        assert x.det() == expected


def test_build_xw_invariant_matches_exact_classification(bundled_pairs):
    for pair in bundled_pairs:
        for comp in grid(pair):
            circ = pair.split_even_orthogonal and comp.r == 0
            for w in enumerate_involutions(comp, circ):
                for z_inv, _ in inner_z_choices(comp, w, pair):
                    iw = sorted(w.fixed_in_c)
                    for bits in itertools.product((0, 1), repeat=len(iw)):
                        y_bits = dict(zip(iw, bits))
                        x, inv = build_xw(comp, w, y_bits, z_inv, pair)
                        z = recover_hilbert90_matrix(x)
                        assert classify_x(x, z, pair) == inv, (pair.case, comp, w, bits, z_inv)


SPLIT_EVEN = [
    make_pair(Case.ORTHOGONAL, 0, (), 2),
    make_pair(Case.ORTHOGONAL, 0, (), 3),
    make_pair(Case.ORTHOGONAL, 0, (), 4),
    ClassicalPair(Case.ORTHOGONAL, 0, (), 2, P5, QUAD_M5),
    ClassicalPair(Case.ORTHOGONAL, 0, (), 2, P2, BiquadField(-1)),
]


@pytest.mark.parametrize("pair", SPLIT_EVEN, ids=lambda pair: f"n{pair.n}p{pair.prime.p}")
def test_split_even_r0_admits_exactly_even_o(pair):
    """For split even orthogonal data with r = 0 the builders refuse an odd
    o(c), whose t_w has det -1; every even one gives det t_w = 1 and an x_w
    that classify_x puts in the predicted orbit."""
    refused = built = 0
    n = pair.n
    for parts in {(1,) * n, (2,) + (1,) * (n - 2), (1,) * (n - 2) + (2,)}:
        for sign in ((None,) if parts[-1] == 1 else (1, -1)):
            comp = Composition(parts, 0, sign)
            for w in enumerate_involutions(comp):
                choices = inner_z_choices(comp, w, pair)
                iw = sorted(w.fixed_in_c)
                if w.o(comp) % 2:
                    y_bits = dict.fromkeys(iw, 0)
                    for call in (lambda: build_tw(comp, w, pair), lambda: admissible_orbit_count(comp, w, pair),
                                 lambda: build_xw(comp, w, y_bits, choices[0][0], pair)):
                        with pytest.raises(WeylError, match=r"o\(c\) must be even"):
                            call()
                    refused += 1
                    continue
                assert build_tw(comp, w, pair).det() == pair.field.one
                for z_inv, _ in choices:
                    for bits in itertools.product((0, 1), repeat=len(iw)):
                        x, inv = build_xw(comp, w, dict(zip(iw, bits)), z_inv, pair)
                        assert classify_x(x, recover_hilbert90_matrix(x), pair) == inv, (comp, w, bits)
                        built += 1
    assert refused and built


def test_admissible_orbit_count_cases():
    symp = make_pair(Case.SYMPLECTIC, 0, (), 2)
    comp = Composition((1, 1), 0)
    for w in enumerate_involutions(comp):
        assert admissible_orbit_count(comp, w, symp) == 2 ** len(w.fixed_in_c)
    uni0 = make_pair(Case.UNITARY, 0, (), 2)
    for w in enumerate_involutions(Composition((2,), 0)):
        assert admissible_orbit_count(Composition((2,), 0), w, uni0) == 2 ** len(w.fixed_in_c)
    uni1 = make_pair(Case.UNITARY, 1, (1,), 1)
    for w in enumerate_involutions(Composition((1,), 0)):
        assert admissible_orbit_count(Composition((1,), 0), w, uni1) == 2 ** (len(w.fixed_in_c) + 1)
    # orthogonal n0 = 2, r = 0, det j = 1 in the -i^2 class at p = 3 (a = -1):
    # delta = 0 exactly when o(c) is odd.  (The even branch would need a
    # hyperbolic kernel, which anisotropy rules out.)
    orth = make_pair(Case.ORTHOGONAL, 2, (1, 1), 1)
    comp = Composition((1,), 0)
    for w in enumerate_involutions(comp):
        expected = 2 ** len(w.fixed_in_c) if w.o(comp) % 2 == 1 else 2 ** (len(w.fixed_in_c) + 1)
        assert admissible_orbit_count(comp, w, orth) == expected


def test_admissible_count_equals_choice_count(bundled_pairs):
    for pair in bundled_pairs:
        for comp in grid(pair):
            circ = pair.split_even_orthogonal and comp.r == 0
            for w in enumerate_involutions(comp, circ):
                choices = inner_z_choices(comp, w, pair)
                total = 2 ** len(w.fixed_in_c) * len(choices)
                assert total == admissible_orbit_count(comp, w, pair), (pair.case, comp, w)


def test_stabilizer_shape():
    pair = make_pair(Case.UNITARY, 1, (1,), 2)
    comp = Composition((1, 1), 0)
    w_id = SignedInvolution.identity(2)
    (z_inv, _), *_ = inner_z_choices(comp, w_id, pair)
    shape = stabilizer_shape(comp, w_id, {}, z_inv)
    kinds = [f.to_json()["kind"] for f in shape.factors]
    assert kinds == ["GL", "GL", "fixed-inner"]
    assert all(f.to_json().get("over") == "F'" for f in shape.factors[:2])
    w_swap = SignedInvolution((1, 0), frozenset())
    shape = stabilizer_shape(comp, w_swap, {}, z_inv)
    assert [f.to_json()["kind"] for f in shape.factors] == ["GL", "fixed-inner"]
    assert shape.factors[0].to_json()["over"] == "E'"
    w_u = SignedInvolution((0, 1), frozenset({0}))
    shape = stabilizer_shape(comp, w_u, {0: 1}, z_inv)
    assert shape.factors[0].to_json() == {"kind": "U", "size": 1, "bit": 1}


def test_u_star_rational():
    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 1)
    from localsym.localfield import hilbert_rational

    u = u_star_rational(pair)
    assert hilbert_rational(u, pair.field.a, pair.prime) == -1


def test_u_star_sideways_is_a_non_norm_at_every_prime():
    from localsym.localfield import Prime, hilbert_rational, is_prime
    from localsym.numfield import BiquadField
    from localsym.symspace import ClassicalPair

    models = [(-1, 2, 2)]
    for p in filter(is_prime, range(3, 400)):
        u = Prime(p).nonresidue
        models += [(u, p, p), (p, u, p), (p, p * u, p)]
    for a, b, p in models:
        pair = ClassicalPair(Case.UNITARY, 0, (), 1, Prime(p), BiquadField(a, b))
        s, _, _, t = u_star_sideways(pair).coeffs
        assert hilbert_rational(s * s - a * b * t * t, a, p) == -1, (a, b, p)


def test_membership_negative_control(bundled_pairs):
    # perturbing one block of a valid representative breaks membership
    from localsym.numfield import in_symmetric_space
    from localsym.symspace import jn_mat

    for pair in bundled_pairs[:6]:
        sign = 1 if pair.split_even_orthogonal and pair.n != 1 else None
        comp = Composition((pair.n,), 0, split_even_sign=sign)
        circ = pair.split_even_orthogonal
        ws = [w for w in enumerate_involutions(comp, circ) if w.c]
        if not ws:
            continue
        w = ws[0]
        z_inv, _ = inner_z_choices(comp, w, pair)[0]
        iw = sorted(w.fixed_in_c)
        x, _ = build_xw(comp, w, {i: 0 for i in iw}, z_inv, pair)
        field = pair.field
        bad = Mat.diagonal(field, [field.element(2)] + [field.one] * (pair.N - 1))
        assert not in_symmetric_space(bad * x, jn_mat(pair), pair.eps)


def test_symplectic_tw_literal_matrix():
    # k = 1, c = {1}, r = 0: t_w is the antidiagonal block [[0, I], [-I, 0]]
    # and t_w^2 = -I is central
    pair = make_pair(Case.SYMPLECTIC, 0, (), 2)
    comp = Composition((2,), 0)
    w = SignedInvolution((0,), frozenset({0}))
    t = build_tw(comp, w, pair)
    f = pair.field
    expected = Mat(
        f,
        [
            [f.zero, f.zero, f.one, f.zero],
            [f.zero, f.zero, f.zero, f.one],
            [-f.one, f.zero, f.zero, f.zero],
            [f.zero, -f.one, f.zero, f.zero],
        ],
    )
    assert t == expected
    assert t * t == Mat.identity(f, 4) * (-1)


@pytest.mark.parametrize("comp", [Composition((1, 2), 0, 1), Composition((2, 2), 0, -1), Composition((1, 1), 2)])
def test_composition_json_round_trip(comp):
    assert Composition.from_json(comp.to_json()) == comp
    assert ("sign" in comp.to_json()) == (comp.split_even_sign is not None)


def ref_predicted_orbit_invariant(comp, w, y_bits, z_inv, pair):
    """The former closed form: the orthogonal transfer argument built as a
    Fraction, one factor u* per set y-bit, and its Hilbert symbol taken on
    every call."""
    iw = sorted(w.fixed_in_c)
    o_c = w.o(comp) % 2
    if pair.case is Case.SYMPLECTIC:
        return SymplecticOrbit()
    if pair.case is Case.UNITARY:
        minus_one, contrib = unitary_parity_bits(pair)
        bit = o_c * minus_one + sum(contrib * y_bits[i] for i in iw) + z_inv.gamma_bit
        return UnitaryOrbit(bit % 2)
    nw = w.n_weight(comp)
    det_y = Fraction(1)
    for i in iw:
        if y_bits[i]:
            det_y *= u_star_rational(pair)
    two_detj = Fraction(2) * prod(pair.j_entries)
    arg = Fraction((-1) ** (comp.r * o_c + nw * (nw - 1) // 2)) * two_detj ** o_c * det_y
    transfer = hilbert_rational(arg, pair.field.a, pair.prime)
    sub = pair.sub_pair(comp.r)
    ratio = 1 if sub is None else z_inv.hasse * jn_invariants(sub)[1]
    base_disc, base_hasse = jn_invariants(pair)
    return OrthogonalOrbit(0, base_disc, base_hasse * transfer * ratio)


def admitted_compositions(pair):
    """(comp, circ) for every composition the pair admits: parts summing
    to 1..n with r the rest, under both signs where the class needs one."""
    for m in range(1, pair.n + 1):
        for parts in compositions(m):
            for sign in (None, 1, -1):
                comp = Composition(parts, pair.n - m, sign)
                try:
                    yield comp, admissible_class(comp, pair)
                except WeylError:
                    continue


def test_predicted_orbit_invariant_matches_fraction_reference(bundled_pairs):
    """The cached transfer (four parities and r) against the per-call
    Fraction formula, over every bundled and sweep pair, admitted
    composition, enumerated involution, y-bit vector and inner orbit."""
    pairs = list(bundled_pairs) + [q for p in (5, 7, 11, 13, 211) for q in sweep_pairs(p)]
    hasse_signs, count = set(), 0
    for pair in pairs:
        for comp, circ in admitted_compositions(pair):
            for w in enumerate_involutions(comp, circ):
                iw = sorted(w.fixed_in_c)
                inner = inner_orbit_invariants(comp, w, pair)
                for bits in itertools.product((0, 1), repeat=len(iw)):
                    y_bits = dict(zip(iw, bits))
                    for z_inv in inner:
                        want = ref_predicted_orbit_invariant(comp, w, y_bits, z_inv, pair)
                        assert predicted_orbit_invariant(comp, w, y_bits, z_inv, pair) == want, (
                            pair, comp, w, bits, z_inv)
                        count += 1
                        if pair.case is Case.ORTHOGONAL:
                            hasse_signs.add(want.hasse)
    assert hasse_signs == {1, -1} and count > 1000
