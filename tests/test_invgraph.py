import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsym.invgraph import (
    Convention,
    DescentStep,
    InvGraphError,
    ThetaAction,
    Vertex,
    apply_symmetry,
    cone_contains,
    cone_recursion_holds,
    constraining_roots,
    coroot_pairing,
    descend,
    eligible_simple_roots,
    is_terminal,
    positive_roots,
    root_sign,
    simple_roots,
    theta_on_root,
)
from localsym.invgraph import _cone
from localsym.weyl import Composition, SignedInvolution, SignedPerm, enumerate_involutions

CONVS = (Convention(False), Convention(True))


def is_involution(theta):
    """theta applied twice fixes every coordinate vector."""
    probe = [tuple(1 if i == j else 0 for j in range(theta.k)) for i in range(theta.k)]
    return all(theta.apply(theta.apply(v)) == v for v in probe)


def negativity_count(v: Vertex, conv: Convention) -> int:
    """Positive roots that theta of v sends to negative ones."""
    theta = ThetaAction.from_involution(v.w)
    return sum(
        1
        for alpha in positive_roots(v.comp.k, conv)
        if theta_on_root(theta, alpha)[1] == "negative"
    )


def all_vertices(k_max=4, part_max=2, rs=(0, 1)):
    for k in range(1, k_max + 1):
        for parts in itertools.product(range(1, part_max + 1), repeat=k):
            for r in rs:
                comp = Composition(parts, r)
                for w in enumerate_involutions(comp):
                    yield Vertex(comp, w)


def test_theta_is_involution():
    for comp in [Composition((1, 1, 2), 0), Composition((2, 2), 1)]:
        for w in enumerate_involutions(comp):
            theta = ThetaAction.from_involution(w)
            assert is_involution(theta)


def test_theta_identity_no_edges():
    comp = Composition((1, 2), 0)
    w = SignedInvolution.identity(2)
    v = Vertex(comp, w)
    theta = ThetaAction.from_involution(w)
    for conv in CONVS:
        for alpha in simple_roots(2, conv):
            image, sign = theta_on_root(theta, alpha)
            assert image == alpha and sign == "positive"
        assert eligible_simple_roots(v, conv) == []
        assert is_terminal(v, conv)


def test_rank_zero_has_no_roots():
    v = Vertex(Composition((), 0), SignedInvolution.identity(0))
    for conv in CONVS:
        assert simple_roots(0, conv) == positive_roots(0, conv) == ()
        assert eligible_simple_roots(v, conv) == []
        assert is_terminal(v, conv)
        assert descend(v, conv) == ([], v)


def test_theta_examples():
    # k = 2, c = {1}: e1 - e2 -> -e1 - e2, an edge
    w = SignedInvolution((0, 1), frozenset({0}))
    theta = ThetaAction.from_involution(w)
    image, sign = theta_on_root(theta, (1, -1))
    assert image == (-1, -1) and sign == "negative"
    assert image != (-1, 1)
    # k = 2, rho = (12): e1 - e2 -> e2 - e1 = -alpha, not an edge
    w2 = SignedInvolution((1, 0), frozenset())
    theta2 = ThetaAction.from_involution(w2)
    image2, sign2 = theta_on_root(theta2, (1, -1))
    assert image2 == (-1, 1) and sign2 == "negative"
    v = Vertex(Composition((1, 1), 0), w2)
    for conv in CONVS:
        assert all(idx != 0 for idx, _ in eligible_simple_roots(v, conv))


def test_descend_one_step_example():
    # k = 2, c = {1}: one swap reaches c = {2}, then terminal
    comp = Composition((1, 1), 1)
    w = SignedInvolution((0, 1), frozenset({0}))
    v = Vertex(comp, w)
    conv = Convention(False)
    path, terminal = descend(v, conv)
    assert len(path) == 1
    assert terminal.w.c == frozenset({1})
    assert is_terminal(terminal, conv)


def test_descend_terminal_input():
    v = Vertex(Composition((2, 2), 0), SignedInvolution.identity(2))
    for conv in CONVS:
        path, terminal = descend(v, conv)
        assert path == [] and terminal == v


def test_descent_terminates_and_is_monotone():
    for conv in CONVS:
        for v in all_vertices():
            bound = len(positive_roots(v.comp.k, conv))
            path, terminal = descend(v, conv)
            assert len(path) <= bound
            assert is_terminal(terminal, conv)
            # the negativity count never increases along the walk
            counts = [negativity_count(v, conv)]
            for step in path:
                counts.append(negativity_count(step.vertex, conv))
            assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_edge_double_application_returns():
    for conv in CONVS:
        for v in all_vertices(k_max=3):
            for idx, _ in eligible_simple_roots(v, conv):
                v2 = apply_symmetry(apply_symmetry(v, idx), idx)
                assert v2 == v


def test_root_sign():
    assert root_sign((0, 1, -1)) == 1
    assert root_sign((-1, 2)) == -1
    with pytest.raises(InvGraphError):
        root_sign((0, 0))


def test_coroot_pairing_normalization():
    assert coroot_pairing((1, 0), (1, -1)) == 1
    assert coroot_pairing((1, 0), (2, 0)) == 1
    assert coroot_pairing((1, 0), (1, 0)) == 2


def test_cone_examples():
    conv = Convention(False)
    # lam = 0 with c > 0: anti-invariant but fails every wall
    w = SignedInvolution((0, 1), frozenset({0, 1}))
    theta = ThetaAction.from_involution(w)
    assert not cone_contains(theta, (0, 0), Fraction(1, 2), conv)
    # theta = -id: anti-invariance is free, cone = dominant-above-c region
    assert cone_contains(theta, (5, 3), 1, conv)
    assert not cone_contains(theta, (3, 5), 1, conv)  # e1 - e2 pairing fails
    assert not cone_contains(theta, (5, Fraction(1, 2)), 1, conv)
    # non-anti-invariant points are excluded
    w2 = SignedInvolution.identity(2)
    theta2 = ThetaAction.from_involution(w2)
    assert not cone_contains(theta2, (1, 1), 0, conv)
    # a point on a wall is outside (the inequality is strict); c of each type.
    # Walls e1 - e2, e1 + e2, e1, e2 pair with (5/6, 1/4) to 7/12, 13/12, 5/3, 1/2
    lam = (Fraction(5, 6), Fraction(1, 4))
    assert cone_contains(theta, lam, Fraction(1, 3), conv)
    assert not cone_contains(theta, lam, Fraction(1, 2), conv)
    assert not cone_contains(theta, lam, "1/2", conv)
    assert cone_contains(theta, lam, "5/12", conv)
    assert cone_contains(theta, lam, 0, conv)
    assert cone_contains(theta, lam, -1, conv)
    assert cone_contains(theta, ("5/6", 0.25), 0, conv)
    # 2 e_2 as the wall root leaves the pairing with e_2 at 1/4
    assert not cone_contains(theta, lam, Fraction(1, 3), Convention(True))
    assert not cone_contains(theta, (0, 0), 0, conv)
    assert cone_contains(theta, (0, 0), Fraction(-1, 7), conv)


def rand_lambda(rng, theta, k, project):
    lam = tuple(Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3])) for _ in range(k))
    if project:
        return theta.anti_invariant_part(lam)
    return lam


def test_cone_recursion_identity():
    rng = random.Random(31)
    for conv in CONVS:
        for v in all_vertices(k_max=3):
            theta = ThetaAction.from_involution(v.w)
            for idx, _ in eligible_simple_roots(v, conv):
                for _ in range(40):
                    lam = rand_lambda(rng, theta, v.comp.k, rng.random() < 0.7)
                    c = rng.choice([0, 1, Fraction(1, 2), 2])
                    assert cone_recursion_holds(v, idx, lam, c, conv)


def test_anti_invariant_part_is_exact():
    theta = ThetaAction.from_involution(SignedInvolution((1, 0), frozenset()))
    for vec in [(3, 1), (Fraction(3), Fraction(1)), ("3", "1")]:
        part = theta.anti_invariant_part(vec)
        assert part == (1, -1)
        assert all(type(x) is Fraction for x in part)
    assert theta.anti_invariant_part((Fraction(1, 3), "1/2")) == (Fraction(-1, 12), Fraction(1, 12))


# ---------------------------------------------------------------------------
# the integer cone test against the definition evaluated in Fractions

cone_settings = settings(max_examples=300, derandomize=True, deadline=None)

SMALL_THETAS = [
    ThetaAction.from_involution(w)
    for k in range(1, 6)
    for r in (0, 1)
    for w in enumerate_involutions(Composition((1,) * k, r))
]


def ref_walls(theta, conv):
    return [a for a in positive_roots(theta.k, conv) if root_sign(theta.apply(a)) < 0]


def ref_cone(theta, lam, c, conv):
    lam = tuple(Fraction(x) for x in lam)
    c = Fraction(c)
    anti = theta.apply(lam) == tuple(-x for x in lam)
    return anti and all(coroot_pairing(lam, a) > c for a in ref_walls(theta, conv))


@st.composite
def cone_queries(draw):
    conv = draw(st.sampled_from(CONVS))
    theta = draw(st.sampled_from(SMALL_THETAS))
    lam = tuple(
        Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12))) for _ in range(theta.k)
    )
    if draw(st.booleans()):
        lam = theta.anti_invariant_part(lam)
    walls = ref_walls(theta, conv)
    mode = draw(st.sampled_from(["int", "fraction", "str", "on_wall"]))
    if mode == "on_wall" and walls:
        # the least pairing: lam lies on that wall and above or on the rest
        c = min(coroot_pairing(lam, a) for a in walls)
    elif mode == "int":
        c = draw(st.integers(-3, 3))
    else:
        c = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12)))
        if mode == "str":
            c = str(c)
    return theta, lam, c, conv


@cone_settings
@given(query=cone_queries())
def test_cone_contains_matches_definition(query):
    theta, lam, c, conv = query
    assert cone_contains(theta, lam, c, conv) == ref_cone(theta, lam, c, conv)


def test_cone_contains_dimension_mismatch():
    for conv in CONVS:
        for theta in SMALL_THETAS:
            for lam in [(1,) * (theta.k + 1), (Fraction(1, 2),) * (theta.k - 1)]:
                with pytest.raises(InvGraphError):
                    cone_contains(theta, lam, 0, conv)


def wall_root(wall, k):
    """The positive root of a sparse wall (i, j, s, f), read back from
    <lam, alpha^vee> = f (lam_i + s lam_j)."""
    i, j, s, f = wall
    root = [0] * k
    if i == j:
        root[i] = 2 // f
    else:
        root[i], root[j] = 1, s
    return tuple(root)


def test_cone_keeps_one_wall_per_partner_pair():
    rng = random.Random(5)
    for conv in CONVS:
        for theta in SMALL_THETAS:
            walls = constraining_roots(theta, conv)
            partner = {a: tuple(-x for x in theta.apply(a)) for a in walls}
            assert all(b in walls for b in partner.values())
            classes = {frozenset((a, b)) for a, b in partner.items()}
            kept = [wall_root(wall, theta.k) for wall in _cone(theta, conv)[1]]
            assert set(kept) <= set(walls) and len(kept) == len(classes)
            assert {frozenset((a, partner[a])) for a in kept} == classes
            lam = theta.anti_invariant_part(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(theta.k)]
            )
            for a in walls:
                assert coroot_pairing(lam, a) == coroot_pairing(lam, partner[a])
            for (i, j, s, f), a in zip(_cone(theta, conv)[1], kept):
                assert f * (lam[i] + s * lam[j]) == coroot_pairing(lam, a)


def test_anti_invariance_compares_denominators():
    # theta swaps the coordinates: lam is anti-invariant iff lam_2 = -lam_1
    theta = ThetaAction.from_involution(SignedInvolution((1, 0), frozenset()))
    for conv in CONVS:
        assert cone_contains(theta, (Fraction(1, 2), Fraction(-1, 2)), 0, conv)
        assert not cone_contains(theta, (Fraction(1, 2), Fraction(-1, 3)), 0, conv)
        assert cone_contains(theta, ("1/2", "-2/4"), 0, conv)


def coordinates(kind):
    fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    if kind == "int":
        return st.integers(-40, 40)
    if kind == "str":
        return fractions.map(str)
    return fractions


@st.composite
def theta_vectors(draw):
    theta = draw(st.sampled_from(SMALL_THETAS))
    kind = draw(st.sampled_from(["int", "fraction", "str", "mixed"]))
    kinds = [
        draw(st.sampled_from(["int", "fraction", "str"])) if kind == "mixed" else kind
        for _ in range(theta.k)
    ]
    return theta, tuple(draw(coordinates(x)) for x in kinds)


@cone_settings
@given(query=theta_vectors())
def test_anti_invariant_part_matches_definition(query):
    theta, vec = query
    lam = tuple(Fraction(x) for x in vec)
    want = tuple((v - t) / 2 for v, t in zip(lam, theta.apply(lam)))
    part = theta.anti_invariant_part(vec)
    assert part == want
    assert all(type(x) is Fraction for x in part)
    assert theta.apply(part) == tuple(-x for x in part)


# ---------------------------------------------------------------------------
# the per-involution caches against an uncached reference


def ref_eligible(v, conv):
    theta = ThetaAction.from_involution(v.w)
    out = []
    for idx, alpha in enumerate(simple_roots(v.comp.k, conv)):
        image, sign = theta_on_root(theta, alpha)
        if sign == "negative" and image != tuple(-x for x in alpha):
            out.append((idx, alpha))
    return out


def ref_symmetry(k, idx):
    if idx < k - 1:
        rho = list(range(k))
        rho[idx], rho[idx + 1] = idx + 1, idx
        return SignedPerm(tuple(rho), frozenset())
    return SignedPerm(tuple(range(k)), frozenset({k - 1}))


def ref_apply_symmetry(v, idx, conjugates):
    """The reflected vertex; `conjugates` memoizes conjugate_by per (w, idx)
    in the test, apart from the library's caches."""
    k = v.comp.k
    if (v.w, idx) not in conjugates:
        conjugates[v.w, idx] = v.w.conjugate_by(ref_symmetry(k, idx))
    parts = list(v.comp.parts)
    if idx < k - 1:
        parts[idx], parts[idx + 1] = parts[idx + 1], parts[idx]
    comp = Composition(tuple(parts), v.comp.r, v.comp.split_even_sign)
    return Vertex(comp, conjugates[v.w, idx])


def test_cached_edges_match_reference():
    vertices = list(all_vertices(k_max=5))
    reflected, conjugates = {}, {}
    for v in vertices:
        reflected[v] = [ref_apply_symmetry(v, idx, conjugates) for idx in range(v.comp.k)]
        assert [apply_symmetry(v, idx) for idx in range(v.comp.k)] == reflected[v]
    for conv in CONVS:
        edges = {}
        for v in vertices:
            want = ref_eligible(v, conv)
            got = eligible_simple_roots(v, conv)
            assert type(got) is list and got == want
            got.append((99, ()))  # the caller owns the list
            assert eligible_simple_roots(v, conv) == want
            assert is_terminal(v, conv) == (not want)
            edges[v] = want
        for v in vertices:
            # the reference walk: least edge, reflected without the caches
            path = []
            current = v
            while edges[current]:
                idx, alpha = edges[current][0]
                current = reflected[current][idx]
                path.append(DescentStep(len(path) + 1, alpha, current))
            assert descend(v, conv) == (path, current)
