import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localsym.forms import Case, DiagForm, invariants
from localsym.localfield import Prime, hilbert_rational, reduce
from localsym.numfield import (
    BiquadField,
    Mat,
    NumFieldError,
    in_isometry_group,
    in_symmetric_space,
    recover_hilbert90_matrix,
)
from localsym.symspace import (
    ClassicalPair,
    Component,
    GammaData,
    OrthogonalOrbit,
    SymplecticOrbit,
    SymspaceError,
    UnitaryOrbit,
    classify_x,
    det_jn,
    gamma_bit,
    gamma_index_data,
    gamma_product,
    jn_invariants,
    jn_mat,
    minus_one_gamma_certificate,
    orbit_count_X,
    realizable_targets,
    z_orbit_representatives,
)
from localsym.weyl import gl_star

from conftest import BIQ_2, BIQ_3, BIQ_5, P2, P3, P5, QUAD_M3, make_pair


def random_isometry(pair, rng, steps: int = 3) -> Mat:
    """A pseudo-random element of the isometry group of the split form,
    assembled from diagonal-block embeddings and permutation pieces."""
    field = pair.field
    n, N = pair.n, pair.N
    g = Mat.identity(field, N)
    for _ in range(steps):
        blocks = []
        for _ in range(n):
            while True:
                e = field.element(
                    Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)),
                    0 if field.is_quadratic else Fraction(rng.randint(-2, 2)),
                    0 if field.is_quadratic else Fraction(rng.randint(-1, 1)),
                )
                if not e.is_zero:
                    break
            blocks.append(e)
        upper = Mat.diagonal(field, blocks)
        mid = Mat.identity(field, pair.n0)
        g = g * Mat.block_diag(field, [upper, mid, gl_star(upper)])
    return g


def test_pair_validation():
    with pytest.raises(SymspaceError):
        make_pair(Case.SYMPLECTIC, 1, (1,), 1)
    with pytest.raises(SymspaceError):
        make_pair(Case.ORTHOGONAL, 2, (1, -1), 1)  # isotropic kernel
    with pytest.raises(SymspaceError):
        ClassicalPair(Case.ORTHOGONAL, 0, (), 1, P5, QUAD_M3)  # -1 square at 5
    with pytest.raises(SymspaceError):
        ClassicalPair(Case.UNITARY, 0, (), 1, P3, QUAD_M3)
    with pytest.raises(SymspaceError):
        ClassicalPair(Case.UNITARY, 0, (), 1, P5, BIQ_3)  # -1 is square at 5


def test_pair_n_zero_is_the_kernel():
    pair = make_pair(Case.ORTHOGONAL, 2, (1, 1), 1)
    sub = pair.sub_pair(0)
    assert type(sub) is ClassicalPair and sub.N == 2
    assert sub == ClassicalPair(Case.ORTHOGONAL, 2, (1, 1), 0, P3, QUAD_M3)
    assert make_pair(Case.ORTHOGONAL, 0, (), 2).sub_pair(0) is None
    for case, n0, j, n in [
        (Case.ORTHOGONAL, 1, (1,), -1),
        (Case.ORTHOGONAL, 0, (), 0),
        (Case.SYMPLECTIC, 0, (), 0),
        (Case.UNITARY, 0, (), 0),
        (Case.ORTHOGONAL, 2, (1, -1), 0),  # isotropic kernel
    ]:
        with pytest.raises(SymspaceError):
            make_pair(case, n0, j, n)


def test_det_jn_matches_matrix():
    for pair in [
        make_pair(Case.SYMPLECTIC, 0, (), 2),
        make_pair(Case.ORTHOGONAL, 1, (1,), 2),
        make_pair(Case.ORTHOGONAL, 2, (1, 1), 1),
        make_pair(Case.UNITARY, 1, (1,), 1),
    ]:
        assert jn_mat(pair).det().rational == det_jn(pair)


def test_jn_hasse_formula():
    # Hasse of the split form: (det j, -1)^n (-1,-1)^C(n,2) Hasse(j)
    for n0, j in [(0, ()), (1, (1,)), (2, (1, 1)), (1, (3,))]:
        for n in (1, 2, 3):
            for p in (P2, P3):
                field = QUAD_M3 if p == P3 else BiquadField(-1)
                if p == P2:
                    pair = ClassicalPair(Case.ORTHOGONAL, n0, j, n, P2, BiquadField(-1))
                else:
                    pair = make_pair(Case.ORTHOGONAL, n0, j, n)
                detj = Fraction(1)
                for e in j:
                    detj *= e
                from localsym.forms import hasse_invariant

                expected = (
                    hilbert_rational(detj, -1, p) ** n
                    * hilbert_rational(-1, -1, p) ** (n * (n - 1) // 2)
                    * hasse_invariant(j, p)
                )
                assert jn_invariants(pair)[1] == expected, (n0, j, n, p)


def test_classify_base_point():
    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 1)
    i3 = Mat.identity(pair.field, 3)
    inv = classify_x(i3, i3, pair)
    assert inv.component == 0
    assert (inv.partial, inv.hasse) == jn_invariants(pair)


def test_classify_rejects_bad_input():
    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 1)
    f = pair.field
    with pytest.raises(SymspaceError):
        classify_x(Mat.diagonal(f, [2, 1, 1]), Mat.identity(f, 3), pair)
    with pytest.raises(SymspaceError):
        classify_x(Mat.identity(f, 3), Mat.diagonal(f, [f.sqrt_a, f.one, f.one]), pair)
    with pytest.raises(SymspaceError, match="z does not split x"):
        classify_x(Mat.identity(f, 3), Mat.diagonal(f, [0, 1, 1]), pair)


def test_classify_symplectic_unique():
    pair = make_pair(Case.SYMPLECTIC, 0, (), 1)
    f = pair.field
    rng = random.Random(3)
    for _ in range(5):
        g = random_isometry(pair, rng)
        x = g * g.sigma().inv()
        z = recover_hilbert90_matrix(x)
        assert classify_x(x, z, pair) == SymplecticOrbit()


def test_classify_orthogonal_matches_forms_invariants():
    # explicit z: the twisted form invariants must equal forms.invariants
    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 1)
    f = pair.field
    z = Mat.diagonal(f, [f.element(1) + f.sqrt_a, f.one, (f.element(1) + f.sqrt_a).inverse()])
    from localsym.numfield import conj_transpose

    y = conj_transpose(z, "tau") * jn_mat(pair) * z
    assert y.is_rational
    x = z * z.sigma().inv()
    inv = classify_x(x, z, pair)
    gram = [[e.rational for e in row] for row in y.rows]
    from localsym.forms import congruent_diagonal, disc_class, hasse_invariant

    entries, _ = congruent_diagonal(gram)
    assert inv.partial == disc_class(entries, pair.prime)
    assert inv.hasse == hasse_invariant(entries, pair.prime)


def test_classify_rejects_a_split_non_isometry():
    # x sigma(x) = I and z splits x, but x does not preserve J: the twisted
    # form of z is irrational, so the descent check is the one that fails
    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 1)
    f = pair.field
    z = Mat.diagonal(f, [f.element(1) + f.sqrt_a, f.one, f.one])
    x = z * z.sigma().inv()
    assert (x * x.sigma()).is_identity
    assert not in_isometry_group(x, jn_mat(pair), pair.eps)
    with pytest.raises(SymspaceError, match="does not descend"):
        classify_x(x, z, pair)


def test_classify_shape_mismatch_is_a_numfield_error():
    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 1)
    f = pair.field
    for x, z in [(Mat.identity(f, 2), Mat.identity(f, 3)), (Mat.identity(f, 2), Mat.identity(f, 2))]:
        with pytest.raises(NumFieldError):
            classify_x(x, z, pair)


CLASSIFY_PAIRS = [
    make_pair(Case.SYMPLECTIC, 0, (), 2),
    make_pair(Case.ORTHOGONAL, 1, (1,), 1),
    make_pair(Case.ORTHOGONAL, 2, (1, 1), 1),
    make_pair(Case.UNITARY, 1, (1,), 1),
    make_pair(Case.UNITARY, 0, (), 2),
]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_classify_accepts_exactly_the_symmetric_space(data):
    # x = z sigma(z)^-1 always has x sigma(x) = I; classify_x must accept z
    # exactly when x is also an isometry of J.  Half the z are g r with g an
    # isometry and r rational, which lands in X.
    pair = data.draw(st.sampled_from(CLASSIFY_PAIRS))
    field, N = pair.field, pair.N
    into_x = data.draw(st.booleans())
    width = 1 if into_x else 2 if field.is_quadratic else 4
    coeffs = st.lists(st.integers(-2, 2), min_size=width, max_size=width)
    z = Mat(field, [[field.element(*data.draw(coeffs)) for _ in range(N)] for _ in range(N)])
    if into_x:
        z = random_isometry(pair, random.Random(data.draw(st.integers(0, 10**6)))) * z
    assume(not z.det().is_zero)
    x = z * z.sigma().inv()
    if in_symmetric_space(x, jn_mat(pair), pair.eps):
        classify_x(x, z, pair)
    else:
        with pytest.raises(SymspaceError):
            classify_x(x, z, pair)
    g = random_isometry(pair, random.Random(data.draw(st.integers(0, 10**6))))
    x = g * g.sigma().inv()
    classify_x(x, recover_hilbert90_matrix(x), pair)


def test_orbit_counts_X():
    assert orbit_count_X(make_pair(Case.SYMPLECTIC, 0, (), 2)) == 1
    assert orbit_count_X(make_pair(Case.UNITARY, 1, (1,), 1)) == 2
    # split orthogonal N = 2: det w2 = -1, so SX is a single orbit
    p2 = make_pair(Case.ORTHOGONAL, 0, (), 1)
    assert orbit_count_X(p2, Component.IDENTITY) == 1
    assert orbit_count_X(p2, Component.COMPLEMENT) == 2  # disc -a != -1 at 3
    assert orbit_count_X(p2, Component.FULL) == 3
    # N = 3 orthogonal: two orbits in each component
    p3 = make_pair(Case.ORTHOGONAL, 1, (1,), 1)
    assert orbit_count_X(p3, Component.IDENTITY) == 2
    assert orbit_count_X(p3, Component.COMPLEMENT) == 2
    assert orbit_count_X(p3, Component.FULL) == 4
    with pytest.raises(SymspaceError):
        orbit_count_X(make_pair(Case.SYMPLECTIC, 0, (), 1), Component.IDENTITY)


def test_orbit_count_full_is_sum():
    for pair in [
        make_pair(Case.ORTHOGONAL, 0, (), 1),
        make_pair(Case.ORTHOGONAL, 0, (), 2),
        make_pair(Case.ORTHOGONAL, 1, (1,), 1),
        make_pair(Case.ORTHOGONAL, 2, (1, 1), 1),
    ]:
        assert orbit_count_X(pair, Component.FULL) == orbit_count_X(
            pair, Component.IDENTITY
        ) + orbit_count_X(pair, Component.COMPLEMENT)


def test_z_orbit_representatives_orthogonal():
    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 1)
    reps = z_orbit_representatives(pair, Component.IDENTITY)
    assert len(reps) == 2
    invs = {inv for inv, _, _ in reps}
    assert invs == set(realizable_targets(pair))
    for inv, x, z in reps:
        assert z * z.sigma().inv() == x
    comp = z_orbit_representatives(pair, Component.COMPLEMENT)
    assert len(comp) == 2
    assert all(inv.component == 1 for inv, _, _ in comp)


def test_z_orbit_representatives_kernel_only():
    pair = make_pair(Case.ORTHOGONAL, 2, (1, 1), 1)
    sub = pair.sub_pair(0)
    reps = z_orbit_representatives(sub, Component.IDENTITY)
    # N = 2 kernel diag(1,1): disc 1 != -1 at 3, two orbits
    assert len(reps) == 2
    comp = z_orbit_representatives(sub, Component.COMPLEMENT)
    # complement disc = -1: a single orbit
    assert len(comp) == 1


def test_z_orbit_representatives_anisotropic_kernels():
    # every anisotropic kernel alone (r = 0), and kernels of rank <= 2 beside
    # one hyperbolic plane, in the ramified and unramified models
    from itertools import combinations_with_replacement

    from localsym.forms import is_anisotropic
    from localsym.localfield import square_class_reps

    models = [(P2, -1)] + [(Prime(p), a) for p in (5, 7) for a in (p, Prime(p).nonresidue)]
    for p, a in models:
        for n0 in (1, 2, 3, 4) if p.odd else (1, 2):
            for j in combinations_with_replacement(square_class_reps(p), n0):
                if not is_anisotropic(j, p):
                    continue
                pair = ClassicalPair(Case.ORTHOGONAL, n0, j, 1, p, BiquadField(a))
                for sub in (pair.sub_pair(0), pair)[: 2 if n0 <= 2 and p.odd else 1]:
                    for component in (Component.IDENTITY, Component.COMPLEMENT):
                        reps = z_orbit_representatives(sub, component)
                        assert len(reps) == orbit_count_X(sub, component), (p, a, j, sub.n)


def test_z_orbit_representatives_unitary():
    for pair in [make_pair(Case.UNITARY, 0, (), 1), make_pair(Case.UNITARY, 1, (1,), 1)]:
        reps = z_orbit_representatives(pair, Component.IDENTITY)
        assert [inv for inv, _, _ in reps] == [UnitaryOrbit(0), UnitaryOrbit(1)]
        assert reps[0][1].is_identity


def test_classify_constant_on_orbits():
    rng = random.Random(14)
    for pair in [
        make_pair(Case.ORTHOGONAL, 1, (1,), 1),
        make_pair(Case.UNITARY, 0, (), 1),
        make_pair(Case.SYMPLECTIC, 0, (), 1),
    ]:
        reps = z_orbit_representatives(pair, Component.IDENTITY)
        for inv, x, z in reps:
            for _ in range(3):
                g = random_isometry(pair, rng)
                gx = g * x * g.sigma().inv()
                gz = g * z
                assert classify_x(gx, gz, pair) == inv


def test_partial_takes_two_values():
    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 1)
    base = reduce(det_jn(pair), pair.prime)
    acls = reduce(pair.field.a, pair.prime)
    for inv, _, _ in z_orbit_representatives(pair, Component.IDENTITY):
        assert inv.partial == base
    for inv, _, _ in z_orbit_representatives(pair, Component.COMPLEMENT):
        assert inv.partial == base * acls


def test_gamma_index_data():
    pair = make_pair(Case.UNITARY, 0, (), 1)
    data = gamma_index_data(pair)
    # at (a,b) = (-1,3) and p = 3, -1 is not a gamma product
    assert data.minus_one_bit == 1
    # at (a,b) = (-1,2) and p = 2 it is, with a small certificate
    pair2 = ClassicalPair(Case.UNITARY, 0, (), 1, P2, BIQ_2)
    data2 = gamma_index_data(pair2)
    assert data2.minus_one_bit == 0
    c = BIQ_2.element(*data2.certificate)
    assert gamma_product(c) == BIQ_2.element(-1)


def test_gamma_bit_closed_form_agrees_with_oracle():
    for pair in [
        make_pair(Case.UNITARY, 0, (), 1),
        ClassicalPair(Case.UNITARY, 0, (), 1, P2, BIQ_2),
        ClassicalPair(Case.UNITARY, 0, (), 1, P5, BIQ_5),
    ]:
        f = pair.field
        closed = gamma_bit(pair, f.element(-1))
        assert closed == gamma_index_data(pair).minus_one_bit
        # gamma products always classify as trivial
        rng = random.Random(15)
        hits = 0
        while hits < 20:
            c = f.element(
                rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
            )
            if c.is_zero or c.norm_to_Q() == 0:
                continue
            assert gamma_bit(pair, gamma_product(c)) == 0
            hits += 1


def test_gamma_bit_validates():
    pair = make_pair(Case.UNITARY, 0, (), 1)
    with pytest.raises(SymspaceError):
        gamma_bit(pair, pair.field.element(2))


def test_classify_constant_under_weyl_factors():
    # conjugating by representative isometries t_w also preserves invariants
    from localsym.weyl import Composition, build_tw, enumerate_involutions

    pair = make_pair(Case.ORTHOGONAL, 1, (1,), 2)
    comp = Composition((1, 1), 0)
    reps = z_orbit_representatives(pair, Component.IDENTITY)
    for w in enumerate_involutions(comp):
        t = build_tw(comp, w, pair)
        for inv, x, z in reps:
            gx = t * x * t.sigma().inv()
            gz = t * z
            assert classify_x(gx, gz, pair) == inv
