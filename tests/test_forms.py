import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from localsym.forms import (
    Case,
    DiagForm,
    FormInvariants,
    FormsError,
    congruent_diagonal,
    diagonalize,
    disc_class,
    equivalent,
    hasse_invariant,
    invariants,
    is_anisotropic,
    is_anisotropic_hermitian,
    orbit_count,
    split_gram,
)
from localsym.localfield import (
    Prime,
    QuadExtension,
    hilbert,
    hilbert_rational,
    reduce,
    square_class_reps,
    valuation,
)
from localsym.numfield import BiquadField, Bq, Mat, NumFieldError, RatMat

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def det_image_witness(f: DiagForm, a, change_of_basis=None):
    """Test helper: an isometry h of the form with det h = a, namely
    g diag(a, 1, ..., 1) g^{-1} for g the diagonalizing change of basis.

    Orthogonal case: a = +-1, h rational with h^2 = I.  Unitary case: a is
    a norm-one element of the modelled extension (a Bq over a quadratic
    model) and h is a matrix over that model.
    """
    n = f.rank
    if f.case is Case.SYMPLECTIC:
        raise FormsError("symplectic isometries all have determinant one")
    if f.case is Case.ORTHOGONAL:
        if a not in (1, -1):
            raise FormsError("orthogonal determinants are +-1")
        if change_of_basis is None:
            return [[Fraction(a if i == 0 else 1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        # rational matrices, inverted over a quadratic model
        g = Mat.from_rational(BiquadField(-1), change_of_basis)
        d = Mat.diagonal(g.field, [a] + [1] * (n - 1))
        try:
            gi = g.inv()
        except NumFieldError as e:
            raise FormsError(str(e))
        return [[e.rational for e in r] for r in (g * d * gi).rows]
    if not isinstance(a, Bq):
        raise FormsError("unitary determinant target must be a field element")
    if not (a * a.sigma_tau() - 1).is_zero and not (a * a.tau() - 1).is_zero:
        raise FormsError("determinant target must have norm one")
    field = a.field
    h = Mat.diagonal(field, [a] + [field.one] * (n - 1))
    if change_of_basis is None:
        return h
    g = Mat.from_rational(field, change_of_basis)
    return g * h * g.inv()


def sum_invariants(inv1: FormInvariants, inv2: FormInvariants) -> FormInvariants:
    """Test helper: invariants of an orthogonal direct sum from those of the summands:
    disc multiplies, hasse multiplies times the cross symbol."""
    if inv1.case is not Case.ORTHOGONAL or inv2.case is not Case.ORTHOGONAL:
        raise FormsError("direct-sum rule implemented for the orthogonal case")
    return FormInvariants(
        Case.ORTHOGONAL,
        inv1.rank + inv2.rank,
        disc=inv1.disc * inv2.disc,
        hasse=inv1.hasse * inv2.hasse * hilbert(inv1.disc, inv2.disc),
    )


def rand_symmetric(rng, n, span=5):
    g = [[Fraction(rng.randint(-span, span), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            g[i][j] = g[j][i]
    return g


def transpose(m):
    return [list(r) for r in zip(*m)]


def mat_mul(a, b):
    return (RatMat.of(a) * RatMat.of(b)).fractions()


def test_split_gram():
    assert split_gram(0) == []
    assert split_gram(1, (3,), -1) == [[0, 0, 1], [0, 3, 0], [-1, 0, 0]]
    assert split_gram(2, (), 1) == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    assert split_gram(1, (1, Fraction(-2, 3))) == [
        [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, Fraction(-2, 3), 0], [1, 0, 0, 0],
    ]
    assert all(type(e) is Fraction for r in split_gram(2, (5,), -1) for e in r)


def test_diagonalize_diag_input():
    form, p = diagonalize([[2, 0], [0, -3]], P3)
    assert form.entries == (Fraction(2), Fraction(-3))


def test_diagonalize_hyperbolic_plane():
    form, p = diagonalize([[0, 1], [1, 0]], P3)
    d = mat_mul(mat_mul(transpose(p), [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]), p)
    assert d[0][1] == d[1][0] == 0
    assert (d[0][0], d[1][1]) == form.entries
    for prime in (P3, P5, Prime(7)):
        inv = invariants(DiagForm(Case.ORTHOGONAL, prime, form.entries))
        assert inv.disc == reduce(-1, prime)
        assert inv.hasse == 1


def test_diagonalize_random_congruence_property():
    rng = random.Random(11)
    for n in (3, 4):
        for _ in range(40):
            g = rand_symmetric(rng, n)
            try:
                entries, p = congruent_diagonal(g)
            except FormsError:
                continue  # singular sample
            d = mat_mul(mat_mul(transpose(p), g), p)
            assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
            assert tuple(d[i][i] for i in range(n)) == entries


def test_diagonalize_rejects_bad_input():
    with pytest.raises(FormsError):
        congruent_diagonal([[1, 2], [3, 4]])
    with pytest.raises(FormsError):
        congruent_diagonal([[1, 1], [1, 1]])


def test_invariants_examples():
    f = DiagForm(Case.ORTHOGONAL, P3, (1, 1, 1))
    inv = invariants(f)
    assert inv.disc.is_trivial and inv.hasse == 1
    g = DiagForm(Case.ORTHOGONAL, P3, (7, -7))
    invg = invariants(g)
    assert invg.disc == reduce(-49, P3) == reduce(-1, P3)
    assert invg.hasse == 1


def test_equivalence_rank2_disc_minus_one_unique():
    # any two rank-2 forms of discriminant -1 are equivalent
    f = DiagForm(Case.ORTHOGONAL, P3, (1, -1))
    g = DiagForm(Case.ORTHOGONAL, P3, (2, -2))
    h = DiagForm(Case.ORTHOGONAL, P3, (3, -3))
    assert equivalent(f, g) and equivalent(f, h) and equivalent(f, f)


def test_inequivalent_same_disc_different_hasse():
    # diag(1,1,-1) vs diag(i^2, u, -i^2 u) with i^2 = -1, u = 3 a non-norm at 3
    assert hilbert_rational(3, -1, P3) == -1
    f = DiagForm(Case.ORTHOGONAL, P3, (1, 1, -1))
    g = DiagForm(Case.ORTHOGONAL, P3, (-1, 3, 3))
    fi, gi = invariants(f), invariants(g)
    assert fi.disc == gi.disc
    assert fi.hasse != gi.hasse
    assert not equivalent(f, g)


def test_orbit_counts():
    assert orbit_count(Case.SYMPLECTIC, 4) == 1
    assert orbit_count(Case.ORTHOGONAL, 2, reduce(-1, P3)) == 1
    assert orbit_count(Case.ORTHOGONAL, 2, reduce(3, P3)) == 2
    assert orbit_count(Case.ORTHOGONAL, 3, reduce(1, P3)) == 2
    assert orbit_count(Case.ORTHOGONAL, 1, reduce(3, P3)) == 1
    assert orbit_count(Case.UNITARY, 5) == 2
    with pytest.raises(FormsError):
        orbit_count(Case.SYMPLECTIC, 3)


@pytest.mark.parametrize("p,maxrank", [(P3, 4), (P5, 4), (P2, 3)])
def test_orbit_count_matches_enumeration(p, maxrank):
    reps = square_class_reps(p)
    for n in range(1, maxrank + 1):
        seen = {}
        for combo in combinations_with_replacement(reps, n):
            inv = invariants(DiagForm(Case.ORTHOGONAL, p, combo))
            seen.setdefault(inv.disc, set()).add(inv.hasse)
        for disc, hasses in seen.items():
            assert len(hasses) == orbit_count(Case.ORTHOGONAL, n, disc), (n, disc)


def test_unitary_invariants_and_counts():
    ext = QuadExtension.of(-1, P3)
    f = DiagForm(Case.UNITARY, P3, (1, 1), ext=ext)
    g = DiagForm(Case.UNITARY, P3, (3, 1), ext=ext)
    assert invariants(f).det_norm_bit == 0
    assert invariants(g).det_norm_bit == 1
    assert not equivalent(f, g)
    reps = square_class_reps(P3)
    bits = {invariants(DiagForm(Case.UNITARY, P3, (r,), ext=ext)).det_norm_bit for r in reps}
    assert len(bits) == orbit_count(Case.UNITARY, 1)


def test_sum_invariants_rule():
    rng = random.Random(12)
    for _ in range(60):
        e1 = tuple(rng.choice([1, -1, 2, 3, 5, -3]) for _ in range(rng.randint(1, 3)))
        e2 = tuple(rng.choice([1, -1, 2, 3, 5, -3]) for _ in range(rng.randint(1, 3)))
        f = invariants(DiagForm(Case.ORTHOGONAL, P5, e1))
        g = invariants(DiagForm(Case.ORTHOGONAL, P5, e2))
        whole = invariants(DiagForm(Case.ORTHOGONAL, P5, e1 + e2))
        assert sum_invariants(f, g) == whole


def test_det_image_witness_orthogonal():
    f = DiagForm(Case.ORTHOGONAL, P3, (1, 2, 3))
    h = det_image_witness(f, -1)
    assert mat_mul(h, h) == [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    det = h[0][0] * h[1][1] * h[2][2]
    assert det == -1
    # through a change of basis: h must preserve the original gram matrix
    gram = [[0, 1, 0], [1, 0, 0], [0, 0, 3]]
    form, p = diagonalize(gram, P3)
    h = det_image_witness(form, -1, change_of_basis=p)
    gm = [[Fraction(x) for x in r] for r in gram]
    assert mat_mul(mat_mul(transpose(h), gm), h) == gm
    assert mat_mul(h, h) == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_det_image_witness_identity_and_unitary():
    f = DiagForm(Case.ORTHOGONAL, P3, (1, 5))
    h = det_image_witness(f, 1)
    assert h == [[1, 0], [0, 1]]
    E = BiquadField(-1)
    a = (E.element(1) + E.sqrt_a) / (E.element(1) - E.sqrt_a)  # norm one
    uf = DiagForm(Case.UNITARY, P3, (1,), ext=QuadExtension.of(-1, P3))
    h = det_image_witness(uf, a)
    assert h.rows[0][0] == a


def brute_isotropic(entries, p):
    """Independent oracle: primitive zero of sum a_i x_i^2 mod p^m, with one
    coordinate scaled to 1 and the matching Hensel exponent."""
    entries = [Fraction(e) for e in entries]
    n = len(entries)
    for j in range(n):
        scaled = [entries[i] / entries[j] for i in range(n)]
        den = 1
        for s in scaled:
            den = den * s.denominator // _gcd(den, s.denominator)
        ints = [int(s * den) for s in scaled]
        m = 2 * valuation(2 * den * ints[j], p) + 1
        pm = p.p ** m
        others = [i for i in range(n) if i != j]

        def search(idx, acc):
            if idx == len(others):
                return (acc + ints[j]) % pm == 0
            return any(
                search(idx + 1, acc + ints[others[idx]] * x * x)
                for x in range(pm)
            )

        if search(0, 0):
            return True
    return False


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@pytest.mark.parametrize("p", [P2, P3])
def test_anisotropy_criteria_vs_bruteforce(p):
    rng = random.Random(13)
    pool = [1, -1, 2, -2, 3, -3, 6]
    seen = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        entries = [rng.choice(pool) for _ in range(n)]
        expected = not brute_isotropic(entries, p)
        assert is_anisotropic(entries, p) == expected, (entries, p)
        seen += 1
    assert seen == 40


def test_anisotropy_rank_bounds():
    assert not is_anisotropic([1, 1, 1, 1, 1], P3)
    # the classical rank-4 anisotropic form at odd p: diag(1, -u, -p, up)
    u = P3.nonresidue
    assert is_anisotropic([1, -u, -3, 3 * u], P3)
    assert is_anisotropic([1, 1], P3)  # -1 non-square at 3
    assert not is_anisotropic([1, -1], P3)


def test_hermitian_anisotropy():
    ram = QuadExtension.of(3, P3)
    unram = QuadExtension.of(-1, P3)
    assert is_anisotropic_hermitian([1], ram)
    assert is_anisotropic_hermitian([1, 1], ram)  # -1 a non-norm from Q3(sqrt 3)
    assert not is_anisotropic_hermitian([1, 1], unram)  # -1 = N(i) there
    assert not is_anisotropic_hermitian([1, -1], ram)
    assert not is_anisotropic_hermitian([1, 1, 1], ram)


def test_symplectic_equivalence_rank_only():
    f = DiagForm(Case.SYMPLECTIC, P3, (), symplectic_rank=4)
    g = DiagForm(Case.SYMPLECTIC, P3, (), symplectic_rank=4)
    h = DiagForm(Case.SYMPLECTIC, P3, (), symplectic_rank=2)
    assert equivalent(f, g)
    assert not equivalent(f, h)
    with pytest.raises(FormsError):
        invariants(f)
    with pytest.raises(FormsError):
        DiagForm(Case.SYMPLECTIC, P3, (), symplectic_rank=3)


def test_det_image_witness_unitary_with_basis():
    from localsym.numfield import conj_transpose

    E = BiquadField(-1)
    a = (E.element(1) + E.sqrt_a) / (E.element(1) - E.sqrt_a)
    assert (a * a.sigma() - 1).is_zero
    gram = [[0, 1], [1, 0]]
    form, p = diagonalize(gram, P3, Case.UNITARY, ext=QuadExtension.of(-1, P3))
    h = det_image_witness(form, a, change_of_basis=p)
    j = Mat.from_rational(E, gram)
    assert conj_transpose(h, "sigma") * j * h == j
    assert h.det() == a
