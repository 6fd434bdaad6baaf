import random
from fractions import Fraction

import pytest

from localsym.localfield import LocalFieldError, Prime, QuadExtension, hilbert_rational, reduce
from localsym.numfield import BiquadField, Mat
from localsym.prasad import (
    CharacterFormula,
    Family,
    GroupDescriptor,
    KClassElement,
    PrasadError,
    eta_on_k_class,
    evaluate_character,
    opposition_group,
    prasad_character,
    so_form_gram,
    spinor_norm,
    spinor_norm_rational,
    squarefree_part,
    w_gram,
    wsn,
)

from conftest import leibniz_det, mat_mul

P3 = Prime(3)
E3 = QuadExtension.of(-1, P3)


def rat_mat(rows):
    return [[Fraction(x) for x in r] for r in rows]


def gl_star_rat(h, m):
    w = w_gram(m)
    inv = Mat.from_rational(BiquadField(-1), h).T.inv()
    return mat_mul(mat_mul(w, [[e.rational for e in r] for r in inv.rows]), w)


def siegel(h):
    m = len(h)
    out = [[Fraction(0)] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            out[i][j] = Fraction(h[i][j])
    star = gl_star_rat(rat_mat(h), m)
    for i in range(m):
        for j in range(m):
            out[m + i][m + j] = star[i][j]
    return out


def rand_gl(rng, m, span=3):
    while True:
        h = [[Fraction(rng.randint(-span, span)) for _ in range(m)] for _ in range(m)]
        if leibniz_det(h) != 0:
            return h


def reflection_matrix(gram, v):
    m = len(gram)
    gv = [sum(gram[i][j] * v[j] for j in range(m)) for i in range(m)]
    q = sum(v[i] * gv[i] for i in range(m))
    assert q != 0
    return [
        [Fraction(1 if i == j else 0) - 2 * v[i] * gv[j] / q for j in range(m)]
        for i in range(m)
    ]


def rand_so(rng, gram, reflections=4):
    m = len(gram)
    out = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    count = 0
    while count < 2 * (reflections // 2):
        v = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
        gv = [sum(gram[i][j] * v[j] for j in range(m)) for i in range(m)]
        if sum(v[i] * gv[i] for i in range(m)) == 0:
            continue
        out = mat_mul(out, reflection_matrix(gram, v))
        count += 1
    return out


def test_spinor_norm_identity():
    g = [[1, 0], [0, 1]]
    assert spinor_norm_rational(g, w_gram(2)) == 1
    assert spinor_norm(g, P3).is_trivial


def test_spinor_norm_so2():
    # diag(t, 1/t) in SO_2 for the antidiagonal form: class of t
    for t in [2, 3, 5, 7, 10, Fraction(1, 3), Fraction(4, 5), -2, 6, 15,
              11, 13, Fraction(9, 2), 21, 30, 33, Fraction(25, 7), 14, 22, 35]:
        g = [[Fraction(t), 0], [0, 1 / Fraction(t)]]
        s = spinor_norm_rational(g, w_gram(2))
        num = Fraction(t)
        assert s == squarefree_part(num.numerator * num.denominator)


def test_spinor_norm_siegel_block():
    rng = random.Random(51)
    for _ in range(100):
        m = rng.choice([1, 2, 3])
        h = rand_gl(rng, m)
        g = siegel(h)
        d = leibniz_det(h)
        expected = squarefree_part(d.numerator * d.denominator)
        assert spinor_norm_rational(g, w_gram(2 * m)) == expected


def test_spinor_norm_multiplicative():
    rng = random.Random(52)
    gram = w_gram(3)
    for _ in range(200):
        g1 = rand_so(rng, gram)
        g2 = rand_so(rng, gram)
        s12 = spinor_norm_rational(mat_mul(g1, g2), gram)
        s1 = spinor_norm_rational(g1, gram)
        s2 = spinor_norm_rational(g2, gram)
        prod = s1 * s2
        assert s12 == squarefree_part(prod.numerator * prod.denominator)


def test_spinor_norm_rejects():
    with pytest.raises(PrasadError, match="does not preserve the form"):
        spinor_norm_rational([[2, 0], [0, 1]], w_gram(2))  # not an isometry (det 2)
    refl = reflection_matrix(w_gram(2), [Fraction(1), Fraction(1)])
    with pytest.raises(PrasadError, match="special orthogonal group"):
        spinor_norm_rational(refl, w_gram(2))  # det -1: one reflection


def test_wsn_basic():
    K = BiquadField(-1)
    # det = 1: trivial class
    g = Mat.identity(K, 2)
    assert wsn(g).value == K.one
    # a generic unitary diag(z, sigma(z)^{-1}) for the antidiagonal form
    z = K.element(1) + K.sqrt_a
    gm = Mat.diagonal(K, [z, z.sigma().inverse()])
    det = gm.det()
    assert (det * det.sigma()).rational == 1
    got = wsn(gm)
    assert (got.value / got.value.sigma() - det).is_zero


def test_wsn_minus_one_branch():
    K = BiquadField(-1)
    # diag(sqrt d, sigma(sqrt d)^{-1}) has determinant -1
    g = Mat.diagonal(K, [K.sqrt_a, K.sqrt_a.sigma().inverse()])
    assert g.det() == K.element(-1)
    got = wsn(g)
    assert got.value == K.sqrt_a


def test_wsn_determinant_off_the_norm_one_group():
    # every matrix preserves the zero gram, so the determinant check is the one that fires
    K = BiquadField(-1)
    g = Mat.diagonal(K, [K.element(2), K.one])
    with pytest.raises(PrasadError, match="norm one"):
        wsn(g, [[0, 0], [0, 0]])


def rand_unitary(rng, K, m):
    g = Mat.identity(K, m)
    for _ in range(3):
        z = K.element(rng.randint(-2, 2), rng.randint(-2, 2))
        if z.is_zero:
            continue
        blocks = [z] + [K.one] * (m - 2) + [z.sigma().inverse()]
        g = g * Mat.diagonal(K, blocks)
        if rng.random() < 0.5:
            g = g * Mat.antidiag_ones(K, m)
    return g


def test_wsn_random_unitary():
    rng = random.Random(54)
    K = BiquadField(-1)
    for _ in range(50):
        g = rand_unitary(rng, K, 3)
        got = wsn(g)
        assert (got.value / got.value.sigma() - g.det()).is_zero


def test_prasad_character_rows():
    assert prasad_character(GroupDescriptor(Family.GL, 3), E3) == CharacterFormula("det", 2, "E/F")
    assert prasad_character(GroupDescriptor(Family.GL, 2), E3) == CharacterFormula("det", 1, "E/F")
    assert prasad_character(GroupDescriptor(Family.SP, 4), E3) == CharacterFormula("trivial")
    assert prasad_character(GroupDescriptor(Family.U, 2, k_gen=-1), E3) == CharacterFormula("trivial")
    assert prasad_character(GroupDescriptor(Family.U, 2, k_gen=3), E3) == CharacterFormula("wsn", 1, "EK/K")
    assert prasad_character(GroupDescriptor(Family.SO, 5, so_kernel=(1,)), E3) == CharacterFormula("sn", 1, "E/F")
    assert prasad_character(GroupDescriptor(Family.SO, 4), E3) == CharacterFormula("trivial")
    assert prasad_character(GroupDescriptor(Family.SO, 4, so_kernel=(1, 1)), E3) == CharacterFormula(
        "sn", 2, "E/F"
    )
    # the even-kernel row is trivial as a character even though the symbolic
    # exponent is 2
    assert prasad_character(GroupDescriptor(Family.SO, 4, so_kernel=(1, 1)), E3).is_trivial
    with pytest.raises(PrasadError):
        prasad_character(GroupDescriptor(Family.SO, 6, so_kernel=(1, 1, 1, 1)), E3)


def test_characters_are_quadratic():
    rng = random.Random(55)
    # SO(5): values repeat squares trivially
    Y = GroupDescriptor(Family.SO, 5, so_kernel=(1,))
    gram = so_form_gram(Y)
    formula = prasad_character(Y, E3)
    for _ in range(40):
        g = rand_so(rng, gram)
        v = evaluate_character(formula, g, E3, gram)
        assert v in (1, -1)
        g2 = mat_mul(g, g)
        assert evaluate_character(formula, g2, E3, gram) == 1
    # GL(2): eta(det)^1 squared trivial
    Ygl = GroupDescriptor(Family.GL, 2)
    fgl = prasad_character(Ygl, E3)
    for _ in range(30):
        h = rand_gl(rng, 2)
        assert evaluate_character(fgl, mat_mul(h, h), E3) == 1
    # U(2, K/F) with K != E
    Yu = GroupDescriptor(Family.U, 2, k_gen=3)
    fu = prasad_character(Yu, E3)
    K = BiquadField(3)
    for _ in range(30):
        g = rand_unitary(rng, K, 2)
        assert evaluate_character(fu, g * g, E3) == 1


def test_character_sn_evaluation_matches_eta_sn():
    rng = random.Random(56)
    Y = GroupDescriptor(Family.SO, 5, so_kernel=(1,))
    gram = so_form_gram(Y)
    formula = prasad_character(Y, E3)
    for _ in range(20):
        g = rand_so(rng, gram)
        v = evaluate_character(formula, g, E3, gram)
        assert v == hilbert_rational(spinor_norm_rational(g, gram), -1, P3)


def test_eta_on_k_class_well_defined():
    # rational scaling does not change the value: the base field sits inside
    # the norms from the compositum
    K = BiquadField(3)
    z = K.element(2) + K.sqrt_a
    for f in (1, 2, 5, -3):
        a = KClassElement.of(z)
        b = KClassElement.of(z * f)
        assert eta_on_k_class(a, -1, P3) == eta_on_k_class(b, -1, P3)


def test_opposition_group_table():
    assert opposition_group(GroupDescriptor(Family.GL, 4), -1) == GroupDescriptor(
        Family.U, 4, k_gen=-1
    )
    assert opposition_group(GroupDescriptor(Family.SP, 4), -1) == GroupDescriptor(Family.SP, 4)
    so = GroupDescriptor(Family.SO, 5, so_kernel=(1,))
    assert opposition_group(so, -1) == so
    # U over a third extension: K' generated by the squarefree part of ab
    u = GroupDescriptor(Family.U, 2, k_gen=3)
    assert opposition_group(u, -1) == GroupDescriptor(Family.U, 2, k_gen=-3)
    # U over E itself goes back to GL
    assert opposition_group(GroupDescriptor(Family.U, 3, k_gen=-1), -1) == GroupDescriptor(
        Family.GL, 3
    )


def test_opposition_is_involution():
    for Y in [
        GroupDescriptor(Family.GL, 3),
        GroupDescriptor(Family.SP, 6),
        GroupDescriptor(Family.SO, 4),
        GroupDescriptor(Family.SO, 5, so_kernel=(1,)),
        GroupDescriptor(Family.U, 2, k_gen=3),
        GroupDescriptor(Family.U, 2, k_gen=-1),
    ]:
        twice = opposition_group(opposition_group(Y, -1), -1)
        assert twice == Y


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(1) == 1
    with pytest.raises(PrasadError):
        squarefree_part(0)


def test_squarefree_part_square_cofactor_above_trial_limit():
    # 1000003, 1000033 and 1000037 are primes above the trial-division limit;
    # below 10^18 a non-square cofactor such as their product p q is
    # squarefree, and at 10^18 or more one that is not proven prime is refused
    assert squarefree_part(3 * 1000003**2) == 3
    assert squarefree_part(-2 * (1000003 * 1000033) ** 2) == -2
    assert squarefree_part(1000003 * 1000033) == 1000036000099
    with pytest.raises(LocalFieldError, match="cofactor 1000073001431003663 .* too large to certify"):
        squarefree_part(1000003 * 1000033 * 1000037)


@pytest.mark.parametrize("t", [Fraction(3 * 1000003**2), Fraction(3, 1000003**2)])
def test_spinor_norm_with_a_large_square_factor(t):
    g = [[t, 0, 0], [0, 1, 0], [0, 0, 1 / t]]
    assert spinor_norm_rational(g) == 3
