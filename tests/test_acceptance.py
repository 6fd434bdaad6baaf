"""The release gate: one test per acceptance criterion, each printing a
PASS line with its scale.  Run with `pytest -s tests/test_acceptance.py`
to see the lines."""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from localsym import distinction, forms, invgraph, localfield, numfield, prasad, symspace, weyl
from localsym.forms import Case, DiagForm
from localsym.localfield import Prime, hilbert_oracle, hilbert_rational, reduce
from localsym.numfield import (
    BiquadField,
    Mat,
    in_isometry_group,
    in_symmetric_space,
    recover_hilbert90_matrix,
)
from localsym.symspace import ClassicalPair, Component, classify_x, jn_mat, orbit_count_X
from localsym.weyl import Composition, SignedInvolution, enumerate_involutions

from conftest import BIQ_3, BIQ_5, P2, P3, P5, QUAD_M3, leibniz_det, make_pair, mat_mul

# covers the named set {+-1, +-2, +-3, +-5, +-7, +-10} and pads to the
# stated 784 = 28^2 checks per prime
GRID_VALUES = tuple(s * v for v in range(1, 15) for s in (1, -1))


def _ok(n, msg):
    print(f"[acceptance] criterion {n}: PASS — {msg}")


def test_ac01_hilbert_formula_vs_oracle():
    start = time.perf_counter()
    checks = 0
    for p in (2, 3, 5, 7):
        prime = Prime(p)
        for a in GRID_VALUES:
            for b in GRID_VALUES:
                assert hilbert_rational(a, b, prime) == hilbert_oracle(a, b, prime), (a, b, p)
                checks += 1
    elapsed = time.perf_counter() - start
    assert checks == 4 * len(GRID_VALUES) ** 2
    assert elapsed < 10, f"oracle comparison took {elapsed:.1f}s"
    _ok(1, f"{checks} symbol comparisons across p in {{2,3,5,7}} in {elapsed:.1f}s")


def test_ac02_hilbert_reciprocity():
    rng = random.Random(92)
    for _ in range(1000):
        a = Fraction(rng.randint(1, 100), rng.randint(1, 100)) * rng.choice([1, -1])
        b = Fraction(rng.randint(1, 100), rng.randint(1, 100)) * rng.choice([1, -1])
        report = localfield.reciprocity_check(a, b)
        assert report.ok, (a, b, report)
    _ok(2, "product formula holds on 1000 random rational pairs")


def _unimodular(rng, n):
    # a product of elementary transvections and permutation swaps
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-2, 2))
        for r in range(n):
            m[r][j] += c * m[r][i]
        if rng.random() < 0.3:
            for r in range(n):
                m[r][i], m[r][j] = m[r][j], m[r][i]
    return m


def test_ac03_hasse_congruence_invariance():
    start = time.perf_counter()
    rng = random.Random(93)
    primes = (P2, P3, P5)
    done = 0
    while done < 200:
        n = rng.choice([3, 4])
        g = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                g[i][j] = g[j][i]
        try:
            entries, _ = forms.congruent_diagonal(g)
        except forms.FormsError:
            continue
        base = {
            p: forms.invariants(DiagForm(Case.ORTHOGONAL, p, entries)) for p in primes
        }
        for _ in range(5):
            u = _unimodular(rng, n)
            ut = [list(r) for r in zip(*u)]
            gu = mat_mul(mat_mul(ut, g), u)
            entries2, _ = forms.congruent_diagonal(gu)
            for p in primes:
                assert forms.invariants(DiagForm(Case.ORTHOGONAL, p, entries2)) == base[p]
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"congruence invariance took {elapsed:.1f}s"
    _ok(3, f"200 matrices x 5 congruences, invariants stable at p in {{2,3,5}} in {elapsed:.1f}s")


def test_ac04_orbit_count_conformance():
    from itertools import combinations_with_replacement

    # quoted count rules
    assert forms.orbit_count(Case.SYMPLECTIC, 6) == 1
    assert forms.orbit_count(Case.UNITARY, 3) == 2
    for p in (P3, P5):
        assert forms.orbit_count(Case.ORTHOGONAL, 2, reduce(-1, p)) == 1
        assert forms.orbit_count(Case.ORTHOGONAL, 3, reduce(2, p)) == 2
    # exhaustive enumeration of realizable invariant tuples
    for p, maxrank in ((P3, 4), (P5, 4), (P2, 3)):
        reps = localfield.square_class_reps(p)
        for n in range(1, maxrank + 1):
            seen = {}
            for combo in combinations_with_replacement(reps, n):
                inv = forms.invariants(DiagForm(Case.ORTHOGONAL, p, combo))
                seen.setdefault(inv.disc, set()).add(inv.hasse)
            for disc, hasses in seen.items():
                assert len(hasses) == forms.orbit_count(Case.ORTHOGONAL, n, disc)
    # symmetric-space counts against the same enumeration, per component
    pairs = [
        make_pair(Case.SYMPLECTIC, 0, (), 2),
        make_pair(Case.UNITARY, 0, (), 1),
        make_pair(Case.UNITARY, 1, (1,), 1),
        make_pair(Case.ORTHOGONAL, 0, (), 1),
        make_pair(Case.ORTHOGONAL, 0, (), 2),
        make_pair(Case.ORTHOGONAL, 1, (1,), 1),
        make_pair(Case.ORTHOGONAL, 2, (1, 1), 1),
        ClassicalPair(Case.ORTHOGONAL, 1, (Fraction(1),), 1, P5, BiquadField(2)),
        ClassicalPair(Case.ORTHOGONAL, 0, (), 2, P5, BiquadField(2)),
        ClassicalPair(Case.ORTHOGONAL, 1, (Fraction(3),), 1, P2, BiquadField(-1)),
        # rank 2 at p = 2: X-SX has discriminant -1, so its Hasse sign is forced
        ClassicalPair(Case.ORTHOGONAL, 2, (Fraction(1), Fraction(1)), 0, P2, BiquadField(-1)),
    ]
    for pair in pairs:
        assert orbit_count_X(pair, Component.FULL) == orbit_count_X(
            pair, Component.IDENTITY
        ) + orbit_count_X(pair, Component.COMPLEMENT) if pair.case is Case.ORTHOGONAL else True
        if pair.case is Case.SYMPLECTIC:
            assert orbit_count_X(pair) == 1
            continue
        if pair.case is Case.UNITARY:
            assert orbit_count_X(pair) == 2
            continue
        if pair.N > 4:
            continue
        reps = localfield.square_class_reps(pair.prime)
        base = reduce(symspace.det_jn(pair), pair.prime)
        acls = reduce(pair.field.a, pair.prime)
        buckets = {base: set(), base * acls: set()}
        for combo in combinations_with_replacement(reps, pair.N):
            inv = forms.invariants(DiagForm(Case.ORTHOGONAL, pair.prime, combo))
            if inv.disc in buckets:
                buckets[inv.disc].add(inv.hasse)
        assert len(buckets[base]) == orbit_count_X(pair, Component.IDENTITY), pair
        assert len(buckets[base * acls]) == orbit_count_X(pair, Component.COMPLEMENT), pair
        for component, disc in ((Component.IDENTITY, base), (Component.COMPLEMENT, base * acls)):
            table = symspace.component_orbits(pair, component)
            assert {o.hasse for o in table} == buckets[disc], (pair, component)
            assert {o.partial for o in table} == {disc}, (pair, component)
    _ok(4, "count rules match exhaustive enumeration of realizable invariants")


def test_ac05_involution_enumeration_brute_force():
    import math

    total = 0
    for k in range(1, 6):
        for parts in [(1,) * k, (2,) + (1,) * (k - 1), tuple(2 - (i % 2) for i in range(k))]:
            comp = Composition(parts, 0)
            for circ in (False, True):
                brute = set()
                count_all = 0
                for rho in itertools.permutations(range(k)):
                    for csize in range(k + 1):
                        for cs in itertools.combinations(range(k), csize):
                            count_all += 1
                            w = weyl.SignedPerm(rho, frozenset(cs))
                            if not (w * w).is_identity:
                                continue
                            if any(parts[rho[i]] != parts[i] for i in range(k)):
                                continue
                            inv = SignedInvolution(rho, frozenset(cs))
                            if circ and inv.o(comp) % 2:
                                continue
                            brute.add(inv)
                assert count_all == math.factorial(k) * 2 ** k
                mine = set(enumerate_involutions(comp, circ))
                assert mine == brute, (parts, circ)
                total += len(mine)
    _ok(5, f"enumeration equals brute force over all signed permutations up to k=5 ({total} involutions checked)")


def _grid(pair):
    out = []
    for k in (1, 2):
        for parts in itertools.product((1, 2), repeat=k):
            r = pair.n - sum(parts)
            if r < 0:
                continue
            if pair.split_even_orthogonal and r == 1:
                continue
            if pair.split_even_orthogonal and r == 0 and parts[-1] != 1:
                out.append(Composition(parts, r, split_even_sign=1))
                out.append(Composition(parts, r, split_even_sign=-1))
            else:
                out.append(Composition(parts, r))
    return out


def test_ac06_representative_identities(bundled_pairs):
    start = time.perf_counter()
    rng = random.Random(96)
    t_checked = x_checked = conj_checked = 0
    for pair in bundled_pairs:
        jn = jn_mat(pair)
        for comp in _grid(pair):
            circ = pair.split_even_orthogonal and comp.r == 0
            for w in enumerate_involutions(comp, circ):
                t = weyl.build_tw(comp, w, pair)
                assert t.sigma() == t
                assert in_isometry_group(t, jn, pair.eps)
                assert t * t == weyl.t_w_square_pattern(comp, w, pair)
                t_checked += 1
                if comp.split_even_sign != -1:
                    field = pair.field
                    blocks = []
                    for size in comp.parts:
                        while True:
                            g = Mat(field, [[field.element(rng.randint(-2, 2), rng.randint(-1, 1))
                                             for _ in range(size)] for _ in range(size)])
                            if not g.det().is_zero:
                                break
                        blocks.append(g)
                    h = Mat.identity(field, pair.n0 + 2 * comp.r)
                    m = weyl.iota(pair, comp, blocks, h)
                    conj = t * m * t.inv()
                    expected = [
                        weyl.gl_star(blocks[w.rho[i]]) if i in w.c else blocks[w.rho[i]]
                        for i in range(comp.k)
                    ]
                    eta = symspace.eta_m_mat(pair, comp.r)
                    hp = (eta * h * eta.inv()) if w.o(comp) % 2 else h
                    assert conj == weyl.iota(pair, comp, expected, hp)
                    conj_checked += 1
                for z_inv, _ in weyl.inner_z_choices(comp, w, pair):
                    iw = sorted(w.fixed_in_c)
                    for bits in itertools.product((0, 1), repeat=len(iw)):
                        x, _ = weyl.build_xw(comp, w, dict(zip(iw, bits)), z_inv, pair)
                        assert in_symmetric_space(x, jn, pair.eps)
                        x_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"representative identities took {elapsed:.1f}s"
    _ok(6, f"{t_checked} t_w identities, {conj_checked} conjugation patterns, "
           f"{x_checked} x_w memberships in {elapsed:.1f}s")


def test_ac07_admissible_orbit_formula(bundled_pairs):
    checked = 0
    for pair in bundled_pairs:
        for comp in _grid(pair):
            circ = pair.split_even_orthogonal and comp.r == 0
            for w in enumerate_involutions(comp, circ):
                choices = weyl.inner_z_choices(comp, w, pair)
                # distinct admissible representatives: hermitian bit tuples
                # times inner orbits, all realized by build_xw
                labels = set()
                iw = sorted(w.fixed_in_c)
                for z_inv, _ in choices:
                    for bits in itertools.product((0, 1), repeat=len(iw)):
                        weyl.build_xw(comp, w, dict(zip(iw, bits)), z_inv, pair)
                        labels.add((bits, z_inv))
                assert len(labels) == weyl.admissible_orbit_count(comp, w, pair), (pair.case, comp, w)
                checked += 1
    _ok(7, f"2^|I(w)| x the number of admissible inner orbits matches the admissible "
           f"representative count for {checked} (comp, w) cells")


def test_ac08_distinction_end_to_end(bundled_pairs):
    from test_distinction import random_datum, small_grid

    rng = random.Random(98)
    witnesses = 0
    for pair in bundled_pairs:
        for comp in small_grid(pair):
            for _ in range(3):
                data = random_datum(rng, pair, comp)
                for target in symspace.realizable_targets(pair):
                    verdict = distinction.decide(pair, comp, data, target)
                    if not verdict.distinguished:
                        continue
                    wt = verdict.witness
                    x, inv = weyl.build_xw(comp, wt.w, dict(wt.y_bits), wt.z_orbit, pair)
                    z = recover_hilbert90_matrix(x)
                    assert inv == target
                    assert classify_x(x, z, pair) == target
                    assert distinction.necessary_condition(data, wt.w)
                    witnesses += 1
    assert witnesses >= 25
    _ok(8, f"{witnesses} witnesses verified by exact classification and the necessary condition")


# the 123 coordinates n/d that ac09 draws, built once: the same rng calls
# pick the same values as building Fraction(n, d) per draw
AC09_COORDS = {(n, d): Fraction(n, d) for n in range(-20, 21) for d in (1, 2, 3)}


def test_ac09_cone_recursion():
    start = time.perf_counter()
    rng = random.Random(99)
    edges = 0
    points_per_edge = 1000
    for conv in (invgraph.Convention(False), invgraph.Convention(True)):
        for k in range(1, 5):
            comp = Composition((1,) * k, 0)
            for w in enumerate_involutions(comp):
                v = invgraph.Vertex(comp, w)
                theta = invgraph.ThetaAction.from_involution(w)
                for idx, alpha in invgraph.eligible_simple_roots(v, conv):
                    target = invgraph.apply_symmetry(v, idx)
                    theta1 = invgraph.ThetaAction.from_involution(target.w)
                    for _ in range(points_per_edge):
                        lam = tuple(
                            AC09_COORDS[rng.randint(-20, 20), rng.choice([1, 1, 2, 3])]
                            for _ in range(k)
                        )
                        if rng.random() < 0.7:
                            lam = theta.anti_invariant_part(lam)
                        c = rng.choice([0, 1, Fraction(1, 2), 2])
                        lhs = invgraph.cone_contains(theta, lam, c, conv)
                        moved = invgraph.s_alpha_on_vector(k, idx, lam)
                        rhs = (
                            invgraph.cone_contains(theta1, moved, c, conv)
                            and invgraph.coroot_pairing(lam, alpha) > Fraction(c)
                        )
                        assert lhs == rhs, (conv, w, idx, lam, c)
                    edges += 1
    elapsed = time.perf_counter() - start
    _ok(9, f"recursion identity on {edges} edges x {points_per_edge} points (k <= 4) in {elapsed:.1f}s")


def test_ac10_descent_termination():
    vertices = 0
    for conv in (invgraph.Convention(False), invgraph.Convention(True)):
        for k in range(1, 5):
            for parts in itertools.product((1, 2), repeat=k):
                for r in (0, 1):
                    comp = Composition(parts, r)
                    bound = len(invgraph.positive_roots(k, conv))
                    for w in enumerate_involutions(comp):
                        path, terminal = invgraph.descend(invgraph.Vertex(comp, w), conv)
                        assert len(path) <= bound
                        assert invgraph.is_terminal(terminal, conv)
                        vertices += 1
    _ok(10, f"descent halts within the positive-root bound from {vertices} vertices")


def test_ac11_spinor_norm_laws():
    from test_prasad import rand_gl, rand_so, siegel

    rng = random.Random(911)
    for _ in range(100):
        m = rng.choice([1, 2, 3])
        h = rand_gl(rng, m)
        d = leibniz_det(h)
        assert prasad.spinor_norm_rational(siegel(h), prasad.w_gram(2 * m)) == prasad.squarefree_part(
            d.numerator * d.denominator
        )
    count = 0
    for t in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 22, 26, 30, 33, 34, 35, 38, 39, 42):
        g = [[Fraction(t), 0], [0, Fraction(1, t)]]
        assert prasad.spinor_norm_rational(g, prasad.w_gram(2)) == prasad.squarefree_part(t)
        count += 1
    assert count == 20
    gram = prasad.w_gram(3)
    for _ in range(200):
        g1, g2 = rand_so(rng, gram), rand_so(rng, gram)
        s = prasad.spinor_norm_rational(mat_mul(g1, g2), gram)
        prod = prasad.spinor_norm_rational(g1, gram) * prasad.spinor_norm_rational(g2, gram)
        assert s == prasad.squarefree_part(prod.numerator * prod.denominator)
    _ok(11, "block-determinant law (100), torus law (20) and multiplicativity (200) hold exactly")


def test_ac12_prasad_table_golden():
    golden = json.loads((Path(__file__).parent / "golden" / "prasad_table.json").read_text())
    ext = localfield.QuadExtension.of(golden["ext"]["d"], Prime(golden["ext"]["p"]))
    for row in golden["rows"]:
        group = prasad.GroupDescriptor.from_json(row["group"])
        formula = prasad.prasad_character(group, ext)
        assert formula.to_json() == row["omega"], row["group"]
        assert formula.is_trivial == row["trivial_as_character"], row["group"]
        op = prasad.opposition_group(group, golden["ext"]["d"])
        assert op.to_json() == row["opposition"], row["group"]
    assert len(golden["rows"]) == 11
    _ok(12, "all 11 golden table rows reproduced, including the always-trivial unitary row")
