"""The four benchmark workloads: seeded inputs, the timed query, and the
oracle that checks each answer outside the timed region.

Every workload is a Workload with

- ``__init__(work_dir)``: build the query population.  Populations are
  drawn from the fixed POPULATION_SEED, so every run of a workload answers
  the same queries; the run's ``--seed`` only sets the order;
- ``write_inputs()``: write the files the queries read under work_dir
  (only ``verdicts`` has any: the CLI input files);
- ``queries``: the population, a list;
- ``trace_queries``: how many of them the traced run answers (None: all);
- ``run(q)``: answer one query through the library's public functions;
- ``check(q, answer)``: ``None`` if the answer is right, else a reason.

The library is always reached through its module attributes
(``distinction.decide``, never a local alias), so the traced run sees every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from localsym import cli, distinction, forms, invgraph, localfield, numfield, prasad, symspace, weyl

Case = forms.Case
Prime = localfield.Prime
BiquadField = numfield.BiquadField
ClassicalPair = symspace.ClassicalPair
Composition = weyl.Composition

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PRASAD = ROOT / "tests" / "golden" / "prasad_table.json"
POPULATION_SEED = 2102


# ---------------------------------------------------------------------------
# shared input generators


def bundled_pairs():
    """The 20 small-grid pairs of the test suite's bundled fixture."""
    p2, p3, p5 = Prime(2), Prime(3), Prime(5)
    quad_m3, biq_3 = BiquadField(-1), BiquadField(-1, 3)
    orth, symp, unit = Case.ORTHOGONAL, Case.SYMPLECTIC, Case.UNITARY

    def at3(case, n0, j, n):
        return ClassicalPair(case, n0, j, n, p3, biq_3 if case is unit else quad_m3)

    return [
        at3(symp, 0, (), 1), at3(symp, 0, (), 2), at3(symp, 0, (), 3),
        at3(orth, 0, (), 1), at3(orth, 0, (), 2), at3(orth, 0, (), 3),
        at3(orth, 1, (1,), 1), at3(orth, 1, (1,), 2),
        at3(orth, 2, (1, 1), 1), at3(orth, 2, (1, 1), 2),
        at3(unit, 0, (), 1), at3(unit, 0, (), 2),
        at3(unit, 1, (1,), 1), at3(unit, 1, (1,), 2),
        at3(unit, 2, (1, 1), 1),
        ClassicalPair(orth, 1, (1,), 1, p2, BiquadField(-1)),
        ClassicalPair(orth, 0, (), 2, p5, BiquadField(2)),
        ClassicalPair(symp, 0, (), 1, p2, BiquadField(-1)),
        ClassicalPair(unit, 0, (), 1, p2, BiquadField(-1, 2)),
        ClassicalPair(unit, 1, (1,), 1, p5, BiquadField(2, 5)),
    ]


SWEEP_PRIMES = (5, 7, 11, 13, 211)


def sweep_pairs():
    """Split orthogonal (N = 4, 6) and symplectic (N = 4) pairs at each
    sweep prime, over a ramified (a = p) and an unramified (a = least
    non-residue) model.  Includes the orthogonal n = 3, p = 5, a = 2 pair
    whose witnesses build_xw cannot realize."""
    out = []
    for p in SWEEP_PRIMES:
        prime = Prime(p)
        for a in (p, prime.nonresidue):
            field = BiquadField(a)
            out.append(ClassicalPair(Case.ORTHOGONAL, 0, (), 2, prime, field))
            out.append(ClassicalPair(Case.ORTHOGONAL, 0, (), 3, prime, field))
            out.append(ClassicalPair(Case.SYMPLECTIC, 0, (), 2, prime, field))
    return out


def small_grid(pair):
    """Compositions with at most two blocks of size at most two."""
    out = []
    for parts in [(1,), (2,), (1, 1), (1, 2), (2, 2)]:
        r = pair.n - sum(parts)
        if r < 0 or (pair.split_even_orthogonal and r == 1):
            continue
        if pair.split_even_orthogonal and r == 0 and parts[-1] != 1:
            out.append(Composition(parts, r, split_even_sign=1))
            out.append(Composition(parts, r, split_even_sign=-1))
        else:
            out.append(Composition(parts, r))
    return out


def all_pi0(pair, comp):
    """Every admissible inner orbit, flagged as distinguished."""
    out = []
    circ = pair.split_even_orthogonal and comp.r == 0
    for w in weyl.enumerate_involutions(comp, circ):
        for inv in distinction.inner_orbit_invariants(comp, w, pair):
            if inv not in out:
                out.append(inv)
    return tuple(out)


def random_datum(rng, pair, comp, density, pi0):
    """Relations and flags, each present with probability `density`."""
    k = comp.k
    conj, st, lin, uni = set(), set(), set(), set()
    for i in range(k):
        for j in range(i, k):
            if comp.parts[i] != comp.parts[j]:
                continue
            if rng.random() < density:
                conj.add((i, j))
            if rng.random() < density:
                st.add((i, j))
        if rng.random() < density:
            lin.add(i)
        for b in (0, 1):
            if rng.random() < density:
                uni.add((i, b))
    return distinction.CuspidalDatum.build(
        [f"pi{i}" for i in range(k)], conj, st, lin, uni, pi0_dist=pi0
    )


def _rows_hold(comp, w, data):
    """The condition rows of a witness involution, from their definition:
    a sign-set pair needs a sigma-tau relation, a fixed sign-set label a
    hermitian-distinction flag, any other pair a conjugate-dual relation
    and any other fixed label a linear-distinction flag."""
    for i in range(comp.k):
        j = w.rho[i]
        if i in w.c:
            ok = bool(data.unitary_bits(i)) if j == i else frozenset({i, j}) in data.sigma_tau
        else:
            ok = i in data.linear_dist if j == i else frozenset({i, j}) in data.conj_dual
        if not ok:
            return False
    return True


def check_undistinguished(pair, comp, data, target, failure_log):
    """None if an undistinguished verdict holds: the failure log has an
    entry for every compatible involution, and no involution passes the
    rows with hermitian bits and a pi0-flagged inner orbit that land on
    the target.  Otherwise the reason it does not."""
    circ = pair.split_even_orthogonal and comp.r == 0
    sub = pair.sub_pair(comp.r)
    logged = {entry.split("}: ", 1)[0] + "}" for entry in failure_log}
    for w in weyl.enumerate_involutions(comp, circ):
        tag = f"w={w.to_json()}"
        if tag not in logged:
            return f"failure log has no entry for {tag}"
        if not _rows_hold(comp, w, data):
            continue
        iw = sorted(w.fixed_in_c)
        for bits in itertools.product(*(data.unitary_bits(i) for i in iw)):
            for z_inv in distinction.inner_orbit_invariants(comp, w, pair):
                if sub is not None and z_inv not in data.pi0_dist:
                    continue
                if weyl.predicted_orbit_invariant(comp, w, dict(zip(iw, bits)), z_inv, pair) == target:
                    return f"undistinguished, but {tag} with bits {bits} is a witness"
    return None


def _rat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _rat_det(a):
    """Determinant by fraction Gaussian elimination (input generation only)."""
    m = [list(map(Fraction, r)) for r in a]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def _transpose(a):
    return [list(r) for r in zip(*a)]


class Workload:
    trace_queries = None

    def write_inputs(self):
        """Write the files the queries read; most workloads read none."""


# ---------------------------------------------------------------------------
# certify: decide, then build and certify the witness


class Certify(Workload):
    """decide -> build_xw -> recover_hilbert90_matrix -> classify_x.

    Each query asks for one realizable target orbit of one cuspidal datum.
    A distinguished verdict is certified by building x_w and classifying it
    exactly; an undistinguished verdict is checked by an exhaustive search
    for a witness in the oracle."""

    name = "certify"
    density = 0.6
    trace_queries = 60  # the traced run makes seven passes over its set

    def __init__(self, work_dir):
        rng = random.Random(POPULATION_SEED)
        keyed = []
        for pair in bundled_pairs() + sweep_pairs():
            group = []
            for comp in small_grid(pair):
                data = random_datum(rng, pair, comp, self.density, all_pi0(pair, comp))
                for target in symspace.realizable_targets(pair):
                    group.append((pair, comp, data, target))
            # Spread each pair's queries evenly over the list, so that the
            # traced run's prefix sees every pair in proportion.
            rng.shuffle(group)
            offset = rng.random()
            keyed += [((j + offset) / len(group), q) for j, q in enumerate(group)]
        keyed.sort(key=lambda item: item[0])
        self.queries = [q for _, q in keyed]

    def run(self, q):
        pair, comp, data, target = q
        verdict = distinction.decide(pair, comp, data, target)
        if not verdict.distinguished:
            return verdict, None, None, None
        wt = verdict.witness
        x, predicted = weyl.build_xw(comp, wt.w, dict(wt.y_bits), wt.z_orbit, pair)
        z = numfield.recover_hilbert90_matrix(x)
        return verdict, x, predicted, symspace.classify_x(x, z, pair)

    def check(self, q, answer):
        pair, comp, data, target = q
        verdict, x, predicted, got = answer
        if not verdict.distinguished:
            return check_undistinguished(pair, comp, data, target, verdict.failure_log)
        if predicted != target:
            return f"build_xw predicted {predicted}, asked for {target}"
        if got != target:
            return f"classify_x gave {got}, asked for {target}"
        if not distinction.necessary_condition(data, verdict.witness.w):
            return "witness fails the necessary condition"
        return None


# ---------------------------------------------------------------------------
# verdicts: distinguish through the CLI, no matrices


class Verdicts(Workload):
    """`distinguish` through localsym.cli.main for k = 3..5 one-blocks.

    Half the data is dense (most queries distinguished early) and half
    sparse, so that a share of queries is not distinguished and pays for
    the full enumeration and failure log."""

    name = "verdicts"
    densities = (0.5, 0.15)
    data_per_target = 16
    sample_every = 8  # about one query in eight is also checked by a direct decide

    def __init__(self, work_dir):
        rng = random.Random(POPULATION_SEED)
        out = Path(work_dir) / "verdicts"
        p3 = Prime(3)
        quad, biq = BiquadField(-1), BiquadField(-1, 3)
        self.queries = []
        self.files = {}  # path -> JSON text

        def dump(obj):
            path = out / f"{len(self.files)}.json"
            self.files[path] = json.dumps(obj)
            return str(path)

        for k in (3, 4, 5):
            cells = []
            for r in (0, 1):
                cells.append(ClassicalPair(Case.SYMPLECTIC, 0, (), k + r, p3, quad))
                cells.append(ClassicalPair(Case.ORTHOGONAL, 1, (1,), k + r, p3, quad))
                cells.append(ClassicalPair(Case.UNITARY, 0, (), k + r, p3, biq))
            cells.append(ClassicalPair(Case.ORTHOGONAL, 0, (), k, p3, quad))
            for pair in cells:
                comp = Composition((1,) * k, pair.n - k)
                pi0 = all_pi0(pair, comp)
                pair_f, comp_f = dump(pair.to_json()), dump(comp.to_json())
                for target in symspace.realizable_targets(pair):
                    target_f = dump(target.to_json())
                    for i in range(self.data_per_target):
                        data = random_datum(rng, pair, comp, self.densities[i % 2], pi0)
                        argv = ["distinguish", "--pair", pair_f, "--comp", comp_f,
                                "--data", dump(data.to_json()), "--target", target_f]
                        direct = rng.randrange(self.sample_every) == 0
                        self.queries.append((argv, pair, comp, data, target, direct))

    def write_inputs(self):
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def run(self, q):
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                cli.main(q[0])
            except SystemExit as e:
                code = e.code
        return code, buf.getvalue()

    def check(self, q, answer):
        _, pair, comp, data, target, direct = q
        code, out = answer
        if code not in (0, None):
            return f"exit code {code}"
        lines = out.splitlines()
        if len(lines) != 1:
            return f"{len(lines)} envelope lines"
        env = json.loads(lines[0])
        if env.get("command") != "distinguish":
            return "wrong envelope command"
        payload = env["payload"]
        if payload["distinguished"] != (payload["witness"] is not None):
            return "verdict and witness disagree"
        if payload["distinguished"]:
            w = weyl.SignedInvolution.from_json(payload["witness"]["w"])
            if not distinction.necessary_condition(data, w):
                return "witness fails the necessary condition"
        else:
            reason = check_undistinguished(pair, comp, data, target, payload["failure_log"])
            if reason:
                return reason
        if direct:
            if distinction.decide(pair, comp, data, target).to_json() != payload:
                return "CLI verdict differs from a direct decide"
        return None


# ---------------------------------------------------------------------------
# cones: descent and cone membership, exact rational vectors


class Cones(Workload):
    """descend from one vertex, then cone_contains for a few seeded lambda
    at that vertex.  Every vertex with k <= 4 and block sizes in {1, 2},
    plus every vertex with k = 5 one-blocks, for r in {0, 1} and both root
    conventions; 70% of the lambda are projected to be anti-invariant."""

    name = "cones"
    lambdas_per_vertex = 4

    def __init__(self, work_dir):
        rng = random.Random(POPULATION_SEED)
        self.queries = []
        shapes = [parts for k in range(1, 5) for parts in itertools.product((1, 2), repeat=k)]
        shapes.append((1,) * 5)
        for conv in (invgraph.Convention(False), invgraph.Convention(True)):
            for parts in shapes:
                for r in (0, 1):
                    comp = Composition(parts, r)
                    for w in weyl.enumerate_involutions(comp):
                        v = invgraph.Vertex(comp, w)
                        theta = invgraph.ThetaAction.from_involution(w)
                        self.queries.append((v, conv, theta, self._points(rng, theta)))

    def _points(self, rng, theta):
        points = []
        for _ in range(self.lambdas_per_vertex):
            lam = tuple(Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3])) for _ in range(theta.k))
            if rng.random() < 0.7:
                lam = theta.anti_invariant_part(lam)
            points.append((lam, rng.choice([0, 1, Fraction(1, 2), 2])))
        return tuple(points)

    def run(self, q):
        v, conv, theta, points = q
        path, terminal = invgraph.descend(v, conv)
        inside = tuple(invgraph.cone_contains(theta, lam, c, conv) for lam, c in points)
        return path, terminal, inside

    def check(self, q, answer):
        v, conv, theta, points = q
        path, terminal, inside = answer
        k = v.comp.k
        if len(path) > len(invgraph.positive_roots(k, conv)):
            return "descent longer than the positive-root bound"
        if not invgraph.is_terminal(terminal, conv):
            return "descent stopped at a non-terminal vertex"
        if (path[-1].vertex if path else v) != terminal:
            return "terminal is not the last vertex of the path"
        edges = invgraph.eligible_simple_roots(v, conv)
        walls = [
            alpha for alpha in invgraph.positive_roots(k, conv)
            if invgraph.root_sign(theta.apply(alpha)) < 0
        ]
        neighbours = [
            (idx, alpha, invgraph.ThetaAction.from_involution(invgraph.apply_symmetry(v, idx).w))
            for idx, alpha in edges
        ]
        for (lam, c), got in zip(points, inside):
            c = Fraction(c)
            anti = theta.apply(lam) == tuple(-x for x in lam)
            want = anti and all(invgraph.coroot_pairing(lam, a) > c for a in walls)
            if got != want:
                return f"cone membership {got} for lambda={lam}, c={c}"
            for idx, alpha, theta1 in neighbours:
                moved = invgraph.s_alpha_on_vector(k, idx, lam)
                rhs = (invgraph.cone_contains(theta1, moved, c, conv)
                       and invgraph.coroot_pairing(lam, alpha) > c)
                if got != rhs:
                    return f"recursion identity fails on edge {idx} for lambda={lam}, c={c}"
        return None


# ---------------------------------------------------------------------------
# tables: one row of local invariants per query


class Tables(Workload):
    """One table row: Gram-matrix invariants at five primes, Hilbert symbols
    and square classes of random rationals, a reciprocity check, spinor
    norms of two SO(3) elements, a wsn value and one Prasad character row.
    The oracle-only inputs (the unimodular congruence, from a per-row seed,
    and the product of the SO(3) elements) are made in the check, not at
    set-up."""

    name = "tables"
    primes = (2, 3, 5, 7, 11)
    rows_in_population = 200

    def __init__(self, work_dir):
        rng = random.Random(POPULATION_SEED)
        golden = json.loads(GOLDEN_PRASAD.read_text())
        self.ext_d = golden["ext"]["d"]
        self.ext = localfield.QuadExtension.of(self.ext_d, Prime(golden["ext"]["p"]))
        self.rows = golden["rows"]
        self.prime_objs = [Prime(p) for p in self.primes]
        self.so_gram = prasad.w_gram(3)
        self.k_field = BiquadField(3)
        self.queries = [self._row(rng, i) for i in range(self.rows_in_population)]

    def _rational(self, rng):
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 400), rng.randint(1, 60))

    def _gram(self, rng, n):
        while True:
            g = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
            if _rat_det(g) != 0:
                return g

    def _unimodular(self, rng, n):
        """A random integer matrix of determinant +-1, as a product of
        elementary column operations and a permutation."""
        u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-2, -1, 1, 2])
            for r in range(n):
                u[r][j] += c * u[r][i]
        perm = list(range(n))
        rng.shuffle(perm)
        return [[u[r][perm[c]] for c in range(n)] for r in range(n)]

    def _so3(self, rng):
        gram = self.so_gram
        out = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        count = 0
        while count < 4:
            v = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            gv = [sum(gram[i][j] * v[j] for j in range(3)) for i in range(3)]
            q = sum(v[i] * gv[i] for i in range(3))
            if q == 0:
                continue
            refl = [[Fraction(int(i == j)) - 2 * v[i] * gv[j] / q for j in range(3)] for i in range(3)]
            out = _rat_mul(out, refl)
            count += 1
        return out

    def _unitary(self, rng):
        field = self.k_field
        g = numfield.Mat.identity(field, 2)
        for _ in range(3):
            z = field.element(rng.randint(-2, 2), rng.randint(-2, 2))
            if z.is_zero:
                continue
            g = g * numfield.Mat.diagonal(field, [z, z.sigma().inverse()])
            if rng.random() < 0.5:
                g = g * numfield.Mat.antidiag_ones(field, 2)
        return g

    def _row(self, rng, i):
        n = rng.randint(3, 6)
        gram = self._gram(rng, n)
        return {
            "gram": gram,
            "congruence_seed": rng.getrandbits(32),
            "pairs": [(self._rational(rng), self._rational(rng)) for _ in range(4)],
            "so3": (self._so3(rng), self._so3(rng)),
            "unitary": self._unitary(rng),
            "golden": self.rows[i % len(self.rows)],
        }

    def _invariants(self, gram):
        entries, _ = forms.congruent_diagonal(gram)
        return [
            forms.invariants(forms.DiagForm(Case.ORTHOGONAL, p, entries)).to_json()
            for p in self.prime_objs
        ]

    def run(self, q):
        invs = self._invariants(q["gram"])
        symbols = [
            (localfield.hilbert_rational(a, b, p), localfield.reduce(a, p).to_json())
            for a, b in q["pairs"]
            for p in self.prime_objs
        ]
        reciprocity = [localfield.reciprocity_check(a, b) for a, b in q["pairs"]]
        norms = [prasad.spinor_norm_rational(g, self.so_gram) for g in q["so3"]]
        k_class = prasad.wsn(q["unitary"])
        group = prasad.GroupDescriptor.from_json(q["golden"]["group"])
        formula = prasad.prasad_character(group, self.ext)
        opposition = prasad.opposition_group(group, self.ext_d)
        return invs, symbols, reciprocity, norms, k_class, formula, opposition

    def check(self, q, answer):
        invs, symbols, reciprocity, norms, k_class, formula, opposition = answer
        u = self._unimodular(random.Random(q["congruence_seed"]), len(q["gram"]))
        if invs != self._invariants(_rat_mul(_rat_mul(_transpose(u), q["gram"]), u)):
            return "invariants change under a unimodular congruence"
        n_p = len(self.primes)
        for i, ((a, b), rep) in enumerate(zip(q["pairs"], reciprocity)):
            if not rep.ok:
                return f"reciprocity fails for ({a}, {b})"
            by_place = dict(rep.symbols)
            for j, p in enumerate(self.primes):
                # odd places outside the support of 2ab carry the symbol 1
                if symbols[i * n_p + j][0] != by_place.get(p, 1):
                    return f"hilbert({a}, {b}) at {p} disagrees with the reciprocity report"
        s1, s2 = norms
        s12 = prasad.spinor_norm_rational(_rat_mul(*q["so3"]), self.so_gram)
        prod = s1 * s2
        if s12 != prasad.squarefree_part(prod.numerator * prod.denominator):
            return "spinor norm is not multiplicative"
        det = q["unitary"].det()
        if not (k_class.value / k_class.value.sigma() - det).is_zero:
            return "wsn class does not recover the determinant"
        row = q["golden"]
        if formula.to_json() != row["omega"] or formula.is_trivial != row["trivial_as_character"]:
            return f"character row differs from the golden table for {row['group']}"
        if opposition.to_json() != row["opposition"]:
            return f"opposition group differs from the golden table for {row['group']}"
        return None


WORKLOADS = {w.name: w for w in (Certify, Verdicts, Cones, Tables)}
