"""Signed involutions and the block-matrix representatives they label.

Each involution rho.c compatible with a block composition produces an
explicit matrix t_w; together with hermitian blocks and an inner-orbit
choice it produces the admissible-orbit representative x_w, whose orbit
invariant has a closed formula verified here against exact
classification.
"""

import itertools

from localsym.forms import Case
from localsym.localfield import Prime
from localsym.numfield import BiquadField, in_symmetric_space, recover_hilbert90_matrix
from localsym.symspace import ClassicalPair, classify_x, jn_mat
from localsym.weyl import (
    Composition,
    admissible_orbit_count,
    build_tw,
    build_xw,
    enumerate_involutions,
    inner_z_choices,
    stabilizer_shape,
)

pair = ClassicalPair(Case.UNITARY, 1, (1,), 2, Prime(3), BiquadField(-1, 3))
comp = Composition((1, 1), 0)
print(f"pair: unitary, kernel diag(1), N = {pair.N}; composition {comp.parts} with r = {comp.r}")

ws = enumerate_involutions(comp)
print(f"compatible involutions: {len(ws)}")
for w in ws:
    print(f"  rho = {tuple(i + 1 for i in w.rho)}, sign set {sorted(i + 1 for i in w.c)}, "
          f"admissible orbits = {admissible_orbit_count(comp, w, pair)}")
print()

from localsym.weyl import t_w_square_pattern

w = ws[-1]
print(f"take w with sign set {sorted(i + 1 for i in w.c)}:")
t = build_tw(comp, w, pair)
print(f"  t_w is fixed by the bar involution: {t.sigma() == t}")
print(f"  t_w^2 is the expected central pattern: {t * t == t_w_square_pattern(comp, w, pair)}")

for z_inv, _ in inner_z_choices(comp, w, pair):
    iw = sorted(w.fixed_in_c)
    for bits in itertools.product((0, 1), repeat=len(iw)):
        y_bits = dict(zip(iw, bits))
        x, inv = build_xw(comp, w, y_bits, z_inv, pair)
        z = recover_hilbert90_matrix(x)
        ok = in_symmetric_space(x, jn_mat(pair), pair.eps)
        exact = classify_x(x, z, pair)
        print(f"  bits {bits}, inner {z_inv.to_json()}: x_w in X: {ok}, "
              f"formula == exact classification: {exact == inv}")
print()

shape = stabilizer_shape(comp, w, {i: 0 for i in sorted(w.fixed_in_c)},
                         inner_z_choices(comp, w, pair)[0][0])
print("stabilizer factors:", [f.to_json() for f in shape.factors])
