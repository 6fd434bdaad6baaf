"""Spinor norms as the class of Wall's determinant on im(1 - g)
(Zassenhaus), the unitary determinant pullback, and the
quadratic-character table with its opposition involution.
"""

from fractions import Fraction

from localsym.localfield import Prime, QuadExtension
from localsym.numfield import BiquadField, Mat, int_echelon, int_rows
from localsym.prasad import (
    Family,
    GroupDescriptor,
    evaluate_character,
    opposition_group,
    prasad_character,
    so_form_gram,
    spinor_norm,
    spinor_norm_rational,
    w_gram,
    wsn,
)

print("spinor norm of diag(t, 1/t) in SO_2 for the antidiagonal form:")
for t in (3, 5, 12):
    g = [[Fraction(t), 0], [0, Fraction(1, t)]]
    print(f"  t = {t:>2}: sn = {spinor_norm_rational(g, w_gram(2))} "
          f"(class at 3: {spinor_norm(g, Prime(3), w_gram(2))})")
print()

g = [[Fraction(2), 0, 0, 0], [0, Fraction(3), 0, 0],
     [0, 0, Fraction(1, 3), 0], [0, 0, 0, Fraction(1, 2)]]
num, den = int_rows(g)
pivots, _ = int_echelon([[den * (i == j) - x for j, x in enumerate(r)] for i, r in enumerate(num)])
print(f"a Siegel block diag(2, 3, 1/3, 1/2) moves W = im(1 - g) of dimension r = {len(pivots)}; "
      f"Wall's determinant on W has class {spinor_norm_rational(g, w_gram(4))}, "
      f"that of the block's det 6")
print()

K = BiquadField(-1)
u = Mat.diagonal(K, [K.sqrt_a, K.sqrt_a.sigma().inverse()])
print(f"wsn of a determinant -1 unitary matrix: class of {wsn(u).value}")
print()

E = QuadExtension.of(-1, Prime(3))
print("the character table relative to E = Q_3(i):")
rows = [
    GroupDescriptor(Family.GL, 3),
    GroupDescriptor(Family.SP, 4),
    GroupDescriptor(Family.SO, 5, so_kernel=(1,)),
    GroupDescriptor(Family.U, 2, k_gen=-1),
    GroupDescriptor(Family.U, 2, k_gen=3),
]
for Y in rows:
    f = prasad_character(Y, E)
    op = opposition_group(Y, -1)
    print(f"  {Y.to_json()}: omega = {f.to_json()}, opposition = {op.to_json()}")
print()

Y = GroupDescriptor(Family.SO, 5, so_kernel=(1,))
gram = so_form_gram(Y)
formula = prasad_character(Y, E)
sample = [[Fraction(2), 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
          [0, 0, 0, 1, 0], [0, 0, 0, 0, Fraction(1, 2)]]
print(f"evaluating the odd orthogonal row on diag(2,1,1,1,1/2): "
      f"{evaluate_character(formula, sample, E, gram):+d}")
