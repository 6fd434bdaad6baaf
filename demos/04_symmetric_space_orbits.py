"""Orbits in the twisted symmetric space X = {x : x sigma(x) = 1} of a
classical pair, classified by exact invariants.

Symplectic pairs have a single orbit; unitary pairs two, told apart by a
norm-coset bit; orthogonal pairs carry a discriminant component and a
Hasse sign.
"""

from localsym.forms import Case
from localsym.localfield import Prime, hilbert_oracle
from localsym.numfield import BiquadField, Mat
from localsym.symspace import (
    ClassicalPair,
    Component,
    classify_x,
    gamma_bit,
    orbit_count_X,
    realizable_targets,
    z_orbit_representatives,
)

orth = ClassicalPair(Case.ORTHOGONAL, 1, (1,), 1, Prime(3), BiquadField(-1))
print(f"orthogonal pair, kernel diag(1), N = {orth.N}:")
for component in (Component.IDENTITY, Component.COMPLEMENT, Component.FULL):
    print(f"  orbits in {component.value}: {orbit_count_X(orth, component)}")
print()

print("explicit representatives with their invariants:")
for inv, x, z in z_orbit_representatives(orth, Component.IDENTITY):
    again = classify_x(x, z, orth)
    print(f"  {inv}  (re-classified exactly: {again == inv})")
print()

uni = ClassicalPair(Case.UNITARY, 1, (1,), 1, Prime(3), BiquadField(-1, 3))
print(f"unitary pair over Q(i, sqrt 3) at p = 3: {orbit_count_X(uni)} orbits")
print(f"  realizable targets: {[t.to_json() for t in realizable_targets(uni)]}")
print()

closed = gamma_bit(uni, uni.field.element(-1))
oracle = hilbert_oracle(-1, 3, 3)
print("the norm-one coset group for the unitary pair:")
print(f"  index-two quotient, class of -1 = bit {closed} (closed form; -1 = c^(1-sigma), c = sqrt(-1))")
print(f"  Hensel-search oracle (-1, 3)_3 = {oracle}; bit 1 exactly when it is -1: {closed == (oracle == -1)}")
