"""Exact arithmetic for p-adic square classes, epsilon-hermitian forms,
symmetric-space orbits and distinction criteria for classical pairs."""

from .localfield import (
    LocalFieldError,
    LocalsymError,
    Prime,
    QuadExtension,
    SquareClass,
    eta,
    hilbert,
    hilbert_oracle,
    hilbert_rational,
    reciprocity_check,
    reduce,
    square_classes,
)
from .numfield import BiquadField, Bq, Mat, NumFieldError, in_isometry_group, in_symmetric_space
from .forms import Case, DiagForm, FormInvariants, FormsError, diagonalize, equivalent, invariants, orbit_count
from .symspace import (
    ClassicalPair,
    Component,
    OrthogonalOrbit,
    SymplecticOrbit,
    SymspaceError,
    UnitaryOrbit,
    classify_x,
    orbit_count_X,
)
from .weyl import (
    Composition,
    SignedInvolution,
    SignedPerm,
    WeylError,
    admissible_orbit_count,
    build_tw,
    build_xw,
    enumerate_involutions,
    stabilizer_shape,
)
from .invgraph import Convention, InvGraphError, ThetaAction, Vertex, cone_contains, descend, theta_on_root
from .distinction import CuspidalDatum, DistinctionError, Verdict, Witness, decide, gl_product_check, necessary_condition
from .prasad import (
    CharacterFormula,
    Family,
    GroupDescriptor,
    PrasadError,
    opposition_group,
    prasad_character,
    spinor_norm,
    spinor_norm_rational,
    wsn,
)

__version__ = "0.1.0"
