"""Exact computer algebra for 3-loop Jacobi diagram spaces.

The package verifies, degree by degree and in exact rational arithmetic,
that the odd-degree part of the space of 3-loop Jacobi diagrams vanishes,
that the even-degree dimensions follow their closed form, and that the
supporting polynomial family is linearly independent with the expected
leading-term asymptotics.
"""

from types import ModuleType as _Module

from .asymptotics import (
    DEFAULT_REGIMES,
    ExpVector,
    PuiseuxPoly,
    REGIME_ONE,
    REGIME_TWO,
    Regime,
    leading_term,
    regime_table,
    substitute_regime,
    verify_q_asymptotics,
)
from .diagram_spaces import (
    SliceSpace,
    eliminate_y4,
    even_closed_form,
    hilbert_coefficients,
    ihx_image_slice,
    odd_target_dim,
    subring_family_slice,
    tet_slice,
    tsq_odd_dim,
    x_from_y,
    y_from_x,
)
from .linalg import QMatrix, rank, row_space_equal
from .multipoly import (
    NotDivisibleError,
    NotInSubringError,
    Poly,
    QFactorPowers,
    SignedPermAction,
    SubstitutionTable,
    VarSet,
    XVARS,
    YVARS,
    Y3VARS,
    Z3VARS,
    discriminant,
    divide_exact,
    elementary_symmetric,
    p2,
    p3,
    p4,
    q_poly,
    signed_s4,
    symmetrize,
)
from .verifier import (
    CheckRecord,
    Report,
    RunConfig,
    run_all,
    verify_asymptotics,
    verify_even_dims,
    verify_lemma,
    verify_odd_vanishing,
    verify_properties,
)

# every name imported above is public: to export a name, import it here
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)
)

__version__ = "0.1.0"
