"""Invariants of effective 3-forms on a 6-dimensional symplectic vector
space, the Monge-Ampère equations they encode, and the associated
generalized Calabi-Yau geometry."""

from .exterior import (
    Bivector6,
    ExactComplex,
    GradeError,
    KForm,
    interior_bivector,
    interior_vector,
    rational_sqrt,
    wedge,
)
from .symplectic import (
    DegenerateError,
    EffectivenessError,
    SymplecticSpace,
    bot,
    hll_decompose,
    is_effective,
    project_effective,
    standard_space,
    top,
)
from .hitchin import (
    DegenerateFormError,
    ExactnessError,
    SplitPair,
    dual_form,
    hitchin_k,
    is_decomposable,
    k_squared,
    pfaffian,
    split_pair,
    theta_pairing,
)
from .lr import (
    CubicPencil,
    QuadForm6,
    Signature,
    char_pencil,
    compat_q_k,
    in_sp3,
    q_form,
    signature,
)
from .classify import (
    GczStructure,
    InvariantReport,
    OrbitClass,
    UnclassifiableError,
    build_gcy,
    classify,
    table1_form,
)
from .poly import Poly
from .fields import (
    BranchChangeError,
    DegeneratePointError,
    DiffeoMap,
    FormField,
    MetricField,
    SectionMap,
    Submanifold3,
    check_generalized_solution,
    christoffel,
    closedness_check,
    d_exact,
    d_numeric,
    flatness_check,
    gcy_integrability_check,
    is_symplectomorphism,
    lambda_field,
    ma_operator,
    pullback_field_poly,
    riemann,
    sample_box,
)
from .octonion import Octonion, associative_form, cross
from . import casestudies, documents

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
