"""Invariants of effective 3-forms on a 6-dimensional symplectic vector
space, the Monge-Ampère equations they encode, and the associated
generalized Calabi-Yau geometry.

``import ma6`` loads the core: exterior, symplectic, hitchin, lr and
classify.  The fields, poly, octonion, casestudies and documents modules,
and the names they export here, load on first use."""

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

# the periphery, loaded on first use (PEP 562): each name → its submodule
_LAZY = {
    "poly": "poly", "Poly": "poly",
    "octonion": "octonion", "Octonion": "octonion",
    "associative_form": "octonion", "cross": "octonion",
    "casestudies": "casestudies", "documents": "documents",
    **dict.fromkeys((
        "fields", "BranchChangeError", "DegeneratePointError", "DiffeoMap",
        "FormField", "MetricField", "SectionMap", "Submanifold3",
        "check_generalized_solution", "christoffel", "closedness_check",
        "d_exact", "d_numeric", "flatness_check", "gcy_integrability_check",
        "is_symplectomorphism", "lambda_field", "ma_operator",
        "pullback_field_poly", "riemann", "sample_box"), "fields"),
}

__all__ = [n for n in dir() if not n.startswith("_")] + list(_LAZY)
__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    mod = importlib.import_module(f".{module}", __name__)
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
