"""Continuous logic over finite metric structures, two ways.

Formulas take values in compact rational grids ("value spaces") rather than
just [0,1].  The package evaluates both semantics, translates real-valued
structures onto coarse grids with certified error budgets, and cross-checks
the two readings against each other on randomly generated instances.
"""
import importlib

from .errors import (
    CapacityError,
    ContlogError,
    EvalError,
    FormatError,
    ParseError,
    SpaceMismatch,
    TypeCheckError,
    ValidationError,
)
from .valuespace import (
    Point,
    ValueSpace,
    distance,
    frac,
    linf,
    make_finite,
    make_interval,
    membership,
    nearest,
    point,
    product,
)
from .connective import (
    Connective,
    add,
    affine,
    bounded_add,
    clamp01,
    compose,
    const,
    identity,
    max_of,
    mcshane_extend,
    min_of,
    mul,
    neg,
    proj,
    table,
    tight_lipschitz,
    truncated_sub,
    unit_interval,
    validate_lipschitz,
)
from .hyperspace import (
    MAX_BASE_POINTS,
    CompactSet,
    HyperSpace,
    OpenRegion,
    SubsetNet,
    ball,
    compact,
    decode_subset,
    encode_subset,
    hausdorff,
    hyper,
    inf_theta,
    lift,
    sup_theta,
    urysohn_separator,
    vietoris_member,
    vietoris_slack,
)
from .formula import (
    Apply,
    Atomic,
    CauchyLimit,
    Formula,
    Quant,
    QuantKind,
    Relation,
    Signature,
    atom,
    cauchy_limit,
    parse,
    signature,
)
from .semantics import (
    CheckReport,
    ConditionReport,
    EvalResult,
    Structure,
    check_condition,
    check_function_axioms,
    check_pseudometric,
    decode_function,
    encode_function,
    eval_error_bound,
    evaluate,
    quotient,
    structure,
    zero_distance_classes,
)

# The coder and the fuzz harness load on first use (PEP 562), so a command
# that needs neither does not pay for compiling them.
_LAZY = {
    **dict.fromkeys(
        ("MAX_SET_CODING_POINTS", "CodedCondition", "CodedFormula",
         "LatticeApprox", "TranslationContext", "check_T0", "code_condition",
         "code_formula", "decode_structure", "lattice_approx", "snap_to_grid",
         "sup_generator", "t0_violations", "translate_signature",
         "transport_structure"),
        "translate"),
    **dict.fromkeys(("FuzzConfig", "TrialRecord", "fuzz", "summarize"), "oracle"),
}

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ContlogError", "EvalError", "FormatError", "ParseError",
    "SpaceMismatch", "TypeCheckError", "ValidationError",
    "Point", "ValueSpace", "distance", "frac", "linf", "make_finite",
    "make_interval", "membership", "nearest", "point", "product",
    "Connective", "add", "affine", "bounded_add", "clamp01", "compose",
    "const", "identity", "max_of", "mcshane_extend", "min_of", "mul", "neg",
    "proj", "table", "tight_lipschitz", "truncated_sub", "unit_interval",
    "validate_lipschitz",
    "MAX_BASE_POINTS", "CompactSet", "HyperSpace", "OpenRegion", "SubsetNet",
    "ball", "compact", "decode_subset", "encode_subset", "hausdorff", "hyper",
    "inf_theta", "lift", "sup_theta", "urysohn_separator", "vietoris_member",
    "vietoris_slack",
    "Apply", "Atomic", "CauchyLimit", "Formula", "Quant", "QuantKind",
    "Relation", "Signature", "atom", "cauchy_limit", "parse", "signature",
    "CheckReport", "ConditionReport", "EvalResult", "Structure",
    "check_condition", "check_function_axioms", "check_pseudometric",
    "decode_function", "encode_function", "eval_error_bound", "evaluate",
    "quotient", "structure", "zero_distance_classes",
    "MAX_SET_CODING_POINTS", "CodedCondition", "CodedFormula",
    "LatticeApprox", "TranslationContext", "check_T0", "code_condition",
    "code_formula", "decode_structure", "lattice_approx", "snap_to_grid",
    "sup_generator", "t0_violations", "translate_signature",
    "transport_structure",
    "FuzzConfig", "TrialRecord", "fuzz", "summarize",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
