"""Equation solving and algebraic-set geometry over finite inverse semigroups."""

__version__ = "0.1.0"

from .catalog import CATALOG_NAMES, by_name
from .geometry import (
    AlgebraicVerdict,
    BoundExceededError,
    Certificate,
    CertificateError,
    ClosureReport,
    Equation,
    EquationSystem,
    PointSet,
    Unknown,
    Verdict,
    closure,
    ed_verdict,
    format_certificate,
    is_algebraic,
    lemma4_check,
    lemma5_check,
    rosenblatt_check,
    solution_set,
    validate_certificate,
    validate_verdict,
)
from .semigroup import (
    FiniteInverseSemigroup,
    SemigroupError,
    hasse_dot,
    is_chain,
    is_group,
    load_semigroup,
    natural_order,
    validate,
    wagner_preston,
)
from .terms import (
    Const,
    Inverse,
    ParseError,
    Product,
    Term,
    Var,
    evaluate,
    flatten,
    parse,
    term_text,
)
