"""Cryptographic enforcement of role-based access control on untrusted
storage: a reference model, two symbolic enforcement engines (identity-based
and conventional public-key), exact cost accounting, and workload-driven
cost experiments."""

from .costmodel import (
    HEADLINE_PROFILES,
    SchemeProfile,
    algebraic_cost,
    data_op_cost,
    reconcile,
    scheme_profile,
    static_cost_table,
)
from .crypto import (
    CostVector,
    CryptoProvider,
    Identity,
    UnauthorizedDecrypt,
)
from .engine import (
    AuthorizationError,
    Engine,
    IntegrityError,
    measure_label,
)
from .equivalence import (
    DifferentialReport,
    TraceBuilder,
    canonicalize,
    congruent,
    minimize_counterexample,
    run_differential,
    sigma,
)
from .rbac import Label, RbacError, RbacState, apply_label, theory

__version__ = "0.1.0"

__all__ = [
    "AuthorizationError",
    "CostVector",
    "CryptoProvider",
    "DifferentialReport",
    "Engine",
    "HEADLINE_PROFILES",
    "Identity",
    "IntegrityError",
    "Label",
    "RbacError",
    "RbacState",
    "SchemeProfile",
    "TraceBuilder",
    "UnauthorizedDecrypt",
    "algebraic_cost",
    "apply_label",
    "canonicalize",
    "congruent",
    "data_op_cost",
    "measure_label",
    "minimize_counterexample",
    "reconcile",
    "run_differential",
    "scheme_profile",
    "sigma",
    "static_cost_table",
    "theory",
]
