"""Exact computer algebra for Dunkl operators on finite reflection groups.

The package decides when parabolic ideals are preserved by rational
Cherednik algebra operators, derives the induced operators on singular
strata as weighted line configurations, and verifies the operator
identities behind those derivations, all in exact arithmetic.
"""

from .fields import Field, FieldElement, cyclotomic_polynomial, render_scalar
from .polynomials import Polynomial, divide_by_linear, monomials, render_polynomial
from .rootsystems import (
    Multiplicities,
    OrbitCapExceeded,
    RootSystem,
    Stratum,
    Subspace,
    block_stratum,
    enumerate_parabolic_strata,
    generalized_coxeter_number,
    parabolic_stratum,
    root_system,
)
from .dunkl import DeformedContext, DunklContext
from .invariance import (
    condition_equations,
    conditions_hold,
    criterion_invariant,
    direct_invariance_violations,
    order_vanishing_violations,
    solve_multiplicities,
)
from .restriction import (
    Configuration,
    catalog_compare,
    conservation_defect,
    deformed_restriction_constant,
    gauge_defects,
    restricted_configuration,
    restriction_defects,
)
from .complexgroups import (
    CollisionFlat,
    ComplexDunklContext,
    ComplexReflectionGroup,
    direct_ideal_violations,
    parse_group_name,
)

__all__ = [
    "Field",
    "FieldElement",
    "cyclotomic_polynomial",
    "render_scalar",
    "Polynomial",
    "divide_by_linear",
    "monomials",
    "render_polynomial",
    "Multiplicities",
    "OrbitCapExceeded",
    "RootSystem",
    "Stratum",
    "Subspace",
    "block_stratum",
    "enumerate_parabolic_strata",
    "generalized_coxeter_number",
    "parabolic_stratum",
    "root_system",
    "DeformedContext",
    "DunklContext",
    "condition_equations",
    "conditions_hold",
    "criterion_invariant",
    "direct_invariance_violations",
    "order_vanishing_violations",
    "solve_multiplicities",
    "Configuration",
    "catalog_compare",
    "conservation_defect",
    "deformed_restriction_constant",
    "gauge_defects",
    "restricted_configuration",
    "restriction_defects",
    "CollisionFlat",
    "ComplexDunklContext",
    "ComplexReflectionGroup",
    "direct_ideal_violations",
    "parse_group_name",
]

__version__ = "0.1.0"
