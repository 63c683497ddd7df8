"""Exact arithmetic for Dirichlet characters of prime-power conductor,
generalized Bernoulli and Euler numbers, L-values at non-positive
integers, and batch verification of the congruences relating them."""

from .bernoulli import (
    BernoulliCache,
    DomainError,
    ParityError,
    UndefinedCaseError,
    bernoulli_number,
    euler_number,
    generalized_bernoulli,
    l_value,
    script_l,
)
from .characters import (
    DirichletCharacter,
    ResourceLimitError,
    UnitGroup,
    build_unit_group,
    character,
    chi_minus4,
    enumerate_characters,
    enumerate_primitive,
    opposite_parity,
)
from .congruences import CongruenceVerdict
from .cyclotomic import (
    INFINITE,
    CyclotomicElement,
    congruent_mod,
    cyclotomic_polynomial,
    euler_phi,
    p_content_valuation,
    root_of_unity_order,
    zeta,
)
from .power_sums import floor_weighted_sum, power_sum
from .sweep import SweepConfig, SweepJob, SweepReport, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BernoulliCache",
    "CongruenceVerdict",
    "CyclotomicElement",
    "DirichletCharacter",
    "DomainError",
    "INFINITE",
    "ParityError",
    "ResourceLimitError",
    "SweepConfig",
    "SweepJob",
    "SweepReport",
    "UndefinedCaseError",
    "UnitGroup",
    "bernoulli_number",
    "build_unit_group",
    "character",
    "chi_minus4",
    "congruent_mod",
    "cyclotomic_polynomial",
    "enumerate_characters",
    "enumerate_primitive",
    "euler_number",
    "euler_phi",
    "floor_weighted_sum",
    "generalized_bernoulli",
    "l_value",
    "opposite_parity",
    "p_content_valuation",
    "power_sum",
    "root_of_unity_order",
    "run_sweep",
    "script_l",
    "zeta",
]
