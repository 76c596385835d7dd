"""Exact delta-vector (h*-vector) computation, validation and classification
for full-dimensional lattice simplices."""

from .box import BoxPoint, delta_from_box, enumerate_box
from .classify import (
    CaseId,
    Witness,
    admissible,
    counterexample_family,
    enumerate_admissible,
    iter_hnf_simplices,
    witness,
)
from .constraints import (
    ExponentList,
    check_hibi,
    check_pairing,
    check_stanley,
    check_superadditive,
    delta_from_exponents,
    exponents,
    is_prime,
    least_prime_divisor,
    reduced_pairs,
    run_all_checks,
)
from .ehrhart import (
    EhrhartTable,
    cell_estimate,
    count_lattice_points,
    ehrhart_delta,
    ehrhart_table,
)
from .groups import exhaustive_search
from .hnf import HNFSpec, build_simplex, closed_form_delta, nonprime_family
from .lattice import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DegenerateSimplexError,
    Simplex,
    SNFResult,
    exact_det,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "BoxPoint",
    "BudgetExceededError",
    "CaseId",
    "DEFAULT_BUDGET",
    "DegenerateSimplexError",
    "EhrhartTable",
    "ExponentList",
    "HNFSpec",
    "SNFResult",
    "Simplex",
    "Witness",
    "admissible",
    "build_simplex",
    "cell_estimate",
    "check_hibi",
    "check_pairing",
    "check_stanley",
    "check_superadditive",
    "closed_form_delta",
    "count_lattice_points",
    "counterexample_family",
    "delta_from_box",
    "delta_from_exponents",
    "ehrhart_delta",
    "ehrhart_table",
    "enumerate_admissible",
    "enumerate_box",
    "exact_det",
    "exhaustive_search",
    "exponents",
    "is_prime",
    "iter_hnf_simplices",
    "least_prime_divisor",
    "nonprime_family",
    "reduced_pairs",
    "run_all_checks",
    "smith_normal_form",
    "witness",
]
