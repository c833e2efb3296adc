"""santagap: exact desk-scale tools for restricted max-min allocation.

Computes the configuration-LP optimum T* exactly, builds approximation
allocation graphs, measures the topological connectedness parameter eta
of independence complexes over GF(2), executes and validates
deletion/explosion sequences with cover accounting, and runs
integrality-gap experiments against the 53/15 and two-values bounds.
"""

__version__ = "0.1.0"

from .instance import (
    Allocation,
    Instance,
    InstanceError,
    OptResult,
    ParseError,
    brute_force_opt,
    gen_random,
    gen_two_value,
    load_instance,
    parse_instance,
    parse_instance_json,
)
from .lp_core import (
    ClpModel,
    Configuration,
    DualSolution,
    LpFeasibilityResult,
    TStarResult,
    build_dual,
    clp_feasible,
    compute_t_star,
    minimal_configurations,
    verify_dual,
)
from .allocation_graph import (
    AllocationGraph,
    MAlpha,
    build_H,
    build_J,
    compute_fat,
    compute_m,
    find_independent_transversal,
    restrict,
)
from .gap_report import (
    CoefficientCertificate,
    GapReport,
    run_gap_experiment,
    verify_convex_combination,
)
from .graphs import Graph
from .subsets import CapError
from .two_values import (
    RcEntry,
    a_coeff,
    f_gap,
    r_c,
    rc_table,
    two_value_driver,
)

__all__ = [
    "Allocation",
    "AllocationGraph",
    "CapError",
    "ClpModel",
    "CoefficientCertificate",
    "Configuration",
    "DualSolution",
    "GapReport",
    "Graph",
    "Instance",
    "InstanceError",
    "LpFeasibilityResult",
    "MAlpha",
    "OptResult",
    "ParseError",
    "RcEntry",
    "TStarResult",
    "a_coeff",
    "brute_force_opt",
    "build_H",
    "build_J",
    "build_dual",
    "clp_feasible",
    "compute_fat",
    "compute_m",
    "compute_t_star",
    "f_gap",
    "find_independent_transversal",
    "gen_random",
    "gen_two_value",
    "load_instance",
    "minimal_configurations",
    "parse_instance",
    "parse_instance_json",
    "r_c",
    "rc_table",
    "restrict",
    "run_gap_experiment",
    "two_value_driver",
    "verify_convex_combination",
    "verify_dual",
]
