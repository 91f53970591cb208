"""Query complexity of Boolean functions against oracles that may answer u.

The package models computation of a Boolean function when individual
input bits, once queried, may come back as 0, 1 or u ("unknown").  It
provides the hazard-free three-valued extension, its combinatorial
complexity measures, exact optimal decision trees for both the classical
and the u-query model, a deterministic certificate-guided query
algorithm with its supporting simulations and reductions, and an
exhaustive verification harness for all of the above at small arity.
"""

from .core import (
    ArityCapError,
    BooleanFunction,
    HazardFreeTable,
    Orientation,
    PartialAssignment,
    SpecError,
    STAR,
    TernaryString,
    UNKNOWN,
    as_ternary,
    dependent_variables,
    downward_closure,
    generate,
    hazard_free_table,
    is_monotone,
    is_nondegenerate,
    parse_spec,
    resolutions,
    unate_orientation,
)
from .check import (
    CertificateWitness,
    SensitiveBlockWitness,
    validate_block_family,
    validate_certificate,
)
from .measures import (
    BlockSensitivitySummary,
    CertificateSummary,
    MeasureReport,
    StandardMeasures,
    block_sensitivity_u,
    block_sensitivity_u_at,
    block_sensitivity_u_value,
    block_summary,
    certificate_complexity_u,
    certificate_summary,
    certificate_u_at,
    measure_report,
    minimal_sensitive_blocks,
    sensitivity_u,
    sensitivity_u_at,
    standard_measures,
)
from .depth import query_complexity, query_complexity_u
from .trees import (
    DecisionTree,
    TreeFormatError,
    evaluate_tree,
    parse_tree,
    serialize_tree,
    tree_depth,
    verify_tree,
)
from .algorithms import (
    Oracle,
    SolveResult,
    algorithm1_solve,
    algorithm1_tree,
    downward_closure_solve,
    fill_unknown_oracle,
    indexing_oracle_from_or,
    mask_ones_oracle,
    or_via_ind_reduction,
    tree_solver,
    unate_solver,
)
from .verification import (
    SUITES,
    CheckRecord,
    VerificationReport,
    monotone_functions,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
