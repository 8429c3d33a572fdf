"""Exact Minkowski decomposability analysis for convex polytopes.

The package decides whether a polytope given by exact rational vertex
coordinates is decomposable (a Minkowski sum of two non-homothetic
summands) and backs every verdict either with a replayable combinatorial
certificate or with the dimension of the space of decomposing functions.
"""

from .catalogue import (
    CatalogueEntry,
    catalogue_entry,
    catalogue_list,
    catalogue_verify,
)
from .certificates import (
    AnalysisReport,
    CertificateStep,
    CertificateTrace,
    analyze,
    replay,
    replay_report,
)
from .constructors import (
    bd182,
    bd198,
    bipyramid3,
    capped_prism,
    construct_basic,
    cube,
    cyclic,
    delta,
    octahedron,
    pentagon,
    segment,
    simplex,
    wedge,
)
from .counts import CountConclusion, count_rules
from .errors import (
    DegenerateInputError,
    EngineInconsistencyError,
    GuardExceededError,
    InvalidInputError,
    MinkdecompError,
    RuleNotApplicableError,
)
from .fileio import dumps, loads, polytope_from_dict, polytope_to_dict, read_polytope, write_polytope
from .graphs import (
    DecomposingFunction,
    GeometricGraph,
    OracleResult,
    decomposing_space,
    oracle_verdict,
    skeleton,
)
from .polytope import (
    FVector,
    Polytope,
    facet_as_polytope,
    minkowski_sum,
    prism_over,
    pyramid_over,
    stack_pyramid,
    truncate_vertex,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CatalogueEntry",
    "CertificateStep",
    "CertificateTrace",
    "CountConclusion",
    "DecomposingFunction",
    "DegenerateInputError",
    "EngineInconsistencyError",
    "FVector",
    "GeometricGraph",
    "GuardExceededError",
    "InvalidInputError",
    "MinkdecompError",
    "OracleResult",
    "Polytope",
    "RuleNotApplicableError",
    "analyze",
    "bd182",
    "bd198",
    "bipyramid3",
    "capped_prism",
    "catalogue_entry",
    "catalogue_list",
    "catalogue_verify",
    "construct_basic",
    "count_rules",
    "cube",
    "cyclic",
    "decomposing_space",
    "delta",
    "dumps",
    "facet_as_polytope",
    "loads",
    "minkowski_sum",
    "octahedron",
    "oracle_verdict",
    "pentagon",
    "polytope_from_dict",
    "polytope_to_dict",
    "prism_over",
    "pyramid_over",
    "read_polytope",
    "replay",
    "replay_report",
    "segment",
    "simplex",
    "skeleton",
    "stack_pyramid",
    "truncate_vertex",
    "validate",
    "wedge",
    "write_polytope",
]
