"""Locality and relative-feedback analysis for distributed LTI controllers.

The package covers five connected themes: graph-structured realizations
of transfer matrices, affine closed-loop parameterizations with
controller recovery and structured implementations, relative (pairwise
difference) feedback, infeasibility certificates for localized consensus
design on rings, and the spatially invariant picture on discrete tori.

The package and its CLI run on numpy alone; scipy serves only the tests'
reference computations, such as the Lyapunov H2 norm.
"""

from .errors import (
    CommonDenominatorTruncated,
    ConsistencyCheckFailed,
    ConstraintViolated,
    DegreeCapExceeded,
    DisconnectedGraph,
    DocumentError,
    FeasibilityPreconditionError,
    HypothesisViolated,
    IllPosedFeedback,
    ImproperEntry,
    LocrelError,
    ModeZeroDetectable,
    NoRealization,
    NonNegativeA,
    NonzeroFeedthrough,
    NotCirculant,
    NotHurwitz,
    NotRelative,
    NotTFStructured,
    OddNForLongRange,
    SingularAtS,
    SingularPhiX,
    SymbolPoleClash,
    UnstableKernelEntry,
    UnstableNonzeroMode,
)
from .graphs import (
    Graph,
    Partition,
    StructurePattern,
    b_hops,
    graph_from_json,
    graph_to_json,
    is_connected,
    laplacian,
    path_graph,
    ring_graph,
    torus_graph,
)
from .rational import RationalEntry, RationalMatrix
from .statespace import (
    StateSpace,
    minimal_realization,
    parallel,
    realize_rational,
    scalar_h2_squared,
    series,
    tf_of,
)
from .structure import (
    RealizationStructure,
    TridiagCounterexample,
    build_structured_realization,
    check_realization_structure,
    is_graph_structured,
    is_tf_structured,
    transfer_support,
    tridiag_counterexample,
)
from .relative import (
    PairwiseDifferenceForm,
    edge_sum_adjoint,
    is_relative,
    relative_decompose,
    relative_decompose_rational,
)
from .sls import (
    ClosedLoopPair,
    OutputFeedbackClosedLoops,
    Plant,
    RelativeEquivalence,
    check_affine_constraint,
    check_of_constraints,
    check_relative_equivalence,
    closed_loops_of,
    implementation_realization_sf,
    of_structured_implementation,
    output_feedback_closed_loops,
    recover_controller_of,
    recover_controller_sf,
)
from .consensus import (
    ConsensusProblem,
    FeasibilityCertificate,
    GapReport,
    circulant_rank,
    consensus_measures,
    gap_demonstration,
    h2_deflated,
    proper_approximation,
    sls_relative_feasibility,
    static_consensus_gain,
    static_gain_realization,
)
from .spatial import (
    ConvKernelArray,
    SIClosedLoops,
    canonical_offsets,
    circular_sup_distance,
    dft_symbol,
    is_cl_tf_structured_si,
    is_relative_si,
    si_closed_loops,
    si_h2_squared,
    spatial_feasibility,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
