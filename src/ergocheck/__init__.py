"""Static ergodicity verifier for stochastic mass-action reaction networks."""

__version__ = "0.1.0"  # before the submodule imports: report reads it

from .drift import (
    LyapunovCertificate,
    ReactionClassification,
    build_drift_system,
    certificate_from_witness,
    check_negative_drift,
    classify_reactions,
    verify_certificate,
)
from .errors import (
    DimensionMismatch,
    DuplicateSpecies,
    ErgocheckError,
    InternalCheckFailed,
    MissingTotals,
    NonPositiveRate,
    OverlappingConservation,
    ParseError,
    PropensityOverflow,
    StateSpaceTooLarge,
    UnsupportedReactionOrder,
    WitnessRejected,
)
from .irreducibility import (
    ConservedClassAnalysis,
    IrreducibilityVerdict,
    LevelDecomposition,
    check_irreducibility,
    conserved_class_analysis,
    fireable_reactions,
    level_decomposition,
)
from .lfp import (
    LfpOutcome,
    LfpProblem,
    solve_lfp,
    witness_satisfies,
    witness_violation,
)
from .linalg import (
    HnfResult,
    RationalMatrix,
    hermite_normal_form,
    lattice_spans_full,
    left_null_space,
    null_space,
)
from .network import (
    ConservedStructure,
    Reaction,
    ReactionNetwork,
    enumerate_conserved_states,
    find_conservation_relations,
    inverse_network,
    network_to_text,
    parse_network,
    propensity,
    reorder_conserved_last,
    stoichiometry_matrix,
)
from .oracle import (
    StationaryEstimate,
    Trajectory,
    batch_means,
    empirical_irreducibility_probe,
    gillespie_simulate,
    run_oracle,
    time_average,
    truncated_cme_stationary,
)
from .report import (
    INCONCLUSIVE,
    IRREDUCIBILITY_DISPROVEN,
    PROVEN_ERGODIC,
    UNSUPPORTED,
    ErgodicityReport,
    analyze,
    render_report,
    report_to_dict,
    verify,
)
