"""Distance-matrix spectral community detection for sparse random graphs.

The pipeline: sample a block-structured sparse graph, build the matrix
that marks vertex pairs at graph distance exactly ell, read the hidden
two-way split off the eigenvector of the second-largest eigenvalue, and
score the recovered labels against the hidden ones.  Companion modules
quantify how far adversarial edge edits can push the spectrum and verify
the branching-process identities behind the method's constants.
"""

from .model import (
    EllChoice,
    SbmParams,
    SpectralProfile,
    TypedGraphSample,
    choose_ell,
    derive_spectral_profile,
    sample_from_json,
    sample_graph,
    sample_to_json,
)
from .graph import (
    CapSaturated,
    SparseGraph,
    SparseSymMatrix,
    delta_matrix,
    difference_matrix,
    distance_matrix,
    frontiers,
    fundamental_cycles,
    path_expansion_matrix,
    set_shell_sizes,
    shell_growth_report,
    shell_sizes_all,
    tangle_free_check,
)
from .spectral import (
    DeltaRadiusReport,
    EigenPair,
    SeparationReport,
    delta_radius_check,
    qc_bound,
    separation_report,
    top_eigenpairs,
)
from .reconstruct import (
    DetectionRecord,
    LabelAssignment,
    OverlapScore,
    detect,
    explicit_K,
    label_two_way,
    normalize_for_algorithm,
    overlap,
)
from .adversary import (
    Perturbation,
    RogueCertificate,
    apply_perturbation,
    build_rogue_certificate,
    plant_clique,
    qk_bound,
    robustness_budget,
)
from .gw import (
    CumulantCheck,
    GwConfig,
    MartingaleSample,
    PopulationSample,
    cumulant_relation_check,
    finite_depth_second_moments,
    martingale_limit_check,
    martingale_values,
    moment_closed_forms,
    simulate_population,
)
from .diagnostics import LocalMomentReport, local_moment_report
from .util import derive_seed, make_rng

__version__ = "0.1.0"
