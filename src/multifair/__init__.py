"""multifair: exact multi-group fairness audits, predictor construction, and
graph regularity partitions over explicit finite populations."""

from .core import (
    OutcomeDist,
    OutcomeSpace,
    SimplexGrid,
    binary_space,
    make_coordinate_grid,
    make_grid_with_denominator,
    stat_distance,
    verify_covering_radius,
)
from .population import (
    Hypothesis,
    HypothesisClass,
    PopulationInstance,
    Predictor,
    close_under_complement,
    constant_predictor,
    discretize,
    fixture_grid_population,
    fixture_two_point,
    grid_fixture_mc_closed_form,
    grid_fixture_smc_closed_form,
    indicator_all,
    random_instance,
    sample,
)
from .audits import (
    AuditReport,
    ViolationProfile,
    audit_calibration,
    audit_covariance_mc,
    audit_multi_accuracy,
    audit_multi_calibration,
    audit_strict_multi_calibration,
    check_conditional,
    violation_profile,
)
from .oi import (
    Distinguisher,
    DistinguisherFamily,
    audit_oi,
    best_response,
    make_family,
    mc_event_distinguisher,
    oi_advantage,
)
from .noregret import (
    LossTable,
    UpdateRule,
    measure_regret,
    mwu_rule,
    pgd_rule,
    project_simplex,
    regret_bound,
    update,
)
from .construct import (
    ConstructionTranscript,
    construct_exact,
    construct_low_degree,
    construct_sampled,
    select_distinguisher_randomized,
    vc_dimension,
    wal_erm,
    wal_sample_count,
)
from .graph import (
    DiGraph,
    VertexPartition,
    check_frieze_kannan,
    check_intermediate,
    check_regular_pair,
    check_szemeredi,
    common_refinement,
    cut_oracle,
    density,
    edge_count,
    edge_stats,
    equivalence_bounds,
    graph_to_instance,
    irregularity,
    max_st_irregularity,
    mean_square_density,
    pair_partition,
    partition_irregularity,
    partition_st_irregularity,
    partition_to_predictor,
    predictor_to_partition,
    random_digraph,
    rectangle_class,
    rectangle_hypothesis,
    refine_intermediate,
    single_edge_gadget,
    st_irregularity,
    xor_product,
)
from .omni import LossFunction, omni_audit, omni_bound_check, post_process, zero_one_loss
from . import errors

__version__ = "0.1.0"
