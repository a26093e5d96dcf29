"""Simulation library for critical inhomogeneous percolation on the
edge-colored configuration model, the multiplicative coalescent with mass
and weight, and their thinned Levy scaling limits."""

__version__ = "0.1.0"

from .core import InvariantError, as_generator, stream_gen
from .degrees import (
    BulkLaw,
    DegreeSequence,
    LimitParameters,
    ScalingConstants,
    build_degree_sequence,
    criticality,
    make_limit_parameters,
    make_scaling,
    power_profiles,
    tune_to_criticality,
    validate_assumptions,
)
from .graphs import (
    ColoredMultigraph,
    component_table,
    sample_white_matching,
)
from .exploration import (
    DiscoveredComponent,
    ExplorationTrace,
    discovery_probability_check,
    explore,
    rescale_trace,
)
from .paths import CadlagPath
from .levy import (
    ThinnedLevyRealization,
    exploration_limit_params,
    reflected,
    sample_surplus_process,
    sample_thinned_levy,
    truncation_gap_bound,
)
from .excursions import (
    ExcursionInterval,
    ExcursionPointProcess,
    check_good,
    excursion_decompose,
    gamma_down,
    point_process_from_hitting_times,
    vague_distance,
)
from .coalescent import (
    BlockSystem,
    bipartite_bound_check,
    feller_probe,
    mcmw_batch,
    mcmw_graphical,
    sample_xi_batch,
    scaling_transform,
    susceptibility,
)
from .dynamics import (
    CoupledPair,
    PercolationState,
    edge_probability_estimate,
    modified_block_view,
    q_trajectory_check,
    run_coupled,
    run_dynamic,
    run_modified,
)
from .stats import (
    ExperimentConfig,
    ks_two_sample,
    l22_norm,
    l2_norm,
    ord_vec,
    theorem_1_6_experiment,
    theorem_1_7_experiment,
)
