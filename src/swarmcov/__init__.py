"""Swarm coverage toolkit: agent simulation, mean-field solver, network
analogue, and field estimation from windowed occupancy counts."""

from .errors import ConfigError, DegenerateFitError, DomainError, NumericError
from .fields import (
    AnalyticField,
    ControlLaws,
    GridField,
    ScalarField,
    constant_diffusion_law,
    diffusion_coverage_law,
    field_mass,
    load_field_csv,
    normalize,
    quadratic_field,
    reaction_coverage_law,
    save_field_csv,
    sine_field,
    two_bump_field,
)
from .grids import Domain, Grid, GridFunction
from .pde import (
    AdrCoefficients,
    SolveReport,
    cfl_max_dt,
    coefficients_from_laws,
    decay_rate,
    solve,
    steady_state,
    step_adr,
    step_diffusion,
)
from .sde import (
    GaussianInit,
    Mode,
    PointInit,
    SimConfig,
    SwarmState,
    UniformInit,
    histogram,
    iter_snapshots,
    reflect,
    simulate,
    snapshots_to_csv,
    tv_distance,
)
from .graphs import (
    Graph,
    Trajectory,
    complete_graph,
    invariant_distribution,
    iter_ctmc,
    laplacian,
    occupation,
    path_graph,
    propagate,
    random_connected_graph,
    sample_ctmc,
)
from .estimation import (
    Estimate,
    EstimationProblem,
    ObservationSeries,
    Partition,
    ProtocolResult,
    adjoint_gradient,
    load_estimate_csv,
    load_observations_csv,
    objective,
    observe,
    predict,
    rescale_with_known,
    run_protocol,
    save_estimate_csv,
    save_observations_csv,
    solve_inverse,
    uniform_times,
    window_partition,
)

__version__ = "0.1.0"
