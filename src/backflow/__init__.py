"""Trace-distance information backflow for open quantum system dynamics.

Quantifies memory effects of a dynamical map family through the total
increase of the trace distance between evolving state pairs, provides the
structural machinery for optimal pairs (boundary membership, Jordan-Hahn
rescaling, joint translation), and implements the closed-form three-level
decay model with time-dependent rates used in the sampling experiments.
"""

from .dynamics import (
    CptReport,
    MapCoefficients,
    RateFunctions,
    apply_lambda_map,
    apply_map_to_grid,
    constant_rates,
    lambda_map_coefficients,
    lindblad_integrate,
    make_grid,
    map_invariants,
    rates_from_model,
    sinusoidal_rates,
    tabulated_rates,
    zero_rates,
)
from .measure import (
    BackflowHistogram,
    MeasureResult,
    MeasureStrategy,
    TraceDistanceTrajectory,
    backflow,
    estimate_measure,
    histogram_backflow,
    mixed_reference_pair,
    pure_a_plus_pair,
    pure_ab_pair,
    sampled_backflows,
    sigma_at,
    trace_distance_trajectory,
    trajectory_from_states,
)
from .statespace import (
    DensityMatrix,
    HermitianOperator,
    JordanHahnParts,
    haar_unitary,
    is_boundary,
    is_orthogonal,
    jordan_hahn,
    make_density_matrix,
    maximally_mixed,
    pure_state,
    rescale_pair,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_pure_orthogonal_pair,
    sample_random_state,
    spectral_decomposition,
    trace_distance,
)
from .translation import (
    OverlapSelection,
    ShiftConstruction,
    build_shift_operator,
    epsilon_upper_bound,
    is_jointly_translatable,
    jointly_translate,
    overlap_selection,
    quadratic_bound,
)

__version__ = "0.1.0"
