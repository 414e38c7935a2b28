"""Memory-effect quantification through trace-distance backflow.

The backflow of a state pair is the total increase of the trace distance
along the evolution; maximizing it over initial pairs quantifies memory
effects in the dynamics. Optimal pairs are orthogonal, so candidate
generation is restricted to orthogonal pairs: random pure ones, random
mixed ones on complementary subspaces, and user-supplied pairs. Sampled
estimates are lower bounds on the true maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dynamics import MapCoefficients, RateFunctions, apply_map_to_grid, lindblad_integrate, map_invariants
from .errors import DimensionMismatch, DomainError, IndexOutOfRange, ValidationError
from .statespace import (
    DensityMatrix,
    _clipped_distances,
    _invariant_distances,
    haar_unitary,
    is_orthogonal,
    make_density_matrix,
    pure_state,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_pure_orthogonal_pair,
)

StatePair = tuple[DensityMatrix, DensityMatrix]

# Grid increments below this are treated as noise when estimating the
# measure; the raw backflow of a trajectory applies no threshold.
RISE_TOLERANCE = 1e-10


def mixed_reference_pair() -> StatePair:
    """Excited state vs the uniform mixture of both ground states."""
    rho1 = pure_state(np.array([1.0, 0.0, 0.0]))
    rho2 = make_density_matrix(np.diag([0.0, 0.5, 0.5]).astype(complex))
    return rho1, rho2


def pure_ab_pair() -> StatePair:
    """Excited state vs first ground state."""
    return pure_state(np.array([1.0, 0.0, 0.0])), pure_state(np.array([0.0, 1.0, 0.0]))


def pure_a_plus_pair() -> StatePair:
    """Excited state vs the even ground-state superposition."""
    plus = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    return pure_state(np.array([1.0, 0.0, 0.0])), pure_state(plus)


@dataclass(frozen=True, eq=False)
class TraceDistanceTrajectory:
    """Trace distance along a grid, with its finite-difference rate."""

    grid: np.ndarray
    distances: np.ndarray
    sigma: np.ndarray

    @cached_property
    def backflow(self) -> float:
        return backflow(self)


def trajectory_from_states(
    grid: np.ndarray, states1: np.ndarray, states2: np.ndarray
) -> TraceDistanceTrajectory:
    """Distances and rate from two stacked evolutions of shape (grid, N, N)."""
    distances = _clipped_distances(np.asarray(states1) - np.asarray(states2))
    sigma = np.gradient(distances, grid, edge_order=1)
    return TraceDistanceTrajectory(grid=grid, distances=distances, sigma=sigma)


def trace_distance_trajectory(
    coeffs: MapCoefficients,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    *,
    engine: str = "closed_form",
    rates: RateFunctions | None = None,
) -> TraceDistanceTrajectory:
    """Evolve both states and track their trace distance over the grid."""
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dimensions differ: {rho1.dim} vs {rho2.dim}")
    if engine == "closed_form":
        s1 = apply_map_to_grid(coeffs, rho1.entries)
        s2 = apply_map_to_grid(coeffs, rho2.entries)
        return trajectory_from_states(coeffs.grid, s1, s2)
    if engine == "integrator":
        if rates is None:
            raise DomainError("integrator engine requires the rate functions")
        s1, s2 = lindblad_integrate(rates, (rho1, rho2), coeffs.grid)
        return trajectory_from_states(coeffs.grid, s1, s2)
    raise DomainError(f"unknown engine {engine!r}")


def sigma_at(traj: TraceDistanceTrajectory, k: int) -> float:
    """Finite-difference distance rate at grid index k (central in the interior)."""
    if not 0 <= k < traj.grid.size:
        raise IndexOutOfRange(f"index {k} outside grid of length {traj.grid.size}")
    return float(traj.sigma[k])


def backflow(traj: TraceDistanceTrajectory, rise_tolerance: float = 0.0) -> float:
    """Sum of positive trace-distance increments along the grid.

    Summing increments directly telescopes over each rising interval, so
    no differentiation noise enters; ``rise_tolerance`` discards
    increments at the numerical noise floor.
    """
    return float(_rise(traj.distances, rise_tolerance))


def _rise(distances: np.ndarray, rise_tolerance: float) -> np.ndarray:
    """Sum of the increments above ``rise_tolerance`` along the last axis."""
    inc = np.diff(distances, axis=-1)
    return np.where(inc > rise_tolerance, inc, 0.0).sum(axis=-1)


def _pairs_to_differences(pairs: list[StatePair]) -> np.ndarray:
    return np.stack([r1.entries - r2.entries for r1, r2 in pairs])


def _batched_backflows(coeffs: MapCoefficients, deltas: np.ndarray, rise_tolerance: float) -> np.ndarray:
    """Backflows of many (N, 3, 3) difference matrices at once (map is linear).

    The distances come in closed form from the invariants of the evolved
    differences, so the (N, grid, 3, 3) evolution is never built.
    """
    return _rise(_invariant_distances(*map_invariants(coeffs, deltas)), rise_tolerance)


# Candidates scored per batched call. Each call holds about ten (batch, grid)
# float arrays: at 32 that is 5 MB on a 2000-step grid, run time is flat from
# 32 to 128, and 128 raised the peak memory of a 400-step measure run by 10%.
BATCH = 32


def _streamed_backflows(
    coeffs: MapCoefficients, candidate: Callable[[int], StatePair], n: int, rise_tolerance: float, batch: int = BATCH
) -> np.ndarray:
    """Backflows of candidates 0..n-1, built by ``candidate(i)`` and scored ``batch`` at a time."""
    if batch < 1:
        raise DomainError(f"batch must be >= 1, got {batch}")
    values = np.empty(n)
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        pairs = [candidate(i) for i in range(start, stop)]
        values[start:stop] = _batched_backflows(coeffs, _pairs_to_differences(pairs), rise_tolerance)
    return values


@dataclass(frozen=True)
class MeasureStrategy:
    """Candidate generation plan for the measure estimate."""

    n_pure: int = 1000
    n_mixed: int = 1000
    explicit_pairs: tuple[StatePair, ...] = ()
    refine: bool = False
    rise_tolerance: float = RISE_TOLERANCE


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Sampled lower bound on the maximal information backflow."""

    estimate: float
    best_pair: StatePair
    samples_evaluated: int
    candidate_breakdown: dict[str, float]
    seed: int


# su(3) basis for the derivative-free refinement over pure pairs
def _gell_mann_basis() -> np.ndarray:
    basis = np.zeros((8, 3, 3), dtype=complex)
    basis[0, 0, 1] = basis[0, 1, 0] = 1.0
    basis[1, 0, 1], basis[1, 1, 0] = -1j, 1j
    basis[2, 0, 0], basis[2, 1, 1] = 1.0, -1.0
    basis[3, 0, 2] = basis[3, 2, 0] = 1.0
    basis[4, 0, 2], basis[4, 2, 0] = -1j, 1j
    basis[5, 1, 2] = basis[5, 2, 1] = 1.0
    basis[6, 1, 2], basis[6, 2, 1] = -1j, 1j
    basis[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    return basis


def _refine_pure_pair(
    coeffs: MapCoefficients, base_unitary: np.ndarray, rise_tolerance: float
) -> tuple[float, StatePair, int]:
    """Simplex search over unitary rotations of the best pure pair."""
    from scipy.linalg import expm
    from scipy.optimize import minimize

    basis = _gell_mann_basis()

    def pair_from(theta: np.ndarray) -> StatePair:
        u = base_unitary @ expm(1j * np.einsum("k,kij->ij", theta, basis))
        return pure_state(u[:, 0]), pure_state(u[:, 1])

    evaluations = 0

    def negative_backflow(theta: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        delta = _pairs_to_differences([pair_from(theta)])
        return -float(_batched_backflows(coeffs, delta, rise_tolerance)[0])

    result = minimize(
        negative_backflow,
        x0=np.zeros(8),
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 2000},
    )
    return -float(result.fun), pair_from(result.x), evaluations


def estimate_measure(
    coeffs: MapCoefficients, strategy: MeasureStrategy = MeasureStrategy(), seed: int = 0
) -> MeasureResult:
    """Maximize backflow over sampled orthogonal candidate pairs.

    Candidate classes: random pure orthogonal pairs, random mixed
    orthogonal pairs, and explicit pairs (validated orthogonal). The
    returned estimate is the largest backflow found, a lower bound on the
    true maximum; optional simplex refinement polishes the best pure pair.
    """
    if strategy.n_pure < 0 or strategy.n_mixed < 0:
        raise DomainError("candidate counts must be non-negative")

    for idx, (rho1, rho2) in enumerate(strategy.explicit_pairs):
        if not is_orthogonal(rho1, rho2):
            raise ValidationError(
                f"explicit candidate pair {idx} is not orthogonal; the maximization "
                "is restricted to orthogonal pairs"
            )

    def pure(i: int) -> StatePair:
        return sample_pure_orthogonal_pair(3, rng_stream(seed, 0, i))

    def mixed(i: int) -> StatePair:
        return sample_orthogonal_mixed_pair(3, rng_stream(seed, 1, i))

    def explicit(i: int) -> StatePair:
        return strategy.explicit_pairs[i]

    best_value = -1.0
    best_pair: StatePair | None = None
    breakdown: dict[str, float] = {}
    evaluated = 0
    best_pure_index = -1

    def consider(label: str, value: float, pair: StatePair) -> None:
        nonlocal best_value, best_pair
        breakdown[label] = value
        if value > best_value:
            best_value = value
            best_pair = pair

    # each class is scored in batches; its first maximum is rebuilt from
    # its stream, so no candidate list is kept
    for label, candidate, n in (
        ("pure", pure, strategy.n_pure),
        ("mixed", mixed, strategy.n_mixed),
        ("explicit", explicit, len(strategy.explicit_pairs)),
    ):
        if n == 0:
            continue
        values = _streamed_backflows(coeffs, candidate, n, strategy.rise_tolerance)
        evaluated += n
        first_max = int(np.argmax(values))
        if label == "pure":
            best_pure_index = first_max
        consider(label, float(values[first_max]), candidate(first_max))

    if best_pair is None:
        raise DomainError("no candidates were evaluated; enable at least one class")

    if strategy.refine and best_pure_index >= 0:
        # replay the winning stream to recover the unitary behind the pair
        base = haar_unitary(3, rng_stream(seed, 0, best_pure_index))
        value, pair, used = _refine_pure_pair(coeffs, base, strategy.rise_tolerance)
        evaluated += used
        consider("refined", value, pair)

    return MeasureResult(
        estimate=best_value,
        best_pair=best_pair,
        samples_evaluated=evaluated,
        candidate_breakdown=breakdown,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class BackflowHistogram:
    """Probability histogram of sampled pure-pair backflows."""

    bin_edges: np.ndarray
    counts: np.ndarray
    probabilities: np.ndarray
    n_samples: int
    max_sampled: float
    reference_value: float
    seed: int


def sampled_backflows(
    coeffs: MapCoefficients,
    n_samples: int,
    seed: int,
    *,
    rise_tolerance: float = 0.0,
    batch: int = BATCH,
) -> np.ndarray:
    """Backflow of n pure orthogonal pairs, one private stream per sample.

    Sample i draws from the stream keyed (seed, i), so the output is
    identical for any batch size.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")

    def pure(i: int) -> StatePair:
        return sample_pure_orthogonal_pair(3, rng_stream(seed, i))

    return _streamed_backflows(coeffs, pure, n_samples, rise_tolerance, batch)


def histogram_backflow(
    coeffs: MapCoefficients,
    n_samples: int,
    bins: int,
    seed: int,
    *,
    reference_pair: StatePair | None = None,
) -> BackflowHistogram:
    """Probability histogram of pure-pair backflows with a mixed-pair reference.

    Bins are uniform over [0, max(max_sampled, reference_value)]; the
    reference is the backflow of the excited-vs-ground-mixture pair under
    the same map unless another pair is supplied. Increments at the noise
    floor are discarded so monotone dynamics land exactly in the zero bin.
    """
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    ref1, ref2 = reference_pair if reference_pair is not None else mixed_reference_pair()
    reference = float(
        _batched_backflows(coeffs, _pairs_to_differences([(ref1, ref2)]), RISE_TOLERANCE)[0]
    )
    values = sampled_backflows(coeffs, n_samples, seed, rise_tolerance=RISE_TOLERANCE)
    max_sampled = float(values.max())
    upper = max(max_sampled, reference)
    if upper <= 0.0:
        upper = 1.0
    edges = np.linspace(0.0, upper, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return BackflowHistogram(
        bin_edges=edges,
        counts=counts,
        probabilities=counts / n_samples,
        n_samples=n_samples,
        max_sampled=max_sampled,
        reference_value=reference,
        seed=seed,
    )
