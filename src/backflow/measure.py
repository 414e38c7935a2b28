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

from .dynamics import MapCoefficients, RateFunctions, apply_map_to_grid, lindblad_integrate, stretch_ends
from .errors import DimensionMismatch, DomainError, ValidationError
from .statespace import (
    DensityMatrix,
    _clipped_distances,
    _mixed_pair_stacks,
    _pure_pair_stacks,
    is_orthogonal,
    make_density_matrix,
    pure_state,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_pure_orthogonal_pair,
)

StatePair = tuple[DensityMatrix, DensityMatrix]

# Rises below this are treated as noise when estimating the measure, once
# per stretch between stretch ends; the raw backflow of a trajectory
# applies no threshold.
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

    @cached_property
    def sigma(self) -> np.ndarray:
        """Finite-difference distance rate, derived from the distances on first use."""
        return np.gradient(self.distances, self.grid, edge_order=1)

    @cached_property
    def backflow(self) -> float:
        return backflow(self)


def trajectory_from_states(
    grid: np.ndarray, states1: np.ndarray, states2: np.ndarray
) -> TraceDistanceTrajectory:
    """Distance trajectory of two stacked evolutions of shape (grid, N, N)."""
    distances = _clipped_distances(np.asarray(states1) - np.asarray(states2))
    return TraceDistanceTrajectory(grid=grid, distances=distances)


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


def backflow(traj: TraceDistanceTrajectory) -> float:
    """Sum of positive trace-distance increments along the grid.

    Summing increments directly telescopes over each rising interval, so
    no differentiation noise enters. No increment is discarded as noise;
    the measure estimates apply ``RISE_TOLERANCE`` instead.
    """
    return float(_rise(traj.distances, 0.0))


def _rise(distances: np.ndarray, rise_tolerance: float) -> np.ndarray:
    """Sum of the increments above ``rise_tolerance`` along the last axis."""
    inc = np.diff(distances, axis=-1)
    return np.where(inc > rise_tolerance, inc, 0.0).sum(axis=-1)


def _pairs_to_differences(pairs: list[StatePair]) -> np.ndarray:
    return np.stack([r1.entries - r2.entries for r1, r2 in pairs])


def _batched_backflows(coeffs: MapCoefficients, deltas: np.ndarray, rise_tolerance: float) -> np.ndarray:
    """Backflows of many (N, 3, 3) difference matrices at once (map is linear),
    from their distances at the points of ``coeffs``.

    Scorers pass ``stretch_ends(coeffs)``, whose points give the same rises
    as the whole grid, so ``rise_tolerance`` applies to each stretch's rise.
    """
    return _rise(_clipped_distances(apply_map_to_grid(coeffs, deltas)), rise_tolerance)


# Candidates scored per batched call. Each call holds the (batch, kept points,
# 3, 3) complex evolved differences and the distance kernel's six float arrays
# of (batch, kept points): about 6.1 kB per kept point at 32. At the 10^4-step
# cap the scoring peak (tracemalloc) is 0.3 MB on the default model (3 points
# kept), 27.7 MB with tabulated rates 0.05 sin t + 0.02 and 0.03 sin 2t + 0.01
# (4465 points) and 61.5 MB on a grid whose every step is mixed (10001 points).
BATCH = 32


def _sampled_differences(pair_stacks: Callable, seed: int, *key: int) -> Callable[[int, int], np.ndarray]:
    """Differences rho1 - rho2 of the pairs start..stop-1 drawn from the streams (seed, *key, i)."""
    return lambda start, stop: np.subtract(*pair_stacks(3, [rng_stream(seed, *key, i) for i in range(start, stop)]))


def _streamed_backflows(
    ends: MapCoefficients, differences: Callable, n: int, rise_tolerance: float, batch: int = BATCH
) -> np.ndarray:
    """Backflows of candidates 0..n-1 at the stretch ends ``ends``, their (n, 3, 3)
    differences built by ``differences(start, stop)`` and scored ``batch`` at a time."""
    if batch < 1:
        raise DomainError(f"batch must be >= 1, got {batch}")
    values = np.empty(n)
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        values[start:stop] = _batched_backflows(ends, differences(start, stop), rise_tolerance)
    return values


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Sampled lower bound on the maximal information backflow."""

    estimate: float
    best_pair: StatePair
    samples_evaluated: int
    candidate_breakdown: dict[str, float]
    seed: int


def estimate_measure(
    coeffs: MapCoefficients, samples: int = 1000, seed: int = 0, explicit_pairs: tuple[StatePair, ...] = ()
) -> MeasureResult:
    """Maximize backflow over sampled orthogonal candidate pairs.

    Candidate classes: ``samples`` random pure orthogonal pairs, as many
    random mixed orthogonal pairs, and the explicit pairs (validated
    orthogonal), so ``2 * samples + len(explicit_pairs)`` candidates in all.
    The returned estimate is the largest backflow found, the first maximum
    over the classes in that order, and a lower bound on the true maximum.
    """
    if samples < 0:
        raise DomainError(f"samples must be non-negative, got {samples}")

    for idx, (rho1, rho2) in enumerate(explicit_pairs):
        if not is_orthogonal(rho1, rho2):
            raise ValidationError(
                f"explicit candidate pair {idx} is not orthogonal; the maximization "
                "is restricted to orthogonal pairs"
            )

    def sampled(one_pair: Callable, pair_stacks: Callable, key: int) -> tuple[Callable, Callable]:
        """Stacked differences of a sampled class, and its one-pair rebuild."""
        return _sampled_differences(pair_stacks, seed, key), lambda i: one_pair(3, rng_stream(seed, key, i))

    explicit = (lambda start, stop: _pairs_to_differences(explicit_pairs[start:stop]), explicit_pairs.__getitem__)

    ends = stretch_ends(coeffs)
    best_value = -1.0
    best_pair: StatePair | None = None
    breakdown: dict[str, float] = {}
    evaluated = 0
    # each class is scored in stacked batches; its first maximum is rebuilt
    # from its stream by the one-pair sampler, so no candidate list is kept
    for label, (differences, candidate), n in (
        ("pure", sampled(sample_pure_orthogonal_pair, _pure_pair_stacks, 0), samples),
        ("mixed", sampled(sample_orthogonal_mixed_pair, _mixed_pair_stacks, 1), samples),
        ("explicit", explicit, len(explicit_pairs)),
    ):
        if n == 0:
            continue
        values = _streamed_backflows(ends, differences, n, RISE_TOLERANCE)
        evaluated += n
        first_max = int(np.argmax(values))
        breakdown[label] = float(values[first_max])
        if breakdown[label] > best_value:
            best_value = breakdown[label]
            best_pair = candidate(first_max)

    if best_pair is None:
        raise DomainError("no candidates were evaluated; give samples >= 1 or an explicit pair")

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
    return _streamed_backflows(
        stretch_ends(coeffs), _sampled_differences(_pure_pair_stacks, seed), n_samples, rise_tolerance, batch
    )


def histogram_backflow(coeffs: MapCoefficients, n_samples: int, bins: int, seed: int) -> BackflowHistogram:
    """Probability histogram of pure-pair backflows with a mixed-pair reference.

    Bins are uniform over [0, max(max_sampled, reference_value)]; the
    reference is the backflow of the excited-vs-ground-mixture pair under
    the same map. Stretch rises at the noise floor are discarded so monotone
    dynamics land exactly in the zero bin.
    """
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    reference_delta = _pairs_to_differences([mixed_reference_pair()])
    reference = float(_batched_backflows(stretch_ends(coeffs), reference_delta, RISE_TOLERANCE)[0])
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
