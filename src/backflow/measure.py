"""Memory-effect quantification through trace-distance backflow.

The backflow of a state pair is the total increase of the trace distance
along the evolution; maximizing it over initial pairs quantifies memory
effects in the dynamics. Optimal pairs are orthogonal, so candidate
generation is restricted to orthogonal pairs: random pure ones, random
mixed ones (the rescaled Jordan-Hahn split of a random traceless matrix,
so both states lie on the boundary, as optimal pairs do), and
user-supplied pairs. Sampled estimates are lower bounds on the true
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .dynamics import MapCoefficients, RateFunctions, apply_map_to_grid, lindblad_integrate, stretch_ends
from .errors import BadDimension, DimensionMismatch, DomainError, ValidationError
from .statespace import (
    DensityMatrix,
    _clipped_distances,
    _mixed_pair_stacks,
    _pure_pair_stacks,
    _streams,
    is_orthogonal,
    make_density_matrix,
    pure_state,
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
        states = apply_map_to_grid(coeffs, np.stack([rho1.entries, rho2.entries]))
    elif engine == "integrator":
        if rates is None:
            raise DomainError("integrator engine requires the rate functions")
        states = lindblad_integrate(rates, (rho1, rho2), coeffs.grid)
    else:
        raise DomainError(f"unknown engine {engine!r}")
    return trajectory_from_states(coeffs.grid, *states)


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


def _batched_backflows(coeffs: MapCoefficients, deltas: np.ndarray, rise_tolerance: float) -> np.ndarray:
    """Backflows of many (N, 3, 3) difference matrices at once (map is linear),
    from their distances at the points of ``coeffs``.

    Scorers pass ``stretch_ends(coeffs)``, whose points give the same rises
    as the whole grid, so ``rise_tolerance`` applies to each stretch's rise.
    """
    return _rise(_clipped_distances(apply_map_to_grid(coeffs, deltas)), rise_tolerance)


# Candidates scored per batched call: max(1, SCORE_POINTS // kept points), so
# a call holds at most max(SCORE_POINTS, kept points) evolved 3x3 differences,
# about 0.3-0.4 kB each with the map's and the distance kernel's temporaries.
# A default-model class (3 points, 1365 a batch) is one stacked pass; a grid
# keeping over 2048 points scores one candidate a call. Scoring peaks
# (tracemalloc) at the 10^4-step cap: 2.7 MB for 1365 pure and 2.9 MB for 1365
# mixed candidates on the default model, 1.4 MB for 64 candidates with
# tabulated rates 0.05 sin t + 0.02 and 0.03 sin 2t + 0.01 (4465 points), and
# 3.1-3.9 MB on a grid whose steps are nearly all mixed (9843 points).
SCORE_POINTS = 1 << 12


# A pair source maps (start, stop) to the (2, stop - start, 3, 3) state
# stacks of its pairs start..stop-1: first states, then second states.
PairSource = Callable[[int, int], np.ndarray]


def _sampled(pair_stacks: Callable, seed: int, *key: int) -> PairSource:
    """The pairs drawn by ``pair_stacks`` from the streams (seed, *key, i),
    one generator per batch."""
    return lambda start, stop: pair_stacks(3, _streams(seed, key, start, stop))


def _given(pairs: Sequence[StatePair]) -> PairSource:
    """The given 3x3 pairs."""
    return lambda start, stop: np.stack([[rho.entries for rho in pair] for pair in pairs[start:stop]], axis=1)


def _streamed_backflows(ends: MapCoefficients, source: PairSource, n: int, rise_tolerance: float) -> np.ndarray:
    """Backflows of the pairs 0..n-1 of ``source`` at the stretch ends ``ends``,
    scored ``max(1, SCORE_POINTS // kept points)`` at a time.

    The pairs are drawn in chunks of whole batches, about SCORE_POINTS // 8
    (512) pairs where the batch is smaller, so a grid keeping many points
    does not pay a stream move, a stacked QR and a validation eigensolve per
    few candidates. The floor is where a sweep levels off: a 10^4-sample
    histogram on tabulated rates (897 kept points) took 1.7 s unchunked,
    1.2 s at 64, 1.1 s at 512 and 1024, while its traced peak grew from
    1.2 to 1.3 MB at 512, 1.6 MB at 1024 and 2.9 MB at 2048.
    """
    batch = max(1, SCORE_POINTS // ends.grid.size)
    chunk = batch * max(1, SCORE_POINTS // 8 // batch)
    values = np.empty(n)
    for first in range(0, n, chunk):
        deltas = np.subtract(*source(first, min(first + chunk, n)))
        for start in range(0, len(deltas), batch):
            values[first + start : first + start + batch] = _batched_backflows(
                ends, deltas[start : start + batch], rise_tolerance
            )
    return values


def _check_candidate(pair: StatePair, where: str) -> None:
    """Reject a candidate the scorer cannot take: it must be two orthogonal 3x3 states."""
    shapes = [rho.entries.shape for rho in pair]
    if shapes != [(3, 3), (3, 3)]:
        raise BadDimension(f"{where} is not a pair of 3x3 states, got shapes {shapes}")
    if not is_orthogonal(*pair):
        raise ValidationError(f"{where} is not orthogonal; the maximization is restricted to orthogonal pairs")


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

    for idx, pair in enumerate(explicit_pairs):
        _check_candidate(pair, f"explicit candidate pair {idx}")

    ends = stretch_ends(coeffs)
    best_value = -1.0
    best_pair: StatePair | None = None
    breakdown: dict[str, float] = {}
    # each class is scored in stacked batches; its first maximum is rebuilt
    # from its source, so no candidate list is kept
    for label, source, n in (
        ("pure", _sampled(_pure_pair_stacks, seed, 0), samples),
        ("mixed", _sampled(_mixed_pair_stacks, seed, 1), samples),
        ("explicit", _given(explicit_pairs), len(explicit_pairs)),
    ):
        if n == 0:
            continue
        values = _streamed_backflows(ends, source, n, RISE_TOLERANCE)
        first_max = int(np.argmax(values))
        breakdown[label] = float(values[first_max])
        if breakdown[label] > best_value:
            best_value = breakdown[label]
            best_pair = tuple(DensityMatrix(s[0]) for s in source(first_max, first_max + 1))

    if best_pair is None:
        raise DomainError("no candidates were evaluated; give samples >= 1 or an explicit pair")

    return MeasureResult(
        estimate=best_value,
        best_pair=best_pair,
        samples_evaluated=2 * samples + len(explicit_pairs),
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
) -> np.ndarray:
    """Backflow of n pure orthogonal pairs, one private stream per sample.

    Sample i draws from the stream keyed (seed, i), so the output does not
    depend on how the samples are split into batches.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    return _streamed_backflows(stretch_ends(coeffs), _sampled(_pure_pair_stacks, seed), n_samples, rise_tolerance)


def histogram_backflow(coeffs: MapCoefficients, n_samples: int, bins: int, seed: int) -> BackflowHistogram:
    """Probability histogram of pure-pair backflows with a mixed-pair reference.

    Bins are uniform over [0, max(max_sampled, reference_value)]; the
    reference is the backflow of the excited-vs-ground-mixture pair under
    the same map. Stretch rises at the noise floor are discarded so monotone
    dynamics land exactly in the zero bin.
    """
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    reference = float(_streamed_backflows(stretch_ends(coeffs), _given([mixed_reference_pair()]), 1, RISE_TOLERANCE)[0])
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
