"""Memory-effect quantification through trace-distance backflow.

The backflow of a state pair is the total increase of the trace distance
along the evolution; maximizing it over initial pairs quantifies memory
effects in the dynamics. Optimal pairs are orthogonal, so candidate
generation is restricted to orthogonal pairs: random pure ones, random
mixed ones (the rescaled Jordan-Hahn split of a random traceless matrix,
so both states lie on the boundary, as optimal pairs do), and
user-supplied pairs. Sampled estimates are lower bounds on the true
maximum.

Every sampled pair is drawn a block at a time: pair i of a class is row
i mod B of a (B, 2, 3, 3) normal read of the stream (seed, *prefix, i // B),
which is what repeated public sampler calls on that stream read. The
measure's pure and mixed classes use the prefixes (0,) and (1,) and
B = SAMPLE_BLOCK; histogram samples use no prefix and B = 1, so sample i
is the stream (seed, i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .dynamics import (
    MapCoefficients,
    RateFunctions,
    _mapped_distances,
    apply_map_to_grid,
    lindblad_integrate,
    stretch_ends,
)
from .errors import BadDimension, DimensionMismatch, DomainError, ValidationError
from .statespace import (
    DensityMatrix,
    _clipped_distances,
    _density_stack,
    _mixed_pairs_from_ginibre,
    _orthogonal,
    _projectors,
    _pure_pairs_from_ginibre,
    _streams,
)

StatePair = tuple[DensityMatrix, DensityMatrix]

# Rises below this are treated as noise when estimating the measure, once
# per stretch between stretch ends; the raw backflow of a trajectory
# applies no threshold.
RISE_TOLERANCE = 1e-10


def _named_pairs() -> dict[str, StatePair]:
    """The named pairs in order, the reference ``mpair``, ``pure-ab`` and
    ``pure-a-plus``, from one validated stack of the four named states |a>,
    |b>, (|b> + |c>)/sqrt(2) and diag(0, 1/2, 1/2), each bit-identical to
    building it alone."""
    vectors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0] / np.sqrt(2.0)], dtype=complex)
    mixture = np.diag([0.0, 0.5, 0.5]).astype(complex)
    a, b, plus, mixed = map(DensityMatrix, _density_stack(np.concatenate([_projectors(vectors), mixture[None]])))
    return {"mpair": (a, mixed), "pure-ab": (a, b), "pure-a-plus": (a, plus)}


def mixed_reference_pair() -> StatePair:
    """Excited state vs the uniform mixture of both ground states."""
    return _named_pairs()["mpair"]


def pure_ab_pair() -> StatePair:
    """Excited state vs first ground state."""
    return _named_pairs()["pure-ab"]


def pure_a_plus_pair() -> StatePair:
    """Excited state vs the even ground-state superposition."""
    return _named_pairs()["pure-a-plus"]


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
    from their distances at the points of ``coeffs``, which
    :func:`~backflow.dynamics._mapped_distances` takes from each difference's
    invariants without mapping a matrix.

    Scorers pass ``stretch_ends(coeffs)``, whose points give the same rises
    as the whole grid, so ``rise_tolerance`` applies to each stretch's rise.
    """
    return _rise(_mapped_distances(coeffs, deltas), rise_tolerance)


# Candidates scored per batched call: max(1, SCORE_POINTS // kept points), so
# a call holds at most max(SCORE_POINTS, kept points) distances of evolved 3x3
# differences, about 0.15 kB each with the distance kernel's temporaries.
# A default-model class (3 points, 1365 a batch) is one stacked pass; a grid
# keeping over 2048 points scores one candidate a call. Scoring peaks
# (tracemalloc) at the 10^4-step cap: 2.7 MB for 1365 pure and 2.9 MB for 1365
# mixed candidates on the default model, where drawing the pairs sets the
# peak, and 0.7 MB for 64 candidates with tabulated rates 0.05 sin t + 0.02
# and 0.03 sin 2t + 0.01 (4465 points). Scoring mapped matrices took 0.26 kB
# a point and peaked at 1.2 MB there, and at 3.1-3.9 MB on a grid whose steps
# are nearly all mixed (9843 points).
SCORE_POINTS = 1 << 12


# A pair source maps (start, stop) to the (2, stop - start, 3, 3) state
# stacks of its pairs start..stop-1: first states, then second states.
PairSource = Callable[[int, int], np.ndarray]


# Pairs of a measure class read from one stream: block b of class c is the
# stream (seed, c, b), read in one standard_normal((SAMPLE_BLOCK, 2, 3, 3))
# call, 37 kB of normals. estimate_measure on the default model at 2000 steps
# (in-process, two sweeps of medians, 2-vCPU Xeon, mixed pairs in closed
# form) took 1.4-1.5 ms at 200 samples whatever the size from 64 to 2048; at
# 1000 samples 4.6-4.8 ms at 64, 4.6-4.7 ms at 256 and 4.6-4.9 ms at 1024; at
# 10^4 samples 41-44 ms at 64, 40-46 ms at 256 and 41-44 ms at 1024. Past 64
# the size is within noise; 256 keeps the payloads drawn so far.
# Histogram samples are read one row a stream, because the benchmark's
# eigvalsh oracle rebuilds sample i as the public sampler's pair from the
# stream (seed, i).
SAMPLE_BLOCK = 256


def _blocked(from_ginibre: Callable, seed: int, prefix: tuple[int, ...], block: int) -> PairSource:
    """The pairs built by ``from_ginibre`` from ``block``-row reads: pair i
    from row i mod ``block`` of the (block, 2, 3, 3) normal read of the
    stream (seed, *prefix, i // block).

    The blocks are read into one array through one generator moved from
    stream to stream, so a call opens one generator whatever its size. The
    last block is read only up to the last pair asked for, a prefix of its
    full read, so a class whose size is not a multiple of ``block`` does not
    read the rest of its last block.
    """

    def source(start: int, stop: int) -> np.ndarray:
        first = start // block
        ginibre = np.empty((stop - first * block, 2, 3, 3))
        rows = range(0, len(ginibre), block)
        for rng, row in zip(_streams(seed, prefix, first, first + len(rows)), rows):
            rng.standard_normal(out=ginibre[row : row + block])
        return from_ginibre(ginibre[start - first * block :])

    return source


def _given(states: np.ndarray) -> PairSource:
    """The pairs of a (2, n, 3, 3) stack of first and second states."""
    return lambda start, stop: states[:, start:stop]


def _scored_chunks(
    ends: MapCoefficients, source: PairSource, n: int, rise_tolerance: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs 0..n-1 of ``source`` a drawn chunk at a time, each chunk's
    (2, m, 3, 3) states with their m backflows at the stretch ends ``ends``,
    scored ``max(1, SCORE_POINTS // kept points)`` at a time.

    The pairs are drawn in chunks of whole batches, about SCORE_POINTS // 8
    (512) pairs where the batch is smaller, so a grid keeping many points
    does not pay a stream move and a stacked build per few candidates.
    The floor is where a sweep levels off: a 10^4-sample histogram on
    tabulated rates (897 kept points) took 1.7 s unchunked,
    1.2 s at 64, 1.1 s at 512 and 1024, while its traced peak grew from
    1.2 to 1.3 MB at 512, 1.6 MB at 1024 and 2.9 MB at 2048.

    Every source is drawn in chunks of whole SAMPLE_BLOCKs, rounded down but
    at least one, so a measure class reads each of its blocks once.
    """
    batch = max(1, SCORE_POINTS // ends.grid.size)
    chunk = batch * max(1, SCORE_POINTS // 8 // batch)
    chunk = max(SAMPLE_BLOCK, chunk // SAMPLE_BLOCK * SAMPLE_BLOCK)
    for first in range(0, n, chunk):
        states = source(first, min(first + chunk, n))
        deltas = np.subtract(*states)
        values = np.empty(len(deltas))
        for start in range(0, len(deltas), batch):
            values[start : start + batch] = _batched_backflows(ends, deltas[start : start + batch], rise_tolerance)
        yield states, values


def _streamed_backflows(ends: MapCoefficients, source: PairSource, n: int, rise_tolerance: float) -> np.ndarray:
    """Backflows of the pairs 0..n-1 of ``source``, scored as :func:`_scored_chunks` scores them."""
    # filled in place, since concatenating the chunks would hold them and
    # the result at once, two 80 MB copies at the histogram's sample cap
    values = np.empty(n)
    first = 0
    for _, part in _scored_chunks(ends, source, n, rise_tolerance):
        values[first : first + len(part)] = part
        first += len(part)
    return values


def _first_maximum(chunks: Iterator[tuple[np.ndarray, np.ndarray]]) -> tuple[float, np.ndarray]:
    """The largest backflow of a class scored in ``chunks`` and a read-only
    (2, 3, 3) copy of its first maximizing pair: the first maximum of each
    chunk, kept while no later chunk holds a strictly greater value."""
    best_value, best = -np.inf, None
    for states, values in chunks:
        k = int(np.argmax(values))
        if best is None or values[k] > best_value:
            best_value, best = float(values[k]), states[:, k].copy()
    best.setflags(write=False)
    return best_value, best


def _check_candidates(pairs: Sequence[StatePair], where: Callable[[int], str]) -> np.ndarray:
    """Reject candidates the scorer cannot take, each of which must be two
    orthogonal 3x3 states, naming the first faulty pair ``where(index)``;
    returns the pairs as a (2, n, 3, 3) stack of first and second states.

    The shapes are checked first, then the orthogonality of the pairs before
    the first bad shape, through one stacked distance call, so the first
    fault in input order is the one raised.
    """
    shapes = [[rho.entries.shape for rho in pair] for pair in pairs]
    sized = next((idx for idx, shape in enumerate(shapes) if shape != [(3, 3), (3, 3)]), len(pairs))
    states = np.array([[rho.entries for rho in pair] for pair in pairs[:sized]], dtype=complex).reshape(-1, 2, 3, 3)
    states = states.swapaxes(0, 1)
    apart = _orthogonal(np.subtract(*states))
    if not apart.all():
        idx = int(np.argmin(apart))
        raise ValidationError(f"{where(idx)} is not orthogonal; the maximization is restricted to orthogonal pairs")
    if sized < len(pairs):
        raise BadDimension(f"{where(sized)} is not a pair of 3x3 states, got shapes {shapes[sized]}")
    return states


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
    Random candidate i of class c (0 pure, 1 mixed) is row i mod B of the
    stream (seed, c, i // B), B = SAMPLE_BLOCK: the (i mod B)-th pair that
    the public sampler draws from that stream. Histogram samples follow the
    same rule with no class tag and B = 1.
    The returned estimate is the largest backflow found, the first maximum
    over the classes in that order, and a lower bound on the true maximum.
    """
    if samples < 0:
        raise DomainError(f"samples must be non-negative, got {samples}")

    explicit = _check_candidates(explicit_pairs, lambda idx: f"explicit candidate pair {idx}")

    ends = stretch_ends(coeffs)
    best_value = -1.0
    best_pair: np.ndarray | None = None
    breakdown: dict[str, float] = {}
    # each class is scored in stacked chunks and keeps its first maximum as
    # it goes, so no candidate list is kept and no candidate drawn twice
    for label, source, n in (
        ("pure", _blocked(_pure_pairs_from_ginibre, seed, (0,), SAMPLE_BLOCK), samples),
        ("mixed", _blocked(_mixed_pairs_from_ginibre, seed, (1,), SAMPLE_BLOCK), samples),
        ("explicit", _given(explicit), len(explicit_pairs)),
    ):
        if n == 0:
            continue
        breakdown[label], pair = _first_maximum(_scored_chunks(ends, source, n, RISE_TOLERANCE))
        if breakdown[label] > best_value:
            best_value, best_pair = breakdown[label], pair

    if best_pair is None:
        raise DomainError("no candidates were evaluated; give samples >= 1 or an explicit pair")

    return MeasureResult(
        estimate=best_value,
        best_pair=(DensityMatrix(best_pair[0]), DensityMatrix(best_pair[1])),
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

    Sample i is the pair the public sampler draws from the stream keyed
    (seed, i): the block rule of :func:`estimate_measure`'s classes with no
    class tag and B = 1. So the output does not depend on how the samples
    are split into batches.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    pairs = _blocked(_pure_pairs_from_ginibre, seed, (), 1)
    return _streamed_backflows(stretch_ends(coeffs), pairs, n_samples, rise_tolerance)


def histogram_backflow(coeffs: MapCoefficients, n_samples: int, bins: int, seed: int) -> BackflowHistogram:
    """Probability histogram of pure-pair backflows with a mixed-pair reference.

    Bins are uniform over [0, max(max_sampled, reference_value)]; the
    reference is the backflow of the excited-vs-ground-mixture pair under
    the same map. Stretch rises at the noise floor are discarded so monotone
    dynamics land exactly in the zero bin.
    """
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    ends = stretch_ends(coeffs)
    rho1, rho2 = mixed_reference_pair()
    reference = float(_batched_backflows(ends, (rho1.entries - rho2.entries)[None], RISE_TOLERANCE)[0])
    # the stretch ends of the stretch ends are the same points, so the
    # samples are scored on them without a second search of the full grid
    values = sampled_backflows(ends, n_samples, seed, rise_tolerance=RISE_TOLERANCE)
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
