"""Property suites for the structural state-pair theorems.

Each check tests an exact structural claim at a numerical bound, and
``_CHECKS`` declares every check's relation and bound once. A suite feeds
its values to a ``_Worst`` accumulator, which reports the worst value seen
per check. The metric, Jordan-Hahn, translation and backflow-scaling suites
draw seeded random instances; ``dynamics_suite`` checks the preset's map
coefficients on the whole time grid and the linear map on a spanning basis,
and draws only its distance-contraction pairs. Instance i of dimension N
draws from its own stream ``rng_stream(seed, tag, N, i)``, with tag 10
(metric), 20 (Jordan-Hahn), 30 (translation) or 40 (backflow scaling, N = 3);
contraction pair i draws from ``(seed, 50, 3, i)``. So an instance's values
depend on its key alone, not on the block it is drawn in or on how many
numbers another instance or check reads. Random states follow the induced
law of :func:`sample_random_state`. The suites back the ``verify`` CLI
command and the acceptance tests.

The state-space suites (metric, Jordan-Hahn, translation) run at the
requested dimensions and map no state. The Λ-map suites (backflow scaling,
dynamics) run at dimension 3, where the paper's closed-form three-level map
exists, whatever dimensions are requested.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .dynamics import (
    MapCoefficients,
    _mapped_distances,
    _quadrature,
    _without_integrals,
    apply_map_to_grid,
    lambda_map_coefficients,
    lindblad_integrate,
    make_grid,
    sinusoidal_rates,
    stretch_ends,
    validate_cpt,
)
from .measure import SCORE_POINTS, _streamed_backflows
from .statespace import (
    TOL_ORTH,
    TOL_PSD,
    DensityMatrix,
    _density_stack,
    _haar_from_ginibre,
    _jordan_hahn_stack,
    _mixed_pairs_from_ginibre,
    _random_state_stack,
    _rescaled_pairs,
    _streams,
    _trace_distances,
    pure_state,
    rng_stream,
)
from .translation import _translatable, _translations, epsilon_upper_bound, quadratic_bound


@dataclass
class PropertyCheck:
    """One verified property: worst observed deviation against its bound."""

    name: str
    passed: bool
    worst: float
    bound: float
    trials: int


# name -> (relation, bound) in report order; a check passes when its worst
# value stands in the relation to the bound
_CHECKS: dict[str, tuple[str, float]] = {
    # metric_suite
    "metric-symmetry": ("<=", 0.0),
    "metric-self-distance": ("<=", 0.0),
    "metric-triangle": ("<=", 1e-12),
    "metric-unitary-invariance": ("<=", 1e-10),
    # jordan_hahn_suite
    "jordan-hahn-reconstruction": ("<=", 1e-12),
    "jordan-hahn-traces-equal-distance": ("<=", 1e-10),
    "jordan-hahn-parts-positive": ("<=", TOL_PSD),
    "jordan-hahn-parts-orthogonal": ("<=", TOL_PSD),
    "rescale-unit-distance": ("<=", 1e-10),
    "rescale-difference-law": ("<=", 1e-12),
    "overlapping-pairs-below-unit-distance": ("<", 1.0 - 1e-8),
    "orthogonal-pairs-unit-distance": ("<=", 1e-12),
    "orthogonal-pairs-on-boundary": ("<=", TOL_PSD),
    # translation_suite
    "translate-strictly-interior": (">", TOL_PSD),  # minimum eigenvalue across translated states
    "translate-difference-preserved": ("<=", 1e-12),
    "shift-traceless": ("<=", 1e-12),
    "shift-hermitian": ("<=", 1e-12),
    "shift-nonzero": (">", 0.0),  # smallest shift operator norm
    "orthogonal-pairs-rejected": ("<=", 0.0),  # count of orthogonal pairs accepted for translation
    "quadratic-bound-positive": (">", 0.0),  # minimum of the positivity polynomial near the bound edge
    "epsilon-bound-monotone": (">", 0.0),  # smallest increment of the bound in the minimum weight
    # backflow_scaling_suite
    "rescaled-backflow-law": ("<=", 1e-8),
    "stretched-backflow-law": ("<=", 1e-8),
    "translate-trajectory-invariance": ("<=", 1e-10),
    # dynamics_suite
    "cpt-identity": ("<=", 1e-8),
    "cpt-g-nonnegative": (">=", -1e-10),  # minimum feeding coefficient
    "closed-form-rate-integrals": ("<=", 1e-7),
    "closed-form-feeding": ("<=", 1e-7),
    "closed-form-coherence-decay": ("<=", 1e-7),
    "distance-contraction-bound": ("<=", 1e-9),
    "period-return-identity": ("<=", 1e-6),
    "quadrature-step-halving": ("<", 1e-6),
    "integrator-agreement": ("<=", 1e-6),
}

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class _Worst:
    """Worst value seen per check: the largest, from 0.0, under an upper
    bound and the smallest, from +inf, under a lower one. A NaN stays and
    fails its check."""

    def __init__(self) -> None:
        self._values: dict[str, float] = {}

    def _get(self, name: str) -> tuple[bool, float]:
        lower = _CHECKS[name][0].startswith(">")
        return lower, self._values.get(name, math.inf if lower else 0.0)

    def see(self, name: str, *values: float) -> None:
        lower, current = self._get(name)
        new = [float(v) for v in values]
        self._values[name] = math.nan if any(map(math.isnan, new)) else (min if lower else max)([current, *new])

    def checks(self, names: str, trials: int) -> list[PropertyCheck]:
        """The checks named in the space-separated ``names``, in that order."""
        out = []
        for name in names.split():
            relation, bound = _CHECKS[name]
            worst = self._get(name)[1]
            out.append(PropertyCheck(name, _RELATIONS[relation](worst, bound), worst, bound, trials))
        return out


# Matrix entries per stacked block: a block holds at most this many entries
# per state across its triples or pairs, so the few dozen N x N intermediates
# of a triple stay a few MB per block at any dimension and trial count.
_BLOCK_ENTRIES = 1 << 12


def _block_sizes(count: int, dim: int) -> list[int]:
    """Sizes of the blocks that draw ``count`` triples or pairs of dim x dim states."""
    size = max(1, _BLOCK_ENTRIES // (dim * dim))
    return [min(size, count - start) for start in range(0, count, size)]


def _random_states(
    dim: int, rngs: Iterable[np.random.Generator], count: int, tail: Callable = lambda rng, dim: None
) -> tuple[np.ndarray, list]:
    """Each stream's ``count`` ranks in 1..N, then a (count, 2, N, N) normal
    block, whose Ginibre parts become states of those ranks as in
    :func:`sample_random_state`, then ``tail(rng, N)``. Returns the (n,
    count, N, N) states, built and validated as one stack, and the tails.

    Each instance keeps a stream of its own, not a row of a block drawn in
    one call as measure's candidates are: its ranks, normals and tail are
    read interleaved, as the one-trial references read them through the
    public samplers."""
    ranks, normals, tails = zip(
        *[(rng.integers(1, dim + 1, count), rng.standard_normal((count, 2, dim, dim)), tail(rng, dim)) for rng in rngs]
    )
    states = _random_state_stack(np.concatenate(ranks), np.concatenate(normals))
    return states.reshape(len(tails), count, dim, dim), list(tails)


def _pair_blocks(seed: int, tag: int, dims, trials: int, tail: Callable) -> Iterator[tuple]:
    """The trials of the suite with stream tag ``tag`` in blocks of
    :func:`_block_sizes`, dimension by dimension: each block's dimension,
    its streams' random pairs, each drawn again from its stream until
    :func:`_accepted`, as a (2, n, N, N) stack, their (n,) trace distances,
    and the ``tail(rng, dim)`` each stream reads after its accepted pair."""
    for dim in dims:
        start = 0
        for n in _block_sizes(trials, dim):
            states, tails = _random_states(dim, _streams(seed, (tag, dim), start, start + n), 2, tail)
            pairs = states.swapaxes(0, 1).copy()
            dist = _trace_distances(pairs[0] - pairs[1])
            for j in np.flatnonzero(~_accepted(dist)):  # about 1e-8 a trial
                rng = rng_stream(seed, tag, dim, start + j)
                for _ in range(100):
                    pairs[:, j] = _random_states(dim, [rng], 2)[0][0]
                    dist[j] = _trace_distances(pairs[:1, j] - pairs[1:, j])[0]
                    if _accepted(dist[j]):
                        break
                else:
                    raise RuntimeError("failed to sample a non-orthogonal pair")  # pragma: no cover
                tails[j] = tail(rng, dim)
            yield dim, pairs, dist, tails
            start += n


def _accepted(distances: np.ndarray | float) -> np.ndarray | bool:
    """Whether pairs at these distances are neither orthogonal nor nearly equal."""
    return (1e-6 < distances) & (distances < 1.0 - TOL_ORTH)


def _trajectory(coeffs: MapCoefficients, pairs: np.ndarray, reduce: Callable) -> np.ndarray:
    """``reduce`` of the (n, k, grid) trace-distance trajectories of a
    (2, n, k, 3, 3) stack of pairs under the three-level map, k for each of
    n instances: each pair's difference is mapped once, to every grid point,
    by :func:`~backflow.dynamics._mapped_distances`, and the trajectories are
    built and reduced max(1, SCORE_POINTS // (k * grid size)) instances at a
    time, so memory does not grow with n."""
    size = max(1, SCORE_POINTS // (pairs.shape[2] * coeffs.grid.size))
    deltas = pairs[0] - pairs[1]
    blocks = np.split(deltas, range(size, len(deltas), size))
    return np.concatenate([reduce(_mapped_distances(coeffs, b)) for b in blocks])


def metric_suite(seed: int, dims=(2, 3, 4), triples: int = 200) -> list[PropertyCheck]:
    """Metric axioms of the trace distance plus unitary invariance, in blocks
    of :func:`_block_sizes`."""
    worst = _Worst()
    for dim in dims:
        streams = _streams(seed, (10, dim), 0, triples)
        for n in _block_sizes(triples, dim):
            _metric_block(worst, dim, islice(streams, n))
    return worst.checks(
        "metric-symmetry metric-self-distance metric-triangle metric-unitary-invariance", len(dims) * triples
    )


def _metric_block(worst: _Worst, dim: int, rngs: Iterable[np.random.Generator]) -> None:
    """Check one triple per stream: three random states and a Haar rotation
    from the Ginibre block after them, built and compared as a stack, each
    bit-identical to handling its triple alone."""
    states, tails = _random_states(dim, rngs, 3, lambda rng, dim: rng.standard_normal((2, dim, dim)))
    a, b, c = states.swapaxes(0, 1)
    n = len(states)
    u = _haar_from_ginibre(np.array(tails))
    u_adjoint = u.conj().swapaxes(-1, -2)
    ua, ub = _density_stack(np.concatenate([u @ a @ u_adjoint, u @ b @ u_adjoint])).reshape(2, n, dim, dim)
    deltas = np.stack([a - b, b - a, a - a, a - c, b - c, ua - ub], axis=1)
    dab, dba, daa, dac, dbc, drot = _trace_distances(deltas).T
    worst.see("metric-symmetry", *np.abs(dab - dba))
    worst.see("metric-self-distance", *daa)
    worst.see("metric-triangle", *(dac - (dab + dbc)))
    worst.see("metric-unitary-invariance", *np.abs(drot - dab))


def jordan_hahn_suite(seed: int, dims=(2, 3, 4), trials: int = 100) -> list[PropertyCheck]:
    """Split/rescale identities and the orthogonality-distance equivalence,
    as stacks: each trial's non-orthogonal pair, then two full-rank states
    and a mixed pair."""
    worst = _Worst()
    for dim, pairs, dist, tails in _pair_blocks(
        seed, 20, dims, trials, lambda rng, dim: rng.standard_normal((3, 2, dim, dim))
    ):
        normals = np.array(tails)
        delta = pairs[0] - pairs[1]
        parts, weights = _jordan_hahn_stack(delta)
        p1, p2 = parts
        worst.see("jordan-hahn-reconstruction", *np.abs(delta - (p1 - p2)).max(axis=(1, 2)))
        worst.see("jordan-hahn-traces-equal-distance", *np.abs(parts.trace(axis1=2, axis2=3).real - dist).ravel())
        # the worst value starts at 0.0, so a positive part reads 0
        worst.see("jordan-hahn-parts-positive", *-np.linalg.eigvalsh(parts)[..., 0].ravel())
        worst.see("jordan-hahn-parts-orthogonal", *np.linalg.norm(p1 @ p2, 2, axis=(1, 2)))

        (sigma1, sigma2), lam = _rescaled_pairs(pairs, parts, weights)
        worst.see("rescale-unit-distance", *np.abs(_trace_distances(sigma1 - sigma2) - 1.0))
        worst.see("rescale-difference-law", *np.abs((sigma1 - sigma2) - delta / lam[:, None, None]).max(axis=(1, 2)))

        # full-rank pairs have overlapping supports by construction
        full = _random_state_stack([dim] * 2 * len(delta), normals[:, :2].reshape(-1, 2, dim, dim))
        worst.see("overlapping-pairs-below-unit-distance", *_trace_distances(full[::2] - full[1::2]))
        orth = _mixed_pairs_from_ginibre(normals[:, 2])
        orth_dist = _trace_distances(orth[0] - orth[1])
        worst.see("orthogonal-pairs-unit-distance", *np.abs(orth_dist - 1.0))
        # the pairs is_orthogonal passes, by their smallest eigenvalues
        boundary = np.linalg.eigvalsh(orth[:, orth_dist >= 1.0 - TOL_ORTH])[..., 0]
        worst.see("orthogonal-pairs-on-boundary", *boundary.ravel())
    return worst.checks(
        "jordan-hahn-reconstruction jordan-hahn-traces-equal-distance jordan-hahn-parts-positive"
        " jordan-hahn-parts-orthogonal rescale-unit-distance rescale-difference-law"
        " overlapping-pairs-below-unit-distance orthogonal-pairs-unit-distance orthogonal-pairs-on-boundary",
        len(dims) * trials,
    )


def translation_suite(
    seed: int, dims=(2, 3, 4), trials: int = 100, inject_fault: str | None = None
) -> list[PropertyCheck]:
    """Joint-translation guarantees for non-orthogonal pairs, as stacks: each
    trial's non-orthogonal pair, jointly translated, then a mixed pair,
    which must be rejected. No state is mapped here; a translate's
    trajectory is checked by :func:`backflow_scaling_suite`, under the
    three-level map.

    ``inject_fault='shift-sign'`` flips the sign of the shift operator
    before applying it, which must make the interior check fail — a
    self-test that the suite can actually detect broken constructions.
    """
    worst = _Worst()
    accepted = 0  # orthogonal pairs wrongly accepted for translation
    for dim, pairs, _, tails in _pair_blocks(
        seed, 30, dims, trials, lambda rng, dim: rng.standard_normal((2, dim, dim))
    ):
        selection, eps_max, shifts, translated, _ = _translations(pairs, 0.5)
        # a pair that is not strictly interior stays as it is, and so does
        # each pair under the fault; the interior check records them
        moved = pairs + shifts if inject_fault == "shift-sign" else translated
        worst.see("translate-strictly-interior", *np.linalg.eigvalsh(moved)[..., 0].ravel())
        drift = np.abs((moved[0] - moved[1]) - (pairs[0] - pairs[1])).max(axis=(1, 2))
        worst.see("translate-difference-preserved", *drift)

        traces = shifts.trace(axis1=1, axis2=2)
        worst.see("shift-traceless", *np.abs(traces.real), *np.abs(traces.imag))
        worst.see("shift-hermitian", *np.abs(shifts - shifts.conj().swapaxes(1, 2)).max(axis=(1, 2)))
        worst.see("shift-nonzero", *np.linalg.norm(shifts, 2, axis=(1, 2)))

        eps = 0.99 * eps_max
        for weight in (selection.weight1, selection.weight2):
            # exact minimum over [0, 1]: the parabola vertex or an endpoint
            vertex = np.clip(eps / (weight * (1.0 + selection.overlap)), 0.0, 1.0)
            for x in (0.0, vertex, 1.0):
                worst.see("quadratic-bound-positive", *quadratic_bound(weight, selection.overlap, dim, eps, x))

        accepted += np.count_nonzero(_translatable(_mixed_pairs_from_ginibre(np.array(tails))))
    worst.see("orthogonal-pairs-rejected", accepted)

    # closed-form monotonicity of the admissible shift bound
    weights = np.linspace(0.05, 1.0, 40)
    for alpha in (0.2, 0.6, 0.95):
        for dim in dims:
            bounds = [epsilon_upper_bound(alpha, dim, float(w)) for w in weights]
            worst.see("epsilon-bound-monotone", np.diff(bounds).min())

    return worst.checks(
        "translate-strictly-interior translate-difference-preserved shift-traceless shift-hermitian shift-nonzero"
        " orthogonal-pairs-rejected quadratic-bound-positive",
        len(dims) * trials,
    ) + worst.checks("epsilon-bound-monotone", len(weights))


def _max_admissible_stretch(rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Largest s with rho2 + s*(rho2 - rho1) still positive (rho2 interior),
    for (n, N, N) stacks of states."""
    values, vectors = np.linalg.eigh(rho2)
    inv_sqrt = (vectors / np.sqrt(values)[:, None, :]) @ vectors.conj().swapaxes(-1, -2)
    pencil = inv_sqrt @ (rho2 - rho1) @ inv_sqrt
    top = np.linalg.eigvalsh(pencil)[:, 0]  # most negative direction
    with np.errstate(divide="ignore"):
        return np.where(top >= 0.0, np.inf, -1.0 / top)


def backflow_scaling_suite(seed: int, coeffs: MapCoefficients, trials: int = 100) -> list[PropertyCheck]:
    """Backflow scaling laws under rescaling and convex stretching, and the
    trajectory's invariance under joint translation, for dimension-3 pairs
    under the three-level map, as stacks: each trial's non-orthogonal pair
    against its rescaled pair and its joint translate, then a full-rank state
    and a state of random rank against their stretched pair. Backflows are
    scored as ``measure`` scores them, at the stretch ends; a pair and its
    translate are compared point by point over the whole grid."""
    worst = _Worst()
    ends = stretch_ends(coeffs)
    for dim, pairs, _, tails in _pair_blocks(
        seed,
        40,
        (3,),
        trials,
        lambda rng, dim: (
            rng.standard_normal((2, dim, dim)),
            rng.integers(1, dim + 1),
            rng.standard_normal((2, dim, dim)),
        ),
    ):
        parts, weights = _jordan_hahn_stack(pairs[0] - pairs[1])
        rescaled, lam = _rescaled_pairs(pairs, parts, weights)
        full, ranks, ginibre = map(np.array, zip(*tails))
        interior, other = _random_state_stack([dim] * len(ranks), full), _random_state_stack(ranks, ginibre)
        stretch = (1.0 + 0.5 * np.minimum(_max_admissible_stretch(other, interior), 20.0))[:, None, None]
        mixed = _density_stack((1.0 - stretch) * other + stretch * interior)
        stacked = np.concatenate([pairs, rescaled, [other, interior], [other, mixed]], axis=1)
        scores = _streamed_backflows(ends, lambda start, stop: stacked[:, start:stop], stacked.shape[1], 0.0)
        bf, bf_rescaled, bf_base, bf_stretched = scores.reshape(4, -1)
        worst.see("rescaled-backflow-law", *np.abs(bf_rescaled - bf / lam))
        worst.see("stretched-backflow-law", *np.abs(bf_stretched - stretch[:, 0, 0] * bf_base))
        translated = _translations(pairs, 0.5)[3]
        invariance = _trajectory(
            coeffs, np.stack([pairs, translated], axis=2), lambda d: np.abs(d[:, 0] - d[:, 1]).max(axis=-1)
        )
        worst.see("translate-trajectory-invariance", *invariance)
    return worst.checks("rescaled-backflow-law stretched-backflow-law translate-trajectory-invariance", trials)


def spanning_states() -> list[DensityMatrix]:
    """Nine pure 3-level states whose projectors span the Hermitian 3x3 matrices.

    |a>, |b>, |c> span the diagonal, and (|i> + |j>)/sqrt(2) and
    (|i> + i|j>)/sqrt(2) add the real and imaginary part of each coherence
    i < j. The map is linear, so a linear property that holds on these nine
    holds for every state.
    """
    eye = np.eye(3)
    vectors = list(eye)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        vectors += [eye[i] + eye[j], eye[i] + 1j * eye[j]]
    return [pure_state(v) for v in vectors]


def dynamics_suite(seed: int, coeffs: MapCoefficients, contraction_pairs: int = 20) -> list[PropertyCheck]:
    """Validity, closed-form oracles, and integrator agreement for the preset rates.

    ``coeffs`` must be the preset's map. It is built from the preset's
    closed forms, so the validity, closed-form and step-halving checks run
    on the quadrature of the same rates on the same grid, the path that
    tabulated rates take. Period return and integrator agreement are
    checked on :func:`spanning_states`, which covers every state by
    linearity, while distance contraction is not linear and is checked on
    ``contraction_pairs`` random pairs.
    """
    rates = sinusoidal_rates()
    grid = coeffs.grid

    worst = _Worst()
    integrated = _without_integrals(rates)
    quadrature = lambda_map_coefficients(integrated, grid)
    report = validate_cpt(quadrature)
    worst.see("cpt-identity", report.worst_identity)
    worst.see("cpt-g-nonnegative", report.min_g)
    d_exact = 0.03 * (1.0 - np.cos(grid))
    g_exact = 0.5 * (1.0 - np.exp(-2.0 * d_exact))
    decay, spread = _quadrature(integrated, grid)
    worst.see("closed-form-rate-integrals", np.abs(decay - 2.0 * d_exact).max(), np.abs(spread).max())
    worst.see("closed-form-feeding", np.abs(quadrature.g1 - g_exact).max(), np.abs(quadrature.g2 - g_exact).max())
    worst.see("closed-form-coherence-decay", np.abs(quadrature.f - np.exp(-d_exact)).max())

    # the pairs are drawn a block at a time, and their full-grid trajectories
    # (about 0.3 MB a pair) are held as :func:`_trajectory` bounds them
    streams = _streams(seed, (50, 3), 0, contraction_pairs)
    for n in _block_sizes(contraction_pairs, 3):
        pairs = _random_states(3, islice(streams, n), 2)[0].swapaxes(0, 1)[:, :, None]
        rises = _trajectory(coeffs, pairs, lambda d: (d - d[..., :1]).max(axis=-1))
        worst.see("distance-contraction-bound", *rises.ravel())

    # freed before the basis evolution below; this quadrature sets the peak
    # memory (3.5 MB traced by tracemalloc; the evolution and its closed-form
    # comparison below peak at 3.3 MB)
    halved = lambda_map_coefficients(integrated, make_grid(grid[-1], 2 * (grid.size - 1)))
    worst.see(
        "quadrature-step-halving",
        *(abs(getattr(halved, k)[-1] - getattr(quadrature, k)[-1]) for k in ("g1", "g2", "f")),
    )
    del halved, quadrature

    # the closed form one state at a time, so the integrated basis is the
    # one full-grid stack held
    basis = spanning_states()
    for state, evolved in zip(basis, lindblad_integrate(rates, basis, grid)):
        closed = apply_map_to_grid(coeffs, state.entries)
        worst.see("period-return-identity", np.abs(closed[-1] - state.entries).max())
        worst.see("integrator-agreement", np.abs(closed - evolved).max())

    return (
        worst.checks(
            "cpt-identity cpt-g-nonnegative closed-form-rate-integrals closed-form-feeding closed-form-coherence-decay",
            grid.size,
        )
        + worst.checks("distance-contraction-bound", contraction_pairs)
        + worst.checks("period-return-identity", len(basis))
        + worst.checks("quadrature-step-halving", 2)
        + worst.checks("integrator-agreement", len(basis))
    )


def run_all(
    seed: int,
    dims=(2, 3, 4),
    trials: int = 100,
    inject_fault: str | None = None,
) -> list[PropertyCheck]:
    """Every suite in order: the state-space suites at ``dims``, the Λ-map
    suites at dimension 3, sharing one dimension-3 map."""
    coeffs = lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, 2000))
    checks: list[PropertyCheck] = []
    checks += metric_suite(seed, dims, max(2 * trials, 200))
    checks += jordan_hahn_suite(seed, dims, trials)
    checks += translation_suite(seed, dims, trials, inject_fault)
    checks += backflow_scaling_suite(seed, coeffs, trials)
    checks += dynamics_suite(seed, coeffs)
    return checks
