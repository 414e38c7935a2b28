"""Property suites for the structural state-pair theorems.

Each check tests an exact structural claim at a numerical bound, and
``_CHECKS`` declares every check's relation and bound once. A suite feeds
its values to a ``_Worst`` accumulator, which reports the worst value seen
per check. The metric, Jordan-Hahn, translation and backflow-scaling suites
draw seeded random instances; ``dynamics_suite`` checks the preset's map
coefficients on the whole time grid and the linear map on a spanning basis,
and draws only its distance-contraction pairs. Instance i of dimension N
draws from its own stream ``rng_stream(seed, tag, N, i)``, with tag 10
(metric), 20 (Jordan-Hahn), 30 (translation) or 40 (backflow scaling);
contraction pair i draws from ``(seed, 50, 3, i)``. So an instance's values
depend on its key alone, not on the block it is drawn in or on how many
numbers another instance or check reads. Random states follow the induced
law of :func:`sample_random_state`. The suites back the ``verify`` CLI
command and the acceptance tests.

Dimension-3 checks run under the closed-form three-level map; other
dimensions use a time-dependent depolarizing map (linear and trace
preserving, with a non-monotone noise weight so backflow is nontrivial),
since the structural laws hold for any linear map family. That map scales
an equal-trace difference by one factor per time, so its distance
trajectory is that factor times one trace distance (:func:`_trajectory`);
:func:`depolarize_stack` applies the map itself and is the reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .dynamics import (
    MapCoefficients,
    _without_integrals,
    apply_map_to_grid,
    lambda_map_coefficients,
    lindblad_integrate,
    make_grid,
    sinusoidal_rates,
    validate_cpt,
)
from .errors import OrthogonalPair, PositivityFailure
from .measure import TraceDistanceTrajectory, backflow, trajectory_from_states
from .statespace import (
    TOL_ORTH,
    TOL_PSD,
    DensityMatrix,
    _canonical_sign,
    _clipped_distances,
    _density_stack,
    _haar_from_ginibre,
    _random_state_stack,
    _rescale_parts,
    _streams,
    is_orthogonal,
    jordan_hahn,
    make_density_matrix,
    pure_state,
    rescale_pair,
    sample_orthogonal_mixed_pair,
    sample_random_state,
    trace_distance,
)
from .translation import (
    build_shift_operator,
    epsilon_upper_bound,
    is_jointly_translatable,
    jointly_translate,
    quadratic_bound,
)


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
    "translate-trajectory-invariance": ("<=", 1e-10),
    "shift-traceless": ("<=", 1e-12),
    "shift-hermitian": ("<=", 1e-12),
    "shift-nonzero": (">", 0.0),  # smallest shift operator norm
    "orthogonal-pairs-rejected": ("<=", 0.0),  # count of orthogonal pairs accepted for translation
    "quadratic-bound-positive": (">", 0.0),  # minimum of the positivity polynomial near the bound edge
    "epsilon-bound-monotone": (">", 0.0),  # smallest increment of the bound in the minimum weight
    # backflow_scaling_suite
    "rescaled-backflow-law": ("<=", 1e-8),
    "stretched-backflow-law": ("<=", 1e-8),
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
        self._values[name] = math.nan if any(map(math.isnan, new)) else (min if lower else max)(current, *new)

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
    dim: int, rngs: Iterable[np.random.Generator], count: int, blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each stream's ``count`` ranks in 1..N, then one (blocks, 2, N, N)
    normal block, blocks >= count. The first ``count`` Ginibre parts of each
    block become states of those ranks, as in :func:`sample_random_state`.
    Returns the (n, count, N, N) states, built and validated as one stack,
    and the (n, blocks, 2, N, N) normals."""
    draws = [(rng.integers(1, dim + 1, count), rng.standard_normal((blocks, 2, dim, dim))) for rng in rngs]
    normals = np.array([block for _, block in draws])
    ranks = np.concatenate([ranks for ranks, _ in draws])
    states = _random_state_stack(ranks, normals[:, :count].reshape(-1, 2, dim, dim))
    return states.reshape(len(draws), count, dim, dim), normals


def _random_nonorthogonal_pair(
    dim: int, rng: np.random.Generator
) -> tuple[DensityMatrix, DensityMatrix, float]:
    """Random pair that is neither orthogonal nor (nearly) equal, with its trace distance."""
    for _ in range(100):
        rho1, rho2 = (DensityMatrix(state) for state in _random_states(dim, [rng], 2, 2)[0][0])
        d = trace_distance(rho1, rho2)
        # not orthogonal: is_orthogonal tests d >= 1 - TOL_ORTH
        if 1e-6 < d < 1.0 - TOL_ORTH:
            return rho1, rho2, d
    raise RuntimeError("failed to sample a non-orthogonal pair")  # pragma: no cover


def depolarizing_weights(grid: np.ndarray) -> np.ndarray:
    """Noise weight 0.4*(1 - cos t): rises then returns, producing backflow."""
    return 0.4 * (1.0 - np.cos(grid))


def depolarize_stack(grid: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply the time-dependent depolarizer to one matrix over the grid."""
    m = np.asarray(matrix, dtype=complex)
    dim = m.shape[0]
    w = depolarizing_weights(grid)[:, None, None]
    uniform = np.trace(m) * np.eye(dim) / dim
    return (1.0 - w) * m + w * uniform


def _trajectory(coeffs: MapCoefficients, m1: np.ndarray, m2: np.ndarray) -> TraceDistanceTrajectory:
    """Trace-distance trajectory of two equal-trace matrices under the
    dim-appropriate map, on the coefficients' grid.

    Dimension 3 applies the three-level map to each matrix at every grid
    point. Elsewhere the depolarizer maps D = m1 - m2 to (1 - w(t)) D,
    because the uniform parts cancel when the traces are equal. The factor
    lies in [0.2, 1], so by homogeneity of the trace norm the distance at t
    is that factor times the initial distance: one trace distance gives the
    whole trajectory. Every caller passes two states or two jointly
    translated states, whose traces are equal.
    """
    grid = coeffs.grid
    if m1.shape[0] == 3:
        return trajectory_from_states(grid, apply_map_to_grid(coeffs, m1), apply_map_to_grid(coeffs, m2))
    distances = (1.0 - depolarizing_weights(grid)) * _clipped_distances(m1 - m2)
    return TraceDistanceTrajectory(grid=grid, distances=distances)


def metric_suite(seed: int, dims=(2, 3, 4), triples: int = 200) -> list[PropertyCheck]:
    """Metric axioms of the trace distance plus unitary invariance.

    Triple i of dimension N draws from the stream ``(seed, 10, N, i)``. Each
    dimension's triples run in blocks of :func:`_block_sizes`; the checks do
    not depend on the block size.
    """
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
    from its fourth Ginibre block, built and compared as a stack, each
    bit-identical to handling its triple alone."""
    states, normals = _random_states(dim, rngs, 3, 4)
    a, b, c = states.swapaxes(0, 1)
    n = len(states)
    u = _haar_from_ginibre(normals[:, 3])
    u_adjoint = u.conj().swapaxes(-1, -2)
    ua, ub = _density_stack(np.concatenate([u @ a @ u_adjoint, u @ b @ u_adjoint])).reshape(2, n, dim, dim)
    deltas = np.stack([a - b, b - a, a - a, a - c, b - c, ua - ub], axis=1)
    dab, dba, daa, dac, dbc, drot = _clipped_distances(_canonical_sign(deltas)).T
    worst.see("metric-symmetry", *np.abs(dab - dba))
    worst.see("metric-self-distance", *daa)
    worst.see("metric-triangle", *(dac - (dab + dbc)))
    worst.see("metric-unitary-invariance", *np.abs(drot - dab))


def jordan_hahn_suite(seed: int, dims=(2, 3, 4), trials: int = 100) -> list[PropertyCheck]:
    """Split/rescale identities and the orthogonality-distance equivalence."""
    worst = _Worst()
    for dim in dims:
        for rng in _streams(seed, (20, dim), 0, trials):
            rho1, rho2, dist = _random_nonorthogonal_pair(dim, rng)
            delta = rho1.entries - rho2.entries
            parts = jordan_hahn(rho1, rho2)
            p1, p2 = parts.positive_part.entries, parts.negative_part.entries
            worst.see("jordan-hahn-reconstruction", np.abs(delta - (p1 - p2)).max())
            worst.see(
                "jordan-hahn-traces-equal-distance",
                abs(float(np.trace(p1).real) - dist),
                abs(float(np.trace(p2).real) - dist),
            )
            # the worst value starts at 0.0, so a positive part reads 0
            worst.see("jordan-hahn-parts-positive", -np.linalg.eigvalsh(p1)[0], -np.linalg.eigvalsh(p2)[0])
            worst.see("jordan-hahn-parts-orthogonal", np.linalg.norm(p1 @ p2, 2))

            sigma1, sigma2, lam = _rescale_parts(rho1, rho2, parts)
            worst.see("rescale-unit-distance", abs(trace_distance(sigma1, sigma2) - 1.0))
            worst.see("rescale-difference-law", np.abs((sigma1.entries - sigma2.entries) - delta / lam).max())

            # full-rank pairs have overlapping supports by construction
            full1 = sample_random_state(dim, dim, rng)
            full2 = sample_random_state(dim, dim, rng)
            worst.see("overlapping-pairs-below-unit-distance", trace_distance(full1, full2))

            orth1, orth2 = sample_orthogonal_mixed_pair(dim, rng)
            worst.see("orthogonal-pairs-unit-distance", abs(trace_distance(orth1, orth2) - 1.0))
            if is_orthogonal(orth1, orth2):
                worst.see("orthogonal-pairs-on-boundary", orth1.min_eigenvalue, orth2.min_eigenvalue)
    return worst.checks(
        "jordan-hahn-reconstruction jordan-hahn-traces-equal-distance jordan-hahn-parts-positive"
        " jordan-hahn-parts-orthogonal rescale-unit-distance rescale-difference-law"
        " overlapping-pairs-below-unit-distance orthogonal-pairs-unit-distance orthogonal-pairs-on-boundary",
        len(dims) * trials,
    )


def translation_suite(
    seed: int,
    coeffs: MapCoefficients,
    dims=(2, 3, 4),
    trials: int = 100,
    inject_fault: str | None = None,
) -> list[PropertyCheck]:
    """Joint-translation guarantees for non-orthogonal pairs.

    ``inject_fault='shift-sign'`` flips the sign of the shift operator
    before applying it, which must make the interior check fail — a
    self-test that the suite can actually detect broken constructions.
    """
    flip = -1.0 if inject_fault == "shift-sign" else 1.0

    worst = _Worst()
    accepted = 0  # orthogonal pairs wrongly accepted for translation
    for dim in dims:
        for rng in _streams(seed, (30, dim), 0, trials):
            rho1, rho2, _ = _random_nonorthogonal_pair(dim, rng)
            translated = None
            if flip > 0:
                # exercise the real API; failures surface as non-interior
                try:
                    translated = jointly_translate(rho1, rho2, 0.5)
                except PositivityFailure:
                    pass  # subtract the shift by hand; the interior check records it
            if translated is None:
                construction = build_shift_operator(rho1, rho2, 0.5)
                shift = flip * construction.shift.entries
                m1, m2 = rho1.entries - shift, rho2.entries - shift
            else:
                hat1, hat2, construction = translated
                m1, m2 = hat1.entries, hat2.entries
            worst.see("translate-strictly-interior", np.linalg.eigvalsh(m1)[0], np.linalg.eigvalsh(m2)[0])
            worst.see("translate-difference-preserved", np.abs((m1 - m2) - (rho1.entries - rho2.entries)).max())
            base = _trajectory(coeffs, rho1.entries, rho2.entries).distances
            moved = _trajectory(coeffs, m1, m2).distances
            worst.see("translate-trajectory-invariance", np.abs(base - moved).max())

            a = construction.shift.entries
            worst.see("shift-traceless", abs(np.trace(a).real), abs(np.trace(a).imag))
            worst.see("shift-hermitian", np.abs(a - a.conj().T).max())
            worst.see("shift-nonzero", np.linalg.norm(a, 2))

            sel = construction.selection
            eps = 0.99 * construction.epsilon_max
            for weight in (sel.weight1, sel.weight2):
                # exact minimum over [0, 1]: the parabola vertex or an endpoint
                vertex = min(max(eps / (weight * (1.0 + sel.overlap)), 0.0), 1.0)
                worst.see(
                    "quadratic-bound-positive",
                    *(quadratic_bound(weight, sel.overlap, dim, eps, x) for x in (0.0, vertex, 1.0)),
                )

            orth = sample_orthogonal_mixed_pair(dim, rng)
            if is_jointly_translatable(*orth):
                accepted += 1
            try:
                jointly_translate(*orth)
                accepted += 1
            except OrthogonalPair:
                pass
    worst.see("orthogonal-pairs-rejected", accepted)

    # closed-form monotonicity of the admissible shift bound
    weights = np.linspace(0.05, 1.0, 40)
    for alpha in (0.2, 0.6, 0.95):
        for dim in dims:
            bounds = [epsilon_upper_bound(alpha, dim, float(w)) for w in weights]
            worst.see("epsilon-bound-monotone", np.diff(bounds).min())

    return worst.checks(
        "translate-strictly-interior translate-difference-preserved translate-trajectory-invariance"
        " shift-traceless shift-hermitian shift-nonzero orthogonal-pairs-rejected quadratic-bound-positive",
        len(dims) * trials,
    ) + worst.checks("epsilon-bound-monotone", len(weights))


def _max_admissible_stretch(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Largest s with rho2 + s*(rho2 - rho1) still positive (rho2 interior)."""
    values, vectors = np.linalg.eigh(rho2.entries)
    inv_sqrt = (vectors / np.sqrt(values)) @ vectors.conj().T
    pencil = inv_sqrt @ (rho2.entries - rho1.entries) @ inv_sqrt
    top = float(np.linalg.eigvalsh(pencil)[0])  # most negative direction
    if top >= 0.0:
        return np.inf
    return 1.0 / (-top)


def backflow_scaling_suite(
    seed: int,
    coeffs: MapCoefficients,
    dims=(2, 3),
    trials: int = 100,
) -> list[PropertyCheck]:
    """Backflow scaling laws under rescaling and convex stretching."""
    worst = _Worst()
    for dim in dims:
        for rng in _streams(seed, (40, dim), 0, trials):
            rho1, rho2, _ = _random_nonorthogonal_pair(dim, rng)
            sigma1, sigma2, lam = rescale_pair(rho1, rho2)
            bf = backflow(_trajectory(coeffs, rho1.entries, rho2.entries))
            bf_rescaled = backflow(_trajectory(coeffs, sigma1.entries, sigma2.entries))
            worst.see("rescaled-backflow-law", abs(bf_rescaled - bf / lam))

            interior = sample_random_state(dim, dim, rng)
            other = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
            stretch_max = _max_admissible_stretch(other, interior)
            lam_stretch = 1.0 + 0.5 * min(stretch_max, 20.0)
            mixed = make_density_matrix(
                (1.0 - lam_stretch) * other.entries + lam_stretch * interior.entries
            )
            bf_base = backflow(_trajectory(coeffs, other.entries, interior.entries))
            bf_stretched = backflow(_trajectory(coeffs, other.entries, mixed.entries))
            worst.see("stretched-backflow-law", abs(bf_stretched - lam_stretch * bf_base))
    return worst.checks("rescaled-backflow-law stretched-backflow-law", len(dims) * trials)


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
    worst.see(
        "closed-form-rate-integrals", np.abs(quadrature.d1 - d_exact).max(), np.abs(quadrature.d2 - d_exact).max()
    )
    worst.see("closed-form-feeding", np.abs(quadrature.g1 - g_exact).max(), np.abs(quadrature.g2 - g_exact).max())
    worst.see("closed-form-coherence-decay", np.abs(np.abs(quadrature.f) - np.exp(-d_exact)).max())

    # the pairs are drawn a block at a time, but their full-grid trajectories
    # (three (grid, 3, 3) stacks, about 0.9 MB a pair) are held one at a time
    streams = _streams(seed, (50, 3), 0, contraction_pairs)
    for n in _block_sizes(contraction_pairs, 3):
        for rho1, rho2 in _random_states(3, islice(streams, n), 2, 2)[0]:
            d = _trajectory(coeffs, rho1, rho2).distances
            worst.see("distance-contraction-bound", (d - d[0]).max())

    # freed before the basis evolutions below, which set the peak memory
    # (5.8 MB traced by tracemalloc, against 3.4 MB for this quadrature)
    halved = lambda_map_coefficients(integrated, make_grid(grid[-1], 2 * (grid.size - 1)))
    worst.see(
        "quadrature-step-halving",
        *(abs(getattr(halved, k)[-1] - getattr(quadrature, k)[-1]) for k in ("g1", "g2", "d1", "d2")),
    )
    del halved, quadrature

    basis = spanning_states()
    initial = np.stack([state.entries for state in basis])
    closed = apply_map_to_grid(coeffs, initial)
    worst.see("period-return-identity", np.abs(closed[:, -1] - initial).max())
    closed -= lindblad_integrate(rates, basis, grid)
    worst.see("integrator-agreement", np.abs(closed).max())

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
    """Every suite in order; dimension-3 dynamics shared across them."""
    coeffs = lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, 2000))
    checks: list[PropertyCheck] = []
    checks += metric_suite(seed, dims, max(2 * trials, 200))
    checks += jordan_hahn_suite(seed, dims, trials)
    checks += translation_suite(seed, coeffs, dims, trials, inject_fault)
    checks += backflow_scaling_suite(seed, coeffs, tuple(d for d in dims if d <= 3) or (2, 3), trials)
    checks += dynamics_suite(seed, coeffs)
    return checks
