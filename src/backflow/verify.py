"""Randomized property suites for the structural state-pair theorems.

Each suite draws seeded random instances, checks an exact structural
claim at a stated numerical bound, and reports the worst deviation seen.
The suites back the ``verify`` CLI command and the acceptance tests.

Dimension-3 checks run under the closed-form three-level map; other
dimensions use a time-dependent depolarizing map (linear and trace
preserving, with a non-monotone noise weight so backflow is nontrivial),
since the structural laws hold for any linear map family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    MapCoefficients,
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
    TOL_PSD,
    DensityMatrix,
    haar_unitary,
    is_orthogonal,
    jordan_hahn,
    make_density_matrix,
    pure_state,
    rescale_pair,
    rng_stream,
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
    detail: str = ""


def _random_pair(dim: int, rng: np.random.Generator) -> tuple[DensityMatrix, DensityMatrix]:
    """Random state pair with independently drawn ranks."""
    r1 = int(rng.integers(1, dim + 1))
    r2 = int(rng.integers(1, dim + 1))
    return sample_random_state(dim, r1, rng), sample_random_state(dim, r2, rng)


def _random_nonorthogonal_pair(
    dim: int, rng: np.random.Generator
) -> tuple[DensityMatrix, DensityMatrix]:
    for _ in range(100):
        rho1, rho2 = _random_pair(dim, rng)
        if not is_orthogonal(rho1, rho2) and trace_distance(rho1, rho2) > 1e-6:
            return rho1, rho2
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
    """Trace-distance trajectory of two matrices under the dim-appropriate map, on the coefficients' grid."""
    grid = coeffs.grid
    if m1.shape[0] == 3:
        s1 = apply_map_to_grid(coeffs, m1)
        s2 = apply_map_to_grid(coeffs, m2)
    else:
        s1 = depolarize_stack(grid, m1)
        s2 = depolarize_stack(grid, m2)
    return trajectory_from_states(grid, s1, s2)


def metric_suite(seed: int, dims=(2, 3, 4), triples: int = 200) -> list[PropertyCheck]:
    """Metric axioms of the trace distance plus unitary invariance."""
    worst_sym = worst_self = worst_tri = worst_uni = 0.0
    count = 0
    for dim in dims:
        rng = rng_stream(seed, 10, dim)
        for _ in range(triples):
            a, b = _random_pair(dim, rng)
            c = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            worst_sym = max(worst_sym, abs(dab - dba))
            worst_self = max(worst_self, trace_distance(a, a))
            worst_tri = max(
                worst_tri, trace_distance(a, c) - (dab + trace_distance(b, c))
            )
            u = haar_unitary(dim, rng)
            ua = make_density_matrix(u @ a.entries @ u.conj().T)
            ub = make_density_matrix(u @ b.entries @ u.conj().T)
            worst_uni = max(worst_uni, abs(trace_distance(ua, ub) - dab))
            count += 1
    return [
        PropertyCheck("metric-symmetry", worst_sym == 0.0, worst_sym, 0.0, count),
        PropertyCheck("metric-self-distance", worst_self == 0.0, worst_self, 0.0, count),
        PropertyCheck("metric-triangle", worst_tri <= 1e-12, worst_tri, 1e-12, count),
        PropertyCheck("metric-unitary-invariance", worst_uni <= 1e-10, worst_uni, 1e-10, count),
    ]


def jordan_hahn_suite(seed: int, dims=(2, 3, 4), trials: int = 100) -> list[PropertyCheck]:
    """Split/rescale identities and the orthogonality-distance equivalence."""
    worst_recon = worst_trace = worst_pos = worst_orth = 0.0
    worst_unit = worst_law = 0.0
    worst_overlap_dist = 0.0
    worst_orth_dist = 0.0
    worst_orth_interior = 0.0
    count = 0
    for dim in dims:
        rng = rng_stream(seed, 20, dim)
        for _ in range(trials):
            rho1, rho2 = _random_nonorthogonal_pair(dim, rng)
            delta = rho1.entries - rho2.entries
            parts = jordan_hahn(rho1, rho2)
            p1, p2 = parts.positive_part.entries, parts.negative_part.entries
            dist = trace_distance(rho1, rho2)
            worst_recon = max(worst_recon, float(np.abs(delta - (p1 - p2)).max()))
            worst_trace = max(
                worst_trace,
                abs(float(np.trace(p1).real) - dist),
                abs(float(np.trace(p2).real) - dist),
            )
            worst_pos = max(
                worst_pos,
                max(0.0, -float(np.linalg.eigvalsh(p1)[0])),
                max(0.0, -float(np.linalg.eigvalsh(p2)[0])),
            )
            worst_orth = max(worst_orth, float(np.linalg.norm(p1 @ p2, 2)))

            sigma1, sigma2, lam = rescale_pair(rho1, rho2)
            worst_unit = max(worst_unit, abs(trace_distance(sigma1, sigma2) - 1.0))
            worst_law = max(
                worst_law,
                float(np.abs((sigma1.entries - sigma2.entries) - delta / lam).max()),
            )

            # full-rank pairs have overlapping supports by construction
            full1 = sample_random_state(dim, dim, rng)
            full2 = sample_random_state(dim, dim, rng)
            worst_overlap_dist = max(worst_overlap_dist, trace_distance(full1, full2))

            orth1, orth2 = sample_orthogonal_mixed_pair(dim, rng)
            worst_orth_dist = max(worst_orth_dist, abs(trace_distance(orth1, orth2) - 1.0))
            if is_orthogonal(orth1, orth2):
                worst_orth_interior = max(
                    worst_orth_interior, orth1.min_eigenvalue, orth2.min_eigenvalue
                )
            count += 1
    return [
        PropertyCheck("jordan-hahn-reconstruction", worst_recon <= 1e-12, worst_recon, 1e-12, count),
        PropertyCheck("jordan-hahn-traces-equal-distance", worst_trace <= 1e-10, worst_trace, 1e-10, count),
        PropertyCheck("jordan-hahn-parts-positive", worst_pos <= TOL_PSD, worst_pos, TOL_PSD, count),
        PropertyCheck("jordan-hahn-parts-orthogonal", worst_orth <= TOL_PSD, worst_orth, TOL_PSD, count),
        PropertyCheck("rescale-unit-distance", worst_unit <= 1e-10, worst_unit, 1e-10, count),
        PropertyCheck("rescale-difference-law", worst_law <= 1e-12, worst_law, 1e-12, count),
        PropertyCheck(
            "overlapping-pairs-below-unit-distance",
            worst_overlap_dist < 1.0 - 1e-8,
            worst_overlap_dist,
            1.0 - 1e-8,
            count,
            detail="strictly below",
        ),
        PropertyCheck("orthogonal-pairs-unit-distance", worst_orth_dist <= 1e-12, worst_orth_dist, 1e-12, count),
        PropertyCheck(
            "orthogonal-pairs-on-boundary",
            worst_orth_interior <= TOL_PSD,
            worst_orth_interior,
            TOL_PSD,
            count,
        ),
    ]


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

    min_interior = np.inf
    worst_diff = worst_traj = 0.0
    worst_traceless = worst_herm = 0.0
    min_shift_norm = np.inf
    rejected_failures = 0
    worst_quadratic = np.inf
    count = 0
    for dim in dims:
        rng = rng_stream(seed, 30, dim)
        for _ in range(trials):
            rho1, rho2 = _random_nonorthogonal_pair(dim, rng)
            construction = build_shift_operator(rho1, rho2, 0.5)
            shift = flip * construction.shift.entries
            m1 = rho1.entries - shift
            m2 = rho2.entries - shift
            if flip > 0:
                # exercise the real API; failures surface as non-interior
                try:
                    hat1, hat2, construction = jointly_translate(rho1, rho2, 0.5)
                    m1, m2 = hat1.entries, hat2.entries
                except PositivityFailure:
                    pass  # keep the raw matrices; the interior check records it
            min_interior = min(
                min_interior,
                float(np.linalg.eigvalsh(m1)[0]),
                float(np.linalg.eigvalsh(m2)[0]),
            )
            worst_diff = max(
                worst_diff,
                float(np.abs((m1 - m2) - (rho1.entries - rho2.entries)).max()),
            )
            base = _trajectory(coeffs, rho1.entries, rho2.entries).distances
            moved = _trajectory(coeffs, m1, m2).distances
            worst_traj = max(worst_traj, float(np.abs(base - moved).max()))

            a = construction.shift.entries
            worst_traceless = max(worst_traceless, abs(float(np.trace(a).real)), abs(float(np.trace(a).imag)))
            worst_herm = max(worst_herm, float(np.abs(a - a.conj().T).max()))
            min_shift_norm = min(min_shift_norm, float(np.linalg.norm(a, 2)))

            sel = construction.selection
            eps = 0.99 * construction.epsilon_max
            for weight in (sel.weight1, sel.weight2):
                # exact minimum over [0, 1]: the parabola vertex or an endpoint
                vertex = min(max(eps / (weight * (1.0 + sel.overlap)), 0.0), 1.0)
                worst_quadratic = min(
                    worst_quadratic,
                    *(quadratic_bound(weight, sel.overlap, dim, eps, x) for x in (0.0, vertex, 1.0)),
                )

            orth = sample_orthogonal_mixed_pair(dim, rng)
            if is_jointly_translatable(*orth):
                rejected_failures += 1
            try:
                jointly_translate(*orth)
                rejected_failures += 1
            except OrthogonalPair:
                pass
            count += 1

    # closed-form monotonicity of the admissible shift bound
    weights = np.linspace(0.05, 1.0, 40)
    min_gap = np.inf
    for alpha in (0.2, 0.6, 0.95):
        for dim in dims:
            bounds = [epsilon_upper_bound(alpha, dim, float(w)) for w in weights]
            min_gap = min(min_gap, float(np.diff(bounds).min()))

    return [
        PropertyCheck(
            "translate-strictly-interior",
            min_interior > TOL_PSD,
            min_interior,
            TOL_PSD,
            count,
            detail="minimum eigenvalue across translated states; must exceed bound",
        ),
        PropertyCheck("translate-difference-preserved", worst_diff <= 1e-12, worst_diff, 1e-12, count),
        PropertyCheck("translate-trajectory-invariance", worst_traj <= 1e-10, worst_traj, 1e-10, count),
        PropertyCheck("shift-traceless", worst_traceless <= 1e-12, worst_traceless, 1e-12, count),
        PropertyCheck("shift-hermitian", worst_herm <= 1e-12, worst_herm, 1e-12, count),
        PropertyCheck(
            "shift-nonzero", min_shift_norm > 0.0, min_shift_norm, 0.0, count,
            detail="smallest shift operator norm; must exceed bound",
        ),
        PropertyCheck(
            "orthogonal-pairs-rejected",
            rejected_failures == 0,
            float(rejected_failures),
            0.0,
            count,
            detail="count of orthogonal pairs accepted for translation",
        ),
        PropertyCheck(
            "quadratic-bound-positive",
            worst_quadratic > 0.0,
            worst_quadratic,
            0.0,
            count,
            detail="minimum of the positivity polynomial near the bound edge",
        ),
        PropertyCheck(
            "epsilon-bound-monotone",
            min_gap > 0.0,
            min_gap,
            0.0,
            len(weights),
            detail="smallest increment of the bound in the minimum weight",
        ),
    ]


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
    worst_rescale = worst_stretch = 0.0
    count = 0
    for dim in dims:
        rng = rng_stream(seed, 40, dim)
        for _ in range(trials):
            rho1, rho2 = _random_nonorthogonal_pair(dim, rng)
            sigma1, sigma2, lam = rescale_pair(rho1, rho2)
            bf = backflow(_trajectory(coeffs, rho1.entries, rho2.entries))
            bf_rescaled = backflow(_trajectory(coeffs, sigma1.entries, sigma2.entries))
            worst_rescale = max(worst_rescale, abs(bf_rescaled - bf / lam))

            interior = sample_random_state(dim, dim, rng)
            other = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
            stretch_max = _max_admissible_stretch(other, interior)
            lam_stretch = 1.0 + 0.5 * min(stretch_max, 20.0)
            mixed = make_density_matrix(
                (1.0 - lam_stretch) * other.entries + lam_stretch * interior.entries
            )
            bf_base = backflow(_trajectory(coeffs, other.entries, interior.entries))
            bf_stretched = backflow(_trajectory(coeffs, other.entries, mixed.entries))
            worst_stretch = max(worst_stretch, abs(bf_stretched - lam_stretch * bf_base))
            count += 1
    return [
        PropertyCheck("rescaled-backflow-law", worst_rescale <= 1e-8, worst_rescale, 1e-8, count),
        PropertyCheck("stretched-backflow-law", worst_stretch <= 1e-8, worst_stretch, 1e-8, count),
    ]


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

    ``coeffs`` must be the preset's map; period return and integrator
    agreement are checked on :func:`spanning_states`, which covers every
    state by linearity, while distance contraction is not linear and is
    checked on ``contraction_pairs`` random pairs.
    """
    rates = sinusoidal_rates()
    grid = coeffs.grid
    rng = rng_stream(seed, 50)

    report = validate_cpt(coeffs)
    d_exact = 0.03 * (1.0 - np.cos(grid))
    g_exact = 0.5 * (1.0 - np.exp(-2.0 * d_exact))
    worst_d = float(max(np.abs(coeffs.d1 - d_exact).max(), np.abs(coeffs.d2 - d_exact).max()))
    worst_g = float(max(np.abs(coeffs.g1 - g_exact).max(), np.abs(coeffs.g2 - g_exact).max()))
    worst_f = float(np.abs(np.abs(coeffs.f) - np.exp(-d_exact)).max())

    worst_contraction = 0.0
    for _ in range(contraction_pairs):
        rho1, rho2 = _random_pair(3, rng)
        d = _trajectory(coeffs, rho1.entries, rho2.entries).distances
        worst_contraction = max(worst_contraction, float((d - d[0]).max()))

    # freed before the basis evolutions below, which set the peak memory
    # (5.7 MB traced by tracemalloc, against 4.4 MB for this quadrature)
    halved = lambda_map_coefficients(rates, make_grid(grid[-1], 2 * (grid.size - 1)))
    worst_conv = float(
        max(
            abs(halved.g1[-1] - coeffs.g1[-1]),
            abs(halved.g2[-1] - coeffs.g2[-1]),
            abs(halved.d1[-1] - coeffs.d1[-1]),
            abs(halved.d2[-1] - coeffs.d2[-1]),
        )
    )
    del halved

    basis = spanning_states()
    initial = np.stack([state.entries for state in basis])
    closed = apply_map_to_grid(coeffs, initial)
    worst_return = float(np.abs(closed[:, -1] - initial).max())
    closed -= lindblad_integrate(rates, basis, grid)
    worst_cross = float(np.abs(closed).max())

    return [
        PropertyCheck("cpt-identity", report.worst_identity <= 1e-8, report.worst_identity, 1e-8, grid.size),
        PropertyCheck(
            "cpt-g-nonnegative",
            report.min_g >= -1e-10,
            report.min_g,
            -1e-10,
            grid.size,
            detail="minimum feeding coefficient; must not fall below bound",
        ),
        PropertyCheck("closed-form-rate-integrals", worst_d <= 1e-7, worst_d, 1e-7, grid.size),
        PropertyCheck("closed-form-feeding", worst_g <= 1e-7, worst_g, 1e-7, grid.size),
        PropertyCheck("closed-form-coherence-decay", worst_f <= 1e-7, worst_f, 1e-7, grid.size),
        PropertyCheck(
            "distance-contraction-bound",
            worst_contraction <= 1e-9,
            worst_contraction,
            1e-9,
            contraction_pairs,
        ),
        PropertyCheck("period-return-identity", worst_return <= 1e-6, worst_return, 1e-6, len(basis)),
        PropertyCheck("quadrature-step-halving", worst_conv < 1e-6, worst_conv, 1e-6, 2),
        PropertyCheck("integrator-agreement", worst_cross <= 1e-6, worst_cross, 1e-6, len(basis)),
    ]


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
