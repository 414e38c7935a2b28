"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Criterion 4 runs the scaled-down 10^4-sample experiment; the
full 10^5-sample run stays behind ``backflow histogram --samples 100000``.
"""

import numpy as np
import pytest

from backflow.cli import main
from backflow.dynamics import (
    apply_map_to_grid,
    constant_rates,
    lambda_map_coefficients,
    lindblad_integrate,
    make_grid,
    sinusoidal_rates,
    validate_cpt,
)
from backflow.errors import OrthogonalPair
from backflow.measure import (
    backflow,
    estimate_measure,
    histogram_backflow,
    mixed_reference_pair,
    trace_distance_trajectory,
    trajectory_from_states,
)
from backflow.statespace import (
    rescale_pair,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_pure_orthogonal_pair,
    sample_random_state,
    trace_distance,
)
from backflow.translation import jointly_translate

SEED = 20260809
GRID = make_grid(2 * np.pi, 2000)
MPAIR_BACKFLOW = 1.0 - np.exp(-0.12)  # 0.1130796...


@pytest.fixture(scope="module")
def preset_coeffs():
    return lambda_map_coefficients(sinusoidal_rates(), GRID)


def announce(number, text):
    print(f"\n[acceptance] criterion {number:2d} PASS — {text}")


def random_nonorthogonal_pair(dim, rng):
    while True:
        r1 = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
        r2 = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
        dist = trace_distance(r1, r2)
        if 1e-6 < dist < 1.0 - 1e-8:
            return r1, r2


def depolarizing_weights(grid):
    """Noise weight 0.4*(1 - cos t): rises then returns, producing backflow."""
    return 0.4 * (1.0 - np.cos(grid))


def depolarize_stack(grid, matrix):
    """A time-dependent depolarizer applied to one matrix over the grid: a
    linear, trace-preserving map family with backflow in every dimension,
    under which criteria 6 and 7 are checked away from dimension 3."""
    m = np.asarray(matrix, dtype=complex)
    dim = m.shape[0]
    w = depolarizing_weights(grid)[:, None, None]
    uniform = np.trace(m) * np.eye(dim) / dim
    return (1.0 - w) * m + w * uniform


def distances_under_map(coeffs, m1, m2):
    """Dimension-3 pairs evolve under the closed-form map, others depolarize."""
    if m1.shape[0] == 3:
        return trajectory_from_states(
            GRID, apply_map_to_grid(coeffs, m1), apply_map_to_grid(coeffs, m2)
        )
    return trajectory_from_states(
        GRID, depolarize_stack(GRID, m1), depolarize_stack(GRID, m2)
    )


def test_depolarizer_is_linear_and_trace_preserving():
    grid = make_grid(2 * np.pi, 100)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (a + a.conj().T) / 2
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = (b + b.conj().T) / 2
    combined = depolarize_stack(grid, 0.3 * a + 0.7 * b)
    split = 0.3 * depolarize_stack(grid, a) + 0.7 * depolarize_stack(grid, b)
    np.testing.assert_allclose(combined, split, rtol=0, atol=1e-12)
    traces = np.trace(depolarize_stack(grid, a), axis1=1, axis2=2)
    np.testing.assert_allclose(traces, np.trace(a), rtol=0, atol=1e-12)


def test_criterion_01_cpt_validity(preset_coeffs):
    report = validate_cpt(preset_coeffs)
    assert report.worst_identity <= 1e-8
    assert report.min_g >= -1e-10
    announce(1, f"CPT: worst identity {report.worst_identity:.2e} <= 1e-8, "
                f"min g {report.min_g:.2e} >= -1e-10")


def test_criterion_02_closed_form_oracle(preset_coeffs):
    k = 1000  # t = pi
    assert GRID[k] == pytest.approx(np.pi, abs=1e-12)
    f_err = abs(abs(preset_coeffs.f[k]) - np.exp(-0.06))
    g_err = max(
        abs(preset_coeffs.g1[k] - 0.5 * (1 - np.exp(-0.12))),
        abs(preset_coeffs.g2[k] - 0.5 * (1 - np.exp(-0.12))),
    )
    assert f_err <= 1e-7
    assert g_err <= 1e-7
    announce(2, f"|f(pi)| err {f_err:.2e}, g_i(pi) err {g_err:.2e} <= 1e-7")


def test_criterion_03_mixed_pair_backflow(preset_coeffs):
    traj = trace_distance_trajectory(preset_coeffs, *mixed_reference_pair())
    value = backflow(traj)
    assert value == pytest.approx(MPAIR_BACKFLOW, abs=1e-5)
    pointwise = np.abs(traj.distances - np.exp(-0.06 * (1 - np.cos(GRID)))).max()
    assert pointwise <= 1e-6
    announce(3, f"mixed-pair backflow {value:.7f} vs {MPAIR_BACKFLOW:.7f} (<=1e-5), "
                f"trajectory err {pointwise:.2e} <= 1e-6")


def test_criterion_04_pure_pair_gap(preset_coeffs):
    hist = histogram_backflow(preset_coeffs, n_samples=10_000, bins=50, seed=SEED)
    assert hist.max_sampled < 0.1130796
    assert hist.reference_value == pytest.approx(MPAIR_BACKFLOW, abs=1e-5)
    assert hist.counts.sum() == 10_000
    announce(4, f"10^4 pure orthogonal pairs: max sampled {hist.max_sampled:.6f} "
                f"< 0.1130796 (gap {hist.reference_value - hist.max_sampled:.6f}); "
                "10^5 run available via --samples 100000")


def test_criterion_05_markovian_null_case():
    coeffs = lambda_map_coefficients(constant_rates(gamma=0.03), GRID)
    rng = rng_stream(SEED, 5)
    worst_rise = 0.0
    for i in range(100):
        if i % 2:
            pair = sample_pure_orthogonal_pair(3, rng)
        else:
            pair = sample_orthogonal_mixed_pair(3, rng)
        traj = trace_distance_trajectory(coeffs, *pair)
        worst_rise = max(worst_rise, float(np.diff(traj.distances).max()))
    assert worst_rise <= 1e-10
    result = estimate_measure(coeffs, 50, seed=SEED)
    assert result.estimate == 0.0
    announce(5, f"constant rates: worst increment {worst_rise:.2e} <= 1e-10 "
                "over 100 orthogonal candidates, estimate = 0")


def test_criterion_06_rescaling_amplifies_backflow(preset_coeffs):
    worst = 0.0
    for dim in (2, 3):
        rng = rng_stream(SEED, 6, dim)
        for _ in range(100):
            rho1, rho2 = random_nonorthogonal_pair(dim, rng)
            sigma1, sigma2, lam = rescale_pair(rho1, rho2)
            assert 0.0 < lam < 1.0
            bf = backflow(distances_under_map(preset_coeffs, rho1.entries, rho2.entries))
            bf_rescaled = backflow(
                distances_under_map(preset_coeffs, sigma1.entries, sigma2.entries)
            )
            worst = max(worst, abs(bf_rescaled - bf / lam))
    assert worst <= 1e-8
    announce(6, f"rescaled-pair backflow law over 2x100 pairs: worst dev {worst:.2e} <= 1e-8")


def test_criterion_07_joint_translation(preset_coeffs):
    worst_diff = worst_traj = 0.0
    min_eig = np.inf
    for dim in (2, 3, 4):
        rng = rng_stream(SEED, 7, dim)
        for _ in range(100):
            rho1, rho2 = random_nonorthogonal_pair(dim, rng)
            hat1, hat2, _ = jointly_translate(rho1, rho2)
            min_eig = min(min_eig, hat1.min_eigenvalue, hat2.min_eigenvalue)
            worst_diff = max(
                worst_diff,
                float(np.abs((hat1.entries - hat2.entries) - (rho1.entries - rho2.entries)).max()),
            )
            base = distances_under_map(preset_coeffs, rho1.entries, rho2.entries)
            moved = distances_under_map(preset_coeffs, hat1.entries, hat2.entries)
            worst_traj = max(worst_traj, float(np.abs(base.distances - moved.distances).max()))
        with pytest.raises(OrthogonalPair):
            jointly_translate(*sample_pure_orthogonal_pair(dim, rng))
    assert min_eig > 0.0
    assert worst_diff <= 1e-12
    assert worst_traj <= 1e-10
    announce(7, f"3x100 translations: min eigenvalue {min_eig:.2e} > 0, "
                f"difference dev {worst_diff:.2e} <= 1e-12, "
                f"trajectory dev {worst_traj:.2e} <= 1e-10, orthogonal pairs rejected")


def test_criterion_08_integrator_cross_validation(preset_coeffs):
    rates = sinusoidal_rates()
    rng = rng_stream(SEED, 8)
    states = [sample_random_state(3, int(rng.integers(1, 4)), rng) for _ in range(20)]
    closed = apply_map_to_grid(preset_coeffs, np.stack([rho0.entries for rho0 in states]))
    integrated = lindblad_integrate(rates, states, GRID)
    worst = float(np.abs(closed - integrated).max())
    assert worst <= 1e-6
    announce(8, f"closed form vs integrator over 20 states: worst entry dev {worst:.2e} <= 1e-6")


def test_criterion_09_period_return(preset_coeffs):
    rng = rng_stream(SEED, 9)
    initial = np.stack([sample_random_state(3, int(rng.integers(1, 4)), rng).entries for _ in range(50)])
    final = apply_map_to_grid(preset_coeffs, initial)[:, -1]
    worst = float(np.abs(final - initial).max())
    assert worst <= 1e-6
    announce(9, f"full-period return over 50 states: worst entry dev {worst:.2e} <= 1e-6")


def test_criterion_10_threaded_determinism(tmp_path):
    # sampling runs on one thread; what is left to check is that a rerun
    # writes the same bytes
    out = tmp_path / "hist.csv"
    args = ["histogram", "--samples", "2000", "--seed", str(SEED), "--output", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    announce(10, f"histogram CSV byte-identical across reruns ({len(first)} bytes)")
