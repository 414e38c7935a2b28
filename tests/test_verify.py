import numpy as np
import pytest

from backflow.dynamics import lambda_map_coefficients, make_grid, sinusoidal_rates
from backflow.verify import (
    backflow_scaling_suite,
    depolarize_stack,
    dynamics_suite,
    jordan_hahn_suite,
    metric_suite,
    run_all,
    translation_suite,
)


@pytest.fixture(scope="module")
def preset_coeffs():
    return lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, 2000))


def assert_all_pass(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, "failed: " + ", ".join(
        f"{c.name} (worst={c.worst:.3e}, bound={c.bound:.3e})" for c in failed
    )


def test_metric_suite(seed=101):
    assert_all_pass(metric_suite(seed, dims=(2, 3, 4), triples=40))


def test_jordan_hahn_suite(seed=102):
    assert_all_pass(jordan_hahn_suite(seed, dims=(2, 3, 4), trials=20))


def test_translation_suite(preset_coeffs, seed=103):
    assert_all_pass(translation_suite(seed, dims=(2, 3, 4), trials=15, coeffs=preset_coeffs))


def test_backflow_scaling_suite(preset_coeffs, seed=104):
    # covers both the rescaling law and the convex-stretch law
    checks = backflow_scaling_suite(seed, dims=(2, 3), trials=15, coeffs=preset_coeffs)
    assert {c.name for c in checks} == {"rescaled-backflow-law", "stretched-backflow-law"}
    assert_all_pass(checks)


def test_dynamics_suite(seed=105):
    assert_all_pass(dynamics_suite(seed, cross_states=3, contraction_pairs=5, period_states=10))


def test_fault_injection_fails_interior_check(preset_coeffs, seed=106):
    checks = translation_suite(
        seed, dims=(3,), trials=5, coeffs=preset_coeffs, inject_fault="shift-sign"
    )
    by_name = {c.name: c for c in checks}
    assert not by_name["translate-strictly-interior"].passed
    assert by_name["translate-strictly-interior"].worst < 0.0

def test_run_all_covers_every_suite(seed=107):
    checks = run_all(seed, dims=(2, 3), trials=5)
    names = {c.name for c in checks}
    for expected in (
        "metric-symmetry",
        "jordan-hahn-reconstruction",
        "translate-strictly-interior",
        "rescaled-backflow-law",
        "cpt-identity",
        "integrator-agreement",
    ):
        assert expected in names
    assert_all_pass(checks)


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
