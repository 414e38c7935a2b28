import fnmatch
import re
from pathlib import Path

import numpy as np
import pytest

from backflow.dynamics import lambda_map_coefficients, make_grid, sinusoidal_rates
from backflow.verify import (
    _CHECKS,
    _Worst,
    backflow_scaling_suite,
    depolarize_stack,
    dynamics_suite,
    jordan_hahn_suite,
    metric_suite,
    run_all,
    spanning_states,
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


def test_dynamics_suite(preset_coeffs, seed=105):
    checks = dynamics_suite(seed, preset_coeffs, contraction_pairs=5)
    assert_all_pass(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["period-return-identity"].trials == 9
    assert by_name["integrator-agreement"].trials == 9


def test_spanning_states_span_the_hermitian_matrices():
    # real and imaginary parts of the nine projectors, as real 18-vectors
    flat = np.stack([np.concatenate([s.entries.real.ravel(), s.entries.imag.ravel()]) for s in spanning_states()])
    assert flat.shape == (9, 18)
    assert np.linalg.matrix_rank(flat) == 9


def test_integrator_agreement_detects_a_different_map(seed=108):
    # the suite integrates the preset rates, so coefficients of slightly
    # different rates must fail: the check compares two independent engines
    coeffs = lambda_map_coefficients(sinusoidal_rates(amplitude=0.0301), make_grid(2 * np.pi, 2000))
    by_name = {c.name: c for c in dynamics_suite(seed, coeffs, contraction_pairs=1)}
    assert not by_name["integrator-agreement"].passed
    assert by_name["integrator-agreement"].worst > 1e-4


def test_fault_injection_fails_interior_check(preset_coeffs, seed=106):
    checks = translation_suite(
        seed, dims=(3,), trials=5, coeffs=preset_coeffs, inject_fault="shift-sign"
    )
    by_name = {c.name: c for c in checks}
    assert not by_name["translate-strictly-interior"].passed
    assert by_name["translate-strictly-interior"].worst < 0.0

def test_run_all_covers_every_suite(seed=107):
    # every declared check, once and in declared order, at the default dims
    checks = run_all(seed, trials=5)
    assert [c.name for c in checks] == list(_CHECKS)
    assert len(checks) == 33
    assert_all_pass(checks)


@pytest.mark.parametrize("relation, passes", [("<=", True), (">=", True), ("<", False), (">", False)])
def test_worst_value_at_the_bound(relation, passes):
    name = next(n for n, (rel, _) in _CHECKS.items() if rel == relation)
    bound = _CHECKS[name][1]
    worst = _Worst()
    worst.see(name, bound)
    [check] = worst.checks(name, 1)
    assert (check.worst, check.bound, check.passed) == (bound, bound, passes)


def test_worst_value_keeps_a_nan():
    worst = _Worst()
    worst.see("metric-triangle", 0.0, float("nan"))
    worst.see("metric-triangle", 1.0)
    [check] = worst.checks("metric-triangle", 2)
    assert np.isnan(check.worst) and not check.passed


def test_readme_cites_only_declared_checks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("`verify` prints 33 checks")
    section = readme[start:readme.index("\n## ", start)]
    cited = re.findall(r"`([a-z]+(?:-[a-z*]+)+)`", section)
    assert cited
    for name in cited:
        assert fnmatch.filter(_CHECKS, name), f"README cites {name!r}, which verify does not declare"


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
