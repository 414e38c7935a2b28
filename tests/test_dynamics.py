import dataclasses
import re

import numpy as np
import pytest

from backflow.dynamics import (
    RateFunctions,
    apply_lambda_map,
    apply_map_to_grid,
    constant_rates,
    lambda_map_coefficients,
    lindblad_integrate,
    make_grid,
    map_invariants,
    rates_from_model,
    sinusoidal_rates,
    tabulated_rates,
    validate_cpt,
    zero_rates,
)
from backflow.errors import (
    BadDimension,
    CptViolation,
    DomainError,
    IntegratorDiverged,
    PositivityLost,
    QuadratureFailure,
    ValidationError,
)
from backflow.measure import mixed_reference_pair
from backflow.statespace import (
    _clipped_distances,
    _invariant_distances,
    make_density_matrix,
    pure_state,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_pure_orthogonal_pair,
    sample_random_state,
)

GRID = make_grid(2 * np.pi, 2000)


@pytest.fixture(scope="module")
def preset_coeffs():
    return lambda_map_coefficients(sinusoidal_rates(), GRID)


def analytic_d(t):
    return 0.03 * (1.0 - np.cos(t))


def analytic_g(t):
    return 0.5 * (1.0 - np.exp(-2.0 * analytic_d(t)))


class TestMapCoefficients:
    def test_initial_values(self, preset_coeffs):
        assert preset_coeffs.f[0] == 1.0
        assert preset_coeffs.g1[0] == 0.0
        assert preset_coeffs.g2[0] == 0.0
        assert preset_coeffs.d1[0] == 0.0

    def test_preset_at_half_period(self, preset_coeffs):
        k = 1000  # t = pi on the 2000-step grid
        assert GRID[k] == pytest.approx(np.pi, abs=1e-12)
        assert preset_coeffs.d1[k] == pytest.approx(0.06, abs=1e-7)
        assert abs(preset_coeffs.f[k]) == pytest.approx(np.exp(-0.06), abs=1e-7)
        assert preset_coeffs.g1[k] == pytest.approx(0.5 * (1 - np.exp(-0.12)), abs=1e-7)
        assert preset_coeffs.g2[k] == pytest.approx(0.5 * (1 - np.exp(-0.12)), abs=1e-7)

    def test_preset_full_period_returns_to_identity(self, preset_coeffs):
        assert abs(preset_coeffs.f[-1] - 1.0) < 1e-6
        assert abs(preset_coeffs.g1[-1]) < 1e-6
        assert abs(preset_coeffs.g2[-1]) < 1e-6

    def test_matches_analytic_everywhere(self, preset_coeffs):
        np.testing.assert_allclose(preset_coeffs.d1, analytic_d(GRID), rtol=0, atol=1e-7)
        np.testing.assert_allclose(preset_coeffs.g1, analytic_g(GRID), rtol=0, atol=1e-7)
        np.testing.assert_allclose(np.abs(preset_coeffs.f), np.exp(-analytic_d(GRID)), rtol=0, atol=1e-7)

    def test_quadrature_convergence_under_step_halving(self):
        rates = sinusoidal_rates()
        coarse = lambda_map_coefficients(rates, make_grid(2 * np.pi, 1000))
        fine = lambda_map_coefficients(rates, make_grid(2 * np.pi, 2000))
        assert abs(coarse.g1[-1] - fine.g1[-1]) < 1e-6
        assert abs(coarse.d1[-1] - fine.d1[-1]) < 1e-6

    def test_negative_rates_rejected(self):
        with pytest.raises(CptViolation):
            lambda_map_coefficients(constant_rates(gamma=-0.03), GRID)

    def test_non_finite_rates_rejected(self):
        bad = dataclasses.replace(sinusoidal_rates(), gamma1=lambda t: np.full(np.shape(t), np.nan))
        with pytest.raises(QuadratureFailure):
            lambda_map_coefficients(bad, GRID)

    def test_grid_validation(self):
        rates = sinusoidal_rates()
        with pytest.raises(DomainError):
            lambda_map_coefficients(rates, np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            lambda_map_coefficients(rates, np.array([0.0, 2.0, 1.0]))


class TestValidateCpt:
    def test_preset_valid(self, preset_coeffs):
        report = validate_cpt(preset_coeffs)
        assert report.ok
        assert report.worst_identity <= 1e-8
        assert report.min_g >= -1e-10

    def test_forced_negative_g_detected(self, preset_coeffs):
        g1 = preset_coeffs.g1.copy()
        g1[137] = -0.1
        broken = dataclasses.replace(preset_coeffs, g1=g1)
        report = validate_cpt(broken)
        assert not report.ok
        assert report.min_g == pytest.approx(-0.1)
        assert report.min_g_time == pytest.approx(GRID[137])

    def test_forced_identity_violation_detected(self, preset_coeffs):
        f = preset_coeffs.f.copy()
        # force g1 + g2 + |f|^2 = 0.9 at one grid point
        f[512] = np.sqrt(0.9 - preset_coeffs.g1[512] - preset_coeffs.g2[512])
        broken = dataclasses.replace(preset_coeffs, f=f)
        report = validate_cpt(broken)
        assert not report.ok
        assert report.worst_identity == pytest.approx(0.1, abs=1e-6)
        assert report.worst_identity_time == pytest.approx(GRID[512])


class TestApplyLambdaMap:
    def test_identity_coefficients_leave_state_unchanged(self):
        rho = sample_random_state(3, 3, rng_stream(1))
        out = apply_lambda_map(1.0, 0.0, 0.0, rho)
        np.testing.assert_array_equal(out.entries, rho.entries)

    def test_excited_state_populations(self, preset_coeffs):
        f, g1, g2 = preset_coeffs.at(1500)
        out = apply_lambda_map(f, g1, g2, pure_state([1, 0, 0]))
        # the returned state is validated, which renormalizes its trace
        populations = np.array([abs(f) ** 2, g1, g2])
        np.testing.assert_allclose(
            out.entries, np.diag(populations / populations.sum()), rtol=0, atol=1e-12
        )

    def test_ground_coherence_untouched(self, preset_coeffs):
        rho = make_density_matrix(
            np.array(
                [[0.4, 0, 0], [0, 0.3, 0.1 + 0.05j], [0, 0.1 - 0.05j, 0.3]],
                dtype=complex,
            )
        )
        # the raw map action keeps the ground coherence entry bitwise
        stack = apply_map_to_grid(preset_coeffs, rho.entries)
        assert np.all(stack[:, 1, 2] == rho.entries[1, 2])
        for k in (100, 777, 2000):
            f, g1, g2 = preset_coeffs.at(k)
            out = apply_lambda_map(f, g1, g2, rho)
            # state validation renormalizes the quadrature-level trace error
            assert out.entries[1, 2] == pytest.approx(rho.entries[1, 2], abs=1e-10)

    def test_wrong_dimension(self, preset_coeffs):
        with pytest.raises(BadDimension):
            apply_lambda_map(1.0, 0.0, 0.0, pure_state([1, 0]))
        with pytest.raises(BadDimension):
            apply_map_to_grid(preset_coeffs, np.zeros((4, 2, 2)))


class TestEvolve:
    """Closed-form evolution of states through apply_map_to_grid."""

    def test_ground_subspace_invariant(self, preset_coeffs):
        rho0 = make_density_matrix(np.diag([0.0, 0.5, 0.5]).astype(complex))
        stack = apply_map_to_grid(preset_coeffs, rho0.entries)
        for state in stack[::200]:
            np.testing.assert_allclose(state, rho0.entries, rtol=0, atol=1e-12)

    def test_excited_state_at_half_period(self, preset_coeffs):
        stack = apply_map_to_grid(preset_coeffs, pure_state([1, 0, 0]).entries)
        g = 0.5 * (1 - np.exp(-0.12))
        np.testing.assert_allclose(
            stack[1000],
            np.diag([np.exp(-0.12), g, g]),
            rtol=0, atol=1e-6,
        )

    def test_full_period_recovers_initial_state(self, preset_coeffs):
        rng = rng_stream(2)
        for _ in range(5):
            rho0 = sample_random_state(3, int(rng.integers(1, 4)), rng)
            stack = apply_map_to_grid(preset_coeffs, rho0.entries)
            np.testing.assert_allclose(stack[-1], rho0.entries, rtol=0, atol=1e-6)

    def test_trajectory_traces(self, preset_coeffs):
        # the raw map output, not renormalized: its trace defect is the
        # quadrature's |x + g1 + g2 - 1| times the excited population
        stack = apply_map_to_grid(preset_coeffs, sample_random_state(3, 2, rng_stream(3)).entries)
        assert np.abs(np.trace(stack, axis1=-2, axis2=-1).real - 1.0).max() <= 1e-9

    def test_grid_stack_matches_pointwise_application(self, preset_coeffs):
        def kraus_sum(f, g1, g2, m):
            # K0 = diag(f, 1, 1), K1 = sqrt(g1)|b><a|, K2 = sqrt(g2)|c><a|
            k0 = np.diag([f, 1.0, 1.0])
            k1 = np.zeros((3, 3), dtype=complex)
            k1[1, 0] = np.sqrt(g1)
            k2 = np.zeros((3, 3), dtype=complex)
            k2[2, 0] = np.sqrt(g2)
            return sum(k @ m @ k.conj().T for k in (k0, k1, k2))

        # level shifts make f complex, so its conjugate is exercised too
        shifted = lambda_map_coefficients(constant_rates(gamma=0.03, shift=0.5), GRID)
        rng = rng_stream(4)
        rho = sample_random_state(3, 3, rng)
        states = np.stack([sample_random_state(3, r, rng).entries for r in (1, 2, 3, 3)])
        for coeffs in (preset_coeffs, shifted):
            stack = apply_map_to_grid(coeffs, rho.entries)
            stacks = apply_map_to_grid(coeffs, states)
            assert stacks.shape == (4, GRID.size, 3, 3)
            for k in (0, 250, 1999):
                f, g1, g2 = coeffs.at(k)
                expected = kraus_sum(f, g1, g2, rho.entries)
                np.testing.assert_allclose(stack[k], expected, rtol=0.0, atol=1e-14)
                for m, evolved in zip(states, stacks):
                    np.testing.assert_allclose(evolved[k], kraus_sum(f, g1, g2, m), rtol=0.0, atol=1e-14)
                # state validation renormalizes the quadrature-level trace error
                np.testing.assert_allclose(
                    apply_lambda_map(f, g1, g2, rho).entries, expected, rtol=0.0, atol=1e-10
                )


def _unequal_rates():
    """Two different decay channels with level shifts: g1 != g2 and complex f."""
    return RateFunctions(
        lambda t: 0.03 * np.sin(t),
        lambda t: 0.05 * np.sin(t) + 0.01,
        lambda t: 0.2 * np.cos(t),
        lambda t: np.full(np.shape(t), 0.1),
    )


class TestMapInvariants:
    @pytest.mark.parametrize(
        "rates, steps",
        [
            (sinusoidal_rates(), 2000),
            (sinusoidal_rates(), 200),
            (constant_rates(gamma=0.03, shift=0.5), 400),
            (_unequal_rates(), 300),
        ],
        ids=["default-2000", "default-200", "shifted", "unequal"],
    )
    def test_closed_form_matches_eigvalsh(self, rates, steps):
        coeffs = lambda_map_coefficients(rates, make_grid(2 * np.pi, steps))
        rng = rng_stream(15)
        pairs = [sample_pure_orthogonal_pair(3, rng) for _ in range(16)]
        pairs += [sample_orthogonal_mixed_pair(3, rng) for _ in range(16)]
        pairs += [
            (sample_random_state(3, int(rng.integers(1, 4)), rng), sample_random_state(3, int(rng.integers(1, 4)), rng))
            for _ in range(16)
        ]
        # the mixed reference pair has a double eigenvalue at t = 0
        pairs.append(mixed_reference_pair())
        deltas = np.stack([r1.entries - r2.entries for r1, r2 in pairs])

        stack = apply_map_to_grid(coeffs, deltas)
        trace, trace_sq, det = map_invariants(coeffs, deltas)
        assert trace.shape == trace_sq.shape == det.shape == stack.shape[:2]
        np.testing.assert_allclose(trace, np.trace(stack, axis1=-2, axis2=-1).real, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            trace_sq, np.trace(stack @ stack, axis1=-2, axis2=-1).real, rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(det, np.linalg.det(stack).real, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            _invariant_distances(trace, trace_sq, det), _clipped_distances(stack), rtol=0, atol=1e-13
        )

    def test_zero_difference_is_exactly_zero(self, preset_coeffs):
        # runs under the warnings-as-errors setting, so a 0/0 would fail here
        invariants = map_invariants(preset_coeffs, np.zeros((2, 3, 3)))
        for values in invariants:
            assert np.all(values == 0.0)
        assert np.all(_invariant_distances(*invariants) == 0.0)

    def test_wrong_dimension(self, preset_coeffs):
        with pytest.raises(BadDimension):
            map_invariants(preset_coeffs, np.zeros((4, 2, 2)))


class TestLindbladIntegrate:
    def test_zero_rates_constant_trajectory(self):
        rho0 = sample_random_state(3, 2, rng_stream(5))
        stack = lindblad_integrate(zero_rates(), [rho0], make_grid(2 * np.pi, 200))
        assert stack.shape == (1, 201, 3, 3)
        np.testing.assert_allclose(stack[0, -1], rho0.entries, rtol=0, atol=1e-12)

    def test_agrees_with_closed_form(self, preset_coeffs):
        rates = sinusoidal_rates()
        rng = rng_stream(6)
        states = [sample_random_state(3, int(rng.integers(1, 4)), rng) for _ in range(3)]
        closed = apply_map_to_grid(preset_coeffs, np.stack([rho.entries for rho in states]))
        integrated = lindblad_integrate(rates, states, GRID)
        assert integrated.shape == closed.shape == (3, GRID.size, 3, 3)
        assert np.abs(closed - integrated).max() < 1e-6

    def test_batch_independence(self):
        # every operation acts on one matrix at a time, so a state's
        # evolution does not depend on the states integrated with it
        rates = _unequal_rates()
        grid = make_grid(2 * np.pi, 200)
        rng = rng_stream(8)
        states = [sample_random_state(3, int(rng.integers(1, 4)), rng) for _ in range(5)]
        batched = lindblad_integrate(rates, states, grid)
        for rho, evolved in zip(states, batched):
            assert np.array_equal(lindblad_integrate(rates, [rho], grid)[0], evolved)

    def test_constant_rates_contract_distances(self):
        rates = constant_rates(gamma=0.03)
        grid = make_grid(2 * np.pi, 400)
        rng = rng_stream(7)
        for _ in range(3):
            s1, s2 = lindblad_integrate(rates, sample_pure_orthogonal_pair(3, rng), grid)
            distances = _clipped_distances(s1[::40] - s2[::40])
            assert np.all(np.diff(distances) <= 1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(BadDimension):
            lindblad_integrate(zero_rates(), [pure_state([1, 0])], GRID)

    @pytest.mark.parametrize("gamma", [1e6, 1e300])
    def test_divergence_is_an_error_not_a_warning(self, gamma):
        # runs under the warnings-as-errors setting, so an overflow or a
        # division by zero left to numpy would fail here as a RuntimeWarning
        with pytest.raises(IntegratorDiverged, match="non-finite"):
            lindblad_integrate(constant_rates(gamma=gamma), [pure_state([1, 0, 0])], make_grid(2 * np.pi, 200))

    def test_positivity_loss_is_reported(self):
        # too large a step for the decay rate: RK4 overshoots the excited
        # population below zero in the first step
        with pytest.raises(PositivityLost, match="t = 0.0314"):
            lindblad_integrate(constant_rates(gamma=1e3), [pure_state([1, 0, 0])], make_grid(2 * np.pi, 200))


class TestRatePresets:
    def test_model_resolution(self):
        rates = rates_from_model({"preset": "sinusoidal", "amplitude": 0.05, "frequency": 2.0})
        assert rates.gamma1(np.pi / 4) == pytest.approx(0.05)
        assert rates_from_model({"preset": "zero"}).gamma2(1.3) == 0.0
        with pytest.raises(ValidationError):
            rates_from_model({"preset": "nope"})

    def test_tabulated_rates(self, tmp_path):
        table = tmp_path / "gamma.csv"
        table.write_text("time,value\n0.0,0.0\n1.0,0.1\n2.0,0.0\n")
        rates = tabulated_rates(gamma1=str(table), gamma2=str(table))
        assert rates.gamma1(0.5) == pytest.approx(0.05)
        assert rates.gamma1(np.array([1.0, 2.0]))[1] == pytest.approx(0.0)

    def test_tabulated_rates_validation(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("0.0,0.0\n")
        with pytest.raises(ValidationError):
            tabulated_rates(gamma1=str(short))
        disorder = tmp_path / "disorder.csv"
        disorder.write_text("1.0,0.0\n0.5,0.1\n")
        with pytest.raises(ValidationError):
            tabulated_rates(gamma1=str(disorder))
        # NaN comparisons are false, so a NaN time would pass the order check
        for cells in ("nan,0.1", "inf,0.1", "1.0,nan", "1.0,-inf"):
            table = tmp_path / "nonfinite.csv"
            table.write_text(f"time,value\n0.0,0.0\n{cells}\n2.0,0.0\n")
            with pytest.raises(ValidationError, match=re.escape(f"rate table {table} row 3: time and value must be finite")):
                tabulated_rates(gamma1=str(table))
        with pytest.raises(ValidationError, match="cannot read rate table"):
            tabulated_rates(gamma1=str(tmp_path))  # a directory
