import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import dynamics, statespace
from backflow.dynamics import (
    POSITIVITY_DRIFT,
    REFINE,
    STEP_BLOCK,
    MapCoefficients,
    RateFunctions,
    _cumulative_trapezoid,
    _from_coordinates,
    _mapped_distances,
    _master_equation_rhs,
    _quadrature,
    _refined_grid,
    _rhs_generators,
    _to_coordinates,
    _without_integrals,
    apply_map_to_grid,
    constant_rates,
    lambda_map_coefficients,
    lindblad_integrate,
    make_grid,
    rates_from_model,
    sinusoidal_rates,
    stretch_ends,
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
from backflow.measure import (
    RISE_TOLERANCE,
    _batched_backflows,
    _rise,
    backflow,
    mixed_reference_pair,
    pure_ab_pair,
    trace_distance_trajectory,
)
from backflow.statespace import (
    DensityMatrix,
    _clipped_distances,
    make_density_matrix,
    pure_state,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_pure_orthogonal_pair,
    sample_random_state,
)
from backflow.verify import spanning_states

GRID = make_grid(2 * np.pi, 2000)


@pytest.fixture(scope="module")
def preset_coeffs():
    return lambda_map_coefficients(sinusoidal_rates(), GRID)


@pytest.fixture(scope="module")
def quadrature_coeffs():
    """The preset's rates integrated by quadrature, the path of tabulated rates."""
    return lambda_map_coefficients(_without_integrals(sinusoidal_rates()), GRID)


def analytic_d(t):
    return 0.03 * (1.0 - np.cos(t))


def analytic_g(t):
    return 0.5 * (1.0 - np.exp(-2.0 * analytic_d(t)))


# the map coefficients and the integrator, which check a grid alike
_BOTH_EVOLUTIONS = pytest.mark.parametrize(
    "evolve",
    [
        lambda grid: lambda_map_coefficients(sinusoidal_rates(), grid),
        lambda grid: lindblad_integrate(sinusoidal_rates(), [pure_state([1, 0, 0])], grid),
    ],
    ids=["coefficients", "integrator"],
)


class TestMapCoefficients:
    def test_initial_values(self, preset_coeffs):
        assert preset_coeffs.f[0] == 1.0
        assert preset_coeffs.g1[0] == 0.0
        assert preset_coeffs.g2[0] == 0.0

    def test_preset_at_half_period(self, preset_coeffs):
        k = 1000  # t = pi on the 2000-step grid
        assert GRID[k] == pytest.approx(np.pi, abs=1e-12)
        assert preset_coeffs.f[k] == pytest.approx(np.exp(-0.06), abs=1e-7)
        assert preset_coeffs.g1[k] == pytest.approx(0.5 * (1 - np.exp(-0.12)), abs=1e-7)
        assert preset_coeffs.g2[k] == pytest.approx(0.5 * (1 - np.exp(-0.12)), abs=1e-7)

    def test_preset_full_period_returns_to_identity(self, preset_coeffs):
        assert abs(preset_coeffs.f[-1] - 1.0) < 1e-6
        assert abs(preset_coeffs.g1[-1]) < 1e-6
        assert abs(preset_coeffs.g2[-1]) < 1e-6

    def test_matches_analytic_everywhere(self, quadrature_coeffs):
        decay, spread = _quadrature(_without_integrals(sinusoidal_rates()), GRID)
        np.testing.assert_allclose(decay / 2.0, analytic_d(GRID), rtol=0, atol=1e-7)
        assert np.all(spread == 0.0)
        np.testing.assert_allclose(quadrature_coeffs.g1, analytic_g(GRID), rtol=0, atol=1e-7)
        np.testing.assert_allclose(quadrature_coeffs.f, np.exp(-analytic_d(GRID)), rtol=0, atol=1e-7)

    def test_quadrature_convergence_under_step_halving(self):
        rates = _without_integrals(sinusoidal_rates())
        coarse = lambda_map_coefficients(rates, make_grid(2 * np.pi, 1000))
        fine = lambda_map_coefficients(rates, make_grid(2 * np.pi, 2000))
        assert abs(coarse.g1[-1] - fine.g1[-1]) < 1e-6
        assert abs(coarse.f[-1] - fine.f[-1]) < 1e-6

    def test_fields_own_one_entry_per_grid_point(self, preset_coeffs, quadrature_coeffs):
        # views into the refined quadrature arrays would keep them alive
        for coeffs in (preset_coeffs, quadrature_coeffs):
            for field in dataclasses.fields(coeffs):
                values = getattr(coeffs, field.name)
                assert values.base is None, field.name
                assert values.shape == (2001,), field.name

    def test_fields_are_read_only_copies(self, preset_coeffs):
        # the cached map scale is built from the fields, so none may change
        for field in dataclasses.fields(preset_coeffs):
            with pytest.raises(ValueError, match="read-only"):
                getattr(preset_coeffs, field.name)[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            preset_coeffs._scale[0, 0, 0] = 0.5
        f = preset_coeffs.f.copy()
        coeffs = dataclasses.replace(preset_coeffs, f=f)
        f[:] = 0.0  # the caller's array stays writable, and its writes do not reach the copy
        assert np.array_equal(coeffs.f, preset_coeffs.f)

    def test_replaced_coefficients_build_their_own_scale(self, preset_coeffs):
        before = apply_map_to_grid(preset_coeffs, pure_state([1, 1, 0]).entries)
        shifted = preset_coeffs.f * np.cos(0.5 * GRID)
        coeffs = dataclasses.replace(preset_coeffs, f=shifted)
        assert coeffs._scale is not preset_coeffs._scale
        assert np.array_equal(coeffs._scale[:, 0, 0], shifted**2)
        assert np.array_equal(coeffs._scale[:, 0, 1], shifted)
        assert np.array_equal(coeffs._scale[:, 1, 0], shifted)
        after = apply_map_to_grid(coeffs, pure_state([1, 1, 0]).entries)
        assert np.array_equal(after[:, 0, 1], shifted / 2)
        assert np.array_equal(apply_map_to_grid(preset_coeffs, pure_state([1, 1, 0]).entries), before)

    @pytest.mark.parametrize("name", ["grid", "f", "g1", "g2"])
    def test_a_complex_field_is_refused(self, preset_coeffs, name):
        # the map is three real functions; level shifts, which a complex f
        # would carry, move no trace distance
        values = getattr(preset_coeffs, name) * np.exp(-0.5j * GRID)
        with pytest.raises(ValidationError, match=f"map coefficient {name} must be real"):
            dataclasses.replace(preset_coeffs, **{name: values})

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

    @_BOTH_EVOLUTIONS
    @pytest.mark.parametrize(
        "times", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [np.nan, 1.0]], ids=["nan-inside", "inf-last", "nan-first"]
    )
    def test_non_finite_grid_times_are_an_input_error(self, evolve, times):
        # NaN passes the strictly-increasing test, and an infinite time
        # would reach the rates; under warnings-as-errors a RuntimeWarning
        # from either would fail here too
        with pytest.raises(DomainError, match="grid times must be finite"):
            evolve(np.array(times))

    @_BOTH_EVOLUTIONS
    @pytest.mark.parametrize(
        "times", [[0.0], [[0.0, 1.0]], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0]], ids=["one-time", "2d", "repeat", "decrease"]
    )
    def test_both_evolutions_check_the_grid_alike(self, evolve, times):
        with pytest.raises(DomainError, match="^grid must contain at least two strictly increasing times$"):
            evolve(np.array(times))


# presets drawn over their parameters, negative values included; the
# closed form and the quadrature agree to 1e-7 on the 2000-step grid while
# |amplitude * frequency| stays within 1.5
PRESETS = st.one_of(
    st.builds(sinusoidal_rates, amplitude=st.floats(-0.5, 0.5), frequency=st.floats(-3.0, 3.0)),
    st.builds(constant_rates, gamma=st.floats(-0.5, 0.5)),
    st.just(zero_rates()),
)


def _coefficients_or_error(rates):
    try:
        return lambda_map_coefficients(rates, GRID)
    except (CptViolation, QuadratureFailure) as error:
        return type(error)


class TestClosedForm:
    """The presets' closed-form coefficients against the quadrature of the same rates."""

    @settings(max_examples=60, deadline=None)
    @given(rates=PRESETS)
    def test_matches_quadrature(self, rates):
        closed = _coefficients_or_error(rates)
        quadrature = _coefficients_or_error(_without_integrals(rates))
        if isinstance(closed, type) or isinstance(quadrature, type):
            assert closed == quadrature
            return
        for name in ("f", "g1", "g2"):
            np.testing.assert_allclose(getattr(closed, name), getattr(quadrature, name), rtol=0, atol=1e-7)
        assert validate_cpt(closed).worst_identity <= 1e-15

    @pytest.mark.parametrize(
        "rates, error",
        [
            (sinusoidal_rates(amplitude=-0.03), CptViolation),
            (sinusoidal_rates(frequency=-1.0), CptViolation),
            (constant_rates(gamma=-0.03), CptViolation),
            # exp(-D) overflows
            (sinusoidal_rates(amplitude=-1e3), QuadratureFailure),
            (constant_rates(gamma=-1e3), QuadratureFailure),
        ],
        ids=["negative-amplitude", "negative-frequency", "negative-gamma", "sinusoidal-overflow", "constant-overflow"],
    )
    def test_both_paths_raise_the_same_error(self, rates, error):
        assert _coefficients_or_error(rates) is error
        assert _coefficients_or_error(_without_integrals(rates)) is error

    def test_zero_frequency_is_the_identity(self):
        # runs under the warnings-as-errors setting, so a 0/0 would fail here
        coeffs = lambda_map_coefficients(sinusoidal_rates(frequency=0.0), GRID)
        assert np.all(coeffs.f == 1.0)
        for name in ("g1", "g2"):
            assert np.all(getattr(coeffs, name) == 0.0), name

    @pytest.mark.parametrize(
        "rates",
        [sinusoidal_rates(), sinusoidal_rates(0.5, 3.0), constant_rates(), constant_rates(0.5), zero_rates()],
        ids=["default", "fast-sinusoidal", "constant", "fast-constant", "zero"],
    )
    @pytest.mark.parametrize("steps", [10, 51, 2000, 10**4])
    def test_presets_meet_the_identity_without_quadrature(self, monkeypatch, rates, steps):
        def refuse(grid):
            raise AssertionError("a preset ran the refined-grid quadrature")

        monkeypatch.setattr(dynamics, "_refined_grid", refuse)
        coeffs = lambda_map_coefficients(rates, make_grid(2 * np.pi, steps))
        assert validate_cpt(coeffs).worst_identity <= 1e-15
        np.testing.assert_array_equal(coeffs.g1, coeffs.g2)
        with pytest.raises(AssertionError, match="refined-grid"):
            lambda_map_coefficients(_without_integrals(rates), make_grid(2 * np.pi, steps))

    def test_replaced_rate_drops_its_integral(self):
        # a preset's rate replaced by a plain function takes the quadrature
        # with it, never the preset's stale closed form
        rate = _switched_on_rates(0.03, 2.5).gamma1
        rates = dataclasses.replace(sinusoidal_rates(), gamma1=rate, gamma2=rate)
        coeffs = lambda_map_coefficients(rates, GRID)
        np.testing.assert_allclose(coeffs.f, np.exp(-np.maximum(GRID - 2.5, 0.0) * 0.03), rtol=0, atol=1e-4)

    @pytest.mark.parametrize("steps", [600, 2000])
    def test_tabulated_rates_move_only_by_the_feeding_sum(self, tmp_path, steps):
        # each g_i was its own trapezoid of gamma_i exp(-D), so g1 + g2 missed
        # 1 - exp(-D) by the quadrature error; now only g1 - g2 is integrated,
        # D and f are unchanged and each g_i moves by half that error
        rates = _tabulated_two_rates(tmp_path)
        grid = make_grid(2 * np.pi, steps)
        coeffs = lambda_map_coefficients(rates, grid)
        fine = _refined_grid(grid)
        gammas = [np.asarray(rates.gamma1(fine)), np.asarray(rates.gamma2(fine))]
        d1, d2 = (_cumulative_trapezoid(gamma, fine) for gamma in gammas)
        decay = d1 + d2
        separate = [_cumulative_trapezoid(gamma * np.exp(-decay), fine)[::REFINE] for gamma in gammas]
        np.testing.assert_array_equal(_quadrature(rates, grid)[0], decay[::REFINE])
        np.testing.assert_array_equal(coeffs.f, np.exp(-decay[::REFINE] / 2.0))
        sum_error = np.abs(separate[0] + separate[1] + np.expm1(-decay[::REFINE])).max()
        moved = max(np.abs(coeffs.g1 - separate[0]).max(), np.abs(coeffs.g2 - separate[1]).max())
        assert moved <= sum_error / 2.0 + 1e-15
        assert moved <= {600: 1e-9, 2000: 1e-10}[steps]

    def test_tabulated_map_is_pinned(self, tmp_path):
        # g1 != g2 through the quadrature: a change to how the coefficients
        # are integrated, stored or applied that moves a byte shows here
        coeffs = lambda_map_coefficients(_tabulated_two_rates(tmp_path), GRID)
        points = [0, 1000, 2000]
        assert coeffs.f[points].tolist() == [1.0, 0.9074436134794279, 0.9100572406760246]
        assert coeffs.g1[points].tolist() == [0.0, 0.1453413034042552, 0.11550829315282178]
        assert coeffs.g2[points].tolist() == [0.0, 0.03120478495114335, 0.056287525540318614]
        assert backflow(trace_distance_trajectory(coeffs, *pure_ab_pair())) == 0.03652695383362259
        rho1, rho2 = sample_orthogonal_mixed_pair(3, rng_stream(31))
        distances = _mapped_distances(coeffs, rho1.entries - rho2.entries)
        assert distances[[0, 500, 1000, 1500, 2000]].tolist() == [
            1.0, 0.9616956702967693, 0.9416297024079936, 0.9358271112180934, 0.944414547995481,
        ]
        assert distances.sum() == 1906.517828301282


def _wrapped(rates):
    """The same rates, each behind a wrapper of its own, so no two share a function object."""
    return RateFunctions(*(lambda t, fn=getattr(rates, f.name): fn(t) for f in dataclasses.fields(rates)))


def _shared_tabulated_rates(directory):
    """A tabulated gamma = 0.05 sin t + 0.02 that serves both decay channels."""
    t = np.linspace(0.0, 2 * np.pi, 2001)
    path = directory / "gamma.csv"
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), (0.05 * np.sin(t) + 0.02).tolist())))
    rates = tabulated_rates(gamma1=str(path))
    return dataclasses.replace(rates, gamma2=rates.gamma1)


class TestSharedRates:
    """The quadrature samples and integrates a function that serves several rates once."""

    @pytest.mark.parametrize("model", ["sinusoidal", "tabulated", "two-tables"])
    @pytest.mark.parametrize("steps", [51, 2000])
    def test_shared_functions_change_no_coefficient(self, tmp_path, model, steps):
        rates = {
            "sinusoidal": lambda: _without_integrals(sinusoidal_rates()),
            "tabulated": lambda: _shared_tabulated_rates(tmp_path),
            "two-tables": lambda: _tabulated_two_rates(tmp_path),
        }[model]()
        grid = make_grid(2 * np.pi, steps)
        shared, apart = lambda_map_coefficients(rates, grid), lambda_map_coefficients(_wrapped(rates), grid)
        for field in dataclasses.fields(shared):
            assert np.array_equal(getattr(shared, field.name), getattr(apart, field.name)), field.name
        if model != "two-tables":
            assert np.all(shared.g1 == shared.g2)

    def test_each_function_is_sampled_once(self, monkeypatch):
        calls = []
        rate = _without_integrals(sinusoidal_rates()).gamma1

        def counted(t):
            calls.append("gamma")
            return rate(t)

        lambda_map_coefficients(RateFunctions(counted, counted), GRID)
        assert calls == ["gamma"]

    def test_a_non_finite_shared_rate_names_gamma1(self):
        def bad(t):
            return np.full(np.shape(t), np.nan)

        with pytest.raises(QuadratureFailure, match="rate gamma1 is not finite"):
            lambda_map_coefficients(RateFunctions(bad, bad), GRID)


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
        # force g1 + g2 + f^2 = 0.9 at one grid point
        f[512] = np.sqrt(0.9 - preset_coeffs.g1[512] - preset_coeffs.g2[512])
        broken = dataclasses.replace(preset_coeffs, f=f)
        report = validate_cpt(broken)
        assert not report.ok
        assert report.worst_identity == pytest.approx(0.1, abs=1e-6)
        assert report.worst_identity_time == pytest.approx(GRID[512])


class TestApplyLambdaMap:
    def test_identity_coefficients_leave_state_unchanged(self, preset_coeffs):
        # the map is the identity at t = 0
        assert (preset_coeffs.f[0], preset_coeffs.g1[0], preset_coeffs.g2[0]) == (1.0, 0.0, 0.0)
        rho = sample_random_state(3, 3, rng_stream(1))
        out = apply_map_to_grid(preset_coeffs, rho.entries)[0]
        np.testing.assert_array_equal(out, rho.entries)

    def test_excited_state_populations(self, preset_coeffs):
        k = 1500
        f, g1, g2 = preset_coeffs.f[k], preset_coeffs.g1[k], preset_coeffs.g2[k]
        out = apply_map_to_grid(preset_coeffs, pure_state([1, 0, 0]).entries)[k]
        # the raw map action, not renormalized
        np.testing.assert_allclose(out, np.diag([abs(f) ** 2, g1, g2]), rtol=0, atol=1e-12)

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

    def test_matches_a_scale_built_per_call(self, preset_coeffs):
        # the scale is built once per coefficients; the products must be
        # those of building it on every call
        def per_call(coeffs, matrices):
            m = np.asarray(matrices, dtype=complex)
            f = coeffs.f
            scale = np.ones((f.size, 3, 3), dtype=complex)
            scale[:, 0, 0] = np.abs(f) ** 2
            scale[:, 0, 1:] = f[:, None]
            scale[:, 1:, 0] = np.conj(f)[:, None]
            out = m[..., None, :, :] * scale
            out[..., 1, 1] += coeffs.g1 * m[..., None, 0, 0]
            out[..., 2, 2] += coeffs.g2 * m[..., None, 0, 0]
            return out

        # g1 != g2, and coefficients built with a replaced f that turns negative
        unequal = lambda_map_coefficients(_unequal_rates(), GRID)
        replaced_f = dataclasses.replace(unequal, f=unequal.f * np.cos(0.5 * GRID))
        rng = rng_stream(23)
        states = np.stack([sample_random_state(3, r, rng).entries for r in (1, 2, 3)])
        for coeffs in (preset_coeffs, unequal, stretch_ends(unequal), replaced_f):
            for matrices in (states[0], states, states[:, None] - states[None]):
                assert np.array_equal(apply_map_to_grid(coeffs, matrices), per_call(coeffs, matrices))

    def test_wrong_dimension(self, preset_coeffs):
        with pytest.raises(BadDimension):
            apply_map_to_grid(preset_coeffs, pure_state([1, 0]).entries)
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

        # unequal rates feed g1 != g2, and a replaced f turns negative
        unequal = lambda_map_coefficients(_unequal_rates(), GRID)
        replaced_f = dataclasses.replace(unequal, f=unequal.f * np.cos(0.5 * GRID))
        rng = rng_stream(4)
        rho = sample_random_state(3, 3, rng)
        states = np.stack([sample_random_state(3, r, rng).entries for r in (1, 2, 3, 3)])
        for coeffs in (preset_coeffs, unequal, replaced_f):
            stack = apply_map_to_grid(coeffs, rho.entries)
            stacks = apply_map_to_grid(coeffs, states)
            assert stacks.shape == (4, GRID.size, 3, 3)
            for k in (0, 250, 1999):
                f, g1, g2 = coeffs.f[k], coeffs.g1[k], coeffs.g2[k]
                expected = kraus_sum(f, g1, g2, rho.entries)
                np.testing.assert_allclose(stack[k], expected, rtol=0.0, atol=1e-14)
                for m, evolved in zip(states, stacks):
                    np.testing.assert_allclose(evolved[k], kraus_sum(f, g1, g2, m), rtol=0.0, atol=1e-14)


def _unequal_rates():
    """Two different decay channels: g1 != g2."""
    return RateFunctions(lambda t: 0.03 * np.sin(t), lambda t: 0.05 * np.sin(t) + 0.01)


def _tabulated_two_rates(directory):
    """Tabulated gamma1 = 0.05 sin t + 0.02 and gamma2 = 0.03 sin 2t + 0.01 on 2001 knots."""
    t = np.linspace(0.0, 2 * np.pi, 2001)
    tables = {}
    for name, values in (("gamma1", 0.05 * np.sin(t) + 0.02), ("gamma2", 0.03 * np.sin(2 * t) + 0.01)):
        path = directory / f"{name}.csv"
        path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), values.tolist())))
        tables[name] = str(path)
    return rates_from_model({"preset": "tabulated", **tables})


def _full_grid_backflows(coeffs, deltas, rise_tolerance=0.0):
    """The reference reduction: the distance at every grid point, then the rises."""
    return _rise(_clipped_distances(apply_map_to_grid(coeffs, deltas)), rise_tolerance)


def _sampled_deltas(seed, n=16):
    """Differences of n pure and n mixed orthogonal pairs from the stream ``seed``."""
    rng = rng_stream(seed)
    pairs = [sample_pure_orthogonal_pair(3, rng) for _ in range(n)]
    pairs += [sample_orthogonal_mixed_pair(3, rng) for _ in range(n)]
    return np.stack([r1.entries - r2.entries for r1, r2 in pairs])


def _assert_stretch_ends_match_full_grid(coeffs, deltas, rise_tolerances=(0.0,)):
    ends = stretch_ends(coeffs)
    for rise_tolerance in rise_tolerances:
        np.testing.assert_allclose(
            _batched_backflows(ends, deltas, rise_tolerance),
            _full_grid_backflows(coeffs, deltas, rise_tolerance),
            rtol=0,
            atol=1e-12,
        )
    return ends


# The class keeps the name of the closed-form invariant scorer it replaced; it
# checks candidate scoring at the stretch ends against the full grid.
class TestMapInvariants:
    @pytest.mark.parametrize(
        "rates, steps",
        [
            (sinusoidal_rates(), 2000),
            (sinusoidal_rates(), 200),
            (constant_rates(gamma=0.03), 400),
            (_unequal_rates(), 300),
        ],
        ids=["default-2000", "default-200", "constant", "unequal"],
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
        _assert_stretch_ends_match_full_grid(coeffs, deltas, (0.0, RISE_TOLERANCE))

    # the ids name a diagonal whose traceless part, as for every state
    # difference, is fed in: diag(2, -1, -1) with a double eigenvalue, and
    # the zero matrix left of the identity
    @pytest.mark.parametrize("scale", [1.0, -1.0, 0.25, -0.25])
    @pytest.mark.parametrize(
        "diagonal", [(2.0, -1.0, -1.0), (1.0, 1.0, 1.0)], ids=["r-is-one", "p-is-zero"]
    )
    def test_closed_form_at_the_edges(self, diagonal, scale):
        m = np.diag((np.array(diagonal) - np.mean(diagonal)) * scale).astype(complex)[None]
        rho1, rho2 = mixed_reference_pair()
        deltas = np.concatenate([m, scale * (rho1.entries - rho2.entries)[None]])
        half_step = np.pi / 1000
        # (rates, grid, kept grid points): no dynamics, a one-step grid, the
        # turning point on the last grid point and one step before it
        for rates, grid, kept in (
            (zero_rates(), make_grid(2 * np.pi, 200), [0, 200]),
            (sinusoidal_rates(), make_grid(0.05, 1), [0, 1]),
            (sinusoidal_rates(), make_grid(np.pi, 1000), [0, 1000]),
            (sinusoidal_rates(), make_grid(np.pi + half_step, 1001), [0, 1000, 1001]),
        ):
            coeffs = lambda_map_coefficients(rates, grid)
            ends = _assert_stretch_ends_match_full_grid(coeffs, deltas)
            np.testing.assert_array_equal(ends.grid, grid[kept])

    def test_zero_difference_is_exactly_zero(self, preset_coeffs):
        # runs under the warnings-as-errors setting, so a 0/0 would fail here
        assert np.all(_batched_backflows(stretch_ends(preset_coeffs), np.zeros((2, 3, 3)), 0.0) == 0.0)

    def test_wrong_dimension(self, preset_coeffs):
        with pytest.raises(BadDimension):
            _batched_backflows(stretch_ends(preset_coeffs), np.zeros((4, 2, 2)), 0.0)
        with pytest.raises(BadDimension):
            _mapped_distances(preset_coeffs, np.zeros((4, 4)))

    @pytest.mark.parametrize(
        "rates, steps",
        [
            (sinusoidal_rates(), 2000),
            (sinusoidal_rates(), 200),
            (constant_rates(gamma=0.03), 400),
            (_unequal_rates(), 300),
        ],
        ids=["default-2000", "default-200", "constant", "unequal"],
    )
    def test_mapped_distances_match_eigvalsh(self, rates, steps):
        # the distances from a difference's invariants against an eigensolve
        # of the mapped difference at every grid point; the unequal model
        # has g1 != g2
        coeffs = lambda_map_coefficients(rates, make_grid(2 * np.pi, steps))
        rng = rng_stream(16)
        pairs = [
            (sample_random_state(3, r1, rng), sample_random_state(3, r2, rng))
            for r1 in (1, 2, 3)
            for r2 in (1, 2, 3)
            for _ in range(4)
        ]
        pairs += [sample_pure_orthogonal_pair(3, rng) for _ in range(8)]
        pairs += [sample_orthogonal_mixed_pair(3, rng) for _ in range(8)]
        # the mixed reference pair has a double eigenvalue at t = 0
        pairs.append(mixed_reference_pair())
        deltas = np.stack([r1.entries - r2.entries for r1, r2 in pairs] + [np.zeros((3, 3))])
        expected = np.clip(0.5 * np.abs(np.linalg.eigvalsh(apply_map_to_grid(coeffs, deltas))).sum(axis=-1), 0.0, 1.0)
        distances = _mapped_distances(coeffs, deltas)
        assert distances.shape == (len(deltas), coeffs.grid.size)
        np.testing.assert_allclose(distances, expected, rtol=0, atol=1e-14)
        assert np.all(distances[-1] == 0.0)
        # each difference's distances depend on it alone
        for delta, row in zip(deltas, distances):
            assert np.array_equal(_mapped_distances(coeffs, delta), row)
        assert np.array_equal(_mapped_distances(coeffs, deltas.reshape(3, -1, 3, 3)), distances.reshape(3, -1, steps + 1))


class TestStretchEnds:
    def test_default_model_keeps_zero_pi_and_two_pi(self, preset_coeffs):
        ends = stretch_ends(preset_coeffs)
        np.testing.assert_array_equal(ends.grid, GRID[[0, 1000, 2000]])
        np.testing.assert_allclose(ends.grid, [0.0, np.pi, 2 * np.pi], rtol=0, atol=1e-15)
        for name in ("f", "g1", "g2"):
            np.testing.assert_array_equal(getattr(ends, name), getattr(preset_coeffs, name)[[0, 1000, 2000]])

    def test_constant_rates_keep_the_ends(self):
        # a semigroup contracts on every step, so no pair can score a rise
        grid = make_grid(2 * np.pi, 400)
        coeffs = lambda_map_coefficients(constant_rates(gamma=0.03), grid)
        ends = _assert_stretch_ends_match_full_grid(coeffs, _sampled_deltas(16), (0.0, RISE_TOLERANCE))
        np.testing.assert_array_equal(ends.grid, grid[[0, -1]])
        assert np.all(_batched_backflows(ends, _sampled_deltas(16), RISE_TOLERANCE) == 0.0)

    def test_rate_zero_inside_a_step(self):
        # at 1999 steps the rates' zero at pi falls inside a step, which
        # turns the kind from contracting to expanding at its far end
        grid = make_grid(2 * np.pi, 1999)
        coeffs = lambda_map_coefficients(sinusoidal_rates(), grid)
        assert not np.any(np.isclose(grid, np.pi, rtol=0, atol=1e-6))
        ends = _assert_stretch_ends_match_full_grid(coeffs, _sampled_deltas(17), (0.0, RISE_TOLERANCE))
        assert ends.grid.size == 3
        assert 0.0 < ends.grid[1] - np.pi < grid[1]

    def test_tabulated_mixed_steps(self, tmp_path):
        # rates of opposite sign make g1 rise while g2 falls: mixed steps
        grid = make_grid(2 * np.pi, 600)
        coeffs = lambda_map_coefficients(_tabulated_two_rates(tmp_path), grid)
        mixed = np.diff(coeffs.g1) * np.diff(coeffs.g2) < 0
        assert 0 < mixed.sum() < mixed.size
        ends = _assert_stretch_ends_match_full_grid(coeffs, _sampled_deltas(18, 64), (0.0, RISE_TOLERANCE))
        assert ends.grid.size < grid.size
        assert np.isin(grid[:-1][mixed], ends.grid).all() and np.isin(grid[1:][mixed], ends.grid).all()

    def test_random_walk_coefficients(self):
        # valid coefficients from a random walk of (g1, g2) inside the simplex:
        # every step kind occurs, in runs of random length
        rng = rng_stream(19)
        g = np.cumsum(rng.normal(0.0, 0.004, size=(301, 2)) * rng.integers(0, 2, size=(301, 1)), axis=0)
        g = np.abs(g - g[0])
        x = 1.0 - g.sum(axis=1)
        assert x.min() > 0.0
        grid = np.linspace(0.0, 3.0, 301)
        coeffs = MapCoefficients(grid, np.sqrt(x), g[:, 0], g[:, 1])
        ends = _assert_stretch_ends_match_full_grid(coeffs, _sampled_deltas(20, 64), (0.0, RISE_TOLERANCE))
        assert 3 < ends.grid.size < grid.size

    @pytest.mark.parametrize(
        "model, steps, kept",
        [("default", 2000, 3), ("constant", 2000, 2), ("two-tables", 2000, 897), ("two-tables", 10**4, 4465)],
    )
    def test_stretch_ends_keep_every_point_of_their_own(self, tmp_path, model, steps, kept):
        # a run of same-kind steps has that kind's sign pattern overall and
        # each mixed step keeps both ends, so the kept points are kept again;
        # histogram_backflow scores its samples on its stretch ends for this
        rates = {
            "default": sinusoidal_rates,
            "constant": constant_rates,
            "two-tables": lambda: _tabulated_two_rates(tmp_path),
        }[model]()
        ends = stretch_ends(lambda_map_coefficients(rates, make_grid(2 * np.pi, steps)))
        again = stretch_ends(ends)
        assert ends.grid.size == kept
        for field in dataclasses.fields(ends):
            assert np.array_equal(getattr(again, field.name), getattr(ends, field.name)), field.name


class TestNoLevelShifts:
    """A level shift of ``a`` would evolve every state by U = diag(e^{i phi}, 1, 1),
    which commutes with the map, so it moves no trace distance; the model has none."""

    @pytest.mark.parametrize("model", ["default", "two-tables"])
    def test_a_joint_phase_moves_no_distance(self, tmp_path, model):
        rates = sinusoidal_rates() if model == "default" else _tabulated_two_rates(tmp_path)
        coeffs = lambda_map_coefficients(rates, GRID)
        rng = rng_stream(27)
        for _ in range(8):
            rho1, rho2 = (sample_random_state(3, int(rng.integers(1, 4)), rng) for _ in range(2))
            u = np.diag([np.exp(1j * rng.uniform(0.0, 2 * np.pi)), 1.0, 1.0])
            states = np.stack([rho1.entries, rho2.entries])
            turned = u @ states @ u.conj().T
            delta, turned_delta = states[0] - states[1], turned[0] - turned[1]
            np.testing.assert_allclose(
                _mapped_distances(coeffs, turned_delta), _mapped_distances(coeffs, delta), rtol=0, atol=1e-15
            )
            mapped = apply_map_to_grid(coeffs, states)
            np.testing.assert_allclose(apply_map_to_grid(coeffs, turned), u @ mapped @ u.conj().T, rtol=0, atol=1e-15)

    def test_a_model_is_its_two_decay_rates(self):
        # the config keys shift, lambda1 and lambda2 are refused in test_cli
        assert [field.name for field in dataclasses.fields(RateFunctions)] == ["gamma1", "gamma2"]
        assert [field.name for field in dataclasses.fields(MapCoefficients)] == ["grid", "f", "g1", "g2"]

    @pytest.mark.parametrize("stretched", [False, True], ids=["grid", "stretch-ends"])
    @pytest.mark.parametrize("model", ["sinusoidal", "constant", "zero", "tabulated", "quadrature"])
    @pytest.mark.parametrize("name", ["grid", "f", "g1", "g2"])
    def test_every_field_is_real(self, tmp_path, name, model, stretched):
        rates = {
            "sinusoidal": sinusoidal_rates,
            "constant": constant_rates,
            "zero": zero_rates,
            "tabulated": lambda: _tabulated_two_rates(tmp_path),
            "quadrature": lambda: _without_integrals(sinusoidal_rates()),
        }[model]()
        coeffs = lambda_map_coefficients(rates, GRID)
        if stretched:
            coeffs = stretch_ends(coeffs)
        assert getattr(coeffs, name).dtype == np.float64


class TestLindbladIntegrate:
    def test_zero_rates_constant_trajectory(self):
        rho0 = sample_random_state(3, 2, rng_stream(5))
        stack = lindblad_integrate(zero_rates(), [rho0], make_grid(2 * np.pi, 200))
        assert stack.shape == (1, 201, 3, 3)
        np.testing.assert_allclose(stack[0, -1], rho0.entries, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rates", [sinusoidal_rates(), _unequal_rates()], ids=["preset", "unequal"])
    def test_agrees_with_closed_form(self, rates):
        # the unequal rates reach the map through the quadrature, with g1 != g2
        coeffs = lambda_map_coefficients(rates, GRID)
        rng = rng_stream(6)
        states = [sample_random_state(3, int(rng.integers(1, 4)), rng) for _ in range(3)]
        closed = apply_map_to_grid(coeffs, np.stack([rho.entries for rho in states]))
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

    @pytest.mark.parametrize("rates", [sinusoidal_rates(), _unequal_rates()], ids=["preset", "unequal"])
    def test_every_step_is_hermitian_with_unit_trace(self, rates):
        # states are Hermitian by construction of their real coordinates, and
        # a block's states are renormalized together after the block; every
        # returned step must be exactly Hermitian, with a trace within one
        # unit in the last place of 1
        rng = rng_stream(24)
        states = spanning_states() + [sample_random_state(3, rank, rng) for rank in (1, 2, 3) for _ in range(2)]
        stack = lindblad_integrate(rates, states, GRID)
        assert stack.shape == (15, 2001, 3, 3)
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
        assert np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0).max() <= np.finfo(float).eps
        # a start that is Hermitian only to rounding is made exactly Hermitian
        entries = np.array(states[-1].entries)
        entries[1, 0] = np.nextafter(entries[1, 0].real, 1.0) + 1j * entries[1, 0].imag
        [evolved] = lindblad_integrate(rates, [DensityMatrix(entries)], GRID)
        assert np.array_equal(evolved[1:], evolved[1:].conj().swapaxes(-1, -2))

    def test_wrong_dimension(self):
        with pytest.raises(BadDimension):
            lindblad_integrate(zero_rates(), [pure_state([1, 0])], GRID)

    def test_empty_stack(self):
        # the layout of apply_map_to_grid on a (0, 3, 3) stack; the grid is still checked
        stack = lindblad_integrate(zero_rates(), [], make_grid(2 * np.pi, 200))
        assert stack.shape == (0, 201, 3, 3)
        assert stack.dtype == complex
        with pytest.raises(DomainError, match="strictly increasing"):
            lindblad_integrate(zero_rates(), [], np.array([1.0, 0.0]))

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


class TestCoordinates:
    """The 9 real coordinates in which the integrator carries Hermitian 3x3 matrices."""

    def test_round_trip_is_exact(self):
        rng = rng_stream(25)
        states = np.stack([sample_random_state(3, rank, rng).entries for rank in (1, 2, 3) for _ in range(20)])
        for stack in (states, states[:30] - states[30:], states[:, None]):
            coordinates = _to_coordinates(stack)
            assert coordinates.dtype == float and coordinates.shape == stack.shape[:-2] + (9,)
            assert np.array_equal(_from_coordinates(coordinates), stack)
            assert np.array_equal(_to_coordinates(_from_coordinates(coordinates)), coordinates)

    def test_generators_match_the_master_equation(self):
        # random Hermitian matrices, not states, at rates of either sign
        rng = rng_stream(26)
        generators = _rhs_generators()
        assert generators.dtype == float and generators.shape == (2, 9, 9)
        for _ in range(50):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            matrix = (g + g.conj().T) * 10.0 ** rng.uniform(-3, 3)
            rates = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-3, 3, 2)
            evolved = _from_coordinates(_to_coordinates(matrix) @ np.tensordot(rates, generators, 1))
            # a few roundings of terms no larger than the rates times the entries
            scale = np.abs(rates).max() * np.abs(matrix).max()
            np.testing.assert_allclose(
                evolved, _master_equation_rhs(*rates, matrix), rtol=0, atol=16 * np.finfo(float).eps * scale
            )


def _reference_integrate(rates, states, grid):
    """The per-step RK4 loop that the propagators replace: four right-hand
    sides per step, then symmetrization, renormalization and the checks."""
    mid = (grid[:-1] + grid[1:]) / 2.0
    fns = (rates.gamma1, rates.gamma2)
    at_nodes = [np.asarray(fn(grid), dtype=float) for fn in fns]
    at_mids = [np.asarray(fn(mid), dtype=float) for fn in fns]
    rho = np.stack([state.entries for state in states])
    out = np.empty((rho.shape[0], grid.size, 3, 3), dtype=complex)
    out[:, 0] = rho
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(grid.size - 1):
            h = grid[k + 1] - grid[k]
            r0, rm, r1 = ([v[k] for v in at_nodes], [v[k] for v in at_mids], [v[k + 1] for v in at_nodes])
            k1 = _master_equation_rhs(*r0, rho)
            k2 = _master_equation_rhs(*rm, rho + 0.5 * h * k1)
            k3 = _master_equation_rhs(*rm, rho + 0.5 * h * k2)
            k4 = _master_equation_rhs(*r1, rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
            rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
            if not np.all(np.isfinite(rho)):
                raise IntegratorDiverged(f"non-finite entries after step to t = {grid[k + 1]:.6g}")
            min_eig = float(np.linalg.eigvalsh(rho)[:, 0].min())
            if min_eig < -POSITIVITY_DRIFT:
                raise PositivityLost(f"min eigenvalue {min_eig:.3e} at t = {grid[k + 1]:.6g}")
            out[:, k + 1] = rho
    return out


def _switched_on_rates(gamma, after):
    """No decay until ``after``, then a constant rate ``gamma`` in both channels."""

    def rate(t):
        return np.where(np.asarray(t, dtype=float) > after, gamma, 0.0)

    return dataclasses.replace(zero_rates(), gamma1=rate, gamma2=rate)


def _failure_time(error):
    return re.search(r"t = (\S+)$", str(error)).group(1)


class TestRk4Propagators:
    """The per-step propagators against the per-step RK4 loop they replace."""

    @pytest.mark.parametrize(
        "rates, grid",
        [
            (_unequal_rates(), make_grid(2 * np.pi, 300)),
            # every step length differs, and the steps grow along the grid
            (sinusoidal_rates(0.5, 3.0), 2 * np.pi * np.linspace(0.0, 1.0, 241) ** 1.5),
            (_unequal_rates(), make_grid(2 * np.pi, 2 * STEP_BLOCK + 5)),
            # a last block of one step, where the running products take no doubling
            (_unequal_rates(), make_grid(2 * np.pi / 200, 1)),
            (_unequal_rates(), make_grid(2 * np.pi, STEP_BLOCK + 1)),
            (_unequal_rates(), make_grid(2 * np.pi, 2 * STEP_BLOCK + 1)),
        ],
        ids=[
            "unequal-rates",
            "non-uniform-grid",
            "partial-last-block",
            "one-step",
            "one-block-and-a-step",
            "two-blocks-and-a-step",
        ],
    )
    def test_matches_per_step_reference(self, rates, grid):
        rng = rng_stream(16)
        states = spanning_states() + [sample_random_state(3, rank, rng) for rank in (1, 2, 3)]
        integrated = lindblad_integrate(rates, states, grid)
        np.testing.assert_allclose(integrated, _reference_integrate(rates, states, grid), rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "gamma, error",
        [(1e3, PositivityLost), (1e6, PositivityLost), (1e300, IntegratorDiverged)],
        # at 1e6 the states lose positivity one step before they overflow,
        # in the same block, and the earlier step is the one reported
        ids=["positivity", "positivity-before-overflow", "divergence"],
    )
    def test_failure_after_the_first_block(self, gamma, error):
        # the rate switches on at t = 2.5, so the first failing step is step 80
        # of 200, past the first block
        rates = _switched_on_rates(gamma, 2.5)
        grid = make_grid(2 * np.pi, 200)
        states = [pure_state([1, 0, 0]), pure_state([1, 1, 0])]
        with pytest.raises(error) as reference:
            _reference_integrate(rates, states, grid)
        with pytest.raises(error) as raised:
            lindblad_integrate(rates, states, grid)
        t = float(_failure_time(raised.value))
        assert grid[STEP_BLOCK] < t
        assert _failure_time(raised.value) == _failure_time(reference.value)

    @pytest.mark.parametrize("gamma", [-1.0, 1e3, 1e6])
    def test_one_lost_state_is_reported_as_if_every_state_were_eigensolved(self, monkeypatch, gamma):
        # ground states stay put under any rates, so the one state with an
        # excited population is the stack's one state that loses positivity;
        # clearing the others by the certificate moves neither the step nor
        # the minimum reported
        rates = _switched_on_rates(gamma, 2.5)
        grid = make_grid(2 * np.pi, 200)
        states = [pure_state(v) for v in ([0, 1, 0], [0, 0, 1], [0, 1, 1], [0, 1, 1j], [1, 1, 0])]
        with pytest.raises(PositivityLost) as raised:
            lindblad_integrate(rates, states, grid)
        monkeypatch.setattr(statespace, "_certified_above", lambda m, tol: np.zeros(m.shape[:-2], dtype=bool))
        with pytest.raises(PositivityLost) as eigensolved:
            lindblad_integrate(rates, states, grid)
        assert grid[STEP_BLOCK] < float(_failure_time(raised.value))
        assert str(raised.value) == str(eigensolved.value)

    def test_valid_states_take_no_eigensolve(self, monkeypatch):
        matrices = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            matrices.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        lindblad_integrate(sinusoidal_rates(), spanning_states(), make_grid(2 * np.pi, 2000))
        assert sum(matrices) == 0

    def test_peak_memory_is_the_output_and_a_fixed_margin(self):
        # numpy reports its buffers to tracemalloc; propagators built for
        # every step at once would take 1.3 kB per step and array
        basis = spanning_states()
        grid = make_grid(2 * np.pi, 2000)
        lindblad_integrate(sinusoidal_rates(), basis, grid[:3])  # first-call set-up
        tracemalloc.start()
        try:
            out = lindblad_integrate(sinusoidal_rates(), basis, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2**20


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
        # only the first row may be a header: numpy 2 reprs in both rows, or
        # a bad second row after a header, fail at row 2
        for text in ("np.float64(0.0),np.float64(0.0)\nnp.float64(1.0),np.float64(0.1)\n",
                     "time,value\ngarbage\n0.0,0.0\n1.0,0.1\n"):
            table = tmp_path / "header.csv"
            table.write_text(text)
            with pytest.raises(ValidationError, match=re.escape(f"rate table {table} row 2: time and value must be numbers")):
                tabulated_rates(gamma1=str(table))
        # a third column is not ignored; a trailing blank cell is
        extra = tmp_path / "extra.csv"
        extra.write_text("0.0,0.0,7\n1.0,0.1,oops\n")
        with pytest.raises(ValidationError, match=re.escape(f"rate table {extra} row 1: expected two columns")):
            tabulated_rates(gamma1=str(extra))
        trailing = tmp_path / "trailing.csv"
        trailing.write_text("time,value,\n0.0,0.0,\n1.0,0.1, \n")
        assert tabulated_rates(gamma1=str(trailing)).gamma1(0.5) == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "text, row",
        [("0\n1,0.02\n6.3,0.03\n", 1), ("0,x\n1,0.02\n6.3,0.03\n", 1), ("0,0.0\n,0.5\n1,0.1\n", 2)],
        ids=["one-cell", "bad-value", "blank-time"],
    )
    def test_a_row_with_a_value_or_a_time_is_data(self, tmp_path, text, row):
        # each was once skipped, as a header or as a blank row, so rate(0)
        # read 0.02 in the first two tables and rate(0.5) 0.05 in the third
        table = tmp_path / "gamma.csv"
        table.write_text(text)
        message = f"rate table {table} row {row}: time and value must be numbers"
        with pytest.raises(ValidationError, match=re.escape(message)):
            tabulated_rates(gamma1=str(table))

    @pytest.mark.parametrize("header", ["", "time,value\n"], ids=["data", "header"])
    def test_a_byte_order_mark_is_not_part_of_the_first_cell(self, tmp_path, header):
        # float("\ufeff0") fails, which once skipped the row as a header
        table = tmp_path / "gamma.csv"
        table.write_text(f"\ufeff{header}0,0.0\n1,0.02\n6.3,0.03\n", encoding="utf-8")
        rate = tabulated_rates(gamma1=str(table)).gamma1
        assert rate(0.0) == 0.0
        assert rate(1.0) == 0.02
