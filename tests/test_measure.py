import numpy as np
import pytest

from backflow.dynamics import (
    constant_rates,
    lambda_map_coefficients,
    make_grid,
    sinusoidal_rates,
    zero_rates,
)
from backflow.errors import DomainError, IndexOutOfRange, ValidationError
from backflow.measure import (
    MeasureStrategy,
    TraceDistanceTrajectory,
    _batched_backflows,
    backflow,
    estimate_measure,
    histogram_backflow,
    mixed_reference_pair,
    pure_a_plus_pair,
    pure_ab_pair,
    sampled_backflows,
    sigma_at,
    trace_distance_trajectory,
)
from backflow.statespace import (
    is_orthogonal,
    pure_state,
    rescale_pair,
    rng_stream,
    sample_pure_orthogonal_pair,
    sample_random_state,
    trace_distance,
)
from backflow.translation import jointly_translate

GRID = make_grid(2 * np.pi, 2000)
MPAIR_BACKFLOW = 1.0 - np.exp(-0.12)


@pytest.fixture(scope="module")
def preset_coeffs():
    return lambda_map_coefficients(sinusoidal_rates(), GRID)


@pytest.fixture(scope="module")
def markov_coeffs():
    return lambda_map_coefficients(constant_rates(gamma=0.03), GRID)


def mpair_distance(t):
    return np.exp(-0.06 * (1.0 - np.cos(t)))


class TestTrajectory:
    def test_identical_pair_is_flat_zero(self, preset_coeffs):
        rho = sample_random_state(3, 2, rng_stream(1))
        traj = trace_distance_trajectory(preset_coeffs, rho, rho)
        assert np.all(traj.distances == 0.0)

    def test_mixed_reference_pair_matches_analytic(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *mixed_reference_pair())
        np.testing.assert_allclose(traj.distances, mpair_distance(GRID), rtol=0, atol=1e-6)

    def test_pure_ab_pair_matches_analytic(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *pure_ab_pair())
        np.testing.assert_allclose(traj.distances, (1.0 + mpair_distance(GRID)) / 2, rtol=0, atol=1e-6)

    def test_initial_distance_one_iff_orthogonal(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *mixed_reference_pair())
        assert traj.distances[0] == pytest.approx(1.0, abs=1e-12)
        rho1 = pure_state([1, 0, 0])
        rho2 = pure_state([1, 1, 0])
        traj2 = trace_distance_trajectory(preset_coeffs, rho1, rho2)
        assert traj2.distances[0] < 1.0 - 1e-8

    def test_integrator_engine_agrees(self, preset_coeffs):
        rates = sinusoidal_rates()
        grid = make_grid(2 * np.pi, 400)
        coeffs = lambda_map_coefficients(rates, grid)
        rho1, rho2 = pure_ab_pair()
        closed = trace_distance_trajectory(coeffs, rho1, rho2)
        integrated = trace_distance_trajectory(
            coeffs, rho1, rho2, engine="integrator", rates=rates
        )
        np.testing.assert_allclose(closed.distances, integrated.distances, rtol=0, atol=1e-6)

    def test_integrator_engine_needs_rates(self, preset_coeffs):
        with pytest.raises(DomainError):
            trace_distance_trajectory(preset_coeffs, *pure_ab_pair(), engine="integrator")

    def test_unknown_engine(self, preset_coeffs):
        with pytest.raises(DomainError):
            trace_distance_trajectory(preset_coeffs, *pure_ab_pair(), engine="magic")


class TestSigma:
    def test_constant_trajectory_zero_rate(self, preset_coeffs):
        rho = sample_random_state(3, 3, rng_stream(2))
        traj = trace_distance_trajectory(preset_coeffs, rho, rho)
        assert all(sigma_at(traj, k) == 0.0 for k in range(0, 2001, 100))

    def test_mpair_backflow_phase(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *mixed_reference_pair())
        # oracle: sigma(t) = -0.06 sin(t) exp(-0.06 (1 - cos t))
        k = 1500  # t = 3 pi / 2
        assert GRID[k] == pytest.approx(3 * np.pi / 2, abs=1e-12)
        assert sigma_at(traj, k) == pytest.approx(0.06 * np.exp(-0.06), abs=2e-4)

    def test_mpair_outflow_phase(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *mixed_reference_pair())
        k = 500  # t = pi / 2
        assert sigma_at(traj, k) == pytest.approx(-0.06 * np.exp(-0.06), abs=2e-4)
        assert sigma_at(traj, k) < 0.0

    def test_index_out_of_range(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *pure_ab_pair())
        with pytest.raises(IndexOutOfRange):
            sigma_at(traj, 2001)
        with pytest.raises(IndexOutOfRange):
            sigma_at(traj, -1)


class TestBackflow:
    def test_monotone_decreasing_gives_zero(self):
        grid = np.linspace(0.0, 1.0, 50)
        traj = TraceDistanceTrajectory(grid, np.linspace(1.0, 0.2, 50), np.zeros(50))
        assert backflow(traj) == 0.0

    def test_mixed_reference_pair_value(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *mixed_reference_pair())
        assert backflow(traj) == pytest.approx(MPAIR_BACKFLOW, abs=1e-5)

    def test_pure_ab_half_value(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *pure_ab_pair())
        assert backflow(traj) == pytest.approx(MPAIR_BACKFLOW / 2, abs=1e-5)

    def test_lazy_attribute_matches_function(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *pure_a_plus_pair())
        assert traj.backflow == backflow(traj)
        assert traj.backflow >= 0.0

    def test_grid_refinement_converges(self):
        rates = sinusoidal_rates()
        values = []
        for steps in (2000, 4000):
            coeffs = lambda_map_coefficients(rates, make_grid(2 * np.pi, steps))
            values.append(backflow(trace_distance_trajectory(coeffs, *mixed_reference_pair())))
        assert abs(values[1] - values[0]) < 1e-4


class TestBatchedBackflows:
    def test_matches_per_pair_trajectories(self, preset_coeffs):
        rng = rng_stream(14)
        pairs = [sample_pure_orthogonal_pair(3, rng) for _ in range(32)]
        pairs += [
            (sample_random_state(3, int(rng.integers(1, 4)), rng), sample_random_state(3, int(rng.integers(1, 4)), rng))
            for _ in range(32)
        ]
        deltas = np.stack([r1.entries - r2.entries for r1, r2 in pairs])
        batched = _batched_backflows(preset_coeffs, deltas, 0.0)
        single = [backflow(trace_distance_trajectory(preset_coeffs, r1, r2)) for r1, r2 in pairs]
        np.testing.assert_allclose(batched, single, rtol=0.0, atol=1e-12)
        assert np.max(batched) > 0.01


class TestScalingLaws:
    def test_rescaled_pair_amplifies_backflow(self, preset_coeffs):
        rng = rng_stream(3)
        for _ in range(10):
            rho1 = sample_random_state(3, int(rng.integers(1, 4)), rng)
            rho2 = sample_random_state(3, int(rng.integers(1, 4)), rng)
            if is_orthogonal(rho1, rho2):
                continue
            sigma1, sigma2, lam = rescale_pair(rho1, rho2)
            bf = backflow(trace_distance_trajectory(preset_coeffs, rho1, rho2))
            bf_rescaled = backflow(trace_distance_trajectory(preset_coeffs, sigma1, sigma2))
            assert bf_rescaled == pytest.approx(bf / lam, abs=1e-8)
            if bf > 1e-6:
                assert bf_rescaled > bf

    def test_translation_leaves_trajectory_invariant(self, preset_coeffs):
        rng = rng_stream(4)
        for _ in range(10):
            rho1 = sample_random_state(3, int(rng.integers(1, 4)), rng)
            rho2 = sample_random_state(3, int(rng.integers(1, 4)), rng)
            if is_orthogonal(rho1, rho2):
                continue
            hat1, hat2, _ = jointly_translate(rho1, rho2)
            base = trace_distance_trajectory(preset_coeffs, rho1, rho2)
            moved = trace_distance_trajectory(preset_coeffs, hat1, hat2)
            np.testing.assert_allclose(base.distances, moved.distances, rtol=0, atol=1e-10)


class TestEstimateMeasure:
    def test_identity_dynamics_zero(self):
        coeffs = lambda_map_coefficients(zero_rates(), make_grid(2 * np.pi, 200))
        result = estimate_measure(coeffs, MeasureStrategy(n_pure=30, n_mixed=30), seed=5)
        assert result.estimate == 0.0

    def test_markovian_semigroup_zero(self, markov_coeffs):
        result = estimate_measure(markov_coeffs, MeasureStrategy(n_pure=60, n_mixed=60), seed=6)
        assert result.estimate == 0.0
        assert result.samples_evaluated == 120

    def test_explicit_reference_pair_sets_lower_bound(self, preset_coeffs):
        strategy = MeasureStrategy(
            n_pure=50, n_mixed=50, explicit_pairs=(mixed_reference_pair(),)
        )
        result = estimate_measure(preset_coeffs, strategy, seed=7)
        assert result.estimate >= MPAIR_BACKFLOW - 1e-5
        assert result.candidate_breakdown["explicit"] == pytest.approx(MPAIR_BACKFLOW, abs=1e-5)
        assert is_orthogonal(*result.best_pair)
        assert result.estimate == pytest.approx(backflow(trace_distance_trajectory(preset_coeffs, *result.best_pair)), abs=1e-9)
        assert result.estimate >= max(result.candidate_breakdown.values()) - 1e-15

    def test_non_orthogonal_explicit_pair_rejected(self, preset_coeffs):
        bad = (pure_state([1, 0, 0]), pure_state([1, 1, 0]))
        with pytest.raises(ValidationError):
            estimate_measure(preset_coeffs, MeasureStrategy(n_pure=1, explicit_pairs=(bad,)))

    def test_refinement_does_not_regress(self, preset_coeffs):
        base = estimate_measure(preset_coeffs, MeasureStrategy(n_pure=20, n_mixed=0), seed=8)
        refined = estimate_measure(
            preset_coeffs, MeasureStrategy(n_pure=20, n_mixed=0, refine=True), seed=8
        )
        assert refined.estimate >= base.estimate - 1e-12
        assert refined.candidate_breakdown["refined"] >= base.candidate_breakdown["pure"] - 1e-12
        assert is_orthogonal(*refined.best_pair)

    def test_empty_strategy_rejected(self, preset_coeffs):
        with pytest.raises(DomainError):
            estimate_measure(preset_coeffs, MeasureStrategy(n_pure=0, n_mixed=0))


class TestHistogram:
    def test_markovian_mass_at_zero(self, markov_coeffs):
        hist = histogram_backflow(markov_coeffs, n_samples=100, bins=20, seed=9)
        assert hist.counts[0] == 100
        assert np.count_nonzero(hist.counts) == 1
        assert hist.max_sampled <= 1e-12

    def test_reference_exceeds_samples(self, preset_coeffs):
        hist = histogram_backflow(preset_coeffs, n_samples=300, bins=30, seed=10)
        assert hist.max_sampled < hist.reference_value
        assert hist.reference_value == pytest.approx(MPAIR_BACKFLOW, abs=1e-5)

    def test_probabilities_normalized(self, preset_coeffs):
        hist = histogram_backflow(preset_coeffs, n_samples=250, bins=40, seed=11)
        assert hist.counts.sum() == 250
        assert hist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_across_worker_counts(self, preset_coeffs, monkeypatch):
        # BACKFLOW_THREADS used to set the worker count; sampling is now
        # single-threaded, so no value of it may change the samples.
        monkeypatch.delenv("BACKFLOW_THREADS", raising=False)
        one = sampled_backflows(preset_coeffs, 120, seed=12, batch=1)
        for threads, batch in (("1", 7), ("3", 64), ("abc", 128)):
            monkeypatch.setenv("BACKFLOW_THREADS", threads)
            other = sampled_backflows(preset_coeffs, 120, seed=12, batch=batch)
            assert np.array_equal(one, other)

    def test_deterministic_across_batch_sizes(self, preset_coeffs):
        runs = [sampled_backflows(preset_coeffs, 90, seed=13, batch=b) for b in (1, 7, 64, 128)]
        for other in runs[1:]:
            assert np.array_equal(runs[0], other)

    def test_input_validation(self, preset_coeffs):
        with pytest.raises(DomainError):
            histogram_backflow(preset_coeffs, n_samples=0, bins=10, seed=1)
        with pytest.raises(DomainError):
            histogram_backflow(preset_coeffs, n_samples=10, bins=0, seed=1)
        with pytest.raises(DomainError):
            sampled_backflows(preset_coeffs, 10, seed=1, batch=0)
