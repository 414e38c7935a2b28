import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from backflow import measure
from backflow.dynamics import (
    constant_rates,
    lambda_map_coefficients,
    make_grid,
    sinusoidal_rates,
    stretch_ends,
    zero_rates,
)
from backflow.errors import BadDimension, DomainError, ValidationError
from backflow.measure import (
    RISE_TOLERANCE,
    SAMPLE_BLOCK,
    TraceDistanceTrajectory,
    _batched_backflows,
    _blocked,
    _streamed_backflows,
    backflow,
    estimate_measure,
    histogram_backflow,
    mixed_reference_pair,
    pure_a_plus_pair,
    pure_ab_pair,
    sampled_backflows,
    trace_distance_trajectory,
)
from backflow.statespace import (
    _mixed_pairs_from_ginibre,
    _pure_pairs_from_ginibre,
    is_orthogonal,
    make_density_matrix,
    pure_state,
    rescale_pair,
    rng_stream,
    sample_orthogonal_mixed_pair,
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


@pytest.fixture
def scored_rows(monkeypatch):
    """The candidate count of every scoring call, in call order."""
    rows = []
    score = measure._batched_backflows

    def spy(coeffs, deltas, rise_tolerance):
        rows.append(len(deltas))
        return score(coeffs, deltas, rise_tolerance)

    monkeypatch.setattr(measure, "_batched_backflows", spy)
    return rows


@pytest.fixture
def scored_deltas(monkeypatch):
    """The differences passed to every scoring call, in call order."""
    calls = []
    score = measure._batched_backflows

    def spy(coeffs, deltas, rise_tolerance):
        calls.append(deltas)
        return score(coeffs, deltas, rise_tolerance)

    monkeypatch.setattr(measure, "_batched_backflows", spy)
    return calls


@pytest.fixture
def streams_read(monkeypatch):
    """The stream keys of every call to measure's ``_streams``, one list a
    call, each stream checked to start as a fresh ``rng_stream`` does."""
    calls = []
    original = measure._streams

    def recording(seed, prefix, start, stop):
        keys = []
        calls.append(keys)
        for i, rng in zip(range(start, stop), original(seed, prefix, start, stop)):
            fresh = rng_stream(seed, *prefix, i).bit_generator.state
            state = rng.bit_generator.state
            for word in ("counter", "key"):
                assert np.array_equal(state["state"][word], fresh["state"][word])
            assert (state["buffer_pos"], state["has_uint32"]) == (fresh["buffer_pos"], fresh["has_uint32"])
            keys.append((seed, *prefix, i))
            yield rng

    monkeypatch.setattr(measure, "_streams", recording)
    return calls


def chunks(n, size):
    """The batch sizes that split n candidates ``size`` at a time."""
    return [min(size, n - start) for start in range(0, n, size)]


def block_candidates(sampler, seed, tag, n, block=SAMPLE_BLOCK):
    """Candidates 0..n-1 of measure's class ``tag``, drawn by the public
    sampler in order from each block's stream (seed, tag, b)."""
    pairs = []
    for b in range(-(-n // block)):
        rng = rng_stream(seed, tag, b)
        pairs += [sampler(3, rng) for _ in range(min(block, n - b * block))]
    return pairs


def differences(pairs):
    """The (n, 3, 3) stack of the pairs' state differences."""
    return np.array([rho1.entries - rho2.entries for rho1, rho2 in pairs])


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical distribution functions of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    gaps = np.searchsorted(a, points, "right") / a.size - np.searchsorted(b, points, "right") / b.size
    return float(np.abs(gaps).max())


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
        assert all(traj.sigma[k] == 0.0 for k in range(0, 2001, 100))

    def test_mpair_backflow_phase(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *mixed_reference_pair())
        # oracle: sigma(t) = -0.06 sin(t) exp(-0.06 (1 - cos t))
        k = 1500  # t = 3 pi / 2
        assert GRID[k] == pytest.approx(3 * np.pi / 2, abs=1e-12)
        assert traj.sigma[k] == pytest.approx(0.06 * np.exp(-0.06), abs=2e-4)

    def test_mpair_outflow_phase(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *mixed_reference_pair())
        k = 500  # t = pi / 2
        assert traj.sigma[k] == pytest.approx(-0.06 * np.exp(-0.06), abs=2e-4)
        assert traj.sigma[k] < 0.0

    def test_index_out_of_range(self, preset_coeffs):
        # sigma holds one rate per grid point, the last at t_max
        traj = trace_distance_trajectory(preset_coeffs, *pure_ab_pair())
        assert traj.sigma.shape == traj.grid.shape == (2001,)


class TestBackflow:
    def test_monotone_decreasing_gives_zero(self):
        grid = np.linspace(0.0, 1.0, 50)
        traj = TraceDistanceTrajectory(grid, np.linspace(1.0, 0.2, 50))
        assert backflow(traj) == 0.0

    def test_mixed_reference_pair_value(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *mixed_reference_pair())
        assert backflow(traj) == pytest.approx(MPAIR_BACKFLOW, abs=1e-5)

    def test_pure_ab_half_value(self, preset_coeffs):
        traj = trace_distance_trajectory(preset_coeffs, *pure_ab_pair())
        assert backflow(traj) == pytest.approx(MPAIR_BACKFLOW / 2, abs=1e-5)

    def test_grid_refinement_converges(self):
        rates = sinusoidal_rates()
        values = []
        for steps in (2000, 4000):
            coeffs = lambda_map_coefficients(rates, make_grid(2 * np.pi, steps))
            values.append(backflow(trace_distance_trajectory(coeffs, *mixed_reference_pair())))
        assert abs(values[1] - values[0]) < 1e-4


def test_optimal_states_need_not_be_pure(preset_coeffs):
    # the optimum is a face of mixed pairs: |a><a| against diag(0, p, 1 - p)
    # keeps D(t) = |f(t)|^2 while both ground populations stay >= max g, so
    # every p in [max g, 1 - max g] reaches 1 - e^{-0.12}; outside the face
    # the pair loses max g - min(p, 1 - p), and the pure ends p = 0, 1 reach max g
    g_max = max(preset_coeffs.g1.max(), preset_coeffs.g2.max())
    on_face = [g_max, 0.06, 0.29, 0.5, 0.71, 0.94, 1.0 - g_max]
    ps = np.array(on_face + [0.0, 0.03, 0.97, 1.0])
    excited = pure_state([1, 0, 0])
    grounds = [make_density_matrix(np.diag([0.0, p, 1.0 - p]).astype(complex)) for p in ps]
    expected = MPAIR_BACKFLOW - np.maximum(0.0, g_max - np.minimum(ps, 1.0 - ps))
    assert np.all(expected[: len(on_face)] == MPAIR_BACKFLOW)
    deltas = np.stack([excited.entries - rho.entries for rho in grounds])
    scored = _batched_backflows(stretch_ends(preset_coeffs), deltas, 0.0)
    full_grid = [backflow(trace_distance_trajectory(preset_coeffs, excited, rho)) for rho in grounds]
    np.testing.assert_allclose(scored, expected, rtol=0, atol=1e-8)
    np.testing.assert_allclose(full_grid, expected, rtol=0, atol=1e-8)
    np.testing.assert_allclose(scored, full_grid, rtol=0, atol=1e-12)


class TestBatchedBackflows:
    def test_matches_per_pair_trajectories(self, preset_coeffs):
        rng = rng_stream(14)
        pairs = [sample_pure_orthogonal_pair(3, rng) for _ in range(32)]
        pairs += [
            (sample_random_state(3, int(rng.integers(1, 4)), rng), sample_random_state(3, int(rng.integers(1, 4)), rng))
            for _ in range(32)
        ]
        deltas = np.stack([r1.entries - r2.entries for r1, r2 in pairs])
        batched = _batched_backflows(stretch_ends(preset_coeffs), deltas, 0.0)
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
        result = estimate_measure(coeffs, 30, seed=5)
        assert result.estimate == 0.0

    def test_markovian_semigroup_zero(self, markov_coeffs):
        result = estimate_measure(markov_coeffs, 60, seed=6)
        assert result.estimate == 0.0
        assert result.samples_evaluated == 120

    @pytest.mark.parametrize("steps", [10, 51, 2000])
    def test_constant_rates_are_exactly_zero_on_any_grid(self, steps):
        # the closed-form g rises on every step, so every step contracts and
        # no rise is left for RISE_TOLERANCE to discard
        coeffs = lambda_map_coefficients(constant_rates(gamma=0.03), make_grid(2 * np.pi, steps))
        assert stretch_ends(coeffs).grid.size == 2
        result = estimate_measure(coeffs, 20, seed=6, explicit_pairs=(mixed_reference_pair(),))
        assert result.estimate == 0.0
        assert set(result.candidate_breakdown.values()) == {0.0}

    @pytest.mark.parametrize("steps", [10, 200, 2000, 10**4])
    def test_reference_pair_reaches_the_exact_measure(self, steps):
        # the closed-form coefficients carry no quadrature error, so where a
        # grid point sits on the turning point pi, the reference pair's
        # backflow is 1 - exp(-0.12) to rounding
        coeffs = lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, steps))
        result = estimate_measure(coeffs, 1, seed=7, explicit_pairs=(mixed_reference_pair(),))
        assert abs(result.candidate_breakdown["explicit"] + np.expm1(-0.12)) <= 1e-15

    def test_explicit_reference_pair_sets_lower_bound(self, preset_coeffs):
        result = estimate_measure(preset_coeffs, 50, seed=7, explicit_pairs=(mixed_reference_pair(),))
        assert result.estimate >= MPAIR_BACKFLOW - 1e-5
        assert result.candidate_breakdown["explicit"] == pytest.approx(MPAIR_BACKFLOW, abs=1e-5)
        assert is_orthogonal(*result.best_pair)
        assert result.estimate == pytest.approx(backflow(trace_distance_trajectory(preset_coeffs, *result.best_pair)), abs=1e-9)
        assert result.estimate >= max(result.candidate_breakdown.values()) - 1e-15

    def test_non_orthogonal_explicit_pair_rejected(self, preset_coeffs):
        bad = (pure_state([1, 0, 0]), pure_state([1, 1, 0]))
        with pytest.raises(ValidationError, match="explicit candidate pair 1 is not orthogonal"):
            estimate_measure(preset_coeffs, 1, explicit_pairs=(pure_ab_pair(), bad))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_3x3_explicit_pair_rejected(self, preset_coeffs, dim):
        bad = (pure_state(np.eye(dim)[0]), pure_state(np.eye(dim)[1]))
        with pytest.raises(BadDimension, match="explicit candidate pair 1 is not a pair of 3x3 states"):
            estimate_measure(preset_coeffs, 1, explicit_pairs=(pure_ab_pair(), bad))

    def test_deterministic_across_batch_sizes(self, monkeypatch, scored_rows):
        # every class is scored in batches and its winner rebuilt from its
        # source, so the batch size must change nothing
        coeffs = lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, 400))
        kept = stretch_ends(coeffs).grid.size
        explicit = (pure_ab_pair(), mixed_reference_pair(), pure_a_plus_pair()) * 30
        results = []
        for size in (1, 7, 64, 128):
            monkeypatch.setattr(measure, "SCORE_POINTS", size * kept)
            scored_rows.clear()
            results.append(estimate_measure(coeffs, 90, seed=17, explicit_pairs=explicit))
            assert scored_rows == 3 * chunks(90, size)
        for other in results[1:]:
            assert other.estimate == results[0].estimate
            assert other.candidate_breakdown == results[0].candidate_breakdown
            for got, expected in zip(other.best_pair, results[0].best_pair):
                np.testing.assert_array_equal(got.entries, expected.entries)

    def test_batched_candidates_match_one_at_a_time(self, monkeypatch, scored_rows):
        # candidates are scored in batches; every class maximum, the first
        # maximizing pair and the count must be those of scoring one by one
        coeffs = lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, 400))
        n = 150  # more than one batch of 64
        monkeypatch.setattr(measure, "SCORE_POINTS", 64 * stretch_ends(coeffs).grid.size)
        explicit = (pure_ab_pair(), pure_a_plus_pair())
        result = estimate_measure(coeffs, n, seed=16, explicit_pairs=explicit)
        assert scored_rows == [64, 64, 22, 64, 64, 22, 2]

        def score(pair):
            delta = (pair[0].entries - pair[1].entries)[None]
            return float(_batched_backflows(stretch_ends(coeffs), delta, RISE_TOLERANCE)[0])

        classes = {
            "pure": block_candidates(sample_pure_orthogonal_pair, 16, 0, n),
            "mixed": block_candidates(sample_orthogonal_mixed_pair, 16, 1, n),
            "explicit": list(explicit),
        }
        best_value, best_pair = -1.0, None
        for label, pairs in classes.items():
            values = [score(pair) for pair in pairs]
            assert result.candidate_breakdown[label] == max(values)
            first = values.index(max(values))
            if values[first] > best_value:
                best_value, best_pair = values[first], pairs[first]
        assert result.estimate == best_value
        for got, expected in zip(result.best_pair, best_pair):
            np.testing.assert_array_equal(got.entries, expected.entries)
        assert result.samples_evaluated == 2 * n + 2

    def test_empty_strategy_rejected(self, preset_coeffs):
        with pytest.raises(DomainError):
            estimate_measure(preset_coeffs, 0)

    def test_sampled_payload_is_pinned(self, preset_coeffs):
        # a change to sampling or batching that moves a sampled byte shows here
        named = (pure_ab_pair(), mixed_reference_pair(), pure_a_plus_pair())
        result = estimate_measure(preset_coeffs, 300, seed=7, explicit_pairs=named)
        assert result.candidate_breakdown == {
            "pure": 0.05482324168926167,
            "mixed": 0.10912184588010476,
            "explicit": 0.1130795632828423,
        }
        assert result.estimate == 0.1130795632828423

    def test_sampled_classes_take_no_eigensolve(self, monkeypatch, preset_coeffs):
        # 3x3 mixed pairs are built in closed form and cleared by the
        # positivity certificate, pure pairs are not validated, and 3x3
        # distances have a closed form
        matrices = []

        def counting(solver):
            def counted(a, *args, **kwargs):
                matrices.append(int(np.prod(np.shape(a)[:-2])))
                return solver(a, *args, **kwargs)

            return counted

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        result = estimate_measure(preset_coeffs, 300, seed=7)
        assert set(result.candidate_breakdown) == {"pure", "mixed"}
        assert matrices == []


class TestBlockStreams:
    # candidate i of measure's class c is the (i mod SAMPLE_BLOCK)-th read of
    # the stream (seed, c, i // SAMPLE_BLOCK); histogram sample i follows the
    # same rule with no class and blocks of 1, so it is the stream (seed, i)

    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize(
        "block, n", [(7, 30), (SAMPLE_BLOCK, SAMPLE_BLOCK + 44)], ids=["block-7", "default-block"]
    )
    def test_candidates_are_the_public_samplers_block_reads(self, monkeypatch, scored_deltas, block, n, batch):
        # chunks of whole blocks (7 or 63 candidates at block 7), batches
        # across block edges and a partial last block change no candidate
        coeffs = lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, 400))
        monkeypatch.setattr(measure, "SAMPLE_BLOCK", block)
        monkeypatch.setattr(measure, "SCORE_POINTS", batch * stretch_ends(coeffs).grid.size)
        result = estimate_measure(coeffs, n, seed=12)
        assert max(map(len, scored_deltas)) <= batch
        drawn = np.concatenate(scored_deltas)
        samplers = (sample_pure_orthogonal_pair, sample_orthogonal_mixed_pair)
        classes = [block_candidates(sampler, 12, tag, n, block) for tag, sampler in enumerate(samplers)]
        for tag, pairs in enumerate(classes):
            assert np.array_equal(drawn[tag * n : (tag + 1) * n], differences(pairs))
        values = _batched_backflows(stretch_ends(coeffs), drawn, RISE_TOLERANCE)
        winner = int(np.argmax(values))
        best = classes[winner // n][winner % n]
        for got, expected in zip(result.best_pair, best):
            assert np.array_equal(got.entries, expected.entries)

    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize(
        "block, n", [(7, 30), (SAMPLE_BLOCK, 2 * SAMPLE_BLOCK + 1)], ids=["block-7", "default-block"]
    )
    def test_a_class_reads_each_block_once(self, monkeypatch, streams_read, block, n, batch):
        # chunks cover whole blocks, so each block is drawn once, and the
        # winner's rebuild reads its own block again, up to the winner
        coeffs = lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, 400))
        monkeypatch.setattr(measure, "SAMPLE_BLOCK", block)
        monkeypatch.setattr(measure, "SCORE_POINTS", batch * stretch_ends(coeffs).grid.size)
        estimate_measure(coeffs, n, seed=4)
        opened = [key for keys in streams_read for key in keys]
        blocks = -(-n // block)
        for tag in (0, 1):
            keys = [key for key in opened if key[1] == tag]
            assert len(keys) == blocks + 1
            assert sorted(keys[:-1]) == [(4, tag, b) for b in range(blocks)]
            assert [keys[-1]] in streams_read  # the rebuild reads one block, in a call of its own
        assert len(opened) == 2 * (blocks + 1)

    def test_histogram_moves_one_generator_a_chunk(self, streams_read, preset_coeffs):
        # sample i is the stream (seed, i), reached by moving one generator
        # through the streams of a drawn chunk (1365 samples on the default
        # model), not by opening a generator a sample
        histogram_backflow(preset_coeffs, n_samples=3000, bins=20, seed=7)
        assert [len(keys) for keys in streams_read] == chunks(3000, 1365)
        assert [key for keys in streams_read for key in keys] == [(7, i) for i in range(3000)]

    @pytest.mark.parametrize("seed", [7, 201])
    def test_histogram_samples_keep_their_own_streams(self, scored_deltas, preset_coeffs, seed):
        # the benchmark's eigvalsh oracle rebuilds histogram sample i as the
        # public sampler's pair from the stream (seed, i)
        histogram_backflow(preset_coeffs, n_samples=8, bins=5, seed=seed)
        reference, samples = scored_deltas
        assert len(reference) == 1
        expected = [sample_pure_orthogonal_pair(3, rng_stream(seed, i)) for i in range(8)]
        assert np.array_equal(samples, differences(expected))

    @pytest.mark.parametrize(
        "tag, from_ginibre", [(0, _pure_pairs_from_ginibre), (1, _mixed_pairs_from_ginibre)], ids=["pure", "mixed"]
    )
    def test_block_layout_keeps_the_law(self, tag, from_ginibre):
        # two-sample Kolmogorov-Smirnov test at level 0.001 (D < 1.95 sqrt(2/n))
        # of 2 * 10^4 block-layout backflows against as many drawn one stream
        # each, from a disjoint seed
        ends = stretch_ends(lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, 400)))
        n = 20_000
        in_blocks = _blocked(from_ginibre, 1, (tag,), SAMPLE_BLOCK)
        blocked = _streamed_backflows(ends, in_blocks, n, RISE_TOLERANCE, SAMPLE_BLOCK)
        streamed = _streamed_backflows(ends, _blocked(from_ginibre, 2, (tag,), 1), n, RISE_TOLERANCE)
        assert ks_statistic(blocked, streamed) < 1.95 * np.sqrt(2.0 / n)


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

    def test_deterministic_across_batch_sizes(self, preset_coeffs, monkeypatch, scored_rows):
        # sample i draws from its own stream, so how the samples are split
        # into stacked batches must not change them
        kept = stretch_ends(preset_coeffs).grid.size
        for n, seed in ((120, 12), (90, 13)):
            runs = []
            for size in (1, 7, 64, 128):
                monkeypatch.setattr(measure, "SCORE_POINTS", size * kept)
                scored_rows.clear()
                runs.append(sampled_backflows(preset_coeffs, n, seed=seed))
                assert scored_rows == chunks(n, size)
            for other in runs[1:]:
                assert np.array_equal(runs[0], other)

    def test_sampled_payload_is_pinned(self, preset_coeffs):
        # a change to sampling or batching that moves a sampled byte shows here
        hist = histogram_backflow(preset_coeffs, n_samples=2000, bins=50, seed=7)
        assert hist.counts.tolist() == [
            2, 11, 17, 16, 22, 46, 42, 48, 41, 71, 80, 62, 77, 118, 98, 116, 118, 137, 132, 173,
            160, 163, 129, 90, 26, 5,
        ] + [0] * 24
        # 0.05769773321146576 when pairs were a QR's columns; Gram-Schmidt moves it by rounding
        assert hist.max_sampled == 0.05769773321146532
        assert abs(hist.max_sampled - 0.05769773321146576) <= 1e-15

    def test_stretch_ends_are_found_once(self, monkeypatch, preset_coeffs):
        # the full grid is searched once; the samples are scored through
        # sampled_backflows on the kept points, which keeps them all, so the
        # reference pair and the samples meet the same stretch ends
        found = []

        def counted(coeffs):
            found.append(coeffs.grid.size)
            return stretch_ends(coeffs)

        monkeypatch.setattr(measure, "stretch_ends", counted)
        hist = histogram_backflow(preset_coeffs, n_samples=300, bins=30, seed=10)
        assert found == [preset_coeffs.grid.size, 3]
        values = sampled_backflows(preset_coeffs, 300, seed=10, rise_tolerance=RISE_TOLERANCE)
        assert hist.max_sampled == values.max()
        assert hist.counts.tolist() == np.histogram(values, bins=hist.bin_edges)[0].tolist()

    def test_pure_pairs_take_no_eigensolve(self, monkeypatch, preset_coeffs):
        # sampled pure states are not validated, the reference pair is cleared
        # by the positivity certificate, and 3x3 distances have a closed form
        matrices = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            matrices.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        hist = histogram_backflow(preset_coeffs, n_samples=2000, bins=50, seed=7)
        assert hist.counts.sum() == 2000
        assert sum(matrices) == 0

    def test_input_validation(self, preset_coeffs):
        with pytest.raises(DomainError):
            histogram_backflow(preset_coeffs, n_samples=0, bins=10, seed=1)
        with pytest.raises(DomainError):
            histogram_backflow(preset_coeffs, n_samples=10, bins=0, seed=1)


def tracemalloc_peak(run):
    """Peak traced allocation, in bytes, of calling ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tabulated_coeffs(steps):
    """The tabulated preset's linear interpolation of two sampled tables,
    whose mixed steps keep many points."""
    t = np.linspace(0.0, 2 * np.pi, 2001)
    gamma1, gamma2 = 0.05 * np.sin(t) + 0.02, 0.03 * np.sin(2 * t) + 0.01
    rates = replace(zero_rates(), gamma1=lambda s: np.interp(s, t, gamma1), gamma2=lambda s: np.interp(s, t, gamma2))
    return lambda_map_coefficients(rates, make_grid(2 * np.pi, steps))


class TestBatchRule:
    # a batch holds max(1, SCORE_POINTS // kept points) candidates: all of a
    # class where few points are kept, one candidate where many are

    def test_default_model_class_is_one_call(self, scored_rows):
        coeffs = lambda_map_coefficients(sinusoidal_rates(), make_grid(2 * np.pi, 400))
        named = (pure_ab_pair(), mixed_reference_pair(), pure_a_plus_pair())
        estimate_measure(coeffs, 200, seed=1, explicit_pairs=named)
        assert scored_rows == [200, 200, 3]

    @pytest.mark.parametrize(
        "steps, kept, rows",
        [(10_000, 4465, [1] * 64), (2000, 897, [4] * 16)],  # 4096 // kept candidates a call
        ids=["cap", "2000-steps"],
    )
    def test_many_kept_points_share_the_budget(self, scored_rows, steps, kept, rows):
        ends = stretch_ends(tabulated_coeffs(steps))
        assert ends.grid.size == kept
        source = _blocked(_mixed_pairs_from_ginibre, 7, (1,), SAMPLE_BLOCK)
        peak = tracemalloc_peak(lambda: _streamed_backflows(ends, source, 64, RISE_TOLERANCE, SAMPLE_BLOCK))
        assert scored_rows == rows
        assert peak <= 2e6  # at most 4465 evolved differences a call; measured 1.4 MB at the cap

    def test_few_candidates_a_call_are_drawn_in_chunks(self, monkeypatch, scored_rows):
        # 897 kept points score 4 candidates a call, but the pairs are drawn
        # 512 a call, and the values are those of drawing each batch alone
        coeffs = tabulated_coeffs(2000)
        ends = stretch_ends(coeffs)
        draw = measure._pure_pairs_from_ginibre
        drawn = []

        def counted(ginibre):
            drawn.append(len(ginibre))
            return draw(ginibre)

        monkeypatch.setattr(measure, "_pure_pairs_from_ginibre", counted)
        values = sampled_backflows(coeffs, 1200, seed=5)
        assert drawn == [512, 512, 176]
        assert scored_rows == [4] * 300
        source = _blocked(draw, 5, (), 1)
        one_batch_a_draw = [
            _batched_backflows(ends, np.subtract(*source(start, min(start + 4, 1200))), 0.0)
            for start in range(0, 1200, 4)
        ]
        assert np.array_equal(values, np.concatenate(one_batch_a_draw))

    def test_default_model_histogram_memory(self, preset_coeffs):
        peak = tracemalloc_peak(lambda: histogram_backflow(preset_coeffs, n_samples=10_000, bins=50, seed=3))
        assert peak < 8e6
