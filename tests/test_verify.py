import fnmatch
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from backflow import statespace, verify
from backflow.dynamics import lambda_map_coefficients, make_grid, sinusoidal_rates
from backflow.measure import backflow, trajectory_from_states
from backflow.statespace import (
    TOL_ORTH,
    haar_unitary,
    is_orthogonal,
    jordan_hahn,
    make_density_matrix,
    rescale_pair,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_random_state,
    trace_distance,
)
from backflow.translation import jointly_translate
from backflow.verify import (
    _CHECKS,
    _block_sizes,
    _trajectory,
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


def test_jordan_hahn_suite_splits_each_pair_once(monkeypatch):
    # each block's pairs are split in one stacked call, which the rescaling
    # reuses; the block's one other split builds its orthogonal mixed pairs
    original = statespace._signed_parts
    calls = []

    def counted(h):
        calls.append(h.shape)
        return original(h)

    def one_pair(*args):
        raise AssertionError("the stacked suite splits no pair alone")

    monkeypatch.setattr(statespace, "_signed_parts", counted)
    monkeypatch.setattr(statespace, "jordan_hahn", one_pair)
    monkeypatch.setattr(verify, "rescale_pair", one_pair)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 3 * 9)
    jordan_hahn_suite(7, dims=(2, 3), trials=5)
    assert calls == [(5, 2, 2)] * 2 + [(3, 3, 3)] * 2 + [(2, 3, 3)] * 2


def test_non_orthogonal_mixed_pairs_fail_their_check(monkeypatch):
    # a broken mixed-pair sampler fails its check, in blocks of one too, and
    # leaves the boundary check no pair to read
    def maximally_mixed(ginibre):
        n, _, dim, _ = ginibre.shape
        return np.broadcast_to(np.eye(dim) / dim, (2, n, dim, dim))

    monkeypatch.setattr(verify, "_mixed_pairs_from_ginibre", maximally_mixed)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1)
    checks = {c.name: c for c in jordan_hahn_suite(7, dims=(2, 3), trials=3)}
    assert [name for name, c in checks.items() if not c.passed] == ["orthogonal-pairs-unit-distance"]
    assert checks["orthogonal-pairs-unit-distance"].worst == 1.0
    assert checks["orthogonal-pairs-on-boundary"].worst == 0.0


def test_checks_do_not_depend_on_the_mixed_pair_draws(monkeypatch, preset_coeffs):
    # each trial draws from its own stream and its orthogonal mixed pair
    # last, so other numbers for that pair move no other check: the
    # translation suite's sampler reads one more number, and the stacked
    # Jordan-Hahn suite builds each pair from its normals shifted by one
    def suites():
        return {
            c.name: c.worst
            for c in jordan_hahn_suite(7, (2, 3, 4), 10) + translation_suite(7, preset_coeffs, (2, 3, 4), 10)
        }

    before = suites()
    calls = []
    build = verify._mixed_pairs_from_ginibre

    def one_more_normal(dim, rng):
        calls.append(dim)
        rng.standard_normal()
        return sample_orthogonal_mixed_pair(dim, rng)

    def shifted_by_one(ginibre):
        calls.append(len(ginibre))
        flat = ginibre.reshape(len(ginibre), -1)
        return build(np.roll(flat, -1, axis=1).reshape(ginibre.shape))

    monkeypatch.setattr(verify, "sample_orthogonal_mixed_pair", one_more_normal)
    monkeypatch.setattr(verify, "_mixed_pairs_from_ginibre", shifted_by_one)
    after = suites()
    assert calls == [10, 10, 10] + [2] * 10 + [3] * 10 + [4] * 10
    moved = {"orthogonal-pairs-unit-distance", "orthogonal-pairs-on-boundary"}
    assert {k: v for k, v in after.items() if k not in moved} == {k: v for k, v in before.items() if k not in moved}


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
    # each dimension alone, so every map's fault path must fail on its own
    for dim in (2, 3, 4):
        checks = translation_suite(
            seed, dims=(dim,), trials=5, coeffs=preset_coeffs, inject_fault="shift-sign"
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


def depolarizer_test_pairs(dim, seed=13):
    """Random pairs of every rank pair, orthogonal mixed pairs, and each random
    pair rescaled into an orthogonal pair and jointly translated into the interior."""
    rng = rng_stream(seed, dim)
    pairs = [
        (sample_random_state(dim, r1, rng), sample_random_state(dim, r2, rng))
        for r1 in range(1, dim + 1)
        for r2 in range(1, dim + 1)
    ]
    overlapping = list(pairs)
    pairs += [sample_orthogonal_mixed_pair(dim, rng) for _ in range(5)]
    pairs += [rescale_pair(rho1, rho2)[:2] for rho1, rho2 in overlapping]
    pairs += [jointly_translate(rho1, rho2)[:2] for rho1, rho2 in overlapping]
    return pairs


@pytest.mark.parametrize("dim", [2, 4, 5])
def test_depolarizer_trajectory_matches_the_full_grid_map(preset_coeffs, dim):
    grid = preset_coeffs.grid
    for rho1, rho2 in depolarizer_test_pairs(dim):
        fast = _trajectory(preset_coeffs, rho1.entries, rho2.entries)
        reference = trajectory_from_states(
            grid, depolarize_stack(grid, rho1.entries), depolarize_stack(grid, rho2.entries)
        )
        np.testing.assert_allclose(fast.distances, reference.distances, rtol=0, atol=1e-14)
        assert abs(backflow(fast) - backflow(reference)) <= 1e-14


def test_translation_suite_takes_no_full_grid_eigensolve(monkeypatch, preset_coeffs):
    # the dim-4 trajectories scale one trace distance; no eigvalsh call may
    # get the grid's stack of evolved differences
    matrices = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert_all_pass(translation_suite(5, preset_coeffs, dims=(4,), trials=2))
    assert matrices and max(matrices) < preset_coeffs.grid.size


def reference_metric_suite(seed, dims, triples):
    """The metric suite one triple at a time through the public samplers: triple
    i reads its stream's three ranks, then three states and a Haar rotation."""
    worst = _Worst()
    for dim in dims:
        for i in range(triples):
            rng = rng_stream(seed, 10, dim, i)
            ranks = rng.integers(1, dim + 1, 3)
            a, b, c = (sample_random_state(dim, int(rank), rng) for rank in ranks)
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            worst.see("metric-symmetry", abs(dab - dba))
            worst.see("metric-self-distance", trace_distance(a, a))
            worst.see("metric-triangle", trace_distance(a, c) - (dab + trace_distance(b, c)))
            u = haar_unitary(dim, rng)
            ua = make_density_matrix(u @ a.entries @ u.conj().T)
            ub = make_density_matrix(u @ b.entries @ u.conj().T)
            worst.see("metric-unitary-invariance", abs(trace_distance(ua, ub) - dab))
    return worst.checks(
        "metric-symmetry metric-self-distance metric-triangle metric-unitary-invariance", len(dims) * triples
    )


@pytest.mark.parametrize("seed", [1, 7, 201])
def test_stacked_metric_suite_matches_one_triple_at_a_time(seed):
    assert metric_suite(seed, (2, 3, 4, 5), 100) == reference_metric_suite(seed, (2, 3, 4, 5), 100)


@pytest.mark.parametrize("block, sizes", [(1, [1] * 30), (7, [7, 7, 7, 7, 2]), (None, [30])])
@pytest.mark.parametrize("dim", [3, 5])
def test_metric_checks_do_not_depend_on_the_block_size(monkeypatch, dim, block, sizes):
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", (block or 30) * dim * dim)
    assert _block_sizes(30, dim) == sizes
    assert metric_suite(11, (dim,), 30) == reference_metric_suite(11, (dim,), 30)


def reference_jordan_hahn_suite(seed, dims, trials, accepted=lambda d: 1e-6 < d < 1.0 - TOL_ORTH, worst=None):
    """The Jordan-Hahn suite one trial at a time through the public functions:
    trial i reads its stream's pair, redrawn until ``accepted``, then two
    full-rank states and an orthogonal mixed pair."""
    worst = worst or _Worst()
    for dim in dims:
        for i in range(trials):
            rng = rng_stream(seed, 20, dim, i)
            while True:
                rho1, rho2 = (sample_random_state(dim, int(rank), rng) for rank in rng.integers(1, dim + 1, 2))
                dist = trace_distance(rho1, rho2)
                if accepted(dist):
                    break
            delta = rho1.entries - rho2.entries
            parts = jordan_hahn(rho1, rho2)
            p1, p2 = parts.positive_part.entries, parts.negative_part.entries
            worst.see("jordan-hahn-reconstruction", np.abs(delta - (p1 - p2)).max())
            worst.see(
                "jordan-hahn-traces-equal-distance",
                abs(float(np.trace(p1).real) - dist),
                abs(float(np.trace(p2).real) - dist),
            )
            worst.see("jordan-hahn-parts-positive", -np.linalg.eigvalsh(p1)[0], -np.linalg.eigvalsh(p2)[0])
            worst.see("jordan-hahn-parts-orthogonal", np.linalg.norm(p1 @ p2, 2))
            sigma1, sigma2, lam = rescale_pair(rho1, rho2)
            worst.see("rescale-unit-distance", abs(trace_distance(sigma1, sigma2) - 1.0))
            worst.see("rescale-difference-law", np.abs((sigma1.entries - sigma2.entries) - delta / lam).max())
            full1, full2 = sample_random_state(dim, dim, rng), sample_random_state(dim, dim, rng)
            worst.see("overlapping-pairs-below-unit-distance", trace_distance(full1, full2))
            orth1, orth2 = sample_orthogonal_mixed_pair(dim, rng)
            worst.see("orthogonal-pairs-unit-distance", abs(trace_distance(orth1, orth2) - 1.0))
            if is_orthogonal(orth1, orth2):
                worst.see("orthogonal-pairs-on-boundary", *(np.linalg.eigvalsh(s.entries)[0] for s in (orth1, orth2)))
    return worst.checks(
        "jordan-hahn-reconstruction jordan-hahn-traces-equal-distance jordan-hahn-parts-positive"
        " jordan-hahn-parts-orthogonal rescale-unit-distance rescale-difference-law"
        " overlapping-pairs-below-unit-distance orthogonal-pairs-unit-distance orthogonal-pairs-on-boundary",
        len(dims) * trials,
    )


@pytest.mark.parametrize("seed", [1, 7, 201])
def test_stacked_jordan_hahn_suite_matches_one_trial_at_a_time(seed):
    assert jordan_hahn_suite(seed, (2, 3, 4, 5), 100) == reference_jordan_hahn_suite(seed, (2, 3, 4, 5), 100)


class _EveryValue(_Worst):
    """A worst-value accumulator that also keeps every value it sees."""

    def __init__(self):
        super().__init__()
        self.seen = {}

    def see(self, name, *values):
        self.seen.setdefault(name, []).extend(float(v) for v in values)
        super().see(name, *values)


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [1, 7, 201])
def test_rejected_first_pairs_redraw_from_their_own_stream(monkeypatch, seed, dim, block):
    # a first pair is rejected about once in 1e8 trials; rejecting trial 3's
    # first pair by its distance makes that trial redraw, in any block, and
    # every value the suite sees is then the one-trial reference's
    rng = rng_stream(seed, 20, dim, 3)
    first = [sample_random_state(dim, int(rank), rng) for rank in rng.integers(1, dim + 1, 2)]
    rejected = trace_distance(*first)
    original = verify._accepted
    redraws = []

    def accepted(distances):
        redraws.append(np.count_nonzero(np.asarray(distances) == rejected))
        return original(distances) & (distances != rejected)

    stacked = []

    def recording():
        stacked.append(_EveryValue())
        return stacked[-1]

    monkeypatch.setattr(verify, "_Worst", recording)
    monkeypatch.setattr(verify, "_accepted", accepted)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", (block or 12) * dim * dim)
    jordan_hahn_suite(seed, (dim,), 12)
    assert sum(redraws) == 2  # the stacked draw and the redraw's first pair
    reference, unforced = _EveryValue(), _EveryValue()
    reference_jordan_hahn_suite(seed, (dim,), 12, accepted, reference)
    reference_jordan_hahn_suite(seed, (dim,), 12, worst=unforced)
    [values] = [{name: sorted(seen) for name, seen in worst.seen.items()} for worst in stacked]
    assert values == {name: sorted(seen) for name, seen in reference.seen.items()}
    assert values != {name: sorted(seen) for name, seen in unforced.seen.items()}


def test_jordan_hahn_block_memory_is_bounded():
    jordan_hahn_suite(1, (16,), 2)  # first-call allocations are not the suite's
    peaks = []
    for dims, trials in (((16,), 32), ((16,), 320), ((64,), 4)):
        tracemalloc.start()
        try:
            jordan_hahn_suite(1, dims, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 8e6
    assert peaks[1] <= 1.1 * peaks[0]  # ten times the trials, the same blocks


SUITE_STREAMS = {
    "metric": (lambda seed, coeffs: metric_suite(seed, (2, 3), 4), 10, (2, 3)),
    "jordan-hahn": (lambda seed, coeffs: jordan_hahn_suite(seed, (2, 3), 4), 20, (2, 3)),
    "translation": (lambda seed, coeffs: translation_suite(seed, coeffs, (2, 3), 4), 30, (2, 3)),
    "backflow-scaling": (lambda seed, coeffs: backflow_scaling_suite(seed, coeffs, (2, 3), 4), 40, (2, 3)),
    "contraction": (lambda seed, coeffs: dynamics_suite(seed, coeffs, 4), 50, (3,)),
}


@pytest.mark.parametrize("suite", list(SUITE_STREAMS))
def test_each_instance_draws_from_its_own_stream(monkeypatch, preset_coeffs, suite):
    # instance i of dimension N reads the fresh stream (seed, tag, N, i)
    run, tag, dims = SUITE_STREAMS[suite]
    original = verify._streams
    keys = []

    def recording(seed, prefix, start, stop):
        for i, rng in zip(range(start, stop), original(seed, prefix, start, stop)):
            fresh = rng_stream(seed, *prefix, i).bit_generator.state
            state = rng.bit_generator.state
            for word in ("counter", "key"):
                assert np.array_equal(state["state"][word], fresh["state"][word])
            assert (state["buffer_pos"], state["has_uint32"]) == (fresh["buffer_pos"], fresh["has_uint32"])
            keys.append((seed, *prefix, i))
            yield rng

    monkeypatch.setattr(verify, "_streams", recording)
    run(9, preset_coeffs)
    assert keys == [(9, tag, dim, i) for dim in dims for i in range(4)]


def test_contraction_pairs_do_not_depend_on_the_block_size(monkeypatch, preset_coeffs):
    worst = 0.0
    for i in range(5):
        rng = rng_stream(12, 50, 3, i)
        r1, r2 = rng.integers(1, 4, 2)
        rho1, rho2 = sample_random_state(3, int(r1), rng), sample_random_state(3, int(r2), rng)
        d = _trajectory(preset_coeffs, rho1.entries, rho2.entries).distances
        worst = max(worst, float((d - d[0]).max()))
    for block in (1, 2, 5):
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", block * 9)
        by_name = {c.name: c for c in dynamics_suite(12, preset_coeffs, contraction_pairs=5)}
        assert by_name["distance-contraction-bound"].worst == worst


def test_metric_block_memory_is_bounded():
    metric_suite(1, (16,), 2)  # first-call allocations are not the suite's
    peaks = []
    for dims, triples in (((16,), 32), ((16,), 320), ((64,), 4)):
        tracemalloc.start()
        try:
            metric_suite(1, dims, triples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 8e6
    assert peaks[1] <= 1.1 * peaks[0]  # ten times the triples, the same blocks


# worst values of run_all(7, (2, 3, 4), 3)
RUN_ALL_SEED7_WORST = {
    "metric-symmetry": 0.0,
    "metric-self-distance": 0.0,
    "metric-triangle": 0.0,
    "metric-unitary-invariance": 8.881784197001252e-16,
    "jordan-hahn-reconstruction": 4.996003610813204e-16,
    "jordan-hahn-traces-equal-distance": 4.440892098500626e-16,
    "jordan-hahn-parts-positive": 1.393811598976718e-16,
    "jordan-hahn-parts-orthogonal": 1.1387480982728266e-16,
    "rescale-unit-distance": 4.440892098500626e-16,
    "rescale-difference-law": 4.90457592513324e-16,
    "overlapping-pairs-below-unit-distance": 0.6090367666108747,
    "orthogonal-pairs-unit-distance": 0.0,
    "orthogonal-pairs-on-boundary": 1.2141142072176856e-16,
    "translate-strictly-interior": 0.002968211725917839,
    "translate-difference-preserved": 2.220446049250313e-16,
    "translate-trajectory-invariance": 6.661338147750939e-16,
    "shift-traceless": 6.591949208711867e-17,
    "shift-hermitian": 0.0,
    "shift-nonzero": 0.009772717508358965,
    "orthogonal-pairs-rejected": 0.0,
    "quadratic-bound-positive": 6.966931307153101e-05,
    "epsilon-bound-monotone": 0.0029230769230769033,
    "rescaled-backflow-law": 7.216449660063518e-16,
    "stretched-backflow-law": 3.95516952522712e-16,
    "cpt-identity": 2.220446049250313e-16,
    "cpt-g-nonnegative": -1.7638935453291527e-17,
    "closed-form-rate-integrals": 7.710627553114691e-10,
    "closed-form-feeding": 6.838713345613812e-10,
    "closed-form-coherence-decay": 7.261595769136875e-10,
    "distance-contraction-bound": 0.0,
    "period-return-identity": 8.998558695971145e-34,
    "quadrature-step-halving": 3.9848511975165237e-16,
    "integrator-agreement": 3.6637359812630166e-15,
}


def test_run_all_worst_values_are_pinned():
    assert {c.name: c.worst for c in run_all(7, (2, 3, 4), 3)} == RUN_ALL_SEED7_WORST
