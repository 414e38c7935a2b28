import fnmatch
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from backflow import measure, statespace, verify
from backflow.dynamics import (
    _mapped_distances,
    apply_map_to_grid,
    lambda_map_coefficients,
    make_grid,
    sinusoidal_rates,
    stretch_ends,
)
from backflow.measure import _batched_backflows, _rise
from backflow.errors import PositivityFailure
from backflow.statespace import (
    TOL_ORTH,
    _clipped_distances,
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
from backflow.translation import (
    build_shift_operator,
    epsilon_upper_bound,
    is_jointly_translatable,
    jointly_translate,
    quadratic_bound,
)
from backflow.verify import (
    _CHECKS,
    _block_sizes,
    _Worst,
    backflow_scaling_suite,
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
    # reuses; the block's one other split builds its orthogonal mixed pairs,
    # except at dimension 3, where they take the closed form
    original = statespace._signed_parts
    calls = []

    def counted(h):
        calls.append(h.shape)
        return original(h)

    def one_pair(*args):
        raise AssertionError("the stacked suite splits no pair alone")

    monkeypatch.setattr(statespace, "_signed_parts", counted)
    monkeypatch.setattr(statespace, "jordan_hahn", one_pair)
    monkeypatch.setattr(statespace, "rescale_pair", one_pair)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 3 * 9)
    jordan_hahn_suite(7, dims=(2, 3), trials=5)
    assert calls == [(5, 2, 2)] * 2 + [(3, 3, 3), (2, 3, 3)]


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


def test_translatable_mixed_pairs_fail_the_rejection_check(monkeypatch):
    # a broken mixed-pair sampler whose pairs overlap is counted, pair by pair
    def maximally_mixed(ginibre):
        n, _, dim, _ = ginibre.shape
        return np.broadcast_to(np.eye(dim) / dim, (2, n, dim, dim))

    monkeypatch.setattr(verify, "_mixed_pairs_from_ginibre", maximally_mixed)
    checks = {c.name: c for c in translation_suite(7, (2, 3), 3)}
    assert [name for name, c in checks.items() if not c.passed] == ["orthogonal-pairs-rejected"]
    assert checks["orthogonal-pairs-rejected"].worst == 6


def test_checks_do_not_depend_on_the_mixed_pair_draws(monkeypatch):
    # each trial draws from its own stream and its orthogonal mixed pair
    # last, so other numbers for that pair move no other check: both stacked
    # suites build each mixed pair from its normals shifted by one
    def suites():
        return {
            c.name: c.worst
            for c in jordan_hahn_suite(7, (2, 3, 4), 10) + translation_suite(7, (2, 3, 4), 10)
        }

    before = suites()
    calls = []
    build = verify._mixed_pairs_from_ginibre

    def shifted_by_one(ginibre):
        calls.append(len(ginibre))
        flat = ginibre.reshape(len(ginibre), -1)
        return build(np.roll(flat, -1, axis=1).reshape(ginibre.shape))

    monkeypatch.setattr(verify, "_mixed_pairs_from_ginibre", shifted_by_one)
    after = suites()
    assert calls == [10, 10, 10] * 2
    moved = {"orthogonal-pairs-unit-distance", "orthogonal-pairs-on-boundary"}
    assert {k: v for k, v in after.items() if k not in moved} == {k: v for k, v in before.items() if k not in moved}


def test_translation_suite(seed=103):
    assert_all_pass(translation_suite(seed, dims=(2, 3, 4), trials=15))


def test_backflow_scaling_suite(preset_coeffs, seed=104):
    # covers the rescaling law, the convex-stretch law and the trajectory's
    # invariance under joint translation
    checks = backflow_scaling_suite(seed, trials=15, coeffs=preset_coeffs)
    assert [c.name for c in checks] == [
        "rescaled-backflow-law",
        "stretched-backflow-law",
        "translate-trajectory-invariance",
    ]
    assert all(c.trials == 15 for c in checks)
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


def test_spanning_states_are_the_lone_pure_state_builds():
    # one stacked build of the nine projectors is bitwise nine pure_state calls
    eye = np.eye(3)
    vectors = list(eye)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        vectors += [eye[i] + eye[j], eye[i] + 1j * eye[j]]
    states = spanning_states()
    assert len(states) == len(vectors)
    for state, vector in zip(states, vectors):
        assert np.array_equal(state.entries, pure_state(vector).entries)
        assert not state.entries.flags.writeable


def test_integrator_agreement_detects_a_different_map(seed=108):
    # the suite integrates the preset rates, so coefficients of slightly
    # different rates must fail: the check compares two independent engines
    coeffs = lambda_map_coefficients(sinusoidal_rates(amplitude=0.0301), make_grid(2 * np.pi, 2000))
    by_name = {c.name: c for c in dynamics_suite(seed, coeffs, contraction_pairs=1)}
    assert not by_name["integrator-agreement"].passed
    assert by_name["integrator-agreement"].worst > 1e-4


def test_fault_injection_fails_interior_check(seed=106):
    # each dimension alone, so the fault must fail at every dimension on its own
    for dim in (2, 3, 4):
        checks = translation_suite(seed, dims=(dim,), trials=5, inject_fault="shift-sign")
        by_name = {c.name: c for c in checks}
        assert not by_name["translate-strictly-interior"].passed
        assert by_name["translate-strictly-interior"].worst < 0.0


def test_a_one_sided_translate_fails_the_trajectory_invariance(monkeypatch, preset_coeffs, seed=110):
    # translating the first state alone changes the pair's difference, so
    # its trajectory under the map must move: the check compares the pair's
    # and the translate's distances, not either one with itself
    original = verify._translations

    def one_sided(pairs):
        *head, translated, interior = original(pairs)
        return (*head, np.stack([translated[0], pairs[1]]), interior)

    monkeypatch.setattr(verify, "_translations", one_sided)
    by_name = {c.name: c for c in backflow_scaling_suite(seed, preset_coeffs, 5)}
    assert by_name["rescaled-backflow-law"].passed and by_name["stretched-backflow-law"].passed
    assert not by_name["translate-trajectory-invariance"].passed
    assert by_name["translate-trajectory-invariance"].worst > 1e-3


def test_run_all_covers_every_suite(seed=107):
    # every declared check, once and in declared order, at the default dims
    checks = run_all(seed, trials=5)
    assert [c.name for c in checks] == list(_CHECKS)
    assert len(checks) == 33
    assert_all_pass(checks)


def test_lambda_map_suites_run_at_dimension_3_whatever_the_dims(seed=109, trials=4):
    # the backflow-scaling and dynamics suites apply the paper's three-level
    # map, so the requested dimensions move none of their checks: each
    # scaling law reports the trials once, at dimension 3
    lambda_map = list(_CHECKS)[list(_CHECKS).index("rescaled-backflow-law") :]
    runs = [
        [c for c in run_all(seed, dims, trials) if c.name in lambda_map] for dims in ((2,), (4,), (2, 3, 4))
    ]
    assert [[c.name for c in run] for run in runs] == [lambda_map] * 3
    assert runs[0] == runs[1] == runs[2]
    assert [(c.name, c.trials) for c in runs[0][:3]] == [
        ("rescaled-backflow-law", trials),
        ("stretched-backflow-law", trials),
        ("translate-trajectory-invariance", trials),
    ]


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


def test_only_the_pointwise_checks_map_the_full_grid(monkeypatch, preset_coeffs):
    # the scaling laws are scored at the stretch ends, as measure scores; the
    # trajectory invariance and the contraction bound, which stretch_ends
    # itself assumes, still score each pair's difference at every grid
    # point, and the translation suite scores nothing; only the dynamics
    # suite's basis is mapped as matrices
    scored, mapped = [], []
    for module in (verify, measure):
        for name, records in (("_mapped_distances", scored), ("apply_map_to_grid", mapped)):
            original = getattr(module, name)

            def recording(coeffs, matrices, original=original, records=records):
                records.append((coeffs.grid.size, int(np.prod(np.shape(matrices)[:-2]))))
                return original(coeffs, matrices)

            monkeypatch.setattr(module, name, recording)
    full, ends = preset_coeffs.grid.size, stretch_ends(preset_coeffs).grid.size
    assert ends < full
    # the scores, then the differences of each pair and its translate, a pair at a time
    assert_all_pass(backflow_scaling_suite(5, preset_coeffs, 10))
    assert (scored, mapped) == ([(ends, 4 * 10)] + [(full, 2)] * 10, [])
    scored.clear()
    assert_all_pass(translation_suite(5, (2, 3, 4), 10))
    assert (scored, mapped) == ([], [])
    # the contraction pairs' differences two at a time, then the basis state by state
    assert_all_pass(dynamics_suite(5, preset_coeffs, contraction_pairs=4))
    assert (scored, mapped) == ([(full, 2)] * 2, [(full, 1)] * len(spanning_states()))


@pytest.mark.parametrize("seed", [1, 7, 201, 12345])
def test_stretch_end_scores_equal_the_full_grid_rise(monkeypatch, preset_coeffs, seed):
    # on the scaling suite's own dimension-3 pairs, rescaled pairs and
    # stretched pairs, the rises at the stretch ends are the whole grid's
    scored = []
    original = verify._streamed_backflows

    def recording(ends, source, n, rise_tolerance):
        scores = original(ends, source, n, rise_tolerance)
        scored.append((source(0, n), scores))
        return scores

    monkeypatch.setattr(verify, "_streamed_backflows", recording)
    backflow_scaling_suite(seed, preset_coeffs, 100)
    pairs = np.concatenate([pair for pair, _ in scored], axis=1)
    assert pairs.shape == (2, 4 * 100, 3, 3)
    full = np.concatenate(
        [
            _rise(_clipped_distances(np.subtract(*apply_map_to_grid(preset_coeffs, block))), 0.0)
            for block in np.split(pairs, range(20, pairs.shape[1], 20), axis=1)
        ]
    )
    np.testing.assert_allclose(np.concatenate([scores for _, scores in scored]), full, rtol=0, atol=1e-13)


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


def one_pair_trajectory(coeffs, m1, m2):
    """The trace-distance trajectory of one dimension-3 pair under the
    three-level map, scored from the pair's difference as verify scores it."""
    return _mapped_distances(coeffs, m1 - m2)


def accepted_pair(dim, rng, accepted):
    """The stream's first random pair that ``accepted`` takes by its distance."""
    while True:
        rho1, rho2 = (sample_random_state(dim, int(rank), rng) for rank in rng.integers(1, dim + 1, 2))
        if accepted(trace_distance(rho1, rho2)):
            return rho1, rho2


def accepts(distance):
    return 1e-6 < distance < 1.0 - TOL_ORTH


def translate_or_shift(rho1, rho2):
    """The pair jointly translated, or less its shift where the translation
    is not strictly interior, and the construction."""
    try:
        hat1, hat2, construction = jointly_translate(rho1, rho2)
        return hat1.entries, hat2.entries, construction
    except PositivityFailure:
        construction = build_shift_operator(rho1, rho2)
        return *(rho.entries - construction.shift.entries for rho in (rho1, rho2)), construction


def reference_translation_suite(seed, dims, trials, accepted=accepts, worst=None):
    """The translation suite one trial at a time through the public functions:
    trial i reads its stream's pair, redrawn until ``accepted``, translates
    it, or subtracts its shift where the translation is not strictly
    interior, then reads an orthogonal mixed pair."""
    worst = worst or _Worst()
    translatable = 0
    for dim in dims:
        for i in range(trials):
            rng = rng_stream(seed, 30, dim, i)
            rho1, rho2 = accepted_pair(dim, rng, accepted)
            m1, m2, construction = translate_or_shift(rho1, rho2)
            worst.see("translate-strictly-interior", np.linalg.eigvalsh(m1)[0], np.linalg.eigvalsh(m2)[0])
            worst.see("translate-difference-preserved", np.abs((m1 - m2) - (rho1.entries - rho2.entries)).max())
            a = construction.shift.entries
            worst.see("shift-traceless", abs(np.trace(a).real), abs(np.trace(a).imag))
            worst.see("shift-hermitian", np.abs(a - a.conj().T).max())
            worst.see("shift-nonzero", np.linalg.norm(a, 2))
            sel = construction.selection
            eps = 0.99 * construction.epsilon_max
            for weight in (sel.weight1, sel.weight2):
                vertex = min(max(eps / (weight * (1.0 + sel.overlap)), 0.0), 1.0)
                worst.see(
                    "quadratic-bound-positive",
                    *(quadratic_bound(weight, sel.overlap, dim, eps, x) for x in (0.0, vertex, 1.0)),
                )
            translatable += is_jointly_translatable(*sample_orthogonal_mixed_pair(dim, rng))
    worst.see("orthogonal-pairs-rejected", translatable)
    weights = np.linspace(0.05, 1.0, 40)
    for alpha in (0.2, 0.6, 0.95):
        for dim in dims:
            worst.see("epsilon-bound-monotone", np.diff([epsilon_upper_bound(alpha, dim, w) for w in weights]).min())
    return worst.checks(
        "translate-strictly-interior translate-difference-preserved shift-traceless shift-hermitian shift-nonzero"
        " orthogonal-pairs-rejected quadratic-bound-positive",
        len(dims) * trials,
    ) + worst.checks("epsilon-bound-monotone", len(weights))


def one_pair_stretch(rho1, rho2):
    """Largest s with rho2 + s (rho2 - rho1) positive, for one pair of states."""
    values, vectors = np.linalg.eigh(rho2.entries)
    inv_sqrt = (vectors / np.sqrt(values)) @ vectors.conj().T
    top = float(np.linalg.eigvalsh(inv_sqrt @ (rho2.entries - rho1.entries) @ inv_sqrt)[0])
    return np.inf if top >= 0.0 else 1.0 / -top


def reference_backflow_scaling_suite(seed, coeffs, trials, accepted=accepts, worst=None):
    """The backflow-scaling suite one trial at a time through the public
    functions: trial i reads its dimension-3 stream's pair, redrawn until
    ``accepted``, then a full-rank state, a rank and a state of that rank.
    A pair is scored as measure scores a candidate, at the stretch ends, and
    compared with its translate over the whole grid."""
    worst = worst or _Worst()
    ends = stretch_ends(coeffs)

    def backflow_of(rho1, rho2):
        return float(_batched_backflows(ends, (rho1.entries - rho2.entries)[None], 0.0)[0])

    for i in range(trials):
        rng = rng_stream(seed, 40, 3, i)
        rho1, rho2 = accepted_pair(3, rng, accepted)
        sigma1, sigma2, lam = rescale_pair(rho1, rho2)
        worst.see("rescaled-backflow-law", abs(backflow_of(sigma1, sigma2) - backflow_of(rho1, rho2) / lam))
        interior = sample_random_state(3, 3, rng)
        other = sample_random_state(3, int(rng.integers(1, 4)), rng)
        stretch = 1.0 + 0.5 * min(one_pair_stretch(other, interior), 20.0)
        mixed = make_density_matrix((1.0 - stretch) * other.entries + stretch * interior.entries)
        worst.see("stretched-backflow-law", abs(backflow_of(other, mixed) - stretch * backflow_of(other, interior)))
        m1, m2, _ = translate_or_shift(rho1, rho2)
        base = one_pair_trajectory(coeffs, rho1.entries, rho2.entries)
        worst.see("translate-trajectory-invariance", np.abs(base - one_pair_trajectory(coeffs, m1, m2)).max())
    return worst.checks("rescaled-backflow-law stretched-backflow-law translate-trajectory-invariance", trials)


# name -> (stream tag, dimensions, the stacked suite and its one-trial
# reference, each run as (seed, coeffs, dim, trials, *reference options))
STACKED_SUITES = {
    "translation": (
        30,
        (2, 3, 4, 5),
        lambda seed, coeffs, dim, trials: translation_suite(seed, (dim,), trials),
        lambda seed, coeffs, dim, trials, *options: reference_translation_suite(seed, (dim,), trials, *options),
    ),
    "backflow-scaling": (
        40,
        (3,),
        lambda seed, coeffs, dim, trials: backflow_scaling_suite(seed, coeffs, trials),
        lambda seed, coeffs, dim, trials, *options: reference_backflow_scaling_suite(seed, coeffs, trials, *options),
    ),
}


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("seed", [1, 7, 201])
@pytest.mark.parametrize("suite", list(STACKED_SUITES))
def test_stacked_suites_match_one_trial_at_a_time(monkeypatch, preset_coeffs, suite, seed, block):
    _, dims, stacked, reference = STACKED_SUITES[suite]
    for dim in dims:
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", (block or 12) * dim * dim)
        assert stacked(seed, preset_coeffs, dim, 12) == reference(seed, preset_coeffs, dim, 12)


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize(
    "suite, seed, dim",
    [(name, seed, dim) for name, (_, dims, *_) in STACKED_SUITES.items() for seed in (1, 7, 201) for dim in dims],
)
def test_rejected_first_pairs_of_the_stacked_suites_redraw(monkeypatch, preset_coeffs, suite, seed, dim, block):
    # as for the Jordan-Hahn suite: trial 3's first pair, rejected by its
    # distance, is redrawn from its own stream, and each value seen is the
    # one-trial reference's
    assert_rejected_first_pair_redraws(monkeypatch, preset_coeffs, suite, seed, dim, block, 3)


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("seed", [1, 7, 201])
@pytest.mark.parametrize("trial", [0, 6, 7, 11])
def test_a_rejected_first_pair_redraws_at_any_trial_of_the_scaling_suite(monkeypatch, preset_coeffs, trial, seed, block):
    # the scaling suite runs at dimension 3 alone, so its redraw is also
    # checked at the first and last trial and on both sides of a block edge
    # (trials 6 and 7 in blocks of 7): a redrawn pair's rescaled pair and
    # translate are the redrawn pair's, as in the one-trial reference
    assert_rejected_first_pair_redraws(monkeypatch, preset_coeffs, "backflow-scaling", seed, 3, block, trial)


def assert_rejected_first_pair_redraws(monkeypatch, coeffs, suite, seed, dim, block, trial):
    tag, _, stacked, reference = STACKED_SUITES[suite]
    rng = rng_stream(seed, tag, dim, trial)
    rejected = trace_distance(*(sample_random_state(dim, int(rank), rng) for rank in rng.integers(1, dim + 1, 2)))
    original = verify._accepted
    redraws = []

    def accepted(distances):
        redraws.append(np.count_nonzero(np.asarray(distances) == rejected))
        return original(distances) & (distances != rejected)

    monkeypatch.setattr(verify, "_accepted", accepted)
    recorded = []

    def recording():
        recorded.append(_EveryValue())
        return recorded[-1]

    monkeypatch.setattr(verify, "_Worst", recording)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", (block or 12) * dim * dim)
    stacked(seed, coeffs, dim, 12)
    assert sum(redraws) == 2  # the stacked draw and the redraw's first pair
    forced = _EveryValue()
    reference(seed, coeffs, dim, 12, lambda d: accepts(d) and d != rejected, forced)
    [values] = [{name: sorted(seen) for name, seen in worst.seen.items()} for worst in recorded]
    assert values == {name: sorted(seen) for name, seen in forced.seen.items()}


def test_trajectory_block_memory_is_bounded(monkeypatch, preset_coeffs):
    # the trajectories of a block, each pair's with its translate's, are
    # built and reduced a pair at a time, so a block of ten trials holds
    # about two pairs' full grids, and ten times the trials, in ten blocks,
    # hold no more; the pairs are scored at the stretch ends, within that bound
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 10 * 9)
    backflow_scaling_suite(1, preset_coeffs, 2)  # first-call allocations are not the suite's
    peaks = []
    for trials in (10, 100):
        tracemalloc.start()
        try:
            backflow_scaling_suite(1, preset_coeffs, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 3e6
    assert peaks[1] <= 1.1 * peaks[0]


SUITE_STREAMS = {
    "metric": (lambda seed, coeffs: metric_suite(seed, (2, 3), 4), 10, (2, 3)),
    "jordan-hahn": (lambda seed, coeffs: jordan_hahn_suite(seed, (2, 3), 4), 20, (2, 3)),
    "translation": (lambda seed, coeffs: translation_suite(seed, (2, 3), 4), 30, (2, 3)),
    "backflow-scaling": (lambda seed, coeffs: backflow_scaling_suite(seed, coeffs, 4), 40, (3,)),
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
        d = one_pair_trajectory(preset_coeffs, rho1.entries, rho2.entries)
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
    "orthogonal-pairs-on-boundary": 1.0145421829033108e-16,
    "translate-strictly-interior": 0.002968211725917839,
    "translate-difference-preserved": 2.220446049250313e-16,
    "shift-traceless": 6.245004513516506e-17,
    "shift-hermitian": 0.0,
    "shift-nonzero": 0.009772717508358965,
    "orthogonal-pairs-rejected": 0.0,
    "quadratic-bound-positive": 6.966931307153101e-05,
    "epsilon-bound-monotone": 0.0029230769230769033,
    "rescaled-backflow-law": 6.591949208711867e-16,
    "stretched-backflow-law": 3.95516952522712e-16,
    "translate-trajectory-invariance": 6.661338147750939e-16,
    "cpt-identity": 2.220446049250313e-16,
    "cpt-g-nonnegative": -1.7638935453291527e-17,
    "closed-form-rate-integrals": 1.5421255106229381e-09,
    "closed-form-feeding": 6.838713345613812e-10,
    "closed-form-coherence-decay": 7.261595769136875e-10,
    "distance-contraction-bound": 0.0,
    "period-return-identity": 8.998558695971145e-34,
    "quadrature-step-halving": 4.440892098500626e-16,
    "integrator-agreement": 3.6637359812630166e-15,
}


def test_run_all_worst_values_are_pinned():
    assert {c.name: c.worst for c in run_all(7, (2, 3, 4), 3)} == RUN_ALL_SEED7_WORST
