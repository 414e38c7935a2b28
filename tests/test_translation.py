import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import translation
from backflow.errors import DimensionMismatch, DomainError, OrthogonalPair, PositivityFailure
from backflow.statespace import (
    TOL_PSD,
    is_boundary,
    make_density_matrix,
    pure_state,
    rng_stream,
    sample_pure_orthogonal_pair,
    sample_random_state,
    spectral_decomposition,
    trace_distance,
)
from backflow.translation import (
    build_shift_operator,
    epsilon_upper_bound,
    is_jointly_translatable,
    jointly_translate,
    overlap_selection,
    quadratic_bound,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def nonorthogonal_pair(dim, rng):
    while True:
        r1 = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
        r2 = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
        if trace_distance(r1, r2) < 1.0 - 1e-6:
            return r1, r2


class TestOverlapSelection:
    def test_zero_plus_pair(self):
        zero, plus = pure_state([1, 0]), pure_state([1, 1])
        sel = overlap_selection(zero, plus)
        # oracle: |<0|+>| = 1/sqrt(2)
        assert sel.overlap == pytest.approx(2 ** -0.5, abs=1e-12)
        assert sel.weight1 == pytest.approx(1.0, abs=1e-12)
        assert sel.weight2 == pytest.approx(1.0, abs=1e-12)

    def test_identical_pure_state(self):
        rho = pure_state([0, 1, 0])
        sel = overlap_selection(rho, rho)
        assert sel.overlap == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(sel.vector1, sel.vector2, rtol=0, atol=1e-12)

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(OrthogonalPair):
            overlap_selection(pure_state([1, 0]), pure_state([0, 1]))

    def test_overlap_phase_fixed(self):
        rng = rng_stream(42, 1)
        rho1, rho2 = nonorthogonal_pair(3, rng)
        sel = overlap_selection(rho1, rho2)
        inner = np.vdot(sel.vector1, sel.vector2)
        assert abs(inner.imag) < 1e-12
        assert inner.real == pytest.approx(sel.overlap, abs=1e-12)


class TestQuadraticBound:
    def test_small_epsilon_limit(self):
        for x in (0.0, 0.3, 1.0):
            value = quadratic_bound(0.7, 0.5, 3, 1e-12, x)
            assert value == pytest.approx(0.7 * x * x, abs=1e-11)

    def test_minimum_vanishes_at_bound_edge(self):
        # at the very edge of the admissible range the parabola touches zero
        alpha = 2 ** -0.5
        eps_edge = epsilon_upper_bound(alpha, 2, 1.0)
        assert eps_edge == pytest.approx(1.2071067811865475, abs=1e-12)
        vertex = eps_edge / (1.0 * (1.0 + alpha))  # oracle: x* = 2 c+^2 eps / p
        assert 0.0 <= vertex <= 1.0
        assert quadratic_bound(1.0, alpha, 2, eps_edge, vertex) == pytest.approx(0.0, abs=1e-12)

    def test_grid_positive_inside_range(self):
        # spec-style scan: 10^3 grid points, epsilon well inside the range
        alpha = 2 ** -0.5
        values = [quadratic_bound(1.0, alpha, 2, 0.6, x) for x in np.linspace(0.0, 1.0, 1000)]
        assert min(values) > 0.0

    @settings(max_examples=60)
    @given(
        seed=seeds,
        fraction=st.floats(min_value=1e-3, max_value=0.999),
    )
    def test_positive_for_any_admissible_epsilon(self, seed, fraction):
        rng = rng_stream(seed, 2)
        p = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.05, 1.0))
        dim = int(rng.integers(2, 6))
        eps = fraction * epsilon_upper_bound(alpha, dim, p)
        xs = np.linspace(0.0, 1.0, 200)
        assert min(quadratic_bound(p, alpha, dim, eps, float(x)) for x in xs) > 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            quadratic_bound(0.0, 0.5, 3, 0.1, 0.5)
        with pytest.raises(DomainError):
            quadratic_bound(0.5, 1.5, 3, 0.1, 0.5)
        with pytest.raises(DomainError):
            quadratic_bound(0.5, 0.5, 1, 0.1, 0.5)
        with pytest.raises(DomainError):
            quadratic_bound(0.5, 0.5, 3, -0.1, 0.5)
        with pytest.raises(DomainError):
            quadratic_bound(0.5, 0.5, 3, 0.1, 1.5)


class TestBuildShiftOperator:
    def test_zero_plus_epsilon_max(self):
        construction = build_shift_operator(pure_state([1, 0]), pure_state([1, 1]))
        alpha = 2 ** -0.5
        # oracle: alpha * 2 * (1 + alpha) * min weight / N with both weights 1
        assert construction.epsilon_max == pytest.approx(alpha * 2 * (1 + alpha) / 2, abs=1e-12)
        assert construction.epsilon_max == pytest.approx(1.2071067811865475, abs=1e-10)
        assert construction.norm_ratio == pytest.approx((1 - alpha) / (1 + alpha), abs=1e-12)

    def test_aligned_maximally_mixed_pair(self):
        rho = make_density_matrix(np.eye(2) / 2)
        construction = build_shift_operator(rho, rho)
        assert construction.selection.overlap == pytest.approx(1.0, abs=1e-12)
        assert construction.epsilon_max == pytest.approx(1.0, abs=1e-12)
        assert construction.norm_ratio == pytest.approx(0.0, abs=1e-12)
        # the degenerate minus superposition collapses to the zero operator, so the
        # direction reduces to P_plus - id/2: translated spectrum (1/2 - eps/2, 1/2 + eps/2)
        hat = rho.entries - construction.shift.entries
        eigs = np.linalg.eigvalsh(hat)
        eps = construction.epsilon
        np.testing.assert_allclose(eigs, [0.5 - eps / 2, 0.5 + eps / 2], rtol=0, atol=1e-12)

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(OrthogonalPair):
            build_shift_operator(pure_state([1, 0, 0]), pure_state([0, 1, 0]))

    def test_shift_contract(self):
        rng = rng_stream(7, 3)
        for dim in (2, 3, 4):
            rho1, rho2 = nonorthogonal_pair(dim, rng)
            construction = build_shift_operator(rho1, rho2)
            a = construction.shift.entries
            assert abs(np.trace(a)) <= 1e-12
            assert np.abs(a - a.conj().T).max() <= 1e-12
            assert np.linalg.norm(a, 2) > 0.0
            assert construction.epsilon == construction.epsilon_max / 2
            assert 0.0 <= construction.norm_ratio < 1.0


class TestJointlyTranslate:
    def test_zero_plus_pair_interior(self):
        hat1, hat2, _ = jointly_translate(pure_state([1, 0]), pure_state([1, 1]))
        assert hat1.min_eigenvalue > 0.0
        assert hat2.min_eigenvalue > 0.0
        assert not is_boundary(hat1) and not is_boundary(hat2)

    def test_distance_preserved(self):
        rng = rng_stream(8, 4)
        rho1, rho2 = nonorthogonal_pair(3, rng)
        hat1, hat2, _ = jointly_translate(rho1, rho2)
        assert trace_distance(hat1, hat2) == pytest.approx(
            trace_distance(rho1, rho2), abs=1e-12
        )

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(OrthogonalPair):
            jointly_translate(pure_state([1, 0]), pure_state([0, 1]))

    def test_translated_states_are_validated(self):
        # each output is the validated state of its input less the shift
        rng = rng_stream(9, 4)
        for dim in (2, 3, 4):
            rho1, rho2 = nonorthogonal_pair(dim, rng)
            hat1, hat2, construction = jointly_translate(rho1, rho2)
            for hat, rho in ((hat1, rho1), (hat2, rho2)):
                expected = make_density_matrix(rho.entries - construction.shift.entries).entries
                assert np.array_equal(hat.entries, expected) and not hat.entries.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=st.sampled_from([2, 3, 4]))
    def test_translation_properties(self, seed, dim):
        rng = rng_stream(seed, 5)
        rho1, rho2 = nonorthogonal_pair(dim, rng)
        hat1, hat2, construction = jointly_translate(rho1, rho2)
        assert hat1.min_eigenvalue > TOL_PSD
        assert hat2.min_eigenvalue > TOL_PSD
        np.testing.assert_allclose(
            hat1.entries - hat2.entries, rho1.entries - rho2.entries, rtol=0, atol=1e-12
        )
        assert abs(np.trace(construction.shift.entries)) <= 1e-12

    def test_rejections_keep_their_class_and_message(self):
        # the dimension check first, then the orthogonality rule, in every one-pair case
        orthogonal = "^supports are orthogonal; no overlapping eigenvector pair exists$"
        for one_pair_case in (overlap_selection, build_shift_operator, jointly_translate):
            with pytest.raises(DimensionMismatch, match="^dimensions differ: 2 vs 3$"):
                one_pair_case(pure_state([0, 1]), pure_state([0, 1, 0]))
            with pytest.raises(OrthogonalPair, match=orthogonal):
                one_pair_case(pure_state([1, 0]), pure_state([0, 1]))

    def test_positivity_failure_is_reported(self, monkeypatch):
        # force an inadmissible epsilon through the internal bound to check reporting
        import backflow.translation as translation

        monkeypatch.setattr(
            translation, "epsilon_upper_bound", lambda *args: 100.0
        )
        with pytest.raises(PositivityFailure):
            jointly_translate(pure_state([1, 0]), pure_state([1, 1]))

    def test_programming_errors_propagate_unchanged(self, monkeypatch):
        # only the library's own validation errors mean a tolerance problem
        import backflow.translation as translation

        def broken(entries):
            raise TypeError("not a validation failure")

        monkeypatch.setattr(translation, "_density_stack", broken)
        with pytest.raises(TypeError, match="not a validation failure"):
            jointly_translate(pure_state([1, 0]), pure_state([1, 1]))


class TestIsJointlyTranslatable:
    def test_non_orthogonal_pair(self):
        assert is_jointly_translatable(pure_state([1, 0]), pure_state([1, 1]))

    def test_orthogonal_pure_pair(self):
        assert not is_jointly_translatable(pure_state([1, 0]), pure_state([0, 1]))

    def test_mixed_reference_pair(self):
        rho1 = pure_state([1, 0, 0])
        rho2 = make_density_matrix(np.diag([0.0, 0.5, 0.5]).astype(complex))
        assert not is_jointly_translatable(rho1, rho2)

    def test_sampled_orthogonal_pairs_rejected(self):
        for seed in range(20):
            pair = sample_pure_orthogonal_pair(3, rng_stream(seed, 6))
            assert not is_jointly_translatable(*pair)
            with pytest.raises(OrthogonalPair):
                jointly_translate(*pair)


class TestEpsilonBound:
    def test_monotone_in_weight(self):
        bounds = [epsilon_upper_bound(0.6, 3, w) for w in np.linspace(0.05, 1.0, 50)]
        assert np.all(np.diff(bounds) > 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            epsilon_upper_bound(0.0, 3, 0.5)
        with pytest.raises(DomainError):
            epsilon_upper_bound(0.5, 1, 0.5)
        with pytest.raises(DomainError):
            epsilon_upper_bound(0.5, 3, 0.0)


def assert_one_pair_case(stack, k, rho1, rho2):
    """Pair k of a stacked translation equals jointly_translate of that pair
    alone, and its selection and shift equal overlap_selection's and
    build_shift_operator's, field by field and bit for bit."""
    selection, ratio, eps_max, shifts, translated, interior = stack
    hat1, hat2, construction = jointly_translate(rho1, rho2)
    for one in (construction, build_shift_operator(rho1, rho2)):
        for name in ("vector1", "vector2"):
            assert np.array_equal(getattr(selection, name)[k], getattr(one.selection, name))
        for name in ("overlap", "weight1", "weight2"):
            assert getattr(selection, name)[k] == getattr(one.selection, name)
        assert ratio[k] == one.norm_ratio and eps_max[k] == one.epsilon_max
        assert np.array_equal(shifts[k], one.shift.entries)
    for name in ("vector1", "vector2", "overlap", "weight1", "weight2"):
        assert np.array_equal(getattr(overlap_selection(rho1, rho2), name), getattr(construction.selection, name))
    assert interior[:, k].all()
    assert np.array_equal(translated[0, k], hat1.entries) and np.array_equal(translated[1, k], hat2.entries)


def stacked_translations(pairs):
    return translation._translations(np.array([[rho.entries for rho in pair] for pair in pairs]).swapaxes(0, 1))


class TestStackedTranslation:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_each_pair_is_its_one_pair_case(self, dim):
        # random pairs of every rank combination: a rank-deficient state keeps
        # only its support's eigenvector columns
        rng = rng_stream(17, dim)
        pairs = [
            (sample_random_state(dim, r1, rng), sample_random_state(dim, r2, rng))
            for r1 in range(1, dim + 1)
            for r2 in range(1, dim + 1)
            for _ in range(3)
        ]
        stack = stacked_translations(pairs)
        for k, (rho1, rho2) in enumerate(pairs):
            assert_one_pair_case(stack, k, rho1, rho2)
            rank = int((spectral_decomposition(rho1.entries)[0] > TOL_PSD).sum())
            support = spectral_decomposition(rho1.entries)[1][:, :rank]
            assert any(np.array_equal(stack[0].vector1[k], column) for column in support.T)

    def test_degenerate_spectrum_keeps_the_eigh_order(self):
        # tied eigenvalues keep the order eigh gives their eigenvectors, so the
        # maximally mixed state selects eigh's first eigenvector; reversing the
        # order would select another
        rho = make_density_matrix(np.eye(2) / 2)
        values, vectors = np.linalg.eigh(rho.entries)
        first, last = vectors[:, 0], vectors[:, -1]
        stack = stacked_translations([(rho, rho), (pure_state([1, 0]), pure_state([1, 1]))])
        assert np.array_equal(stack[0].vector1[0], first) and not np.array_equal(first, last)
        assert_one_pair_case(stack, 0, rho, rho)
        assert_one_pair_case(stack, 1, pure_state([1, 0]), pure_state([1, 1]))

    def test_aligned_pairs_have_no_minus_projector(self):
        # overlap 1: the minus superposition vanishes, the ratio is 0 and the
        # shift is epsilon (P_plus - 1/N)
        pairs = [(make_density_matrix(np.eye(2) / 2),) * 2, (pure_state([0, 1, 0]),) * 2]
        for pair in pairs:
            construction = build_shift_operator(*pair)
            assert construction.selection.overlap == 1.0 and construction.norm_ratio == 0.0
            v = construction.selection.vector1
            dim = len(v)
            expected = construction.epsilon * (np.outer(v, v.conj()) - np.eye(dim) / dim)
            np.testing.assert_allclose(construction.shift.entries, expected, rtol=0, atol=1e-15)
        for pair in pairs:
            assert_one_pair_case(stacked_translations([pair]), 0, *pair)

    def test_a_pair_that_is_not_interior_is_returned_as_it_is(self, monkeypatch):
        # the stack raises on no pair: an inadmissible epsilon for the first
        # pair (overlap 0.71) leaves its shifted matrices unvalidated, and the
        # second pair (overlap 0.45) in the same stack is its one-pair case
        real = translation.epsilon_upper_bound
        monkeypatch.setattr(
            translation, "epsilon_upper_bound", lambda alpha, dim, w: 100.0 if alpha > 0.6 else real(alpha, dim, w)
        )
        bad, good = (pure_state([1, 0]), pure_state([1, 1])), (pure_state([1, 0]), pure_state([1, 2]))
        stack = stacked_translations([bad, good])
        *_, shifts, translated, interior = stack
        assert interior.tolist() == [[False, True], [False, True]]
        assert np.array_equal(translated[:, 0], np.array([rho.entries for rho in bad]) - shifts[0])
        with pytest.raises(PositivityFailure):
            jointly_translate(*bad)
        assert_one_pair_case(stack, 1, *good)
