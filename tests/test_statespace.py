import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow.errors import (
    BadDimension,
    BadTrace,
    DimensionMismatch,
    IdenticalStates,
    NotHermitian,
    NotPositive,
)
from backflow.statespace import (
    TOL_PSD,
    haar_unitary,
    is_boundary,
    is_orthogonal,
    jordan_hahn,
    make_density_matrix,
    maximally_mixed,
    pure_state,
    rescale_pair,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_pure_orthogonal_pair,
    sample_random_state,
    trace_distance,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4])


def diag_state(*populations):
    return make_density_matrix(np.diag(populations).astype(complex))


class TestMakeDensityMatrix:
    def test_maximally_mixed_dim2(self):
        rho = maximally_mixed(2)
        np.testing.assert_allclose(rho.eigenvalues, [0.5, 0.5])

    def test_pure_diagonal(self):
        rho = diag_state(1.0, 0.0, 0.0)
        assert rho.dim == 3
        np.testing.assert_allclose(rho.eigenvalues, [1.0, 0.0, 0.0], rtol=0, atol=1e-15)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive, match="-2"):
            diag_state(1.2, -0.2)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            make_density_matrix(m)

    def test_bad_trace_rejected(self):
        with pytest.raises(BadTrace):
            diag_state(0.7, 0.7)

    def test_trace_renormalized_within_tolerance(self):
        eps = 5e-11
        rho = diag_state(0.5 + eps / 2, 0.5 + eps / 2)
        assert abs(np.trace(rho.entries).real - 1.0) < 1e-15

    def test_rejects_non_square(self):
        with pytest.raises(BadDimension):
            make_density_matrix(np.zeros((2, 3)))

    def test_entries_read_only(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 9.0


class TestTraceDistance:
    def test_identical_states(self):
        rho = sample_random_state(3, 2, rng_stream(5))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_supports(self):
        rho1 = pure_state([1.0, 0.0, 0.0])
        rho2 = diag_state(0.0, 0.5, 0.5)
        assert trace_distance(rho1, rho2) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_example(self):
        # difference diag(0.2, -0.2) has absolute eigenvalue sum 0.4
        assert trace_distance(diag_state(0.6, 0.4), diag_state(0.4, 0.6)) == pytest.approx(0.2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_distance(maximally_mixed(2), maximally_mixed(3))

    @settings(max_examples=50)
    @given(seed=seeds, dim=dims)
    def test_metric_axioms(self, seed, dim):
        rng = rng_stream(seed, 99)
        a = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
        b = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
        c = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
        assert trace_distance(a, b) == trace_distance(b, a)  # bitwise symmetric
        assert trace_distance(a, a) == 0.0
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    @settings(max_examples=50)
    @given(seed=seeds, dim=dims)
    def test_unitary_invariance(self, seed, dim):
        rng = rng_stream(seed, 98)
        a = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
        b = sample_random_state(dim, int(rng.integers(1, dim + 1)), rng)
        u = haar_unitary(dim, rng)
        ua = make_density_matrix(u @ a.entries @ u.conj().T)
        ub = make_density_matrix(u @ b.entries @ u.conj().T)
        assert trace_distance(ua, ub) == pytest.approx(trace_distance(a, b), abs=1e-10)


class TestJordanHahn:
    def test_orthogonal_pure_pair(self):
        parts = jordan_hahn(diag_state(1.0, 0.0), diag_state(0.0, 1.0))
        np.testing.assert_allclose(parts.positive_part.entries, np.diag([1.0, 0.0]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(parts.negative_part.entries, np.diag([0.0, 1.0]), rtol=0, atol=1e-14)
        assert parts.weight == pytest.approx(1.0)

    def test_diagonal_example(self):
        parts = jordan_hahn(diag_state(0.6, 0.4), diag_state(0.4, 0.6))
        np.testing.assert_allclose(parts.positive_part.entries, np.diag([0.2, 0.0]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(parts.negative_part.entries, np.diag([0.0, 0.2]), rtol=0, atol=1e-14)
        assert parts.weight == pytest.approx(0.2)

    def test_identical_states_rejected(self):
        rho = maximally_mixed(3)
        with pytest.raises(IdenticalStates):
            jordan_hahn(rho, rho)

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds)
    def test_random_pair_invariants(self, seed):
        rng = rng_stream(seed, 97)
        rho1 = sample_random_state(3, int(rng.integers(1, 4)), rng)
        rho2 = sample_random_state(3, int(rng.integers(1, 4)), rng)
        parts = jordan_hahn(rho1, rho2)
        p1, p2 = parts.positive_part.entries, parts.negative_part.entries
        delta = rho1.entries - rho2.entries

        # independent oracle: eigendecomposition of the difference
        eigs = np.linalg.eigvalsh(delta)
        np.testing.assert_allclose(p1 - p2, delta, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(p1)[0] >= -TOL_PSD
        assert np.linalg.eigvalsh(p2)[0] >= -TOL_PSD
        assert np.linalg.norm(p1 @ p2, 2) <= TOL_PSD
        expected_weight = eigs[eigs > 0].sum()
        assert parts.weight == pytest.approx(expected_weight, abs=1e-12)
        assert parts.weight == pytest.approx(trace_distance(rho1, rho2), abs=1e-10)


class TestOrthogonalityAndBoundary:
    def test_computational_basis_orthogonal(self):
        assert is_orthogonal(pure_state([1, 0]), pure_state([0, 1]))

    def test_overlapping_pure_states(self):
        assert not is_orthogonal(pure_state([1, 0]), pure_state([1, 1]))

    def test_mixed_reference_pair_orthogonal(self):
        assert is_orthogonal(pure_state([1, 0, 0]), diag_state(0.0, 0.5, 0.5))

    def test_pure_state_on_boundary(self):
        assert is_boundary(pure_state([1, 1, 0]))

    def test_maximally_mixed_interior(self):
        assert not is_boundary(maximally_mixed(4))

    def test_rank_deficient_diagonal(self):
        assert is_boundary(diag_state(0.5, 0.5, 0.0))

    def test_orthogonal_pairs_lie_on_boundary(self):
        for seed in range(30):
            rho1, rho2 = sample_orthogonal_mixed_pair(4, rng_stream(seed, 96))
            assert is_orthogonal(rho1, rho2)
            assert is_boundary(rho1) and is_boundary(rho2)


class TestRescalePair:
    def test_diagonal_example(self):
        sigma1, sigma2, lam = rescale_pair(diag_state(0.6, 0.4), diag_state(0.4, 0.6))
        np.testing.assert_allclose(sigma1.entries, np.diag([1.0, 0.0]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(sigma2.entries, np.diag([0.0, 1.0]), rtol=0, atol=1e-14)
        assert lam == pytest.approx(0.2)

    def test_orthogonal_input_passthrough(self):
        rho1, rho2 = pure_state([1, 0]), pure_state([0, 1])
        sigma1, sigma2, lam = rescale_pair(rho1, rho2)
        assert lam == 1.0
        assert sigma1 is rho1 and sigma2 is rho2

    def test_plus_zero_pair(self):
        plus = pure_state([1, 1])
        zero = pure_state([1, 0])
        sigma1, sigma2, lam = rescale_pair(plus, zero)
        # oracle: eigenvalues of the 2x2 difference are +/- 1/sqrt(2)
        eigs = np.linalg.eigvalsh(plus.entries - zero.entries)
        assert lam == pytest.approx(eigs[-1], abs=1e-14)
        assert lam == pytest.approx(2 ** -0.5, abs=1e-12)
        assert trace_distance(sigma1, sigma2) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_rescale_law(self, seed, dim):
        rng = rng_stream(seed, 95)
        rho1 = sample_random_state(dim, dim, rng)
        rho2 = sample_random_state(dim, dim, rng)
        sigma1, sigma2, lam = rescale_pair(rho1, rho2)
        assert 0.0 < lam < 1.0
        assert trace_distance(sigma1, sigma2) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(
            sigma1.entries - sigma2.entries,
            (rho1.entries - rho2.entries) / lam,
            rtol=0, atol=1e-12,
        )


class TestSampling:
    def test_pure_pair_contract(self):
        rho1, rho2 = sample_pure_orthogonal_pair(2, rng_stream(404))
        assert abs(np.trace(rho1.entries @ rho2.entries)) <= 1e-12
        assert rho1.purity() == pytest.approx(1.0, abs=1e-12)
        assert rho2.purity() == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_bitwise_identical(self):
        a1, a2 = sample_pure_orthogonal_pair(3, rng_stream(1234, 5))
        b1, b2 = sample_pure_orthogonal_pair(3, rng_stream(1234, 5))
        assert np.array_equal(a1.entries, b1.entries)
        assert np.array_equal(a2.entries, b2.entries)

    def test_pure_pair_unit_distance(self):
        rho1, rho2 = sample_pure_orthogonal_pair(3, rng_stream(77))
        assert trace_distance(rho1, rho2) == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_state_interior(self):
        rho = sample_random_state(4, 4, rng_stream(9))
        assert rho.min_eigenvalue > 1e-12
        assert not is_boundary(rho)

    def test_rank_one_state_pure(self):
        rho = sample_random_state(3, 1, rng_stream(10))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_state_on_boundary(self):
        rho = sample_random_state(4, 3, rng_stream(11))
        assert is_boundary(rho)

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            sample_pure_orthogonal_pair(1, rng_stream(0))
        with pytest.raises(BadDimension):
            sample_random_state(3, 4, rng_stream(0))

    def test_mixed_pair_orthogonal_and_valid(self):
        rho1, rho2 = sample_orthogonal_mixed_pair(3, rng_stream(21))
        assert trace_distance(rho1, rho2) == pytest.approx(1.0, abs=1e-12)

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(4, rng_stream(3))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), rtol=0, atol=1e-13)
