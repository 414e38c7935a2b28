import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from backflow import statespace
from backflow.dynamics import POSITIVITY_DRIFT
from backflow.errors import (
    BadDimension,
    BadTrace,
    DimensionMismatch,
    DomainError,
    IdenticalStates,
    NotHermitian,
    NotPositive,
)
from backflow.statespace import (
    TOL_HERM,
    TOL_ORTH,
    TOL_PSD,
    DensityMatrix,
    HermitianOperator,
    _canonical_sign,
    _certified_above,
    _clipped_distances,
    _density_stack,
    _haar_from_ginibre,
    _mixed_pairs_from_ginibre,
    _pure_pairs_from_ginibre,
    _random_state_stack,
    _streams,
    haar_unitary,
    is_boundary,
    is_orthogonal,
    jordan_hahn,
    make_density_matrix,
    pure_state,
    rescale_pair,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_pure_orthogonal_pair,
    sample_random_state,
    spectral_decomposition,
    trace_distance,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4])


def diag_state(*populations):
    return make_density_matrix(np.diag(populations).astype(complex))


def uniform_state(dim):
    return make_density_matrix(np.eye(dim) / dim)


def purity(rho):
    return float(np.trace(rho.entries @ rho.entries).real)


def rank(rho):
    return int(np.count_nonzero(np.linalg.eigvalsh(rho.entries) > TOL_PSD))


class TestMakeDensityMatrix:
    def test_maximally_mixed_dim2(self):
        rho = uniform_state(2)
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
        for empty in (make_density_matrix, HermitianOperator.from_matrix):
            with pytest.raises(BadDimension, match=r"shape \(0, 0\)"):
                empty(np.zeros((0, 0)))

    def test_entries_read_only(self):
        rho = uniform_state(2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 9.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entries_rejected(self, value):
        # every other check compares with < or >, which a NaN passes; runs
        # under the warnings-as-errors setting, so inf - inf must not be reached
        with pytest.raises(DomainError, match=r"4 non-finite .* \(0, 0, 0\), \(0, 0, 1\)"):
            make_density_matrix(np.full((2, 2), value))
        with pytest.raises(DomainError, match=r"1 non-finite .* at \(0, 1, 1\)$"):
            make_density_matrix(np.diag([1.0, value]))
        with pytest.raises(DomainError, match=r"4 non-finite operator entries"):
            HermitianOperator.from_matrix(np.full((2, 2), value))
        with pytest.raises(DomainError, match=r"1 non-finite state vector entries .* at \(0, 0\)$"):
            pure_state([value, 1.0])
        with pytest.raises(DomainError, match=r"at \(0, 0, 0\), \(0, 0, 1\), \(0, 0, 2\), \(0, 1, 0\), \.\.\.$"):
            make_density_matrix(np.full((3, 3), value))


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
            trace_distance(uniform_state(2), uniform_state(3))

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


def reference_sign(delta):
    """The sign rule on one matrix: the first nonzero real entry, else the
    first nonzero imaginary one, is made positive."""
    flat = delta.ravel()
    for part in (flat.real, flat.imag):
        idx = np.flatnonzero(part)
        if idx.size:
            return -delta if part[idx[0]] < 0 else delta
    return delta


class TestStackedSign:
    @staticmethod
    def stack():
        rng = rng_stream(40)
        a, b, c = (sample_random_state(3, rank, rng).entries for rank in (1, 2, 3))
        sigma_y = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
        leading_zeros = np.zeros((3, 3), dtype=complex)
        leading_zeros[1, 2], leading_zeros[2, 1] = -0.25 + 1j, -0.25 - 1j
        leading_zeros[0, 0] = -0.0
        return np.stack([a - b, b - a, sigma_y, -sigma_y, np.zeros((3, 3), dtype=complex), a - c, leading_zeros])

    def test_each_matrix_follows_the_one_matrix_rule(self):
        stack = self.stack()
        signed = _canonical_sign(stack)
        assert signed.shape == stack.shape
        for got, delta in zip(signed, stack):
            assert got.tobytes() == reference_sign(delta).tobytes()
            assert _canonical_sign(delta).tobytes() == got.tobytes()
        # an imaginary-only difference takes its sign from the imaginary part
        assert signed[2].tobytes() == signed[3].tobytes() == (-self.stack()[2]).tobytes()
        assert signed[4].tobytes() == np.zeros((3, 3), dtype=complex).tobytes()

    def test_swapped_differences_give_bitwise_equal_distances(self):
        stack = self.stack().reshape(7, 1, 3, 3)  # any leading shape
        plus = _clipped_distances(_canonical_sign(stack))
        minus = _clipped_distances(_canonical_sign(-stack))
        assert plus.shape == (7, 1)
        assert plus.tobytes() == minus.tobytes()
        for delta, value in zip(stack[:, 0], plus[:, 0]):
            assert float(_clipped_distances(reference_sign(delta))) == value


def eigvalsh_distances(deltas):
    """The reference kernel: half the absolute-eigenvalue sum, clipped to [0, 1]."""
    return np.clip(0.5 * np.abs(np.linalg.eigvalsh(deltas)).sum(axis=-1), 0.0, 1.0)


def conjugated(spectrum, rng):
    """U diag(spectrum) U^dagger for a Haar random U."""
    u = haar_unitary(len(spectrum), rng)
    return (u * np.asarray(spectrum)) @ u.conj().T


class TestTraceNormKernel:
    """The closed forms at N = 2 and 3 against the reference ``eigvalsh`` kernel."""

    @staticmethod
    def state_differences(dim, seed):
        """Differences of random states of every pair of ranks, of pure and of
        mixed orthogonal pairs, 20 of each kind."""
        rng = rng_stream(seed, dim)
        deltas = []
        for _ in range(20):
            for r1 in range(1, dim + 1):
                for r2 in range(1, dim + 1):
                    deltas.append(sample_random_state(dim, r1, rng).entries - sample_random_state(dim, r2, rng).entries)
            for sample in (sample_pure_orthogonal_pair, sample_orthogonal_mixed_pair):
                rho1, rho2 = sample(dim, rng)
                deltas.append(rho1.entries - rho2.entries)
        return np.array(deltas)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_state_differences_match_eigvalsh(self, dim):
        deltas = self.state_differences(dim, 61)
        np.testing.assert_allclose(_clipped_distances(deltas), eigvalsh_distances(deltas), rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "spectrum",
        [
            (0.5, 0.5, -1.0),
            (-0.5, -0.5, 1.0),
            (1.0, -1.0, 0.0),
            (1e-9, 1e-9, -2e-9),
            (1e-12, 1e-12, -2e-12),
            (0.5, -0.5),
            (1e-9, -1e-9),
            (1e-12, -1e-12),
        ],
    )
    def test_degenerate_spectra_match_eigvalsh(self, spectrum):
        # where two eigenvalues meet, the third (the largest |lambda|) sets the distance
        rng = rng_stream(62, len(spectrum))
        deltas = np.array([conjugated(spectrum, rng) for _ in range(200)])
        np.testing.assert_allclose(_clipped_distances(deltas), eigvalsh_distances(deltas), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matrices_with_a_trace_match_eigvalsh(self, dim):
        # evolved differences carry a trace of up to ~1e-10 (the map's CPT
        # drift); it enters the closed forms through q = tr M / N
        rng = rng_stream(65, dim)
        ginibre = rng.standard_normal((200, dim, dim)) + 1j * rng.standard_normal((200, dim, dim))
        deltas = 0.1 * (ginibre + ginibre.conj().swapaxes(-1, -2))
        deltas += np.eye(dim) * rng.uniform(-0.3, 0.3, (200, 1, 1))
        np.testing.assert_allclose(_clipped_distances(deltas), eigvalsh_distances(deltas), rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "stream, spectrum, expected",
        [
            (0, (0.5, 0.5 - 1e-9, -1.0 + 1e-9), [0.9999999989999997, 0.9999999989999997, 0.9999999990000001]),
            (1, (-0.5, -0.5 + 1e-6, 1.0 - 1e-6), [0.9999990000000001, 0.9999990000000001, 0.999999]),
            (2, (1e-9, 1e-9, -2e-9), [1.9999999999999997e-09, 2.0000000000000005e-09, 1.999999999999999e-09]),
            (3, (1e-12, 1e-12, -2e-12), [1.9999999999999983e-12, 1.9999999999999996e-12, 1.9999999999999996e-12]),
            (4, (0.7, 0.2, 0.1 + 1e-10), [0.5000000000499998, 0.5000000000499998, 0.50000000005]),
        ],
        ids=["nearly-double-top", "nearly-double-bottom", "tiny-1e-9", "tiny-1e-12", "trace-near-1"],
    )
    def test_hard_inputs_are_pinned(self, stream, spectrum, expected):
        # exact values of the 3x3 closed form, so a reordered operation in it shows here
        rng = rng_stream(66, stream)
        deltas = np.array([conjugated(spectrum, rng) for _ in range(3)])
        assert statespace._half_trace_norms_3(deltas).tolist() == expected

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_difference_is_exactly_zero(self, dim):
        zero = np.zeros((dim, dim), dtype=complex)
        assert float(_clipped_distances(zero)) == 0.0
        assert _clipped_distances(np.zeros((4, 5, dim, dim), dtype=complex)).tobytes() == np.zeros((4, 5)).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_call_equals_one_matrix_calls(self, dim):
        deltas = self.state_differences(dim, 63)
        stacked = _clipped_distances(deltas.reshape(20, -1, dim, dim)).ravel()
        for delta, value in zip(deltas, stacked):
            assert _clipped_distances(delta).tobytes() == value.tobytes()
            assert _clipped_distances(delta[None]).tobytes() == value.tobytes()

    @pytest.mark.parametrize("dim", [4, 5])
    def test_eigvalsh_dimensions_are_unchanged(self, dim):
        rng = rng_stream(64, dim)
        deltas = np.array([sample_random_state(dim, 1 + k % dim, rng).entries for k in range(60)])
        deltas = (deltas[:30] - deltas[30:]).reshape(5, 6, dim, dim)
        assert _clipped_distances(deltas).tobytes() == eigvalsh_distances(deltas).tobytes()
        for delta in deltas.reshape(-1, dim, dim):
            assert _clipped_distances(delta).tobytes() == eigvalsh_distances(delta).tobytes()


class TestSpectralDecomposition:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_a_stack_is_each_matrix_alone(self, dim):
        # descending eigenvalues, and each column's first component above
        # 1e-12 made real positive, in one eigh for the stack
        rng = rng_stream(23, dim)
        states = [sample_random_state(dim, rank, rng).entries for rank in range(1, dim + 1) for _ in range(4)]
        stack = np.array(states + [np.eye(dim) / dim])
        values, vectors = spectral_decomposition(stack)
        for k, matrix in enumerate(stack):
            one_values, one_vectors = spectral_decomposition(matrix)
            assert np.array_equal(values[k], one_values) and np.array_equal(vectors[k], one_vectors)
            assert np.all(np.diff(one_values) <= 0.0)
            pivots = one_vectors[(np.abs(one_vectors) > 1e-12).argmax(axis=0), np.arange(dim)]
            assert np.all(np.abs(pivots.imag) <= 1e-15) and np.all(pivots.real > 0.0)
            np.testing.assert_allclose((one_vectors * one_values) @ one_vectors.conj().T, matrix, rtol=0, atol=1e-14)


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
        rho = uniform_state(3)
        with pytest.raises(IdenticalStates):
            jordan_hahn(rho, rho)

    def test_parts_are_kept_as_hermitian_operators(self):
        rng = rng_stream(5, 97)
        parts = jordan_hahn(sample_random_state(4, 3, rng), sample_random_state(4, 2, rng))
        for part in (parts.positive_part.entries, parts.negative_part.entries):
            assert np.array_equal(part, part.conj().T)
            assert not part.flags.writeable

    def test_a_stack_with_one_coinciding_pair_is_rejected(self):
        rng = rng_stream(5, 98)
        a, b = (sample_random_state(3, 3, rng).entries for _ in range(2))
        with pytest.raises(IdenticalStates):
            statespace._jordan_hahn_stack(np.stack([a - b, b - b, b - a]))

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

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_sampled_mixed_pair_is_its_own_split(self, dim):
        # the chart identity: the split of the pair's difference rescales back to the pair
        for i in range(16):
            rho1, rho2 = sample_orthogonal_mixed_pair(dim, rng_stream(34, i))
            parts = jordan_hahn(rho1, rho2)
            np.testing.assert_allclose(parts.positive_part.entries, rho1.entries, rtol=0, atol=1e-12)
            np.testing.assert_allclose(parts.negative_part.entries, rho2.entries, rtol=0, atol=1e-12)
            assert parts.weight == pytest.approx(1.0, abs=1e-12)
            sigma1, sigma2, lam = rescale_pair(rho1, rho2)
            assert lam == 1.0
            assert sigma1 is rho1 and sigma2 is rho2


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
        assert not is_boundary(uniform_state(4))

    def test_rank_deficient_diagonal(self):
        assert is_boundary(diag_state(0.5, 0.5, 0.0))

    def test_orthogonal_pairs_lie_on_boundary(self):
        # a sampled pair splits a traceless matrix by sign: ranks (r, N - r),
        # where r = 1 and r = 3 each have probability about 0.03 at N = 4
        for dim in range(2, 7):
            ranks = set()
            for seed in range(200):
                rho1, rho2 = sample_orthogonal_mixed_pair(dim, rng_stream(seed, 96))
                assert is_orthogonal(rho1, rho2)
                assert is_boundary(rho1) and is_boundary(rho2)
                assert 1 <= rank(rho1) <= dim - 1 and rank(rho1) + rank(rho2) == dim
                ranks.add(rank(rho1))
            if dim <= 4:
                assert ranks == set(range(1, dim))  # every split of the dimension occurs


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

    def test_identical_states_rejected(self):
        rho = diag_state(0.6, 0.4)
        with pytest.raises(IdenticalStates):
            rescale_pair(rho, rho)

    def test_splits_without_a_trace_distance(self, monkeypatch):
        # orthogonality is read off the split's weight, so no distance is taken
        def no_distance(deltas):
            raise AssertionError("rescale_pair took a trace distance")

        monkeypatch.setattr(statespace, "_clipped_distances", no_distance)
        rho1, rho2 = pure_state([1, 0]), pure_state([0, 1])
        assert rescale_pair(rho1, rho2) == (rho1, rho2, 1.0)
        assert rescale_pair(diag_state(0.6, 0.4), diag_state(0.4, 0.6))[2] == pytest.approx(0.2)

    def test_plus_zero_pair(self):
        plus = pure_state([1, 1])
        zero = pure_state([1, 0])
        sigma1, sigma2, lam = rescale_pair(plus, zero)
        # oracle: eigenvalues of the 2x2 difference are +/- 1/sqrt(2)
        eigs = np.linalg.eigvalsh(plus.entries - zero.entries)
        assert lam == pytest.approx(eigs[-1], abs=1e-14)
        assert lam == pytest.approx(2 ** -0.5, abs=1e-12)
        assert trace_distance(sigma1, sigma2) == pytest.approx(1.0, abs=1e-10)
        assert not sigma1.entries.flags.writeable and not sigma2.entries.flags.writeable

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
        assert purity(rho1) == pytest.approx(1.0, abs=1e-12)
        assert purity(rho2) == pytest.approx(1.0, abs=1e-12)

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
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_state_on_boundary(self):
        rho = sample_random_state(4, 3, rng_stream(11))
        assert is_boundary(rho)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_random_states_follow_the_induced_law(self, dim):
        # the induced measure of an N x r Ginibre matrix has rank r and mean
        # purity (N + r) / (N r + 1); flat Dirichlet weights give 2/3 at N = r = 2
        samples = 1000
        for rank in range(1, dim + 1):
            purities = []
            for i in range(samples):
                rho = sample_random_state(dim, rank, rng_stream(38, dim, rank, i))
                assert int((rho.eigenvalues > TOL_PSD).sum()) == rank
                purities.append(purity(rho))
            expected = (dim + rank) / (dim * rank + 1)
            error = np.std(purities) / np.sqrt(samples)
            assert abs(np.mean(purities) - expected) <= 4 * error + 1e-12

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

    @pytest.mark.parametrize("dim", range(1, 6))
    def test_haar_unitary_is_the_one_matrix_qr(self, dim):
        # the one-row stacked kernel gives the bits of one 2-D QR with its
        # R diagonal phases absorbed into Q
        for i in range(20):
            got = haar_unitary(dim, rng_stream(44, dim, i))
            assert got.shape == (dim, dim)
            assert got.tobytes() == reference_haar(dim, rng_stream(44, dim, i)).tobytes()


# One-matrix reference implementations of the samplers: each matrix is
# built and validated on its own, with 2-D operations only.


def reference_density(m):
    """make_density_matrix's operations on one matrix."""
    assert np.abs(m - m.conj().T).max() <= TOL_HERM
    m = (m + m.conj().T) / 2
    m = m / float(np.trace(m).real)
    assert np.linalg.eigvalsh(m)[0] >= -TOL_PSD
    return m


def normal_reads(dim, rngs):
    """The (n, 2, N, N) stack of one (2, N, N) normal read of each stream,
    the read of a public sampler call."""
    return np.array([rng.standard_normal((2, dim, dim)) for rng in rngs])


def reference_haar(dim, rng):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reference_random_state(dim, rank, rng):
    """G G^dagger / tr for one N x N complex Ginibre G with columns rank..N-1 zeroed."""
    z = rng.standard_normal((2, dim, dim))
    g = z[0] + 1j * z[1]
    g[:, rank:] = 0.0
    m = g @ g.conj().T
    return reference_density(m / float(np.trace(m).real))


def reference_pure_pair(dim, rng):
    """Gram-Schmidt, twice, on the first two columns of one complex Ginibre
    matrix, and the projectors onto the results made exactly Hermitian."""
    z = rng.standard_normal((2, dim, dim))
    a, b = (z[0][:, j] + 1j * z[1][:, j] for j in (0, 1))
    a = a / np.sqrt((a.real * a.real + a.imag * a.imag).sum())
    for _ in range(2):
        b = b - a * (a.conj() * b).sum()
    pair = []
    for v in (a, b):
        v = v / np.linalg.norm(v)
        p = np.outer(v, v.conj())
        pair.append((p + p.conj().T) / 2)
    return pair


def qr_pure_pair(dim, rng):
    """The projectors onto the first two columns of the Haar unitary that
    the QR of the stream's Ginibre matrix gives."""
    u = reference_haar(dim, rng)
    vectors = [u[:, j] / np.linalg.norm(u[:, j]) for j in (0, 1)]
    return [reference_density(np.outer(v, v.conj())) for v in vectors]


def reference_mixed_pair(dim, rng):
    """The split of one traceless GUE matrix by a one-matrix ``np.linalg.eigh``."""
    z = rng.standard_normal((2, dim, dim))
    g = z[0] + 1j * z[1]
    h = g + g.conj().T
    h = h - np.trace(h) / dim * np.eye(dim)
    values, vectors = np.linalg.eigh(h)
    pair = []
    for weights in (np.clip(values, 0.0, None), np.clip(-values, 0.0, None)):
        pair.append(reference_density((vectors * weights) @ vectors.conj().T / weights.sum()))
    return pair


class TestStackedSampling:
    N = 48

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_pure_pairs_match_one_stream_at_a_time(self, dim):
        first, second = _pure_pairs_from_ginibre(normal_reads(dim, [rng_stream(31, i) for i in range(self.N)]))
        assert first.shape == second.shape == (self.N, dim, dim)
        for i in range(self.N):
            expected = reference_pure_pair(dim, rng_stream(31, i))
            one = sample_pure_orthogonal_pair(dim, rng_stream(31, i))
            for got, alone, ref in zip((first[i], second[i]), one, expected):
                assert np.array_equal(got, ref)
                assert np.array_equal(alone.entries, ref)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_pure_pairs_match_the_qr_construction(self, dim):
        # the first two columns of a Ginibre QR are the Gram-Schmidt
        # orthonormalization of its first two columns up to phases, which
        # projectors drop, so the law is that of Haar unitaries
        first, second = _pure_pairs_from_ginibre(normal_reads(dim, [rng_stream(37, dim, i) for i in range(300)]))
        for i in range(300):
            expected = qr_pure_pair(dim, rng_stream(37, dim, i))
            for got, ref in zip((first[i], second[i]), expected):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_mixed_pairs_match_one_stream_at_a_time(self, dim):
        rngs = [rng_stream(32, i) for i in range(self.N)]
        first, second = _mixed_pairs_from_ginibre(normal_reads(dim, rngs))
        assert first.shape == second.shape == (self.N, dim, dim)
        for i in range(self.N):
            reference = rng_stream(32, i)
            expected = reference_mixed_pair(dim, reference)
            assert rngs[i].random() == reference.random()  # both read the same 2N^2 normals
            one = sample_orthogonal_mixed_pair(dim, rng_stream(32, i))
            for got, alone, ref in zip((first[i], second[i]), one, expected):
                assert np.array_equal(alone.entries, got)
                if dim == 3:  # the closed form of _lone_sign_pairs, not eigh
                    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
                else:
                    assert np.array_equal(got, ref)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_state_matches_one_matrix_reference(self, dim):
        for rank in range(1, dim + 1):
            for i in range(8):
                rng = rng_stream(33, rank, i)
                expected = reference_random_state(dim, rank, rng)
                assert np.array_equal(sample_random_state(dim, rank, rng_stream(33, rank, i)).entries, expected)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_random_state_reads_one_normal_block_whatever_the_rank(self, dim):
        # a state reads its (2, N, N) Ginibre parts and nothing more, so the
        # next number a stream gives does not depend on the rank drawn
        for rank in range(1, dim + 1):
            ours, reference = rng_stream(39, dim, rank), rng_stream(39, dim, rank)
            sample_random_state(dim, rank, ours)
            reference.standard_normal((2, dim, dim))
            assert ours.random() == reference.random()

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_random_state_stack_matches_one_matrix_reference(self, dim):
        ranks = [1 + i % dim for i in range(3 * dim)][::-1]
        ginibre = np.array([rng_stream(36, i).standard_normal((2, dim, dim)) for i in range(len(ranks))])
        states = _random_state_stack(ranks, ginibre)
        for i, rank in enumerate(ranks):
            assert np.array_equal(states[i], reference_random_state(dim, rank, rng_stream(36, i)))

    def test_stacks_are_read_only(self):
        first, second = _pure_pairs_from_ginibre(normal_reads(3, [rng_stream(34, i) for i in range(3)]))
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.array([[0.5, 0.3, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]), NotHermitian),
            (np.diag([0.7, 0.7, 0.0]), BadTrace),
            (np.diag([1.2, -0.2, 0.0]), NotPositive),
            (np.diag([1.0, np.nan, 0.0]), DomainError),
        ],
        ids=["non-hermitian", "bad-trace", "not-positive", "non-finite"],
    )
    def test_stacked_validator_rejects_one_bad_matrix(self, bad, error):
        first, _ = _pure_pairs_from_ginibre(normal_reads(3, [rng_stream(35, i) for i in range(5)]))
        stack = np.array(first)
        stack[2] = bad
        with pytest.raises(error):
            make_density_matrix(bad)
        with pytest.raises(error):
            _density_stack(stack)
        _density_stack(np.delete(stack, 2, axis=0))  # the rest of the stack is valid


def ginibre_of(h):
    """Ginibre parts (n, 2, N, N) from which the mixed-pair sampler builds the
    Hermitian stack h: G = h / 2, so G + G^dagger is h exactly."""
    return np.stack([h.real, h.imag], axis=-3) / 2.0


def signed_parts_pairs(h):
    """The reference for the mixed-pair sampler at N = 3: each H of an
    (n, 3, 3) stack made traceless as the sampler makes it, split by
    ``_signed_parts``' stacked eigh and each part divided by its trace; and
    the (2, n) counts of positive and of negative eigenvalues, the ranks of
    the pair."""
    h = h - (h.trace(axis1=1, axis2=2) / 3)[:, None, None] * np.eye(3)
    parts, weights = statespace._signed_parts(h)
    return parts / weights.sum(axis=-1)[:, :, None, None], (weights > 0.0).sum(axis=-1)


def hermitian(m):
    return (m + m.conj().swapaxes(-1, -2)) / 2


class TestLoneSignPairs:
    """The N = 3 closed form of the mixed-pair sampler against the eigh split."""

    def test_gue_draws_match_the_eigh_split(self):
        ginibre = rng_stream(71).standard_normal((20000, 2, 3, 3))
        pairs = _mixed_pairs_from_ginibre(ginibre)
        g = ginibre[:, 0] + 1j * ginibre[:, 1]
        expected, ranks = signed_parts_pairs(g + g.conj().swapaxes(-1, -2))
        np.testing.assert_allclose(pairs, expected, rtol=0, atol=1e-14)
        assert np.array_equal((np.linalg.eigvalsh(pairs) > TOL_PSD).sum(axis=-1), ranks)
        assert sorted(set(zip(*ranks.tolist()))) == [(1, 2), (2, 1)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=9, max_size=9), st.integers(-6, 6))
    def test_traceless_hermitian_matrices_match_the_eigh_split(self, entries, exponent):
        # integer entries reach exact zeros, exact ties and det = 0
        d0, d1, d2, u, v, w, iu, iv, iw = entries
        h = np.array([[d0, u + 1j * iu, v + 1j * iv], [0, d1, w + 1j * iw], [0, 0, d2]]) * 10.0**exponent
        h = np.triu(h) + np.triu(h, 1).conj().T
        assume(not (d0 == d1 == d2 and u == v == w == iu == iv == iw == 0))
        expected, _ = signed_parts_pairs(h[None])
        np.testing.assert_allclose(_mixed_pairs_from_ginibre(ginibre_of(h[None])), expected, rtol=0, atol=1e-14)

    @staticmethod
    def built(case, rng):
        """Eight Hermitian 3x3 matrices of one kind, at unit scale."""
        if case == "det-zero":
            # diag(a, 0, -a), a 2x2 block with a zero row and column, and
            # i times a real antisymmetric matrix: their invariants give
            # det H = 0 exactly
            i, j, k = rng.uniform(-1.0, 1.0, (3, 8))
            stack = [np.diag([a, 0.0, -a]) for a in i]
            stack += [np.array([[0, a + 1j * b, 0], [a - 1j * b, 0, 0], [0, 0, 0]]) for a, b in zip(j, k)]
            stack += [1j * np.array([[0, a, b], [-a, 0, c], [-b, -c, 0]]) for a, b, c in zip(i, j, k)]
            return np.array(stack)
        if case == "diagonal":
            return np.array([np.diag(d) for d in rng.uniform(-1.0, 1.0, (8, 3))])
        if case == "imaginary-off-diagonal":
            m = 1j * rng.uniform(-1.0, 1.0, (8, 3, 3))
            return hermitian(m - m.swapaxes(-1, -2)) + np.array([np.diag(d) for d in rng.uniform(-1.0, 1.0, (8, 3))])
        spectrum = {
            "double-below": (1.0, -0.5, -0.5),
            "double-above": (-1.0, 0.5, 0.5),
            "middle-1e-12-above": (1.0, 1e-12, -1.0 - 1e-12),
            "middle-1e-12-below": (1.0, -1e-12, -1.0 + 1e-12),
        }[case]
        return np.array([hermitian(conjugated(spectrum, rng)) for _ in range(8)])

    CASES = [
        "det-zero",
        "diagonal",
        "imaginary-off-diagonal",
        "double-below",
        "double-above",
        "middle-1e-12-above",
        "middle-1e-12-below",
    ]

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("case", CASES)
    def test_built_spectra_match_the_eigh_split(self, case, scale):
        h = scale * self.built(case, rng_stream(72, self.CASES.index(case)))
        expected, ranks = signed_parts_pairs(h)
        pairs = _mixed_pairs_from_ginibre(ginibre_of(h))
        np.testing.assert_allclose(pairs, expected, rtol=0, atol=1e-14)
        if case.startswith("middle"):
            # the middle eigenvalue of +-1e-12 joins the state of its sign,
            # whose spectrum is then (1 - 1e-12, 1e-12, 0) to 1e-24; the
            # other's is (1, 0, 0)
            values = np.linalg.eigvalsh(pairs)[..., ::-1]
            side = 0 if case.endswith("above") else 1
            assert ranks[side].tolist() == [2] * 8 and ranks[1 - side].tolist() == [1] * 8
            np.testing.assert_allclose(values[side], [[1.0 - 1e-12, 1e-12, 0.0]] * 8, rtol=0, atol=1e-14)
            np.testing.assert_allclose(values[1 - side], [[1.0, 0.0, 0.0]] * 8, rtol=0, atol=1e-14)

    def test_stacked_calls_equal_one_row_sampler_calls(self):
        rngs = [rng_stream(73, i) for i in range(300)]
        ginibre = normal_reads(3, rngs)
        pairs = _mixed_pairs_from_ginibre(ginibre)
        for i in range(300):
            one = sample_orthogonal_mixed_pair(3, rng_stream(73, i))
            assert all(np.array_equal(rho.entries, pairs[k, i]) for k, rho in enumerate(one))
        for start, stop in [(0, 1), (1, 3), (3, 10), (10, 74), (74, 300)]:
            assert np.array_equal(_mixed_pairs_from_ginibre(ginibre[start:stop]), pairs[:, start:stop])

    @pytest.mark.parametrize("dim", [3, 2, 4])
    def test_a_zero_draw_is_a_domain_error(self, dim):
        # a zero H has no split, and its 0/0 parts fail validation as
        # non-finite state entries, with no warning
        ginibre = normal_reads(dim, [rng_stream(74, i) for i in range(5)])
        ginibre[2] = 0.0
        shown = ", ".join(str((2, *index)) for index in list(np.ndindex(dim, dim))[:4])
        message = f"{2 * dim * dim} non-finite state entries (matrix, row, column), at {shown}, ..."
        with pytest.raises(DomainError, match=re.escape(message)):
            _mixed_pairs_from_ginibre(ginibre)

    @pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_a_non_finite_draw_is_a_domain_error_at_every_n(self, dim, fill):
        # refused before the traceless shift, which would warn on inf - inf,
        # and before the split's eigh, which would not converge
        ginibre = normal_reads(dim, [rng_stream(75, i) for i in range(5)])
        ginibre[2, 0, 0, 0] = fill
        message = "1 non-finite Ginibre draws (pair, part, row, column), at (2, 0, 0, 0)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(message) + "$"):
                _mixed_pairs_from_ginibre(ginibre)


class TestPurePairsValidByConstruction:
    """Sampled pure pairs are states and orthogonal without a validation pass."""

    @staticmethod
    def nearly_parallel(dim, count, gap, rng):
        """Ginibre parts whose second column is a random phase times the
        first, plus ``gap`` times fresh normals."""
        g = rng.standard_normal((count, 2, dim, dim))
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
        column = (g[:, 0, :, 0] + 1j * g[:, 1, :, 0]) * phase[:, None]
        g[:, 0, :, 1] = column.real + gap * g[:, 0, :, 1]
        g[:, 1, :, 1] = column.imag + gap * g[:, 1, :, 1]
        return g

    @staticmethod
    def one_pass_distances(ginibre):
        """Trace distances of the projectors that one Gram-Schmidt pass gives."""
        a = ginibre[:, 0, :, 0] + 1j * ginibre[:, 1, :, 0]
        b = ginibre[:, 0, :, 1] + 1j * ginibre[:, 1, :, 1]
        a = a / np.linalg.norm(a, axis=-1)[:, None]
        b = b - a * (a.conj() * b).sum(axis=-1)[:, None]
        b = b / np.linalg.norm(b, axis=-1)[:, None]
        return np.sqrt(1.0 - np.abs((a.conj() * b).sum(axis=-1)) ** 2)

    def assert_valid(self, pairs):
        eps = np.finfo(float).eps
        states = pairs.reshape(-1, *pairs.shape[2:])
        assert np.array_equal(states, states.conj().swapaxes(-1, -2))
        assert np.abs(states.trace(axis1=1, axis2=2) - 1.0).max() <= 8 * eps
        _density_stack(states)
        for rho1, rho2 in zip(*pairs):
            assert is_orthogonal(DensityMatrix(rho1), DensityMatrix(rho2))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_sampled_pairs_are_orthogonal_states(self, dim):
        self.assert_valid(_pure_pairs_from_ginibre(normal_reads(dim, [rng_stream(38, dim, i) for i in range(200)])))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_nearly_parallel_columns_are_orthogonalized(self, dim):
        ginibre = self.nearly_parallel(dim, 200, 1e-14, rng_stream(51, dim))
        # one pass leaves every one of these pairs short of orthogonal
        assert (self.one_pass_distances(ginibre) < 1.0 - TOL_ORTH).all()
        self.assert_valid(_pure_pairs_from_ginibre(ginibre))

    def test_no_qr_and_no_validation_pass(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(np.linalg, "qr", refused)
        monkeypatch.setattr(statespace, "_density_stack", refused)
        pairs = _pure_pairs_from_ginibre(normal_reads(3, [rng_stream(39, i) for i in range(20)]))
        one = sample_pure_orthogonal_pair(3, rng_stream(39, 7))
        assert np.array_equal(pairs[:, 7], [rho.entries for rho in one])


class TestStreams:
    def test_layout_is_seed_key_and_counter(self):
        # key word 0 holds the seed; counter word 0 is the position, words 1-3 the key
        state = rng_stream(7, 1, 2).bit_generator.state
        assert state["bit_generator"] == "Philox"
        assert state["state"]["key"].tolist() == [7, 0]
        assert state["state"]["counter"].tolist() == [0, 1, 2, 0]
        top = 2**64 - 1
        assert rng_stream(top, top, top, top).bit_generator.state["state"]["counter"].tolist() == [0, top, top, top]

    def test_first_uniforms_are_pinned(self):
        assert rng_stream(7).random(3).tolist() == [0.8720734548204873, 0.29536538151378355, 0.4200976785072422]
        assert rng_stream(7, 1, 2).random(3).tolist() == [0.7737776922726128, 0.6816944544714919, 0.22378780896939032]

    def test_keys_differing_by_trailing_zeros_alias(self):
        # keys are zero-padded, so (s, 0) is (s, 0, 0): histogram's sample 0 is
        # measure's pure candidate 0 for the same seed
        for short, long in (((7,), (7, 0)), ((7, 0), (7, 0, 0)), ((7, 1), (7, 1, 0))):
            assert rng_stream(*short).random(4).tolist() == rng_stream(*long).random(4).tolist()
        alone, keyed = (sample_pure_orthogonal_pair(3, rng_stream(*key)) for key in ((7, 0), (7, 0, 0)))
        for got, expected in zip(alone, keyed):
            assert got.entries.tobytes() == expected.entries.tobytes()

    @pytest.mark.parametrize(
        "args",
        [(0, 1, 2, 3, 4), (-1,), (2**64,), (0, -1), (0, 2**64), (5, 1, 2**64, 0), (7.5,), (7, 2.9)],
        ids=[
            "fourth-key-element",
            "negative-seed",
            "seed-2^64",
            "negative-key",
            "key-2^64",
            "last-key-2^64",
            "float-seed",
            "float-key",
        ],
    )
    def test_out_of_range_keys_are_domain_errors(self, args):
        with pytest.raises(DomainError):
            rng_stream(*args)

    def test_numpy_integer_keys_name_the_python_integer_stream(self):
        # verify keys its redraws with numpy integers from np.flatnonzero
        for numpy_key, key in (((np.uint64(7),), (7,)), ((7, np.int64(2), np.uint8(3)), (7, 2, 3))):
            assert rng_stream(*numpy_key).random(4).tolist() == rng_stream(*key).random(4).tolist()

    @pytest.mark.parametrize("prefix", [(), (1,)], ids=["no-prefix", "prefix-1"])
    @pytest.mark.parametrize("start", [0, 37])
    @pytest.mark.parametrize("seed", [0, 1, 7777, 2**64 - 1])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_one_generator_per_batch_matches_one_stream_each(self, dim, seed, start, prefix):
        # both samplers read only normals; a cached 32-bit half is covered by
        # test_moving_on_drops_a_cached_32_bit_half
        stop = start + 6
        for from_ginibre in (_pure_pairs_from_ginibre, _mixed_pairs_from_ginibre):
            batched = from_ginibre(normal_reads(dim, _streams(seed, prefix, start, stop)))
            alone = from_ginibre(normal_reads(dim, [rng_stream(seed, *prefix, i) for i in range(start, stop)]))
            assert batched.shape == (2, stop - start, dim, dim)
            assert np.array_equal(batched, alone)

    @pytest.mark.parametrize("prefix", [(), (1,)], ids=["no-prefix", "prefix-1"])
    @pytest.mark.parametrize("start", [0, 37])
    def test_moving_on_drops_a_cached_32_bit_half(self, start, prefix):
        # a small-range integers draw takes one 32-bit half of a 64-bit word
        # and caches the other, which moving to the next stream must drop
        stop = start + 6
        batched = [(int(rng.integers(0, 1000)), rng.random()) for rng in _streams(5, prefix, start, stop)]
        streams = [rng_stream(5, *prefix, i) for i in range(start, stop)]
        alone = [(int(rng.integers(0, 1000)), rng.random()) for rng in streams]
        assert batched == alone


def placed_minimum(dim, count, minimum, scale, rng):
    """``count`` Hermitian dim x dim matrices U diag(minimum, rest) U^dagger
    with Haar U and rest a random state's spectrum of random rank times
    ``scale``, so a zero may sit next to the placed minimum."""
    ranks = rng.integers(1, dim, count)
    rest = np.linalg.eigvalsh(_random_state_stack(ranks, rng.standard_normal((count, 2, dim - 1, dim - 1))))
    values = np.concatenate([np.full((count, 1), minimum), scale * np.clip(rest, 0.0, None)], axis=1)
    u = _haar_from_ginibre(rng.standard_normal((count, 2, dim, dim)))
    m = (u * values[:, None, :]) @ u.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2


class TestPositivityCertificate:
    """The LDL certificate that lets state checks skip eigvalsh, against eigvalsh."""

    # (N, states of each rank, matrices of each placed minimum): every rank
    # at each N, with fewer states where N is large so Tier-1 time stays flat
    SIZES = [(2, 400, 400), (3, 400, 400), (4, 400, 400), (5, 400, 400), (16, 250, 400)]
    SIZES += [(17, 6, 24), (32, 2, 12), (64, 1, 6)]

    @pytest.mark.parametrize("tol", [TOL_PSD, POSITIVITY_DRIFT], ids=["TOL_PSD", "POSITIVITY_DRIFT"])
    @pytest.mark.parametrize("dim, per_rank, placed", SIZES, ids=[str(size[0]) for size in SIZES])
    def test_clears_every_state_and_nothing_below_tol(self, dim, per_rank, placed, tol):
        rng = rng_stream(41, dim)
        ranks = np.repeat(np.arange(1, dim + 1), per_rank)
        states = _random_state_stack(ranks, rng.standard_normal((len(ranks), 2, dim, dim)))
        for scale in (1e-3, 1.0, 1e2):
            assert _certified_above(scale * states, tol).all()
            for factor in (0.25, 0.5, 1.0, 1.5, 2.0):
                m = placed_minimum(dim, placed, -factor * tol, scale, rng)
                below = np.linalg.eigvalsh(m)[:, 0] < -tol
                assert not np.any(_certified_above(m, tol) & below)
                if factor > 1.0:
                    assert below.all()

    @pytest.mark.parametrize("factor", [1.5, 2.0, 1e6])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 16, 17, 32, 64])
    def test_one_bad_matrix_raises_its_eigensolved_minimum(self, monkeypatch, dim, factor):
        rng = rng_stream(42, dim)
        stack = np.array(_random_state_stack([dim] * 40, rng.standard_normal((40, 2, dim, dim))))
        bad = placed_minimum(dim, 1, -factor * TOL_PSD, 1.0, rng)[0]
        stack[17] = bad / np.trace(bad).real
        m = (stack + stack.conj().swapaxes(-1, -2)) / 2
        expected = float(np.linalg.eigvalsh(m / m.trace(axis1=1, axis2=2).real[:, None, None])[:, 0].min())
        message = f"minimum eigenvalue {expected:.3e} below -{TOL_PSD:.1e}"
        with pytest.raises(NotPositive, match=re.escape(message)):
            _density_stack(stack)
        # as if nothing were cleared: every matrix eigensolved
        monkeypatch.setattr(statespace, "_certified_above", lambda m, tol: np.zeros(m.shape[:-2], dtype=bool))
        with pytest.raises(NotPositive, match=re.escape(message)):
            _density_stack(stack)

    @pytest.mark.parametrize("count", [1, 60], ids=["lone", "stack"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 16, 17, 32, 64])
    def test_valid_states_take_no_eigensolve_at_any_n(self, monkeypatch, dim, count):
        # one rule at every N and stack length: the certificate clears every
        # valid state, so validating sends no matrix to eigvalsh
        rng = rng_stream(43, dim, count)
        stack = _random_state_stack(rng.integers(1, dim + 1, count), rng.standard_normal((count, 2, dim, dim)))
        matrices = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            matrices.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        if count == 1:
            make_density_matrix(stack[0])
        else:
            _density_stack(stack)
        assert matrices == []

    @pytest.mark.parametrize("factor", [1.5, 1e6])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 16, 17, 32, 64])
    def test_a_lone_bad_state_raises_the_same_message_on_either_path(self, monkeypatch, dim, factor):
        bad = placed_minimum(dim, 1, -factor * TOL_PSD, 1.0, rng_stream(45, dim))[0]
        bad = bad / np.trace(bad).real
        expected = float(np.linalg.eigvalsh(hermitian(bad) / np.trace(hermitian(bad)).real)[0])
        message = f"minimum eigenvalue {expected:.3e} below -{TOL_PSD:.1e}"
        with pytest.raises(NotPositive, match=re.escape(message)):
            make_density_matrix(bad)
        # the same with nothing cleared, the state eigensolved at once
        monkeypatch.setattr(statespace, "_certified_above", lambda m, tol: np.zeros(m.shape[:-2], dtype=bool))
        with pytest.raises(NotPositive, match=re.escape(message)):
            make_density_matrix(bad)
