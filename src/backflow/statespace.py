"""Density-matrix state space: validation, trace distance, spectral splits, sampling.

States and operators are immutable wrappers around N x N complex arrays.
All operations are pure functions; sampling takes an explicit numpy
``Generator`` so every draw is reproducible stream by stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadDimension,
    BadTrace,
    DimensionMismatch,
    IdenticalStates,
    NotHermitian,
    NotPositive,
)

# Absolute tolerances sized for double-precision eigensolvers at N <= 8.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
# Orthogonality is tested through trace distance: D >= 1 - TOL_ORTH.
TOL_ORTH = 1e-8


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Named random stream: PCG64 seeded from (seed, *key).

    Streams with distinct keys are statistically independent, and the same
    (seed, key) always reproduces the same draws regardless of how many
    other streams exist — the basis of the batch-size-independent
    sampling contract.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, key)])))


def _fix_phases(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Make the first above-tolerance component of each column real positive."""
    fixed = vectors.copy()
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        idx = np.flatnonzero(np.abs(col) > tol)
        if idx.size:
            pivot = col[idx[0]]
            col *= np.conj(pivot) / np.abs(pivot)
    return fixed


def spectral_decomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and phase-fixed eigenvector columns of a Hermitian matrix."""
    values, vectors = np.linalg.eigh(matrix)
    order = np.argsort(-values, kind="stable")
    return values[order], _fix_phases(vectors[:, order])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit-trace, positive semidefinite.

    Construct through :func:`make_density_matrix`; the raw constructor
    performs no checks. Spectral data is computed once on first access.
    """

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return spectral_decomposition(self.entries)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        return self._spectrum[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Eigenvector columns matching :attr:`eigenvalues`, phases fixed."""
        return self._spectrum[1]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    def purity(self) -> float:
        """Tr rho^2, equals 1 exactly for pure states."""
        return float(np.real(np.trace(self.entries @ self.entries)))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian observable-like operator, optionally constrained traceless."""

    entries: np.ndarray
    traceless: bool = False

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_matrix(
        cls,
        entries: np.ndarray,
        traceless: bool = False,
        *,
        tol_herm: float = TOL_HERM,
        tol_trace: float = TOL_TRACE,
    ) -> "HermitianOperator":
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BadDimension(f"expected a square matrix, got shape {m.shape}")
        dev = float(np.abs(m - m.conj().T).max())
        if dev > tol_herm:
            raise NotHermitian(f"hermiticity deviation {dev:.3e} exceeds {tol_herm:.1e}")
        m = (m + m.conj().T) / 2
        if traceless:
            tr = abs(complex(np.trace(m)))
            if tr > tol_trace:
                raise BadTrace(f"|trace| = {tr:.3e} exceeds {tol_trace:.1e} for traceless operator")
        m.setflags(write=False)
        return cls(m, traceless)

    def operator_norm(self) -> float:
        return float(np.abs(np.linalg.eigvalsh(self.entries)).max())


@dataclass(frozen=True, eq=False)
class JordanHahnParts:
    """Orthogonal positive split of a state difference: rho1 - rho2 = P1 - P2."""

    positive_part: HermitianOperator
    negative_part: HermitianOperator
    weight: float  # common trace of both parts, equals the trace distance


def make_density_matrix(
    entries: np.ndarray,
    *,
    tol_herm: float = TOL_HERM,
    tol_trace: float = TOL_TRACE,
    tol_psd: float = TOL_PSD,
) -> DensityMatrix:
    """Validate and normalize a candidate density matrix.

    The Hermitian part is kept, and the trace is renormalized exactly to 1
    provided it was within ``tol_trace`` to begin with.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise BadDimension(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.abs(m - m.conj().T).max())
    if dev > tol_herm:
        raise NotHermitian(f"hermiticity deviation {dev:.3e} exceeds {tol_herm:.1e}")
    m = (m + m.conj().T) / 2
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > tol_trace:
        raise BadTrace(f"trace deviates from 1 by {abs(tr - 1.0):.3e}, beyond {tol_trace:.1e}")
    m = m / tr
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -tol_psd:
        raise NotPositive(f"minimum eigenvalue {min_eig:.3e} below -{tol_psd:.1e}")
    m.setflags(write=False)
    return DensityMatrix(m)


def pure_state(vector: np.ndarray) -> DensityMatrix:
    """Rank-1 projector onto the given (normalized) vector."""
    v = np.asarray(vector, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if v.size < 1 or norm == 0.0:
        raise BadDimension("pure state requires a nonzero vector")
    v = v / norm
    return make_density_matrix(np.outer(v, v.conj()))


def maximally_mixed(dim: int) -> DensityMatrix:
    if dim < 1:
        raise BadDimension(f"dimension must be positive, got {dim}")
    return make_density_matrix(np.eye(dim, dtype=complex) / dim)


def _check_same_dim(rho1: DensityMatrix, rho2: DensityMatrix) -> None:
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dimensions differ: {rho1.dim} vs {rho2.dim}")


def _canonical_sign(delta: np.ndarray) -> np.ndarray:
    """Fix the overall sign of a Hermitian difference.

    Swapping the two states negates the difference exactly in floating
    point, so canonicalizing the sign before the eigensolve makes the
    trace distance bitwise symmetric.
    """
    flat = delta.ravel()
    for part in (flat.real, flat.imag):
        idx = np.flatnonzero(part)
        if idx.size:
            return -delta if part[idx[0]] < 0 else delta
    return delta


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the absolute-eigenvalue sum of rho1 - rho2, clipped to [0, 1].

    The difference is Hermitian by construction, so eigenvalues are used
    instead of singular values.
    """
    _check_same_dim(rho1, rho2)
    delta = _canonical_sign(rho1.entries - rho2.entries)
    return float(_clipped_distances(delta))


def _clipped_distances(deltas: np.ndarray) -> np.ndarray:
    """Half the absolute-eigenvalue sums of Hermitian differences (..., N, N), clipped to [0, 1]."""
    return np.clip(0.5 * np.abs(np.linalg.eigvalsh(deltas)).sum(axis=-1), 0.0, 1.0)


def jordan_hahn(rho1: DensityMatrix, rho2: DensityMatrix) -> JordanHahnParts:
    """Split rho1 - rho2 into orthogonal positive parts P1 - P2.

    P1 collects the positive-eigenvalue spectral projectors of the
    difference, P2 the negated negative ones; both have trace equal to
    the trace distance.
    """
    _check_same_dim(rho1, rho2)
    delta = rho1.entries - rho2.entries
    values, vectors = spectral_decomposition(delta)
    if float(np.abs(values).max()) <= TOL_PSD:
        raise IdenticalStates("states coincide within tolerance; no Jordan-Hahn split")
    pos = np.clip(values, 0.0, None)
    neg = np.clip(-values, 0.0, None)
    p1 = (vectors * pos) @ vectors.conj().T
    p2 = (vectors * neg) @ vectors.conj().T
    return JordanHahnParts(
        HermitianOperator.from_matrix(p1),
        HermitianOperator.from_matrix(p2),
        float(pos.sum()),
    )


def is_orthogonal(rho1: DensityMatrix, rho2: DensityMatrix, tol: float = TOL_ORTH) -> bool:
    """True iff the supports are orthogonal, tested as trace distance >= 1 - tol."""
    _check_same_dim(rho1, rho2)
    return trace_distance(rho1, rho2) >= 1.0 - tol


def is_boundary(rho: DensityMatrix, tol: float = TOL_PSD) -> bool:
    """True iff the state has a zero eigenvalue (finite-dimensional boundary)."""
    return rho.min_eigenvalue <= tol


def rescale_pair(
    rho1: DensityMatrix, rho2: DensityMatrix
) -> tuple[DensityMatrix, DensityMatrix, float]:
    """Rescale the Jordan-Hahn parts into an orthogonal state pair.

    Returns (sigma1, sigma2, lam) with sigma_i = P_i / lam, so that
    sigma1 - sigma2 = (rho1 - rho2) / lam and the new pair has unit trace
    distance. Orthogonal inputs are already in this form and are returned
    unchanged with lam = 1.
    """
    if is_orthogonal(rho1, rho2):
        return rho1, rho2, 1.0
    parts = jordan_hahn(rho1, rho2)
    lam = parts.weight
    sigma1 = make_density_matrix(parts.positive_part.entries / lam)
    sigma2 = make_density_matrix(parts.negative_part.entries / lam)
    return sigma1, sigma2, lam


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R diagonal phases are absorbed into Q, which makes the
    distribution exactly Haar and the output deterministic per stream.
    """
    if dim < 1:
        raise BadDimension(f"dimension must be positive, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_pure_orthogonal_pair(
    dim: int, rng: np.random.Generator
) -> tuple[DensityMatrix, DensityMatrix]:
    """Projectors onto the first two columns of a Haar random unitary."""
    if dim < 2:
        raise BadDimension(f"orthogonal pair needs dimension >= 2, got {dim}")
    u = haar_unitary(dim, rng)
    return pure_state(u[:, 0]), pure_state(u[:, 1])


def sample_random_state(dim: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Random rank-r state: Haar-orthonormal support with flat Dirichlet weights."""
    if dim < 1 or not 1 <= rank <= dim:
        raise BadDimension(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    cols = haar_unitary(dim, rng)[:, :rank]
    weights = rng.dirichlet(np.ones(rank))
    return make_density_matrix((cols * weights) @ cols.conj().T)


def sample_orthogonal_mixed_pair(
    dim: int, rng: np.random.Generator
) -> tuple[DensityMatrix, DensityMatrix]:
    """Random orthogonal pair supported on complementary Haar subspaces.

    The splitting index is drawn uniformly from 1..dim-1, and each side
    gets flat Dirichlet weights on its subspace, so for dim >= 3 at least
    one side is generically a proper mixture.
    """
    if dim < 2:
        raise BadDimension(f"orthogonal pair needs dimension >= 2, got {dim}")
    u = haar_unitary(dim, rng)
    k = int(rng.integers(1, dim))

    def _side(cols: np.ndarray) -> DensityMatrix:
        weights = rng.dirichlet(np.ones(cols.shape[1]))
        return make_density_matrix((cols * weights) @ cols.conj().T)

    return _side(u[:, :k]), _side(u[:, k:])
