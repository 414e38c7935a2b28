"""Density-matrix state space: validation, trace distance, spectral splits, sampling.

States and operators are immutable wrappers around N x N complex arrays.
All operations are pure functions; sampling takes an explicit numpy
``Generator`` so every draw is reproducible stream by stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadDimension,
    BadTrace,
    DimensionMismatch,
    DomainError,
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


# Philox-4x64 counter words 1-3 hold a stream's key; see rng_stream.
_STREAM_KEY_WORDS = 3


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Named random stream: ``Philox(key=[seed, 0], counter=[0, *key, 0...])``.

    Counter word 0 is the position in the stream and words 1-3 hold up to
    three key elements, so each stream owns 2^64 blocks of four 64-bit
    draws. The key is padded with zeros to three elements, so keys that
    differ only by trailing zeros name one stream: ``(seed,)`` is
    ``(seed, 0)`` and ``(seed, 0, 0)``, and ``(seed, 1)`` is ``(seed, 1, 0)``.
    Philox is a counter-based bijection, so streams whose padded (seed, key)
    differ are independent, and the same (seed, key) always reproduces the
    same draws regardless of how many other streams exist — the basis of
    the batch-size-independent sampling contract. Seed and key elements
    are integers in [0, 2^64).
    """
    words = [int(seed), *map(int, key)]
    if len(key) > _STREAM_KEY_WORDS:
        raise DomainError(f"a stream takes at most {_STREAM_KEY_WORDS} key elements, got {len(key)}")
    if not all(0 <= word < 2**64 for word in words):
        raise DomainError(f"stream seed and key must be integers in [0, 2^64), got {tuple(words)}")
    counter = np.array([0, *words[1:]] + [0] * (_STREAM_KEY_WORDS - len(key)), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.array([words[0], 0], dtype=np.uint64), counter=counter))


def _streams(seed: int, prefix: tuple[int, ...], start: int, stop: int) -> Iterator[np.random.Generator]:
    """The streams ``rng_stream(seed, *prefix, i)`` for i in start..stop-1, as
    one generator moved from stream to stream by rewriting its counter, so a
    batch opens one generator. Each stream must be read to its end before
    the next one is taken."""
    rng = rng_stream(seed, *prefix, start)
    words = rng.bit_generator.state["state"]
    counter = words["counter"].tolist()
    # a fresh stream's state: an empty block buffer and no cached 32-bit half
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": words["key"].tolist()},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in range(start, stop):
        if i > start:
            counter[len(prefix) + 1] = i
            rng.bit_generator.state = fresh
        yield rng


def _check_finite(array: np.ndarray, what: str) -> None:
    """Raise DomainError naming the non-finite entries of ``array``; the
    later checks compare with < or >, which a NaN passes."""
    finite = np.isfinite(array)
    if not finite.all():
        bad = np.argwhere(~finite)
        shown = ", ".join(str(tuple(index)) for index in bad[:4].tolist())
        raise DomainError(f"{len(bad)} non-finite {what}, at {shown}{', ...' if len(bad) > 4 else ''}")


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


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian observable-like operator; :meth:`from_matrix` can also check it is traceless."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_matrix(cls, entries: np.ndarray, traceless: bool = False) -> "HermitianOperator":
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise BadDimension(f"expected a square matrix, got shape {m.shape}")
        m = _hermitian_parts(m, "operator entries (row, column)")
        if traceless:
            tr = abs(complex(np.trace(m)))
            if tr > TOL_TRACE:
                raise BadTrace(f"|trace| = {tr:.3e} exceeds {TOL_TRACE:.1e} for traceless operator")
        m.setflags(write=False)
        return cls(m)


@dataclass(frozen=True, eq=False)
class JordanHahnParts:
    """Orthogonal positive split of a state difference: rho1 - rho2 = P1 - P2."""

    positive_part: HermitianOperator
    negative_part: HermitianOperator
    weight: float  # common trace of both parts, equals the trace distance


def make_density_matrix(entries: np.ndarray) -> DensityMatrix:
    """Validate and normalize a candidate density matrix.

    The Hermitian part is kept, and the trace is renormalized exactly to 1
    provided it was within ``TOL_TRACE`` to begin with.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise BadDimension(f"expected a square matrix, got shape {m.shape}")
    return DensityMatrix(_density_stack(m[None])[0])


def _hermitian_parts(stack: np.ndarray, what: str) -> np.ndarray:
    """The Hermitian parts (M + M^dagger) / 2 of a (..., N, N) stack, once its
    ``what`` are finite and each M is within TOL_HERM of Hermitian."""
    _check_finite(stack, what)
    adjoint = stack.conj().swapaxes(-1, -2)
    dev = float(np.abs(stack - adjoint).max())
    if dev > TOL_HERM:
        raise NotHermitian(f"hermiticity deviation {dev:.3e} exceeds {TOL_HERM:.1e}")
    return (stack + adjoint) / 2


def _density_stack(stack: np.ndarray) -> np.ndarray:
    """:func:`make_density_matrix` on an (n, N, N) stack, one eigensolve for all;
    each read-only result is bit-identical to validating its matrix alone."""
    m = _hermitian_parts(stack, "state entries (matrix, row, column)")
    tr = m.trace(axis1=1, axis2=2).real
    # the worst cases are found on python floats, which for the one-matrix
    # stacks of make_density_matrix costs less than a numpy reduction
    off = max(abs(t - 1.0) for t in tr.tolist())
    if off > TOL_TRACE:
        raise BadTrace(f"trace deviates from 1 by {off:.3e}, beyond {TOL_TRACE:.1e}")
    m = m / tr[:, None, None]
    min_eig = min(np.linalg.eigvalsh(m)[:, 0].tolist())
    if min_eig < -TOL_PSD:
        raise NotPositive(f"minimum eigenvalue {min_eig:.3e} below -{TOL_PSD:.1e}")
    m.setflags(write=False)
    return m


def pure_state(vector: np.ndarray) -> DensityMatrix:
    """Rank-1 projector onto the given (normalized) vector."""
    v = np.asarray(vector, dtype=complex).ravel()
    return DensityMatrix(_density_stack(_projectors(v[None]))[0])


def _projectors(vectors: np.ndarray) -> np.ndarray:
    """Unvalidated projectors onto the normalized rows of an (n, N) stack; each
    squared norm is two real dot products, as in ``np.linalg.norm``."""
    _check_finite(vectors, "state vector entries (vector, component)")
    re, im = vectors.real, vectors.imag
    norms = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
    if np.any(norms == 0.0):
        raise BadDimension("pure state requires a nonzero vector")
    v = vectors / norms[:, None]
    return v[:, :, None] * v.conj()[:, None, :]


def _check_same_dim(rho1: DensityMatrix, rho2: DensityMatrix) -> None:
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dimensions differ: {rho1.dim} vs {rho2.dim}")


def _canonical_sign(deltas: np.ndarray) -> np.ndarray:
    """Fix the overall sign of each Hermitian difference in an (..., N, N) stack.

    The first nonzero real entry in row-major order, or the first nonzero
    imaginary one if the real part is all zero, is made positive; an
    all-zero difference is kept. Swapping the two states negates the
    difference exactly in floating point, so canonicalizing the sign
    before the distance kernel makes the trace distance bitwise symmetric.
    """
    flat = deltas.reshape(-1, deltas.shape[-2] * deltas.shape[-1])
    parts = np.concatenate([flat.real, flat.imag], axis=1)
    first = parts[np.arange(len(parts)), (parts != 0).argmax(axis=1)]
    return np.where((first < 0).reshape(deltas.shape[:-2] + (1, 1)), -deltas, deltas)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the trace norm of rho1 - rho2, clipped to [0, 1]: the sign-canonical
    difference through :func:`_clipped_distances`, the package's one
    trace-distance kernel."""
    _check_same_dim(rho1, rho2)
    return float(_trace_distances(rho1.entries - rho2.entries))


def _trace_distances(deltas: np.ndarray) -> np.ndarray:
    """:func:`trace_distance` on an (..., N, N) stack of state differences,
    each value bit-identical to its pair's."""
    return _clipped_distances(_canonical_sign(deltas))


def _clipped_distances(deltas: np.ndarray) -> np.ndarray:
    """Half the trace norms of Hermitian (..., N, N) differences of equal-trace
    matrices, clipped to [0, 1].

    The package's one trace-distance kernel, dispatched on N: the closed
    forms of :func:`_half_trace_norms_2` and :func:`_half_trace_norms_3`,
    else half the absolute-eigenvalue sum from ``eigvalsh``. Each value
    depends on its own matrix alone, so a stacked call is bitwise equal to
    one-matrix calls. The closed forms keep full accuracy on (nearly)
    traceless input.
    """
    if deltas.ndim == 2:
        # ufuncs return scalars for 0-d operands, and numpy's scalar complex
        # product rounds unlike its array loop, so one matrix is a stack of one
        return _clipped_distances(deltas[None])[0]
    n = deltas.shape[-1]
    if n == 2:
        half = _half_trace_norms_2(deltas)
    elif n == 3:
        half = _half_trace_norms_3(deltas)
    else:
        half = 0.5 * np.abs(np.linalg.eigvalsh(deltas)).sum(axis=-1)
    return np.clip(half, 0.0, 1.0)


def _half_trace_norms_2(m: np.ndarray) -> np.ndarray:
    """Half the trace norms of Hermitian (..., 2, 2) matrices [[a, b], [b*, d]].

    The eigenvalues are q +- h with q = (a + d)/2 and h = hypot((a - d)/2, |b|),
    so half the absolute-eigenvalue sum is max(|q|, h).
    """
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    return np.maximum(np.abs((a + d) * 0.5), np.hypot((a - d) * 0.5, np.abs(m[..., 0, 1])))


def _half_trace_norms_3(m: np.ndarray) -> np.ndarray:
    """Half the trace norms of Hermitian (..., 3, 3) matrices M, without an eigensolve.

    With q = tr M / 3 and B = M - q, p = sqrt(tr B^2 / 6) and r = det B / (2 p^3)
    clipped to [-1, 1], the eigenvalues are q + 2p cos(arccos(r)/3 + 2 pi k/3)
    for k = 0, 1, 2. Where two of them nearly meet, arccos costs sqrt(eps)
    relative accuracy in each of the two, but not in their sum or in the
    third. For a traceless M the two share a sign, so half the absolute sum
    is the third's |lambda|, the largest, and keeps full accuracy.
    """
    re = m.real
    u, v, w = m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]
    q = (re[..., 0, 0] + re[..., 1, 1] + re[..., 2, 2]) / 3.0
    a, b, c = re[..., 0, 0] - q, re[..., 1, 1] - q, re[..., 2, 2] - q
    uu, vv, ww = np.abs(u) ** 2, np.abs(v) ** 2, np.abs(w) ** 2
    # For the diagonal (a, b, c) of B:
    #   det B = abc + 2 Re(u w v*) - a|w|^2 - b|v|^2 - c|u|^2
    #   tr B^2 = a^2 + b^2 + c^2 + 2 (|u|^2 + |v|^2 + |w|^2)
    det = 2.0 * (u * w * v.conj()).real - ww * a - vv * b - uu * c + a * b * c
    square = ww + ww + a * a + vv + vv + b * b + uu + uu + c * c
    # 2p = sqrt(4 tr B^2 / 6) and r = 4 det B / (2p)^3
    two_p = np.sqrt(square * (4.0 / 6.0))
    cube = np.maximum(two_p * two_p * two_p, np.finfo(float).tiny)  # tr B^2 = 0 only where det B = 0
    angle = np.arccos(np.clip(det * 4.0 / cube, -1.0, 1.0)) / 3.0
    # half the sum of |q + 2p cos(angle + 2 pi k/3)| over the three eigenvalues
    terms = (np.abs(two_p * np.cos(angle + 2.0 * np.pi * k / 3.0) + q) for k in range(3))
    return sum(terms) * 0.5


def jordan_hahn(rho1: DensityMatrix, rho2: DensityMatrix) -> JordanHahnParts:
    """Split rho1 - rho2 into orthogonal positive parts P1 - P2.

    P1 collects the positive-eigenvalue spectral projectors of the
    difference, P2 the negated negative ones; both have trace equal to
    the trace distance.
    """
    _check_same_dim(rho1, rho2)
    parts, weights = _jordan_hahn_stack((rho1.entries - rho2.entries)[None])
    p1, p2 = (HermitianOperator(part[0]) for part in parts)
    return JordanHahnParts(p1, p2, float(weights[0]))


def _jordan_hahn_stack(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`jordan_hahn` on an (n, N, N) stack of state differences: the
    read-only (2, n, N, N) stack of the parts P1 and P2, checked and made
    Hermitian as :meth:`HermitianOperator.from_matrix` keeps them, and the
    (n,) weights. Each pair's split is bit-identical to splitting it alone."""
    parts, weights = _signed_parts(deltas)
    # the largest clipped weight is the largest |eigenvalue| of the difference
    if float(weights.max(axis=(0, 2)).min()) <= TOL_PSD:
        raise IdenticalStates("states coincide within tolerance; no Jordan-Hahn split")
    parts = _hermitian_parts(parts.astype(complex, copy=False), "operator entries (part, matrix, row, column)")
    parts.setflags(write=False)
    return parts, weights[0].sum(axis=-1)


def _signed_parts(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Jordan-Hahn split of an (n, N, N) stack of Hermitian matrices, in
    one stacked ``eigh``.

    Returns the (2, n, N, N) stack of the positive parts and the negated
    negative parts, and the (2, n, N) eigenvalue weights they are built
    from: the eigenvalues clipped at zero, and the negated eigenvalues
    clipped at zero, so each part's trace is its weights' sum. Each split
    is bit-identical to splitting its matrix alone.
    """
    values, vectors = np.linalg.eigh(h)
    weights = np.stack([np.clip(values, 0.0, None), np.clip(-values, 0.0, None)])
    return (vectors * weights[:, :, None, :]) @ vectors.conj().swapaxes(-1, -2), weights


def is_orthogonal(rho1: DensityMatrix, rho2: DensityMatrix) -> bool:
    """True iff the supports are orthogonal, tested as trace distance >= 1 - TOL_ORTH."""
    _check_same_dim(rho1, rho2)
    return trace_distance(rho1, rho2) >= 1.0 - TOL_ORTH


def is_boundary(rho: DensityMatrix) -> bool:
    """True iff the state has a zero eigenvalue (within TOL_PSD; finite-dimensional boundary)."""
    return rho.min_eigenvalue <= TOL_PSD


def rescale_pair(
    rho1: DensityMatrix, rho2: DensityMatrix
) -> tuple[DensityMatrix, DensityMatrix, float]:
    """Rescale the Jordan-Hahn parts into an orthogonal state pair.

    Returns (sigma1, sigma2, lam) with sigma_i = P_i / lam, so that
    sigma1 - sigma2 = (rho1 - rho2) / lam and the new pair has unit trace
    distance. Orthogonal inputs, whose split weight (their trace distance)
    is at least 1 - TOL_ORTH as in :func:`is_orthogonal`, are already in this
    form and are returned unchanged with lam = 1.
    """
    parts = jordan_hahn(rho1, rho2)
    split = np.stack([parts.positive_part.entries, parts.negative_part.entries])[:, None]
    pair = np.stack([rho1.entries, rho2.entries])[:, None]
    (sigma1, sigma2), (lam,) = _rescaled_pairs(pair, split, np.array([parts.weight]))
    if lam == 1.0:  # a kept pair: any other weight is below 1 - TOL_ORTH
        return rho1, rho2, 1.0
    return DensityMatrix(sigma1[0]), DensityMatrix(sigma2[0]), float(lam)


def _rescaled_pairs(pairs: np.ndarray, parts: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rescale_pair` on a (2, n, N, N) stack of state pairs, given their
    split by :func:`_jordan_hahn_stack`: the (2, n, N, N) rescaled pairs,
    validated as one stack, and the (n,) factors lam. A pair whose weight
    reaches 1 - TOL_ORTH is kept as it is, with lam = 1. Each rescaled pair
    is bit-identical to rescaling it alone."""
    kept = weights >= 1.0 - TOL_ORTH
    lams = np.where(kept, 1.0, weights)
    rescaled = pairs.copy()
    if not kept.all():
        scaled = parts[:, ~kept] / lams[~kept, None, None]
        rescaled[:, ~kept] = _density_stack(scaled.reshape(-1, *scaled.shape[2:])).reshape(scaled.shape)
    rescaled.setflags(write=False)
    return rescaled, lams


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R diagonal phases are absorbed into Q, which makes the
    distribution exactly Haar and the output deterministic per stream.
    """
    if dim < 1:
        raise BadDimension(f"dimension must be positive, got {dim}")
    return _haar_stack(dim, [rng])[0]


def _haar_stack(dim: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """:func:`haar_unitary` for one stream each, in one stacked QR."""
    return _haar_from_ginibre(np.array([rng.standard_normal((2, dim, dim)) for rng in rngs]))


def _haar_from_ginibre(ginibre: np.ndarray) -> np.ndarray:
    """Haar unitaries from an (n, 2, N, N) stack of real and imaginary Ginibre parts, in one stacked QR."""
    q, r = np.linalg.qr((ginibre[:, 0] + 1j * ginibre[:, 1]) / np.sqrt(2.0))
    d = r.diagonal(axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def sample_pure_orthogonal_pair(
    dim: int, rng: np.random.Generator
) -> tuple[DensityMatrix, DensityMatrix]:
    """Projectors onto the first two columns of a Haar random unitary."""
    if dim < 2:
        raise BadDimension(f"orthogonal pair needs dimension >= 2, got {dim}")
    return tuple(DensityMatrix(states[0]) for states in _pure_pair_stacks(dim, [rng]))


def _pure_pair_stacks(dim: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """:func:`sample_pure_orthogonal_pair` for one stream each, as a (2, n, N, N) stack."""
    u = _haar_stack(dim, rngs)
    return _density_stack(_projectors(np.concatenate([u[:, :, 0], u[:, :, 1]]))).reshape(2, len(u), dim, dim)


def sample_random_state(dim: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Random rank-r state from the induced measure: G G^dagger / tr(G G^dagger)
    for the first r columns of an N x N complex Ginibre matrix G
    (Zyczkowski & Sommers, J. Phys. A 34, 7111, 2001).

    The stream is read once, for the (2, N, N) real and imaginary parts of G,
    whatever the rank; columns r..N-1 are zeroed. A rank-r state has mean
    purity (N + r) / (N r + 1).
    """
    if dim < 1 or not 1 <= rank <= dim:
        raise BadDimension(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
    return DensityMatrix(_random_state_stack([rank], rng.standard_normal((2, dim, dim))[None])[0])


def _random_state_stack(ranks: np.ndarray | list[int], ginibre: np.ndarray) -> np.ndarray:
    """:func:`sample_random_state` for each rank and its (2, N, N) Ginibre parts
    in an (n, 2, N, N) stack, with one stacked product and one validation;
    each state is bit-identical to building it alone."""
    dim = ginibre.shape[-1]
    kept = np.arange(dim) < np.asarray(ranks)[:, None, None]
    g = (ginibre[:, 0] + 1j * ginibre[:, 1]) * kept
    m = g @ g.conj().swapaxes(-1, -2)
    return _density_stack(m / m.trace(axis1=1, axis2=2).real[:, None, None])


def sample_orthogonal_mixed_pair(
    dim: int, rng: np.random.Generator
) -> tuple[DensityMatrix, DensityMatrix]:
    """Random orthogonal pair: the rescaled Jordan-Hahn split of a traceless GUE matrix.

    The positive and the negated negative part of H - (tr H / N) 1, with
    H = G + G^dagger for a complex Ginibre G, each divided by its trace. The
    two states are orthogonal and on the boundary, of ranks (r, N - r) for a
    random 1 <= r <= N - 1, so for dim >= 3 one side is a proper mixture.
    """
    if dim < 2:
        raise BadDimension(f"orthogonal pair needs dimension >= 2, got {dim}")
    return tuple(DensityMatrix(states[0]) for states in _mixed_pair_stacks(dim, [rng]))


def _mixed_pair_stacks(dim: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """:func:`sample_orthogonal_mixed_pair` for one stream each, as a (2, n, N, N) stack.

    Each stream is read once, for the (2, N, N) real and imaginary parts of
    its Ginibre matrix.
    """
    return _mixed_pairs_from_ginibre(np.array([rng.standard_normal((2, dim, dim)) for rng in rngs]))


def _mixed_pairs_from_ginibre(ginibre: np.ndarray) -> np.ndarray:
    """Orthogonal mixed pairs from an (n, 2, N, N) stack of real and imaginary
    Ginibre parts, as a (2, n, N, N) stack: one stacked split and one
    validation build every pair."""
    dim = ginibre.shape[-1]
    g = ginibre[:, 0] + 1j * ginibre[:, 1]
    h = g + g.conj().swapaxes(-1, -2)
    h -= (h.trace(axis1=1, axis2=2) / dim)[:, None, None] * np.eye(dim)
    parts, weights = _signed_parts(h)
    parts /= weights.sum(axis=-1)[:, :, None, None]
    return _density_stack(parts.reshape(-1, dim, dim)).reshape(2, len(h), dim, dim)
