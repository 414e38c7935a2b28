"""Joint translation of non-orthogonal state pairs into the interior.

A non-orthogonal pair admits a traceless Hermitian shift that can be
subtracted from both states without leaving the state space, strictly
removing them from the boundary while preserving their difference. The
construction works off a pair of overlapping support eigenvectors: their
normalized sum/difference superpositions define rank-1 projectors whose
weighted combination is the shift direction.

One chain runs on a (2, n, N, N) stack of pairs: :func:`_shifts` selects
the eigenvectors and builds the shifts, and :func:`_translations` applies
them, raising on no pair. Each public function is row 0 of that chain on
the (2, 1, N, N) stack of its one pair, so ``translate`` runs exactly what
``verify`` runs, and each pair's result is bit-identical to translating it
alone. The shift is SHIFT_FRACTION of the admissible bound epsilon_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BackflowError, DomainError, OrthogonalPair, PositivityFailure
from .statespace import (
    TOL_PSD,
    DensityMatrix,
    HermitianOperator,
    _density_stack,
    _operator_stack,
    _orthogonal,
    _projectors,
    is_orthogonal,
    spectral_decomposition,
)

# Below this vector norm the difference superposition is treated as zero
# (fully aligned eigenvectors, overlap 1).
_DEGENERATE_NORM = 1e-12

# The shift's share of epsilon_max: any value in (0, 1) keeps both
# translated states strictly positive; the middle of the range is used.
SHIFT_FRACTION = 0.5


@dataclass(frozen=True, eq=False)
class OverlapSelection:
    """Pair of support eigenvectors with maximal, phase-fixed overlap.

    ``overlap`` is real in (0, 1]; ``vector2`` carries the phase that makes
    <vector1|vector2> real positive. The weights are the corresponding
    eigenvalues of the source states.
    """

    vector1: np.ndarray
    vector2: np.ndarray
    overlap: float
    weight1: float
    weight2: float


@dataclass(frozen=True, eq=False)
class ShiftConstruction:
    """Shift operator data for one translatable pair.

    ``shift`` is epsilon times the direction of :func:`build_shift_operator`,
    with epsilon = SHIFT_FRACTION * epsilon_max; ``norm_ratio`` is the
    squared ratio of the superposition normalizations, (1 - overlap) / (1 + overlap).
    """

    selection: OverlapSelection
    norm_ratio: float
    epsilon_max: float
    epsilon: float
    shift: HermitianOperator


def _translatable_pair(rho1: DensityMatrix, rho2: DensityMatrix) -> np.ndarray:
    """The (2, 1, N, N) stack of one pair, which must not be orthogonal."""
    if is_orthogonal(rho1, rho2):
        raise OrthogonalPair("supports are orthogonal; no overlapping eigenvector pair exists")
    return np.stack([rho1.entries, rho2.entries])[:, None]


def _first(selection: OverlapSelection) -> OverlapSelection:
    """Row 0 of a stacked selection, its scalars as floats."""
    return OverlapSelection(
        selection.vector1[0],
        selection.vector2[0],
        *(float(getattr(selection, name)[0]) for name in ("overlap", "weight1", "weight2")),
    )


def overlap_selection(rho1: DensityMatrix, rho2: DensityMatrix) -> OverlapSelection:
    """Select the support eigenvector pair with the largest overlap.

    Only eigenvectors whose eigenvalues exceed the positivity tolerance
    participate; the winner maximizes |<psi_i|psi_j>|, which maximizes the
    admissible shift magnitude downstream.
    """
    return _first(_overlap_selections(_translatable_pair(rho1, rho2)))


def _overlap_selections(pairs: np.ndarray) -> OverlapSelection:
    """:func:`overlap_selection` on a (2, n, N, N) stack of translatable pairs,
    from one spectral decomposition of the 2n states: (n, N) read-only
    vectors and (n,) overlaps and weights. Raises OrthogonalPair if every
    pair of support eigenvectors of a pair is orthogonal."""
    _, n, dim, _ = pairs.shape
    values, vectors = spectral_decomposition(pairs.reshape(-1, dim, dim))
    values, vectors = values.reshape(2, n, dim), vectors.reshape(2, n, dim, dim)
    # the support eigenvectors: a prefix of each descending spectrum, so the
    # first largest overlap in row-major order is the support block's
    keep = values > TOL_PSD
    overlaps = vectors[0].conj().swapaxes(-1, -2) @ vectors[1]
    magnitudes = np.where(keep[0, :, :, None] & keep[1, :, None, :], np.abs(overlaps), -1.0)
    i, j = np.divmod(magnitudes.reshape(n, -1).argmax(axis=1), dim)
    rows = np.arange(n)
    raw = overlaps[rows, i, j]
    alpha = np.abs(raw)
    if not alpha.all():
        raise OrthogonalPair("all support overlaps vanish")
    vector1 = vectors[0, rows, :, i]
    vector2 = vectors[1, rows, :, j] * (np.conj(raw) / alpha)[:, None]
    vector1.setflags(write=False)
    vector2.setflags(write=False)
    # eigenvalues of a unit-trace state cannot exceed 1; strip round-off
    weight1, weight2 = (np.minimum(values[k, rows, index], 1.0) for k, index in ((0, i), (1, j)))
    return OverlapSelection(vector1, vector2, np.minimum(alpha, 1.0), weight1, weight2)


def quadratic_bound(p: float, alpha: float, dim: int, epsilon: float, x: float) -> float:
    """Positivity margin polynomial p*x^2 + 4*c_plus^2*eps*(alpha/N - x).

    Strict positivity of this function on [0, 1] for both weights is what
    certifies that the shifted states stay positive definite. ``p``,
    ``alpha``, ``epsilon`` and ``x`` may also be arrays that broadcast
    together, each element checked and evaluated as alone.
    """
    if not np.all((0.0 < p) & (p <= 1.0)):
        raise DomainError(f"weight p must be in (0, 1], got {p}")
    if not np.all((0.0 < alpha) & (alpha <= 1.0)):
        raise DomainError(f"overlap alpha must be in (0, 1], got {alpha}")
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    if not np.all(epsilon > 0.0):
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise DomainError(f"x must be in [0, 1], got {x}")
    c_plus_sq = 1.0 / (2.0 * (1.0 + alpha))
    return p * x * x + 4.0 * c_plus_sq * epsilon * (alpha / dim - x)


def epsilon_upper_bound(alpha: float, dim: int, min_weight: float) -> float:
    """Supremum of admissible shift magnitudes: alpha*2*(1+alpha)*min_weight/N."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"overlap alpha must be in (0, 1], got {alpha}")
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    if not 0.0 < min_weight <= 1.0:
        raise DomainError(f"min_weight must be in (0, 1], got {min_weight}")
    return alpha * 2.0 * (1.0 + alpha) * min_weight / dim


def build_shift_operator(rho1: DensityMatrix, rho2: DensityMatrix) -> ShiftConstruction:
    """Construct the traceless shift for a non-orthogonal pair: row 0 of
    :func:`_shifts` on the pair's one-pair stack.

    The direction is P_plus - r*P_minus - (1 - r)/N * identity with
    r = (1 - alpha)/(1 + alpha); at alpha = 1 the minus superposition
    degenerates and its projector is replaced by zero, which the vanishing
    coefficient makes seamless. The shift is SHIFT_FRACTION (one half) of
    epsilon_max times the direction.
    """
    return _construction(*_shifts(_translatable_pair(rho1, rho2)))


def _shifts(pairs: np.ndarray) -> tuple[OverlapSelection, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`build_shift_operator` on a (2, n, N, N) stack of translatable
    pairs: the stacked selection, the (n,) ratios r, the (n,) bounds
    epsilon_max and the (n, N, N) checked, read-only shifts."""
    selection = _overlap_selections(pairs)
    dim = pairs.shape[-1]
    alpha = selection.overlap
    plus = selection.vector1 + selection.vector2
    minus = selection.vector1 - selection.vector2
    degenerate = (np.linalg.norm(minus, axis=-1) < _DEGENERATE_NORM)[:, None]
    # a degenerate row's projector is replaced by zero, so the plus vector
    # stands in for its zero-norm difference
    proj_minus = np.where(degenerate[:, None], 0.0, _projectors(np.where(degenerate, plus, minus)))
    ratio = (1.0 - alpha) / (1.0 + alpha)
    factor = ratio[:, None, None]
    directions = _projectors(plus) - factor * proj_minus - (1.0 - factor) * np.eye(dim) / dim
    min_weights = np.minimum(selection.weight1, selection.weight2)
    eps_max = np.array([epsilon_upper_bound(a, dim, w) for a, w in zip(alpha.tolist(), min_weights.tolist())])
    shifts = _operator_stack(SHIFT_FRACTION * eps_max[:, None, None] * directions)
    return selection, ratio, eps_max, shifts


def _construction(
    selection: OverlapSelection, ratio: np.ndarray, eps_max: np.ndarray, shifts: np.ndarray
) -> ShiftConstruction:
    """Row 0 of :func:`_shifts` as the one pair's construction."""
    return ShiftConstruction(
        selection=_first(selection),
        norm_ratio=float(ratio[0]),
        epsilon_max=float(eps_max[0]),
        epsilon=SHIFT_FRACTION * float(eps_max[0]),
        shift=HermitianOperator(shifts[0]),
    )


def jointly_translate(
    rho1: DensityMatrix, rho2: DensityMatrix
) -> tuple[DensityMatrix, DensityMatrix, ShiftConstruction]:
    """Shift both states into the interior, preserving their difference:
    row 0 of :func:`_translations` on the pair's one-pair stack.

    Returns (rho1 - A, rho2 - A, construction); both outputs are validated
    states with strictly positive spectrum. A failure of that validation
    signals a numerical-tolerance problem, since the construction
    guarantees positivity for any epsilon inside the admissible interval.
    """
    *shift_data, translated, interior = _translations(_translatable_pair(rho1, rho2))
    for k in (0, 1):
        if not interior[k, 0]:
            raise PositivityFailure(
                f"translated state {k + 1} is not a state with every eigenvalue above {TOL_PSD:.1e}"
            )
    return DensityMatrix(translated[0, 0]), DensityMatrix(translated[1, 0]), _construction(*shift_data)


def _translated(pairs: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (2, n, N, N) stack of pairs less their (n, N, N) shifts, and the (2, n)
    mask of the strictly interior ones: those that validate as states with
    every eigenvalue above TOL_PSD, as :func:`jointly_translate` requires.
    These are returned validated and the others as they are, read-only;
    no matrix raises."""
    moved = pairs - shifts
    flat = moved.reshape(-1, *moved.shape[2:])
    try:
        states, valid = _density_stack(flat), np.ones(len(flat), dtype=bool)
    except BackflowError:  # a matrix is not a state: validate each alone
        states, valid = flat.copy(), np.zeros(len(flat), dtype=bool)
        for k, matrix in enumerate(flat):
            try:
                states[k], valid[k] = _density_stack(matrix[None])[0], True
            except BackflowError:
                pass
    interior = valid & (np.linalg.eigvalsh(states)[:, 0] > TOL_PSD)
    translated = np.where(interior[:, None, None], states, flat).reshape(moved.shape)
    translated.setflags(write=False)
    return translated, interior.reshape(2, -1)


def _translations(
    pairs: np.ndarray,
) -> tuple[OverlapSelection, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`jointly_translate` on a (2, n, N, N) stack of translatable pairs,
    without raising on a pair: the four results of :func:`_shifts`, then the
    translated pairs and interior mask of :func:`_translated`."""
    selection, ratio, eps_max, shifts = _shifts(pairs)
    return selection, ratio, eps_max, shifts, *_translated(pairs, shifts)


def is_jointly_translatable(rho1: DensityMatrix, rho2: DensityMatrix) -> bool:
    """Translatable if and only if the pair is not orthogonal."""
    return not is_orthogonal(rho1, rho2)


def _translatable(pairs: np.ndarray) -> np.ndarray:
    """:func:`is_jointly_translatable` on a (2, n, N, N) stack of pairs: not
    orthogonal by the rule of ``is_orthogonal``."""
    return ~_orthogonal(pairs[0] - pairs[1])
