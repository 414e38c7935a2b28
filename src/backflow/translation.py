"""Joint translation of non-orthogonal state pairs into the interior.

A non-orthogonal pair admits a traceless Hermitian shift that can be
subtracted from both states without leaving the state space, strictly
removing them from the boundary while preserving their difference. The
construction works off a pair of overlapping support eigenvectors: their
normalized sum/difference superpositions define rank-1 projectors whose
weighted combination is the shift direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BackflowError, DomainError, OrthogonalPair, PositivityFailure
from .statespace import (
    TOL_PSD,
    DensityMatrix,
    HermitianOperator,
    _check_same_dim,
    is_orthogonal,
    make_density_matrix,
)

# Below this vector norm the difference superposition is treated as zero
# (fully aligned eigenvectors, overlap 1).
_DEGENERATE_NORM = 1e-12


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
    with epsilon strictly inside (0, epsilon_max); ``norm_ratio`` is the
    squared ratio of the superposition normalizations, (1 - overlap) / (1 + overlap).
    """

    selection: OverlapSelection
    norm_ratio: float
    epsilon_max: float
    epsilon: float
    shift: HermitianOperator


def overlap_selection(rho1: DensityMatrix, rho2: DensityMatrix) -> OverlapSelection:
    """Select the support eigenvector pair with the largest overlap.

    Only eigenvectors whose eigenvalues exceed the positivity tolerance
    participate; the winner maximizes |<psi_i|psi_j>|, which maximizes the
    admissible shift magnitude downstream.
    """
    _check_same_dim(rho1, rho2)
    if is_orthogonal(rho1, rho2):
        raise OrthogonalPair("supports are orthogonal; no overlapping eigenvector pair exists")
    keep1 = rho1.eigenvalues > TOL_PSD
    keep2 = rho2.eigenvalues > TOL_PSD
    v1 = rho1.eigenvectors[:, keep1]
    v2 = rho2.eigenvectors[:, keep2]
    overlaps = v1.conj().T @ v2
    i, j = np.unravel_index(np.argmax(np.abs(overlaps)), overlaps.shape)
    raw = overlaps[i, j]
    alpha = min(float(np.abs(raw)), 1.0)
    if alpha == 0.0:
        raise OrthogonalPair("all support overlaps vanish")
    vec1 = v1[:, i].copy()
    vec2 = v2[:, j] * (np.conj(raw) / np.abs(raw))
    vec1.setflags(write=False)
    vec2.setflags(write=False)
    return OverlapSelection(
        vector1=vec1,
        vector2=vec2,
        overlap=alpha,
        # eigenvalues of a unit-trace state cannot exceed 1; strip round-off
        weight1=min(float(rho1.eigenvalues[keep1][i]), 1.0),
        weight2=min(float(rho2.eigenvalues[keep2][j]), 1.0),
    )


def quadratic_bound(p: float, alpha: float, dim: int, epsilon: float, x: float) -> float:
    """Positivity margin polynomial p*x^2 + 4*c_plus^2*eps*(alpha/N - x).

    Strict positivity of this function on [0, 1] for both weights is what
    certifies that the shifted states stay positive definite.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"weight p must be in (0, 1], got {p}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"overlap alpha must be in (0, 1], got {alpha}")
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 <= x <= 1.0:
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


def build_shift_operator(
    rho1: DensityMatrix, rho2: DensityMatrix, epsilon_fraction: float = 0.5
) -> ShiftConstruction:
    """Construct the traceless shift for a non-orthogonal pair.

    The direction is P_plus - r*P_minus - (1 - r)/N * identity with
    r = (1 - alpha)/(1 + alpha); at alpha = 1 the minus superposition
    degenerates and its projector is replaced by zero, which the vanishing
    coefficient makes seamless.
    """
    if not 0.0 < epsilon_fraction < 1.0:
        raise DomainError(f"epsilon_fraction must be in (0, 1), got {epsilon_fraction}")
    sel = overlap_selection(rho1, rho2)
    dim = rho1.dim
    alpha = sel.overlap

    plus = sel.vector1 + sel.vector2
    psi_plus = plus / np.linalg.norm(plus)
    proj_plus = np.outer(psi_plus, psi_plus.conj())

    minus = sel.vector1 - sel.vector2
    minus_norm = float(np.linalg.norm(minus))
    if minus_norm < _DEGENERATE_NORM:
        proj_minus = np.zeros((dim, dim), dtype=complex)
    else:
        psi_minus = minus / minus_norm
        proj_minus = np.outer(psi_minus, psi_minus.conj())

    ratio = (1.0 - alpha) / (1.0 + alpha)
    direction = proj_plus - ratio * proj_minus - (1.0 - ratio) * np.eye(dim) / dim
    eps_max = epsilon_upper_bound(alpha, dim, min(sel.weight1, sel.weight2))
    epsilon = epsilon_fraction * eps_max

    return ShiftConstruction(
        selection=sel,
        norm_ratio=ratio,
        epsilon_max=eps_max,
        epsilon=epsilon,
        shift=HermitianOperator.from_matrix(epsilon * direction, traceless=True),
    )


def jointly_translate(
    rho1: DensityMatrix, rho2: DensityMatrix, epsilon_fraction: float = 0.5
) -> tuple[DensityMatrix, DensityMatrix, ShiftConstruction]:
    """Shift both states into the interior, preserving their difference.

    Returns (rho1 - A, rho2 - A, construction); both outputs are validated
    states with strictly positive spectrum. A failure of that validation
    signals a numerical-tolerance problem, since the construction
    guarantees positivity for any epsilon inside the admissible interval.
    """
    construction = build_shift_operator(rho1, rho2, epsilon_fraction)
    shifted = []
    for k, rho in enumerate((rho1, rho2), start=1):
        moved = rho.entries - construction.shift.entries
        try:
            state = make_density_matrix(moved)
        except BackflowError as exc:  # validation failure -> tolerance problem
            raise PositivityFailure(f"translated state {k} failed validation: {exc}") from exc
        if state.min_eigenvalue <= TOL_PSD:
            raise PositivityFailure(
                f"translated state {k} not strictly interior: "
                f"min eigenvalue {state.min_eigenvalue:.3e} <= {TOL_PSD:.1e}"
            )
        shifted.append(state)
    return shifted[0], shifted[1], construction


def is_jointly_translatable(rho1: DensityMatrix, rho2: DensityMatrix) -> bool:
    """Translatable if and only if the pair is not orthogonal."""
    _check_same_dim(rho1, rho2)
    return not is_orthogonal(rho1, rho2)
