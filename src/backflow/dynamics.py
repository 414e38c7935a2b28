"""Three-level (Lambda) system dynamics with time-dependent decay rates.

One excited level ``a`` decays into two ground levels ``b`` and ``c`` at
rates gamma_1(t), gamma_2(t), with optional level-shift frequencies
lambda_1(t), lambda_2(t). The solution is a closed-form dynamical map
whose coefficients come from cumulative integrals of the rates; a direct
fourth-order integration of the master equation is provided for
cross-validation. Basis order is (a, b, c) = indices (0, 1, 2).
"""

from __future__ import annotations

import csv
import inspect
import math
import reprlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadDimension,
    CptViolation,
    DomainError,
    IntegratorDiverged,
    PositivityLost,
    QuadratureFailure,
    ValidationError,
)
from .statespace import TOL_PSD, DensityMatrix, make_density_matrix

TOL_CPT = 1e-8
# Integrated states may drift this far below zero before it is reported.
POSITIVITY_DRIFT = 10 * TOL_PSD
# exp(x) overflows a double for x above this.
_MAX_EXPONENT = float(np.log(np.finfo(float).max))

RateFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RateFunctions:
    """Decay rates gamma_i(t) and level shifts lambda_i(t), vectorized in t."""

    gamma1: RateFunction
    gamma2: RateFunction
    lambda1: RateFunction
    lambda2: RateFunction
    description: str = ""


def _zero(t: np.ndarray) -> np.ndarray:
    return np.zeros(np.shape(t))


def sinusoidal_rates(amplitude: float = 0.03, frequency: float = 1.0) -> RateFunctions:
    """Equal oscillating decay rates amplitude*sin(frequency*t), no level shifts."""

    def gamma(t):
        return amplitude * np.sin(frequency * np.asarray(t, dtype=float))

    return RateFunctions(gamma, gamma, _zero, _zero, f"sinusoidal(amplitude={amplitude}, frequency={frequency})")


def constant_rates(gamma: float = 0.03, shift: float = 0.0) -> RateFunctions:
    """Time-independent rates: a Markovian semigroup generator."""

    def g(t):
        return np.full(np.shape(t), gamma)

    def s(t):
        return np.full(np.shape(t), shift)

    return RateFunctions(g, g, s, s, f"constant(gamma={gamma}, shift={shift})")


def zero_rates() -> RateFunctions:
    """Trivial dynamics: the map stays the identity."""
    return RateFunctions(_zero, _zero, _zero, _zero, "zero")


def _load_rate_table(path: str) -> RateFunction:
    """Two-column CSV (time, value) -> linearly interpolated rate function."""
    times, values = [], []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (OSError, ValueError, csv.Error) as exc:
        raise ValidationError(f"cannot read rate table {path!r}: {exc}") from exc
    for number, row in enumerate(rows, start=1):
        if not row or not row[0].strip():
            continue
        try:
            t, v = float(row[0]), float(row[1])
        except (ValueError, IndexError):
            if not times:  # tolerate a single header row
                continue
            raise ValidationError(f"bad rate table row in {path}: {row!r}")
        # a NaN time would also pass the increasing-times check below
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ValidationError(f"rate table {path} row {number}: time and value must be finite, got {row!r}")
        times.append(t)
        values.append(v)
    if len(times) < 2:
        raise ValidationError(f"rate table {path} needs at least two rows")
    ts = np.asarray(times)
    vs = np.asarray(values)
    if np.any(np.diff(ts) <= 0):
        raise ValidationError(f"rate table {path} must have strictly increasing times")

    def rate(t):
        return np.interp(np.asarray(t, dtype=float), ts, vs)

    return rate


def tabulated_rates(
    gamma1: str | None = None,
    gamma2: str | None = None,
    lambda1: str | None = None,
    lambda2: str | None = None,
) -> RateFunctions:
    """Rates from CSV tables; missing entries default to zero."""
    parts = [
        _load_rate_table(p) if p else _zero for p in (gamma1, gamma2, lambda1, lambda2)
    ]
    return RateFunctions(*parts, description="tabulated")


def _instance(types: tuple, what: str):
    """Kind check for a config value: it must be an instance of ``types``
    (a bool counts as an integer only where ``types`` names bool)."""

    def check(name: str, value):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise ValidationError(f"{name}: must be {what}, got {reprlib.repr(value)}")
        return value

    return check


def _finite_number(name: str, value) -> float:
    """Kind check for a config number: a finite float."""
    try:
        if math.isfinite(_instance((int, float), "a finite number")(name, value)):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValidationError(f"{name}: must be a finite number, got {reprlib.repr(value)}")


# preset -> (rate builder, parameter check); the builder's keyword
# parameters are the keys the preset takes, with their defaults
_PRESETS = {
    "sinusoidal": (sinusoidal_rates, _finite_number),
    "constant": (constant_rates, _finite_number),
    "zero": (zero_rates, None),
    "tabulated": (tabulated_rates, _instance((str,), "a file path string")),
}


def rates_from_model(model: dict) -> RateFunctions:
    """Resolve a CLI model description into rate functions.

    Each preset takes only its own keys (see ``_PRESETS``); an unknown
    key or a value of the wrong kind raises ValidationError naming it.
    """
    preset = model.get("preset", "sinusoidal")
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise ValidationError(f"model.preset: unknown rate preset {reprlib.repr(preset)}")
    build, check = _PRESETS[preset]
    keys = inspect.signature(build).parameters
    unknown = [key for key in model if key != "preset" and key not in keys]
    if unknown:
        raise ValidationError(f"model.{unknown[0]}: not a key of preset {preset!r}, which takes {list(keys)}")
    return build(**{key: check(f"model.{key}", value) for key, value in model.items() if key != "preset"})


def make_grid(t_max: float, steps: int) -> np.ndarray:
    """Uniform grid 0 = t_0 < ... < t_M = t_max."""
    if t_max <= 0.0:
        raise DomainError(f"t_max must be positive, got {t_max}")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    return np.linspace(0.0, float(t_max), steps + 1)


@dataclass(frozen=True, eq=False)
class MapCoefficients:
    """Closed-form map coefficients sampled on a time grid.

    f multiplies excited-state coherences, g_i feed the excited population
    into ground level i; d_i and l_i are the underlying cumulative rate
    integrals. Valid coefficients satisfy g1 + g2 + |f|^2 = 1 and g_i >= 0.
    """

    grid: np.ndarray
    f: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    l1: np.ndarray
    l2: np.ndarray

    def at(self, index: int) -> tuple[complex, float, float]:
        """Coefficient triple (f, g1, g2) at one grid point."""
        return complex(self.f[index]), float(self.g1[index]), float(self.g2[index])


@dataclass(frozen=True)
class CptReport:
    """Worst-case violations of the trace/positivity conditions."""

    ok: bool
    worst_identity: float
    worst_identity_time: float
    min_g: float
    min_g_time: float


def validate_cpt(coeffs: MapCoefficients, tol_cpt: float = TOL_CPT) -> CptReport:
    """Check g1 + g2 + |f|^2 = 1 and g_i >= 0 on the whole grid."""
    identity = np.abs(coeffs.g1 + coeffs.g2 + np.abs(coeffs.f) ** 2 - 1.0)
    k_id = int(np.argmax(identity))
    g_min = np.minimum(coeffs.g1, coeffs.g2)
    k_g = int(np.argmin(g_min))
    ok = bool(identity[k_id] <= tol_cpt and g_min[k_g] >= -tol_cpt)
    return CptReport(
        ok=ok,
        worst_identity=float(identity[k_id]),
        worst_identity_time=float(coeffs.grid[k_id]),
        min_g=float(g_min[k_g]),
        min_g_time=float(coeffs.grid[k_g]),
    )


def _refined_grid(grid: np.ndarray, refine: int) -> np.ndarray:
    """Split every grid interval into ``refine`` slices, keeping grid points exact."""
    steps = np.arange(refine) / refine
    fine = (grid[:-1, None] + np.diff(grid)[:, None] * steps).ravel()
    return np.append(fine, grid[-1])


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def lambda_map_coefficients(
    rates: RateFunctions,
    grid: np.ndarray,
    *,
    refine: int = 8,
    tol_cpt: float = TOL_CPT,
) -> MapCoefficients:
    """Cumulative-trapezoid evaluation of the map coefficients.

    Quadrature runs on an internally refined grid (each interval split
    ``refine`` ways) and is downsampled, which buys several extra digits
    of accuracy at the published 2000-step default without changing the
    grid contract. Raises if the result violates the validity conditions.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("grid must contain at least two times")
    if grid[0] != 0.0:
        raise DomainError(f"grid must start at 0, got {grid[0]}")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("grid times must be strictly increasing")
    if refine < 1:
        raise DomainError(f"refine must be >= 1, got {refine}")

    fine = _refined_grid(grid, refine)
    # Overflow is detected from the results below, so numpy's warnings
    # would only repeat it before the QuadratureFailure.
    with np.errstate(over="ignore", invalid="ignore"):
        gamma1 = np.asarray(rates.gamma1(fine), dtype=float)
        gamma2 = np.asarray(rates.gamma2(fine), dtype=float)
        shift1 = np.asarray(rates.lambda1(fine), dtype=float)
        shift2 = np.asarray(rates.lambda2(fine), dtype=float)
        for name, values in (("gamma1", gamma1), ("gamma2", gamma2), ("lambda1", shift1), ("lambda2", shift2)):
            if values.shape != fine.shape or not np.all(np.isfinite(values)):
                raise QuadratureFailure(f"rate {name} is not finite on the whole grid")
        d1 = _cumulative_trapezoid(gamma1, fine)
        d2 = _cumulative_trapezoid(gamma2, fine)
        l1 = _cumulative_trapezoid(shift1, fine)
        l2 = _cumulative_trapezoid(shift2, fine)
        decay = d1 + d2
        phase = l1 + l2
        if not (np.all(np.isfinite(decay)) and np.all(np.isfinite(phase))) or decay.min() < -_MAX_EXPONENT:
            raise QuadratureFailure("rate integrals are not finite or overflow the exponential")
        damping = np.exp(-decay)
        g1 = _cumulative_trapezoid(gamma1 * damping, fine)
        g2 = _cumulative_trapezoid(gamma2 * damping, fine)
        f = np.exp(-decay / 2.0) * np.exp(-1j * phase)

    take = slice(None, None, refine)
    coeffs = MapCoefficients(
        grid=grid,
        f=f[take],
        g1=g1[take],
        g2=g2[take],
        d1=d1[take],
        d2=d2[take],
        l1=l1[take],
        l2=l2[take],
    )
    if not np.all(np.isfinite(coeffs.f)) or not np.all(np.isfinite(coeffs.g1 + coeffs.g2)):
        raise QuadratureFailure("map coefficients are not finite")
    report = validate_cpt(coeffs, tol_cpt)
    if not report.ok:
        raise CptViolation(
            f"invalid map: |g1+g2+|f|^2-1| = {report.worst_identity:.3e} at "
            f"t = {report.worst_identity_time:.6g}, min g = {report.min_g:.3e} at "
            f"t = {report.min_g_time:.6g}"
        )
    return coeffs


def _check_dim3(matrix: np.ndarray) -> None:
    if matrix.shape[-2:] != (3, 3):
        raise BadDimension(f"Lambda-system map needs 3x3 matrices, got shape {matrix.shape}")


def apply_lambda_map(f: complex, g1: float, g2: float, rho: DensityMatrix) -> DensityMatrix:
    """Apply the map with the given coefficient triple to one state."""
    _check_dim3(rho.entries)
    # a one-point grid; the map action reads only f, g1 and g2
    zero = np.zeros(1)
    point = MapCoefficients(zero, np.array([f], dtype=complex), np.array([g1]), np.array([g2]), zero, zero, zero, zero)
    return make_density_matrix(apply_map_to_grid(point, rho.entries)[0])


def apply_map_to_grid(coeffs: MapCoefficients, matrices: np.ndarray) -> np.ndarray:
    """Evolve Hermitian 3x3 matrices through every grid point at once.

    The map is linear, so this applies equally to states and to Hermitian
    differences of states. It keeps the (b, c) block, scales the excited
    population by |f|^2 and the excited coherences by f, and feeds g1, g2
    of the excited population into the ground levels. Takes shape
    (..., 3, 3) and returns shape (..., grid, 3, 3).
    """
    m = np.asarray(matrices, dtype=complex)
    _check_dim3(m)
    f = coeffs.f
    scale = np.ones((f.size, 3, 3), dtype=complex)
    scale[:, 0, 0] = np.abs(f) ** 2
    scale[:, 0, 1:] = f[:, None]
    scale[:, 1:, 0] = np.conj(f)[:, None]
    out = m[..., None, :, :] * scale
    excited = m[..., None, 0, 0]
    out[..., 1, 1] += coeffs.g1 * excited
    out[..., 2, 2] += coeffs.g2 * excited
    return out


def map_invariants(coeffs: MapCoefficients, matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace, trace of the square and determinant of each evolved matrix.

    The same evolution as :func:`apply_map_to_grid`, without building it:
    each invariant is a sum of per-matrix coefficients times functions of
    x = |f|^2, g1 and g2 (the phase of f is a conjugation by
    diag(e^{i theta}, 1, 1), so it cancels). Takes Hermitian (..., 3, 3)
    and returns three real arrays of shape (..., grid).
    """
    m = np.asarray(matrices, dtype=complex)
    _check_dim3(m)
    a, p, q = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 2, 2].real
    u, v, w = m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]
    uu, vv, ww = np.abs(u) ** 2, np.abs(v) ** 2, np.abs(w) ** 2
    cycle = (u * w * np.conj(v)).real
    x, g1, g2 = np.abs(coeffs.f) ** 2, coeffs.g1, coeffs.g2
    one = np.ones_like(x)

    def combine(*terms):
        # an elementwise sum in a fixed order, unlike a matrix product, so
        # each value is bitwise independent of how many matrices are passed;
        # summed in place, so one product at a time is held
        total = np.zeros(a.shape + x.shape)
        for c, t in terms:
            total += c[..., None] * t
        return total

    trace = combine((a, x + g1 + g2), (p + q, one))
    trace_sq = combine(
        (p * p + q * q + 2.0 * ww, one),
        (2.0 * (uu + vv), x),
        (a * a, x * x),
        (2.0 * p * a, g1),
        (2.0 * q * a, g2),
        (a * a, g1 * g1),
        (a * a, g2 * g2),
    )
    det = combine(
        (a * (p * q - ww) - uu * q - vv * p + 2.0 * cycle, x),
        (a * a * q - a * vv, x * g1),
        (a * a * p - a * uu, x * g2),
        (a**3, x * g1 * g2),
    )
    return trace, trace_sq, det


# Nothing calls this (callers map a stack with apply_map_to_grid); it stays
# only while the benchmark's per-layer metrics name dynamics.evolve.s.
def evolve(coeffs: MapCoefficients, rho0: DensityMatrix) -> np.ndarray:
    """Closed-form evolution of one state, shape (grid, 3, 3)."""
    return apply_map_to_grid(coeffs, rho0.entries)


def _master_equation_rhs(
    g1: float, g2: float, s1: float, s2: float, rho: np.ndarray
) -> np.ndarray:
    """Right-hand side of the master equation for the Lambda system, on a (..., 3, 3) stack."""
    drho = np.zeros_like(rho)
    # commutator with |a><a| (both shift terms carry the same projector)
    comm = np.zeros_like(rho)
    comm[..., 0, :] = rho[..., 0, :]
    comm[..., :, 0] -= rho[..., :, 0]
    drho += -1j * (s1 + s2) * comm
    # dissipators: |b><a| and |c><a| jumps share the anticommutator term
    anti = np.zeros_like(rho)
    anti[..., 0, :] = rho[..., 0, :]
    anti[..., :, 0] += rho[..., :, 0]
    drho -= 0.5 * (g1 + g2) * anti
    drho[..., 1, 1] += g1 * rho[..., 0, 0]
    drho[..., 2, 2] += g2 * rho[..., 0, 0]
    return drho


def lindblad_integrate(
    rates: RateFunctions, states: Sequence[DensityMatrix], grid: np.ndarray
) -> np.ndarray:
    """Classical fourth-order integration of the master equation for a stack of states.

    Returns the layout of :func:`apply_map_to_grid`, (len(states), grid, 3, 3).
    Each step acts on each matrix alone, re-symmetrizes and renormalizes the
    trace; eigenvalue drift below the allowed band is reported, never clipped.
    """
    for state in states:
        _check_dim3(state.entries)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must contain at least two strictly increasing times")
    mid = (grid[:-1] + grid[1:]) / 2.0
    # rate samples at nodes and interval midpoints, in rhs argument order
    at_nodes = [np.asarray(fn(grid), dtype=float) for fn in (rates.gamma1, rates.gamma2, rates.lambda1, rates.lambda2)]
    at_mids = [np.asarray(fn(mid), dtype=float) for fn in (rates.gamma1, rates.gamma2, rates.lambda1, rates.lambda2)]

    rho = np.stack([state.entries for state in states])
    out = np.empty((rho.shape[0], grid.size, 3, 3), dtype=complex)
    out[:, 0] = rho
    # divergence is detected from the states below, so numpy's warnings
    # would only repeat it before the IntegratorDiverged
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(grid.size - 1):
            h = grid[k + 1] - grid[k]
            r0 = [v[k] for v in at_nodes]
            rm = [v[k] for v in at_mids]
            r1 = [v[k + 1] for v in at_nodes]
            k1 = _master_equation_rhs(*r0, rho)
            k2 = _master_equation_rhs(*rm, rho + 0.5 * h * k1)
            k3 = _master_equation_rhs(*rm, rho + 0.5 * h * k2)
            k4 = _master_equation_rhs(*r1, rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
            rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
            if not np.all(np.isfinite(rho)):
                raise IntegratorDiverged(f"non-finite entries after step to t = {grid[k + 1]:.6g}")
            min_eig = float(np.linalg.eigvalsh(rho)[:, 0].min())
            if min_eig < -POSITIVITY_DRIFT:
                raise PositivityLost(
                    f"min eigenvalue {min_eig:.3e} below -{POSITIVITY_DRIFT:.1e} "
                    f"at t = {grid[k + 1]:.6g}"
                )
            out[:, k + 1] = rho
    return out
