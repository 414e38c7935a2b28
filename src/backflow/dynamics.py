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
from dataclasses import dataclass, fields
from functools import cached_property
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
from .statespace import TOL_PSD, DensityMatrix

TOL_CPT = 1e-8
# Quadrature of tabulated rates splits every grid interval this many ways;
# the presets integrate in closed form.
REFINE = 8
# Integrated states may drift this far below zero before it is reported.
POSITIVITY_DRIFT = 10 * TOL_PSD
# exp(x) overflows a double for x above this.
_MAX_EXPONENT = float(np.log(np.finfo(float).max))

RateFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RateFunctions:
    """Decay rates gamma_i(t) and level shifts lambda_i(t), vectorized in t.

    A rate may be a :class:`ClosedFormRate`, which also gives its integral.
    """

    gamma1: RateFunction
    gamma2: RateFunction
    lambda1: RateFunction
    lambda2: RateFunction


@dataclass(frozen=True)
class ClosedFormRate:
    """A rate function that carries its integral from 0, both vectorized in t.

    :func:`lambda_map_coefficients` takes the integrals in place of
    quadrature when every rate of a model is one of these and both decay
    channels share one rate, as in every preset. A rate replaced by a plain
    function drops its integral with it.
    """

    rate: RateFunction
    integral: RateFunction

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.rate(t)


def _zero(t: np.ndarray) -> np.ndarray:
    return np.zeros(np.shape(t))


_ZERO_RATE = ClosedFormRate(_zero, _zero)


def sinusoidal_rates(amplitude: float = 0.03, frequency: float = 1.0) -> RateFunctions:
    """Equal oscillating decay rates amplitude*sin(frequency*t), no level shifts."""

    def rate(t):
        return amplitude * np.sin(frequency * np.asarray(t, dtype=float))

    def integral(t):
        # amplitude (1 - cos wt) / w, with 1 - cos x written as 2 sin^2(x/2),
        # which does not cancel for small wt
        if frequency == 0.0:  # a zero rate, where the closed form is 0/0
            return _zero(t)
        return 2.0 * amplitude * np.sin(frequency * np.asarray(t, dtype=float) / 2.0) ** 2 / frequency

    gamma = ClosedFormRate(rate, integral)
    return RateFunctions(gamma, gamma, _ZERO_RATE, _ZERO_RATE)


def constant_rates(gamma: float = 0.03, shift: float = 0.0) -> RateFunctions:
    """Time-independent rates: a Markovian semigroup generator."""

    def constant(value: float) -> ClosedFormRate:
        return ClosedFormRate(lambda t: np.full(np.shape(t), value), lambda t: value * np.asarray(t, dtype=float))

    g, s = constant(gamma), constant(shift)
    return RateFunctions(g, g, s, s)


def zero_rates() -> RateFunctions:
    """Trivial dynamics: the map stays the identity."""
    return RateFunctions(_ZERO_RATE, _ZERO_RATE, _ZERO_RATE, _ZERO_RATE)


def _load_rate_table(path: str) -> RateFunction:
    """Two-column CSV (time, value) -> linearly interpolated rate function."""
    times, values = [], []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [(number, row) for number, row in enumerate(csv.reader(handle), start=1) if row and row[0].strip()]
    except (OSError, ValueError, csv.Error) as exc:
        raise ValidationError(f"cannot read rate table {path!r}: {exc}") from exc
    for index, (number, row) in enumerate(rows):
        try:
            t, v = float(row[0]), float(row[1])
        except (ValueError, IndexError):
            if index == 0:  # only the first row may be a header
                continue
            raise ValidationError(f"rate table {path} row {number}: time and value must be numbers, got {row!r}")
        if any(cell.strip() for cell in row[2:]):
            raise ValidationError(f"rate table {path} row {number}: expected two columns (time, value), got {row!r}")
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
    return RateFunctions(*parts)


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
    into ground level i; d_i are the underlying cumulative decay-rate
    integrals. Valid coefficients satisfy g1 + g2 + |f|^2 = 1 and g_i >= 0.
    Every field is kept as a read-only copy, so the map scale built from
    them once cannot go stale.
    """

    grid: np.ndarray
    f: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self) -> None:
        for field in fields(self):
            values = np.array(getattr(self, field.name))
            values.setflags(write=False)
            object.__setattr__(self, field.name, values)

    @cached_property
    def _scale(self) -> np.ndarray:
        """The (grid, 3, 3) factors by which the map multiplies a matrix's
        entries: |f|^2 on the excited population, f and its conjugate on
        the excited coherences, 1 on the (b, c) block."""
        scale = np.ones((self.f.size, 3, 3), dtype=complex)
        scale[:, 0, 0] = np.abs(self.f) ** 2
        scale[:, 0, 1:] = self.f[:, None]
        scale[:, 1:, 0] = np.conj(self.f)[:, None]
        scale.setflags(write=False)
        return scale


@dataclass(frozen=True)
class CptReport:
    """Worst-case violations of the trace/positivity conditions."""

    ok: bool
    worst_identity: float
    worst_identity_time: float
    min_g: float
    min_g_time: float


def validate_cpt(coeffs: MapCoefficients) -> CptReport:
    """Check g1 + g2 + |f|^2 = 1 and g_i >= 0 on the whole grid."""
    identity = np.abs(coeffs.g1 + coeffs.g2 + np.abs(coeffs.f) ** 2 - 1.0)
    k_id = int(np.argmax(identity))
    g_min = np.minimum(coeffs.g1, coeffs.g2)
    k_g = int(np.argmin(g_min))
    ok = bool(identity[k_id] <= TOL_CPT and g_min[k_g] >= -TOL_CPT)
    return CptReport(
        ok=ok,
        worst_identity=float(identity[k_id]),
        worst_identity_time=float(coeffs.grid[k_id]),
        min_g=float(g_min[k_g]),
        min_g_time=float(coeffs.grid[k_g]),
    )


def _refined_grid(grid: np.ndarray) -> np.ndarray:
    """Split every grid interval into ``REFINE`` slices, keeping grid points exact."""
    steps = np.arange(REFINE) / REFINE
    fine = (grid[:-1, None] + np.diff(grid)[:, None] * steps).ravel()
    return np.append(fine, grid[-1])


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _check_integrals(decay: np.ndarray, phase: np.ndarray) -> None:
    """Raise unless the decay integral D and the phase are finite and exp(-D) is a double."""
    if not (np.all(np.isfinite(decay)) and np.all(np.isfinite(phase))) or decay.min() < -_MAX_EXPONENT:
        raise QuadratureFailure("rate integrals are not finite or overflow the exponential")


def _closed_form(rates: RateFunctions, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(d, phase) on ``grid`` from the rates' own integrals, where d = d1 = d2;
    None unless every rate carries one and both decay channels share one rate."""
    if rates.gamma1 is not rates.gamma2:
        return None
    gamma, shift1, shift2 = rates.gamma1, rates.lambda1, rates.lambda2
    if not all(isinstance(fn, ClosedFormRate) for fn in (gamma, shift1, shift2)):
        return None
    return np.array(gamma.integral(grid), dtype=float), shift1.integral(grid) + shift2.integral(grid)


def _without_integrals(rates: RateFunctions) -> RateFunctions:
    """The same rates as plain functions, whose map coefficients come from quadrature."""
    rate_fns = (getattr(rates, field.name) for field in fields(rates))
    return RateFunctions(*(fn.rate if isinstance(fn, ClosedFormRate) else fn for fn in rate_fns))


def _quadrature(rates: RateFunctions, grid: np.ndarray) -> tuple[np.ndarray, ...]:
    """(d1, d2, phase, g1 - g2) on ``grid`` by cumulative trapezoids on the
    refined grid, where g1 - g2 is the integral of (gamma1 - gamma2) exp(-D)."""
    fine = _refined_grid(grid)
    gamma1 = np.asarray(rates.gamma1(fine), dtype=float)
    gamma2 = np.asarray(rates.gamma2(fine), dtype=float)
    shift1 = np.asarray(rates.lambda1(fine), dtype=float)
    shift2 = np.asarray(rates.lambda2(fine), dtype=float)
    for name, values in (("gamma1", gamma1), ("gamma2", gamma2), ("lambda1", shift1), ("lambda2", shift2)):
        if values.shape != fine.shape or not np.all(np.isfinite(values)):
            raise QuadratureFailure(f"rate {name} is not finite on the whole grid")
    d1 = _cumulative_trapezoid(gamma1, fine)
    d2 = _cumulative_trapezoid(gamma2, fine)
    decay = d1 + d2
    phase = _cumulative_trapezoid(shift1, fine) + _cumulative_trapezoid(shift2, fine)
    _check_integrals(decay, phase)
    spread = _cumulative_trapezoid((gamma1 - gamma2) * np.exp(-decay), fine)
    # copies, so the fine-grid arrays are freed on return
    return tuple(values[::REFINE].copy() for values in (d1, d2, phase, spread))


def lambda_map_coefficients(rates: RateFunctions, grid: np.ndarray) -> MapCoefficients:
    """The map coefficients at every grid point.

    With D = d1 + d2, g1 + g2 = 1 - exp(-D) holds exactly for any rates, so
    the identity g1 + g2 + |f|^2 = 1 holds by construction, and g1 - g2 is
    the integral of (gamma1 - gamma2) exp(-D). The presets' rates carry
    their integrals (:class:`ClosedFormRate`) and share one decay rate, so
    g1 = g2 and nothing is integrated. Other rates are integrated by
    cumulative trapezoids on an internally refined grid (each interval
    split ``REFINE`` ways) and downsampled, which buys several extra digits
    of accuracy at the published 2000-step default without changing the
    grid contract. Every field is an array of its own with one entry per
    grid point. Raises if the result is not finite or violates the
    validity conditions.
    """
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("grid must contain at least two times")
    if grid[0] != 0.0:
        raise DomainError(f"grid must start at 0, got {grid[0]}")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("grid times must be strictly increasing")

    # Overflow is detected from the results below, so numpy's warnings
    # would only repeat it before the QuadratureFailure.
    with np.errstate(over="ignore", invalid="ignore"):
        closed = _closed_form(rates, grid)
        if closed is None:
            d1, d2, phase, spread = _quadrature(rates, grid)
        else:
            d1, phase = closed
            d2, spread = d1, 0.0
        decay = d1 + d2
        _check_integrals(decay, phase)
        total = -np.expm1(-decay)
        f = np.exp(-decay / 2.0) * np.exp(-1j * phase)

    coeffs = MapCoefficients(
        grid=grid,
        f=f,
        g1=(total + spread) / 2.0,
        g2=(total - spread) / 2.0,
        d1=d1,
        d2=d2,
    )
    if not np.all(np.isfinite(coeffs.f)) or not np.all(np.isfinite(coeffs.g1 + coeffs.g2)):
        raise QuadratureFailure("map coefficients are not finite")
    report = validate_cpt(coeffs)
    if not report.ok:
        hint = " (a finer grid lowers the quadrature error in these values)" if closed is None else ""
        raise CptViolation(
            f"invalid map: |g1+g2+|f|^2-1| = {report.worst_identity:.3e} at "
            f"t = {report.worst_identity_time:.6g}, min g = {report.min_g:.3e} at "
            f"t = {report.min_g_time:.6g}, on {grid.size - 1} grid steps of width up to "
            f"{np.diff(grid).max():.6g}{hint}"
        )
    return coeffs


def _check_dim3(matrix: np.ndarray) -> None:
    if matrix.shape[-2:] != (3, 3):
        raise BadDimension(f"Lambda-system map needs 3x3 matrices, got shape {matrix.shape}")


def apply_map_to_grid(coeffs: MapCoefficients, matrices: np.ndarray) -> np.ndarray:
    """Evolve Hermitian 3x3 matrices through every grid point at once.

    The map is linear, so this applies equally to states and to Hermitian
    differences of states. It keeps the (b, c) block, scales the excited
    population by |f|^2 and the excited coherences by f, and feeds g1, g2
    of the excited population into the ground levels. Takes shape
    (..., 3, 3) and returns shape (..., grid, 3, 3). The coefficients build
    their scale once, so a call only multiplies and adds the two feeds.
    """
    m = np.asarray(matrices, dtype=complex)
    _check_dim3(m)
    out = m[..., None, :, :] * coeffs._scale
    excited = m[..., None, 0, 0]
    out[..., 1, 1] += coeffs.g1 * excited
    out[..., 2, 2] += coeffs.g2 * excited
    return out


def stretch_ends(coeffs: MapCoefficients) -> MapCoefficients:
    """The coefficients at the grid points where a trace distance can turn.

    The step map from t_k to t_k+1 has this model's form, with feeding
    coefficients (g_i(t_k+1) - g_i(t_k)) / |f(t_k)|^2. A step is
    *contracting* when both g increments are >= 0: its map is CPTP, so no
    trace distance rises over it. It is *expanding* when both are <= 0:
    the inverse step map is CPTP, so no trace distance falls. Otherwise it
    is *mixed*. Kept are the first and last points, every point where the
    step kind changes and both ends of every mixed step. Between two kept
    points every distance is then monotone or the points bound one mixed
    step, so the rises summed over the kept points are those summed over
    the whole grid.
    """
    dg1, dg2 = np.diff(coeffs.g1), np.diff(coeffs.g2)
    # 0 contracting, 1 expanding, 2 mixed; step k runs from point k to k + 1
    kind = np.where((dg1 >= 0) & (dg2 >= 0), 0, np.where((dg1 <= 0) & (dg2 <= 0), 1, 2))
    keep = np.ones(coeffs.grid.size, dtype=bool)
    # interior points between steps of two kinds or two mixed steps, which
    # keeps both ends of every mixed step
    keep[1:-1] = (kind[:-1] != kind[1:]) | (kind[1:] == 2)
    return MapCoefficients(**{field.name: getattr(coeffs, field.name)[keep] for field in fields(coeffs)})


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


# Integration steps whose propagators are built, applied and checked together.
STEP_BLOCK = 32


def _rhs_generators() -> np.ndarray:
    """The master equation as four 9x9 matrices, one per rate in argument order.

    The right-hand side is linear in rho and in (g1, g2, s1, s2), so
    row j of generator i is the flattened right-hand side of the j-th unit
    matrix with rate i set to 1 and the others to 0. A flattened stack
    ``rho`` then evolves as ``rho @ sum(r_i G_i)``.
    """
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    return np.stack([_master_equation_rhs(*np.eye(4)[i], units).reshape(9, 9) for i in range(4)])


def _rk4_propagators(h: np.ndarray, nodes: np.ndarray, middle: np.ndarray) -> np.ndarray:
    """One classical RK4 step of a linear equation as a matrix per step.

    ``nodes`` holds the (steps + 1, 9, 9) generators at the steps' nodes and
    ``middle`` the (steps, 9, 9) ones at their midpoints, all acting on row
    vectors; ``h`` holds the step lengths. Returns M with rho_{k+1} =
    rho_k @ M_k, the RK4 update rho + h/6 (k1 + 2 k2 + 2 k3 + k4) written out
    for a linear right-hand side.
    """
    h = h[:, None, None]
    k1, end = nodes[:-1], nodes[1:]
    k2 = (k1 @ middle) * (0.5 * h) + middle  # k2 = (1 + h/2 k1) middle
    k3 = (k2 @ middle) * (0.5 * h) + middle  # k3 = (1 + h/2 k2) middle
    k4 = (k3 @ end) * h + end  # k4 = (1 + h k3) end
    return ((k2 + k3) * 2.0 + k1 + k4) * (h / 6.0) + np.eye(9)


def _check_block(states: np.ndarray, times: np.ndarray) -> None:
    """Raise for the first of a block's steps whose states are not finite or
    not positive; ``states`` is (n, steps, 3, 3) and ``times`` the steps' end times.

    Within a step, non-finite entries are reported before positivity, and
    only steps before the first non-finite one are eigensolved.
    """
    finite = np.isfinite(states).all(axis=(0, 2, 3))
    bad = int(np.argmin(finite)) if not finite.all() else finite.size
    if bad:
        min_eig = np.linalg.eigvalsh(states[:, :bad])[..., 0].min(axis=0)
        lost = np.flatnonzero(min_eig < -POSITIVITY_DRIFT)
        if lost.size:
            k = int(lost[0])
            raise PositivityLost(
                f"min eigenvalue {min_eig[k]:.3e} below -{POSITIVITY_DRIFT:.1e} at t = {times[k]:.6g}"
            )
    if bad < finite.size:
        raise IntegratorDiverged(f"non-finite entries after step to t = {times[bad]:.6g}")


def lindblad_integrate(
    rates: RateFunctions, states: Sequence[DensityMatrix], grid: np.ndarray
) -> np.ndarray:
    """Classical fourth-order integration of the master equation for a stack of states.

    Returns the layout of :func:`apply_map_to_grid`, (len(states), grid, 3, 3).
    The equation is linear, so each RK4 step is one 9x9 propagator built
    from the master equation's generators at the step's nodes and midpoint
    (:func:`_rk4_propagators`). Propagators are built a block of
    ``STEP_BLOCK`` (32) steps at a time, so the memory beyond the output
    does not grow with the block count. A step is one product of each
    matrix alone with its propagator. After each block, its states are
    re-symmetrized and their traces renormalized at once, so every
    returned state is exactly Hermitian, and the next block starts from
    the block's last state; then one ``isfinite`` and one stacked
    eigensolve check every step's states, and the first step that is
    non-finite or has an eigenvalue below the allowed band is reported,
    never clipped.
    """
    for state in states:
        _check_dim3(state.entries)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must contain at least two strictly increasing times")
    if not states:
        return np.empty((0, grid.size, 3, 3), dtype=complex)
    mid = (grid[:-1] + grid[1:]) / 2.0
    rate_fns = (rates.gamma1, rates.gamma2, rates.lambda1, rates.lambda2)
    # rate samples at nodes and interval midpoints, one row per step
    at_nodes = np.stack([np.asarray(fn(grid), dtype=float) for fn in rate_fns], axis=-1)
    at_mids = np.stack([np.asarray(fn(mid), dtype=float) for fn in rate_fns], axis=-1)
    generators = _rhs_generators().reshape(4, 81)

    def generator(rate_rows: np.ndarray) -> np.ndarray:
        return (rate_rows @ generators).reshape(-1, 9, 9)

    n = len(states)
    out = np.empty((n, grid.size, 3, 3), dtype=complex)
    out[:, 0] = np.stack([state.entries for state in states])
    # (n, grid, 1, 9): each step's states as a stack of one-row products, so
    # each state's product is computed alone and does not depend on the
    # states integrated with it
    rows = out.reshape(n, grid.size, 1, 9)
    # divergence is detected from the states below, so numpy's warnings
    # would only repeat it before the IntegratorDiverged
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for first in range(0, grid.size - 1, STEP_BLOCK):
            last = min(first + STEP_BLOCK, grid.size - 1)
            propagators = _rk4_propagators(
                np.diff(grid[first : last + 1]), generator(at_nodes[first : last + 1]), generator(at_mids[first:last])
            )
            for k in range(first, last):
                np.matmul(rows[:, k], propagators[k - first], out=rows[:, k + 1])
            block = out[:, first + 1 : last + 1]
            block = (block + block.conj().swapaxes(-1, -2)) / 2.0
            out[:, first + 1 : last + 1] = block / np.trace(block, axis1=-2, axis2=-1).real[..., None, None]
            _check_block(out[:, first + 1 : last + 1], grid[first + 1 : last + 1])
    return out
