"""Three-level (Lambda) system dynamics with time-dependent decay rates.

One excited level ``a`` decays into two ground levels ``b`` and ``c`` at
rates gamma_1(t), gamma_2(t). A level shift of ``a`` would act on every
state as one unitary that commutes with both decay channels, so it moves
no trace distance, and the model has none. The solution is a closed-form
dynamical map whose coefficients come from cumulative integrals of the
rates; a direct fourth-order integration of the master equation is
provided for cross-validation. Basis order is (a, b, c) = indices (0, 1, 2).
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
from .statespace import TOL_PSD, DensityMatrix, _half_trace_norms_from_invariants, _invariants_3, _lowest_eigenvalues

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
    """Decay rates gamma_i(t) into ground level i, vectorized in t.

    A rate may be a :class:`ClosedFormRate`, which also gives its integral.
    """

    gamma1: RateFunction
    gamma2: RateFunction


@dataclass(frozen=True)
class ClosedFormRate:
    """A rate function that carries its integral from 0, both vectorized in t.

    :func:`lambda_map_coefficients` takes the integral in place of
    quadrature when both decay channels share one rate of this kind, as in
    every preset. A rate replaced by a plain function drops its integral
    with it.
    """

    rate: RateFunction
    integral: RateFunction

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.rate(t)


def _zero(t: np.ndarray) -> np.ndarray:
    return np.zeros(np.shape(t))


_ZERO_RATE = ClosedFormRate(_zero, _zero)


def sinusoidal_rates(amplitude: float = 0.03, frequency: float = 1.0) -> RateFunctions:
    """Equal oscillating decay rates amplitude*sin(frequency*t)."""

    def rate(t):
        return amplitude * np.sin(frequency * np.asarray(t, dtype=float))

    def integral(t):
        # amplitude (1 - cos wt) / w, with 1 - cos x written as 2 sin^2(x/2),
        # which does not cancel for small wt
        if frequency == 0.0:  # a zero rate, where the closed form is 0/0
            return _zero(t)
        return 2.0 * amplitude * np.sin(frequency * np.asarray(t, dtype=float) / 2.0) ** 2 / frequency

    gamma = ClosedFormRate(rate, integral)
    return RateFunctions(gamma, gamma)


def constant_rates(gamma: float = 0.03) -> RateFunctions:
    """Time-independent rates: a Markovian semigroup generator."""
    rate = ClosedFormRate(lambda t: np.full(np.shape(t), gamma), lambda t: gamma * np.asarray(t, dtype=float))
    return RateFunctions(rate, rate)


def zero_rates() -> RateFunctions:
    """Trivial dynamics: the map stays the identity."""
    return RateFunctions(_ZERO_RATE, _ZERO_RATE)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _load_rate_table(path: str) -> RateFunction:
    """Two-column CSV (time, value) -> linearly interpolated rate function."""
    times, values = [], []
    try:
        # utf-8-sig drops a byte-order mark, which would hide row 1's time
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = [(number, row) for number, row in enumerate(csv.reader(handle), start=1) if any(map(str.strip, row))]
    except (OSError, ValueError, csv.Error) as exc:
        raise ValidationError(f"cannot read rate table {path!r}: {exc}") from exc
    for index, (number, row) in enumerate(rows):
        try:
            t, v = float(row[0]), float(row[1])
        except (ValueError, IndexError):
            if index == 0 and not _is_number(row[0]):  # only a first row without a time is a header
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


def tabulated_rates(gamma1: str | None = None, gamma2: str | None = None) -> RateFunctions:
    """Rates from CSV tables; a missing one defaults to zero."""
    return RateFunctions(*(_load_rate_table(p) if p else _zero for p in (gamma1, gamma2)))


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

    f = exp(-D/2), with D the integral of gamma1 + gamma2, multiplies the
    excited coherences, and g_i feed the excited population into ground
    level i. Valid coefficients satisfy g1 + g2 + f^2 = 1 and g_i >= 0.
    Every field is kept as a read-only float64 copy, so the map scale built
    from them once cannot go stale; a complex field raises ValidationError.
    """

    grid: np.ndarray
    f: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self) -> None:
        for field in fields(self):
            if np.iscomplexobj(getattr(self, field.name)):
                raise ValidationError(f"map coefficient {field.name} must be real")
            values = np.array(getattr(self, field.name), dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, field.name, values)

    @cached_property
    def _scale(self) -> np.ndarray:
        """The (grid, 3, 3) factors by which the map multiplies a matrix's
        entries: f^2 on the excited population, f on the excited
        coherences, 1 on the (b, c) block; complex, so no product casts."""
        scale = np.ones((self.f.size, 3, 3), dtype=complex)
        scale[:, 0, 0] = self.f**2
        scale[:, 0, 1:] = scale[:, 1:, 0] = self.f[:, None]
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
    """Check g1 + g2 + f^2 = 1 and g_i >= 0 on the whole grid. The identity
    holds by construction in :func:`lambda_map_coefficients`, so there
    ``worst_identity`` measures rounding (2.2e-16 on the default model)."""
    identity = np.abs(coeffs.g1 + coeffs.g2 + coeffs.f**2 - 1.0)
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


def _check_integrals(decay: np.ndarray) -> None:
    """Raise unless the decay integral D is finite and exp(-D) is a double."""
    if not np.all(np.isfinite(decay)) or decay.min() < -_MAX_EXPONENT:
        raise QuadratureFailure("rate integrals are not finite or overflow the exponential")


def _closed_form(rates: RateFunctions, grid: np.ndarray) -> np.ndarray | None:
    """D = d + d on ``grid`` from the integral d of the rate both decay
    channels share, when it carries one (then g1 = g2); else None."""
    if rates.gamma1 is not rates.gamma2 or not isinstance(rates.gamma1, ClosedFormRate):
        return None
    d = np.array(rates.gamma1.integral(grid), dtype=float)
    return d + d


def _without_integrals(rates: RateFunctions) -> RateFunctions:
    """The same rates as plain functions, whose map coefficients come from quadrature."""
    rate_fns = (getattr(rates, field.name) for field in fields(rates))
    return RateFunctions(*(fn.rate if isinstance(fn, ClosedFormRate) else fn for fn in rate_fns))


def _quadrature(rates: RateFunctions, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, g1 - g2) on ``grid`` by cumulative trapezoids on the refined
    grid, where D is the integral of gamma1 + gamma2 and g1 - g2 that of
    (gamma1 - gamma2) exp(-D).

    A function that serves both rates is sampled and integrated once, and
    then gamma1 - gamma2 is exactly 0, and so is g1 - g2. The results are
    those of integrating each rate apart.
    """
    fine = _refined_grid(grid)
    samples: dict[int, np.ndarray] = {}
    for field in fields(rates):
        fn = getattr(rates, field.name)
        if id(fn) not in samples:
            values = np.asarray(fn(fine), dtype=float)
            if values.shape != fine.shape or not np.all(np.isfinite(values)):
                raise QuadratureFailure(f"rate {field.name} is not finite on the whole grid")
            samples[id(fn)] = values
    integrals = {key: _cumulative_trapezoid(values, fine) for key, values in samples.items()}
    decay = integrals[id(rates.gamma1)] + integrals[id(rates.gamma2)]
    _check_integrals(decay)
    if rates.gamma1 is rates.gamma2:
        spread = np.zeros(fine.size)
    else:
        spread = _cumulative_trapezoid((samples[id(rates.gamma1)] - samples[id(rates.gamma2)]) * np.exp(-decay), fine)
    # copies, so the fine-grid arrays are freed on return
    return decay[::REFINE].copy(), spread[::REFINE].copy()


def _check_grid(grid: np.ndarray) -> np.ndarray:
    """The grid as floats; DomainError unless it has at least two finite, strictly increasing times."""
    grid = np.array(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise DomainError("grid times must be finite")
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise DomainError("grid must contain at least two strictly increasing times")
    return grid


def lambda_map_coefficients(rates: RateFunctions, grid: np.ndarray) -> MapCoefficients:
    """The map coefficients at every grid point.

    With D the integral of gamma1 + gamma2, f = exp(-D/2) and g1 + g2 =
    1 - exp(-D) for any rates, so g1 + g2 + f^2 = 1 holds by construction,
    and g1 - g2 is the integral of (gamma1 - gamma2) exp(-D). The presets'
    rates carry their integrals (:class:`ClosedFormRate`) and share one
    decay rate, so g1 = g2 and nothing is integrated. Other rates are
    integrated by cumulative trapezoids on an internally refined grid (each
    interval split ``REFINE`` ways) and downsampled, which buys several
    extra digits of accuracy at the published 2000-step default without
    changing the grid contract. Every field is an array of its own with one
    entry per grid point. Raises if the result is not finite or violates
    the validity conditions.
    """
    grid = _check_grid(grid)
    if grid[0] != 0.0:
        raise DomainError(f"grid must start at 0, got {grid[0]}")

    # Overflow is detected from the results below, so numpy's warnings
    # would only repeat it before the QuadratureFailure.
    with np.errstate(over="ignore", invalid="ignore"):
        closed = _closed_form(rates, grid)
        decay, spread = _quadrature(rates, grid) if closed is None else (closed, 0.0)
        _check_integrals(decay)
        total = -np.expm1(-decay)
        f = np.exp(-decay / 2.0)

    coeffs = MapCoefficients(
        grid=grid,
        f=f,
        g1=(total + spread) / 2.0,
        g2=(total - spread) / 2.0,
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
    population by f^2 and the excited coherences by f, and feeds g1, g2
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


def _mapped_distances(coeffs: MapCoefficients, deltas: np.ndarray) -> np.ndarray:
    """Half the trace norms of Hermitian (..., 3, 3) differences of states,
    mapped to every point of ``coeffs`` and clipped to [0, 1]: shape (..., grid).

    The map scales the excited population, |u|^2, |v|^2 and Re(u w v*) of
    a difference by F = f^2, feeds g_i of the excited population into
    ground level i and keeps |w|^2, so the distances come from each
    difference's seven :func:`~backflow.statespace._invariants_3` and the
    per-point F, g1, g2, through the closed form that ``_clipped_distances``
    takes for 3x3 matrices, without building the mapped matrices. Each value
    depends on its own difference alone, so a stacked call is bitwise equal
    to one-difference calls.
    """
    m = np.asarray(deltas, dtype=complex)
    _check_dim3(m)
    if m.ndim == 2:
        # numpy's scalar complex product rounds unlike its array loop, so one
        # matrix is a stack of one
        return _mapped_distances(coeffs, m[None])[0]
    d0, d1, d2, uu, vv, ww, cross = (x[..., None] for x in _invariants_3(m))
    kept = coeffs.f**2
    half = _half_trace_norms_from_invariants(
        kept * d0, d1 + coeffs.g1 * d0, d2 + coeffs.g2 * d0, kept * uu, kept * vv, ww, kept * cross
    )
    return np.clip(half, 0.0, 1.0)


def stretch_ends(coeffs: MapCoefficients) -> MapCoefficients:
    """The coefficients at the grid points where a trace distance can turn.

    The step map from t_k to t_k+1 has this model's form, with feeding
    coefficients (g_i(t_k+1) - g_i(t_k)) / f(t_k)^2. A step is
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


def _master_equation_rhs(g1: float, g2: float, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation for the Lambda system, on a (..., 3, 3) stack."""
    drho = np.zeros_like(rho)
    # dissipators: |b><a| and |c><a| jumps share the anticommutator term
    anti = np.zeros_like(rho)
    anti[..., 0, :] = rho[..., 0, :]
    anti[..., :, 0] += rho[..., :, 0]
    drho -= 0.5 * (g1 + g2) * anti
    drho[..., 1, 1] += g1 * rho[..., 0, 0]
    drho[..., 2, 2] += g2 * rho[..., 0, 0]
    return drho


# Integration steps whose propagators are built, multiplied and checked together.
STEP_BLOCK = 64

# A Hermitian 3x3 matrix has 9 real coordinates x: the diagonal, then the
# real and imaginary parts of the upper entries (0, 1), (0, 2), (1, 2). The
# matrix is sum_j x_j _UNITS[j], over these Hermitian unit matrices.
_ROWS, _COLS = [0, 1, 2, 0, 0, 1, 0, 0, 1], [0, 1, 2, 1, 2, 2, 1, 2, 2]
_UNITS = np.zeros((9, 3, 3), dtype=complex)
_UNITS[range(9), _ROWS, _COLS] = [1, 1, 1, 1, 1, 1, 1j, 1j, 1j]
_UNITS[range(9), _COLS, _ROWS] = [1, 1, 1, 1, 1, 1, -1j, -1j, -1j]
_UNITS.setflags(write=False)


def _to_coordinates(m: np.ndarray) -> np.ndarray:
    """The (..., 9) real coordinates of a Hermitian (..., 3, 3) stack."""
    entries = m[..., _ROWS, _COLS]
    return np.concatenate([entries[..., :6].real, entries[..., 6:].imag], axis=-1)


def _from_coordinates(x: np.ndarray) -> np.ndarray:
    """The Hermitian (..., 3, 3) stack of (..., 9) real coordinates: each
    part of an entry is one coordinate times +-1 plus zeros, so it is exact."""
    parts = x @ _UNITS.view(float).reshape(9, 18)
    return parts.view(complex).reshape(x.shape[:-1] + (3, 3))


def _rhs_generators() -> np.ndarray:
    """The master equation as two real 9x9 matrices, one per decay rate.

    The right-hand side is linear in rho and in (g1, g2), and it
    keeps a matrix Hermitian, so row j of generator i is the coordinates
    of the right-hand side of the unit matrix ``_UNITS[j]`` with rate i set
    to 1 and the others to 0. A stack of coordinate rows ``x`` then evolves
    as ``x @ sum(r_i G_i)``.
    """
    return np.stack([_to_coordinates(_master_equation_rhs(*rates, _UNITS)) for rates in np.eye(2)])


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
    only steps before the first non-finite one are checked, each step by its
    states' minimum from :func:`_lowest_eigenvalues`.
    """
    finite = np.isfinite(states).all(axis=(0, 2, 3))
    bad = int(np.argmin(finite)) if not finite.all() else finite.size
    if bad:
        min_eig = _lowest_eigenvalues(states[:, :bad], POSITIVITY_DRIFT).min(axis=0)
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
    The equation is linear, so each RK4 step is one real 9x9 propagator
    (:func:`_rk4_propagators`) acting on a state's 9 real coordinates, in
    which every state is exactly Hermitian. Propagators are built a block
    of ``STEP_BLOCK`` steps at a time, so the memory beyond the output
    does not grow with the block count, and a doubling scan turns them
    into running products from the block's start: a block is one product
    of each state's row alone with all of them. After each block, its
    traces are renormalized at once and the next block starts from its
    last state; then :func:`_check_block` checks every step's states at
    once, and the first step that is non-finite or has an eigenvalue
    below the allowed band is reported, never clipped.
    """
    for state in states:
        _check_dim3(state.entries)
    grid = _check_grid(grid)
    if not states:
        return np.empty((0, grid.size, 3, 3), dtype=complex)
    mid = (grid[:-1] + grid[1:]) / 2.0
    rate_fns = (rates.gamma1, rates.gamma2)
    # rate samples at nodes and interval midpoints, one row per step
    at_nodes = np.stack([np.asarray(fn(grid), dtype=float) for fn in rate_fns], axis=-1)
    at_mids = np.stack([np.asarray(fn(mid), dtype=float) for fn in rate_fns], axis=-1)
    generators = _rhs_generators().reshape(2, 81)

    def generator(rate_rows: np.ndarray) -> np.ndarray:
        return (rate_rows @ generators).reshape(-1, 9, 9)

    out = np.empty((len(states), grid.size, 3, 3), dtype=complex)
    out[:, 0] = np.stack([state.entries for state in states])
    # (n, 1, 9): each state's coordinates as a one-row matrix, so its
    # products do not depend on the states integrated with it
    start = _to_coordinates(out[:, :1])
    # divergence is detected from the states below, so numpy's warnings
    # would only repeat it before the IntegratorDiverged
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for first in range(0, grid.size - 1, STEP_BLOCK):
            last = min(first + STEP_BLOCK, grid.size - 1)
            products = _rk4_propagators(
                np.diff(grid[first : last + 1]), generator(at_nodes[first : last + 1]), generator(at_mids[first:last])
            )
            # running products by doubling: entry k becomes the product of entries 0..k
            shift = 1
            while shift < last - first:
                products[shift:] = products[:-shift] @ products[shift:]
                shift *= 2
            # (9, steps * 9): the running products side by side, so a state's
            # row takes the whole block in one product
            block = (start @ products.transpose(1, 0, 2).reshape(9, -1)).reshape(len(states), -1, 9)
            block /= (block[..., 0] + block[..., 1] + block[..., 2])[..., None]
            start = block[:, -1:]
            out[:, first + 1 : last + 1] = _from_coordinates(block)
            _check_block(out[:, first + 1 : last + 1], grid[first + 1 : last + 1])
    return out
