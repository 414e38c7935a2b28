"""Command-line front end: run configuration, orchestration, CSV/JSON output.

Subcommands: trajectory | measure | histogram | verify | translate.
Configuration comes from an optional JSON file plus flag overrides; output
files are deterministic for a fixed config and seed (timings go to stderr
only). Exit codes: 0 success, 1 invalid input or orthogonal-pair
rejection, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .dynamics import _finite_number, _instance, lambda_map_coefficients, make_grid, rates_from_model
from .errors import BackflowError, NumericalFailure, ParseError, ValidationError
from .measure import (
    _check_candidate,
    backflow,
    estimate_measure,
    histogram_backflow,
    mixed_reference_pair,
    pure_a_plus_pair,
    pure_ab_pair,
    trace_distance_trajectory,
)
from .statespace import DensityMatrix, make_density_matrix, trace_distance
from .translation import jointly_translate
from .verify import run_all

TAU = 2.0 * np.pi

_NAMED_PAIRS = {
    "mpair": mixed_reference_pair,
    "pure-ab": pure_ab_pair,
    "pure-a-plus": pure_a_plus_pair,
}


# --- matrix (de)serialization -------------------------------------------


def matrix_to_json(matrix: np.ndarray) -> list:
    """Nested [re, im] pairs; floats keep full precision."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, dtype=complex)]


def _entry(cell) -> complex:
    """A real number, or an [re, im] pair of exactly two real numbers; a bool is neither."""
    parts = cell if isinstance(cell, (list, tuple)) and len(cell) == 2 else (cell, 0.0)
    if not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in parts):
        raise ValueError("each entry must be a real number or an [re, im] pair of real numbers")
    return complex(*parts)


def matrix_from_json(rows, where: str) -> np.ndarray:
    try:
        matrix = np.asarray([[_entry(cell) for cell in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: cannot parse matrix entries ({exc})") from exc
    if not np.all(np.isfinite(matrix)):
        raise ValidationError(f"{where}: matrix entries must be finite")
    return matrix


def _read_json(path: str):
    """The JSON value in a file; content that cannot be parsed is a
    ParseError naming the file. OSError propagates."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            # bytes that are not UTF-8, an integer literal beyond Python's
            # digit limit, or nesting deeper than the parser's recursion
            raise ParseError(f"{path}: cannot parse JSON ({exc})") from exc


def resolve_pair(spec: str) -> tuple[DensityMatrix, DensityMatrix]:
    """Named pair preset or path to a JSON file holding two matrices."""
    if spec in _NAMED_PAIRS:
        return _NAMED_PAIRS[spec]()
    try:
        data = _read_json(spec)
    except OSError as exc:
        raise ValidationError(f"pair: {spec!r} is neither a named pair nor a readable file ({exc})") from exc
    return _pair(f"pair file {spec}", data)


def _pair(where: str, entry) -> tuple[DensityMatrix, DensityMatrix]:
    """Two JSON matrices -> a validated state pair; an error names the matrix once."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise ValidationError(f"{where}: expected a [rho1, rho2] pair of matrices")
    pair = []
    for j, rows in enumerate(entry):
        matrix = matrix_from_json(rows, f"{where}[{j}]")
        try:
            pair.append(make_density_matrix(matrix))
        except BackflowError as exc:
            raise ValidationError(f"{where}[{j}]: {exc}") from exc
    return tuple(pair)


# --- run configuration ----------------------------------------------------

# Caps on the sizes that allocate memory, so no config value can exhaust it.
# histogram and measure score max(1, 4096 // kept points) pairs a call at the grid's stretch
# ends, so a call holds at most max(4096, kept points) evolved 3x3 differences: a scoring
# peak of 2.9 MB at the cap on the default model and under 4 MB if every step is mixed; at the
# cap the map coefficients peak at 1.0 MB for a preset and 7.8 MB for tabulated rates' quadrature
MAX_GRID_STEPS = 10**4
# histogram keeps one float per sample: 80 MB at the cap
MAX_SAMPLES = 10**7
# one edge, count and probability per bin, and one CSV row
MAX_BINS = 10**6
# verify draws N x N complex matrices for every dimension N
MAX_DIM = 64
# verify repeats each suite this often per dimension, about 0.008 s a trial at dims 2,3,4: under 2 minutes at the cap
MAX_TRIALS = 10**4
# np.gradient divides by products of two grid steps, so their square must stay a normal float
MIN_GRID_STEP = float(np.sqrt(np.finfo(float).tiny))
# and a step times the sum of two steps must stay finite
MAX_GRID_STEP = float(np.sqrt(np.finfo(float).max / 4.0))

_ENGINES = ("closed_form", "integrator")
_FORMATS = ("csv", "json")


_integer = _instance((int,), "an integer")
_text = _instance((str,), "a string")
_path_or_null = _instance((str, type(None)), "a path string or null")
_model = _instance((dict,), "an object with a 'preset' key")


def _dims(name: str, value) -> tuple:
    _instance((list, tuple), "a list of integers")(name, value)
    return tuple(_integer(f"{name}[{i}]", d) for i, d in enumerate(value))


def _pairs(name: str, value) -> tuple:
    """Candidate pairs for ``measure``, each two orthogonal 3x3 states; an error names the pair as written."""
    pairs = []
    for i, entry in enumerate(_instance((list, tuple), "a list of [rho1, rho2] pairs")(name, value)):
        pairs.append(_pair(f"{name}[{i}]", entry))
        _check_candidate(pairs[-1], f"{name}[{i}]")
    return tuple(pairs)


def _pairs_to_json(pairs) -> list:
    return [[matrix_to_json(a.entries), matrix_to_json(b.entries)] for a, b in pairs]


def _int_list(text: str) -> tuple:
    """Flag value ``2,3,4`` -> (2, 3, 4)."""
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _field(commands: str, check, echo=lambda value: value, *, default=MISSING, default_factory=MISSING, **options):
    """A RunConfig field: the commands that read it, its kind check, its
    payload echo, and the argparse options of those commands' flag for it."""
    metadata = {"commands": commands.split(), "check": check, "echo": echo, "options": options}
    return field(default=default, default_factory=default_factory, metadata=metadata)


def _default_model() -> dict:
    return {"preset": "sinusoidal", "amplitude": 0.03, "frequency": 1.0}


@dataclass
class RunConfig:
    """Validated run parameters; flags override file values.

    This is the one statement of the config schema: each field carries
    its kind check, its payload echo and the commands that read it. Only
    those commands take its flag, but a config file may hold every field
    for any command.
    """

    model: dict = _field("", _model, default_factory=_default_model)
    t_max: float = _field(
        "trajectory measure histogram", _finite_number, float, default=TAU, type=float, help="time horizon"
    )
    grid_steps: int = _field(
        "trajectory measure histogram", _integer, int, default=2000, type=int, help="time grid steps"
    )
    seed: int = _field(
        "measure histogram verify", _integer, int, default=12345, type=int, help="unsigned 64-bit RNG seed"
    )
    samples: int = _field("measure histogram", _integer, int, default=1000, type=int, help="sample / candidate count")
    bins: int = _field("histogram", _integer, int, default=50, type=int, help="histogram bin count")
    candidate_pairs: tuple = _field("", _pairs, _pairs_to_json, default=())
    engine: str = _field("trajectory", _text, default="closed_form", choices=_ENGINES, help="evolution engine")
    output: str | None = _field(
        "trajectory measure histogram verify translate", _path_or_null, default=None, metavar="PATH",
        help="payload file (default: stdout)",
    )
    format: str = _field("trajectory histogram", _text, default="csv", choices=_FORMATS, help="payload format")
    dims: tuple = _field(
        "verify", _dims, list, default=(2, 3, 4), type=_int_list, metavar="N,N,...", help="dimensions for verify suites"
    )
    trials: int = _field("verify", _integer, int, default=100, type=int, help="trials per dimension for verify suites")

    def validate(self) -> "RunConfig":
        """Range checks; parse_config has already checked each value's kind."""
        for name, low, high in (
            ("grid_steps", 10, MAX_GRID_STEPS),
            ("seed", 0, 2**64 - 1),
            ("samples", 1, MAX_SAMPLES),
            ("bins", 1, MAX_BINS),
            ("trials", 1, MAX_TRIALS),
        ):
            if not low <= getattr(self, name) <= high:
                raise ValidationError(f"{name}: must be between {low} and {high}, got {getattr(self, name)}")
        if not MIN_GRID_STEP * self.grid_steps <= self.t_max <= MAX_GRID_STEP * self.grid_steps:
            raise ValidationError(
                f"t_max: must be between {MIN_GRID_STEP * self.grid_steps:.3g} and "
                f"{MAX_GRID_STEP * self.grid_steps:.3g} for {self.grid_steps} grid steps, got {self.t_max}"
            )
        if self.engine not in _ENGINES:
            raise ValidationError(f"engine: must be closed_form or integrator, got {self.engine!r}")
        if self.format not in _FORMATS:
            raise ValidationError(f"format: must be csv or json, got {self.format!r}")
        if not self.dims or any(not 2 <= d <= MAX_DIM for d in self.dims):
            raise ValidationError(f"dims: need dimensions between 2 and {MAX_DIM}, got {list(self.dims)}")
        # each suite draws from the stream keyed (seed, suite, dim), so a
        # repeated dim reruns the same instances
        if len(set(self.dims)) != len(self.dims):
            raise ValidationError(f"dims: each dimension may appear once, got {list(self.dims)}")
        if self.output:
            _check_writable(self.output)
        return self

    def echo(self) -> dict:
        """JSON-serializable copy that parse_config accepts back verbatim."""
        return {f.name: f.metadata["echo"](getattr(self, f.name)) for f in fields(self)}


def _check_writable(path: str) -> None:
    """Fail before the run, as ``write_text`` would after it, on an output path
    that holds a null byte, is a directory, or whose directory is missing or
    not writable; the file itself is not created."""
    parent = os.path.dirname(os.path.abspath(path))
    if "\0" in path:
        reason = "embedded null byte"
    elif os.path.isdir(path):
        reason = os.strerror(errno.EISDIR)
    elif not os.path.isdir(parent):
        reason = os.strerror(errno.ENOENT)
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = os.strerror(errno.EACCES)
    else:
        return
    raise ValidationError(f"output: cannot write {path!r} ({reason})")


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults <- JSON file <- flag overrides, check kinds, then validate."""
    data: dict = {}
    if path:
        try:
            data = _read_json(path)
        except OSError as exc:
            raise ParseError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError(f"{path}: top-level config must be a JSON object")
    merged = dict(data)
    merged.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    schema = {f.name: f for f in fields(RunConfig)}
    unknown = set(merged) - set(schema)
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**{name: schema[name].metadata["check"](name, value) for name, value in merged.items()}).validate()


# --- output ---------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def render_csv(header, rows, footer=()) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    lines += list(footer)
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(path: str | None, text: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError(f"output: cannot write {path!r} ({exc.strerror or exc})") from exc
    else:
        sys.stdout.write(text)


@dataclass
class RunReport:
    """Orchestration record; the emitted payload excludes wall-clock timings."""

    command: str
    config: dict
    results: dict
    timings: dict
    violations: list = field(default_factory=list)

    def payload(self, **columns) -> dict:
        """Everything but the timings, with each array column added to results as a list."""
        results = {**self.results, **{name: np.asarray(column).tolist() for name, column in columns.items()}}
        return {"command": self.command, "config": self.config, "results": results, "violations": self.violations}


def _print_summary(report: RunReport) -> None:
    timing = " ".join(f"{k}={v:.3f}s" for k, v in report.timings.items())
    status = "ok" if not report.violations else f"violations={report.violations}"
    print(f"[backflow {report.command}] {status} ({timing})", file=sys.stderr)


# --- commands -------------------------------------------------------------


def _coefficients(config: RunConfig):
    """The model's rates and their Lambda-map coefficients on the config's grid."""
    rates = rates_from_model(config.model)
    return rates, lambda_map_coefficients(rates, make_grid(config.t_max, config.grid_steps))


def _emit(report: RunReport, config: RunConfig, table=None, **columns) -> None:
    """Write the report's payload to the configured output (stdout if none).

    A command with a table (CSV header, rows and the results keys echoed in
    the footer) writes it in the configured format, and its JSON adds the
    columns to results; every other command writes JSON.
    """
    if table is not None and config.format == "csv":
        header, rows, footer_keys = table
        text = render_csv(header, rows, [f"# {key},{_fmt(report.results[key])}" for key in footer_keys])
    else:
        text = render_json(report.payload(**columns))
    write_text(config.output, text)


def cmd_trajectory(config: RunConfig, pair_spec: str) -> tuple[RunReport, int]:
    t0 = time.perf_counter()
    rates, coeffs = _coefficients(config)
    rho1, rho2 = resolve_pair(pair_spec)
    t1 = time.perf_counter()
    traj = trace_distance_trajectory(coeffs, rho1, rho2, engine=config.engine, rates=rates)
    results = {
        "pair": pair_spec,
        "backflow": backflow(traj),
        "initial_distance": float(traj.distances[0]),
        "final_distance": float(traj.distances[-1]),
    }
    t2 = time.perf_counter()

    report = RunReport("trajectory", config.echo(), results, {"setup": t1 - t0, "run": t2 - t1})
    table = (["t", "distance", "sigma"], zip(traj.grid, traj.distances, traj.sigma), ["backflow"])
    _emit(report, config, table, grid=traj.grid, distance=traj.distances, sigma=traj.sigma)
    return report, 0


def cmd_measure(config: RunConfig) -> tuple[RunReport, int]:
    t0 = time.perf_counter()
    _, coeffs = _coefficients(config)
    explicit = tuple(fn() for fn in _NAMED_PAIRS.values()) + tuple(config.candidate_pairs)
    t1 = time.perf_counter()
    result = estimate_measure(coeffs, config.samples, config.seed, explicit)
    t2 = time.perf_counter()

    results = {
        "estimate": result.estimate,
        "bound_type": "lower",
        "best_pair": _pairs_to_json([result.best_pair])[0],
        "candidate_breakdown": {k: float(v) for k, v in sorted(result.candidate_breakdown.items())},
        "samples_evaluated": result.samples_evaluated,
        "seed": result.seed,
    }
    report = RunReport("measure", config.echo(), results, {"setup": t1 - t0, "run": t2 - t1})
    _emit(report, config)
    return report, 0


def cmd_histogram(config: RunConfig) -> tuple[RunReport, int]:
    t0 = time.perf_counter()
    _, coeffs = _coefficients(config)
    t1 = time.perf_counter()
    hist = histogram_backflow(coeffs, config.samples, config.bins, config.seed)
    t2 = time.perf_counter()

    results = {
        "max_sampled": hist.max_sampled,
        "reference_value": hist.reference_value,
        "gap": hist.reference_value - hist.max_sampled,
        "n_samples": hist.n_samples,
        "seed": hist.seed,
    }
    report = RunReport("histogram", config.echo(), results, {"setup": t1 - t0, "run": t2 - t1})
    edges = hist.bin_edges
    table = (
        ["bin_left", "bin_right", "count", "probability"],
        zip(edges[:-1], edges[1:], hist.counts, hist.probabilities),
        ["max_sampled", "reference_value", "n_samples", "seed"],
    )
    _emit(report, config, table, bin_edges=edges, counts=hist.counts, probabilities=hist.probabilities)
    return report, 0


def cmd_verify(config: RunConfig, inject_fault: str | None) -> tuple[RunReport, int]:
    t0 = time.perf_counter()
    checks = run_all(config.seed, config.dims, config.trials, inject_fault)
    t1 = time.perf_counter()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name} worst={check.worst:.6g} bound={check.bound:.6g} trials={check.trials}"
        print(line)
    violations = [check.name for check in checks if not check.passed]
    results = {"checks": [asdict(check) for check in checks], "n_failed": len(violations)}
    report = RunReport("verify", config.echo(), results, {"run": t1 - t0}, violations)
    if config.output:
        _emit(report, config)
    return report, 0 if not violations else 2


def cmd_translate(config: RunConfig, pair_spec: str) -> tuple[RunReport, int]:
    t0 = time.perf_counter()
    rho1, rho2 = resolve_pair(pair_spec)
    hat1, hat2, construction = jointly_translate(rho1, rho2)
    t1 = time.perf_counter()

    results = {
        "pair": pair_spec,
        "overlap": construction.selection.overlap,
        "weights": [construction.selection.weight1, construction.selection.weight2],
        "norm_ratio": construction.norm_ratio,
        "epsilon_max": construction.epsilon_max,
        "epsilon": construction.epsilon,
        "shift": matrix_to_json(construction.shift.entries),
        "translated": _pairs_to_json([(hat1, hat2)])[0],
        "min_eigenvalues": [hat1.min_eigenvalue, hat2.min_eigenvalue],
        "distance_preserved": abs(trace_distance(hat1, hat2) - trace_distance(rho1, rho2)),
    }
    report = RunReport("translate", config.echo(), results, {"run": t1 - t0})
    _emit(report, config)
    return report, 0


# --- argument parsing -----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid input (exit 1); 2 is reserved for numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# command -> (help, run given the config and the parsed flags)
_COMMANDS = {
    "trajectory": ("trace distance of one pair over time", lambda cfg, args: cmd_trajectory(cfg, args.pair)),
    "measure": ("sampled lower bound on the backflow measure", lambda cfg, args: cmd_measure(cfg)),
    "histogram": ("backflow histogram over random pure orthogonal pairs", lambda cfg, args: cmd_histogram(cfg)),
    "verify": ("run the structural property suites", lambda cfg, args: cmd_verify(cfg, args.inject_fault)),
    "translate": ("shift a non-orthogonal pair into the interior", lambda cfg, args: cmd_translate(cfg, args.pair)),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, taking --config and the flags of the fields it reads."""
    parser = _Parser(
        prog="backflow",
        description="Trace-distance backflow analysis of the three-level decay model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (help_text, _) in _COMMANDS.items():
        commands[command] = p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        for f in fields(RunConfig):
            if command in f.metadata["commands"]:
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None, **f.metadata["options"])
    commands["trajectory"].add_argument(
        "--pair", default="mpair", help="named pair (mpair|pure-ab|pure-a-plus) or JSON file"
    )
    commands["verify"].add_argument("--inject-fault", choices=["shift-sign"], help=argparse.SUPPRESS)
    commands["translate"].add_argument("--pair", required=True, help="named pair or JSON file with two matrices")
    return parser


def _overrides_from(args: argparse.Namespace) -> dict:
    """The flags of the fields this command reads; None means not given."""
    return {f.name: getattr(args, f.name) for f in fields(RunConfig) if args.command in f.metadata["commands"]}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, _overrides_from(args))
        report, code = _COMMANDS[args.command][1](config, args)
    except BackflowError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalFailure) else 1
    _print_summary(report)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
