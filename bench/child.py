"""One benchmark job: run a workload once in this fresh process.

The job goes through the CLI's own entry points (``cli.parse_config`` and
then ``cmd_histogram``, ``cmd_measure`` or ``cmd_verify``), writes the
payload into the working directory, and then checks it outside the timed
region. Right before and after the timed region it runs the host-speed
probe of ``calibrate.py``. It writes its timings, probe times, peak
memory, payload digest and check results as JSON to the path given by
``--result``; given ``--spans`` it traces the package (see ``spans.py``)
and writes the spans to that path.

Run by ``bench/run.py``; the working directory must be a scratch
directory, since the payload is written there under a relative name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import time

REFERENCE = 1.0 - math.exp(-0.12)
ORACLE_SAMPLES = 8
ORACLE_TOLERANCE = 1e-9
GATE_TOLERANCE = 1e-5
VERIFY_CHECKS = 33

# Inputs per workload. The bench seed is the only input that varies; the
# CLI sees it as the config seed.
SIZES = {
    "histogram": {"samples": 256, "grid_steps": 2000, "bins": 50, "format": "csv"},
    "measure-coarse": {"samples": 200, "grid_steps": 400},
    "verify": {"dims": (2, 3, 4), "trials": 10},
}
PAYLOAD = {"histogram": "payload.csv", "measure-coarse": "payload.json", "verify": "payload.json"}


def _overrides(workload: str, seed: int) -> dict:
    return dict(SIZES[workload], seed=seed, output=PAYLOAD[workload])


def _oracle_backflows(coeffs, pairs, rise_tolerance: float):
    """Reference backflows: evolve each state on its own, then eigvalsh.

    The map keeps the (b, c) block, scales the excited population by
    |f|^2 and its coherences by f, and feeds g1, g2 of the excited
    population into the ground levels.
    """
    import numpy as np

    f = coeffs.f
    scale = np.ones((f.size, 3, 3), dtype=complex)
    scale[:, 0, 0] = np.abs(f) ** 2
    scale[:, 0, 1:] = f[:, None]
    scale[:, 1:, 0] = np.conj(f)[:, None]
    values = []
    for rho1, rho2 in pairs:
        evolved = []
        for rho in (rho1.entries, rho2.entries):
            out = scale * rho
            out[:, 1, 1] += coeffs.g1 * rho[0, 0]
            out[:, 2, 2] += coeffs.g2 * rho[0, 0]
            evolved.append(out)
        distances = 0.5 * np.abs(np.linalg.eigvalsh(evolved[0] - evolved[1])).sum(axis=-1)
        inc = np.diff(distances)
        values.append(float(inc[inc > rise_tolerance].sum()))
    return np.array(values)


def _histogram_checks(config, text: str) -> tuple[list, int]:
    import numpy as np

    from backflow import lambda_map_coefficients, make_grid, rates_from_model, rng_stream
    from backflow import sample_pure_orthogonal_pair, sampled_backflows
    from backflow.measure import RISE_TOLERANCE

    lines = text.splitlines()
    footer = dict(line[2:].split(",", 1) for line in lines if line.startswith("# "))
    counts = [int(line.split(",")[2]) for line in lines[1:] if not line.startswith("#")]
    reference = float(footer["reference_value"])
    max_sampled = float(footer["max_sampled"])

    coeffs = lambda_map_coefficients(rates_from_model(config.model), make_grid(config.t_max, config.grid_steps))
    program = sampled_backflows(coeffs, ORACLE_SAMPLES, config.seed, rise_tolerance=RISE_TOLERANCE)
    pairs = [sample_pure_orthogonal_pair(3, rng_stream(config.seed, i)) for i in range(ORACLE_SAMPLES)]
    oracle = _oracle_backflows(coeffs, pairs, RISE_TOLERANCE)
    deviation = float(np.abs(program - oracle).max())
    checks = [
        ("reference-value", abs(reference - REFERENCE) <= GATE_TOLERANCE, reference),
        ("counts-sum-to-samples", sum(counts) == config.samples, sum(counts)),
        ("max-sampled-below-reference", max_sampled < reference, max_sampled),
        ("eigvalsh-oracle", deviation <= ORACLE_TOLERANCE, deviation),
    ]
    return checks, config.samples


def _measure_checks(config, text: str) -> tuple[list, int]:
    import numpy as np

    results = json.loads(text)["results"]
    pair = [np.array([[complex(*cell) for cell in row] for row in rho]) for rho in results["best_pair"]]
    distance = 0.5 * float(np.abs(np.linalg.eigvalsh(pair[0] - pair[1])).sum())
    candidates = 2 * config.samples + 3
    checks = [
        ("estimate-reaches-reference", abs(results["estimate"] - REFERENCE) <= GATE_TOLERANCE, results["estimate"]),
        ("best-pair-orthogonal", distance >= 1.0 - 1e-8, distance),
        ("candidates-evaluated", results["samples_evaluated"] == candidates, results["samples_evaluated"]),
    ]
    return checks, candidates


# Checks whose trial count is the number of random instances (pairs,
# triples or single states) one suite draws; each draw is counted once.
_VERIFY_INSTANCE_CHECKS = (
    "metric-symmetry",
    "jordan-hahn-reconstruction",
    "translate-strictly-interior",
    "rescaled-backflow-law",
    "distance-contraction-bound",
    "period-return-identity",
    "integrator-agreement",
)


def _verify_checks(config, text: str) -> tuple[list, int]:
    """The 33 property checks; the work count is the random instances drawn."""
    results = json.loads(text)["results"]
    checks = [(c["name"], bool(c["passed"]), c["worst"]) for c in results["checks"]]
    checks.append(("all-checks-reported", len(checks) == VERIFY_CHECKS, len(checks)))
    trials = {c["name"]: c["trials"] for c in results["checks"]}
    return checks, sum(trials.get(name, 0) for name in _VERIFY_INSTANCE_CHECKS)


CHECKS = {"histogram": _histogram_checks, "measure-coarse": _measure_checks, "verify": _verify_checks}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    import calibrate  # before the span recorder rebinds numpy's eigensolver
    import backflow.cli as cli

    uninstall = None
    if args.spans:
        import spans

        recorder = spans.Recorder(args.run_id)
        uninstall = spans.install(recorder)
    config = cli.parse_config(None, _overrides(args.workload, args.seed))
    ready = time.monotonic()
    probe_before = calibrate.probe()
    start = time.monotonic()
    if args.workload == "histogram":
        _, code = cli.cmd_histogram(config)
    elif args.workload == "measure-coarse":
        _, code = cli.cmd_measure(config)
    else:
        _, code = cli.cmd_verify(config, None)
    done = time.monotonic()
    probe_after = calibrate.probe()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = []
    if uninstall is not None:
        uninstall()
        recorder.dump(args.spans)
        layers = spans.layer_names()

    with open(config.output, "rb") as handle:
        payload = handle.read()
    checks, pairs = CHECKS[args.workload](config, payload.decode("utf-8"))
    checks.append(("exit-code-zero", code == 0, code))
    result = {
        "ready": ready,
        "start": start,
        "done": done,
        "probe_s": [probe_before, probe_after],
        "peak_rss_mb": peak_kb / 1024.0,
        "digest": hashlib.sha256(payload).hexdigest(),
        "pairs": pairs,
        "checks": [[name, bool(ok), float(value)] for name, ok, value in checks],
        "layers": layers,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
