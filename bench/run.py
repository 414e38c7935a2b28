"""Benchmark of the backflow CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload histogram --seed 1 --seconds 30 --trace 0

Each job runs one workload once in a fresh child process (``bench/child.py``)
through the CLI's entry points. Jobs run one at a time, a closed loop with
one client, until ``--seconds`` have passed and at least a minimum number
of jobs has finished; the metrics are medians over the jobs.

With ``--trace 0`` the jobs are untraced and the metrics are the
end-to-end ones: setup_s (child launch until config parsed), run_s (first
compute call until the payload is written), pairs_per_s, peak_rss_mb.
The two times are scaled to a reference host speed by the probe of
``bench/calibrate.py``; the unscaled medians are printed as comments.
With ``--trace 1`` traced and untraced jobs alternate with
``python -X importtime`` probes, and the metrics are per-layer times and
exact counts from the spans of ``bench/spans.py``.

Every job checks its payload; the payload digest must repeat across all
jobs of a run, traced or not, and traced jobs must repeat every exact
count. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The metric names and units are
the ones listed in BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("histogram", "measure-coarse", "verify")
# Untraced jobs per run at the least, however short --seconds is; a traced
# run needs two traced jobs to compare counts and one untraced job for the
# tracing overhead.
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
JOB_TIMEOUT_S = 60
# One BLAS/OpenMP thread and the package's default single-threaded
# sampling, so jobs do not compete for the cores with their own threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COUNTERS = tuple(counter for counter, _ in spans.COUNTERS.values())

FACTS_PROBE = """
import json, os, platform
import backflow, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "backflow_path": os.path.dirname(backflow.__file__),
}))
"""


class JobFailed(RuntimeError):
    pass


def job_env() -> dict:
    env = dict(os.environ)
    env.pop("BACKFLOW_THREADS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe(work: Path, env: dict) -> tuple[dict, float, float]:
    """Machine facts plus `import backflow` and scipy import seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", FACTS_PROBE],
        cwd=work, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise JobFailed(f"import probe failed:\n{proc.stderr[-2000:]}")
    facts = json.loads(proc.stdout.splitlines()[-1])
    import_s, scipy_s = parse_importtime(proc.stderr)
    return facts, import_s, scipy_s


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative seconds of `backflow` and of the outermost scipy imports.

    ``-X importtime`` prints children before parents, indented two spaces
    per level; reading it backwards visits parents first.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        indent = len(name) - len(name.lstrip(" "))
        entries.append((indent, name.strip(), int(cumulative) * 1e-6))
    backflow_s = scipy_s = 0.0
    stack: list[tuple[int, str]] = []
    for indent, name, seconds in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        under_backflow = any(n == "backflow" for _, n in stack)
        if name == "backflow" and not stack:
            backflow_s += seconds
        elif is_scipy and under_backflow and not any(n.split(".")[0] == "scipy" for _, n in stack):
            scipy_s += seconds
        stack.append((indent, name))
    return backflow_s, scipy_s


def run_job(work: Path, env: dict, workload: str, seed: int, index: int, traced: bool) -> dict:
    result = work / f"job{index}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed), "--result", str(result)]
    span_file = work / f"spans{index}.json"
    if traced:
        cmd += ["--spans", str(span_file), "--run-id", f"{workload}-{seed}-{index}"]
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb+") as err:
        launch = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, stdout=out, stderr=err, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise JobFailed(f"{workload} job {index} exceeded {JOB_TIMEOUT_S} s") from exc
        finished = time.monotonic()
        err.seek(0)
        errors = err.read().decode("utf-8", "replace")
    if proc.returncode != 0:
        raise JobFailed(f"{workload} job {index} exited with {proc.returncode}:\n{errors[-2000:]}")
    with open(result, encoding="utf-8") as handle:
        job = json.load(handle)
    probe_before, probe_after = job["probe_s"]
    job.update(
        traced=traced,
        raw_setup_s=job["ready"] - launch,
        raw_run_s=job["done"] - job["start"],
        wall_s=finished - launch,
    )
    # seconds at the reference host speed; see calibrate.py
    job["setup_s"] = job["raw_setup_s"] * calibrate.REFERENCE_S / probe_before
    job["run_s"] = job["raw_run_s"] * calibrate.REFERENCE_S / statistics.mean(job["probe_s"])
    if traced:
        with open(span_file, encoding="utf-8") as handle:
            recorded = json.load(handle)
        job["layers_measured"] = dict(spans.summarize(recorded["spans"]), **recorded["counts"])
        span_file.unlink()
    return job


def run_jobs(work: Path, workload: str, seed: int, seconds: int, trace: bool):
    """Jobs until the time is up; returns (jobs, facts, import samples)."""
    env = job_env()
    facts, *_ = probe(work, env)  # also fills the bytecode and file caches
    if Path(facts["backflow_path"]).resolve() != (ROOT / "src" / "backflow").resolve():
        raise JobFailed(f"imported backflow from {facts['backflow_path']}, not from this checkout")
    jobs: list[dict] = []
    imports: list[tuple[float, float]] = []
    start = time.monotonic()
    while True:
        traced = trace and len(jobs) % 2 == 0
        jobs.append(run_job(work, env, workload, seed, len(jobs), traced))
        if trace:
            imports.append(probe(work, env)[1:])
        n_traced = sum(job["traced"] for job in jobs)
        n_plain = len(jobs) - n_traced
        enough = n_traced >= MIN_TRACED_JOBS and n_plain >= 1 if trace else n_plain >= MIN_JOBS
        # stop at the job boundary nearest to --seconds
        per_job = statistics.median(job["wall_s"] for job in jobs)
        if enough and time.monotonic() - start + per_job / 2 > seconds:
            return jobs, facts, imports


def check_jobs(jobs: list[dict]) -> list[tuple[str, bool]]:
    """Every job's own checks, plus repeat checks across the jobs of the run."""
    checks = [(f"job{i}.{name}", ok) for i, job in enumerate(jobs) for name, ok, _ in job["checks"]]
    first = jobs[0]
    for i, job in enumerate(jobs[1:], start=1):
        checks.append((f"job{i}.digest-repeats", job["digest"] == first["digest"]))
    counts = [exact_counts(job) for job in jobs if job["traced"]]
    for i, job_counts in enumerate(counts[1:], start=1):
        checks.append((f"traced{i}.counts-repeat", job_counts == counts[0]))
    return checks


def exact_counts(job: dict) -> dict:
    return {k: v for k, v in job["layers_measured"].items() if k.endswith(".calls") or k in COUNTERS}


def end_to_end(jobs: list[dict]) -> dict[str, list[float]]:
    plain = [job for job in jobs if not job["traced"]]
    return {
        "setup_s": [job["setup_s"] for job in plain],
        "run_s": [job["run_s"] for job in plain],
        "pairs_per_s": [job["pairs"] / job["run_s"] for job in plain],
        "peak_rss_mb": [job["peak_rss_mb"] for job in plain],
    }


def per_layer(jobs: list[dict], imports: list[tuple[float, float]], names: list[str]) -> dict[str, list[float]]:
    traced = [job for job in jobs if job["traced"]]
    layers = set(traced[0]["layers"])
    plain_run = statistics.median(job["run_s"] for job in jobs if not job["traced"])
    samples = {
        "setup.import_s": [seconds for seconds, _ in imports],
        "setup.import_scipy_s": [seconds for _, seconds in imports],
        "trace.overhead_frac": [job["run_s"] / plain_run - 1.0 for job in traced],
    }
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name in COUNTERS or (layer in layers and kind in ("s", "self_s", "calls")):
            # a layer the workload never reaches has no spans: zero time and calls
            samples.setdefault(name, [float(job["layers_measured"].get(name, 0.0)) for job in traced])
    return samples


def describe(name: str, values: list[float], unit: str) -> str:
    quartiles = statistics.quantiles(values, n=4)
    return (
        f"{name} = {statistics.median(values):.6g} {unit} "
        f"(median of n={len(values)}; quartiles {quartiles[0]:.6g}..{quartiles[2]:.6g}; "
        f"range {min(values):.6g}..{max(values):.6g})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running job and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "backflow" / "__init__.py").is_file():
        print(f"error: no backflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    metrics = declared["per_layer" if args.trace else "end_to_end"]

    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
            jobs, facts, imports = run_jobs(Path(tmp), args.workload, args.seed, args.seconds, bool(args.trace))
            names = [metric["name"] for metric in metrics]
            samples = per_layer(jobs, imports, names) if args.trace else end_to_end(jobs)
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    unknown = [name for name in names if name not in samples]
    if unknown:
        print(f"error: BENCHMARK.json names metrics this benchmark does not measure: {unknown}", file=sys.stderr)
        return 1

    checks = check_jobs(jobs)
    failed = [name for name, ok in checks if not ok]
    facts.update(
        nproc=os.cpu_count(),
        cpu=cpu_model(),
        job_thread_env=dict(THREAD_ENV, BACKFLOW_THREADS="unset"),
    )
    print(f"# machine: {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {len(jobs)} jobs, payload sha256 {jobs[0]['digest']}")
    if not args.trace:
        for name in ("raw_setup_s", "raw_run_s"):
            print(f"# {describe(name, [job[name] for job in jobs], 's')}, unscaled")
        probes = [p for job in jobs for p in job["probe_s"]]
        print(f"# {describe('probe_s', probes, 's')}, reference {calibrate.REFERENCE_S} s")
    for metric in metrics:
        print(describe(metric["name"], samples[metric["name"]], metric["unit"]))
    print(f"failed_frac = {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} checks failed)")
    for name in failed:
        print(f"# FAILED {name}")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {
            metric["name"]: {"value": statistics.median(samples[metric["name"]]), "unit": metric["unit"]}
            for metric in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
