"""Self-tests of the benchmark: span arithmetic, import-time parsing, and
determinism of exact counts and payload digests across whole runs.

Run from the checkout root with ``python3 -m pytest bench/test_bench.py``.
The determinism tests start the benchmark itself and take about two
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

COUNT_KINDS = (".calls", ".matrices", ".steps", ".candidates", ".output_bytes")


def _run(workload: str, seed: int, trace: int, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _digest(stdout: str) -> str:
    line = next(line for line in stdout.splitlines() if line.startswith("# workload"))
    return line.rsplit(" ", 1)[1]


def test_summarize_self_time_and_nested_same_name():
    ms = 1_000_000
    recorded = [
        ["outer", 0, 10 * ms, -1],
        ["inner", 1 * ms, 4 * ms, 0],
        ["inner", 2 * ms, 3 * ms, 1],  # reached again inside itself
        ["leaf", 5 * ms, 9 * ms, 0],
    ]
    out = spans.summarize(recorded)
    assert out["outer.s"] == pytest.approx(10e-3)
    assert out["outer.self_s"] == pytest.approx(3e-3)
    assert out["inner.s"] == pytest.approx(3e-3)
    assert out["inner.calls"] == 2
    assert out["inner.self_s"] == pytest.approx(3e-3)
    assert out["leaf.self_s"] == pytest.approx(4e-3)


def test_parse_importtime_takes_outermost_scipy_under_backflow():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy",
            "import time:       400 |      12000 |       scipy",
            "import time:       700 |     600000 |     scipy.integrate",
            "import time:      9000 |     700000 |   backflow.dynamics",
            "import time:       500 |     800000 | backflow",
        ]
    )
    assert run.parse_importtime(text) == pytest.approx((0.8, 0.6))


def test_benchmark_json_names_only_metrics_the_benchmark_gives():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["end_to_end"]} == {"setup_s", "run_s", "pairs_per_s", "peak_rss_mb"}
    design = json.loads((BENCH / "design.json").read_text())
    assert set(design["per_layer"]) == {m["name"] for m in declared["per_layer"]}
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _run("histogram", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_and_digests_repeat_across_runs(workload):
    first, second, plain = _run(workload, 5, 1), _run(workload, 5, 1), _run(workload, 5, 0)
    results = []
    for proc in (first, second, plain):
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout
        results.append(result["metrics"])
    # Within a run the benchmark already requires equal digests for traced
    # and untraced jobs and equal counts for its traced jobs.
    assert _digest(first.stdout) == _digest(second.stdout) == _digest(plain.stdout)
    counts = [{k: v["value"] for k, v in r.items() if k.endswith(COUNT_KINDS)} for r in results[:2]]
    assert counts[0] and counts[0] == counts[1]
