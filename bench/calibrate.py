"""Host-speed calibration for the benchmark's timings.

This machine shares its cores with other work, and the speed a job gets
drifts by a quarter or more over seconds to minutes; CPU time tracks wall
time, so the drift is contention for the core, not waiting. `probe` times
a fixed amount of work of the kind the workloads do (batched Hermitian
3x3 eigensolves and a Python loop over small numpy products) and has no
code of the program in it. Each job runs it right before and right after
its timed region, and the job's times are scaled by ``REFERENCE_S /
probe seconds``: seconds on a host where the probe takes ``REFERENCE_S``.
A faster program lowers the scaled time; a slower host does not raise it.
"""

from __future__ import annotations

import time

import numpy as np

# Roughly the probe's median time (0.09-0.10 s) on the 2-vCPU host the
# benchmark was written on; scaled times read as seconds on that host.
REFERENCE_S = 0.1
ROUNDS = 100

# Bound now: the span recorder later rebinds numpy.linalg.eigvalsh, and
# the probe must not show up in the program's spans.
_eigvalsh = np.linalg.eigvalsh
_rng = np.random.default_rng(0)
_BATCH = _rng.standard_normal((256, 3, 3)) + 1j * _rng.standard_normal((256, 3, 3))
_BATCH = _BATCH + np.conj(_BATCH.transpose(0, 2, 1))
_SMALL = [_rng.standard_normal((3, 3)) for _ in range(64)]
_warm: list[bool] = []


def _work(rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        total += float(_eigvalsh(_BATCH)[:, -1].sum())
        for matrix in _SMALL:
            total += float(np.trace(matrix @ matrix))
    return total


def probe() -> float:
    """Seconds the fixed calibration work takes now."""
    if not _warm:
        _work(1)  # first-call set-up of the kernels stays out of every probe
        _warm.append(True)
    start = time.perf_counter()
    _work(ROUNDS)
    return time.perf_counter() - start

