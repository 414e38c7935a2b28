#!/usr/bin/env python3
"""Exploratory: can BOTH states of the best pair be mixed in dimension 4?

In dimension 3 the best known pair combines a pure excited state with a
ground mixture. This script probes the natural follow-up in dimension 4
with a two-channel decay model (excited levels a, b decay into ground
levels c, d at the same oscillating rate) and compares three candidate
classes by sampled backflow:

  pure-pure       random pure orthogonal pairs
  subspace-split  random orthogonal pairs: the rescaled Jordan-Hahn split of
                  a random traceless matrix, of ranks (1, 3), (2, 2) or (3, 1)
  both-mixed      the uniform excited mixture vs the uniform ground mixture

This is an exploration, not a verified claim: sampling only produces
lower bounds, and nothing here certifies a global optimum.
"""

import argparse
import sys

import numpy as np

from backflow.measure import backflow, trajectory_from_states
from backflow.statespace import (
    make_density_matrix,
    rng_stream,
    sample_orthogonal_mixed_pair,
    sample_pure_orthogonal_pair,
)

TAU = 2 * np.pi


def two_channel_map_stack(grid: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Closed-form evolution for the 4-level two-channel decay model.

    Basis (a, b, c, d): jumps |c><a| and |d><b| with common rate
    0.03*sin(t). Populations of a/b decay by e = exp(-D) feeding c/d;
    the a-b coherence decays by e, every excited-ground coherence by
    sqrt(e), and the c-d coherence is untouched.
    """
    d_int = 0.03 * (1.0 - np.cos(grid))
    e = np.exp(-d_int)
    root_e = np.exp(-d_int / 2.0)
    m = np.asarray(matrix, dtype=complex)
    out = np.empty((grid.size, 4, 4), dtype=complex)
    out[:, 0, 0] = e * m[0, 0]
    out[:, 1, 1] = e * m[1, 1]
    out[:, 2, 2] = m[2, 2] + (1.0 - e) * m[0, 0]
    out[:, 3, 3] = m[3, 3] + (1.0 - e) * m[1, 1]
    out[:, 0, 1] = e * m[0, 1]
    out[:, 1, 0] = e * m[1, 0]
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
        out[:, i, j] = root_e * m[i, j]
        out[:, j, i] = root_e * m[j, i]
    out[:, 2, 3] = m[2, 3]
    out[:, 3, 2] = m[3, 2]
    return out


def backflow_of(grid, rho1, rho2) -> float:
    states = [two_channel_map_stack(grid, rho.entries) for rho in (rho1, rho2)]
    return backflow(trajectory_from_states(grid, *states))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--grid-steps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    grid = np.linspace(0.0, TAU, args.grid_steps + 1)

    both_mixed = (
        make_density_matrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)),
        make_density_matrix(np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)),
    )
    reference = backflow_of(grid, *both_mixed)

    best_pure = 0.0
    best_subspace = 0.0
    for i in range(args.samples):
        pair = sample_pure_orthogonal_pair(4, rng_stream(args.seed, 0, i))
        best_pure = max(best_pure, backflow_of(grid, *pair))
        pair = sample_orthogonal_mixed_pair(4, rng_stream(args.seed, 1, i))
        best_subspace = max(best_subspace, backflow_of(grid, *pair))

    print(f"samples per class          : {args.samples}")
    print(f"best pure-pure backflow    : {best_pure:.7f}")
    print(f"best subspace-split pair   : {best_subspace:.7f}")
    print(f"both-mixed candidate       : {reference:.7f}")
    if reference > max(best_pure, best_subspace):
        print("-> the both-mixed candidate beats every sampled pair "
              "(consistent with mixed optima in dimension 4; not a proof)")
    else:
        print("-> a sampled pair matched or beat the both-mixed candidate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
