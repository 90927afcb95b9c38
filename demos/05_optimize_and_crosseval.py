"""Optimizing point sets, and how optimized sets transfer.

All measures except the two with kernel kinks in the product term are
differentiable in every point coordinate, so a point set can be pushed
downhill directly: L-BFGS-B with the exact gradient, every coordinate
bounded to [0, 1], keeping the best of several restarts.

A set optimized for one measure is then re-scored under the others.
The ratio (its root under measure m) / (the root of the set optimized
for m) shows how specialized each measure's optima are.  Sets optimized
for the reflection-averaged measure transfer best to the star measure.
"""

import numpy as np

from l2disc import (
    OptimizerConfig,
    cross_evaluate,
    kernel_spec,
    optimize,
    sobol,
    squared_discrepancy,
)

# Three restarts so the demo runs in seconds; more restarts reach the
# published-quality values (see the acceptance tests).
cfg = OptimizerConfig(restarts=3, iterations=3000, seed=11)
init = sobol(16, 2)

spec = kernel_spec("star", 2)
final, trace = optimize(spec, init, cfg)
print("star measure, n=16, d=2:")
print(f"  Sobol start root:      {squared_discrepancy(spec, init).root:.6f}")
print(f"  optimized root:        {np.sqrt(trace.final_value):.6f}")
print(f"  winning restart:       {trace.winner_restart}")
print(f"  objective evaluations: {trace.evaluations}")
print()

# Optimize the same initial set for three different measures, then
# score every set under every measure.
measures = ["star", "ctr", "asd"]
sets = {}
for tag in measures:
    final, trace = optimize(kernel_spec(tag, 2), init, cfg)
    sets[tag] = final
    print(f"optimized for {tag:<4}: root = {np.sqrt(trace.final_value):.6f}")
print()

ratios = cross_evaluate(sets, measures)
print("cross-evaluation ratios (row: scoring measure; column: the")
print("measure the set was optimized for; diagonal is 1 by definition)")
header = "".join(f"{tag:>10}" for tag in measures)
print(f"{'':>6}{header}")
for i, tag in enumerate(measures):
    cells = "".join(f"{ratios[i, j]:>10.4f}" for j in range(len(measures)))
    print(f"{tag:>6}{cells}")
print()
print("every off-diagonal entry is >= 1: no set beats the specialist")
print("under the specialist's own measure.")
