"""Walkthrough: dependent sequences, exact moments, and m -> 1 blocking.

The 2-runs count is a sum of 1-dependent 0/1 variables X_i = t_i t_{i+1}
over independent trials t.  We enumerate its joint law exactly, check the
neighborhood variance identity, certify 1-dependence by factorization, and
reduce the m-dependent windows of a (k1,k2)-runs count to 1-dependent blocks.
"""

import sys

import numpy as np

from psdapprox import (
    K1K2Model,
    TwoRunsModel,
    compute_moments,
    dependence_certificate,
    two_runs_moment_set,
)

print("=== 2-runs with non-identical trials ===")
p = [0.10, 0.20, 0.30, 0.40, 0.50, 0.25, 0.35]
model = TwoRunsModel(p)
print(f"trials = {p}  ->  n = {model.n} summands, 2^{model.trial_count} outcomes")

moments = compute_moments(model)
closed = two_runs_moment_set(model)
print(f"E(W) enumerated = {moments.mean_w:.10f}   closed form = {closed.mean_w:.10f}")
print(f"Var(W) enumerated = {moments.var_w:.10f} closed form = {closed.var_w:.10f}")
print(f"variance identity residual = "
      f"{abs(moments.var_w - moments.var_from_neighborhoods()):.2e}")

print()
print("per-index closed-form vs enumerated bracket moments:")
print(" i   E[X_N1(2X_N2-X_N1-1)]     enumerated        difference")
for i in range(model.n):
    c, o = closed.e_n1_bracket[i], moments.e_n1_bracket[i]
    print(f"{i + 1:2d}   {c:.12f}        {o:.12f}    {abs(c - o):.1e}")

print()
print("=== neighborhood windows truncate at the boundary ===")
for i in (1, 3, model.n):
    inner = model.neighborhood_indices(i, 1)
    outer = model.neighborhood_indices(i, 2)
    print(f"i={i}: N_(i,1) = {list(inner)}   N_(i,2) = {list(outer)}")

print()
print("=== 1-dependence certificate ===")
# Each check printed as holding is collected; the gap-1 line is informational.
checks = [dependence_certificate(model, gap=2)]
print(f"2-runs joint law factorizes across gap-2 splits: {checks[-1]}")
print(f"...but not across adjacent splits (it is truly dependent): "
      f"{dependence_certificate(model, gap=1)}")

print()
print("=== blocking the m-dependent windows of a (k1,k2)-runs count ===")
k1, k2, n = 1, 2, 3
m = k1 + k2 - 1
runs = K1K2Model(k1, k2, n, [0.35] * ((n + 1) * m))
bits = runs.enumerate_bits()
windows = np.stack([runs.window(bits.T, j) for j in range(1, n * m + 1)]).T
print(f"(k1,k2) = ({k1},{k2}): {n * m} window indicators over {k1 + k2} trials each, "
      f"dependence radius m = {m}")
blocks = windows.reshape(-1, n, m).sum(axis=2)
print(f"summed in {n} blocks of {m}: the model's summands, radius {runs.dependence_radius}")
checks.append(np.array_equal(blocks, runs.x_values()))
print(f"blocks equal the model's summands outcome by outcome: {checks[-1]}")
checks.append(np.array_equal(windows.sum(axis=1), runs.w_values()))
print(f"window total equals block total outcome by outcome: {checks[-1]}")
checks.append(dependence_certificate(runs, gap=2))
print(f"the blocks pass the factorization certificate: {checks[-1]}")
sys.exit(0 if all(checks) else 1)
