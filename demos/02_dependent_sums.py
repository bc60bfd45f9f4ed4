"""Walkthrough: dependent sequences, exact moments, and m -> 1 blocking.

The 2-runs count is a sum of 1-dependent 0/1 variables X_i = t_i t_{i+1}
over independent trials t.  We enumerate its joint law exactly, check the
neighborhood variance identity, certify 1-dependence by factorization, and
reduce an m-dependent window sequence to 1-dependent blocks.
"""

import numpy as np

from psdapprox import (
    K1K2Model,
    K1K2WindowSequence,
    TwoRunsModel,
    block_m_dependent,
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
print(f"2-runs joint law factorizes across gap-2 splits: "
      f"{dependence_certificate(model, gap=2)}")
print(f"...but not across adjacent splits (it is truly dependent): "
      f"{dependence_certificate(model, gap=1)}")

print()
print("=== blocking an m-dependent window sequence ===")
k1, k2, n = 1, 2, 3
m = k1 + k2 - 1
trials = [0.35] * ((n + 1) * m)
windows = K1K2WindowSequence(k1, k2, n, trials)
print(f"(k1,k2) = ({k1},{k2}): {windows.n} windows, dependence radius {m}")
blocked = block_m_dependent(windows)
print(f"blocked into {blocked.n} groups of {m}: radius {blocked.dependence_radius}")
direct = K1K2Model(k1, k2, n, trials)
same = np.array_equal(blocked.x_values(), direct.x_values())
print(f"blocked variables equal the 1-dependent block model outcome-wise: {same}")
print(f"blocked sequence passes the factorization certificate: "
      f"{dependence_certificate(blocked, gap=2)}")
