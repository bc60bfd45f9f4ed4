"""Walkthrough: every bound variant, certified against the exact distance.

For an enumerable 2-runs instance we fit Poisson and negative-binomial
targets, evaluate the main bound (exact conditional shift-regularity, from
the model's own imbedding engine through ``build_conditional_terms``), the
smoothing-constant variant d1, the first-moment variant d2, their minimum,
and the crude bound, and verify each dominates the exact total variation
computed by the dynamic-programming oracle.
"""

import json
import sys

from psdapprox import (
    TwoRunsModel,
    bound_crude,
    bound_d1,
    bound_d2,
    bound_min,
    build_conditional_terms,
    build_smoothing,
    compute_moments,
    dp_distribution,
    exact_tv,
    nb_fit_from_moments,
    poisson_family,
    theorem31_bound,
    two_runs_automaton,
    two_runs_bound,
)

n, p = 10, 0.3
model = TwoRunsModel([p] * (n + 1))
moments = compute_moments(model)
law = dp_distribution(two_runs_automaton(), model.trial_probs)
print(f"2-runs, n = {n}, iid p = {p}:  E(W) = {moments.mean_w:.4f}, "
      f"Var(W) = {moments.var_w:.4f}")

targets = {
    "poisson (one-moment fit)": poisson_family(moments.mean_w),
    "negative binomial (two-moment fit)": nb_fit_from_moments(
        moments.mean_w, moments.var_w
    ),
}

violated = False
for name, spec in targets.items():
    tv = exact_tv(law, spec.pmf())
    print()
    print(f"--- target: {name}  (a = {spec.a:.4f}, b = {spec.b:.4f}) ---")
    print(f"exact d_TV = {tv.value:.6f}  (+/- {tv.slack:.1e})")
    smoothing = build_smoothing(model)
    reports = {
        "theorem31": theorem31_bound(moments, build_conditional_terms(model), spec),
        "d1": bound_d1(moments, smoothing, spec),
        "d2": bound_d2(moments, spec),
        "min": bound_min(moments, smoothing, spec),
        "crude": bound_crude(moments, spec),
        "closed-form": two_runs_bound(model, spec),
    }
    for label, report in reports.items():
        dominated = "ok" if tv.upper <= report.total else "VIOLATED"
        violated |= dominated == "VIOLATED"
        print(f"{label:12s} total = {report.total:10.6f}   exact <= bound: {dominated}")

print()
print("--- itemized report (min variant, NB target), serialized ---")
spec = targets["negative binomial (two-moment fit)"]
report = bound_min(moments, build_smoothing(model), spec)
print(json.dumps(report.to_json(), indent=2, sort_keys=True))
sys.exit(1 if violated else 0)
