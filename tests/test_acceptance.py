"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Every tolerance is pinned here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from psdapprox.bounds import (
    ExactConditionalTerms,
    SmoothingEstimate,
    bound_d1,
    bound_d2,
    bound_min,
    build_smoothing,
    exact_tv,
    m_star,
    theorem31_bound,
)
from psdapprox.errors import PreconditionError
from psdapprox.families import (
    binomial_family,
    delta_g_uniform_bound,
    indicator,
    negative_binomial_family,
    poisson_family,
    stein_apply,
    stein_solve,
)
from psdapprox.oracle import (
    brute_force_distribution,
    dp_distribution,
    k1k2_automaton,
    moment_oracle,
    two_runs_automaton,
)
from psdapprox.runs import (
    K1K2Model,
    TwoRunsModel,
    k1k2_bound,
    k1k2_moment_set,
    nb_fit_from_moments,
    nb_moment_match_2runs,
    table1,
    table1_mismatches,
    two_runs_bound,
    two_runs_cbar,
    two_runs_moment_set,
)
from psdapprox.sequences import compute_moments


def _verdict(num: int, label: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


STEIN_FAMILIES = (
    [("poisson", poisson_family(lam)) for lam in (0.5, 1.0, 4.0)]
    + [
        (f"nb({alpha},{pbar})", negative_binomial_family(alpha, pbar))
        for alpha in (1, 3)
        for pbar in (0.3, 0.6)
    ]
    + [
        (f"binom({n},{p})", binomial_family(n, p))
        for n in (5, 20)
        for p in (0.2, 0.5)
    ]
)


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    mismatches = table1_mismatches()
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        f"all 18 table cells match to 6 decimals in {elapsed * 1e3:.1f} ms",
        mismatches == [] and elapsed < 1.0,
    )


def test_criterion_2_comparison_claim():
    rows = table1()
    ok = all(ours < other for _, _, ours, other in rows)
    _verdict(2, "closed-form bound beats the comparison bound at every cell", ok)


def test_criterion_3_stein_identity_suite():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _, spec in STEIN_FAMILIES:
        table = spec.pmf(tail_target=1e-22)
        p = table.as_array()
        k_top = len(p) - 1
        hi = k_top if spec.max_support is None else min(k_top, spec.max_support)
        for _ in range(100):
            gv = np.zeros(k_top + 3)
            gv[1 : hi + 1] = rng.uniform(-1, 1, size=hi)

            def g(k, gv=gv):
                return gv[k] if 0 <= k < len(gv) else 0.0

            # g vanishes beyond the table, so the expectation is a finite sum;
            # the remaining uncertainty is the ulp-level recursion drift.
            val = math.fsum(p[k] * stein_apply(spec, g, k) for k in range(len(p)))
            worst = max(worst, abs(val))
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        f"|E[A g(Z)]| <= {worst:.2e} over 11 families x 100 g in {elapsed:.2f} s",
        worst < 1e-10 and elapsed < 10.0,
    )


def test_criterion_4_delta_g_bound_suite():
    rng = np.random.default_rng(777)
    ok = True
    worst_margin = -math.inf
    for _, spec in STEIN_FAMILIES:
        cap = delta_g_uniform_bound(spec)
        for _ in range(200):
            size = int(rng.integers(0, 32))
            A = set(int(x) for x in rng.choice(31, size=size, replace=False))
            g = stein_solve(spec, indicator(A), f_bound=1.0)
            sup = g.sup_abs_delta()
            worst_margin = max(worst_margin, sup - cap)
            if sup > cap + 1e-12:
                ok = False
    _verdict(
        4,
        f"sup|Delta g| - uniform bound <= {worst_margin:.2e} over 11 x 200 sets",
        ok,
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(55)

    def random_probs(count):
        return [Fraction(int(rng.integers(0, 17)), 16) for _ in range(count)]

    checked = 0
    ok = True
    for _ in range(20):  # 2-runs, n+1 <= 15 trials
        trials = int(rng.integers(8, 16))
        probs = random_probs(trials)
        model = TwoRunsModel([float(x) for x in probs])
        dp = dp_distribution(two_runs_automaton(), probs, exact=True)
        bf = brute_force_distribution(model, exact=True, exact_probs=probs)
        ok = ok and dp.masses == bf.masses
        checked += 1
    k1k2_grid = [(1, 1, n) for n in (7, 10, 14)] + [
        (1, 2, n) for n in (3, 4, 5, 6)
    ] + [(2, 2, n) for n in (2, 3, 4)]
    for k1, k2, n in k1k2_grid:
        for _ in range(3):
            m = k1 + k2 - 1
            probs = random_probs((n + 1) * m)
            model = K1K2Model(k1, k2, n, [float(x) for x in probs])
            dp = dp_distribution(k1k2_automaton(k1, k2), probs, exact=True)
            bf = brute_force_distribution(model, exact=True, exact_probs=probs)
            ok = ok and dp.masses == bf.masses
            checked += 1
    _verdict(
        5,
        f"DP law == enumeration law exactly (rational) on {checked} instances",
        ok and checked >= 50,
    )


def test_criterion_6_closed_form_moment_certification():
    rng = np.random.default_rng(66)
    fields = ("e_x", "e_xn1", "e_x_xn1", "e_n1_bracket", "e_x_n1_bracket", "e_x_n2m1")

    def agrees(closed, oracle, n):
        return all(
            abs(getattr(closed, f)[i] - getattr(oracle, f)[i]) <= 1e-12
            for f in fields
            for i in range(n)
        ) and abs(closed.var_w - oracle.var_w) <= 1e-12

    ok = True
    for _ in range(20):
        n = int(rng.integers(4, 9))
        model = TwoRunsModel(rng.uniform(0.0, 0.5, size=n + 1).tolist())
        ok = ok and agrees(two_runs_moment_set(model), moment_oracle(model), n)
    shapes = [(1, 1, 6), (1, 2, 4), (2, 2, 3), (1, 2, 5), (2, 1, 4)]
    count_k = 0
    while count_k < 20:
        k1, k2, n = shapes[count_k % len(shapes)]
        m = k1 + k2 - 1
        model = K1K2Model(k1, k2, n, rng.uniform(0.05, 0.6, size=(n + 1) * m).tolist())
        ok = ok and agrees(k1k2_moment_set(model), moment_oracle(model), n)
        count_k += 1
    _verdict(6, "closed-form moments equal enumeration at every index (40 models)", ok)


def test_criterion_7_bound_domination():
    ok = True
    checked = 0
    for n in range(8, 15):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5):
            model = TwoRunsModel([p] * (n + 1))
            moments = compute_moments(model)
            law = brute_force_distribution(model)
            targets = [poisson_family(moments.mean_w)]
            if moments.var_w > moments.mean_w:
                targets.append(nb_fit_from_moments(moments.mean_w, moments.var_w))
            smoothing = SmoothingEstimate.constant(two_runs_cbar(n), n)
            for spec in targets:
                totals = {
                    "theorem31": theorem31_bound(
                        moments, ExactConditionalTerms(model), spec
                    ).total,
                    "d1": bound_d1(moments, smoothing, spec).total,
                    "d2": bound_d2(moments, spec).total,
                    "min": bound_min(moments, smoothing, spec).total,
                    "closed-form": two_runs_bound(model, spec).total,
                }
                tv = exact_tv(law, spec.pmf())
                for total in totals.values():
                    ok = ok and tv.upper <= total + 1e-12
                    checked += 1
    for n in range(6, 10):
        model = K1K2Model(1, 2, n, [0.3] * ((n + 1) * 2))
        moments = compute_moments(model)
        law = brute_force_distribution(model)
        targets = [poisson_family(moments.mean_w)]
        if moments.var_w > moments.mean_w:
            targets.append(nb_fit_from_moments(moments.mean_w, moments.var_w))
        smoothing = build_smoothing(model)
        for spec in targets:
            totals = {
                "theorem31": theorem31_bound(
                    moments, ExactConditionalTerms(model), spec
                ).total,
                "d1": bound_d1(moments, smoothing, spec).total,
                "d2": bound_d2(moments, spec).total,
                "min": bound_min(moments, smoothing, spec).total,
                "closed-form": k1k2_bound(model, spec).total,
            }
            tv = exact_tv(law, spec.pmf())
            for total in totals.values():
                ok = ok and tv.upper <= total + 1e-12
                checked += 1
    _verdict(7, f"exact TV below every bound variant ({checked} comparisons)", ok)


def test_criterion_8_order_check():
    p = 0.2
    ns = [50, 100, 200, 400, 800]
    totals = []
    for n in ns:
        model = TwoRunsModel([p] * (n + 1))
        moments = two_runs_moment_set(model)
        spec = nb_moment_match_2runs(n, p)
        smoothing = SmoothingEstimate.constant(two_runs_cbar(n), n)
        totals.append(bound_d1(moments, smoothing, spec).total)
    slope = float(np.polyfit(np.log(ns), np.log(totals), 1)[0])
    _verdict(
        8,
        f"log-log slope of d1 totals is {slope:.3f} (target -0.5 +/- 0.1)",
        -0.6 <= slope <= -0.4,
    )


def test_criterion_9_m_star_and_cbar_arithmetic():
    ok = m_star(20) == 10 and m_star(21) == 11
    ok = ok and abs(two_runs_cbar(20) - 4 / math.sqrt(7)) <= 1e-12
    ok = ok and two_runs_cbar(8) == pytest.approx(4.0)
    try:
        two_runs_cbar(7)
        ok = False
        message = "n=7 unexpectedly accepted"
    except PreconditionError as exc:
        message = str(exc)
        ok = ok and "n >= 8" in message
    _verdict(9, f"m*/c-bar arithmetic and boundary handling ({message})", ok)
