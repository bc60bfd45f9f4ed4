"""Tests for the bound variants, smoothing machinery, and TV utilities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from psdapprox.bounds import (
    D_statistic,
    ExactConditionalTerms,
    SmoothingEstimate,
    bound_crude,
    bound_d1,
    bound_d2,
    bound_min,
    build_smoothing,
    exact_tv,
    m_star,
    smoothing_roellin,
    theorem31_bound,
)
from psdapprox.errors import MomentMatchError, PreconditionError, UnavailableError
from psdapprox.families import PMFTable, PanjerPSD, poisson_family
from psdapprox.oracle import (
    brute_force_distribution,
    dp_distribution,
    exact_conditional_D,
    two_runs_automaton,
)
from psdapprox.runs import (
    K1K2Model,
    TwoRunsModel,
    nb_moment_match_2runs,
)
from psdapprox.sequences import BernoulliProductSequence, compute_moments


# -- distance utilities ------------------------------------------------------------


def test_D_point_mass():
    assert D_statistic(PMFTable(0, (1.0,))) == pytest.approx(2.0)


def test_D_uniform():
    assert D_statistic(PMFTable(0, (0.1,) * 10)) == pytest.approx(0.2)


def test_D_poisson_direct_summation():
    table = poisson_family(2.0).pmf(40)
    p = [table.mass(k) for k in range(42)]
    direct = sum(abs(p[k] - (p[k - 1] if k else 0.0)) for k in range(42))
    assert D_statistic(table) == pytest.approx(direct, abs=1e-15)


def test_D_equals_twice_tv_to_shift():
    table = poisson_family(1.3).pmf(30)
    tv = exact_tv(table, table.shifted(1))
    assert D_statistic(table) == pytest.approx(2 * tv.value, abs=1e-14)


@given(hs.lists(hs.floats(0.0, 1.0), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_D_shift_identity_property(weights):
    total = math.fsum(weights)
    if total <= 0:
        return
    masses = tuple(w / total for w in weights)
    table = PMFTable(0, masses)
    tv = exact_tv(table, table.shifted(1))
    assert D_statistic(table) == pytest.approx(2 * tv.value, abs=1e-12)


def test_exact_tv_identical_and_disjoint():
    t = poisson_family(2.0).pmf(30)
    assert exact_tv(t, t).value == 0.0
    a = PMFTable(0, (1.0,))
    b = PMFTable(1, (1.0,))
    assert exact_tv(a, b).value == pytest.approx(1.0)


def test_exact_tv_slack_interval():
    p = poisson_family(3.0).pmf(8)
    q = poisson_family(3.1).pmf(12)
    tv = exact_tv(p, q)
    assert tv.slack == pytest.approx((p.tail_mass_bound + q.tail_mass_bound) / 2)
    assert tv.lower <= tv.value <= tv.upper


def test_exact_tv_exact_tables():
    from fractions import Fraction

    probs = [Fraction(1, 2)] * 4
    model = TwoRunsModel([0.5] * 4)
    t1 = brute_force_distribution(model, exact=True, exact_probs=probs)
    t2 = dp_distribution(two_runs_automaton(), probs, exact=True)
    tv = exact_tv(t1, t2)
    assert tv.value == 0
    assert tv.slack == 0


# -- smoothing -----------------------------------------------------------------------


def test_m_star_parity():
    assert m_star(20) == 10
    assert m_star(21) == 11
    assert m_star(1) == 1
    with pytest.raises(ValueError):
        m_star(0)


def test_smoothing_roellin_two_runs_formula():
    seq = TwoRunsModel([0.2] * 21)  # n = 20
    entry = smoothing_roellin(seq, 5)
    assert entry.raw == pytest.approx(4 / math.sqrt(7), abs=1e-12)
    assert entry.c == pytest.approx(4 / math.sqrt(7), abs=1e-12)
    assert entry.method == "roellin-even"


def test_smoothing_roellin_exact_fallback():
    seq = BernoulliProductSequence([0.3] * 8)
    entry = smoothing_roellin(seq, 4)
    assert entry.method == "exact-conditional"
    assert 0 < entry.c <= 2.0
    # The fallback dominates every conditional D value it summarizes.
    for conditioning in ("n2", "n1n2"):
        dmap = exact_conditional_D(seq, 4, conditioning)
        assert entry.c >= max(dmap.values()) - 1e-12


def test_smoothing_unavailable():
    seq = BernoulliProductSequence([0.5] * 25)  # not enumerable, no provider
    with pytest.raises(UnavailableError):
        smoothing_roellin(seq, 1)


def test_smoothing_cap_at_two():
    est = SmoothingEstimate.constant(4.0, 8)
    assert all(c == 2.0 for c in est.c)
    assert est.entries[0].raw == 4.0
    assert est.m_star == m_star(8)


# -- main bound and variants -----------------------------------------------------------


def _two_runs_setup(n=8, p=0.3):
    model = TwoRunsModel([p] * (n + 1))
    spec = nb_moment_match_2runs(n, p)
    moments = compute_moments(model)
    return model, spec, moments


def test_theorem31_zero_sequence():
    model = TwoRunsModel([0.0] * 9)
    moments = compute_moments(model)
    report = theorem31_bound(
        moments, ExactConditionalTerms(model), PanjerPSD(0.0, 0.0), delta_g=1.0
    )
    assert report.total == 0.0


def test_theorem31_dominates_exact_tv_two_runs():
    model, spec, moments = _two_runs_setup(8, 0.3)
    report = theorem31_bound(moments, ExactConditionalTerms(model), spec)
    law = brute_force_distribution(model)
    tv = exact_tv(law, spec.pmf())
    assert tv.upper <= report.total


def test_theorem31_dominates_exact_tv_independent_poisson():
    seq = BernoulliProductSequence([0.2] * 10)
    moments = compute_moments(seq)
    spec = poisson_family(moments.mean_w)
    report = theorem31_bound(moments, ExactConditionalTerms(seq), spec)
    law = brute_force_distribution(seq)
    tv = exact_tv(law, spec.pmf())
    assert tv.upper <= report.total


def test_theorem31_preconditions():
    model, spec, moments = _two_runs_setup(8, 0.3)
    with pytest.raises(MomentMatchError) as exc:
        theorem31_bound(moments, ExactConditionalTerms(model), poisson_family(9.0))
    assert exc.value.sum_mean == pytest.approx(moments.mean_w)
    small = TwoRunsModel([0.3] * 6)  # n = 5
    mom5 = compute_moments(small)
    target = poisson_family(mom5.mean_w)
    with pytest.raises(PreconditionError, match="n >= 6"):
        theorem31_bound(mom5, ExactConditionalTerms(small), target)
    report = theorem31_bound(
        mom5, ExactConditionalTerms(small), target, allow_small_n=True
    )
    assert report.total > 0


def test_d1_dominates_theorem31_when_smoothing_dominates():
    model, spec, moments = _two_runs_setup(8, 0.3)
    t31 = theorem31_bound(moments, ExactConditionalTerms(model), spec)
    smoothing = build_smoothing(model)  # capped at 2 >= every conditional D
    d1 = bound_d1(moments, smoothing, spec)
    assert t31.total <= d1.total + 1e-12


def test_d2_hand_expanded_independent_case():
    seq = BernoulliProductSequence([0.1] * 10)
    moments = compute_moments(seq)
    spec = poisson_family(moments.mean_w)
    report = bound_d2(moments, spec)
    dg = min(1.0, 1 / spec.a)
    # For independent 0/1 summands: E(X_i X_{N_{i,1}}) = E X_i + E X_i * (sum
    # of neighbor means), and b = 0 for the Poisson target.
    expanded = 0.0
    for i in range(1, 11):
        nbrs = [j for j in range(max(1, i - 1), min(10, i + 1) + 1)]
        e_xn1 = 0.1 * len(nbrs)
        e_x_xn1 = 0.1 + 0.1 * 0.1 * (len(nbrs) - 1)
        expanded += 0.1 * e_xn1 + e_x_xn1
    expanded = dg * (expanded + 10 * 0.1)
    assert report.total == pytest.approx(expanded, rel=1e-12)


def test_min_variant_reports_both_operands():
    model, spec, moments = _two_runs_setup(10, 0.25)
    smoothing = build_smoothing(model)
    report = bound_min(moments, smoothing, spec)
    assert report.variant == "min"
    assert report.total == min(report.operands["d1"], report.operands["d2"])
    law = brute_force_distribution(model)
    assert exact_tv(law, spec.pmf()).upper <= report.total


def test_crude_bound_zero_and_finite():
    zero = compute_moments(TwoRunsModel([0.0] * 5))
    assert bound_crude(zero, PanjerPSD(0.0, 0.0), g_norm=1.0, delta_g=1.0).total == 0.0

    seq = BernoulliProductSequence([0.2] * 4)
    moments = compute_moments(seq)
    spec = poisson_family(moments.mean_w)
    report = bound_crude(moments, spec)
    law = brute_force_distribution(seq)
    assert exact_tv(law, spec.pmf()).upper <= report.total
    assert report.g_norm_factor > 0


def test_crude_weaker_than_min_for_valid_n():
    for n, p in [(8, 0.2), (10, 0.15)]:
        model = TwoRunsModel([p] * (n + 1))
        moments = compute_moments(model)
        spec = nb_moment_match_2runs(n, p)
        crude = bound_crude(moments, spec)
        best = bound_min(moments, build_smoothing(model), spec)
        assert best.total <= crude.total


def test_tau_term_recomputable():
    model, spec, moments = _two_runs_setup(9, 0.35)
    smoothing = build_smoothing(model)
    report = bound_d1(moments, smoothing, spec)
    var_z = spec.a / (1 - spec.b) ** 2
    expected = abs(1 - spec.b) * abs(moments.var_w - var_z)
    assert report.term_tau == pytest.approx(expected, abs=1e-12)
    assert report.recompute_total() == pytest.approx(report.total, abs=1e-12)


def test_reports_serialize():
    model, spec, moments = _two_runs_setup(8, 0.3)
    smoothing = build_smoothing(model)
    for report in [
        bound_d1(moments, smoothing, spec),
        bound_d2(moments, spec),
        bound_min(moments, smoothing, spec),
        bound_crude(moments, spec),
    ]:
        blob = report.to_json()
        assert blob["total"] == pytest.approx(report.total)
        row = report.csv_row(n=8, params="p=0.3")
        assert row.startswith(report.variant)


def test_k1k2_theorem31_domination():
    model = K1K2Model(1, 2, 6, [0.3] * 14)
    moments = compute_moments(model)
    spec = poisson_family(moments.mean_w)
    report = theorem31_bound(moments, ExactConditionalTerms(model), spec)
    law = brute_force_distribution(model)
    assert exact_tv(law, spec.pmf()).upper <= report.total


def test_smoothing_from_runs_model_matches_entry():
    model = TwoRunsModel([0.2] * 21)
    est = build_smoothing(model)
    entry = smoothing_roellin(model, 3)
    assert est.c[2] == entry.c
