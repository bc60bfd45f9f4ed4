"""Tests for the bound variants, smoothing machinery, and TV utilities."""

import dataclasses
import math

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from psdapprox.bounds import (
    BoundReport,
    D_statistic,
    ExactConditionalTerms,
    SmoothingEstimate,
    bound_crude,
    bound_d1,
    bound_d2,
    bound_min,
    build_smoothing,
    default_delta_g,
    exact_tv,
    m_star,
    theorem31_bound,
)
from psdapprox.errors import MomentMatchError, PreconditionError, UnavailableError
from psdapprox.families import PMFTable, PanjerPSD, g_norm_bound, poisson_family
from psdapprox.oracle import (
    brute_force_distribution,
    dp_distribution,
    exact_conditional_D,
    two_runs_automaton,
)
from psdapprox.runs import (
    K1K2Model,
    TwoRunsModel,
    k1k2_bound,
    k1k2_ci_star_parts,
    k1k2_moment_set,
    nb_fit_from_moments,
    nb_moment_match_2runs,
    smoothing_from_runs_model,
    two_runs_bound,
    two_runs_cbar,
    two_runs_moment_set,
)
from psdapprox.sequences import BernoulliProductSequence, compute_moments
from reference import recompute_total


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


def test_build_smoothing_two_runs_formula():
    seq = TwoRunsModel([0.2] * 21)  # n = 20
    est = build_smoothing(seq)
    assert est.n == 20
    assert est.raw.tolist() == [pytest.approx(4 / math.sqrt(7), abs=1e-12)] * 20
    assert np.array_equal(est.c, est.raw)  # below the cap of 2
    assert est.method == ("roellin-even",) * 20


def test_build_smoothing_exact_fallback():
    seq = BernoulliProductSequence([0.3] * 8)
    est = build_smoothing(seq)
    assert est.method == ("exact-conditional",) * 8
    assert np.array_equal(est.raw, est.c)
    for i, c in enumerate(est.c, start=1):
        assert 0 < c <= 2.0
        # The fallback dominates every conditional D value it summarizes.
        for conditioning in ("n2", "n1n2"):
            dmap = exact_conditional_D(seq, i, conditioning)
            assert c >= max(dmap.values()) - 1e-12


def test_smoothing_unavailable():
    seq = BernoulliProductSequence([0.5] * 25)  # not enumerable, no provider
    with pytest.raises(UnavailableError):
        build_smoothing(seq)


def test_smoothing_cap_at_two():
    est = SmoothingEstimate.constant(4.0, 8)
    assert est.c.tolist() == [2.0] * 8
    assert est.raw.tolist() == [4.0] * 8
    assert est.method == ("model-closed-form",) * 8


def test_smoothing_estimate_refuses_bad_entries():
    with pytest.raises(ValueError, match="non-negative"):
        SmoothingEstimate((1.0, -0.5), (1.0, -0.5), ("a", "b"))
    with pytest.raises(ValueError, match="one entry per index"):
        SmoothingEstimate((1.0, 1.0), (1.0,), ("a", "b"))


# -- main bound and variants -----------------------------------------------------------


def _two_runs_setup(n=8, p=0.3):
    model = TwoRunsModel([p] * (n + 1))
    spec = nb_moment_match_2runs(n, p)
    moments = compute_moments(model)
    return model, spec, moments


def test_theorem31_zero_sequence():
    model = TwoRunsModel([0.0] * 9)
    moments = compute_moments(model)
    report = theorem31_bound(moments, ExactConditionalTerms(model), PanjerPSD(0.0, 0.0))
    assert report.total == 0.0
    assert report.term_quadratic == report.term_linear == report.term_tau == 0.0


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
    report = bound_crude(zero, PanjerPSD(0.0, 0.0))
    assert report.total == 0.0
    assert report.term_linear == 0.0 and math.isfinite(report.g_norm_factor)

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
    assert recompute_total(report) == pytest.approx(report.total, abs=1e-12)


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
        assert "moment_terms" not in blob and "c_constant" not in blob  # closed forms only
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
    assert est.c[2] == two_runs_cbar(20)
    other = smoothing_from_runs_model(model)
    assert np.array_equal(other.c, est.c) and np.array_equal(other.raw, est.raw)
    assert other.method == est.method


# -- reference: each variant's display written out on its own -----------------------


def _ref_tau(spec, var_w):
    b = spec.b
    var_z = spec.a / (1 - b) ** 2
    return abs((var_w - var_z) * (1 - b))


def _ref_theorem31(moments, conditionals, spec):
    dg, b = default_delta_g(spec), spec.b
    sum_q1, sum_q2, sum_lin = conditionals.weighted_sums()
    quad = abs(1 - b) / 2 * (sum_q1 + sum_q2)
    tau = _ref_tau(spec, moments.var_w)
    return BoundReport("theorem31", dg, quad, sum_lin, tau, dg * (quad + sum_lin + tau),
                       one_minus_b=1 - b)


def _ref_weights(moments):
    """Per index ``(quadratic, linear)`` smoothing weights, in Python floats."""
    return [(x * q1 + q2, ln) for x, q1, q2, ln in zip(
        moments.e_x, moments.e_n1_bracket, moments.e_x_n1_bracket, moments.e_x_n2m1)]


def _ref_d1(moments, smoothing, spec):
    dg, b = default_delta_g(spec), spec.b
    weights = list(zip(smoothing.c, _ref_weights(moments)))
    quad = abs(1 - b) / 2 * math.fsum(c * q for c, (q, _) in weights)
    lin = math.fsum(c * ln for c, (_, ln) in weights)
    tau = _ref_tau(spec, moments.var_w)
    return BoundReport("d1", dg, quad, lin, tau, dg * (quad + lin + tau),
                       smoothing=smoothing, one_minus_b=1 - b)


def _ref_d2(moments, spec):
    dg, b = default_delta_g(spec), spec.b
    quad = abs(1 - b) * math.fsum(
        moments.e_x[i] * moments.e_xn1[i] + moments.e_x_xn1[i] for i in range(moments.n))
    lin = math.fsum(moments.e_x)
    return BoundReport("d2", dg, quad, lin, 0.0, dg * (quad + lin), one_minus_b=1 - b)


def _ref_min(moments, smoothing, spec):
    r1, r2 = _ref_d1(moments, smoothing, spec), _ref_d2(moments, spec)
    better = r1 if r1.total <= r2.total else r2
    return BoundReport("min", better.delta_g_factor, better.term_quadratic,
                       better.term_linear, better.term_tau, min(r1.total, r2.total),
                       smoothing=smoothing, one_minus_b=better.one_minus_b,
                       operands={"d1": r1.total, "d2": r2.total})


def _ref_crude(moments, spec):
    dg, g, b = default_delta_g(spec), g_norm_bound(spec), spec.b
    sum_means = math.fsum(moments.e_x)
    return BoundReport("crude", dg, 0.0, sum_means, 0.0, (2 * abs(1 - b) * g + dg) * sum_means,
                       g_norm_factor=g, one_minus_b=1 - b)


def _ref_closed_form(moments, cs, spec, term_weights, c_constant):
    smoothing = SmoothingEstimate(tuple(cs), tuple(cs), ("ref",) * len(cs))
    d1 = _ref_d1(moments, smoothing, spec)
    half = abs(d1.one_minus_b) / 2
    terms = tuple((w * half * q, w * ln)
                  for w, (q, ln) in zip(term_weights, _ref_weights(moments)))
    return BoundReport(**{**vars(d1), "variant": "closed-form", "smoothing": None,
                          "moment_terms": terms, "c_constant": c_constant})


def _assert_same_report(report, ref):
    assert type(report) is type(ref)
    for f in dataclasses.fields(ref):
        got, want = getattr(report, f.name), getattr(ref, f.name)
        assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want, f.name


def _fits(moments):
    if moments.mean_w == 0:
        return [PanjerPSD(0.0, 0.0)]
    specs = [poisson_family(moments.mean_w)]
    if moments.var_w > moments.mean_w:
        specs.append(nb_fit_from_moments(moments.mean_w, moments.var_w))
    return specs


_rng = np.random.default_rng(8)
_REFERENCE_MODELS = (
    [TwoRunsModel([0.3] * (n + 1)) for n in range(8, 15)]
    + [TwoRunsModel(_rng.uniform(0.05, 0.5, n + 1).tolist()) for n in (8, 11, 14)]
    + [K1K2Model(1, 2, n, [0.3] * ((n + 1) * 2)) for n in range(6, 10)]
    + [K1K2Model(1, 2, 7, _rng.uniform(0.1, 0.3, 16).tolist())]
    + [BernoulliProductSequence(_rng.uniform(0.05, 0.4, 10).tolist()),
       TwoRunsModel([0.0] * 9), K1K2Model(1, 2, 6, [1.0] * 14)]
)


@pytest.mark.parametrize("model", _REFERENCE_MODELS, ids=lambda m: f"{m.kind}-n{m.n}")
def test_variants_equal_their_reference_assembly(model):
    moments = compute_moments(model)
    smoothing = build_smoothing(model)
    conditionals = ExactConditionalTerms(model)
    for spec in _fits(moments):
        _assert_same_report(theorem31_bound(moments, conditionals, spec),
                            _ref_theorem31(moments, conditionals, spec))
        _assert_same_report(bound_d1(moments, smoothing, spec),
                            _ref_d1(moments, smoothing, spec))
        _assert_same_report(bound_d2(moments, spec), _ref_d2(moments, spec))
        _assert_same_report(bound_min(moments, smoothing, spec),
                            _ref_min(moments, smoothing, spec))
        _assert_same_report(bound_crude(moments, spec), _ref_crude(moments, spec))

        if isinstance(model, TwoRunsModel):
            n, cbar = model.n, two_runs_cbar(model.n)
            _assert_same_report(
                two_runs_bound(model, spec),
                _ref_closed_form(two_runs_moment_set(model), [cbar] * n, spec,
                                 [1.0] * n, cbar))
        elif isinstance(model, K1K2Model):
            closed = k1k2_moment_set(model)
            values, _ = k1k2_ci_star_parts(model)
            cs = tuple(c if q != 0.0 or ln != 0.0 else 0.0
                       for c, (q, ln) in zip(values, _ref_weights(closed)))
            _assert_same_report(k1k2_bound(model, spec),
                                _ref_closed_form(closed, cs, spec, cs, cs))
