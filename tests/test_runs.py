"""Tests for the run-statistic closed forms, smoothing constants, and bounds."""

import dataclasses
import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from psdapprox.bounds import (
    SmoothingEstimate,
    bound_d1,
    build_smoothing,
    exact_tv,
    m_star,
)
from psdapprox.errors import MomentMatchError, NBFitError, PreconditionError
from psdapprox.cli import main
from psdapprox.families import (
    PanjerPSD,
    delta_g_uniform_bound,
    family_from_json,
    poisson_family,
)
from psdapprox.oracle import (
    brute_force_distribution,
    dp_distribution,
    k1k2_automaton,
    two_runs_automaton,
)
from psdapprox.runs import (
    K1K2Model,
    TABLE1_PRINTED,
    TwoRunsModel,
    _block_moments,
    brown_xia_bound,
    conditional_zero_max,
    k1k2_bound,
    k1k2_ci_star_parts,
    k1k2_moment_set,
    nb_bound_closed_form,
    nb_fit_from_moments,
    nb_moment_match_2runs,
    table1,
    table1_mismatches,
    two_runs_bound,
    two_runs_cbar,
    two_runs_moment_set,
    two_runs_var,
    window_probability,
)
from psdapprox.sequences import compute_moments, consecutive_products, neighborhood_moment_set
from reference import recompute_total


def _at(arrays, moments, i: int) -> tuple:
    """``(E X_i, E X_i X_{i+1}, E X_i X_{i+1} X_{i+2})`` from the per-index
    arrays, then the three bracket moments at ``i``, from the moment set."""
    return tuple(float(v[i - 1]) for v in arrays) + (
        moments.e_n1_bracket[i - 1],
        moments.e_x_n1_bracket[i - 1],
        moments.e_x_n2m1[i - 1],
    )


def _two_runs_at(model: TwoRunsModel, i: int) -> tuple:
    """``(a1, a2, a3, abar1, abar2, abar3)`` at index ``i``."""
    return _at(consecutive_products(model.trial_probs, 2, model.n), two_runs_moment_set(model), i)


# -- (k1,k2) reference: the block moments one scalar window at a time -----------


def _window(model: K1K2Model, j: int) -> float:
    """``K1K2Model.window`` on the trial probabilities, 0 off-range."""
    if not 1 <= j <= model.n * model.m:
        return 0.0
    return model.window(model.trial_probs, j)


def _block_mean(model: K1K2Model, i: int) -> float:
    if not 1 <= i <= model.n:
        return 0.0
    m = model.m
    return math.fsum(_window(model, j) for j in range((i - 1) * m + 1, i * m + 1))


def _block_pair(model: K1K2Model, i: int) -> float:
    """``E(X_i X_{i+1})`` over window pairs across adjacent blocks with gap > m."""
    if not 1 <= i <= model.n - 1:
        return 0.0
    m = model.m
    total = 0.0
    for l1 in range((i - 1) * m + 1, i * m):
        inner = math.fsum(_window(model, l2) for l2 in range(l1 + m + 1, (i + 1) * m + 1))
        total += _window(model, l1) * inner
    return total


def _block_triple(model: K1K2Model, i: int) -> float:
    """``E(X_i X_{i+1} X_{i+2})`` over window triples with pairwise gap > m."""
    if not 1 <= i <= model.n - 2:
        return 0.0
    m = model.m
    total = 0.0
    for l1 in range((i - 1) * m + 1, i * m):
        a1v = _window(model, l1)
        if a1v == 0.0:
            continue
        for l2 in range(l1 + m + 1, (i + 1) * m):
            a2v = _window(model, l2)
            if a2v == 0.0:
                continue
            inner = math.fsum(_window(model, l3) for l3 in range(l2 + m + 1, (i + 2) * m + 1))
            total += a1v * a2v * inner
    return total


def _k1k2_at(model: K1K2Model, i: int) -> tuple:
    """``(a*, pair, triple, a1*, a2*, a3*)`` at block index ``i``."""
    return _at(_block_moments(model), k1k2_moment_set(model), i)


# -- per-index reference: the neighborhood expansion index by index ------------


def _reference_moments(n: int, a1, a2, a3) -> dict:
    """The per-index neighborhood expansion, one ``fsum`` per index, over the
    callables ``a1(i) = E X_i``, ``a2(i) = E X_i X_{i+1}``,
    ``a3(i) = E X_i X_{i+1} X_{i+2}`` (each zero outside ``1..n``)."""
    brackets = []
    for i in range(1, n + 1):
        abar1 = 2 * math.fsum(a2(j) for j in range(i - 2, i + 2)) + 2 * (
            a1(i - 1) * a1(i + 1)
            + a1(i - 2) * (a1(i) + a1(i + 1))
            + a1(i + 2) * (a1(i - 1) + a1(i))
        )
        abar2 = (
            2 * a1(i) * (a1(i - 2) + a1(i + 2))
            + 2 * a2(i - 1) * (1 + a1(i + 2))
            + 2 * a2(i) * (1 + a1(i - 2))
            + 2 * math.fsum(a3(j) for j in range(i - 2, i + 1))
        )
        abar3 = a1(i) * (a1(i - 2) + a1(i + 2)) + a2(i - 1) + a2(i)
        brackets.append((abar1, abar2, abar3))
    idx = range(1, n + 1)
    e_x = tuple(a1(i) for i in idx)
    e_xn1 = tuple(a1(i - 1) + a1(i) + a1(i + 1) for i in idx)
    e_x_xn1 = tuple(a2(i - 1) + a1(i) + a2(i) for i in idx)
    return {
        "e_x": e_x,
        "e_xn1": e_xn1,
        "e_x_xn1": e_x_xn1,
        "e_n1_bracket": tuple(b[0] for b in brackets),
        "e_x_n1_bracket": tuple(b[1] for b in brackets),
        "e_x_n2m1": tuple(b[2] for b in brackets),
        "mean_w": math.fsum(e_x),
        "var_w": math.fsum(e_x_xn1[i] - e_x[i] * e_xn1[i] for i in range(n)),
    }


def _reference_two_runs(model: TwoRunsModel) -> dict:
    n = model.n

    def trial(j):  # 1-based, zero outside 1..n+1
        return model.trial_probs[j - 1] if 1 <= j <= n + 1 else 0.0

    def a1(i):
        return trial(i) * trial(i + 1) if 1 <= i <= n else 0.0

    def a2(i):
        return trial(i) * trial(i + 1) * trial(i + 2) if 1 <= i <= n - 1 else 0.0

    def a3(i):
        if not 1 <= i <= n - 2:
            return 0.0
        return trial(i) * trial(i + 1) * trial(i + 2) * trial(i + 3)

    return _reference_moments(n, a1, a2, a3)


def _reference_k1k2(model: K1K2Model) -> dict:
    return _reference_moments(
        model.n,
        lambda i: _block_mean(model, i),
        lambda i: _block_pair(model, i),
        lambda i: _block_triple(model, i),
    )


def _assert_matches_reference(moments, reference: dict):
    for field in ("e_x", "e_xn1", "e_x_xn1", "mean_w", "var_w"):
        assert np.array_equal(getattr(moments, field), reference[field]), field
    for field in ("e_n1_bracket", "e_x_n1_bracket", "e_x_n2m1"):
        got, want = getattr(moments, field), reference[field]
        assert len(got) == len(want)
        assert all(math.isclose(g, w, rel_tol=1e-15) for g, w in zip(got, want)), field


def _reference_models() -> list:
    rng = np.random.default_rng(5)
    models = []
    for n in (1, 2, 3, 8, 37):
        for p in ([0.0] * (n + 1), [0.5] * (n + 1), rng.uniform(0, 0.5, n + 1).tolist()):
            models.append((TwoRunsModel(p), _reference_two_runs))
        for k1, k2 in ((1, 1), (1, 2), (2, 3)):
            size = (n + 1) * (k1 + k2 - 1)
            for p in ([0.0] * size, [0.5] * size, rng.uniform(0, 1, size).tolist()):
                models.append((K1K2Model(k1, k2, n, p), _reference_k1k2))
    return models


def test_moment_sets_match_per_index_reference():
    # e_x, e_xn1, e_x_xn1, mean_w and var_w keep the per-index add order and
    # fsum; the brackets sum their few terms in numpy and may differ by ulps.
    for model, reference in _reference_models():
        _assert_matches_reference(model.closed_form_moments(), reference(model))


# -- 2-runs closed forms -------------------------------------------------------


def test_two_runs_moments_all_zero_probabilities():
    model = TwoRunsModel([0.0] * 9)
    assert _two_runs_at(model, 4) == (0.0,) * 6


def test_two_runs_moments_iid_interior():
    p = 0.3
    model = TwoRunsModel([p] * 12)  # n = 11, index 6 is fully interior
    a1, a2, a3, abar1, abar2, abar3 = _two_runs_at(model, 6)
    assert a1 == pytest.approx(p**2)
    assert a2 == pytest.approx(p**3)
    assert a3 == pytest.approx(p**4)
    assert abar1 == pytest.approx(8 * p**3 + 10 * p**4)
    assert abar2 == pytest.approx(4 * p**3 + 10 * p**4 + 4 * p**5)
    # The iid bound display uses 2(p^3 + p^4); the remark's printed
    # "2p^3 + 4p^4" is inconsistent with it and with enumeration.
    assert abar3 == pytest.approx(2 * p**3 + 2 * p**4)


def test_two_runs_closed_forms_match_enumeration_every_index():
    rng = np.random.default_rng(31)
    for _ in range(6):
        p = rng.uniform(0.0, 0.5, size=rng.integers(5, 9))
        model = TwoRunsModel(p.tolist())
        oracle = compute_moments(model, "enumerate")
        closed = two_runs_moment_set(model)
        for i in range(model.n):
            assert closed.e_x[i] == pytest.approx(oracle.e_x[i], abs=1e-12)
            assert closed.e_xn1[i] == pytest.approx(oracle.e_xn1[i], abs=1e-12)
            assert closed.e_x_xn1[i] == pytest.approx(oracle.e_x_xn1[i], abs=1e-12)
            assert closed.e_n1_bracket[i] == pytest.approx(
                oracle.e_n1_bracket[i], abs=1e-12
            )
            assert closed.e_x_n1_bracket[i] == pytest.approx(
                oracle.e_x_n1_bracket[i], abs=1e-12
            )
            assert closed.e_x_n2m1[i] == pytest.approx(
                oracle.e_x_n2m1[i], abs=1e-12
            )
        assert closed.mean_w == pytest.approx(oracle.mean_w, abs=1e-12)
        assert closed.var_w == pytest.approx(oracle.var_w, abs=1e-12)


def test_two_runs_variance_formula_vs_enumeration():
    n, p = 10, 0.35
    model = TwoRunsModel([p] * (n + 1))
    assert two_runs_var(n, p) == pytest.approx(compute_moments(model, "enumerate").var_w, abs=1e-12)


# -- smoothing constant ---------------------------------------------------------


def test_m_star_values():
    assert m_star(20) == 10
    assert m_star(21) == 11
    assert m_star(8) == 4


def test_two_runs_cbar_values():
    assert two_runs_cbar(20) == pytest.approx(4 / math.sqrt(7), abs=1e-12)
    assert two_runs_cbar(21) == pytest.approx(4 / math.sqrt(8), abs=1e-12)
    assert two_runs_cbar(8) == pytest.approx(4.0)


def test_two_runs_cbar_precondition():
    with pytest.raises(PreconditionError, match="n >= 8"):
        two_runs_cbar(7)


def test_exact_conditional_D_below_cbar():
    from psdapprox.oracle import exact_conditional_D

    model = TwoRunsModel([0.4] * 9)  # n = 8
    cbar = two_runs_cbar(8)
    dmap = exact_conditional_D(model, 4, "n2")
    assert max(dmap.values()) <= cbar


# -- NB fitting -------------------------------------------------------------------


def test_nb_fit_matches_two_moments():
    spec = nb_moment_match_2runs(20, 0.3)
    mean, var = spec.mean_var()
    assert mean == pytest.approx(20 * 0.09, rel=1e-12)
    assert var == pytest.approx(two_runs_var(20, 0.3), rel=1e-12)


def test_nb_fit_pbar_tends_to_one_for_small_p():
    spec = nb_moment_match_2runs(20, 1e-4)
    pbar = 1 - spec.b
    assert pbar > 0.999


def test_nb_fit_delta_g_bound():
    n, p = 20, 0.25
    spec = nb_moment_match_2runs(n, p)
    # alpha(1 - pbar) is the Panjer a; the uniform bound is 1 ^ 1/a.
    assert delta_g_uniform_bound(spec) == pytest.approx(
        min(1.0, 1 / spec.a), rel=1e-12
    )


def test_nb_fit_underdispersion_rejected():
    with pytest.raises(NBFitError):
        nb_fit_from_moments(1.0, 0.8)


# -- published bounds ---------------------------------------------------------------


def test_nb_closed_form_table_values():
    assert f"{nb_bound_closed_form(20, 0.05):.6f}" == "0.344694"
    assert f"{nb_bound_closed_form(50, 0.15):.6f}" == "0.733832"
    assert nb_bound_closed_form(12, 0.0) == 0.0


def test_nb_closed_form_preconditions():
    with pytest.raises(PreconditionError, match="n >= 8"):
        nb_bound_closed_form(7, 0.1)
    with pytest.raises(PreconditionError):
        nb_bound_closed_form(20, 0.6)


def test_brown_xia_values():
    assert f"{brown_xia_bound(20, 0.05):.6f}" == "0.398900"
    assert f"{brown_xia_bound(30, 0.09):.6f}" == "0.619922"
    assert brown_xia_bound(5, 0.0) == 0.0
    with pytest.raises(PreconditionError):
        brown_xia_bound(1, 0.1)
    with pytest.raises(PreconditionError):
        brown_xia_bound(10, 0.7)


def test_table1_reproduces_printed_values():
    assert table1_mismatches() == []


def test_table1_comparison_claim():
    for n, p, ours, other in table1():
        assert ours < other, (n, p)


def test_table1_spot_cells():
    rows = {(n, p): (o, c) for n, p, o, c in table1()}
    assert f"{rows[(25, 0.07)][0]:.6f}" == "0.446997"
    assert f"{rows[(25, 0.07)][1]:.6f}" == "0.513008"
    assert f"{rows[(40, 0.13)][0]:.6f}" == "0.693072"
    assert f"{rows[(35, 0.11)][1]:.6f}" == "0.723476"
    assert len(TABLE1_PRINTED) == 18


# -- 2-runs bound -------------------------------------------------------------------


def test_two_runs_bound_zero_model():
    model = TwoRunsModel([0.0] * 10)
    report = two_runs_bound(model, PanjerPSD(0.0, 0.0))
    assert report.total == 0.0
    assert report.term_quadratic == report.term_linear == report.term_tau == 0.0


def test_two_runs_bound_iid_reduction():
    # Under the exact two-moment NB fit (tau = 0), the iid display
    # n |Dg| cbar [ (|1-b|/2)(4p^3+10p^4+12p^5+10p^6) + 2(p^3+p^4) ] uses the
    # interior moment values for every index, so it dominates the exact
    # per-index sum and the gap is only the O(1/n) boundary correction.
    n, p = 20, 0.3
    model = TwoRunsModel([p] * (n + 1))
    spec = nb_moment_match_2runs(n, p)
    dg = delta_g_uniform_bound(spec)
    report = two_runs_bound(model, spec)
    assert report.delta_g_factor == dg
    b = spec.b
    interior = (
        abs(1 - b) / 2 * (4 * p**3 + 10 * p**4 + 12 * p**5 + 10 * p**6)
        + 2 * (p**3 + p**4)
    )
    display = n * dg * two_runs_cbar(n) * interior
    assert report.term_tau == pytest.approx(0.0, abs=1e-10)
    assert report.total <= display + 1e-12
    assert report.total >= 0.8 * display  # boundary effect is a few indices
    # Fully interior index reproduces the display's per-index bracket exactly.
    a1, _, _, abar1, abar2, abar3 = _two_runs_at(model, 10)
    per_index = abs(1 - b) / 2 * (a1 * abar1 + abar2) + abar3
    assert per_index == pytest.approx(interior, rel=1e-12)


def test_two_runs_bound_matches_d1_with_same_constants():
    n, p = 20, 0.15
    model = TwoRunsModel([p] * (n + 1))
    spec = nb_moment_match_2runs(n, p)
    dg = delta_g_uniform_bound(spec)
    closed = two_runs_bound(model, spec)
    smoothing = SmoothingEstimate.constant(two_runs_cbar(n), n)
    generic = bound_d1(two_runs_moment_set(model), smoothing, spec)
    assert closed.delta_g_factor == generic.delta_g_factor == dg
    assert closed.total == pytest.approx(generic.total, rel=1e-12)
    # (k1,k2): c*_i >= 2 sqrt 2 exceeds the cap of SmoothingEstimate.constant,
    # so the generic side gets the uncapped constants.
    rng = np.random.default_rng(12)
    n = 9
    model = K1K2Model(1, 2, n, rng.uniform(0.1, 0.3, (n + 1) * 2).tolist())
    moments = k1k2_moment_set(model)
    spec = poisson_family(moments.mean_w)
    closed = k1k2_bound(model, spec)
    cs = k1k2_ci_star_parts(model)[0]
    smoothing = SmoothingEstimate(cs, cs, ("roellin",) * n)
    generic = bound_d1(moments, smoothing, spec, allow_small_n=True)
    assert np.array_equal(closed.c_constant, cs)
    assert closed.total == pytest.approx(generic.total, rel=1e-12)


def test_two_runs_bound_dominates_exact_tv():
    n, p = 10, 0.3
    model = TwoRunsModel([p] * (n + 1))
    spec = nb_moment_match_2runs(n, p)
    report = two_runs_bound(model, spec)
    law = dp_distribution(two_runs_automaton(), model.trial_probs)
    tv = exact_tv(law, spec.pmf())
    assert tv.upper <= report.total


def test_two_runs_bound_preconditions():
    model = TwoRunsModel([0.3] * 8)  # n = 7
    with pytest.raises(PreconditionError):
        two_runs_bound(model, nb_moment_match_2runs(7, 0.3))
    model = TwoRunsModel([0.6] * 21)
    with pytest.raises(PreconditionError, match="1/2"):
        two_runs_bound(model, poisson_family(20 * 0.36))
    model = TwoRunsModel([0.3] * 21)
    with pytest.raises(MomentMatchError):
        two_runs_bound(model, poisson_family(5.0))


def test_two_runs_report_recomputable_and_serializable():
    n, p = 12, 0.2
    model = TwoRunsModel([p] * (n + 1))
    spec = nb_moment_match_2runs(n, p)
    report = two_runs_bound(model, spec)
    assert recompute_total(report) == pytest.approx(report.total, abs=1e-12)
    blob = report.to_json()
    assert blob["variant"] == "closed-form"
    assert blob["c_constant"] == two_runs_cbar(n)
    assert blob["moment_terms"] == report.moment_terms.tolist() and len(blob["moment_terms"]) == n
    model = K1K2Model(1, 2, 9, [0.2] * 20)
    report = k1k2_bound(model, poisson_family(k1k2_moment_set(model).mean_w))
    assert report.to_json()["c_constant"] == report.c_constant.tolist()


def test_two_runs_smoothing_constants_refuse_a_trial_above_one_half():
    model = TwoRunsModel([0.3] * 9 + [0.5000001])
    assert not model.assumption_ok
    for call in (model.smoothing_constants, lambda: build_smoothing(model)):
        with pytest.raises(PreconditionError, match=r"p_i <= 1/2"):
            call()
    assert TwoRunsModel([0.3] * 9 + [0.5]).smoothing_constants()[0].tolist() == [two_runs_cbar(9)] * 9


# -- (k1,k2)-runs closed forms --------------------------------------------------------


def test_k1k2_all_success_trials_vanish():
    model = K1K2Model(1, 2, 3, [1.0] * 8)
    assert all(v == 0.0 for v in _k1k2_at(model, 2))


def test_k1k2_smallest_case_formulas():
    # k1 = k2 = 1: windows are (1-I_j) I_{j+1}, pair and triple sums collapse.
    p = [0.3, 0.6, 0.2, 0.5, 0.4]
    model = K1K2Model(1, 1, 4, p)
    astar, pair, triple, *_ = _k1k2_at(model, 2)
    assert astar == pytest.approx((1 - p[1]) * p[2])
    assert pair == 0.0
    assert triple == 0.0


def test_k1k2_closed_forms_match_enumeration():
    # Derived example: k1=1, k2=2, n=3, iid 0.4 -- all six values.
    model = K1K2Model(1, 2, 3, [0.4] * 8)
    oracle = compute_moments(model, "enumerate")
    closed = k1k2_moment_set(model)
    np.testing.assert_allclose(closed.e_x, oracle.e_x, atol=1e-12)
    np.testing.assert_allclose(closed.e_xn1, oracle.e_xn1, atol=1e-12)
    np.testing.assert_allclose(closed.e_x_xn1, oracle.e_x_xn1, atol=1e-12)
    np.testing.assert_allclose(closed.e_n1_bracket, oracle.e_n1_bracket, atol=1e-12)
    np.testing.assert_allclose(
        closed.e_x_n1_bracket, oracle.e_x_n1_bracket, atol=1e-12
    )
    np.testing.assert_allclose(closed.e_x_n2m1, oracle.e_x_n2m1, atol=1e-12)
    assert closed.var_w == pytest.approx(oracle.var_w, abs=1e-12)


def test_k1k2_closed_forms_match_enumeration_random_models():
    rng = np.random.default_rng(47)
    for k1, k2, n in [(1, 1, 5), (1, 2, 4), (2, 2, 3)]:
        m = k1 + k2 - 1
        for _ in range(3):
            p = rng.uniform(0.05, 0.6, size=(n + 1) * m).tolist()
            model = K1K2Model(k1, k2, n, p)
            oracle = compute_moments(model, "enumerate")
            closed = k1k2_moment_set(model)
            np.testing.assert_allclose(closed.e_x, oracle.e_x, atol=1e-12)
            np.testing.assert_allclose(
                closed.e_n1_bracket, oracle.e_n1_bracket, atol=1e-12
            )
            np.testing.assert_allclose(
                closed.e_x_n1_bracket, oracle.e_x_n1_bracket, atol=1e-12
            )
            np.testing.assert_allclose(closed.e_x_n2m1, oracle.e_x_n2m1, atol=1e-12)


def test_window_indicator_agrees_across_trial_representations():
    # One product serves bit tuples, bit columns and probabilities; on
    # probabilities it multiplies in trial order, as a plain loop does.
    rng = np.random.default_rng(19)
    for k1, k2, n in [(1, 1, 4), (1, 2, 3), (2, 3, 2)]:
        m = k1 + k2 - 1
        p = rng.uniform(0.05, 0.95, (n + 1) * m).tolist()
        model = K1K2Model(k1, k2, n, p)
        bits = model.enumerate_bits()
        windows = np.stack([model.window(bits.T, j) for j in range(1, n * m + 1)]).T
        for row, x, outcome in zip(windows, model.x_values(), bits):
            trials = tuple(int(b) for b in outcome)
            assert tuple(model.window(trials, j) for j in range(1, n * m + 1)) == tuple(row)
            assert model.x_scalar(trials) == tuple(x)
        assert np.array_equal(windows.reshape(-1, n, m).sum(axis=2), model.x_values())
        for j in range(1, n * m + 1):
            loop = 1.0
            for off in range(k1):
                loop *= 1.0 - p[j - 1 + off]
            for off in range(k1, k1 + k2):
                loop *= p[j - 1 + off]
            assert window_probability(model, j) == loop
        assert window_probability(model, 0) == window_probability(model, n * m + 1) == 0.0


def _models_with_certain_trials() -> list:
    """(k1,k2) models whose trials include probabilities 0 and 1."""
    rng = np.random.default_rng(23)
    models = []
    for k1, k2, n in [(1, 1, 6), (1, 2, 7), (2, 3, 5), (3, 1, 4), (4, 4, 9)]:
        m = k1 + k2 - 1
        p = rng.uniform(0, 1, (n + 1) * m)
        p[::3], p[1::4] = 0.0, 1.0
        models.append(K1K2Model(k1, k2, n, p.tolist()))
    return models


def test_window_array_equals_the_scalar_window():
    for model in _models_with_certain_trials():
        probs = model.window_probs
        assert probs.dtype == np.float64 and probs.shape == (model.n * model.m,)
        assert not probs.flags.writeable
        assert {0.0, 1.0} <= set(model.trial_probs)
        for j in range(1, model.n * model.m + 1):
            assert probs[j - 1] == model.window(model.trial_probs, j)
            assert window_probability(model, j) == model.window(model.trial_probs, j)


def test_k1k2_moment_set_equals_the_per_window_reference():
    rng = np.random.default_rng(29)
    wide = [K1K2Model(k1, k2, n, rng.uniform(0, 1, (n + 1) * (k1 + k2 - 1)).tolist())
            for k1, k2, n in [(3, 3, 12), (3, 4, 10), (2, 5, 15)]]
    models = [model for model, _ in _reference_models() if isinstance(model, K1K2Model)]
    for model in models + wide + _models_with_certain_trials():
        blocks = range(1, model.n + 1)
        want = [[f(model, i) for i in blocks] for f in (_block_mean, _block_pair, _block_triple)]
        assert list(_block_moments(model)) == want
        got, ref = k1k2_moment_set(model), neighborhood_moment_set(*want)
        assert all(np.array_equal(getattr(got, f.name), getattr(ref, f.name))
                   for f in dataclasses.fields(ref))


def test_k1k2_blocks_are_bernoulli():
    model = K1K2Model(1, 2, 4, [0.45] * 10)
    assert int(model.x_values().max()) <= 1


def test_conditional_zero_max_matches_full_enumeration():
    # The windowed computation must agree with conditioning computed from the
    # full joint law.
    for k1, k2, n, p in [
        (1, 2, 3, [0.35] * 8),
        (2, 2, 3, [0.3, 0.6, 0.45, 0.5, 0.2, 0.7, 0.55, 0.4, 0.35, 0.65, 0.25, 0.5]),
        (2, 1, 4, [0.4, 0.0, 0.5, 0.3, 1.0, 0.6, 0.45, 0.2, 0.55, 0.35]),
        (1, 3, 3, [0.3, 0.7, 0.5, 0.6, 0.4, 0.65, 0.2, 0.55, 0.45, 0.5, 0.35, 0.6]),
    ]:
        model = K1K2Model(k1, k2, n, p)
        xs = model.x_values()
        w = model.outcome_probs()
        for ell in range(1, model.n + 1):
            neighbors = [b - 1 for b in (ell - 1, ell + 1) if 1 <= b <= model.n]
            groups = {}
            zeros = {}
            for row, mass in zip(xs, w):
                key = tuple(int(row[j]) for j in neighbors)
                groups[key] = groups.get(key, 0.0) + mass
                if row[ell - 1] == 0:
                    zeros[key] = zeros.get(key, 0.0) + mass
            direct = max(zeros.get(k, 0.0) / v for k, v in groups.items() if v > 0)
            assert conditional_zero_max(model, ell) == pytest.approx(direct, abs=1e-12)


def _conditional_zero_max_one_index(model: K1K2Model, ell: int) -> float:
    """Reference: the forward DP of ``conditional_zero_max`` run on one index alone."""
    m = model.m
    lo_block = max(1, ell - 1)
    hi_block = min(model.n, ell + 1)
    automaton = k1k2_automaton(model.k1, model.k2)
    codes = np.arange(1 << (hi_block - lo_block + 1))
    layer = np.zeros((automaton.n_states, len(codes)))
    layer[0, 0] = 1.0
    t_lo = (lo_block - 1) * m + 1
    for t in range(t_lo, (hi_block + 1) * m + 1):
        p = model.trial_probs[t - 1]
        bit = 1 << ((max(t - m, t_lo) - 1) // m + 1 - lo_block)
        free = codes[(codes & bit) == 0]
        nxt = np.zeros_like(layer)
        for s, row in enumerate(automaton.transitions):
            for (s_next, inc), weight in zip(row, (1.0 - p, p)):
                if inc:
                    nxt[s_next, free | bit] += layer[s, free] * weight
                else:
                    nxt[s_next] += layer[s] * weight
        layer = nxt
    joint = layer.sum(axis=0)
    ell_bit = 1 << (ell - lo_block)
    others = codes[(codes & ell_bit) == 0]
    numer = joint[others]
    denom = numer + joint[others | ell_bit]
    return float((numer[denom > 0] / denom[denom > 0]).max())


def _batched_dp_models() -> list:
    rng = np.random.default_rng(11)
    shapes = [(1, 2, 1000), (2, 2, 300), (1, 1, 12), (2, 3, 15), (3, 3, 12), (4, 4, 21),
              (5, 5, 4), (2, 1, 10), (1, 3, 10)]
    shapes += [(k1, k2, n) for k1, k2 in ((1, 2), (3, 3)) for n in (1, 2, 3)]
    models = []
    for k1, k2, n in shapes:
        size = (n + 1) * (k1 + k2 - 1)
        models.append(K1K2Model(k1, k2, n, rng.uniform(0, 1, size).tolist()))
        if n < 100:  # trials at 0 and 1 among the others
            models.append(K1K2Model(k1, k2, n, rng.choice([0.0, 1.0, 0.3], size).tolist()))
    return models


def test_conditional_zero_max_batched_equals_per_index_dp():
    for model in _batched_dp_models():
        batched = [conditional_zero_max(model, ell) for ell in range(1, model.n + 1)]
        assert batched == [_conditional_zero_max_one_index(model, ell)
                           for ell in range(1, model.n + 1)], (model.k1, model.k2, model.n)


def test_one_smoothing_dp_per_model(monkeypatch):
    import psdapprox.runs as runs

    calls, tables = [], []
    real = runs.k1k2_automaton
    monkeypatch.setattr(runs, "k1k2_automaton", lambda *a: calls.append(a) or real(*a))
    real_table = runs._conditional_zero_table
    monkeypatch.setattr(runs, "_conditional_zero_table",
                        lambda m: tables.append(m) or real_table(m))
    model = K1K2Model(1, 2, 40, [0.3] * 82)
    k1k2_bound(model, poisson_family(k1k2_moment_set(model).mean_w))
    build_smoothing(model)
    for ell in range(1, model.n + 1):
        conditional_zero_max(model, ell)
    assert calls == [(1, 2)]  # the model's automaton, built in its constructor
    assert tables == [model]
    assert sorted(model._cache["cond_zero"]) == list(range(1, model.n + 1))


def test_build_smoothing_asks_each_model_once(monkeypatch):
    import psdapprox.runs as runs

    calls = []
    for name in ("two_runs_cbar_parts", "_conditional_zero_table"):
        real = getattr(runs, name)
        monkeypatch.setattr(runs, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    est = build_smoothing(TwoRunsModel([0.2] * 51))
    assert calls == ["two_runs_cbar_parts"]
    assert est.n == 50
    calls.clear()
    est = build_smoothing(K1K2Model(1, 2, 40, [0.3] * 82))
    assert calls == ["_conditional_zero_table"]
    assert est.n == 40


def _ci_star_fraction_reference(model: K1K2Model) -> list:
    """``k1k2_ci_star_parts`` at every index, from ``Fraction`` prefix sums."""
    prefix = {
        first: list(accumulate(
            (Fraction(1.0 - conditional_zero_max(model, ell))
             for ell in range(first, model.n + 1, 2)),
            initial=Fraction(0)))
        for first in (1, 2)
    }
    out = []
    for i in range(1, model.n + 1):
        vals = []
        for first in (1, 2):
            ells = range(first, model.n + 1, 2)
            lo, hi = bisect_left(ells, i - 2), bisect_right(ells, i + 2)
            s = min(1.0, float(prefix[first][-1] - prefix[first][hi] + prefix[first][lo]))
            vals.append(math.inf if s <= 0 else 2.0 * (0.5 * s) ** -0.5)
        out.append((vals[0], "roellin-even") if vals[0] <= vals[1] else (vals[1], "roellin-odd"))
    return out


@pytest.mark.parametrize("k1, k2, n, lo, hi", [
    (1, 2, 1000, 0.01, 0.03), (2, 2, 300, 0.02, 0.04), (1, 1, 12, 0.2, 0.4)])
def test_k1k2_ci_star_parts_equal_fraction_prefix_sums(k1, k2, n, lo, hi):
    # Rare occurrences keep the sums below the cap 1, so every constant is compared.
    m = k1 + k2 - 1
    rng = np.random.default_rng(n)
    model = K1K2Model(k1, k2, n, rng.uniform(lo, hi, (n + 1) * m).tolist())
    got = list(zip(*k1k2_ci_star_parts(model)))
    assert got == _ci_star_fraction_reference(model)
    if (k1, k2) == (1, 1):
        assert all(c == math.inf for c, _ in got)
    else:
        assert all(2 * math.sqrt(2) < c < math.inf for c, _ in got)


def test_k1k2_ci_star_finite_and_capped_below():
    model = K1K2Model(1, 2, 6, [0.3] * 14)
    for c in k1k2_ci_star_parts(model)[0]:
        assert math.isfinite(c)
        assert c >= 2 * math.sqrt(2) - 1e-12  # the min{1, .} cap floors V*


def test_k1k2_ci_star_degenerate_for_k1_equals_k2_equals_1():
    # Forced-zero neighbor conditioning makes every conditional-zero max equal
    # 1, so the smoothing information degenerates to an infinite constant.
    model = K1K2Model(1, 1, 12, [0.3] * 13)
    assert conditional_zero_max(model, 5) == pytest.approx(1.0)
    assert k1k2_ci_star_parts(model)[0][3] == math.inf


def test_k1k2_ci_star_equals_fsum_over_remaining_summands():
    # The per-parity prefix sums round once, to the fsum of the summands
    # farther than 2 from i, as a direct sum per index does.
    rng = np.random.default_rng(3)
    for k1, k2, n in [(1, 2, 9), (2, 2, 14), (1, 1, 12)]:
        m = k1 + k2 - 1
        model = K1K2Model(k1, k2, n, rng.uniform(0.1, 0.3, (n + 1) * m).tolist())
        cs = k1k2_ci_star_parts(model)[0]
        for i in range(1, n + 1):
            vals = []
            for first in (1, 2):
                s = min(1.0, math.fsum(
                    1.0 - conditional_zero_max(model, ell)
                    for ell in range(first, n + 1, 2)
                    if abs(ell - i) > 2
                ))
                vals.append(math.inf if s <= 0 else 2.0 * (0.5 * s) ** -0.5)
            assert cs[i - 1] == min(vals)


# -- (k1,k2)-runs beyond the enumerable conditioning window ------------------------


def _wide_model() -> K1K2Model:
    # m = 7: the middle conditioning windows span 4m = 28 trials.
    k1, k2, n = 4, 4, 21
    rng = np.random.default_rng(8)
    return K1K2Model(k1, k2, n, rng.uniform(0.3, 0.7, (n + 1) * 7).tolist())


def test_wide_window_ci_star_finite():
    model = _wide_model()
    for c in k1k2_ci_star_parts(model)[0]:
        assert math.isfinite(c)
        assert c >= 2 * math.sqrt(2) - 1e-12


def test_wide_window_edge_block_matches_direct_enumeration():
    # Block 1 conditioned on block 2: trials 1..3m, enumerated outright and
    # scanned window by window for k1 failures followed by k2 successes.
    model = _wide_model()
    m, k1, k2 = model.m, model.k1, model.k2
    width = 3 * m
    idx = np.arange(1 << width, dtype=np.uint32)
    bits = [((idx >> t) & 1).astype(bool) for t in range(width)]
    probs = np.ones(len(idx))
    for t, b in enumerate(bits):
        probs *= np.where(b, model.trial_probs[t], 1.0 - model.trial_probs[t])

    def block(first_window: int) -> np.ndarray:
        total = np.zeros(len(idx), dtype=np.int64)
        for j in range(first_window, first_window + m):
            hit = np.ones(len(idx), dtype=bool)
            for off in range(k1 + k2):
                hit &= bits[j + off] if off >= k1 else ~bits[j + off]
            total += hit
        return total

    x1, x2 = block(0), block(m)
    direct = max(
        probs[(x1 == 0) & (x2 == v)].sum() / probs[x2 == v].sum()
        for v in np.unique(x2)
    )
    assert conditional_zero_max(model, 1) == pytest.approx(direct, abs=1e-12)


def test_wide_window_cli_closed_form_bound_dominates_exact_tv(tmp_path, capsys):
    model = _wide_model()
    path = tmp_path / "k44.json"
    path.write_text(json.dumps(model.to_json()))
    assert main(["bound", "--model", str(path), "--fit", "poisson",
                 "--variant", "closed-form"]) == 0
    payload = json.loads(capsys.readouterr().out)
    law = dp_distribution(k1k2_automaton(model.k1, model.k2), model.trial_probs)
    tv = exact_tv(law, family_from_json(payload["target"]).pmf())
    assert math.isfinite(payload["total"])
    assert payload["total"] >= tv.upper


def test_k1k2_ci_star_preconditions():
    with pytest.raises(PreconditionError, match="3m"):
        k1k2_ci_star_parts(K1K2Model(1, 2, 5, [0.3] * 12))
    # Alternating near-deterministic trials push one occurrence probability
    # toward 1, violating the <= 1/3 condition.
    hot = [0.01, 0.99] * 6 + [0.01]
    with pytest.raises(PreconditionError, match="1/3"):
        k1k2_ci_star_parts(K1K2Model(1, 1, 12, hot))


def test_k1k2_bound_all_success_is_zero():
    model = K1K2Model(1, 2, 6, [1.0] * 14)
    report = k1k2_bound(model, PanjerPSD(0.0, 0.0))
    assert report.total == 0.0
    assert report.term_quadratic == report.term_linear == report.term_tau == 0.0


def test_k1k2_bound_below_generic_minimum_n_dominates_exact_tv():
    # (1,1)-runs have c*_i = inf at every index of nonzero weight: refused.
    model = K1K2Model(1, 1, 4, [0.3, 0.2, 0.25, 0.3, 0.15])
    with pytest.raises(PreconditionError, match=r"c\*_1 is infinite at index 1"):
        k1k2_bound(model, poisson_family(k1k2_moment_set(model).mean_w))
    # Here only the first window can occur, so every weight is zero and the
    # bound is finite.  n = 4 is below the generic n >= 6 of bound_d1 but
    # inside the model's own n >= 3m, so the closed form must still give it.
    model = K1K2Model(1, 1, 4, [0.5, 0.5, 0.0, 0.0, 0.0])
    spec = poisson_family(k1k2_moment_set(model).mean_w)
    report = k1k2_bound(model, spec)
    assert all(c == 0.0 for c in report.c_constant)
    assert report.total == pytest.approx(0.0625)
    law = dp_distribution(k1k2_automaton(1, 1), model.trial_probs)
    assert exact_tv(law, spec.pmf()).upper == pytest.approx(0.0553, abs=1e-4)
    assert report.total >= exact_tv(law, spec.pmf()).upper


def test_k1k2_bound_dominates_exact_tv_poisson():
    k1, k2, n = 1, 2, 6
    model = K1K2Model(k1, k2, n, [0.3] * ((n + 1) * 2))
    mean = k1k2_moment_set(model).mean_w
    spec = poisson_family(mean)
    report = k1k2_bound(model, spec)
    law = brute_force_distribution(model)
    tv = exact_tv(law, spec.pmf())
    assert tv.upper <= report.total


def test_smoothing_from_runs_model_capped():
    model = TwoRunsModel([0.2] * 9)  # n = 8, cbar = 4
    est = build_smoothing(model)
    assert est.c.tolist() == [2.0] * 8
    assert est.raw.tolist() == [pytest.approx(4.0)] * 8
    assert est.method == ("roellin-even",) * 8
