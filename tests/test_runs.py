"""Tests for the run-statistic closed forms, smoothing constants, and bounds."""

import json
import math

import numpy as np
import pytest

from psdapprox.bounds import SmoothingEstimate, bound_d1, build_smoothing, exact_tv, m_star
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
    moment_oracle,
    two_runs_automaton,
)
from psdapprox.runs import (
    K1K2Model,
    TABLE1_PRINTED,
    TwoRunsModel,
    brown_xia_bound,
    conditional_zero_max,
    k1k2_bound,
    k1k2_ci_star,
    k1k2_moment_set,
    k1k2_moments,
    nb_bound_closed_form,
    nb_fit_from_moments,
    nb_moment_match_2runs,
    table1,
    table1_mismatches,
    two_runs_bound,
    two_runs_cbar,
    two_runs_moment_set,
    two_runs_moments,
    two_runs_var,
)

# -- 2-runs closed forms -------------------------------------------------------


def test_two_runs_moments_all_zero_probabilities():
    model = TwoRunsModel([0.0] * 9)
    assert two_runs_moments(model, 4) == (0.0,) * 6


def test_two_runs_moments_iid_interior():
    p = 0.3
    model = TwoRunsModel([p] * 12)  # n = 11, index 6 is fully interior
    a1, a2, a3, abar1, abar2, abar3 = two_runs_moments(model, 6)
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
        oracle = moment_oracle(model)
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
    assert two_runs_var(n, p) == pytest.approx(moment_oracle(model).var_w, abs=1e-12)


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
    report = two_runs_bound(model, PanjerPSD(0.0, 0.0), delta_g=1.0)
    assert report.total == 0.0


def test_two_runs_bound_iid_reduction():
    # Under the exact two-moment NB fit (tau = 0), the iid display
    # n |Dg| cbar [ (|1-b|/2)(4p^3+10p^4+12p^5+10p^6) + 2(p^3+p^4) ] uses the
    # interior moment values for every index, so it dominates the exact
    # per-index sum and the gap is only the O(1/n) boundary correction.
    n, p = 20, 0.3
    model = TwoRunsModel([p] * (n + 1))
    spec = nb_moment_match_2runs(n, p)
    dg = delta_g_uniform_bound(spec)
    report = two_runs_bound(model, spec, delta_g=dg)
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
    a1, _, _, abar1, abar2, abar3 = two_runs_moments(model, 10)
    per_index = abs(1 - b) / 2 * (a1 * abar1 + abar2) + abar3
    assert per_index == pytest.approx(interior, rel=1e-12)


def test_two_runs_bound_matches_d1_with_same_constants():
    n, p = 20, 0.15
    model = TwoRunsModel([p] * (n + 1))
    spec = nb_moment_match_2runs(n, p)
    dg = delta_g_uniform_bound(spec)
    closed = two_runs_bound(model, spec, delta_g=dg)
    smoothing = SmoothingEstimate.constant(two_runs_cbar(n), n)
    generic = bound_d1(two_runs_moment_set(model), smoothing, spec, delta_g=dg)
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
    report = two_runs_bound(model, spec, comparison=True)
    assert report.recompute_total() == pytest.approx(report.total, abs=1e-12)
    blob = report.to_json()
    assert blob["variant"] == "closed-form"
    assert blob["comparison_brown_xia"] == pytest.approx(brown_xia_bound(n, p))


# -- (k1,k2)-runs closed forms --------------------------------------------------------


def test_k1k2_all_success_trials_vanish():
    model = K1K2Model(1, 2, 3, [1.0] * 8)
    assert all(v == 0.0 for v in k1k2_moments(model, 2))


def test_k1k2_smallest_case_formulas():
    # k1 = k2 = 1: windows are (1-I_j) I_{j+1}, pair and triple sums collapse.
    p = [0.3, 0.6, 0.2, 0.5, 0.4]
    model = K1K2Model(1, 1, 4, p)
    astar, pair, triple, *_ = k1k2_moments(model, 2)
    assert astar == pytest.approx((1 - p[1]) * p[2])
    assert pair == 0.0
    assert triple == 0.0


def test_k1k2_closed_forms_match_enumeration():
    # Derived example: k1=1, k2=2, n=3, iid 0.4 -- all six values.
    model = K1K2Model(1, 2, 3, [0.4] * 8)
    oracle = moment_oracle(model)
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
            oracle = moment_oracle(model)
            closed = k1k2_moment_set(model)
            np.testing.assert_allclose(closed.e_x, oracle.e_x, atol=1e-12)
            np.testing.assert_allclose(
                closed.e_n1_bracket, oracle.e_n1_bracket, atol=1e-12
            )
            np.testing.assert_allclose(
                closed.e_x_n1_bracket, oracle.e_x_n1_bracket, atol=1e-12
            )
            np.testing.assert_allclose(closed.e_x_n2m1, oracle.e_x_n2m1, atol=1e-12)


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


def test_k1k2_ci_star_finite_and_capped_below():
    model = K1K2Model(1, 2, 6, [0.3] * 14)
    for i in (1, 3, 6):
        c = k1k2_ci_star(model, i)
        assert math.isfinite(c)
        assert c >= 2 * math.sqrt(2) - 1e-12  # the min{1, .} cap floors V*


def test_k1k2_ci_star_degenerate_for_k1_equals_k2_equals_1():
    # Forced-zero neighbor conditioning makes every conditional-zero max equal
    # 1, so the smoothing information degenerates to an infinite constant.
    model = K1K2Model(1, 1, 12, [0.3] * 13)
    assert conditional_zero_max(model, 5) == pytest.approx(1.0)
    assert k1k2_ci_star(model, 4) == math.inf


def test_k1k2_ci_star_equals_fsum_over_remaining_summands():
    # The per-parity prefix sums round once, to the fsum of the summands
    # farther than 2 from i, as a direct sum per index does.
    rng = np.random.default_rng(3)
    for k1, k2, n in [(1, 2, 9), (2, 2, 14), (1, 1, 12)]:
        m = k1 + k2 - 1
        model = K1K2Model(k1, k2, n, rng.uniform(0.1, 0.3, (n + 1) * m).tolist())
        for i in range(1, n + 1):
            vals = []
            for first in (1, 2):
                s = min(1.0, math.fsum(
                    1.0 - conditional_zero_max(model, ell)
                    for ell in range(first, n + 1, 2)
                    if abs(ell - i) > 2
                ))
                vals.append(math.inf if s <= 0 else 2.0 * (0.5 * s) ** -0.5)
            assert k1k2_ci_star(model, i) == min(vals)


# -- (k1,k2)-runs beyond the enumerable conditioning window ------------------------


def _wide_model() -> K1K2Model:
    # m = 7: the middle conditioning windows span 4m = 28 trials.
    k1, k2, n = 4, 4, 21
    rng = np.random.default_rng(8)
    return K1K2Model(k1, k2, n, rng.uniform(0.3, 0.7, (n + 1) * 7).tolist())


def test_wide_window_ci_star_finite():
    model = _wide_model()
    for i in range(1, model.n + 1):
        c = k1k2_ci_star(model, i)
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
        k1k2_ci_star(K1K2Model(1, 2, 5, [0.3] * 12), 1)
    # Alternating near-deterministic trials push one occurrence probability
    # toward 1, violating the <= 1/3 condition.
    hot = [0.01, 0.99] * 6 + [0.01]
    with pytest.raises(PreconditionError, match="1/3"):
        k1k2_ci_star(K1K2Model(1, 1, 12, hot), 1)


def test_k1k2_bound_all_success_is_zero():
    model = K1K2Model(1, 2, 6, [1.0] * 14)
    report = k1k2_bound(model, PanjerPSD(0.0, 0.0), delta_g=1.0)
    assert report.total == 0.0


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
    assert all(c == 2.0 for c in est.c)
    assert est.entries[0].raw == pytest.approx(4.0)
