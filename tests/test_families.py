"""Tests for the Panjer/power-series families and their Stein machinery."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hs

from psdapprox.errors import (
    InvalidFamilyError,
    LemmaConditionError,
    NonNormalizableError,
    UndefinedMomentsError,
)
from psdapprox.families import (
    PMFTable,
    PSDSpec,
    PanjerPSD,
    _cumulative,
    binomial_family,
    delta_g_exact_sup,
    delta_g_uniform_bound,
    dgm_to_psd,
    family_from_json,
    g_norm_bound,
    geometric_family,
    indicator,
    negative_binomial_family,
    pmf_panjer,
    poisson_family,
    stein_apply,
    stein_solve,
)
from reference import pmf_exact, total_with_tail


# -- mass tables ---------------------------------------------------------------


def test_poisson_masses_match_closed_form():
    spec = poisson_family(2.0)
    table = pmf_panjer(spec, 10)
    expected = [math.exp(-2.0) * 2.0**k / math.factorial(k) for k in range(11)]
    assert np.allclose(table.as_array(), expected, rtol=1e-13, atol=0)


def test_binomial_masses_symmetric_case():
    spec = binomial_family(4, 0.5)
    table = pmf_panjer(spec)
    assert table.tail_mass_bound == 0.0
    assert np.allclose(table.as_array(), np.array([1, 4, 6, 4, 1]) / 16.0, rtol=1e-12)


def test_geometric_masses_are_halving():
    spec = PanjerPSD(0.5, 0.5)  # NB n=1, q=1/2
    table = pmf_panjer(spec, 8)
    assert np.allclose(table.as_array(), [0.5**(k + 1) for k in range(9)], rtol=1e-12)


@pytest.mark.parametrize(
    "spec,frozen",
    [
        (poisson_family(3.1), st.poisson(3.1)),
        (negative_binomial_family(2.0, 0.4), st.nbinom(2.0, 0.4)),
        (binomial_family(9, 0.37), st.binom(9, 0.37)),
        (geometric_family(0.55), st.nbinom(1, 0.55)),
    ],
)
def test_recursion_matches_scipy_pointwise(spec, frozen):
    table = spec.pmf(25)
    ks = np.arange(len(table.masses))
    assert np.allclose(table.as_array(), frozen.pmf(ks), rtol=1e-11, atol=1e-15)


def test_tail_bound_is_honest_and_small():
    spec = poisson_family(4.0)
    table = spec.pmf(12)
    actual_tail = 1.0 - st.poisson(4.0).cdf(12)
    assert table.tail_mass_bound >= actual_tail
    auto = spec.pmf()
    assert auto.tail_mass_bound < 1e-13


def test_normalization_invariant():
    for spec in [
        poisson_family(0.5),
        poisson_family(8.0),
        negative_binomial_family(3, 0.3),
        binomial_family(20, 0.2),
    ]:
        assert abs(total_with_tail(spec.pmf()) - 1.0) < 1e-10


def test_divergent_family_rejected():
    with pytest.raises(NonNormalizableError):
        PanjerPSD(1.0, 1.0)
    with pytest.raises(NonNormalizableError):
        PanjerPSD(0.5, 1.2)


def test_negative_mass_rejected():
    with pytest.raises(InvalidFamilyError):
        PanjerPSD(2.5, -1.0, max_support=5)  # a+bk < 0 from k=3 on
    with pytest.raises(InvalidFamilyError):
        PanjerPSD(2.5, -1.0)  # zero crossing not an integer
    with pytest.raises(InvalidFamilyError):
        PanjerPSD(-1.0, 0.0)


def test_pmf_exact_binomial():
    spec = binomial_family(4, 0.5)
    table = pmf_exact(spec)
    assert table.exact
    assert list(table.masses) == [
        Fraction(1, 16),
        Fraction(4, 16),
        Fraction(6, 16),
        Fraction(4, 16),
        Fraction(1, 16),
    ]


def test_pmf_table_validation():
    with pytest.raises(InvalidFamilyError):
        PMFTable(0, (0.5, -0.1, 0.6))
    with pytest.raises(InvalidFamilyError):
        PMFTable(0, (0.5, 0.1))  # mass 0.6, no tail


@given(
    a=hs.floats(0.2, 5.0),
    b=hs.floats(0.0, 0.8),
)
@settings(max_examples=40, deadline=None)
def test_recursion_invariant_property(a, b):
    spec = PanjerPSD(a, b)
    table = spec.pmf()
    p = table.as_array()
    for k in range(min(len(p) - 1, 40)):
        assert (k + 1) * p[k + 1] == pytest.approx((a + b * k) * p[k], rel=1e-12)
    assert abs(total_with_tail(table) - 1.0) < 1e-10
    mean_table = float(np.dot(p, np.arange(len(p))))
    assert mean_table == pytest.approx(a / (1 - b), rel=1e-8, abs=1e-8)


# -- the one mode-anchored table against the walk from p0 = 1 -------------------------


class _WalkFromP0:
    """Reference: tables walked from ``u_0 = 1``, as before the anchored table."""

    def __init__(self, spec):
        self.spec = spec
        self.p0 = self._normalize()

    def _unnormalized(self, k_last):
        spec, out, k = self.spec, [1.0], 0
        while True:
            if spec.max_support is not None and k >= spec.max_support:
                break
            if k_last is not None and k >= k_last:
                break
            nxt = spec._step(out[-1], k)
            if nxt == 0.0 and k_last is None:
                break
            out.append(nxt)
            k += 1
        return out

    def _auto_len(self, tail_target):
        spec, u, k, running = self.spec, [1.0], 0, 1.0
        while True:
            nxt = spec._step(u[-1], k)
            u.append(nxt)
            running += nxt
            k += 1
            if spec.max_support is not None and k >= spec.max_support:
                return k
            if nxt == 0.0:
                return k
            r = max(spec.ratio(k), spec.b, 0.0)
            if r < 1 and nxt * r / (1 - r) < tail_target * running:
                return k
            if k > 10**6:
                raise NonNormalizableError("tail certificate not reached")

    def _normalize(self):
        spec = self.spec
        k_end = spec.max_support if spec.max_support is not None else self._auto_len(1e-18)
        u = self._unnormalized(k_end)
        total = math.fsum(u)
        if spec.max_support is None:
            r = max(spec.ratio(len(u) - 1), spec.b, 0.0)
            total += u[-1] * r / (1.0 - r)
        return 1.0 / total

    def pmf(self, k_max=None, tail_target=1e-14):
        spec = self.spec
        k_end = k_max if k_max is not None else self._auto_len(tail_target)
        masses = [self.p0 * x for x in self._unnormalized(k_end)]
        covered = spec.max_support is not None and len(masses) - 1 >= spec.max_support
        if covered or masses[-1] == 0.0:
            return masses, 0.0
        k, extra, m = len(masses) - 1, 0.0, masses[-1]
        while spec.ratio(k) >= 1:
            m = m * spec.ratio(k)
            extra += m
            k += 1
        r = max(spec.ratio(k), spec.b, 0.0)
        return masses, extra + m * r / (1.0 - r)


_REFERENCE_FAMILIES = {
    **{f"poisson({lam})": poisson_family(lam) for lam in (0.5, 1.0, 3.7, 25.0, 180.0, 480.0, 700.0)},
    "nb fit mean 180": negative_binomial_family(180 * 0.6 / 0.4, 0.6),
    "nb fit mean 480": negative_binomial_family(480 * 0.75 / 0.25, 0.75),
    "nb(2, 0.4)": negative_binomial_family(2.0, 0.4),
    "geometric(0.55)": geometric_family(0.55),
    "geometric(0.02)": geometric_family(0.02),
    "binomial(20, 0.2)": binomial_family(20, 0.2),
    "binomial(37, 0.7) standard": binomial_family(37, 0.7, convention="standard"),
    "binomial(400, 0.5)": binomial_family(400, 0.5),
    "poisson(3) on 0..5": PanjerPSD(3.0, 0.0, max_support=5),
    "poisson(30) on 0..20": PanjerPSD(30.0, 0.0, max_support=20),
    "nb on 0..40": PanjerPSD(2.0, 0.5, max_support=40),
    "poisson(2) on 0..1000": PanjerPSD(2.0, 0.0, max_support=1000),
    "point mass": PanjerPSD(0.0, 0.3),
}


def _cuts(spec):
    mode = spec._mode  # floor((a-b)/(1-b)), clipped to the support
    cuts = [(None, t) for t in (1e-14, 1e-18, 1e-22)]
    cuts += [(k, 1e-14) for k in (mode, mode + 1, mode + 7, mode + 60, mode + 400)]
    return cuts


@pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
def test_anchored_table_matches_walk_from_p0(name):
    spec = _REFERENCE_FAMILIES[name]
    reference = _WalkFromP0(spec)
    for k_max, tail_target in _cuts(spec):
        want, want_tail = reference.pmf(k_max, tail_target)
        got = spec.pmf(k_max, tail_target=tail_target)
        assert len(got.masses) == len(want), (k_max, tail_target)
        want = np.asarray(want)
        big = want >= 1e-300
        assert np.allclose(got.as_array()[big], want[big], rtol=1e-13, atol=0)
        assert got.tail_mass_bound == pytest.approx(want_tail, rel=1e-13, abs=0)
    assert spec.p0 == pytest.approx(reference.p0, rel=1e-13)
    assert spec.pmf(tail_target=1e-30) == spec.pmf(tail_target=1e-22)  # the whole table


@pytest.mark.parametrize("spec, frozen", [
    (poisson_family(40.0), st.poisson(40.0)),
    (poisson_family(2000.0), st.poisson(2000.0)),
    (negative_binomial_family(30.0, 0.2), st.nbinom(30.0, 0.2)),
    (binomial_family(60, 0.45), st.binom(60, 0.45)),
])
def test_tail_below_the_mode_is_honest(spec, frozen):
    for k_max in (0, 1, spec._mode // 2, spec._mode - 1):
        tail = spec.pmf(k_max).tail_mass_bound
        actual = frozen.sf(k_max)
        assert actual * (1 - 1e-12) <= tail <= actual * (1 + 1e-9) + 1e-300


@pytest.mark.parametrize("mean", [708.0, 1e4, 1e6])
@pytest.mark.parametrize("family", ["poisson", "nb"])
def test_large_means_build_certified_tables(mean, family):
    spec = poisson_family(mean) if family == "poisson" else PanjerPSD(mean / 2, 0.5)
    table = spec.pmf()
    assert abs(total_with_tail(table) - 1.0) < 1e-10
    assert table.k_max < mean + 10 * math.sqrt(spec.mean_var()[1])
    assert table.tail_mass_bound < 1e-13


def test_poisson_family_at_mean_1e6_is_fast():
    start = time.perf_counter()
    poisson_family(1e6)
    assert time.perf_counter() - start < 2.0


def test_one_walk_per_family(monkeypatch):
    walks = []
    walk = PanjerPSD._walk

    def counted(self, *args, **kwargs):
        walks.append(self)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(PanjerPSD, "_walk", counted)
    spec = negative_binomial_family(3.0, 0.4)
    spec.pmf()
    g_norm_bound(spec)
    delta_g_exact_sup(spec, 40)
    stein_solve(spec, indicator({1, 4}))
    assert walks == [spec]


@pytest.mark.parametrize("a, b", [(1.0, 0.9999999), (0.5, 0.9999999), (3.0, 0.99999),
                                  (1.0, 1 - 2e-5), (1e7, 0.0), (1e7, -0.5)])
def test_walk_past_the_length_guard_is_refused_up_front(a, b, monkeypatch):
    def walk(self):
        raise AssertionError("the recursion was walked")

    monkeypatch.setattr(PanjerPSD, "_build", walk)
    start = time.perf_counter()
    with pytest.raises(NonNormalizableError):
        PanjerPSD(a, b)
    assert time.perf_counter() - start < 0.05


def test_table_length_guard():
    with pytest.raises(NonNormalizableError):
        poisson_family(1e300)
    with pytest.raises(NonNormalizableError):
        PanjerPSD(1.0, 1.0, max_support=10**30)
    with pytest.raises(NonNormalizableError):
        PanjerPSD(1.0, 1.5, max_support=5000)  # the masses overflow
    assert PanjerPSD(1.0, 0.5, max_support=10**30).pmf() == PanjerPSD(1.0, 0.5).pmf()
    assert PanjerPSD(1.0, 0.9999999, max_support=1000).pmf().k_max == 1000


# -- moments ---------------------------------------------------------------------


def test_mean_var_examples():
    assert PanjerPSD(3.0, 0.0).mean_var() == (3.0, 3.0)
    mean, var = PanjerPSD(2.0, 0.5).mean_var()
    assert (mean, var) == pytest.approx((4.0, 8.0))
    mean, var = PanjerPSD(0.5 * 5, 0.5).mean_var()
    assert (mean, var) == pytest.approx((5.0, 10.0))


def test_mean_var_undefined():
    spec = binomial_family(6, 0.3)
    assert spec.mean_var() == pytest.approx((1.8, 1.26))
    bad = PanjerPSD.__new__(PanjerPSD)
    object.__setattr__(bad, "a", 1.0)
    object.__setattr__(bad, "b", 1.0)
    with pytest.raises(UndefinedMomentsError):
        PanjerPSD.mean_var(bad)


# -- Stein operator ---------------------------------------------------------------


def test_stein_apply_zero_function():
    spec = poisson_family(1.7)
    assert stein_apply(spec, lambda k: 0.0, 5) == 0.0


def test_stein_apply_direct_value():
    spec = PanjerPSD(2.0, 0.0)
    assert stein_apply(spec, lambda k: float(k), 1) == pytest.approx(3.0)


@pytest.mark.parametrize(
    "spec",
    [poisson_family(1.0), negative_binomial_family(2, 0.45), binomial_family(7, 0.3)],
)
def test_stein_identity_random_g(spec):
    rng = np.random.default_rng(42)
    table = spec.pmf(tail_target=1e-18)
    p = table.as_array()
    k_top = len(p) - 1
    for _ in range(10):
        gv = rng.uniform(-1, 1, size=k_top + 2)
        gv[0] = 0.0
        if spec.max_support is not None:
            gv[spec.max_support + 1 :] = 0.0  # stay in the admissible class

        def g(k, gv=gv):
            return gv[k] if k < len(gv) else 0.0

        val = math.fsum(p[k] * stein_apply(spec, g, k) for k in range(len(p)))
        slack = table.tail_mass_bound * (abs(spec.a) + (abs(spec.b) + 1) * len(p)) * 2
        assert abs(val) < 1e-10 + slack


# -- Stein equation solution -------------------------------------------------------


def test_solution_constant_f_is_zero():
    spec = poisson_family(2.0)
    g = stein_solve(spec, lambda k: 3.25)
    assert all(g(k) == pytest.approx(0.0, abs=1e-12) for k in range(30))


def test_solution_residual_poisson():
    spec = poisson_family(1.0)
    f = indicator({0})
    g = stein_solve(spec, f)
    assert g.ef == pytest.approx(math.exp(-1.0), rel=1e-12)
    for k in range(51):
        resid = stein_apply(spec, g, k) - (f(k) - g.ef)
        assert abs(resid) < 1e-12, f"k={k}"


def test_solution_dual_forms_agree():
    # Float64 forms agree up to the roundoff envelope eps/(k p_k): the two
    # displayed sums share the tiny nonzero float total of p*h.  Both are
    # formed on the table the solution reads, the forward sum compensated
    # (fsum) and the tail sum accumulated in reverse.
    spec = negative_binomial_family(2, 0.4)
    f = indicator(range(4))
    g = stein_solve(spec, f)
    p = spec.pmf(tail_target=1e-22).as_array()
    terms = p * (np.array([f(k) for k in range(len(p))]) - g.ef)
    tail_sums = np.cumsum(terms[::-1])[::-1]
    for k in range(1, 51):
        forward = math.fsum(terms[:k]) / (k * p[k])
        tail = -tail_sums[k] / (k * p[k])
        slack = 1e-12 + 1e-16 / (k * p[k])
        assert abs(forward - tail) < slack, f"k={k}"


def test_solution_dual_forms_agree_highprec_oracle():
    # Independent oracle: evaluate both displayed forms in 60-digit arithmetic
    # where the k-range of the check is not limited by float cancellation.
    import mpmath as mp

    with mp.workdps(60):
        alpha, pbar = 2, mp.mpf("0.4")
        q = 1 - pbar
        a, b = alpha * q, q
        K = 400  # table long enough that the dropped tail is ~q^K
        p = [pbar**alpha]
        for k in range(K):
            p.append(p[-1] * (a + b * k) / (k + 1))
        fv = [1 if k < 4 else 0 for k in range(K + 1)]
        ef = mp.fsum(pk * f for pk, f in zip(p, fv))
        h = [f - ef for f in fv]
        for k in range(1, 51):
            fwd = mp.fsum(p[j] * h[j] for j in range(k)) / (k * p[k])
            tail = -mp.fsum(p[j] * h[j] for j in range(k, K + 1)) / (k * p[k])
            assert abs(fwd - tail) < 1e-12, f"k={k}"


def test_solution_residual_binomial_support():
    spec = binomial_family(6, 0.35)
    f = indicator({1, 4})
    g = stein_solve(spec, f)
    for k in range(7):
        resid = stein_apply(spec, g, k) - (f(k) - g.ef)
        assert abs(resid) < 1e-12
    assert g(8) == 0.0  # off support by convention


def test_solution_residual_random_sets():
    rng = np.random.default_rng(7)
    specs = [poisson_family(4.0), negative_binomial_family(3, 0.6), geometric_family(0.5)]
    for spec in specs:
        for _ in range(5):
            A = {int(k) for k in rng.choice(31, size=rng.integers(1, 12), replace=False)}
            f = indicator(A)
            g = stein_solve(spec, f, f_bound=1.0)
            for k in range(51):
                resid = stein_apply(spec, g, k) - (f(k) - g.ef)
                assert abs(resid) < 1e-10


# -- forward-difference bounds ------------------------------------------------------


def test_uniform_bound_examples():
    assert delta_g_uniform_bound(poisson_family(4.0)) == pytest.approx(0.25)
    assert delta_g_uniform_bound(PanjerPSD(0.5, 0.5)) == pytest.approx(1.0)
    assert delta_g_uniform_bound(binomial_family(10, 0.5)) == pytest.approx(0.2)


def test_uniform_bound_binomial_conventions():
    raw = delta_g_uniform_bound(binomial_family(10, 0.5, convention="panjer"))
    std = delta_g_uniform_bound(binomial_family(10, 0.5, convention="standard"))
    assert raw == pytest.approx(1 / (10 * 0.5))
    assert std == pytest.approx(1 / (10 * 0.5 * 0.5))


def test_uniform_bound_requires_positive_a():
    with pytest.raises(InvalidFamilyError):
        delta_g_uniform_bound(PanjerPSD(0.0, 0.5))


def test_exact_sup_dominated_by_uniform():
    cases = [
        (poisson_family(1.0), 40),
        (poisson_family(4.0), 60),
        (geometric_family(0.7), 60),  # (a,b) = (0.3, 0.3)
        (negative_binomial_family(2, 0.5), 60),
        (binomial_family(12, 0.25), 12),
    ]
    for spec, k_max in cases:
        exact = delta_g_exact_sup(spec, k_max)
        assert exact <= delta_g_uniform_bound(spec) + 1e-12
        assert exact <= 1.0 + 1e-12


def test_exact_sup_poisson4_value():
    assert delta_g_exact_sup(poisson_family(4.0), 60) <= 0.25 + 1e-12


def test_exact_sup_condition_failure_reported():
    # Two-point family with a gap-heavy shape violates the ratio monotonicity.
    spec = PSDSpec(theta=1.0, coeff=lambda k: [1.0, 0.05, 1.0][k] if k < 3 else 0.0)
    with pytest.raises(LemmaConditionError):
        delta_g_exact_sup(spec, 2)


def test_solution_delta_sup_within_uniform_bound():
    rng = np.random.default_rng(123)
    for spec in [poisson_family(0.5), poisson_family(4.0), binomial_family(8, 0.4)]:
        ub = delta_g_uniform_bound(spec)
        for _ in range(10):
            A = {int(k) for k in rng.choice(31, size=rng.integers(1, 16), replace=False)}
            g = stein_solve(spec, indicator(A), f_bound=1.0)
            assert max(abs(g(k + 1) - g(k)) for k in range(61)) <= ub + 1e-12


def test_g_norm_bound_dominates_observed_sup():
    rng = np.random.default_rng(5)
    spec = poisson_family(1.5)
    cap = g_norm_bound(spec)
    observed = 0.0
    for _ in range(25):
        A = {int(k) for k in rng.choice(25, size=rng.integers(1, 10), replace=False)}
        g = stein_solve(spec, indicator(A), f_bound=1.0)
        observed = max(observed, max(abs(g(k)) for k in range(40)))
    assert 0 < observed <= cap


def _looped_delta_g_exact_sup(spec, k_max, cond_tol=1e-9):
    """Reference: the per-entry loop over table quotients, as before vectorizing."""
    p, cdf, sf = _cumulative(spec.pmf(tail_target=1e-18))
    best = 0.0
    for k in range(1, min(k_max, len(p) - 2) + 1):
        if p[k] == 0.0:
            continue
        c = spec.op_coeff(k)
        lhs = k * cdf[k] / cdf[k - 1] if cdf[k - 1] > 0 else math.inf
        rhs = k * sf[k + 1] / sf[k] if sf[k] > 0 else 0.0
        if not (lhs >= c - cond_tol and c >= rhs - cond_tol):
            raise LemmaConditionError(k)
        first = sf[k + 1] / c if sf[k + 1] > 1e-300 and c > 0 else 0.0
        best = max(best, first + cdf[k - 1] / k)
    return best / spec.g_scale


def _looped_g_norm_bound(spec):
    """Reference: the per-entry loop, as before vectorizing."""
    p, cdf, sf = _cumulative(spec.pmf(tail_target=1e-18))
    hi = len(p) - 1
    best = 0.0
    for k in range(1, hi + 1):
        if p[k] != 0.0:
            best = max(best, 2.0 * cdf[k - 1] * sf[k] / (k * p[k]))
    if spec.max_support is None:
        r = max(spec.ratio(len(p) - 1), spec.b)
        if r < 1:
            best = max(best, 2.0 / (max(hi, 1) * (1.0 - r)))
    return best / spec.g_scale


_SUP_FAMILIES = {
    **_REFERENCE_FAMILIES,
    "poisson(0.01)": poisson_family(0.01),
    "nb(0.3, 0.9)": negative_binomial_family(0.3, 0.9),
    "binomial(1, 0.9)": binomial_family(1, 0.9),
    "binomial(12, 0.25) standard": binomial_family(12, 0.25, convention="standard"),
    "gap-heavy series": PSDSpec(theta=1.0, coeff=lambda k: [1.0, 0.05, 1.0][k] if k < 3 else 0.0),
    "dgm poisson": dgm_to_psd(lambda k: 0.0, 2.5),
    "dgm quadratic": dgm_to_psd(lambda k: -0.1 * k * k, 3.0),
}


@pytest.mark.parametrize("name", sorted(_SUP_FAMILIES))
def test_vectorized_sups_equal_the_loops(name):
    spec = _SUP_FAMILIES[name]
    for k_max in (1, 2, 5, 60, 10**6):
        try:
            want = _looped_delta_g_exact_sup(spec, k_max)
        except LemmaConditionError as exc:
            with pytest.raises(LemmaConditionError) as got:
                delta_g_exact_sup(spec, k_max)
            assert got.value.args == exc.args
            continue
        assert delta_g_exact_sup(spec, k_max) == want
    assert g_norm_bound(spec) == _looped_g_norm_bound(spec)


@pytest.mark.parametrize("spec", [
    poisson_family(2000.0), poisson_family(1e4), poisson_family(1e5),
    PanjerPSD(5e3, 0.5), binomial_family(1200, 0.5),
], ids=["poisson(2000)", "poisson(1e4)", "poisson(1e5)", "nb mean 1e4", "binomial(1200, 0.5)"])
def test_exact_sup_at_large_means(spec):
    # The lower tail of each table holds subnormal masses, where quotients of
    # partial sums lose their precision.
    p = spec.pmf(tail_target=1e-18).as_array()
    assert np.any((p > 0) & (p < np.finfo(float).tiny))
    exact = delta_g_exact_sup(spec, 10**7)
    assert 0 < exact <= delta_g_uniform_bound(spec) + 1e-12


# -- Gibbs-measure mapping -----------------------------------------------------------


def test_dgm_poisson():
    spec = dgm_to_psd(lambda k: 0.0, 2.5)
    ref = poisson_family(2.5).pmf(15).as_array()
    assert np.allclose(spec.pmf(15).as_array(), ref, rtol=1e-10)


def test_dgm_constant_coefficients():
    spec = dgm_to_psd(lambda k: math.lgamma(k + 1), 0.5)
    ref = geometric_family(0.5).pmf(15).as_array()
    assert np.allclose(spec.pmf(15).as_array(), ref, rtol=1e-10)


def test_dgm_negative_binomial():
    n, q = 3, 0.4

    def V(k):
        # ln C(n+k-1, k) + ln k!
        return math.lgamma(n + k) - math.lgamma(n)

    spec = dgm_to_psd(V, q)
    ref = pmf_panjer(PanjerPSD(n * q, q), 20).as_array()
    assert np.allclose(spec.pmf(20).as_array(), ref, rtol=1e-10)


def test_dgm_divergent_rejected():
    with pytest.raises(NonNormalizableError):
        dgm_to_psd(lambda k: math.lgamma(k + 1), 1.5)  # geometric ratio 1.5


# -- serialization --------------------------------------------------------------------


def test_json_round_trip_panjer():
    spec = binomial_family(11, 0.3, convention="standard")
    clone = family_from_json(spec.to_json())
    assert clone == spec


def test_json_round_trip_series():
    spec = PSDSpec(theta=0.6, coeff=lambda k: 1.0 if k < 20 else 0.0)
    obj = spec.to_json()
    clone = family_from_json(obj)
    assert np.allclose(clone.pmf(10).as_array(), spec.pmf(10).as_array(), rtol=1e-12)


@pytest.mark.parametrize("coeffs, masses", [
    ([1, 0, 0, 5], (1 / 6, 0.0, 0.0, 5 / 6)),
    ([1, 1e-10, 1e-20, 1], tuple(c / (2 + 1e-10 + 1e-20) for c in (1, 1e-10, 1e-20, 1))),
    ([0, 2], (0.0, 1.0)),
])
def test_a_coefficient_list_is_the_whole_series(coeffs, masses):
    spec = family_from_json({"family": "series", "theta": 1.0, "coeffs": coeffs})
    assert spec.max_support == len(coeffs) - 1
    table = spec.pmf()
    assert table.masses == masses
    assert table.tail_mass_bound == 0.0
    assert spec.to_json()["coeffs"] == [float(c) for c in coeffs]


@pytest.mark.parametrize("coeffs", [[0, 0, 0], [], [0.0] * 200])
def test_a_list_of_zero_coefficients_is_refused(coeffs):
    with pytest.raises(InvalidFamilyError, match="no positive coefficient found"):
        family_from_json({"family": "series", "theta": 1.0, "coeffs": coeffs})


def test_a_support_bound_reads_no_coefficient_past_it():
    read = []
    spec = PSDSpec(theta=2.0, coeff=lambda k: read.append(k) or 1.0, max_support=5)
    assert read == list(range(6))
    assert spec.pmf().masses == tuple(2.0**k / 63 for k in range(6))


def test_stein_solution_off_support_and_origin():
    spec = poisson_family(3.0)
    g = stein_solve(spec, indicator({2}))
    assert g(0) == 0.0
    assert g(-3) == 0.0


def test_series_norm_is_computed_not_given():
    spec = PSDSpec(theta=0.5, coeff=lambda k: 1.0 if k < 4 else 0.0)
    assert spec.norm == 1.875
    with pytest.raises(TypeError, match="norm"):
        PSDSpec(theta=0.5, coeff=lambda k: 1.0, norm=2.0)
