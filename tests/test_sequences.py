"""Tests for the dependent-sequence carrier: enumeration, moments, blocking."""

import math
import tracemalloc

import numpy as np
import pytest

from psdapprox.errors import EnumerationLimitError, UnavailableError
from psdapprox.sequences import (
    BernoulliProductSequence,
    DependentSequence,
    MomentSet,
    _moments_by_enumeration,
    _row_sums,
    compute_moments,
    consecutive_products,
    dependence_certificate,
    mean_var,
    sequence_from_json,
)
from psdapprox.bounds import ExactConditionalTerms
from psdapprox.oracle import brute_force_distribution, exact_conditional_D
from psdapprox.runs import K1K2Model, TwoRunsModel


class _WindowGroups(DependentSequence):
    """Occurrences of one failure then ``k2`` successes at windows
    ``1..T-k2`` of the trials (the (1,k2)-runs windows), summed over
    consecutive groups of ``size`` windows, the last one possibly shorter.
    Single windows are ``k2``-dependent; groups of ``k2`` or more are
    1-dependent, and groups of three reach 2."""

    def __init__(self, probs, k2: int, size: int):
        n = -(-(len(probs) - k2) // size)
        super().__init__(probs, n=n, kind="window-groups")
        self.k2, self.size = k2, size

    def x_columns(self, bits):
        rows, trials = bits.shape
        y = np.zeros((rows, self.n * self.size), dtype=np.uint8)
        y[:, : trials - self.k2] = 1 - bits[:, : trials - self.k2]
        for s in range(1, self.k2 + 1):
            y[:, : trials - self.k2] *= bits[:, s : trials - self.k2 + s]
        return y.reshape(rows, self.n, self.size).sum(axis=2, dtype=np.uint8)


def test_neighborhood_boundary_truncation():
    seq = TwoRunsModel([0.3] * 6)  # n = 5
    assert list(seq.neighborhood_indices(1, 1)) == [1, 2]
    assert list(seq.neighborhood_indices(3, 2)) == [1, 2, 3, 4, 5]
    assert list(seq.neighborhood_indices(5, 2)) == [3, 4, 5]
    with pytest.raises(ValueError):
        seq.neighborhood_indices(0, 1)
    with pytest.raises(ValueError):
        seq.neighborhood_indices(2, 3)


def test_neighborhood_difference_identity():
    # X_{N_{i,2}} - X_{N_{i,1}} equals the sum over the ring N_{i,2} \ N_{i,1},
    # outcome by outcome.
    seq = TwoRunsModel([0.42, 0.1, 0.5, 0.3, 0.25, 0.44])
    xs = seq.x_values()

    def window_sum(idx):
        return xs[:, idx.start - 1 : idx.stop - 1].sum(axis=1)

    for i in range(1, seq.n + 1):
        inner = seq.neighborhood_indices(i, 1)
        outer = seq.neighborhood_indices(i, 2)
        ring = sorted(set(outer) - set(inner))
        ring_vals = xs[:, [j - 1 for j in ring]].sum(axis=1) if ring else 0
        assert np.array_equal(window_sum(outer) - window_sum(inner), ring_vals)


def test_outcome_probabilities_sum_to_one():
    seq = TwoRunsModel([0.2, 0.7, 0.4, 0.15])
    assert math.fsum(seq.outcome_probs()) == pytest.approx(1.0, abs=1e-12)


def test_blocking_k1k2_windows_matches_block_model():
    # The m-dependent windows, blocked by m with a reshape, are the
    # 1-dependent block model outcome by outcome, and the blocks pass the
    # factorization certificate.
    for k1, k2, n in [(1, 2, 3), (2, 2, 3), (3, 1, 2)]:
        m = k1 + k2 - 1
        model = K1K2Model(k1, k2, n, [0.35] * ((n + 1) * m))
        cols = model.enumerate_bits().T
        windows = np.stack([model.window(cols, j) for j in range(1, n * m + 1)]).T
        assert np.array_equal(windows.reshape(-1, n, m).sum(axis=2), model.x_values())
        assert dependence_certificate(model, gap=2)
    # The (1,2)-runs windows themselves are m-dependent and no less.
    windows = _WindowGroups([0.35] * 8, k2=2, size=1)
    assert dependence_certificate(windows, gap=3)
    assert not dependence_certificate(windows, gap=2)


def test_one_dependence_certificates():
    assert dependence_certificate(TwoRunsModel([0.3, 0.5, 0.2, 0.4, 0.6]), gap=2)
    assert dependence_certificate(BernoulliProductSequence([0.3, 0.6, 0.2]), gap=1)
    assert dependence_certificate(K1K2Model(1, 1, 4, [0.4] * 5), gap=2)
    # 2-runs is NOT 0-dependent: adjacent split must fail to factorize.
    assert not dependence_certificate(TwoRunsModel([0.5] * 4), gap=1)


@pytest.mark.parametrize("make, radius", [
    (lambda: BernoulliProductSequence([0.3, 0.6, 0.2, 0.5]), 0),
    (lambda: TwoRunsModel([0.3, 0.5, 0.2, 0.4, 0.6]), 1),
    (lambda: K1K2Model(1, 2, 4, [0.3, 0.4] * 5), 1),
    (lambda: _FarEnds(), 0),  # disjoint spans, though far apart in the trials
    (lambda: _ScaledTwoRuns([0.5] * 6, 2), 4),  # the default span: every trial
], ids=["product", "two-runs", "(1,2)-runs", "far ends", "default span"])
def test_dependence_radius_is_read_from_the_trial_spans(make, radius):
    seq = make()
    assert seq.dependence_radius == radius
    if seq.trial_count <= 10:  # summands farther apart than the radius factorize
        assert dependence_certificate(seq, gap=radius + 1)


def test_moments_singleton():
    seq = BernoulliProductSequence([0.3])
    mom = compute_moments(seq)
    assert mom.mean_w == pytest.approx(0.3)
    assert mom.var_w == pytest.approx(0.21)
    # With an empty strict neighborhood the bracket terms vanish.
    assert mom.e_n1_bracket[0] == pytest.approx(0.0, abs=1e-15)
    assert mom.e_x_n1_bracket[0] == pytest.approx(0.0, abs=1e-15)
    assert mom.e_x_n2m1[0] == pytest.approx(0.0, abs=1e-15)


def test_moments_iid_bernoulli_variance():
    seq = BernoulliProductSequence([0.5, 0.5, 0.5])
    mom = compute_moments(seq)
    assert mom.var_w == pytest.approx(0.75, abs=1e-12)
    assert mom.var_from_neighborhoods() == pytest.approx(0.75, abs=1e-12)


def test_variance_identity_on_dependent_instances():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = rng.uniform(0.05, 0.5, size=7)
        seq = TwoRunsModel(p.tolist())
        mom = compute_moments(seq)
        assert mom.var_w == pytest.approx(mom.var_from_neighborhoods(), abs=1e-12)


def test_bracket_moments_nonnegative_for_01_summands():
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = rng.uniform(0.0, 0.5, size=6)
        mom = compute_moments(TwoRunsModel(p.tolist()))
        assert all(v >= -1e-14 for v in mom.e_n1_bracket)
        assert all(v >= -1e-14 for v in mom.e_x_n1_bracket)
        assert all(v >= -1e-14 for v in mom.e_x_n2m1)


def test_enumeration_cutoff_enforced():
    p = [0.5] * 12 + [0.1] * 13
    seq = BernoulliProductSequence(p)
    assert not seq.enumerable
    with pytest.raises(EnumerationLimitError):
        seq.enumerate_bits()
    mom = compute_moments(seq)
    assert mom.mean_w == math.fsum(p)
    assert mom.var_w == pytest.approx(math.fsum(x * (1 - x) for x in p), rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_product_closed_form_matches_enumeration(n):
    rng = np.random.default_rng(n)
    p = rng.uniform(0.0, 1.0, n).tolist()
    if n == 16:
        p[3], p[9] = 0.0, 1.0
    seq = BernoulliProductSequence(p)
    closed = compute_moments(seq, method="closed-form")
    exact = compute_moments(seq, method="enumerate")
    for field in ("e_x", "e_xn1", "e_x_xn1", "e_n1_bracket", "e_x_n1_bracket", "e_x_n2m1"):
        assert np.allclose(getattr(closed, field), getattr(exact, field), rtol=0, atol=1e-14)
    assert closed.mean_w == pytest.approx(exact.mean_w, abs=1e-14)
    assert closed.var_w == pytest.approx(exact.var_w, abs=1e-13)


def test_consecutive_products_multiply_left_to_right_and_pad_with_zeros():
    p = np.array([0.1, 0.7, 0.3, 0.9])
    pair, triple, quad = consecutive_products(p, 2, 3)
    assert pair.tolist() == [0.1 * 0.7, 0.7 * 0.3, 0.3 * 0.9]
    assert triple.tolist() == [0.1 * 0.7 * 0.3, 0.7 * 0.3 * 0.9, 0.0]
    assert quad.tolist() == [0.1 * 0.7 * 0.3 * 0.9, 0.0, 0.0]
    single, *_ = consecutive_products(p, 1, 4)
    assert single.tolist() == p.tolist()
    assert [v.tolist() for v in consecutive_products(np.array([0.5]), 1, 1)] == [[0.5], [0.0], [0.0]]


def test_no_moments_without_enumeration_or_closed_form():
    seq = _WindowGroups([0.3] * 26, k2=1, size=2)  # 2^26 outcomes, no closed form
    assert not seq.enumerable
    with pytest.raises(UnavailableError):
        compute_moments(seq)
    with pytest.raises(ValueError):
        compute_moments(TwoRunsModel([0.3] * 4), method="sample")


def test_sum_distribution_matches_binomial():
    seq = BernoulliProductSequence([0.5] * 4)
    masses = brute_force_distribution(seq).as_array()
    assert np.allclose(masses, np.array([1, 4, 6, 4, 1]) / 16.0)


def test_exact_enumeration_agrees_with_vectorized():
    seq = TwoRunsModel([0.25, 0.5, 0.75, 0.5])
    probs = seq.outcome_probs()
    xs = seq.x_values()
    seen = 0.0
    for bits, prob, x in seq.iter_exact():
        idx = sum(b << t for t, b in enumerate(bits))
        assert float(prob) == pytest.approx(probs[idx], abs=1e-15)
        assert tuple(x) == tuple(xs[idx])
        seen += float(prob)
    assert seen == pytest.approx(1.0, abs=1e-12)


def test_json_round_trip():
    for seq in [
        TwoRunsModel([0.1, 0.2, 0.3]),
        K1K2Model(2, 1, 2, [0.3] * 6),
        BernoulliProductSequence([0.25, 0.5]),
    ]:
        clone = sequence_from_json(seq.to_json())
        assert type(clone) is type(seq)
        assert np.array_equal(clone.trial_probs, seq.trial_probs)
        assert clone.n == seq.n


# -- streaming moments against the full-matrix evaluation ------------------------


def _reference_outcome_probs(seq) -> np.ndarray:
    """Per-trial product over the bit matrix, in trial order."""
    bits = seq.enumerate_bits()
    probs = np.ones(seq.outcome_count, dtype=float)
    for t, p in enumerate(seq.trial_probs):
        probs *= np.where(bits[:, t] == 1, p, 1.0 - p)
    return probs


def _reference_window_matrix(xs: np.ndarray, n: int, ell: int) -> np.ndarray:
    padded = np.zeros((xs.shape[0], n + 2 * ell), dtype=np.int64)
    padded[:, ell : ell + n] = xs
    out = np.zeros((xs.shape[0], n), dtype=np.int64)
    for off in range(-ell, ell + 1):
        out += padded[:, ell + off : ell + off + n]
    return out


def _reference_moments(seq) -> MomentSet:
    """Every moment as one dot product over full (outcomes, n) matrices."""
    xs = seq.x_values().astype(np.int64)
    w = _reference_outcome_probs(seq)
    n = seq.n
    xn1 = _reference_window_matrix(xs, n, 1)
    xn2 = _reference_window_matrix(xs, n, 2)
    bracket = xn1 * (2 * xn2 - xn1 - 1)

    def expect(cols: np.ndarray) -> tuple:
        return tuple(float(w @ cols[:, i].astype(float)) for i in range(n))

    total = xs.sum(axis=1).astype(float)
    mean_w = float(w @ total)
    var_w = float(w @ total**2) - mean_w**2
    return MomentSet(expect(xs), expect(xn1), expect(xs * xn1), expect(bracket),
                     expect(xs * bracket), expect(xs * (xn2 - 1)),
                     mean_w, var_w)


class _LastTrialCopies(DependentSequence):
    """``X_1 = ... = X_5 = scale * trial_17`` as ``uint8``: 0 in the first row
    block of the enumeration, ``scale`` in the second."""

    def __init__(self, scale: int):
        super().__init__([0.5] * 17, n=5, kind="last-trial-copies")
        self.scale = scale

    def x_columns(self, bits):
        return np.repeat(bits[:, -1:] * np.uint8(self.scale), 5, axis=1)


def _bit_identity_cases():
    rng = np.random.default_rng(2024)
    return {
        "two-runs n=12": TwoRunsModel(rng.uniform(0.02, 0.5, 13).tolist()),
        "two-runs n=1": TwoRunsModel([0.3, 0.7]),
        "two-runs n=2": TwoRunsModel([0.3, 0.7, 0.45]),
        "(1,2)-runs n=5": K1K2Model(1, 2, 5, rng.uniform(0.1, 0.6, 12).tolist()),
        "bernoulli product": BernoulliProductSequence(
            rng.uniform(0.0, 1.0, 10).tolist() + [0.0, 1.0]
        ),
        "blocked windows": _WindowGroups(rng.uniform(0.1, 0.6, 10).tolist(), k2=2, size=2),
        # Interior windows read all 18 trials, past one row block.
        "(2,2)-runs n=5": K1K2Model(2, 2, 5, rng.uniform(0.1, 0.6, 18).tolist()),
        # Every summand reads every trial: a window table of every outcome.
        "last-trial copies 52": _LastTrialCopies(52),
    }


def test_probability_blocks_are_the_outcome_probabilities_bit_for_bit():
    """Formed per row block, with the trials past the first block and a
    trial at 0 and one at 1, the probabilities are those of the doubled
    table, and nothing is cached; once the table is cached, each block is
    a slice of it."""
    probs = np.random.default_rng(3).uniform(0.05, 0.6, 20).tolist()
    probs[4], probs[19] = 0.0, 1.0
    seq = BernoulliProductSequence(probs)
    blocks = [(rows, block.copy()) for rows, block in seq._prob_blocks()]
    assert "probs" not in seq._cache
    assert [rows.start for rows, _ in blocks] == [k * 2**16 for k in range(16)]
    want = seq.outcome_probs()
    assert np.array_equal(np.concatenate([block for _, block in blocks]), want)
    assert np.array_equal(want, _reference_outcome_probs(seq))
    assert all(np.shares_memory(block, want) for _, block in seq._prob_blocks())


@pytest.mark.parametrize("name", sorted(_bit_identity_cases()))
def test_streamed_moments_bit_identical_to_full_matrix(name):
    seq = _bit_identity_cases()[name]
    assert np.array_equal(seq.outcome_probs(), _reference_outcome_probs(seq))
    got = compute_moments(seq, method="enumerate")
    want = _reference_moments(seq)
    for field in ("e_x", "e_xn1", "e_x_xn1", "e_n1_bracket", "e_x_n1_bracket",
                  "e_x_n2m1", "mean_w", "var_w"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


# -- mean and variance of W without the per-index moments ---------------------------


def _reference_mean_var(seq) -> tuple:
    """The enumerated mean and variance as the per-index stream used to form
    them: ``W`` accumulated column by column in float64, then two dot products."""
    w = seq.outcome_probs()
    total = np.zeros(len(w))
    for col in seq.x_values().T:
        total += col.astype(float)
    mean = float(w @ total)
    return mean, float(w @ total**2) - mean**2


class _ScaledTwoRuns(DependentSequence):
    """2-runs indicators times ``scale``."""

    def __init__(self, probs, scale: int):
        super().__init__(probs, n=len(probs) - 1, kind="scaled-two-runs")
        self.scale = scale

    def x_columns(self, bits):
        return self.scale * (bits[:, :-1] * bits[:, 1:]).astype(np.int16)


def _mean_var_cases():
    rng = np.random.default_rng(9)
    cases = {}
    for n in range(1, 17):
        p = rng.uniform(0.05, 0.5, n + 1)
        zero = rng.integers(0, n + 1)
        p[zero], p[(zero + 1) % (n + 1)] = 0.0, 1.0
        cases[f"two-runs n={n}"] = TwoRunsModel(p.tolist())
    cases["(1,2)-runs n=6"] = K1K2Model(1, 2, 6, rng.uniform(0.1, 0.5, 14).tolist())
    cases["(2,2)-runs n=4"] = K1K2Model(2, 2, 4, rng.uniform(0.1, 0.5, 15).tolist())
    cases["bernoulli product"] = BernoulliProductSequence(
        rng.uniform(0.0, 1.0, 12).tolist() + [0.0, 1.0])
    # Pairs of (1,2)-runs blocks: groups of four windows, values up to 2.
    cases["blocked (1,2)-runs"] = _WindowGroups(rng.uniform(0.1, 0.5, 12).tolist(), k2=2, size=4)
    # 5 * 52 > 255: radius-2 windows past a byte, summed in int32.
    cases["scaled two-runs 52"] = _ScaledTwoRuns([0.5] * 8, 52)
    cases["(2,2)-runs n=5"] = K1K2Model(2, 2, 5, rng.uniform(0.1, 0.5, 18).tolist())
    cases["last-trial copies 52"] = _LastTrialCopies(52)
    return cases


@pytest.mark.parametrize("name", sorted(_mean_var_cases()))
def test_mean_var_equals_the_enumerated_moment_set(name):
    seq = _mean_var_cases()[name]
    m = compute_moments(seq)
    assert mean_var(seq) == (m.mean_w, m.var_w)
    assert mean_var(seq) == _reference_mean_var(seq)


def _window(seq, xs, i, ell) -> np.ndarray:
    idx = seq.neighborhood_indices(i, ell)
    return xs[:, idx.start - 1 : idx.stop - 1].sum(axis=1)


def _reference_moment_fields(seq) -> tuple:
    """The six per-index moment tuples, formed the way the buffered kernel
    replaced: float64 windows summed from slices of the summand matrix, and
    a fresh array for every integrand."""
    xs = seq.x_values()
    w = seq.outcome_probs()
    fields = tuple([] for _ in range(6))
    for i in range(1, seq.n + 1):
        x = xs[:, i - 1].astype(float)
        xn1, xn2 = (_window(seq, xs, i, ell).astype(float) for ell in (1, 2))
        bracket = xn1 * (2 * xn2 - xn1 - 1)
        for out, v in zip(fields, (x, xn1, x * xn1, bracket, x * bracket, x * (xn2 - 1))):
            out.append(float(w @ v))
    return tuple(tuple(f) for f in fields)


def _reference_d(seq, i: int, conditioning: str, cols) -> np.ndarray:
    """Each outcome's ``D`` read from :func:`exact_conditional_D`'s map by
    the value of its conditioning columns ``cols``; 0.0 for a value the map
    leaves out, which no outcome of positive probability takes."""
    d = exact_conditional_D(seq, i, conditioning)
    values, inverse = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)
    keys = [tuple(v) if len(v) > 1 else v[0] for v in values.tolist()]
    return np.array([d.get(key, 0.0) for key in keys])[inverse.reshape(-1)]


def _reference_weighted_sums(seq) -> tuple:
    """Theorem 3.1's weighted sums with int64 windows summed from slices of
    the summand matrix and a fresh array for every integrand and weight."""
    xs = seq.x_values()
    w = seq.outcome_probs()
    sum_q1 = sum_q2 = sum_lin = 0.0
    for i in range(1, seq.n + 1):
        xi = xs[:, i - 1].astype(float)
        v1, v2 = (_window(seq, xs, i, ell).astype(np.int64) for ell in (1, 2))
        bracket = (v1 * (2 * v2 - v1 - 1)).astype(float)
        d12_w = _reference_d(seq, i, "n1n2", (v1, v2))
        d2_w = _reference_d(seq, i, "n2", (v2,))
        sum_q1 += float(w @ xi) * float(w @ (bracket * d12_w))
        sum_q2 += float(w @ (xi * bracket * d12_w))
        sum_lin += float(w @ (xi * (v2 - 1).astype(float) * d2_w))
    return sum_q1, sum_q2, sum_lin


@pytest.mark.parametrize("name", sorted(_mean_var_cases()))
def test_buffered_kernels_equal_the_fresh_array_references(name):
    seq = _mean_var_cases()[name]
    m = _moments_by_enumeration(seq)
    got = (m.e_x, m.e_xn1, m.e_x_xn1, m.e_n1_bracket, m.e_x_n1_bracket, m.e_x_n2m1)
    assert np.array_equal(got, _reference_moment_fields(_mean_var_cases()[name]))
    sums = ExactConditionalTerms(seq).weighted_sums()
    assert sums == _reference_weighted_sums(_mean_var_cases()[name])


def test_the_kernel_cases_reach_summand_value_two():
    assert _mean_var_cases()["blocked (1,2)-runs"].x_values().max() == 2


@pytest.mark.parametrize("name", ["two-runs n=12", "two-runs n=1", "two-runs n=2",
                                  "(2,2)-runs n=5", "last-trial copies 52"])
def test_window_tables_expand_to_the_full_map_window_sums(name):
    """Outcome ``r`` reads row ``(r >> first) & (2^(stop-first) - 1)`` of its
    window table, which is the window's sum over the full summand map, at
    ``first = 0``, at ``0 < first`` with ``stop < T``, at ``stop = T`` and
    on the clipped windows of n=1 and n=2."""
    seq = _bit_identity_cases()[name]
    x = seq.x_columns(seq.enumerate_bits())
    r = np.arange(seq.outcome_count)
    buffer = np.empty(seq.outcome_count)
    edges = set()
    for i in range(1, seq.n + 1):
        windows = (range(i, i + 1), *(seq.neighborhood_indices(i, ell) for ell in (1, 2)))
        first, stop, tables = seq._window_table(*windows)
        mask = (1 << (stop - first)) - 1
        for table, window in zip(tables, windows, strict=True):
            assert len(table) == mask + 1
            got = seq._expand(first, stop, table, buffer)
            assert np.array_equal(got, table[(r >> first) & mask])
            assert np.array_equal(got, x[:, window.start - 1 : window.stop - 1].sum(axis=1))
        edges.add((first > 0, stop == seq.trial_count))
    want = {"two-runs n=12": {(False, False), (True, False), (True, True)},
            "(2,2)-runs n=5": {(False, False), (False, True), (True, True)}}
    assert edges == want.get(name, {(False, True)})


def test_the_tables_stream_W_once_per_build_and_not_once_it_is_cached(monkeypatch):
    """On the 15-trial 2-runs model :meth:`_window_sums` streams ``W`` once
    per index's table build of the weighted sums, and not at all once ``W``
    is cached, for the tables or the moments."""
    def make():
        return TwoRunsModel(np.random.default_rng(15).uniform(0.05, 0.5, 15).tolist())

    calls = []
    window_sums = DependentSequence._window_sums

    def counted(self, **kwargs):
        calls.append(kwargs)
        return window_sums(self, **kwargs)

    monkeypatch.setattr(DependentSequence, "_window_sums", counted)
    seq = make()
    ExactConditionalTerms(seq).weighted_sums()
    assert calls == [{}] * seq.n
    ExactConditionalTerms(seq).weighted_sums()  # read back from the memo
    assert len(calls) == seq.n
    seq = make()
    seq.w_values()
    calls.clear()
    ExactConditionalTerms(seq).weighted_sums()
    _moments_by_enumeration(seq)
    assert calls == []


@pytest.mark.parametrize("scale, dtype", [(51, np.uint8), (52, np.int32)])
def test_window_sums_widen_past_a_byte(scale, dtype):
    seq = _LastTrialCopies(scale)
    xs = _LastTrialCopies(scale).x_values()
    first, stop, (v1, v2) = seq._window_table(
        *(seq.neighborhood_indices(3, ell) for ell in (1, 2)))
    assert v1.dtype == np.uint8 and v2.dtype == dtype  # 3 * 52 fits a byte, 5 * 52 not
    for table, want in ((v1, xs[:, 1:4].sum(axis=1)), (v2, xs.sum(axis=1))):
        assert np.array_equal(seq._expand(first, stop, table, np.empty(len(xs), int)), want)
    total = seq._window_sums()
    assert total.dtype == dtype  # 5 * 51 fits a byte, 5 * 52 not
    assert np.array_equal(total, xs.sum(axis=1))
    assert "x" not in seq._cache  # streamed, not read from the matrix
    assert np.array_equal(seq.w_values(), xs.sum(axis=1))


def test_window_sums_stay_byte_wide_after_the_summand_matrix_is_cached():
    seq = TwoRunsModel([0.3] * 12)
    xs = seq.x_values()
    buffer = np.empty(seq.outcome_count, np.uint8)
    for i in range(1, seq.n + 1):
        windows = [seq.neighborhood_indices(i, ell) for ell in (1, 2)]
        first, stop, tables = seq._window_table(*windows)
        for table, window in zip(tables, windows):
            assert table.dtype == np.uint8
            assert np.array_equal(seq._expand(first, stop, table, buffer),
                                  xs[:, window.start - 1 : window.stop - 1].sum(axis=1))
    total = seq._window_sums()
    assert total.dtype == np.uint8 and np.array_equal(total, xs.sum(axis=1))


def test_mean_var_holds_two_outcome_vectors():
    """The probabilities and one float64 buffer of ``W`` take 16 MB each at
    21 trials.  An int32 ``W`` with a float copy and a squared copy besides
    would take 56 MB in all."""
    seq = TwoRunsModel([0.05] * 21)
    tracemalloc.start()
    try:
        mean_var(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45 * 2**20
    assert "w" not in seq._cache  # W was streamed, not cached


@pytest.mark.parametrize("make", [
    lambda: TwoRunsModel([0.3, 0.5, 0.2, 0.4, 0.6, 0.35, 0.45]),
    lambda: K1K2Model(1, 2, 4, [0.3, 0.4] * 5),
    lambda: BernoulliProductSequence([0.3, 0.6, 0.2, 0.5, 0.45]),
], ids=["two-runs", "(1,2)-runs", "product"])
def test_per_index_columns_are_streamed_without_the_summand_matrix(make):
    seq = make()
    compute_moments(seq, "enumerate")
    ExactConditionalTerms(seq).weighted_sums()
    dependence_certificate(seq)
    exact_conditional_D(seq, 1, "n2")
    assert "x" not in seq._cache and "bits" not in seq._cache


@pytest.mark.parametrize("reader, ceiling_mib", [
    (lambda seq: compute_moments(seq, "enumerate"), 56),
    (lambda seq: ExactConditionalTerms(seq).weighted_sums(), 64),
    (dependence_certificate, 80),
], ids=["moments", "weighted sums", "certificate"])
def test_moments_and_certificate_peak_below_the_summand_matrix(reader, ceiling_mib):
    """At 21 trials an outcome vector of float64 or int64 takes 16 MB, and
    the ``(2^21, 20)`` int16 summand matrix 84 MB.  The moments hold the
    probabilities and one outcome buffer, for each integrand and then for
    ``W``; the weighted sums the probabilities, one outcome buffer and the
    byte-wide groups and ``W`` of one index's conditional tables; the
    certificate the probabilities and three keys, besides a few byte-wide
    columns.  A second outcome-length float64 buffer passes the moments'
    ceiling, two more the weighted sums' one, and the matrix either."""
    seq = TwoRunsModel([0.05] * 21)
    tracemalloc.start()
    try:
        reader(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling_mib * 2**20


def test_mean_var_beyond_enumeration_is_the_closed_form():
    seq = TwoRunsModel([0.3] * 30)
    assert not seq.enumerable
    m = compute_moments(seq)
    closed = seq.closed_form_moments()
    assert mean_var(seq) == (m.mean_w, m.var_w) == (closed.mean_w, closed.var_w)
    with pytest.raises(UnavailableError):
        mean_var(_WindowGroups([0.3] * 30, k2=1, size=2))


def _reference_bits(trials: int) -> np.ndarray:
    """Column ``t`` holds bit ``t`` of the row index, one shift per trial."""
    idx = np.arange(1 << trials, dtype=np.uint64)
    bits = np.empty((1 << trials, trials), dtype=np.uint8)
    for t in range(trials):
        bits[:, t] = (idx >> np.uint64(t)) & np.uint64(1)
    return bits


@pytest.mark.parametrize("trials", [1, 2, 8, 17, 21])
def test_enumerate_bits_matches_the_shift_loop(trials):
    bits = BernoulliProductSequence([0.5] * trials).enumerate_bits()
    want = _reference_bits(trials)
    assert bits.dtype == want.dtype and bits.shape == want.shape
    assert bits.flags.c_contiguous
    assert np.array_equal(bits, want)


# -- the outcome space streamed in row blocks ---------------------------------------

_STREAM_KINDS = ("two-runs", "(k1,k2)-runs", "(k1,k2) windows", "bernoulli product",
                 "blocked")


def _stream_case(kind: str, trials: int):
    """A fresh model of ``kind`` over ``trials`` trials: (1,2)-runs where the
    count allows it, else (1,1)-runs; blocked windows need two trials, and
    one trial is its own block."""
    p = [0.05 + 0.9 * ((7 * t) % 11) / 11 for t in range(trials)]
    k2 = 2 if trials % 2 == 0 and trials >= 4 else 1
    n = trials // k2 - 1
    return {
        "two-runs": lambda: TwoRunsModel(p),
        "(k1,k2)-runs": lambda: K1K2Model(1, k2, n, p),
        "(k1,k2) windows": lambda: _WindowGroups(p, k2, size=1),
        "bernoulli product": lambda: BernoulliProductSequence(p),
        "blocked": lambda: (_WindowGroups(p, k2, size=3) if trials >= 2
                            else BernoulliProductSequence(p)),
    }[kind]()


# Trial counts below, at and past one block of 2^16 outcomes; one trial has
# no runs model.
_STREAM_CASES = [(kind, trials) for trials in (1, 2, 15, 16, 17, 21) for kind in _STREAM_KINDS
                 if trials >= 2 or kind in ("bernoulli product", "blocked")]


@pytest.mark.parametrize("kind,trials", _STREAM_CASES)
def test_streamed_values_equal_the_full_bit_matrix_map(kind, trials):
    seq = _stream_case(kind, trials)
    want = seq.x_columns(seq.enumerate_bits())
    xs = seq.x_values()
    assert xs.dtype == np.int16 and xs.flags.f_contiguous
    assert np.array_equal(xs, want)
    assert np.array_equal(seq.w_values(), want.sum(axis=1))  # after x_values
    total = _stream_case(kind, trials).w_values()  # without x_values
    assert total.dtype == np.int32
    assert np.array_equal(total, want.sum(axis=1))


class _FarEnds(DependentSequence):
    """``X_1 = low trial_1`` and ``X_2 = high trial_19``, as ``uint8``: the
    second summand's span starts past the first row block of ``2^16``
    outcomes (``a = 18``), and the first ends inside it."""

    def __init__(self, low: int = 1, high: int = 3):
        super().__init__([(t % 5 + 1) / 8 for t in range(19)], n=2, kind="far-ends")
        self.low, self.high = np.uint8(low), np.uint8(high)

    def x_columns(self, bits):
        return np.stack([self.low * bits[:, 0], self.high * bits[:, -1]]).T

    def trial_span(self, i):
        return range(0, 1) if i == 1 else range(18, 19)


# Trial counts below, at and past one block, spans that cross its edge
# ((1,2)-runs n=9) or start past it (the far ends), windows wider than one
# block that start past trial 0 (index 4 of (2,2)-runs n=6 reads trials
# 3..20), a window whose two parts each fit a byte while their sum does not
# (the far ends at 200), and models that keep the default span of every
# trial.
_SPAN_CASES = {
    **{f"{kind} T={trials}": (lambda kind=kind, trials=trials: _stream_case(kind, trials))
       for trials in (3, 15, 16, 17, 21)
       for kind in ("bernoulli product", "two-runs", "(k1,k2)-runs")},
    "(1,2)-runs n=9": lambda: K1K2Model(1, 2, 9, [(t % 5 + 2) / 16 for t in range(20)]),
    "(2,2)-runs n=6": lambda: K1K2Model(2, 2, 6, [(t % 5 + 2) / 16 for t in range(21)]),
    "far ends": _FarEnds,
    "far ends at 200": lambda: _FarEnds(200, 200),
    "last-trial copies 51": lambda: _LastTrialCopies(51),
    "last-trial copies 52": lambda: _LastTrialCopies(52),
    "scaled two-runs T=8": lambda: _ScaledTwoRuns([0.3] * 8, 5),
    "scaled two-runs T=17": lambda: _ScaledTwoRuns([0.3] * 17, 5),
}


@pytest.mark.parametrize("name", _SPAN_CASES)
def test_w_values_and_mean_var_equal_the_row_sums_of_the_full_map(name):
    make = _SPAN_CASES[name]
    seq = make()
    want = seq.x_columns(seq.enumerate_bits()).sum(axis=1, dtype=np.int32)
    total = seq.w_values()
    assert total.dtype == np.int32
    assert np.array_equal(total, want)
    w = seq.outcome_probs()
    mean = float(w @ want.astype(float))
    expected = (mean, float(w @ want.astype(float) ** 2) - mean**2)
    assert mean_var(make()) == mean_var(seq) == expected  # streamed, then cached


def _byte_wide(x: np.ndarray, block: np.ndarray, width: int) -> bool:
    """Whether a sum of ``width`` summands of ``block`` is kept in a byte."""
    return x.dtype == np.uint8 and int(block.max()) * width <= 255


@pytest.mark.parametrize("name", [name for name in _SPAN_CASES if "T=21" not in name])
def test_window_tables_and_W_from_the_spans_equal_the_full_map_windows(name):
    seq = _SPAN_CASES[name]()
    x = seq.x_columns(seq.enumerate_bits())
    for i in range(1, seq.n + 1):  # X_i and its radius-1 and radius-2 windows
        windows = [range(i, i + 1)] + [seq.neighborhood_indices(i, ell) for ell in (1, 2)]
        first, stop, tables = seq._window_table(*windows)
        for table, window in zip(tables, windows):
            block = x[:, window.start - 1 : window.stop - 1]
            got = seq._expand(first, stop, table, np.empty(seq.outcome_count, table.dtype))
            assert got.dtype == (np.uint8 if _byte_wide(x, block, len(window)) else np.int32)
            assert np.array_equal(got, block.sum(axis=1, dtype=np.int32)), (i, window)
    total = seq._window_sums()
    assert total.dtype == (np.uint8 if _byte_wide(x, x, seq.n) else np.int32)
    assert np.array_equal(total, x.sum(axis=1, dtype=np.int32))
    assert "x" not in seq._cache


_SPAN_MODELS = [
    BernoulliProductSequence([0.5] * 7),
    TwoRunsModel([0.5] * 9),
    K1K2Model(1, 1, 6, [0.5] * 7),
    K1K2Model(1, 2, 4, [0.5] * 10),
    K1K2Model(2, 2, 3, [0.5] * 12),
    K1K2Model(3, 1, 2, [0.5] * 9),
]


@pytest.mark.parametrize("seq", _SPAN_MODELS, ids=lambda s: f"{s.kind}-T{s.trial_count}")
def test_flipping_a_trial_outside_the_span_keeps_the_summand(seq):
    x = seq.x_columns(seq.enumerate_bits())
    rows = np.arange(seq.outcome_count)
    for t in range(seq.trial_count):
        flipped = x[rows ^ (1 << t)]
        for i in range(1, seq.n + 1):
            span = seq.trial_span(i)
            assert 0 <= span.start < span.stop <= seq.trial_count
            if t not in span:
                assert np.array_equal(flipped[:, i - 1], x[:, i - 1]), (i, t)


def _block_of(dtype, n: int, top: int) -> np.ndarray:
    """A column-major ``(300, n)`` block of values in ``0..top``, in
    ``dtype``, whose first row is all ``top``."""
    rng = np.random.default_rng(n * 1000 + top)
    x = np.asfortranarray(rng.integers(0, top + 1, (300, n)).astype(dtype))
    x[0] = top
    return x


# n * top at 255 sums at byte width, at 256 in int32.
@pytest.mark.parametrize("n,top,byte_wide", [
    (1, 255, True), (5, 51, True), (15, 17, True), (255, 1, True),
    (8, 32, False), (2, 128, False), (256, 1, False),
])
def test_row_sums_at_byte_width_only_where_no_row_can_overflow(n, top, byte_wide):
    x = _block_of(np.uint8, n, top)
    got = _row_sums(x)
    assert got.dtype == (np.uint8 if byte_wide else np.int32)
    assert np.array_equal(got, x.sum(axis=1, dtype=np.int32))
    assert int(got[0]) == n * top


@pytest.mark.parametrize("dtype,top", [(bool, 1), (np.int16, 300)])
def test_row_sums_of_other_dtypes_are_int32(dtype, top):
    x = _block_of(dtype, 20, top)
    got = _row_sums(x)
    assert got.dtype == np.int32
    assert np.array_equal(got, x.sum(axis=1, dtype=np.int32))


_BYTE_WIDE_MODELS = {
    "2-runs n=20": lambda: TwoRunsModel([0.05] * 21),
    "17-trial product": lambda: BernoulliProductSequence([(t % 7 + 1) / 16 for t in range(17)]),
    "(1,2)-runs n=7": lambda: K1K2Model(1, 2, 7, [0.3] * 16),
}


@pytest.mark.parametrize("name", _BYTE_WIDE_MODELS)
def test_w_summed_at_byte_width_equals_the_int32_sums(name):
    streamed = _BYTE_WIDE_MODELS[name]()
    total = streamed.w_values()
    recorded = _BYTE_WIDE_MODELS[name]()
    recorded.x_values()
    assert total.dtype == recorded.w_values().dtype == np.int32
    for rows, x in streamed._x_blocks():
        assert x.dtype == np.uint8 and int(x.max()) * streamed.n <= 255  # byte width
        want = x.sum(axis=1, dtype=np.int32)
        assert np.array_equal(total[rows], want)
        assert np.array_equal(recorded.w_values()[rows], want)


def test_mean_var_keeps_neither_bits_nor_summand_values():
    seq = TwoRunsModel([0.05] * 21)
    mean, var = mean_var(seq)
    assert "bits" not in seq._cache and "x" not in seq._cache
    total = seq.x_columns(seq.enumerate_bits()).sum(axis=1).astype(float)
    w = _reference_outcome_probs(seq)
    assert mean == float(w @ total)
    assert var == float(w @ total**2) - mean**2


class _MisshapedProduct(BernoulliProductSequence):
    def x_columns(self, bits):
        return bits[:, 1:]


@pytest.mark.parametrize("trials", [3, 17])
@pytest.mark.parametrize("reader", ["w_values", "x_values"])
def test_misshaped_mapping_is_refused(reader, trials):
    with pytest.raises(ValueError, match="misshaped"):
        getattr(_MisshapedProduct([0.5] * trials), reader)()
