"""Tests for the dependent-sequence carrier: enumeration, moments, blocking."""

import math

import numpy as np
import pytest

from psdapprox.errors import EnumerationLimitError
from psdapprox.sequences import (
    BernoulliProductSequence,
    MomentSet,
    block_m_dependent,
    compute_moments,
    dependence_certificate,
    neighborhood_sum,
    sequence_from_json,
)
from psdapprox.oracle import brute_force_distribution
from psdapprox.runs import K1K2Model, K1K2WindowSequence, TwoRunsModel


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
    for i in range(1, seq.n + 1):
        inner = neighborhood_sum(seq, i, 1)
        outer = neighborhood_sum(seq, i, 2)
        ring = sorted(set(outer.indices) - set(inner.indices))
        ring_vals = xs[:, [j - 1 for j in ring]].sum(axis=1) if ring else 0
        assert np.array_equal(outer.values() - inner.values(), ring_vals)


def test_outcome_probabilities_sum_to_one():
    seq = TwoRunsModel([0.2, 0.7, 0.4, 0.15])
    assert math.fsum(seq.outcome_probs()) == pytest.approx(1.0, abs=1e-12)


def test_blocking_identity_for_independent():
    seq = BernoulliProductSequence([0.3, 0.4, 0.5, 0.6])
    blocked = block_m_dependent(seq)  # radius 0 treated as singleton blocks
    assert blocked.n == 4
    assert blocked.blocks == ((1, 1), (2, 2), (3, 3), (4, 4))


def test_blocking_sizes_and_sum_preservation():
    seq = BernoulliProductSequence([0.3, 0.4, 0.5, 0.6, 0.7])
    blocked = block_m_dependent(seq, m=2)
    assert [hi - lo + 1 for lo, hi in blocked.blocks] == [2, 2, 1]
    xs = seq.x_values().sum(axis=1)
    bs = blocked.x_values().sum(axis=1)
    assert np.array_equal(xs, bs)


def test_blocking_k1k2_windows_matches_block_model():
    # m-dependent window sequence, blocked by m, reproduces the 1-dependent
    # block model exactly and passes the factorization certificate.
    k1, k2, n = 1, 2, 3
    m = k1 + k2 - 1
    p = [0.35] * ((n + 1) * m)
    windows = K1K2WindowSequence(k1, k2, n, p)
    assert windows.dependence_radius == m
    blocked = block_m_dependent(windows)
    assert blocked.n == n  # ceil(nm / m)
    assert blocked.dependence_radius == 1
    model = K1K2Model(k1, k2, n, p)
    assert np.array_equal(blocked.x_values(), model.x_values())
    assert dependence_certificate(blocked, gap=2)


def test_block_m_dependent_rejects_bad_m():
    with pytest.raises(ValueError):
        block_m_dependent(BernoulliProductSequence([0.5, 0.5]), m=0)


def test_one_dependence_certificates():
    assert dependence_certificate(TwoRunsModel([0.3, 0.5, 0.2, 0.4, 0.6]), gap=2)
    assert dependence_certificate(BernoulliProductSequence([0.3, 0.6, 0.2]), gap=1)
    assert dependence_certificate(K1K2Model(1, 1, 4, [0.4] * 5), gap=2)
    # 2-runs is NOT 0-dependent: adjacent split must fail to factorize.
    assert not dependence_certificate(TwoRunsModel([0.5] * 4), gap=1)


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


def test_sampled_moments_flagged_and_close():
    seq = TwoRunsModel([0.4] * 7)
    exact = compute_moments(seq)
    sampled = compute_moments(seq, method="sample",
                              rng=np.random.default_rng(99), samples=120_000)
    assert not sampled.certified
    assert sampled.std_error is not None
    assert sampled.mean_w == pytest.approx(exact.mean_w, abs=6 * sampled.std_error)


def test_enumeration_cutoff_enforced():
    seq = BernoulliProductSequence([0.5] * 25)
    assert not seq.enumerable
    with pytest.raises(EnumerationLimitError):
        seq.enumerate_bits()
    mom = compute_moments(seq, samples=10_000)
    assert not mom.certified


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
        assert clone.trial_probs == seq.trial_probs
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
                     mean_w, var_w, certified=True)


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
        "blocked windows": block_m_dependent(
            K1K2WindowSequence(1, 2, 4, rng.uniform(0.1, 0.6, 10).tolist())
        ),
    }


@pytest.mark.parametrize("name", sorted(_bit_identity_cases()))
def test_streamed_moments_bit_identical_to_full_matrix(name):
    seq = _bit_identity_cases()[name]
    assert np.array_equal(seq.outcome_probs(), _reference_outcome_probs(seq))
    got = compute_moments(seq, method="enumerate")
    want = _reference_moments(seq)
    for field in ("e_x", "e_xn1", "e_x_xn1", "e_n1_bracket", "e_x_n1_bracket",
                  "e_x_n2m1", "mean_w", "var_w", "certified", "std_error"):
        assert getattr(got, field) == getattr(want, field), field
