"""Every per-trial and per-index vector is a read-only float64 array,
copied from what its constructor is given: the trial probabilities, the six
per-index fields of a moment set, a smoothing estimate's ``c`` and ``raw``,
and the runs models' smoothing constants and closed-form terms."""

import dataclasses

import numpy as np
import pytest

from psdapprox.bounds import SmoothingEstimate, build_smoothing
from psdapprox.families import poisson_family
from psdapprox.runs import K1K2Model, TwoRunsModel, k1k2_bound, two_runs_bound
from psdapprox.sequences import (
    BernoulliProductSequence,
    MomentSet,
    compute_moments,
    neighborhood_moment_set,
)


def _assert_read_only_float64(v, n):
    assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (n,)
    assert not v.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        v[0] = 1.0


def _models():
    return [TwoRunsModel(np.linspace(0.1, 0.4, 11)),
            K1K2Model(1, 2, 7, [0.25] * 16),
            BernoulliProductSequence([0.125, 0.25, 0.375, 0.5, 0.625, 0.75])]


@pytest.mark.parametrize("model", _models(), ids=lambda m: m.kind)
def test_trial_probabilities_are_read_only_float64(model):
    _assert_read_only_float64(model.trial_probs, model.trial_count)
    assert model.to_json()["p"] == model.trial_probs.tolist()


def test_a_sequence_copies_its_trial_probabilities():
    given = np.linspace(0.1, 0.4, 11)
    seq = TwoRunsModel(given)
    assert np.array_equal(seq.trial_probs, given) and not np.shares_memory(seq.trial_probs, given)
    assert given.flags.writeable
    with pytest.raises(ValueError, match="one sequence of numbers"):
        BernoulliProductSequence([[0.1, 0.2]])


@pytest.mark.parametrize("model", _models(), ids=lambda m: m.kind)
@pytest.mark.parametrize("method", ["enumerate", "closed-form"])
def test_moment_fields_are_read_only_float64(model, method):
    moments = compute_moments(model, method)
    for name in ("e_x", "e_xn1", "e_x_xn1", "e_n1_bracket", "e_x_n1_bracket", "e_x_n2m1"):
        _assert_read_only_float64(getattr(moments, name), model.n)


def test_a_moment_set_copies_its_arrays():
    fields = [np.linspace(0.0, 1.0, 5) + k for k in range(6)]
    moments = MomentSet(*fields, mean_w=1.0, var_w=2.0)
    for given, name in zip(fields, ("e_x", "e_xn1", "e_x_xn1", "e_n1_bracket",
                                    "e_x_n1_bracket", "e_x_n2m1")):
        kept = getattr(moments, name)
        assert np.array_equal(kept, given) and not np.shares_memory(kept, given)
        assert given.flags.writeable
    replaced = dataclasses.replace(moments, mean_w=3.0)
    assert np.array_equal(replaced.e_x, moments.e_x) and replaced.mean_w == 3.0
    # A set built from views of one padded array keeps none of it.
    mean = np.array([0.25, 0.5, 0.125])
    built = neighborhood_moment_set(mean, np.zeros(3), np.zeros(3))
    assert not np.shares_memory(built.e_x, mean)


def test_a_memoized_moment_set_cannot_be_changed_by_a_caller():
    model = TwoRunsModel([0.25] * 12)
    moments = model.closed_form_moments()
    with pytest.raises(ValueError, match="read-only"):
        moments.e_x_n2m1 += 1.0
    assert model.closed_form_moments() is moments


def test_smoothing_estimates_copy_c_and_raw():
    c, raw = np.array([0.5, 2.0, 1.5]), np.array([0.5, 4.0, 1.5])
    est = SmoothingEstimate(c, raw, ("a", "b", "c"))
    for kept, given in ((est.c, c), (est.raw, raw)):
        _assert_read_only_float64(kept, 3)
        assert np.array_equal(kept, given) and not np.shares_memory(kept, given)
        assert given.flags.writeable
    for model in _models():
        est = build_smoothing(model)
        _assert_read_only_float64(est.c, model.n)
        _assert_read_only_float64(est.raw, model.n)
        assert len(est.method) == model.n


def test_runs_constants_and_closed_form_terms_are_read_only_float64():
    two = TwoRunsModel([0.25] * 13)
    k12 = K1K2Model(1, 2, 7, [0.25] * 16)
    for model in (two, k12):
        cs, labels = model.smoothing_constants()
        _assert_read_only_float64(cs, model.n)
        assert type(labels) is tuple and len(labels) == model.n
    report = two_runs_bound(two, poisson_family(two.closed_form_moments().mean_w))
    assert report.moment_terms.shape == (two.n, 2) and not report.moment_terms.flags.writeable
    assert report.c_constant == two.smoothing_constants()[0][0]
    report = k1k2_bound(k12, poisson_family(k12.closed_form_moments().mean_w))
    assert report.moment_terms.dtype == np.float64 and not report.moment_terms.flags.writeable
    _assert_read_only_float64(report.c_constant, k12.n)
