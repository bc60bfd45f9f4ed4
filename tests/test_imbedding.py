"""The imbedding engine for theorem 3.1's weighted sums, against enumeration.

``imbedding.ImbeddedConditionalTerms`` is what the runs models'
``conditional_terms()`` hook returns, and ``bounds.build_conditional_terms``
prefers it.  Its three sums must agree with the enumeration oracle
``ExactConditionalTerms`` and with an exact-rational enumeration inlined
below, and the bound they feed must dominate the exact TV at sizes no
enumeration reaches.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from psdapprox.bounds import (
    ExactConditionalTerms,
    build_conditional_terms,
    exact_tv,
    theorem31_bound,
)
from psdapprox.errors import UnavailableError
from psdapprox.families import poisson_family
from psdapprox import imbedding
from psdapprox.imbedding import ImbeddedConditionalTerms, imbedded_weighted_sums
from psdapprox.oracle import dp_distribution, k1k2_automaton, two_runs_automaton
from psdapprox.runs import K1K2Model, TwoRunsModel, _conditional_zero_table, nb_fit_from_moments
from psdapprox.sequences import BernoulliProductSequence, compute_moments

from test_grouping import _models
from test_oracle import _EDGE_TRIALS, assert_same_floats, full_width_layers
from test_runs import _batched_dp_models


def _runs_models():
    """The runs models of ``test_grouping._models()``, then small ones with
    windows clipped at both ends, and trials at 0 and 1."""
    rng = np.random.default_rng(7)
    models = [s for s in _models() if isinstance(s, (TwoRunsModel, K1K2Model))]
    models += [TwoRunsModel(p) for p in ([0.4, 1.0], [1.0, 0.0, 0.6], [0.3, 1.0, 1.0, 0.0])]
    models += [TwoRunsModel(rng.uniform(0, 1, 14).tolist())]
    for k1, k2, n in ((1, 1, 9), (1, 2, 6), (2, 2, 4), (2, 3, 3), (1, 2, 1), (2, 3, 1)):
        size = (n + 1) * (k1 + k2 - 1)
        models.append(K1K2Model(k1, k2, n, rng.uniform(0.1, 0.7, size).tolist()))
        models.append(K1K2Model(k1, k2, n, rng.choice([0.0, 1.0, 0.4], size).tolist()))
    return models


def _close(got, want, rel):
    """Within ``rel`` of each reference sum; within 1e-15 of a sum that is 0."""
    return all(abs(g - w) <= (rel * abs(w) if w else 1e-15) for g, w in zip(got, want))


@pytest.mark.parametrize("seq", _runs_models(), ids=lambda s: f"{s.kind}-n{s.n}")
def test_engine_matches_enumeration(seq):
    engine = build_conditional_terms(seq)
    assert isinstance(engine, ImbeddedConditionalTerms)
    got = engine.weighted_sums()
    want = ExactConditionalTerms(seq).weighted_sums()
    assert _close(got, want, 1e-12), (got, want)


@pytest.mark.parametrize("per_batch", [1, 2, 3])
def test_the_batch_budget_changes_no_bit_of_either_engine(monkeypatch, per_batch):
    # Only the interior window shape has more than one index, so a budget of
    # per_batch times its cells per index (start.size << blocks) gives
    # batches of 1..per_batch indices.
    runs_models, k1k2_models = _runs_models(), _batched_dp_models()
    sizes = set()
    real_step = imbedding.block_step
    monkeypatch.setattr(imbedding, "block_step",
                        lambda layer, *args: sizes.add(len(layer)) or real_step(layer, *args))
    sums = [imbedded_weighted_sums(s.automaton, s.trial_probs, s.n, s.m) for s in runs_models]
    tables = [_conditional_zero_table(model) for model in k1k2_models]
    assert max(sizes) > 3
    sizes.clear()
    for seq, want in zip(runs_models, sums):
        cells = seq.automaton.n_states ** 2 << 5
        monkeypatch.setattr(imbedding, "_WINDOW_CELLS", per_batch * cells)
        assert imbedded_weighted_sums(seq.automaton, seq.trial_probs, seq.n, seq.m) == want
    for model, want in zip(k1k2_models, tables):
        monkeypatch.setattr(imbedding, "_WINDOW_CELLS", per_batch * (model.automaton.n_states << 3))
        assert _conditional_zero_table(model) == want
    assert max(sizes) == per_batch


# -- the banded passes against per-trial loops --------------------------------------


def _backward_cuts_reference(automaton, probs, cuts):
    """The backward pass as a per-trial loop over the states, prepending
    each trial to a fresh layer one count wider."""
    S = automaton.n_states
    layer = np.ones((S, 1))
    out, first = {}, min(cuts)
    for t in range(len(probs), first - 1, -1):
        if t in cuts:
            out[t] = imbedding._trim(layer)
        if t > first:  # prepend trial t
            p, width = probs[t - 1], layer.shape[1]
            nxt = np.zeros((S, width + 1))
            for s, ((s0, i0), (s1, i1)) in enumerate(automaton.transitions):
                nxt[s, i0 : i0 + width] += layer[s0] * (1.0 - p)
                nxt[s, i1 : i1 + width] += layer[s1] * p
            layer = nxt
    return out


@pytest.mark.parametrize("trials", [1, 2, 3, 40, 300])
@pytest.mark.parametrize("automaton", [two_runs_automaton(), k1k2_automaton(1, 2),
                                       k1k2_automaton(3, 3)], ids=["11", "011", "000111"])
def test_backward_cuts_equal_the_per_trial_loop(automaton, trials):
    rng = np.random.default_rng(trials)
    for probs in (rng.uniform(0.05, 0.5, trials), rng.choice(_EDGE_TRIALS, trials),
                  rng.choice([0.0, 1.0, 0.5], trials)):
        for cuts in ({0}, set(range(trials + 1)), {trials, trials // 2 + 1}):
            got = imbedding._backward_cuts(automaton, probs, cuts)
            want = _backward_cuts_reference(automaton, probs, cuts)
            assert got.keys() == want.keys()
            for t in want:
                assert_same_floats(got[t], want[t])


def _ci_model(kind, seed, size, lo, hi, **params):
    r = random.Random(seed)
    p = [r.uniform(lo, hi) for _ in range(size)]
    return TwoRunsModel(p) if kind == "two-runs" else K1K2Model(params["k1"], params["k2"], params["n"], p)


@pytest.mark.parametrize("seq", [
    _ci_model("two-runs", 2, 1001, 0.05, 0.5),
    _ci_model("k1k2-runs", 3, 602, 0.05, 0.15, k1=1, k2=2, n=300),
    _ci_model("k1k2-runs", 6, 244, 0.2, 0.4, k1=2, k2=3, n=60),
], ids=["two-runs-n1000", "k12-n300", "k23-n60"])
def test_weighted_sums_equal_those_of_the_per_trial_passes(seq, monkeypatch):
    args = (seq.automaton, seq.trial_probs, seq.n, seq.m)
    got = imbedded_weighted_sums(*args)
    monkeypatch.setattr(imbedding, "forward_layers", full_width_layers)
    monkeypatch.setattr(imbedding, "_backward_cuts", _backward_cuts_reference)
    assert imbedded_weighted_sums(*args) == got


# -- exact-rational reference ------------------------------------------------------


def _fraction_shift_regularity(masses: dict) -> Fraction:
    lo, hi = min(masses), max(masses)
    return sum(abs(masses.get(k, 0) - masses.get(k - 1, 0)) for k in range(lo, hi + 2))


def _fraction_weighted_sums(seq) -> tuple:
    """Theorem 3.1's three sums over every outcome, in ``Fraction`` arithmetic."""
    probs = [Fraction(p) for p in seq.trial_probs]
    outcomes = []
    for bits in itertools.product((0, 1), repeat=seq.trial_count):
        weight = Fraction(1)
        for b, p in zip(bits, probs):
            weight *= p if b else 1 - p
        outcomes.append((weight, seq.x_scalar(bits)))
    sums = [Fraction(0)] * 3
    for i in range(1, seq.n + 1):
        n1, n2 = (seq.neighborhood_indices(i, ell) for ell in (1, 2))
        rows = [(w, x[i - 1], sum(x[j - 1] for j in n1), sum(x[j - 1] for j in n2), sum(x))
                for w, x in outcomes]
        laws: dict = {}
        for w, _, v1, v2, total in rows:
            for key in ((v1, v2), v2):
                law = laws.setdefault(key, {})
                law[total] = law.get(total, 0) + w
        d = {}
        for key, law in laws.items():
            mass = sum(law.values())
            d[key] = _fraction_shift_regularity({k: m / mass for k, m in law.items()}) if mass else 0
        e_x = sum(w * x for w, x, *_ in rows)
        for w, x, v1, v2, _ in rows:
            bracket = v1 * (2 * v2 - v1 - 1)
            sums[0] += e_x * w * bracket * d[(v1, v2)]
            sums[1] += w * x * bracket * d[(v1, v2)]
            sums[2] += w * x * (v2 - 1) * d[v2]
    return tuple(sums)


@pytest.mark.parametrize("seq", [
    TwoRunsModel([0.3, 0.0, 0.55, 1.0, 0.2, 0.45, 0.25, 0.4, 0.35, 0.15]),
    K1K2Model(1, 2, 4, np.random.default_rng(8).uniform(0.1, 0.6, 10).tolist()),
    K1K2Model(2, 2, 2, np.random.default_rng(9).uniform(0.1, 0.6, 9).tolist()),
], ids=lambda s: f"{s.kind}-n{s.n}")
def test_engine_matches_exact_rational_enumeration(seq):
    assert seq.trial_count <= 10
    want = _fraction_weighted_sums(seq)
    assert any(want)
    assert _close(seq.conditional_terms().weighted_sums(), [float(w) for w in want], 1e-13)


# -- beyond enumeration ---------------------------------------------------------------


def _theorem_vs_tv(seq, automaton, spec):
    moments = compute_moments(seq)
    assert not seq.enumerable
    report = theorem31_bound(moments, build_conditional_terms(seq), spec)
    tv = exact_tv(dp_distribution(automaton, seq.trial_probs), spec.pmf())
    return report.total, tv.upper


def test_theorem31_dominates_exact_tv_at_two_runs_n1000():
    seq = TwoRunsModel(np.random.default_rng(10).uniform(0.05, 0.5, 1001).tolist())
    moments = compute_moments(seq)
    spec = nb_fit_from_moments(moments.mean_w, moments.var_w)
    total, tv = _theorem_vs_tv(seq, two_runs_automaton(), spec)
    assert tv <= total < 1


def test_theorem31_dominates_exact_tv_at_k12_runs_n300():
    seq = K1K2Model(1, 2, 300, np.random.default_rng(11).uniform(0.05, 0.15, 602).tolist())
    spec = poisson_family(compute_moments(seq).mean_w)
    total, tv = _theorem_vs_tv(seq, k1k2_automaton(1, 2), spec)
    assert tv <= total


def test_provider_order():
    small = BernoulliProductSequence([0.3, 0.6, 0.2])
    assert isinstance(build_conditional_terms(small), ExactConditionalTerms)
    with pytest.raises(UnavailableError):
        build_conditional_terms(BernoulliProductSequence([0.5] * 25))
    big = TwoRunsModel([0.2] * 41)
    assert isinstance(build_conditional_terms(big), ImbeddedConditionalTerms)
