"""Tests for the automaton/DP/enumeration oracles."""

import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from reference import fraction_dp_masses

import psdapprox.oracle as oracle
from psdapprox.cli import main
from psdapprox.errors import EnumerationLimitError, UnavailableError
from psdapprox.families import PMFTable
from psdapprox.oracle import (
    RunAutomaton,
    brute_force_distribution,
    dp_distribution,
    dp_roundings,
    exact_conditional_D,
    failure_function,
    k1k2_automaton,
    two_runs_automaton,
)
from psdapprox.rounding import gamma
from psdapprox.runs import K1K2Model, TwoRunsModel
from psdapprox.sequences import (
    BernoulliProductSequence,
    DependentSequence,
    compute_moments,
)


def direct_pattern_count(pattern, trials) -> int:
    """Naive occurrence count (overlaps allowed), for automaton validation."""
    pattern = tuple(pattern)
    L = len(pattern)
    return sum(
        1
        for j in range(len(trials) - L + 1)
        if tuple(trials[j : j + L]) == pattern
    )


def test_failure_function_known_values():
    assert failure_function((0, 1, 0, 0)) == [0, 0, 1, 1]
    assert failure_function((1, 1)) == [0, 1]
    assert failure_function((0, 0, 1, 1)) == [0, 1, 0, 0]


def _reference_transitions(pattern) -> tuple:
    """The automaton table with the border chain walked separately for every
    (state, symbol) pair: quadratic in the pattern length."""
    L = len(pattern)
    pi = failure_function(pattern)
    table = []
    for state in range(L):
        row = []
        for sym in (0, 1):
            k = state
            while k > 0 and pattern[k] != sym:
                k = pi[k - 1]
            if pattern[k] == sym:
                k += 1
            row.append((pi[L - 1], 1) if k == L else (k, 0))
        table.append(tuple(row))
    return tuple(table)


def test_automaton_table_equals_the_border_walk():
    patterns = [bits for L in range(1, 11) for bits in product((0, 1), repeat=L)]
    patterns += [(0,) * k1 + (1,) * (total - k1) for total in range(2, 61)
                 for k1 in range(1, total)]
    for pattern in patterns:
        assert RunAutomaton.from_pattern(pattern).transitions == _reference_transitions(pattern)


def test_automaton_counts_overlapping_two_runs():
    auto = two_runs_automaton()
    assert auto.count([1, 1, 1]) == 2
    assert auto.count([1, 1, 0, 1, 1, 1]) == 3
    assert auto.count([0, 0, 0]) == 0


def test_automaton_complete_and_deterministic():
    for auto in [two_runs_automaton(), k1k2_automaton(2, 3), k1k2_automaton(1, 1)]:
        assert len(auto.transitions) == auto.n_states
        for row in auto.transitions:
            assert len(row) == 2
            for nxt, inc in row:
                assert 0 <= nxt < auto.n_states
                assert inc in (0, 1)


def test_automaton_matches_direct_count_random_strings():
    rng = np.random.default_rng(3)
    patterns = [(1, 1), (0, 1), (0, 1, 1), (0, 0, 1, 1), (0, 0, 1)]
    for pattern in patterns:
        auto = RunAutomaton.from_pattern(pattern)
        for _ in range(300):
            s = rng.integers(0, 2, size=rng.integers(1, 30)).tolist()
            assert auto.count(s) == direct_pattern_count(pattern, s)


@pytest.mark.parametrize("pattern", [(1, 1), (0, 1, 1)])
def test_automaton_ten_thousand_random_strings(pattern):
    # Volume check of the counting semantics, one run-statistic pattern per
    # model family.
    rng = np.random.default_rng(hash(pattern) % 2**32)
    auto = RunAutomaton.from_pattern(pattern)
    strings = rng.integers(0, 2, size=(10_000, 18))
    for row in strings:
        s = row.tolist()
        assert auto.count(s) == direct_pattern_count(pattern, s)


def test_dp_two_runs_three_fair_trials():
    table = dp_distribution(two_runs_automaton(), [0.5, 0.5, 0.5])
    assert table.as_array() == pytest.approx([5 / 8, 2 / 8, 1 / 8])


def test_dp_zero_probability_trials():
    table = dp_distribution(two_runs_automaton(), [0.0] * 6)
    assert table.as_array() == pytest.approx([1.0])


def test_dp_pattern_01_three_fair_trials():
    # Direct count over the 8 strings gives P(0) = P(1) = 1/2.
    table = dp_distribution(k1k2_automaton(1, 1), [0.5, 0.5, 0.5])
    assert table.as_array() == pytest.approx([0.5, 0.5])


def test_dp_equals_brute_force_float():
    rng = np.random.default_rng(17)
    p = rng.uniform(0.05, 0.6, size=11).tolist()
    model = TwoRunsModel(p)
    dp = dp_distribution(two_runs_automaton(), p)
    bf = brute_force_distribution(model)
    assert len(dp.masses) == len(bf.masses)
    assert np.allclose(dp.as_array(), bf.as_array(), atol=1e-14)


def full_width_layers(automaton, trial_probs):
    """Reference: the float forward DP as a per-trial loop over the states,
    updating every count ``0..T`` at every trial into a fresh layer; yields
    counts ``0..t`` of the layer after each trial ``t``, as new arrays."""
    T, S = len(trial_probs), automaton.n_states
    layer = np.zeros((S, T + 2))
    layer[0, 0] = 1.0
    yield layer[:, :1].copy()
    for t, p in enumerate(trial_probs):
        p = float(p)
        nxt = np.zeros_like(layer)
        for s in range(S):
            (s0, i0), (s1, i1) = automaton.transitions[s]
            nxt[s0, i0 : i0 + T + 1] += layer[s, : T + 1] * (1.0 - p)
            nxt[s1, i1 : i1 + T + 1] += layer[s, : T + 1] * p
        layer = nxt
        yield layer[:, : t + 2].copy()


def assert_same_floats(got, want):
    """``==`` cell by cell, with the sign of every zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


_AUTOMATA = [two_runs_automaton(), k1k2_automaton(1, 1), k1k2_automaton(1, 2),
             k1k2_automaton(2, 2), k1k2_automaton(2, 3), k1k2_automaton(3, 3),
             RunAutomaton.from_pattern((1,))]
# Trials at both ends of [0, 1], a negative zero, and ones whose products
# underflow through the subnormals to 0.
_EDGE_TRIALS = [0.0, 1.0, 0.5, 1e-300, 5e-324, -0.0]


@pytest.mark.parametrize("trials", [0, 1, 2, 3, 31, 32, 33, 100, 300])
@pytest.mark.parametrize("automaton", _AUTOMATA, ids=lambda a: "".join(map(str, a.pattern)))
def test_dp_float_band_equals_full_width_loop(automaton, trials):
    rng = np.random.default_rng(trials)
    for probs in (rng.uniform(0, 1, trials).tolist(),
                  rng.choice(_EDGE_TRIALS, trials).tolist(),
                  rng.choice([0.0, 1.0, 0.5], trials).tolist(),
                  [0.5 if t % 7 else 1e-300 for t in range(trials)]):
        for got, want in zip(oracle.forward_layers(automaton, probs),
                             full_width_layers(automaton, probs), strict=True):
            assert_same_floats(got, want)
        law = dp_distribution(automaton, probs)
        masses = want.sum(axis=0)
        last = max([0, *np.flatnonzero(masses)])
        assert law.masses == tuple(masses[: last + 1])
        assert list(map(repr, law.masses)) == list(map(repr, masses[: last + 1].tolist()))


@pytest.mark.parametrize("automaton, trials", [
    (two_runs_automaton(), 2000), (k1k2_automaton(1, 2), 1000), (k1k2_automaton(3, 3), 600)])
def test_dp_float_band_equals_full_width_loop_across_many_refreshes(automaton, trials):
    # Moderate trials move both band edges; 1e-300 trials underflow the top.
    rng = np.random.default_rng(trials)
    for probs in (rng.uniform(0.05, 0.5, trials).tolist(),
                  rng.choice(_EDGE_TRIALS + [0.3, 0.6], trials).tolist()):
        for got, want in zip(oracle.forward_layers(automaton, probs),
                             full_width_layers(automaton, probs), strict=True):
            assert_same_floats(got, want)
        assert list(map(repr, dp_distribution(automaton, probs).masses)) == list(
            map(repr, oracle._law(want.sum(axis=0).tolist()).masses))


def test_dp_band_shrinks_to_the_nonzero_counts(monkeypatch):
    # Every 1.0 trial after the first completes a 2-run: the mass sits on one
    # count that climbs, so the band leaves count 0 behind.
    calls = []
    real_multiply = np.multiply
    monkeypatch.setattr(oracle.np, "multiply",
                        lambda a, *args, **kw: calls.append(a.shape[1]) or real_multiply(a, *args, **kw))
    law = dp_distribution(two_runs_automaton(), [1.0] * 400)
    assert law.masses == (0.0,) * 399 + (1.0,)
    assert max(calls) < 2 * (oracle.BAND_STEPS + 2)


def test_dp_exact_layers_are_integer_numerators_on_the_float_band(monkeypatch):
    # Seventy trials refresh the band twice; no float mass underflows, so
    # both modes have the same nonzero cells.
    probs = [Fraction(x) for x in (0, 1, 1, Fraction(1, 2), 0, 1, Fraction(1, 3))] * 10
    real_multiply = np.multiply
    layers, bands = {}, {}
    for exact in (False, True):
        band = bands[exact] = []
        monkeypatch.setattr(oracle.np, "multiply",
                            lambda a, *args, **kw: band.append(a.shape) or real_multiply(a, *args, **kw))
        layers[exact] = [layer.copy() for layer in
                         oracle.forward_layers(two_runs_automaton(), probs, exact)]
    monkeypatch.undo()
    assert bands[True] == bands[False]
    assert max(width for _, width in bands[True]) < len(probs)  # the band shrank
    assert [a.shape for a in layers[True]] == [(2, t + 1) for t in range(len(probs) + 1)]
    for got, floats in zip(layers[True], layers[False], strict=True):
        assert all(type(m) is int for m in got.ravel())
        assert np.array_equal(got != 0, floats != 0)
    assert sum(layers[True][-1].ravel()) == 2**10 * 3**10  # D, the product of the denominators
    law = dp_distribution(two_runs_automaton(), probs, exact=True)
    assert all(type(m) is Fraction for m in law.masses) and sum(law.masses) == 1
    assert law.masses == fraction_dp_masses(two_runs_automaton(), probs)


_RANDOM_RATIONALS = [Fraction(x).limit_denominator(10**9)
                     for x in np.random.default_rng(37).uniform(0, 1, 20).tolist()]


@pytest.mark.parametrize("automaton, probs", [
    (two_runs_automaton(), []),
    (two_runs_automaton(), [Fraction(1, 3)]),
    (two_runs_automaton(), [0, 1, 1, Fraction(1, 2), 0, 1, 1, 0, 1]),
    (two_runs_automaton(), [Fraction(t % 8, 7) for t in range(15)]),
    (two_runs_automaton(), _RANDOM_RATIONALS),
    (k1k2_automaton(1, 2), [Fraction(t % 8, 7) for t in range(12)]),
    (k1k2_automaton(1, 2), _RANDOM_RATIONALS),
    (k1k2_automaton(2, 2), [Fraction(t % 5 + 1, 11) for t in range(13)]),
    (k1k2_automaton(2, 2), _RANDOM_RATIONALS),
    (RunAutomaton.from_pattern((1,)), [Fraction(1, 4), 1, 0, Fraction(2, 3), Fraction(5, 9)]),
    (RunAutomaton.from_pattern((1,)), _RANDOM_RATIONALS),
], ids=["2runs-empty", "2runs-1-trial", "2runs-0-and-1", "2runs-sevenths", "2runs-random-20",
        "12runs-sevenths", "12runs-random-20", "22runs-elevenths", "22runs-random-20",
        "bernoulli-product", "bernoulli-product-random-20"])
def test_dp_exact_law_equals_fraction_reference(automaton, probs):
    law = dp_distribution(automaton, probs, exact=True)
    assert law.masses == fraction_dp_masses(automaton, probs)
    assert all(type(m) is Fraction for m in law.masses)


def test_dp_equals_brute_force_exact_rational():
    for probs in ([Fraction(1, 4), Fraction(1, 2), Fraction(3, 8), Fraction(1, 8), Fraction(1, 2)],
                  [Fraction(x) for x in (0, 1, 1, Fraction(1, 2), 0, 1)]):
        model = TwoRunsModel([float(x) for x in probs])
        dp = dp_distribution(two_runs_automaton(), probs, exact=True)
        bf = brute_force_distribution(model, exact=True, exact_probs=probs)
        assert dp.masses == bf.masses  # exact equality of Fractions
        assert all(type(m) is Fraction for m in dp.masses)


def test_dp_equals_brute_force_k1k2_exact():
    k1, k2, n = 1, 2, 2
    probs = [Fraction(3, 8)] * ((n + 1) * (k1 + k2 - 1))
    model = K1K2Model(k1, k2, n, [float(x) for x in probs])
    dp = dp_distribution(k1k2_automaton(k1, k2), probs, exact=True)
    bf = brute_force_distribution(model, exact=True, exact_probs=probs)
    # The DP drives the automaton over all (n+1)m trials; the block model sums
    # only the first nm windows, which is the same count by construction.
    assert dp.masses == bf.masses


def _fraction_law(seq, exact_probs=None):
    """Reference exact law: one ``Fraction`` sum per outcome of ``iter_exact``."""
    acc = {}
    for _, prob, xs in seq.iter_exact(exact_probs):
        w = sum(xs)
        acc[w] = acc.get(w, Fraction(0)) + prob
    top = max(acc)
    return tuple(acc.get(w, Fraction(0)) for w in range(top + 1))


_EXACT_MODELS = {
    "two-runs p=0 and p=1": TwoRunsModel([0.0, 1.0, 1.0, 0.5, 0.0, 0.25, 1.0, 0.75]),
    "two-runs all p=1": TwoRunsModel([1.0] * 6),
    "two-runs all p=0": TwoRunsModel([0.0] * 6),
    "two-runs n=1": TwoRunsModel([0.3, 0.6]),
    "two-runs non-dyadic": TwoRunsModel([1 / 3, 2 / 7, 0.999999, 0.4, 1 / 3, 0.1, 2 / 7]),
    "two-runs 12 trials": TwoRunsModel([0.05 * (t + 1) for t in range(12)]),
    "(1,1)-runs": K1K2Model(1, 1, 6, [0.3, 0.0, 0.6, 1.0, 0.45, 0.2, 0.7]),
    "(1,2)-runs": K1K2Model(1, 2, 4, [0.3, 0.5, 0.25, 1 / 3, 0.6, 0.45, 1.0, 0.2, 0.7, 0.1]),
    "(2,2)-runs": K1K2Model(2, 2, 3, [0.4, 0.35, 0.6, 0.2, 0.5, 0.45, 0.3, 0.55, 0.25, 0.65, 0.15, 0.7]),
    # A (1,2)-runs model is its windows blocked by m = 2.
    "blocked (1,2)-runs": K1K2Model(1, 2, 5, [0.3, 0.6, 0.0, 0.5, 0.45, 1 / 3, 0.2, 0.8, 0.1, 0.55, 0.4, 0.35]),
    "bernoulli product": BernoulliProductSequence([0.2, 1.0, 0.0, 1 / 3, 0.7, 0.999999]),
}


@pytest.mark.parametrize("block_trials", [3, 16])
@pytest.mark.parametrize("name", sorted(_EXACT_MODELS))
def test_exact_law_equals_fraction_reference(name, block_trials, monkeypatch):
    # A block of 3 trials splits every model into several blocks of outcomes.
    monkeypatch.setattr(oracle, "EXACT_LOW_TRIALS", block_trials)
    seq = _EXACT_MODELS[name]
    got = brute_force_distribution(seq, exact=True)  # the limit_denominator default
    assert got == PMFTable(0, _fraction_law(seq), 0.0)
    assert got.exact
    sevenths = [Fraction(t % 8, 7) for t in range(seq.trial_count)]  # includes 0 and 1
    assert brute_force_distribution(seq, exact=True, exact_probs=sevenths).masses == (
        _fraction_law(seq, sevenths))


def test_exact_law_equals_exact_dp_across_blocks():
    probs = [Fraction(t % 5 + 1, 11) for t in range(18)]  # 64 blocks of 2^12 outcomes
    model = TwoRunsModel([float(p) for p in probs])
    dp = dp_distribution(two_runs_automaton(), probs, exact=True)
    assert brute_force_distribution(model, exact=True, exact_probs=probs) == dp


@pytest.mark.parametrize("trials", [3, 17, 19])
def test_exact_law_refuses_probabilities_of_another_length(trials):
    model = TwoRunsModel([0.25] * 18)  # past one block, where a short zip would truncate
    with pytest.raises(ValueError, match=f"{trials} exact probabilities for 18 trials"):
        brute_force_distribution(model, exact=True, exact_probs=[Fraction(1, 4)] * trials)


def test_verify_never_walks_outcomes_one_at_a_time(tmp_path, capsys, monkeypatch):
    def refuse(self, exact_probs=None):
        raise AssertionError("iter_exact called")

    monkeypatch.setattr(DependentSequence, "iter_exact", refuse)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "two-runs", "p": [t / 64 for t in range(4, 16)]}))
    assert main(["verify", "--model", str(path)]) == 0
    assert "PASS dp-vs-enumeration-exact" in capsys.readouterr().out


def test_brute_force_point_mass_for_deterministic_trials():
    model = K1K2Model(1, 1, 3, [1.0, 0.0, 1.0, 0.0])
    table = brute_force_distribution(model)
    # Trials are 1,0,1,0: windows (0,1) occur at positions 2..3? pattern 01
    # appears at position 2 (trials 0,1) -> count depends on blocks; verify
    # against the direct scalar map instead of hand counting.
    xs = model.x_values()
    w = model.outcome_probs()
    total = int(xs[np.argmax(w)].sum())
    assert table.mass(total) == pytest.approx(1.0)


def test_brute_force_refuses_large_instances():
    with pytest.raises(EnumerationLimitError,
                       match=r"^2\^25 outcomes exceed the enumeration cutoff$"):
        brute_force_distribution(BernoulliProductSequence([0.5] * 25))


class _WideSums(DependentSequence):
    """``X_i = 2^27 t_i t_{i+1}``: few outcomes, but ``max W = n 2^27``."""

    def __init__(self, probs):
        super().__init__(probs, n=len(probs) - 1, kind="wide-sums")

    def x_columns(self, bits):
        return (bits[:, :-1] * bits[:, 1:]).astype(np.int32) << 27

    def trial_span(self, i):
        return range(i - 1, i + 1)


@pytest.mark.parametrize("call, table", [
    (lambda seq: exact_conditional_D(seq, 4, "n2"),
     "the joint law of 11 groups and 939524097 values of W needs 10334765067 "),
    (brute_force_distribution,
     "the joint law of 1 groups and 939524097 values of W needs 939524097 "),
    (lambda seq: brute_force_distribution(seq, exact=True),
     "the exact law of W needs 939524097 "),
], ids=["conditional-D", "float-law", "exact-law"])
def test_tables_past_the_cutoff_are_refused_before_allocation(call, table):
    """256 outcomes whose ``W`` reaches 7 2^27: the conditional tables and
    both laws of ``W`` would allocate a cell per value of ``W`` and group
    (77, 7 and 7 GiB), so each is refused, naming its size."""
    seq = _WideSums([0.5] * 8)
    assert int(seq.w_values().max()) == 7 << 27
    with pytest.raises(UnavailableError, match=table + r"cells, past the cutoff of 16777216$"):
        call(seq)


def test_product_automaton_counts_the_ones():
    seq = BernoulliProductSequence([0.25, 0.5])
    assert seq.automaton == RunAutomaton.from_pattern((1,))
    assert seq.automaton.transitions == (((0, 0), (0, 1)),)


@pytest.mark.parametrize("trials", [1, 5, 16])
def test_product_dp_law_equals_enumeration(trials):
    seq = BernoulliProductSequence(np.random.default_rng(trials).uniform(0, 1, trials).tolist())
    dp = dp_distribution(seq.automaton, seq.trial_probs)
    bf = brute_force_distribution(seq)
    assert len(dp.masses) == len(bf.masses)
    np.testing.assert_allclose(dp.as_array(), bf.as_array(), rtol=1e-13, atol=1e-300)
    rational = seq.exact_trial_probs()
    assert dp_distribution(seq.automaton, rational, exact=True).masses == (
        brute_force_distribution(seq, exact=True, exact_probs=rational).masses)


def test_product_dp_law_at_30_trials_equals_the_convolution(tmp_path, capsys):
    p = [(t % 9 + 1) / 10 for t in range(30)]
    seq = BernoulliProductSequence(p)
    assert not seq.enumerable
    law = np.ones(1)
    exact = [Fraction(1)]
    for x in p:
        law = np.convolve(law, [1 - x, x])
        q = Fraction(x)
        exact = [a * (1 - q) + b * q for a, b in zip(exact + [0], [0] + exact)]
    np.testing.assert_allclose(dp_distribution(seq.automaton, p).as_array(), law, rtol=1e-13)
    assert dp_distribution(seq.automaton, [Fraction(x) for x in p], exact=True).masses == tuple(exact)
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"model": "custom-bernoulli-product", "p": p}))
    assert main(["oracle", "--model", str(path)]) == 0
    masses = json.loads(capsys.readouterr().out)["distribution"]["masses"]
    assert sum(k * m for k, m in enumerate(masses)) == pytest.approx(sum(p), rel=1e-14)


def test_verify_checks_the_product_dp_law(tmp_path, capsys, monkeypatch):
    import psdapprox.cli as cli_mod

    path = tmp_path / "product.json"
    path.write_text(json.dumps({"model": "custom-bernoulli-product",
                                "p": [(t % 7 + 1) / 16 for t in range(12)]}))
    assert main(["verify", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS dp-vs-enumeration\n" in out and "PASS dp-vs-enumeration-exact\n" in out
    # A DP law off by a relative 1e-9 fails: the check's tolerance is derived
    # from each engine's roundings (a relative 4.6e-13 here), not numpy's 1e-5.
    real = cli_mod.dp_distribution
    monkeypatch.setattr(cli_mod, "dp_distribution", lambda automaton, probs, exact=False: (
        real(automaton, probs, exact) if exact else PMFTable(
            0, tuple(m * (1 + 1e-9) for m in real(automaton, probs).masses), 0.0)))
    assert main(["verify", "--model", str(path)]) == 1
    assert "FAIL dp-vs-enumeration\n" in capsys.readouterr().out


def test_rounding_bounds_of_the_dp_and_gamma():
    # Per trial a product and the adds of a state's inflow, then the state sum.
    assert dp_roundings(two_runs_automaton(), 100) == 2 * 100 + 1
    assert dp_roundings(k1k2_automaton(1, 2), 100) == 3 * 100 + 2  # state 1 takes 3
    assert dp_roundings(RunAutomaton.from_pattern((1,)), 100) == 2 * 100
    assert gamma(0) == 0.0
    assert gamma(4) == 4 * 2.0**-53 / (1 - 4 * 2.0**-53)
    with pytest.raises(ValueError):
        gamma(2**53)


def test_conditional_D_degenerate_is_two():
    # Conditioning determines the sum outright: n=1, radius-2 window is X_1.
    seq = BernoulliProductSequence([0.4])
    dmap = exact_conditional_D(seq, 1, "n2")
    assert set(dmap) == {0, 1}
    assert dmap[0] == pytest.approx(2.0)
    assert dmap[1] == pytest.approx(2.0)


def test_conditional_D_bounded_by_two():
    seq = TwoRunsModel([0.4] * 9)  # n = 8
    for conditioning in ("n2", "n1n2"):
        dmap = exact_conditional_D(seq, 4, conditioning)
        assert dmap
        assert all(0 <= v <= 2 + 1e-12 for v in dmap.values())


def test_conditional_D_finer_conditioning_consistency():
    # Every (v1, v2) group refines the v2 group; check keys are consistent.
    seq = TwoRunsModel([0.3] * 8)
    d2 = exact_conditional_D(seq, 3, "n2")
    d12 = exact_conditional_D(seq, 3, "n1n2")
    assert {k[1] for k in d12} <= set(d2)


def test_moment_oracle_matches_direct_expectation():
    seq = TwoRunsModel([0.25] * 7)  # n = 6, iid p = 0.25
    mom = compute_moments(seq, "enumerate")
    assert mom.mean_w == pytest.approx(6 * 0.0625, abs=1e-12)
    assert all(v == pytest.approx(0.0625, abs=1e-12) for v in mom.e_x)
