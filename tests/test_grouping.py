"""The outcome groupings and keys behind the exact oracles, against references.

``exact_conditional_D`` and ``ExactConditionalTerms.weighted_sums`` read one
memoized table per (index, conditioning): the law of ``W`` given each value
of index ``i``'s window sums, the radius-2 sum (``n2``) or the radius-1 and
radius-2 pair (``n1n2``).  A table's groups are the distinct tuples of its
window table, ranked by their keys packed by the rule of
``sequences.pack_columns``, whether or not the packed key space exceeds
the outcome count.  Each table, and the float ``brute_force_distribution``,
is counted by row blocks of ``2^16`` outcomes, adding each block's
probabilities to the cells ``group * radix + W`` in enumeration order;
``_reference_conditional_D`` is one ``bincount`` of all the outcomes, and
the block counts must equal it bit for bit on models of 8 and 16 row
blocks, on key spaces past the outcome count, and where the largest ``W``
is reached only by outcomes without mass.
``dependence_certificate`` packs a prefix key and a suffix key in mixed
radix, one weighted ``bincount`` of their pair key per split, and reads the
marginals as the row and column sums of that joint table; where the table
would pass the outcome count it ranks the attained pair keys instead
(``ScaledRuns`` below reaches that branch).  The earlier
per-outcome implementations are inlined below as references: radix-packed
keys decoded back, dicts of prefix and suffix tuples, and one dict lookup per
outcome.  Every result must be ``==`` to its reference, dict key order
included, whether a table is built or read back from the memo.  Tracemalloc
tests bound the outcome-length arrays that the certificate and the tables
hold: by a number that does not grow with ``n``, and, for a table built
without its columns, by less than one float64 array of the outcomes.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from psdapprox.bounds import ExactConditionalTerms
from psdapprox.errors import UnavailableError
from psdapprox.oracle import (
    brute_force_distribution,
    conditional_table,
    exact_conditional_D,
    shift_regularity,
)
from psdapprox.runs import K1K2Model, TwoRunsModel
from psdapprox.sequences import (
    BernoulliProductSequence,
    DependentSequence,
    dependence_certificate,
    pack_columns,
)

CONDITIONINGS = ("n2", "n1n2")


class ScaledRuns(DependentSequence):
    """``X_i = 5 * trial_i * trial_{i+1}``: 2-runs indicators scaled so far
    apart that, on 8 trials, the packed keys of ``n1n2`` at the middle
    indices span more values than the 256 outcomes."""

    def __init__(self, probs):
        super().__init__(probs, n=len(probs) - 1, kind="scaled-two-runs")

    def x_columns(self, bits):
        return 5 * (bits[:, :-1] * bits[:, 1:]).astype(np.int16)

    def x_scalar(self, bits):
        return tuple(5 * bits[i] * bits[i + 1] for i in range(self.n))


class BlockedWindows(DependentSequence):
    """``X_b``: occurrences of a failure then a success, the (1,1)-runs
    windows, starting in trials ``3b-2..3b`` of 7.  Blocks of three windows
    are 1-dependent and take the value 2."""

    def __init__(self, probs):
        super().__init__(probs, n=2, kind="blocked:k1k2-windows")

    def x_columns(self, bits):
        windows = (1 - bits[:, :-1]) * bits[:, 1:]
        return windows.reshape(len(bits), 2, 3).sum(axis=2)


def _uniform(seed: int, size: int) -> list:
    return np.random.default_rng(seed).uniform(0.1, 0.6, size).tolist()


def _models():
    return [
        ScaledRuns(_uniform(6, 8)),
        TwoRunsModel([0.3, 0.0, 0.5, 1.0, 0.2, 0.45, 0.25, 0.4]),  # trials at 0 and 1
        TwoRunsModel([0.35, 0.6]),  # n = 1: both windows are X_1
        TwoRunsModel([0.5] * 5),
        K1K2Model(1, 1, 5, _uniform(0, 6)),
        K1K2Model(1, 2, 4, _uniform(1, 10)),
        K1K2Model(2, 2, 3, _uniform(2, 12)),
        BernoulliProductSequence([0.3, 0.6, 0.0, 0.8, 1.0, 0.45]),
        BlockedWindows(_uniform(4, 7)),  # values up to 2
    ]


# -- references: the per-outcome implementations the grouping replaced -----------


def _window_values(seq, xs, i, ell):
    """The radius-``ell`` window sum around index ``i``: a row sum of a slice
    of the whole summand matrix."""
    idx = seq.neighborhood_indices(i, ell)
    return xs[:, idx.start - 1 : idx.stop - 1].sum(axis=1)


def _reference_conditional_D(seq, i, conditioning):
    xs = seq.x_values()
    w = seq.outcome_probs()
    total = xs.sum(axis=1).astype(np.int64)
    if conditioning == "n2":
        keys = [_window_values(seq, xs, i, 2).astype(np.int64)]
    else:
        keys = [_window_values(seq, xs, i, 1).astype(np.int64),
                _window_values(seq, xs, i, 2).astype(np.int64)]
    packed = np.zeros_like(total)
    radices = []
    for col in keys:
        r = int(col.max()) + 1
        radices.append(r)
        packed = packed * r + col
    attained, ids = np.unique(packed, return_inverse=True)
    w_radix = int(total.max()) + 1
    joint = np.bincount(ids.ravel() * w_radix + total, weights=w,
                        minlength=len(attained) * w_radix)
    joint = joint.reshape(-1, w_radix)
    out = {}
    group_mass = joint.sum(axis=1)
    for g in np.nonzero(group_mass > 0)[0]:
        cond = joint[g] / group_mass[g]
        value = []
        rem = int(attained[g])
        for r in reversed(radices):
            value.append(rem % r)
            rem //= r
        value = tuple(reversed(value))
        key = value[0] if len(value) == 1 else value
        out[key] = shift_regularity(cond)
    return out


def _reference_certificate(seq, gap=2, tol=1e-12):
    xs = seq.x_values()
    w = seq.outcome_probs()
    n = seq.n
    for i in range(1, n):
        j = i + gap
        if j > n:
            break
        pre = [tuple(row) for row in xs[:, :i]]
        suf = [tuple(row) for row in xs[:, j - 1:]]
        joint, pm, sm = {}, {}, {}
        for a, b, mass in zip(pre, suf, w):
            joint[(a, b)] = joint.get((a, b), 0.0) + mass
            pm[a] = pm.get(a, 0.0) + mass
            sm[b] = sm.get(b, 0.0) + mass
        for (a, b), mass in joint.items():
            if abs(mass - pm[a] * sm[b]) > tol:
                return False
    return True


def _reference_weighted_sums(seq):
    xs = seq.x_values().astype(np.int64)
    w = seq.outcome_probs()
    sum_q1 = sum_q2 = sum_lin = 0.0
    for i in range(1, seq.n + 1):
        xi = xs[:, i - 1].astype(float)
        v1 = _window_values(seq, xs, i, 1).astype(np.int64)
        v2 = _window_values(seq, xs, i, 2).astype(np.int64)
        bracket = (v1 * (2 * v2 - v1 - 1)).astype(float)
        d12 = _reference_conditional_D(seq, i, "n1n2")
        d2m = _reference_conditional_D(seq, i, "n2")
        d12_w = np.asarray([d12.get((int(a), int(b)), 0.0) for a, b in zip(v1, v2)])
        d2_w = np.asarray([d2m.get(int(b), 0.0) for b in v2])
        e_x = float(w @ xi)
        sum_q1 += e_x * float(w @ (bracket * d12_w))
        sum_q2 += float(w @ (xi * bracket * d12_w))
        sum_lin += float(w @ (xi * (v2 - 1).astype(float) * d2_w))
    return sum_q1, sum_q2, sum_lin


def _unique_fold(groups, col):
    """One more column folded into the groups by sorting: ``(ids, first)``,
    the dense rank of each outcome's value tuple so far and one outcome of
    each group."""
    col = np.asarray(col, dtype=np.int64)
    col = col - col.min()
    _, first, ids = np.unique(groups[0] * (int(col.max()) + 1) + col,
                              return_index=True, return_inverse=True)
    return ids, first


def _unique_group_rows(cols, count):
    groups = (np.zeros(count, dtype=np.int64), np.zeros(1, dtype=np.int64))
    for col in cols:
        groups = _unique_fold(groups, col)
    return groups


def _packed_ranks(cols, count):
    """``(ids, keys)``: the dense lexicographic rank of each outcome's
    value tuple, from its packed key ranked by ``np.unique``, and the
    attained keys."""
    keys, ids = np.unique(pack_columns(cols, count)[0], return_inverse=True)
    return ids, keys


# -- tests ---------------------------------------------------------------------------


def test_packed_ranks_equal_sorting_fold():
    cases = []
    for seq in _models():
        xs = seq.x_values()
        cases.append(list(xs.T))
        cases.append([_window_values(seq, xs, i, ell) for i in (1, seq.n) for ell in (1, 2)])
    rng = np.random.default_rng(5)
    cases.append(list(rng.integers(-7, 3, size=(4, 500))))  # negative values
    cases.append(list(rng.integers(0, 10, size=(18, 300))))  # key space 10^18
    # 50 distinct values in 60 rows: the key space 50 * 2 exceeds 60.
    cases.append([np.arange(60) % 50, np.arange(60) % 2])
    for cols in cases:
        count = len(cols[0])
        (ids, keys), want = _packed_ranks(cols, count), _unique_group_rows(cols, count)
        assert ids.tolist() == want[0].tolist()
        assert len(keys) == len(want[1])  # the number of groups


def _pack_both(cols, count):
    """:func:`pack_columns` of ``cols`` as a list, checked equal to its
    packing of the same columns from a generator, which it reads once."""
    got = pack_columns(list(cols), count)
    key, lows, radices = pack_columns((col for col in cols), count)
    assert (key.dtype, key.tolist(), lows, radices) == (got[0].dtype, got[0].tolist(), *got[1:])
    return got


def test_pack_columns_gives_lexicographic_keys():
    cols = (np.array([2, 0, 2, 1, 0]), np.array([1, 5, 1, 0, 5]))
    key, lows, radices = _pack_both(cols, 5)
    # (0,5) < (1,0) < (2,1)
    assert (key.tolist(), lows, radices) == ([13, 5, 13, 6, 5], (0, 0), (3, 6))
    cols = (np.array([-1, 2, -1, 2]), np.array([2, -3, 0, 4]))  # any integers
    key, lows, radices = _pack_both(cols, 4)
    assert (key.tolist(), lows, radices) == ([5, 24, 3, 31], (-1, -3), (4, 8))
    # No outcome takes (0, 0).
    key, lows, radices = _pack_both((np.array([1, 1, 0, 1]), np.array([0, 1, 1, 1])), 4)
    assert key.tolist() == [2, 3, 1, 3] and radices == (2, 2)
    key, lows, radices = _pack_both((), 4)
    assert (key.dtype, key.tolist(), lows, radices) == (np.int64, [0, 0, 0, 0], (), ())


@pytest.mark.parametrize("seq", _models(), ids=lambda s: f"{s.kind}-n{s.n}")
def test_exact_conditional_D_matches_radix_packed_reference(seq):
    seq._cache.pop("conditional", None)
    for i, conditioning in itertools.product(range(1, seq.n + 1), CONDITIONINGS):
        got = exact_conditional_D(seq, i, conditioning)
        want = _reference_conditional_D(seq, i, conditioning)
        assert list(got.items()) == list(want.items())
        assert list(exact_conditional_D(seq, i, conditioning).items()) == list(want.items())


@pytest.mark.parametrize("k", range(len(_models())),
                         ids=[f"{s.kind}-n{s.n}" for s in _models()])
def test_window_tables_are_the_same_streamed_or_from_the_summand_matrix(k):
    streamed, cached = _models()[k], _models()[k]
    cached.x_values()
    for i, conditioning in itertools.product(range(1, streamed.n + 1), CONDITIONINGS):
        got = exact_conditional_D(streamed, i, conditioning)
        assert list(got.items()) == list(exact_conditional_D(cached, i, conditioning).items())
    assert "x" not in streamed._cache  # every window was streamed
    assert np.array_equal(streamed.w_values(), cached.w_values())


@pytest.mark.parametrize("seq", _models(), ids=lambda s: f"{s.kind}-n{s.n}")
def test_weighted_sums_match_per_outcome_lookup_reference(seq):
    seq._cache.pop("conditional", None)
    built = ExactConditionalTerms(seq).weighted_sums()  # builds every table
    read = ExactConditionalTerms(seq).weighted_sums()  # reads them back
    assert built == read == _reference_weighted_sums(seq)
    assert not any(np.isnan(built))


@pytest.mark.parametrize("seq", _models(), ids=lambda s: f"{s.kind}-n{s.n}")
def test_weighted_sums_read_back_tables_built_without_columns(seq):
    seq._cache.pop("conditional", None)
    for i, conditioning in itertools.product(range(1, seq.n + 1), CONDITIONINGS):
        exact_conditional_D(seq, i, conditioning)
    built = dict(seq._cache["conditional"])
    assert ExactConditionalTerms(seq).weighted_sums() == _reference_weighted_sums(seq)
    assert all(seq._cache["conditional"][key] is table for key, table in built.items())


@pytest.mark.parametrize("conditioning", ["n1", "even"])
def test_a_table_refuses_other_conditionings_once_its_index_is_built(conditioning):
    """The conditioning is checked before anything is built: refused at an
    index whose tables are cached, it rebuilds neither of them."""
    seq = TwoRunsModel([0.5] * 5)
    built = {c: conditional_table(seq, 2, c) for c in ("n2", "n1n2")}
    with pytest.raises(ValueError, match="unknown conditioning"):
        conditional_table(seq, 2, conditioning)
    memo = seq._cache["conditional"]
    assert sorted(memo) == [(2, "n1n2"), (2, "n2")]
    assert all(memo[2, c] is table for c, table in built.items())


@pytest.mark.parametrize("i, conditioning", [
    (1, "even"), (0, "even"), (1, "odd"), (0, "n2"), (6, "n2"), (0, "n1n2"), (-1, "n1n2"),
])
def test_exact_conditional_D_refuses_other_conditionings_and_indices_outside_1_to_n(
        i, conditioning):
    seq = TwoRunsModel([0.5] * 6)  # n = 5
    with pytest.raises(ValueError, match="unknown conditioning|outside 1..5"):
        exact_conditional_D(seq, i, conditioning)
    assert not seq._cache.get("conditional")


def test_scaled_model_groups_past_the_packed_key_space():
    seq = ScaledRuns(_uniform(6, 8))
    assert seq.outcome_count == 256
    # v1 takes 16 values and v2 26 at index 4: 416 packed keys, of which
    # the table holds the attained ones alone.
    table = conditional_table(seq, 4, "n1n2")
    assert table.radices == (16, 26) and len(table.keys) < seq.outcome_count
    assert conditional_table(seq, 4, "n2").radices == (26,)
    assert conditional_table(seq, 1, "n1n2").radices == (11, 16)
    assert len(exact_conditional_D(seq, 4, "n1n2")) > 1


@pytest.mark.parametrize("seq", _models(), ids=lambda s: f"{s.kind}-n{s.n}")
def test_brute_force_distribution_matches_bincount_of_W(seq):
    total = seq.x_values().sum(axis=1).astype(np.int64)
    want = np.bincount(total, weights=seq.outcome_probs())
    # The law ends at the largest W with mass, as the DP law does: outcomes of
    # probability 0 (trials at 0 or 1) may reach past it.
    want = np.trim_zeros(want, "b")
    assert brute_force_distribution(seq).masses == tuple(float(m) for m in want)


def test_dependence_certificate_matches_dict_reference():
    verdicts = []
    for seq in _models():
        for gap in (1, 2, 3, seq.n + 2):  # the last gap leaves no split
            verdict = dependence_certificate(seq, gap=gap)
            assert verdict == _reference_certificate(seq, gap=gap), (seq.kind, seq.n, gap)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_blocked_windows_take_values_above_one():
    assert _models()[-1].x_values().max() > 1


@pytest.mark.parametrize("gap", [0, -1])
def test_dependence_certificate_refuses_a_gap_below_one(gap):
    with pytest.raises(ValueError, match="gap"):
        dependence_certificate(TwoRunsModel([0.3, 0.5, 0.2, 0.4]), gap=gap)


def _dyadic(trials: int) -> list:
    return [(t % 7 + 1) / 16 for t in range(trials)]


@pytest.mark.parametrize("seq, gap, verdict", [
    (TwoRunsModel(_dyadic(17)), 2, True),
    (TwoRunsModel(_dyadic(17)), 1, False),
    (BernoulliProductSequence(_dyadic(17)), 1, True),
], ids=["two-runs-gap-2", "two-runs-gap-1", "product-gap-1"])
def test_dependence_certificate_past_one_row_block(seq, gap, verdict):
    assert seq.outcome_count == 2 * 2**16
    assert dependence_certificate(seq, gap=gap) is verdict


class _ManyPairSums(DependentSequence):
    """``X_i = trial_(i mod 10) + trial_(i+1 mod 10)`` for 40 summands over
    10 trials: each takes 0, 1 and 2, so their packed key space is
    ``3^40``, past ``2^63``."""

    def __init__(self):
        super().__init__([0.5] * 10, n=40, kind="many-pair-sums")

    def x_columns(self, bits):
        i = np.arange(self.n)
        return (bits[:, i % 10] + bits[:, (i + 1) % 10]).astype(np.int16)


def test_dependence_certificate_refuses_a_key_space_past_2_63():
    seq = _ManyPairSums()
    assert 3**40 > 2**63 and int(seq.x_values().max()) == 2
    with pytest.raises(UnavailableError, match="2\\^63"):
        dependence_certificate(seq, gap=2)


def test_certificate_and_one_conditional_table_hold_a_fixed_number_of_keys():
    """On an 18-trial product an int64 outcome array takes 2 MB.  Above the
    probabilities, the certificate holds three int64 keys, a float64 table
    of at most one entry per outcome and one byte-wide expanded column, and
    one ``n1n2`` table (with ``W`` cached) the byte-wide groups of its two
    tables and one row block of int64 cells.  One suffix key per summand
    would take 18 arrays, and an int64 group per outcome two."""
    seq = BernoulliProductSequence(_dyadic(18))
    seq.outcome_probs()
    seq.w_values()
    array = 8 * seq.outcome_count
    tracemalloc.start()
    try:
        conditional_table(seq, 9, "n1n2")
        table_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert dependence_certificate(seq, gap=1)
        certificate_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert table_peak < 2 * array
    assert certificate_peak < 6 * array


class _NineCells(DependentSequence):
    """``(X_1, X_2) = (r mod 3, r div 3)`` on outcome ``r < 9`` of 4 trials,
    and ``(1, 1)`` on the others; with ``attained`` false, outcome 0 also
    takes ``(1, 1)``, so no outcome attains ``(0, 0)``."""

    def __init__(self, attained: bool):
        super().__init__([0.5] * 4, n=2, kind="nine-cells")
        self.attained = attained

    def x_columns(self, bits):
        r = bits @ (1 << np.arange(4))
        r[(r >= 9) | ((r == 0) & (not self.attained))] = 4
        return np.stack([r % 3, r // 3], axis=1).astype(np.int16)


def _nine_cell_law() -> np.ndarray:
    """Outcome probabilities of :class:`_NineCells`, set directly:
    ``P(X_1 = 0) = P(X_2 = 0) = sqrt(1.5e-12)``, every cell with mass within
    0.75e-12 of the product of its marginals, and no mass at ``(0, 0)``."""
    d = 1.5e-12
    p = np.full(3, (1 - math.sqrt(d)) / 2)
    p[0] = math.sqrt(d)
    joint = np.outer(p, p) + d * np.array([[-1, 0.5, 0.5], [0.5, -0.25, -0.25],
                                           [0.5, -0.25, -0.25]])
    joint[0, 0] = 0.0
    return np.concatenate([joint.ravel(), np.zeros(7)])


@pytest.mark.parametrize("attained", [True, False])
def test_dependence_certificate_checks_a_pair_attained_without_mass(attained):
    """On :func:`_nine_cell_law`, where an outcome of probability 0 attains
    ``(0, 0)``, the cell is checked and fails, as in the dict reference;
    where none does, it is not checked."""
    seq = _NineCells(attained)
    seq._cache["probs"] = _nine_cell_law()
    assert dependence_certificate(seq, gap=1) is (not attained)
    assert _reference_certificate(seq, gap=1) is (not attained)


def _blocked_cases():
    """Models spanning at least 8 row blocks of ``2^16`` outcomes: dyadic
    2-runs with 19 trials, and a 20-trial product whose non-dyadic outcome
    probabilities round, so a cell summed in another order than the
    enumeration's would differ in its last bits."""
    return {"two-runs-19": TwoRunsModel([(t % 5 + 2) / 16 for t in range(19)]),
            "product-20": BernoulliProductSequence(_uniform(8, 20))}


@pytest.mark.parametrize("name", sorted(_blocked_cases()))
def test_block_counted_tables_equal_one_bincount_across_row_blocks(name):
    seq = _blocked_cases()[name]
    assert seq.outcome_count >= 8 * 2**16
    cases = [(i, c) for i in (1, seq.n // 2, seq.n) for c in ("n2", "n1n2")]
    # Every table is built before the reference caches the probabilities,
    # so their row blocks are formed, not sliced from the cache.
    got = [exact_conditional_D(seq, i, c) for i, c in cases]
    assert "probs" not in seq._cache and "w" not in seq._cache
    for (i, conditioning), table in zip(cases, got):
        want = _reference_conditional_D(seq, i, conditioning)
        assert list(table.items()) == list(want.items()), (i, conditioning)


def _counting_row_blocks(seq) -> list:
    """The start row of every probability block ``seq`` forms from now on,
    in order, recorded by a wrapper of its ``_prob_blocks``."""
    starts, original = [], seq._prob_blocks

    def counted():
        for rows, probs in original():
            starts.append(rows.start)
            yield rows, probs
    seq._prob_blocks = counted
    return starts


def test_one_pass_counts_both_window_tables_of_an_index():
    seq = _blocked_cases()["two-runs-19"]
    starts = _counting_row_blocks(seq)
    for i in (1, 5, seq.n):
        starts.clear()
        n2 = exact_conditional_D(seq, i, "n2")
        assert starts == list(range(0, seq.outcome_count, 2**16))  # each block once
        assert {(i, "n2"), (i, "n1n2")} <= set(seq._cache["conditional"])
        n1n2 = exact_conditional_D(seq, i, "n1n2")  # read back from the memo
        assert len(starts) == 8
        for conditioning, got in (("n2", n2), ("n1n2", n1n2)):
            want = _reference_conditional_D(_blocked_cases()["two-runs-19"], i, conditioning)
            assert list(got.items()) == list(want.items())
    assert "probs" not in seq._cache  # the blocks were formed, not sliced


@pytest.mark.parametrize("seq", _models()[1:4], ids=lambda s: f"{s.kind}-n{s.n}")
def test_weighted_sums_count_the_tables_of_an_index_in_one_pass(seq, monkeypatch):
    import psdapprox.oracle as oracle_mod

    passes = []
    original = oracle_mod._joint
    monkeypatch.setattr(oracle_mod, "_joint",
                        lambda seq, *args: passes.append(args) or original(seq, *args))
    seq._cache.pop("conditional", None)
    assert ExactConditionalTerms(seq).weighted_sums() == _reference_weighted_sums(seq)
    assert len(passes) == seq.n
    assert len(seq._cache["conditional"]) == 2 * seq.n


@pytest.mark.parametrize("seq", [ScaledRuns(_uniform(6, 8)), _NineCells(True), _NineCells(False)],
                         ids=["scaled-runs", "nine-cells-attained", "nine-cells-unattained"])
def test_tables_group_the_attained_tuples(seq):
    """Each table's groups are the distinct value tuples of its window sums
    over every outcome, in lexicographic order, whether their packed key
    space passes the outcome count (``n1n2`` of the scaled runs, and of the
    nine cells, 25 against 16 outcomes where one takes ``(0, 0)``) or not;
    on their own law and, for the nine cells, on :func:`_nine_cell_law`,
    which has outcomes without mass."""
    laws = [None, _nine_cell_law()] if isinstance(seq, _NineCells) else [None]
    for probs in laws:
        seq._cache.clear()
        if probs is not None:
            seq._cache["probs"] = probs
        xs = seq.x_values()
        for i, conditioning in itertools.product(range(1, seq.n + 1), CONDITIONINGS):
            got = exact_conditional_D(seq, i, conditioning)
            assert list(got.items()) == list(
                _reference_conditional_D(seq, i, conditioning).items())
            cols = [_window_values(seq, xs, i, ell).tolist()
                    for ell in ((1, 2) if conditioning == "n1n2" else (2,))]
            table = conditional_table(seq, i, conditioning)
            groups = table.values(np.arange(len(table.keys)))
            assert list(map(tuple, groups.tolist())) == sorted(set(zip(*cols)))


class _WideDigits(DependentSequence):
    """``X_j = 4^(j-1) (t_{2j-2} + 2 t_{2j-1})`` for 5 summands over 10
    trials: the radius-2 window sum at index 3 spells all five base-4
    digits, so ``n1n2`` there has 1024 groups, past the 256 a byte holds."""

    def __init__(self):
        super().__init__(_uniform(9, 10), n=5, kind="wide-digits")

    def x_columns(self, bits):
        return ((bits[:, 0::2] + 2 * bits[:, 1::2]) * 4 ** np.arange(5)).astype(np.int16)


def test_tables_of_more_groups_than_a_byte_holds_equal_one_bincount():
    seq = _WideDigits()
    assert len(conditional_table(seq, 3, "n1n2").keys) == 1024
    for i, conditioning in itertools.product(range(1, seq.n + 1), CONDITIONINGS):
        got = exact_conditional_D(seq, i, conditioning)
        assert list(got.items()) == list(_reference_conditional_D(seq, i, conditioning).items())
    assert ExactConditionalTerms(seq).weighted_sums() == _reference_weighted_sums(seq)


def test_the_radix_counts_W_of_outcomes_without_mass():
    """Trials of probability 0 leave the largest ``W`` to outcomes without
    mass.  ``shift_regularity`` sums each row pairwise, so the row length,
    ``max W + 1`` over every outcome, changes the last bits of ``D``: here
    rows cut at the largest ``W`` with mass give other values."""
    p = _uniform(7, 14)
    for t in (1, 3, 5, 10, 12, 13):
        p[t] = 0.0
    seq = BernoulliProductSequence(p)
    total = seq.x_values().sum(axis=1)
    assert total[seq.outcome_probs() > 0].max() < total.max()
    for i, conditioning in itertools.product((4, 8, 11), CONDITIONINGS):
        got = exact_conditional_D(seq, i, conditioning)
        assert list(got.items()) == list(_reference_conditional_D(seq, i, conditioning).items())
    assert brute_force_distribution(seq).masses == tuple(
        float(m) for m in np.trim_zeros(np.bincount(total, weights=seq.outcome_probs()), "b"))


def test_a_table_built_without_columns_holds_three_bytes_per_outcome():
    """On a fresh 20-trial product a float64 outcome array takes 8 MiB.
    Built without its columns, the ``n2`` and ``n1n2`` tables of one index
    hold per outcome a byte for each table's groups and one for ``W``, and
    the outcome probabilities and cells only one row block at a time; with
    the probabilities (8), an int32 ``W`` (4) and an int64 cell key (8) per
    outcome they would take 2.75 arrays."""
    seq = BernoulliProductSequence(_dyadic(20))
    array = 8 * seq.outcome_count
    tracemalloc.start()
    try:
        exact_conditional_D(seq, 10, "n1n2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * array
    assert "probs" not in seq._cache and "w" not in seq._cache
    assert set(seq._cache["conditional"]) == {(10, "n2"), (10, "n1n2")}
