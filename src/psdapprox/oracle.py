"""Independent exact engines certifying the closed forms and bounds.

Nothing here shares code with the closed-form moment functions or bound
formulas it is used to check: run-statistic laws come from a failure-function
automaton driven by a forward dynamic program (:func:`forward_layers`, whose
float layers the imbedding engine also reads), cross-checked against direct
enumeration of the trial space, and the float law of ``W`` and its conditional
laws come from one ``bincount`` of outcome groups against ``W``: one int64
cell key ``group * radix + W`` per outcome, built in place, a group being
the key of :func:`~psdapprox.sequences.pack_columns`, ranked where the key
space passes the outcome count.  The exact-rational law of ``W`` sums
integer outcome numerators over the same ``W``, the sequence's own cached
:meth:`~psdapprox.sequences.DependentSequence.w_values`.  The one thing written
into a sequence is the memo of :func:`conditional_table`: its cache keeps one
:class:`ConditionalTable` per (index, conditioning), per-group arrays only, so
the exact conditional terms, :func:`exact_conditional_D` and the smoothing
fallback built on it share each table.  A table asked for alone streams its
columns, window sums or parity summands, from the trial spans, with no
summand matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .families import PMFTable
from .sequences import BLOCK_TRIALS, DependentSequence, _rank, pack_columns


def failure_function(pattern: Sequence[int]) -> list:
    """KMP border table: ``pi[i]`` is the longest proper border of ``pattern[:i+1]``."""
    pi = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k > 0 and pattern[i] != pattern[k]:
            k = pi[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        pi[i] = k
    return pi


@dataclass(frozen=True)
class RunAutomaton:
    """Deterministic counter of pattern occurrences in a 0/1 trial stream.

    States are match-prefix lengths ``0..L-1``; each (state, symbol) pair has
    exactly one transition and an increment flag.  After a full match the
    state falls back along the border table, so overlapping occurrences are
    counted (patterns that cannot overlap are unaffected).
    """

    pattern: tuple
    transitions: tuple  # transitions[state][symbol] = (next_state, increment)

    @classmethod
    def from_pattern(cls, pattern: Sequence[int]) -> "RunAutomaton":
        pattern = tuple(int(b) for b in pattern)
        if not pattern or any(b not in (0, 1) for b in pattern):
            raise ValueError("pattern must be a non-empty 0/1 sequence")
        L = len(pattern)
        pi = failure_function(pattern)
        # A mismatch at state s moves as state pi[s-1] < s would, whose row is
        # already built; only state L-1 completes a match.
        table = []
        for state, want in enumerate(pattern):
            fallback = table[pi[state - 1]] if state else ((0, 0), (0, 0))
            advance = (pi[L - 1], 1) if state == L - 1 else (state + 1, 0)
            table.append(tuple(advance if sym == want else fallback[sym] for sym in (0, 1)))
        return cls(pattern, tuple(table))

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def count(self, trials: Sequence[int]) -> int:
        state = 0
        c = 0
        for sym in trials:
            state, inc = self.transitions[state][sym]
            c += inc
        return c


def two_runs_automaton() -> RunAutomaton:
    return RunAutomaton.from_pattern((1, 1))


def k1k2_automaton(k1: int, k2: int) -> RunAutomaton:
    return RunAutomaton.from_pattern((0,) * k1 + (1,) * k2)


def dp_distribution(
    automaton: RunAutomaton,
    trial_probs: Sequence,
    exact: bool = False,
) -> PMFTable:
    """Exact law of the automaton count, by forward DP over (state, count).

    The last layer of :func:`forward_layers`, summed over the states.  Float
    mode accumulates in float64; exact mode runs the same loop on ``Fraction``
    masses and returns a table of them.
    """
    for layer in forward_layers(automaton, trial_probs, exact):
        pass
    return _law(layer.sum(axis=0))


def forward_layers(automaton: RunAutomaton, trial_probs: Sequence, exact: bool = False):
    """Yield the joint law ``layer[state, count]`` after 0, 1, ..., T trials.

    After ``t`` trials only the counts ``0..t`` can carry mass, so the layer
    holds them alone; each yielded layer is a new array.  Exact mode holds
    ``Fraction`` masses (the zeros of an object layer are int 0).
    """
    if exact:
        probs, dtype, one = [Fraction(p) for p in trial_probs], object, Fraction(1)
    else:
        probs, dtype, one = [float(p) for p in trial_probs], float, 1.0
    S = automaton.n_states
    layer = np.zeros((S, 1), dtype=dtype)
    layer[0, 0] = one
    yield layer
    for t, p in enumerate(probs):
        nxt = np.zeros((S, t + 2), dtype=dtype)
        for s in range(S):
            (s0, i0), (s1, i1) = automaton.transitions[s]
            nxt[s0, i0 : i0 + t + 1] += layer[s] * (1 - p)
            nxt[s1, i1 : i1 + t + 1] += layer[s] * p
        layer = nxt
        yield layer


def _law(masses) -> PMFTable:
    """The table of ``masses`` at counts ``0, 1, ...`` with trailing zero
    masses trimmed; the mass at 0 stays."""
    last = len(masses) - 1
    while last > 0 and masses[last] == 0:
        last -= 1
    return PMFTable(0, tuple(masses[: last + 1]), 0.0)


def brute_force_distribution(
    seq: DependentSequence,
    exact: bool = False,
    exact_probs: Optional[Sequence[Fraction]] = None,
) -> PMFTable:
    """Law of the total sum by full enumeration of the trial space.

    The statistic is re-derived from the sequence's own trials->X mapping, so
    the result is independent of the automaton route.  An instance past the
    enumeration cutoff of :mod:`psdapprox.sequences` is refused.  Exact mode
    writes each trial probability as ``a_t/d_t`` (``exact_probs``, else
    :meth:`~DependentSequence.exact_trial_probs`; a list of another length
    than the trial count is a ``ValueError``), so every outcome has an
    integer numerator over ``D = prod d_t``; the numerators are summed per
    value of ``W`` in Python integers, one block of ``2^16`` outcomes at a time,
    and each mass is one ``Fraction(sum, D)``.
    """
    seq._require_enumerable()
    if exact:
        if exact_probs is None:
            exact_probs = seq.exact_trial_probs()
        elif len(exact_probs) != seq.trial_count:
            raise ValueError(
                f"{len(exact_probs)} exact probabilities for {seq.trial_count} trials"
            )
        return _exact_law(seq.w_values(), [Fraction(p) for p in exact_probs])
    joint = _joint(seq, np.zeros(seq.outcome_count, dtype=np.int64), 1)
    return _law([float(m) for m in joint[0]])


def _numerators(probs) -> np.ndarray:
    """Outcome probabilities times ``prod(p.denominator)``, as Python ints,
    doubled in trial order like :meth:`DependentSequence.outcome_probs`."""
    nums = np.ones(1, dtype=object)
    for p in probs:
        nums = np.concatenate((nums * (p.denominator - p.numerator), nums * p.numerator))
    return nums


def _exact_law(total: np.ndarray, probs: list) -> PMFTable:
    """Exact law of ``W`` from its per-outcome values in enumeration row order.

    Row ``h`` of the reshaped ``total`` holds the outcomes whose trials past
    the first ``BLOCK_TRIALS`` spell ``h``; their numerators are the
    low-trial numerators times the one high-trial numerator of ``h``, so each
    block sums the low numerators per value (one stable sort and one
    ``reduceat``) and scales the sums.
    """
    low = _numerators(probs[:BLOCK_TRIALS])
    sums = [0] * (int(total.max()) + 1)
    for scale, w in zip(_numerators(probs[BLOCK_TRIALS:]), total.reshape(-1, len(low))):
        order = np.argsort(w, kind="stable")
        values, starts = np.unique(w[order], return_index=True)
        for v, s in zip(values.tolist(), np.add.reduceat(low[order], starts)):
            sums[v] += scale * s
    denominator = math.prod(p.denominator for p in probs)
    return _law([Fraction(s, denominator) for s in sums])


def shift_regularity(masses: np.ndarray):
    """``D = 2 d_TV(Y, Y+1) = sum_k |q_k - q_{k-1}|`` of a mass vector
    (zero-padded both sides), as a float; of each row of a matrix, as an array."""
    masses = np.asarray(masses, dtype=float)
    padded = np.zeros(masses.shape[:-1] + (masses.shape[-1] + 2,))
    padded[..., 1:-1] = masses
    d = np.abs(np.diff(padded)).sum(axis=-1)
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class ConditionalTable:
    """The conditional laws of ``W`` given a statistic of integer columns,
    summarized per group of outcomes with equal column values.

    A group is the :func:`pack_columns` key of ``lows`` and ``radices`` (so
    groups follow the lexicographic order of the value tuples, and some
    keys may name no outcome), or, where that key space exceeds the outcome
    count, the rank of its key in ``keys``, the sorted attained keys.
    ``d[g]`` is the shift regularity of ``W`` given group ``g``, 0.0 where
    the group has no mass, and ``has_mass[g]`` says whether it has any.
    Every array is per group; none is per outcome.
    """

    d: np.ndarray
    has_mass: np.ndarray
    lows: tuple
    radices: tuple
    keys: Optional[np.ndarray] = None

    def ids(self, cols, count: int) -> np.ndarray:
        """The group of each of the ``count`` outcomes, from the columns the
        table was built on."""
        key = pack_columns(cols, count)[0]
        return key if self.keys is None else np.searchsorted(self.keys, key)

    def values(self, groups: np.ndarray) -> np.ndarray:
        """The column values of ``groups``, one row per group."""
        if self.keys is not None:
            groups = self.keys[groups]
        out = np.empty((len(groups), len(self.radices)), dtype=np.int64)
        for j in reversed(range(len(self.radices))):
            groups, out[:, j] = np.divmod(groups, self.radices[j])
        return out + np.asarray(self.lows, dtype=np.int64)


def _joint(seq: DependentSequence, key: np.ndarray, size: int) -> np.ndarray:
    """``joint[g, k]``, the mass of group ``g`` at ``W = k``: one ``bincount``
    over the sequence's cached ``W``, which adds each cell's outcomes in
    enumeration order however the groups are numbered.  ``key``, the int64
    group of every outcome, becomes in place the cell key ``g radix + W``
    that the ``bincount`` reads, ``radix`` being ``joint.shape[1]``."""
    total = seq.w_values()
    radix = int(total.max()) + 1
    key *= radix
    key += total
    return np.bincount(key, weights=seq.outcome_probs(),
                       minlength=size * radix).reshape(size, radix)


def _conditional_laws(seq: DependentSequence, cols) -> tuple:
    """``(table, cells, radix)``: the :class:`ConditionalTable` of ``W``
    given the integer columns ``cols``, and the cell key ``g radix + W`` of
    every outcome (see :func:`_joint`).

    Groups are packed keys where their space is at most the outcome count,
    else the ranks of the attained keys (:func:`_rank`).  This enumeration
    is the independent oracle of the conditional laws: the imbedding engine
    that gives the runs models' theorem 3.1 terms at any ``n``
    (``psdapprox.imbedding``) shares none of it, and ``verify`` checks the
    two against each other."""
    cells, lows, radices = pack_columns(cols, seq.outcome_count)
    size = math.prod(radices)
    keys = None
    if size > len(cells):
        cells, keys = _rank(cells, size)
        size = len(keys)
    joint = _joint(seq, cells, size)
    mass = joint.sum(axis=1)
    has_mass = mass > 0
    d = np.zeros(size)
    d[has_mass] = shift_regularity(joint[has_mass] / mass[has_mass, None])
    return ConditionalTable(d, has_mass, lows, radices, keys), cells, joint.shape[1]


def _outcome_d(d: np.ndarray, cells: np.ndarray, radix: int) -> np.ndarray:
    """Each outcome's conditional ``D`` from its cell key ``g radix + W``:
    one take from ``np.repeat(d, radix)``, or, where that table would pass
    the outcome count, from ``d`` after the groups are restored in place."""
    if len(d) * radix <= len(cells):
        return np.repeat(d, radix)[cells]
    cells //= radix
    return d[cells]


def _parity_columns(seq: DependentSequence, conditioning: str):
    """The summand columns the ``even`` or ``odd`` conditioning reads, streamed."""
    if conditioning not in ("even", "odd"):
        raise ValueError(f"unknown conditioning {conditioning!r}")
    return (seq._window_sums(range(j, j + 1))[0]
            for j in range(2 if conditioning == "even" else 1, seq.n + 1, 2))


def conditional_table(seq: DependentSequence, i: int, conditioning: str, cols=None) -> tuple:
    """``(table, d)``: the :class:`ConditionalTable` of ``W`` given
    ``conditioning`` at index ``i`` (see :func:`exact_conditional_D`), and,
    when the caller passes the conditioning's columns ``cols``, the
    conditional ``D`` of every outcome as a new float64 array, else None.

    Each table is built once per sequence and kept in its cache under
    ``"conditional"`` (one even and one odd table, whatever ``i``); only
    per-group arrays are kept.  A table built from ``cols`` gives each
    outcome's ``D`` from the cell keys its ``bincount`` read, a table read
    back from the cache from :meth:`ConditionalTable.ids` of ``cols``.
    Without ``cols``, the ``n2`` and ``n1n2`` tables of index ``i`` are
    built together, from one pass of :meth:`~DependentSequence._window_sums`.
    """
    memo = seq._cache.setdefault("conditional", {})
    windowed = conditioning in ("n2", "n1n2")
    key = (i if windowed else None, conditioning)  # even/odd ignore i
    table = memo.get(key)
    if table is not None:
        if cols is None:
            return table, None
        return table, table.d[table.ids(cols, seq.outcome_count)]
    if cols is not None:
        memo[key], cells, radix = _conditional_laws(seq, cols)
        return memo[key], _outcome_d(memo[key].d, cells, radix)
    if windowed:
        v1, v2 = seq._window_sums(*(seq.neighborhood_indices(i, ell) for ell in (1, 2)))
        for name, window_cols in (("n2", [v2]), ("n1n2", [v1, v2])):
            if (i, name) not in memo:
                memo[i, name] = _conditional_laws(seq, window_cols)[0]
    else:
        memo[key] = _conditional_laws(seq, _parity_columns(seq, conditioning))[0]
    return memo[key], None


def exact_conditional_D(seq: DependentSequence, i: int, conditioning: str) -> dict:
    """Exact shift-regularity of the conditional law of the total sum.

    For every attainable value of the conditioning statistic, returns
    ``D = 2 d_TV(L(W | value), L(W | value) + 1)``.  Conditioning choices:
    ``"n2"`` on the radius-2 window sum, ``"n1n2"`` on the (radius-1,
    radius-2) pair, ``"even"``/``"odd"`` on the tuple of even- or odd-indexed
    summands.  Keys come in increasing (lexicographic) order, as Python ints.
    """
    table, _ = conditional_table(seq, i, conditioning)
    groups = np.flatnonzero(table.has_mass)
    out = {}
    for value, d in zip(table.values(groups).tolist(), table.d[groups].tolist()):
        out[value[0] if len(value) == 1 else tuple(value)] = d
    return out

