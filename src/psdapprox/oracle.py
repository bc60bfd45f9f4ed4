"""Independent exact engines certifying the closed forms and bounds.

Nothing here shares code with the closed-form moment functions or bound
formulas it is used to check: run-statistic laws come from a failure-function
automaton driven by a forward dynamic program (:func:`forward_layers`, whose
float layers the imbedding engine also reads), cross-checked against direct
enumeration of the trial space.  Its step, :func:`step_layers`, which the
imbedding engine's backward pass also runs, swaps two layers allocated once
and yields views of them, each valid until the next yield; in float64 it
carries only the band of counts that can hold mass, with the masses of a
per-trial loop over every count, bit for bit.  The float law of ``W`` and
its conditional laws are counted by row blocks of ``2^16`` outcomes
(:func:`_joint`): each
block packs its outcomes' groups and ``W`` into an int64 cell key
``group * radix + W`` and adds their probabilities to the cells with
``np.add.at``, in enumeration order, so every cell is the sum one
``bincount`` of all the outcomes gives.  Each table is one of index ``i``'s
two window tables, ``n2`` and ``n1n2``, counted in one pass.  A group is
the mixed-radix key of the window sums, packed by the rule of
:func:`~psdapprox.sequences.pack_columns` and ranked among the attained
keys where the key space passes the outcome count.  The outcome
probabilities come per row block from
:meth:`~psdapprox.sequences.DependentSequence._prob_blocks`.
The exact-rational law of ``W`` sums integer outcome numerators over the
sequence's own cached :meth:`~psdapprox.sequences.DependentSequence.w_values`.
The one thing written into a sequence is the memo of
:func:`conditional_table`: its cache keeps one :class:`ConditionalTable` per
(index, conditioning), per-group arrays only, so the exact conditional terms,
:func:`exact_conditional_D` and the smoothing fallback built on it share each
table.  A table asked for alone streams its window sums and ``W`` from the
trial spans, with no summand matrix, a byte per outcome each where they fit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .families import PMFTable
from .sequences import BLOCK_TRIALS, DependentSequence

# Trials per block of the exact-rational law: its numerator table of Python
# ints holds 2^12 outcomes.
EXACT_LOW_TRIALS = 12

# Steps of the float DP between two shrinks of its band to the nonzero cells.
BAND_STEPS = 32


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


def dp_roundings(automaton: RunAutomaton, trials: int) -> int:
    """The roundings on the way to each mass of the float
    :func:`dp_distribution` after ``trials`` trials, for
    :func:`~psdapprox.rounding.gamma`: per trial, one product and the adds
    of the most contributions a state takes; then the sum over the states.
    The factor ``1 - p`` is rounded once per trial; an engine given the same
    factors shares that rounding."""
    inflow = Counter(nxt for row in automaton.transitions for nxt, _ in row)
    return trials * max(inflow.values()) + automaton.n_states - 1


def forward_layers(automaton: RunAutomaton, trial_probs: Sequence, exact: bool = False):
    """Yield the joint law ``layer[state, count]`` after 0, 1, ..., T trials.

    After ``t`` trials only the counts ``0..t`` can carry mass, so the layer
    holds them alone.  The layers come from :func:`step_layers`, each cell
    summing its contributions in ``(state, symbol)`` order, and each is a
    view valid until the next yield.  Float mode computes only the band of
    counts that can hold mass; the zeros outside it are those of a loop
    over every count.  Exact mode holds ``Fraction`` masses (the zeros of
    layer 0 are int 0).
    """
    plan = [[] for _ in automaton.transitions]
    for s, row in enumerate(automaton.transitions):
        for symbol, (nxt, inc) in enumerate(row):
            plan[nxt].append((s, symbol, inc))
    start = np.zeros((automaton.n_states, 1), dtype=object if exact else float)
    start[0, 0] = Fraction(1) if exact else 1.0
    return step_layers(plan, trial_probs, start)


def step_layers(plan: list, trial_probs: Sequence, start: np.ndarray):
    """Yield ``start``, then the layer ``layer[state, count]`` after each
    step ``p`` of ``trial_probs``; each is a view valid until the next yield.

    A step sets ``new[d, c]`` to the sum, in the order of ``plan[d]``, of
    ``layer[s, c - inc]`` times ``1 - p`` or ``p`` for each ``(s, symbol,
    inc)`` there (``symbol`` and ``inc`` 0 or 1).  Float mode carries only
    the band of counts that can hold mass: its top grows by one per step,
    and every ``BAND_STEPS`` steps both edges shrink to the nonzero cells.
    A cell outside it is an exact zero of the full-width loop too, as
    ``0 * p`` and ``x + 0`` are exact for ``p`` in ``[0, 1]`` (a ``-0.0``
    step is taken as ``0.0``), so every mass is that loop's, bit for bit.
    Two layers are allocated once and swapped; with the views of a block of
    steps built once, a step is one ``np.multiply`` per symbol and, per
    state, one ``np.add`` plus one ``+=`` per further contribution.  An
    object ``start`` runs the same step on ``Fraction`` masses, each step
    over every count it can reach, with no band.
    """
    exact = start.dtype == object
    probs = [Fraction(p) if exact else float(p) + 0.0 for p in trial_probs]
    steps, (S, width) = len(probs), start.shape
    top = width + steps  # no count from top on holds mass
    # Column c + 1 of a layer holds count c; column 0, count -1, stays 0.
    layers = np.zeros((2, S, top + 1), dtype=start.dtype)
    products = np.zeros_like(layers)
    layers[0, :, 1 : width + 1] = start
    yield layers[0, :, 1 : width + 1]
    block = 1 if exact else BAND_STEPS
    lo, hi, cur = 0, width, 0  # both layers hold 0 outside counts lo..hi-1
    for begin in range(0, steps, block):
        if exact:  # every count from 0 to the step's top, so every mass is a Fraction
            hi += 1
        else:
            nonzero = np.flatnonzero((layers[cur, :, lo + 1 : hi + 1] != 0).any(axis=0))
            layers[1 - cur, :, lo + 1 : hi + 1] = 0
            lo, hi = lo + nonzero[0], min(lo + nonzero[-1] + 1 + block, top)
        # Column j of a product scales count lo - 1 + j of the layer.
        prod = products[:, :, : hi - lo + 1]
        parts = [[prod[symbol, s, 1 - inc : 1 - inc + hi - lo] for s, symbol, inc in terms]
                 for terms in plan]
        views = [(layers[side, :, lo : hi + 1],
                  _sum_calls(layers[1 - side, :, lo + 1 : hi + 1], parts)) for side in (0, 1)]
        for k in range(begin, min(begin + block, steps)):
            p = probs[k]
            layer, calls = views[cur]
            np.multiply(layer, 1 - p, out=prod[0])
            np.multiply(layer, p, out=prod[1])
            for call, args in calls:
                call(*args)
            cur = 1 - cur
            yield layers[cur, :, 1 : width + k + 2]


def _sum_calls(rows: np.ndarray, parts: list) -> list:
    """``(call, args)`` pairs that set each ``rows[d]`` to the sum of
    ``parts[d]`` from left to right: one ``np.add``, then one ``+=`` per
    further part; a lone part is copied."""
    calls = []
    for out, (first, *rest) in zip(rows, parts):
        if not rest:
            calls.append((np.copyto, (out, first)))
            continue
        calls.append((np.add, (first, rest[0], out)))
        calls.extend((np.add, (out, part, out)) for part in rest[1:])
    return calls


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
    value of ``W`` in Python integers, one block of ``2^12`` outcomes at a time,
    and each mass is one ``Fraction(sum, D)``.  The float law is one row-block
    count (:func:`_joint`) of every outcome against ``W``.
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
    joint, = _joint(seq, _packer((), (), (), seq.outcome_count), [1], [None], seq.w_values())
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
    the first ``EXACT_LOW_TRIALS`` spell ``h``; their numerators are the
    low-trial numerators times the one high-trial numerator of ``h``, so each
    block sums the low numerators per value (one stable sort and one
    ``reduceat``) and scales the sums.  The low numerators are Python ints
    of 40 bytes or more each, so their table is kept to ``2^12`` outcomes.
    """
    low = _numerators(probs[:EXACT_LOW_TRIALS])
    sums = [0] * (int(total.max()) + 1)
    for scale, w in zip(_numerators(probs[EXACT_LOW_TRIALS:]), total.reshape(-1, len(low))):
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

    A group is the :func:`~psdapprox.sequences.pack_columns` key of
    ``lows`` and ``radices`` (so groups follow the lexicographic order of
    the value tuples, and some keys may name no outcome), or, where that
    key space exceeds the outcome count, the rank of its key in ``keys``,
    the sorted attained keys.
    ``d[g]`` is the shift regularity of ``W`` given group ``g``, 0.0 where
    the group has no mass, and ``has_mass[g]`` says whether it has any.
    Every array is per group; none is per outcome.
    """

    d: np.ndarray
    has_mass: np.ndarray
    lows: tuple
    radices: tuple
    keys: Optional[np.ndarray] = None

    def ids(self, key: np.ndarray) -> np.ndarray:
        """The group of each packed key."""
        return key if self.keys is None else np.searchsorted(self.keys, key)

    def values(self, groups: np.ndarray) -> np.ndarray:
        """The column values of ``groups``, one row per group."""
        if self.keys is not None:
            groups = self.keys[groups]
        out = np.empty((len(groups), len(self.radices)), dtype=np.int64)
        for j in reversed(range(len(self.radices))):
            groups, out[:, j] = np.divmod(groups, self.radices[j])
        return out + np.asarray(self.lows, dtype=np.int64)


def _row_blocks(count: int):
    """Consecutive slices of ``2^BLOCK_TRIALS`` of ``count`` rows, the row
    blocks of :meth:`~DependentSequence._prob_blocks`."""
    size = min(count, 1 << BLOCK_TRIALS)
    return (slice(start, start + size) for start in range(0, count, size))


def _joint(seq: DependentSequence, pack, spaces: list, ranks: list,
           total: np.ndarray) -> list:
    """``joint[g, k]`` of each table, the mass of its group ``g`` at ``W =
    k``, ``total`` being ``W`` of every outcome, counted in one pass over
    the row blocks of :meth:`~DependentSequence._prob_blocks`.
    ``pack(rows)`` is the int64 key of a block's outcomes.  Table ``t``
    groups by that key modulo ``spaces[t]``, which divides the space before,
    or, with ``ranks[t]``, by its rank among these sorted attained keys;
    ranked tables come first, their spaces passing the outcome count.  An
    outcome's cell is ``group radix + W``, ``radix`` being ``max W + 1``
    over all outcomes, which fits int64 as a group, unlike a key, is below
    the outcome count.  The first unranked table forms its cells in place
    of the keys, a later one takes them modulo ``spaces[t] radix``.  One
    ``np.add.at`` per table adds each outcome's probability to its cell in
    enumeration order, as one ``bincount`` of every outcome would: each
    cell is the same sum, bit for bit."""
    radix = int(total.max()) + 1
    sizes = [space if keys is None else len(keys) for space, keys in zip(spaces, ranks)]
    joints = [np.zeros(size * radix) for size in sizes]
    for rows, probs in seq._prob_blocks():
        key, cell = pack(rows), None
        for t, (joint, space, keys) in enumerate(zip(joints, spaces, ranks)):
            if cell is not None:  # the unranked table before left its cells
                cell %= space * radix
            else:
                if t:
                    key %= space
                cell = key if keys is None else np.searchsorted(keys, key)
                cell *= radix
                cell += total[rows]
            np.add.at(joint, cell, probs)
            if keys is not None:
                cell = None
    return [joint.reshape(size, radix) for joint, size in zip(joints, sizes)]


def _packer(cols, lows: tuple, radices: tuple, count: int):
    """``pack(rows)``: the int64 key of the ``rows`` of the columns
    ``cols``, of ``count`` rows each, packed as
    :func:`~psdapprox.sequences.pack_columns` packs them with the digits
    ``lows`` and ``radices`` of the whole columns; 0 with no columns.
    Blocks of at most ``2^BLOCK_TRIALS`` rows are packed into one buffer,
    so a caller reads each key before the next."""
    buffer = np.empty(min(count, 1 << BLOCK_TRIALS), dtype=np.int64)

    def pack(rows):
        key = buffer[: rows.stop - rows.start]
        key.fill(0)
        for col, low, radix in zip(cols, lows, radices):
            key *= radix
            key += col[rows]
            key -= low
        return key
    return pack


def _conditional_laws(seq: DependentSequence, pack, digits: list,
                      total: np.ndarray) -> list:
    """The :class:`ConditionalTable` of ``W`` (``total``) given each of a
    list of column sets, each the trailing columns of the one before, of
    digits ``(lows, radices)`` in ``digits``, counted in one :func:`_joint`
    pass of the keys ``pack(rows)``; a key space past the outcome count is
    ranked by the sorted union of each block's attained keys.  This is the
    independent oracle of the conditional laws: the imbedding engine
    (``psdapprox.imbedding``) shares none of it, and ``verify`` checks the
    two against each other."""
    spaces = [math.prod(radices) for _, radices in digits]
    attained = {t: [] for t, space in enumerate(spaces) if space > seq.outcome_count}
    for rows in _row_blocks(seq.outcome_count) if attained else ():
        key = pack(rows)
        for t, found in attained.items():
            found.append(np.unique(key % spaces[t]))
    ranks = [np.unique(np.concatenate(attained[t])) if t in attained else None
             for t in range(len(digits))]
    tables = []
    for joint, (lows, radices), keys in zip(_joint(seq, pack, spaces, ranks, total),
                                            digits, ranks):
        mass = joint.sum(axis=1)
        has_mass = mass > 0
        d = np.zeros(len(joint))
        d[has_mass] = shift_regularity(joint[has_mass] / mass[has_mass, None])
        tables.append(ConditionalTable(d, has_mass, lows, radices, keys))
    return tables


def _with_total(seq: DependentSequence, *windows: range) -> tuple:
    """The sums over ``windows``, then ``W``: the sequence's cached ``W``
    where it has one, else ``W`` streamed with the windows by
    :meth:`~DependentSequence._window_sums`, byte-wide where it fits, and
    not cached."""
    cached = seq._cache.get("w")
    if cached is None:
        return seq._window_sums(*windows, range(1, seq.n + 1))
    return (*seq._window_sums(*windows), cached)


def conditional_table(seq: DependentSequence, i: int, conditioning: str,
                      windows=None) -> ConditionalTable:
    """The :class:`ConditionalTable` of ``W`` given ``conditioning`` at
    index ``i`` (see :func:`exact_conditional_D`).

    Each table is built once per sequence and kept in its cache under
    ``"conditional"``, keyed ``(i, conditioning)``; only per-group arrays
    are kept.  A conditioning other than ``n2`` and ``n1n2`` is a
    ``ValueError``.  A miss counts both tables of index ``i`` in one pass
    over the row blocks (:func:`_joint`) from one packed key.  ``windows``,
    the window sums ``(v1, v2)`` of every outcome where the caller has
    them, are read with the cached :meth:`~DependentSequence.w_values`;
    else the windows and ``W`` are streamed by :func:`_with_total`, so with
    the outcome probabilities formed per row block the two tables hold per
    outcome the two window sums and ``W`` alone, a byte each where they fit.
    """
    memo = seq._cache.setdefault("conditional", {})
    if conditioning not in ("n2", "n1n2"):
        raise ValueError(f"unknown conditioning {conditioning!r}")
    if windows is not None and len(windows) != 2:
        raise ValueError("windows are the (radius-1, radius-2) sums of an n2 or n1n2 table")
    if (i, conditioning) in memo:
        return memo[i, conditioning]
    if windows is None:
        *windows, total = _with_total(seq, *(seq.neighborhood_indices(i, ell) for ell in (1, 2)))
    else:
        windows, total = list(windows), seq.w_values()
    lows = tuple(int(col.min()) for col in windows)
    radices = tuple(int(col.max()) - low + 1 for col, low in zip(windows, lows))
    pack = _packer(windows, lows, radices, seq.outcome_count)
    memo[i, "n1n2"], memo[i, "n2"] = _conditional_laws(
        seq, pack, [(lows, radices), (lows[1:], radices[1:])], total)
    return memo[i, conditioning]


def outcome_d(seq: DependentSequence, i: int, conditioning: str, windows) -> np.ndarray:
    """Each outcome's ``D`` in the ``n2`` or ``n1n2`` table of ``windows``
    ``(v1, v2)`` (:func:`conditional_table`), as a new float64 array, by
    row blocks: each block's key of the table's columns read through
    :meth:`ConditionalTable.ids`."""
    table = conditional_table(seq, i, conditioning, windows)
    cols = windows[len(windows) - len(table.radices):]
    pack = _packer(cols, table.lows, table.radices, seq.outcome_count)
    d = np.empty(seq.outcome_count)
    for rows in _row_blocks(seq.outcome_count):
        # Every id is in range; "clip" spares the copy of out that "raise" makes.
        np.take(table.d, table.ids(pack(rows)), out=d[rows], mode="clip")
    return d


def exact_conditional_D(seq: DependentSequence, i: int, conditioning: str) -> dict:
    """Exact shift-regularity of the conditional law of the total sum.

    For every attainable value of the conditioning statistic, returns
    ``D = 2 d_TV(L(W | value), L(W | value) + 1)``.  Conditioning choices:
    ``"n2"`` on the radius-2 window sum, ``"n1n2"`` on the (radius-1,
    radius-2) pair.  Keys come in increasing (lexicographic) order, as
    Python ints.
    """
    table = conditional_table(seq, i, conditioning)
    groups = np.flatnonzero(table.has_mass)
    out = {}
    for value, d in zip(table.values(groups).tolist(), table.d[groups].tolist()):
        out[value[0] if len(value) == 1 else tuple(value)] = d
    return out

