"""Exact conditional terms of theorem 3.1 for the runs models, by imbedding.

Both runs models count pattern occurrences in independent trials with a
:class:`~psdapprox.oracle.RunAutomaton`, and their block ``i`` holds the
occurrences that end at trials ``i m + 1 .. (i+1) m`` (``m = 1`` for 2-runs,
``k1+k2-1`` for (k1,k2)-runs).  Index ``i`` conditions on blocks ``lo..hi``,
the radius-2 window ``N_{i,2}``, so three pieces cover the trials
(Markov-chain imbedding, Fu & Koutras 1994):

- the forward law ``F[s, c]`` of automaton state and count after trial
  ``lo m``, a layer of ``oracle.forward_layers``, the pass that
  ``oracle.dp_distribution`` runs;
- a window DP over trials ``lo m + 1 .. (hi+1) m``, from each start state
  ``sL``, whose state is the automaton state and the 0/1 value of each block
  ``lo..hi`` (a block holds at most one occurrence): :func:`window_layers`,
  which also runs the (k1,k2) smoothing DP of ``runs.conditional_zero_max``
  over the radius-1 windows;
- the backward law ``B[s, c]`` of the count over the trials past
  ``(hi+1) m`` from state ``s``, by :func:`_backward_cuts`.

One step, ``oracle.step_layers``, serves both passes, each with its own
plan of which cells add into which: it carries the band of counts that can
hold mass and yields views of two layers it swaps, so the backward pass
copies each cut it keeps.

Every occurrence in the window belongs to ``N_{i,2}``, so given the block
values ``W`` is their sum ``V2`` plus a count whose law is a mixture of the
convolutions ``F[sL] * B[sR]``.  Each index forms its at most ``states^2``
convolutions once; the laws of ``W`` given ``(V1, V2)`` and given ``V2`` are
weighted sums of them, and their shift regularity gives the three sums of
:meth:`bounds.ExactConditionalTerms.weighted_sums` at polynomial cost in
``n``.  That enumeration stays the independent oracle these sums are checked
against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .oracle import RunAutomaton, float_factors, forward_layers, shift_regularity, step_layers

# Cells of one window-DP layer per batch of indices: 8 MB of float64.
_WINDOW_CELLS = 1 << 20


def block_step(layer: np.ndarray, automaton: RunAutomaton, p: np.ndarray,
               bit: int) -> np.ndarray:
    """One trial of a DP whose last two axes are (automaton state, code of
    block values), with row ``r`` of axis 0 taking the trial with probability
    ``p[r]``.

    An occurrence sets ``bit`` of the code; a block holds at most one
    occurrence, so codes with ``bit`` already set carry none.
    """
    p = p.reshape((-1,) + (1,) * (layer.ndim - 2))
    weights = (1.0 - p, p)
    codes = np.arange(layer.shape[-1])
    free = codes[(codes & bit) == 0]
    nxt = np.zeros_like(layer)
    for s, row in enumerate(automaton.transitions):
        for (s_next, inc), weight in zip(row, weights):
            if inc:
                nxt[..., s_next, free | bit] += layer[..., s, free] * weight
            else:
                nxt[..., s_next, :] += layer[..., s, :] * weight
    return nxt


def _trim(layer: np.ndarray) -> np.ndarray:
    """``layer[state, count]`` cut after the last count with mass above
    ``2^-500`` of the layer's largest.

    The dropped tail holds less than ``counts * 2^-500`` of the layer's
    largest mass: a bound in absolute terms only, since a group whose own
    mass is that small has its conditional law reshaped (on 2-runs with
    trials of ``5e-324`` and ``1e-300``, a linear sum of 4.9521e-300 comes
    out 4.9554e-300).  The trim keeps the convolutions clear of subnormal
    products, which are slow: with them the sums of 2-runs n=1000 took 0.94
    s in place of 0.39 s on a 2-core x86 machine.
    """
    reach = np.flatnonzero((layer > layer.max() * 2.0**-500).any(axis=0))
    return layer[:, : reach[-1] + 1 if len(reach) else 1]


def _backward_cuts(automaton: RunAutomaton, probs: np.ndarray, cuts: set) -> dict:
    """``{t: B}`` for ``t`` in ``cuts``: ``B[s, c]`` is the probability of ``c``
    occurrences ending at trials ``t+1..T`` from state ``s`` after trial ``t``,
    trimmed by :func:`_trim` and copied.

    Step ``k`` of :func:`~psdapprox.oracle.step_layers` prepends trial
    ``T - k``: state ``s`` gathers its two transitions, so each cell sums
    two contributions, whose order does not matter."""
    plan = [[(s0, 0, i0), (s1, 1, i1)] for (s0, i0), (s1, i1) in automaton.transitions]
    T, first = len(probs), min(cuts)
    out = {}
    for k, layer in enumerate(step_layers(plan, float_factors(probs[first:][::-1]),
                                          np.ones((automaton.n_states, 1)))):
        if T - k in cuts:
            out[T - k] = _trim(layer).copy()
    return out


def _window_groups(blocks: int, pos: int) -> tuple:
    """For a window of ``blocks`` blocks with index ``i`` at ``pos``, the
    attainable ``(V1, V2)`` pairs and ``V2`` values as groups ``g``:
    ``(pairs, coef, groups)``.  ``coef[g]`` is the weight of the group's
    ``D`` in its sum, ``V1 (2 V2 - V1 - 1)`` on the ``pairs`` pair groups and
    ``V2 - 1`` on the value groups after them; ``groups`` is the 0/1 matrix
    ``[code in g | code in g and X_i = 1]`` over the block-value codes.
    """
    codes = np.arange(1 << blocks)
    bits = (codes[:, None] >> np.arange(blocks)) & 1
    v1 = bits[:, max(pos - 1, 0) : pos + 2].sum(axis=1)
    v2 = bits.sum(axis=1)
    keys = sorted(set(zip(v1.tolist(), v2.tolist()))) + sorted(set(v2.tolist()))
    pairs = len(keys) - len(set(v2.tolist()))
    member = np.array([[(a, b) == key for key in keys[:pairs]] + [b == key for key in keys[pairs:]]
                       for a, b in zip(v1.tolist(), v2.tolist())], dtype=float)
    a, b = np.array(keys[:pairs], dtype=float).T
    coef = np.concatenate((a * (2 * b - a - 1), np.array(keys[pairs:], dtype=float) - 1))
    return pairs, coef, np.hstack((member, bits[:, pos : pos + 1] * member))


def window_layers(automaton: RunAutomaton, probs: np.ndarray, n: int, m: int,
                  radius: int, start: np.ndarray, lead: int):
    """The window DP of every index ``i`` of ``n`` blocks, by batches of
    indices: yields ``(indices, blocks, pos, layer)``.

    Index ``i``'s window is the blocks ``lo..hi`` within ``radius`` of ``i``;
    the indices of a batch share its ``blocks`` count and ``i``'s place
    ``pos`` in it.  From the law ``start[..., s]`` of automaton state ``s``
    after trial ``lo m - lead``, ``layer[k, ..., s, code]`` is the
    probability for ``indices[k]`` of state ``s`` after trial ``(hi+1) m``
    with bit ``b`` of ``code`` the value of block ``lo + b``; an occurrence
    in the ``lead`` trials before the window counts in block ``lo``.  A
    batch holds as many indices as fit in ``_WINDOW_CELLS`` layer cells, at
    least one; its rows are independent, so each index gets the float
    operations, in order, of a DP run on it alone.
    """
    shapes: dict = {}
    for i in range(1, n + 1):
        lo, hi = max(1, i - radius), min(n, i + radius)
        shapes.setdefault((hi - lo + 1, i - lo), []).append(i)
    for (blocks, pos), indices in shapes.items():
        batch = max(1, _WINDOW_CELLS // (start.size << blocks))
        for begin in range(0, len(indices), batch):
            part = indices[begin : begin + batch]
            first = (np.array(part) - pos) * m - lead  # 0-based trial lo m + 1 - lead
            layer = np.zeros((len(part),) + start.shape + (1 << blocks,))
            layer[..., 0] = start
            for step in range(blocks * m + lead):
                layer = block_step(layer, automaton, probs[first + step],
                                   1 << (max(step - lead, 0) // m))
            yield part, blocks, pos, layer


def _window_weights(automaton: RunAutomaton, probs: np.ndarray, n: int, m: int) -> dict:
    """``{i: (pairs, coef, weights)}``: ``weights[sL * S + sR, g]`` is the
    probability, from state ``sL`` after trial ``lo m``, of reaching state
    ``sR`` after trial ``(hi+1) m`` with block values in column ``g`` of
    :func:`_window_groups`, by :func:`window_layers` over ``N_{i,2}``.
    """
    S = automaton.n_states
    out = {}
    for part, blocks, pos, layer in window_layers(automaton, probs, n, m, 2, np.eye(S), 0):
        pairs, coef, groups = _window_groups(blocks, pos)
        weights = layer.reshape(len(part), S * S, -1) @ groups
        out.update((i, (pairs, coef, w)) for i, w in zip(part, weights))
    return out


def imbedded_weighted_sums(automaton: RunAutomaton, trial_probs: Sequence, n: int,
                           m: int) -> tuple:
    """The three sums of :meth:`bounds.ExactConditionalTerms.weighted_sums`
    for the ``n`` blocks of ``m`` occurrence windows counted by ``automaton``
    on ``trial_probs``, with no enumeration.

    The forward pass runs once and stops at the last cut an index reads; the
    backward pass keeps only the cuts the indices read.
    """
    probs = np.asarray(trial_probs, dtype=float)
    S = automaton.n_states
    window = _window_weights(automaton, probs, n, m)
    lo = {i: max(1, i - 2) * m for i in range(1, n + 1)}
    hi = {i: (min(n, i + 2) + 1) * m for i in range(1, n + 1)}
    backward = _backward_cuts(automaton, probs, set(hi.values()))
    at_cut: dict = {}
    for i in range(1, n + 1):
        at_cut.setdefault(lo[i], []).append(i)
    sum_q1 = sum_q2 = sum_lin = 0.0
    for t, layer in enumerate(forward_layers(automaton, probs)):
        for i in at_cut.get(t, ()):
            forward, back = _trim(layer), backward[hi[i]]
            conv = np.array([np.convolve(forward[a], back[b])
                             for a in range(S) for b in range(S)])
            pairs, coef, weights = window[i]
            k = len(coef)
            laws = weights[:, :k].T @ conv  # W - V2 on each group, jointly
            mass = laws.sum(axis=1)
            cond = np.divide(laws, mass[:, None], out=np.zeros_like(laws),
                             where=mass[:, None] > 0)
            d = coef * shift_regularity(cond)  # D is 0.0 at zero mass
            ends = np.outer(forward.sum(axis=1), back.sum(axis=1)).ravel()
            x_mass = weights[:, k:].T @ ends  # E[X_i; group]
            sum_q1 += float(x_mass[:pairs].sum()) * float(mass[:pairs] @ d[:pairs])
            sum_q2 += float(x_mass[:pairs] @ d[:pairs])
            sum_lin += float(x_mass[pairs:] @ d[pairs:])
        if t == lo[n]:
            break
    return sum_q1, sum_q2, sum_lin


class ImbeddedConditionalTerms:
    """Theorem 3.1's weighted sums for a runs model, by
    :func:`imbedded_weighted_sums`; the interface of
    :class:`bounds.ExactConditionalTerms` at any ``n``."""

    def __init__(self, automaton: RunAutomaton, trial_probs: Sequence, n: int, m: int):
        self._args = (automaton, trial_probs, n, m)
        self._sums = None

    def weighted_sums(self) -> tuple:
        if self._sums is None:
            self._sums = imbedded_weighted_sums(*self._args)
        return self._sums
