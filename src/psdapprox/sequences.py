"""Finite sequences of Z+-valued 1-dependent variables over Bernoulli trials.

A :class:`DependentSequence` owns a vector of independent trial
probabilities and a rule mapping trial outcomes to the summand values
``X_1..X_n``.  Its enumeration streams the outcome space in row blocks of
``2^BLOCK_TRIALS`` outcomes: each block's bits are built column-major from
one fixed pattern of the low trials and mapped to summand values at once.
Each model declares the trials summand ``i`` reads as
:meth:`DependentSequence.trial_span`.  From them
:meth:`DependentSequence._window_sums` streams ``W`` in ``O(2^T)``, not
``O(n 2^T)``, and :meth:`DependentSequence._window_table` sums ``X_i`` and
its windows over the outcomes of only the trials they read, which
:meth:`DependentSequence._expand` copies to every outcome.  No package
path builds the ``(2^T, n)`` summand matrix.  The sequence caches
the outcome probabilities and ``W`` once a caller asks for them;
:meth:`DependentSequence._prob_blocks` forms the probabilities one row
block at a time without caching them.  Its
moments are exact: vectorized enumeration of the full outcome space (refused
above ``MAX_ENUM_OUTCOMES``), exact rational enumeration for small
instances, or a model's closed form, which for 0/1 summands is
:func:`neighborhood_moment_set`.  Enumerated moments stream over the
indices, one dot product per moment, each integrand formed on the index's
window table and expanded into one reused float64 buffer; their
``mean_w`` and ``var_w`` are :func:`mean_var`,
two dot products over one float64 buffer of ``W``.  The 1-dependence check
:func:`dependence_certificate` packs the expanded columns into mixed-radix
keys, the lowest index least significant: a prefix key that gains one column
in place per split, a suffix key packed once that drops its leading column
in place, and per split one weighted ``bincount`` of their pair key, whose
row and column sums are the marginals.  It holds three int64 outcome-length
keys and one table of at most one entry per outcome, ``O(2^T)`` whatever
``n`` is.  :func:`pack_columns` is the certificate's mixed-radix packer,
and refuses with :class:`UnavailableError` a key space past the largest
int64; the exact conditional oracle packs the rows of each window table by
the same rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import EnumerationLimitError, UnavailableError

MAX_ENUM_OUTCOMES = 2**24

# Trials per row block of the enumeration: a block holds 2^16 outcomes.
BLOCK_TRIALS = 16

# Builders for sequence_from_json, keyed by the "model" tag.  The runs module
# registers its models on import.
_MODEL_BUILDERS: dict = {}


def register_model(kind: str, builder: Callable[[dict], "DependentSequence"]) -> None:
    _MODEL_BUILDERS[kind] = builder


def model_args(obj: dict, *int_keys: str) -> tuple:
    """A builder's arguments from a model object: ``obj[key]`` for each of
    ``int_keys``, then the trial probabilities ``obj["p"]`` as floats.

    Nothing is coerced: an ``int_keys`` value that is not a JSON integer, or a
    ``p`` that is not a list of JSON numbers, is refused with ``ValueError``
    (booleans and strings are neither).
    """
    for key in int_keys:
        if type(obj[key]) is not int:
            raise ValueError(f"{key} = {json.dumps(obj[key])} is not an integer")
    probs = obj["p"]
    if type(probs) is not list:
        raise ValueError(f"p = {json.dumps(probs)} is not a list of numbers")
    if not set(map(type, probs)) <= {int, float}:
        k = next(k for k, x in enumerate(probs) if type(x) not in (int, float))
        raise ValueError(f"p[{k}] = {json.dumps(probs[k])} is not a number")
    return (*(obj[key] for key in int_keys), list(map(float, probs)))


def read_only(values) -> np.ndarray:
    """A new float64 array of ``values``, marked read-only: the one type of
    every per-trial and per-index vector, so a memoized vector cannot be
    changed by a caller, nor a caller's own array frozen."""
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Neighborhood moments of a dependent sequence, one entry per index.

    Each of the six per-index fields is a read-only float64 array, copied
    from what the constructor is given, with position ``i-1`` holding the
    quantity for summand ``i`` (1-based, as in the bound statements): the
    mean of ``X_i``, the mean of its radius-1 neighborhood sum, their product
    moment, the two bracketed third-moment terms, and ``E[X_i (X_{N_{i,2}} -
    1)]``.  Lists appear only in a report's JSON.
    """

    e_x: np.ndarray
    e_xn1: np.ndarray
    e_x_xn1: np.ndarray
    e_n1_bracket: np.ndarray
    e_x_n1_bracket: np.ndarray
    e_x_n2m1: np.ndarray
    mean_w: float
    var_w: float

    def __post_init__(self):
        for f in fields(self)[:6]:  # the per-index fields
            object.__setattr__(self, f.name, read_only(getattr(self, f.name)))

    @property
    def n(self) -> int:
        return len(self.e_x)

    def smoothing_weights(self) -> tuple:
        """``(quad, lin)``: the arrays of the quadratic weights ``E X_i
        E[bracket] + E[X_i bracket]`` and the linear weights ``E[X_i
        (X_{N_{i,2}} - 1)]`` that the smoothing constants ``c_i`` multiply in
        the bounds."""
        return self.e_x * self.e_n1_bracket + self.e_x_n1_bracket, self.e_x_n2m1

    def var_from_neighborhoods(self) -> float:
        """Variance via the neighborhood display, for identity checks."""
        return math.fsum(self.e_x_xn1 - self.e_x * self.e_xn1)


def neighborhood_moment_set(mean, pair, triple) -> MomentSet:
    """Closed-form moment set of 1-dependent 0/1 summands ``X_1..X_n``.

    The inputs are the per-index arrays ``E X_i``, ``E X_i X_{i+1}`` and
    ``E X_i X_{i+1} X_{i+2}``, each of length ``n`` and zero where an index
    passes ``n``.  Every neighborhood moment the bounds consume is a
    polynomial in these: products across a gap of two or more factorize, and
    ``X_i^2 = X_i``.  Terms whose indices leave ``1..n`` vanish, so every
    value equals the corresponding exact expectation at the boundary.
    """
    n = len(mean)
    a, q, t = (np.pad(np.asarray(v, dtype=float), 2) for v in (mean, pair, triple))

    def at(v, k):  # v at index i + k, for i = 1..n
        return v[2 + k : 2 + k + n]

    e_x = at(a, 0)
    e_xn1 = at(a, -1) + at(a, 0) + at(a, 1)
    e_x_xn1 = at(q, -1) + at(a, 0) + at(q, 0)
    e_n1_bracket = 2 * (at(q, -2) + at(q, -1) + at(q, 0) + at(q, 1)) + 2 * (
        at(a, -1) * at(a, 1)
        + at(a, -2) * (at(a, 0) + at(a, 1))
        + at(a, 2) * (at(a, -1) + at(a, 0))
    )
    e_x_n1_bracket = (
        2 * at(a, 0) * (at(a, -2) + at(a, 2))
        + 2 * at(q, -1) * (1 + at(a, 2))
        + 2 * at(q, 0) * (1 + at(a, -2))
        + 2 * (at(t, -2) + at(t, -1) + at(t, 0))
    )
    e_x_n2m1 = at(a, 0) * (at(a, -2) + at(a, 2)) + at(q, -1) + at(q, 0)
    return MomentSet(e_x, e_xn1, e_x_xn1, e_n1_bracket, e_x_n1_bracket, e_x_n2m1,
                     mean_w=math.fsum(e_x), var_w=math.fsum(e_x_xn1 - e_x * e_xn1))


def consecutive_products(p: np.ndarray, first: int, n: int) -> list:
    """The products ``p[j] ... p[j+k-1]`` of ``k = first, first + 1, first +
    2`` consecutive entries of ``p``, multiplied left to right, each array
    zero-padded to length ``n``: zero where the run passes the end of ``p``."""
    prods = [p]
    while len(prods) < first + 2:
        prods.append(prods[-1][:-1] * p[len(prods):])
    return [np.pad(v, (0, n - len(v))) for v in prods[first - 1:]]


def _row_sums(x: np.ndarray, width: Optional[int] = None) -> np.ndarray:
    """The row sums of a ``(rows, k)`` block of summand values, exactly.

    A ``uint8`` block whose largest value times ``width`` (``k`` by default)
    is at most 255 is summed at byte width, in its own dtype, which no sum
    of ``width`` such values can then overflow; any other block, ``bool``
    included, is summed in ``int32``.
    """
    width = x.shape[1] if width is None else width
    if x.dtype == np.uint8 and int(x.max(initial=0)) * width <= 255:
        return x.sum(axis=1, dtype=np.uint8)
    return x.sum(axis=1, dtype=np.int32)


def _doubled(trial_probs) -> np.ndarray:
    """The probabilities of the ``2^T`` outcomes of the trials of
    ``trial_probs``, in :meth:`DependentSequence.enumerate_bits` row order,
    built by doubling the table in place once per trial: factors multiply in
    trial order."""
    probs = np.empty(1 << len(trial_probs))
    probs[0] = 1.0
    for t, p in enumerate(trial_probs):
        half = probs[: 1 << t]
        np.multiply(half, p, out=probs[1 << t : 2 << t])
        half *= 1.0 - p
    return probs


class DependentSequence:
    """Base carrier: trial probabilities plus the trials -> X mapping.

    ``trial_probs`` is a read-only float64 array, copied from the
    constructor's argument; a list appears only in :meth:`to_json`.
    Subclasses implement :meth:`x_columns` (vectorized) and give ``n``.
    :meth:`x_columns` maps a ``(rows, T)`` bit block to its ``(rows, n)``
    summand values; blocks arrive column-major, and a mapping that stacks
    its columns along axis 0 and transposes keeps them so.  Only
    :meth:`iter_exact`, the outcome-at-a-time reference, also needs
    :meth:`x_scalar` (tuple in, tuple out, exact-arithmetic friendly); a
    model that is never walked that way may leave it out.
    ``kind``/``params`` drive serialization.

    A subclass may also declare :meth:`trial_span`, the 0-based range of
    trials that ``X_i`` reads (every trial by default).  :meth:`_window_sums`
    maps the first row block of the trials the spans read once, so ``W``
    (:meth:`w_values`) costs ``O(2^T)`` where the spans are short, and
    :meth:`_window_table` maps only the trials an index's windows read; a
    span that leaves out a trial the summand reads gives a wrong ``W``.
    With the default spans every window table maps all ``2^T`` outcomes, so
    each index costs ``O(n 2^T)``.
    """

    def __init__(self, trial_probs: Sequence[float], n: int, kind: str,
                 params: Optional[dict] = None):
        self.trial_probs = read_only(trial_probs)
        if self.trial_probs.ndim != 1:
            raise ValueError("trial probabilities must be one sequence of numbers")
        if not np.all((self.trial_probs >= 0) & (self.trial_probs <= 1)):  # NaN fails both
            raise ValueError("trial probabilities must lie in [0,1]")
        self.n = int(n)
        if self.n < 1:
            raise ValueError("need at least one summand")
        self.kind = kind
        self.params = dict(params or {})
        self._cache: dict = {}

    # -- mapping (overridden by subclasses) ---------------------------------

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def x_scalar(self, bits: tuple) -> tuple:
        raise NotImplementedError

    def trial_span(self, i: int) -> range:
        """The trials ``X_i`` reads, 0-based, for ``i`` in ``1..n``: all of
        them unless a model declares fewer.  :meth:`_window_sums`,
        :meth:`_window_table` and :attr:`dependence_radius` read it."""
        return range(self.trial_count)

    @property
    def dependence_radius(self) -> int:
        """The largest ``j - i`` whose summands ``X_i`` and ``X_j`` read a
        common trial, from the declared :meth:`trial_span`: summands farther
        apart read disjoint trials, and so are independent."""
        first = {}  # trial -> the lowest index that reads it
        radius = 0
        for i in range(1, self.n + 1):
            for t in self.trial_span(i):
                radius = max(radius, i - first.setdefault(t, i))
        return radius

    def _cached(self, key: str, build: Callable[[], object]):
        """``self._cache[key]``, set to ``build()`` on first use."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    # -- enumeration ---------------------------------------------------------

    @property
    def trial_count(self) -> int:
        return len(self.trial_probs)

    @property
    def outcome_count(self) -> int:
        return 1 << self.trial_count

    @property
    def enumerable(self) -> bool:
        return self.outcome_count <= MAX_ENUM_OUTCOMES

    def _require_enumerable(self):
        if not self.enumerable:
            raise EnumerationLimitError(
                f"2^{self.trial_count} outcomes exceed the enumeration cutoff"
            )

    def _bit_blocks(self, first: int = 0, stop: Optional[int] = None) -> Iterator[tuple]:
        """Yield ``(rows, bits)`` for consecutive slices of ``2^BLOCK_TRIALS``
        rows (fewer when there are fewer trials) of the outcomes of trials
        ``first..stop-1`` (``stop`` is ``T`` by default), in
        :meth:`enumerate_bits` row order of those trials; the other trials
        are 0.  ``bits`` is the block's ``(rows, T)`` bit matrix, stored
        column-major: the low trials from ``first`` on repeat one fixed
        pattern, built once for the most trials yet, and the high trials are
        constant within a block.  Every block is the same buffer, so a
        caller reads it before the next one."""
        T = self.trial_count
        stop = T if stop is None else stop
        low = min(stop - first, BLOCK_TRIALS)
        size = 1 << low
        block = np.zeros((T, size), dtype=np.uint8)
        bits = self._cache.get("low bits")  # column r holds the bits of r
        if bits is None or len(bits) < low:  # the widest yet; a narrower one is its corner
            row = np.arange(size, dtype=np.uint32)
            bits = self._cache["low bits"] = np.empty((low, size), dtype=np.uint8)
            for t in range(low):  # row by row: no (low, size) temporary
                bits[t] = (row >> t) & 1
        block[first : first + low] = bits[:low, :size]
        high = np.arange(stop - first - low)[:, None]
        for h in range(1 << (stop - first - low)):
            block[first + low : stop] = ((h >> high) & 1).astype(np.uint8)
            yield slice(h * size, (h + 1) * size), block.T

    def _x_blocks(self, first: int = 0, stop: Optional[int] = None) -> Iterator[tuple]:
        """Yield ``(rows, x)``: :meth:`x_columns` of each ``_bit_blocks(first, stop)`` block."""
        for rows, bits in self._bit_blocks(first, stop):
            x = self.x_columns(bits)
            if x.shape != (rows.stop - rows.start, self.n):
                raise ValueError("x_columns returned a misshaped matrix")
            yield rows, x

    def enumerate_bits(self) -> np.ndarray:
        """All trial outcomes as a C-contiguous (2^T, T) uint8 matrix: row
        ``r`` holds the low bits of ``r``, least significant first.  A
        reference for tests, which no package path calls."""
        bits = self._cache.get("bits")
        if bits is None:
            self._require_enumerable()
            bits = np.empty((self.outcome_count, self.trial_count), dtype=np.uint8)
            for rows, block in self._bit_blocks():
                bits[rows] = block
            self._cache["bits"] = bits
        return bits

    def outcome_probs(self) -> np.ndarray:
        """Outcome probabilities in :meth:`enumerate_bits` row order, built
        by :func:`_doubled`: factors multiply in trial order."""
        probs = self._cache.get("probs")
        if probs is None:
            self._require_enumerable()
            probs = self._cache["probs"] = _doubled(self.trial_probs)
        return probs

    def _prob_blocks(self) -> Iterator[tuple]:
        """Yield ``(rows, probs)`` for consecutive slices of ``2^BLOCK_TRIALS``
        rows (all of them when there are fewer trials) of
        :meth:`outcome_probs`, without caching it.  Where it is cached, each
        ``probs`` is a slice of it; else each is formed in one reused buffer,
        so a caller reads it before the next: the :func:`_doubled` table of
        the low trials times each high trial's factor of the block, in trial
        order, which are the products :meth:`outcome_probs` forms, bit for
        bit."""
        cached = self._cache.get("probs")
        low = min(self.trial_count, BLOCK_TRIALS)
        size = 1 << low
        if cached is not None:
            for start in range(0, self.outcome_count, size):
                yield slice(start, start + size), cached[start : start + size]
            return
        self._require_enumerable()
        table, block = _doubled(self.trial_probs[:low]), np.empty(size)
        high = self.trial_probs[low:]
        for h in range(1 << len(high)):
            np.copyto(block, table)
            for t, p in enumerate(high):
                block *= p if h >> t & 1 else 1.0 - p
            yield slice(h * size, (h + 1) * size), block

    def x_values(self) -> np.ndarray:
        """The summand values of every outcome, as a column-major
        ``(outcomes, n)`` int16 matrix in :meth:`enumerate_bits` row order:
        a reference for tests, which no package path calls."""
        xs = self._cache.get("x")
        if xs is None:
            self._require_enumerable()
            xs = np.empty((self.n, self.outcome_count), dtype=np.int16).T
            for rows, x in self._x_blocks():
                xs[rows] = x
            self._cache["x"] = xs
        return xs

    def w_values(self) -> np.ndarray:
        """``W = X_1 + ... + X_n`` of every outcome in :meth:`enumerate_bits`
        row order, as int32: :meth:`_window_sums`, without the summand
        values."""
        return self._cached("w", lambda: self._window_sums(dtype=np.int32))

    def _window_sums(self, dtype=None) -> np.ndarray:
        """``W`` of every outcome, in :meth:`enumerate_bits` row order,
        summed from the trials the summands' :meth:`trial_span` read.

        The summands read trials ``first..stop-1``, the union of their
        spans; ``L = min(stop - first, BLOCK_TRIALS)``.  ``W`` is ``A[u] +
        C[r >> a]``, ``u`` the outcome of trials ``first..first+L-1``: ``A``
        sums the leading summands whose spans end inside those trials over
        their one row block, and ``C`` the rest, which read trials
        ``a..stop-1`` only, in row blocks.  One broadcast per block adds the
        two into the outcomes below ``2^stop``, those of the trials below
        ``first`` too, and doubling copies them over the rest.  With the
        default spans past ``BLOCK_TRIALS`` trials, ``a = 0`` and every
        block is mapped.

        ``W`` is in ``dtype`` where given, else ``uint8`` while the largest
        summand value times ``n`` is at most 255, and ``int32`` otherwise:
        :func:`_row_sums` sums each part at width ``n``.
        """
        self._require_enumerable()
        spans = [self.trial_span(j) for j in range(1, self.n + 1)]
        first = min(span.start for span in spans)
        stop = max(span.stop for span in spans)
        L = min(stop - first, BLOCK_TRIALS)
        # The leading summands, whose spans end inside the first block, and
        # the rest, which read trials a..stop-1 only.
        low = next((j for j, span in enumerate(spans) if span.stop > first + L), self.n)
        a = min((span.start for span in spans[low:]), default=stop)
        # Below 2^stop, outcome r = (((q 2^(L-g) + u) 2^(a-first-g) + v) 2^g
        # + s) 2^first + s', g = min(a - first, L): the first block's row is
        # (u, s) and r >> a is (q, u).  A part with no summand is 0.
        g = min(a - first, L)
        shape = (1 << (L - g), 1 << (a - first - g), 1 << g)
        low_sum = (_row_sums(next(self._x_blocks(first, stop))[1][:, :low], self.n)
                   .reshape(shape[0], 1, shape[2]) if low else np.uint8(0))
        total = np.empty(self.outcome_count, low_sum.dtype if dtype is None else dtype)
        # With no summand past the first block, a = stop: one row of C = 0.
        for rows, x in self._x_blocks(a, stop) if a < stop else [(slice(0, 1), None)]:
            part = (_row_sums(x[:, low:], self.n).reshape(-1, shape[0], 1, 1)
                    if low < self.n else np.uint8(0))
            if part.itemsize > total.itemsize:
                total = total.astype(part.dtype)
            out = total[rows.start << a : rows.stop << a].reshape(-1, *shape, 1 << first)
            np.add(low_sum, part, dtype=total.dtype, out=out[..., 0])
            if first:  # s' = 0 copied to every s', from a copy: numpy's overlap check is slow
                out[..., 1:] = out[..., :1].copy()
        return self._double(total, stop)

    def _double(self, out: np.ndarray, stop: int) -> np.ndarray:
        """``out`` with its first ``2^stop`` entries copied to every higher
        outcome, by one doubling copy per trial past ``stop``."""
        for t in range(stop, self.trial_count):
            out[1 << t : 2 << t] = out[: 1 << t]
        return out

    def _window_table(self, *windows: range) -> tuple:
        """``(first, stop, sums)``: the sum over each of ``windows`` of each
        outcome of trials ``first..stop-1``, the union of their
        :meth:`trial_span`, mapped by :meth:`_x_blocks` and summed by
        :func:`_row_sums`.  Outcome ``r`` of every trial reads row ``(r >>
        first) & (2^(stop-first) - 1)``: see :meth:`_expand`."""
        spans = [self.trial_span(j) for window in windows for j in window]
        first, stop = min(s.start for s in spans), max(s.stop for s in spans)
        parts = [[] for _ in windows]
        for _, x in self._x_blocks(first, stop):
            for part, window in zip(parts, windows):
                part.append(_row_sums(x[:, window.start - 1 : window.stop - 1], len(window)))
        return first, stop, tuple(np.concatenate(part) for part in parts)

    def _expand(self, first: int, stop: int, table: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, outcome-length, set to row ``(r >> first) & (2^(stop-first)
        - 1)`` of a :meth:`_window_table` ``table`` at each outcome ``r``: one
        broadcast below ``2^stop``, then :meth:`_double`."""
        np.copyto(out[: 1 << stop].reshape(-1, 1 << first), table[:, None])
        return self._double(out, stop)

    def exact_trial_probs(self) -> list:
        """Trial probabilities as rationals, ``limit_denominator(10**9)`` of each float."""
        return [Fraction(p).limit_denominator(10**9) for p in self.trial_probs]

    def iter_exact(self, exact_probs: Optional[Sequence[Fraction]] = None
                   ) -> Iterator[tuple]:
        """Yield ``(bits, probability, x_tuple)`` with rational probabilities,
        skipping outcomes of probability 0.

        Probabilities multiply along a shared prefix tree, so the cost is one
        multiplication per node rather than per (trial, outcome) pair.  This is
        the outcome-at-a-time reference through :meth:`x_scalar`; the exact
        oracle law (``brute_force_distribution(..., exact=True)``) sums integer
        numerators over the cached enumeration instead.
        """
        self._require_enumerable()
        if exact_probs is None:
            exact_probs = self.exact_trial_probs()
        T = self.trial_count
        bits = [0] * T
        prefix = [Fraction(1)] * (T + 1)

        def rec(t):
            if t == T:
                b = tuple(bits)
                yield b, prefix[T], self.x_scalar(b)
                return
            p = exact_probs[t]
            for v, w in ((0, 1 - p), (1, p)):
                if w == 0:
                    continue
                bits[t] = v
                prefix[t + 1] = prefix[t] * w
                yield from rec(t + 1)

        yield from rec(0)

    # -- neighborhoods ---------------------------------------------------------

    def neighborhood_indices(self, i: int, ell: int) -> range:
        """Indices ``{j : |j-i| <= ell}`` intersected with ``1..n`` (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside 1..{self.n}")
        if ell not in (1, 2):
            raise ValueError("ell must be 1 or 2")
        return range(max(1, i - ell), min(self.n, i + ell) + 1)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        out = {"model": self.kind, "p": self.trial_probs.tolist()}
        out.update(self.params)
        return out


class BernoulliProductSequence(DependentSequence):
    """Independent summands ``X_i = trial_i`` (dependence radius 0)."""

    def __init__(self, probs: Sequence[float]):
        super().__init__(probs, n=len(probs), kind="custom-bernoulli-product")

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        return bits

    def x_scalar(self, bits: tuple) -> tuple:
        return bits

    def trial_span(self, i: int) -> range:
        return range(i - 1, i)

    @property
    def automaton(self):
        """The one-state automaton of pattern ``(1,)``, which counts the ones:
        the DP law of ``W`` at any ``n``.  Imported here, as
        :mod:`psdapprox.oracle` imports this module."""
        from .oracle import RunAutomaton

        return RunAutomaton.from_pattern((1,))

    def closed_form_moments(self) -> MomentSet:
        """Exact moments: independent summands, so every moment is a product of ``p``s."""
        return neighborhood_moment_set(*consecutive_products(self.trial_probs, 1, self.n))


register_model(
    "custom-bernoulli-product",
    lambda obj: BernoulliProductSequence(*model_args(obj)),
)


# -- moments ----------------------------------------------------------------------


def compute_moments(seq: DependentSequence, method: str = "auto") -> MomentSet:
    """All neighborhood moments consumed by the dependent-sum bounds, exactly.

    ``auto`` enumerates when the outcome space permits and otherwise uses the
    model's registered closed form; a model with neither is refused.  A caller
    that reads only ``mean_w`` and ``var_w`` calls :func:`mean_var`, which
    returns the same two values without the per-index moments.
    """
    if method == "auto":
        method = "enumerate" if seq.enumerable else "closed-form"
    if method == "closed-form":
        provider = getattr(seq, "closed_form_moments", None)
        if provider is None:
            raise UnavailableError(f"no closed-form moments for {seq.kind!r}")
        return provider()
    if method == "enumerate":
        return _moments_by_enumeration(seq)
    raise ValueError(f"unknown method {method!r}")


def mean_var(seq: DependentSequence) -> tuple:
    """``(mean_w, var_w)`` exactly as ``compute_moments(seq)`` reports them.

    An enumerable model gives ``w @ W`` and ``w @ W**2 - mean**2`` in
    float64, over one outcome-length buffer: the cached
    :meth:`~DependentSequence.w_values` cast, else ``W`` written into it from
    the trial spans and not cached, then squared in place.  It computes no per-index
    moment.  Any other model gives its closed form's values, or is refused.
    """
    if not seq.enumerable:
        moments = compute_moments(seq, "closed-form")
        return moments.mean_w, moments.var_w
    w = seq.outcome_probs()
    cached = seq._cache.get("w")
    total = seq._window_sums(dtype=float) if cached is None else cached.astype(float)
    mean = float(w @ total)
    np.square(total, out=total)
    return mean, float(w @ total) - mean**2


def _moments_by_enumeration(seq: DependentSequence) -> MomentSet:
    """Exact moments, streamed over indices with one ``w @ column`` each.

    Each index's six integrands are formed in turn on the
    :meth:`~DependentSequence._window_table` of ``X_i`` and its window
    sums, then expanded into one reused outcome-length float64 buffer
    (:meth:`~DependentSequence._expand`).  They are small integers, so each
    column equals the integer column of a full ``(outcomes, n)`` matrix
    evaluation, and each moment is the same dot product bit for bit.
    ``mean_w`` and ``var_w`` come from :func:`mean_var`.
    """
    w = seq.outcome_probs()
    buffer = np.empty(seq.outcome_count)
    values = tuple([] for _ in range(6))
    for i in range(1, seq.n + 1):
        first, stop, sums = seq._window_table(
            range(i, i + 1), *(seq.neighborhood_indices(i, ell) for ell in (1, 2)))
        for out, v in zip(values, _moment_integrands(*sums)):
            out.append(float(w @ seq._expand(first, stop, v, buffer)))
    del buffer, sums, v  # freed before the buffer of W in mean_var
    return MomentSet(*values, *mean_var(seq))


def _moment_integrands(x: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> Iterator:
    """The six integrands of :class:`MomentSet` of the integer columns
    ``x``, ``v1`` and ``v2`` of ``X_i`` and its window sums, one at a time,
    formed exactly: a caller reads each before the next."""
    yield x
    yield v1
    yield np.multiply(x, v1, dtype=float)
    bracket = _n1_bracket(v1, v2)
    yield bracket
    yield np.multiply(bracket, x, out=bracket)
    lin = np.subtract(v2, 1.0)
    yield np.multiply(lin, x, out=lin)


def _n1_bracket(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """``v1 (2 v2 - v1 - 1)`` of the window sums ``v1`` and ``v2``, in float64."""
    bracket = np.multiply(v2, 2.0)
    bracket -= v1
    bracket -= 1
    return np.multiply(bracket, v1, out=bracket)


# -- certificates -------------------------------------------------------------------


def pack_columns(cols, count: int) -> tuple:
    """``(key, lows, radices)``: the key of each of the ``count`` outcomes
    packing the integer columns ``cols``, any iterable, in mixed radix, the
    first column most significant, so keys follow the lexicographic order
    of the value tuples; column ``j`` is the digit ``col_j - lows[j]`` of
    radix ``radices[j]``, its range.  One pass reads each column as it
    arrives, and the key is one new int64 array built in place from the
    first column; all 0 with no columns.  A key space past the largest
    int64 is refused with :class:`UnavailableError` at the column that
    passes it."""
    key, lows, radices, space = None, [], [], 1
    for col in cols:
        lows.append(int(col.min()))
        radices.append(int(col.max()) - lows[-1] + 1)
        space *= radices[-1]
        if space > np.iinfo(np.int64).max:
            raise UnavailableError(
                f"the packed key space of the first {len(radices)} columns passes 2^63 - 1")
        if key is None:
            key = np.subtract(col, lows[-1], dtype=np.int64)
        else:
            key *= radices[-1]
            key += col
            key -= lows[-1]
    return np.zeros(count, dtype=np.int64) if key is None else key, tuple(lows), tuple(radices)


def dependence_certificate(seq: DependentSequence, gap: int = 2) -> bool:
    """Check the joint law factorizes across every split with the stated gap.

    For all i < j with ``j - i >= gap`` (gap 2 means 1-dependence), the joint
    distribution of ``(X_1..X_i)`` and ``(X_j..X_n)`` must be the product of
    its marginals, to within 1e-12, on every attainable value pair.  A gap
    below 1 is a ``ValueError``.

    Column ``X_k`` is the digit ``X_k - lo_k`` of radix ``r_k``, its range
    over the outcomes, and a key packs a run of columns in mixed radix with
    the lowest index least significant.  The prefix key of ``X_1..X_i``
    gains its new column in place at each split, ``pre += (X_i - lo_i)
    n_pre``, where ``n_pre = r_1 ... r_{i-1}``.  The suffix key of
    ``X_j..X_n`` is the key of all the columns (:func:`pack_columns`, given
    ``X_n`` first) with its lowest ``gap`` digits divided off, and drops its
    leading column in place at each later split, ``suf //= r_j``.  Each
    split is one weighted ``bincount`` of the pair key ``suf n_pre + pre``;
    the marginals are the row and column sums of that joint table.  Where
    the table would pass the outcome count, the attained pair keys are
    ranked by ``np.unique`` and the marginals summed over them.  Packing the
    lowest index least significant keeps the pair key close to the outcome
    order on models whose summands read the trials in order, so the
    ``bincount`` writes its table almost in order.

    Each column is expanded from its :meth:`~DependentSequence._window_table`
    (:meth:`~DependentSequence._expand`) as it is packed, ``X_n..X_1`` into
    the suffix key and ``X_i`` into the prefix key at split ``i``.  Besides
    the outcome probabilities and one column, the check holds three int64
    outcome-length keys and, per split, one float64 joint table of at most
    one entry per outcome (the product of the marginals is written over the
    pair keys once the ``bincount`` has read them; a model with outcomes of
    probability 0 also counts the attained pairs in a second table):
    ``O(2^T)`` whatever ``n`` is.
    Where the packed space of all the columns, the product of the ``r_k``,
    passes the largest int64, :func:`pack_columns` refuses the check with
    :class:`UnavailableError`.
    """
    if gap < 1:
        raise ValueError(f"gap must be at least 1 (got {gap})")
    w = seq.outcome_probs()
    n, count = seq.n, seq.outcome_count

    def column(i):  # X_i of every outcome, expanded from its window table
        first, stop, (x,) = seq._window_table(range(i, i + 1))
        return seq._expand(first, stop, x, np.empty(count, x.dtype))

    # X_n most significant; the first suffix key drops X_1..X_gap.
    suf, lows, radices = pack_columns(map(column, range(n, 0, -1)), count)
    lows, radices = lows[::-1], radices[::-1]
    suf //= math.prod(radices[:gap])
    # Where some outcome has probability 0, a pair it alone attains has no
    # mass in the joint table, so the attained pairs are counted as well.
    massless = not w.all()
    pre, key = np.zeros(count, dtype=np.int64), np.empty(count, dtype=np.int64)
    n_pre = 1
    for i in range(1, n - gap + 1):  # X_1..X_i against X_j..X_n, j = i + gap
        k, j = i - 1, i + gap - 1  # 0-based columns of X_i and X_j
        np.subtract(column(i), lows[k], out=key, dtype=np.int64)
        key *= n_pre
        pre += key
        n_pre *= radices[k]
        if i > 1:
            suf //= radices[j - 1]
        np.multiply(suf, n_pre, out=key)
        key += pre
        if not _factorizes(key, w, math.prod(radices[j:]), n_pre, massless):
            return False
    return True


def _factorizes(key: np.ndarray, w: np.ndarray, n_suf: int, n_pre: int, massless: bool) -> bool:
    """Whether the joint law of the pair keys ``key = suf n_pre + pre`` is
    the product of its marginals, to within 1e-12, on every attained pair
    (``massless``: some outcome has probability 0, so a pair may be
    attained without mass).  ``key`` is overwritten."""
    space = n_suf * n_pre
    if space <= len(key):
        joint = np.bincount(key, weights=w, minlength=space).reshape(n_suf, n_pre)
        counts = np.bincount(key, minlength=space).reshape(joint.shape) if massless else joint
        # The keys are read: their buffer holds the product of the marginals.
        product = np.multiply.outer(joint.sum(axis=1), joint.sum(axis=0),
                                    out=key.view(np.float64)[:space].reshape(joint.shape))
        product -= joint
        bad = np.abs(product, out=product) > 1e-12
        bad &= counts > 0
        return not bad.any()
    # The attained pairs, ranked by their key; each key names its two groups.
    keys, ids = np.unique(key, return_inverse=True)
    joint = np.bincount(ids, weights=w)
    del ids
    suf_sums, pre_sums = (_group_sums(of, joint) for of in np.divmod(keys, n_pre))
    return not np.any(np.abs(joint - suf_sums * pre_sums) > 1e-12)


def _group_sums(key: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The sum of ``weights`` over each value of ``key``, at every entry:
    the margin of each attained pair's group."""
    _, ids = np.unique(key, return_inverse=True)
    return np.bincount(ids, weights=weights)[ids]


def sequence_from_json(obj: dict) -> DependentSequence:
    kind = obj.get("model")
    builder = _MODEL_BUILDERS.get(kind)
    if builder is None:
        raise ValueError(f"unknown model kind {kind!r}")
    return builder(obj)
