"""Finite sequences of Z+-valued 1-dependent variables over Bernoulli trials.

A :class:`DependentSequence` owns a vector of independent trial probabilities
and a rule mapping trial outcomes to the summand values ``X_1..X_n``.  Its
enumeration streams the outcome space in row blocks of ``2^BLOCK_TRIALS``
outcomes: each block's bits are built column-major from one fixed pattern of
the low trials and mapped to summand values at once.  Each model declares
the trials summand ``i`` reads as :meth:`DependentSequence.trial_span`, so
the total ``W`` of every outcome costs ``O(2^T)``, not ``O(n 2^T)``: the
summands whose span ends inside the first row block are summed over that
block once, the rest over the trials from their lowest first trial on, and
the two tables are added by broadcast (row sums at byte width where none can
overflow), without keeping the bits or the summand values.  The window sums
of one index, which the conditional oracle reads, map only the outcomes of
the trials their spans read and broadcast each sum.  The sequence
caches the outcome probabilities, ``W`` and the column-major summand values
once a caller asks for them.  Its moments are exact: vectorized
enumeration of the full outcome space (refused above ``MAX_ENUM_OUTCOMES``),
exact rational enumeration for small instances, or a model's closed form,
which for 0/1 summands is :func:`neighborhood_moment_set`.  Enumerated
moments stream over the indices, one dot product per moment, with the
small-integer window sums of :func:`sliding_windows` (which the exact
conditional terms also slide) and each integrand formed in one of three
reused float64 buffers; their ``mean_w`` and ``var_w`` are :func:`mean_var`,
two dot products over one float64 buffer of ``W``.
:func:`group_rows` groups outcomes by equal values, for the
dependence certificate here and for the exact conditional oracles where
their packed keys would not fit the outcome count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
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


@dataclass(frozen=True)
class MomentSet:
    """Neighborhood moments of a dependent sequence, one entry per index.

    Arrays are aligned so position ``i-1`` holds the quantities for summand
    ``i`` (1-based, as in the bound statements): the mean of ``X_i``, the mean
    of its radius-1 neighborhood sum, their product moment, the two bracketed
    third-moment terms, and ``E[X_i (X_{N_{i,2}} - 1)]``.
    """

    e_x: tuple
    e_xn1: tuple
    e_x_xn1: tuple
    e_n1_bracket: tuple
    e_x_n1_bracket: tuple
    e_x_n2m1: tuple
    mean_w: float
    var_w: float

    @property
    def n(self) -> int:
        return len(self.e_x)

    def smoothing_weights(self) -> tuple:
        """``(quad, lin)``: the arrays of the quadratic weights ``E X_i
        E[bracket] + E[X_i bracket]`` and the linear weights ``E[X_i
        (X_{N_{i,2}} - 1)]`` that the smoothing constants ``c_i`` multiply in
        the bounds."""
        x, q1, q2, lin = (np.asarray(v, dtype=float) for v in (
            self.e_x, self.e_n1_bracket, self.e_x_n1_bracket, self.e_x_n2m1))
        return x * q1 + q2, lin

    def var_from_neighborhoods(self) -> float:
        """Variance via the neighborhood display, for identity checks."""
        return math.fsum(
            self.e_x_xn1[i] - self.e_x[i] * self.e_xn1[i] for i in range(self.n)
        )


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
    fields = [tuple(v.tolist()) for v in (e_x, e_xn1, e_x_xn1, e_n1_bracket,
                                          e_x_n1_bracket, e_x_n2m1)]
    return MomentSet(*fields, mean_w=math.fsum(fields[0]),
                     var_w=math.fsum(e_x_xn1 - e_x * e_xn1))


def _row_sums(x: np.ndarray) -> np.ndarray:
    """The row sums ``W`` of a ``(rows, n)`` block of summand values, exactly.

    A ``uint8`` block whose largest value times ``n`` is at most 255 is
    summed at byte width, in its own dtype, which no row sum can then
    overflow; any other block, ``bool`` included, is summed in ``int32``.
    """
    if x.dtype == np.uint8 and int(x.max(initial=0)) * x.shape[1] <= 255:
        return x.sum(axis=1, dtype=np.uint8)
    return x.sum(axis=1, dtype=np.int32)


class DependentSequence:
    """Base carrier: trial probabilities plus the trials -> X mapping.

    Subclasses implement :meth:`x_columns` (vectorized) and
    :meth:`x_scalar` (tuple in, tuple out, exact-arithmetic friendly) and give
    ``n`` and ``dependence_radius``.  :meth:`x_columns` maps a ``(rows, T)``
    bit block to its ``(rows, n)`` summand values; blocks arrive
    column-major, and a mapping that stacks its columns along axis 0 and
    transposes keeps them so.  ``kind``/``params`` drive serialization.

    A subclass may also declare :meth:`trial_span`, the 0-based range of
    trials that ``X_i`` reads (every trial by default).  :meth:`w_values`
    maps the first row block once for the summands whose span ends inside
    it, and the rest only over the trials from their lowest first trial on,
    so ``W`` costs ``O(2^T)`` where the spans are short, and
    :meth:`_window_sums` maps only the trials a window's spans read; a span
    that leaves out a trial the summand reads gives a wrong ``W``.
    """

    def __init__(self, trial_probs: Sequence[float], n: int, dependence_radius: int,
                 kind: str, params: Optional[dict] = None):
        self.trial_probs = tuple(map(float, trial_probs))
        probs = np.asarray(self.trial_probs)
        if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails both
            raise ValueError("trial probabilities must lie in [0,1]")
        self.n = int(n)
        if self.n < 1:
            raise ValueError("need at least one summand")
        self.dependence_radius = int(dependence_radius)
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
        them unless a model declares fewer.  :meth:`_stream_w` and
        :meth:`_window_sums` read it."""
        return range(self.trial_count)

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
        pattern, built once, and the high trials are constant within a
        block.  Every block is the same buffer, so a caller reads it before
        the next one."""
        T = self.trial_count
        stop = T if stop is None else stop
        low = min(stop - first, BLOCK_TRIALS)
        size = 1 << low
        block = np.zeros((T, size), dtype=np.uint8)
        row = np.arange(size, dtype=np.uint32)
        for t in range(low):  # row by row: no (low, size) temporary
            block[first + t] = (row >> t) & 1
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
        ``r`` holds the low bits of ``r``, least significant first."""
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
        by doubling the table in place once per trial: factors multiply in
        trial order."""
        probs = self._cache.get("probs")
        if probs is None:
            self._require_enumerable()
            probs = np.empty(self.outcome_count)
            probs[0] = 1.0
            for t, p in enumerate(self.trial_probs):
                half = probs[: 1 << t]
                np.multiply(half, p, out=probs[1 << t : 2 << t])
                half *= 1.0 - p
            self._cache["probs"] = probs
        return probs

    def x_values(self) -> np.ndarray:
        """The summand values of every outcome, as a column-major
        ``(outcomes, n)`` int16 matrix in :meth:`enumerate_bits` row order."""
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
        row order, as int32, from :meth:`_stream_w` without the summand
        values."""
        total = self._cache.get("w")
        if total is None:
            self._require_enumerable()
            total = self._cache["w"] = self._stream_w(
                np.empty(self.outcome_count, dtype=np.int32))
        return total

    def _stream_w(self, out: np.ndarray) -> np.ndarray:
        """``out``, an outcome-length array, with ``W[r] = A[r mod 2^L] +
        C[r >> a]`` written into it, at ``O(2^T)`` cost.

        ``L = min(T, BLOCK_TRIALS)``.  ``A`` is the row sums, over the first
        row block of ``2^L`` outcomes, of the summands whose
        :meth:`trial_span` ends by trial ``L``; the other summands read
        trials ``a..T-1`` only, ``a`` the lowest first trial among them, and
        ``C`` is their row sums over those trials, streamed in row blocks.
        A model with the default spans and more than ``L`` trials has
        ``a = 0`` and ``A = 0``: every block is mapped.  Each block of ``C``
        is added to ``A`` into its rows of ``out`` by one broadcast, in
        ``out``'s dtype, so the byte-wide sums do not overflow.
        """
        T = self.trial_count
        L = min(T, BLOCK_TRIALS)
        spans = [self.trial_span(i) for i in range(1, self.n + 1)]
        low = [k for k, span in enumerate(spans) if span.stop <= L]
        high = [k for k, span in enumerate(spans) if span.stop > L]
        a = min((spans[k].start for k in high), default=T)
        low_sums = np.zeros(1 << L, dtype=np.uint8)
        if low:
            low_sums = _row_sums(next(self._x_blocks())[1][:, low])
        # Outcome r = ((q 2^(L-g) + u) 2^(a-g) + v) 2^g + s, g = min(a, L):
        # r mod 2^L is (u, s) and r >> a is (q, u).
        g = min(a, L)
        low_sums = low_sums.reshape(1 << (L - g), 1, 1 << g)
        # With no summand past the block, a = T: one row, and C = 0.
        for rows, x in self._x_blocks(a):
            sums = _row_sums(x[:, high]).reshape(-1, 1 << (L - g), 1, 1)
            np.add(low_sums, sums, dtype=out.dtype, out=out[rows.start << a : rows.stop << a]
                   .reshape(-1, 1 << (L - g), 1 << (a - g), 1 << g))
        return out

    def _window_sums(self, i: int) -> tuple:
        """``(v1, v2)``: the radius-1 and radius-2 window sums around index
        ``i`` of every outcome, in :meth:`enumerate_bits` row order.

        They are read from the cached summand values when there are any.
        Else the summands of the radius-2 window read only trials
        ``first..stop-1``, the union of their :meth:`trial_span`: the
        outcomes of those trials are mapped, in row blocks, and each sum is
        broadcast to every outcome that shares them.  Each is ``uint8``
        while every block's sums fit a byte (:func:`_row_sums`), and
        ``int32`` once a block's do not.
        """
        windows = [self.neighborhood_indices(i, ell) for ell in (1, 2)]
        xs = self._cache.get("x")
        if xs is None:
            self._require_enumerable()
            spans = [self.trial_span(j) for j in windows[1]]
            first = min(span.start for span in spans)
            stop = max(span.stop for span in spans)
            blocks = self._x_blocks(first, stop)
        else:
            first, stop = 0, self.trial_count
            blocks = [(slice(None), xs)]
        # Outcome r = (q 2^(stop-first) + u) 2^first + s has the sums of u.
        shape = (self.outcome_count >> stop, 1 << (stop - first), 1 << first)
        sums = [np.empty(self.outcome_count, dtype=np.uint8) for _ in windows]
        for rows, x in blocks:
            for k, window in enumerate(windows):
                block = _row_sums(x[:, window.start - 1 : window.stop - 1])
                if block.itemsize > sums[k].itemsize:
                    sums[k] = sums[k].astype(block.dtype)
                sums[k].reshape(shape)[:, rows] = block[:, None]
        return tuple(sums)

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
        out = {"model": self.kind, "p": list(self.trial_probs)}
        out.update(self.params)
        return out


class BernoulliProductSequence(DependentSequence):
    """Independent summands ``X_i = trial_i`` (dependence radius 0)."""

    def __init__(self, probs: Sequence[float]):
        super().__init__(probs, n=len(probs), dependence_radius=0,
                         kind="custom-bernoulli-product")

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        return bits

    def x_scalar(self, bits: tuple) -> tuple:
        return bits

    def trial_span(self, i: int) -> range:
        return range(i - 1, i)

    def closed_form_moments(self) -> MomentSet:
        """Exact moments: independent summands, so every moment is a product of ``p``s."""
        p = np.asarray(self.trial_probs)
        pair = p[:-1] * p[1:]
        triple = pair[:-1] * p[2:]
        return neighborhood_moment_set(
            p, *(np.pad(v, (0, self.n - len(v))) for v in (pair, triple)))


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


def _bracket(out: np.ndarray, xn1: np.ndarray, xn2: np.ndarray) -> np.ndarray:
    """``out``, a float64 buffer, set in place to the bracket
    ``xn1 (2 xn2 - xn1 - 1)`` of the window sums ``xn1`` and ``xn2``."""
    np.copyto(out, xn2)
    out *= 2
    out -= xn1
    out -= 1
    out *= xn1
    return out


def _moment_columns(x: np.ndarray, xn1: np.ndarray, xn2: np.ndarray, bufs) -> Iterator:
    """The six per-outcome integrands of :class:`MomentSet`, one at a time,
    each formed in place in the three float64 buffers ``bufs``: a caller
    reads each before the next."""
    a, b, c = bufs
    np.copyto(a, x)
    yield a
    np.copyto(b, xn1)
    yield b
    yield np.multiply(a, b, out=c)
    yield _bracket(c, b, xn2)
    c *= a
    yield c
    np.copyto(c, xn2)
    c -= 1
    c *= a
    yield c


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
    total = seq._stream_w(np.empty(seq.outcome_count)) if cached is None else cached.astype(float)
    mean = float(w @ total)
    np.square(total, out=total)
    return mean, float(w @ total) - mean**2


def sliding_windows(seq: DependentSequence) -> Iterator[tuple]:
    """Yield ``(x, xn1, xn2)`` for ``i = 1..n``: the column of ``X_i`` and
    the radius-1 and radius-2 window sums around it over every outcome.

    ``x`` is a row of the transpose of the cached column-major summand
    values, a free view.  The windows slide along the indices in place,
    each step subtracting the column that leaves before adding the one that
    enters, so a caller reads them before the next step.  No partial sum
    exceeds a full window, so they are ``int8`` where five times the largest
    summand value fits it, else ``int32``.
    """
    xt = seq.x_values().T
    n = seq.n
    dtype = np.int8 if 5 * int(xt.max(initial=0)) <= np.iinfo(np.int8).max else np.int32
    xn1 = np.zeros(seq.outcome_count, dtype=dtype)
    xn2 = np.zeros_like(xn1)
    for i in range(-2, n):  # 0-based; the first two steps fill the windows
        for window, leaves, enters in ((xn1, i - 2, i + 1), (xn2, i - 3, i + 2)):
            if leaves >= 0:
                window -= xt[leaves]
            if 0 <= enters < n:
                window += xt[enters]
        if i >= 0:
            yield xt[i], xn1, xn2


def _moments_by_enumeration(seq: DependentSequence) -> MomentSet:
    """Exact moments, streamed over indices with one ``w @ column`` each.

    Every column holds small integers, formed exactly in float64 from the
    integer windows of :func:`sliding_windows`, so it equals the integer
    column of a full ``(outcomes, n)`` matrix evaluation, and each moment is
    the same dot product bit for bit.  ``mean_w`` and ``var_w`` come from
    :func:`mean_var`.
    """
    w = seq.outcome_probs()
    bufs = [np.empty(seq.outcome_count) for _ in range(3)]
    fields = tuple([] for _ in range(6))
    for x, xn1, xn2 in sliding_windows(seq):
        for out, v in zip(fields, _moment_columns(x, xn1, xn2, bufs)):
            out.append(float(w @ v))
    return MomentSet(*(tuple(f) for f in fields), *mean_var(seq))


# -- certificates -------------------------------------------------------------------


def _rank(key: np.ndarray, space: int) -> tuple:
    """``(ids, values)``: the dense rank of each non-negative integer key
    below ``space``, in increasing order of value, and the distinct keys in
    that order.  Keys are ranked by a presence ``bincount`` and its
    ``cumsum`` where ``space`` is at most the number of keys, and by
    ``np.unique`` (a sort) otherwise; both give the same ranks."""
    if space > len(key):
        values, ids = np.unique(key, return_inverse=True)
        return ids, values
    present = np.bincount(key, minlength=space) > 0
    return (np.cumsum(present) - 1)[key], np.flatnonzero(present)


def _dense(groups: tuple) -> tuple:
    """The groups ``(ids, size)`` renumbered densely by :func:`_rank`."""
    ids, values = _rank(*groups)
    return ids, len(values)


def _fold(groups: tuple, col) -> tuple:
    """Refine the groups ``(ids, size)`` by one more integer column.

    Every id lies below ``size``, but not every id below ``size`` need be
    attained.  The packed key ``id * radix + value`` is kept as the new id
    while its space, ``size * radix``, fits the outcome count; past that the
    ids are made dense first, and a key space that still does not fit is
    ranked by sorting.  So sizes never pass the outcome count and packed
    keys never overflow.
    """
    ids, size = groups
    col = np.asarray(col, dtype=np.int64)
    col = col - col.min()
    radix = int(col.max()) + 1
    count = len(ids)
    if size * radix > count:
        ids, size = _dense((ids, size))
    ids, size = ids * radix + col, size * radix
    return _dense((ids, size)) if size > count else (ids, size)


def group_rows(cols, count: int) -> tuple:
    """``(ids, size)`` grouping ``count`` outcomes by their values in ``cols``.

    Equal value tuples share a dense id below ``size``, the number of
    groups, and ids follow the lexicographic order of the tuples.  Columns
    fold in one at a time (:func:`_fold`), and the folded key is ranked once
    at the end: by counting where its space is at most ``count``, by
    sorting otherwise.  With no columns all outcomes form group 0.
    """
    return _dense(reduce(_fold, cols, (np.zeros(count, dtype=np.int64), 1)))


def dependence_certificate(seq: DependentSequence, gap: int = 2) -> bool:
    """Check the joint law factorizes across every split with the stated gap.

    For all i < j with ``j - i >= gap`` (gap 2 means 1-dependence), the joint
    distribution of ``(X_1..X_i)`` and ``(X_j..X_n)`` must be the product of
    its marginals, to within 1e-12, on every attainable value pair.
    """
    xs = seq.x_values()
    w = seq.outcome_probs()
    n = seq.n
    # prefixes[i] and suffixes[k] group the outcomes by their first i or last
    # k summands (ids below a size, not all of them attained).
    start = group_rows((), len(w))
    suffixes = list(accumulate(xs.T[gap:][::-1], _fold, initial=start))
    prefixes = accumulate(xs.T[: max(n - gap, 0)], _fold, initial=start)
    for i, (pre, n_pre) in enumerate(islice(prefixes, 1, None), start=1):
        suf, n_suf = suffixes[n - i - gap + 1]
        # The attained pairs, ranked by their key; each key names its two groups.
        pair, keys = _rank(pre * n_suf + suf, n_pre * n_suf)
        joint, pm, sm = (np.bincount(ids, weights=w) for ids in (pair, pre, suf))
        pre_of, suf_of = np.divmod(keys, n_suf)
        if np.any(np.abs(joint - pm[pre_of] * sm[suf_of]) > 1e-12):
            return False
    return True


def sequence_from_json(obj: dict) -> DependentSequence:
    kind = obj.get("model")
    builder = _MODEL_BUILDERS.get(kind)
    if builder is None:
        raise ValueError(f"unknown model kind {kind!r}")
    return builder(obj)
