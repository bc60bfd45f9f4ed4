"""Finite sequences of Z+-valued 1-dependent variables over Bernoulli trials.

A :class:`DependentSequence` owns a vector of independent trial probabilities
and a rule mapping trial outcomes to the summand values ``X_1..X_n``.  It
exposes three backends: exact vectorized enumeration of the full outcome
space (the certified route, refused above ``MAX_ENUM_OUTCOMES``), exact
rational enumeration for small instances, and a seeded sampler whose moment
estimates are flagged non-certified.  Enumerated moments stream over the
indices, one float64 column and dot product at a time, with sliding window
sums.  Blocking reduces an m-dependent sequence to a 1-dependent one without
changing the total sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import EnumerationLimitError, UnavailableError

MAX_ENUM_OUTCOMES = 2**24

# Builders for sequence_from_json, keyed by the "model" tag.  The runs module
# registers its models on import.
_MODEL_BUILDERS: dict = {}


def register_model(kind: str, builder: Callable[[dict], "DependentSequence"]) -> None:
    _MODEL_BUILDERS[kind] = builder


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
    certified: bool = True
    std_error: Optional[float] = None

    @property
    def n(self) -> int:
        return len(self.e_x)

    def var_from_neighborhoods(self) -> float:
        """Variance via the neighborhood display, for identity checks."""
        return math.fsum(
            self.e_x_xn1[i] - self.e_x[i] * self.e_xn1[i] for i in range(self.n)
        )


class DependentSequence:
    """Base carrier: trial probabilities plus the trials -> X mapping.

    Subclasses implement :meth:`x_columns` (vectorized) and
    :meth:`x_scalar` (tuple in, tuple out, exact-arithmetic friendly) and give
    ``n`` and ``dependence_radius``.  ``kind``/``params`` drive serialization.
    """

    def __init__(self, trial_probs: Sequence[float], n: int, dependence_radius: int,
                 kind: str, params: Optional[dict] = None):
        self.trial_probs = tuple(float(p) for p in trial_probs)
        if any(not 0 <= p <= 1 for p in self.trial_probs):
            raise ValueError("trial probabilities must lie in [0,1]")
        self.n = int(n)
        self.dependence_radius = int(dependence_radius)
        self.kind = kind
        self.params = dict(params or {})
        self._cache: dict = {}

    # -- mapping (overridden by subclasses) ---------------------------------

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def x_scalar(self, bits: tuple) -> tuple:
        raise NotImplementedError

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

    def enumerate_bits(self) -> np.ndarray:
        """All trial outcomes as a (2^T, T) uint8 matrix."""
        self._require_enumerable()
        bits = self._cache.get("bits")
        if bits is None:
            idx = np.arange(self.outcome_count, dtype=np.uint64)
            bits = np.empty((self.outcome_count, self.trial_count), dtype=np.uint8)
            for t in range(self.trial_count):
                bits[:, t] = (idx >> np.uint64(t)) & np.uint64(1)
            self._cache["bits"] = bits
        return bits

    def outcome_probs(self) -> np.ndarray:
        """Outcome probabilities in :meth:`enumerate_bits` row order, built
        by doubling the table once per trial: factors multiply in trial order."""
        probs = self._cache.get("probs")
        if probs is None:
            self._require_enumerable()
            probs = np.ones(1)
            for p in self.trial_probs:
                probs = np.concatenate((probs * (1.0 - p), probs * p))
            self._cache["probs"] = probs
        return probs

    def x_values(self) -> np.ndarray:
        xs = self._cache.get("x")
        if xs is None:
            xs = self.x_columns(self.enumerate_bits()).astype(np.int16)
            if xs.shape != (self.outcome_count, self.n):
                raise ValueError("x_columns returned a misshaped matrix")
            self._cache["x"] = xs
        return xs

    def iter_exact(self, exact_probs: Optional[Sequence[Fraction]] = None
                   ) -> Iterator[tuple]:
        """Yield ``(bits, probability, x_tuple)`` with rational probabilities.

        Probabilities multiply along a shared prefix tree, so the cost is one
        multiplication per node rather than per (trial, outcome) pair.
        """
        self._require_enumerable()
        if exact_probs is None:
            exact_probs = [Fraction(p).limit_denominator(10**9) for p in self.trial_probs]
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

    # -- sampling ------------------------------------------------------------

    def sample_x(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random((size, self.trial_count))
        bits = (u < np.asarray(self.trial_probs)).astype(np.uint8)
        return self.x_columns(bits).astype(np.int16)

    # -- neighborhoods ---------------------------------------------------------

    def neighborhood_indices(self, i: int, ell: int) -> range:
        """Indices ``{j : |j-i| <= ell}`` intersected with ``1..n`` (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside 1..{self.n}")
        if ell not in (1, 2):
            raise ValueError("ell must be 1 or 2")
        return range(max(1, i - ell), min(self.n, i + ell) + 1)

    def _window_values(self, xs: np.ndarray, i: int, ell: int) -> np.ndarray:
        idx = self.neighborhood_indices(i, ell)
        return xs[:, idx.start - 1 : idx.stop - 1].sum(axis=1)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        out = {"model": self.kind, "p": list(self.trial_probs)}
        out.update(self.params)
        return out


class NeighborhoodSum:
    """Handle for ``sum of X_j over the radius-ell window around i``."""

    def __init__(self, seq: DependentSequence, i: int, ell: int):
        self.seq = seq
        self.i = i
        self.ell = ell
        self.indices = seq.neighborhood_indices(i, ell)

    def values(self) -> np.ndarray:
        """Per-outcome values over the full enumeration."""
        return self.seq._window_values(self.seq.x_values(), self.i, self.ell)

    def of_x(self, x: Sequence) -> int:
        return sum(x[j - 1] for j in self.indices)


def neighborhood_sum(seq: DependentSequence, i: int, ell: int) -> NeighborhoodSum:
    return NeighborhoodSum(seq, i, ell)


class BernoulliProductSequence(DependentSequence):
    """Independent summands ``X_i = trial_i`` (dependence radius 0)."""

    def __init__(self, probs: Sequence[float]):
        super().__init__(probs, n=len(probs), dependence_radius=0,
                         kind="custom-bernoulli-product")

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        return bits

    def x_scalar(self, bits: tuple) -> tuple:
        return bits


register_model(
    "custom-bernoulli-product",
    lambda obj: BernoulliProductSequence([float(p) for p in obj["p"]]),
)


class BlockedSequence(DependentSequence):
    """Consecutive blocks of an m-dependent sequence, yielding radius 1.

    Block ``j`` sums source indices ``(j-1)m+1 .. min(jm, n)``; there are
    ``ceil(n/m)`` blocks and the blocked total equals the source total
    outcome by outcome.
    """

    def __init__(self, source: DependentSequence, m: Optional[int] = None):
        m = source.dependence_radius if m is None else m
        if m <= 0:
            m = 1  # independent sources block as singletons
        blocks = []
        lo = 1
        while lo <= source.n:
            hi = min(lo + m - 1, source.n)
            blocks.append((lo, hi))
            lo = hi + 1
        self.source = source
        self.block_size = m
        self.blocks = tuple(blocks)
        radius = 0 if source.dependence_radius == 0 else 1
        super().__init__(source.trial_probs, n=len(blocks), dependence_radius=radius,
                         kind=f"blocked:{source.kind}", params=dict(source.params))

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        xs = self.source.x_columns(bits)
        cols = [xs[:, lo - 1 : hi].sum(axis=1) for lo, hi in self.blocks]
        return np.stack(cols, axis=1)

    def x_scalar(self, bits: tuple) -> tuple:
        xs = self.source.x_scalar(bits)
        return tuple(sum(xs[lo - 1 : hi]) for lo, hi in self.blocks)


def block_m_dependent(seq: DependentSequence, m: Optional[int] = None) -> BlockedSequence:
    """Group an m-dependent sequence into ``ceil(n/m)`` 1-dependent blocks."""
    if m is not None and m <= 0:
        raise ValueError("block size must be positive")
    return BlockedSequence(seq, m)


# -- moments ----------------------------------------------------------------------


def compute_moments(
    seq: DependentSequence,
    method: str = "auto",
    rng: Optional[np.random.Generator] = None,
    samples: int = 200_000,
) -> MomentSet:
    """All neighborhood moments consumed by the dependent-sum bounds.

    ``auto`` enumerates exactly when the outcome space permits, then falls
    back to a registered closed form, then to sampling (whose result carries
    a standard-error flag and is not certified).
    """
    if method == "auto":
        if seq.enumerable:
            method = "enumerate"
        elif getattr(seq, "closed_form_moments", None) is not None:
            method = "closed-form"
        else:
            method = "sample"

    if method == "closed-form":
        provider = getattr(seq, "closed_form_moments", None)
        if provider is None:
            raise UnavailableError(f"no closed-form moments for {seq.kind!r}")
        return provider()
    if method == "enumerate":
        return _moments_by_enumeration(seq)
    if method == "sample":
        if rng is None:
            rng = np.random.default_rng(0)
        return _moments_by_sampling(seq, rng, samples)
    raise ValueError(f"unknown method {method!r}")


def _window_matrix(xs: np.ndarray, n: int, ell: int) -> np.ndarray:
    """Column i-1 holds the radius-ell window sum around index i."""
    padded = np.zeros((xs.shape[0], n + 2 * ell), dtype=np.int64)
    padded[:, ell : ell + n] = xs
    out = np.zeros((xs.shape[0], n), dtype=np.int64)
    for off in range(-ell, ell + 1):
        out += padded[:, ell + off : ell + off + n]
    return out


def _moment_columns(x: np.ndarray, xn1: np.ndarray, xn2: np.ndarray) -> Iterator:
    """The six per-outcome integrands of :class:`MomentSet`, one at a time."""
    yield x
    yield xn1
    yield x * xn1
    bracket = xn1 * (2 * xn2 - xn1 - 1)
    yield bracket
    yield x * bracket
    yield x * (xn2 - 1)


def _moments_by_enumeration(seq: DependentSequence) -> MomentSet:
    """Exact moments, streamed over indices with one ``w @ column`` each.

    Radius-1 and radius-2 window sums slide along the indices in float64.
    Every column holds small integers, so it equals the integer column of a
    full ``(outcomes, n)`` matrix evaluation, and each moment is the same
    dot product bit for bit; only one transposed copy of the summand values
    is held.
    """
    xt = np.ascontiguousarray(seq.x_values().T)
    w = seq.outcome_probs()
    n = seq.n
    pad = np.zeros(len(w))
    cols: dict = {}

    def col(j: int) -> np.ndarray:
        if 0 <= j < n and j not in cols:
            cols[j] = xt[j].astype(float)
        return cols.get(j, pad)

    xn1, xn2, total = pad.copy(), pad.copy(), pad.copy()
    fields = tuple([] for _ in range(6))
    for i in range(-2, n):  # 0-based; the first two steps fill the windows
        xn1 += col(i + 1) - col(i - 2)
        xn2 += col(i + 2) - col(i - 3)
        cols.pop(i - 3, None)
        if i >= 0:
            for out, v in zip(fields, _moment_columns(cols[i], xn1, xn2)):
                out.append(float(w @ v))
            total += cols[i]
    mean_w = float(w @ total)
    var_w = float(w @ total**2) - mean_w**2
    return MomentSet(*(tuple(f) for f in fields), mean_w, var_w, certified=True)


def _moments_by_sampling(seq: DependentSequence, rng: np.random.Generator,
                         samples: int) -> MomentSet:
    xs = seq.sample_x(rng, samples).astype(np.int64)
    n = seq.n
    cols = _moment_columns(xs, _window_matrix(xs, n, 1), _window_matrix(xs, n, 2))
    total = xs.sum(axis=1).astype(float)
    se = float(total.std(ddof=1) / math.sqrt(samples))
    return MomentSet(
        *(tuple(float(c[:, i].mean()) for i in range(n)) for c in cols),
        float(total.mean()), float(total.var(ddof=1)),
        certified=False, std_error=se,
    )


# -- certificates -------------------------------------------------------------------


def dependence_certificate(seq: DependentSequence, gap: int = 2, tol: float = 1e-12) -> bool:
    """Check the joint law factorizes across every split with the stated gap.

    For all i < j with ``j - i >= gap`` (gap 2 means 1-dependence), the joint
    distribution of ``(X_1..X_i)`` and ``(X_j..X_n)`` must be the product of
    its marginals on every attainable value pair.
    """
    xs = seq.x_values()
    w = seq.outcome_probs()
    n = seq.n
    for i in range(1, n):
        j = i + gap
        if j > n:
            break
        pre = [tuple(row) for row in xs[:, :i]]
        suf = [tuple(row) for row in xs[:, j - 1 :]]
        joint: dict = {}
        pm: dict = {}
        sm: dict = {}
        for a, b, mass in zip(pre, suf, w):
            joint[(a, b)] = joint.get((a, b), 0.0) + mass
            pm[a] = pm.get(a, 0.0) + mass
            sm[b] = sm.get(b, 0.0) + mass
        for (a, b), mass in joint.items():
            if abs(mass - pm[a] * sm[b]) > tol:
                return False
    return True


def sequence_from_json(obj: dict) -> DependentSequence:
    kind = obj.get("model")
    builder = _MODEL_BUILDERS.get(kind)
    if builder is None:
        raise ValueError(f"unknown model kind {kind!r}")
    return builder(obj)
