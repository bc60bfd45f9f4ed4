"""Total-variation error bounds for 1-dependent sums against Panjer targets.

Implements the main moment-based bound (exact conditional shift-regularity
terms, from :func:`build_conditional_terms`: a model's ``conditional_terms()``
hook, else enumeration), its smoothing-constant variant ``d1``, the
first-moment-only variant ``d2``, their minimum, and the crude ``(2|1-b| ||g||
+ ||Delta g||) sum E X_i`` bound, plus the exact total-variation utilities every bound is certified
against.  The Stein factors ``||Delta g||`` and ``||g||`` always come from the
target (:func:`default_delta_g`, :func:`families.g_norm_bound`).  The main
bound, ``d1`` and ``d2`` are one display, ``|Delta g| {(|1-b|/2) sum quad +
sum lin + |tau (1-b)|}``, fed different inner sums; one assembly builds their
reports, and ``min`` is the smaller of the ``d1`` and ``d2`` reports.  The
``d1`` smoothing constants are one :class:`SmoothingEstimate` per model,
per-index read-only float64 arrays ``c`` and ``raw`` and a tuple of labels
``method``, from one call to the model's ``smoothing_constants()``.  All
reports itemize their terms and are recomputable from parts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import MomentMatchError, PreconditionError, UnavailableError
from .families import PanjerPSD, PMFTable, delta_g_uniform_bound, g_norm_bound
from .oracle import conditional_table, exact_conditional_D, shift_regularity
from .sequences import DependentSequence, MomentSet, _n1_bracket, read_only

MEAN_MATCH_TOL = 1e-9


def m_star(n: int) -> int:
    """Count of odd indices in ``1..n``: ``n/2`` even, ``floor(n/2)+1`` odd."""
    if n < 1:
        raise ValueError("n must be positive")
    return n // 2 if n % 2 == 0 else n // 2 + 1


# -- distance utilities -----------------------------------------------------------


def D_statistic(pmf: PMFTable) -> float:
    """Shift regularity ``D(Y) = 2 d_TV(Y, Y+1) = sum_k |p_k - p_{k-1}|``."""
    return shift_regularity(pmf.as_array())


@dataclass(frozen=True)
class TVInterval:
    """Total-variation value with the truncation slack as an interval."""

    value: float
    slack: float = 0.0

    @property
    def lower(self) -> float:
        return max(0.0, self.value - self.slack)

    @property
    def upper(self) -> float:
        return self.value + self.slack

    def __float__(self) -> float:
        return self.value


def exact_tv(p: PMFTable, q: PMFTable) -> TVInterval:
    """``d_TV`` between two tabulated laws, with tail slack reported.

    Supports are aligned on the integers; any untabulated mass contributes at
    most ``(tail_p + tail_q)/2`` either way, which becomes the interval slack.
    Exact rational tables produce a slack-free rational value.
    """
    if p.exact and q.exact and p.tail_mass_bound == 0 and q.tail_mass_bound == 0:
        lo = min(p.support_min, q.support_min)
        hi = max(p.k_max, q.k_max)
        total = sum(abs(p.mass(k) - q.mass(k)) for k in range(lo, hi + 1))
        return TVInterval(total / 2, 0.0)
    lo = min(p.support_min, q.support_min)
    hi = max(p.k_max, q.k_max)
    pa = np.zeros(hi - lo + 1)
    qa = np.zeros(hi - lo + 1)
    pa[p.support_min - lo : p.support_min - lo + len(p.masses)] = p.as_array()
    qa[q.support_min - lo : q.support_min - lo + len(q.masses)] = q.as_array()
    value = 0.5 * float(np.abs(pa - qa).sum())
    slack = 0.5 * (float(p.tail_mass_bound) + float(q.tail_mass_bound))
    return TVInterval(value, slack)


# -- smoothing ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SmoothingEstimate:
    """Per-index smoothing constants ``c_i(n)`` with their provenance.

    ``c``, ``raw`` and ``method`` each hold one entry per index: the constant
    the bounds use, the value its method gave, and that method.  ``c`` and
    ``raw`` are read-only float64 arrays, copied from what the constructor
    is given; a list of ``c`` appears only in a report's JSON.
    :func:`build_smoothing` caps ``c`` at 2 (the shift regularity of any law
    is at most 2), so there a model formula may exceed the cap only through
    ``raw``.  The runs closed-form bounds pass their model constants
    uncapped, as the model bounds state them.
    """

    c: np.ndarray
    raw: np.ndarray
    method: tuple

    def __post_init__(self):
        object.__setattr__(self, "c", read_only(self.c))
        object.__setattr__(self, "raw", read_only(self.raw))
        if not len(self.c) == len(self.raw) == len(self.method):
            raise ValueError("c, raw and method need one entry per index")
        if np.any(self.c < 0):
            raise ValueError("smoothing constant must be non-negative")

    @property
    def n(self) -> int:
        return len(self.c)

    @classmethod
    def constant(cls, value: float, n: int) -> "SmoothingEstimate":
        return cls((min(value, 2.0),) * n, (value,) * n, ("model-closed-form",) * n)


def build_smoothing(seq: DependentSequence) -> SmoothingEstimate:
    """Bounds on ``D(W_n | X_{N_{i,2}})`` for every index ``i``.

    Uses the model's published constants when it has a
    ``smoothing_constants()`` hook, capped at 2; otherwise falls back to
    exact conditional evaluation on enumerable instances: the max of ``D``
    over both window tables of each index, ``n2`` and ``n1n2``, so the
    result is valid wherever either form is consumed.
    """
    provider = getattr(seq, "smoothing_constants", None)
    if provider is not None:
        raw, method = provider()
        return SmoothingEstimate(np.minimum(raw, 2.0), raw, method)
    if seq.enumerable:
        worst = [max(max(exact_conditional_D(seq, i, c).values()) for c in ("n2", "n1n2"))
                 for i in range(1, seq.n + 1)]
        return SmoothingEstimate(worst, worst, ("exact-conditional",) * seq.n)
    raise UnavailableError(
        "no smoothing provider registered and the instance is not enumerable"
    )


# -- reports ------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Itemized bound: ``total`` is recomputable from the parts.

    ``variant`` selects the recomposition formula: the three main variants
    use ``delta_g * (quadratic + linear + tau)``; ``crude`` uses
    ``(2|1-b| g_norm + delta_g) * linear``; ``min`` carries both operands.
    The runs closed forms also carry their per-index ``moment_terms``, an
    ``(n, 2)`` read-only float64 array, and the smoothing constants used,
    ``c_constant``, one float or a read-only array.  Its JSON and CSV forms
    keep a ``slack`` of 0: no bound carries one.
    """

    variant: str
    delta_g_factor: float
    term_quadratic: float
    term_linear: float
    term_tau: float
    total: float
    smoothing: Optional[SmoothingEstimate] = None
    g_norm_factor: Optional[float] = None
    one_minus_b: float = 1.0
    operands: Optional[dict] = None
    moment_terms: Optional[np.ndarray] = None
    c_constant: object = None

    def to_json(self) -> dict:
        out = {
            "variant": self.variant,
            "delta_g": self.delta_g_factor,
            "term_quadratic": self.term_quadratic,
            "term_linear": self.term_linear,
            "term_tau": self.term_tau,
            "total": self.total,
            "slack": 0.0,
        }
        if self.g_norm_factor is not None:
            out["g_norm"] = self.g_norm_factor
        if self.smoothing is not None:
            out["smoothing_c"] = self.smoothing.c.tolist()
        if self.operands:
            out["operands"] = dict(self.operands)
        if self.moment_terms is not None:
            out["moment_terms"] = self.moment_terms.tolist()
        if self.c_constant is not None:
            out["c_constant"] = np.asarray(self.c_constant).tolist()
        return out

    def csv_row(self, n: Optional[int] = None, params: str = "") -> str:
        """One CSV row, a cell quoted only where it holds a comma or a quote."""
        cells = [self.variant, "" if n is None else str(n), params,
                 f"{self.total:.12g}", "0"]
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(cells)
        return out.getvalue()


def target_mean(spec) -> float:
    """The mean of a target every variant takes: a Panjer family, whose ``a``
    and ``b`` the bounds use, with moments (``b < 1``, and no ``max_support``
    that cuts the recursion; see :meth:`PanjerPSD.mean_var`).  It reads
    nothing of the sum, so a target is refused before any moment of the sum
    is computed."""
    if not isinstance(spec, PanjerPSD):
        raise PreconditionError("the bounds need a Panjer target (a, b); a series target has none")
    return spec.mean


def _check_target(spec, mean_w: float):
    """Every variant's preconditions on the target: :func:`target_mean`, equal
    to the sum's mean."""
    target = target_mean(spec)
    if abs(target - mean_w) > MEAN_MATCH_TOL * (1.0 + abs(mean_w)):
        raise MomentMatchError(target, mean_w)


def default_delta_g(spec) -> float:
    """Default forward-difference factor for the bound variants.

    The point mass at zero (``a = 0``) admits only ``g = 0`` in the solution
    class, so its factor is zero; all other families use the uniform bound.
    """
    if spec.a == 0:
        return 0.0
    return delta_g_uniform_bound(spec)


def _check_n(n: int, minimum: int, allow_small_n: bool, hint: str):
    if n < minimum and not allow_small_n:
        raise PreconditionError(
            f"stated validity requires n >= {minimum} (got n={n}); {hint}"
        )


# -- conditional-term provider --------------------------------------------------------


class ExactConditionalTerms:
    """Theorem-style inner sums with exact conditional shift regularity.

    Computes, by full enumeration, the three per-index expectations in which
    the conditional ``D`` enters as a weight: the two bracketed third-moment
    sums conditioned on the (radius-1, radius-2) pair, and the linear term
    conditioned on the radius-2 window, computed once.  Each index forms
    its integrands on its window table and weights each row by its ``D``
    in the oracle's two conditional tables, which the sequence keeps for
    :func:`exact_conditional_D` (and so :func:`build_smoothing`); each
    product, one float rounding per outcome, is expanded into one reused
    buffer for its dot product (:meth:`~DependentSequence._expand`).
    This is the enumeration oracle; :func:`build_conditional_terms` prefers a
    model's own engine.
    """

    def __init__(self, seq: DependentSequence):
        if not seq.enumerable:
            raise UnavailableError("exact conditional terms need an enumerable instance")
        self.seq = seq
        self._sums = None

    def weighted_sums(self) -> tuple:
        if self._sums is not None:
            return self._sums
        seq = self.seq
        w, buffer = seq.outcome_probs(), np.empty(seq.outcome_count)
        sum_q1 = sum_q2 = sum_lin = 0.0
        for i in range(1, seq.n + 1):
            first, stop, (x, v1, v2) = seq._window_table(
                range(i, i + 1), *(seq.neighborhood_indices(i, ell) for ell in (1, 2)))

            def expect(v) -> float:
                return float(w @ seq._expand(first, stop, v, buffer))

            d = conditional_table(seq, i, "n1n2").d_at((v1, v2))
            col = _n1_bracket(v1, v2)
            sum_q1 += expect(x) * expect(d * col)
            sum_q2 += expect(d * np.multiply(col, x, out=col))
            del d, col  # freed before the n2 D is read
            d, col = conditional_table(seq, i, "n2").d_at((v1, v2)), np.subtract(v2, 1.0)
            sum_lin += expect(d * np.multiply(col, x, out=col))
        self._sums = (sum_q1, sum_q2, sum_lin)
        return self._sums


def build_conditional_terms(seq: DependentSequence):
    """The provider of theorem 3.1's weighted sums for ``seq``.

    The model's ``conditional_terms()`` hook when it has one (the runs
    models' imbedding engine, polynomial in ``n``); else
    :class:`ExactConditionalTerms` on an enumerable instance; else
    :class:`UnavailableError`.  Either provider has ``weighted_sums()``.
    """
    provider = getattr(seq, "conditional_terms", None)
    if provider is not None:
        return provider()
    if seq.enumerable:
        return ExactConditionalTerms(seq)
    raise UnavailableError(
        "no conditional-terms provider registered and the instance is not enumerable"
    )


# -- bound variants ---------------------------------------------------------------------


def _moment_bound(variant: str, moments: MomentSet, spec, quadratic: float,
                  linear: float, tau: bool = True, **fields) -> BoundReport:
    """The one display behind ``theorem31``, ``d1`` and ``d2``:
    ``|Delta g| (quadratic + linear + |tau (1-b)|)``.

    ``|Delta g|`` is :func:`default_delta_g` of the target, and
    ``tau = Var W - a/(1-b)^2`` is the variance mismatch (``tau=False``
    leaves it out, as ``d2`` does).  ``fields`` go to the report as given.
    """
    delta_g = default_delta_g(spec)
    one_minus_b = 1 - spec.b
    term_tau = abs((moments.var_w - spec.a / one_minus_b**2) * one_minus_b) if tau else 0.0
    return BoundReport(
        variant=variant,
        delta_g_factor=delta_g,
        term_quadratic=quadratic,
        term_linear=linear,
        term_tau=term_tau,
        total=delta_g * (quadratic + linear + term_tau),
        one_minus_b=one_minus_b,
        **fields,
    )


def theorem31_bound(
    moments: MomentSet,
    conditionals: ExactConditionalTerms,
    spec,
    allow_small_n: bool = False,
) -> BoundReport:
    """Main bound with exact conditional shift-regularity weights, the
    ``weighted_sums()`` of ``conditionals`` (see :func:`build_conditional_terms`).

    Requires first moments matched and ``n >= 6`` (override via
    ``allow_small_n`` for experimentation; the stated validity starts at 6).
    """
    _check_target(spec, moments.mean_w)
    _check_n(moments.n, 6, allow_small_n, "use the crude bound below that")
    sum_q1, sum_q2, sum_lin = conditionals.weighted_sums()
    quadratic = abs(1 - spec.b) / 2 * (sum_q1 + sum_q2)
    return _moment_bound("theorem31", moments, spec, quadratic, sum_lin)


def bound_d1(
    moments: MomentSet,
    smoothing: SmoothingEstimate,
    spec,
    allow_small_n: bool = False,
) -> BoundReport:
    """Smoothing-constant variant: conditional weights replaced by c_i(n)."""
    _check_target(spec, moments.mean_w)
    _check_n(moments.n, 6, allow_small_n, "use the crude bound below that")
    if smoothing.n != moments.n:
        raise ValueError("smoothing length does not match moment set")
    quad, lin = moments.smoothing_weights()
    quadratic = abs(1 - spec.b) / 2 * math.fsum(smoothing.c * quad)
    linear = math.fsum(smoothing.c * lin)
    return _moment_bound("d1", moments, spec, quadratic, linear, smoothing=smoothing)


def bound_d2(moments: MomentSet, spec) -> BoundReport:
    """First-moment-only variant, valid for every ``n >= 1``; no tau term."""
    _check_target(spec, moments.mean_w)
    quadratic = abs(1 - spec.b) * math.fsum(moments.e_x * moments.e_xn1 + moments.e_x_xn1)
    return _moment_bound("d2", moments, spec, quadratic, math.fsum(moments.e_x), tau=False)


def bound_min(
    moments: MomentSet,
    smoothing: SmoothingEstimate,
    spec,
    allow_small_n: bool = False,
) -> BoundReport:
    """``min(d1, d2)``: the smaller report's terms, with both totals as operands."""
    r1 = bound_d1(moments, smoothing, spec, allow_small_n)
    r2 = bound_d2(moments, spec)
    better = r1 if r1.total <= r2.total else r2
    return replace(better, variant="min", smoothing=smoothing,
                   operands={"d1": r1.total, "d2": r2.total})


def bound_crude(moments: MomentSet, spec) -> BoundReport:
    """Crude bound ``(2|1-b| ||g|| + ||Delta g||) sum E(X_i)``, any n >= 1.

    ``||Delta g||`` is :func:`default_delta_g` of the target and ``||g||`` the
    certified numeric supremum over indicator test functions,
    :func:`families.g_norm_bound`.
    """
    _check_target(spec, moments.mean_w)
    delta_g = default_delta_g(spec)
    g_norm = g_norm_bound(spec)
    b = spec.b
    sum_means = math.fsum(moments.e_x)
    total = (2 * abs(1 - b) * g_norm + delta_g) * sum_means
    return BoundReport(
        variant="crude",
        delta_g_factor=delta_g,
        term_quadratic=0.0,
        term_linear=sum_means,
        term_tau=0.0,
        total=total,
        g_norm_factor=g_norm,
        one_minus_b=1 - b,
    )
