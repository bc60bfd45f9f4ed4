"""Power-series distribution families and their Stein machinery.

A family here is a non-negative-integer law whose masses satisfy the
recursion ``(k+1) p_{k+1} = (a + b k) p_k`` (:class:`PanjerPSD`), or the
general series form ``p_k = coeff(k) theta^k / norm`` (:class:`PSDSpec`).
The module provides truncated mass tables with certified tail bounds, the
characterizing operator ``A g(k) = (a + b k) g(k+1) - k g(k)``, the explicit
solution of ``A g = f - E f(Z)``, and uniform / exact suprema for the forward
difference of that solution.  A Panjer family walks its recursion once, from
its mode, into the one table all of these read, so no mean overflows it;
a walk that certainly outgrows the table's length guard is refused first.
Everything is immutable after construction and safe to evaluate concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidFamilyError,
    LemmaConditionError,
    NonNormalizableError,
    UndefinedMomentsError,
)

# Relative size at which an unnormalized mass is treated as exactly zero
# (guards float dust such as a + b*k ~ -1e-16 at a finite-support edge).
_ZERO_SNAP = 1e-15

# Default relative tail mass when a table length is chosen automatically.
_AUTO_TAIL = 1e-14

# Relative tail at which a Panjer family's one table ends; coarser tables cut it.
_TABLE_TAIL = 1e-22

# Relative tail of the table the difference and solution suprema scan.
_SUP_TAIL = 1e-18

# Most entries a Panjer table may hold (memory and time guard): 16 MiB of
# float64, twice the 1.02e6 entries of a mean-1e6 NB table.
_MAX_TABLE = 2**21

# Smallest normal float64: partial sums below it have lost relative precision.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PMFTable:
    """Finite probability table with an explicit tail-mass certificate.

    ``masses[j]`` is the probability of ``support_min + j``.  The certificate
    guarantees the untabulated mass is at most ``tail_mass_bound``, so
    ``sum(masses) + tail_mass_bound`` must bracket 1 within tolerance.
    Masses are float64 or, in exact mode, ``Fraction`` values.
    """

    support_min: int
    masses: tuple
    tail_mass_bound: float = 0.0

    def __post_init__(self):
        if self.support_min < 0:
            raise ValueError("support_min must be non-negative")
        if self.masses and min(self.masses) < 0:
            raise InvalidFamilyError("negative mass in table")
        if self.tail_mass_bound < 0:
            raise ValueError("tail_mass_bound must be non-negative")
        # tail_mass_bound is an upper certificate on the untabulated mass, so
        # the tabulated mass may not exceed 1 and must reach 1 with the tail.
        tabulated = math.fsum(self.masses)
        if tabulated > 1 + 1e-9:
            raise InvalidFamilyError(f"tabulated mass {tabulated} exceeds 1")
        if tabulated + float(self.tail_mass_bound) < 1 - 1e-9:
            raise InvalidFamilyError(
                f"mass {tabulated} + tail {self.tail_mass_bound} falls short of 1"
            )

    @property
    def exact(self) -> bool:
        return bool(self.masses) and isinstance(self.masses[0], Fraction)

    @property
    def k_max(self) -> int:
        return self.support_min + len(self.masses) - 1

    def mass(self, k: int):
        j = k - self.support_min
        if 0 <= j < len(self.masses):
            return self.masses[j]
        return Fraction(0) if self.exact else 0.0

    def as_array(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=float)

    def shifted(self, offset: int = 1) -> "PMFTable":
        """Law of ``Y + offset`` for ``Y`` distributed by this table."""
        return PMFTable(self.support_min + offset, self.masses, self.tail_mass_bound)

    def to_json(self) -> dict:
        return {
            "support_min": self.support_min,
            "masses": [float(m) for m in self.masses],
            "tail": float(self.tail_mass_bound),
        }


@dataclass(frozen=True)
class PanjerPSD:
    """Family with masses satisfying ``(k+1) p_{k+1} = (a + b k) p_k``.

    Construction walks the recursion once, from ``u = 1`` at the mode
    ``floor((a-b)/(1-b))`` (0 if ``b >= 1``) down to 0 and up to where
    :meth:`_done` holds at ``_TABLE_TAIL``, into the table every method reads;
    ``p0`` may underflow to 0.0.  ``max_support`` bounds the support for
    finite families (e.g. binomial).  Members with ``a, b >= 0`` form the
    subclass on which the uniform forward-difference bound ``1 ^ 1/a`` is
    valid (``in_p2``).

    ``g_scale`` rescales the characterizing operator by a positive constant:
    the conventional binomial operator ``p(n-k)g(k+1) - qk g(k)`` is the raw
    form times ``q``, and the solution and its difference bounds divide by it.
    """

    a: float
    b: float
    max_support: Optional[int] = None
    g_scale: float = 1.0
    p0: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.a < 0:
            raise InvalidFamilyError("a < 0 yields a negative mass at k=1")
        if self.g_scale <= 0:
            raise InvalidFamilyError("g_scale must be positive")
        if self.max_support is None:
            if self.b >= 1:
                raise NonNormalizableError("recursion ratio tends to b >= 1")
            if self.b < 0:
                # Support must end where a + b k crosses zero; demand it lands
                # on an integer, else a negative mass appears mid-support.
                k0 = self.a / -self.b
                if abs(k0 - round(k0)) > 1e-9:
                    raise InvalidFamilyError(
                        "a + b k turns negative inside the support; "
                        "declare max_support explicitly"
                    )
                object.__setattr__(self, "max_support", int(round(k0)))
        elif self.b >= 1 and self.max_support >= _MAX_TABLE:
            raise NonNormalizableError(f"b >= 1 needs max_support below {_MAX_TABLE}")
        elif self.max_support > 0:
            self._step(1.0, self.max_support - 1)  # lowest a + b k when b < 0
        mode = max(math.floor((self.a - self.b) / (1 - self.b)), 0) if self.b < 1 else 0
        if self._outgrows_table(mode):
            raise NonNormalizableError(f"no finite table within {_MAX_TABLE} entries")
        top = _MAX_TABLE if self.max_support is None else min(self.max_support, _MAX_TABLE)
        object.__setattr__(self, "_mode", min(mode, top))
        object.__setattr__(self, "_masses", self._build())
        object.__setattr__(self, "p0", float(self._masses[0]))

    # -- basic structure ---------------------------------------------------

    @property
    def in_p2(self) -> bool:
        """True when ``a, b >= 0`` (the uniform-bound subclass)."""
        return self.a >= 0 and self.b >= 0

    def op_coeff(self, k: int) -> float:
        """Coefficient of ``g(k+1)`` in the raw operator, ``a + b k``."""
        return self.a + self.b * k

    def ratio(self, k: int) -> float:
        """Mass ratio ``p_{k+1} / p_k = (a + b k) / (k + 1)``."""
        return self.op_coeff(k) / (k + 1)

    def _outgrows_table(self, mode: int) -> bool:
        """Whether the walk from ``mode`` certainly reaches ``_MAX_TABLE``
        entries before :meth:`_done` may hold, so that it would refuse anyway.

        Below a mode past ``_MAX_TABLE`` every ratio is at least 1, so the
        geometric tail is infinite there.  Otherwise, for ``0 < b < 1``: every
        ``u_k`` is at most ``u_mode = 1``, so ``running <= k + 1``, and the
        tail ratio is ``r >= b``, so the walk may stop at ``k`` only if
        ``u_k b/(1-b) < _TABLE_TAIL (k+1)``.  When ``a >= b`` every ratio
        ``(a + b j)/(j+1)`` is at least ``b``, so ``u_k >= b^(k-mode)`` and a
        stop needs ``b^(k-mode) < _TABLE_TAIL (k+1) (1-b)/b``.  When ``a < b``
        (mode 0) each ratio past ``ratio(0) = a`` is at least ``b j/(j+1)``,
        so ``u_k >= (a/b) b^k/(k+1)`` and a stop needs
        ``b^k < _TABLE_TAIL (k+1)^2 (1-b)/a``.  Either way the left side
        falls and the right side grows with ``k``, so a stop at some
        ``k <= _MAX_TABLE`` is impossible when the inequality fails at
        ``k = _MAX_TABLE``; a factor 10 on the right absorbs rounding in the
        walk.
        """
        if self.max_support is not None and self.max_support <= _MAX_TABLE:
            return False
        if mode > _MAX_TABLE:
            return True
        if not (0 < self.b < 1 and self.a > 0):
            return False
        growth = _MAX_TABLE + 1 if self.a >= self.b else (_MAX_TABLE + 1) ** 2
        reach = 10 * _TABLE_TAIL * growth * (1 - self.b) / min(self.a, self.b)
        return (_MAX_TABLE - mode) * math.log(self.b) >= math.log(reach)

    def _snap(self, k: int) -> float:
        """The rounding band of ``a + b k``: a value within it is 0."""
        return _ZERO_SNAP * (abs(self.a) + abs(self.b) * k + 1)

    def _step(self, value: float, k: int) -> float:
        """One recursion step ``u_{k+1}`` from ``u_k``, snapping dust to 0."""
        c = self.op_coeff(k)
        if c < 0:
            if abs(c) <= self._snap(k):
                return 0.0
            raise InvalidFamilyError(
                f"a + b k = {c} < 0 inside claimed support at k={k}"
            )
        return value * c / (k + 1)

    def _geometric_tail(self, k: int, u_k: float) -> float:
        """``u_k r/(1-r)``, ``r = max(ratio(k), b, 0)``, bounding the mass past
        entry ``k`` when r < 1 (the ratio is monotone toward ``b``); else inf."""
        r = max(self.ratio(k), self.b, 0.0)
        return u_k * r / (1.0 - r) if r < 1 else math.inf

    def _done(self, k: int, u_k: float, running: float, tail_target: float) -> bool:
        """Whether a table may end at entry ``k``: at the support end, or from
        ``max(mode, 1)`` on, when its tail is below ``tail_target * running``."""
        if self.max_support is not None and k >= self.max_support:
            return True
        return k >= max(self._mode, 1) and (
            self._geometric_tail(k, u_k) < tail_target * running)

    def _walk(self, u: list, running: float, tail_target: float,
              k_stop: Optional[int] = None) -> list:
        """Extend ``u`` up the recursion from its last entry, in place, until
        entry ``k_stop`` or an entry where :meth:`_done` holds."""
        k = len(u) - 1
        while k != k_stop and not self._done(k, u[k], running, tail_target):
            if k >= _MAX_TABLE or u[k] == math.inf:
                raise NonNormalizableError(f"no finite table within {_MAX_TABLE} entries")
            u.append(self._step(u[k], k))
            running += u[-1]
            k += 1
        return u

    def _tail_after(self, masses) -> float:
        """Certified mass beyond the last entry of a table of this family:
        geometric where it applies, else (below the mode) the table's own."""
        k = len(masses) - 1
        if self._done(k, masses[k], 0.0, 0.0):
            return 0.0
        tail = self._geometric_tail(k, masses[k])
        return tail if tail < math.inf else (
            math.fsum(self._masses[k + 1 :]) + self._tail_after(self._masses))

    def _build(self) -> np.ndarray:
        """The normalized table (see the class docstring)."""
        down = [1.0]
        for k in range(self._mode, 0, -1):
            down.append(down[-1] * k / self.op_coeff(k - 1))
            if down[-1] == 0.0:
                break  # every lower mass underflows too
        u = [0.0] * (self._mode + 1 - len(down)) + down[::-1]
        u = self._walk(u, math.fsum(down), _TABLE_TAIL)
        return np.asarray(u) / (math.fsum(u) + self._tail_after(u))

    # -- tables ------------------------------------------------------------

    def pmf(self, k_max: Optional[int] = None, tail_target: float = _AUTO_TAIL) -> PMFTable:
        """Truncated mass table; see :func:`pmf_panjer`."""
        return pmf_panjer(self, k_max, tail_target=tail_target)

    def mean_var(self):
        """Mean ``a/(1-b)`` and variance ``a/(1-b)^2``; requires ``b < 1``,
        and refuses a ``max_support`` ``K`` that cuts the recursion: one the
        table reaches with ``p_K > 0`` and ``a + b K`` above :meth:`_snap`.
        The cut family is outside the Panjer class, and these are not its
        moments."""
        if self.b >= 1:
            raise UndefinedMomentsError(f"moments undefined for b={self.b} >= 1")
        K = self.max_support
        if (K is not None and K < len(self._masses) and self._masses[K] > 0
                and self.op_coeff(K) > self._snap(K)):
            raise UndefinedMomentsError(
                f"max_support = {K} cuts the recursion where (a + b K) p_K > 0; "
                "a/(1-b) is not the mean of the cut family")
        return self.a / (1 - self.b), self.a / (1 - self.b) ** 2

    @property
    def mean(self) -> float:
        return self.mean_var()[0]

    def to_json(self) -> dict:
        out = {"family": "panjer", "a": self.a, "b": self.b}
        if self.max_support is not None:
            out["max_support"] = self.max_support
        if self.g_scale != 1.0:
            out["g_scale"] = self.g_scale
        return out


@dataclass(frozen=True)
class PSDSpec:
    """General power-series family ``p_k = coeff(k) theta^k / norm``.

    ``norm`` is not a constructor argument: it is computed eagerly at
    construction, so instances are safe to share across threads without
    lazy-initialization races.  With ``max_support`` the terms
    ``0..max_support`` are the whole series, summed exactly with tail 0.  Without it the terms stop at two
    consecutive zero terms, or where the ratio of the last two terms promises
    a geometric tail below ``1e-18`` of their sum; that certificate assumes
    the term ratios do not grow past the cut.
    """

    theta: float
    coeff: Callable[[int], float]
    norm: float = field(init=False)
    max_support: Optional[int] = None

    def __post_init__(self):
        if self.theta <= 0:
            raise InvalidFamilyError("theta must be positive")
        terms, tail = self._terms_with_tail()
        if not any(t > 0 for t in terms):
            raise InvalidFamilyError("no positive coefficient found")
        object.__setattr__(self, "norm", math.fsum(terms) + tail)
        object.__setattr__(self, "_terms", tuple(terms))
        object.__setattr__(self, "_tail", tail)

    def _term(self, k: int) -> float:
        c = self.coeff(k)
        if c < 0:
            raise InvalidFamilyError(f"coeff({k}) < 0")
        try:
            term = c * self.theta**k
        except OverflowError:
            raise NonNormalizableError("series terms overflow") from None
        if term > 1e250:
            raise NonNormalizableError("series terms grow without bound")
        return term

    def _terms_with_tail(self):
        """``(terms, tail)``: the terms ``coeff(k) theta^k`` and a bound on the
        sum of the terms past them (see the class docstring)."""
        if self.max_support is not None:
            return [self._term(k) for k in range(self.max_support + 1)], 0.0
        terms = []
        running = 0.0
        k = 0
        while True:
            terms.append(self._term(k))
            running += terms[-1]
            if k >= 2 and terms[-1] > 0 and terms[-2] > 0:
                r = terms[-1] / terms[-2]
                if r < 1 and terms[-1] * r / (1 - r) < 1e-18 * running:
                    return terms, terms[-1] * r / (1 - r)
            if terms[-1] == 0.0 and k >= 2 and terms[-2] == 0.0 and running > 0:
                # Two consecutive zero terms: treat support as exhausted.
                return terms[:-2], 0.0
            if k > 10**5:
                raise NonNormalizableError("series tail certificate not reached")
            k += 1

    @property
    def g_scale(self) -> float:
        return 1.0

    def op_coeff(self, k: int) -> float:
        """Coefficient ``theta (k+1) coeff(k+1) / coeff(k)`` of ``g(k+1)``."""
        ck = self.coeff(k)
        if ck == 0:
            return 0.0
        return self.theta * (k + 1) * self.coeff(k + 1) / ck

    def ratio(self, k: int) -> float:
        return self.op_coeff(k) / (k + 1)

    @property
    def b(self) -> float:
        """Limiting recursion ratio proxy used for tail domination."""
        terms = getattr(self, "_terms")
        if len(terms) >= 2 and terms[-2] > 0:
            return terms[-1] / terms[-2]
        return 0.0

    def pmf(self, k_max: Optional[int] = None, tail_target: float = _AUTO_TAIL) -> PMFTable:
        terms, tail = self._terms, self._tail
        if k_max is None or k_max >= len(terms) - 1:
            masses = tuple(t / self.norm for t in terms)
            return PMFTable(0, masses, tail / self.norm)
        cut = [t / self.norm for t in terms[: k_max + 1]]
        dropped = math.fsum(terms[k_max + 1 :]) + tail
        return PMFTable(0, tuple(cut), dropped / self.norm)

    @property
    def mean(self) -> float:
        t = self.pmf()
        ks = np.arange(len(t.masses), dtype=float)
        return float(np.dot(t.as_array(), ks))

    def to_json(self) -> dict:
        terms = getattr(self, "_terms")
        coeffs = [self.coeff(k) for k in range(len(terms))]
        return {"family": "series", "theta": self.theta, "coeffs": coeffs}


# -- constructors -------------------------------------------------------------


def poisson_family(lam: float) -> PanjerPSD:
    """Poisson(lam): ``a = lam``, ``b = 0``."""
    return PanjerPSD(lam, 0.0)


def negative_binomial_family(alpha: float, pbar: float) -> PanjerPSD:
    """NB(alpha, pbar) counting failures: ``a = alpha q``, ``b = q = 1 - pbar``."""
    if not 0 < pbar < 1:
        raise InvalidFamilyError("pbar must be in (0,1)")
    q = 1 - pbar
    return PanjerPSD(alpha * q, q)


def geometric_family(pbar: float) -> PanjerPSD:
    return negative_binomial_family(1.0, pbar)


def binomial_family(n: int, p: float, convention: str = "panjer") -> PanjerPSD:
    """Binomial(n, p) with ``a = np/q``, ``b = -p/q``, support ``0..n``.

    ``convention="panjer"`` keeps the raw operator (difference bound 1/np);
    ``convention="standard"`` rescales by ``q`` to the usual operator
    ``p(n-k)g(k+1) - qk g(k)`` (difference bound 1/npq).
    """
    if not 0 < p < 1:
        raise InvalidFamilyError("p must be in (0,1)")
    q = 1 - p
    if convention == "panjer":
        scale = 1.0
    elif convention == "standard":
        scale = q
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return PanjerPSD(n * p / q, -p / q, max_support=n, g_scale=scale)


def dgm_to_psd(V: Callable[[int], float], w: float) -> PSDSpec:
    """Map a Gibbs-measure description ``exp(V(k)) w^k / k!`` to a PSDSpec.

    The coefficient function is ``exp(V(k)) / k!`` (evaluated in log space),
    the series parameter is ``w``; the normalizing constant carries a
    geometric tail certificate and construction fails if it diverges.
    """

    def coeff(k: int) -> float:
        return math.exp(V(k) - math.lgamma(k + 1))

    return PSDSpec(theta=w, coeff=coeff)


def _finite(name: str, value) -> float:
    """``value`` as a float: a JSON number, and finite.  Nothing is coerced,
    so a string or a boolean is refused, as :func:`~psdapprox.sequences.model_args`
    refuses it."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} = {json.dumps(value)} is not a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} = {value} is not finite")
    return value


def _support_bound(obj: dict) -> Optional[int]:
    value = obj.get("max_support")
    if value is not None and (type(value) is not int or value < 0):
        raise ValueError(f"max_support = {json.dumps(value)} is not an integer >= 0")
    return value


def family_from_json(obj: dict):
    """The family an object describes; an ``a``, ``b``, ``g_scale``,
    ``theta`` or coefficient that is not a finite JSON number, ``coeffs``
    that are not a list, and a ``max_support`` other than an integer
    ``>= 0``, are refused with ``ValueError``."""
    kind = obj.get("family")
    if kind == "panjer":
        return PanjerPSD(
            _finite("a", obj["a"]),
            _finite("b", obj["b"]),
            max_support=_support_bound(obj),
            g_scale=_finite("g_scale", obj.get("g_scale", 1.0)),
        )
    if kind == "series":
        coeffs = obj["coeffs"]
        if type(coeffs) is not list:
            raise ValueError(f"coeffs = {json.dumps(coeffs)} is not a list of numbers")
        coeffs = [_finite(f"coeffs[{k}]", c) for k, c in enumerate(coeffs)]

        def coeff(k: int) -> float:
            return coeffs[k] if k < len(coeffs) else 0.0

        return PSDSpec(theta=_finite("theta", obj["theta"]), coeff=coeff,
                       max_support=len(coeffs) - 1)
    raise ValueError(f"unknown family kind {kind!r}")


# -- mass tables ---------------------------------------------------------------


def pmf_panjer(
    spec: PanjerPSD, k_max: Optional[int] = None, tail_target: float = _AUTO_TAIL
) -> PMFTable:
    """Mass table of a Panjer family up to ``k_max`` with certified tail.

    A cut of the family's one mode-anchored table; no mean overflows it.  With
    ``k_max=None`` it ends where the certified geometric tail drops below
    ``tail_target`` (relative; finer targets get the whole table).  An
    explicit ``k_max`` gives ``k_max + 1`` entries (at most ``max_support + 1``),
    extending the same walk past the table.
    """
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be non-negative")
    m = spec._masses
    if k_max is None:
        running = np.cumsum(m)
        k_max = next((k for k in range(spec._mode, len(m))
                      if spec._done(k, m[k], running[k], tail_target)), len(m) - 1)
    masses = m[: k_max + 1].tolist() if k_max < len(m) else spec._walk(
        m.tolist(), 0.0, 0.0, k_max)
    return PMFTable(0, tuple(masses), spec._tail_after(masses))


def _cumulative(table: PMFTable):
    """``(p, cdf, sf)``: a table's masses, partial sums and upper survival values."""
    p = table.as_array()
    return p, np.cumsum(p), np.cumsum(p[::-1])[::-1] + table.tail_mass_bound


# -- Stein operator machinery ---------------------------------------------------


def stein_apply(spec, g: Callable[[int], float], k: int) -> float:
    """Evaluate the characterizing operator at ``k``.

    Raw form ``(a + b k) g(k+1) - k g(k)`` (series form uses the coefficient
    ratio), times the family's operator scaling.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return spec.g_scale * (spec.op_coeff(k) * g(k + 1) - k * g(k))


def indicator(A) -> Callable[[int], float]:
    """Test function ``1_A`` for a collection of support points."""
    s = frozenset(A)
    return lambda k: 1.0 if k in s else 0.0


class SteinSolution:
    """Solution ``g`` of ``A_Z g = f - E f(Z)`` with ``g(0) = 0``.

    Evaluation is split into three zones to stay cancellation-free after the
    division by ``k p_k``: forward partial sums below the distribution median,
    negated reverse sums from the median out to where the table truncation
    could bite, and ratio-product tail sums beyond that.  Off the support of
    the family the solution is zero by convention.
    """

    # Reverse-sum zone requires p_k at least this many times the tail bound.
    _TAIL_GUARD = 1e13

    def __init__(self, spec, f: Callable[[int], float], f_bound: Optional[float] = None):
        self.spec = spec
        self.f = f
        table = spec.pmf(tail_target=_TABLE_TAIL)
        p, cdf, _ = _cumulative(table)
        self._p = p
        self._k_table = len(p) - 1
        fv = np.asarray([float(f(k)) for k in range(len(p))], dtype=float)
        self._f_bound = f_bound if f_bound is not None else float(np.abs(fv).max())
        self.ef = float(np.dot(p, fv))
        self.ef_slack = table.tail_mass_bound * (self._f_bound + abs(self.ef))
        self._h = fv - self.ef
        terms = p * self._h
        # S[k] = sum_{j<k} p_j h_j ; R[k] = sum_{j>=k} p_j h_j (reverse order
        # accumulates the smallest contributions first).
        self._S = np.concatenate(([0.0], np.cumsum(terms)))
        self._R = np.cumsum(terms[::-1])[::-1]
        self._crossover = int(np.searchsorted(cdf, 0.5)) + 1
        self._reverse_ok = p >= self._TAIL_GUARD * table.tail_mass_bound
        self._memo = {}

    def __call__(self, k: int) -> float:
        if k <= 0:
            return 0.0
        scale = self.spec.g_scale
        if k <= self._k_table:
            pk = self._p[k]
            if pk == 0.0:
                return 0.0
            if k < self._crossover:
                return self._S[k] / (k * pk) / scale
            if self._reverse_ok[k]:
                return -self._R[k] / (k * pk) / scale
        if self.spec.max_support is not None and k > self.spec.max_support:
            return 0.0
        return self._ratio_tail(k) / scale

    def _ratio_tail(self, k: int) -> float:
        # g(k) = -(1/k) sum_{j>=k} (p_j/p_k) h(j); the mass ratios come from
        # recursion steps, so no tiny-probability division ever happens.
        cached = self._memo.get(k)
        if cached is None:
            total = 0.0
            prod = 1.0
            j = k
            while True:
                if self.spec.max_support is not None and j > self.spec.max_support:
                    break
                fj = self.f(j) if j > self._k_table else None
                hj = (float(fj) - self.ef) if fj is not None else self._h[j]
                total += prod * hj
                prod *= self.spec.ratio(j)
                j += 1
                if prod < 1e-20 or prod == 0.0 or j - k > 10**5:
                    break
            cached = -total / k
            self._memo[k] = cached
        return cached


def stein_solve(spec, f: Callable[[int], float], f_bound: Optional[float] = None) -> SteinSolution:
    """Solve ``A_Z g = f - E f(Z)`` for a bounded test function ``f``."""
    return SteinSolution(spec, f, f_bound)


# -- forward-difference bounds ---------------------------------------------------


def delta_g_uniform_bound(spec: PanjerPSD) -> float:
    """Uniform bound on ``sup_k |Delta g_f(k)|`` over indicator test functions.

    ``1 ^ 1/a`` when ``a, b >= 0``; for ``b < 0`` finite-support families the
    optimized ``sup_k (1/k ^ 1/(a+bk))``, which equals ``1/np`` for the
    binomial in raw form.  Rescaled by the operator convention.
    """
    if spec.a <= 0:
        raise InvalidFamilyError("uniform difference bound requires a > 0")
    if spec.in_p2:
        val = min(1.0, 1.0 / spec.a)
    else:
        if spec.max_support is None:
            raise InvalidFamilyError("b < 0 requires finite support")
        best = 0.0
        for k in range(1, spec.max_support + 1):
            c = spec.op_coeff(k)
            second = 1.0 / c if c > _ZERO_SNAP else math.inf
            best = max(best, min(1.0 / k, second))
        val = best
    return val / spec.g_scale


def delta_g_exact_sup(spec, k_max: int) -> float:
    """Exact supremum of ``|Delta g_f(k)|`` over ``f`` with values in [0,1].

    Evaluates ``Fbar(k+1)/c_k + F(k-1)/k`` for ``1 <= k <= k_max`` after
    verifying the monotonicity condition
    ``k F(k)/F(k-1) >= c_k >= k Fbar(k+1)/Fbar(k)`` at every tabulated k,
    to within 1e-9 (the condition is checked, not assumed; violations carry
    the offending ``k``).  ``c_k`` is the operator coefficient at ``k``.
    Where ``F(k-1)`` is a subnormal float the masses summed into it have
    lost their precision, so there ``k F(k)/F(k-1)`` is ``k + k/L_k`` with
    ``L_k = F(k-1)/p_k`` carried up the recursion ratios, ``L_{k+1} =
    (L_k + 1)(k+1)/c_k``, from 0 at the table's first positive mass.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    p, cdf, sf = _cumulative(spec.pmf(tail_target=_SUP_TAIL))
    kk = max(min(k_max, len(p) - 2), 0)
    k = np.arange(1, kk + 1)
    if isinstance(spec, PanjerPSD):
        c = spec.op_coeff(k)
    else:
        c = np.array([spec.op_coeff(j) for j in k.tolist()], dtype=float)
    below, at, above = cdf[:kk], sf[1 : kk + 1], sf[2 : kk + 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = np.where(below > 0, k * cdf[1 : kk + 1] / below, np.inf)
        rhs = np.where(at > 0, k * above / at, 0.0)
        first = np.where((above > 1e-300) & (c > 0), above / c, 0.0)
        ratio = 0.0
        for j in np.flatnonzero((below > 0) & (below < _TINY)).tolist():  # k = j + 1
            ratio = (ratio + 1) * (j + 1) / np.float64(spec.op_coeff(j))
            lhs[j] = (j + 1) + (j + 1) / ratio
    live = p[1 : kk + 1] != 0.0
    bad = live & ~((lhs >= c - 1e-9) & (c >= rhs - 1e-9))
    if bad.any():
        raise LemmaConditionError(int(k[bad.argmax()]))
    val = first + below / k
    return float(np.max(val[live], initial=0.0)) / spec.g_scale


def g_norm_bound(spec) -> float:
    """Certified numeric bound on ``sup_f sup_k |g_f(k)|`` over indicators.

    The solution is linear in ``f``, so ``|g_{1_A}(k)|`` is at most the sum of
    the one-point solutions ``|g_{1_{j}}(k)|`` over ``j in A``; that sum has
    the closed form ``2 F(k-1) Fbar(k) / (k p_k)``, a doubling of the exact
    one-sided supremum by the triangle inequality.  Beyond the table the
    expression is dominated by ``2/(k(1-r))`` with ``r`` the certified
    tail ratio, which is folded into the result.
    """
    p, cdf, sf = _cumulative(spec.pmf(tail_target=_SUP_TAIL))
    hi = max(len(p) - 1, 0)
    mass = p[1 : hi + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = 2.0 * cdf[:hi] * sf[1 : hi + 1] / (np.arange(1, hi + 1) * mass)
    best = float(np.max(vals[mass != 0.0], initial=0.0))
    if spec.max_support is None:
        r = max(spec.ratio(len(p) - 1), spec.b)
        if r < 1:
            best = max(best, 2.0 / (max(hi, 1) * (1.0 - r)))
    return best / spec.g_scale
