"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each psdapprox layer from the
outside: every module attribute and class attribute that binds one of the
functions listed in ``LAYER_FUNCTIONS`` is replaced by a wrapper while the
recorder is installed, and restored by ``uninstall``.  Nothing in the
package changes.  Inner-loop helpers (``window_probability``,
``two_runs_moments``, ``smoothing_roellin``, ...) stay unwrapped, so their cost
lands in the self time of the layer function that calls them.

A span is ``[group, op, parent, start, end, busy]``.  ``busy`` equals
``end - start`` except for generator spans (``iter_exact``), whose busy time
is the sum of the time spent inside ``next()``.  A span's self time is its
busy time minus the busy time of its direct children.  Spans stay in memory
and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from psdapprox import bounds, families, oracle, runs, sequences
from psdapprox.errors import PsdApproxError

# group -> [(owner, attribute name)]; the owner is a module or a class.
LAYER_FUNCTIONS = {
    "sequences.enumerate": [
        (sequences.DependentSequence, "enumerate_bits"),
        (sequences.DependentSequence, "outcome_probs"),
        (sequences.DependentSequence, "x_values"),
    ],
    "sequences.compute_moments": [(sequences, "compute_moments")],
    "sequences.dependence_certificate": [(sequences, "dependence_certificate")],
    "sequences.iter_exact": [(sequences.DependentSequence, "iter_exact")],
    "oracle.dp": [(oracle, "dp_distribution")],  # exact=True goes to oracle.dp_exact
    "oracle.brute": [(oracle, "brute_force_distribution")],
    "oracle.conditional_D": [(oracle, "exact_conditional_D")],
    "bounds.conditional_terms": [(bounds.ExactConditionalTerms, "weighted_sums")],
    "bounds.variants": [
        (bounds, "theorem31_bound"),
        (bounds, "bound_d1"),
        (bounds, "bound_d2"),
        (bounds, "bound_min"),
        (bounds, "bound_crude"),
    ],
    # The CLI builds smoothing for runs models through smoothing_from_runs_model,
    # which does the same job as build_smoothing for those models.
    "bounds.smoothing": [(bounds, "build_smoothing"), (runs, "smoothing_from_runs_model")],
    "bounds.exact_tv": [(bounds, "exact_tv")],
    "runs.moment_set": [(runs, "two_runs_moment_set"), (runs, "k1k2_moment_set")],
    "runs.cond_zero": [(runs, "conditional_zero_max")],
    "runs.closed_form_bound": [(runs, "two_runs_bound"), (runs, "k1k2_bound")],
    "families.tables": [
        (families.PanjerPSD, "__post_init__"),
        (families.PSDSpec, "__post_init__"),
        (families.PanjerPSD, "pmf"),
        (families.PSDSpec, "pmf"),
        (families, "pmf_panjer"),
    ],
    "families.difference_bounds": [
        (families, "delta_g_uniform_bound"),
        (families, "g_norm_bound"),
    ],
}

ROOT_GROUP = "cli"
SPAN_GROUPS = tuple(LAYER_FUNCTIONS) + ("oracle.dp_exact", ROOT_GROUP)
COUNTS = (
    "sequences.outcomes",
    "sequences.exact_outcomes",
    "oracle.dp_cells",
    "oracle.conditional_D_groups",
    "bounds.refusals",
    "runs.cond_zero_outcomes",
    "families.pmf_entries",
    "cli.output_bytes",
)
BOUND_GROUPS = ("bounds.variants", "runs.closed_form_bound")

GROUP, OP, PARENT, START, END, BUSY = range(6)


def _cond_zero_width(model, ell: int) -> int:
    """Trials enumerated by ``conditional_zero_max(model, ell)``: blocks
    ``ell-1..ell+1`` clipped to ``1..n``, plus the trials their last window reaches."""
    lo_block = max(1, ell - 1)
    hi_block = min(model.n, ell + 1)
    return (hi_block - lo_block + 2) * model.m


class SpanRecorder:
    """Records spans and work counts while installed and an op is open."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.unspanned_calls: Counter = Counter()
        self.op = None
        self._root = None
        self._stack: list = []
        self._patches: list = []

    # -- spans -----------------------------------------------------------------

    def _open(self, group: str) -> int:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        now = time.perf_counter()
        self.spans.append([group, self.op, parent, now, now, 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[BUSY] = span[END] - span[START]
        self._stack.pop()

    def begin_op(self, op_id) -> None:
        """Open the root span of one CLI call."""
        self.op = op_id
        self._root = self._open(ROOT_GROUP)

    def end_op(self, output_bytes: int) -> None:
        self._close(self._root)
        self.counts["cli.output_bytes"] += output_bytes
        self.op = None

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, group: str, fn):
        rec = self
        if fn.__name__ == "iter_exact":
            return self._wrap_generator(group, fn)
        before_hook, after_hook = _COUNTERS.get(fn.__qualname__, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op is None:  # outside a traced op (input generation, gate)
                return fn(*args, **kwargs)
            name = group
            if fn.__name__ == "dp_distribution" and _dp_exact(args, kwargs):
                name = "oracle.dp_exact"
            before = before_hook(args) if before_hook else None
            if before and fn.__name__ == "conditional_zero_max":
                # A cache hit is a dict lookup, made millions of times at
                # (1,2) n=1000: counted as a call, left in the caller's time.
                rec.unspanned_calls[name] += 1
                return fn(*args, **kwargs)
            sid = rec._open(name)
            try:
                out = fn(*args, **kwargs)
            except PsdApproxError:
                parent = rec.spans[sid][PARENT]
                if name in BOUND_GROUPS and rec.spans[parent][GROUP] not in BOUND_GROUPS:
                    rec.counts["bounds.refusals"] += 1
                raise
            finally:
                rec._close(sid)
            if after_hook:
                after_hook(rec.counts, args, out, before)
            return out

        return wrapper

    def _wrap_generator(self, group: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op is None:
                yield from fn(*args, **kwargs)
                return
            sid = rec._open(group)
            rec._stack.pop()  # only on the stack while inside next()
            span = rec.spans[sid]
            busy = 0.0
            gen = fn(*args, **kwargs)
            try:
                while True:
                    rec._stack.append(sid)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = time.perf_counter()
                        busy += t1 - t0
                        span[END] = t1
                        span[BUSY] = busy
                        rec._stack.pop()
                    rec.counts["sequences.exact_outcomes"] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def install(self) -> None:
        """Replace every binding of every layer function by its wrapper."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "psdapprox" or name.startswith("psdapprox."))]
        for group, targets in LAYER_FUNCTIONS.items():
            for owner, attr in targets:
                fn = owner.__dict__[attr]
                wrapped = self._wrap(group, fn)
                owners = [owner] if isinstance(owner, type) else [
                    m for m in modules if m.__dict__.get(attr) is fn
                ]
                for target in owners:
                    self._patches.append((target, attr, fn))
                    setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._patches):
            setattr(target, attr, fn)
        self._patches = []

    # -- results -------------------------------------------------------------------

    def self_times(self) -> dict:
        """Per-group ``(self seconds, calls)``."""
        child_busy = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                child_busy[span[PARENT]] += span[BUSY]
        out = {group: [0.0, self.unspanned_calls[group]] for group in SPAN_GROUPS}
        for sid, span in enumerate(self.spans):
            entry = out[span[GROUP]]
            entry[0] += span[BUSY] - child_busy[sid]
            entry[1] += 1
        return out

    def metrics(self) -> dict:
        out = {}
        for group, (self_s, calls) in self.self_times().items():
            out[f"{group}.self_s"] = (self_s, "s")
            out[f"{group}.calls"] = (calls, "count")
        for name in COUNTS:
            out[name] = (self.counts[name], "bytes" if name == "cli.output_bytes" else "count")
        return out

    def to_json(self) -> list:
        keys = ("group", "op", "parent", "start", "end", "busy")
        return [dict(zip(keys, span)) for span in self.spans]


def _dp_exact(args, kwargs) -> bool:
    return bool(kwargs["exact"] if "exact" in kwargs else len(args) > 2 and args[2])


def _enumerate_after(counts, args, out, was_cached):
    if not was_cached:
        counts["sequences.outcomes"] += args[0].outcome_count


def _dp_after(counts, args, out, before):
    automaton, trial_probs = args[0], args[1]
    T = len(trial_probs)
    counts["oracle.dp_cells"] += T * automaton.n_states * (T + 1)


def _cond_zero_before(args):
    model, ell = args[0], args[1]
    return ell in model._cache.get("cond_zero", {})


def _cond_zero_after(counts, args, out, was_cached):
    if not was_cached:
        counts["runs.cond_zero_outcomes"] += 1 << _cond_zero_width(args[0], args[1])


def _groups_after(counts, args, out, before):
    counts["oracle.conditional_D_groups"] += len(out)


def _pmf_after(counts, args, out, before):
    counts["families.pmf_entries"] += len(out.masses)


# Work counts by the wrapped function's qualified name: (before, after).
# ``before`` sees the arguments ahead of the call; ``after`` adds to the counts
# once the call returned.  PanjerPSD.pmf is not counted: it returns the table
# pmf_panjer built, which is.
_COUNTERS = {
    "DependentSequence.enumerate_bits": (lambda args: "bits" in args[0]._cache,
                                         _enumerate_after),
    "dp_distribution": (None, _dp_after),
    "conditional_zero_max": (_cond_zero_before, _cond_zero_after),
    "exact_conditional_D": (None, _groups_after),
    "pmf_panjer": (None, _pmf_after),
    "PSDSpec.pmf": (None, _pmf_after),
}
