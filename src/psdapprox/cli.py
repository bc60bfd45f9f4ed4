"""Command-line front end: published table, bound evaluation, oracle checks.

Exit codes: 0 success, 1 check/precondition failure, 2 usage error (which
includes a model or target file that does not parse).
All numeric output is fixed-precision and deterministic for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .bounds import (
    ExactConditionalTerms,
    bound_crude,
    bound_d1,
    bound_d2,
    bound_min,
    build_conditional_terms,
    build_smoothing,
    exact_tv,
    target_mean,
    theorem31_bound,
)
from .errors import PsdApproxError
from .families import family_from_json, poisson_family
from .oracle import brute_force_distribution, dp_distribution, dp_roundings, exact_conditional_D
from .rounding import gamma
from .runs import TABLE1_PRINTED, nb_fit_from_moments, table1, table1_mismatches
from .sequences import compute_moments, dependence_certificate, mean_var, sequence_from_json

BOUND_VARIANTS = ("theorem", "d1", "d2", "crude", "min", "closed-form")


class InputError(Exception):
    """A model or target file that does not parse; a usage error (exit 2)."""


def _read_input(path: str, parse):
    """``parse`` applied to the JSON object in ``path``.

    An unreadable file, malformed JSON, unknown kinds, missing keys and
    out-of-range values raised while parsing become one :class:`InputError`
    naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise TypeError("expected a JSON object")
        return parse(obj)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InputError(f"{path}: {reason}") from exc


def _precision(text: str) -> int:
    """The ``--precision`` argument: a number of digits, an integer >= 0."""
    digits = int(text)
    if digits < 0:
        raise argparse.ArgumentTypeError(f"{digits} is below 0")
    return digits


def _max_outcomes(text: str) -> int:
    """The ``--max-outcomes`` argument: an outcome count, an integer >= 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"{count} is below 1")
    return count


def _print(line: str = "") -> None:
    sys.stdout.write(line + "\n")


# -- table1 ------------------------------------------------------------------------


def cmd_table1(args) -> int:
    rows = table1()
    prec = args.precision
    if args.format == "csv":
        _print("n,p,bound,comparison")
        for n, p, ours, other in rows:
            _print(f"{n},{p},{ours:.{prec}f},{other:.{prec}f}")
    elif args.format == "json":
        payload = [
            {"n": n, "p": p, "bound": round(ours, prec), "comparison": round(other, prec)}
            for n, p, ours, other in rows
        ]
        _print(json.dumps(payload, sort_keys=True))
    else:
        _print(f"{'n':>4} {'p':>6} {'bound':>12} {'comparison':>12}")
        for n, p, ours, other in rows:
            _print(f"{n:>4} {p:>6.2f} {ours:>12.{prec}f} {other:>12.{prec}f}")
    if args.check:
        bad = table1_mismatches(rows)
        if bad:
            for n, p, got, want in bad:
                sys.stderr.write(
                    f"mismatch at (n={n}, p={p}): got {got}, expected {want}\n"
                )
            return 1
        _print(f"all {len(TABLE1_PRINTED)} cells match the printed table")
    return 0


# -- bound --------------------------------------------------------------------------


def _fit_target(kind: str, mean: float, var: float):
    if kind == "poisson":
        return poisson_family(mean)
    if kind == "nb":
        return nb_fit_from_moments(mean, var)
    raise PsdApproxError(f"unknown fit target {kind!r}")


def _bound_report(variant: str, seq, moments, spec, conditionals=None,
                  allow_small_n: bool = False):
    """The report of one of :data:`BOUND_VARIANTS` on ``seq`` against ``spec``.

    ``theorem`` reads ``conditionals`` when given, else
    :func:`build_conditional_terms`; ``d1`` and ``min`` build the smoothing
    estimate before their ``n`` check; ``closed-form`` is the model's hook,
    which builds its own moments and ignores ``moments``.
    """
    if variant == "closed-form":
        return seq.closed_form_bound(spec)
    if variant == "theorem":
        return theorem31_bound(moments, conditionals or build_conditional_terms(seq), spec,
                               allow_small_n=allow_small_n)
    if variant == "d2":
        return bound_d2(moments, spec)
    if variant == "crude":
        return bound_crude(moments, spec)
    bound = bound_d1 if variant == "d1" else bound_min
    return bound(moments, build_smoothing(seq), spec, allow_small_n=allow_small_n)


def cmd_bound(args) -> int:
    seq = _read_input(args.model, sequence_from_json)
    if not (args.fit or args.target):
        sys.stderr.write("one of --target or --fit is required\n")
        return 2
    variant = args.variant
    if variant == "closed-form" and not hasattr(seq, "closed_form_bound"):
        sys.stderr.write("closed-form variant needs a runs model\n")
        return 2
    # --fit wins over --target; a target file is read, and refused if no
    # variant takes it, before the moments.
    spec = None if args.fit else _read_input(args.target, family_from_json)
    if spec is not None:
        target_mean(spec)
    # The closed form builds its own moments: a fit reads only W's mean and variance.
    moments = None if variant == "closed-form" else compute_moments(seq)
    if spec is None:
        mean, var = mean_var(seq) if moments is None else (moments.mean_w, moments.var_w)
        spec = _fit_target(args.fit, mean, var)
    report = _bound_report(variant, seq, moments, spec, allow_small_n=args.allow_small_n)

    prec = args.precision
    if args.format == "json":
        payload = report.to_json()
        payload["model"] = seq.to_json()
        payload["target"] = spec.to_json()
        _print(json.dumps(payload, sort_keys=True, default=float))
    elif args.format == "csv":
        _print("variant,n,params,total,slack")
        _print(report.csv_row(n=seq.n, params=json.dumps(seq.params or {})))
    else:
        _print(f"variant        {report.variant}")
        _print(f"delta_g        {report.delta_g_factor:.{prec}f}")
        _print(f"term_quadratic {report.term_quadratic:.{prec}f}")
        _print(f"term_linear    {report.term_linear:.{prec}f}")
        _print(f"term_tau       {report.term_tau:.{prec}f}")
        _print(f"total          {report.total:.{prec}f}")
    return 0


# -- oracle --------------------------------------------------------------------------


def _model_law(seq):
    automaton = getattr(seq, "automaton", None)
    if automaton is None:
        return brute_force_distribution(seq)
    return dp_distribution(automaton, seq.trial_probs)


def cmd_oracle(args) -> int:
    seq = _read_input(args.model, sequence_from_json)
    i = args.conditional
    if i is not None and not 1 <= i <= seq.n:
        raise InputError(f"--conditional {i} is outside 1..{seq.n}")
    law = _model_law(seq)
    payload = {"distribution": law.to_json()}
    if i is not None:
        payload["conditional_D"] = {
            "n2": {str(k): v for k, v in exact_conditional_D(seq, i, "n2").items()},
            "n1n2": {
                str(k): v for k, v in exact_conditional_D(seq, i, "n1n2").items()
            },
        }
    if args.target:
        spec = _read_input(args.target, family_from_json)
        tv = exact_tv(law, spec.pmf())
        payload["tv"] = {"value": tv.value, "slack": tv.slack}
    _print(json.dumps(payload, sort_keys=True))
    return 0


# -- verify --------------------------------------------------------------------------


def cmd_verify(args) -> int:
    seq = _read_input(args.model, sequence_from_json)
    if seq.outcome_count > args.max_outcomes:
        sys.stderr.write(
            f"model has 2^{seq.trial_count} outcomes, above --max-outcomes\n"
        )
        return 1

    results = []

    def check(name: str, ok: bool, note: str = ""):
        results.append((name, ok))
        _print(f"{'PASS' if ok else 'FAIL'} {name}{(' ' + note) if note else ''}")

    # DP law vs direct enumeration of the trial space, zero-padded to one
    # length: a mass that underflows in one engine only is a trailing zero,
    # within atol.  Each engine's masses are within gamma(k) of the exact law
    # of the float trials, relatively (Higham 2002, ch. 3): k is the DP's
    # roundings, or T products per outcome and a sum of at most 2^T outcomes.
    automaton = getattr(seq, "automaton", None)
    law = _model_law(seq)
    brute = brute_force_distribution(seq)
    size = max(len(law.masses), len(brute.masses))
    laws = [np.pad(t.as_array(), (0, size - len(t.masses))) for t in (law, brute)]
    enumerated = gamma(seq.trial_count + seq.outcome_count)
    computed = enumerated if automaton is None else gamma(dp_roundings(automaton, seq.trial_count))
    rtol = (computed + enumerated) / (1 - enumerated)  # relative to the enumerated mass
    check("dp-vs-enumeration", bool(np.allclose(*laws, rtol=rtol, atol=1e-14)))
    if automaton is not None:  # both engines on the same rationals of the trials
        rational = seq.exact_trial_probs()
        exact_dp = dp_distribution(automaton, rational, exact=True)
        exact_bf = brute_force_distribution(seq, exact=True, exact_probs=rational)
        check("dp-vs-enumeration-exact", exact_dp.masses == exact_bf.masses)

    # Closed-form moments against the enumeration oracle: the six per-index
    # fields, mean_w and var_w.
    oracle_moments = compute_moments(seq, "enumerate")
    provider = getattr(seq, "closed_form_moments", None)
    if provider is not None:
        closed = provider()
        check("closed-form-moments", all(
            np.all(np.abs(np.subtract(getattr(closed, f.name), getattr(oracle_moments, f.name)))
                   <= 1e-12)
            for f in dataclasses.fields(closed)))

    # Variance identity from the neighborhood display.
    check(
        "variance-identity",
        abs(oracle_moments.var_w - oracle_moments.var_from_neighborhoods()) <= 1e-12,
    )

    # 1-dependence factorization.
    gap = 2 if seq.dependence_radius >= 1 else 1
    check("dependence-certificate", dependence_certificate(seq, gap=gap))

    # The model's conditional-terms engine against the enumeration oracle.
    conditionals = ExactConditionalTerms(seq)  # weighted sums shared by the targets
    engine = getattr(seq, "conditional_terms", None)
    if engine is not None:
        check("conditional-terms-vs-enumeration", all(
            abs(got - want) <= (1e-12 * abs(want) if want else 1e-15)
            for got, want in zip(engine().weighted_sums(), conditionals.weighted_sums())))

    # Bound domination against the exact law, for every variant the model has.
    labels = {variant: "theorem31" if variant == "theorem" else variant
              for variant in BOUND_VARIANTS
              if variant != "closed-form" or hasattr(seq, "closed_form_bound")}
    mean, var = oracle_moments.mean_w, oracle_moments.var_w
    fits = ("poisson", "nb") if var > mean > 0 else ("poisson",)
    for name in fits:
        spec = _fit_target(name, mean, var)
        if spec.a <= 0:
            for label in sorted(labels.values()):
                _print(f"SKIP domination-{name}-{label} "
                       f"the {name} fit is a point mass (a = {spec.a})")
            continue
        tv = exact_tv(law, spec.pmf())
        totals = {}
        refusal = None  # a package variant's refusal is the reason of every later one
        for variant, label in labels.items():
            try:
                totals[label] = _bound_report(variant, seq, oracle_moments, spec,
                                              conditionals).total
            except PsdApproxError as exc:
                reason = exc
                if variant != "closed-form":  # the model's closed form states its own
                    refusal = reason = refusal or exc
                _print(f"SKIP domination-{name}-{label} {reason}")
        for label, total in sorted(totals.items()):
            check(
                f"domination-{name}-{label}",
                tv.upper <= total + 1e-12,
                note=f"tv={tv.value:.6f} bound={total:.6f}",
            )

    return 0 if all(ok for _, ok in results) else 1


# -- entry point --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each ``parse_args``
    call returns a fresh namespace, so calls share no options.  It binds no
    command function; :func:`main` looks ``cmd_<command>`` up per call."""
    parser = argparse.ArgumentParser(
        prog="psdapprox",
        description="Total-variation bounds for dependent count sums, "
        "with exact oracle cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table1", help="reproduce the published bound comparison")
    t.add_argument("--check", action="store_true",
                   help="compare against the embedded printed values")
    t.add_argument("--format", choices=("text", "csv", "json"), default="text")
    t.add_argument("--precision", type=_precision, default=6)

    b = sub.add_parser("bound", help="evaluate a bound variant on a model")
    b.add_argument("--model", required=True, help="model description JSON file")
    b.add_argument("--target", help="target family JSON file")
    b.add_argument("--fit", choices=("nb", "poisson"),
                   help="moment-match the target instead of --target")
    b.add_argument("--variant", choices=BOUND_VARIANTS, default="min")
    b.add_argument("--format", choices=("json", "csv", "text"), default="json")
    b.add_argument("--precision", type=_precision, default=12)
    b.add_argument("--allow-small-n", action="store_true",
                   help="evaluate below the stated minimum n (experimentation)")

    v = sub.add_parser("verify", help="run the oracle cross-check suite")
    v.add_argument("--model", required=True)
    v.add_argument("--max-outcomes", type=_max_outcomes, default=2**20)

    o = sub.add_parser("oracle", help="print exact distributions and distances")
    o.add_argument("--model", required=True)
    o.add_argument("--conditional", type=int, default=None,
                   help="index for conditional shift-regularity maps")
    o.add_argument("--target", help="family JSON for an exact TV distance")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except PsdApproxError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
