"""Command-line front end: published table, bound evaluation, oracle checks.

Exit codes: 0 success, 1 check/precondition failure, 2 usage error.
All numeric output is fixed-precision and deterministic for a fixed
configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .bounds import (
    ExactConditionalTerms,
    bound_crude,
    bound_d1,
    bound_d2,
    bound_min,
    build_smoothing,
    exact_tv,
    theorem31_bound,
)
from .errors import PsdApproxError
from .families import family_from_json, poisson_family
from .oracle import (
    brute_force_distribution,
    dp_distribution,
    exact_conditional_D,
    k1k2_automaton,
    moment_oracle,
    two_runs_automaton,
)
from .runs import (
    K1K2Model,
    TABLE1_PRINTED,
    TwoRunsModel,
    k1k2_bound,
    nb_fit_from_moments,
    table1,
    table1_mismatches,
    two_runs_bound,
)
from .sequences import compute_moments, sequence_from_json

BOUND_VARIANTS = ("theorem", "d1", "d2", "crude", "min", "closed-form")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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


def _fit_target(kind: str, moments):
    if kind == "poisson":
        return poisson_family(moments.mean_w)
    if kind == "nb":
        return nb_fit_from_moments(moments.mean_w, moments.var_w)
    raise PsdApproxError(f"unknown fit target {kind!r}")


def cmd_bound(args) -> int:
    seq = sequence_from_json(_load_json(args.model))
    moments = compute_moments(seq)
    if args.fit:
        spec = _fit_target(args.fit, moments)
    elif args.target:
        spec = family_from_json(_load_json(args.target))
    else:
        sys.stderr.write("one of --target or --fit is required\n")
        return 2

    variant = args.variant
    if variant == "theorem":
        report = theorem31_bound(
            moments, ExactConditionalTerms(seq), spec,
            allow_small_n=args.allow_small_n,
        )
    elif variant == "d1":
        report = bound_d1(moments, build_smoothing(seq), spec,
                          allow_small_n=args.allow_small_n)
    elif variant == "d2":
        report = bound_d2(moments, spec)
    elif variant == "min":
        report = bound_min(moments, build_smoothing(seq), spec,
                           allow_small_n=args.allow_small_n)
    elif variant == "crude":
        report = bound_crude(moments, spec)
    elif variant == "closed-form":
        if isinstance(seq, TwoRunsModel):
            report = two_runs_bound(seq, spec)
        elif isinstance(seq, K1K2Model):
            report = k1k2_bound(seq, spec)
        else:
            sys.stderr.write("closed-form variant needs a runs model\n")
            return 2
    else:  # pragma: no cover - argparse restricts choices
        return 2

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
    if isinstance(seq, TwoRunsModel):
        return dp_distribution(two_runs_automaton(), seq.trial_probs)
    if isinstance(seq, K1K2Model):
        return dp_distribution(k1k2_automaton(seq.k1, seq.k2), seq.trial_probs)
    return brute_force_distribution(seq)


def cmd_oracle(args) -> int:
    seq = sequence_from_json(_load_json(args.model))
    law = _model_law(seq)
    payload = {"distribution": law.to_json()}
    if args.conditional is not None:
        i = args.conditional
        payload["conditional_D"] = {
            "n2": {str(k): v for k, v in exact_conditional_D(seq, i, "n2").items()},
            "n1n2": {
                str(k): v for k, v in exact_conditional_D(seq, i, "n1n2").items()
            },
        }
    if args.target:
        spec = family_from_json(_load_json(args.target))
        tv = exact_tv(law, spec.pmf())
        payload["tv"] = {"value": tv.value, "slack": tv.slack}
    _print(json.dumps(payload, sort_keys=True))
    return 0


# -- verify --------------------------------------------------------------------------


def _rationalize(probs):
    out = []
    for p in probs:
        f = Fraction(p).limit_denominator(10**6)
        if float(f) != p:
            return None
        out.append(f)
    return out


def cmd_verify(args) -> int:
    seq = sequence_from_json(_load_json(args.model))
    if seq.outcome_count > args.max_outcomes:
        sys.stderr.write(
            f"model has 2^{seq.trial_count} outcomes, above --max-outcomes\n"
        )
        return 1

    results = []

    def check(name: str, ok: bool, note: str = ""):
        results.append((name, ok))
        _print(f"{'PASS' if ok else 'FAIL'} {name}{(' ' + note) if note else ''}")

    # DP law vs direct enumeration of the trial space.
    law = _model_law(seq)
    brute = brute_force_distribution(seq)
    same_len = len(law.masses) == len(brute.masses)
    agree = same_len and bool(
        np.allclose(law.as_array(), brute.as_array(), atol=1e-14)
    )
    check("dp-vs-enumeration", agree)
    rational = _rationalize(seq.trial_probs)
    if rational is not None and isinstance(seq, (TwoRunsModel, K1K2Model)):
        auto = (
            two_runs_automaton()
            if isinstance(seq, TwoRunsModel)
            else k1k2_automaton(seq.k1, seq.k2)
        )
        exact_dp = dp_distribution(auto, rational, exact=True)
        exact_bf = brute_force_distribution(seq, exact=True, exact_probs=rational)
        check("dp-vs-enumeration-exact", exact_dp.masses == exact_bf.masses)

    # Closed-form moments against the enumeration oracle.
    oracle_moments = moment_oracle(seq)
    provider = getattr(seq, "closed_form_moments", None)
    if provider is not None:
        closed = provider()
        fields = ("e_x", "e_xn1", "e_x_xn1", "e_n1_bracket",
                  "e_x_n1_bracket", "e_x_n2m1")
        ok = all(
            abs(getattr(closed, f)[i] - getattr(oracle_moments, f)[i]) <= 1e-12
            for f in fields
            for i in range(seq.n)
        ) and abs(closed.var_w - oracle_moments.var_w) <= 1e-12
        check("closed-form-moments", ok)

    # Variance identity from the neighborhood display.
    check(
        "variance-identity",
        abs(oracle_moments.var_w - oracle_moments.var_from_neighborhoods()) <= 1e-12,
    )

    # 1-dependence factorization.
    from .sequences import dependence_certificate

    gap = 2 if seq.dependence_radius >= 1 else 1
    check("dependence-certificate", dependence_certificate(seq, gap=gap))

    # Bound domination against the exact law.
    targets = [("poisson", poisson_family(oracle_moments.mean_w))]
    if oracle_moments.var_w > oracle_moments.mean_w > 0:
        targets.append(
            ("nb", nb_fit_from_moments(oracle_moments.mean_w, oracle_moments.var_w))
        )
    for name, spec in targets:
        if spec.a <= 0:
            continue
        tv = exact_tv(law, spec.pmf())
        variants = {}
        try:
            variants["theorem31"] = theorem31_bound(
                oracle_moments, ExactConditionalTerms(seq), spec
            ).total
            smoothing = build_smoothing(seq)
            variants["d1"] = bound_d1(oracle_moments, smoothing, spec).total
            variants["min"] = bound_min(oracle_moments, smoothing, spec).total
        except PsdApproxError:
            pass  # n below stated validity: d2/crude still apply
        variants["d2"] = bound_d2(oracle_moments, spec).total
        variants["crude"] = bound_crude(oracle_moments, spec).total
        if isinstance(seq, TwoRunsModel):
            try:
                variants["closed-form"] = two_runs_bound(seq, spec).total
            except PsdApproxError:
                pass
        elif isinstance(seq, K1K2Model):
            try:
                variants["closed-form"] = k1k2_bound(seq, spec).total
            except PsdApproxError:
                pass
        for vname, total in sorted(variants.items()):
            check(
                f"domination-{name}-{vname}",
                tv.upper <= total + 1e-12,
                note=f"tv={tv.value:.6f} bound={total:.6f}",
            )

    return 0 if all(ok for _, ok in results) else 1


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    t.add_argument("--precision", type=int, default=6)
    t.set_defaults(func=cmd_table1)

    b = sub.add_parser("bound", help="evaluate a bound variant on a model")
    b.add_argument("--model", required=True, help="model description JSON file")
    b.add_argument("--target", help="target family JSON file")
    b.add_argument("--fit", choices=("nb", "poisson"),
                   help="moment-match the target instead of --target")
    b.add_argument("--variant", choices=BOUND_VARIANTS, default="min")
    b.add_argument("--format", choices=("json", "csv", "text"), default="json")
    b.add_argument("--precision", type=int, default=12)
    b.add_argument("--allow-small-n", action="store_true",
                   help="evaluate below the stated minimum n (experimentation)")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bound)

    v = sub.add_parser("verify", help="run the oracle cross-check suite")
    v.add_argument("--model", required=True)
    v.add_argument("--max-outcomes", type=int, default=2**20)
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="print exact distributions and distances")
    o.add_argument("--model", required=True)
    o.add_argument("--conditional", type=int, default=None,
                   help="index for conditional shift-regularity maps")
    o.add_argument("--target", help="family JSON for an exact TV distance")
    o.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PsdApproxError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
