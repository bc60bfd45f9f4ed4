"""Tests for the command-line interface."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import psdapprox
from psdapprox.bounds import exact_tv
from psdapprox.cli import BOUND_VARIANTS, build_parser, main
from psdapprox.families import family_from_json
from psdapprox.oracle import brute_force_distribution, dp_distribution, two_runs_automaton
from psdapprox.runs import TABLE1_PRINTED, TwoRunsModel, nb_fit_from_moments, two_runs_bound
from psdapprox.sequences import compute_moments


@pytest.fixture
def two_runs_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "two-runs", "p": [0.3] * 11}))
    return str(path)


@pytest.fixture
def k1k2_model_file(tmp_path):
    path = tmp_path / "k1k2.json"
    path.write_text(
        json.dumps({"model": "k1k2-runs", "k1": 1, "k2": 2, "n": 6, "p": [0.3] * 14})
    )
    return str(path)


@pytest.fixture
def poisson_target_file(tmp_path):
    # Mean of two-runs with p=0.3, n=10 is 10 * 0.09.
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"family": "panjer", "a": 0.9, "b": 0.0}))
    return str(path)


def test_table1_text(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "0.344694" in out
    assert "0.398900" in out
    assert len(out.strip().splitlines()) == 19  # header + 18 rows


def test_table1_check_passes(capsys):
    assert main(["table1", "--check"]) == 0
    assert "all 18 cells match" in capsys.readouterr().out


def test_table1_check_detects_perturbation(capsys, monkeypatch):
    import psdapprox.cli as cli_mod

    broken = dict(TABLE1_PRINTED)
    broken[(20, 0.05)] = ("0.999999", "0.398900")
    monkeypatch.setattr(cli_mod, "table1_mismatches",
                        lambda rows: [((20), 0.05, ("a", "b"), ("c", "d"))])
    assert main(["table1", "--check"]) == 1
    assert "mismatch" in capsys.readouterr().err


def test_table1_csv_and_json(capsys):
    assert main(["table1", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == "n,p,bound,comparison"
    assert "20,0.05,0.344694,0.398900" in csv_out

    assert main(["table1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 18
    assert rows[0]["bound"] == pytest.approx(0.344694)


def test_table1_deterministic(capsys):
    main(["table1", "--format", "json"])
    first = capsys.readouterr().out
    main(["table1", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_back_to_back_calls_share_no_options(two_runs_model_file, capsys, monkeypatch):
    """The parser is built once per process; no call's options reach the
    next, and each call runs the command function the module holds then."""
    assert build_parser() is build_parser()
    argv = ["bound", "--model", two_runs_model_file, "--fit", "poisson"]
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("variant,n,params,total,slack\n")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "min"
    assert main(["table1", "--precision", "3"]) == 0
    assert " 0.345 " in capsys.readouterr().out
    assert main(["table1"]) == 0
    assert " 0.344694 " in capsys.readouterr().out
    import psdapprox.cli as cli_mod

    monkeypatch.setattr(cli_mod, "cmd_table1", lambda args: 7)
    assert main(["table1"]) == 7


def test_bound_closed_form_matches_table(two_runs_model_file, tmp_path, capsys):
    model = tmp_path / "m20.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.05] * 21}))
    assert main([
        "bound", "--model", str(model), "--fit", "nb", "--variant", "closed-form",
    ]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["variant"] == "closed-form"
    assert payload["total"] > 0
    # The same bytes as the closed form fed the NB fit of the full enumerated
    # moment set, rounding noise in term_tau included.
    seq = TwoRunsModel([0.05] * 21)
    moments = compute_moments(seq, "enumerate")
    spec = nb_fit_from_moments(moments.mean_w, moments.var_w)
    want = two_runs_bound(seq, spec).to_json()
    want["model"] = seq.to_json()
    want["target"] = spec.to_json()
    assert want["term_tau"] != 0.0
    assert out == json.dumps(want, sort_keys=True, default=float) + "\n"


@pytest.mark.parametrize("fit, model, code", [
    ("nb", "two_runs_model_file", 0),
    ("poisson", "two_runs_model_file", 0),
    ("nb", "k1k2_model_file", 1),  # var < mean: the NB fit itself is refused
    ("poisson", "k1k2_model_file", 0),
])
def test_closed_form_fit_reads_no_per_index_moments(fit, model, code, request, capsys,
                                                    monkeypatch):
    import psdapprox.sequences as sequences_mod

    def refuse(seq):
        raise AssertionError("per-index moments enumerated for a closed-form bound")

    monkeypatch.setattr(sequences_mod, "_moments_by_enumeration", refuse)
    path = request.getfixturevalue(model)
    assert main(["bound", "--model", path, "--fit", fit, "--variant", "closed-form"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["variant"] == "closed-form"
    else:
        assert "need var > mean" in err


def test_closed_form_with_a_target_computes_no_moments(
        two_runs_model_file, poisson_target_file, capsys, monkeypatch):
    import psdapprox.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("moments computed for a closed-form bound with a given target")

    monkeypatch.setattr(cli_mod, "compute_moments", refuse)
    monkeypatch.setattr(cli_mod, "mean_var", refuse)
    assert main(["bound", "--model", two_runs_model_file, "--target", poisson_target_file,
                 "--variant", "closed-form"]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == {
        "family": "panjer", "a": 0.9, "b": 0.0}


@pytest.mark.parametrize("source", ["--fit", "--target"])
def test_closed_form_refuses_a_model_without_one_first(
        source, tmp_path, poisson_target_file, capsys, monkeypatch):
    import psdapprox.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("moments or target built before the refusal")

    for name in ("compute_moments", "mean_var", "_fit_target", "family_from_json"):
        monkeypatch.setattr(cli_mod, name, refuse)
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"model": "custom-bernoulli-product", "p": [0.1] * 20}))
    value = "poisson" if source == "--fit" else poisson_target_file
    assert main(["bound", "--model", str(path), source, value,
                 "--variant", "closed-form"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "closed-form variant needs a runs model\n"


def test_bound_with_explicit_target(two_runs_model_file, poisson_target_file, capsys):
    assert main([
        "bound", "--model", two_runs_model_file, "--target", poisson_target_file,
        "--variant", "d2",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variant"] == "d2"
    assert payload["target"] == {"family": "panjer", "a": 0.9, "b": 0.0}


def test_bound_zero_model(tmp_path, capsys):
    model = tmp_path / "zero.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.0] * 11}))
    target = tmp_path / "point.json"
    target.write_text(json.dumps({"family": "panjer", "a": 0.0, "b": 0.0}))
    assert main([
        "bound", "--model", str(model), "--target", str(target), "--variant", "crude",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 0.0


def test_bound_surfaces_preconditions(tmp_path, capsys):
    model = tmp_path / "short.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.3] * 8}))  # n = 7
    code = main(["bound", "--model", str(model), "--fit", "nb",
                 "--variant", "closed-form"])
    assert code == 1
    assert "n >= 8" in capsys.readouterr().err


def test_bound_requires_target_or_fit(two_runs_model_file, capsys):
    assert main(["bound", "--model", two_runs_model_file]) == 2


def test_bound_missing_file_is_usage_error(capsys):
    assert main(["bound", "--model", "/nonexistent.json", "--fit", "nb"]) == 2


def test_bound_unreadable_model_is_one_line_usage_error(tmp_path, capsys):
    assert main(["bound", "--model", str(tmp_path), "--fit", "nb"]) == 2
    _assert_input_error(tmp_path, "Is a directory", capsys)
    assert main(["bound", "--model", str(tmp_path / "absent.json"), "--fit", "nb"]) == 2
    _assert_input_error(tmp_path / "absent.json", "No such file", capsys)


def _assert_input_error(path, reason, capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ") and reason in err


MALFORMED_MODELS = [
    ('{"model": "two-runs", "p": [0.3, 0.3', "Expecting"),
    ('{"model": "geometric", "p": [0.3, 0.3]}', "unknown model kind 'geometric'"),
    ('{"model": "two-runs"}', "missing key 'p'"),
    ('{"model": "two-runs", "p": [0.3, 1.5, 0.2]}', "must lie in [0,1]"),
    ('{"model": "two-runs", "p": [0.3, -0.1, 0.2]}', "must lie in [0,1]"),
    ('{"model": "two-runs", "p": [0.3, NaN, 0.2]}', "must lie in [0,1]"),
    ('{"model": "two-runs", "p": [0.3, Infinity, 0.2]}', "must lie in [0,1]"),
    ('{"model": "two-runs", "p": [0.3, -Infinity, 0.2]}', "must lie in [0,1]"),
    ('{"model": "two-runs", "p": 5}', "not a list of numbers"),
    ('[0.3, 0.3]', "expected a JSON object"),
    # Model fields of the wrong JSON type are refused, never truncated or coerced.
    ('{"model": "k1k2-runs", "k1": 1.9, "k2": 2, "n": 6, "p": %s}' % ([0.3] * 14),
     "k1 = 1.9 is not an integer"),
    ('{"model": "k1k2-runs", "k1": 1, "k2": 2, "n": 2.7, "p": %s}' % ([0.3] * 6),
     "n = 2.7 is not an integer"),
    ('{"model": "k1k2-runs", "k1": true, "k2": 2, "n": 6, "p": %s}' % ([0.3] * 14),
     "k1 = true is not an integer"),
    ('{"model": "k1k2-runs", "k1": 1, "k2": 2, "n": "3", "p": %s}' % ([0.3] * 8),
     'n = "3" is not an integer'),
    ('{"model": "two-runs", "p": [0.3, "0.5", 0.2]}', 'p[1] = "0.5" is not a number'),
    ('{"model": "two-runs", "p": [true, 0.3, 0.2]}', "p[0] = true is not a number"),
    ('{"model": "custom-bernoulli-product", "p": [0.3, "0.5"]}',
     'p[1] = "0.5" is not a number'),
    ('{"model": "custom-bernoulli-product", "p": [0.3, true]}', "p[1] = true is not a number"),
    ('{"model": "two-runs", "p": "0.5"}', 'p = "0.5" is not a list of numbers'),
]


@pytest.mark.parametrize("text, reason", MALFORMED_MODELS)
def test_bound_malformed_model_is_one_line_usage_error(tmp_path, capsys, text, reason):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["bound", "--model", str(path), "--fit", "poisson"]) == 2
    _assert_input_error(path, reason, capsys)


@pytest.mark.parametrize("text, reason", [
    ('{"family": "zeta", "a": 0.9}', "unknown family kind 'zeta'"),
    ('{"family": "panjer", "a": 0.9}', "missing key 'b'"),
    ('{"family": "panjer", "a": "many", "b": 0}', 'a = "many" is not a number'),
])
def test_bound_malformed_target_is_one_line_usage_error(
        tmp_path, two_runs_model_file, capsys, text, reason):
    path = tmp_path / "target.json"
    path.write_text(text)
    assert main(["bound", "--model", two_runs_model_file, "--target", str(path)]) == 2
    _assert_input_error(path, reason, capsys)


def test_bound_reads_the_target_before_the_moments(
        tmp_path, two_runs_model_file, capsys, monkeypatch):
    import psdapprox.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("compute_moments called before the target was read")

    monkeypatch.setattr(cli_mod, "compute_moments", refuse)
    path = tmp_path / "target.json"
    path.write_text('{"family": "zeta"}')
    assert main(["bound", "--model", two_runs_model_file, "--target", str(path)]) == 2
    _assert_input_error(path, "unknown family kind 'zeta'", capsys)
    assert main(["bound", "--model", two_runs_model_file]) == 2
    assert "--target or --fit" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    ('{"family": "panjer", "a": Infinity, "b": -0.25}', "a = inf is not finite"),
    ('{"family": "panjer", "a": NaN, "b": 0.0}', "a = nan is not finite"),
    ('{"family": "panjer", "a": 0.9, "b": -Infinity}', "b = -inf is not finite"),
    ('{"family": "series", "theta": Infinity, "coeffs": [1, 1]}', "theta = inf is not finite"),
    ('{"family": "series", "theta": 0.5, "coeffs": [1, NaN]}', "coeffs[1] = nan is not finite"),
    ('{"family": "series", "theta": 0.5, "coeffs": [Infinity]}', "coeffs[0] = inf is not finite"),
])
def test_non_finite_target_parameters_are_usage_errors(
        tmp_path, two_runs_model_file, capsys, text, reason):
    path = tmp_path / "target.json"
    path.write_text(text)
    assert main(["oracle", "--model", two_runs_model_file, "--target", str(path)]) == 2
    _assert_input_error(path, reason, capsys)


@pytest.mark.parametrize("text, reason", [
    ('{"family": "panjer", "a": "0.9", "b": 0}', 'a = "0.9" is not a number'),
    ('{"family": "panjer", "a": 0.9, "b": false}', "b = false is not a number"),
    ('{"family": "panjer", "a": 1, "b": 0, "g_scale": "2"}', 'g_scale = "2" is not a number'),
    ('{"family": "series", "theta": true, "coeffs": [1, 1]}', "theta = true is not a number"),
    ('{"family": "series", "theta": 0.5, "coeffs": [1, "5"]}', 'coeffs[1] = "5" is not a number'),
    ('{"family": "series", "theta": 0.5, "coeffs": "15"}', 'coeffs = "15" is not a list'),
    ('{"family": "series", "theta": 0.5, "coeffs": {"3": 1}}', 'coeffs = {"3": 1} is not a list'),
])
def test_target_parameters_that_are_not_json_numbers_are_usage_errors(
        tmp_path, two_runs_model_file, capsys, text, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        family_from_json(json.loads(text))
    path = tmp_path / "target.json"
    path.write_text(text)
    assert main(["oracle", "--model", two_runs_model_file, "--target", str(path)]) == 2
    _assert_input_error(path, reason, capsys)


@pytest.mark.parametrize("value, reason", [
    ("-3", "max_support = -3 is not an integer >= 0"),
    ("2.5", "max_support = 2.5 is not an integer >= 0"),
    ("true", "max_support = true is not an integer >= 0"),
    ('"x"', 'max_support = "x" is not an integer >= 0'),
    ("1" + "0" * 400, "too large to convert to float"),
])
def test_malformed_max_support_is_usage_error(
        tmp_path, two_runs_model_file, capsys, value, reason):
    path = tmp_path / "target.json"
    path.write_text('{"family": "panjer", "a": 1, "b": 0, "max_support": %s}' % value)
    assert main(["oracle", "--model", two_runs_model_file, "--target", str(path)]) == 2
    _assert_input_error(path, reason, capsys)


def test_huge_max_support_target_is_tabulated_quickly(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.3] * 4}))
    target = tmp_path / "target.json"
    target.write_text('{"family": "panjer", "a": 1, "b": 0, "max_support": 100000000}')
    start = time.perf_counter()
    assert main(["oracle", "--model", str(model), "--target", str(target)]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["tv"]["value"] > 0


@pytest.mark.parametrize("argv", [
    ["table1", "--precision", "-1"],
    ["bound", "--model", "m.json", "--fit", "poisson", "--format", "text", "--precision", "-2"],
    ["table1", "--precision", "two"],
])
def test_negative_precision_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ") and "--precision" in err.splitlines()[-1]


def test_bernoulli_product_beyond_enumeration_fits_its_exact_mean(tmp_path, capsys):
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"model": "custom-bernoulli-product", "p": [0.1] * 40}))
    assert main(["bound", "--model", str(path), "--fit", "poisson", "--variant", "d2"]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == {"family": "panjer", "a": 4.0, "b": 0.0}


@pytest.mark.parametrize("variant", ["d2", "crude"])
def test_poisson_fit_at_mean_750_dominates_exact_tv(tmp_path, capsys, variant):
    p = [0.5] * 3001
    path = tmp_path / "two_runs_3000.json"
    path.write_text(json.dumps({"model": "two-runs", "p": p}))
    assert main(["bound", "--model", str(path), "--fit", "poisson", "--variant", variant]) == 0
    payload = json.loads(capsys.readouterr().out)
    law = dp_distribution(two_runs_automaton(), p)
    tv = exact_tv(law, family_from_json(payload["target"]).pmf())
    assert payload["target"]["a"] == pytest.approx(750.0)
    assert tv.upper <= payload["total"]


@pytest.mark.parametrize("variant", BOUND_VARIANTS)
def test_series_target_is_refused_by_every_variant(
        tmp_path, two_runs_model_file, capsys, variant):
    # Poisson(0.9) in series form: mean-matched to two-runs p=0.3, n=10.
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"family": "series", "theta": 0.9,
                                "coeffs": [1 / math.factorial(k) for k in range(40)]}))
    code = main(["bound", "--model", two_runs_model_file, "--target", str(path),
                 "--variant", variant])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Panjer target" in err


@pytest.mark.parametrize("target, message", [
    ({"family": "series", "theta": 0.9, "coeffs": [1.0, 0.9, 0.405]},
     "the bounds need a Panjer target (a, b); a series target has none"),
    ({"family": "panjer", "a": 0.5, "b": 1.0, "max_support": 10},
     "moments undefined for b=1.0 >= 1"),
])
def test_a_target_no_variant_takes_is_refused_before_the_moments(
        tmp_path, two_runs_model_file, capsys, monkeypatch, target, message):
    import psdapprox.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("moments computed before the target was refused")

    path = tmp_path / "target.json"
    path.write_text(json.dumps(target))
    argvs = [["bound", "--model", two_runs_model_file, "--target", str(path), "--variant", v]
             for v in BOUND_VARIANTS]
    for argv in argvs:
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    for name in ("compute_moments", "mean_var"):
        monkeypatch.setattr(cli_mod, name, refuse)
    for argv in argvs:
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("index", ["0", "11", "-3"])
def test_oracle_conditional_index_outside_the_model_is_usage_error(
        two_runs_model_file, capsys, index):
    assert main(["oracle", "--model", two_runs_model_file, "--conditional", index]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --conditional {index} is outside 1..10\n"


def test_verify_and_oracle_malformed_inputs_are_usage_errors(
        tmp_path, two_runs_model_file, capsys):
    model = tmp_path / "broken.json"
    model.write_text('{"model": "two-runs", "p": [0.3, 0.3')
    assert main(["verify", "--model", str(model)]) == 2
    _assert_input_error(model, "Expecting", capsys)
    target = tmp_path / "target.json"
    target.write_text('{"family": "zeta"}')
    assert main(["oracle", "--model", two_runs_model_file, "--target", str(target)]) == 2
    _assert_input_error(target, "unknown family kind", capsys)


def test_deeply_nested_input_is_usage_error(tmp_path, two_runs_model_file, capsys):
    # The JSON decoder gives up on 10^5 levels with a RecursionError.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5 + "]" * 10**5)
    assert main(["bound", "--model", str(deep), "--fit", "poisson"]) == 2
    _assert_input_error(deep, "recursion", capsys)
    assert main(["bound", "--model", two_runs_model_file, "--target", str(deep)]) == 2
    _assert_input_error(deep, "recursion", capsys)


def test_bound_refuses_vacuous_k1k2_closed_form(tmp_path, capsys):
    # (1,1)-runs: every c*_i of nonzero weight is infinite.
    model = tmp_path / "k11.json"
    model.write_text(
        json.dumps({"model": "k1k2-runs", "k1": 1, "k2": 1, "n": 6, "p": [0.3] * 7})
    )
    code = main(["bound", "--model", str(model), "--fit", "poisson",
                 "--variant", "closed-form"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "c*_1 is infinite" in err


def test_bound_theorem_variant(two_runs_model_file, capsys):
    assert main([
        "bound", "--model", two_runs_model_file, "--fit", "nb",
        "--variant", "theorem",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variant"] == "theorem31"


def test_bound_theorem_variant_beyond_enumeration(tmp_path, capsys):
    p = np.random.default_rng(12).uniform(0.05, 0.5, 41).tolist()
    model = tmp_path / "two_runs_40.json"
    model.write_text(json.dumps({"model": "two-runs", "p": p}))
    assert main(["bound", "--model", str(model), "--fit", "nb", "--variant", "theorem"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variant"] == "theorem31"
    law = dp_distribution(two_runs_automaton(), p)
    assert exact_tv(law, family_from_json(payload["target"]).pmf()).upper <= payload["total"]


@pytest.mark.parametrize("model, variant, refusal, allowed", [
    ("two-runs", "theorem", "n >= 6 (got n=5)", True),
    ("custom-bernoulli-product", "d1", "n >= 6 (got n=5)", True),
    ("custom-bernoulli-product", "min", "n >= 6 (got n=5)", True),
    ("two-runs", "d1", "smoothing constant stated for n >= 8 (got n=5)", False),
])
def test_allow_small_n_lifts_only_the_generic_minimum(
        tmp_path, capsys, model, variant, refusal, allowed):
    p = [0.3, 0.2, 0.4, 0.25, 0.35, 0.3]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": model, "p": p if model == "two-runs" else p[:5]}))
    argv = ["bound", "--model", str(path), "--fit", "poisson", "--variant", variant]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and refusal in err
    code = main(argv + ["--allow-small-n"])
    out, err = capsys.readouterr()
    if allowed:
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["variant"] == {"theorem": "theorem31"}.get(variant, variant)
        assert math.isfinite(payload["total"]) and payload["total"] > 0
    else:  # the model's own smoothing constant keeps its minimum
        assert (code, out) == (1, "")
        assert refusal in err


def test_bound_csv_format(two_runs_model_file, k1k2_model_file, capsys):
    assert main([
        "bound", "--model", two_runs_model_file, "--fit", "poisson",
        "--variant", "d2", "--format", "csv",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "variant,n,params,total,slack"
    assert lines[1].startswith("d2,10,{},")
    # The (k1,k2) params cell holds commas and quotes: it is quoted, one cell.
    assert main([
        "bound", "--model", k1k2_model_file, "--fit", "poisson",
        "--variant", "d2", "--format", "csv",
    ]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["variant", "n", "params", "total", "slack"]
    assert len(row) == len(header)
    assert row[:2] == ["d2", "6"]
    assert json.loads(row[2]) == {"k1": 1, "k2": 2, "n": 6}


def test_oracle_distribution_and_conditionals(two_runs_model_file, capsys):
    assert main(["oracle", "--model", two_runs_model_file, "--conditional", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    dist = payload["distribution"]
    assert dist["support_min"] == 0
    assert sum(dist["masses"]) == pytest.approx(1.0, abs=1e-12)
    assert "n2" in payload["conditional_D"]


def test_oracle_conditional_keys_are_python_ints_equal_to_the_maps(two_runs_model_file, capsys):
    from psdapprox.oracle import exact_conditional_D

    assert main(["oracle", "--model", two_runs_model_file, "--conditional", "3"]) == 0
    maps = json.loads(capsys.readouterr().out)["conditional_D"]
    seq = TwoRunsModel([0.3] * 11)
    n2, n1n2 = exact_conditional_D(seq, 3, "n2"), exact_conditional_D(seq, 3, "n1n2")
    # The window sum around index 3 covers X_1..X_5.
    assert list(n2) == list(range(6)) and all(type(k) is int for k in n2)
    assert maps["n2"] == {"0": n2[0], "1": n2[1], "2": n2[2], "3": n2[3], "4": n2[4], "5": n2[5]}
    assert all(type(a) is int and type(b) is int for a, b in n1n2)
    assert maps["n1n2"] == {f"({a}, {b})": d for (a, b), d in n1n2.items()}
    assert "(0, 0)" in maps["n1n2"]


def test_console_script_sets_one_blas_thread_unless_told(tmp_path):
    """The launcher sets ``OPENBLAS_NUM_THREADS`` before numpy loads, so the
    2-runs n=20 fit prints the one-thread digits, and keeps a caller's value."""
    model = tmp_path / "two_runs_20.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.05] * 21}))
    src = str(Path(psdapprox.__file__).resolve().parents[1])
    code = ("import os, sys, psdapprox_launch; assert 'numpy' not in sys.modules; "
            "sys.argv[0] = 'psdapprox'; rc = psdapprox_launch.main(); "
            "sys.stderr.write(os.environ['OPENBLAS_NUM_THREADS']); sys.exit(rc)")
    argv = ["bound", "--variant", "closed-form", "--fit", "nb", "--model", str(model)]

    def run(threads):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout, done.stderr

    default, one = run(None), run("1")
    assert default == one and default[1] == "1"
    assert run("2")[1] == "2"


def test_oracle_conditional_streams_its_windows(tmp_path, capsys):
    """On 19 trials the probabilities take 4 MB; the whole summand matrix,
    which the two window sums need not build, would take 19 MB more."""
    path = tmp_path / "two_runs_18.json"
    path.write_text(json.dumps({"model": "two-runs", "p": [(t % 5 + 2) / 16 for t in range(19)]}))
    tracemalloc.start()
    try:
        assert main(["oracle", "--model", str(path), "--conditional", "9"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    maps = json.loads(capsys.readouterr().out)["conditional_D"]
    assert all(0 <= d <= 2 for m in maps.values() for d in m.values())


def test_oracle_tv_against_target(two_runs_model_file, poisson_target_file, capsys):
    assert main([
        "oracle", "--model", two_runs_model_file, "--target", poisson_target_file,
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 < payload["tv"]["value"] < 1


def test_oracle_tv_against_a_series_target_with_zero_coefficients(tmp_path, capsys):
    # A coefficient list is the whole series: its table is exact, with tail 0,
    # and not cut at the two zero coefficients.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.3] * 10}))
    target = tmp_path / "series.json"
    target.write_text(json.dumps({"family": "series", "theta": 0.5, "coeffs": [1, 0, 0, 5]}))
    assert main(["oracle", "--model", str(model), "--target", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    law = payload["distribution"]["masses"]
    series = [1 / 1.625, 0.0, 0.0, 0.625 / 1.625] + [0.0] * (len(law) - 4)
    assert payload["tv"]["slack"] == 0.0
    assert payload["tv"]["value"] == pytest.approx(
        sum(abs(a - b) for a, b in zip(law, series)) / 2, abs=1e-15)
    assert payload["tv"]["value"] == pytest.approx(0.4534095717, abs=1e-10)


@pytest.mark.parametrize("variant", ["d1", "min"])
def test_two_runs_smoothing_refuses_a_trial_above_one_half(tmp_path, capsys, variant):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.3] * 9 + [0.6]}))
    assert main(["bound", "--model", str(model), "--fit", "poisson", "--variant", variant]) == 1
    assert capsys.readouterr().err == "error: trial probabilities must satisfy p_i <= 1/2\n"


def test_verify_skips_the_smoothing_variants_on_a_trial_above_one_half(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.6] * 10}))
    assert main(["verify", "--model", str(model)]) == 0
    lines = capsys.readouterr().out.splitlines()
    skipped = [line for line in lines if line.startswith("SKIP ")]
    assert skipped == [f"SKIP domination-{t}-{v} trial probabilities must satisfy p_i <= 1/2"
                       for t in ("poisson", "nb") for v in ("d1", "min", "closed-form")]
    assert "PASS domination-poisson-theorem31" in "\n".join(lines)
    assert not any(line.startswith("FAIL") for line in lines)


def test_verify_two_runs_passes(two_runs_model_file, capsys):
    assert main(["verify", "--model", two_runs_model_file]) == 0
    out = capsys.readouterr().out
    assert "PASS dp-vs-enumeration" in out
    assert "FAIL" not in out


def test_verify_checks_exact_laws_on_non_dyadic_trials(tmp_path, capsys):
    # Trials drawn from uniform(0.05, 0.5) have no small rational form; both
    # exact engines get the same rationals of the floats.
    p = np.random.default_rng(5).uniform(0.05, 0.5, 12).tolist()
    model = tmp_path / "non_dyadic.json"
    model.write_text(json.dumps({"model": "two-runs", "p": p}))
    assert main(["verify", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "PASS dp-vs-enumeration-exact" in out
    assert "FAIL" not in out


def test_verify_k1k2_passes(k1k2_model_file, capsys):
    assert main(["verify", "--model", k1k2_model_file]) == 0
    out = capsys.readouterr().out
    assert "PASS closed-form-moments" in out
    assert "FAIL" not in out


def test_verify_smallest_k1k2(tmp_path, capsys):
    model = tmp_path / "small.json"
    model.write_text(
        json.dumps({"model": "k1k2-runs", "k1": 1, "k2": 1, "n": 6, "p": [0.3] * 7})
    )
    assert main(["verify", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "SKIP domination-poisson-closed-form c*_1 is infinite" in out


def test_verify_reports_skipped_domination_checks(tmp_path, capsys):
    model = tmp_path / "short.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.25, 0.375, 0.5] * 2}))
    assert main(["verify", "--model", str(model)]) == 0
    skipped = [line.split(" ", 2)[1:] for line in capsys.readouterr().out.splitlines()
               if line.startswith("SKIP ")]
    names = [name for name, _ in skipped]
    assert names == [f"domination-{t}-{v}" for t in ("poisson", "nb")
                     for v in ("theorem31", "d1", "min", "closed-form")]
    assert all("n >= 6" in reason for name, reason in skipped
               if not name.endswith("closed-form"))
    assert all("n >= 8" in reason for name, reason in skipped if name.endswith("closed-form"))


@pytest.mark.parametrize("p", [[0.5, 0.0, 0.5] * 3 + [0.5], [0.0] * 12])
def test_verify_passes_with_trials_at_probability_zero(tmp_path, capsys, p):
    # Outcomes of probability 0 reach a larger W than any outcome with mass;
    # the enumerated law drops their zero masses, as the DP law does.
    model = tmp_path / "zeros.json"
    model.write_text(json.dumps({"model": "two-runs", "p": p}))
    law = brute_force_distribution(TwoRunsModel(p))
    assert law.masses == dp_distribution(two_runs_automaton(), p).masses
    assert main(["verify", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "PASS dp-vs-enumeration\n" in out
    assert "FAIL" not in out


def test_verify_reports_skipped_point_mass_fit(tmp_path, capsys):
    model = tmp_path / "zeros.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.0] * 12}))
    assert main(["verify", "--model", str(model)]) == 0
    skipped = [line.split(" ", 2)[1:] for line in capsys.readouterr().out.splitlines()
               if line.startswith("SKIP ")]
    assert [name for name, _ in skipped] == [
        f"domination-poisson-{v}"
        for v in ("closed-form", "crude", "d1", "d2", "min", "theorem31")]
    assert all("point mass" in reason for _, reason in skipped)


def test_verify_computes_the_weighted_sums_once(two_runs_model_file, capsys, monkeypatch):
    import psdapprox.oracle as oracle_mod

    tables = []
    original = oracle_mod._conditional_laws
    monkeypatch.setattr(oracle_mod, "_conditional_laws",
                        lambda seq, cols: tables.append(cols) or original(seq, cols))
    assert main(["verify", "--model", two_runs_model_file]) == 0
    out = capsys.readouterr().out
    assert "PASS domination-poisson-theorem31" in out
    assert "PASS domination-nb-theorem31" in out
    assert len(tables) == 2 * 10  # one (n1n2, n2) pair per index, for both targets


def test_verify_shares_the_conditional_tables_with_the_smoothing(tmp_path, capsys, monkeypatch):
    import psdapprox.oracle as oracle_mod

    tables = []
    original = oracle_mod._conditional_laws
    monkeypatch.setattr(oracle_mod, "_conditional_laws",
                        lambda seq, cols: tables.append(cols) or original(seq, cols))
    product = tmp_path / "product.json"
    product.write_text(json.dumps({"model": "custom-bernoulli-product", "p": [0.3] * 8}))
    assert main(["verify", "--model", str(product)]) == 0
    out = capsys.readouterr().out
    # The exact smoothing fallback feeds d1 and min; it reads the tables the
    # weighted sums of theorem 3.1 built.
    assert "PASS domination-poisson-d1" in out and "PASS domination-poisson-theorem31" in out
    assert len(tables) == 2 * 8  # one (n1n2, n2) pair per index, not two


def test_verify_checks_the_conditional_terms_engine(two_runs_model_file, k1k2_model_file,
                                                   tmp_path, capsys):
    for path in (two_runs_model_file, k1k2_model_file):
        assert main(["verify", "--model", path]) == 0
        assert "PASS conditional-terms-vs-enumeration\n" in capsys.readouterr().out
    product = tmp_path / "product.json"
    product.write_text(json.dumps({"model": "custom-bernoulli-product", "p": [0.3] * 8}))
    assert main(["verify", "--model", str(product)]) == 0
    assert "conditional-terms" not in capsys.readouterr().out  # no engine to check


def test_verify_detects_an_engine_off_by_1e_11(two_runs_model_file, capsys, monkeypatch):
    from psdapprox.imbedding import ImbeddedConditionalTerms

    original = ImbeddedConditionalTerms.weighted_sums
    monkeypatch.setattr(ImbeddedConditionalTerms, "weighted_sums",
                        lambda self: (original(self)[0] * (1 + 1e-11), *original(self)[1:]))
    assert main(["verify", "--model", two_runs_model_file]) == 1
    assert "FAIL conditional-terms-vs-enumeration" in capsys.readouterr().out


def test_verify_detects_corrupted_moments(two_runs_model_file, capsys, monkeypatch):
    from psdapprox.runs import TwoRunsModel

    original = TwoRunsModel.closed_form_moments

    def corrupted(self):
        mom = original(self)
        bad = list(mom.e_x_n1_bracket)
        bad[0] += 1e-6
        object.__setattr__(mom, "e_x_n1_bracket", tuple(bad))
        return mom

    monkeypatch.setattr(TwoRunsModel, "closed_form_moments", corrupted)
    assert main(["verify", "--model", two_runs_model_file]) == 1
    assert "FAIL closed-form-moments" in capsys.readouterr().out


def test_verify_max_outcomes_guard(tmp_path, capsys):
    model = tmp_path / "big.json"
    model.write_text(json.dumps({"model": "two-runs", "p": [0.4] * 22}))
    assert main(["verify", "--model", str(model), "--max-outcomes", "1024"]) == 1
    assert "outcomes" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "-1024"])
def test_verify_max_outcomes_below_one_is_usage_error(two_runs_model_file, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", two_runs_model_file, "--max-outcomes", value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ") and "--max-outcomes" in err.splitlines()[-1]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--variant", "bogus", "--model", "x"])
    assert exc.value.code == 2


# -- the CLI at the input edge ------------------------------------------------------

_EDGE_FLOATS = st.one_of(
    st.floats(-1.0, 2.0),
    st.sampled_from([0.0, 0.5, 1.0, math.nan, math.inf, -math.inf]),
)


_NOT_NUMBERS = st.sampled_from([True, False, None, "0.5", "3", [0.5]])


@st.composite
def _models(draw):
    """Model JSON of at most 12 trials: any kind, probabilities in [0,1] or not,
    and now and then one field of another JSON type than the model reads."""
    kind = draw(st.sampled_from(
        ["two-runs", "k1k2-runs", "custom-bernoulli-product", "geometric"]))
    probs = st.floats(0.0, 1.0) if draw(st.booleans()) else _EDGE_FLOATS
    obj = {"model": kind}
    size = None
    if kind == "k1k2-runs":
        k1, k2, n = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
        obj.update(k1=k1, k2=k2, n=n)
        size = max((n + 1) * (k1 + k2 - 1), 0)
    obj["p"] = draw(st.lists(probs, min_size=size or 0, max_size=12 if size is None else size))
    wrong = draw(st.sampled_from([None, None, None, "p", "p[0]", "k1", "k2", "n"]))
    if wrong == "p[0]" and obj["p"]:
        obj["p"][0] = draw(_NOT_NUMBERS)
    elif wrong in obj:
        obj[wrong] = draw(st.one_of(_NOT_NUMBERS, st.sampled_from([1.9, 2.0, 2.7])))
    return obj


_TARGETS = st.one_of(
    st.fixed_dictionaries({
        "family": st.just("panjer"),
        "a": st.one_of(st.floats(-1.0, 20.0), _EDGE_FLOATS),
        "b": st.sampled_from([-0.5, -0.25, 0.0, 0.3, 0.5, 0.9, 1.0, 1.5,
                              math.nan, math.inf, -math.inf]),
    }, optional={
        "max_support": st.one_of(
            st.integers(0, 40), st.integers(-5, -1), st.sampled_from([2.5, 0.5, -1.5]),
            st.booleans(), st.sampled_from([10**8, 10**30, 10**400]), st.just("x")),
    }),
    st.fixed_dictionaries({
        "family": st.just("series"),
        "theta": st.one_of(st.floats(-1.0, 3.0), _EDGE_FLOATS),
        "coeffs": st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), _EDGE_FLOATS),
                           max_size=6),
    }),
    st.fixed_dictionaries({"family": st.sampled_from(["zeta", "binomial"])}),
)
_COMMANDS = st.one_of(
    st.tuples(st.just("bound"), st.sampled_from(BOUND_VARIANTS),
              st.sampled_from(["target", "nb", "poisson"])),
    st.tuples(st.just("oracle"), st.one_of(st.none(), st.integers(-1, 13)), st.booleans()),
    st.tuples(st.just("verify")),
)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=_models(), target=_TARGETS, command=_COMMANDS)
def test_cli_never_raises_and_exits_0_1_or_2(tmp_path, capsys, model, target, command):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps(target))
    argv = [command[0], "--model", str(model_path)]
    if command[0] == "bound":
        argv += ["--variant", command[1]]
        argv += ["--target", str(target_path)] if command[2] == "target" else ["--fit", command[2]]
    elif command[0] == "oracle":
        if command[1] is not None:
            argv += ["--conditional", str(command[1])]
        if command[2]:
            argv += ["--target", str(target_path)]
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()
