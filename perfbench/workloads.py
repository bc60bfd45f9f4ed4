"""Seeded inputs and op lists of the three benchmark workloads.

Every workload is a fixed list of ``psdapprox`` CLI calls over model and
target JSON files.  The seed only chooses trial probabilities; model sizes,
variants and the op list are fixed, so the amount of work is the same at
every seed.  ``check_preconditions`` asserts that the generated inputs stay
inside every stated validity condition, so no op is refused at any seed.

Why each workload exists is recorded in ``NOTES.md`` next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from psdapprox.runs import TABLE1_PRINTED, nb_fit_from_moments, window_probability
from psdapprox.sequences import sequence_from_json

WORKLOADS = ("certify", "grid", "scale")

# poisson_family overflows near mean 708; every fitted mean stays below this.
MAX_FITTED_MEAN = 500.0


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``@name`` tokens in ``argv`` name generated input files."""

    name: str
    argv: tuple
    kind: str  # "verify", "bound", "oracle" or "table1-check"
    cell: Optional[tuple] = None  # (n, p) of a published Table-1 cell
    nb_fitted: Optional[bool] = None  # verify: whether it fits an NB target

    def resolve(self, paths: dict) -> list:
        return [paths[a[1:]] if a.startswith("@") else a for a in self.argv]

    def input_names(self) -> list:
        return [a[1:] for a in self.argv if a.startswith("@")]


@dataclass
class Workload:
    name: str
    inputs: dict = field(default_factory=dict)  # file stem -> JSON object
    ops: list = field(default_factory=list)


# -- generators ----------------------------------------------------------------


def _dyadic(rng: random.Random, count: int) -> list:
    """Multiples of 1/64 in [1/16, 1/2]: exact-rational checks run on them."""
    return [(4 + int(rng.random() * 29)) / 64 for _ in range(count)]


def _uniform(rng: random.Random, count: int, lo: float = 0.2, hi: float = 0.4) -> list:
    return [lo + (hi - lo) * rng.random() for _ in range(count)]


def _two_runs(p: list) -> dict:
    return {"model": "two-runs", "p": p}


def _k1k2(k1: int, k2: int, n: int, p: list) -> dict:
    return {"model": "k1k2-runs", "k1": k1, "k2": k2, "n": n, "p": p}


def _k1k2_trials(k1: int, k2: int, n: int) -> int:
    return (n + 1) * (k1 + k2 - 1)


def certify(rng: random.Random) -> Workload:
    """Oracle cross-checks on enumerable instances (15-17 trials)."""
    w = Workload("certify")
    w.inputs["two_runs_14"] = _two_runs(_dyadic(rng, 15))
    w.inputs["k12_7"] = _k1k2(1, 2, 7, _dyadic(rng, _k1k2_trials(1, 2, 7)))
    w.inputs["product_16"] = {"model": "custom-bernoulli-product", "p": _dyadic(rng, 16)}
    w.inputs["two_runs_16"] = _two_runs(_dyadic(rng, 17))
    w.inputs["two_runs_18"] = _two_runs(_dyadic(rng, 19))
    w.ops = [
        Op("verify-two-runs-14", ("verify", "--model", "@two_runs_14"), "verify",
           nb_fitted=True),
        Op("verify-k12-7", ("verify", "--model", "@k12_7"), "verify", nb_fitted=False),
        Op("verify-product-16", ("verify", "--model", "@product_16"), "verify",
           nb_fitted=False),
        Op("bound-theorem-two-runs-16",
           ("bound", "--model", "@two_runs_16", "--fit", "nb", "--variant", "theorem"),
           "bound"),
        Op("oracle-conditional-two-runs-18",
           ("oracle", "--model", "@two_runs_18", "--conditional", "9"), "oracle"),
    ]
    return w


def grid(rng: random.Random) -> Workload:
    """The published worked examples at their published sizes."""
    w = Workload("grid")
    for n, p in TABLE1_PRINTED:
        stem = f"table1_n{n}_p{p}"
        w.inputs[stem] = _two_runs([p] * (n + 1))
        w.ops.append(Op(f"bound-{stem}", ("bound", "--model", "@" + stem, "--fit", "nb",
                                          "--variant", "closed-form"), "bound", cell=(n, p)))
    w.ops.append(Op("table1-check", ("table1", "--check"), "table1-check"))
    for k1, k2, n in ((2, 3, 30), (3, 3, 15)):
        stem = f"k{k1}{k2}_{n}"
        w.inputs[stem] = _k1k2(k1, k2, n, _uniform(rng, _k1k2_trials(k1, k2, n)))
        w.ops.append(Op(f"bound-closed-form-{stem}",
                        ("bound", "--model", "@" + stem, "--fit", "poisson",
                         "--variant", "closed-form"), "bound"))
    return w


def scale(rng: random.Random) -> Workload:
    """Enumeration-free bounds at large n."""
    w = Workload("scale")
    for n in (2000, 5000):
        stem = f"two_runs_{n}"
        w.inputs[stem] = _two_runs(_dyadic(rng, n + 1))
        for variant in ("closed-form", "d1", "d2", "min", "crude"):
            for fit in ("nb", "poisson"):
                w.ops.append(Op(f"bound-{variant}-{fit}-{stem}",
                                ("bound", "--model", "@" + stem, "--fit", fit,
                                 "--variant", variant), "bound"))
    w.inputs["nb_two_runs_5000"] = _nb_target(w.inputs["two_runs_5000"])
    w.ops.append(Op("oracle-target-two-runs-5000",
                    ("oracle", "--model", "@two_runs_5000", "--target", "@nb_two_runs_5000"),
                    "oracle"))
    for k1, k2, n in ((1, 2, 1000), (2, 2, 300)):
        stem = f"k{k1}{k2}_{n}"
        w.inputs[stem] = _k1k2(k1, k2, n, _uniform(rng, _k1k2_trials(k1, k2, n)))
        for variant in ("closed-form", "min"):
            w.ops.append(Op(f"bound-{variant}-{stem}",
                            ("bound", "--model", "@" + stem, "--fit", "poisson",
                             "--variant", variant), "bound"))
    return w


def _nb_target(model: dict) -> dict:
    mean, var = _mean_var(model)
    return nb_fit_from_moments(mean, var).to_json()


def build(name: str, seed: int) -> Workload:
    workload = {"certify": certify, "grid": grid, "scale": scale}[name](random.Random(seed))
    check_preconditions(workload)
    return workload


# -- preconditions ---------------------------------------------------------------


def _mean_var(model: dict) -> tuple:
    if model["model"] == "custom-bernoulli-product":
        p = model["p"]
        return sum(p), sum(x * (1 - x) for x in p)
    moments = sequence_from_json(model).closed_form_moments()
    return moments.mean_w, moments.var_w


def check_preconditions(workload: Workload) -> None:
    """Raise ``AssertionError`` when a generated input leaves a stated validity range."""
    problems = []
    for stem, obj in workload.inputs.items():
        kind = obj.get("model")
        if kind == "two-runs" and max(obj["p"]) > 0.5:
            problems.append(f"{stem}: 2-runs trial probability above 1/2")
        if kind == "k1k2-runs":
            m = obj["k1"] + obj["k2"] - 1
            if obj["n"] < 3 * m:
                problems.append(f"{stem}: n < 3m")
            seq = sequence_from_json(obj)
            if max(window_probability(seq, j) for j in range(1, seq.n * m + 1)) > 1 / 3:
                problems.append(f"{stem}: occurrence probability above 1/3")
    moments = {}
    for op in workload.ops:
        stems = op.input_names()
        if not stems:
            continue
        model = workload.inputs[stems[0]]
        if stems[0] not in moments:
            moments[stems[0]] = _mean_var(model)
        mean, var = moments[stems[0]]
        if "nb" in op.argv and not var > mean:
            problems.append(f"{op.name}: NB fitted but var <= mean")
        if op.kind == "verify":
            # verify fits NB exactly when var > mean; its check set follows.
            if (var > mean) != op.nb_fitted:
                problems.append(f"{op.name}: var > mean is {var > mean}, "
                                f"expected {op.nb_fitted}")
            if any(x * 64 != int(x * 64) for x in model["p"]):
                problems.append(f"{op.name}: trial probabilities are not dyadic")
        if mean > MAX_FITTED_MEAN:
            problems.append(f"{op.name}: mean {mean:.1f} above {MAX_FITTED_MEAN}")
    if problems:
        raise AssertionError("generated inputs break preconditions: " + "; ".join(problems))
