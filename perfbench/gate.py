"""Correctness gate applied to every op's output (untimed).

An op passes when its exit code is the expected one and its output passes
the check for its kind.  ``bound`` totals are checked against the exact
total-variation distance of the model's law to the printed target, computed
here through ``oracle.dp_distribution`` and ``bounds.exact_tv``.  On the
default seed every numeric field of a committed reference output must also
match within a relative 1e-9; extra keys and lines are allowed.
"""

from __future__ import annotations

import json
import lzma
import math
import re
import sys

from psdapprox.bounds import exact_tv
from psdapprox.errors import PsdApproxError
from psdapprox.families import family_from_json
from psdapprox.oracle import dp_distribution, k1k2_automaton, two_runs_automaton
from psdapprox.runs import TABLE1_PRINTED

TV_TOL = 1e-12  # the slack verify itself allows in its domination checks
REF_REL_TOL = 1e-9
REF_DIGITS = 10  # significant digits stored in a reference; rounding stays 20x inside REF_REL_TOL
TABLE1_BANNER = f"all {len(TABLE1_PRINTED)} cells match the printed table"
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def model_law(model: dict):
    """Exact law of the model's count by the automaton DP."""
    kind = model["model"]
    if kind == "two-runs":
        return dp_distribution(two_runs_automaton(), model["p"])
    if kind == "k1k2-runs":
        return dp_distribution(k1k2_automaton(model["k1"], model["k2"]), model["p"])
    raise ValueError(f"no DP law for model {kind!r}")


def check_op(op, rc, stdout: str, inputs: dict, laws: dict) -> list:
    """Problems found in one op's result; empty when the op passed.

    ``laws`` caches the exact law of each input model by file stem.
    """
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        return _CHECKS[op.kind](op, stdout, inputs, laws)
    except (ValueError, KeyError, TypeError, PsdApproxError) as exc:  # malformed output
        return [f"unreadable output: {exc!r}"]


def verify_check_names(stdout: str) -> list:
    return [line.split()[1] for line in stdout.splitlines()
            if line.startswith(("PASS ", "FAIL "))]


def _law(stem: str, inputs: dict, laws: dict):
    if stem not in laws:
        laws[stem] = model_law(inputs[stem])
    return laws[stem]


def _check_verify(op, stdout, inputs, laws):
    lines = stdout.splitlines()
    problems = [f"verify: {line}" for line in lines if line.startswith("FAIL")]
    if not any(line.startswith("PASS ") for line in lines):
        problems.append("verify printed no PASS line")
    return problems


def _check_table1(op, stdout, inputs, laws):
    return [] if TABLE1_BANNER in stdout else ["table1 --check did not confirm the table"]


def _check_bound(op, stdout, inputs, laws):
    payload = json.loads(stdout)
    stem = op.input_names()[0]
    model = inputs[stem]
    total = payload["total"]
    problems = []
    if payload["model"] != model:
        problems.append("bound echoed a different model than it was given")
    spec = family_from_json(payload["target"])
    tv = exact_tv(_law(stem, inputs, laws), spec.pmf())
    if not total + TV_TOL >= tv.upper:
        problems.append(f"bound total {total!r} below exact TV {tv.upper!r}")
    if op.cell is not None:
        # The printed cell is the published simplification of this bound, so
        # the model bound may not exceed it (printed to 6 decimals).
        printed = float(TABLE1_PRINTED[op.cell][0])
        if not total <= printed + 5e-7:
            problems.append(f"bound total {total!r} above the printed cell {printed}")
    return problems


def _check_oracle(op, stdout, inputs, laws):
    payload = json.loads(stdout)
    stems = op.input_names()
    law = _law(stems[0], inputs, laws)
    masses = payload["distribution"]["masses"]
    problems = []
    if masses != [float(m) for m in law.masses]:
        problems.append("printed law differs from the DP law")
    if abs(math.fsum(masses) - 1.0) > 1e-9:
        problems.append(f"printed law sums to {math.fsum(masses)!r}")
    for conditioning, dmap in payload.get("conditional_D", {}).items():
        if not dmap or any(not 0.0 <= v <= 2.0 + TV_TOL for v in dmap.values()):
            problems.append(f"conditional D ({conditioning}) outside [0, 2]")
    if len(stems) > 1:
        spec = family_from_json(inputs[stems[1]])
        tv = exact_tv(law, spec.pmf())
        if not math.isclose(payload["tv"]["value"], tv.value, rel_tol=REF_REL_TOL):
            problems.append(f"printed TV {payload['tv']['value']!r} != {tv.value!r}")
    return problems


_CHECKS = {
    "verify": _check_verify,
    "table1-check": _check_table1,
    "bound": _check_bound,
    "oracle": _check_oracle,
}


# -- reference outputs ------------------------------------------------------------


def _round(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{REF_DIGITS}g}")
    if isinstance(obj, list):
        return [_round(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    return obj


def reference_entry(stdout: str) -> dict:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return {"lines": stdout.splitlines()}
    # The echoed model is the input itself; check_op compares it exactly.
    payload.pop("model", None)
    return {"json": _round(payload)}


def write_reference(path, entries: dict) -> None:
    with lzma.open(path, "wt", encoding="utf-8") as fh:
        json.dump(entries, fh, sort_keys=True, separators=(",", ":"))


def load_reference(path) -> dict:
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _close(want, got) -> bool:
    return math.isclose(want, got, rel_tol=REF_REL_TOL, abs_tol=1e-300)


def _compare_json(want, got, where: str, problems: list) -> None:
    if isinstance(want, bool) or want is None or isinstance(want, str):
        if want != got:
            problems.append(f"{where}: {got!r} != reference {want!r}")
    elif isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not _close(want, got):
            problems.append(f"{where}: {got!r} != reference {want!r}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: list shape differs from the reference")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            _compare_json(w, g, f"{where}[{i}]", problems)
    else:
        if not isinstance(got, dict):
            problems.append(f"{where}: expected an object")
            return
        for key, w in want.items():  # extra keys in the output are allowed
            if key not in got:
                problems.append(f"{where}.{key}: missing")
            else:
                _compare_json(w, got[key], f"{where}.{key}", problems)


def _split_line(line: str) -> tuple:
    return _NUMBER.sub("#", line), [float(x) for x in _NUMBER.findall(line)]


def _compare_lines(want: list, got: list, problems: list) -> None:
    """Each reference line must appear, in order, with close numbers."""
    pending = [_split_line(line) for line in got]
    pos = 0
    for line in want:
        shape, numbers = _split_line(line)
        while pos < len(pending) and pending[pos][0] != shape:
            pos += 1
        if pos == len(pending):
            problems.append(f"reference line missing: {line!r}")
            return
        got_numbers = pending[pos][1]
        if not all(_close(w, g) for w, g in zip(numbers, got_numbers)):
            problems.append(f"reference line differs: {line!r}")
        pos += 1


def compare_reference(entry: dict, stdout: str) -> list:
    problems: list = []
    if "json" in entry:
        try:
            got = json.loads(stdout)
        except ValueError:
            return ["output is not JSON, the reference is"]
        _compare_json(entry["json"], got, "$", problems)
    else:
        _compare_lines(entry["lines"], stdout.splitlines(), problems)
    return problems[:5]


class Gate:
    """Checks op results and keeps the attempted/failed tally.

    The reference is read anew for each batch of results and dropped after
    it, so that it adds nothing to the memory held while ops run.
    """

    def __init__(self, workload, reference_path=None):
        self.workload = workload
        self.reference_path = reference_path
        self.attempted = 0
        self.failed = 0
        self._laws: dict = {}

    def check(self, results: list) -> None:
        reference = None if self.reference_path is None else load_reference(self.reference_path)
        for op, rc, stdout, stderr, _ in results:
            problems = check_op(op, rc, stdout, self.workload.inputs, self._laws)
            if reference is not None and rc == 0:
                entry = reference.get(op.name)
                problems += (compare_reference(entry, stdout) if entry is not None
                             else ["no reference output recorded"])
            self.attempted += 1
            if problems:
                self.failed += 1
                sys.stderr.write(f"FAILED {op.name}: {'; '.join(problems)}\n")
                if stderr:
                    sys.stderr.write(stderr[-2000:] + "\n")
