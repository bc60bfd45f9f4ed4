"""Benchmark of the ``psdapprox`` command line on seeded workloads.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The run generates the workload's model and
target JSON files from ``--seed``, measures set-up (fresh interpreters that
import ``psdapprox.cli`` and load those files), then calls
``psdapprox.cli.main(argv)`` on the workload's op list, one op after another
in this one process, for about ``--seconds`` seconds.  Every op's output is
checked afterwards.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``peak_rss_mb``).  With ``--trace 1`` the run makes one untraced
and one traced pass and reports per-layer self times and work counts, plus
the tracing overhead; spans go to ``.bench_build/perfbench/``.

``--write-reference`` records the outputs at the default seed as the
reference that later runs at that seed must match.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One caller, no threads of its own: cap the BLAS pool before numpy loads.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
SETUP_SAMPLES = 9

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json, psdapprox.cli
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        json.load(fh)
print(time.perf_counter() - t0)
"""


def require_package() -> None:
    """Import psdapprox from this checkout's ``src/``, or exit with code 2."""
    if not (SRC / "psdapprox" / "cli.py").is_file():
        sys.stderr.write(f"error: no psdapprox sources under {SRC}\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import psdapprox

    if Path(psdapprox.__file__).resolve().parent != SRC / "psdapprox":
        sys.stderr.write(f"error: psdapprox imported from {psdapprox.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)


def write_inputs(workload, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, obj in workload.inputs.items():
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths[stem] = str(path)
    return paths


def measure_setup(paths: dict) -> float:
    """Median seconds for a fresh interpreter to import the CLI and load the inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *paths.values()],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def call_cli(argv: list, recorder=None, op_id=None) -> tuple:
    """Run one op through ``psdapprox.cli.main``: (exit code, stdout, stderr)."""
    from psdapprox import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if recorder is not None:
            recorder.begin_op(op_id)
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # an op that crashes counts as failed, the run goes on
            rc = None
            err.write(traceback.format_exc())
        finally:
            if recorder is not None:
                recorder.end_op(len(out.getvalue().encode("utf-8")))
    return rc, out.getvalue(), err.getvalue()


def run_pass(ops: list, paths: dict, recorder=None) -> tuple:
    """Run the op list once.

    Returns the pass's wall seconds and ``(op, rc, stdout, stderr, seconds)``
    per op.
    """
    results = []
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        t0 = time.perf_counter()
        outcome = call_cli(op.resolve(paths), recorder, op_id)
        results.append((op, *outcome, time.perf_counter() - t0))
    return time.perf_counter() - start, results


def machine_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS}


def measure(workload, paths: dict, seconds: float, gate) -> dict:
    """Untraced passes for about ``seconds``; end-to-end metrics.

    ``run_s`` sums, over the op list, each op's median time across passes,
    so a slow spell that hits one op in one pass does not move it.
    """
    setup_s = measure_setup(paths)
    walls = []
    op_times = [[] for _ in workload.ops]
    while True:
        wall, results = run_pass(workload.ops, paths)
        if not walls:  # before any gate work, which reads the reference
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        walls.append(wall)
        for times, result in zip(op_times, results):
            times.append(result[-1])
        gate.check(results)
        if sum(walls) + statistics.median(walls) > seconds:
            break
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls))
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (math.fsum(statistics.median(t) for t in op_times), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def trace(workload, paths: dict, gate, spans_path: Path) -> dict:
    """One untraced and one traced pass; per-layer metrics and the overhead."""
    from spans import SpanRecorder

    untraced, results = run_pass(workload.ops, paths)
    gate.check(results)
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced, results = run_pass(workload.ops, paths, recorder)
    finally:
        recorder.uninstall()
    gate.check(results)
    spans_path.write_text(json.dumps(recorder.to_json()), encoding="utf-8")
    metrics = recorder.metrics()
    metrics["trace.run_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    print(f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s, "
          f"{len(recorder.spans)} spans in {spans_path}")
    return metrics


def record_reference(workload, paths: dict) -> Path:
    from gate import reference_entry, write_reference

    _, results = run_pass(workload.ops, paths)
    bad = [(op.name, rc) for op, rc, *_ in results if rc != 0]
    if bad:
        raise SystemExit(f"refusing to record a reference with failing ops: {bad}")
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload.name}.json.xz"
    write_reference(path, {op.name: reference_entry(stdout) for op, _, stdout, *_ in results})
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the outputs at the default seed as the reference")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_package()
    from gate import Gate
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = build(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = write_inputs(workload, run_dir)
        if args.write_reference:
            if args.seed != DEFAULT_SEED:
                raise SystemExit("references are recorded at the default seed only")
            print(f"wrote {record_reference(workload, paths)}")
            return 0
        reference = None
        if args.seed == DEFAULT_SEED:
            reference = REFERENCE / f"{workload.name}.json.xz"
            if not reference.is_file():
                raise SystemExit(f"error: no reference output {reference}")
        gate = Gate(workload, reference)
        print("machine " + json.dumps(machine_facts(), sort_keys=True))
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
            metrics = trace(workload, paths, gate, spans_path)
        else:
            metrics = measure(workload, paths, args.seconds, gate)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
