"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository.  One run is a sequence
of fresh single processes, never two at once:

1. ``SETUP_SAMPLES - 1`` processes that only build the workload's inputs; each
   reports ``setup_s``, the host time from its spawn until its inputs are
   ready (interpreter start, ``import repro``, models, datasets, cluster,
   spec and backend probe);
2. one measuring process that sets up the same way (one more ``setup_s``
   sample), then repeats the workload's operation for ``--seconds`` and
   checks every output against the pinned values (``workloads.py``);
3. with ``--trace 0``, on workloads whose operation does not run the
   paper's table5 and table8 experiments, one process that runs them, checks
   their rows and computes ``paper_err_pct`` from them.

Each run gets a fresh scratch directory for the results store and
``TMPDIR``, so no run warms the next; it is removed when the run ends.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (see ``BENCHMARK.json``); with ``--trace 1`` they
are the per-layer ones, from traced operations interleaved with untraced
ones.  Every workload prints every metric of ``BENCHMARK.json`` with the
unit given there.  The line before it carries the run's provenance, so numbers from
different hosts are never compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURE = os.path.join("tests", "fixtures", "experiments_fast_rows.json")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("paper_suite", "stream_edf", "plan_grid", "dse_sweep")
#: Set-up time samples per run; the median is reported.
SETUP_SAMPLES = 7
#: Wall-clock budget of one run, below the 180 s a run may take.
RUN_BUDGET_S = 170.0


def manifest_units(trace: int) -> Dict[str, str]:
    """Metric -> unit of the metrics a run prints, from ``BENCHMARK.json``."""
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in manifest["per_layer" if trace else "end_to_end"]}


def provenance() -> Dict:
    """Host and code identity of this run."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count() or 1
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            completed = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            git_sha = completed.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    # A checkout exported without .git has no SHA; the source digest still
    # identifies the code that ran.
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirectories, files in sorted(os.walk(src)):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                source.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_sha": git_sha,
        "src_sha256": source.hexdigest(),
    }


def _spawn(args, mode: str, index: int, work_dir: str, env: Dict, deadline: float, trace_out=None) -> Dict:
    """Start one worker process, wait for it, return its JSON result."""
    out = os.path.join(work_dir, f"{mode}-{index}.json")
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
        "--out", out,
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    command += ["--spawned-at", repr(time.monotonic())]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic())
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {completed.returncode}")
    with open(out) as handle:
        return json.load(handle)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="FlowGNN reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    for required in (os.path.join("src", "repro", "__init__.py"), FIXTURE, "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, required)):
            print(f"perfbench: {required} is missing; run from a full checkout", file=sys.stderr)
            return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        trace_out = os.path.join(ROOT, ".perfbench_out", f"trace-{args.workload}-seed{args.seed}.json")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # One single-threaded process at a time: BLAS threads would compete
    # with the process for the CPUs.
    env.update(
        TMPDIR=work_dir,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        setups = [_spawn(args, "setup", i, work_dir, env, deadline) for i in range(SETUP_SAMPLES - 1)]
        measured = _spawn(args, "measure", 0, work_dir, env, deadline, trace_out)
        accuracy = None
        if not args.trace and "paper_err_pct" not in measured:
            accuracy = _spawn(args, "accuracy", 0, work_dir, env, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = measured["attempted"], measured["failed"]
    if accuracy is not None:
        attempted += 1
        if accuracy["problems"]:
            failed += 1
            print("paper accuracy evaluation failed its output check:", file=sys.stderr)
            for problem in accuracy["problems"]:
                print(f"  {problem}", file=sys.stderr)
        else:
            measured["paper_err_pct"] = accuracy["paper_err_pct"]

    setup_samples = [result["setup_s"] for result in setups + [measured]]
    units = manifest_units(args.trace)
    if args.trace:
        metrics = dict(measured.get("layers", {}))
        metrics["startup.import_s"] = statistics.median(result["import_s"] for result in setups + [measured])
        if "overhead_pct" in measured:
            metrics["trace.overhead_pct"] = measured["overhead_pct"]
            metrics["trace.selfcheck_gap_pct"] = measured["selfcheck_gap_pct"]
    else:
        metrics = {name: measured[name] for name in units if name in measured}
        metrics["setup_s"] = statistics.median(setup_samples)
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
    metrics = {name: metrics[name] for name in units if name in metrics}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": dict(provenance(), numpy=measured.get("numpy")),
        "setup_s_samples": setup_samples,
        "setup_raw_s_samples": [result["setup_raw_s"] for result in setups + [measured]],
        "op_raw_s": measured["op_raw_s"],
        "op_host_speed": measured["op_speed"],
    }
    if trace_out:
        detail["trace_file"] = os.path.relpath(trace_out, ROOT)
    print(
        f"perfbench {args.workload} seed={args.seed}: {attempted} operations, {failed} failed"
    )
    if "paper_err_pct" in metrics:
        print(
            "paper_err_pct is an in-sample error: the repository holds no held-out "
            "reference, only the paper's own table5/table8 cells."
        )
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
