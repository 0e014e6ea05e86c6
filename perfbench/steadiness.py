"""Record how steady the benchmark is: two sets of interleaved runs per workload.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b] [--render]

Each set runs every workload ``--runs`` times, one run at a time, rotating
through the workloads so that a slow spell on the host spreads over all of
them.  Run ``i`` of set ``k`` uses seed ``100 * k + i``, so no two runs share
a seed.  For every end-to-end metric the record gives, per set, the median
and the interquartile range (IQR, ``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound in ``BENCHMARK.json``, and
the drift of the second set's median from the first.  It is written to
``STEADINESS.md`` (and the raw values to ``steadiness.json``) beside this
script; ``--render`` rewrites ``STEADINESS.md`` from ``steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int) -> Dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def _spread(values: List[float]) -> Dict:
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_share": (third - first) / median if median else 0.0}


#: The previous attempt at this benchmark was too noisy for four reasons;
#: each rule below removes one (README.md, "Steadiness", has the details).
NOISE_RULES = """\
| noise source seen before | rule that removes it |
|---|---|
| `setup_s` medians moved +16% (stream_edf) and -11% (plan_grid) between two sets of identical code | `setup_s` is the median of 7 fresh processes per run, each scaled by the in-process speed probe; single-threaded BLAS; fixed `PYTHONHASHSEED`; the largest bound |
| `paper_suite` and `plan_grid` ran on two pool workers on a 2-CPU box | one process at a time, serial engine (`workers=0`, `executor="serial"`) |
| `paper_suite` runs lasted ~1 s | every run repeats its operation for `run_seconds` and reports the median operation |
| one `sim_err_pct` value copied onto workloads that never compute it | every run computes every metric it prints: `paper_err_pct` comes from the run's own table5/table8 rows (a checked evaluation in a process of its own where the operation does not run them) |
| the host's speed wanders 20-30% over seconds to minutes (found while building this one) | times are scaled by a speed probe sampled inside the timed work |
"""


def render(record: Dict, bounds: Dict[str, float]) -> str:
    """STEADINESS.md from a record (what ``steadiness.json`` holds)."""
    values = record["values"]
    sets = len(values)
    lines = [
        "# Steadiness record",
        "",
        f"{sets} sets x {record['runs']} interleaved runs per workload, `run_seconds` = "
        f"{record['run_seconds']}, one run at a time; run i of set k has seed 100k + i.  "
        f"Runs with a failed operation or check: {record['failures']}.",
        "",
        "Host: " + ", ".join(f"{key}={value}" for key, value in record["provenance"].items()) + ".",
        "",
        "IQR is the interquartile range (`statistics.quantiles(values, n=4)`) as a share of the "
        "median; drift is the change of the last set's median from the first's, as a share of the first.",
        "",
        "| workload | metric | bound | " + " | ".join(f"set {k + 1} median | set {k + 1} IQR" for k in range(sets))
        + " | drift |",
        "|---|---|---|" + "---|---|" * sets + "---|",
    ]
    for workload, metrics in values[0].items():
        for metric in metrics:
            spreads = [_spread(values[k][workload][metric]) for k in range(sets)]
            drift = spreads[-1]["median"] / spreads[0]["median"] - 1.0 if spreads[0]["median"] else 0.0
            cells = " | ".join(f"{s['median']:.6g} | {100 * s['iqr_share']:.2f}%" for s in spreads)
            lines.append(f"| {workload} | {metric} | {100 * bounds[metric]:.0f}% | {cells} | {100 * drift:+.2f}% |")
    lines += ["", "## Noise sources and the rules that remove them", "", NOISE_RULES]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--render", action="store_true", help="only rewrite STEADINESS.md from steadiness.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    record_path = os.path.join(HERE, "steadiness.json")
    if args.render:
        with open(record_path) as handle:
            record = json.load(handle)
    else:
        record = _measure(benchmark, args)
        with open(record_path, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    text = render(record, bounds)
    with open(os.path.join(HERE, "STEADINESS.md"), "w") as handle:
        handle.write(text)
    print(text)
    return 0 if record["failures"] == 0 else 1


def _measure(benchmark: Dict, args) -> Dict:
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workloads:
        names = [name for name in names if name in args.workloads.split(",")]
    # values[set][workload][metric] -> one value per run
    values: List[Dict[str, Dict[str, List[float]]]] = []
    provenance = None
    failures = 0
    for set_index in range(args.sets):
        values.append({name: {} for name in names})
        for run in range(args.runs):
            rotation = names[run % len(names):] + names[: run % len(names)]
            for workload in rotation:
                seed = 100 * (set_index + 1) + run
                result = _run(workload, seed, benchmark["run_seconds"])
                provenance = result["detail"]["provenance"]
                failures += bool(result["failed"]) or not result["correct"]
                for metric, entry in result["metrics"].items():
                    values[set_index][workload].setdefault(metric, []).append(entry["value"])
                print(f"set {set_index + 1} run {run + 1} {workload}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
    return {
        "provenance": provenance,
        "run_seconds": benchmark["run_seconds"],
        "runs": args.runs,
        "failures": failures,
        "values": values,
    }


if __name__ == "__main__":
    sys.exit(main())
