"""Regenerate ``pins.json``: the outputs every benchmark operation is checked against.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are known good; a later commit that
changes any pinned value fails the benchmark's output check.

* ``stream_edf`` — for every arrival seed, the exact-mode oracle
  (``Cluster.serve`` on the materialised trace) gives the counts, drops,
  deadline misses, utilisation, latency moments and the exact p50/p99 the
  sketch-mode operation is compared with.  The sketch run is cross-checked
  against it here too, so a pin is never taken from a disagreeing pair.
* ``plan_grid`` — the digest of the sweep's sorted rows and their totals;
* ``dse_sweep`` — the digest of the sorted rows and the cache counts.  For
  both, the seed only reorders the grid, so two orders are run and must
  agree.
* ``paper_suite`` needs no pin: it is checked against
  ``tests/fixtures/experiments_fast_rows.json``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    pins = {"input_seeds": workloads.INPUT_SEEDS, "stream_edf": {}}
    stream, plan, dse = (workloads.WORKLOADS[name] for name in ("stream_edf", "plan_grid", "dse_sweep"))
    with tempfile.TemporaryDirectory() as work_dir:
        for seed in range(workloads.INPUT_SEEDS):
            cluster, generator = stream.build(seed)
            requests = generator.generate(num_requests=stream.requests_per_tenant)
            exact = stream.summarise(None, cluster.serve(requests))
            del requests
            state = {"cluster": cluster, "generator": generator}
            problems = stream.check(state, stream.summarise(state, stream.run(state)), {"stream_edf": {str(seed): exact}}, seed)
            if problems:
                print(f"stream_edf seed {seed}: sketch disagrees with the exact oracle: {problems}", file=sys.stderr)
                return 1
            pins["stream_edf"][str(seed)] = exact

            print(f"pinned stream_edf seed {seed}", file=sys.stderr)
        # The plan and dse seeds only reorder the grid: two orders must agree.
        plan_pins = []
        for seed in (0, 1):
            state = plan.setup(seed, work_dir)
            summary = plan.summarise(state, plan.run(state))
            if not (summary["stored_payload_identical"] and summary["stored_rows_identical"]):
                print(f"plan_grid seed {seed}: results store round trip failed", file=sys.stderr)
                return 1
            plan_pins.append({key: summary[key] for key in ("rows_sha256", "scenarios", "submitted", "dropped")})
        dse_pins = [dse.summarise(None, dse.run(dse.setup(seed, ""))) for seed in (0, 1)]
    for name, (first, second) in (("plan_grid", plan_pins), ("dse_sweep", dse_pins)):
        if first != second:
            print(f"{name}: outputs depend on the grid order", file=sys.stderr)
            return 1
        pins[name] = first
    with open(workloads.PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
