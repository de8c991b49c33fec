#!/usr/bin/env python3
"""Record the expected result of every benchmark op into expected.json.

    python3 benchmark/record.py [WORKLOAD ...]

Runs each op of each workload once per relabelling variant of the default
seed and of a second seed.  It records the exit code, the relabel-invariant
summary and the self-check fields, which must agree across all those inputs,
and the sha256 of every artifact at the default seed.  Run it only when a
change to the benchmark alters the ops; a change to the program that alters
an op's result is a failure for the benchmark to report.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

OTHER_SEED = workloads.DEFAULT_SEED + 1


def main():
    sys.path.insert(0, str(run.SRC))
    path = run.BENCH / "expected.json"
    record = {"default_seed": workloads.DEFAULT_SEED, "variants": run.VARIANTS,
              "workloads": json.loads(path.read_text())["workloads"] if path.exists() else {}}
    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    for name in sys.argv[1:] or workloads.WORKLOADS:
        ops = workloads.WORKLOADS[name]
        entries = record["workloads"][name] = {}
        for seed in (workloads.DEFAULT_SEED, OTHER_SEED):
            work = Path(tempfile.mkdtemp(prefix="record-", dir=build))
            try:
                runner = run.Runner(name, work, seed)
                for variant in range(run.VARIANTS):
                    runner.set_up(variant)
                for op_id, argv in ops:
                    for variant in range(run.VARIANTS):
                        _, got, hashes, _ = runner.spawn(op_id, argv, variant)
                        if got is None:
                            sys.exit(f"{name} {op_id}: timed out")
                        entry = entries.setdefault(op_id, {**got, "sha256": []})
                        if {k: entry[k] for k in got} != got:
                            sys.exit(f"{name} {op_id} seed {seed} variant {variant}: "
                                     f"{got} differs from {entry}")
                        if seed == workloads.DEFAULT_SEED:
                            entry["sha256"].append(hashes)
                        print(name, op_id, seed, variant, got, flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
