"""Regenerate the seed-0 reference artifacts that ``checks.py`` compares with.

Run from the root of a checkout, only when a change is meant to alter the
numbers (and say so where the change is described):

    python3 perfbench/make_reference.py [workload ...]

Each workload runs one untraced pass at seed 0; its artifacts, without
manifests (they hold wall-clock times) and without generated inputs, are
copied to ``perfbench/reference/<workload>/``.
"""

import shutil
import sys
import time
from pathlib import Path

import checks
import run
import workloads


def main(names) -> int:
    for workload in names or workloads.WORKLOADS:
        runner = run.Runner(Path.cwd(), workload, 0,
                            time.monotonic() + run.RUN_BUDGET_S)
        try:
            sample = runner.spawn()
            outcomes = {o["name"]: o for o in (sample.result or {}).get("ops", [])}
            for op in workloads.ops(workload, 0):
                outcome = outcomes.get(op.name)
                if outcome is None or outcome["error"] \
                        or outcome["rc"] != op.expect_rc:
                    print(f"{workload}: {op.name} did not run as expected: "
                          f"{outcome}", file=sys.stderr)
                    return 1
            target = checks.REFERENCE / workload
            shutil.rmtree(target, ignore_errors=True)
            inputs = workloads.input_files(workload, 0)
            for name, path in run.artifact_files(sample.ops_dir).items():
                if name in inputs or name.endswith("manifest.json") \
                        or name.endswith("aggregate.csv"):
                    continue
                dest = target / name
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, dest)
                print(f"wrote {dest.relative_to(Path.cwd())}")
        finally:
            runner.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
