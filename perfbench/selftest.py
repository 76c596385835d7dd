"""Self-test of the benchmark's checks and traced run.

    python3 perfbench/selftest.py [workload ...]

For each workload, one round of seeded jobs must:
- pass its checks as generated;
- fail every check once each job's expected value is corrupted, and the
  failures must show up in the result's `failed` count;
- pass the traced replay, whose self times must add up to each job's
  `cli.main` span.
Finally, the benchmark copied without the package source must exit nonzero
and print no result. Exits 0 when all of this holds.
"""

import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

ONE_ROUND = 0  # every run completes at least one round


def main(names):
    sys.path.insert(0, str(run.SRC))
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    problems = []
    for name in names:
        clean, _ = run.measure(name, 0, ONE_ROUND, env)
        bad, report = run.measure(name, 0, ONE_ROUND, env, corrupt=True)
        traced, _ = run.traced(name, 0, ONE_ROUND, env)
        print(f"{name}: clean {clean['failed']}/{clean['attempted']} failed, "
              f"corrupted {bad['failed']}/{bad['attempted']} failed, "
              f"traced {traced['failed']}/{traced['attempted']} failed", file=sys.stderr)
        if clean["failed"] or not clean["correct"]:
            problems.append(f"{name}: a correct output was counted as failed")
        if bad["failed"] != bad["attempted"] or bad["correct"]:
            problems.append(f"{name}: a corrupted expected value was not counted as failed")
        if traced["failed"] or not traced["correct"]:
            problems.append(f"{name}: traced replay failed")
        print(f"  e.g. {report['failures'][:1]}", file=sys.stderr)

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, "perfbench/run.py", "--workload", names[0], "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the package source the benchmark did not fail cleanly")

    print(json.dumps({"ok": not problems, "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
