"""deltasimplex benchmark: seeded CLI jobs in a closed loop, or a traced in-process replay.

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One client runs one job at a time. The measured run (`--trace 0`) spawns each
job as `python -m deltasimplex.cli ...`, times it from spawn to exit, takes
its CPU time and peak RSS from `os.wait4`, and checks its output outside the
timed region. Whole rounds of the workload's job mix run until the job wall
time reaches `--seconds`. The traced run (`--trace 1`) replays the same jobs:
once as a subprocess, once in-process untraced and once in-process with every
public function of the package wrapped in a span (see `tracer.py`).

The last line of stdout is the result JSON; the line before it is a report
with the environment, sample counts and per-slot medians.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
from math import comb
from pathlib import Path
from time import perf_counter

from tracer import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_ARGS = ["check", "--delta", "1,1"]
SETUP_SAMPLES = 5  # before the loop; one more runs before every round


def environment(args):
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _job_argv(job, index):
    """Write the job's input simplex, if any, and return its CLI arguments."""
    if job.simplex is None:
        return job.args
    path = WORK / f"{os.getpid()}-job{index}-simplex.json"
    path.write_text(json.dumps({"vertices": job.simplex}))
    return [str(path) if a == "{simplex}" else a for a in job.args]


def spawn(argv, env):
    """Run the CLI once; returns (exit code, stdout, stderr, wall s, cpu s, maxrss KiB)."""
    out, err = WORK / f"{os.getpid()}-stdout", WORK / f"{os.getpid()}-stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    cmd = [sys.executable, "-m", "deltasimplex.cli", *argv]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, cmd, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    code = os.waitstatus_to_exitcode(status)
    return code, out.read_text(), err.read_text(), wall, cpu, usage.ru_maxrss


def check(job, code, stdout, stderr):
    """Error message for a wrong or failed job, None when the output is right."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    try:
        return job.check(job, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_in_process(cli, argv):
    """Call cli.main in this process; returns (exit code, stdout, stderr, wall s)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall


def percentile_report(walls):
    """Median, and the highest of p90/p75 with at least ten jobs beyond it."""
    ordered = sorted(walls)
    report = {"job_wall_s.p50": statistics.median(ordered), "samples": len(ordered)}
    for p in (90, 75):
        k = int(len(ordered) * p / 100)
        if len(ordered) - k - 1 >= 10:
            report[f"job_wall_s.p{p}"] = ordered[k]
            break
    return report


def measure(workload, seed, seconds, env, corrupt=False):
    """Closed-loop measured run; returns (result, report)."""
    from workloads import corrupt as corrupt_expected
    from workloads import rounds

    spawn(SETUP_ARGS, env)  # warm-up: byte-compiles the package on a fresh checkout
    setup = [spawn(SETUP_ARGS, env)[3] for _ in range(SETUP_SAMPLES)]

    jobs, failures, busy, n_rounds = [], [], 0.0, 0
    for batch in rounds(workload, seed):
        if n_rounds and busy >= seconds:
            break
        n_rounds += 1
        setup.append(spawn(SETUP_ARGS, env)[3])
        for job in batch:
            if corrupt:
                corrupt_expected(job)
            argv = _job_argv(job, len(jobs))
            code, stdout, stderr, wall, cpu, rss = spawn(argv, env)
            busy += wall
            error = check(job, code, stdout, stderr)
            jobs.append((job, wall, cpu, rss, error))
            if error:
                failures.append(f"{job.slot}: {error}")

    walls = [wall for _, wall, _, _, _ in jobs]
    work = sum(job.work for job, _, _, _, error in jobs if error is None)
    metrics = {
        "work_per_s": (work / sum(walls), "work/s"),
        "job_wall_s.p50": (statistics.median(walls), "s"),
        "cpu_s": (sum(cpu for _, _, cpu, _, _ in jobs) / n_rounds, "s"),
        "peak_rss_mb": (max(rss for _, _, _, rss, _ in jobs) / 1024, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    slots = {}
    for job, wall, _, _, _ in jobs:
        slots.setdefault(job.slot, []).append(wall)
    report = {
        "rounds": n_rounds,
        "jobs": len(jobs),
        "work": work,
        "setup_samples": len(setup),
        **percentile_report(walls),
        "slot_median_wall_s": {k: statistics.median(v) for k, v in sorted(slots.items())},
        "failures": failures[:5],
    }
    return _result(len(jobs), len(failures), metrics), report


def traced(workload, seed, seconds, env):
    """Replay whole rounds: subprocess, in-process untraced, in-process traced."""
    import deltasimplex
    import deltasimplex.cli as cli
    from deltasimplex.ehrhart import cell_estimate
    from workloads import rounds

    tracer = Tracer(deltasimplex)
    failures, process_s, plain_s, traced_s, roots = {}, [], 0.0, 0.0, []
    jobs, n_rounds, start = 0, 0, perf_counter()
    for batch in rounds(workload, seed):
        if n_rounds and perf_counter() - start >= seconds:
            break
        n_rounds += 1
        for job in batch:
            argv = _job_argv(job, jobs)
            sub = spawn(argv, env)[:4]
            tracer.job = jobs
            first = len(tracer.spans)
            # alternate which in-process call runs first, so neither always
            # pays for code paths that are cold after the previous job
            if jobs % 2:
                plain_out = run_in_process(cli, argv)
            with tracer:
                traced_out = run_in_process(cli, argv)
            if not jobs % 2:
                plain_out = run_in_process(cli, argv)
            roots.append((first, len(tracer.spans)))
            process_s.append(sub[3] - plain_out[3])
            plain_s += plain_out[3]
            traced_s += traced_out[3]
            errors = [e for e in (check(job, *o[:3]) for o in (sub, plain_out, traced_out)) if e]
            if errors:
                failures[jobs] = f"{job.slot}: {errors[0]}"
            jobs += 1

    own = tracer.self_times()
    spans = tracer.spans
    for first, end in roots:
        # self times telescope to the cli.main span of the same job
        total, root = sum(own[first:end]), spans[first]
        if root[0] != "cli.main" or abs(total - (root[2] - root[1])) > 1e-6:
            failures.setdefault(root[4], f"job {root[4]}: self times do not add up to cli.main")

    self_s, calls, inclusive = {}, {}, {}
    for span, t in zip(spans, own):
        self_s[span[0]] = self_s.get(span[0], 0.0) + t
        calls[span[0]] = calls.get(span[0], 0) + 1
        inclusive[span[0]] = inclusive.get(span[0], 0.0) + span[2] - span[1]
    matrices = sum(
        1 for s in spans if s[0] == "box.delta_from_box" and s[3] >= 0
        and spans[s[3]][0] == "classify.exhaustive_search"
    )
    box_points = sum(tracer.observed["box.enumerate_box"])
    table = tracer.observed["ehrhart.ehrhart_table"]
    ehrhart_points = sum(points for _, points in table)
    cells = sum(2 * cell_estimate(s, n) for s, _ in table for n in range(1, s.dim + 2))
    enum = tracer.observed["classify.enumerate_admissible"]
    candidates = sum(comb(d + p - 2, p - 1) for p, d, _ in enum)
    admitted = sum(found for _, _, found in enum)

    def ratio(a, b):
        return a / b if b else 0.0

    per = max(n_rounds, 1)
    metrics = {}
    for name in (
        "lattice.smith_normal_form", "lattice.exact_det", "lattice.row_hermite_form",
        "lattice.adjugate", "box.enumerate_box", "box.delta_from_box",
        "ehrhart.ehrhart_table", "ehrhart.ehrhart_delta", "hnf.closed_form_delta",
        "constraints.check_pairing", "constraints.check_superadditive",
        "classify.enumerate_admissible", "classify.witness", "classify.exhaustive_search",
        "cli.main",
    ):
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / per, "s")
    for layer in MODULES:
        total = sum(t for name, t in self_s.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total / per, "s")
    metrics.update({
        "lattice.smith_normal_form.calls": (calls.get("lattice.smith_normal_form", 0) / per, "count"),
        "box.points": (box_points / per, "count"),
        "box.points_per_s": (ratio(box_points, inclusive.get("box.enumerate_box", 0.0)), "1/s"),
        "ehrhart.points": (ehrhart_points / per, "count"),
        "ehrhart.points_per_cell": (ratio(ehrhart_points, cells), "ratio"),
        "hnf.closed_form_delta.calls": (calls.get("hnf.closed_form_delta", 0) / per, "count"),
        "hnf.residues": (sum(tracer.observed["hnf.closed_form_delta"]) / per, "count"),
        "classify.candidates": (candidates / per, "count"),
        "classify.admitted": (admitted / per, "count"),
        "classify.admit_ratio": (ratio(admitted, candidates), "ratio"),
        "classify.matrices": (matrices / per, "count"),
        "cli.process_s": (statistics.median(process_s), "s"),
        "trace.overhead_ratio": (ratio(traced_s, plain_s), "ratio"),
    })
    layer_self = {layer: metrics[f"{layer}.self_s"][0] for layer in MODULES}
    report = {
        "rounds": n_rounds,
        "jobs": jobs,
        "spans": len(spans),
        "process_s_samples": len(process_s),
        "top_layer": max(layer_self, key=layer_self.get),
        "failures": list(failures.values())[:5],
    }
    WORK.joinpath(f"trace-{workload}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "job"], "spans": spans}
    ))
    return _result(jobs, len(failures), metrics), report


def _result(attempted, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deltasimplex" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'deltasimplex'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    WORK.mkdir(exist_ok=True)
    run = traced if args.trace else measure
    result, report = run(args.workload, args.seed, args.seconds, env)
    print(json.dumps({"report": {"environment": environment(args), **report}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
