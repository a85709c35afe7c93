"""The shiftgraphs benchmark.

    python3 perfbench/run.py [--workload search|build|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The harness is one closed-loop client: it
starts one child process at a time (``launch.py``, which runs the CLI or the
small-DAG job from ``src/``) and starts the next only after the
previous one has exited.  A run sets the workload up from the seed five
times (``setup_s`` is the median), then repeats passes over the workload's
job list for about ``--seconds`` seconds, at least two passes.  Every
output is checked after its pass, outside the timed region, and must repeat
exactly from pass to pass.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` passes alternate untraced and traced, and
the result carries the per-layer metrics, taken from the spans of the traced
passes.  Scratch files go to ``.perfbench_work/`` under the root.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_PASSES = 2
CLI_STARTS = 5
RUN_LIMIT_S = 150.0  # a workload's run must end within 180 s, whatever the program does

if not (ROOT / "src" / "shiftgraphs" / "__init__.py").is_file():
    sys.exit(f"perfbench: no shiftgraphs sources under {ROOT / 'src'}")
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, CheckFailed, Job, Outcome, Workload  # noqa: E402


@dataclass
class JobRun:
    rc: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Pass:
    traced: bool
    wall: float
    runs: list[JobRun]
    spans: list[tuple[str, Path]]

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.runs)


class Runner:
    """Starts launcher children in one work directory and waits for each."""

    def __init__(self, workdir: Path, pycache: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline  # perf_counter() time after which children are killed
        # Children see none of the caller's PYTHON* settings (such as
        # PYTHONDONTWRITEBYTECODE), so timings do not depend on them.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(pycache))
        (workdir / "logs").mkdir(exist_ok=True)

    def run(self, name: str, argv: tuple[str, ...], spans: Path | None = None) -> JobRun:
        out = self.workdir / "logs" / f"{name}.out"
        err = self.workdir / "logs" / f"{name}.err"
        cmd = [sys.executable, str(LAUNCH), name, str(spans or "-"), *argv]
        timeout = max(self.deadline - perf_counter(), 1.0)
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if status is None:  # interrupted: leave no child running
                    proc.kill()
                    proc.wait()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return JobRun(
            rc=proc.returncode,
            stdout=out.read_text(errors="replace"),
            stderr=err.read_text(errors="replace"),
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        )


def run_pass(wl: Workload, runner: Runner, traced: bool, index: int) -> Pass:
    spans = []
    runs = []
    t0 = perf_counter()
    for job in wl.jobs:
        path = runner.workdir / "spans" / f"{index}-{job.name}.marshal" if traced else None
        runs.append(runner.run(job.name, job.argv, path))
        if path is not None:
            spans.append((job.name, path))
    return Pass(traced, perf_counter() - t0, runs, spans)


def check_job(job: Job, run: JobRun, workdir: Path, fingerprints: dict[str, str]) -> str | None:
    """Return None if the job's output is right and repeats, else the reason."""
    try:
        if "Traceback" in run.stderr:
            raise CheckFailed(f"traceback on stderr: {run.stderr[-300:]!r}")
        fp = job.check(workdir, Outcome(run.rc, run.stdout))
        if fingerprints.setdefault(job.name, fp) != fp:
            raise CheckFailed("NONDETERMINISTIC: output differs from the first pass")
    except Exception as exc:  # a wrong output may break a check in any way
        return f"{type(exc).__name__}: {exc}"
    return None


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def layer_values(passes: list[Pass]) -> dict[str, list[float]]:
    """Per-layer values of each traced pass, from its spans.

    ``<span>.self_s`` is span time minus the time of its child spans;
    ``.calls`` and the recorded counts are summed over the pass's jobs.
    """
    per_pass = []
    for p in passes:
        vals: dict[str, float] = defaultdict(float)
        for job, path in p.spans:
            with open(path, "rb") as fh:
                _, names, name, start, end, parent, counts = marshal.load(fh)
            dur = [e - s for s, e in zip(start, end)]
            child = [0.0] * len(dur)
            for i, par in enumerate(parent):
                if par >= 0:
                    child[par] += dur[i]
            search_s = 0.0
            for i, nid in enumerate(name):
                span = names[nid]
                vals[f"{span}.self_s"] += dur[i] - child[i]
                vals[f"{span}.calls"] += 1
                if span == "aop.decide_aop":
                    search_s += dur[i]
            for i, key, val in counts:
                span = names[name[i]]
                vals[f"{span}.{key}"] += val
                if span == "aop.decide_aop" and key == "nodes":
                    vals[f"{span}.nodes.{job}"] += val
            nodes = vals.get(f"aop.decide_aop.nodes.{job}")
            if nodes:
                vals[f"aop.decide_aop.us_per_node.{job}"] = 1e6 * search_s / nodes
        nodes = vals.get("aop.decide_aop.nodes")
        if nodes:
            prunes = vals["aop.decide_aop.prunes_cycle"] + vals["aop.decide_aop.prunes_double_path"]
            vals["aop.decide_aop.prune_ratio"] = prunes / nodes
        per_pass.append(vals)
    keys = set().union(*per_pass)
    return {k: [v.get(k, 0.0) for v in per_pass] for k in keys}


def read_loadavg() -> list[str] | None:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def read_cpu_ticks() -> list[int] | None:
    """Machine-wide CPU ticks (user, nice, system, idle, iowait, irq, softirq, steal)."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time taken by the hypervisor in between: a noisy stretch shows here."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def git_sha() -> str:
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
    return "unavailable"


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    workdir = WORK / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "spans").mkdir()
    load_start = read_loadavg()
    ticks_start = read_cpu_ticks()
    failures: list[tuple[str, str]] = []

    # Set-up: inputs from the seed, then one cold CLI start; a fresh
    # bytecode cache each time makes every start compile.
    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup(seed, workdir)
        runner = Runner(workdir, workdir / f"pycache-{i}", deadline)
        cold = runner.run("cold-start", ("cli", "--help"))
        setup_times.append(perf_counter() - t0)
        if cold.rc != 0:
            failures.append(("cold-start", f"exit code {cold.rc}: {cold.stderr[-300:]!r}"))

    passes: list[Pass] = []
    fingerprints: dict[str, str] = {}
    attempted = 0
    t_start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p = run_pass(wl, runner, traced, len(passes))
        passes.append(p)
        for job, run in zip(wl.jobs, p.runs):
            attempted += 1
            reason = check_job(job, run, workdir, fingerprints)
            if reason is not None:
                failures.append((job.name, reason))
        elapsed = perf_counter() - t_start
        if failures:
            break
        # Start no pass that would be expected to end after ``seconds``.
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
    for job in wl.post:
        attempted += 1
        reason = check_job(job, runner.run(job.name, job.argv), workdir, fingerprints)
        if reason is not None:
            failures.append((job.name, reason))

    plain = [p for p in passes if not p.traced]
    samples = {
        "pass_s": [p.wall for p in plain],
        "cpu_s": [p.cpu for p in plain],
        "peak_rss_mb": [max(r.rss_mb for p in plain for r in p.runs)],
        "setup_s": setup_times,
    }
    jobs = {
        job.name: statistics.median(p.runs[k].wall for p in plain) for k, job in enumerate(wl.jobs)
    }
    metrics = {}
    if trace:
        traced = [p for p in passes if p.traced]
        layers = layer_values(traced)
        layers["trace.overhead_s"] = [
            statistics.median(p.wall for p in traced) - statistics.median(samples["pass_s"])
        ] if traced else [0.0]
        layers["cli.start_s"] = [runner.run("noop", ("cli", "--help")).wall for _ in range(CLI_STARTS)]
        for m in spec["per_layer"]:
            metrics[m["name"]] = (layers.get(m["name"], [0.0]), m["unit"])
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = (samples[m["name"]], m["unit"])

    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": samples,
        "job_median_s": jobs,
        "metrics": {name: (statistics.median(xs), unit, xs) for name, (xs, unit) in metrics.items()},
        "loadavg_start": load_start,
        "loadavg_end": read_loadavg(),
        "steal_frac": steal_frac(ticks_start, read_cpu_ticks()),
    }


def report(res: dict) -> None:
    steal = "n/a" if res["steal_frac"] is None else f"{res['steal_frac']:.2%}"
    print(f"== workload {res['workload']} seed {res['seed']} trace {int(res['trace'])}: "
          f"{res['passes']} untraced + {res['traced_passes']} traced passes; "
          f"loadavg {res['loadavg_start']} -> {res['loadavg_end']}; steal {steal}")
    for name, xs in res["samples"].items():
        q1, med, q3 = quartiles(xs)
        print(f"  {name:<12} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(xs)}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':<12} {frac:.4f} ({res['failed']} of {res['attempted']} jobs)")
    for job, wall in res["job_median_s"].items():
        print(f"  job {job:<14} median {wall:.4f} s")
    if res["trace"]:
        for name, (value, unit, xs) in sorted(res["metrics"].items()):
            print(f"  {name:<44} {value:.6g} {unit}  n={len(xs)}")
    for job, reason in res["failures"]:
        print(f"perfbench: FAILED {res['workload']}/{job}: {reason}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    env = environment()
    print("env " + json.dumps(env))
    results = []
    for name in names:
        res = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec)
        res["env"] = env
        report(res)
        results.append(res)
        (WORK / "results").mkdir(exist_ok=True)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(res, indent=1) + "\n")

    prefix = len(results) > 1
    metrics = {
        (f"{res['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for res in results
        for name, (value, unit, _) in res["metrics"].items()
    }
    failed = sum(res["failed"] for res in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(res["attempted"] for res in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
