"""edgewatch benchmark: one CLI job per workload, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload event-weekly --seed 0 --seconds 30 --trace 0

``--trace 0`` sets the workload up at least five times and for at least
three seconds (``setup_s``, the median), then runs the CLI job in a fresh
single-threaded process, one at a time, until ``--seconds`` have passed and
at least three jobs have run. It reports the median job time (``job_s``)
and peak RSS (``peak_rss_mb``). Both times are wall times scaled to the
reference CPU speed of speed.py; the raw wall times are printed too.
``--trace 1`` sets up once, runs one untraced and one traced job, and reports
the per-layer self times and counts. Every job's outputs are checked; the
last stdout line is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from spans import Span, Tracer, now, self_time_by_name, self_times
from speed import Sampler, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"
GOLDEN = HERE / "golden.json"

MIN_JOBS = 3
SETUPS = 5
SETUP_SECONDS = 3.0  # cheap set-ups repeat until this much time has passed
DRILL_REPEATS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s

# Per-layer metric -> span name whose summed self time it reports.
SELF_TIME_METRICS = {
    "ingest.read_s": "ingest.read",
    "ingest.window_s": "ingest.window",
    "pipeline.labels_s": "pipeline.analyze",
    "features.extract_s": "features.extract",
    "features.normalize_s": "features.normalize",
    "dbscan.cluster_s": "dbscan.cluster",
    "constellation.build_s": "constellation.build",
    "constellation.cd_s": "constellation.cd",
    "pipeline.drilldown_s": "pipeline.drilldown",
    "pipeline.timeline_self_s": "pipeline.timeline",
    "pipeline.write_s": "pipeline.write",
    "evaluation.calibration_self_s": "evaluation.calibration",
    "synth.generate_s": "synth.generate",
    "synth.write_s": "synth.write",
    "cli.self_s": "cli.main",
}
COUNT_METRICS = (
    "ingest.window_memberships",
    "ingest.hostname_decodes",
    "features.caches_kept",
    "features.caches_dropped",
    "dbscan.points",
    "dbscan.clusters",
    "dbscan.noise",
    "constellation.cd_calls",
    "constellation.star_pairs",
    "evaluation.trials",
    "synth.flows",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "lines/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    return "count"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def speed_probe() -> float:
    """Milliseconds for a fixed pure-Python loop, fastest of five.

    The load average cannot show a host that slows this VM's vCPUs; a probe
    taken before and after a run shows whether the run met such a period.
    """
    best = float("inf")
    for _ in range(5):
        start = now()
        sum(i * i for i in range(100_000))
        best = min(best, now() - start)
    return round(1000.0 * best, 3)


def environment() -> dict:
    """What a reader needs to judge whether two results are comparable."""
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() if done.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "edgewatch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fp if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


class Run:
    """One benchmark run of one workload; owns its work directory."""

    def __init__(self, workload, seed: int, work: Path, start: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.trace_path = work / "trace.tsv"
        self.deadline = start + RUN_BUDGET_S
        self.env = child_env()
        self.jobs: list[dict] = []

    def set_up(self, tracer=None) -> tuple[float, float, int]:
        """Build the input the job reads; returns (wall seconds, CPU speed, flows).

        A fresh process imports the package first, so the bytecode cache is
        warm before any timed job starts. The speed is sampled only when
        there is no tracer.
        """
        from edgewatch.ingest import write_flow_log
        from edgewatch.synth import generate_trace

        sampler = Sampler().start() if tracer is None else None
        start = now()
        # No timeout: waiting with one polls in steps of up to 50 ms, which
        # would quantize this short, timed step.
        subprocess.run([sys.executable, "-c", "import edgewatch.cli"], env=self.env, cwd=ROOT, check=True)
        records = []
        if self.workload.synth is not None:
            config = self.workload.synth(self.seed)
            if tracer is None:
                records, _ = generate_trace(config)
                write_flow_log(self.trace_path, records)
            else:
                records, _ = tracer.call("synth.generate", generate_trace, config)
                tracer.call("synth.write", write_flow_log, self.trace_path, records)
        elapsed = now() - start
        return elapsed, 1.0 if sampler is None else sampler.stop(), len(records)

    def job(self, trace: bool, drill_repeats: int, sample: bool) -> dict:
        """Launch one CLI job in a fresh process and check what it wrote."""
        from workloads import DRILL_CSV

        index = len(self.jobs)
        out = self.work / f"out{index}"
        out.mkdir()
        w = self.workload
        spec = {
            "argv": w.argv(self.trace_path, out, self.seed),
            "trace": trace,
            "drill": None
            if w.drill_entry is None
            else {"entry": w.drill_entry, "repeats": drill_repeats, "out": str(out / DRILL_CSV)},
            "sample": sample,
            "result": str(self.work / f"job{index}.json"),
        }
        spec_path = self.work / f"spec{index}.json"
        spec_path.write_text(json.dumps(spec))
        job: dict = {"problems": []}
        self.jobs.append(job)
        with open(self.work / f"job{index}.log", "w") as log:
            t_launch = now()
            proc = subprocess.Popen(
                [sys.executable, str(JOB), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - now()))
            except subprocess.TimeoutExpired:
                job["problems"].append("job did not finish within the run's time budget")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.exists():
            tail = (self.work / f"job{index}.log").read_text(errors="replace")[-2000:]
            job["problems"].append(f"job process exited with {proc.returncode}: {tail}")
            return job
        report = json.loads(result_path.read_text())
        job.update(
            wall_s=report["t_done"] - t_launch,
            startup_s=report["t_main"] - t_launch,
            speed=report.get("speed", 1.0),
            cpu_s=report["cpu_s"],
            rss_mb=report["maxrss_kb"] / 1024.0,
            drill_s=report.get("drill_s", []),
            spans=report.get("spans", []),
            counts=report.get("counts", {}),
            missing=report.get("missing", []),
        )
        if not Path(report["edgewatch"]).resolve().is_relative_to(SRC):
            job["problems"].append(f"imported edgewatch from {report['edgewatch']}, not {SRC}")
        if report["rc"] != 0:
            job["problems"].append(f"edgewatch exited with code {report['rc']}")
            return job
        absent = [f for f in w.outputs if not (out / f).is_file()]
        if absent:
            job["problems"].append(f"missing outputs: {absent}")
            return job
        job["hashes"] = {f: sha256(out / f) for f in w.outputs}
        job["problems"] += w.check(out)
        return job

    def has_time_for(self, estimate: float) -> bool:

        return now() + estimate < self.deadline

    def count_failures(self, golden: dict | None) -> int:
        """Mark a job failed if it is broken, fails its check, or its bytes differ.

        The reference bytes are the pinned ones when this seed is pinned,
        otherwise those of the first job that ran cleanly.
        """
        reference = golden
        if reference is None:
            reference = next((j["hashes"] for j in self.jobs if "hashes" in j and not j["problems"]), None)
        for j in self.jobs:
            if "hashes" in j and reference is not None and j["hashes"] != reference:
                changed = sorted(f for f in reference if j["hashes"].get(f) != reference[f])
                j["problems"].append(f"outputs differ from the reference bytes: {changed}")
        return sum(1 for j in self.jobs if j["problems"])


def load_golden(workload: str, seed: int) -> dict | None:
    pinned = json.loads(GOLDEN.read_text())
    if pinned["seed"] != seed:
        return None
    return pinned["outputs"].get(workload)


def percentile_line(values: list[float]) -> str:
    """Median, extremes, and the highest percentile with ten samples beyond it."""
    n = len(values)
    line = f"median {statistics.median(values):.4f}, min {min(values):.4f}, max {max(values):.4f}, n={n}"
    tail = math.floor(100.0 * (1.0 - 10.0 / n))
    if tail > 50:
        cut = statistics.quantiles(values, n=100, method="inclusive")[tail - 1]
        return line + f", p{tail} {cut:.4f}"
    return line + " (too few samples for a tail percentile)"


def measure(
    run: Run, seconds: float, min_jobs: int, n_setups: int, setup_seconds: float
) -> tuple[dict, list[str]]:
    """The tracing-off run: end-to-end metrics."""

    setup_walls, setups = [], []
    flows = 0
    setup_start = now()
    while len(setups) < n_setups or now() - setup_start < setup_seconds:
        if setups and not run.has_time_for(2 * max(setup_walls)):
            break
        elapsed, speed, flows = run.set_up()
        setup_walls.append(elapsed)
        setups.append(elapsed * speed)
    started = now()
    while len(run.jobs) < min_jobs or now() - started < seconds:
        walls = [j["wall_s"] for j in run.jobs if "wall_s" in j]
        if run.jobs and not run.has_time_for(1.5 * max(walls, default=30.0) + 2.0):
            break
        run.job(trace=False, drill_repeats=DRILL_REPEATS, sample=True)
    timed = [j for j in run.jobs if "wall_s" in j]
    if not timed:
        return {}, ["no job produced a report"]
    walls = [j["wall_s"] for j in timed]
    scaled = [j["wall_s"] * j["speed"] for j in timed]
    job_s = statistics.median(scaled)
    metrics = {
        "job_s": job_s,
        "peak_rss_mb": statistics.median(j["rss_mb"] for j in timed),
        "setup_s": statistics.median(setups),
    }
    lines = [
        f"job_s [s]: {percentile_line(scaled)}",
        f"job wall [s]: {percentile_line(walls)}",
        f"job CPU speed [share of reference]: {percentile_line([j['speed'] for j in timed])}",
        f"job_cpu_s [s]: median {statistics.median(j['cpu_s'] for j in timed):.4f}",
        f"setup_s [s]: {percentile_line(setups)}",
        f"setup wall [s]: {percentile_line(setup_walls)}",
    ]
    if flows:
        lines.append(f"flows_per_s [flows/s]: {flows / job_s:.1f} ({flows} flows / job_s)")
    drills = [t for j in timed for t in j["drill_s"]]
    if drills:
        lines.append(f"drilldown_s [s]: {percentile_line(drills)} (entry {run.workload.drill_entry})")
    return metrics, lines


def trace_layers(run: Run) -> tuple[dict, list[str]]:
    """The traced run: per-layer self times and counts."""

    setup_tracer = Tracer(job="setup")
    _, _, flows = run.set_up(setup_tracer)
    plain = run.job(trace=False, drill_repeats=1, sample=False)
    traced = run.job(trace=True, drill_repeats=1, sample=False)
    if "wall_s" not in plain or "wall_s" not in traced:
        return {}, ["a job produced no report"]
    # Span parents index into their own process's list, so each list is
    # reduced on its own.
    child = [Span(**s) for s in traced["spans"]]
    self_s = self_time_by_name(setup_tracer.spans)
    for name, seconds in self_time_by_name(child).items():
        self_s[name] = self_s.get(name, 0.0) + seconds
    counts = dict(traced["counts"], **{"synth.flows": flows})
    metrics = {metric: self_s.get(name, 0.0) for metric, name in SELF_TIME_METRICS.items()}
    read_s = metrics["ingest.read_s"]
    metrics["ingest.lines_per_s"] = counts.get("ingest.lines", 0) / read_s if read_s else 0.0
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    metrics["cli.startup_s"] = traced["startup_s"]
    metrics["traced_job_s"] = traced["wall_s"]
    metrics["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]

    main_self = sum(t for span, t in zip(child, self_times(child)) if span.job == "main")
    wall = traced["wall_s"]
    lines = [
        f"traced job {wall:.4f} s, untraced {plain['wall_s']:.4f} s; "
        f"startup + span self times = {traced['startup_s'] + main_self:.4f} s",
        "shares of the traced job: "
        + ", ".join(
            f"{m} {100.0 * metrics[m] / wall:.1f}%"
            for m in sorted(SELF_TIME_METRICS, key=lambda m: -metrics[m])
            if metrics[m] and not m.startswith(("synth.", "pipeline.drilldown"))
        ),
    ]
    if traced["missing"]:
        lines.append(f"boundaries not found (reported as 0): {traced['missing']}")
    return metrics, lines


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("event-weekly", "wide-daily", "calibrate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_workload(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    pinned: dict | None,
    min_jobs: int = MIN_JOBS,
    n_setups: int = SETUPS,
    setup_seconds: float = SETUP_SECONDS,
) -> dict:
    """Run one workload and return the result object plus readable summary lines.

    ``pinned`` maps output file names to the sha256 they must have.
    """

    start = now()
    work = ROOT / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before, probe_before = os.getloadavg(), speed_probe()
    cpu = pin_to_one_cpu()
    try:
        run = Run(workload, seed, work, start)
        metrics, lines = trace_layers(run) if trace else measure(run, seconds, min_jobs, n_setups, setup_seconds)
        failed = run.count_failures(pinned)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    env = environment()
    env.update(
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        probe_ms_before=probe_before,
        probe_ms_after=speed_probe(),
        seconds=round(now() - start, 3),
        pinned_cpu=cpu,
    )
    problems = sorted({p for j in run.jobs for p in j["problems"]})
    written = next((j["hashes"] for j in run.jobs if "hashes" in j), None)
    return {
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": len(run.jobs),
            "failed": failed,
            "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
        },
        "lines": lines
        + [f"error_rate [ratio]: {failed}/{len(run.jobs)}", f"outputs sha256: {json.dumps(written)}"]
        + [f"problem: {p}" for p in problems],
        "env": env,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgewatch" / "cli.py").is_file():
        print(f"no edgewatch sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    from workloads import workloads

    workload = workloads("full")[args.workload]
    out = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), pinned=load_golden(args.workload, args.seed)
    )
    if not out["result"]["metrics"]:
        print("\n".join(out["lines"]), file=sys.stderr)
        return 1
    for line in out["lines"]:
        print(f"{args.workload}: {line}")
    print("env " + json.dumps(out["env"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
