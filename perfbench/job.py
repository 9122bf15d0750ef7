"""Run one edgewatch CLI job in this fresh process, the way the console script does.

Usage: python3 perfbench/job.py SPEC.json

SPEC holds ``argv`` for ``edgewatch.cli.main``, ``trace`` (record spans),
``drill`` (``null`` or the entry, repeat count and CSV path of a follow-up
drill-down), ``sample`` (run the CPU-speed sampler of speed.py) and
``result`` (where this process writes its JSON report).

The report gives the CLOCK_MONOTONIC time at which ``main`` returned, that
is, when the job's CSVs were written, and the CPU time and peak RSS of the
process at that moment, and, when sampled, the CPU's mean speed from the
start of this script until then. A drill-down follows only after that, so
it is not part of the job's figures.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

from spans import Boundary, Tracer, install, now, restore
from speed import Sampler


def _arg(fn_args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else fn_args[index]


def _count_lines(counts, args, kwargs, result):
    counts["ingest.lines"] += len(result)


def _count_windows(counts, args, kwargs, result):
    counts["ingest.window_memberships"] += sum(s.n_records for s in result)


def _count_features(counts, args, kwargs, result):
    snapshot = _arg(args, kwargs, 0, "snapshot")
    counts["features.caches_kept"] += len(result)
    counts["features.caches_dropped"] += len(snapshot.records) - len(result)


def _count_dbscan(counts, args, kwargs, result):
    counts["dbscan.points"] += len(_arg(args, kwargs, 0, "points"))
    counts["dbscan.clusters"] += result.n_clusters
    counts["dbscan.noise"] += len(result.noise)


def _count_cd(counts, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    counts["constellation.cd_calls"] += 1
    counts["constellation.star_pairs"] += 2 * len(a) * len(b)


def _count_trials(counts, args, kwargs, result):
    counts["evaluation.trials"] += _arg(args, kwargs, 2, "trials")


# Each name is patched in the module that calls it (see spans.py).
BOUNDARIES = [
    Boundary("edgewatch.cli", "read_flow_log", "ingest.read", count=_count_lines),
    Boundary("edgewatch.cli", "run_timeline", "pipeline.timeline"),
    Boundary("edgewatch.cli", "write_timeline_csv", "pipeline.write"),
    Boundary("edgewatch.cli", "write_couplings_csv", "pipeline.write"),
    Boundary("edgewatch.cli", "cd_calibration", "evaluation.calibration", count=_count_trials),
    Boundary("edgewatch.pipeline", "read_flow_log", "ingest.read", count=_count_lines),
    Boundary("edgewatch.pipeline", "window_flows", "ingest.window", count=_count_windows),
    Boundary("edgewatch.pipeline", "parse_cache_hostname", None, counter="ingest.hostname_decodes"),
    Boundary("edgewatch.pipeline", "analyze_snapshot", "pipeline.analyze"),
    Boundary("edgewatch.pipeline", "extract_cache_features", "features.extract", count=_count_features),
    Boundary("edgewatch.pipeline", "normalize_snapshot", "features.normalize"),
    Boundary("edgewatch.pipeline", "dbscan", "dbscan.cluster", count=_count_dbscan),
    Boundary("edgewatch.pipeline", "build_constellation", "constellation.build"),
    Boundary("edgewatch.pipeline", "constellation_distance", "constellation.cd", count=_count_cd),
    Boundary("edgewatch.evaluation", "constellation_distance", "constellation.cd", count=_count_cd),
]


def run(spec: dict, sampler: Sampler | None) -> dict:
    import edgewatch.cli as cli
    import edgewatch.pipeline as pipeline

    tracer = Tracer(job="main") if spec["trace"] else None
    saved: list[tuple] = []
    missing: list[str] = []
    captured: dict = {}
    report: dict = {"edgewatch": cli.__file__}
    try:
        if tracer is not None:
            saved, missing = install(tracer, BOUNDARIES)
        if spec["drill"] is not None:
            # Keep the timeline's inputs and result for the follow-up query.
            timeline = cli.run_timeline
            signature = inspect.signature(timeline)

            def capture(*args, **kwargs):
                result = timeline(*args, **kwargs)
                captured.update(signature.bind(*args, **kwargs).arguments, result=result)
                return result

            saved.append((cli, "run_timeline", timeline))
            cli.run_timeline = capture
        report["t_main"] = now()
        if tracer is not None:
            rc = tracer.call("cli.main", cli.main, spec["argv"])
        else:
            rc = cli.main(spec["argv"])
        report["t_done"] = now()
        if sampler is not None:
            report["speed"] = sampler.stop()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        report.update(rc=rc, cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kb=usage.ru_maxrss)
        if rc == 0 and spec["drill"] is not None:
            report["drill_s"] = drill(spec["drill"], captured, pipeline, tracer)
    finally:
        restore(saved)
    if tracer is not None:
        report.update(
            spans=[asdict(s) for s in tracer.spans], counts=dict(tracer.counts), missing=missing
        )
    return report


def drill(spec: dict, captured: dict, pipeline, tracer: Tracer | None) -> list[float]:
    """Time ``pipeline.drilldown`` on one entry of the captured timeline."""
    entry = captured["result"].entries[spec["entry"]]
    args = (entry, captured["records"], captured["config"])
    times = []
    if tracer is not None:
        tracer.job = "drilldown"
    for _ in range(spec["repeats"]):
        start = now()
        if tracer is not None:
            report = tracer.call("pipeline.drilldown", pipeline.drilldown, *args)
        else:
            report = pipeline.drilldown(*args)
        times.append(now() - start)
    pipeline.write_drilldown_csv(spec["out"], report)
    return times


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    sampler = Sampler().start() if spec["sample"] else None
    report = run(spec, sampler)
    Path(spec["result"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
