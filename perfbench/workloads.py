"""The benchmark's workloads: synthetic inputs, the CLI job, and output checks.

Every input is built here from the benchmark's ``--seed``; nothing is taken
from the test suite or the experiment scripts, so changing a test fixture
cannot change a workload. The job receives only the generated files.

``full`` is the size the benchmark runs. ``smoke`` is a scaled-down copy
of each workload that the self-test runs in seconds.
"""

from __future__ import annotations

import csv
import itertools
import math
import string
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from edgewatch.synth import EdgeNodeSpec, EventSpec, SynthConfig

DEATH_LABEL = "AMS"
DRILL_CSV = "drilldown.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    synth: Callable[[int], SynthConfig] | None  # seed -> trace config; None: no input
    argv: Callable[[Path, Path, int], list[str]]  # (trace, out_dir, seed) -> CLI argv
    outputs: tuple[str, ...]  # files the job writes into out_dir
    check: Callable[[Path], list[str]]  # out_dir -> problems found
    drill_entry: int | None = None  # timeline entry the operator drills into, into DRILL_CSV


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fp:
        return list(csv.DictReader(fp))


# --- event-weekly -----------------------------------------------------------


def event_config(seed: int, days: int, flows_per_day: int, death_day: int, shift_day: int) -> SynthConfig:
    """Four single-label nodes, a 7-node AMS group that dies, a 5-node FRA
    group whose paths shift by +80 ms.

    The AMS group carries most of the load. A 7-day window that holds only
    the group's last live day must still give each AMS cache the default 50
    flows; otherwise its caches drop out one window at a time and the death
    spreads over several small CD steps instead of one flagged entry.
    """
    nodes = [
        EdgeNodeSpec(label, 8, rtt, 1.5, ttl, 600.0)
        for label, rtt, ttl in (("MIL", 12.0, 52), ("TOR", 18.0, 54), ("PAR", 24.0, 56), ("LON", 30.0, 58))
    ]
    nodes += [
        EdgeNodeSpec(DEATH_LABEL, 7, rtt, 1.5, ttl, 2700.0)
        for rtt, ttl in zip((40, 49, 58, 67, 76, 85, 94), (200, 204, 208, 212, 216, 220, 224))
    ]
    nodes += [
        EdgeNodeSpec("FRA", 7, rtt, 1.5, ttl, 600.0)
        for rtt, ttl in zip((36, 40, 44, 48, 52), (62, 66, 70, 74, 78))
    ]
    return SynthConfig(
        nodes=tuple(nodes),
        events=(
            EventSpec("node_death", DEATH_LABEL, start_day=death_day, end_day=days - 1),
            EventSpec("path_shift", "FRA", start_day=shift_day, end_day=days - 1, magnitude=80.0),
        ),
        days=days,
        flows_per_day=flows_per_day,
        rank_churn=0.0,
        seed=seed,
    )


def check_event(out_dir: Path, death_entry: int) -> list[str]:
    """The first window without the dead group is flagged, with it on top."""
    problems = []
    rows = {int(r["snapshot"]): r for r in _read_csv(out_dir / "timeline.csv")}
    row = rows.get(death_entry)
    if row is None:
        return [f"timeline.csv has no entry {death_entry}"]
    if row["flag"] not in ("event", "major"):
        problems.append(f"entry {death_entry} not flagged (cd={row['cd']})")
    top = row["top_stars"].split(";")[0].split(":")
    if len(top) < 2 or top[1] != DEATH_LABEL:
        problems.append(f"entry {death_entry} top star is {row['top_stars']!r}, want {DEATH_LABEL}")
    drill = _read_csv(out_dir / DRILL_CSV)
    if not drill or drill[0]["label"] != DEATH_LABEL:
        problems.append(f"drill-down of entry {death_entry} does not lead with {DEATH_LABEL}")
    return problems


# --- wide-daily -------------------------------------------------------------


def node_labels() -> Iterator[str]:
    """Distinct three-letter labels AAA, AAB, ... (17,576 available)."""
    return ("".join(t) for t in itertools.product(string.ascii_uppercase, repeat=3))


def wide_config(seed: int, n_nodes: int, flows_per_node_day: int, days: int) -> SynthConfig:
    """``n_nodes`` 8-cache nodes on a square grid: RTT medians 10 ms apart by TTLs 8 apart.

    Neighbouring nodes sit at least two epsilons apart in the normalized
    space, so each live node should form exactly one cluster.
    """
    side = math.isqrt(n_nodes - 1) + 1
    labels = node_labels()
    nodes = tuple(
        EdgeNodeSpec(next(labels), 8, 10.0 + 10.0 * (i // side), 1.5, 4 + 8 * (i % side), 1.0)
        for i in range(n_nodes)
    )
    return SynthConfig(
        nodes=nodes, days=days, flows_per_day=n_nodes * flows_per_node_day, rank_churn=0.0, seed=seed
    )


def stars_per_snapshot(couplings: Path) -> dict[int, int]:
    """Star count of every snapshot, read off the coupling rows of its pairs."""
    stars: dict[int, set[str]] = defaultdict(set)
    for r in _read_csv(couplings):
        snapshot = int(r["snapshot_n"] if r["side"] == "a" else r["snapshot_n1"])
        stars[snapshot].add(r["star_id"])
    return {k: len(v) for k, v in stars.items()}


def check_wide(out_dir: Path, n_nodes: int, tolerance: float) -> list[str]:
    """Every snapshot forms one cluster per node, give or take ``tolerance``."""
    counts = stars_per_snapshot(out_dir / "couplings.csv")
    if not counts:
        return ["couplings.csv has no stars"]
    low = n_nodes * (1.0 - tolerance)
    return [
        f"snapshot {k} has {v} clusters for {n_nodes} nodes"
        for k, v in sorted(counts.items())
        if not low <= v <= n_nodes
    ]


# --- calibrate --------------------------------------------------------------


def check_calibrate(out_dir: Path) -> list[str]:
    """CD is 0 without displacement, and mean CD does not fall as e grows."""
    curves: dict[tuple[str, str], list[tuple[float, float]]] = defaultdict(list)
    for r in _read_csv(out_dir / "calib.csv"):
        curves[r["stars"], r["extra_stars"]].append((float(r["e"]), float(r["mean_cd"])))
    if not curves:
        return ["calib.csv is empty"]
    problems = []
    for key, curve in sorted(curves.items()):
        curve.sort()
        if curve[0] != (0.0, 0.0):
            problems.append(f"stars={key[0]}: CD at e={curve[0][0]} is {curve[0][1]}, want 0")
        if any(b[1] < a[1] for a, b in zip(curve, curve[1:])):
            problems.append(f"stars={key[0]}: mean CD falls as e grows")
    return problems


# --- the registry -----------------------------------------------------------

SIZES = {
    # days, flows/day, AMS death day (= flagged entry), FRA shift day
    "event-weekly": {"full": (9, 10_000, 2, 5), "smoke": (8, 10_000, 1, 4)},
    # nodes, flows per node per day, days
    "wide-daily": {"full": (300, 60, 2), "smoke": (60, 200, 2)},
    # star counts, trials
    "calibrate": {"full": ("5,10,20,40", 10), "smoke": ("5,10", 4)},
}
WIDE_TOLERANCE = 0.03


def workloads(scale: str = "full") -> dict[str, Workload]:
    days, flows_per_day, death_day, shift_day = SIZES["event-weekly"][scale]
    n_nodes, flows_per_node_day, wide_days = SIZES["wide-daily"][scale]
    stars, trials = SIZES["calibrate"][scale]
    event = Workload(
        name="event-weekly",
        synth=lambda seed: event_config(seed, days, flows_per_day, death_day, shift_day),
        # The CLI defaults: 7-day window, 1-day step, min-flow 50.
        argv=lambda trace, out, seed: ["timeline", "--input", str(trace), "--out-dir", str(out)],
        outputs=("timeline.csv", "couplings.csv", DRILL_CSV),
        check=lambda out: check_event(out, death_day),
        drill_entry=death_day,
    )
    wide = Workload(
        name="wide-daily",
        synth=lambda seed: wide_config(seed, n_nodes, flows_per_node_day, wide_days),
        argv=lambda trace, out, seed: [
            "timeline", "--input", str(trace), "--out-dir", str(out),
            "--window-days", "1", "--min-flow", "3",
        ],
        outputs=("timeline.csv", "couplings.csv"),
        check=lambda out: check_wide(out, n_nodes, WIDE_TOLERANCE),
    )
    calibrate = Workload(
        name="calibrate",
        synth=None,
        argv=lambda trace, out, seed: [
            "calibrate", "--stars", stars, "--e-grid", "0.0:0.5:0.05", "--extra-stars", "0",
            "--trials", str(trials), "--seed", str(seed), "--out", str(out / "calib.csv"),
        ],
        outputs=("calib.csv",),
        check=check_calibrate,
    )
    return {w.name: w for w in (event, wide, calibrate)}
