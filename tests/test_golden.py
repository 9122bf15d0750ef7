"""Golden outputs: sha256 pins of every file writer's output.

The digests lock today's outputs byte for byte, so a refactor that shifts
one float by one ulp fails here. An intended output change regenerates the
digests in its own change and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from edgewatch.cli import main
from edgewatch.features import extract_cache_features_mean_std
from edgewatch.pipeline import (
    PipelineConfig,
    drilldown,
    run_timeline,
    write_couplings_csv,
    write_drilldown_csv,
    write_timeline_csv,
)

SYNTH_INI = """
[trace]
days = 9
flows_per_day = 1800
rank_churn = 0.2
seed = 5

[node MIL]
caches = 6
rtt_median_ms = 15
rtt_spread_ms = 1.5
ttl = 52

[node PAR]
caches = 6
rtt_median_ms = 40
rtt_spread_ms = 2.0
ttl = 58

[node FRA]
caches = 6
rtt_median_ms = 95
rtt_spread_ms = 2.0
ttl = 64

[event shift]
kind = path_shift
target = PAR
start_day = 8
end_day = 8
magnitude = 30
"""

EVENT_TIMELINE_DIGESTS = {
    "timeline.csv": "b02ce977a983ffaf9053738f59b57bbef22549bb1762875e6add293e05a14cb9",
    "couplings.csv": "a0780c6b59f7c7ae7697b912ca91c6e0dab75b7e697cca387bd55ea30480ed82",
    "drilldown_0010.csv": "250064e282f7c1ac4779922b2ab5dcbae63230e2ddc7bdc6e3319670aee9d844",
    "drilldown_0018.csv": "4dd6107c5f635a34ec0a91a98536329dd4b4020fd49ed72fbbdcd0e91e4586d3",
    "mean_std_0010.bin": "72b56d08403e09e25cc98bbbf02262661abebfd4bed26cf754ff1bf995088e99",
}

# The same trace with the CLI's default 7-day windows; entry 10 is its only
# flagged entry.
WEEKLY_EVENT_TIMELINE_DIGESTS = {
    "timeline.csv": "8dc084c965730aca19f0873c13fca4deaaf16319ccb7d0be19c2be3a47457e05",
    "couplings.csv": "c4c65f077ab1b8dbae6ab9e7e041a219e76d53d50d59603df247fc67e3a0d087",
    "drilldown_0010.csv": "014b4a24d71307cace827e55e9fd89c2e9dafb5a42897ab8229b113333967c10",
}

CLI_DIGESTS = {
    "synth/trace.tsv": "b13a4fcc2d121b80f8d7fb8cf633c34682953031da999aa384a2f1458521acd7",
    "synth/gt.tsv": "d4e98381a2513b7b9f1423e8a03b4bbf7aa2358f695957dacd75a95f66cca9f1",
    "timeline/timeline.csv": "b7d0082276ef8c3705c6bfb8f2faac519ddd53ceab8d3f978f1c8ccdfa96df7c",
    "timeline/couplings.csv": "3c1cb2fb07186f7e85c52df18cba0119afb54c0e947372f593a845fc03e897dc",
    "timeline/clusters_0000.csv": "081577eac986cefb51ebb3d6b8eec238f53f311b5aa6b10b70ceab3f2aa76452",
    "timeline/clusters_0001.csv": "081577eac986cefb51ebb3d6b8eec238f53f311b5aa6b10b70ceab3f2aa76452",
    "timeline/clusters_0002.csv": "2bc0f44b021f342677a76927f27e5cab548f451aac64e341f8f689d81f4918e7",
    "timeline/features_0000.csv": "7a78a5ad0a677f8081205ae786a09046257ff9fd257ae1b67d579b93f297dee7",
    "timeline/features_0001.csv": "2b3761929f5910a273127e7228eb7bff86e3c22cbbc9cb37d26846ccae9c9590",
    "timeline/features_0002.csv": "bed3dc506658a25f4b9693d549159326f20811ba711860cfc4f5833f1ecd32e6",
    "drilldown/drilldown_0002.csv": "d8133fbe06fd2bc2f87359949d1e9db0c11eb358e276e92f307249440943d8ac",
    "sweep_percentiles.csv": "760105271c481e51470fbbff0b59d7f8f2fd43dfbc3e0023865541b8f3f38433",
    "sweep_mean_std.csv": "763f68a331a8cc6c7b07368fd25db97be6d9e765be2d0c820e4c50b59478ccaa",
    "calibrate.csv": "fe852d0f930ca9cb7648ce22343c4a0d217845648af321d6e4f72162bb9b2a7c",
    "rank.csv": "d64ba00e148038f12648f606ee5602bcb3304b5a4c58a43ea34e529bcf568843",
}


def digests(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def run_cli(root):
    """Write every CLI output under ``root``: one small run per subcommand."""
    ini = root / "synth.ini"
    ini.write_text(SYNTH_INI)
    trace, gt = root / "synth" / "trace.tsv", root / "synth" / "gt.tsv"
    trace.parent.mkdir()
    runs = [
        ["synth", "--config", str(ini), "--out-trace", str(trace), "--out-ground-truth", str(gt)],
        ["timeline", "--input", str(trace), "--out-dir", str(root / "timeline"),
         "--dump-clusters", "--dump-features"],
        ["drilldown", "--input", str(trace), "--entry", "2", "--event-threshold", "0.01",
         "--out-dir", str(root / "drilldown")],
        ["sweep", "--input", str(trace), "--ground-truth", str(gt), "--eps-grid", "0.002:0.04:0.002",
         "--feature-mode", "percentiles", "--out", str(root / "sweep_percentiles.csv")],
        ["sweep", "--input", str(trace), "--ground-truth", str(gt), "--eps-grid", "0.002:0.04:0.002",
         "--feature-mode", "mean_std", "--out", str(root / "sweep_mean_std.csv")],
        ["calibrate", "--stars", "3,5", "--e-grid", "0.0,0.1,0.25", "--extra-stars", "0,1",
         "--trials", "4", "--seed", "3", "--out", str(root / "calibrate.csv")],
        ["rank", "--input", str(trace), "--out", str(root / "rank.csv")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    run_cli(root)
    return root


def test_cli_outputs_match_golden(cli_outputs):
    written = sorted(
        str(p.relative_to(cli_outputs)) for p in cli_outputs.rglob("*") if p.is_file()
    )
    assert written == sorted([*CLI_DIGESTS, "synth.ini"])
    assert digests(cli_outputs, CLI_DIGESTS) == CLI_DIGESTS


def write_event_outputs(root, result, records, config):
    write_timeline_csv(root / "timeline.csv", result.entries)
    write_couplings_csv(root / "couplings.csv", result)
    for index in (10, 18):
        report = drilldown(result.entries[index], records, config)
        write_drilldown_csv(root / f"drilldown_{index:04d}.csv", report)
    # The mean/std extractor has no writer; pin its raw float bytes instead,
    # as the cache id before each of its metric blocks.
    features = extract_cache_features_mean_std(result.states[10].snapshot)
    (root / "mean_std_0010.bin").write_bytes(
        b"".join(
            cache_id.encode() + block.tobytes()
            for cache_id, row in zip(features.cache_ids, features.raw)
            for block in np.split(row, 2)
        )
    )


def test_event_timeline_outputs_match_golden(event_timeline, tmp_path):
    result, records, config, _ = event_timeline
    write_event_outputs(tmp_path, result, records, config)
    assert digests(tmp_path, EVENT_TIMELINE_DIGESTS) == EVENT_TIMELINE_DIGESTS


def test_weekly_event_timeline_outputs_match_golden(event_trace, tmp_path):
    records, _ = event_trace
    config = PipelineConfig()
    result = run_timeline(config, records)
    write_timeline_csv(tmp_path / "timeline.csv", result.entries)
    write_couplings_csv(tmp_path / "couplings.csv", result)
    write_drilldown_csv(
        tmp_path / "drilldown_0010.csv", drilldown(result.entries[10], records, config)
    )
    assert digests(tmp_path, WEEKLY_EVENT_TIMELINE_DIGESTS) == WEEKLY_EVENT_TIMELINE_DIGESTS
