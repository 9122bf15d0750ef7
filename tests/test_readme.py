"""README's examples run as written, so its names and INI syntax cannot drift from the code."""

import ast
import re
from pathlib import Path

import edgewatch
from edgewatch.cli import main
from edgewatch.synth import load_synth_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(language):
    (block,) = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    return block


def test_synth_config_example_runs(tmp_path):
    ini = tmp_path / "synth.ini"
    ini.write_text(readme_block("ini"), encoding="utf-8")
    config = load_synth_config(ini)
    assert (len(config.nodes), len(config.events)) == (2, 1)
    out = ["--out-trace", str(tmp_path / "trace.tsv"), "--out-ground-truth", str(tmp_path / "gt.tsv")]
    assert main(["synth", "--config", str(ini), *out]) == 0


def test_library_example_imports():
    exec(readme_block("python"), {})


def test_a_star_import_binds_every_library_name():
    (statement,) = ast.parse(readme_block("python")).body
    names = {alias.name for alias in statement.names}
    namespace = {}
    exec("from edgewatch import *", namespace)
    assert names <= namespace.keys() and names <= set(dir(edgewatch))


CSV_TRACE_INI = """
[trace]
days = 2
flows_per_day = 600

[node MIL]
caches = 6
rtt_median_ms = 15
ttl = 50

[node FRA]
caches = 6
rtt_median_ms = 95
ttl = 64
"""


def test_csv_headers_documented(tmp_path):
    """Each kind of CSV the command line writes starts with a header that "File formats" shows verbatim."""
    formats = README.read_text(encoding="utf-8").split("\n## File formats\n")[1].split("\n## ")[0]
    (tmp_path / "synth.ini").write_text(CSV_TRACE_INI, encoding="utf-8")
    ini, trace, gt, out = (str(tmp_path / name) for name in ("synth.ini", "trace.tsv", "gt.tsv", "out"))
    pipeline = ["--input", trace, "--window-days", "1", "--min-flow", "5", "--out-dir", out]
    for argv in (
        ["synth", "--config", ini, "--out-trace", trace, "--out-ground-truth", gt],
        ["timeline", "--dump-clusters", "--dump-features", *pipeline],
        ["drilldown", "--entry", "1", *pipeline],
        ["sweep", "--ground-truth", gt, "--eps-grid", "0.04", "--out", f"{out}/sweep.csv", *pipeline[:-2]],  # no --out-dir
        ["calibrate", "--stars", "2", "--e-grid", "0", "--trials", "1", "--out", f"{out}/calibrate.csv"],
        ["rank", "--input", trace, "--out", f"{out}/rank.csv"],
    ):
        assert main(argv) == 0, argv
    headers = {path.stem.split("_")[0]: path.read_text().split("\n")[0] for path in Path(out).glob("*.csv")}
    assert len(headers) == 8, sorted(headers)
    assert {name: header for name, header in headers.items() if header not in formats} == {}


def test_named_configs_exist_and_load():
    root = README.parent
    named = set(re.findall(r"configs/[\w.-]+\.ini", README.read_text(encoding="utf-8")))
    assert named == {f"configs/{path.name}" for path in (root / "configs").glob("*.ini")}
    for name in sorted(named):
        assert load_synth_config(root / name).nodes
