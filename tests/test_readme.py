"""README's examples run as written, so its names and INI syntax cannot drift from the code."""

import re
from pathlib import Path

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


def test_named_configs_exist_and_load():
    root = README.parent
    named = set(re.findall(r"configs/[\w.-]+\.ini", README.read_text(encoding="utf-8")))
    assert named == {f"configs/{path.name}" for path in (root / "configs").glob("*.ini")}
    for name in sorted(named):
        assert load_synth_config(root / name).nodes
