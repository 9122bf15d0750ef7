"""Every name a package module imports is used in that module (``__init__.py`` re-exports), every
function, class and method a module defines, private or public, is read somewhere in the package, and a
run over a trace imports only what it uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgewatch
from edgewatch.ingest import write_flow_log
from edgewatch.synth import EdgeNodeSpec, SynthConfig, generate_trace

PACKAGE = Path(edgewatch.__file__).parent


def imported_names(tree):
    """The names the module's import statements bind, each with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """The names the module reads, including those inside string annotations; a name only bound is not read."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = used_names(tree)
        unused += [f"{path.name}:{line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import IO, Sequence\ndef f(x: 'Sequence[int]') -> int: ...\n"
    source += "from .ingest import read_flow_log\nfor read_flow_log in (): pass\n"  # bound again, never read
    tree = ast.parse(source)
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["os", "IO", "read_flow_log"]


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(tree):
    """The module's top-level functions and classes and its classes' methods but dunders, each with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not is_dunder(node.name):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.lineno


def read_names(tree):
    """The names the module reads as a name, and those it reads as an attribute."""
    loads = [node for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)]
    return (
        {node.id for node in loads if isinstance(node, ast.Name)},
        {node.attr for node in loads if isinstance(node, ast.Attribute)},
    )


def unread(trees, allowed=frozenset()):
    """Each definition outside ``__init__.py`` that no module of ``trees`` reads.

    A function or class counts as read by its name or as an attribute, a method only as an attribute.
    """
    reads = [read_names(tree) for tree in trees.values()]
    attributes = set().union(*(attrs for _, attrs in reads))
    names = attributes.union(*(names for names, _ in reads))
    return [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        if module != "__init__.py"
        for name, line in defined_names(tree)
        if name.rpartition(".")[2] not in (attributes if "." in name else names) and name not in allowed
    ]


# No package code reads Snapshot.n_records or Snapshot.records: perfbench's traced counters do, until
# perfbench reads the package's own stage timer instead (ROADMAP item 2, PR 2d).
UNREAD_ALLOWED = {"Snapshot.n_records", "Snapshot.records"}


def test_every_definition_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert unread(trees, UNREAD_ALLOWED) == []


def test_the_check_sees_an_unread_definition():
    source = "class A:\n    def used(self): ...\n    def unused(self): ...\n    def _own(self): ...\n"
    source += "    def local(self): ...\n"  # read only as a local variable's name, below
    source += "def f(a):\n    return a.used\ndef g(local):\n    return f(A()), local\n"
    assert unread({"m.py": ast.parse(source), "__init__.py": ast.parse("def h(): ...")}) == [
        "m.py:3: A.unused",
        "m.py:4: A._own",
        "m.py:5: A.local",
        "m.py:8: g",
    ]


# Modules that a run loads only for the commands that use them.
OPTIONAL_MODULES = ["numpy.ma", "edgewatch.synth", "edgewatch.streams", "edgewatch.evaluation", "logging",
                    "configparser"]

# Runs the CLI with its arguments, then reports which of OPTIONAL_MODULES it loaded, and how the package's names
# resolve.
RUN_SCRIPT = f"""
import sys
from edgewatch import cli
rc = cli.main(sys.argv[1:])
print(rc, [name for name in {OPTIONAL_MODULES!r} if name in sys.modules])
import edgewatch
print(type(edgewatch.dbscan).__name__, edgewatch.dbscan.__module__, edgewatch.rank_matrix.__module__)
from edgewatch import generate_trace, SynthConfig, GroundTruth
print(generate_trace.__module__, SynthConfig.__module__, GroundTruth.__module__)
try:
    edgewatch.nope
except AttributeError as exc:
    print(exc)
"""

# Each command that reads a trace, with its arguments after --input ({gt} is the trace's ground truth, {out} an
# output directory), and the optional modules it loads.
TRACE_COMMANDS = {
    "timeline": (["--window-days", "1", "--min-flow", "10", "--out-dir", "{out}"], []),
    "drilldown": (["--entry", "1", "--window-days", "1", "--min-flow", "10", "--out-dir", "{out}"], []),
    "sweep": (["--ground-truth", "{gt}", "--window-days", "1", "--min-flow", "10", "--out", "{out}/sweep.csv"],
              ["edgewatch.evaluation"]),
    "rank": (["--out", "{out}/rank.csv"], []),
}


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A small synthetic trace and its ground truth, written once for the module."""
    root = tmp_path_factory.mktemp("trace")
    nodes = (EdgeNodeSpec("AMS", 6, 15.0, 1.5, 52, 1.0), EdgeNodeSpec("FRA", 6, 95.0, 2.0, 64, 1.0))
    records, ground_truth = generate_trace(SynthConfig(nodes=nodes, days=3, flows_per_day=1200, seed=1))
    write_flow_log(root / "trace.tsv", records)
    ground_truth.save(root / "gt.tsv")
    return root / "trace.tsv", root / "gt.tsv"


def run_cli(*argv):
    """RUN_SCRIPT's output lines for the CLI arguments, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", RUN_SCRIPT, *map(str, argv)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.stderr == ""
    return done.stdout.splitlines()


@pytest.mark.parametrize("command", TRACE_COMMANDS)
def test_a_trace_run_loads_neither_numpy_ma_nor_synth(tmp_path, trace, command):
    (path, gt), out = trace, tmp_path / "out"
    args, loaded = TRACE_COMMANDS[command]
    assert run_cli(command, "--input", path, *(a.format(gt=gt, out=out) for a in args))[-4:] == [
        f"0 {loaded}",
        "function edgewatch.dbscan edgewatch.pipeline",
        "edgewatch.synth edgewatch.synth edgewatch.evaluation",
        "module 'edgewatch' has no attribute 'nope'",
    ]
    if command == "timeline":
        assert ":AMS:" in (out / "timeline.csv").read_text()  # the run labelled its stars


def test_only_a_config_file_loads_configparser(tmp_path, trace):
    path, _ = trace
    ini = tmp_path / "run.ini"
    ini.write_text("[pipeline]\nwindow_days = 1\nmin_flow = 10\n", encoding="utf-8")
    flags = run_cli("timeline", "--input", path, "--window-days", "1", "--min-flow", "10", "--out-dir", tmp_path / "a")
    config = run_cli("timeline", "--input", path, "--config", ini, "--out-dir", tmp_path / "b")
    assert (flags[-4], config[-4]) == ("0 []", "0 ['configparser']")
    assert (tmp_path / "a" / "timeline.csv").read_bytes() == (tmp_path / "b" / "timeline.csv").read_bytes()


def test_a_bare_import_loads_neither_synth_nor_evaluation():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = "import sys, edgewatch; print(sorted({'edgewatch.synth', 'edgewatch.evaluation'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert (done.stdout, done.stderr) == ("[]\n", "")
