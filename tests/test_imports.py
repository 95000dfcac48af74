"""What each CLI command imports, checked in a fresh interpreter per command.

Every command runs on numpy alone: none imports scipy, and each still works
when scipy cannot be imported at all. The label partitions do not load
numpy.ma, and a run imports nothing once the engine has started. Every
fedsim name the benchmark in perfbench/ wraps still exists.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import fedsim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fedsim.__file__)))
GOLDEN_CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "configs")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# Runs the CLI with the engine entry point wrapped, then prints one JSON line:
# whether scipy and numpy.ma were loaded at the end, and the modules imported
# after run_experiment started.
PROBE = """
import json, sys
from fedsim import cli

seen = {"new_in_run": []}


def _run(*args, **kwargs):
    before = set(sys.modules)
    try:
        return run_experiment(*args, **kwargs)
    finally:
        seen["new_in_run"] += sorted(set(sys.modules) - before)


run_experiment = cli.run_experiment
cli.run_experiment = _run
code = cli.main(sys.argv[1:])
seen["scipy"] = "scipy" in sys.modules
seen["numpy.ma"] = "numpy.ma" in sys.modules
print(json.dumps(seen))
sys.exit(code)
"""


# a None entry in sys.modules makes every later import of the name fail
NO_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'


def _probe(tmp_path, *argv, prelude=""):
    env = dict(os.environ, PYTHONPATH=SRC, FEDSIM_WORKERS="1")
    proc = subprocess.run(
        [sys.executable, "-c", prelude + PROBE, *argv, "--out", str(tmp_path / "out")],
        cwd=GOLDEN_CONFIGS, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# one golden config per command; the first three are MLP runs
COMMANDS = [
    pytest.param(("run", "fedals_mlp_labelsorted_worep.json"), id="run"),
    pytest.param(("consensus-trace", "trace_fedals_mlp.json"), id="consensus-trace"),
    pytest.param(("sweep", "sweep_fedals_mlp.json", "--grid", "alpha=1,3"), id="sweep"),
    pytest.param(
        ("verify-bound", "bound_perclient_identities.json", "--identities"), id="verify-bound"
    ),
]


@pytest.mark.parametrize("argv", COMMANDS[:3])
def test_commands_on_an_mlp_never_import_scipy(tmp_path, argv):
    seen = _probe(tmp_path, *argv)
    assert seen["scipy"] is False


@pytest.mark.parametrize("argv", COMMANDS)
def test_every_command_runs_with_scipy_unimportable(tmp_path, argv):
    _probe(tmp_path, *argv, prelude=NO_SCIPY)


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "fedals_mlp_labelsorted_worep.json"),
        ("sweep", "fedals_scaffold_mlp_tanh_dirichlet.json", "--grid", "eta=0.05,0.1"),
    ],
    ids=["label-sorted-run", "dirichlet-sweep"],
)
def test_label_partitions_never_load_numpy_ma(tmp_path, argv):
    seen = _probe(tmp_path, *argv)
    assert seen["numpy.ma"] is False


def test_per_client_run_imports_nothing_once_the_engine_starts(tmp_path):
    # with-replacement sampling, so a sync sees a client sampled twice
    seen = _probe(tmp_path, "run", "fedavg_mlp_batch1_perclient.json")
    assert seen["new_in_run"] == []


def _literal_tables(path, *names) -> dict:
    """The literal values assigned to names at the top level of a source file, read, not run."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in names
    }


def test_every_name_the_benchmark_wraps_still_resolves():
    # the tracer looks up each traced name with getattr and the launcher
    # wraps these cli names, so deleting or renaming one breaks the benchmark
    tracer = os.path.join(PERFBENCH, "tracer.py")
    tables = _literal_tables(tracer, "MODULES", "TRACED", "SPAN_ONLY")
    assert set(tables) == {"MODULES", "TRACED", "SPAN_ONLY"}
    modules = {m: importlib.import_module(f"fedsim.{m}") for m in tables["MODULES"]}
    launched = {"cli": ("main", "run_experiment", "verify_theorem1", "ProcessPoolExecutor")}
    missing = [
        f"{home}.{name}"
        for table in (tables["TRACED"], tables["SPAN_ONLY"], launched)
        for home, names in table.items()
        for name in names
        if not callable(getattr(modules[home], name, None))
    ]
    assert missing == []
