"""What each CLI command imports, checked in a fresh interpreter per command.

Only verify-bound needs scipy (for the closed-form ERM), and it loads it in
its set-up, before the Monte Carlo trials start. The other commands start on
numpy alone, and a run imports nothing once the engine has started.
"""

import json
import os
import subprocess
import sys

import pytest

import fedsim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fedsim.__file__)))
GOLDEN_CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "configs")

# Runs the CLI with the engine and bound entry points wrapped, then prints one
# JSON line: whether scipy was loaded at the end, whether it was loaded when
# verify_theorem1 was entered, and the modules imported after run_experiment
# started.
PROBE = """
import json, sys
from fedsim import cli

seen = {"scipy_at_bound": None, "new_in_run": []}


def _run(*args, **kwargs):
    before = set(sys.modules)
    try:
        return run_experiment(*args, **kwargs)
    finally:
        seen["new_in_run"] += sorted(set(sys.modules) - before)


def _bound(*args, **kwargs):
    seen["scipy_at_bound"] = "scipy" in sys.modules
    return verify_theorem1(*args, **kwargs)


run_experiment, verify_theorem1 = cli.run_experiment, cli.verify_theorem1
cli.run_experiment, cli.verify_theorem1 = _run, _bound
code = cli.main(sys.argv[1:])
seen["scipy"] = "scipy" in sys.modules
print(json.dumps(seen))
sys.exit(code)
"""


def _probe(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=SRC, FEDSIM_WORKERS="1")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv, "--out", str(tmp_path / "out")],
        cwd=GOLDEN_CONFIGS, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "fedals_mlp_labelsorted_worep.json"),
        ("consensus-trace", "trace_fedals_mlp.json"),
        ("sweep", "sweep_fedals_mlp.json", "--grid", "alpha=1,3"),
    ],
    ids=["run", "consensus-trace", "sweep"],
)
def test_commands_on_an_mlp_never_import_scipy(tmp_path, argv):
    seen = _probe(tmp_path, *argv)
    assert seen["scipy"] is False


def test_verify_bound_loads_scipy_before_the_trials(tmp_path):
    seen = _probe(tmp_path, "verify-bound", "bound_perclient_identities.json")
    assert seen["scipy_at_bound"] is True


def test_per_client_run_imports_nothing_once_the_engine_starts(tmp_path):
    # with-replacement sampling, so a sync sees a client sampled twice
    seen = _probe(tmp_path, "run", "fedavg_mlp_batch1_perclient.json")
    assert seen["new_in_run"] == []
