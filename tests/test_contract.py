"""The exit-code contract, checked on generated configs.

Every valid experiment config the strategies of tests/test_config.py draw is
run through `run`, a `sweep` (multi-seed points included) and
`consensus-trace`, and every valid bound config through `verify-bound`, all
on tiny sizes. Whatever the config, each command must keep the contract:

- the exit code is 0, 1 or 2, and no exception escapes `main`;
- a command that fails writes exactly one line to stderr;
- a command that exits 1 with an error leaves none of its output files; the
  one other exit 1, a `verify-bound` check that fails, writes its report and
  no stderr;
- exit 2 is a divergence (`DivergenceError`) and nothing else.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import _bound_docs, _experiment_docs

from fedsim.cli import main

OUTPUTS = {
    "run": ("metrics.jsonl", "summary.json"),
    "sweep": ("sweep.csv",),
    "consensus-trace": ("consensus.csv", "consensus_summary.json"),
    "verify-bound": ("bound_report.json",),
}


def _samples_file(doc: dict, path: str) -> None:
    """40 samples whose features and labels fit the doc's model."""
    rng = np.random.default_rng(0)
    model = doc["model"]
    X = rng.standard_normal((40, model["input_dim"]))
    if model["family"] == "mlp":
        y = rng.integers(0, model["num_classes"], size=40)
    elif model["family"] == "logistic_l2":
        y = rng.choice([-1, 1], size=40)
    else:
        y = rng.standard_normal(40)
    np.savetxt(path, np.column_stack([X, y]), delimiter=",")


def _check(command: str, argv: list, out_dir: str) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, *argv, "--out", out_dir])
    err = stderr.getvalue()
    written = [f for f in OUTPUTS[command] if os.path.exists(os.path.join(out_dir, f))]
    assert code in (0, 1, 2), (command, code, err)
    if code == 0:
        assert err.count("\n") <= 1 and written == list(OUTPUTS[command]), (command, err)
    elif code == 2:
        assert command != "verify-bound" and err.startswith("divergence: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
    elif err:
        assert err.startswith(("config error: ", "file error: ")), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert written == [], (command, err, written)
    else:  # a verify-bound check failed: the report says which
        assert command == "verify-bound" and "FAIL" in stdout.getvalue()
        assert written == list(OUTPUTS[command])
    return code


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=_experiment_docs(), halve_eta=st.booleans())
def test_experiment_commands_keep_the_exit_code_contract(doc, halve_eta):
    doc.pop("output", None)
    eta = doc["schedule"]["eta"]
    grid = f"eta={eta!r},{eta / 2!r}" if halve_eta else f"eta={eta!r}"
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # a file source names samples.csv relative to here
        try:
            if doc["data"]["source"]["kind"] == "file":
                _samples_file(doc, "samples.csv")
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            _check("run", ["config.json"], "run")
            _check("sweep", ["config.json", "--grid", grid], "sweep")
            _check("consensus-trace", ["config.json"], "trace")
        finally:
            os.chdir(cwd)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(doc=_bound_docs())
def test_verify_bound_keeps_the_exit_code_contract(doc):
    doc["trials"] += 100  # under 100 is a config error; keep the check running
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bound.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        extra = ["--identities"] if doc.get("identities") else []
        _check("verify-bound", [path, *extra], os.path.join(tmp, "out"))
