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
- exit 2 is a divergence (`DivergenceError`) and nothing else;
- no JSON or JSONL output holds a NaN or an Infinity.

A config that runs is run again with its step size times 1e300. The blow-up
may be met by the step check, an aggregate, a risk or a consensus distance;
wherever it is met, the command exits 0 or 2, never 1.
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


def _no_constant(token: str):
    raise AssertionError(f"an output holds the non-finite number {token}")


def _parse_outputs(out_dir: str, written: list) -> None:
    """Parse every JSON and JSONL file written, rejecting NaN and Infinity."""
    for name in written:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            if name.endswith(".jsonl"):
                for line in fh:
                    json.loads(line, parse_constant=_no_constant)
            elif name.endswith(".json"):
                json.load(fh, parse_constant=_no_constant)


def _check(command: str, argv: list, out_dir: str) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, *argv, "--out", out_dir])
    err = stderr.getvalue()
    written = [f for f in OUTPUTS[command] if os.path.exists(os.path.join(out_dir, f))]
    assert code in (0, 1, 2), (command, code, err)
    _parse_outputs(out_dir, written)
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


def _check_commands(doc: dict, halve_eta: bool, out: str) -> dict:
    """The exit code of run, sweep and consensus-trace on doc, each checked by _check."""
    eta = doc["schedule"]["eta"]
    grid = f"eta={eta!r},{eta / 2!r}" if halve_eta else f"eta={eta!r}"
    with open("config.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return {
        "run": _check("run", ["config.json"], os.path.join(out, "run")),
        "sweep": _check("sweep", ["config.json", "--grid", grid], os.path.join(out, "sweep")),
        "consensus-trace": _check("consensus-trace", ["config.json"], os.path.join(out, "trace")),
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=_experiment_docs(), halve_eta=st.booleans(), blow_up=st.booleans())
def test_experiment_commands_keep_the_exit_code_contract(doc, halve_eta, blow_up):
    doc.pop("output", None)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # a file source names samples.csv relative to here
        try:
            if doc["data"]["source"]["kind"] == "file":
                _samples_file(doc, "samples.csv")
            codes = _check_commands(doc, halve_eta, "given")
            if blow_up:
                doc["schedule"]["eta"] *= 1e300
                blown = _check_commands(doc, halve_eta, "blown")
                for command, code in codes.items():
                    if code == 0:
                        assert blown[command] in (0, 2), (command, blown[command])
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
