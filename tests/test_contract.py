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
- exit 2 is a divergence (`DivergenceError`) and nothing else, and leaves
  no output file but the rows of `run`'s metrics.jsonl before it;
- no JSON or JSONL output holds a NaN or an Infinity, and no CSV cell an
  inf or a nan.

A config that runs is run again with its step size times 1e300, and a bound
config that passes with its coefficients times 1e150. The blow-up may be met
by the step check, an aggregate, a risk, a consensus distance, a sweep row or
a number of the bound report; wherever it is met, the command exits 0 or 2,
never 1.
"""

import contextlib
import copy
import csv
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
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
    """Parse every file written, rejecting JSON's NaN and Infinity and CSV's inf and nan."""
    for name in written:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            if name.endswith(".jsonl"):
                for line in fh:
                    json.loads(line, parse_constant=_no_constant)
            elif name.endswith(".json"):
                json.load(fh, parse_constant=_no_constant)
            else:
                for row in csv.reader(fh):
                    assert not {"inf", "-inf", "nan"} & set(row), (name, row)


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
        assert err.startswith("divergence: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert command == "run" or written == [], (command, err, written)
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


# one client and two seeds whose final risks are finite, near 1e159, but whose
# spread overflows: the sweep row is where the blow-up is met
SPREAD_OVERFLOW = {
    "algorithm": "fedavg",
    "clients": 1,
    "seeds": [1, 2],
    "model": {"family": "ridge", "input_dim": 2, "l2": 0.0},
    "data": {
        "source": {"kind": "gaussian_linear", "dim": 2},
        "partition": {"mode": "per_client"},
        "n_per_client": 8,
    },
    "schedule": {"tau": 1, "eta": 1e80, "rounds": 1, "batch_size": 2},
    "metrics": {"risks_at_sync": False},
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=_experiment_docs(), halve_eta=st.booleans(), blow_up=st.booleans())
@example(doc=SPREAD_OVERFLOW, halve_eta=False, blow_up=False)
def test_experiment_commands_keep_the_exit_code_contract(doc, halve_eta, blow_up):
    doc = copy.deepcopy(doc)  # an explicit example is shared by every run of the test
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


def _coefs_times(doc: dict, factor: float) -> dict:
    """doc with every coefficient of its linear law times factor."""
    doc = dict(doc)
    if "coef" in doc:
        doc["coef"] = [factor * c for c in doc["coef"]]
    elif "client_coefs" in doc:
        doc["client_coefs"] = [[factor * c for c in row] for row in doc["client_coefs"]]
    else:  # a coef_mode, or the default shared_random law of scale 1
        doc["coef_scale"] = factor * doc.get("coef_scale", 1.0)
    return doc


def _check_bound(doc: dict, tmp: str, name: str) -> int:
    path = os.path.join(tmp, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    extra = ["--identities"] if doc.get("identities") else []
    return _check("verify-bound", [path, *extra], os.path.join(tmp, name))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(doc=_bound_docs(), blow_up=st.booleans())
def test_verify_bound_keeps_the_exit_code_contract(doc, blow_up):
    doc["trials"] += 100  # under 100 is a config error; keep the check running
    with tempfile.TemporaryDirectory() as tmp:
        code = _check_bound(doc, tmp, "given")
        if blow_up and code == 0:
            assert _check_bound(_coefs_times(doc, 1e150), tmp, "blown") in (0, 2)
