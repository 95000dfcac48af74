"""Sync risks computed in a forked helper process: same bytes, same errors, no leftovers.

`run` forks one helper that evaluates the sync-time risks while training goes
on. Everything it writes must equal the inline path's output byte for byte:
the metrics rows and summary on success, and on a failure the exit code, the
stderr line and the rows kept before it. The helper must also never outlive
the run, however the run ends.
"""

import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from test_config import _experiment_docs
from test_contract import _samples_file
from test_run_axis import _recorder, _same_result, _shards, _stacks

import fedsim
from fedsim import cli, engine
from fedsim.data import GaussianLinear
from fedsim.engine import DivergenceError, RunSpec, ScheduleSpec, run_experiments
from fedsim.models import RidgeSpec

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_CONFIGS = os.path.join(HERE, "golden", "configs")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fedsim.__file__)))
OUTPUTS = ("metrics.jsonl", "summary.json")


def _golden_doc(name="fedals_mlp_labelsorted_worep"):
    with open(os.path.join(GOLDEN_CONFIGS, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(doc, out_dir, overlap):
    """cli run on doc with the helper forced on or off: (exit code, stderr on failure, outputs)."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    stderr = io.StringIO()
    with mock.patch.object(cli, "_can_overlap_risks", lambda: overlap):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["run", path, "--out", os.path.join(out_dir, "out")])
    files = {}
    for name in OUTPUTS:
        out = os.path.join(out_dir, "out", name)
        if os.path.exists(out):
            with open(out, "rb") as fh:
                files[name] = fh.read()
    # a success reports its elapsed time; a failure's one line must match
    return code, stderr.getvalue() if code else None, files


def _both_ways(doc, tmp):
    inline = _run(doc, os.path.join(tmp, "inline"), False)
    overlapped = _run(doc, os.path.join(tmp, "overlap"), True)
    assert overlapped == inline
    return inline


@settings(max_examples=40, deadline=None, derandomize=True)
@given(doc=_experiment_docs())
def test_run_writes_the_same_bytes_with_and_without_the_helper(doc):
    doc.pop("output", None)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # a file source names samples.csv relative to here
        try:
            if doc["data"]["source"]["kind"] == "file":
                _samples_file(doc, "samples.csv")
            _both_ways(doc, tmp)
        finally:
            os.chdir(cwd)


def test_per_client_risks_and_a_ridge_closed_form_match(tmp_path):
    for name in ("fedavg_mlp_batch1_perclient", "scaffold_ridge_perclient_withrep"):
        code, _, files = _both_ways(_golden_doc(name), str(tmp_path / name))
        assert code == 0 and set(files) == set(OUTPUTS)


def _counting(real, fail_at, failure):
    """real, except that its call number fail_at (in this process) calls failure."""
    calls = [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        if calls[0] == fail_at:
            failure()
        return real(*args, **kwargs)

    wrapped.calls = calls
    return wrapped


def _synced(tmp_path):
    """The averaged parameters of each sync of the golden run, in order."""
    real, synced = engine._sync_risks, []

    def recording(model, avg, *rest):
        synced.append(avg.values.copy())
        return real(model, avg, *rest)

    with mock.patch.object(engine, "_sync_risks", recording):
        _run(_golden_doc(), str(tmp_path / "probe"), False)
    return synced


def _failing_at(synced, sync, error=ValueError):
    """engine._sync_risks, except that it raises at sync number sync (from 1).

    The failure is keyed on that sync's parameters, so it fires in whichever
    process computes the sync: the helper, and then the run that computes it
    again.
    """
    real = engine._sync_risks

    def risks(model, avg, *rest):
        if np.array_equal(avg.values, synced[sync - 1]):
            raise error(f"risk failed at sync {sync}")
        return real(model, avg, *rest)

    return risks


def _divergence():
    raise DivergenceError("loss is non-finite.", 0)


# golden fedals: tau 3, 8 rounds, a sync every 3 steps and a record every step
@pytest.mark.parametrize("sync, steps_after", [(1, 1), (2, 2), (3, 4), (5, 7), (8, 100)])
def test_a_risk_failure_wins_over_a_later_divergence(tmp_path, monkeypatch, sync, steps_after):
    doc = _golden_doc()
    synced = _synced(tmp_path)
    results = []
    for overlap in (False, True):
        monkeypatch.setattr(engine, "_sync_risks", _failing_at(synced, sync))
        divergence_step = 3 * sync + steps_after
        step = _counting(engine.local_sgd_step, divergence_step, _divergence)
        monkeypatch.setattr(engine, "local_sgd_step", step)
        results.append(_run(doc, str(tmp_path / str(overlap)), overlap))
        monkeypatch.undo()
    assert results[0] == results[1]
    code, err, files = results[0]
    assert code == 1 and err == f"config error: risk failed at sync {sync}\n"
    rows = files["metrics.jsonl"].decode().splitlines()
    # the provenance, then every record before the failing sync's
    assert len(rows) == 1 + 3 * sync - 1


@pytest.mark.parametrize("step", [1, 3, 4, 10, 24])
def test_a_divergence_keeps_the_same_rows(tmp_path, monkeypatch, step):
    results = []
    for overlap in (False, True):
        monkeypatch.setattr(
            engine, "local_sgd_step", _counting(engine.local_sgd_step, step, _divergence)
        )
        results.append(_run(_golden_doc(), str(tmp_path / str(overlap)), overlap))
        monkeypatch.undo()
    assert results[0] == results[1]
    code, err, files = results[0]
    assert code == 2 and err.startswith(f"divergence: round {(step - 1) // 3 + 1} step {step} ")
    # the provenance and each step's record before the failing one, if any
    rows = files.get("metrics.jsonl", b"").decode().splitlines()
    assert len(rows) == (step if step > 1 else 0)


@pytest.mark.parametrize("request_no", [1, 2, 8])
def test_a_helper_that_dies_leaves_the_rest_to_the_run(tmp_path, monkeypatch, request_no):
    inline = _run(_golden_doc(), str(tmp_path / "inline"), False)
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            os._exit(3)

    risks = _counting(engine._sync_risks, request_no, die)
    monkeypatch.setattr(engine, "_sync_risks", risks)
    assert _run(_golden_doc(), str(tmp_path / "overlap"), True) == inline
    # this process computed the dead helper's sync and each one after it
    assert risks.calls[0] == 8 - request_no + 1


@pytest.mark.parametrize("request_no", [1, 4, 8])
def test_a_failure_only_the_helper_meets_leaves_the_inline_bytes(
    tmp_path, monkeypatch, request_no
):
    inline = _run(_golden_doc(), str(tmp_path / "inline"), False)
    parent = os.getpid()

    def fail_in_helper():
        if os.getpid() != parent:
            raise MemoryError("only the helper ran out")

    risks = _counting(engine._sync_risks, request_no, fail_in_helper)
    monkeypatch.setattr(engine, "_sync_risks", risks)
    assert _run(_golden_doc(), str(tmp_path / "overlap"), True) == inline
    # this process computed the failed sync alone; the helper did the others
    assert risks.calls[0] == 1


def test_an_error_that_cannot_be_pickled_is_raised_as_inline(tmp_path, monkeypatch):
    class LocalError(ValueError):  # a local class cannot be pickled
        pass

    monkeypatch.setattr(engine, "_sync_risks", _failing_at(_synced(tmp_path), 3, LocalError))
    inline = _run(_golden_doc(), str(tmp_path / "inline"), False)
    assert _run(_golden_doc(), str(tmp_path / "overlap"), True) == inline
    assert inline[:2] == (1, "config error: risk failed at sync 3\n")


@pytest.mark.parametrize("action", ["default", "always"])
def test_a_risk_warning_is_shown_as_inline(tmp_path, monkeypatch, action):
    real = engine._sync_risks

    def warning_risks(*args):
        warnings.warn("a risk warning", UserWarning)
        return real(*args)

    monkeypatch.setattr(engine, "_sync_risks", warning_risks)
    shown, results = [], []
    for overlap in (False, True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            results.append(_run(_golden_doc(), str(tmp_path / str(overlap)), overlap))
        shown.append([str(w.message) for w in caught])
    assert results[0] == results[1] and shown[0] == shown[1]
    assert len(shown[0]) == (1 if action == "default" else 8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_stacks())
def test_stacks_of_one_to_three_runs_match_with_the_helper(case):
    model, rng = case["model"], np.random.default_rng(case["seed"])
    shards, seen = [], {False: [], True: []}
    for _ in range(case["runs"]):
        sizes = [max(case["min_size"], n) for n in rng.choice([1, 2, 3, 5, 8], case["clients"])]
        holdout = None
        if case["holdout"]:
            holdout = _shards(model, rng, rng.choice([1, 2, 4, 7], case["clients"]))
        shards.append((_shards(model, rng, sizes), int(rng.integers(1000)), holdout))
    outcome = {}
    for overlap in (False, True):
        runs = []
        for train, seed, holdout in shards:
            seen[overlap].append([])
            runs.append(RunSpec(train, seed, holdout, _recorder(seen[overlap][-1])))
        try:
            outcome[overlap] = run_experiments(
                case["algorithm"], model, case["schedule"], runs,
                overlap_risks=overlap, **case["options"],
            )
        except (DivergenceError, ValueError) as exc:
            outcome[overlap] = (type(exc), str(exc))
    assert seen[False] == seen[True]
    if isinstance(outcome[False], tuple):
        assert outcome[True] == outcome[False]
        return
    for a, b in zip(outcome[False], outcome[True]):
        _same_result(a, b)


@pytest.mark.parametrize("runs", [1, 2, 3])
def test_a_ridge_closed_form_population_source_matches(runs):
    model = RidgeSpec(input_dim=3, l2=0.1)
    rng = np.random.default_rng(runs)
    data = [
        (_shards(model, rng, [6, 9]), GaussianLinear(np.eye(3), rng.standard_normal((2, 3)), 0.5, g))
        for g in range(runs)
    ]
    results, seen = {}, {False: [], True: []}
    for overlap in (False, True):
        specs = []
        for g, (shards, law) in enumerate(data):
            seen[overlap].append([])
            specs.append(RunSpec(shards, g, law, _recorder(seen[overlap][-1])))
        results[overlap] = run_experiments(
            "fedavg", model, ScheduleSpec(2, 0.05, 4, 2), specs,
            per_client_risks=True, overlap_risks=overlap,
        )
    assert seen[False] == seen[True]
    for a, b in zip(results[False], results[True]):
        _same_result(a, b)
        synced = [r for r in a.records if r.train_risk is not None]
        assert synced and all(r.test_risk is not None for r in synced)


def _children(pid):
    """The pids of pid's child processes, reaped or not."""
    found = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
            found.update(int(x) for x in fh.read().split())
    return found


needs_proc_children = pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<tid>/children",
)


@needs_proc_children
@pytest.mark.parametrize("outcome", [0, 1, 2])
def test_no_helper_outlives_run(tmp_path, monkeypatch, outcome):
    if outcome == 1:
        monkeypatch.setattr(engine, "_sync_risks", _failing_at(_synced(tmp_path), 2))
    elif outcome == 2:
        monkeypatch.setattr(
            engine, "local_sgd_step", _counting(engine.local_sgd_step, 5, _divergence)
        )
    forks = _counting(os.fork, 0, None)  # counts, never fails
    monkeypatch.setattr(os, "fork", forks)
    before = _children(os.getpid())
    code, _, _ = _run(_golden_doc(), str(tmp_path), True)
    assert code == outcome and forks.calls[0] == 1
    assert _children(os.getpid()) <= before


@needs_proc_children
def test_a_killed_run_leaves_no_process_in_its_group(tmp_path):
    if not cli._can_overlap_risks():
        pytest.skip("run forks its helper only with 2 or more usable CPUs")
    doc = _golden_doc()
    doc["schedule"]["rounds"] = 10**6  # runs until it is killed
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "fedsim.cli", "run", str(path), "--out", str(tmp_path / "out")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    pgid = proc.pid
    try:
        deadline = time.monotonic() + 60
        while not _children(proc.pid):
            assert proc.poll() is None and time.monotonic() < deadline, "no helper was forked"
            time.sleep(0.05)
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the killed run is still there"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        proc.wait(timeout=10)


@needs_proc_children
def test_ctrl_c_stops_a_run_and_its_helper_quietly(tmp_path):
    if not cli._can_overlap_risks():
        pytest.skip("run forks its helper only with 2 or more usable CPUs")
    doc = _golden_doc()
    doc["schedule"]["rounds"] = 10**6  # runs until it is interrupted
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "fedsim.cli", "run", str(path), "--out", str(tmp_path / "out")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
        # a shell starts background jobs with SIGINT ignored; a terminal's run has the default
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    pgid = proc.pid
    try:
        deadline = time.monotonic() + 60
        while not _children(proc.pid):
            assert proc.poll() is None and time.monotonic() < deadline, "no helper was forked"
            time.sleep(0.05)
        os.killpg(pgid, signal.SIGINT)  # as a terminal's Ctrl-C does
        err = proc.communicate(timeout=30)[1].decode()
        lines = err.splitlines()
        assert proc.returncode == -signal.SIGINT
        assert err.count("Traceback") == 1 and lines[-1] == "KeyboardInterrupt"
        assert not any(line.startswith("Process ") for line in lines)
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the interrupted run is still there"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        proc.communicate(timeout=10)


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


def _no_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


@needs_proc_fd
@pytest.mark.parametrize("platform", ["fork fails", "no fork"])
def test_a_fork_that_fails_leaves_the_run_inline(tmp_path, monkeypatch, platform):
    inline = _run(_golden_doc(), str(tmp_path / "inline"), False)
    assert inline[0] == 0
    if platform == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _no_fork)
    before = len(os.listdir("/proc/self/fd"))
    assert _run(_golden_doc(), str(tmp_path / "overlap"), True) == inline
    assert len(os.listdir("/proc/self/fd")) == before
