"""Golden CLI outputs: small configs whose output files must not change.

The expected files under tests/golden/expected were written by the CLI and
are compared byte for byte: every case in process on one worker, the sweep
also through a two-worker pool, and the run cases also in a child process
pinned to one CPU, where run computes its sync risks inline rather than in a
forked helper. Floating-point bits depend on the numpy build and the BLAS
kernels, so the comparison runs only in the environment recorded in
tests/golden/ENVIRONMENT.json and is skipped elsewhere. They depend on the
CPU too, through the kernel OpenBLAS picks and numpy's CPU dispatch targets;
ENVIRONMENT.json records both under "cpu", which gates nothing, and a failed
comparison names them next to those of the running process. To record new
golden outputs after an intended output change, run from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import ctypes
import glob
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import fedsim
from fedsim.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
CONFIGS = os.path.join(GOLDEN, "configs")
EXPECTED = os.path.join(GOLDEN, "expected")
ENVIRONMENT = os.path.join(GOLDEN, "ENVIRONMENT.json")

RUN_OUTPUTS = ("metrics.jsonl", "summary.json")

# case name -> (subcommand, extra arguments, output files); the config is
# configs/<name>.json. Together they cover every algorithm, the ridge,
# logistic and MLP families, every partition mode, full, with- and
# without-replacement participation, and the bound report, once with
# client samples of at least models.PLAN_MIN_ROWS rows.
CASES = {
    "fedavg_ridge_iid": ("run", (), RUN_OUTPUTS),
    "scaffold_ridge_perclient_withrep": ("run", (), RUN_OUTPUTS),
    "fedals_mlp_labelsorted_worep": ("run", (), RUN_OUTPUTS),
    "fedals_scaffold_mlp_tanh_dirichlet": ("run", (), RUN_OUTPUTS),
    "fedavg_mlp_batch1_perclient": ("run", (), RUN_OUTPUTS),
    "scaffold_logistic_file_iid": ("run", (), RUN_OUTPUTS),
    "sweep_fedals_mlp": ("sweep", ("--grid", "alpha=1,3;eta=0.05,0.1"), ("sweep.csv",)),
    "trace_fedals_mlp": ("consensus-trace", ("--cadence", "1"), (
        "consensus.csv", "consensus_summary.json",
    )),
    "bound_perclient_identities": ("verify-bound", ("--identities",), ("bound_report.json",)),
    "bound_planned_sum": ("verify-bound", ("--identities",), ("bound_report.json",)),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def cpu_profile() -> dict:
    """The OpenBLAS kernel and numpy's enabled CPU dispatch targets in this process.

    The kernel is read from numpy's bundled OpenBLAS, as CI's "Runner CPU and
    BLAS kernel" step reads it; it is None where that library is not found.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
        corename = lib.scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        kernel = corename().decode()
    except (IndexError, OSError, AttributeError):  # no bundled OpenBLAS, or not this build of it
        kernel = None
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return {"openblas_kernel": kernel, "simd_found": list(simd)}


def run_case(name: str, out_dir: str) -> None:
    """Run one case with the configs directory as working directory.

    The file-backed config names its data file relative to that directory.
    """
    subcommand, extra, _ = CASES[name]
    argv = [subcommand, f"{name}.json", *extra, "--out", out_dir]
    cwd = os.getcwd()
    os.chdir(CONFIGS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"golden case {name} exited {code}.")


def _recorded_environment() -> dict:
    with open(ENVIRONMENT, encoding="utf-8") as fh:
        return json.load(fh)


def _require_recorded_environment() -> None:
    recorded = {k: v for k, v in _recorded_environment().items() if k != "cpu"}
    if environment() != recorded:
        pytest.skip(f"golden outputs were recorded with {recorded}, this is {environment()}")


def _assert_golden(name: str, out_dir) -> None:
    for fname in CASES[name][2]:
        got = (out_dir / fname).read_bytes()
        with open(os.path.join(EXPECTED, name, fname), "rb") as fh:
            want = fh.read()
        assert got == want, (
            f"{name}/{fname} differs from its golden copy, recorded on CPU profile "
            f"{_recorded_environment().get('cpu')}; this process runs on {cpu_profile()}"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_are_byte_identical(name, tmp_path, monkeypatch):
    _require_recorded_environment()
    monkeypatch.setenv("FEDSIM_WORKERS", "1")
    run_case(name, str(tmp_path))
    _assert_golden(name, tmp_path)


def test_golden_sweep_through_a_two_worker_pool(tmp_path, monkeypatch):
    _require_recorded_environment()
    monkeypatch.setenv("FEDSIM_WORKERS", "2")
    run_case("sweep_fedals_mlp", str(tmp_path))
    _assert_golden("sweep_fedals_mlp", tmp_path)


# Pinned to one CPU, run computes its sync risks inline instead of in a
# forked helper process; the child exits 3 if it would still fork one.
ONE_CPU_MAIN = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from fedsim import cli
sys.exit(3 if cli._can_overlap_risks() else cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items() if case[0] == "run"))
def test_golden_runs_on_one_cpu_compute_risks_inline(name, tmp_path):
    _require_recorded_environment()
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity call on this platform")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedsim.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-c", ONE_CPU_MAIN, "run", f"{name}.json", "--out", str(tmp_path)]
    proc = subprocess.run(argv, cwd=CONFIGS, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _assert_golden(name, tmp_path)


def regenerate() -> None:
    os.environ["FEDSIM_WORKERS"] = "1"
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for name in sorted(CASES):
        run_case(name, os.path.join(EXPECTED, name))
    with open(ENVIRONMENT, "w", encoding="utf-8") as fh:
        recorded = dict(environment(), cpu=cpu_profile())
        fh.write(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    print(f"wrote golden outputs for {len(CASES)} cases under {EXPECTED}", file=sys.stderr)
