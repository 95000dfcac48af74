"""The CLI keeps freed heap memory mapped on glibc, and does nothing elsewhere.

A repeated sweep in one process must not fault its heap pages back in, and
the setting must fail quietly when the C library is not glibc or lacks
mallopt.
"""

import ctypes
import json
import os
import subprocess
import sys
import types

import pytest

import fedsim
from fedsim import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fedsim.__file__)))


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# The benchmark's sweep shape at 5 rounds: 2 seeds of 10 clients step as one
# stack, so each step's weight-gradient product is 200 KiB. Runs the sweep
# twice in one process, each into a fresh directory, and prints the minor
# page faults of each call.
CHURN = """
import json, os, resource, sys
from fedsim import cli

tmp = sys.argv[1]
os.makedirs(tmp)
doc = {
    "algorithm": "fedals",
    "clients": 10,
    "seeds": [7, 8],
    "model": {"family": "mlp", "input_dim": 10, "hidden": [16, 16], "num_classes": 10,
              "representation_layers": 1},
    "data": {
        "source": {"kind": "gaussian_clusters", "dim": 10, "num_classes": 10},
        "partition": {"mode": "dirichlet", "concentration": 0.5},
        "n_per_client": 100,
        "holdout_per_client": 50,
        "batches_with_replacement": True,
    },
    "schedule": {"tau": 5, "eta": 0.02, "rounds": 5, "batch_size": 5, "alpha": 1},
}
config = os.path.join(tmp, "sweep.json")
with open(config, "w", encoding="utf-8") as fh:
    json.dump(doc, fh)
faults = []
for i in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    argv = ["sweep", config, "--grid", "alpha=1,2", "--out", os.path.join(tmp, f"out{i}")]
    assert cli.main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not _on_glibc(), reason="the allocator setting applies on glibc only")
def test_a_repeated_sweep_faults_no_heap_pages_back_in(tmp_path):
    # Compiling source frees large blocks, which raises glibc's dynamic mmap
    # threshold and hides the churn. So the first process writes the bytecode
    # cache, and the second loads it, as every run of an installed package does.
    env = dict(os.environ, PYTHONPATH=SRC, FEDSIM_WORKERS="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for run in ("compile", "cached"):
        proc = subprocess.run(
            [sys.executable, "-c", CHURN, str(tmp_path / run)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout.splitlines()[-1])
    # with glibc's default thresholds the second call faults about 5,000 pages
    assert second < 500, (first, second)


def test_glibc_gets_both_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36", raising=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert cli._keep_freed_memory() is None
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int
    # M_MMAP_THRESHOLD to 1 MiB, then M_TRIM_THRESHOLD to 8 MiB
    assert calls == [(-3, 1 << 20), (-1, 8 << 20)]


def test_a_c_library_that_is_not_glibc_is_left_alone(monkeypatch):
    def confstr(name):
        raise ValueError("unrecognized configuration name")

    def no_dlopen(name):
        raise AssertionError("the C library was opened off glibc")

    monkeypatch.setattr(cli.os, "confstr", confstr, raising=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_dlopen)
    assert cli._keep_freed_memory() is None


def test_a_c_library_without_mallopt_is_left_alone(monkeypatch):
    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36", raising=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert cli._keep_freed_memory() is None
