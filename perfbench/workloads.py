"""The four benchmark workloads: CLI command, config from the workload seed,
correctness checks on the output files, and the work each command does.

Every config is a pure function of the workload seed, so the same seed gives
the same inputs and therefore the same output bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# verify-bound's two checks are 3-sigma Monte Carlo tests, so a few seeds fail
# by chance (the identity check fails on 206, 221 and 282 of 0..299 on a
# correct program). Bound seeds repeat with this period; the whole range was
# scanned and passes both checks.
BOUND_SEED_PERIOD = 200


def _fedals_mlp_noniid(seed: int) -> dict:
    return {
        "algorithm": "fedals",
        "clients": 5,
        "seed": seed,
        "model": {
            "family": "mlp", "input_dim": 10, "hidden": [16, 16, 16], "num_classes": 10,
            "representation_layers": 1,
        },
        "data": {
            "source": {"kind": "gaussian_clusters", "dim": 10, "num_classes": 10,
                       "balanced": True},
            "partition": {"mode": "label_sorted", "classes_per_client": 2},
            "n_per_client": 300,
            "holdout_per_client": 400,
        },
        "schedule": {"tau": 5, "eta": 0.02, "rounds": 400, "batch_size": 5, "alpha": 10},
        "metrics": {"cadence": 1},
    }


def _scaffold_k200_partial(seed: int) -> dict:
    return {
        "algorithm": "fedals_scaffold",
        "clients": 200,
        "seed": seed,
        "model": {
            "family": "mlp", "input_dim": 8, "hidden": [8], "num_classes": 4,
            "representation_layers": 1,
        },
        "data": {
            "source": {"kind": "gaussian_clusters", "dim": 8, "num_classes": 4},
            "partition": {"mode": "per_client"},
            "n_per_client": 40,
        },
        "schedule": {"tau": 4, "eta": 0.05, "rounds": 25, "batch_size": 4, "alpha": 5},
        "participation": {"mode": "without_replacement", "num_sampled": 50},
        "metrics": {"cadence": 0},
    }


def _bound_theorem1(seed: int) -> dict:
    return {
        "clients": 5, "n_per_client": 50, "dim": 5, "l2": 0.5, "trials": 2000,
        "seed": seed % BOUND_SEED_PERIOD, "noise_std": 0.5,
        "identities": {"num_sampled": [3, 5], "draws": 100000},
    }


def _sweep_alpha_grid(seed: int) -> dict:
    # Dirichlet shards can be smaller than tau * batch_size, so batches are
    # drawn with replacement and no seed can produce an invalid config.
    return {
        "algorithm": "fedals",
        "clients": 10,
        "seeds": [seed, seed + 1],
        "model": {
            "family": "mlp", "input_dim": 10, "hidden": [16, 16], "num_classes": 10,
            "representation_layers": 1,
        },
        "data": {
            "source": {"kind": "gaussian_clusters", "dim": 10, "num_classes": 10},
            "partition": {"mode": "dirichlet", "concentration": 0.5},
            "n_per_client": 100,
            "holdout_per_client": 50,
            "batches_with_replacement": True,
        },
        "schedule": {"tau": 5, "eta": 0.02, "rounds": 40, "batch_size": 5, "alpha": 1},
    }


SWEEP_GRID = "alpha=1,2,5,10;eta=0.02,0.05"
SWEEP_POINTS = 8


def _schedule_steps(cfg: dict) -> int:
    s = cfg["schedule"]
    return s["rounds"] * s["tau"]


def _expected_rows(cfg: dict) -> int:
    """JSONL rows of `fedsim run`: the provenance line plus one per emitted step."""
    tau = cfg["schedule"]["tau"]
    cadence = cfg.get("metrics", {}).get("cadence", 1)
    emitted = sum(
        1 for s in range(1, _schedule_steps(cfg) + 1)
        if s % tau == 0 or (cadence > 0 and s % cadence == 0)
    )
    return 1 + emitted


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_run(cfg: dict, out_dir: str, stdout: str) -> list[str]:
    problems = []
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    comm = summary["comm"]
    closed = comm["closed_form_per_client_per_direction"]
    if any(d != closed for d in comm["downloaded_per_client"]):
        problems.append("a download count differs from the closed form")
    if any(u > closed for u in comm["uploaded_per_client"]):
        problems.append("an upload count exceeds the closed form")
    with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    if rows != _expected_rows(cfg):
        problems.append(f"metrics.jsonl has {rows} rows, expected {_expected_rows(cfg)}")
    if not _finite(summary["final_train_risk"]):
        problems.append("final train risk is not finite")
    has_holdout = cfg["data"].get("holdout_per_client", 0) > 0
    if has_holdout and not _finite(summary["final_test_risk"]):
        problems.append("final test risk is not finite")
    return problems


def check_bound(cfg: dict, out_dir: str, stdout: str) -> list[str]:
    problems = []
    with open(os.path.join(out_dir, "bound_report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if not doc["report"]["passed"]:
        problems.append("bound check FAIL")
    reports = doc["identity_reports"] or []
    if len(reports) != 4:
        problems.append(f"{len(reports)} identity reports, expected 4")
    if not all(r["passed"] for r in reports):
        problems.append("an identity report FAILs")
    if stdout.count("PASS") != 5 or "FAIL" in stdout:
        problems.append("stdout does not show five PASS lines")
    return problems


def check_sweep(cfg: dict, out_dir: str, stdout: str) -> list[str]:
    with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    problems = []
    if not lines[0].startswith("# provenance"):
        problems.append("sweep.csv lacks its provenance line")
    if len(rows) != SWEEP_POINTS:
        problems.append(f"sweep.csv has {len(rows)} rows, expected {SWEEP_POINTS}")
    for row in rows:
        if not _finite(float(row["final_train_risk_mean"] or "nan")):
            problems.append(f"grid point alpha={row['alpha']} eta={row['eta']} has no finite risk")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    make_config: Callable[[int], dict]
    extra_args: tuple[str, ...]
    workers: int  # FEDSIM_WORKERS for the untraced command
    outputs: tuple[str, ...]
    check: Callable[[dict, str, str], list[str]]
    client_steps: Callable[[dict], int]  # K x local steps over every run in the command
    trials: Callable[[dict], int]  # independent repetitions in the command

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.subcommand, config_path, *self.extra_args, "--out", out_dir]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fedals_mlp_noniid", "run", _fedals_mlp_noniid, (), 1,
            ("metrics.jsonl", "summary.json"), check_run,
            lambda c: c["clients"] * _schedule_steps(c), lambda c: 1,
        ),
        Workload(
            "scaffold_k200_partial", "run", _scaffold_k200_partial, (), 1,
            ("metrics.jsonl", "summary.json"), check_run,
            lambda c: c["clients"] * _schedule_steps(c), lambda c: 1,
        ),
        Workload(
            "bound_theorem1", "verify-bound", _bound_theorem1, ("--identities",), 1,
            ("bound_report.json",), check_bound,
            lambda c: c["clients"] * c["trials"], lambda c: c["trials"],
        ),
        Workload(
            "sweep_alpha_grid", "sweep", _sweep_alpha_grid, ("--grid", SWEEP_GRID), 2,
            ("sweep.csv",), check_sweep,
            lambda c: SWEEP_POINTS * len(c["seeds"]) * c["clients"] * _schedule_steps(c),
            lambda c: SWEEP_POINTS * len(c["seeds"]),
        ),
    )
}
