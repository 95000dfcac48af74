"""The benchmark's own tests. From the repository root:

    python3 -m pytest perfbench -q

They run every workload once as an untraced process and once traced in this
process (about a minute on two cores).
"""

import contextlib
import io
import json
import os
import sys

import pytest

import run as bench
from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, bench.SRC)
SEED = 3

# Each per-layer function and the workloads METRICS.md maps it to; its spans
# must occur there. params.weighted_sum is reported but may be 0 on
# scaffold_k200_partial: the sampled weights sum to 1 within 1e-12, so
# aggregate takes the weighted_average path.
MAPPED = {
    "cli.main": ["fedals_mlp_noniid"],
    "config.load_config": ["fedals_mlp_noniid", "scaffold_k200_partial", "sweep_alpha_grid"],
    "config.build_shards": ["fedals_mlp_noniid", "scaffold_k200_partial", "sweep_alpha_grid"],
    "config.load_bound_config": ["bound_theorem1"],
    "config.build_bound_trial_config": ["bound_theorem1"],
    "data.draw_round_batches": ["scaffold_k200_partial"],
    "rng.substream": ["bound_theorem1", "scaffold_k200_partial"],
    "models.loss_and_grad": ["fedals_mlp_noniid", "scaffold_k200_partial", "bound_theorem1"],
    "models.batch_loss": ["fedals_mlp_noniid"],
    "models.erm_closed_form": ["bound_theorem1"],
    "models.jacobi_eigenvalues": ["bound_theorem1"],
    "models.population_risk_closed_form": ["bound_theorem1"],
    "engine.run_experiment": ["scaffold_k200_partial"],
    "engine.local_sgd_step": ["scaffold_k200_partial"],
    "engine.aggregate": ["scaffold_k200_partial"],
    "engine.scaffold_control_update": ["scaffold_k200_partial"],
    "engine.sample_participants": ["scaffold_k200_partial"],
    "metrics.consensus_map": ["fedals_mlp_noniid", "sweep_alpha_grid"],
    "metrics.empirical_risk": ["fedals_mlp_noniid", "sweep_alpha_grid"],
    "metrics.population_risk_estimate": ["fedals_mlp_noniid", "sweep_alpha_grid"],
    "metrics.sample_losses": ["fedals_mlp_noniid", "sweep_alpha_grid"],
    "params.weighted_average": ["scaffold_k200_partial"],
    "params.weighted_sum": [],
    "bounds.verify_theorem1": ["bound_theorem1"],
    "bounds.one_round_fedavg_erm": ["bound_theorem1"],
    "bounds.verify_participation_identities": ["bound_theorem1"],
}


@pytest.fixture(scope="module")
def traced_results():
    return {name: bench.run_workload(name, SEED, 0, trace=True) for name in WORKLOADS}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    with open(os.path.join(HERE, "METRICS.md"), encoding="utf-8") as fh:
        doc = fh.read()
    for entry in spec["workloads"] + spec["end_to_end"]:
        assert f"`{entry['name']}`" in doc, entry["name"]
    for func in MAPPED:
        assert f"`{func}`" in doc, func


def test_traced_outputs_equal_untraced_on_every_workload(traced_results):
    for name, res in traced_results.items():
        result = res["result"]
        assert result["correct"], (name, res["detail"]["failures"])
        assert result["attempted"] == 2 and result["failed"] == 0, name
        assert set(res["detail"]["sha256"]) == set(WORKLOADS[name].outputs)


def test_every_mapped_per_layer_metric_is_reported(traced_results):
    units = bench.per_layer_units()
    for name, res in traced_results.items():
        assert set(res["result"]["metrics"]) == set(units), name
    for func, names in MAPPED.items():
        for name in names:
            calls = traced_results[name]["result"]["metrics"][f"{func}.calls"]["value"]
            assert calls > 0, (func, name)
    metrics = {n: {k: m["value"] for k, m in r["result"]["metrics"].items()}
               for n, r in traced_results.items()}
    scaffold = metrics["scaffold_k200_partial"]
    assert scaffold["data.draw_round_batches.calls"] == 200 * 25
    assert scaffold["engine.control_updates_per_participant"] == 4.0
    assert metrics["bound_theorem1"]["models.loss_and_grad.by_bounds.calls"] == 2000 * 5
    assert metrics["bound_theorem1"]["engine.run_experiment.calls"] == 0
    sweep = metrics["sweep_alpha_grid"]
    assert sweep["metrics.empirical_risk.by_cli.calls"] == 16
    assert 0.0 < sweep["metrics.risk_useful_share"] < 1.0
    assert sweep["sweep.parallel_efficiency"] > 0.0


def test_self_times_sum_to_the_root_span(tmp_path):
    from fedsim import cli

    cfg = WORKLOADS["scaffold_k200_partial"].make_config(SEED)
    cfg["schedule"]["rounds"] = 5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = tracer.summarize()
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s[3] < 0]
    assert len(roots) == 1 and tracer.names[roots[0][0]] == ("cli.main", "cli")
    self_total = sum(self_s for _, _, self_s in summary["by_name"].values())
    assert self_total == pytest.approx(summary["root_s"], rel=1e-9, abs=1e-9)
    assert summary["participants"] == 50 * (5 + 1)


def test_tracer_uninstall_restores_every_binding():
    from fedsim import cli, engine, models

    before = (cli.main, engine.loss_and_grad, models.loss_and_grad)
    tracer = Tracer()
    tracer.install()
    assert engine.loss_and_grad is not before[1]
    tracer.uninstall()
    assert (cli.main, engine.loss_and_grad, models.loss_and_grad) == before


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", str(tmp_path))
    code = bench.main(["--workload", "bound_theorem1", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
