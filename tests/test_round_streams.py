"""The engine's per-round streams: state chunks and batch draws change no output bit."""

import json

import pytest

from fedsim import engine, models
from fedsim import rng as streams
from fedsim.cli import main

CLIENTS, ROUNDS = 5, 7


def _scaffold_sampled():
    return {
        "algorithm": "scaffold",
        "clients": CLIENTS,
        "seed": 4,
        "model": {"family": "ridge", "input_dim": 3, "l2": 0.1},
        "data": {
            "source": {"kind": "gaussian_linear", "dim": 3, "noise_std": 0.3},
            "partition": {"mode": "per_client"},
            "n_per_client": 10,
        },
        "schedule": {"tau": 2, "eta": 0.05, "rounds": ROUNDS, "batch_size": 2},
        "participation": {"mode": "without_replacement", "num_sampled": 3},
    }


def _fedals_batches_with_replacement():
    return {
        "algorithm": "fedals",
        "clients": CLIENTS,
        "seed": 9,
        "model": {
            "family": "mlp",
            "input_dim": 3,
            "hidden": [4],
            "num_classes": 3,
            "representation_layers": 1,
        },
        "data": {
            "source": {"kind": "gaussian_clusters", "dim": 3, "num_classes": 3},
            "partition": {"mode": "per_client"},
            "n_per_client": 4,
            "holdout_per_client": 6,
            "batches_with_replacement": True,
        },
        "schedule": {"tau": 3, "eta": 0.1, "rounds": ROUNDS, "batch_size": 2, "alpha": 2},
    }


CONFIGS = {
    "scaffold_sampled": _scaffold_sampled,
    "fedals_with_replacement": _fedals_batches_with_replacement,
}


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _run(tmp_path, doc, out):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / out)]) == 0
    return {f: (tmp_path / out / f).read_bytes() for f in ("metrics.jsonl", "summary.json")}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_state_chunks_change_no_output_byte(tmp_path, monkeypatch, name):
    doc = CONFIGS[name]()
    sampled = "participation" in doc
    calls = _counting(monkeypatch, streams, "seed_states")
    whole = _run(tmp_path, doc, "whole")
    # one call for the batch streams, one for the participation streams
    assert len(calls) == (2 if sampled else 1)
    del calls[:]
    # two rounds of K clients' 4-word states per chunk: chunks of 2, 2, 2 and 1 rounds
    monkeypatch.setattr(models, "STACK_ELEMENTS", 4 * CLIENTS * 2)
    chunked = _run(tmp_path, doc, "chunked")
    assert len(calls) == 4 * (2 if sampled else 1)
    assert chunked == whole


def test_stacked_seeds_in_chunks_give_the_sweep_of_one_chunk(tmp_path, monkeypatch):
    from fedsim import cli

    doc = _scaffold_sampled()
    del doc["seed"]
    doc["seeds"] = [1, 2, 3]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("FEDSIM_WORKERS", "1")
    sizes = []
    real = cli.run_experiments

    def stacked(*args, **kwargs):
        sizes.append(len(args[3]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiments", stacked)
    grid = ["--grid", "eta=0.05,0.1"]
    assert main(["sweep", str(path), *grid, "--out", str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(models, "STACK_ELEMENTS", 4 * CLIENTS * 3)
    assert main(["sweep", str(path), *grid, "--out", str(tmp_path / "chunked")]) == 0
    # every point ran its three seeds as one stack
    assert sizes == [3] * 4
    whole = (tmp_path / "whole" / "sweep.csv").read_bytes()
    assert (tmp_path / "chunked" / "sweep.csv").read_bytes() == whole


def test_batches_are_drawn_once_per_client_and_round(tmp_path, monkeypatch):
    doc = _scaffold_sampled()
    calls = _counting(monkeypatch, engine, "draw_round_batches")
    _run(tmp_path, doc, "out")
    assert len(calls) == CLIENTS * ROUNDS
