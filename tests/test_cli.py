"""End-to-end CLI behavior: files, headers, exit codes, determinism."""

import copy
import csv
import json
import os
import re

import numpy as np
import pytest
from test_config import DATA_RULE_CASES

from fedsim.cli import main, parse_grid
from fedsim.config import ConfigError, ExperimentConfig
from fedsim.engine import ScheduleSpec, comm_closed_form
from fedsim.models import MlpSpec, build_layout


def _ridge_doc(**overrides):
    doc = {
        "algorithm": "fedavg",
        "clients": 2,
        "seed": 3,
        "model": {"family": "ridge", "input_dim": 2, "l2": 0.1},
        "data": {
            "source": {"kind": "gaussian_linear", "dim": 2, "noise_std": 0.4},
            "partition": {"mode": "per_client"},
            "n_per_client": 12,
        },
        "schedule": {"tau": 2, "eta": 0.05, "rounds": 3, "batch_size": 3},
    }
    doc.update(overrides)
    return doc


def _mlp_doc(**overrides):
    doc = {
        "algorithm": "fedals",
        "clients": 2,
        "seed": 3,
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
            "n_per_client": 12,
            "holdout_per_client": 12,
        },
        "schedule": {"tau": 2, "eta": 0.05, "rounds": 4, "batch_size": 3, "alpha": 2},
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_run_outputs_and_schema(tmp_path):
    cfg = _write(tmp_path, _ridge_doc())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    rows = _read_jsonl(out / "metrics.jsonl")
    prov = rows[0]["provenance"]
    assert set(prov) == {"config_digest", "seed", "version"}
    assert prov["seed"] == 3
    body = rows[1:]
    assert len(body) == 6  # one per step
    key_sets = {tuple(sorted(r)) for r in body}
    assert len(key_sets) == 1  # schema-stable JSONL
    summary = json.loads((out / "summary.json").read_text())
    assert summary["provenance"] == prov
    assert summary["algorithm"] == "fedavg"
    assert summary["steps"] == 6
    assert summary["final_test_risk"] is not None  # ridge exact route
    assert summary["final_gen_gap"] == summary["final_test_risk"] - summary["final_train_risk"]
    want_comm = summary["comm"]["closed_form_per_client_per_direction"]
    assert summary["comm"]["uploaded_per_client"] == [want_comm, want_comm]


def test_run_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, _ridge_doc())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_run_seed_and_cadence_overrides(tmp_path):
    cfg = _write(tmp_path, _ridge_doc())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--seed", "9", "--cadence", "0"]) == 0
    rows = _read_jsonl(out / "metrics.jsonl")
    assert rows[0]["provenance"]["seed"] == 9
    assert [r["step"] for r in rows[1:]] == [2, 4, 6]  # sync steps only


def test_run_negative_cadence_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, _ridge_doc())
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--cadence", "-2"]) == 1
    assert "config error: --cadence must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    doc = _ridge_doc(metrics={"cadence": -2})  # the same value as a config key
    assert main(["run", _write(tmp_path, doc, "c2.json"), "--out", str(out)]) == 1
    assert "metrics.cadence must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "verify-bound", "consensus-trace"])
def test_negative_seed_is_a_config_error_before_any_output(tmp_path, capsys, command):
    if command == "verify-bound":
        cfg = _write(tmp_path, _bound_doc())
    else:
        cfg = _write(tmp_path, _mlp_doc())
    out = tmp_path / "out"
    extra = ["--grid", "alpha=1"] if command == "sweep" else []
    assert main([command, cfg, "--seed", "-3", "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == "config error: --seed must be >= 0.\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "verify-bound", "consensus-trace"])
def test_unwritable_out_exits_1_with_one_line(tmp_path, capsys, command):
    if command == "verify-bound":
        cfg = _write(tmp_path, _bound_doc())
    else:
        cfg = _write(tmp_path, _mlp_doc())
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    extra = ["--grid", "alpha=1"] if command == "sweep" else []
    assert main([command, cfg, "--out", str(blocker / "out"), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1, err
    assert str(blocker / "out") in err


def test_missing_data_file_exits_1_with_one_line(tmp_path, capsys):
    doc = _ridge_doc()
    doc["data"]["source"] = {"kind": "file", "path": str(tmp_path / "absent.csv")}
    doc["data"]["partition"] = {"mode": "iid"}
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and "absent.csv" in err and err.count("\n") == 1, err
    assert not (tmp_path / "o" / "metrics.jsonl").exists()  # set-up failed before any output


def test_fedals_alpha1_twin_matches_fedavg(tmp_path):
    fedavg = _mlp_doc(algorithm="fedavg")
    fedavg["schedule"]["alpha"] = 1
    fedals = _mlp_doc(algorithm="fedals")
    fedals["schedule"]["alpha"] = 1
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", _write(tmp_path, fedavg, "a.json"), "--out", str(out_a)]) == 0
    assert main(["run", _write(tmp_path, fedals, "b.json"), "--out", str(out_b)]) == 0
    lines_a = (out_a / "metrics.jsonl").read_bytes().splitlines()
    lines_b = (out_b / "metrics.jsonl").read_bytes().splitlines()
    # identical apart from the algorithm-name field, which only feeds the header digest
    assert lines_a[1:] == lines_b[1:]
    sum_a = json.loads((out_a / "summary.json").read_text())
    sum_b = json.loads((out_b / "summary.json").read_text())
    for s in (sum_a, sum_b):
        s.pop("algorithm")
        s["provenance"].pop("config_digest")
    assert sum_a == sum_b


def test_run_exit_codes(tmp_path, capsys):
    doc = _ridge_doc()
    doc["schedule"]["tau"] = 10  # 10*3 > 12 samples
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    assert "sampling model" in capsys.readouterr().err

    doc = _ridge_doc(bogus=1)
    assert main(["run", _write(tmp_path, doc, "c2.json"), "--out", str(tmp_path / "o")]) == 1
    assert "unknown keys" in capsys.readouterr().err

    doc = _ridge_doc()
    doc["schedule"]["eta"] = 0.0  # learning rate must be positive
    assert main(["run", _write(tmp_path, doc, "c3.json"), "--out", str(tmp_path / "o")]) == 1
    assert "eta" in capsys.readouterr().err

    doc = _ridge_doc()
    doc["schedule"]["eta"] = 500.0
    doc["schedule"]["rounds"] = 30
    assert main(["run", _write(tmp_path, doc, "c4.json"), "--out", str(tmp_path / "o")]) == 2
    assert "divergence" in capsys.readouterr().err

    # JSON's Infinity and NaN: an infinite coef used to exit 2 at the first
    # step, and NaN weights passed every comparison of the weight checks
    doc = _ridge_doc()
    doc["data"]["source"]["coef"] = [float("inf"), 0.0]
    assert main(["run", _write(tmp_path, doc, "c5.json"), "--out", str(tmp_path / "o5")]) == 1
    assert "data.source.coef must contain only finite numbers" in capsys.readouterr().err
    doc = _ridge_doc(weights=[float("nan"), float("nan")])
    assert main(["run", _write(tmp_path, doc, "c6.json"), "--out", str(tmp_path / "o6")]) == 1
    assert "config.weights must contain only finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "o5").exists() and not (tmp_path / "o6").exists()



def test_divergence_exits_2_naming_round_step_and_client(tmp_path, capsys):
    doc = _ridge_doc()
    doc["schedule"]["eta"] = 500.0
    doc["schedule"]["rounds"] = 30
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"divergence: round \d+ step \d+ client \d+: ", err), err
    rows = _read_jsonl(tmp_path / "o" / "metrics.jsonl")  # the steps before it are kept
    assert "provenance" in rows[0] and len(rows) > 1


def test_invalid_labels_exit_1_not_2(tmp_path, capsys):
    # a file with labels 0/1 passes validation, but logistic_l2 needs -1/+1
    data = tmp_path / "binary.csv"
    X = np.random.default_rng(5).standard_normal((24, 2))
    np.savetxt(data, np.column_stack([X, np.arange(24) % 2]), delimiter=",")
    doc = _ridge_doc()
    doc["model"] = {"family": "logistic_l2", "input_dim": 2}
    doc["data"]["source"] = {"kind": "file", "path": str(data)}
    doc["data"]["partition"] = {"mode": "iid"}
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error: logistic labels must be -1 or +1" in err
    assert "divergence" not in err
    assert not (tmp_path / "o" / "metrics.jsonl").exists()  # the first step checks labels


def test_fractional_class_labels_exit_1_without_metrics(tmp_path, capsys):
    # int64 casting would have trained on 0, 1 and 2 and exited 0
    data = tmp_path / "fractional.csv"
    X = np.random.default_rng(8).standard_normal((24, 3))
    np.savetxt(data, np.column_stack([X, np.arange(24) % 3 + 0.5]), delimiter=",")
    doc = _mlp_doc()
    doc["data"] = {
        "source": {"kind": "file", "path": str(data)},
        "partition": {"mode": "iid"},
        "n_per_client": 12,
    }
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config error: class labels must be integers.\n"
    assert not (tmp_path / "o" / "metrics.jsonl").exists()


@pytest.mark.parametrize(
    "family, label, message",
    [
        ("mlp", 1.5, "class labels must be integers."),
        ("mlp", 3.0, "class labels out of range."),
        ("logistic_l2", 0.0, "logistic labels must be -1 or +1."),
    ],
)
def test_a_late_invalid_label_exits_1_at_set_up(tmp_path, capsys, family, label, message):
    # row 17 is in no batch of the first round, so only a set-up check of
    # every shard label stops the run before it writes metrics.jsonl
    X = np.random.default_rng(9).standard_normal((24, 3))
    y = np.arange(24) % 3 if family == "mlp" else np.where(np.arange(24) % 2, 1.0, -1.0)
    y = y.astype(np.float64)
    y[17] = label
    data = tmp_path / "labels.csv"
    np.savetxt(data, np.column_stack([X, y]), delimiter=",")
    doc = _mlp_doc() if family == "mlp" else _ridge_doc()
    if family != "mlp":
        doc["model"] = {"family": "logistic_l2", "input_dim": 3}
    doc["data"] = {
        "source": {"kind": "file", "path": str(data)},
        "partition": {"mode": "iid"},
        "n_per_client": 12,
    }
    doc["schedule"].update(tau=2, batch_size=1)
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o" / "metrics.jsonl").exists()


def test_a_step_size_whose_control_scale_overflows_exits_1(tmp_path, capsys):
    # 5e-324 passes validation, but 1/(eta * tau) is inf: the first control
    # update would turn every control variate non-finite
    doc = _ridge_doc(algorithm="scaffold", clients=3)
    doc["schedule"].update(eta=5e-324, tau=2)
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == (
        "config error: eta = 5e-324 is too small for the control update: "
        "1/(eta * 2) overflows.\n"
    ), err
    assert not (tmp_path / "o" / "metrics.jsonl").exists()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_shard_too_small_for_a_round_exits_1_without_metrics(tmp_path, capsys, seed):
    # a Dirichlet 0.1 split of 48 samples leaves some client fewer than
    # tau * batch_size = 10; the engine rejects it before the first step
    doc = _mlp_doc(clients=4, seed=seed)
    doc["data"]["partition"] = {"mode": "dirichlet", "concentration": 0.1}
    doc["schedule"]["batch_size"] = 5
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: tau*batch_size = 10 exceeds the smallest shard"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "o" / "metrics.jsonl").exists()


@pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
def test_non_finite_label_in_a_data_file_exits_1_not_2(tmp_path, capsys, label):
    # without sync-time risks a non-finite target would first show as a
    # non-finite training loss, which is not a divergence: the file is rejected
    # when it is loaded, naming the line
    X = np.random.default_rng(6).standard_normal((24, 2))
    rows = [f"{x0:.17g},{x1:.17g},{x0 - x1:.17g}" for x0, x1 in X]
    rows[6] = f"{X[6, 0]:.17g},{X[6, 1]:.17g},{label}"
    data = tmp_path / "targets.csv"
    data.write_text("# x0,x1,y\n" + "\n".join(rows) + "\n")
    doc = _ridge_doc()
    doc["data"]["source"] = {"kind": "file", "path": str(data)}
    doc["data"]["partition"] = {"mode": "iid"}
    doc["metrics"] = {"risks_at_sync": False}
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "targets.csv:8: non-finite value" in err, err
    assert "divergence" not in err
    assert not (tmp_path / "o" / "metrics.jsonl").exists()


@pytest.mark.parametrize("partition", ["per_client", "iid"])
def test_overflowing_generated_labels_exit_1_not_2(tmp_path, capsys, partition):
    # coefficients of 1e308 scale give infinite targets: bad data, not a divergence
    doc = _ridge_doc()
    doc["data"]["source"]["coef_scale"] = 1e308
    doc["data"]["partition"] = {"mode": partition}
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: shard labels contain non-finite entries.\n", err
    assert not (tmp_path / "o" / "metrics.jsonl").exists()


def test_parse_grid():
    axes = parse_grid("alpha=1,5;tau=10;eta=0.1,0.2;seed=1,2,3")
    assert axes == [
        ("alpha", [1, 5]),
        ("tau", [10]),
        ("eta", [0.1, 0.2]),
        ("seed", [1, 2, 3]),
    ]
    with pytest.raises(ConfigError, match="grid key"):
        parse_grid("gamma=1")
    with pytest.raises(ConfigError, match="twice"):
        parse_grid("tau=1;tau=2")
    with pytest.raises(ConfigError, match="empty grid"):
        parse_grid(" ; ")
    with pytest.raises(ConfigError, match="not a number"):
        parse_grid("tau=x")
    for key in ("alpha", "tau", "seed"):
        message = rf"^grid value '1\.5' for '{key}' is not an integer\.$"
        with pytest.raises(ConfigError, match=message):
            parse_grid(f"{key}=1.5")


def test_sweep_eta_rows_and_comm_column(tmp_path):
    cfg = _write(tmp_path, _mlp_doc())
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--grid", "eta=0.025,0.05,0.1;alpha=1,2", "--out", str(out)]) == 0
    with open(out / "sweep.csv", encoding="utf-8") as fh:
        header = fh.readline()
        assert header.startswith("# provenance config_digest=")
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 3 etas x 2 alphas
    assert {r["eta"] for r in rows} == {"0.025", "0.05", "0.1"}
    model = MlpSpec(input_dim=3, hidden=(4,), num_classes=3)
    layout = build_layout(model, representation_layers=1)
    for r in rows:
        sched = ScheduleSpec(
            tau=int(r["tau"]), eta=float(r["eta"]), rounds=4, batch_size=3, alpha=int(r["alpha"])
        )
        assert int(r["comm_per_client_per_direction"]) == comm_closed_form(sched, layout)
        assert r["accuracy_mean"] != ""


def test_sweep_seed_statistics(tmp_path):
    doc = _ridge_doc()
    del doc["seed"]
    doc["seeds"] = [1, 2, 3, 4]
    out = tmp_path / "out"
    assert main(["sweep", _write(tmp_path, doc), "--grid", "tau=2", "--out", str(out)]) == 0
    with open(out / "sweep.csv", encoding="utf-8") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["n_seeds"] == "4"
    assert rows[0]["seeds"] == "1;2;3;4"
    assert float(rows[0]["final_train_risk_std"]) > 0.0


def test_sweep_worker_count_never_changes_results(tmp_path, monkeypatch):
    cfg = _write(tmp_path, _mlp_doc())
    seq, par = tmp_path / "seq", tmp_path / "par"
    monkeypatch.setenv("FEDSIM_WORKERS", "1")
    assert main(["sweep", cfg, "--grid", "alpha=1,2;seed=1,2", "--out", str(seq)]) == 0
    monkeypatch.setenv("FEDSIM_WORKERS", "2")
    assert main(["sweep", cfg, "--grid", "alpha=1,2;seed=1,2", "--out", str(par)]) == 0
    assert (seq / "sweep.csv").read_bytes() == (par / "sweep.csv").read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_divergence_names_the_grid_point(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("FEDSIM_WORKERS", workers)
    doc = _ridge_doc()
    doc["schedule"]["rounds"] = 30
    cfg = _write(tmp_path, doc)
    assert main(["sweep", cfg, "--grid", "eta=0.02,500", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert re.search(
        r"divergence: alpha=1 tau=2 eta=500\.0 seed=3: round \d+ step \d+ client \d+: ", err
    ), err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_set_up_error_at_one_grid_point_names_the_point(tmp_path, capsys, monkeypatch, workers):
    # validation runs the engine's set-up check on every point, and it rejects
    # the control scale of eta = 5e-324 whatever the seed: the message names
    # the point alone
    golden = os.path.join(os.path.dirname(__file__), "golden", "configs")
    with open(os.path.join(golden, "scaffold_ridge_perclient_withrep.json"), "rb") as fh:
        doc = json.load(fh)
    del doc["seed"]
    doc["seeds"] = [1, 2]
    monkeypatch.setenv("FEDSIM_WORKERS", workers)
    out = tmp_path / "o"
    grid = "eta=0.05,5e-324"
    assert main(["sweep", _write(tmp_path, doc), "--grid", grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: alpha=1 tau=4 eta=5e-324: eta = 5e-324 is too small for the "
        "control update: 1/(eta * 4) overflows.\n"
    )
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "grid, message",
    [
        ("eta=0.05,5e-324", "alpha=1 tau=4 eta=5e-324: eta = 5e-324 is too small for the "
         "control update: 1/(eta * 4) overflows."),
        ("alpha=1,2", "alpha=2 tau=4 eta=0.04: schedule.alpha must be 1 for scaffold."),
    ],
)
def test_no_grid_point_trains_until_every_point_passes_set_up(
    tmp_path, capsys, monkeypatch, workers, grid, message
):
    from fedsim import cli

    golden = os.path.join(os.path.dirname(__file__), "golden", "configs")
    with open(os.path.join(golden, "scaffold_ridge_perclient_withrep.json"), "rb") as fh:
        doc = json.load(fh)
    del doc["seed"]
    doc["seeds"] = [1, 2]
    calls = []

    def counted(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return call

    for name in ("run_experiment", "run_experiments", "build_shards"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    monkeypatch.setenv("FEDSIM_WORKERS", workers)
    out = tmp_path / "o"
    # the bad point comes last: the good one before it must not train either
    assert main(["sweep", _write(tmp_path, doc), "--grid", grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == []
    assert not (out / "sweep.csv").exists()


def test_sweep_rejects_invalid_grid_point(tmp_path):
    cfg = _write(tmp_path, _ridge_doc())  # fedavg: alpha must stay 1
    assert main(["sweep", cfg, "--grid", "alpha=1,5", "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("doc, message", DATA_RULE_CASES)
@pytest.mark.parametrize("argv", [["run"], ["sweep", "1"], ["sweep", "2"]], ids="-".join)
def test_a_data_rule_fails_at_validation_naming_its_key(
    tmp_path, capsys, monkeypatch, argv, doc, message
):
    from fedsim import cli

    calls = []
    for name in ("run_experiment", "run_experiments", "build_shards"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    command, *workers = argv
    monkeypatch.setenv("FEDSIM_WORKERS", workers[0] if workers else "1")
    out = tmp_path / "o"
    grid = ["--grid", "eta=0.05,0.1"] if command == "sweep" else []
    assert main([command, _write(tmp_path, doc), *grid, "--out", str(out)]) == 1
    # one line, with the key and without a seed: no point or seed ever ran
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == []
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize(
    "cov, rule", [([[1.0, 0.5], [0.0, 1.0]], "symmetric"), ([[1.0, 2.0], [2.0, 1.0]], "positive")]
)
def test_verify_bound_checks_the_covariance_at_validation(tmp_path, capsys, cov, rule):
    out = tmp_path / "o"
    assert main(["verify-bound", _write(tmp_path, _bound_doc(covariance=cov)), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: bound config.covariance must be {rule}")
    assert not out.exists()


def _two_seed_ridge_doc():
    # alone, seed 2 finishes at eta=1.5 and seed 3 diverges in round 29
    doc = _ridge_doc()
    del doc["seed"]
    doc["seeds"] = [2, 3]
    doc["schedule"]["rounds"] = 30
    return doc


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_diverging_seed_in_a_stack_exits_as_the_seed_alone(tmp_path, capsys, monkeypatch, workers):
    doc = _two_seed_ridge_doc()
    alone = dict(doc, seed=3, schedule=dict(doc["schedule"], eta=1.5))
    del alone["seeds"]
    assert main(["run", _write(tmp_path, alone, "alone.json"), "--out", str(tmp_path / "a")]) == 2
    lone = capsys.readouterr().err
    assert lone.startswith("divergence: round 29 step 58 client 0: "), lone
    monkeypatch.setenv("FEDSIM_WORKERS", workers)
    out = tmp_path / "o"
    assert main(["sweep", _write(tmp_path, doc), "--grid", "eta=0.05,1.5", "--out", str(out)]) == 2
    want = "divergence: alpha=1 tau=2 eta=1.5 seed=3: " + lone[len("divergence: "):]
    assert capsys.readouterr().err == want
    assert not (out / "sweep.csv").exists()


def test_multi_seed_points_run_as_one_stack_and_fall_back_on_any_error(tmp_path, monkeypatch):
    from fedsim import cli

    doc = _two_seed_ridge_doc()
    cfg = _write(tmp_path, doc)
    sizes = []
    real = cli.run_experiments

    def counted(*args, **kwargs):
        sizes.append(len(args[3]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiments", counted)
    assert main(["sweep", cfg, "--grid", "eta=0.05,0.1", "--out", str(tmp_path / "s")]) == 0
    assert sizes == [2, 2]
    # a seed= axis gives one-seed points, which run as one-seed stacks
    assert main(["sweep", cfg, "--grid", "seed=4,5", "--out", str(tmp_path / "t")]) == 0
    assert sizes == [2, 2, 1, 1]

    def broken(*args, **kwargs):
        if len(args[3]) > 1:
            raise RuntimeError("stack failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiments", broken)
    assert main(["sweep", cfg, "--grid", "eta=0.05,0.1", "--out", str(tmp_path / "f")]) == 0
    stacked = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    alone = (tmp_path / "f" / "sweep.csv").read_text().splitlines()
    assert alone == stacked and len(alone) == 4


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_data_set_up_error_names_the_point_and_seed(tmp_path, capsys, monkeypatch, workers):
    # coef_scale 1e308 passes validation, but the labels it draws overflow
    golden = os.path.join(os.path.dirname(__file__), "golden", "configs")
    with open(os.path.join(golden, "fedavg_ridge_iid.json"), "rb") as fh:
        doc = json.load(fh)
    del doc["seed"]
    doc["seeds"] = [1, 2]
    doc["data"]["source"]["coef_scale"] = 1e308
    monkeypatch.setenv("FEDSIM_WORKERS", workers)
    out = tmp_path / "o"
    assert main(["sweep", _write(tmp_path, doc), "--grid", "eta=0.05,0.1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: alpha=1 tau=3 eta=0.05 seed=1: shard labels contain non-finite entries.\n"
    )
    assert not (out / "sweep.csv").exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, grid, pool",
    [("8", "eta=0.05,0.1", [2]), ("3", "eta=0.05,0.1,0.2,0.3", [3]), ("8", "eta=0.05", []),
     ("1", "eta=0.05,0.1", []), ("0", "eta=0.05,0.1", []), ("-4", "eta=0.05,0.1", [])],
)
def test_sweep_pool_starts_no_more_workers_than_points(tmp_path, monkeypatch, workers, grid, pool):
    from fedsim import cli

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setenv("FEDSIM_WORKERS", workers)
    cfg = _write(tmp_path, _ridge_doc())
    assert main(["sweep", cfg, "--grid", grid, "--out", str(tmp_path / "o")]) == 0
    assert _RecordingPool.sizes == pool


@pytest.mark.parametrize("value", ["abc", "2.0", ""])
def test_sweep_rejects_a_non_integer_worker_count_before_any_output(
    tmp_path, capsys, monkeypatch, value
):
    built = []
    monkeypatch.setattr(ExperimentConfig, "point", lambda *args, **kwargs: built.append(args))
    monkeypatch.setenv("FEDSIM_WORKERS", value)
    out = tmp_path / "o"
    cfg = _write(tmp_path, _ridge_doc())
    assert main(["sweep", cfg, "--grid", "eta=0.05,0.1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: FEDSIM_WORKERS must be an integer, got {value!r}.\n"
    assert built == [] and not out.exists()


def _bound_doc(**overrides):
    doc = {
        "clients": 3,
        "n_per_client": 25,
        "dim": 2,
        "l2": 0.5,
        "trials": 150,
        "seed": 11,
        "noise_std": 0.5,
    }
    doc.update(overrides)
    return doc


def test_verify_bound_pass_and_report(tmp_path, capsys):
    cfg = _write(tmp_path, _bound_doc())
    out = tmp_path / "out"
    assert main(["verify-bound", cfg, "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    doc = json.loads((out / "bound_report.json").read_text())
    assert set(doc) == {"provenance", "report", "identity_reports"}
    assert doc["report"]["passed"] is True
    assert doc["identity_reports"] is None
    assert doc["provenance"]["seed"] == 11


def test_verify_bound_identities_appended(tmp_path, capsys):
    cfg = _write(
        tmp_path, _bound_doc(identities={"num_sampled": [2, 3], "draws": 5000})
    )
    out = tmp_path / "out"
    assert main(["verify-bound", cfg, "--identities", "--out", str(out)]) == 0
    doc = json.loads((out / "bound_report.json").read_text())
    reports = doc["identity_reports"]
    assert len(reports) == 4  # two subset sizes x two schemes
    assert all(r["passed"] for r in reports)
    assert {(r["scheme"], r["num_sampled"]) for r in reports} == {
        ("with_replacement", 2),
        ("without_replacement", 2),
        ("with_replacement", 3),
        ("without_replacement", 3),
    }
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("identities ") for line in lines) == 4


def test_verify_bound_identities_use_the_config_weights(tmp_path):
    # x = (1, 2, 3): with weights (0.5, 0.3, 0.2) the mean identity's target
    # is sum_k w_k x_k = 1.7; uniform weights would give 2.0
    cfg = _write(
        tmp_path,
        _bound_doc(weights=[0.5, 0.3, 0.2], identities={"num_sampled": [2], "draws": 5000}),
    )
    out = tmp_path / "out"
    assert main(["verify-bound", cfg, "--identities", "--out", str(out)]) == 0
    reports = json.loads((out / "bound_report.json").read_text())["identity_reports"]
    with_rep = next(r for r in reports if r["scheme"] == "with_replacement")
    assert with_rep["checks"][0]["identity"] == "mean"
    assert with_rep["checks"][0]["analytic"] == pytest.approx(1.7, rel=1e-15)
    assert all(r["passed"] for r in reports)


def test_verify_bound_subset_above_clients_runs_with_replacement_only(tmp_path):
    cfg = _write(tmp_path, _bound_doc(identities={"num_sampled": [2, 5], "draws": 2000}))
    out = tmp_path / "out"
    assert main(["verify-bound", cfg, "--identities", "--out", str(out)]) == 0
    reports = json.loads((out / "bound_report.json").read_text())["identity_reports"]
    assert [(r["scheme"], r["num_sampled"]) for r in reports] == [
        ("with_replacement", 2),
        ("without_replacement", 2),
        ("with_replacement", 5),
    ]


def test_verify_bound_empty_identity_sizes_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, _bound_doc(identities={"num_sampled": [], "draws": 1000}))
    out = tmp_path / "out"
    assert main(["verify-bound", cfg, "--identities", "--out", str(out)]) == 1
    assert "bound config.identities.num_sampled" in capsys.readouterr().err
    assert not out.exists()


def test_verify_bound_insufficient_trials(tmp_path, capsys):
    cfg = _write(tmp_path, _bound_doc(trials=10))
    assert main(["verify-bound", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config error: bound config.trials must be >= 100.\n"


def test_verify_bound_seed_override_changes_digest(tmp_path):
    cfg = _write(tmp_path, _bound_doc())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["verify-bound", cfg, "--out", str(a)]) == 0
    assert main(["verify-bound", cfg, "--seed", "12", "--out", str(b)]) == 0
    da = json.loads((a / "bound_report.json").read_text())
    db = json.loads((b / "bound_report.json").read_text())
    assert da["provenance"]["config_digest"] != db["provenance"]["config_digest"]
    assert da["report"]["lhs"] != db["report"]["lhs"]


def test_verify_bound_seed_override_leaves_the_loaded_config_as_parsed(tmp_path, monkeypatch):
    from fedsim import cli

    loaded = []
    real = cli.load_bound_config

    def recorded(path):
        canonical = real(path)
        loaded.append((canonical, copy.deepcopy(canonical)))
        return canonical

    monkeypatch.setattr(cli, "load_bound_config", recorded)
    over, direct = tmp_path / "over", tmp_path / "direct"
    cfg = _write(tmp_path, _bound_doc())
    assert main(["verify-bound", cfg, "--seed", "12", "--out", str(over)]) == 0
    [(canonical, parsed)] = loaded
    assert canonical == parsed and canonical["seed"] == 11
    # the override reports as a config that names the seed itself
    cfg = _write(tmp_path, _bound_doc(seed=12), "s12.json")
    assert main(["verify-bound", cfg, "--out", str(direct)]) == 0
    assert (over / "bound_report.json").read_bytes() == (direct / "bound_report.json").read_bytes()


def test_consensus_trace_single_client_all_zero(tmp_path):
    doc = _mlp_doc(clients=1)
    out = tmp_path / "out"
    assert main(["consensus-trace", _write(tmp_path, doc), "--out", str(out)]) == 0
    with open(out / "consensus.csv", encoding="utf-8") as fh:
        assert fh.readline().startswith("# provenance")
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8 * 2  # 8 steps x 2 blocks
    assert {r["block"] for r in rows} == {"layer0", "layer1"}
    assert all(float(r["consensus"]) == 0.0 for r in rows)
    summary = json.loads((out / "consensus_summary.json").read_text())
    assert summary["steps_recorded"] == 8
    assert summary["time_averaged_consensus"] == {"layer0": 0.0, "layer1": 0.0}


def test_consensus_trace_drift_appears_between_syncs(tmp_path):
    out = tmp_path / "out"
    assert main(["consensus-trace", _write(tmp_path, _mlp_doc()), "--out", str(out)]) == 0
    with open(out / "consensus.csv", encoding="utf-8") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    by_block = {}
    for r in rows:
        by_block.setdefault(r["block"], []).append(float(r["consensus"]))
    # head resyncs every tau=2 steps, so consensus at sync steps is 0 afterwards
    assert any(v > 0 for v in by_block["layer1"])
    summary = json.loads((out / "consensus_summary.json").read_text())
    assert summary["time_averaged_consensus"]["layer1"] > 0.0


def test_consensus_trace_leaves_the_loaded_config_as_parsed(tmp_path, monkeypatch):
    from fedsim import cli

    loaded = []
    real = cli.load_config

    def recorded(path):
        cfg = real(path)
        loaded.append((cfg, copy.deepcopy(cfg.canonical), cfg.digest()))
        return cfg

    monkeypatch.setattr(cli, "load_config", recorded)
    path = _write(tmp_path, _mlp_doc())
    assert main(["consensus-trace", path, "--out", str(tmp_path / "o")]) == 0
    [(cfg, canonical, digest)] = loaded
    # the trace runs without sync risks, which the config keeps on
    assert canonical["metrics"]["risks_at_sync"] is True
    assert cfg.canonical == canonical and cfg.digest() == digest


def test_consensus_trace_needs_two_blocks(tmp_path, capsys):
    cfg = _write(tmp_path, _ridge_doc())
    assert main(["consensus-trace", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "2 blocks" in capsys.readouterr().err


def test_consensus_trace_cadence_validation(tmp_path, capsys):
    cfg = _write(tmp_path, _mlp_doc())
    assert main(["consensus-trace", cfg, "--cadence", "0", "--out", str(tmp_path / "o")]) == 1
    assert "cadence" in capsys.readouterr().err
