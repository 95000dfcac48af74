"""Strict JSON experiment configuration.

Configs are validated before anything is computed: unknown keys anywhere are
errors, as are missing required keys and out-of-domain values. Parsing
produces a canonical dict (defaults materialized) whose serialization is
idempotent, and the sha256 digest of that canonical form identifies the
config in every output file's provenance header.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import rng as streams
from .bounds import MIN_TRIALS, BoundTrialConfig
from .data import (
    GaussianClusters,
    GaussianLinear,
    GeneratorSpec,
    _psd_sqrt,
    generate,
    generate_pooled,
    load_delimited,
    partition_dirichlet,
    partition_iid,
    partition_label_sorted,
)
from .engine import MAX_SAMPLED, ParticipationSpec, ScheduleSpec, check_setup
from .models import ACTIVATIONS, LogisticL2Spec, MlpSpec, ModelSpec, RidgeSpec
from .params import BlockLayout, client_weights


class ConfigError(ValueError):
    """A config failed validation; the message names the offending key."""


def _check_keys(d: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object.")
    unknown = set(d) - required - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}.")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}.")


def _as_int(d: dict, key: str, where: str, default=None, minimum=None, maximum=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{where}: missing {key}.")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer.")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}.")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{where}.{key} must be <= {maximum}.")
    return v


def _finite(v, message: str) -> float:
    """v as a float; ConfigError(message) if it is not finite (an int too large for a float)."""
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(message)
    return v


def _as_float(d: dict, key: str, where: str, default=None, minimum=None, strict_min=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{where}: missing {key}.")
        return float(default)
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number.")
    v = _finite(v, f"{where}.{key} must be finite.")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}.")
    if strict_min is not None and v <= strict_min:
        raise ConfigError(f"{where}.{key} must be > {strict_min}.")
    return v


def _as_choice(d: dict, key: str, where: str, choices, default=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{where}: missing {key}.")
        return default
    v = d[key]
    if v not in choices:
        raise ConfigError(f"{where}.{key} must be one of {sorted(choices)}, got {v!r}.")
    return v


def _as_bool(d: dict, key: str, where: str, default: bool):
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{where}.{key} must be true or false.")
    return v


def _as_float_list(v, where: str):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a non-empty list of numbers.")
    out = []
    for x in v:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{where} must contain only numbers.")
        out.append(_finite(x, f"{where} must contain only finite numbers."))
    return out


def _as_weights(v, clients: int, where: str) -> list[float]:
    """Client weights as params.client_weights takes them, with errors that name where."""
    weights = _as_float_list(v, where)
    try:
        client_weights(weights, clients)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return weights


MODEL_FAMILIES = ("ridge", "logistic_l2", "mlp")
SOURCE_KINDS = ("gaussian_linear", "gaussian_clusters", "file")
PARTITION_MODES = ("per_client", "iid", "label_sorted", "dirichlet")
LINEAR_LAW_KEYS = {"covariance", "noise_std", "coef", "client_coefs", "coef_mode", "coef_scale"}


def canonical_digest(canonical: dict) -> str:
    """sha256 of a canonical config dict, serialized with sorted keys."""
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: the canonical JSON dict and the engine inputs built from it."""

    canonical: dict
    model: ModelSpec
    schedule: ScheduleSpec
    participation: ParticipationSpec
    layout: BlockLayout
    weights: list[float]

    @property
    def algorithm(self) -> str:
        return self.canonical["algorithm"]

    @property
    def num_clients(self) -> int:
        return self.canonical["clients"]

    @property
    def seeds(self) -> list[int]:
        return list(self.canonical["seeds"])

    @property
    def output(self) -> str:
        return self.canonical["output"]

    @property
    def representation_layers(self) -> int:
        return self.canonical["model"].get("representation_layers", 0)

    def run_options(self, cadence: int | None = None, risks_at_sync: bool | None = None) -> dict:
        """engine.run_experiments' options; cadence and risks_at_sync override the config's."""
        metrics = self.canonical["metrics"]
        return {
            "representation_layers": self.representation_layers,
            "weights": self.weights,
            "participation": self.participation,
            "batches_with_replacement": self.canonical["data"]["batches_with_replacement"],
            "consensus_every": metrics["cadence"] if cadence is None else cadence,
            "risk_every_sync": metrics["risks_at_sync"] if risks_at_sync is None else risks_at_sync,
            "per_client_risks": metrics["per_client_risks"],
        }

    def point(self, seeds, **schedule) -> "ExperimentConfig":
        """This config run on the given seeds, with schedule keys replaced; validated anew."""
        doc = dict(self.canonical, seeds=list(seeds))
        doc["schedule"] = dict(doc["schedule"], **schedule)
        return parse_config(doc)

    def digest(self) -> str:
        return canonical_digest(self.canonical)


def _model_spec(m: dict) -> ModelSpec:
    if m["family"] == "ridge":
        return RidgeSpec(m["input_dim"], m["l2"])
    if m["family"] == "logistic_l2":
        return LogisticL2Spec(m["input_dim"], m["l2"])
    return MlpSpec(m["input_dim"], m["hidden"], m["num_classes"], m["activation"], m["l2"])


def _parse_model(m: dict) -> dict:
    family = _as_choice(m, "family", "model", MODEL_FAMILIES)
    if family in ("ridge", "logistic_l2"):
        _check_keys(m, "model", {"family", "input_dim"}, {"l2"})
        return {
            "family": family,
            "input_dim": _as_int(m, "input_dim", "model", minimum=1),
            "l2": _as_float(m, "l2", "model", default=0.0, minimum=0.0),
        }
    _check_keys(
        m,
        "model",
        {"family", "input_dim", "hidden", "num_classes"},
        {"activation", "l2", "representation_layers"},
    )
    hidden = m["hidden"]
    if not isinstance(hidden, list) or not all(
        isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in hidden
    ):
        raise ConfigError("model.hidden must be a list of positive integers.")
    return {
        "family": family,
        "input_dim": _as_int(m, "input_dim", "model", minimum=1),
        "hidden": list(hidden),
        "num_classes": _as_int(m, "num_classes", "model", minimum=2),
        "activation": _as_choice(m, "activation", "model", ACTIVATIONS, default="relu"),
        "l2": _as_float(m, "l2", "model", default=0.0, minimum=0.0),
        "representation_layers": _as_int(m, "representation_layers", "model", default=0, minimum=0),
    }


def _parse_covariance(v, dim: int, where: str) -> dict | str:
    if v == "identity":
        return "identity"
    if isinstance(v, dict):
        _check_keys(v, where, {"diagonal"})
        diag = _as_float_list(v["diagonal"], f"{where}.diagonal")
        if len(diag) != dim:
            raise ConfigError(f"{where}.diagonal must have {dim} entries.")
        if any(x < 0 for x in diag):
            raise ConfigError(f"{where}.diagonal entries must be >= 0.")
        return {"diagonal": diag}
    if isinstance(v, list):
        rows = [_as_float_list(r, f"{where} row") for r in v]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ConfigError(f"{where} must be a {dim}x{dim} matrix.")
        try:
            _psd_sqrt(np.asarray(rows), where)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return rows
    raise ConfigError(f'{where} must be "identity", {{"diagonal": [...]}}, or a matrix.')


def _parse_linear_law(doc: dict, dim: int, where: str, rows_allowed: set[int]) -> dict:
    """Covariance, noise and coefficients of a Gaussian linear law.

    Exactly one coefficient route: a shared coef, client_coefs with a row
    count in rows_allowed, or a coef_mode.
    """
    out = {
        "covariance": _parse_covariance(
            doc.get("covariance", "identity"), dim, f"{where}.covariance"
        ),
        "noise_std": _as_float(doc, "noise_std", where, default=1.0, minimum=0.0),
    }
    if "coef" in doc and "client_coefs" in doc:
        raise ConfigError(f"{where}: give coef or client_coefs, not both.")
    if "coef" in doc:
        coef = _as_float_list(doc["coef"], f"{where}.coef")
        if len(coef) != dim:
            raise ConfigError(f"{where}.coef must have {dim} entries.")
        out["coef"] = coef
    elif "client_coefs" in doc:
        if not isinstance(doc["client_coefs"], list) or not doc["client_coefs"]:
            raise ConfigError(f"{where}.client_coefs must be a list of rows.")
        rows = [_as_float_list(r, f"{where}.client_coefs row") for r in doc["client_coefs"]]
        if any(len(r) != dim for r in rows):
            raise ConfigError(f"{where}.client_coefs rows must have {dim} entries.")
        if len(rows) not in rows_allowed:
            counts = " or ".join(str(n) for n in sorted(rows_allowed))
            raise ConfigError(f"{where}.client_coefs must be {counts} rows of {dim}.")
        out["client_coefs"] = rows
    else:
        out["coef_mode"] = _as_choice(
            doc, "coef_mode", where, ("zero", "shared_random", "per_client_random"), "shared_random"
        )
        out["coef_scale"] = _as_float(doc, "coef_scale", where, default=1.0, minimum=0.0)
    return out


def _parse_source(s: dict, clients: int) -> dict:
    where = "data.source"
    kind = _as_choice(s, "kind", where, SOURCE_KINDS)
    if kind == "gaussian_linear":
        _check_keys(s, where, {"kind", "dim"}, LINEAR_LAW_KEYS)
        dim = _as_int(s, "dim", where, minimum=1)
        # data.generate: one row shared by all clients, or one per client
        return {"kind": kind, "dim": dim, **_parse_linear_law(s, dim, where, {1, clients})}
    if kind == "gaussian_clusters":
        _check_keys(
            s,
            where,
            {"kind", "dim", "num_classes"},
            {"mean_scale", "cov_scale", "balanced"},
        )
        return {
            "kind": kind,
            "dim": _as_int(s, "dim", where, minimum=1),
            "num_classes": _as_int(s, "num_classes", where, minimum=2),
            "mean_scale": _as_float(s, "mean_scale", where, default=1.0, minimum=0.0),
            "cov_scale": _as_float(s, "cov_scale", where, default=1.0, strict_min=0.0),
            "balanced": _as_bool(s, "balanced", where, False),
        }
    _check_keys(s, where, {"kind", "path"})
    if not isinstance(s["path"], str) or not s["path"]:
        raise ConfigError(f"{where}.path must be a non-empty string.")
    return {"kind": kind, "path": s["path"]}


def _parse_partition(p: dict) -> dict:
    mode = _as_choice(p, "mode", "data.partition", PARTITION_MODES)
    if mode == "label_sorted":
        _check_keys(p, "data.partition", {"mode", "classes_per_client"})
        return {
            "mode": mode,
            "classes_per_client": _as_int(p, "classes_per_client", "data.partition", minimum=1),
        }
    if mode == "dirichlet":
        _check_keys(p, "data.partition", {"mode", "concentration"})
        return {
            "mode": mode,
            "concentration": _as_float(p, "concentration", "data.partition", strict_min=0.0),
        }
    _check_keys(p, "data.partition", {"mode"})
    return {"mode": mode}


def _parse_data(d: dict, clients: int) -> dict:
    _check_keys(
        d,
        "data",
        {"source", "partition", "n_per_client"},
        {"holdout_per_client", "batches_with_replacement"},
    )
    source = _parse_source(d["source"], clients)
    partition = _parse_partition(d["partition"])
    out = {
        "source": source,
        "partition": partition,
        "n_per_client": _as_int(d, "n_per_client", "data", minimum=1),
        "holdout_per_client": _as_int(d, "holdout_per_client", "data", default=0, minimum=0),
        "batches_with_replacement": _as_bool(d, "batches_with_replacement", "data", False),
    }
    if source["kind"] == "file":
        if partition["mode"] == "per_client":
            raise ConfigError("file sources have no per-client law; partition the file instead.")
        if out["holdout_per_client"] > 0:
            raise ConfigError("file sources cannot generate holdout samples.")
    if (
        source["kind"] == "gaussian_linear"
        and partition["mode"] != "per_client"
        and ("client_coefs" in source or source.get("coef_mode") == "per_client_random")
    ):
        raise ConfigError(
            "pooled partitions draw from a single law; per-client coefficients "
            'require partition mode "per_client".'
        )
    if source.get("balanced"):  # GaussianClusters splits each draw into equal classes
        pool = "" if partition["mode"] == "per_client" else " * clients"
        for key, n in {
            f"data.n_per_client{pool}": out["n_per_client"] * (clients if pool else 1),
            "data.holdout_per_client": out["holdout_per_client"],
        }.items():
            if n % source["num_classes"]:
                raise ConfigError(
                    f"{key} = {n} must be a multiple of data.source.num_classes = "
                    f"{source['num_classes']} for balanced classes."
                )
    return out


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config dict and return its canonical form."""
    _check_keys(
        doc,
        "config",
        {"algorithm", "clients", "model", "data", "schedule"},
        {"seed", "seeds", "weights", "participation", "metrics", "output"},
    )
    algorithm = doc["algorithm"]
    clients = _as_int(doc, "clients", "config", minimum=1, maximum=MAX_SAMPLED)

    if ("seed" in doc) == ("seeds" in doc):
        raise ConfigError("config: give exactly one of seed or seeds.")
    if "seed" in doc:
        seeds = [_as_int(doc, "seed", "config", minimum=0)]
    else:
        raw = doc["seeds"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config.seeds must be a non-empty list of integers.")
        if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in raw):
            raise ConfigError("config.seeds must contain non-negative integers.")
        seeds = list(raw)

    weights = doc.get("weights")
    if weights is not None:
        weights = _as_weights(weights, clients, "config.weights")

    s = doc["schedule"]
    _check_keys(s, "schedule", {"tau", "eta", "rounds", "batch_size"}, {"alpha"})
    schedule = {
        "tau": _as_int(s, "tau", "schedule", minimum=1),
        "alpha": _as_int(s, "alpha", "schedule", default=1, minimum=1),
        "eta": _as_float(s, "eta", "schedule", strict_min=0.0),
        "rounds": _as_int(s, "rounds", "schedule", minimum=1),
        "batch_size": _as_int(s, "batch_size", "schedule", minimum=1),
    }

    p = doc.get("participation", {"mode": "full"})
    mode = _as_choice(p, "mode", "participation", ("full", "with_replacement", "without_replacement"))
    if mode == "full":
        _check_keys(p, "participation", {"mode"})
        participation = {"mode": mode}
    else:
        _check_keys(p, "participation", {"mode", "num_sampled"})
        participation = {
            "mode": mode, "num_sampled": _as_int(p, "num_sampled", "participation", minimum=1)
        }

    m = doc.get("metrics", {})
    _check_keys(m, "metrics", set(), {"cadence", "per_client_risks", "risks_at_sync"})
    metrics = {
        "cadence": _as_int(m, "cadence", "metrics", default=1, minimum=0),
        "per_client_risks": _as_bool(m, "per_client_risks", "metrics", False),
        "risks_at_sync": _as_bool(m, "risks_at_sync", "metrics", True),
    }

    model = _parse_model(doc["model"])
    data = _parse_data(doc["data"], clients)

    if model["family"] == "mlp":
        if data["source"]["kind"] == "gaussian_linear":
            raise ConfigError("mlp models need classification data.")
        if (
            data["source"]["kind"] == "gaussian_clusters"
            and data["source"]["num_classes"] != model["num_classes"]
        ):
            raise ConfigError("model.num_classes must match data.source.num_classes.")
    if model["family"] == "ridge" and data["source"]["kind"] == "gaussian_clusters":
        raise ConfigError("ridge models need regression data.")
    if model["family"] == "logistic_l2" and data["source"]["kind"] != "file":
        raise ConfigError(
            'model.family "logistic_l2" needs -1/+1 labels, which only a file source '
            f'provides; data.source.kind is "{data["source"]["kind"]}".'
        )
    input_dim = model["input_dim"]
    dim = data["source"].get("dim", input_dim)  # a file's width is checked when it is read
    if dim != input_dim:
        raise ConfigError(f"model.input_dim = {input_dim} must match data.source.dim = {dim}.")
    output = doc.get("output", "fedsim_out")
    if not isinstance(output, str) or not output:
        raise ConfigError("config.output must be a non-empty string.")

    canonical = {
        "algorithm": algorithm,
        "clients": clients,
        "seeds": seeds,
        "weights": weights,
        "model": model,
        "data": data,
        "schedule": schedule,
        "participation": participation,
        "metrics": metrics,
        "output": output,
    }
    model_spec, schedule_spec = _model_spec(model), ScheduleSpec(**schedule)
    participation_spec = ParticipationSpec(**participation)
    try:
        layout = check_setup(
            algorithm, model_spec, schedule_spec, clients, participation=participation_spec,
            representation_layers=model.get("representation_layers", 0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        canonical, model_spec, schedule_spec, participation_spec, layout,
        client_weights(weights, clients).tolist(),
    )


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object.")
    return doc


def load_config(path) -> ExperimentConfig:
    return parse_config(_read_json(path))


def _covariance_matrix(cov, dim: int) -> np.ndarray:
    if cov == "identity":
        return np.eye(dim)
    if isinstance(cov, dict):
        return np.diag(np.asarray(cov["diagonal"], dtype=np.float64))
    return np.asarray(cov, dtype=np.float64)


def _linear_law(law: dict, dim: int, clients: int, seed: int) -> GaussianLinear:
    """The GaussianLinear of a parsed law; random coefficients come from the seed's COEF stream."""
    gen = streams.substream(seed, streams.COEF)
    if "coef" in law:
        coefs = np.asarray([law["coef"]])
    elif "client_coefs" in law:
        coefs = np.asarray(law["client_coefs"])
    elif law["coef_mode"] == "zero":
        coefs = np.zeros((1, dim))
    elif law["coef_mode"] == "shared_random":
        coefs = law["coef_scale"] * gen.standard_normal((1, dim))
    else:
        coefs = law["coef_scale"] * gen.standard_normal((clients, dim))
    return GaussianLinear(_covariance_matrix(law["covariance"], dim), coefs, law["noise_std"], seed)


def build_generator(cfg: ExperimentConfig, seed: int) -> GeneratorSpec:
    """Materialize the configured synthetic data source for one seed.

    Random coefficients and class means come from a stream keyed by the run
    seed, so the whole data law is reproducible from (config, seed).
    """
    src = cfg.canonical["data"]["source"]
    if src["kind"] == "gaussian_linear":
        return _linear_law(src, src["dim"], cfg.num_clients, seed)
    gen = streams.substream(seed, streams.COEF)
    means = src["mean_scale"] * gen.standard_normal((src["num_classes"], src["dim"]))
    cov = src["cov_scale"] * np.eye(src["dim"])
    return GaussianClusters(means, cov, seed, balanced=src["balanced"])


def build_shards(cfg: ExperimentConfig, seed: int):
    """Build training shards and the population source for one seed.

    Returns (shards, pop_source): shards is a data.Shards, and pop_source is
    a GaussianLinear spec (exact test risk for ridge), a Shards of held-out
    samples, or None when the config provides no population route.
    """
    data_cfg = cfg.canonical["data"]
    part, n_per, clients = data_cfg["partition"], data_cfg["n_per_client"], cfg.num_clients
    if data_cfg["source"]["kind"] == "file":
        path = data_cfg["source"]["path"]
        X, y = load_delimited(path)
        if X.shape[1] != cfg.model.input_dim:
            raise ConfigError(
                f"model.input_dim = {cfg.model.input_dim} does not match the {X.shape[1]} "
                f"features per line of {path}."
            )
        return _partition(X, y, part, clients, seed), None

    source = build_generator(cfg, seed)
    if part["mode"] == "per_client":
        shards = generate(source, n_per, clients)
    else:
        shards = _partition(*generate_pooled(source, n_per * clients), part, clients, seed)
    if cfg.canonical["model"]["family"] == "ridge" and isinstance(source, GaussianLinear):
        return shards, source
    holdout_n = data_cfg["holdout_per_client"]
    return shards, generate(source, holdout_n, clients, streams.EVAL) if holdout_n > 0 else None


def _partition(X, y, part: dict, clients: int, seed: int):
    if part["mode"] == "iid":
        return partition_iid(X, y, clients, seed)
    if part["mode"] == "label_sorted":
        return partition_label_sorted(X, y, clients, part["classes_per_client"])
    return partition_dirichlet(X, y, clients, part["concentration"], seed)


def parse_bound_config(doc: dict) -> dict:
    """Validate a bound-verification config document; returns its canonical dict."""
    _check_keys(
        doc,
        "bound config",
        {"clients", "n_per_client", "dim", "l2", "trials", "seed"},
        LINEAR_LAW_KEYS | {"weights", "identities"},
    )
    clients = _as_int(doc, "clients", "bound config", minimum=1, maximum=MAX_SAMPLED)
    dim = _as_int(doc, "dim", "bound config", minimum=1)
    out = {
        "clients": clients,
        "n_per_client": _as_int(doc, "n_per_client", "bound config", minimum=2),
        "dim": dim,
        "l2": _as_float(doc, "l2", "bound config", strict_min=0.0),
        "trials": _as_int(doc, "trials", "bound config", minimum=MIN_TRIALS),
        "seed": _as_int(doc, "seed", "bound config", minimum=0),
        **_parse_linear_law(doc, dim, "bound config", {clients}),
    }

    weights = doc.get("weights")
    if weights is not None:
        weights = _as_weights(weights, clients, "bound config.weights")
    out["weights"] = weights

    ident = doc.get("identities")
    out["identities"] = None if ident is None else _parse_identities(ident, clients)
    return out


def _parse_identities(ident: dict, clients: int) -> dict:
    _check_keys(ident, "bound config.identities", set(), {"num_sampled", "draws"})
    sampled = ident.get("num_sampled", [clients])
    if not isinstance(sampled, list) or not sampled or not all(
        isinstance(k, int) and not isinstance(k, bool) and 1 <= k <= MAX_SAMPLED for k in sampled
    ):
        raise ConfigError(
            "bound config.identities.num_sampled must be a non-empty list of ints "
            f"from 1 to {MAX_SAMPLED}."
        )
    return {
        "num_sampled": list(sampled),
        # a 3-sigma check on fewer draws than the theorem check's trials means nothing
        "draws": _as_int(
            ident, "draws", "bound config.identities", default=100000, minimum=MIN_TRIALS
        ),
    }


def identity_checks(canonical: dict) -> dict:
    """The participation-identity checks of a canonical bound config; defaults when it has none."""
    return canonical["identities"] or _parse_identities({}, canonical["clients"])


def load_bound_config(path) -> dict:
    return parse_bound_config(_read_json(path))


def build_bound_trial_config(canonical: dict) -> BoundTrialConfig:
    """Turn a canonical bound config into runnable trial inputs."""
    seed = canonical["seed"]
    generator = _linear_law(canonical, canonical["dim"], canonical["clients"], seed)
    weights = canonical["weights"]
    try:
        return BoundTrialConfig(
            generator=generator,
            num_clients=canonical["clients"],
            n_per_client=canonical["n_per_client"],
            l2=canonical["l2"],
            trials=canonical["trials"],
            seed=seed,
            weights=None if weights is None else np.asarray(weights),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
