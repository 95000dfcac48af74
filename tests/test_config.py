"""Config validation, canonicalization, and builders."""

import copy
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.bounds import MIN_TRIALS
from fedsim.config import (
    ConfigError,
    build_bound_trial_config,
    build_generator,
    build_shards,
    load_config,
    parse_bound_config,
    parse_config,
)
from fedsim.data import GaussianClusters, GaussianLinear, Shards


def _doc(**overrides):
    doc = {
        "algorithm": "fedavg",
        "clients": 3,
        "seed": 7,
        "model": {"family": "ridge", "input_dim": 2, "l2": 0.1},
        "data": {
            "source": {"kind": "gaussian_linear", "dim": 2, "noise_std": 0.5},
            "partition": {"mode": "per_client"},
            "n_per_client": 20,
        },
        "schedule": {"tau": 2, "eta": 0.05, "rounds": 3, "batch_size": 5},
    }
    doc.update(overrides)
    return doc


def _mlp_doc(**overrides):
    doc = _doc(
        algorithm="fedals",
        model={
            "family": "mlp",
            "input_dim": 3,
            "hidden": [6, 6],
            "num_classes": 4,
            "representation_layers": 1,
        },
        data={
            "source": {"kind": "gaussian_clusters", "dim": 3, "num_classes": 4},
            "partition": {"mode": "per_client"},
            "n_per_client": 20,
        },
    )
    doc["schedule"] = {"tau": 2, "eta": 0.05, "rounds": 3, "batch_size": 5, "alpha": 2}
    doc.update(overrides)
    return doc


def test_roundtrip_idempotent():
    cfg = parse_config(_doc())
    again = parse_config(json.loads(json.dumps(cfg.canonical)))
    assert again.canonical == cfg.canonical
    assert again.digest() == cfg.digest()


def test_defaults_materialized():
    cfg = parse_config(_doc())
    assert cfg.canonical["schedule"]["alpha"] == 1
    assert cfg.canonical["metrics"] == {
        "cadence": 1,
        "per_client_risks": False,
        "risks_at_sync": True,
    }
    assert cfg.canonical["participation"] == {"mode": "full"}
    assert cfg.canonical["output"] == "fedsim_out"
    assert cfg.canonical["weights"] is None
    assert cfg.weights == [1 / 3, 1 / 3, 1 / 3]
    assert cfg.seeds == [7]


def test_digest_tracks_content():
    a = parse_config(_doc())
    b = parse_config(_doc(seed=8))
    assert a.digest() == parse_config(_doc()).digest()
    assert a.digest() != b.digest()


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(_doc(extra=1))
    for path, key in (
        ("model", "dropout"),
        ("schedule", "momentum"),
        ("metrics", "verbose"),
    ):
        doc = _doc(metrics={}) if path == "metrics" else _doc()
        doc[path] = dict(doc.get(path, {}), **{key: 1})
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)
    doc = _doc()
    doc["data"]["source"]["nonsense"] = True
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(doc)
    doc = _doc()
    doc["data"]["partition"] = {"mode": "per_client", "stray": 0}
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(doc)


def test_seed_xor_seeds():
    doc = _doc()
    doc["seeds"] = [1, 2]
    with pytest.raises(ConfigError, match="exactly one of seed or seeds"):
        parse_config(doc)
    doc = _doc()
    del doc["seed"]
    with pytest.raises(ConfigError, match="exactly one of seed or seeds"):
        parse_config(doc)
    doc["seeds"] = []
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config(doc)
    doc["seeds"] = [1, -2]
    with pytest.raises(ConfigError, match="non-negative"):
        parse_config(doc)
    doc["seeds"] = [3, 5, 9]
    assert parse_config(doc).seeds == [3, 5, 9]


def test_weight_validation():
    with pytest.raises(ConfigError, match="3 entries"):
        parse_config(_doc(weights=[0.5, 0.5]))
    with pytest.raises(ConfigError, match="non-negative"):
        parse_config(_doc(weights=[1.5, -0.25, -0.25]))
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config(_doc(weights=[0.5, 0.3, 0.1]))
    # a NaN fails every comparison, so only a finiteness check catches it
    with pytest.raises(ConfigError, match=r"config\.weights must contain only finite"):
        parse_config(_doc(weights=[float("nan")] * 3))
    cfg = parse_config(_doc(weights=[0.5, 0.3, 0.2]))
    assert cfg.weights == [0.5, 0.3, 0.2]


def test_algorithm_schedule_cross_checks():
    doc = _doc()
    doc["schedule"]["alpha"] = 2
    with pytest.raises(ConfigError, match="alpha must be 1"):
        parse_config(doc)
    with pytest.raises(ConfigError, match="representation and head"):
        parse_config(_doc(algorithm="fedals"))
    doc = _mlp_doc()
    doc["model"]["representation_layers"] = 0
    with pytest.raises(ConfigError, match="representation_layers"):
        parse_config(doc)
    doc["model"]["representation_layers"] = 3  # equals layer count: no head left
    with pytest.raises(ConfigError, match="representation_layers"):
        parse_config(doc)
    assert parse_config(_mlp_doc()).representation_layers == 1


def test_model_data_cross_checks():
    doc = _mlp_doc(algorithm="fedavg")
    doc["schedule"]["alpha"] = 1
    doc["data"]["source"] = {"kind": "gaussian_linear", "dim": 3}
    with pytest.raises(ConfigError, match="classification data"):
        parse_config(doc)
    doc = _mlp_doc()
    doc["data"]["source"]["num_classes"] = 5
    with pytest.raises(ConfigError, match="num_classes must match"):
        parse_config(doc)
    doc = _doc()
    doc["data"]["source"] = {"kind": "gaussian_clusters", "dim": 2, "num_classes": 3}
    with pytest.raises(ConfigError, match="regression data"):
        parse_config(doc)
    # neither synthetic source draws the -1/+1 labels logistic_l2 needs
    for source in (
        {"kind": "gaussian_linear", "dim": 2},
        {"kind": "gaussian_clusters", "dim": 2, "num_classes": 2},
    ):
        doc = _doc(model={"family": "logistic_l2", "input_dim": 2})
        doc["data"]["source"] = source
        with pytest.raises(ConfigError, match="model.family.*data.source.kind"):
            parse_config(doc)


def test_pooled_partition_needs_shared_law():
    doc = _doc()
    doc["data"]["source"]["client_coefs"] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    doc["data"]["partition"] = {"mode": "iid"}
    with pytest.raises(ConfigError, match="per-client coefficients"):
        parse_config(doc)
    doc["data"]["partition"] = {"mode": "per_client"}
    assert parse_config(doc).canonical["data"]["source"]["client_coefs"][0] == [1.0, 0.0]


def _data_rule_cases():
    """A pytest.param(config, message) per data rule checked at validation; none of them can run."""
    cases = []

    def case(name, doc, message):
        cases.append(pytest.param(doc, message, id=name))

    doc = _doc()
    doc["model"]["input_dim"] = 3
    case("input_dim_linear", doc, "model.input_dim = 3 must match data.source.dim = 2.")
    doc = _mlp_doc()
    doc["data"]["source"]["dim"] = 4
    case("input_dim_clusters", doc, "model.input_dim = 3 must match data.source.dim = 4.")
    doc = _doc(clients=5)
    doc["data"]["source"]["client_coefs"] = [[1.0, 0.0], [0.0, 1.0]]
    case("client_coefs_rows", doc, "data.source.client_coefs must be 1 or 5 rows of 2.")
    for name, cov, rule in (
        ("covariance_symmetric", [[1.0, 0.5], [0.0, 1.0]], "symmetric"),
        ("covariance_psd", [[1.0, 2.0], [2.0, 1.0]], "positive semi-definite"),
    ):
        doc = _doc()
        doc["data"]["source"]["covariance"] = cov
        case(name, doc, f"data.source.covariance must be {rule}.")
    rule = "must be a multiple of data.source.num_classes = 4 for balanced classes."
    for name, partition, n, holdout, key in (
        ("balanced_per_client", {"mode": "per_client"}, 18, 0, "data.n_per_client = 18"),
        ("balanced_pooled", {"mode": "iid"}, 18, 0, "data.n_per_client * clients = 54"),
        ("balanced_holdout", {"mode": "per_client"}, 20, 6, "data.holdout_per_client = 6"),
    ):
        doc = _mlp_doc()
        doc["data"].update(partition=partition, n_per_client=n, holdout_per_client=holdout)
        doc["data"]["source"]["balanced"] = True
        case(name, doc, f"{key} {rule}")
    return cases


DATA_RULE_CASES = _data_rule_cases()


@pytest.mark.parametrize("doc, message", DATA_RULE_CASES)
def test_each_data_rule_is_a_config_error_that_names_its_key(doc, message):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == message


def test_the_data_rules_admit_what_the_draws_take():
    doc = _doc()
    doc["data"]["source"]["covariance"] = [[2.0, 1.0], [1.0, 2.0]]
    doc["data"]["source"]["client_coefs"] = [[1.0, 0.0]]  # one row shared by all clients
    assert parse_config(doc).canonical["data"]["source"]["covariance"] == [[2.0, 1.0], [1.0, 2.0]]
    pooled = _mlp_doc(clients=2)  # 2 * 10 samples split into 4 equal classes
    pooled["data"].update(partition={"mode": "iid"}, n_per_client=10, holdout_per_client=8)
    pooled["data"]["source"]["balanced"] = True
    shards, holdout = build_shards(parse_config(pooled), seed=1)
    assert sum(shards.sizes) == 20 and holdout.sizes == (8, 8)


@pytest.mark.parametrize(
    "cov, rule", [([[1.0, 0.5], [0.0, 1.0]], "symmetric"), ([[1.0, 2.0], [2.0, 1.0]], "positive")]
)
def test_a_bound_config_covariance_is_checked_at_validation(cov, rule):
    doc = {"clients": 2, "n_per_client": 20, "dim": 2, "l2": 0.5, "trials": 150, "seed": 4}
    with pytest.raises(ConfigError, match=f"^bound config.covariance must be {rule}"):
        parse_bound_config(dict(doc, covariance=cov))


def test_a_data_file_must_have_model_input_dim_features(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{i % 5}.5 {i % 3} {i % 4}\n" for i in range(24)))
    doc = _mlp_doc()
    doc["data"].update(source={"kind": "file", "path": str(path)}, partition={"mode": "iid"})
    cfg = parse_config(doc)  # the file's width is known only once it is read
    with pytest.raises(ConfigError) as info:
        build_shards(cfg, seed=3)
    assert str(info.value) == (
        f"model.input_dim = 3 does not match the 2 features per line of {path}."
    )


def test_file_source_constraints(tmp_path):
    path = tmp_path / "data.csv"
    doc = _doc()
    doc["data"]["source"] = {"kind": "file", "path": str(path)}
    with pytest.raises(ConfigError, match="partition the file"):
        parse_config(doc)
    doc["data"]["partition"] = {"mode": "iid"}
    doc["data"]["holdout_per_client"] = 5
    with pytest.raises(ConfigError, match="holdout"):
        parse_config(doc)


def test_participation_validation():
    doc = _doc(participation={"mode": "full", "num_sampled": 2})
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(doc)
    doc = _doc(participation={"mode": "without_replacement", "num_sampled": 5})
    with pytest.raises(ConfigError, match="cannot exceed clients"):
        parse_config(doc)
    cfg = parse_config(_doc(participation={"mode": "with_replacement", "num_sampled": 2}))
    spec = cfg.participation
    assert spec.mode == "with_replacement" and spec.num_sampled == 2


HUGE = 10**400  # an integer JSON reads exactly and a float cannot hold


def _golden_bound_doc(**overrides) -> dict:
    path = os.path.join(os.path.dirname(__file__), "golden", "configs", "bound_perclient_identities.json")
    with open(path, encoding="utf-8") as fh:
        return dict(json.load(fh), **overrides)


@pytest.mark.parametrize(
    "path, message",
    [
        (("schedule", "eta"), r"^schedule\.eta must be finite\.$"),
        (("model", "l2"), r"^model\.l2 must be finite\.$"),
        (("data", "source", "noise_std"), r"^data\.source\.noise_std must be finite\.$"),
        (("data", "source", "coef"), r"^data\.source\.coef must contain only finite numbers\.$"),
    ],
)
def test_an_integer_too_large_for_a_float_is_not_finite(path, message):
    doc = _doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = [1.0, -HUGE] if path[-1] == "coef" else HUGE
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)
    assert parse_config(_doc()).schedule.eta == 0.05


@pytest.mark.parametrize("key", ["l2", "noise_std"])
def test_a_bound_config_integer_too_large_for_a_float_is_not_finite(key):
    doc = _golden_bound_doc(**{key: HUGE})
    with pytest.raises(ConfigError, match=rf"^bound config\.{key} must be finite\.$"):
        parse_bound_config(doc)


@pytest.mark.parametrize("num_sampled", [2**62, 2**70])
def test_a_num_sampled_numpy_cannot_size_is_rejected(num_sampled):
    doc = _doc(participation={"mode": "with_replacement", "num_sampled": num_sampled})
    with pytest.raises(ConfigError, match=r"participation\.num_sampled must be <= \d+"):
        parse_config(doc)
    doc = _golden_bound_doc(identities={"num_sampled": [3, num_sampled]})
    with pytest.raises(ConfigError, match=r"identities\.num_sampled must be .* from 1 to \d+"):
        parse_bound_config(doc)


@pytest.mark.parametrize("clients", [2**62, HUGE], ids=["2**62", "10**400"])
def test_a_clients_count_numpy_cannot_size_is_rejected(clients):
    with pytest.raises(ConfigError, match=r"^config\.clients must be <= \d+\.$"):
        parse_config(_doc(clients=clients))
    doc = _golden_bound_doc(clients=clients)
    del doc["weights"]
    with pytest.raises(ConfigError, match=r"^bound config\.clients must be <= \d+\.$"):
        parse_bound_config(doc)


def test_type_strictness():
    doc = _doc()
    doc["schedule"]["tau"] = True  # bools are not integers here
    with pytest.raises(ConfigError, match="integer"):
        parse_config(doc)
    doc = _doc()
    doc["schedule"]["eta"] = 0.0
    with pytest.raises(ConfigError, match="> 0"):
        parse_config(doc)
    doc = _doc()
    doc["model"]["hidden"] = [4]
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(doc)  # hidden is not a ridge key


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(lst)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_doc()))
    assert load_config(good).algorithm == "fedavg"


def test_build_generator_modes():
    zero = _doc()
    zero["data"]["source"]["coef_mode"] = "zero"
    gen = build_generator(parse_config(zero), seed=1)
    assert isinstance(gen, GaussianLinear)
    assert np.array_equal(gen.client_coefs, np.zeros((1, 2)))

    shared = build_generator(parse_config(_doc()), seed=1)
    assert shared.client_coefs.shape == (1, 2)
    again = build_generator(parse_config(_doc()), seed=1)
    assert np.array_equal(shared.client_coefs, again.client_coefs)
    other = build_generator(parse_config(_doc()), seed=2)
    assert not np.array_equal(shared.client_coefs, other.client_coefs)

    per = _doc()
    per["data"]["source"]["coef_mode"] = "per_client_random"
    gen = build_generator(parse_config(per), seed=1)
    assert gen.client_coefs.shape == (3, 2)

    clusters = build_generator(parse_config(_mlp_doc()), seed=1)
    assert isinstance(clusters, GaussianClusters)
    assert clusters.class_means.shape == (4, 3)


def test_build_shards_routes():
    cfg = parse_config(_doc())
    shards, pop = build_shards(cfg, seed=3)
    assert len(shards) == 3 and all(s.n == 20 for s in shards)
    assert isinstance(pop, GaussianLinear)  # ridge gets the exact route

    doc = _mlp_doc()
    doc["data"]["holdout_per_client"] = 8
    shards, pop = build_shards(parse_config(doc), seed=3)
    assert isinstance(pop, Shards) and len(pop) == 3 and all(h.n == 8 for h in pop)

    shards, pop = build_shards(parse_config(_mlp_doc()), seed=3)
    assert pop is None  # no holdout, no closed form

    pooled = _mlp_doc()
    pooled["data"]["partition"] = {"mode": "label_sorted", "classes_per_client": 2}
    pooled["data"]["source"]["balanced"] = True
    shards, _ = build_shards(parse_config(pooled), seed=3)
    assert len(shards) == 3
    assert sum(s.n for s in shards) == 60


def _routes(tmp_path):
    """(name, config) for every way build_shards can lay out shards."""
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{i % 5}.5 {i % 3} {i % 4}\n" for i in range(24)))
    file_doc = _mlp_doc()
    file_doc["data"]["source"] = {"kind": "file", "path": str(path)}
    file_doc["data"]["partition"] = {"mode": "iid"}
    file_doc["model"]["input_dim"] = 2
    holdout = _mlp_doc()
    holdout["data"]["holdout_per_client"] = 8
    docs = {"per_client": _mlp_doc(), "file": file_doc, "holdout": holdout}
    for mode, extra in (
        ("iid", {}),
        ("label_sorted", {"classes_per_client": 2}),
        ("dirichlet", {"concentration": 0.5}),
    ):
        docs[mode] = _mlp_doc()
        docs[mode]["data"]["partition"] = {"mode": mode, **extra}
    return docs


@pytest.mark.parametrize(
    "route", ["per_client", "iid", "label_sorted", "dirichlet", "file", "holdout"]
)
def test_build_shards_returns_shards_that_view_their_pool(tmp_path, route):
    shards, pop = build_shards(parse_config(_routes(tmp_path)[route]), seed=3)
    built = pop if route == "holdout" else shards
    assert isinstance(built, Shards) and len(built) == 3
    assert built.sizes == tuple(s.n for s in built) and sum(built.sizes) == built.X.shape[0]
    for shard in built:
        assert np.shares_memory(shard.X, built.X) and np.shares_memory(shard.y, built.y)
    assert np.array_equal(built.X, np.concatenate([s.X for s in built]))
    assert np.array_equal(built.y, np.concatenate([s.y for s in built]))


def test_bound_config_parse_and_build():
    doc = {"clients": 2, "n_per_client": 20, "dim": 2, "l2": 0.5, "trials": 150, "seed": 4}
    canon = parse_bound_config(doc)
    assert canon["noise_std"] == 1.0
    assert canon["covariance"] == "identity"
    assert canon["coef_mode"] == "shared_random"
    assert canon["identities"] is None
    trial = build_bound_trial_config(canon)
    assert trial.num_clients == 2 and trial.trials == 150
    assert np.array_equal(trial.weights, [0.5, 0.5])
    override = build_bound_trial_config(dict(canon, seed=9))
    assert override.seed == 9
    assert not np.array_equal(
        trial.generator.client_coefs, override.generator.client_coefs
    )


def test_bound_config_validation():
    base = {"clients": 2, "n_per_client": 20, "dim": 2, "l2": 0.5, "trials": 150, "seed": 4}
    doc = dict(base, coef=[1.0, 0.0], client_coefs=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigError, match="not both"):
        parse_bound_config(doc)
    with pytest.raises(ConfigError, match="2 rows of 2"):
        parse_bound_config(dict(base, client_coefs=[[1.0, 0.0]]))
    with pytest.raises(ConfigError, match="client_coefs must be a list"):
        parse_bound_config(dict(base, client_coefs=5))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_bound_config(dict(base, bogus=1))
    with pytest.raises(ConfigError, match="insufficient trials"):
        build_bound_trial_config(parse_bound_config(dict(base, trials=10)))
    ident = parse_bound_config(dict(base, identities={"num_sampled": [1, 2]}))
    assert ident["identities"] == {"num_sampled": [1, 2], "draws": 100000}
    with pytest.raises(ConfigError, match="num_sampled"):
        parse_bound_config(dict(base, identities={"num_sampled": [0]}))
    with pytest.raises(ConfigError, match=r"bound config\.identities\.num_sampled .*non-empty"):
        parse_bound_config(dict(base, identities={"num_sampled": [], "draws": 1000}))
    with pytest.raises(ConfigError, match=r"bound config\.weights must contain only finite"):
        parse_bound_config(dict(base, weights=[float("nan"), float("nan")]))


@pytest.mark.parametrize(
    "weights, message",
    [
        ([0.5, 0.25], r"one weight per client required \(3 entries\)"),
        ([1.5, -0.25, -0.25], "must be finite and non-negative"),
        ([0.5, 0.3, 0.1], "must sum to 1 within"),
    ],
)
def test_both_parsers_apply_the_weight_rule_at_parse_time(weights, message):
    with pytest.raises(ConfigError, match=rf"^config\.weights: .*{message}"):
        parse_config(_doc(weights=weights))
    bound = {"clients": 3, "n_per_client": 20, "dim": 2, "l2": 0.5, "trials": 150, "seed": 4}
    with pytest.raises(ConfigError, match=rf"^bound config\.weights: .*{message}"):
        parse_bound_config(dict(bound, weights=weights))


@pytest.mark.parametrize("draws", [2, 99])
def test_identity_draws_below_min_trials_are_a_config_error(draws):
    # a 3-sigma check on a handful of draws means nothing: the floor is the
    # theorem check's own MIN_TRIALS
    base = {"clients": 2, "n_per_client": 20, "dim": 2, "l2": 0.5, "trials": 150, "seed": 4}
    with pytest.raises(ConfigError, match=r"bound config\.identities\.draws must be >= 100\."):
        parse_bound_config(dict(base, identities={"num_sampled": [2], "draws": draws}))
    ident = parse_bound_config(dict(base, identities={"num_sampled": [2], "draws": MIN_TRIALS}))
    assert ident["identities"]["draws"] == MIN_TRIALS == 100


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "law, where",
    [
        (lambda v: {"coef": [v, 0.0]}, "coef"),
        (lambda v: {"client_coefs": [[0.0, 0.0], [0.0, v], [0.0, 0.0]]}, "client_coefs row"),
        (lambda v: {"covariance": {"diagonal": [1.0, v]}}, "covariance.diagonal"),
        (lambda v: {"covariance": [[1.0, 0.0], [0.0, v]]}, "covariance row"),
    ],
    ids=["coef", "client_coefs", "diagonal", "matrix"],
)
def test_non_finite_law_entries_are_named(law, where, value):
    # json.load accepts NaN and +-Infinity, so parsing must reject them
    doc = _doc()
    doc["data"]["source"] = {"kind": "gaussian_linear", "dim": 2, **law(value)}
    with pytest.raises(ConfigError, match=rf"data\.source\.{where} must contain only finite"):
        parse_config(json.loads(json.dumps(doc)))
    bound = {"clients": 3, "n_per_client": 20, "dim": 2, "l2": 0.5, "trials": 150, "seed": 6}
    with pytest.raises(ConfigError, match=rf"bound config\.{where} must contain only finite"):
        parse_bound_config(json.loads(json.dumps(dict(bound, **law(value)))))


@pytest.mark.parametrize(
    "coefs",
    [
        {"coef": [0.5, -1.0]},
        {"client_coefs": [[1.0, 0.0], [0.0, 1.0], [1.0, -2.0]]},
        {"coef_mode": "zero"},
        {"coef_mode": "shared_random", "coef_scale": 0.7},
        {"coef_mode": "per_client_random", "coef_scale": 1.3},
    ],
)
def test_linear_law_same_as_source_and_bound_config(coefs):
    law = {"covariance": {"diagonal": [1.0, 0.25]}, "noise_std": 0.3, **coefs}
    doc = _doc()
    doc["data"]["source"] = {"kind": "gaussian_linear", "dim": 2, **law}
    from_source = build_generator(parse_config(doc), seed=6)
    bound = {"clients": 3, "n_per_client": 20, "dim": 2, "l2": 0.5, "trials": 150, "seed": 6}
    from_bound = build_bound_trial_config(parse_bound_config(dict(bound, **law))).generator
    assert np.array_equal(from_source.covariance, from_bound.covariance)
    assert np.array_equal(from_source.client_coefs, from_bound.client_coefs)
    assert from_source.noise_std == from_bound.noise_std


def test_copy_does_not_leak_into_canonical():
    doc = _doc()
    cfg = parse_config(doc)
    snapshot = copy.deepcopy(cfg.canonical)
    doc["schedule"]["tau"] = 99
    doc["data"]["source"]["noise_std"] = 99.0
    assert cfg.canonical == snapshot


# Property tests: any valid document, experiment or bound, parses to a
# canonical dict that parses back to itself, and one unknown key added to any
# object of that dict is a ConfigError that names the key.

_pos = st.floats(0.01, 10.0)


def _weights(clients):
    parts = st.lists(st.integers(1, 9), min_size=clients, max_size=clients)
    return parts.map(lambda a: [x / sum(a) for x in a])


@st.composite
def _covariance(draw, dim):
    kind = draw(st.sampled_from(["default", "identity", "diagonal", "matrix"]))
    if kind == "identity":
        return {"covariance": "identity"}
    if kind == "diagonal":
        return {"covariance": {"diagonal": draw(st.lists(_pos, min_size=dim, max_size=dim))}}
    if kind == "matrix":
        return {"covariance": [[float(i == j) for j in range(dim)] for i in range(dim)]}
    return {}


@st.composite
def _linear_law(draw, dim, coef_rows):
    """A Gaussian linear law; coef_rows is the client_coefs row count, or 0
    when the law must be shared by all clients."""
    law = draw(_covariance(dim))
    if draw(st.booleans()):
        law["noise_std"] = draw(_pos)
    row = st.lists(_pos, min_size=dim, max_size=dim)
    routes = ["coef", "mode", "default"] + (["client_coefs"] if coef_rows else [])
    route = draw(st.sampled_from(routes))
    if route == "coef":
        law["coef"] = draw(row)
    elif route == "client_coefs":
        law["client_coefs"] = draw(st.lists(row, min_size=coef_rows, max_size=coef_rows))
    elif route == "mode":
        modes = ["zero", "shared_random"] + (["per_client_random"] if coef_rows else [])
        law["coef_mode"] = draw(st.sampled_from(modes))
        law["coef_scale"] = draw(_pos)
    return law


@st.composite
def _experiment_docs(draw):
    algorithm = draw(st.sampled_from(["fedavg", "fedals", "scaffold", "fedals_scaffold"]))
    clients = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 3))
    blocks = algorithm in ("fedals", "fedals_scaffold")
    family = "mlp" if blocks else draw(st.sampled_from(["ridge", "logistic_l2", "mlp"]))
    kinds = {"ridge": ["gaussian_linear", "file"], "logistic_l2": ["file"]}
    kind = draw(st.sampled_from(kinds.get(family, ["gaussian_clusters", "file"])))
    modes = ["iid", "label_sorted", "dirichlet"] + ([] if kind == "file" else ["per_client"])
    mode = draw(st.sampled_from(modes))
    model = {"family": family, "input_dim": dim}
    if draw(st.booleans()):
        model["l2"] = draw(st.floats(0.0, 1.0))
    if family == "mlp":
        hidden = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        model["hidden"] = hidden
        model["num_classes"] = draw(st.integers(2, 4))
        model["activation"] = draw(st.sampled_from(["relu", "tanh"]))
        # fedals needs both a representation and a head block
        layers = st.integers(1, len(hidden)) if blocks else st.integers(0, len(hidden) + 1)
        model["representation_layers"] = draw(layers)
    if kind == "file":
        source = {"kind": kind, "path": "samples.csv"}
    elif kind == "gaussian_clusters":
        source = {"kind": kind, "dim": dim, "num_classes": model["num_classes"]}
        source.update(mean_scale=draw(_pos), cov_scale=draw(_pos), balanced=draw(st.booleans()))
    else:
        coef_rows = clients if mode == "per_client" else 0
        source = {"kind": kind, "dim": dim, **draw(_linear_law(dim, coef_rows))}
    partition = {"mode": mode}
    if mode == "label_sorted":
        partition["classes_per_client"] = draw(st.integers(1, 3))
    elif mode == "dirichlet":
        partition["concentration"] = draw(_pos)
    # balanced classes draw every sample count in equal classes
    unit = source["num_classes"] if source.get("balanced") else 1
    data = {"source": source, "partition": partition, "n_per_client": unit * draw(st.integers(1, 50))}
    if kind != "file" and draw(st.booleans()):
        data["holdout_per_client"] = unit * draw(st.integers(0, 20))
    if draw(st.booleans()):
        data["batches_with_replacement"] = draw(st.booleans())
    schedule = {
        "tau": draw(st.integers(1, 5)),
        "eta": draw(_pos),
        "rounds": draw(st.integers(1, 5)),
        "batch_size": draw(st.integers(1, 8)),
    }
    if algorithm in ("fedals", "fedals_scaffold"):
        schedule["alpha"] = draw(st.integers(1, 4))
    doc = {
        "algorithm": algorithm,
        "clients": clients,
        "model": model,
        "data": data,
        "schedule": schedule,
    }
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 99))
    else:
        doc["seeds"] = draw(st.lists(st.integers(0, 99), min_size=1, max_size=3))
    if draw(st.booleans()):
        doc["weights"] = draw(_weights(clients))
    participation = draw(st.sampled_from(["full", "with_replacement", "without_replacement"]))
    if participation == "full":
        doc["participation"] = {"mode": "full"}
    else:
        sampled = draw(st.integers(1, clients if participation == "without_replacement" else 6))
        doc["participation"] = {"mode": participation, "num_sampled": sampled}
    if draw(st.booleans()):
        doc["metrics"] = {
            "cadence": draw(st.integers(0, 3)),
            "per_client_risks": draw(st.booleans()),
            "risks_at_sync": draw(st.booleans()),
        }
    if draw(st.booleans()):
        doc["output"] = "out"
    return doc


@st.composite
def _bound_docs(draw):
    clients = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 3))
    doc = {
        "clients": clients,
        "n_per_client": draw(st.integers(2, 50)),
        "dim": dim,
        "l2": draw(_pos),
        "trials": draw(st.integers(1, 100)),
        "seed": draw(st.integers(0, 99)),
        **draw(_linear_law(dim, clients)),
    }
    if draw(st.booleans()):
        doc["weights"] = draw(_weights(clients))
    if draw(st.booleans()):
        doc["identities"] = {
            "num_sampled": draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)),
            "draws": draw(st.integers(100, 1000)),
        }
    return doc


def _objects(d, path=()):
    """The path of every object (dict) in a canonical config, the root included."""
    yield path
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _objects(value, (*path, key))


def _with_key(canonical, path, key):
    doc = copy.deepcopy(canonical)
    node = doc
    for part in path:
        node = node[part]
    node[key] = 1
    return doc


_stray_keys = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12).map("x_".__add__)


@settings(max_examples=150, deadline=None)
@given(doc=_experiment_docs())
def test_parse_config_returns_a_canonical_dict_unchanged(doc):
    canonical = parse_config(doc).canonical
    frozen = json.dumps(canonical, sort_keys=True)
    again = parse_config(canonical).canonical
    assert json.dumps(again, sort_keys=True) == frozen
    assert json.dumps(canonical, sort_keys=True) == frozen


@settings(max_examples=150, deadline=None)
@given(doc=_bound_docs())
def test_parse_bound_config_returns_a_canonical_dict_unchanged(doc):
    canonical = parse_bound_config(doc)
    frozen = json.dumps(canonical, sort_keys=True)
    again = parse_bound_config(canonical)
    assert json.dumps(again, sort_keys=True) == frozen
    assert json.dumps(canonical, sort_keys=True) == frozen


@settings(max_examples=100, deadline=None)
@given(doc=_experiment_docs(), key=_stray_keys)
def test_an_unknown_experiment_key_at_any_level_is_named(doc, key):
    canonical = parse_config(doc).canonical
    for path in _objects(canonical):
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            parse_config(_with_key(canonical, path, key))


@settings(max_examples=100, deadline=None)
@given(doc=_bound_docs(), key=_stray_keys)
def test_an_unknown_bound_key_at_any_level_is_named(doc, key):
    canonical = parse_bound_config(doc)
    for path in _objects(canonical):
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            parse_bound_config(_with_key(canonical, path, key))
