"""Risk estimators and consensus distances."""

import pickle

import numpy as np
import pytest

from fedsim.data import DatasetShard, GaussianLinear, Shards, generate
from fedsim.metrics import (
    accuracy,
    consensus_map,
    empirical_risk,
    pooled,
    population_risk_estimate,
    sample_losses,
)
from fedsim.models import (
    LogisticL2Spec,
    MlpSpec,
    RidgeSpec,
    batch_loss,
    build_layout,
    init_params,
    population_risk_closed_form,
)
from fedsim.params import ParamVector, Role, layout_from_sizes


def _linear_shards(num_clients=3, n=30, dim=3, noise=0.3, seed=7, coef_scale=1.0):
    coefs = coef_scale * np.linspace(-1.0, 1.0, num_clients * dim).reshape(num_clients, dim)
    spec = GaussianLinear(covariance=np.eye(dim), client_coefs=coefs, noise_std=noise, seed=seed)
    return spec, generate(spec, n, num_clients)


def test_sample_losses_mean_matches_batch_loss():
    rng = np.random.default_rng(0)
    cases = [
        (RidgeSpec(input_dim=3, l2=0.2), rng.standard_normal((9, 3)), rng.standard_normal(9)),
        (
            LogisticL2Spec(input_dim=3, l2=0.1),
            rng.standard_normal((9, 3)),
            rng.choice([-1.0, 1.0], size=9),
        ),
        (
            MlpSpec(input_dim=3, hidden=(5,), num_classes=4, l2=0.05),
            rng.standard_normal((9, 3)),
            rng.integers(0, 4, size=9),
        ),
    ]
    for model, X, y in cases:
        params = init_params(model, build_layout(model), rng)
        per = sample_losses(model, params, X, y)
        assert per.shape == (9,)
        assert float(np.mean(per)) == pytest.approx(batch_loss(model, params, X, y), rel=1e-12)


def test_empirical_risk_single_client_is_batch_loss():
    spec, shards = _linear_shards(num_clients=1)
    model = RidgeSpec(input_dim=3, l2=0.2)
    params = init_params(model, build_layout(model), np.random.default_rng(1))
    assert empirical_risk(model, params, shards, [1.0]) == batch_loss(
        model, params, shards[0].X, shards[0].y
    )


def test_empirical_risk_degenerate_weight_exact():
    spec, shards = _linear_shards(num_clients=2)
    model = RidgeSpec(input_dim=3, l2=0.2)
    params = init_params(model, build_layout(model), np.random.default_rng(2))
    got = empirical_risk(model, params, shards, [1.0, 0.0])
    assert got == batch_loss(model, params, shards[0].X, shards[0].y)


def test_empirical_risk_copies_collapse_exactly():
    spec, shards = _linear_shards(num_clients=1)
    model = RidgeSpec(input_dim=3, l2=0.2)
    params = init_params(model, build_layout(model), np.random.default_rng(3))
    single = empirical_risk(model, params, shards, [1.0])
    for copies in (2, 3, 5):
        tiled = empirical_risk(model, params, shards * copies, [1.0 / copies] * copies)
        assert tiled == single, copies


def test_empirical_risk_validation():
    spec, shards = _linear_shards(num_clients=2)
    model = RidgeSpec(input_dim=3, l2=0.2)
    params = init_params(model, build_layout(model), np.random.default_rng(4))
    with pytest.raises(ValueError, match="sum to 1"):
        empirical_risk(model, params, shards, [0.5, 0.4])
    with pytest.raises(ValueError, match="one weight per shard"):
        empirical_risk(model, params, shards, [1.0])


def test_population_risk_exact_route():
    spec, _ = _linear_shards(num_clients=2, noise=0.7)
    model = RidgeSpec(input_dim=3, l2=0.0)
    lay = build_layout(model)
    params = ParamVector(np.zeros(3), lay)
    w = [0.25, 0.75]
    got = population_risk_estimate(model, params, spec, w)
    want = sum(
        wk * population_risk_closed_form(model, params, spec.covariance, spec.coef_for(k), 0.7)
        for k, wk in enumerate(w)
    )
    assert isinstance(got, float)
    assert got == pytest.approx(want, rel=1e-14)


def test_population_risk_exact_noise_floor():
    # theta == theta*: only the noise term survives
    coefs = np.array([[0.3, -0.2]])
    spec = GaussianLinear(covariance=np.eye(2), client_coefs=coefs, noise_std=0.7, seed=0)
    model = RidgeSpec(input_dim=2, l2=0.0)
    params = ParamVector(coefs[0].copy(), build_layout(model))
    got = population_risk_estimate(model, params, spec, [1.0])
    assert got == pytest.approx(0.5 * 0.7**2, rel=1e-14)


def test_population_risk_linear_source_needs_ridge():
    spec, _ = _linear_shards()
    model = LogisticL2Spec(input_dim=3, l2=0.1)  # no closed form and no holdout
    params = ParamVector(np.zeros(3), build_layout(model))
    with pytest.raises(ValueError, match="ridge only"):
        population_risk_estimate(model, params, spec, [1.0, 0.0, 0.0])


def test_population_risk_holdout_route():
    spec, shards = _linear_shards(num_clients=2)
    model = RidgeSpec(input_dim=3, l2=0.2)
    params = init_params(model, build_layout(model), np.random.default_rng(7))
    w = [0.5, 0.5]
    got = population_risk_estimate(model, params, shards, w)
    want = empirical_risk(model, params, shards, w)
    assert isinstance(got, float)
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="one weight per holdout shard"):
        population_risk_estimate(model, params, shards, [1.0])


def test_consensus_hand_case():
    lay = layout_from_sizes([("h", 1, Role.HEAD)])
    assert consensus_map(np.array([[0.0], [2.0]]), lay) == {"h": 1.0}
    assert consensus_map(np.array([[0.0], [0.0]]), lay) == {"h": 0.0}


def test_consensus_homogeneity_and_additivity():
    lay = layout_from_sizes([("phi", 3, Role.REPRESENTATION), ("h", 2, Role.HEAD)])
    theta = np.random.default_rng(8).standard_normal((4, 5))
    per_block = consensus_map(theta, lay)
    assert list(per_block) == ["phi", "h"]
    scaled = consensus_map(3.0 * theta, lay)
    for name, base in per_block.items():
        assert scaled[name] == pytest.approx(9.0 * base, rel=1e-12)
    # the blocks split the whole-vector distance
    whole = layout_from_sizes([("all", 5, Role.HEAD)])
    total = consensus_map(theta, whole)["all"]
    assert sum(per_block.values()) == pytest.approx(total, rel=1e-12)


def test_consensus_validation():
    lay = layout_from_sizes([("h", 1, Role.HEAD)])
    with pytest.raises(ValueError, match="K >= 1"):
        consensus_map(np.empty((0, 1)), lay)
    with pytest.raises(ValueError, match="expected"):
        consensus_map(np.zeros((2, 2)), lay)
    with pytest.raises(ValueError, match="expected"):
        consensus_map(np.zeros(1), lay)


def test_accuracy_hand_cases():
    model = LogisticL2Spec(input_dim=1, l2=0.0)
    lay = build_layout(model)
    params = ParamVector(np.array([2.0]), lay)
    X = np.array([[1.0], [-1.0], [3.0]])
    assert accuracy(model, params, X, [1, -1, 1]) == 1.0
    assert accuracy(model, params, X, [1, -1, -1]) == pytest.approx(2 / 3)
    ridge = RidgeSpec(input_dim=1, l2=0.0)
    with pytest.raises(ValueError, match="regression"):
        accuracy(ridge, ParamVector(np.array([1.0]), build_layout(ridge)), X, [1, -1, 1])


def test_pooled_takes_consecutive_row_views_without_a_copy():
    rng = np.random.default_rng(3)
    X, y = rng.standard_normal((12, 2)), rng.integers(0, 3, size=12)
    shards = Shards(X, y, [3, 4, 5])
    assert pooled(shards) is shards
    assert np.shares_memory(shards.X, X) and np.shares_memory(shards.y, y)
    assert shards.sizes == (3, 4, 5)
    assert np.array_equal(shards.X, np.concatenate([s.X for s in shards]))
    assert np.array_equal(shards.y, np.concatenate([s.y for s in shards]))
    again = pickle.loads(pickle.dumps(shards))
    assert again.sizes == shards.sizes and np.array_equal(again[2].X, X[7:])
    for sizes, labels in (([3, 4], y), ([3, 4, 5], y[:11])):
        with pytest.raises(ValueError, match="sizes and labels must match"):
            Shards(X, labels, sizes)
    # any other sequence, even of the same views in order: one Shards copy of the same values
    others = [
        list(shards),
        [shards[1], shards[0]],
        [shards[0], shards[2]],
        [DatasetShard(X[:3], y[:3]), DatasetShard(X[3:].copy(), y[3:].copy())],
        [DatasetShard(X[:3, :1], y[:3]), DatasetShard(X[3:6, :1], y[3:6])],
    ]
    for part in others:
        pool = pooled(part)
        assert isinstance(pool, Shards) and pool.sizes == tuple(s.n for s in part)
        assert not np.shares_memory(pool.X, X)
        assert np.array_equal(pool.X, np.concatenate([s.X for s in part]))
        assert np.array_equal(pool.y, np.concatenate([s.y for s in part]))
        for copy, shard in zip(pool, part):
            assert np.shares_memory(copy.X, pool.X) and np.array_equal(copy.X, shard.X)
