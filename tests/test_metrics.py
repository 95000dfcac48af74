"""Risk estimators, consensus distances, and heterogeneity measures."""

import numpy as np
import pytest

from fedsim.data import DatasetShard, GaussianLinear, generate
from fedsim.metrics import (
    accuracy,
    consensus_distance,
    consensus_map,
    empirical_risk,
    non_iidness,
    population_risk_estimate,
    roundwise_gen_error,
    sample_losses,
)
from fedsim.models import (
    LogisticL2Spec,
    MlpSpec,
    RidgeSpec,
    batch_loss,
    build_layout,
    erm_closed_form,
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
    got, se = population_risk_estimate(model, params, spec, w)
    want = sum(
        wk * population_risk_closed_form(model, params, spec.covariance, spec.coef_for(k), 0.7)
        for k, wk in enumerate(w)
    )
    assert se == 0.0
    assert got == pytest.approx(want, rel=1e-14)


def test_population_risk_exact_noise_floor():
    # theta == theta*: only the noise term survives
    coefs = np.array([[0.3, -0.2]])
    spec = GaussianLinear(covariance=np.eye(2), client_coefs=coefs, noise_std=0.7, seed=0)
    model = RidgeSpec(input_dim=2, l2=0.0)
    params = ParamVector(coefs[0].copy(), build_layout(model))
    got, _ = population_risk_estimate(model, params, spec, [1.0])
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
    got, se = population_risk_estimate(model, params, shards, w)
    want = empirical_risk(model, params, shards, w)
    assert got == pytest.approx(want, rel=1e-12)
    assert se > 0.0
    with pytest.raises(ValueError, match="one weight per holdout shard"):
        population_risk_estimate(model, params, shards, [1.0])


def test_consensus_hand_case():
    lay = layout_from_sizes([("h", 1, Role.HEAD)])
    a = ParamVector(np.array([0.0]), lay)
    b = ParamVector(np.array([2.0]), lay)
    assert consensus_distance([a, b]) == 1.0
    assert consensus_distance([a, a]) == 0.0


def test_consensus_homogeneity_and_additivity():
    lay = layout_from_sizes([("phi", 3, Role.REPRESENTATION), ("h", 2, Role.HEAD)])
    rng = np.random.default_rng(8)
    params = [ParamVector(rng.standard_normal(5), lay) for _ in range(4)]
    base = consensus_distance(params)
    scaled = [ParamVector(3.0 * p.values, lay) for p in params]
    assert consensus_distance(scaled) == pytest.approx(9.0 * base, rel=1e-12)
    per_block = consensus_map(params)
    assert list(per_block) == ["phi", "h"]
    assert sum(per_block.values()) == pytest.approx(base, rel=1e-12)
    assert consensus_distance(params, role_filter=Role.HEAD) == pytest.approx(
        per_block["h"], rel=1e-12
    )


def test_consensus_validation():
    lay = layout_from_sizes([("h", 1, Role.HEAD)])
    other = layout_from_sizes([("g", 1, Role.HEAD)])
    a = ParamVector(np.array([0.0]), lay)
    with pytest.raises(ValueError, match="at least one"):
        consensus_distance([])
    with pytest.raises(ValueError, match="layout"):
        consensus_distance([a, ParamVector(np.array([0.0]), other)])


def test_roundwise_gen_error_hand_case():
    model = RidgeSpec(input_dim=1, l2=0.0)
    lay = build_layout(model)
    shard = DatasetShard(
        X=np.array([[1.0], [2.0], [3.0], [4.0]]), y=np.array([1.0, 2.0, 3.0, 5.0]),
        owner=0, provenance="hand",
    )
    round_params = [ParamVector(np.array([0.5]), lay), ParamVector(np.array([1.0]), lay)]
    batches = [[np.array([0, 1])], [np.array([2, 3])]]
    got = roundwise_gen_error(
        model, round_params, batches, [shard], [1.0], lambda theta: np.array([2.0])
    )
    # round 1: 2 - 0.3125; round 2: 2 - 0.25; averaged
    assert got == pytest.approx(1.71875, abs=1e-15)


def test_roundwise_gen_error_zero_at_truth():
    coefs = np.array([[0.4, -0.3], [0.4, -0.3]])
    spec = GaussianLinear(covariance=np.eye(2), client_coefs=coefs, noise_std=0.0, seed=3)
    shards = generate(spec, 20, 2)
    model = RidgeSpec(input_dim=2, l2=0.0)
    star = ParamVector(coefs[0].copy(), build_layout(model))
    pop = lambda theta: np.array(
        [
            population_risk_closed_form(model, theta, spec.covariance, spec.coef_for(k), 0.0)
            for k in range(2)
        ]
    )
    got = roundwise_gen_error(
        model, [star], [[np.arange(20), np.arange(20)]], shards, [0.5, 0.5], pop
    )
    assert abs(got) <= 1e-15


def test_roundwise_gen_error_matches_risk_difference():
    spec, shards = _linear_shards(num_clients=3, noise=0.5, seed=9)
    model = RidgeSpec(input_dim=3, l2=0.1)
    params = init_params(model, build_layout(model), np.random.default_rng(10))
    w = [1 / 3, 1 / 3, 1 / 3]
    pop = lambda theta: np.array(
        [
            population_risk_closed_form(model, theta, spec.covariance, spec.coef_for(k), 0.5)
            for k in range(3)
        ]
    )
    full = [np.arange(s.n) for s in shards]
    got = roundwise_gen_error(model, [params], [full], shards, w, pop)
    pop_total, _ = population_risk_estimate(model, params, spec, w)
    want = pop_total - empirical_risk(model, params, shards, w)
    assert got == pytest.approx(want, rel=1e-10)


def test_roundwise_gen_error_validation():
    model = RidgeSpec(input_dim=1, l2=0.0)
    lay = build_layout(model)
    theta = ParamVector(np.array([0.0]), lay)
    shard = DatasetShard(X=np.array([[1.0]]), y=np.array([0.0]), owner=0, provenance="hand")
    with pytest.raises(ValueError, match="per round"):
        roundwise_gen_error(model, [theta], [], [shard], [1.0], lambda t: np.array([0.0]))
    with pytest.raises(ValueError, match="at least one round"):
        roundwise_gen_error(model, [], [], [shard], [1.0], lambda t: np.array([0.0]))
    with pytest.raises(ValueError, match="one value per client"):
        roundwise_gen_error(
            model, [theta], [[np.array([0])]], [shard], [1.0], lambda t: np.zeros(3)
        )


def test_non_iidness_zero_for_shared_model():
    spec, shards = _linear_shards(num_clients=2)
    model = RidgeSpec(input_dim=3, l2=0.2)
    params = init_params(model, build_layout(model), np.random.default_rng(11))
    deltas = non_iidness(model, shards, params, [params, params])
    assert np.array_equal(deltas, [0.0, 0.0])


def test_non_iidness_erm_locals_are_floors():
    spec, shards = _linear_shards(num_clients=3, noise=0.4, seed=12)
    model = RidgeSpec(input_dim=3, l2=0.2)
    locals_ = [erm_closed_form(model, s.X, s.y) for s in shards]
    union_X = np.concatenate([s.X for s in shards])
    union_y = np.concatenate([s.y for s in shards])
    global_ = erm_closed_form(model, union_X, union_y)
    deltas = non_iidness(model, shards, global_, locals_)
    assert np.all(deltas >= -1e-10)


def test_non_iidness_grows_with_heterogeneity():
    coefs = np.array([[1.0, 1.0], [-1.0, -1.0]])
    spec = GaussianLinear(covariance=np.eye(2), client_coefs=coefs, noise_std=0.1, seed=13)
    shards = generate(spec, 200, 2)
    model = RidgeSpec(input_dim=2, l2=0.01)
    locals_ = [erm_closed_form(model, s.X, s.y) for s in shards]
    global_ = erm_closed_form(
        model, np.concatenate([s.X for s in shards]), np.concatenate([s.y for s in shards])
    )
    deltas = non_iidness(model, shards, global_, locals_)
    assert np.all(deltas > 0.5)  # opposed coefficients make the average bad everywhere
    with pytest.raises(ValueError, match="one local model per shard"):
        non_iidness(model, shards, global_, locals_[:1])


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
