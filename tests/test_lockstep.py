"""Lockstep clients: a stacked call over a (K, P) parameter matrix must equal
K single-client calls bit for bit, and the engine's lockstep run must equal
per-client local_sgd_step calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import engine, models
from fedsim import rng as streams
from fedsim.data import DatasetShard, GaussianClusters, draw_round_batches, generate
from fedsim.engine import ClientStack, ClientState, DivergenceError, ScheduleSpec, local_sgd_step
from fedsim.metrics import population_risk_estimate, sample_losses, shard_risks
from fedsim.models import (
    LogisticL2Spec,
    MlpSpec,
    RidgeSpec,
    batch_loss,
    build_layout,
    init_params,
    loss_and_grad,
    stack_rows,
)
from fedsim.params import ParamVector

FAMILIES = ("ridge", "logistic", "mlp_relu", "mlp_tanh")


def _model(family, dim, l2, hidden, classes):
    if family == "ridge":
        return RidgeSpec(input_dim=dim, l2=l2)
    if family == "logistic":
        return LogisticL2Spec(input_dim=dim, l2=l2)
    return MlpSpec(dim, hidden, classes, activation=family[4:], l2=l2)


def _stack(model, k, b, seed):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((k, build_layout(model).total_params))
    X = rng.standard_normal((k, b, model.input_dim))
    if isinstance(model, RidgeSpec):
        y = rng.standard_normal((k, b))
    elif isinstance(model, LogisticL2Spec):
        y = rng.choice([-1, 1], size=(k, b))
    else:
        y = rng.integers(0, model.num_classes, size=(k, b))
    return theta, X, y


def _assert_rows_match_single_calls(model, theta, X, y):
    layout = build_layout(model)
    stacked = loss_and_grad(model, theta, X, y)
    values = batch_loss(model, theta, X, y)
    losses = sample_losses(model, theta, X, y)
    for k in range(theta.shape[0]):
        params = ParamVector(theta[k].copy(), layout)
        one = loss_and_grad(model, params, X[k], y[k])
        assert stacked.value[k] == one.value
        assert values[k] == batch_loss(model, params, X[k], y[k]) == one.value
        assert np.array_equal(stacked.grad[k], one.grad.values)
        assert np.array_equal(losses[k], sample_losses(model, params, X[k], y[k]))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    l2=st.sampled_from([0.0, 0.25]),
    k=st.integers(1, 8),
    b=st.sampled_from([1, 2, 3, 4, 5, 8, 9]),
    dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 7), min_size=1, max_size=2).map(tuple),
    classes=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_evaluation_equals_single_client_calls(family, l2, k, b, dim, hidden, classes, seed):
    model = _model(family, dim, l2, hidden, classes)
    _assert_rows_match_single_calls(model, *_stack(model, k, b, seed))


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_evaluation_equals_single_calls_at_k200(family):
    model = _model(family, 8, 0.01, (8,), 4)
    _assert_rows_match_single_calls(model, *_stack(model, 200, 4, 200))


def test_lockstep_step_equals_single_client_steps():
    model = _model("mlp_tanh", 4, 0.01, (5, 3), 3)
    theta, X, y = _stack(model, 6, 3, 7)
    correction = np.random.default_rng(8).standard_normal(theta.shape) * 0.01
    layout = build_layout(model)
    singles = [ClientState(k, ParamVector(theta[k].copy(), layout)) for k in range(6)]
    stack = ClientStack(theta.copy(), layout)
    losses = local_sgd_step(model, stack, X, y, 0.1, correction)
    for k, c in enumerate(singles):
        assert local_sgd_step(model, c, X[k], y[k], 0.1, correction[k]) == losses[k]
        assert np.array_equal(c.params.values, stack.params[k])
        assert np.array_equal(stack.rows[k].params.values, stack.params[k])  # row views stay live


def test_lockstep_divergence_names_the_lowest_failing_client():
    model = RidgeSpec(input_dim=1)
    layout = build_layout(model)
    y = np.zeros((3, 2))
    # client 1's loss exceeds the guard, client 2's overflows to inf
    X = np.array([1.0, 1e7, 1e300])[:, None, None] * np.ones((3, 2, 1))
    with np.errstate(over="ignore"), pytest.raises(
        DivergenceError, match=r"^client 1 loss .* exceeds 1e\+12\.$"
    ) as info:
        local_sgd_step(model, ClientStack(np.ones((3, 1)), layout), X, y, 0.1)
    assert info.value.client == 1
    X[1] = 1.0
    with np.errstate(over="ignore"), pytest.raises(
        DivergenceError, match=r"^loss is non-finite\.$"
    ) as info:
        local_sgd_step(model, ClientStack(np.ones((3, 1)), layout), X, y, 0.1)
    assert info.value.client == 2


@pytest.mark.parametrize("algorithm", ["fedavg", "fedals_scaffold"])
def test_engine_trajectory_to_first_sync_equals_local_steps(algorithm, monkeypatch):
    # K = 3 clients on their own laws; capture the stack when the first sync starts
    spec = GaussianClusters(class_means=2.0 * np.eye(3), class_cov=np.eye(3), seed=4)
    shards = generate(spec, 30, 3)
    model = MlpSpec(input_dim=3, hidden=(6, 4), num_classes=3, l2=0.01)
    alpha = 1 if algorithm == "fedavg" else 2
    sched = ScheduleSpec(tau=5, eta=0.1, rounds=2, batch_size=3, alpha=alpha)
    seen = []
    real = engine.aggregate

    def capture(clients, layout, role, participants, agg_weights):
        if not seen:
            seen.append(np.stack([c.params.values for c in clients]))
        return real(clients, layout, role, participants, agg_weights)

    monkeypatch.setattr(engine, "aggregate", capture)
    seed = 9
    engine.run_experiment(algorithm, model, shards, sched, seed=seed, representation_layers=1)

    layout = build_layout(model, 1)
    theta0 = init_params(model, layout, streams.substream(seed, streams.INIT))
    zero = np.zeros(layout.total_params) if algorithm == "fedals_scaffold" else None
    for k, shard in enumerate(shards):
        ref = ClientState(k, theta0.copy())
        batches = draw_round_batches(
            shard, sched.tau, sched.batch_size, streams.substream(seed, streams.BATCH, k, 1)
        )
        for idx in batches:
            local_sgd_step(model, ref, shard.X[idx], shard.y[idx], sched.eta, zero)
        assert np.array_equal(seen[0][k], ref.params.values), k


def test_shard_risks_equal_one_batch_loss_per_shard(monkeypatch):
    # unequal sizes, a one-sample shard, and shards too large to share a stacked call
    monkeypatch.setattr(models, "STACK_ELEMENTS", 3000)
    rng = np.random.default_rng(3)
    model = MlpSpec(input_dim=3, hidden=(4,), num_classes=3, activation="tanh", l2=0.1)
    params = ParamVector(rng.standard_normal(build_layout(model).total_params), build_layout(model))
    shards = [
        DatasetShard(rng.standard_normal((n, 3)), rng.integers(0, 3, size=n), owner=k, provenance="test")
        for k, n in enumerate((3, 1, 700, 3, 700, 40))
    ]
    assert shard_risks(model, params, shards) == [
        batch_loss(model, params, s.X, s.y) for s in shards
    ]
    weights = [0.1, 0.2, 0.3, 0.1, 0.2, 0.1]
    total, stderr = population_risk_estimate(model, params, shards, weights)
    want_total = want_var = 0.0
    for s, w in zip(shards, weights):
        losses = sample_losses(model, params, s.X, s.y)
        want_total += w * float(np.mean(losses))
        if s.n > 1:
            want_var += w * w * float(np.var(losses, ddof=1)) / s.n
    assert (total, stderr) == (want_total, float(np.sqrt(want_var)))


def test_stack_rows_caps_the_gradient_product():
    # a 784-256 layer: one row of 32 samples already exceeds the budget
    assert stack_rows(MlpSpec(784, (256,), 10), 32, True) == 1
    assert stack_rows(RidgeSpec(input_dim=4), 8, True) == models.STACK_ELEMENTS // 64


def test_chunked_step_equals_unchunked_step(monkeypatch):
    # a wide layer and K = 64, once in one call and once in chunks of 3 rows
    # and a last one of 1
    model = _model("mlp_relu", 6, 0.05, (40,), 5)
    theta, X, y = _stack(model, 64, 5, 11)
    correction = np.random.default_rng(12).standard_normal(theta.shape) * 0.01
    layout = build_layout(model)
    monkeypatch.setattr(models, "STACK_ELEMENTS", 1 << 40)
    whole = ClientStack(theta.copy(), layout)
    whole_losses = local_sgd_step(model, whole, X, y, 0.1, correction)
    whole_samples = sample_losses(model, theta, X, y)
    # a row of 5 samples: 5 * (2 * sum of widths + the 6 x 40 gradient product)
    monkeypatch.setattr(models, "STACK_ELEMENTS", 3 * 5 * (2 * (6 + 40 + 5) + 6 * 40))
    assert stack_rows(model, 5, True) == 3
    chunked = ClientStack(theta.copy(), layout)
    assert np.array_equal(local_sgd_step(model, chunked, X, y, 0.1, correction), whole_losses)
    assert np.array_equal(chunked.params, whole.params)
    assert np.array_equal(sample_losses(model, theta, X, y), whole_samples)
    _assert_rows_match_single_calls(model, theta, X, y)
