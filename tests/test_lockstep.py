"""Lockstep clients: a stacked call over a (K, P) parameter matrix must equal
K single-client calls bit for bit, and the engine's lockstep run must equal
per-client local_sgd_step calls."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import engine, models
from fedsim import rng as streams
from fedsim.data import GaussianClusters, draw_round_batches, generate, stacked_shards
from fedsim.engine import ClientState, DivergenceError, ScheduleSpec, local_sgd_step
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
    stack = theta.copy()
    views = [ClientState(k, ParamVector(stack[k], layout)) for k in range(6)]
    losses = local_sgd_step(model, stack, X, y, 0.1, correction)
    for k, c in enumerate(singles):
        assert local_sgd_step(model, c, X[k], y[k], 0.1, correction[k]) == losses[k]
        assert np.array_equal(c.params.values, stack[k])
        assert np.array_equal(views[k].params.values, stack[k])  # row views stay live


def test_lockstep_divergence_names_the_lowest_failing_client():
    model = RidgeSpec(input_dim=1)
    y = np.zeros((3, 2))
    # client 1's loss exceeds the guard, client 2's overflows to inf
    X = np.array([1.0, 1e7, 1e300])[:, None, None] * np.ones((3, 2, 1))
    with np.errstate(over="ignore"), pytest.raises(
        DivergenceError, match=r"^client 1 loss .* exceeds 1e\+12\.$"
    ) as info:
        local_sgd_step(model, np.ones((3, 1)), X, y, 0.1)
    assert info.value.client == 1
    X[1] = 1.0
    with np.errstate(over="ignore"), pytest.raises(
        DivergenceError, match=r"^loss is non-finite\.$"
    ) as info:
        local_sgd_step(model, np.ones((3, 1)), X, y, 0.1)
    assert info.value.client == 2


def test_lockstep_divergence_names_a_client_whose_parameters_overflow():
    # every loss is finite and small; client 2's step overflows its parameter
    model = RidgeSpec(input_dim=1)
    X = np.array([1.0, 1.0, 2.0])[:, None, None] * np.ones((3, 2, 1))
    with np.errstate(over="ignore"), pytest.raises(
        DivergenceError, match=r"^client 2 parameters went non-finite\.$"
    ) as info:
        local_sgd_step(model, np.ones((3, 1)), X, np.zeros((3, 2)), 1e308)
    assert info.value.client == 2


@pytest.mark.parametrize("loss", [np.nan, np.inf, -np.inf])
def test_lockstep_divergence_flags_every_non_finite_loss(monkeypatch, loss):
    # no model gives a loss of -inf, so a fake evaluation stands in for one
    values = np.array([0.5, loss, 0.5])
    fake = lambda model, theta, X, y: models.LossEval(values, np.zeros(theta.shape))  # noqa: E731
    monkeypatch.setattr(engine, "loss_and_grad", fake)
    with pytest.raises(DivergenceError, match=r"^loss is non-finite\.$") as info:
        local_sgd_step(RidgeSpec(input_dim=1), np.ones((3, 1)), np.ones((3, 2, 1)), np.zeros((3, 2)), 0.1)
    assert info.value.client == 1


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

    def capture(theta, layout, role, participants, agg_weights):
        if not seen:
            seen.append(theta.copy())
        return real(theta, layout, role, participants, agg_weights)

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
    shards = stacked_shards(
        [(rng.standard_normal((n, 3)), rng.integers(0, 3, size=n)) for n in (3, 1, 700, 3, 700, 40)]
    )
    assert shard_risks(model, params, shards) == [
        batch_loss(model, params, s.X, s.y) for s in shards
    ]
    weights = [0.1, 0.2, 0.3, 0.1, 0.2, 0.1]
    total = population_risk_estimate(model, params, shards, weights)
    want_total = 0.0
    for s, w in zip(shards, weights):
        want_total += w * float(np.mean(sample_losses(model, params, s.X, s.y)))
    assert total == want_total


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
    monkeypatch.setattr(models, "STACK_ELEMENTS", 1 << 40)
    whole = theta.copy()
    whole_losses = local_sgd_step(model, whole, X, y, 0.1, correction)
    whole_samples = sample_losses(model, theta, X, y)
    # a row of 5 samples: 5 * (2 * sum of widths + the (6 + 1) x 40 gradient product)
    monkeypatch.setattr(models, "STACK_ELEMENTS", 3 * 5 * (2 * (6 + 40 + 5) + 7 * 40))
    assert stack_rows(model, 5, True) == 3
    chunked = theta.copy()
    assert np.array_equal(local_sgd_step(model, chunked, X, y, 0.1, correction), whole_losses)
    assert np.array_equal(chunked, whole)
    assert np.array_equal(sample_losses(model, theta, X, y), whole_samples)
    _assert_rows_match_single_calls(model, theta, X, y)


# The ridge closed forms: a stacked call must equal N single calls bit for bit.
# Jacobi and the risk must also equal the single-matrix routines they replaced,
# kept here as references; the ERM solve must agree with scipy's Cholesky solve
# within a solver's error bound.


def _jacobi_reference(a, tol=1e-13, max_sweeps=60):
    """Cyclic Jacobi on one symmetric matrix, one scalar rotation at a time."""
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    if n == 1:
        return a[0].copy()
    scale = max(1.0, float(np.abs(np.diag(a)).max()))
    for _ in range(max_sweeps):
        if float(np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))) <= tol * scale:
            return np.sort(np.diag(a).copy())
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0.0 else 1.0
                t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :], a[q, :] = c * rp - s * rq, s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = c * cp - s * cq, s * cp + c * cq
    raise RuntimeError("no convergence")


def _assert_solves_the_erm_system(model, X, y, theta):
    """theta is within the forward-error bound of two backward-stable solvers
    of scipy's Cholesky solve, and zeroes the ridge gradient H theta - b up to
    the rounding of a backward-stable solve."""
    n, d = X.shape
    h = X.T @ X / n + model.l2 * np.eye(d)
    b = X.T @ y / n
    tol = 16 * d * np.finfo(np.float64).eps
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(h), b)
    assert np.linalg.norm(theta - ref) <= tol * np.linalg.cond(h) * np.linalg.norm(ref)
    residual = np.linalg.norm(h @ theta - b)
    assert residual <= tol * (np.linalg.norm(h, 2) * np.linalg.norm(theta) + np.linalg.norm(b))


def _risk_reference(model, theta, cov, coef, noise):
    d = theta - coef
    return 0.5 * float(d @ cov @ d) + 0.5 * noise**2 + 0.5 * model.l2 * float(np.dot(theta, theta))


def _symmetric_stack(rng, n, dim):
    """Matrices that converge after different numbers of sweeps: dense ones of
    mixed scale, diagonal ones (no sweep), block-diagonal ones (whose zero
    entries skip their rotations) and nearly diagonal ones."""
    out = []
    for _ in range(n):
        a = rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-3, 4)
        a = a + a.T
        kind = rng.integers(4)
        if kind == 1:
            a = np.diag(np.diag(a))
        elif kind == 2:
            a[: dim // 2, dim // 2 :] = 0.0
            a[dim // 2 :, : dim // 2] = 0.0
        elif kind == 3:
            a = np.diag(np.diag(a)) + 1e-9 * (a - np.diag(np.diag(a)))
        out.append(a)
    return np.stack(out)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_stacked_jacobi_equals_single_calls(n, dim, seed):
    a = _symmetric_stack(np.random.default_rng(seed), n, dim)
    stacked = models.jacobi_eigenvalues(a)
    assert stacked.shape == (n, dim)
    for i in range(n):
        single = models.jacobi_eigenvalues(a[i])
        assert np.array_equal(stacked[i], single)
        assert np.array_equal(single, _jacobi_reference(a[i].copy()))


def test_stacked_jacobi_rows_converge_independently():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((5, 5))
    dense = dense + dense.T
    skips = dense.copy()  # its first rotation (0, 1) has a zero pivot and is skipped
    skips[0, 1] = skips[1, 0] = 0.0
    skips[1, 1] = skips[0, 0]
    a = np.stack([np.diag([3.0, 1.0, 2.0, 0.0, -1.0]), dense, np.eye(5) * 2.0, skips])
    stacked = models.jacobi_eigenvalues(a)
    assert np.array_equal(stacked[0], [-1.0, 0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(stacked[2], np.full(5, 2.0))
    assert np.array_equal(stacked[1], _jacobi_reference(a[1].copy()))
    assert np.array_equal(stacked[3], _jacobi_reference(a[3].copy()))
    assert np.array_equal(models.jacobi_eigenvalues(np.full((4, 1, 1), 7.0)), np.full((4, 1), 7.0))


def test_stacked_jacobi_rejects_one_asymmetric_member():
    a = _symmetric_stack(np.random.default_rng(6), 4, 3)
    a[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        models.jacobi_eigenvalues(a[2])
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        models.jacobi_eigenvalues(a)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    dim=st.integers(1, 6),
    samples=st.integers(1, 12),
    l2=st.sampled_from([0.05, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_ridge_closed_forms_equal_single_calls(n, dim, samples, l2, seed):
    rng = np.random.default_rng(seed)
    model = RidgeSpec(input_dim=dim, l2=l2)
    X = rng.standard_normal((n, samples, dim)) * rng.uniform(0.1, 3.0)
    y = rng.standard_normal((n, samples))
    cov = rng.standard_normal((dim, dim))
    cov = cov @ cov.T
    coefs = rng.standard_normal((n, dim))
    thetas = models.erm_closed_form(model, X, y)
    risks = models.population_risk_closed_form(model, thetas, cov, coefs, 0.3)
    assert thetas.shape == (n, dim) and risks.shape == (n,)
    for i in range(n):
        single = models.erm_closed_form(model, X[i], y[i])
        assert np.array_equal(thetas[i], single.values)
        _assert_solves_the_erm_system(model, X[i], y[i], thetas[i])
        risk = models.population_risk_closed_form(model, single, cov, coefs[i], 0.3)
        assert risks[i] == risk == _risk_reference(model, thetas[i], cov, coefs[i], 0.3)


def test_stacked_erm_rejects_a_singular_or_non_finite_member():
    model = RidgeSpec(input_dim=2, l2=0.0)
    X = np.random.default_rng(7).standard_normal((3, 4, 2))
    X[1, :, 1] = 0.0  # rank deficient without regularization
    y = np.ones((3, 4))
    with pytest.raises(ValueError, match="ERM system is singular"):
        models.erm_closed_form(model, X[1], y[1])
    with pytest.raises(ValueError, match="ERM system is singular"):
        models.erm_closed_form(model, X, y)
    y[2, 0] = np.nan
    with pytest.raises(ValueError, match="ERM system contains non-finite entries"):
        models.erm_closed_form(RidgeSpec(input_dim=2, l2=0.5), X, y)
    y[2, 0], X[0, 3, 1] = 1.0, np.inf
    with pytest.raises(ValueError, match="ERM system contains non-finite entries"):
        models.erm_closed_form(RidgeSpec(input_dim=2, l2=0.5), X, y)
