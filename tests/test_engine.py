"""Schedules, local steps, aggregation, control variates, and full runs."""

import numpy as np
import pytest

from fedsim import rng as streams
from fedsim.data import GaussianClusters, GaussianLinear, draw_round_batches, generate
from fedsim.engine import (
    FULL_PARTICIPATION,
    MAX_SAMPLED,
    ClientState,
    CommCounter,
    DivergenceError,
    ParticipationSpec,
    ScheduleSpec,
    aggregate,
    check_setup,
    comm_closed_form,
    local_sgd_step,
    run_experiment,
    sample_participants,
    scaffold_control_update,
)
from fedsim.metrics import consensus_map
from fedsim.models import MlpSpec, RidgeSpec, build_layout, init_params, loss_and_grad
from fedsim.params import ParamVector, Role, layout_from_sizes


def _ridge_task(num_clients=3, n=40, dim=4, seed=11, noise=0.2):
    coefs = np.linspace(-1.0, 1.0, num_clients * dim).reshape(num_clients, dim)
    spec = GaussianLinear(covariance=np.eye(dim), client_coefs=coefs, noise_std=noise, seed=seed)
    return RidgeSpec(input_dim=dim, l2=0.4), generate(spec, n, num_clients)


def _mlp_task(num_clients=3, n=60, dim=4, classes=4, seed=5):
    spec = GaussianClusters(class_means=2.0 * np.eye(classes)[:, :dim], class_cov=np.eye(dim), seed=seed)
    model = MlpSpec(input_dim=dim, hidden=(8, 8), num_classes=classes, l2=0.01)
    return model, generate(spec, n, num_clients)


def test_period_of_each_role():
    sched = ScheduleSpec(tau=5, eta=0.1, rounds=20, batch_size=1, alpha=10)
    assert sched.period(Role.HEAD) == 5 and sched.period(Role.REPRESENTATION) == 50


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScheduleSpec(tau=0, eta=0.1, rounds=1, batch_size=1)
    with pytest.raises(ValueError):
        ScheduleSpec(tau=1, eta=-0.1, rounds=1, batch_size=1)
    with pytest.raises(ValueError):
        ScheduleSpec(tau=1, eta=0.1, rounds=0, batch_size=1)
    with pytest.raises(ValueError):
        ScheduleSpec(tau=1, eta=0.1, rounds=1, batch_size=1, alpha=0)


def test_local_step_hand_case():
    model = RidgeSpec(input_dim=1, l2=0.0)
    lay = build_layout(model)
    c = ClientState(0, ParamVector(np.array([1.0]), lay))
    loss = local_sgd_step(model, c, [[1.0]], [0.0], eta=0.1)
    assert c.params.values[0] == pytest.approx(0.9, abs=0.0)
    assert loss == 0.5


def test_local_step_zero_gradient_is_identity():
    model = RidgeSpec(input_dim=1, l2=0.0)
    lay = build_layout(model)
    c = ClientState(0, ParamVector(np.array([2.0]), lay))
    local_sgd_step(model, c, [[1.0]], [2.0], eta=0.1)  # residual 0
    assert c.params.values[0] == 2.0


def test_local_step_correction_cancels_bitwise():
    model, shards = _ridge_task()
    lay = build_layout(model)
    theta = np.linspace(-0.5, 0.5, lay.total_params)
    plain = ClientState(0, ParamVector(theta.copy(), lay))
    corrected = ClientState(0, ParamVector(theta.copy(), lay))
    X, y = shards[0].X[:8], shards[0].y[:8]
    local_sgd_step(model, plain, X, y, eta=0.05)
    c_bar = np.full(lay.total_params, 0.37)
    c_k = np.full(lay.total_params, 0.37)
    local_sgd_step(model, corrected, X, y, eta=0.05, correction=c_bar - c_k)
    assert np.array_equal(plain.params.values, corrected.params.values)


def test_local_step_divergence_guard():
    model = RidgeSpec(input_dim=1, l2=0.0)
    lay = build_layout(model)
    c = ClientState(0, ParamVector(np.array([2e6]), lay))
    with pytest.raises(DivergenceError):
        local_sgd_step(model, c, [[1.0]], [0.0], eta=0.1)


def test_aggregate_identical_clients_fixed_point():
    lay = layout_from_sizes([("phi", 2, Role.REPRESENTATION), ("h", 2, Role.HEAD)])
    v = np.array([0.1, 0.2, 0.3, 0.7])
    theta = np.tile(v, (3, 1))
    aggregate(theta, lay, Role.HEAD, np.arange(3), np.full(3, 1.0 / 3.0))
    for row in theta:
        assert np.array_equal(row, v)


def test_aggregate_head_only_touches_head():
    # two head blocks around a representation block: only the head columns
    # change, and the representation columns keep every row's own bits
    lay = layout_from_sizes(
        [("h0", 2, Role.HEAD), ("phi", 3, Role.REPRESENTATION), ("h1", 2, Role.HEAD)]
    )
    theta = np.random.default_rng(2).standard_normal((3, 7))
    before = theta.copy()
    w = np.array([0.2, 0.3, 0.5])
    size = aggregate(theta, lay, Role.HEAD, np.arange(3), w)
    assert size == 4
    assert np.array_equal(theta[:, 2:5], before[:, 2:5])
    for sl in (slice(0, 2), slice(5, 7)):
        want = before[0, sl] + w[1] * (before[1, sl] - before[0, sl])
        want += w[2] * (before[2, sl] - before[0, sl])
        for row in theta:
            assert np.array_equal(row[sl], want)
    assert not np.array_equal(theta[:, 5:], before[:, 5:])


def test_aggregate_degenerate_weights_propagate():
    lay = layout_from_sizes([("h", 2, Role.HEAD)])
    theta = np.array([[1.0, 2.0], [9.0, 9.0]])
    aggregate(theta, lay, Role.HEAD, np.arange(2), np.array([1.0, 0.0]))
    assert np.array_equal(theta[1], [1.0, 2.0])


def test_aggregate_sampled_participants_weighted_sum():
    # weights that do not sum to 1 take the plain weighted sum; a client drawn
    # twice counts twice, and non-participants receive the broadcast too
    lay = layout_from_sizes([("phi", 1, Role.REPRESENTATION), ("h", 1, Role.HEAD)])
    theta = np.array([[5.0, 1.0], [7.0, 2.0], [0.0, 4.0]])
    size = aggregate(theta, lay, Role.HEAD, np.array([1, 1, 2]), np.array([0.5, 0.5, 0.25]))
    assert size == 1
    assert np.array_equal(theta, [[5.0, 3.0], [7.0, 3.0], [0.0, 3.0]])


def test_scaffold_control_update_telescopes_to_mean_gradient():
    model, shards = _ridge_task(num_clients=1)
    lay = build_layout(model)
    snapshot = np.full(lay.total_params, 0.3)
    c = ClientState(0, ParamVector(snapshot.copy(), lay))
    control = np.zeros(lay.total_params)
    eta, tau = 0.05, 4
    grads = []
    for t in range(tau):
        X = shards[0].X[t * 5 : (t + 1) * 5]
        y = shards[0].y[t * 5 : (t + 1) * 5]
        grads.append(loss_and_grad(model, c.params, X, y).grad.values.copy())
        local_sgd_step(model, c, X, y, eta=eta)
    scaffold_control_update(
        control, snapshot, c.params.values, 0, np.zeros(lay.total_params), eta, tau,
        tuple(b.slice for b in lay.blocks),
    )
    want = np.mean(np.stack(grads), axis=0)
    assert np.allclose(control, want, rtol=1e-12, atol=1e-14)


def test_scaffold_control_update_no_drift_resets_to_zero():
    lay = layout_from_sizes([("h", 2, Role.HEAD)])
    theta = np.array([1.0, -1.0])
    c_val = np.array([0.4, -0.2])
    control = c_val.copy()
    every = tuple(b.slice for b in lay.blocks)
    scaffold_control_update(control, theta.copy(), theta, 0, c_val, 0.1, 3, every)
    assert np.array_equal(control, [0.0, 0.0])
    with pytest.raises(DivergenceError, match=r"^client 3 control variate went non-finite\.$"):
        scaffold_control_update(control, theta, theta, 3, np.array([np.inf, 0.0]), 0.1, 3, every)


def test_scaffold_control_sum_identity():
    # sum_k c_new = sum_k (snapshot - theta)/(eta*period) when c_bar is the exact mean;
    # the rows of the (K, P) matrices are updated in place
    rng = np.random.default_rng(1)
    lay = layout_from_sizes([("phi", 3, Role.REPRESENTATION), ("h", 2, Role.HEAD)])
    theta, control, snapshot = (rng.standard_normal((4, 5)) for _ in range(3))
    c_bar = np.mean(control, axis=0)
    eta, period = 0.2, 6
    drift = np.sum((snapshot - theta) / (eta * period), axis=0)
    every = tuple(b.slice for b in lay.blocks)
    for k in range(4):
        scaffold_control_update(control[k], snapshot[k], theta[k], k, c_bar, eta, period, every)
    assert np.allclose(control.sum(axis=0), drift, rtol=1e-10, atol=1e-12)


def test_sample_participants_full():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    idx, agg = sample_participants(FULL_PARTICIPATION, 4, w, streams.substream(0, 5, 1))
    assert np.array_equal(idx, [0, 1, 2, 3])
    assert np.array_equal(agg, w)


def test_sample_participants_with_replacement():
    spec = ParticipationSpec("with_replacement", 3)
    w = np.array([1.0, 0.0, 0.0, 0.0])
    idx, agg = sample_participants(spec, 4, w, streams.substream(0, 5, 2))
    assert np.array_equal(idx, [0, 0, 0])  # degenerate weights pin the draw
    assert np.array_equal(agg, [1 / 3, 1 / 3, 1 / 3])
    uni = np.full(4, 0.25)
    idx, agg = sample_participants(spec, 4, uni, streams.substream(0, 5, 3))
    assert idx.shape == (3,) and np.all(np.diff(idx) >= 0)


def test_sample_participants_without_replacement():
    spec = ParticipationSpec("without_replacement", 4)
    uni = np.full(4, 0.25)
    idx, agg = sample_participants(spec, 4, uni, streams.substream(0, 5, 4))
    assert np.array_equal(idx, [0, 1, 2, 3])  # full-participation limit
    assert np.allclose(agg, 0.25, rtol=0, atol=0)
    skew = np.array([0.7, 0.1, 0.1, 0.1])
    idx, agg = sample_participants(
        ParticipationSpec("without_replacement", 2), 4, skew, streams.substream(0, 5, 5)
    )
    assert idx.shape == (2,) and idx[0] < idx[1]
    assert np.array_equal(agg, skew[idx] * 2.0)  # K/K_hat = 2; sums to 1 only in expectation
    with pytest.raises(ValueError):
        sample_participants(ParticipationSpec("without_replacement", 5), 4, uni, streams.substream(0, 5, 6))


def test_participation_spec_validation():
    with pytest.raises(ValueError):
        ParticipationSpec("bogus")
    with pytest.raises(ValueError):
        ParticipationSpec("full", 3)
    with pytest.raises(ValueError):
        ParticipationSpec("with_replacement")


def test_sample_participants_unbiased_mean():
    # E[sum_j w_j x_{k_j}] = E_{k~K}[x_k] for both schemes
    x = np.arange(1.0, 7.0)
    base = np.array([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])
    target = float(base @ x)
    # each mode's stream is keyed by its position here: hash(mode) is salted per process
    for key, (mode, khat) in enumerate((("with_replacement", 3), ("without_replacement", 4))):
        spec = ParticipationSpec(mode, khat)
        gen = streams.substream(77, 5, key)
        vals = np.empty(20000)
        for i in range(vals.shape[0]):
            idx, agg = sample_participants(spec, 6, base, gen)
            vals[i] = float(np.sum(agg * x[idx]))
        se = float(np.std(vals, ddof=1) / np.sqrt(vals.shape[0]))
        assert abs(float(np.mean(vals)) - target) <= 3 * se, mode


def test_fedals_alpha1_equals_fedavg_bitwise():
    model, shards = _mlp_task()
    sched = ScheduleSpec(tau=4, eta=0.05, rounds=3, batch_size=10)
    a = run_experiment("fedavg", model, shards, sched, seed=3, representation_layers=1)
    b = run_experiment("fedals", model, shards, sched, seed=3, representation_layers=1)
    assert np.array_equal(a.final_params.values, b.final_params.values)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.train_risk == rb.train_risk and ra.consensus == rb.consensus


def test_pinned_scaffold_equals_fedavg_bitwise():
    model, shards = _ridge_task()
    sched = ScheduleSpec(tau=4, eta=0.05, rounds=3, batch_size=8)
    a = run_experiment("fedavg", model, shards, sched, seed=4)
    b = run_experiment("scaffold", model, shards, sched, seed=4, pin_control=True)
    assert np.array_equal(a.final_params.values, b.final_params.values)
    live = run_experiment("scaffold", model, shards, sched, seed=4)
    assert not np.array_equal(a.final_params.values, live.final_params.values)


def test_pinned_fedals_scaffold_equals_fedals_bitwise():
    model, shards = _mlp_task()
    sched = ScheduleSpec(tau=4, eta=0.05, rounds=3, batch_size=10, alpha=3)
    a = run_experiment("fedals", model, shards, sched, seed=6, representation_layers=1)
    b = run_experiment(
        "fedals_scaffold", model, shards, sched, seed=6, representation_layers=1, pin_control=True
    )
    assert np.array_equal(a.final_params.values, b.final_params.values)


def test_single_client_matches_centralized_sgd():
    model, shards = _ridge_task(num_clients=1, n=60)
    lay = build_layout(model)
    sched = ScheduleSpec(tau=5, eta=0.05, rounds=4, batch_size=6)
    seed = 9
    run = run_experiment("fedavg", model, shards, sched, seed=seed)
    # reference: plain SGD with the same streams
    theta = init_params(model, lay, streams.substream(seed, streams.INIT))
    ref = ClientState(0, theta)
    for r in range(1, sched.rounds + 1):
        batches = draw_round_batches(
            shards[0], sched.tau, sched.batch_size, streams.substream(seed, streams.BATCH, 0, r)
        )
        for t in range(sched.tau):
            idx = batches[t]
            local_sgd_step(model, ref, shards[0].X[idx], shards[0].y[idx], sched.eta)
    assert np.array_equal(run.final_params.values, ref.params.values)


def test_comm_closed_form_examples():
    lay = layout_from_sizes([("phi", 99, Role.REPRESENTATION), ("h", 1, Role.HEAD)])
    sched = ScheduleSpec(tau=5, eta=0.1, rounds=20, batch_size=1, alpha=10)  # T = 100
    assert comm_closed_form(sched, lay) == 20 * 1 + 2 * 99
    flat = ScheduleSpec(tau=5, eta=0.1, rounds=20, batch_size=1, alpha=1)
    assert comm_closed_form(flat, lay) == 20 * (99 + 1)


def test_comm_counter_matches_closed_form():
    model, shards = _mlp_task()
    for alpha, tau, rounds in ((1, 4, 3), (2, 3, 4), (3, 2, 5), (4, 2, 3)):
        sched = ScheduleSpec(tau=tau, eta=0.05, rounds=rounds, batch_size=10, alpha=alpha)
        run = run_experiment("fedals", model, shards, sched, seed=5, representation_layers=1)
        want = comm_closed_form(sched, run.layout)
        assert np.all(run.comm.uploaded == want), (alpha, tau, rounds)
        assert np.all(run.comm.downloaded == want)


def test_partial_participation_comm_counts_unique_uploaders():
    model, shards = _ridge_task(num_clients=4, n=40)
    sched = ScheduleSpec(tau=2, eta=0.05, rounds=3, batch_size=5)
    run = run_experiment(
        "fedavg", model, shards, sched, seed=12,
        participation=ParticipationSpec("with_replacement", 2),
    )
    per_sync = run.layout.total_params
    # every client downloads every sync; uploads only when sampled
    assert np.all(run.comm.downloaded == 3 * per_sync)
    assert np.all(run.comm.uploaded <= run.comm.downloaded)
    assert run.comm.uploaded.sum() > 0


def test_comm_counter_record_sync():
    comm = CommCounter.zeros(4)
    comm.record_sync(7, np.array([2, 0, 2]))  # client 2 sampled twice uploads once
    assert comm.uploaded.tolist() == [7, 0, 7, 0]
    assert comm.downloaded.tolist() == [7, 7, 7, 7]
    comm.record_sync(3, np.array([1, 1, 1, 1]))
    assert comm.uploaded.tolist() == [7, 3, 7, 0]
    assert comm.downloaded.tolist() == [10, 10, 10, 10]
    assert comm.total_uploaded == 17
    comm.record_sync(0, np.array([0, 1, 2, 3]))  # an empty sync moves nothing
    assert comm.uploaded.tolist() == [7, 3, 7, 0]
    assert comm.downloaded.tolist() == [10, 10, 10, 10]
    assert comm.uploaded.dtype == comm.downloaded.dtype == np.int64


def test_determinism_same_seed_bitwise():
    model, shards = _mlp_task()
    sched = ScheduleSpec(tau=3, eta=0.05, rounds=3, batch_size=10, alpha=3)
    a = run_experiment("fedals_scaffold", model, shards, sched, seed=8, representation_layers=1)
    b = run_experiment("fedals_scaffold", model, shards, sched, seed=8, representation_layers=1)
    assert np.array_equal(a.final_params.values, b.final_params.values)
    assert [r.to_row() for r in a.records] == [r.to_row() for r in b.records]
    c = run_experiment("fedals_scaffold", model, shards, sched, seed=9, representation_layers=1)
    assert not np.array_equal(a.final_params.values, c.final_params.values)


def _client_matrix(run):
    return np.stack([p.values for p in run.client_params])


def test_full_sync_zeroes_consensus():
    model, shards = _mlp_task()
    # rounds * tau divisible by alpha * tau, so the last step is a full sync
    sched = ScheduleSpec(tau=3, eta=0.05, rounds=4, batch_size=10, alpha=2)
    run = run_experiment("fedals", model, shards, sched, seed=10, representation_layers=1)
    assert sum(consensus_map(_client_matrix(run), run.layout).values()) <= 1e-20
    # return value equals the last broadcast bit for bit
    assert np.array_equal(run.final_params.values, run.client_params[0].values)


def test_head_only_sync_leaves_representation_drift():
    model, shards = _mlp_task()
    # final step syncs the head only (9 % 6 != 0)
    sched = ScheduleSpec(tau=3, eta=0.05, rounds=3, batch_size=10, alpha=2)
    run = run_experiment("fedals", model, shards, sched, seed=10, representation_layers=1)
    post = consensus_map(_client_matrix(run), run.layout)
    assert post["layer0"] > 0.0
    head_names = [b.name for b in run.layout.blocks if b.role == Role.HEAD]
    for name in head_names:
        assert post[name] <= 1e-20
    # representation consensus is untouched by the head-only sync
    final_rec = run.records[-1]
    assert final_rec.step == 9
    assert final_rec.consensus["layer0"] == post["layer0"]


def test_engine_validation_errors():
    model, shards = _ridge_task()
    with pytest.raises(ValueError, match="alpha"):
        run_experiment(
            "fedavg", model, shards, ScheduleSpec(tau=2, eta=0.05, rounds=2, batch_size=5, alpha=2), seed=0
        )
    with pytest.raises(ValueError, match="representation"):
        run_experiment("fedals", model, shards, ScheduleSpec(tau=2, eta=0.05, rounds=2, batch_size=5), seed=0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_experiment("sgd", model, shards, ScheduleSpec(tau=2, eta=0.05, rounds=2, batch_size=5), seed=0)
    with pytest.raises(ValueError, match="sampling model"):
        run_experiment("fedavg", model, shards, ScheduleSpec(tau=10, eta=0.05, rounds=2, batch_size=10), seed=0)
    with pytest.raises(ValueError, match="sum to 1"):
        run_experiment(
            "fedavg", model, shards, ScheduleSpec(tau=2, eta=0.05, rounds=2, batch_size=5),
            seed=0, weights=[0.5, 0.2, 0.2],
        )


def test_run_experiments_raises_each_set_up_rule_before_training():
    ridge, ridge_shards = _ridge_task()
    mlp, mlp_shards = _mlp_task()
    sched = ScheduleSpec(tau=2, eta=0.05, rounds=2, batch_size=5)
    tiny = ScheduleSpec(tau=2, eta=5e-324, rounds=2, batch_size=5)
    cases = [
        ("sgd", ridge, ridge_shards, sched, {}, "unknown algorithm 'sgd'"),
        ("scaffold", ridge, ridge_shards, ScheduleSpec(2, 0.05, 2, 5, alpha=3), {},
         "schedule.alpha must be 1 for scaffold"),
        ("fedals_scaffold", ridge, ridge_shards, sched, {}, "representation and head"),
        ("fedals", mlp, mlp_shards, sched, {"representation_layers": 3}, "no head block"),
        ("fedals", mlp, mlp_shards, sched, {"representation_layers": 0}, "no representation"),
        ("fedavg", ridge, ridge_shards, sched,
         {"participation": ParticipationSpec("without_replacement", 4)}, "cannot exceed clients"),
        ("fedavg", ridge, ridge_shards, sched,
         {"participation": ParticipationSpec("with_replacement", MAX_SAMPLED + 1)},
         f"num_sampled must be <= {MAX_SAMPLED}"),
        ("scaffold", ridge, ridge_shards, tiny, {}, r"1/\(eta \* 2\) overflows"),
        ("fedals_scaffold", mlp, mlp_shards, ScheduleSpec(2, 5e-324, 2, 5, alpha=2),
         {"representation_layers": 1}, r"1/\(eta \* 2\) overflows"),
    ]
    for algorithm, model, shards, schedule, options, message in cases:
        with pytest.raises(ValueError, match=message):
            run_experiment(algorithm, model, shards, schedule, seed=0, **options)
    # 2**62 draws fit an int64 but not an index array numpy can size
    assert MAX_SAMPLED < 2**62
    # a pinned control is never scaled, so its step size may be that small
    layout = check_setup("scaffold", ridge, tiny, 3, pin_control=True)
    assert layout == build_layout(ridge)


def test_a_run_takes_its_data_as_a_shards_only(monkeypatch):
    from fedsim import engine

    model, shards = _ridge_task()
    sched = ScheduleSpec(tau=2, eta=0.05, rounds=2, batch_size=5)
    draws = []
    for name in ("draw_round_batches", "draw_round_batches_with_replacement"):
        monkeypatch.setattr(engine, name, lambda *args: draws.append(args))
    message = r"must be a data\.Shards"
    with pytest.raises(ValueError, match=message):
        run_experiment("fedavg", model, list(shards), sched, seed=0)
    with pytest.raises(ValueError, match=message):
        run_experiment("fedavg", model, shards, sched, seed=0, pop_source=list(shards))
    with pytest.raises(ValueError, match=message):
        run_experiment(
            "fedavg", model, shards, sched, seed=0, pop_source=list(shards),
            batches_with_replacement=True,
        )
    assert draws == []


def test_divergence_error_names_round_step_client():
    model, shards = _ridge_task(noise=0.0)
    sched = ScheduleSpec(tau=4, eta=80.0, rounds=8, batch_size=8)
    with pytest.raises(DivergenceError, match=r"round \d+ step \d+ client \d+"):
        run_experiment("fedavg", model, shards, sched, seed=2)


def test_metrics_cadence_and_hook():
    model, shards = _ridge_task()
    sched = ScheduleSpec(tau=4, eta=0.05, rounds=2, batch_size=8)
    seen = []
    run = run_experiment(
        "fedavg", model, shards, sched, seed=3, consensus_every=0,
        per_client_risks=True, on_record=lambda r, s, rec: seen.append((r, s)),
    )
    assert [rec.step for rec in run.records] == [4, 8]  # sync steps only
    assert seen == [(1, 4), (2, 8)]
    for rec in run.records:
        assert rec.train_risk is not None
        assert len(rec.per_client_risks) == len(shards)
    dense = run_experiment("fedavg", model, shards, sched, seed=3, consensus_every=1)
    assert [rec.step for rec in dense.records] == list(range(1, 9))
    sparse = [rec for rec in dense.records if rec.train_risk is not None]
    assert [rec.step for rec in sparse] == [4, 8]


def test_without_replacement_full_subset_equals_full_run():
    model, shards = _ridge_task(num_clients=4, n=40)
    sched = ScheduleSpec(tau=2, eta=0.05, rounds=3, batch_size=5)
    full = run_experiment("fedavg", model, shards, sched, seed=21)
    subset = run_experiment(
        "fedavg", model, shards, sched, seed=21,
        participation=ParticipationSpec("without_replacement", 4),
    )
    assert np.array_equal(full.final_params.values, subset.final_params.values)


def test_batches_with_replacement_mode_runs():
    model, shards = _ridge_task(num_clients=2, n=10)
    sched = ScheduleSpec(tau=8, eta=0.02, rounds=2, batch_size=4)  # 32 > 10 would fail without replacement
    run = run_experiment("fedavg", model, shards, sched, seed=6, batches_with_replacement=True)
    assert run.steps == 16
