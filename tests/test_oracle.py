"""An independent loop oracle for the engine.

The oracle reads the four algorithms plainly: one client, one local step and
one role sync at a time, with each weighted sum written out. It shares only
the model's loss_and_grad and the random streams with the engine: each
round's batches come from draw_round_batches on the (seed, BATCH, k, r)
stream, and the participants of a round's sync from sample_participants on
the (seed, PARTICIPATION, r) stream. The oracle's server holds each block as
broadcast at its role's last sync; that row is the final model, and the
model each sync record evaluates. The engine's lockstep run must agree on
the final client rows, the final model and every sync record's train risk
within a relative tolerance, since the sums run in another order, and on the
communication counts exactly.

FedALS needs a representation and a head block, so its configs use a
one-hidden-layer MLP; the averaging-period algorithms use ridge. SCAFFOLD is
checked under full participation only: under sampling the engine refreshes
every client's control at each sync, where Karimireddy et al. 2020 refresh
the sampled clients' alone, and that rule waits for its own change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import rng as streams
from fedsim.data import GaussianClusters, GaussianLinear, draw_round_batches, generate
from fedsim.engine import (
    CONTROL_ALGORITHMS,
    ParticipationSpec,
    ScheduleSpec,
    run_experiment,
    sample_participants,
)
from fedsim.metrics import empirical_risk
from fedsim.models import MlpSpec, RidgeSpec, build_layout, init_params, loss_and_grad
from fedsim.params import ParamVector, Role


def _oracle(algorithm, model, shards, schedule, seed, weights, participation, split):
    """(server row, client rows, uploaded, downloaded, {sync step: server row}) of one run."""
    layout = build_layout(model, split)
    num_clients, eta = len(shards), schedule.eta
    start = init_params(model, layout, streams.substream(seed, streams.INIT)).values
    clients = [start.copy() for _ in range(num_clients)]
    control = algorithm in CONTROL_ALGORITHMS
    c = [np.zeros_like(start) for _ in range(num_clients)]  # each client's control variate
    c_bar = np.zeros_like(start)  # the server's control variate
    server = start.copy()  # each role's blocks as broadcast at its last sync
    uploaded, downloaded = [0] * num_clients, [0] * num_clients
    synced = {}  # the server row after each sync step
    step = 0
    for r in range(1, schedule.rounds + 1):
        batches = [
            draw_round_batches(
                shards[k], schedule.tau, schedule.batch_size,
                streams.substream(seed, streams.BATCH, k, r),
            )
            for k in range(num_clients)
        ]
        sync_gen = streams.substream(seed, streams.PARTICIPATION, r)
        for t in range(schedule.tau):
            step += 1
            for k, shard in enumerate(shards):
                idx = batches[k][t]
                grad = loss_and_grad(
                    model, ParamVector(clients[k], layout), shard.X[idx], shard.y[idx]
                ).grad.values
                if control:
                    grad = grad + (c_bar - c[k])
                clients[k] = clients[k] - eta * grad
            due = [
                role for role in Role
                if layout.role_size(role) > 0 and step % schedule.period(role) == 0
            ]
            if not due:
                continue
            gen = None if participation.mode == "full" else sync_gen
            participants, agg_w = sample_participants(participation, num_clients, weights, gen)
            for role in due:
                period = schedule.period(role)
                for sl in layout.role_slices(role):
                    if control:
                        # option II of Karimireddy et al. 2020 on this role's blocks:
                        # c_k <- c_k - c + (x - y_k) / (eta * period), then c <- mean c_k
                        for k in range(num_clients):
                            c[k][sl] = c[k][sl] - c_bar[sl] + (server[sl] - clients[k][sl]) / (
                                eta * period
                            )
                        mean = np.zeros(sl.stop - sl.start)
                        for k in range(num_clients):
                            mean = mean + c[k][sl]
                        c_bar[sl] = mean / num_clients
                    avg = np.zeros(sl.stop - sl.start)
                    for p, wp in zip(participants, agg_w):
                        avg = avg + wp * clients[p][sl]
                    for k in range(num_clients):
                        clients[k][sl] = avg
                    server[sl] = avg
                size = layout.role_size(role)
                for k in set(participants.tolist()):  # a client sampled twice uploads once
                    uploaded[k] += size
                for k in range(num_clients):
                    downloaded[k] += size
            synced[step] = server.copy()
    return server, clients, uploaded, downloaded, synced


MODES = ("full", "with_replacement", "without_replacement")
COVERED = [(a, m) for a in ("fedavg", "fedals") for m in MODES] + [
    ("scaffold", "full"), ("fedals_scaffold", "full")
]


@st.composite
def _cases(draw, algorithm, mode):
    clients = draw(st.integers(1, 4))
    sampled = None if mode == "full" else draw(
        st.integers(1, clients if mode == "without_replacement" else 5)
    )
    tau, batch = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    data_seed = draw(st.integers(0, 999))
    if algorithm in ("fedals", "fedals_scaffold"):
        classes = draw(st.integers(2, 3))
        activation = draw(st.sampled_from(["relu", "tanh"]))
        model = MlpSpec(dim, (draw(st.integers(1, 4)),), classes, activation, 0.1)
        source = GaussianClusters(np.eye(classes, dim) * 2.0, np.eye(dim), data_seed)
        split, alpha = 1, draw(st.integers(2, 3))
    else:
        model = RidgeSpec(input_dim=dim, l2=draw(st.sampled_from([0.0, 0.2])))
        coefs = np.linspace(-1.0, 1.0, clients * dim).reshape(clients, dim)
        source = GaussianLinear(np.eye(dim), coefs, 0.3, data_seed)
        split, alpha = 0, 1
    parts = draw(st.lists(st.integers(1, 9), min_size=clients, max_size=clients))
    return {
        "algorithm": algorithm,
        "model": model,
        "shards": generate(source, tau * batch + draw(st.integers(0, 4)), clients),
        "schedule": ScheduleSpec(
            # rounds past the first representation sync, where its control refresh shows
            tau=tau, eta=draw(st.sampled_from([0.05, 0.1])), rounds=alpha + draw(st.integers(0, 3)),
            batch_size=batch, alpha=alpha,
        ),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "weights": [x / sum(parts) for x in parts],
        "participation": ParticipationSpec(mode, sampled),
        "split": split,
    }


@pytest.mark.parametrize("algorithm, mode", COVERED)
@settings(max_examples=3, deadline=None, derandomize=True)  # 24 examples in all
@given(data=st.data())
def test_engine_matches_a_plain_loop_oracle(algorithm, mode, data):
    case = data.draw(_cases(algorithm, mode))
    final, clients, uploaded, downloaded, synced = _oracle(
        case["algorithm"], case["model"], case["shards"], case["schedule"], case["seed"],
        case["weights"], case["participation"], case["split"],
    )
    result = run_experiment(
        case["algorithm"], case["model"], case["shards"], case["schedule"], seed=case["seed"],
        representation_layers=case["split"], weights=case["weights"],
        participation=case["participation"],
    )
    np.testing.assert_allclose(result.final_params.values, final, rtol=1e-9, atol=1e-12)
    for got, want in zip(result.client_params, clients):
        np.testing.assert_allclose(got.values, want, rtol=1e-9, atol=1e-12)
    assert result.comm.uploaded.tolist() == uploaded
    assert result.comm.downloaded.tolist() == downloaded
    risks = {rec.step: rec.train_risk for rec in result.records if rec.train_risk is not None}
    assert sorted(risks) == sorted(synced)
    for step, row in synced.items():
        want = empirical_risk(
            case["model"], ParamVector(row, result.layout), case["shards"], case["weights"]
        )
        np.testing.assert_allclose(risks[step], want, rtol=1e-9, atol=1e-12)
