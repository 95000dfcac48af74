"""The run axis: each run of a G-stack must equal its own run_experiment bit for
bit, and the one-pass sync risks must equal one batch_loss or sample_losses
call per shard bit for bit."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import models
from fedsim.data import stacked_shards
from fedsim.engine import (
    ALGORITHMS,
    CONTROL_ALGORITHMS,
    DivergenceError,
    ParticipationSpec,
    RunSpec,
    ScheduleSpec,
    run_experiment,
    run_experiments,
)
from fedsim.metrics import population_risk_estimate, shard_risks
from fedsim.models import (
    LogisticL2Spec,
    MlpSpec,
    RidgeSpec,
    batch_loss,
    build_layout,
    sample_losses,
)
from fedsim.params import ParamVector

SIZES = st.sampled_from([1, 1, 2, 3, 4, 5, 7, 9, 17, 32, 33, 40])


def _labels(model, rng, n):
    if isinstance(model, RidgeSpec):
        return rng.standard_normal(n)
    if isinstance(model, LogisticL2Spec):
        return rng.choice([-1, 1], size=n)
    return rng.integers(0, model.num_classes, size=n)


def _shards(model, rng, sizes):
    return stacked_shards(
        [(rng.standard_normal((n, model.input_dim)), _labels(model, rng, n)) for n in sizes]
    )


def _model(family, dim, l2, hidden, classes):
    if family == "ridge":
        return RidgeSpec(input_dim=dim, l2=l2)
    if family == "logistic":
        return LogisticL2Spec(input_dim=dim, l2=l2)
    return MlpSpec(dim, hidden, classes, activation=family[4:], l2=l2)


def _same_result(a, b):
    assert np.array_equal(a.final_params.values, b.final_params.values)
    assert len(a.client_params) == len(b.client_params)
    for p, q in zip(a.client_params, b.client_params):
        assert np.array_equal(p.values, q.values)
    assert [json.dumps(r.to_row()) for r in a.records] == [json.dumps(r.to_row()) for r in b.records]
    assert np.array_equal(a.comm.uploaded, b.comm.uploaded)
    assert np.array_equal(a.comm.downloaded, b.comm.downloaded)
    assert a.steps == b.steps


@st.composite
def _stacks(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
    blocks = algorithm in ("fedals", "fedals_scaffold")
    families = ["mlp_relu", "mlp_tanh"] if blocks else ["ridge", "logistic", "mlp_relu", "mlp_tanh"]
    family = draw(st.sampled_from(families))
    hidden = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    model = _model(
        family, draw(st.integers(1, 4)), draw(st.sampled_from([0.0, 0.1])), hidden,
        draw(st.integers(2, 4)),
    )
    if isinstance(model, MlpSpec):
        low = 1 if blocks else 0
        split = draw(st.integers(low, model.num_layers - 1 if blocks else model.num_layers))
    else:
        split = draw(st.integers(0, 1))
    clients = draw(st.integers(1, 4))
    tau, batch = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    with_replacement = draw(st.booleans())
    mode = draw(st.sampled_from(["full", "with_replacement", "without_replacement"]))
    sampled = None if mode == "full" else draw(
        st.integers(1, clients if mode == "without_replacement" else 5)
    )
    parts = draw(st.lists(st.integers(1, 9), min_size=clients, max_size=clients))
    return {
        "algorithm": algorithm,
        "model": model,
        "schedule": ScheduleSpec(
            tau=tau, eta=0.05, rounds=draw(st.integers(1, 4)), batch_size=batch,
            alpha=draw(st.integers(1, 3)) if blocks else 1,
        ),
        "options": {
            "representation_layers": split,
            "weights": [x / sum(parts) for x in parts],
            "participation": ParticipationSpec(mode, sampled),
            "pin_control": algorithm in CONTROL_ALGORITHMS and draw(st.booleans()),
            "batches_with_replacement": with_replacement,
            "consensus_every": draw(st.integers(0, 2)),
            "risk_every_sync": draw(st.booleans()),
            "per_client_risks": draw(st.booleans()),
        },
        "clients": clients,
        "runs": draw(st.integers(1, 3)),
        # without-replacement batches need tau * batch samples in every shard
        "min_size": 1 if with_replacement else tau * batch,
        "holdout": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _recorder(seen):
    return lambda r, s, rec: seen.append((r, s, json.dumps(rec.to_row())))


@settings(max_examples=120, deadline=None)
@given(case=_stacks())
def test_each_run_of_a_stack_equals_its_solo_run(case):
    model, rng = case["model"], np.random.default_rng(case["seed"])
    runs, seen = [], []
    for _ in range(case["runs"]):
        sizes = [max(case["min_size"], n) for n in rng.choice([1, 2, 3, 5, 8, 13], case["clients"])]
        holdout = None
        if case["holdout"]:
            holdout = _shards(model, rng, rng.choice([1, 2, 4, 7], case["clients"]))
        seen.append([])
        runs.append(RunSpec(_shards(model, rng, sizes), int(rng.integers(1000)), holdout, _recorder(seen[-1])))
    args = (case["algorithm"], model)
    solos, solo_seen = [], []
    try:
        for run in runs:
            solo_seen.append([])
            solos.append(run_experiment(
                *args, run.shards, case["schedule"], seed=run.seed, pop_source=run.pop_source,
                on_record=_recorder(solo_seen[-1]), **case["options"],
            ))
    except DivergenceError:
        with pytest.raises(DivergenceError):
            run_experiments(*args, case["schedule"], runs, **case["options"])
        return
    stacked = run_experiments(*args, case["schedule"], runs, **case["options"])
    assert len(stacked) == len(runs)
    for solo, result in zip(solos, stacked):
        _same_result(result, solo)
    assert seen == solo_seen


def test_a_stack_needs_equal_client_counts():
    model = RidgeSpec(input_dim=2)
    rng = np.random.default_rng(0)
    runs = [RunSpec(_shards(model, rng, [4, 4])), RunSpec(_shards(model, rng, [4, 4, 4]))]
    with pytest.raises(ValueError, match="same number of clients"):
        run_experiments("fedavg", model, ScheduleSpec(1, 0.1, 1, 1), runs)
    with pytest.raises(ValueError, match="at least one run"):
        run_experiments("fedavg", model, ScheduleSpec(1, 0.1, 1, 1), [])


def test_a_divergence_in_a_stack_names_the_run_and_its_client():
    # the first loss of run 1's second client is 0.5 * 1e14; run 0 stays calm
    model = RidgeSpec(input_dim=1)
    calm = stacked_shards([(np.ones((4, 1)), np.ones(4))] * 2)
    wild = stacked_shards([(np.ones((4, 1)), np.ones(4)), (np.ones((4, 1)), np.full(4, 1e7))])
    with pytest.raises(DivergenceError, match=r"^run 1 round 1 step 1 client 1: ") as info:
        run_experiments(
            "fedavg", model, ScheduleSpec(1, 0.1, 1, 1), [RunSpec(calm), RunSpec(wild)]
        )
    assert info.value.client == 1


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["ridge", "logistic", "mlp_relu", "mlp_tanh"]),
    l2=st.sampled_from([0.0, 0.25]),
    dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 17), min_size=1, max_size=3).map(tuple),
    classes=st.integers(2, 10),
    # runs of equal sizes, which one stacked product multiplies
    sizes=st.lists(st.tuples(SIZES, st.integers(1, 3)), min_size=1, max_size=6).map(
        lambda runs: [n for n, m in runs for _ in range(m)]
    ),
    budget=st.sampled_from([1, 40, 300, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_risks_equal_one_call_per_shard(family, l2, dim, hidden, classes, sizes, budget, seed):
    model = _model(family, dim, l2, hidden, classes)
    rng = np.random.default_rng(seed)
    layout = build_layout(model)
    params = ParamVector(rng.standard_normal(layout.total_params), layout)
    shards = _shards(model, rng, sizes)
    weights = rng.dirichlet(np.ones(len(sizes)))
    saved = models.STACK_ELEMENTS
    models.STACK_ELEMENTS = budget  # from one shard per call to all in one
    try:
        means = batch_loss(model, params, shards.X, shards.y, segments=shards.sizes)
        losses = sample_losses(model, params, shards.X, shards.y, segments=shards.sizes)
        risks = shard_risks(model, params, shards)
        total = population_risk_estimate(model, params, shards, weights)
    finally:
        models.STACK_ELEMENTS = saved
    want_total = 0.0
    lo = 0
    for i, s in enumerate(shards):
        one = batch_loss(model, params, s.X, s.y)
        assert means[i] == one == risks[i]
        per_sample = sample_losses(model, params, s.X, s.y)
        assert np.array_equal(losses[lo : lo + s.n], per_sample)
        want_total += weights[i] * float(np.mean(per_sample))
        lo += s.n
    assert total == want_total


def test_segments_must_cover_the_samples():
    model = RidgeSpec(input_dim=2)
    params = ParamVector(np.zeros(2), build_layout(model))
    X, y = np.zeros((5, 2)), np.zeros(5)
    for bad in ([2, 2], [5, 0], [3, 3]):
        with pytest.raises(ValueError, match="segment sizes"):
            batch_loss(model, params, X, y, segments=bad)
    with pytest.raises(ValueError, match="one ParamVector"):
        sample_losses(model, np.zeros((1, 2)), X, y, segments=[5])
