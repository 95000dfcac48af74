"""Risk and consensus measurements.

Everything here is a pure function of model parameters and data, so records
can be recomputed offline from a run's inputs. Population risk has two
routes: exact closed form (ridge on Gaussian linear data) or a held-out
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import DatasetShard, GaussianLinear
from .models import (
    ModelSpec,
    RidgeSpec,
    batch_loss,
    population_risk_closed_form,
    predict,
    sample_losses,
    stack_rows,
)
from .params import ParamVector


@dataclass
class MetricsRecord:
    """One measurement row.

    Risk fields are None at steps where the cadence skips them; consensus maps
    block name to the consensus distance just before any sync at this step.
    comm_uploaded counts cumulative parameters uploaded across all clients.
    """

    round: int
    step: int
    train_risk: float | None
    test_risk: float | None
    gen_gap: float | None
    consensus: dict[str, float]
    comm_uploaded: int
    per_client_risks: list[float] | None = None

    def to_row(self) -> dict:
        return dict(vars(self))


def _stacked_shards(model: ModelSpec, shards: Sequence[DatasetShard], params: ParamVector):
    """Equal-size shards stacked for one call: (indices, theta, X, y) per chunk.

    A chunk holds the shards that models.stack_rows lets one loss evaluation
    take, at least one; theta repeats params once per shard without copying it.
    """
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(shards):
        groups.setdefault(s.n, []).append(i)
    chunks = []
    for n, members in groups.items():
        per = stack_rows(model, n, need_grad=False)
        chunks += [members[j : j + per] for j in range(0, len(members), per)]
    for idx in chunks:
        theta = np.broadcast_to(params.values, (len(idx), params.values.shape[0]))
        X = np.stack([shards[i].X for i in idx])
        y = np.stack([shards[i].y for i in idx])
        yield idx, theta, X, y


def shard_risks(model: ModelSpec, params: ParamVector, shards: Sequence[DatasetShard]) -> list[float]:
    """Mean loss of params on each shard, as batch_loss per shard would give it."""
    risks = [0.0] * len(shards)
    for idx, theta, X, y in _stacked_shards(model, shards, params):
        values = batch_loss(model, theta, X, y)
        if not np.all(np.isfinite(values)):
            raise ValueError("loss is non-finite.")
        for i, v in zip(idx, values):
            risks[i] = float(v)
    return risks


def empirical_risk(
    model: ModelSpec,
    params: ParamVector,
    shards: Sequence[DatasetShard],
    weights: Sequence[float],
) -> float:
    """Client-weighted empirical risk sum_k w_k * mean-loss(shard_k)."""
    if len(shards) != len(weights):
        raise ValueError("one weight per shard required.")
    if abs(float(np.sum(np.asarray(weights, dtype=np.float64))) - 1.0) > 1e-12:
        raise ValueError("client weights must sum to 1.")
    # anchored form: identical shard risks collapse to the first value exactly
    risks = shard_risks(model, params, shards)
    total = risks[0]
    for risk, w in zip(risks[1:], weights[1:]):
        total += float(w) * (risk - risks[0])
    return total


def population_risk_estimate(
    model: ModelSpec,
    params: ParamVector,
    source,
    weights: Sequence[float],
) -> float:
    """Client-weighted population risk.

    source selects the route:
      - GaussianLinear with a ridge model: exact closed form;
      - a sequence of DatasetShard: held-out estimate.
    """
    weights = [float(w) for w in weights]
    if isinstance(source, GaussianLinear):
        if not isinstance(model, RidgeSpec):
            raise ValueError("a GaussianLinear source has a closed-form risk for ridge only.")
        total = 0.0
        for k, w in enumerate(weights):
            total += w * population_risk_closed_form(
                model, params, source.covariance, source.coef_for(k), source.noise_std
            )
        return total
    shards = list(source)
    if len(shards) != len(weights):
        raise ValueError("one weight per holdout shard required.")
    per_shard = [None] * len(shards)
    for idx, theta, X, y in _stacked_shards(model, shards, params):
        for i, losses in zip(idx, sample_losses(model, theta, X, y)):
            per_shard[i] = losses
    total = 0.0
    for w, losses in zip(weights, per_shard):
        total += w * float(np.mean(losses))
    return total


def consensus_map(client_params: Sequence[ParamVector]) -> dict[str, float]:
    """Per-block mean squared distance of clients to their unweighted average.

    (1/K) sum_k ||mean - theta_k||^2 over each block, in layout order, from
    one stack and centre. The mean is always uniform, matching the drift
    quantity the schedules control, even when evaluation weights are not.
    """
    if not client_params:
        raise ValueError("need at least one client.")
    layout = client_params[0].layout
    for p in client_params[1:]:
        if p.layout != layout:
            raise ValueError("client vectors do not share a layout.")
    stacked = np.stack([p.values for p in client_params])
    center = np.mean(stacked, axis=0)
    out = {}
    for b in layout.blocks:
        diff = stacked[:, b.slice] - center[b.slice]
        out[b.name] = float(np.sum(diff * diff)) / stacked.shape[0]
    return out


def accuracy(model: ModelSpec, params: ParamVector, X, y) -> float:
    """Fraction of correct labels; classifiers only."""
    if isinstance(model, RidgeSpec):
        raise ValueError("accuracy is undefined for regression.")
    pred = predict(model, params, X)
    return float(np.mean(pred == np.asarray(y)))
