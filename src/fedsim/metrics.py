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

from .data import GaussianLinear, Shards
from .models import (
    ModelSpec,
    RidgeSpec,
    batch_loss,
    population_risk_closed_form,
    predict,
    sample_losses,
)
from .params import BlockLayout, ParamVector, client_weights, require_finite, weighted_average


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


def shard_risks(model: ModelSpec, params: ParamVector, shards: Shards) -> list[float]:
    """Mean loss of params on each shard, as batch_loss per shard would give it."""
    values = batch_loss(model, params, shards.X, shards.y, segments=shards.sizes)
    require_finite(values, "shard risk")
    return [float(v) for v in values]


def empirical_risk(
    model: ModelSpec, params: ParamVector, shards: Shards, weights: Sequence[float]
) -> float:
    """Client-weighted empirical risk sum_k w_k * mean-loss(shard_k)."""
    w = client_weights(weights, len(shards.sizes), "shard")
    # anchored form: identical shard risks collapse to the first value exactly
    return float(weighted_average(shard_risks(model, params, shards), w))


def population_risk_estimate(
    model: ModelSpec,
    params: ParamVector,
    source: GaussianLinear | Shards,
    weights: Sequence[float],
) -> float:
    """Client-weighted population risk.

    source selects the route:
      - GaussianLinear with a ridge model: exact closed form;
      - a Shards of held-out samples: held-out estimate.
    """
    if isinstance(source, GaussianLinear):
        if not isinstance(model, RidgeSpec):
            raise ValueError("a GaussianLinear source has a closed-form risk for ridge only.")
        rows = source.client_coefs.shape[0]
        w = client_weights(weights, len(weights) if rows == 1 else rows)
        total = 0.0
        for k, wk in enumerate(w.tolist()):
            total += wk * population_risk_closed_form(
                model, params, source.covariance, source.coef_for(k), source.noise_std
            )
    else:
        w = client_weights(weights, len(source.sizes), "holdout shard")
        losses = sample_losses(model, params, source.X, source.y, segments=source.sizes)
        total = 0.0
        lo = 0
        for wk, n in zip(w.tolist(), source.sizes):
            total += wk * float(np.mean(losses[lo : lo + n]))
            lo += n
    require_finite(total, "test risk")
    return total


def consensus_map(theta: np.ndarray, layout: BlockLayout) -> dict[str, float]:
    """Per-block mean squared distance of the rows of theta to their unweighted average.

    (1/K) sum_k ||mean - theta_k||^2 over each block of the (K, P) client
    matrix, in layout order, from one centre. The mean is always uniform,
    matching the drift quantity the schedules control, even when evaluation
    weights are not.
    """
    if theta.ndim != 2 or theta.shape[0] == 0 or theta.shape[1] != layout.total_params:
        raise ValueError(f"theta has shape {theta.shape}, expected (K >= 1, {layout.total_params}).")
    # np.mean and np.sum by their own reductions, without the wrappers: same bits
    k = theta.shape[0]
    center = np.add.reduce(theta, axis=0) / k
    out = {}
    for b in layout.blocks:
        diff = theta[:, b.slice] - center[b.slice]  # contiguous, so one pairwise sum
        diff *= diff
        out[b.name] = float(np.add.reduce(diff, axis=None)) / k
    require_finite(list(out.values()), "consensus distance")
    return out


def accuracy(model: ModelSpec, params: ParamVector, X, y) -> float:
    """Fraction of correct labels; classifiers only."""
    if isinstance(model, RidgeSpec):
        raise ValueError("accuracy is undefined for regression.")
    pred = predict(model, params, X)
    return float(np.mean(pred == np.asarray(y)))
