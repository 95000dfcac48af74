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

from .data import GaussianLinear
from .models import (
    ModelSpec,
    RidgeSpec,
    batch_loss,
    population_risk_closed_form,
    predict,
    sample_losses,
)
from .params import BlockLayout, ParamVector, weighted_average


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


@dataclass(frozen=True)
class PooledShards:
    """Shards laid end to end: X (N, d), y (N,), and each shard's sample count.

    A run pools its shards once, so that each sync evaluates all of them in
    one pass without copying them again.
    """

    X: np.ndarray
    y: np.ndarray
    sizes: tuple[int, ...]


def _end_to_end(parts: list[np.ndarray]) -> np.ndarray:
    """The parts joined along the first axis.

    When they are consecutive row blocks of one C-contiguous array, as
    data.row_shards lays shards out, this is a view of that array and copies
    nothing; otherwise a concatenation.
    """
    base = parts[0].base
    if base is not None and base.flags.c_contiguous and base.ndim == parts[0].ndim:
        if base.strides[0] > 0:
            offset = parts[0].__array_interface__["data"][0] - base.__array_interface__["data"][0]
            lo = offset // base.strides[0]
            whole = base[lo : lo + sum(len(p) for p in parts)]
            at = 0
            for p in parts:
                # same address, shape, strides and dtype as the next slice of whole
                if p.__array_interface__ != whole[at : at + len(p)].__array_interface__:
                    break
                at += len(p)
            else:
                return whole
    return np.concatenate(parts)


def pooled(source):
    """A sequence of DatasetShard as PooledShards; anything else as it is."""
    if source is None or isinstance(source, (PooledShards, GaussianLinear)):
        return source
    shards = list(source)
    return PooledShards(
        _end_to_end([s.X for s in shards]),
        _end_to_end([s.y for s in shards]),
        tuple(s.n for s in shards),
    )


def shard_risks(model: ModelSpec, params: ParamVector, shards) -> list[float]:
    """Mean loss of params on each shard, as batch_loss per shard would give it.

    shards is a sequence of DatasetShard or their PooledShards.
    """
    pool = pooled(shards)
    values = batch_loss(model, params, pool.X, pool.y, segments=pool.sizes)
    if not np.all(np.isfinite(values)):
        raise ValueError("loss is non-finite.")
    return [float(v) for v in values]


def empirical_risk(
    model: ModelSpec, params: ParamVector, shards, weights: Sequence[float]
) -> float:
    """Client-weighted empirical risk sum_k w_k * mean-loss(shard_k)."""
    pool = pooled(shards)
    if len(pool.sizes) != len(weights):
        raise ValueError("one weight per shard required.")
    if abs(float(np.sum(np.asarray(weights, dtype=np.float64))) - 1.0) > 1e-12:
        raise ValueError("client weights must sum to 1.")
    # anchored form: identical shard risks collapse to the first value exactly
    return float(weighted_average(shard_risks(model, params, pool), weights))


def population_risk_estimate(
    model: ModelSpec,
    params: ParamVector,
    source,
    weights: Sequence[float],
) -> float:
    """Client-weighted population risk.

    source selects the route:
      - GaussianLinear with a ridge model: exact closed form;
      - a sequence of DatasetShard, or their PooledShards: held-out estimate.
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
    pool = pooled(source)
    if len(pool.sizes) != len(weights):
        raise ValueError("one weight per holdout shard required.")
    losses = sample_losses(model, params, pool.X, pool.y, segments=pool.sizes)
    total = 0.0
    lo = 0
    for w, n in zip(weights, pool.sizes):
        total += w * float(np.mean(losses[lo : lo + n]))
        lo += n
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
    center = np.mean(theta, axis=0)
    out = {}
    for b in layout.blocks:
        diff = theta[:, b.slice] - center[b.slice]
        out[b.name] = float(np.sum(diff * diff)) / theta.shape[0]
    return out


def accuracy(model: ModelSpec, params: ParamVector, X, y) -> float:
    """Fraction of correct labels; classifiers only."""
    if isinstance(model, RidgeSpec):
        raise ValueError("accuracy is undefined for regression.")
    pred = predict(model, params, X)
    return float(np.mean(pred == np.asarray(y)))
