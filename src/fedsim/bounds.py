"""Monte Carlo verification of the one-round generalization bound and of the
partial-participation reweighting identities.

The bound estimator draws fresh federated ridge datasets, solves each client's
ERM exactly, and compares the aggregate's generalization gap against the
bound assembled from per-client means: with client weights w and curvature
constants mu (= l2, exactly) and L (max realized smoothness over trials),

    lhs = E[R(theta_hat) - R_S(theta_hat)]
    rhs = sum_k w_k * ( L*w_k^2/mu * E[Delta_k]
                        + 2*sqrt(L/mu) * w_k * sqrt(E[delta_k] * E[Delta_k]) )

where Delta_k is client k's local generalization gap and delta_k the excess
empirical risk of the aggregate on client k's sample. Negative Monte Carlo
means are clamped at zero inside the square root only; raw values are always
reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from . import rng as streams
from .data import GaussianLinear, require_finite_samples
from .metrics import sample_losses
from .models import (
    RidgeSpec,
    build_layout,
    erm_closed_form,
    jacobi_eigenvalues,
    loss_and_grad,
    population_risk_closed_form,
)
from .params import ParamVector, client_weights, require_finite, weighted_average

MIN_TRIALS = 100


@dataclass(eq=False)
class BoundTrialConfig:
    """Inputs of one bound-verification experiment.

    The generator's own seed is unused here: each trial draws every client's
    sample from a stream keyed by (seed, trial, client). l2 must be strictly
    positive (it is the strong-convexity constant mu) and at least MIN_TRIALS
    trials are required for the Monte Carlo means to be meaningful.
    """

    generator: GaussianLinear
    num_clients: int
    n_per_client: int
    l2: float
    trials: int
    seed: int
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1.")
        if self.n_per_client < 2:
            raise ValueError("n_per_client must be >= 2.")
        if not self.l2 > 0.0:
            raise ValueError("l2 must be > 0: it is the strong-convexity constant.")
        if self.trials < MIN_TRIALS:
            raise ValueError(
                f"insufficient trials: {self.trials} < {MIN_TRIALS}; Monte Carlo "
                "means need at least that many draws."
            )
        if self.generator.client_coefs.shape[0] not in (1, self.num_clients):
            raise ValueError("generator client_coefs must have 1 row or one row per client.")
        self.weights = client_weights(self.weights, self.num_clients)


@dataclass
class BoundReport:
    """Result of one bound verification; serializes to a single JSON document."""

    passed: bool
    lhs: float
    lhs_stderr: float
    rhs: float
    slack: float
    first_term: float
    cross_term: float
    mu: float
    L: float
    stderr_fraction: float | None  # None when rhs is 0
    max_erm_grad_norm: float
    trials: int
    num_clients: int
    n_per_client: int
    l2: float
    seed: int
    weights: list[float]
    local_gen: list[dict]
    non_iid: list[dict]

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def one_round_fedavg_erm(
    config: BoundTrialConfig, trials: range
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A block of trials: datasets, exact per-client ERMs and their weighted average.

    Returns X (T, K, n, d), y (T, K, n), the local ERMs (T, K, d) and the
    aggregates (T, d) for the T trials in trials. Client k of trial t draws
    its sample from the stream (seed, TRIAL, t, k); the block's stream states
    are derived in one rng.seed_states call, and its samples drawn by one
    GaussianLinear.sample_clients call. The aggregates are one
    params.weighted_average over the client axis, which is element-wise, so
    each row equals weighted_average of its trial's locals bit for bit.
    """
    gen_spec = config.generator
    model = RidgeSpec(gen_spec.dim, config.l2)
    k_clients, n = config.num_clients, config.n_per_client
    paths = streams.stream_paths(streams.TRIAL, np.asarray(trials)[:, None], np.arange(k_clients))
    states = streams.seed_states(config.seed, paths).reshape(-1, 4)
    gens = (streams.from_state(state) for state in states)
    X, y = gen_spec.sample_clients(n, np.tile(np.arange(k_clients), len(trials)), gens)
    X = X.reshape(len(trials), k_clients, n, gen_spec.dim)
    y = y.reshape(len(trials), k_clients, n)
    require_finite_samples(X, y)  # labels of huge coefficients overflow: bad input, exit 1
    locals_ = erm_closed_form(model, X.reshape(-1, n, gen_spec.dim), y.reshape(-1, n))
    locals_ = locals_.reshape(len(trials), k_clients, gen_spec.dim)
    return X, y, locals_, weighted_average(locals_.swapaxes(0, 1), config.weights)


def _mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(samples.shape[0]))
    return m, se


def sum_weight_cubes(weights: np.ndarray) -> float:
    """sum_k w_k^3, computed as K * w^3 for uniform weights.

    The closed form keeps the uniform case exactly scale-equivariant: doubling
    K multiplies the result by exactly 1/4 in floating point (power-of-two
    scalings commute with rounding), which a left-to-right loop sum would not
    guarantee.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.all(w == w[0]):
        return w.shape[0] * float(w[0]) ** 3
    total = 0.0
    for x in w:
        total += float(x) ** 3
    return total


def first_term_coefficient(weights: np.ndarray, L: float, mu: float) -> float:
    """Coefficient multiplying a common E[Delta] in the bound's first term."""
    return (L / mu) * sum_weight_cubes(weights)


def theorem1_rhs(
    weights: np.ndarray, L: float, mu: float, gap_means, exc_means
) -> tuple[float, float, float]:
    """Assemble the bound's right side from per-client Monte Carlo means.

    Returns (rhs, first_term, cross_term). Negative means are clamped at zero
    inside the square root only; callers report the raw values. Nondecreasing
    in every gap/excess mean, which makes conservative estimates safe.
    """
    ratio = L / mu
    first_term = 0.0
    cross_term = 0.0
    for wk, gap_mean, exc_mean in zip(weights, gap_means, exc_means):
        wk = float(wk)
        first_term += wk * ratio * wk * wk * float(gap_mean)
        cross_term += wk * 2.0 * np.sqrt(ratio) * wk * np.sqrt(
            max(float(exc_mean), 0.0) * max(float(gap_mean), 0.0)
        )
    return first_term + cross_term, first_term, cross_term


def verify_theorem1(config: BoundTrialConfig) -> BoundReport:
    """Monte Carlo check that the one-round bound holds for ridge ERM.

    Runs config.trials independent trials, forms the bound from per-term Monte
    Carlo means (products of expectations, matching the bound's structure),
    and passes when slack = rhs - lhs >= -3 * stderr(lhs). mu is exactly l2;
    L is the largest realized smoothness constant of the pooled empirical risk
    across trials, so the constants are valid for every draw seen.
    """
    gen_spec = config.generator
    model = RidgeSpec(gen_spec.dim, config.l2)
    layout = build_layout(model)
    k_clients, n, dim = config.num_clients, config.n_per_client, gen_spec.dim
    w = config.weights
    coefs = np.stack([gen_spec.coef_for(k) for k in range(k_clients)])

    lhs_samples = np.empty(config.trials)
    local_gaps = np.empty((config.trials, k_clients))
    excesses = np.empty((config.trials, k_clients))
    l_max = -np.inf
    worst_grad = 0.0
    hessians = []  # union Hessians not yet reduced to their largest eigenvalue

    block = max(1, models.STACK_ELEMENTS // (k_clients * n * dim))
    for start in range(0, config.trials, block):
        trials = range(start, min(start + block, config.trials))
        X, y, locals_, theta_hat = one_round_fedavg_erm(config, trials)
        for t in range(len(trials)):
            for k in range(k_clients):
                # the ERM's first-order condition, checked one client at a time
                local = ParamVector(locals_[t, k], layout)
                grad = loss_and_grad(model, local, X[t, k], y[t, k]).grad
                worst_grad = max(worst_grad, float(np.linalg.norm(grad.values)))

        rows = len(trials) * k_clients
        xs, ys = X.reshape(rows, n, dim), y.reshape(rows, n)
        thetas = locals_.reshape(rows, dim)
        aggs = np.repeat(theta_hat, k_clients, axis=0)
        row_coefs = np.tile(coefs, (len(trials), 1))
        emp_local = sample_losses(model, thetas, xs, ys).mean(axis=1)
        pop_local = population_risk_closed_form(
            model, thetas, gen_spec.covariance, row_coefs, gen_spec.noise_std
        )
        emp_agg = sample_losses(model, aggs, xs, ys).mean(axis=1)
        pop_agg = population_risk_closed_form(
            model, aggs, gen_spec.covariance, row_coefs, gen_spec.noise_std
        )
        emp_local, pop_local, emp_agg, pop_agg = (
            v.reshape(len(trials), k_clients) for v in (emp_local, pop_local, emp_agg, pop_agg)
        )
        local_gaps[trials.start : trials.stop] = pop_local - emp_local
        excesses[trials.start : trials.stop] = emp_agg - emp_local
        lhs_t = np.zeros(len(trials))
        for k in range(k_clients):
            lhs_t += float(w[k]) * (pop_agg[:, k] - emp_agg[:, k])
        lhs_samples[trials.start : trials.stop] = lhs_t

        union = X.reshape(len(trials), k_clients * n, dim)
        h = union.transpose(0, 2, 1) @ union / (k_clients * n) + config.l2 * np.eye(dim)
        hessians.append(h)
        if trials.stop == config.trials or sum(h.size for h in hessians) >= models.STACK_ELEMENTS:
            ev = jacobi_eigenvalues(np.concatenate(hessians))
            l_max = max(l_max, float(ev[:, -1].max()))
            hessians = []

    mu = config.l2
    lhs, lhs_se = _mean_stderr(lhs_samples)
    gaps = [_mean_stderr(local_gaps[:, k]) for k in range(k_clients)]
    excs = [_mean_stderr(excesses[:, k]) for k in range(k_clients)]
    rhs, first_term, cross_term = theorem1_rhs(
        w, l_max, mu, [m for m, _ in gaps], [m for m, _ in excs]
    )
    slack = rhs - lhs
    fraction = None if rhs == 0.0 else lhs_se / rhs  # undefined for a zero bound
    numbers = [lhs, lhs_se, rhs, slack, first_term, cross_term, l_max, worst_grad, fraction]
    numbers += [x for pair in gaps + excs for x in pair]
    require_finite([x for x in numbers if x is not None], "bound report")
    return BoundReport(
        passed=bool(slack >= -3.0 * lhs_se),
        lhs=lhs,
        lhs_stderr=lhs_se,
        rhs=rhs,
        slack=slack,
        first_term=first_term,
        cross_term=cross_term,
        mu=mu,
        L=l_max,
        stderr_fraction=fraction,
        max_erm_grad_norm=worst_grad,
        trials=config.trials,
        num_clients=k_clients,
        n_per_client=config.n_per_client,
        l2=config.l2,
        seed=config.seed,
        weights=[float(x) for x in w],
        local_gen=[{"client": k, "mean": m, "stderr": se} for k, (m, se) in enumerate(gaps)],
        non_iid=[{"client": k, "mean": m, "stderr": se} for k, (m, se) in enumerate(excs)],
    )


@dataclass
class IdentityReport:
    """Participation-identity check results for one scheme and subset size."""

    scheme: str
    num_clients: int
    num_sampled: int
    draws: int
    seed: int
    passed: bool
    checks: list[dict]

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def verify_participation_identities(
    num_clients: int,
    num_sampled: int,
    scheme: str,
    draws: int,
    seed: int,
    weights: np.ndarray | None = None,
) -> IdentityReport:
    """Monte Carlo check of the three reweighting identities for one scheme.

    scheme "with_replacement" draws num_sampled client indices from the client
    weights and reweights uniformly; "without_replacement" draws a uniform
    subset and reweights by K(k)*K/num_sampled. The identities average the
    per-client values x_k = k, k = 1..K. Each identity is tested on
    per-draw deltas (draw value minus analytic value): the check passes when
    |mean(delta)| <= 3 * stderr(delta). Per-draw and analytic values share one
    evaluation path, so the degenerate without-replacement num_sampled ==
    num_clients case gives deltas of exactly zero.

    Draws run in chunks of models.STACK_ELEMENTS // max(num_clients,
    num_sampled) rows (at least one), each continuing the one
    (seed, scheme, num_sampled) stream, and write their per-draw values into
    three (draws,) vectors; the means and stderrs are taken over the whole
    vectors. So memory grows with draws alone, and the report has the same
    bits for every chunk size.
    """
    if scheme not in ("with_replacement", "without_replacement"):
        raise ValueError(f"unknown scheme {scheme!r}.")
    if num_clients < 1 or num_sampled < 1:
        raise ValueError("need num_clients >= 1 and num_sampled >= 1.")
    if scheme == "without_replacement" and num_sampled > num_clients:
        raise ValueError("without_replacement cannot sample more clients than exist.")
    if draws < 2:
        raise ValueError("need at least 2 draws.")
    w = client_weights(weights, num_clients)
    x = np.arange(1, num_clients + 1, dtype=np.float64)

    scheme_id = 1 if scheme == "with_replacement" else 2
    gen = streams.substream(seed, streams.IDENTITY, scheme_id, num_sampled)
    per_draw = [np.empty(draws) for _ in range(3)]
    rows = max(1, models.STACK_ELEMENTS // max(num_clients, num_sampled))
    chunks = [slice(start, min(start + rows, draws)) for start in range(0, draws, rows)]

    if scheme == "with_replacement":
        p = 1.0 / num_sampled
        for c in chunks:
            idx = gen.choice(num_clients, size=(c.stop - c.start, num_sampled), replace=True, p=w)
            rowsum = x[np.sort(idx, axis=1)].sum(axis=1)
            per_draw[0][c] = p * rowsum
            per_draw[1][c] = p * (p * rowsum)
            per_draw[2][c] = p * (p * (p * rowsum))
        analytic_base = float((w * x).sum())
        analytic = [analytic_base, p * analytic_base, p * (p * analytic_base)]
    else:
        factor = num_clients / num_sampled
        for c in chunks:
            if num_sampled == num_clients:
                idx = np.broadcast_to(np.arange(num_clients), (c.stop - c.start, num_clients))
            else:
                keys = gen.random((c.stop - c.start, num_clients))
                idx = np.sort(np.argpartition(keys, num_sampled - 1, axis=1)[:, :num_sampled], axis=1)
            for j in (1, 2, 3):
                per_draw[j - 1][c] = factor**j * (w[idx] ** j * x[idx]).sum(axis=1)
        analytic = [factor ** (j - 1) * float((w**j * x).sum()) for j in (1, 2, 3)]

    names = ("mean", "weighted_mean", "square_weighted_mean")
    checks = []
    all_passed = True
    for name, vals, target in zip(names, per_draw, analytic):
        deltas = vals - target
        diff = float(np.mean(deltas))
        se = float(np.std(deltas, ddof=1) / np.sqrt(draws))
        ok = abs(diff) <= 3.0 * se
        all_passed = all_passed and ok
        checks.append(
            {
                "identity": name,
                "mc_mean": float(np.mean(vals)),
                "analytic": target,
                "diff": diff,
                "stderr": se,
                "passed": ok,
            }
        )
    return IdentityReport(
        scheme=scheme,
        num_clients=num_clients,
        num_sampled=num_sampled,
        draws=draws,
        seed=seed,
        passed=all_passed,
        checks=checks,
    )
