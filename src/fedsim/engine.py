"""Federated training loop with block-wise aggregation schedules.

One loop covers all four algorithms. Head blocks synchronize every tau local
steps and representation blocks every alpha*tau; the averaging-period
algorithms pin alpha to 1 so that every block syncs each round, and the
control-variate algorithms add a drift correction to each local step. The
loop is lockstep: the K clients' parameters, controls and snapshots are rows
of (K, P) matrices, and one stacked loss_and_grad call advances every client
by a local step, bit for bit as K single-client steps would. Every random draw
comes from a stream keyed by (seed, purpose, client, round), so results do not
depend on evaluation order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng as streams
from .data import DatasetShard, draw_round_batches, draw_round_batches_with_replacement
from .metrics import (
    MetricsRecord,
    consensus_map,
    empirical_risk,
    population_risk_estimate,
    shard_risks,
)
from .models import ModelSpec, build_layout, init_params, loss_and_grad
from .params import BlockLayout, ParamVector, Role, weighted_average, weighted_sum

ALGORITHMS = ("fedavg", "fedals", "scaffold", "fedals_scaffold")
CONTROL_ALGORITHMS = ("scaffold", "fedals_scaffold")
PERIOD_ALGORITHMS = ("fedavg", "scaffold")  # alpha pinned to 1

DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """Training blew up: a client loss exceeded the guard or went non-finite.

    client is the index of the client that failed, when one did.
    """

    def __init__(self, message: str, client: int | None = None):
        super().__init__(message)
        self.client = client


@dataclass(frozen=True)
class ScheduleSpec:
    """Local-update schedule: R rounds of tau steps, step size eta.

    Head blocks sync every tau completed steps, representation blocks every
    alpha*tau. alpha = 1 collapses both to the classic single period.
    """

    tau: int
    eta: float
    rounds: int
    batch_size: int
    alpha: int = 1

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be >= 1.")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1.")
        if not (self.eta > 0.0 and np.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite.")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1.")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1.")

    @property
    def total_steps(self) -> int:
        return self.rounds * self.tau


def sync_due(step: int, role: Role, schedule: ScheduleSpec) -> bool:
    """Whether blocks of the given role sync after completed step `step` (>= 1).

    Both role conditions are evaluated independently, so at a representation
    boundary the head syncs too.
    """
    if step < 1:
        raise ValueError("step counts completed local steps, starting at 1.")
    period = schedule.tau if role == Role.HEAD else schedule.alpha * schedule.tau
    return step % period == 0


@dataclass(frozen=True)
class ParticipationSpec:
    """Who reports at each sync.

    full: everyone. with_replacement: num_sampled draws from the client
    weights, aggregated uniformly at 1/num_sampled. without_replacement:
    a uniform subset of num_sampled clients, aggregated with weights
    K(k) * K / num_sampled (unbiased in expectation; used as drawn).
    """

    mode: str = "full"
    num_sampled: int | None = None

    def __post_init__(self):
        if self.mode not in ("full", "with_replacement", "without_replacement"):
            raise ValueError(f"unknown participation mode {self.mode!r}.")
        if self.mode == "full":
            if self.num_sampled is not None:
                raise ValueError("full participation takes no num_sampled.")
        elif self.num_sampled is None or self.num_sampled < 1:
            raise ValueError("sampled participation needs num_sampled >= 1.")


FULL_PARTICIPATION = ParticipationSpec()


def sample_participants(
    spec: ParticipationSpec,
    num_clients: int,
    weights: Sequence[float],
    gen: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Participant indices (ascending) and their aggregation weights."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (num_clients,):
        raise ValueError("one weight per client required.")
    if spec.mode == "full":
        return np.arange(num_clients), w.copy()
    khat = spec.num_sampled
    if spec.mode == "with_replacement":
        idx = np.sort(gen.choice(num_clients, size=khat, replace=True, p=w))
        return idx, np.full(khat, 1.0 / khat)
    if khat > num_clients:
        raise ValueError("without_replacement cannot sample more clients than exist.")
    idx = np.sort(gen.choice(num_clients, size=khat, replace=False))
    return idx, w[idx] * (num_clients / khat)


@dataclass
class ClientState:
    """One client's mutable training state.

    control is present exactly for the control-variate algorithms; snapshot
    holds, per block, the parameter values broadcast at that block's most
    recent sync (the reference point of the next control update).
    """

    client: int
    params: ParamVector
    control: ParamVector | None = None
    snapshot: ParamVector | None = None


@dataclass
class CommCounter:
    """Parameters moved per client, upload and download counted separately."""

    uploaded: np.ndarray
    downloaded: np.ndarray

    @classmethod
    def zeros(cls, num_clients: int) -> "CommCounter":
        return cls(np.zeros(num_clients, dtype=np.int64), np.zeros(num_clients, dtype=np.int64))

    def record_sync(self, size: int, participants: np.ndarray) -> None:
        if size == 0:
            return
        # a client sampled twice still uploads once
        sent = np.zeros(self.uploaded.shape, dtype=bool)
        sent[participants] = True
        self.uploaded[sent] += size
        self.downloaded += size

    @property
    def total_uploaded(self) -> int:
        return int(self.uploaded.sum())


def comm_closed_form(schedule: ScheduleSpec, layout: BlockLayout) -> int:
    """Parameters one client moves in one direction over a full run.

    Sync events land on step multiples, so the count is
    (T // tau) * |head| + (T // (alpha*tau)) * |representation| with
    T = rounds * tau.
    """
    t = schedule.total_steps
    head = layout.role_size(Role.HEAD)
    rep = layout.role_size(Role.REPRESENTATION)
    return (t // schedule.tau) * head + (t // (schedule.alpha * schedule.tau)) * rep


def local_sgd_step(
    model: ModelSpec,
    client: ClientState | np.ndarray,
    X,
    y,
    eta: float,
    correction: np.ndarray | None = None,
):
    """One SGD step on a batch: params -= eta * (grad + correction).

    The correction (control-variate delta c_bar - c_k) is added to the
    gradient before scaling, so a client whose variate equals the average
    takes exactly the uncorrected step. For one ClientState, X is (b, d), the
    correction (P,) and the float batch loss is returned. For a (K, P) matrix
    of client rows every client steps in lockstep from one stacked
    loss_and_grad call: X is (K, b, d), y (K, b), the correction (K, P), and
    the (K,) losses are returned. Either way the parameters are updated in
    place.
    """
    if isinstance(client, ClientState):
        theta = client.params.values[None]
        ids = (client.client,)
        X = np.asarray(X, dtype=np.float64)[None]
        y = np.asarray(y)[None]
        if correction is not None:
            correction = np.asarray(correction)[None]
    else:
        theta = client
        ids = range(theta.shape[0])
    ev = loss_and_grad(model, theta, X, y)
    # in place on the fresh gradient: no further (K, P) temporary, same bits
    upd = ev.grad
    if correction is not None:
        upd += correction
    upd *= eta
    theta -= upd
    bad_loss = ~np.isfinite(ev.value) | (ev.value > DIVERGENCE_LIMIT)
    bad_params = ~np.all(np.isfinite(theta), axis=1)
    if np.any(bad_loss) or np.any(bad_params):
        i = int(np.argmax(bad_loss | bad_params))
        k, value = ids[i], ev.value[i]
        if not np.isfinite(value):
            raise DivergenceError("loss is non-finite.", k)
        if bad_loss[i]:
            raise DivergenceError(f"client {k} loss {value:.3e} exceeds {DIVERGENCE_LIMIT:.0e}.", k)
        raise DivergenceError(f"client {k} parameters went non-finite.", k)
    return float(ev.value[0]) if isinstance(client, ClientState) else ev.value


def scaffold_control_update(
    client: ClientState,
    c_bar: np.ndarray,
    eta: float,
    period: int,
    slices: Sequence[slice],
) -> None:
    """Refresh a client's control variate on the given blocks.

    c_k <- c_k - c_bar + (theta_snapshot - theta_now) / (eta * period), where
    the snapshot is the value broadcast at this role's previous sync. c_bar
    must be the average of the pre-update variates (simultaneous update).
    """
    scale = 1.0 / (eta * period)
    for sl in slices:
        client.control.values[sl] += (
            -c_bar[sl] + (client.snapshot.values[sl] - client.params.values[sl]) * scale
        )
    if not np.all(np.isfinite(client.control.values)):
        raise DivergenceError(f"client {client.client} control variate went non-finite.")


def aggregate(
    theta: np.ndarray,
    layout: BlockLayout,
    role: Role,
    participants: np.ndarray,
    agg_weights: np.ndarray,
) -> int:
    """Combine the participant rows of theta on one role's blocks; write the result to every row.

    Weights summing to 1 (within tolerance) take the exact-fixed-point path;
    otherwise a plain weighted sum is used (partial-participation estimators
    weight by K(k)*K/K_hat, which only sums to 1 in expectation). A client
    sampled twice counts twice. Returns the number of parameters synced per
    client.
    """
    total = 0.0
    for x in agg_weights:
        total += float(x)
    combine = weighted_average if abs(total - 1.0) <= 1e-12 else weighted_sum
    slices = layout.role_slices(role)
    for sl in slices:
        theta[:, sl] = combine(theta[participants, sl], agg_weights)
    return sum(sl.stop - sl.start for sl in slices)


@dataclass
class RunResult:
    """The final and per-client models, the metric records and the traffic of a run."""

    final_params: ParamVector
    client_params: list[ParamVector]
    records: list[MetricsRecord]
    comm: CommCounter
    layout: BlockLayout
    steps: int


def _uniform_average(theta: np.ndarray, layout: BlockLayout) -> ParamVector:
    k = theta.shape[0]
    return ParamVector(weighted_average(theta, [1.0 / k] * k), layout)


def run_experiment(
    algorithm: str,
    model: ModelSpec,
    shards: Sequence[DatasetShard],
    schedule: ScheduleSpec,
    *,
    seed: int = 0,
    representation_layers: int = 0,
    weights: Sequence[float] | None = None,
    participation: ParticipationSpec = FULL_PARTICIPATION,
    pin_control: bool = False,
    batches_with_replacement: bool = False,
    pop_source=None,
    consensus_every: int = 1,
    risk_every_sync: bool = True,
    per_client_risks: bool = False,
    on_record: Callable[[int, int, MetricsRecord], None] | None = None,
) -> RunResult:
    """Run one federated experiment and return its models, records and traffic.

    The returned final model is the uniform average of the client states; when
    the last step synced every role (rounds*tau divisible by alpha*tau) this
    equals the last broadcast bit for bit. pop_source feeds the test risk
    through population_risk_estimate: a GaussianLinear spec with a ridge model
    (exact closed form) or a list of held-out shards.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}.")
    if algorithm in PERIOD_ALGORITHMS and schedule.alpha != 1:
        raise ValueError(f"{algorithm} has a single period; set alpha = 1.")
    num_clients = len(shards)
    if num_clients < 1:
        raise ValueError("need at least one client shard.")

    layout = build_layout(model, representation_layers)
    if algorithm in ("fedals", "fedals_scaffold"):
        if layout.role_size(Role.REPRESENTATION) == 0 or layout.role_size(Role.HEAD) == 0:
            raise ValueError(f"{algorithm} needs both representation and head blocks.")

    if weights is None:
        weights = [1.0 / num_clients] * num_clients
    w = np.asarray([float(x) for x in weights], dtype=np.float64)
    if w.shape != (num_clients,):
        raise ValueError("one evaluation weight per client required.")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative.")
    if abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1.")
    if participation.mode == "without_replacement" and participation.num_sampled > num_clients:
        raise ValueError("without_replacement cannot sample more clients than exist.")

    if not batches_with_replacement:
        smallest = min(s.n for s in shards)
        if schedule.tau * schedule.batch_size > smallest:
            raise ValueError(
                f"tau*batch_size = {schedule.tau * schedule.batch_size} exceeds the smallest "
                f"shard ({smallest}): config violates the without-replacement sampling model."
            )

    # row k of each (K, P) matrix is client k; the matrices are only updated in place
    theta0 = init_params(model, layout, streams.substream(seed, streams.INIT))
    theta = np.tile(theta0.values, (num_clients, 1))
    live_control = algorithm in CONTROL_ALGORITHMS and not pin_control
    if live_control:
        control = np.zeros_like(theta)
        snapshot = theta.copy()
        c_bar = np.zeros(layout.total_params)
        # one-row views for scaffold_control_update; they write through to the matrices
        clients = [
            ClientState(k, *(ParamVector(m[k], layout) for m in (theta, control, snapshot)))
            for k in range(num_clients)
        ]

    comm = CommCounter.zeros(num_clients)
    records: list[MetricsRecord] = []
    draw = draw_round_batches_with_replacement if batches_with_replacement else draw_round_batches
    step = 0

    for r in range(1, schedule.rounds + 1):
        batches = [
            draw(shards[k], schedule.tau, schedule.batch_size, streams.substream(seed, streams.BATCH, k, r))
            for k in range(num_clients)
        ]
        # (K, tau, b, d) and (K, tau, b): step t reads every client's batch at once
        round_X = np.stack([shards[k].X[batches[k]] for k in range(num_clients)])
        round_y = np.stack([shards[k].y[batches[k]] for k in range(num_clients)])
        sync_gen = streams.substream(seed, streams.PARTICIPATION, r)

        for t in range(schedule.tau):
            step += 1
            correction = c_bar - control if live_control else None
            try:
                local_sgd_step(model, theta, round_X[:, t], round_y[:, t], schedule.eta, correction)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"round {r} step {step} client {exc.client}: {exc}", exc.client
                ) from exc

            roles_due = [
                role
                for role in (Role.HEAD, Role.REPRESENTATION)
                if sync_due(step, role, schedule) and layout.role_size(role) > 0
            ]
            emit = bool(roles_due) or (consensus_every > 0 and step % consensus_every == 0)
            cons = consensus_map(theta, layout) if emit else None

            if roles_due:
                participants, agg_w = sample_participants(participation, num_clients, w, sync_gen)
                for role in roles_due:
                    slices = layout.role_slices(role)
                    if live_control:
                        period = schedule.tau if role == Role.HEAD else schedule.alpha * schedule.tau
                        old_bar = c_bar.copy()
                        for c in clients:
                            scaffold_control_update(c, old_bar, schedule.eta, period, slices)
                        for sl in slices:
                            # a contiguous copy reduces exactly as a stack of the rows
                            c_bar[sl] = np.mean(np.ascontiguousarray(control[:, sl]), axis=0)
                    size = aggregate(theta, layout, role, participants, agg_w)
                    if live_control:
                        for sl in slices:
                            snapshot[:, sl] = theta[:, sl]
                    comm.record_sync(size, participants)

            if emit:
                train = test = gap = None
                pcr = None
                if roles_due and risk_every_sync:
                    avg = _uniform_average(theta, layout)
                    train = empirical_risk(model, avg, shards, w)
                    if pop_source is not None:
                        test = population_risk_estimate(model, avg, pop_source, w)
                        gap = test - train
                    if per_client_risks:
                        pcr = shard_risks(model, avg, shards)
                rec = MetricsRecord(
                    round=r,
                    step=step,
                    train_risk=train,
                    test_risk=test,
                    gen_gap=gap,
                    consensus=cons,
                    comm_uploaded=comm.total_uploaded,
                    per_client_risks=pcr,
                )
                records.append(rec)
                if on_record is not None:
                    on_record(r, step, rec)

    return RunResult(
        final_params=_uniform_average(theta, layout),
        client_params=[ParamVector(row, layout) for row in theta],
        records=records,
        comm=comm,
        layout=layout,
        steps=step,
    )
