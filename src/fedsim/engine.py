"""Federated training loop with block-wise aggregation schedules.

One loop covers all four algorithms. Head blocks synchronize every tau local
steps and representation blocks every alpha*tau; the averaging-period
algorithms pin alpha to 1 so that every block syncs each round, and the
control-variate algorithms add a drift correction to each local step. The loop
is lockstep: the K clients' parameters and controls are rows of (K, P)
matrices, the server row holds each block as broadcast at its role's last
sync, and one stacked loss_and_grad call advances every client by a local
step, bit for bit as K single-client steps would. G runs of one config, such
as a sweep point's seeds, can share the loop as row blocks of (G*K, P)
matrices, with a (G, P) server row. Every random draw comes from a stream
keyed by (seed, purpose, client, round), so results do not depend on
evaluation order, stack or worker count. The sync-time risks may be computed
in a forked helper process while training goes on; the records come out the
same either way.
"""

from __future__ import annotations

import os
import signal
import sys
import warnings
from dataclasses import dataclass
from multiprocessing.connection import Pipe
from typing import Callable, Sequence

import numpy as np

from . import models
from . import rng as streams
from .data import GaussianLinear, Shards, draw_round_batches, draw_round_batches_with_replacement
from .metrics import (
    MetricsRecord,
    consensus_map,
    empirical_risk,
    population_risk_estimate,
    shard_risks,
)
from .models import ModelSpec, build_layout, check_labels, init_params, loss_and_grad
from .params import (
    BlockLayout,
    DivergenceError,
    ParamVector,
    Role,
    client_weights,
    require_finite,
    weight_total,
    weighted_average,
    weighted_sum,
)

ALGORITHMS = ("fedavg", "fedals", "scaffold", "fedals_scaffold")
CONTROL_ALGORITHMS = ("scaffold", "fedals_scaffold")
PERIOD_ALGORITHMS = ("fedavg", "scaffold")  # alpha pinned to 1

DIVERGENCE_LIMIT = 1e12
MAX_SAMPLED = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize  # numpy's largest draw


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

    def period(self, role: Role) -> int:
        """Steps between two syncs of a role's blocks: tau for the head, alpha*tau otherwise."""
        return self.tau if role == Role.HEAD else self.alpha * self.tau


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
    gen: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Participant indices (ascending) and their aggregation weights.

    Full participation draws nothing, so gen may then be None.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (num_clients,):
        raise ValueError("one weight per client required.")
    if spec.mode == "full":
        return np.arange(num_clients), w.copy()
    khat = spec.num_sampled
    if spec.mode == "with_replacement":
        idx = np.sort(gen.choice(num_clients, size=khat, replace=True, p=w))
        return idx, np.full(khat, 1.0 / khat)
    idx = np.sort(gen.choice(num_clients, size=khat, replace=False))
    return idx, w[idx] * (num_clients / khat)


@dataclass
class ClientState:
    """One client's parameters, for the one-row local_sgd_step."""

    client: int
    params: ParamVector


@dataclass
class CommCounter:
    """Parameters moved per client, upload and download counted separately."""

    uploaded: np.ndarray
    downloaded: np.ndarray

    @classmethod
    def zeros(cls, num_clients: int) -> "CommCounter":
        return cls(np.zeros(num_clients, dtype=np.int64), np.zeros(num_clients, dtype=np.int64))

    def record_sync(self, size: int, participants: np.ndarray) -> None:
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

    Sync events land on multiples of each role's period, so the count is
    sum over roles of (T // period) * |role blocks| with T = rounds * tau.
    """
    t = schedule.total_steps
    return sum(t // schedule.period(role) * layout.role_size(role) for role in Role)


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
    # whole-array checks on the common path; the rows are searched only when one fails
    if not (np.isfinite(ev.value).all() and ev.value.max() <= DIVERGENCE_LIMIT and np.isfinite(theta).all()):
        bad_loss = ~np.isfinite(ev.value) | (ev.value > DIVERGENCE_LIMIT)
        i = int(np.argmax(bad_loss | ~np.all(np.isfinite(theta), axis=1)))
        k, value = ids[i], ev.value[i]
        if not np.isfinite(value):
            raise DivergenceError("loss is non-finite.", k)
        if bad_loss[i]:
            raise DivergenceError(f"client {k} loss {value:.3e} exceeds {DIVERGENCE_LIMIT:.0e}.", k)
        raise DivergenceError(f"client {k} parameters went non-finite.", k)
    return float(ev.value[0]) if isinstance(client, ClientState) else ev.value


def scaffold_control_update(
    control: np.ndarray,
    server: np.ndarray,
    params: np.ndarray,
    client: int,
    c_bar: np.ndarray,
    eta: float,
    period: int,
    slices: Sequence[slice],
) -> None:
    """Refresh one client's control variate row in place, on the given blocks.

    c_k <- c_k - c_bar + (server - params) / (eta * period), where the
    server row holds the values broadcast at this role's previous sync and
    params the client's current row. c_bar must be the average of the
    pre-update variates (simultaneous update). client names the client in
    the divergence message.
    """
    scale = 1.0 / (eta * period)
    for sl in slices:
        control[sl] += -c_bar[sl] + (server[sl] - params[sl]) * scale
    require_finite(control, f"client {client} control variate")


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
    _, to_one = weight_total(agg_weights)
    combine = weighted_average if to_one else weighted_sum
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


def _sync_risks(model: ModelSpec, row: ParamVector, run: RunSpec, weights, per_client_risks: bool):
    """(train, test, gap, per-client risks) of a sync's server row on one run's data."""
    if per_client_risks:  # each shard once, combined as empirical_risk combines them
        pcr = shard_risks(model, row, run.shards)
        train = float(weighted_average(pcr, weights))
    else:
        pcr, train = None, empirical_risk(model, row, run.shards, weights)
    test = gap = None
    if run.pop_source is not None:
        test = population_risk_estimate(model, row, run.pop_source, weights)
        gap = test - train
    return train, test, gap, pcr


def _serve(conn, evaluate) -> None:
    """The helper's loop: answer each request until the parent closes its end.

    The reply is the risks, or None when computing them raised an error or
    showed a warning. The parent then computes that sync itself, so it raises
    the error or shows the warning as the inline path does, under its own
    filters and registries; no exception crosses the pipe.
    """
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as shown:
            try:
                risks = evaluate(*request)
            except Exception:
                risks = None
        conn.send(None if shown else risks)


class _RecordQueue:
    """Fills in each sync record's risks and hands records to on_record in order.

    Without a helper, a record's risks are computed when it is made. With
    overlap, entry forks one helper process that computes them while training
    goes on, and the records made meanwhile wait behind that sync's, so
    on_record sees the order it would see inline. The helper shares the
    parent's memory as it was at the fork, so a request is just the run index
    and a copy of its server row. At most one request is in flight: a
    sync first collects the one before it. A sync whose risks the helper did
    not give back is computed inline. When the fork fails (or the platform
    has no os.fork) or the helper dies, the pipe is closed and every later
    sync is computed inline too.

    The helper ignores SIGINT (a Ctrl-C reaches the parent, which stops it)
    and exits at EOF on its pipe, so it ends with its parent however the
    parent ends; exit closes the pipe and reaps it. fedsim starts no thread
    of its own, and OpenBLAS resets its thread pool around a fork, so the
    helper inherits no lock held by another thread.
    """

    def __init__(self, evaluate, overlap: bool):
        self.evaluate = evaluate
        self.overlap = overlap
        self.conn = self.pid = None  # the pipe to the helper while it serves; its pid until reaped
        self.request = None
        self.waiting: list = []  # (on_record, record); the first awaits self.request

    def __enter__(self) -> "_RecordQueue":
        if not self.overlap:
            return self
        # as multiprocessing's fork start does: nothing buffered is written twice
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (AttributeError, ValueError):
                pass
        self.conn, child = Pipe()
        try:
            self.pid = os.fork()
        except (AttributeError, OSError):  # no os.fork here, or no process to spare
            self._drop()
        if self.pid == 0:
            # the helper leaves only through os._exit: it never returns into
            # the caller's stack, runs no atexit handler and flushes no stdio
            code = 1
            try:
                self.conn.close()
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _serve(child, self.evaluate)
                code = 0
            finally:
                os._exit(code)
        child.close()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            # on a failure too: a risk still in flight failed first if it
            # failed at all, so its error wins; otherwise the records made
            # before the failure are emitted, as inline
            if exc_type is None or issubclass(exc_type, Exception):
                self.collect()
        finally:
            if self.conn is not None:
                self._drop()
            if self.pid is not None:
                try:
                    os.waitpid(self.pid, 0)
                except ChildProcessError:
                    pass

    def _drop(self) -> None:
        """Close the pipe, which ends the helper if it still runs; compute inline from now on."""
        self.conn.close()
        self.conn = None

    def add(self, on_record, rec: MetricsRecord, request=None) -> None:
        """Queue rec; request, when given, is the (run, parameters) of its risks."""
        if request is not None:
            self.collect()
            if self.conn is not None:
                try:
                    self.conn.send(request)
                    self.request = request
                except OSError:
                    self._drop()
            if self.request is None:
                _fill_risks(rec, self.evaluate(*request))
        if self.request is not None:
            self.waiting.append((on_record, rec))
        elif on_record is not None:
            on_record(rec.round, rec.step, rec)

    def collect(self) -> None:
        """Wait for the request in flight, then emit the records behind it."""
        if self.request is None:
            return
        request, waiting = self.request, self.waiting
        self.request, self.waiting = None, []
        try:
            risks = self.conn.recv()
        except (EOFError, OSError):
            self._drop()
            risks = None
        _fill_risks(waiting[0][1], self.evaluate(*request) if risks is None else risks)
        for on_record, rec in waiting:
            if on_record is not None:
                on_record(rec.round, rec.step, rec)


def _fill_risks(rec: MetricsRecord, risks) -> None:
    rec.train_risk, rec.test_risk, rec.gen_gap, rec.per_client_risks = risks


def _round_streams(seeds: Sequence[int], num_clients: int, rounds: int, sampled: bool):
    """Per round, each run's (K, 4) batch-stream states and its participation generator.

    The states of a run's (BATCH, k, r) streams, and with sampled
    participation of its (PARTICIPATION, r) streams, are derived for a chunk
    of rounds in one rng.seed_states call, which pays only for many streams
    at once; a chunk holds one round or more, up to models.STACK_ELEMENTS
    state words. Without sampling, sample_participants draws nothing, so no
    participation stream is built and the generators are None.
    """

    def states(*keys):
        # uint32 keys give a uint32 path array, 4 bytes a word
        paths = streams.stream_paths(*(np.asarray(key, dtype=np.uint32) for key in keys))
        return [streams.seed_states(seed, paths) for seed in seeds]

    per_chunk = max(1, models.STACK_ELEMENTS // (4 * num_clients))
    clients = np.arange(num_clients)
    for first in range(1, rounds + 1, per_chunk):
        chunk = np.arange(first, min(first + per_chunk, rounds + 1))
        batch = states(streams.BATCH, clients, chunk[:, None])
        sync = states(streams.PARTICIPATION, chunk) if sampled else None
        for i in range(len(chunk)):
            gens = [None] * len(seeds) if sync is None else [streams.from_state(s[i]) for s in sync]
            yield [b[i] for b in batch], gens


@dataclass(frozen=True)
class RunSpec:
    """What one run of a stack owns: its Shards, seed, population source and record callback."""

    shards: Shards
    seed: int = 0
    pop_source: object = None
    on_record: Callable[[int, int, MetricsRecord], None] | None = None


def check_setup(
    algorithm: str, model: ModelSpec, schedule: ScheduleSpec, num_clients: int, *,
    representation_layers: int = 0, participation: ParticipationSpec = FULL_PARTICIPATION,
    pin_control: bool = False,
) -> BlockLayout:
    """Check the set-up rules that need no data; return the run's block layout.

    run_experiments runs this before it touches a shard, and
    config.parse_config on every config, so no valid config breaks them.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose one of {list(ALGORITHMS)}.")
    if algorithm in PERIOD_ALGORITHMS and schedule.alpha != 1:
        raise ValueError(f"schedule.alpha must be 1 for {algorithm}.")
    layout = build_layout(model, representation_layers)
    empty = [role.value for role in Role if layout.role_size(role) == 0]
    if algorithm not in PERIOD_ALGORITHMS and empty:  # FedALS: one period per role
        raise ValueError(
            f"{algorithm} needs a model with representation and head blocks; "
            f"representation_layers = {representation_layers} leaves no {empty[0]} block."
        )
    khat = participation.num_sampled
    if khat is not None and khat > MAX_SAMPLED:
        raise ValueError(f"participation.num_sampled must be <= {MAX_SAMPLED}.")
    if participation.mode == "without_replacement" and khat > num_clients:
        raise ValueError("participation.num_sampled cannot exceed clients without replacement.")
    if algorithm in CONTROL_ALGORITHMS and not pin_control:
        # scaffold_control_update's scale is largest at the shortest period that syncs blocks
        period = min(schedule.period(role) for role in Role if layout.role_size(role) > 0)
        if not np.isfinite(1.0 / (schedule.eta * period)):
            raise ValueError(
                f"eta = {schedule.eta!r} is too small for the control update: "
                f"1/(eta * {period}) overflows."
            )
    return layout


def run_experiment(
    algorithm: str,
    model: ModelSpec,
    shards: Shards,
    schedule: ScheduleSpec,
    *,
    seed: int = 0,
    pop_source=None,
    on_record: Callable[[int, int, MetricsRecord], None] | None = None,
    **options,
) -> RunResult:
    """Run one federated experiment and return its models, records and traffic.

    The returned final model is the server row, which the sync records
    evaluate too: each block as broadcast at its role's last sync, or as
    initialized if its role never synced. pop_source feeds the test risk
    through population_risk_estimate: a GaussianLinear spec with a ridge model
    (exact closed form) or a Shards of held-out samples. This is the one-run
    stack of run_experiments, which takes the options.
    """
    run = RunSpec(shards, seed, pop_source, on_record)
    return run_experiments(algorithm, model, schedule, [run], **options)[0]


def run_experiments(
    algorithm: str,
    model: ModelSpec,
    schedule: ScheduleSpec,
    runs: Sequence[RunSpec],
    *,
    representation_layers: int = 0,
    weights: Sequence[float] | None = None,
    participation: ParticipationSpec = FULL_PARTICIPATION,
    pin_control: bool = False,
    batches_with_replacement: bool = False,
    consensus_every: int = 1,
    risk_every_sync: bool = True,
    per_client_risks: bool = False,
    overlap_risks: bool = False,
) -> list[RunResult]:
    """Run G experiments of one config in lockstep; one RunResult per run, in order.

    The runs share everything but their RunSpec, and need the same number
    of clients. Their client states are the row blocks of one (G*K, P)
    matrix, so one stacked step advances every client of every run; batch
    draws, participation, syncs, control updates, risks and records stay per
    run, each on its own block and from its own seed's streams. So each run
    equals its own run_experiment bit for bit. A failure in any run stops the
    stack; with G > 1 a divergence names the run by its index, and the text
    after the client names the row of the whole stack.

    overlap_risks forks one helper process that computes the sync risks
    while training goes on; without os.fork, or when the fork fails, they are
    computed inline. The records, the order of the on_record calls, and on a
    failure the error raised and the records emitted before it are those of
    the inline path.
    """
    if not runs:
        raise ValueError("need at least one run.")
    sources = (Shards, GaussianLinear, type(None))
    if not all(isinstance(r.shards, Shards) and isinstance(r.pop_source, sources) for r in runs):
        raise ValueError(
            "a run's shards must be a data.Shards, and its pop_source a data.Shards, "
            "a GaussianLinear or None."
        )
    num_clients = len(runs[0].shards)
    if num_clients < 1:
        raise ValueError("need at least one client shard.")
    if any(len(run.shards) != num_clients for run in runs):
        raise ValueError("every run of a stack needs the same number of clients.")
    layout = check_setup(
        algorithm, model, schedule, num_clients, representation_layers=representation_layers,
        participation=participation, pin_control=pin_control,
    )
    w = client_weights(weights, num_clients)
    live_control = algorithm in CONTROL_ALGORITHMS and not pin_control
    for run in runs:
        check_labels(model, run.shards.y)

    # rows g*K to (g+1)*K of each (G*K, P) matrix are run g's clients, and
    # blocks[g] selects them; the matrices are only updated in place
    num_runs, p = len(runs), layout.total_params
    blocks = [slice(g * num_clients, (g + 1) * num_clients) for g in range(num_runs)]
    inits = [init_params(model, layout, streams.substream(run.seed, streams.INIT)) for run in runs]
    theta = np.repeat(np.stack([v.values for v in inits]), num_clients, axis=0)
    # one server row per run: a sync broadcasts one value to every client of the run
    server = np.stack([v.values for v in inits])
    if live_control:
        control = np.zeros_like(theta)
        c_bar = np.zeros((num_runs, p))

    comms = [CommCounter.zeros(num_clients) for _ in runs]
    records: list[list[MetricsRecord]] = [[] for _ in runs]

    def risks_of(g, values):
        return _sync_risks(model, ParamVector(values, layout), runs[g], w, per_client_risks)

    draw = draw_round_batches_with_replacement if batches_with_replacement else draw_round_batches
    tau, eta, batch_size = schedule.tau, schedule.eta, schedule.batch_size
    # each shard's first row in its run's pool, for the batch indices
    starts = [np.cumsum((0,) + run.shards.sizes[:-1])[:, None, None] for run in runs]
    round_streams = _round_streams(
        [run.seed for run in runs], num_clients, schedule.rounds, participation.mode != "full"
    )
    step = 0

    with _RecordQueue(risks_of, overlap_risks and risk_every_sync) as queue:
        for r, (batch_states, sync_gens) in enumerate(round_streams, start=1):
            # (G*K, tau, b, d) and (G*K, tau, b): step t reads every client's batch at once,
            # gathered from each run's pool with one index
            X_parts, y_parts = [], []
            for train, first, states in zip((run.shards for run in runs), starts, batch_states):
                idx = np.stack(
                    [
                        draw(train[k], tau, batch_size, streams.from_state(states[k]))
                        for k in range(num_clients)
                    ]
                )
                idx += first
                X_parts.append(train.X[idx])
                y_parts.append(train.y[idx])
            round_X = X_parts[0] if num_runs == 1 else np.concatenate(X_parts)
            round_y = y_parts[0] if num_runs == 1 else np.concatenate(y_parts)

            for t in range(tau):
                step += 1
                correction = None
                if live_control:
                    per_run = c_bar[:, None, :] - control.reshape(num_runs, num_clients, p)
                    correction = per_run.reshape(theta.shape)
                try:
                    local_sgd_step(model, theta, round_X[:, t], round_y[:, t], eta, correction)
                except DivergenceError as exc:
                    g, k = divmod(exc.client, num_clients)
                    where = f"run {g} " if num_runs > 1 else ""
                    msg = f"{where}round {r} step {step} client {k}: {exc}"
                    raise DivergenceError(msg, k) from exc

                roles_due = [
                    role
                    for role in (Role.HEAD, Role.REPRESENTATION)
                    if step % schedule.period(role) == 0 and layout.role_size(role) > 0
                ]
                emit = bool(roles_due) or (consensus_every > 0 and step % consensus_every == 0)
                for g, (run, rows) in enumerate(zip(runs, blocks)):
                    th = theta[rows]
                    cons = consensus_map(th, layout) if emit else None

                    if roles_due:
                        participants, agg_w = sample_participants(
                            participation, num_clients, w, sync_gens[g]
                        )
                        for role in roles_due:
                            slices = layout.role_slices(role)
                            if live_control:
                                period = schedule.period(role)
                                old_bar = c_bar[g].copy()
                                for k, row in enumerate(control[rows]):
                                    scaffold_control_update(
                                        row, server[g], th[k], k, old_bar, eta, period, slices
                                    )
                                for sl in slices:
                                    # a contiguous copy reduces exactly as a stack of the rows
                                    block = np.ascontiguousarray(control[rows, sl])
                                    c_bar[g, sl] = np.mean(block, axis=0)
                            size = aggregate(th, layout, role, participants, agg_w)
                            for sl in slices:
                                server[g, sl] = th[0, sl]
                            comms[g].record_sync(size, participants)

                    if emit:
                        rec = MetricsRecord(
                            round=r,
                            step=step,
                            train_risk=None,
                            test_risk=None,
                            gen_gap=None,
                            consensus=cons,
                            comm_uploaded=comms[g].total_uploaded,
                        )
                        records[g].append(rec)
                        request = None
                        if roles_due and risk_every_sync:
                            # a copy: a lost reply is computed after the next sync
                            request = (g, server[g].copy())
                        queue.add(run.on_record, rec, request)

    return [
        RunResult(
            final_params=ParamVector(server[g].copy(), layout),
            client_params=[ParamVector(row, layout) for row in theta[rows]],
            records=records[g],
            comm=comms[g],
            layout=layout,
            steps=step,
        )
        for g, rows in enumerate(blocks)
    ]
