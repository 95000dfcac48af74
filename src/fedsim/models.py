"""Model families: ridge regression, l2 logistic regression, small MLPs.

Each family provides batch loss/gradient evaluation on a flat parameter
vector, or on a (K, P) matrix of K such vectors in one stacked call. Ridge
additionally has closed forms (exact curvature constants, exact empirical
minimizer, exact population risk under Gaussian linear data) that the
verification lab builds on. The l2 term is part of the per-sample loss,
so it appears exactly once in a batch-averaged loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import BlockLayout, ParamVector, Role, layout_from_sizes, require_finite

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class _LinearSpec:
    """A linear model on input_dim features with an l2 penalty: one parameter per feature."""

    input_dim: int
    l2: float = 0.0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1.")
        if self.l2 < 0.0:
            raise ValueError("l2 must be >= 0.")


@dataclass(frozen=True)
class RidgeSpec(_LinearSpec):
    """Squared loss 0.5*(x.theta - y)^2 plus (l2/2)*||theta||^2 per sample."""


@dataclass(frozen=True)
class LogisticL2Spec(_LinearSpec):
    """Logistic loss on labels in {-1, +1} plus (l2/2)*||theta||^2 per sample."""


@dataclass(frozen=True)
class MlpSpec:
    """Fully connected net with softmax cross-entropy on integer class labels.

    hidden lists the hidden-layer widths; every layer is one parameter block
    (weights then bias). The l2 penalty covers all parameters.
    """

    input_dim: int
    hidden: tuple[int, ...]
    num_classes: int
    activation: str = "relu"
    l2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1.")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1.")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2.")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}.")
        if self.l2 < 0.0:
            raise ValueError("l2 must be >= 0.")

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.num_classes)

    @property
    def num_layers(self) -> int:
        return len(self.hidden) + 1


ModelSpec = RidgeSpec | LogisticL2Spec | MlpSpec


@dataclass(frozen=True)
class LossEval:
    """A batch-mean loss and its gradient: a float and a ParamVector, or for a
    stacked call the (K,) values and the (K, P) gradient matrix."""

    value: float | np.ndarray
    grad: ParamVector | np.ndarray


def build_layout(model: ModelSpec, representation_layers: int = 0) -> BlockLayout:
    """Layout for a model's flat parameter vector.

    The first representation_layers layer blocks get the representation role,
    the rest are head blocks. Linear families have a single block, so the
    split degenerates to choosing that block's role (0 -> head).
    """
    if isinstance(model, _LinearSpec):
        if representation_layers not in (0, 1):
            raise ValueError("linear models have one layer; split must be 0 or 1.")
        role = Role.REPRESENTATION if representation_layers == 1 else Role.HEAD
        return layout_from_sizes([("coef", model.input_dim, role)])
    if not 0 <= representation_layers <= model.num_layers:
        raise ValueError(
            f"representation_layers must be in [0, {model.num_layers}]."
        )
    sizes = []
    widths = model.widths
    for i in range(model.num_layers):
        n = widths[i] * widths[i + 1] + widths[i + 1]
        role = Role.REPRESENTATION if i < representation_layers else Role.HEAD
        sizes.append((f"layer{i}", n, role))
    return layout_from_sizes(sizes)


def init_params(model: ModelSpec, layout: BlockLayout, rng: np.random.Generator) -> ParamVector:
    """Deterministic-under-seed initial parameters.

    Linear families start at zero. MLP weights are Glorot-scaled normals drawn
    layer by layer from rng; biases start at zero.
    """
    theta = np.zeros((1, layout.total_params))
    if isinstance(model, MlpSpec):
        for layer in _mlp_layers(model, theta):  # biases, the last rows, stay zero
            fan_in, fan_out = layer.shape[1] - 1, layer.shape[2]
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            layer[0, :-1] = rng.standard_normal((fan_in, fan_out)) * scale
    return ParamVector(theta[0], layout)


def _check_batch(model: ModelSpec, params, X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameter matrix and batches in stacked form: (K, P), (K, b, d), (K, b).

    A ParamVector with one batch (b, d), (b,) becomes the K = 1 stack.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if isinstance(params, ParamVector):
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("batch must be a non-empty 2-d array of samples.")
        theta, X, y = params.values[None], X[None], y[None]
    else:
        theta = params
        if theta.ndim != 2 or X.ndim != 3 or X.shape[:1] != theta.shape[:1] or X.shape[1] == 0:
            raise ValueError("stacked batches must be (K, b, d) with b >= 1, one per parameter row.")
    if X.shape[2] != model.input_dim:
        raise ValueError(f"features have dim {X.shape[2]}, model expects {model.input_dim}.")
    if y.shape != X.shape[:2]:
        raise ValueError("labels must be a vector matching the batch size.")
    return theta, X, y


def _duplicate_single(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if X.shape[1] == 1:
        # single-row matmuls can hit a different BLAS kernel than multi-row
        # ones; evaluating the exact 2-fold duplicate keeps batch means
        # bitwise invariant under sample duplication for every batch size
        X = np.concatenate([X, X], axis=1)
        y = np.concatenate([y, y], axis=1)
    return X, y


# Sums of at least this many rows run the cached plan of the halving tree; under
# 8 rows, as in minibatch gradient sums, the plan's gather costs more than it saves.
PLAN_MIN_ROWS = 32


@lru_cache(maxsize=None)
def _halving_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Summand rows and pad slots of the n-row halving tree at depth D, 2^D < n <= 2^(D+1).

    The recursion's split of [lo, hi) at (lo + hi) // 2 gives every node at depth d
    floor(n / 2^d) rows or one more, so the tree is perfect above depth D, and its
    2^D nodes there are pairs or single rows. rows lists them left to right, a single
    row twice; pads marks each second copy, which the sum sets to -0.0 (x + -0.0 is x).
    """
    nodes = [(0, n)]
    for _ in range((n - 1).bit_length() - 1):
        nodes = [half for lo, hi in nodes for half in ((lo, (lo + hi) // 2), ((lo + hi) // 2, hi))]
    rows = np.array([(lo, hi - 1) for lo, hi in nodes], dtype=np.intp).ravel()
    pads = 2 * np.flatnonzero(rows[0::2] == rows[1::2]) + 1
    rows.flags.writeable = pads.flags.writeable = False  # shared through the cache
    return rows, pads


@lru_cache(maxsize=64)
def _segments_plan(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Summand rows (2^(D+1), S), pad mask and batch sizes of the halving trees
    of S consecutive segments of the given sizes, for one sum over all of them.

    Segment s's plan fills the top of column s; the rest is padding, so the
    deepest tree's levels run every column and a shallower tree's total only
    gains -0.0 terms after it is complete (x + -0.0 is x). A one-sample
    segment is summed as its 2-row duplicate, as the batch mean takes it.
    """
    plans = []
    lo = 0
    for n in sizes:
        if n == 1:
            plans.append((np.array([lo, lo]), np.empty(0, dtype=np.intp)))
        else:
            rows, pads = _halving_plan(n)
            plans.append((rows + lo, pads))
        lo += n
    width = max(len(rows) for rows, _ in plans)
    rows = np.zeros((width, len(sizes)), dtype=np.intp)
    pads = np.ones((width, len(sizes)), dtype=bool)
    for s, (r, p) in enumerate(plans):
        rows[: len(r), s] = r
        pads[: len(r), s] = False
        pads[p, s] = True
    counts = np.array([2 if n == 1 else n for n in sizes], dtype=np.float64)
    for a in (rows, pads, counts):
        a.flags.writeable = False  # shared through the cache
    return rows, pads, counts


def _halving_sum(a: np.ndarray, out=None):
    """Sum over axis 0 by recursive halving: S(A) = S(A[:n//2]) + S(A[n//2:]).

    Duplicating a batch as [A; A] splits exactly at the copy boundary, so the
    sum doubles exactly and batch means are bitwise invariant under sample
    duplication (a library reduction does not guarantee that). A stacked
    (K, b, ...) array is summed over its sample axis as a.swapaxes(0, 1):
    every addition is element by element, so each client row gets the bits of
    its own single-client sum. Up to 3 rows are summed inline, in the
    recursion's order, which saves most of the Python calls. From
    PLAN_MIN_ROWS rows on, the same tree runs from its cached plan: one gather,
    then one addition of even and odd rows per level, about log2(n) calls.
    With out, the last addition writes the total there.
    """
    n = a.shape[0]
    if n == 1:
        return a[0] if out is None else np.copyto(out, a[0]) or out
    if n <= 3:
        left, right = (a[0], a[1]) if n == 2 else (a[0], a[1] + a[2])
    elif n < PLAN_MIN_ROWS:
        h = n // 2
        left, right = _halving_sum(a[:h]), _halving_sum(a[h:])
    else:
        return _planned_sum(a, *_halving_plan(n), out)
    return np.add(left, right, out=out)


def _planned_sum(a: np.ndarray, rows: np.ndarray, pads: np.ndarray, out=None):
    """Run a halving plan on a: gather its summand rows, set its pads to -0.0,
    then add even and odd rows, one level of the tree at a time; with out,
    the last level writes there."""
    level = a[rows]
    level[pads] = -0.0
    while level.shape[0] > 2:
        level = level[0::2] + level[1::2]
    return np.add(level[0], level[1], out=out)


def _matvec(X: np.ndarray, theta: np.ndarray, mm=np.matmul) -> np.ndarray:
    """(K, b, d) @ (K, d) -> (K, b): one BLAS matrix-vector call per client."""
    return mm(X, theta[:, :, None])[:, :, 0]


def _rowdot(theta: np.ndarray) -> np.ndarray:
    """Squared norm of every row, each by one BLAS dot, as np.dot(row, row)."""
    return np.matmul(theta[:, None, :], theta[:, :, None])[:, 0, 0]


# Each family evaluator takes theta (K, P), X (K, b, d) and y (K, b) and returns
# the per-sample data losses (K, b) and, when need_grad is set, the batch-mean
# data gradient (K, P), summed by halving along the sample axis. mm multiplies
# the samples by the parameters in the forward pass; _segmented replaces it
# to evaluate several shards laid end to end along the sample axis.


def _ridge_eval(model, theta, X, y, need_grad, mm=np.matmul):
    r = _matvec(X, theta, mm) - y
    grad = _halving_sum((X * r[:, :, None]).swapaxes(0, 1)) / X.shape[1] if need_grad else None
    return 0.5 * r * r, grad


def check_labels(model: ModelSpec, y: np.ndarray) -> None:
    """Raise ValueError unless the model's loss takes the labels y.

    MLP labels must be integral (of any dtype) and in range(num_classes);
    logistic labels must be -1 or +1; ridge takes any target.
    """
    if isinstance(model, MlpSpec):
        if y.dtype.kind == "f" and np.any(y != np.trunc(y)):
            raise ValueError("class labels must be integers.")
        if y.min() < 0 or y.max() >= model.num_classes:
            raise ValueError("class labels out of range.")
    elif isinstance(model, LogisticL2Spec) and not np.all(np.abs(y) == 1):
        raise ValueError("logistic labels must be -1 or +1.")


def _logistic_eval(model, theta, X, y, need_grad, mm=np.matmul):
    check_labels(model, y)
    yf = y.astype(np.float64)
    t = yf * _matvec(X, theta, mm)
    data = np.logaddexp(0.0, -t)
    if not need_grad:
        return data, None
    # sigmoid(-t) via tanh is stable for large |t|
    s = 0.5 * (1.0 - np.tanh(0.5 * t))
    return data, _halving_sum((X * (-yf * s)[:, :, None]).swapaxes(0, 1)) / X.shape[1]


def _mlp_layers(model: MlpSpec, theta: np.ndarray):
    """Per-layer (K, in + 1, out) views into theta (K, P): the weights, then
    the bias as the last row."""
    views = []
    offset = 0
    for fan_in, fan_out in zip(model.widths, model.widths[1:]):
        size = (fan_in + 1) * fan_out
        views.append(theta[:, offset : offset + size].reshape(theta.shape[0], fan_in + 1, fan_out))
        offset += size
    return views


def _mlp_forward(model: MlpSpec, theta: np.ndarray, X: np.ndarray, mm=np.matmul):
    """Layers, layer inputs and pre-activations; the last pre-activation is the logits.

    One stacked matmul per layer: a BLAS call per client on its own matrices.
    """
    layers = _mlp_layers(model, theta)
    acts = [X]
    pre = []
    for i, layer in enumerate(layers):
        z = mm(acts[i], layer[:, :-1]) + layer[:, -1:]
        pre.append(z)
        if i < len(layers) - 1:
            acts.append(np.maximum(z, 0.0) if model.activation == "relu" else np.tanh(z))
    return layers, acts, pre


def _mlp_eval(model, theta, X, y, need_grad, mm=np.matmul):
    check_labels(model, y)
    labels = y.astype(np.int64)
    layers, acts, pre = _mlp_forward(model, theta, X, mm)
    k, n = labels.shape
    picked = (np.arange(k)[:, None], np.arange(n), labels)  # each sample's own class
    logits = pre[-1]
    zmax = logits.max(axis=2, keepdims=True)
    probs = np.exp(logits - zmax)
    total = probs.sum(axis=2, keepdims=True)
    lse = zmax[:, :, 0] + np.log(total[:, :, 0])
    data = lse - logits[picked]
    if not need_grad:
        return data, None

    grad = np.empty(theta.shape)
    gviews = _mlp_layers(model, grad)
    probs /= total
    delta = probs
    delta[picked] -= 1.0
    delta /= n
    for i in range(len(layers) - 1, -1, -1):
        # contract the sample axis by halving, not BLAS, for duplication
        # invariance. The product is laid out sample by sample, so every
        # addition reads contiguous (K, in + 1, out) arrays; its last row is
        # 1.0 * delta, delta itself, so one sum gives the weight and the bias
        # gradient.
        outer = np.empty((n, k) + gviews[i].shape[1:])
        outer[:, :, :-1] = acts[i].swapaxes(0, 1)[:, :, :, None]
        outer[:, :, -1] = 1.0
        outer *= delta.swapaxes(0, 1)[:, :, None, :]
        _halving_sum(outer, out=gviews[i])
        if i > 0:
            upstream = np.matmul(delta, layers[i][:, :-1].transpose(0, 2, 1))
            if model.activation == "relu":
                delta = upstream * (pre[i - 1] > 0.0)
            else:
                delta = upstream * (1.0 - np.tanh(pre[i - 1]) ** 2)
    return data, grad


_EVALS = {RidgeSpec: _ridge_eval, LogisticL2Spec: _logistic_eval, MlpSpec: _mlp_eval}

# Float64 elements the transient arrays of one stacked evaluation may hold. A
# larger stack is evaluated in chunks of rows, written into one (K, P)
# gradient; rows are independent, so chunking changes no bit. One row, or one
# shard of a segmented evaluation, is never split, so a row larger than the
# budget costs what a single-client call costs.
STACK_ELEMENTS = 1 << 16


def stack_rows(model: ModelSpec, b: int, need_grad: bool) -> int:
    """Rows of one stacked evaluation on b-sample batches that fit STACK_ELEMENTS (at least 1)."""
    if isinstance(model, MlpSpec):
        w = model.widths
        per_sample = 2 * sum(w)  # layer inputs, pre-activations, probabilities
        if need_grad:
            # one layer's (in + 1, out) weight-and-bias gradient product per sample
            per_sample += max((w[i] + 1) * w[i + 1] for i in range(model.num_layers))
    else:
        per_sample = 2 * model.input_dim  # the batch and its gradient product
    return max(1, STACK_ELEMENTS // (b * per_sample))


def _eval_rows(model: ModelSpec, theta, X, y, need_grad: bool):
    data, grad = _EVALS[type(model)](model, theta, X, y, need_grad)
    if grad is not None:
        grad += model.l2 * theta
    return data, grad


def _stacked_eval(model: ModelSpec, theta, X, y, need_grad: bool):
    """Per-sample data losses (K, b) and, with need_grad, the batch-mean gradient
    (K, P) with its l2 term, in chunks of at most stack_rows rows."""
    k, rows = theta.shape[0], stack_rows(model, X.shape[1], need_grad)
    if k <= rows:
        return _eval_rows(model, theta, X, y, need_grad)
    data = np.empty(X.shape[:2])
    grad = np.empty(theta.shape) if need_grad else None
    for i in range(0, k, rows):
        part = slice(i, i + rows)
        data[part], g = _eval_rows(model, theta[part], X[part], y[part], need_grad)
        if need_grad:
            grad[part] = g
    return data, grad


def _evaluate(model: ModelSpec, params, X, y, need_grad: bool):
    theta, X, y = _check_batch(model, params, X, y)
    X, y = _duplicate_single(X, y)
    data, grad = _stacked_eval(model, theta, X, y, need_grad)
    value = _halving_sum(data.swapaxes(0, 1)) / X.shape[1] + 0.5 * model.l2 * _rowdot(theta)
    return value, grad


def _segmented(sizes, duplicate_single: bool):
    """A forward product for shards laid end to end along the sample axis.

    BLAS gives a row different bits depending on where it falls in the row
    tiling of its call, so a shard's samples must be multiplied in a call of
    their own, as the shard alone would be; everything else in an evaluation
    is element by element or per sample, and runs on all the shards at once.
    A run of consecutive shards of one size is one stacked product, a call
    per shard inside numpy. With duplicate_single a one-sample shard is
    multiplied as its 2-row duplicate, as the batch mean evaluates it.
    """
    runs = []  # (first sample, shard size, shards)
    lo = 0
    for n in sizes:
        if runs and runs[-1][1] == n:
            runs[-1][2] += 1
        else:
            runs.append([lo, n, 1])
        lo += n

    def mm(a, b):
        out = np.empty((1, a.shape[1], b.shape[2]))
        for lo, n, m in runs:
            part = a[0, lo : lo + n * m].reshape(m, n, a.shape[2])
            dest = out[0, lo : lo + n * m].reshape(m, n, b.shape[2])
            if n == 1 and duplicate_single:
                dest[:] = np.matmul(np.concatenate([part, part], axis=1), b)[:, :1]
            else:
                np.matmul(part, b, out=dest)
        return out

    return mm


def _segment_losses(model: ModelSpec, params: ParamVector, X, y, sizes, duplicate_single: bool):
    """Parameter row (1, P) and per-sample data losses (N,) of params on the
    shards of the given sizes laid end to end in X (N, d) and y (N,).

    Consecutive whole shards are evaluated together, up to stack_rows(model, 1)
    samples per call; a larger shard takes a call of its own.
    """
    if not isinstance(params, ParamVector):
        raise ValueError("segments take one ParamVector.")
    theta, X, y = _check_batch(model, params, X, y)
    sizes = [int(n) for n in sizes]
    if min(sizes, default=0) < 1 or sum(sizes) != X.shape[1]:
        raise ValueError("segment sizes must be >= 1 and sum to the sample count.")
    budget = stack_rows(model, 1, False)
    evaluate = _EVALS[type(model)]
    data = np.empty(X.shape[1])
    lo = i = 0
    while i < len(sizes):
        j, hi = i + 1, lo + sizes[i]
        while j < len(sizes) and hi + sizes[j] - lo <= budget:
            hi += sizes[j]
            j += 1
        part = slice(lo, hi)
        mm = _segmented(sizes[i:j], duplicate_single)
        data[part] = evaluate(model, theta, X[:, part], y[:, part], False, mm)[0][0]
        lo, i = hi, j
    return theta, data


# The public evaluators take either one ParamVector with one batch, X (b, d)
# and y (b,), or a stacked (K, P) parameter matrix with one batch per row,
# X (K, b, d) and y (K, b). A stacked call is one evaluation for all K rows;
# row k of its result equals the single call on row k bit for bit wherever the
# result is finite. A NaN result may differ in sign: numpy picks the sign of
# the sum of two opposite-sign NaNs by the element's place in its loop. Stacked
# results are returned unchecked, so the caller guards finiteness once.
# batch_loss and sample_losses also take one ParamVector with several shards
# laid end to end, X (N, d) and y (N,), and the sample count of each shard in
# segments: one pass over all of them, equal to one call per shard bit for
# bit, and also returned unchecked.


def loss_and_grad(model: ModelSpec, params, X, y) -> LossEval:
    """Batch-mean loss and gradient at params.

    A single call returns a float value and a ParamVector gradient and
    raises DivergenceError on a non-finite value; a stacked call returns the
    (K,) values and the (K, P) gradient matrix.
    """
    value, grad = _evaluate(model, params, X, y, True)
    if not isinstance(params, ParamVector):
        return LossEval(value, grad)
    require_finite(value, "loss")
    return LossEval(float(value[0]), ParamVector(grad[0], params.layout))


def batch_loss(model: ModelSpec, params, X, y, segments=None):
    """Batch-mean loss only, by the same path as loss_and_grad: a float, or (K,) stacked.

    With segments, the (S,) means of the S shards, from one halving sum over
    all of them.
    """
    if segments is not None:
        sizes = tuple(int(n) for n in segments)
        theta, data = _segment_losses(model, params, X, y, sizes, True)
        rows, pads, counts = _segments_plan(sizes)
        return _planned_sum(data, rows, pads) / counts + 0.5 * model.l2 * _rowdot(theta)
    value, _ = _evaluate(model, params, X, y, False)
    if not isinstance(params, ParamVector):
        return value
    require_finite(value, "loss")
    return float(value[0])


def sample_losses(model: ModelSpec, params, X, y, segments=None) -> np.ndarray:
    """Per-sample losses, each including the l2 term so they average to the batch mean.

    params is a ParamVector with X (n, d), giving (n,), or a stacked (K, P)
    matrix with X (K, n, d), giving (K, n) from one call. Unlike the
    batch mean, a one-sample batch is evaluated as it is. With segments,
    X (N, d) holds the shards end to end and the result is (N,).
    """
    if segments is not None:
        theta, data = _segment_losses(model, params, X, y, segments, False)
        return data + 0.5 * model.l2 * _rowdot(theta)
    theta, X, y = _check_batch(model, params, X, y)
    data, _ = _stacked_eval(model, theta, X, y, False)
    losses = data + (0.5 * model.l2 * _rowdot(theta))[:, None]
    return losses[0] if isinstance(params, ParamVector) else losses


def predict(model: ModelSpec, params: ParamVector, X) -> np.ndarray:
    """Model outputs: regression values for ridge, class labels otherwise."""
    X = np.asarray(X, dtype=np.float64)[None]
    theta = params.values[None]
    if isinstance(model, RidgeSpec):
        return _matvec(X, theta)[0]
    if isinstance(model, LogisticL2Spec):
        return np.where(_matvec(X, theta)[0] >= 0.0, 1, -1)
    _, _, pre = _mlp_forward(model, theta, X)
    return np.argmax(pre[-1][0], axis=1)


def _rotate(a: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation (p, q) applied in place to every matrix of a (T, n, n)."""
    apq = a[:, p, q]
    theta = (a[:, q, q] - a[:, p, p]) / (2.0 * apq)
    t = np.where(theta != 0.0, np.sign(theta), 1.0)
    t = t / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    c, s = c[:, None], s[:, None]
    rp, rq = a[:, p, :].copy(), a[:, q, :].copy()
    a[:, p, :] = c * rp - s * rq
    a[:, q, :] = s * rp + c * rq
    cp, cq = a[:, :, p].copy(), a[:, :, q].copy()
    a[:, :, p] = c * cp - s * cq
    a[:, :, q] = s * cp + c * cq


def jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending.

    a is one (n, n) matrix, giving (n,), or a stack (T, n, n), giving (T, n).
    A stack is swept in one pass: each rotation (p, q) is applied at once to
    every matrix that has not converged, with the single matrix's element-wise
    arithmetic, and a matrix leaves the pass when its own off-diagonal norm
    falls to 1e-13 of max(1, its largest diagonal magnitude); 60 sweeps without
    that are an error. So row t equals the single call on a[t] bit for bit.

    Self-contained on purpose: the exact curvature constants flow into bound
    verification, so they are computed by a route independent of the library
    eigensolver the tests use as an oracle.
    """
    a = np.array(a, dtype=np.float64)
    single = a.ndim == 2
    if single:
        a = a[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrix must be square.")
    at = a.transpose(0, 2, 1)
    atol = 1e-10 * np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    if not np.isclose(a, at, atol=atol[:, None, None]).all():
        raise ValueError("matrix must be symmetric.")
    a = 0.5 * (a + at)
    n = a.shape[1]
    out = np.diagonal(a, axis1=1, axis2=2).copy()
    if n > 1:
        scale = np.maximum(1.0, np.abs(out).max(axis=1))
        rows = np.arange(a.shape[0])  # the matrices still being rotated
        for _ in range(60):
            off = np.sqrt(2.0 * (np.triu(a, 1) ** 2).reshape(rows.size, n * n).sum(axis=1))
            done = off <= 1e-13 * scale
            out[rows[done]] = np.diagonal(a[done], axis1=1, axis2=2)
            a, scale, rows = a[~done], scale[~done], rows[~done]
            if rows.size == 0:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    live = np.abs(a[:, p, q]) > 1e-300
                    if live.all():
                        _rotate(a, p, q)
                    elif live.any():
                        part = a[live]
                        _rotate(part, p, q)
                        a[live] = part
        else:
            raise RuntimeError("Jacobi sweep limit reached without convergence.")
        out.sort(axis=1)
    return out[0] if single else out


def mu_L_exact(model: RidgeSpec, X) -> tuple[float, float]:
    """Strong-convexity and smoothness constants of the ridge empirical risk.

    The Hessian is (1/n) X^T X + l2*I, constant in theta, so mu and L are its
    extreme eigenvalues.
    """
    if not isinstance(model, RidgeSpec):
        raise ValueError("exact curvature constants are defined for ridge only.")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a non-empty sample matrix.")
    h = X.T @ X / X.shape[0] + model.l2 * np.eye(model.input_dim)
    ev = jacobi_eigenvalues(h)
    return float(ev[0]), float(ev[-1])


def erm_closed_form(model: RidgeSpec, X, y):
    """Exact minimizer of the ridge empirical risk on (X, y).

    Solves ((1/n) X^T X + l2*I) theta = (1/n) X^T y. Requires a
    positive-definite system (always true for l2 > 0), which a Cholesky
    factorization checks. X (n, d) and y (n,) give a ParamVector; a stack
    X (N, n, d), y (N, n) gives the (N, d) minimizers, row i equal to the
    single call on (X[i], y[i]) bit for bit: the systems are built by stacked
    matmuls, and numpy's LAPACK gufuncs factor and solve each one on its own.
    """
    if not isinstance(model, RidgeSpec):
        raise ValueError("closed-form ERM is defined for ridge only.")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    single = X.ndim == 2
    if single:
        X, y = X[None], y[None]
    if X.ndim != 3 or X.shape[1] == 0 or X.shape[2] != model.input_dim or y.shape != X.shape[:2]:
        raise ValueError("need non-empty X with matching y.")
    n = X.shape[1]
    xt = X.transpose(0, 2, 1)
    h = xt @ X / n + model.l2 * np.eye(model.input_dim)
    b = (xt @ y[:, :, None]) / n
    require_finite(np.concatenate((h, b), axis=2), "ERM system")
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise ValueError("ERM system is singular; needs l2 > 0 or full-rank data.") from exc
    theta = np.linalg.solve(h, b)[:, :, 0]
    require_finite(theta, "ERM solution")
    if not single:
        return theta
    return ParamVector(theta[0], build_layout(model))


def population_risk_closed_form(
    model: RidgeSpec,
    params,
    covariance: np.ndarray,
    true_coef: np.ndarray,
    noise_std: float,
):
    """Exact population risk of ridge under x ~ N(0, Sigma), y = x.coef + noise.

    Expands to 0.5*(theta-coef)^T Sigma (theta-coef) + 0.5*noise^2
    + (l2/2)*||theta||^2. params is a ParamVector, giving a float, or a
    (N, d) matrix with true_coef (d,) or one row per parameter row, giving
    (N,). The quadratic forms are stacked (1, d) @ (d, d) @ (d, 1) matmuls,
    one BLAS call per row as in the single call.
    """
    if not isinstance(model, RidgeSpec):
        raise ValueError("closed-form population risk is defined for ridge only.")
    single = isinstance(params, ParamVector)
    theta = params.values[None] if single else np.asarray(params, dtype=np.float64)
    d = theta - np.asarray(true_coef, dtype=np.float64)
    sigma = np.asarray(covariance, dtype=np.float64)
    quad = np.matmul(np.matmul(d[:, None, :], sigma), d[:, :, None])[:, 0, 0]
    risk = 0.5 * quad + 0.5 * float(noise_std) ** 2 + 0.5 * model.l2 * _rowdot(theta)
    return float(risk[0]) if single else risk
