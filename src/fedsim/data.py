"""Synthetic data generation, client partitioning, and batch schedules.

Two generator families cover the regimes the simulator needs: Gaussian linear
regression with per-client ground-truth coefficients (exact population risks
exist) and Gaussian cluster classification (a global mixture whose
heterogeneity comes from how samples are partitioned). Partitioners split one
pooled sample into client shards; batch schedules draw each round's local
batches without replacement inside the round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as streams


def _psd_sqrt(cov: np.ndarray, name: str) -> np.ndarray:
    """S with S @ S.T == cov, from the eigendecomposition of a symmetric PSD cov."""
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric.")
    ev, vec = np.linalg.eigh(cov)
    if ev.min() < -1e-10 * max(1.0, ev.max()):
        raise ValueError(f"{name} must be positive semi-definite.")
    return vec * np.sqrt(np.clip(ev, 0.0, None))


@dataclass(eq=False)
class GaussianLinear:
    """x ~ N(0, covariance), y = x . coef_k + noise_std * eps per client k.

    client_coefs has one row per client, or a single row shared by all.
    """

    covariance: np.ndarray
    client_coefs: np.ndarray
    noise_std: float
    seed: int

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        self.client_coefs = np.atleast_2d(np.asarray(self.client_coefs, dtype=np.float64))
        if self.covariance.ndim != 2 or self.covariance.shape[0] != self.covariance.shape[1]:
            raise ValueError("covariance must be square.")
        self._sqrt = _psd_sqrt(self.covariance, "covariance")
        if self.client_coefs.shape[1] != self.covariance.shape[0]:
            raise ValueError("coefficient dim does not match covariance dim.")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0.")

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def coef_for(self, client: int) -> np.ndarray:
        if self.client_coefs.shape[0] == 1:
            return self.client_coefs[0]
        return self.client_coefs[client]

    def sample(self, n: int, client: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        z = gen.standard_normal((n, self.dim))
        x = z @ self._sqrt.T
        # overflowing labels come back as inf; every caller rejects non-finite labels
        with np.errstate(over="ignore", invalid="ignore"):
            y = x @ self.coef_for(client) + self.noise_std * gen.standard_normal(n)
        return x, y


@dataclass(eq=False)
class GaussianClusters:
    """Classification mixture: class c puts mass at N(class_means[c], class_cov).

    balanced draws an equal number of samples per class (n must divide); the
    default draws labels uniformly at random.
    """

    class_means: np.ndarray
    class_cov: np.ndarray
    seed: int
    balanced: bool = False

    def __post_init__(self):
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        self.class_cov = np.asarray(self.class_cov, dtype=np.float64)
        if self.class_means.ndim != 2 or self.class_means.shape[0] < 2:
            raise ValueError("need a (num_classes, dim) mean matrix with >= 2 classes.")
        d = self.class_means.shape[1]
        if self.class_cov.shape != (d, d):
            raise ValueError("class_cov must match the mean dimension.")
        self._sqrt = _psd_sqrt(self.class_cov, "class_cov")

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]

    def sample(self, n: int, client: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        if self.balanced:
            if n % self.num_classes != 0:
                raise ValueError("balanced sampling needs n divisible by num_classes.")
            labels = np.repeat(np.arange(self.num_classes), n // self.num_classes)
            labels = gen.permutation(labels)
        else:
            labels = gen.integers(0, self.num_classes, size=n)
        x = self.class_means[labels] + gen.standard_normal((n, self.dim)) @ self._sqrt.T
        return x, labels.astype(np.int64)


GeneratorSpec = GaussianLinear | GaussianClusters


def require_finite_samples(X: np.ndarray, y: np.ndarray) -> None:
    """Reject samples with a non-finite feature or label: bad input, a ValueError (exit 1)."""
    if not np.all(np.isfinite(X)):
        raise ValueError("shard features contain non-finite entries.")
    if not np.all(np.isfinite(y)):
        raise ValueError("shard labels contain non-finite entries.")


@dataclass(eq=False)
class DatasetShard:
    """One client's samples. Never empty."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[0] == 0:
            raise ValueError("shard must hold a non-empty (n, d) sample matrix.")
        self.y = np.asarray(self.y)
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("shard labels must match the sample count.")
        require_finite_samples(self.X, self.y)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def generate(
    spec: GeneratorSpec, n_per_client: int, num_clients: int, kind: int = streams.DATA
) -> Shards:
    """Draw an independent shard per client from the generator's law.

    Each client uses its own stream derived from (spec.seed, kind, client
    id), so shards are reproducible independently of generation order. kind
    is rng.DATA for training shards and rng.EVAL for held-out ones.
    """
    if isinstance(spec, GaussianLinear) and spec.client_coefs.shape[0] not in (1, num_clients):
        raise ValueError("client_coefs must have 1 row or one row per client.")
    return stacked_shards(
        [
            spec.sample(n_per_client, k, streams.substream(spec.seed, kind, k))
            for k in range(num_clients)
        ]
    )


def generate_pooled(spec: GeneratorSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw one pooled sample (client 0's law) for later partitioning."""
    if n < 1:
        raise ValueError("need n >= 1.")
    gen = streams.substream(spec.seed, streams.POOLED)
    return spec.sample(n, 0, gen)


def _contiguous_split(order: np.ndarray, num_clients: int) -> list[np.ndarray]:
    """num_clients consecutive runs of order whose sizes differ by at most one, longest first."""
    if num_clients < 1 or num_clients > order.shape[0]:
        raise ValueError("need 1 <= num_clients <= number of samples.")
    return np.array_split(order, num_clients)


class Shards(tuple):
    """Client shards that own their pool: X (N, d), y (N,) and each shard's size.

    The shards are consecutive row blocks of X and y, as views. This is the
    one multi-shard type the engine and the metrics risk functions take; they
    read the whole pool at once. Not picklable: each process builds its own.
    """

    def __new__(cls, X, y, sizes):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        sizes = tuple(int(n) for n in sizes)
        if sum(sizes) != X.shape[0] or y.shape != X.shape[:1]:
            raise ValueError("shard sizes and labels must match the pool's sample count.")
        shards = []
        lo = 0
        for n in sizes:
            shards.append(DatasetShard(X[lo : lo + n], y[lo : lo + n]))
            lo += n
        self = super().__new__(cls, shards)
        self.X, self.y, self.sizes = X, y, sizes
        return self


def stacked_shards(samples) -> Shards:
    """One shard per (X, y) pair of samples, all row views of one array."""
    X = np.concatenate([x for x, _ in samples])
    y = np.concatenate([y for _, y in samples])
    return Shards(X, y, [x.shape[0] for x, _ in samples])


def _shards_from_indices(X, y, parts) -> Shards:
    order = np.concatenate(parts)
    return Shards(X[order], y[order], [idx.shape[0] for idx in parts])


def _distinct_labels(y: np.ndarray) -> np.ndarray:
    """The sorted distinct values of y, in y's dtype, as np.unique gives them.

    np.unique is avoided because its first call imports numpy.ma, which would
    land inside a sweep worker's first grid point.
    """
    s = np.sort(y)
    return s[np.append(True, s[1:] != s[:-1])] if s.size else s


def partition_iid(X, y, num_clients: int, seed: int) -> Shards:
    """Random permutation, then contiguous near-equal split (sizes differ by <= 1)."""
    X = np.asarray(X)
    y = np.asarray(y)
    order = streams.substream(seed, streams.DATA).permutation(X.shape[0])
    parts = _contiguous_split(order, num_clients)
    return _shards_from_indices(X, y, parts)


def partition_label_sorted(X, y, num_clients: int, classes_per_client: int) -> Shards:
    """Sort by label (stable), then contiguous near-equal split.

    With balanced classes and num_classes == num_clients * classes_per_client,
    shard k holds exactly classes {k*cpc, ..., (k+1)*cpc - 1}; in general each
    shard sees a narrow contiguous label range. Deterministic, no randomness.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    classes = _distinct_labels(y)
    if classes_per_client < 1 or classes.shape[0] < classes_per_client:
        raise ValueError("need 1 <= classes_per_client <= number of distinct labels.")
    order = np.argsort(y, kind="stable")
    parts = _contiguous_split(order, num_clients)
    return _shards_from_indices(X, y, parts)


def partition_dirichlet(X, y, num_clients: int, concentration: float, seed: int) -> Shards:
    """Per-class Dirichlet allocation of samples to clients.

    For each class, client proportions are drawn from Dir(concentration) and
    the class's samples are allocated by a multinomial count split. Low
    concentration gives near-degenerate (single-client) classes, high
    concentration approaches the global class mix. Redrawn (bounded) if some
    client ends up empty, since shards must be non-empty.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if concentration <= 0.0:
        raise ValueError("concentration must be > 0.")
    n = X.shape[0]
    if n < num_clients:
        raise ValueError("fewer samples than clients.")
    classes = _distinct_labels(y)
    gen = streams.substream(seed, streams.DATA)
    for _ in range(100):
        assigned: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for c in classes:
            idx = np.flatnonzero(y == c)
            idx = gen.permutation(idx)
            props = gen.dirichlet(np.full(num_clients, concentration))
            counts = gen.multinomial(idx.shape[0], props)
            start = 0
            for k in range(num_clients):
                assigned[k].append(idx[start : start + counts[k]])
                start += counts[k]
        parts = [np.concatenate(a) for a in assigned]
        if all(p.shape[0] > 0 for p in parts):
            return _shards_from_indices(X, y, parts)
    raise ValueError(
        f"dirichlet partition left an empty client in 100 draws (concentration={concentration})."
    )


def draw_round_batches(
    shard: DatasetShard, tau: int, batch_size: int, gen: np.random.Generator
) -> np.ndarray:
    """Indices for one round: tau disjoint batches drawn without replacement.

    Returns a (tau, batch_size) index array into the shard. The without-
    replacement pool resets every round, so tau * batch_size must fit in the
    shard.
    """
    if tau < 1 or batch_size < 1:
        raise ValueError("need tau >= 1 and batch_size >= 1.")
    need = tau * batch_size
    if need > shard.n:
        raise ValueError(
            f"round needs tau*batch_size = {need} samples without replacement, "
            f"shard has {shard.n}: config violates the sampling model."
        )
    perm = gen.permutation(shard.n)[:need]
    return perm.reshape(tau, batch_size)


def draw_round_batches_with_replacement(
    shard: DatasetShard, tau: int, batch_size: int, gen: np.random.Generator
) -> np.ndarray:
    """With-replacement variant; batches may overlap and reuse samples."""
    if tau < 1 or batch_size < 1:
        raise ValueError("need tau >= 1 and batch_size >= 1.")
    return gen.integers(0, shard.n, size=(tau, batch_size))


def load_delimited(path) -> tuple[np.ndarray, np.ndarray]:
    """Read samples from a text file: one sample per line, label last.

    Values are comma- or whitespace-separated; blank lines and lines starting
    with '#' are skipped, and a nan or inf value is an error naming its line.
    Returns (X, y) with y as float64 (cast to labels by the caller when the
    model is a classifier).
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            fields = s.replace(",", " ").split()
            try:
                row = [float(f) for f in fields]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: could not parse {s!r}.") from exc
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"{path}:{lineno}: non-finite value in {s!r}.")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no samples found.")
    width = len(rows[0])
    if width < 2:
        raise ValueError(f"{path}: need at least one feature and a label per line.")
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: inconsistent field counts across lines.")
    arr = np.asarray(rows, dtype=np.float64)
    return arr[:, :-1], arr[:, -1]
