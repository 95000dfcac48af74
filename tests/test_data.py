"""Generators, partitioners, and round-batch sampling."""

import numpy as np
import pytest

from fedsim.data import (
    DatasetShard,
    GaussianClusters,
    GaussianLinear,
    draw_round_batches,
    draw_round_batches_with_replacement,
    generate,
    generate_pooled,
    load_delimited,
    partition_dirichlet,
    partition_iid,
    partition_label_sorted,
)
from fedsim.rng import substream


def _balanced_classes(n, num_classes, rng):
    X = rng.standard_normal((n, 3))
    y = np.tile(np.arange(num_classes), n // num_classes)
    return X, y.astype(np.int64)


def _as_multiset(X, y):
    return sorted(map(tuple, np.column_stack([X, y]).tolist()))


def _partition_covers(shards, X, y):
    got_x = np.concatenate([s.X for s in shards])
    got_y = np.concatenate([s.y for s in shards])
    assert _as_multiset(got_x, got_y) == _as_multiset(X, y)


def test_noiseless_linear_labels_are_exact():
    coefs = np.array([[1.0, -2.0], [0.5, 0.5]])
    spec = GaussianLinear(covariance=np.eye(2), client_coefs=coefs, noise_std=0.0, seed=1)
    shards = generate(spec, 20, 2)
    for k, shard in enumerate(shards):
        assert np.array_equal(shard.y, shard.X @ coefs[k])


def test_generate_same_seed_is_bitwise_identical():
    spec = GaussianLinear(covariance=np.eye(3), client_coefs=np.ones((1, 3)), noise_std=0.3, seed=5)
    a = generate(spec, 15, 4)
    b = generate(spec, 15, 4)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.X, sb.X) and np.array_equal(sa.y, sb.y)
    # pooled draws come from their own stream
    xa, ya = generate_pooled(spec, 10)
    xb, yb = generate_pooled(spec, 10)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)


def test_generate_empirical_covariance_matches():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    spec = GaussianLinear(covariance=cov, client_coefs=np.zeros((1, 2)), noise_std=0.0, seed=7)
    X, _ = generate_pooled(spec, 10**5)
    n = X.shape[0]
    for i in range(2):
        for j in range(2):
            prods = X[:, i] * X[:, j]
            se = float(np.std(prods, ddof=1) / np.sqrt(n))
            assert abs(float(np.mean(prods)) - cov[i, j]) <= 3 * se, (i, j)


def test_generate_rejects_bad_covariance():
    with pytest.raises(ValueError):
        GaussianLinear(
            covariance=np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
            client_coefs=np.zeros((1, 2)),
            noise_std=0.0,
            seed=0,
        )


def test_clusters_balanced_and_deterministic():
    means = np.eye(3) * 2.0
    spec = GaussianClusters(class_means=means, class_cov=np.eye(3), seed=3, balanced=True)
    gen_a = substream(3, 1, 0)
    Xa, ya = spec.sample(30, 0, gen_a)
    assert np.array_equal(np.bincount(ya.astype(int), minlength=3), [10, 10, 10])
    gen_b = substream(3, 1, 0)
    Xb, yb = spec.sample(30, 0, gen_b)
    assert np.array_equal(Xa, Xb) and np.array_equal(ya, yb)
    with pytest.raises(ValueError):
        spec.sample(31, 0, substream(3, 1, 0))  # balanced needs divisibility


def test_partition_iid_single_client_keeps_everything():
    rng = np.random.default_rng(0)
    X, y = _balanced_classes(12, 3, rng)
    shards = partition_iid(X, y, 1, seed=4)
    assert len(shards) == 1 and shards[0].n == 12
    _partition_covers(shards, X, y)


def test_partition_iid_even_split_and_cover():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 3))
    y = rng.integers(0, 2, size=10)
    shards = partition_iid(X, y, 5, seed=4)
    assert [s.n for s in shards] == [2, 2, 2, 2, 2]
    _partition_covers(shards, X, y)
    uneven = partition_iid(X, y, 3, seed=4)
    assert sorted(s.n for s in uneven) == [3, 3, 4]


def test_partition_iid_rejects_more_clients_than_samples():
    with pytest.raises(ValueError):
        partition_iid(np.zeros((2, 1)), np.zeros(2), 3, seed=0)


def test_label_sorted_census():
    rng = np.random.default_rng(2)
    X, y = _balanced_classes(1000, 10, rng)
    shards = partition_label_sorted(X, y, 5, classes_per_client=2)
    for k, shard in enumerate(shards):
        assert set(np.unique(shard.y)) == {2 * k, 2 * k + 1}
    _partition_covers(shards, X, y)


def test_label_sorted_single_client_and_validation():
    rng = np.random.default_rng(3)
    X, y = _balanced_classes(30, 3, rng)
    shards = partition_label_sorted(X, y, 1, classes_per_client=3)
    assert set(np.unique(shards[0].y)) == {0, 1, 2}
    with pytest.raises(ValueError):
        partition_label_sorted(X, y, 2, classes_per_client=4)


def test_dirichlet_high_concentration_tracks_global_mix():
    rng = np.random.default_rng(4)
    X, y = _balanced_classes(5000, 5, rng)
    shards = partition_dirichlet(X, y, 4, concentration=1e4, seed=8)
    _partition_covers(shards, X, y)
    for shard in shards:
        props = np.bincount(shard.y.astype(int), minlength=5) / shard.n
        assert np.all(np.abs(props - 0.2) <= 0.05 * 1.0), props


def test_dirichlet_low_concentration_concentrates_mass():
    rng = np.random.default_rng(5)
    X, y = _balanced_classes(1000, 10, rng)
    hits = 0
    for seed in range(20):
        shards = partition_dirichlet(X, y, 5, concentration=0.01, seed=seed)
        top = max(
            float(np.max(np.bincount(s.y.astype(int), minlength=10)) / s.n) for s in shards
        )
        hits += top > 0.9
    assert hits > 10, f"only {hits}/20 seeds had a >90% single-class shard"


def test_dirichlet_determinism_and_validation():
    rng = np.random.default_rng(6)
    X, y = _balanced_classes(200, 4, rng)
    a = partition_dirichlet(X, y, 3, concentration=0.5, seed=9)
    b = partition_dirichlet(X, y, 3, concentration=0.5, seed=9)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.X, sb.X) and np.array_equal(sa.y, sb.y)
    with pytest.raises(ValueError):
        partition_dirichlet(X, y, 3, concentration=0.0, seed=9)


def test_round_batches_whole_shard_cases():
    rng = np.random.default_rng(7)
    spec = GaussianLinear(covariance=np.eye(2), client_coefs=np.zeros((1, 2)), noise_std=1.0, seed=10)
    shard = generate(spec, 8, 1)[0]
    whole = draw_round_batches(shard, 1, 8, substream(0, 4, 0, 0))
    assert sorted(whole.reshape(-1).tolist()) == list(range(8))
    halves = draw_round_batches(shard, 2, 4, substream(0, 4, 0, 1))
    flat = halves.reshape(-1)
    assert halves.shape == (2, 4)
    assert sorted(flat.tolist()) == list(range(8))  # disjoint halves cover the shard
    del rng


def test_round_batches_indices_distinct():
    spec = GaussianLinear(covariance=np.eye(2), client_coefs=np.zeros((1, 2)), noise_std=1.0, seed=11)
    shard = generate(spec, 50, 1)[0]
    for trial in range(5):
        idx = draw_round_batches(shard, 4, 9, substream(1, 4, 0, trial)).reshape(-1)
        assert len(set(idx.tolist())) == idx.shape[0]


def test_round_batches_rejects_oversized_round():
    spec = GaussianLinear(covariance=np.eye(2), client_coefs=np.zeros((1, 2)), noise_std=1.0, seed=12)
    shard = generate(spec, 10, 1)[0]
    with pytest.raises(ValueError, match="sampling model"):
        draw_round_batches(shard, 3, 4, substream(2, 4, 0, 0))
    with_rep = draw_round_batches_with_replacement(shard, 3, 4, substream(2, 4, 0, 0))
    assert with_rep.shape == (3, 4)
    assert with_rep.max() < 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shard_rejects_non_finite_features_and_labels(bad):
    X, y = np.ones((3, 2)), np.zeros(3)
    DatasetShard(X, y)
    with pytest.raises(ValueError, match="features contain non-finite"):
        DatasetShard(np.where(np.eye(3, 2) > 0, bad, X), y)
    with pytest.raises(ValueError, match="labels contain non-finite"):
        DatasetShard(X, np.array([0.0, bad, 0.0]))


def test_load_delimited(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("# header comment\n1.0, 2.0, 3.0\n\n4 5 6\n")
    X, y = load_delimited(p)
    assert np.array_equal(X, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(y, [3.0, 6.0])
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="inconsistent"):
        load_delimited(bad)
    skinny = tmp_path / "skinny.txt"
    skinny.write_text("1\n")
    with pytest.raises(ValueError):
        load_delimited(skinny)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no samples"):
        load_delimited(empty)
