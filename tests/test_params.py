"""Block layouts and the aggregation arithmetic."""

import itertools

import numpy as np
import pytest

from fedsim.bounds import BoundTrialConfig, verify_participation_identities
from fedsim.data import GaussianLinear, generate
from fedsim.engine import RunSpec, ScheduleSpec, run_experiments
from fedsim.metrics import empirical_risk, population_risk_estimate
from fedsim.models import RidgeSpec
from fedsim.params import (
    WEIGHT_SUM_TOL,
    Block,
    BlockLayout,
    ParamVector,
    Role,
    client_weights,
    layout_from_sizes,
    weighted_average,
    weighted_sum,
)


def _layout(*sizes):
    if not sizes:
        sizes = (("a", 2, Role.REPRESENTATION), ("b", 2, Role.HEAD))
    return layout_from_sizes(sizes)


def test_layout_rejects_gaps_and_overlaps():
    with pytest.raises(ValueError):
        BlockLayout((Block("a", 0, 2, Role.HEAD), Block("b", 3, 1, Role.HEAD)))
    with pytest.raises(ValueError):
        BlockLayout((Block("a", 0, 2, Role.HEAD), Block("b", 1, 2, Role.HEAD)))
    with pytest.raises(ValueError):
        BlockLayout((Block("a", 0, 2, Role.HEAD), Block("a", 2, 2, Role.HEAD)))
    with pytest.raises(ValueError):
        Block("a", 0, 0, Role.HEAD)


def test_layout_lookup_and_sizes():
    lay = _layout(("phi", 3, Role.REPRESENTATION), ("h", 2, Role.HEAD))
    assert lay.total_params == 5
    assert lay.role_size(Role.HEAD) == 2
    assert lay.role_slices(Role.REPRESENTATION) == (slice(0, 3),)
    assert lay.role_slices(None) == (slice(0, 3), slice(3, 5))


def test_param_vector_rejects_non_finite_and_bad_shape():
    lay = _layout()
    with pytest.raises(ValueError):
        ParamVector(np.array([1.0, np.nan, 0.0, 0.0]), lay)
    with pytest.raises(ValueError):
        ParamVector(np.zeros(3), lay)


def test_weighted_average_identity_pair():
    v = np.array([1.5, -2.25, 0.5])
    out = weighted_average(np.stack([v, v]), [0.5, 0.5])
    assert np.array_equal(out, v)


def test_weighted_average_symmetry():
    out = weighted_average(np.array([[0.0, 2.0], [2.0, 0.0]]), [0.5, 0.5])
    assert np.array_equal(out, [1.0, 1.0])


def test_weighted_average_degenerate_weights():
    rows = np.array([[0.3, 0.7, -1.1], [9.0, 9.0, 9.0]])
    out = weighted_average(rows, [1.0, 0.0])
    assert np.array_equal(out, rows[0])


def test_weighted_average_k_copies_is_bitwise_fixed_point():
    rng = np.random.default_rng(0)
    for k in (2, 3, 5, 7):
        v = rng.standard_normal(11)
        out = weighted_average(np.tile(v, (k, 1)), [1.0 / k] * k)
        assert np.array_equal(out, v), f"k={k}"


def test_weighted_average_permutation_invariance_exhaustive():
    rng = np.random.default_rng(1)
    for k in (2, 3, 4):
        rows = rng.standard_normal((k, 7))
        w = rng.random(k)
        w /= w.sum()
        ref = weighted_average(rows, w)
        for perm in itertools.permutations(range(k)):
            out = weighted_average(rows[list(perm)], [w[i] for i in perm])
            assert np.allclose(out, ref, rtol=1e-12, atol=0.0)


def test_weighted_average_combines_over_axis_0_in_anchored_order():
    # a (K, T, d) stack gives the (T, d) average of each trailing position,
    # r0 + sum_k w_k (r_k - r0) added left to right
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((4, 3, 5))
    w = [0.1, 0.2, 0.3, 0.4]
    want = rows[0].copy()
    for row, wk in zip(rows[1:], w[1:]):
        want += wk * (row - rows[0])
    out = weighted_average(rows, w)
    assert out.shape == (3, 5) and np.array_equal(out, want)
    for t in range(3):
        assert np.array_equal(weighted_average(rows[:, t], w), out[t])


def test_weighted_average_role_filter_copies_other_blocks_bitwise():
    # averaging only the head columns, picked by the layout's role slices,
    # leaves the representation block with the anchor row's own bits
    rng = np.random.default_rng(2)
    lay = _layout(("phi", 4, Role.REPRESENTATION), ("h", 3, Role.HEAD))
    rows = rng.standard_normal((3, lay.total_params))
    out = rows[0].copy()
    for sl in lay.role_slices(Role.HEAD):
        out[sl] = weighted_average(rows[:, sl], [0.2, 0.3, 0.5])
    assert np.array_equal(out[:4], rows[0, :4])
    assert not np.array_equal(out[4:], rows[0, 4:])


def test_weighted_average_validates_weights():
    rows =np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        weighted_average(rows, [0.6, 0.6])
    with pytest.raises(ValueError):
        weighted_average(rows, [1.5, -0.5])
    with pytest.raises(ValueError):
        weighted_average(rows, [0.5])
    with pytest.raises(ValueError, match="at least one row"):
        weighted_average(np.empty((0, 2)), [])
    # sum just inside the tolerance is accepted
    weighted_average(rows, [0.5, 0.5 + 5e-13])


def test_weighted_sum_no_sum_constraint():
    out = weighted_sum(np.array([[1.0, 0.0], [0.0, 1.0]]), [2.0, 3.0])
    assert np.array_equal(out, [2.0, 3.0])
    with pytest.raises(ValueError):
        weighted_sum(np.array([[1.0, 0.0]]), [float("nan")])


def test_client_weights_rule():
    assert np.array_equal(client_weights(None, 4), np.full(4, 0.25))
    w = client_weights([0.5, 0.3, 0.2], 3)
    assert w.dtype == np.float64 and w.tolist() == [0.5, 0.3, 0.2]
    client_weights([0.5, 0.5 + 0.5 * WEIGHT_SUM_TOL], 2)  # inside the tolerance
    with pytest.raises(ValueError, match="sum to 1"):
        client_weights([0.5, 0.5 + 2 * WEIGHT_SUM_TOL], 2)
    with pytest.raises(ValueError, match="one weight per holdout shard"):
        client_weights([1.0], 2, "holdout shard")
    for bad in ([float("nan"), 0.5, 0.5], [1.5, -0.25, -0.25], [float("inf"), 0.0, 0.0]):
        with pytest.raises(ValueError, match="finite and non-negative"):
            client_weights(bad, 3)


def _weight_owners():
    """Each public entry point that takes client weights, as a call on 3 clients."""
    law = GaussianLinear(np.eye(2), np.arange(6.0).reshape(3, 2), 0.5, seed=0)
    shards = generate(law, 10, 3)
    model = RidgeSpec(input_dim=2, l2=0.1)
    params = ParamVector(np.zeros(2), layout_from_sizes([("coef", 2, Role.HEAD)]))
    return {
        "BoundTrialConfig": lambda w: BoundTrialConfig(law, 3, 5, 0.5, 100, 0, weights=w),
        "verify_participation_identities": lambda w: verify_participation_identities(
            3, 2, "with_replacement", draws=10, seed=0, weights=w
        ),
        "empirical_risk": lambda w: empirical_risk(model, params, shards, w),
        "population_risk_estimate.closed_form": lambda w: population_risk_estimate(
            model, params, law, w
        ),
        "population_risk_estimate.holdout": lambda w: population_risk_estimate(
            model, params, shards, w
        ),
        "run_experiments": lambda w: run_experiments(
            "fedavg", model, ScheduleSpec(1, 0.05, 1, 2), [RunSpec(shards)], weights=w
        ),
    }


@pytest.mark.parametrize("owner", sorted(_weight_owners()))
@pytest.mark.parametrize("bad", [[float("nan"), 0.5, 0.5], [1.5, -0.25, -0.25]])
def test_every_weight_owner_rejects_nan_and_negative_weights(owner, bad):
    call = _weight_owners()[owner]
    call(np.array([0.5, 0.3, 0.2]))  # valid weights pass
    with pytest.raises(ValueError, match="finite and non-negative"):
        call(np.array(bad))
