"""Block layouts and the aggregation arithmetic."""

import itertools

import numpy as np
import pytest

from fedsim.params import (
    Block,
    BlockLayout,
    ParamVector,
    Role,
    layout_from_sizes,
    weighted_average,
    weighted_sum,
)


def _layout(*sizes):
    if not sizes:
        sizes = (("a", 2, Role.REPRESENTATION), ("b", 2, Role.HEAD))
    return layout_from_sizes(sizes)


def _vec(values, layout=None):
    values = np.asarray(values, dtype=np.float64)
    if layout is None:
        layout = layout_from_sizes([("a", values.shape[0], Role.HEAD)])
    return ParamVector(values, layout)


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
    v = _vec([1.5, -2.25, 0.5])
    out = weighted_average([v, v.copy()], [0.5, 0.5])
    assert np.array_equal(out.values, v.values)


def test_weighted_average_symmetry():
    lay = _layout(("a", 2, Role.HEAD))
    a = ParamVector(np.array([0.0, 2.0]), lay)
    b = ParamVector(np.array([2.0, 0.0]), lay)
    out = weighted_average([a, b], [0.5, 0.5])
    assert np.array_equal(out.values, [1.0, 1.0])


def test_weighted_average_degenerate_weights():
    a = _vec([0.3, 0.7, -1.1])
    b = _vec([9.0, 9.0, 9.0])
    out = weighted_average([a, b], [1.0, 0.0])
    assert np.array_equal(out.values, a.values)


def test_weighted_average_k_copies_is_bitwise_fixed_point():
    rng = np.random.default_rng(0)
    for k in (2, 3, 5, 7):
        v = _vec(rng.standard_normal(11))
        out = weighted_average([v.copy() for _ in range(k)], [1.0 / k] * k)
        assert np.array_equal(out.values, v.values), f"k={k}"


def test_weighted_average_permutation_invariance_exhaustive():
    rng = np.random.default_rng(1)
    for k in (2, 3, 4):
        lay = _layout(("a", 4, Role.REPRESENTATION), ("b", 3, Role.HEAD))
        vecs = [ParamVector(rng.standard_normal(7), lay) for _ in range(k)]
        w = rng.random(k)
        w /= w.sum()
        ref = weighted_average(vecs, w).values
        for perm in itertools.permutations(range(k)):
            out = weighted_average([vecs[i] for i in perm], [w[i] for i in perm]).values
            assert np.allclose(out, ref, rtol=1e-12, atol=0.0)


def test_weighted_average_role_filter_copies_other_blocks_bitwise():
    rng = np.random.default_rng(2)
    lay = _layout(("phi", 4, Role.REPRESENTATION), ("h", 3, Role.HEAD))
    vecs = [ParamVector(rng.standard_normal(7), lay) for _ in range(3)]
    out = weighted_average(vecs, [0.2, 0.3, 0.5], role_filter=Role.HEAD)
    assert np.array_equal(out.values[:4], vecs[0].values[:4])
    assert not np.array_equal(out.values[4:], vecs[0].values[4:])


def test_weighted_average_validates_weights():
    v = _vec([1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_average([v, v], [0.6, 0.6])
    with pytest.raises(ValueError):
        weighted_average([v, v], [1.5, -0.5])
    with pytest.raises(ValueError):
        weighted_average([v, v], [0.5])
    # sum just inside the tolerance is accepted
    weighted_average([v, v.copy()], [0.5, 0.5 + 5e-13])


def test_weighted_average_rejects_layout_mismatch():
    a = _vec([1.0, 2.0])
    b = ParamVector(np.array([1.0, 2.0]), _layout(("z", 2, Role.HEAD)))
    with pytest.raises(ValueError):
        weighted_average([a, b], [0.5, 0.5])


def test_weighted_sum_no_sum_constraint():
    lay = _layout(("a", 2, Role.HEAD))
    a = ParamVector(np.array([1.0, 0.0]), lay)
    b = ParamVector(np.array([0.0, 1.0]), lay)
    out = weighted_sum([a, b], [2.0, 3.0])
    assert np.array_equal(out.values, [2.0, 3.0])
