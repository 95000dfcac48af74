"""Loss families, hand-coded gradients, and the ridge analytics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import models
from fedsim.models import (
    LogisticL2Spec,
    MlpSpec,
    RidgeSpec,
    batch_loss,
    build_layout,
    erm_closed_form,
    init_params,
    jacobi_eigenvalues,
    loss_and_grad,
    mu_L_exact,
    population_risk_closed_form,
    predict,
)
from fedsim.params import ParamVector, Role
from fedsim.rng import substream

FAMILIES = ("ridge", "logistic", "mlp_relu", "mlp_tanh")


def _make(family, rng, dim=5):
    if family == "ridge":
        model = RidgeSpec(input_dim=dim, l2=0.3)
    elif family == "logistic":
        model = LogisticL2Spec(input_dim=dim, l2=0.2)
    else:
        act = "relu" if family == "mlp_relu" else "tanh"
        model = MlpSpec(input_dim=dim, hidden=(7, 6), num_classes=3, activation=act, l2=0.1)
    layout = build_layout(model)
    params = init_params(model, layout, rng)
    if not isinstance(model, MlpSpec):
        params.values[:] = rng.standard_normal(layout.total_params)
    return model, params


def _batch(family, model, rng, n=8):
    X = rng.standard_normal((n, model.input_dim))
    if family == "ridge":
        y = rng.standard_normal(n)
    elif family == "logistic":
        y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
    else:
        y = rng.integers(0, model.num_classes, size=n)
    return X, y


def _ridge_vec(theta, model):
    return ParamVector(np.asarray(theta, dtype=np.float64), build_layout(model))


def test_ridge_zero_case():
    model = RidgeSpec(input_dim=1, l2=0.0)
    out = loss_and_grad(model, _ridge_vec([0.0], model), [[1.0]], [0.0])
    assert out.value == 0.0
    assert np.array_equal(out.grad.values, [0.0])


def test_ridge_hand_case():
    model = RidgeSpec(input_dim=1, l2=0.0)
    out = loss_and_grad(model, _ridge_vec([1.0], model), [[1.0]], [0.0])
    assert out.value == 0.5
    assert np.array_equal(out.grad.values, [1.0])


def test_logistic_hand_case():
    # theta = 0: loss = log 2, grad = -y*x/2 averaged
    model = LogisticL2Spec(input_dim=2, l2=0.0)
    p = _ridge_vec([0.0, 0.0], model)
    out = loss_and_grad(model, p, [[1.0, 2.0]], [1.0])
    assert abs(out.value - np.log(2.0)) < 1e-15
    assert np.allclose(out.grad.values, [-0.5, -1.0], rtol=0, atol=1e-15)


def test_logistic_rejects_bad_labels():
    model = LogisticL2Spec(input_dim=1, l2=0.0)
    with pytest.raises(ValueError):
        loss_and_grad(model, _ridge_vec([0.0], model), [[1.0]], [0.0])


def test_mlp_rejects_out_of_range_labels():
    rng = np.random.default_rng(0)
    model, params = _make("mlp_relu", rng)
    X = rng.standard_normal((2, model.input_dim))
    with pytest.raises(ValueError):
        loss_and_grad(model, params, X, [0, 3])


def test_mlp_rejects_fractional_labels_and_takes_integral_floats():
    rng = np.random.default_rng(0)
    model, params = _make("mlp_relu", rng)
    X = rng.standard_normal((3, model.input_dim))
    for y in ([0.5, 1.0, 2.0], [0.0, 1.0, np.nan]):
        with pytest.raises(ValueError, match="class labels must be integers"):
            loss_and_grad(model, params, X, y)
        with pytest.raises(ValueError, match="class labels must be integers"):
            loss_and_grad(model, params.values[None], X[None], np.array([y]))
    # integral floats, as a data file gives them, have the bits of integer labels
    a = loss_and_grad(model, params, X, [0.0, 1.0, 2.0])
    b = loss_and_grad(model, params, X, np.array([0, 1, 2]))
    assert a.value == b.value and np.array_equal(a.grad.values, b.grad.values)


def test_gradients_match_finite_differences():
    # central differences, step 1e-5, 100 draws spread over the families
    rng = np.random.default_rng(11)
    step = 1e-5
    for draw in range(100):
        family = FAMILIES[draw % len(FAMILIES)]
        model, params = _make(family, rng)
        X, y = _batch(family, model, rng, n=int(rng.integers(1, 7)))
        grad = loss_and_grad(model, params, X, y).grad.values
        coords = rng.choice(params.values.shape[0], size=min(6, params.values.shape[0]), replace=False)
        for i in coords:
            bumped = params.copy()
            bumped.values[i] += step
            up = batch_loss(model, bumped, X, y)
            bumped.values[i] -= 2 * step
            down = batch_loss(model, bumped, X, y)
            fd = (up - down) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-5 * (1.0 + abs(grad[i])), (
                f"{family} draw {draw} coord {i}: fd={fd} analytic={grad[i]}"
            )


def test_batch_duplication_is_bitwise_invariant():
    rng = np.random.default_rng(12)
    for family in FAMILIES:
        # 16, 17 and 31 sum n rows by the recursion and the 2n duplicate by the plan
        for n in (1, 2, 3, 5, 8, 13, 16, 17, 31, 33, 64, 257):
            model, params = _make(family, rng)
            X, y = _batch(family, model, rng, n=n)
            one = loss_and_grad(model, params, X, y)
            two = loss_and_grad(
                model, params, np.concatenate([X, X]), np.concatenate([y, y])
            )
            assert one.value == two.value, f"{family} n={n}"
            assert np.array_equal(one.grad.values, two.grad.values), f"{family} n={n}"


def _recursive_sum(a):
    """The plain halving recursion, the reference for the planned sum."""
    n = a.shape[0]
    if n == 1:
        return a[0]
    return _recursive_sum(a[: n // 2]) + _recursive_sum(a[n // 2 :])


# zeros of both signs, subnormals, the extremes, infinities of both signs and NaN
_SPECIALS = np.array(
    [0.0, -0.0, 5e-324, -3e-310, 2.2e-308, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan]
)


def _summands(rng, n, tail, special_share, stacked):
    """An (n, *tail) array of mixed magnitudes and some special values; stacked
    gives the non-contiguous a.swapaxes(0, 1) view of a (k, n, ...) array."""
    shape = (tail[0], n, *tail[1:]) if stacked else (n, *tail)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-40, 40, size=shape)
    mask = rng.random(shape) < special_share
    a[mask] = rng.choice(_SPECIALS, size=int(mask.sum()))
    return a.swapaxes(0, 1) if stacked else a


def _assert_same_bits(a):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.asarray(_recursive_sum(a))
        got = np.asarray(models._halving_sum(a))
        into = np.empty(a.shape[1:])
        assert models._halving_sum(a, out=into) is into
    assert got.shape == want.shape == a.shape[1:]
    # Where two NaNs of opposite sign meet, numpy's addition returns one or the
    # other depending on the element's place in its loop (the recursion itself
    # differs between a stack and its columns), so NaN-ness is compared, and
    # every other value bit for bit.
    for x in (got, into):
        x, w = (np.where(np.isnan(v), np.nan, v) for v in (x, want))
        assert np.array_equal(x.view(np.uint64), w.view(np.uint64)), a.shape


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(
        st.integers(1, 700),
        st.sampled_from([31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513]),
    ),
    tail=st.sampled_from([(), (1,), (3,), (2, 2, 3)]),
    stacked=st.booleans(),
    special_share=st.sampled_from([0.0, 0.02, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_planned_halving_sum_equals_the_recursion_bitwise(n, tail, stacked, special_share, seed):
    rng = np.random.default_rng(seed)
    _assert_same_bits(_summands(rng, n, tail, special_share, stacked and bool(tail)))


@pytest.mark.parametrize("plan_min_rows", [models.PLAN_MIN_ROWS, 4])
def test_halving_sum_bits_for_every_small_n(monkeypatch, plan_min_rows):
    # at 4 the plan also takes every sum the inline base case does not
    monkeypatch.setattr(models, "PLAN_MIN_ROWS", plan_min_rows)
    rng = np.random.default_rng(21)
    for n in range(1, 80):
        for tail, stacked in (((), False), ((5,), True), ((3, 2, 2), True)):
            _assert_same_bits(_summands(rng, n, tail, 0.1, stacked))
        _assert_same_bits(np.full((n, 2), -0.0))  # a sum of -0.0 keeps its sign


def _mlp_reference(model, theta, X, y):
    """Batch-mean losses (K,) and gradient (K, P) of an MLP stack, by the form
    with separate weight and bias sums: contiguous layer inputs, and per layer
    one halving sum of the (in, out) product and one of the output gradient."""
    X, y = models._duplicate_single(X, y)
    k, n = y.shape
    layers = []
    offset = 0
    for fan_in, fan_out in zip(model.widths, model.widths[1:]):
        w = theta[:, offset : offset + fan_in * fan_out].reshape(k, fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, theta[:, offset : offset + fan_out]))
        offset += fan_out
    acts, pre = [X], []
    for i, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w) + b[:, None, :]
        pre.append(z)
        if i < len(layers) - 1:
            acts.append(np.maximum(z, 0.0) if model.activation == "relu" else np.tanh(z))
    picked = (np.arange(k)[:, None], np.arange(n), y)
    zmax = pre[-1].max(axis=2, keepdims=True)
    probs = np.exp(pre[-1] - zmax)
    total = probs.sum(axis=2, keepdims=True)
    data = zmax[:, :, 0] + np.log(total[:, :, 0]) - pre[-1][picked]
    value = models._halving_sum(data.swapaxes(0, 1)) / n + 0.5 * model.l2 * models._rowdot(theta)
    delta = probs / total
    delta[picked] -= 1.0
    delta /= n
    parts = []
    for i in range(len(layers) - 1, -1, -1):
        gw = models._halving_sum((acts[i][:, :, :, None] * delta[:, :, None, :]).swapaxes(0, 1))
        parts[:0] = [gw.reshape(k, -1), models._halving_sum(delta.swapaxes(0, 1))]
        if i > 0:
            upstream = np.matmul(delta, layers[i][0].transpose(0, 2, 1))
            if model.activation == "relu":
                delta = upstream * (pre[i - 1] > 0.0)
            else:
                delta = upstream * (1.0 - np.tanh(pre[i - 1]) ** 2)
    grad = np.concatenate(parts, axis=1)
    grad += model.l2 * theta
    return value, grad


def _assert_mlp_matches_reference(model, k, b, seed):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((k, build_layout(model).total_params)) * 0.5
    X = rng.standard_normal((k, b, model.input_dim))
    y = rng.integers(0, model.num_classes, size=(k, b))
    value, grad = _mlp_reference(model, theta, X, y)
    got = loss_and_grad(model, theta, X, y)
    assert got.value.tobytes() == value.tobytes()
    assert got.grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("k", [1, 5, 200])
@pytest.mark.parametrize("b", [1, 2, 5, 33])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_mlp_gradient_from_one_sum_per_layer_keeps_the_separate_sums_bits(activation, b, k):
    # one halving sum of the product with delta as its last row gives each
    # layer's weight and bias gradient; b = 1 is evaluated as its duplicate,
    # b = 33 sums by the plan, K = 200 runs in chunks
    model = MlpSpec(10, (16, 16), 10, activation=activation, l2=0.01)
    assert (k == 200) == (k > models.stack_rows(model, max(b, 2), True))
    _assert_mlp_matches_reference(model, k, b, seed=100 * b + k)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_mlp_gradient_from_one_sum_per_layer_in_a_chunked_stack(monkeypatch, activation):
    # five rows of a deeper net in chunks of 2, 2 and 1
    model = MlpSpec(7, (16, 16, 16), 5, activation=activation, l2=0.1)
    monkeypatch.setattr(models, "STACK_ELEMENTS", 2 * 3 * (2 * (7 + 48 + 5) + 17 * 16))
    assert models.stack_rows(model, 3, True) == 2
    _assert_mlp_matches_reference(model, 5, 3, seed=41)


def test_mu_l_exact_trivial_cases():
    model = RidgeSpec(input_dim=2, l2=0.3)
    mu, L = mu_L_exact(model, np.zeros((4, 2)))
    assert mu == pytest.approx(0.3, abs=1e-14)
    assert L == pytest.approx(0.3, abs=1e-14)
    model1 = RidgeSpec(input_dim=1, l2=0.1)
    mu, L = mu_L_exact(model1, np.array([[1.0]]))
    assert mu == pytest.approx(1.1, abs=1e-12)
    assert L == pytest.approx(1.1, abs=1e-12)


def test_mu_l_exact_matches_dense_eigensolver():
    rng = np.random.default_rng(13)
    for _ in range(5):
        X = rng.standard_normal((40, 5))
        model = RidgeSpec(input_dim=5, l2=0.7)
        mu, L = mu_L_exact(model, X)
        h = X.T @ X / X.shape[0] + 0.7 * np.eye(5)
        evals = np.linalg.eigvalsh(h)
        assert abs(mu - evals[0]) <= 1e-10
        assert abs(L - evals[-1]) <= 1e-10


def test_jacobi_matches_eigh():
    rng = np.random.default_rng(14)
    for dim in (1, 2, 3, 8, 20):
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        got = jacobi_eigenvalues(a)
        want = np.linalg.eigvalsh(a)
        assert np.allclose(got, want, rtol=0, atol=1e-10)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_erm_zero_targets():
    model = RidgeSpec(input_dim=3, l2=0.5)
    rng = np.random.default_rng(15)
    X = rng.standard_normal((20, 3))
    theta = erm_closed_form(model, X, np.zeros(20))
    assert np.array_equal(theta.values, np.zeros(3))


def test_erm_scalar_hand_case():
    model = RidgeSpec(input_dim=1, l2=1.0)
    theta = erm_closed_form(model, np.array([[1.0]]), np.array([1.0]))
    assert theta.values[0] == pytest.approx(0.5, abs=1e-15)


def test_erm_first_order_optimality():
    rng = np.random.default_rng(16)
    for _ in range(5):
        model = RidgeSpec(input_dim=4, l2=0.4)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        theta = erm_closed_form(model, X, y)
        g = loss_and_grad(model, theta, X, y).grad.values
        assert float(np.linalg.norm(g)) <= 1e-8


def test_erm_singular_without_regularization():
    model = RidgeSpec(input_dim=2, l2=0.0)
    X = np.array([[1.0, 0.0]])  # rank deficient
    with pytest.raises(ValueError):
        erm_closed_form(model, X, np.array([1.0]))


def test_population_risk_noise_floor():
    # theta = theta*, l2 = 0: only the noise term survives
    model = RidgeSpec(input_dim=3, l2=0.0)
    coef = np.array([1.0, -2.0, 0.5])
    p = _ridge_vec(coef, model)
    got = population_risk_closed_form(model, p, np.eye(3), coef, 0.7)
    assert got == pytest.approx(0.5 * 0.7**2, abs=1e-15)


def test_population_risk_hand_case():
    model = RidgeSpec(input_dim=2, l2=0.0)
    p = _ridge_vec([3.0, 4.0], model)
    got = population_risk_closed_form(model, p, np.eye(2), np.zeros(2), 0.0)
    assert got == pytest.approx(12.5, abs=1e-12)


def test_population_risk_matches_monte_carlo():
    from fedsim.data import GaussianLinear
    from fedsim.metrics import sample_losses

    cov = np.array([[1.0, 0.3], [0.3, 2.0]])
    coef = np.array([0.8, -1.2])
    spec = GaussianLinear(covariance=cov, client_coefs=coef[None, :], noise_std=0.5, seed=21)
    model = RidgeSpec(input_dim=2, l2=0.25)
    p = _ridge_vec([0.2, 0.4], model)
    exact = population_risk_closed_form(model, p, cov, coef, 0.5)
    gen = np.random.default_rng(22)
    X, y = spec.sample(10**6, 0, gen)
    losses = sample_losses(model, p, X, y)
    se = float(np.std(losses, ddof=1) / np.sqrt(losses.shape[0]))
    assert abs(float(np.mean(losses)) - exact) <= 3 * se


def test_strong_convexity_and_smoothness():
    rng = np.random.default_rng(17)
    model = RidgeSpec(input_dim=4, l2=0.6)
    X = rng.standard_normal((50, 4))
    y = rng.standard_normal(50)
    mu, L = mu_L_exact(model, X)
    lay = build_layout(model)
    for _ in range(100):
        a = ParamVector(rng.standard_normal(4), lay)
        b = ParamVector(rng.standard_normal(4), lay)
        ra = loss_and_grad(model, a, X, y)
        rb = loss_and_grad(model, b, X, y)
        d = b.values - a.values
        lower = ra.value + float(ra.grad.values @ d) + 0.5 * mu * float(d @ d)
        assert rb.value >= lower - 1e-9  # absolute tolerance
        gd = ra.grad.values - rb.grad.values
        lhs = float(gd @ gd)
        rhs = L * L * float(d @ d)
        assert lhs <= rhs * (1.0 + 1e-9)  # relative tolerance


def test_build_layout_blocks():
    model = MlpSpec(input_dim=4, hidden=(5, 6), num_classes=3, l2=0.0)
    lay = build_layout(model, representation_layers=2)
    names = [b.name for b in lay.blocks]
    assert names == ["layer0", "layer1", "layer2"]
    assert [b.length for b in lay.blocks] == [4 * 5 + 5, 5 * 6 + 6, 6 * 3 + 3]
    assert [b.role for b in lay.blocks] == [Role.REPRESENTATION, Role.REPRESENTATION, Role.HEAD]
    ridge_lay = build_layout(RidgeSpec(input_dim=3, l2=0.0))
    assert [b.name for b in ridge_lay.blocks] == ["coef"]
    assert ridge_lay.blocks[0].role == Role.HEAD


def test_init_params_deterministic_and_scaled():
    model = MlpSpec(input_dim=4, hidden=(5,), num_classes=3, l2=0.0)
    lay = build_layout(model)
    a = init_params(model, lay, substream(9, 3))
    b = init_params(model, lay, substream(9, 3))
    assert np.array_equal(a.values, b.values)
    # biases start at zero
    assert np.array_equal(a.values[4 * 5 : 4 * 5 + 5], np.zeros(5))
    assert float(np.std(a.values[: 4 * 5])) < 1.0
    # layer by layer from the one stream: Glorot-scaled weights, then zero biases
    gen, want = substream(9, 3), []
    for fan_in, fan_out in ((4, 5), (5, 3)):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        want += [(gen.standard_normal((fan_in, fan_out)) * scale).ravel(), np.zeros(fan_out)]
    assert np.array_equal(a.values, np.concatenate(want))


def test_predict_shapes_and_values():
    rng = np.random.default_rng(18)
    model = RidgeSpec(input_dim=2, l2=0.0)
    p = _ridge_vec([1.0, -1.0], model)
    out = predict(model, p, [[2.0, 1.0]])
    assert out.shape == (1,) and out[0] == pytest.approx(1.0)
    lmodel = LogisticL2Spec(input_dim=2, l2=0.0)
    lp = ParamVector(np.array([1.0, 0.0]), build_layout(lmodel))
    lab = predict(lmodel, lp, [[3.0, 0.0], [-3.0, 0.0]])
    assert np.array_equal(lab, [1.0, -1.0])
    mmodel, mparams = _make("mlp_relu", rng)
    mx = rng.standard_normal((4, mmodel.input_dim))
    mout = predict(mmodel, mparams, mx)
    assert mout.shape == (4,)
    assert set(np.unique(mout)).issubset(set(range(mmodel.num_classes)))
