"""Bound assembly, Monte Carlo verification, and participation identities."""

import tracemalloc

import numpy as np
import pytest

from fedsim.bounds import (
    BoundTrialConfig,
    first_term_coefficient,
    one_round_fedavg_erm,
    sum_weight_cubes,
    theorem1_rhs,
    verify_participation_identities,
    verify_theorem1,
)
from fedsim import models
from fedsim import rng as streams
from fedsim.bounds import _mean_stderr
from fedsim.data import GaussianLinear
from fedsim.metrics import sample_losses
from fedsim.models import (
    RidgeSpec,
    build_layout,
    erm_closed_form,
    jacobi_eigenvalues,
    loss_and_grad,
    population_risk_closed_form,
)
from fedsim.params import ParamVector, weighted_average


def _generator(dim=2, num_clients=3, spread=0.0, noise=0.5, seed=0):
    base = np.linspace(0.5, 1.0, dim)
    coefs = np.stack([base + spread * k for k in range(num_clients)]) if spread else base[None, :]
    return GaussianLinear(covariance=np.eye(dim), client_coefs=coefs, noise_std=noise, seed=seed)


def _config(**kw):
    args = dict(
        generator=_generator(), num_clients=3, n_per_client=30, l2=0.5, trials=120, seed=17
    )
    args.update(kw)
    return BoundTrialConfig(**args)


def test_one_round_deterministic_and_aggregated():
    cfg = _config()
    data_a, _, locals_a, theta_a = one_round_fedavg_erm(cfg, range(4, 5))
    data_b, _, locals_b, theta_b = one_round_fedavg_erm(cfg, range(4, 5))
    assert np.array_equal(theta_a, theta_b)
    assert np.array_equal(data_a, data_b)
    _, _, _, theta_c = one_round_fedavg_erm(cfg, range(5, 6))
    assert not np.array_equal(theta_a, theta_c)
    layout = build_layout(RidgeSpec(2, cfg.l2))
    redo = weighted_average([ParamVector(v, layout) for v in locals_a[0]], cfg.weights)
    assert np.array_equal(theta_a[0], redo.values)


def test_one_round_single_client_returns_local():
    cfg = _config(generator=_generator(num_clients=1), num_clients=1)
    _, _, locals_, theta_hat = one_round_fedavg_erm(cfg, range(0, 1))
    assert np.array_equal(theta_hat[0], locals_[0, 0])


def test_one_round_block_rows_equal_single_trials():
    # one block of trials equals one call per trial, and its aggregates equal
    # weighted_average of each trial's locals, with non-uniform weights
    cfg = _config(generator=_generator(spread=0.4), weights=np.array([0.5, 0.3, 0.2]))
    X, y, locals_, theta_hat = one_round_fedavg_erm(cfg, range(3, 10))
    assert X.shape == (7, 3, 30, 2) and y.shape == (7, 3, 30)
    assert locals_.shape == (7, 3, 2) and theta_hat.shape == (7, 2)
    layout = build_layout(RidgeSpec(2, cfg.l2))
    for i, t in enumerate(range(3, 10)):
        parts = one_round_fedavg_erm(cfg, range(t, t + 1))
        for block_part, trial_part in zip((X, y, locals_, theta_hat), parts):
            assert np.array_equal(block_part[i], trial_part[0])
        redo = weighted_average([ParamVector(v, layout) for v in locals_[i]], cfg.weights)
        assert np.array_equal(theta_hat[i], redo.values)


def test_sum_weight_cubes():
    assert sum_weight_cubes(np.full(4, 0.25)) == 0.0625
    w = np.array([0.5, 0.3, 0.2])
    assert sum_weight_cubes(w) == pytest.approx(0.125 + 0.027 + 0.008, rel=1e-15)


def test_first_term_coefficient_quarter_scaling_exact():
    # doubling K multiplies the uniform coefficient by exactly 0.25
    for k in (2, 3, 5, 8):
        small = first_term_coefficient(np.full(k, 1.0 / k), L=1.7, mu=0.3)
        large = first_term_coefficient(np.full(2 * k, 1.0 / (2 * k)), L=1.7, mu=0.3)
        assert 4.0 * large == small, k


def test_theorem1_rhs_hand_case():
    rhs, first, cross = theorem1_rhs(np.array([1.0]), L=1.0, mu=1.0, gap_means=[4.0], exc_means=[1.0])
    assert first == 4.0 and cross == 4.0 and rhs == 8.0


def test_theorem1_rhs_monotone_in_means():
    rng = np.random.default_rng(2)
    w = np.array([0.5, 0.3, 0.2])
    gaps = rng.uniform(0.1, 1.0, 3)
    excs = rng.uniform(0.1, 1.0, 3)
    base, _, _ = theorem1_rhs(w, 2.0, 0.5, gaps, excs)
    for arr in (gaps, excs):
        for i in range(3):
            bumped = arr.copy()
            bumped[i] += 0.1
            if arr is gaps:
                up, _, _ = theorem1_rhs(w, 2.0, 0.5, bumped, excs)
            else:
                up, _, _ = theorem1_rhs(w, 2.0, 0.5, gaps, bumped)
            assert up > base


def test_theorem1_rhs_clamps_inside_sqrt_only():
    w = np.array([0.6, 0.4])
    rhs, first, cross = theorem1_rhs(w, 2.0, 0.5, [0.3, 0.2], [-0.05, -0.1])
    assert cross == 0.0
    assert rhs == first
    neg_gap, first_ng, _ = theorem1_rhs(w, 2.0, 0.5, [-0.3, 0.2], [0.1, 0.1])
    assert first_ng < first  # raw negative means flow into the linear term


def test_verify_theorem1_small_run():
    report = verify_theorem1(_config())
    assert report.passed
    assert report.slack >= -3.0 * report.lhs_stderr
    assert report.mu == 0.5
    assert report.L >= report.mu
    assert report.max_erm_grad_norm <= 1e-8
    assert report.stderr_fraction == report.lhs_stderr / report.rhs
    assert report.trials == 120 and report.num_clients == 3
    d = report.to_json_dict()
    assert set(d) == {
        "passed", "lhs", "lhs_stderr", "rhs", "slack", "first_term", "cross_term",
        "mu", "L", "stderr_fraction", "max_erm_grad_norm", "trials", "num_clients",
        "n_per_client", "l2", "seed", "weights", "local_gen", "non_iid",
    }
    assert len(d["local_gen"]) == 3 and len(d["non_iid"]) == 3
    assert d["rhs"] == pytest.approx(d["first_term"] + d["cross_term"], rel=1e-12)


def _per_trial_reference(cfg):
    """verify_theorem1's trial loop one trial at a time, on the single forms.

    Returns the per-trial lhs, the per-client gaps and excesses, L and the
    largest ERM gradient norm.
    """
    spec = cfg.generator
    model = RidgeSpec(spec.dim, cfg.l2)
    lhs = np.empty(cfg.trials)
    gaps = np.empty((cfg.trials, cfg.num_clients))
    excs = np.empty((cfg.trials, cfg.num_clients))
    l_max, worst = -np.inf, 0.0
    for t in range(cfg.trials):
        data = []
        for k in range(cfg.num_clients):
            gen = streams.substream(cfg.seed, streams.TRIAL, t, k)
            data.append(spec.sample(cfg.n_per_client, k, gen))
        locals_ = [erm_closed_form(model, x, y) for x, y in data]
        theta_hat = weighted_average(locals_, cfg.weights)
        lhs_t = 0.0
        for k, ((x, y), local) in enumerate(zip(data, locals_)):
            law = (spec.covariance, spec.coef_for(k), spec.noise_std)
            worst = max(worst, float(np.linalg.norm(loss_and_grad(model, local, x, y).grad.values)))
            emp_local = float(np.mean(sample_losses(model, local, x, y)))
            emp_agg = float(np.mean(sample_losses(model, theta_hat, x, y)))
            gaps[t, k] = population_risk_closed_form(model, local, *law) - emp_local
            excs[t, k] = emp_agg - emp_local
            lhs_t += float(cfg.weights[k]) * (
                population_risk_closed_form(model, theta_hat, *law) - emp_agg
            )
        lhs[t] = lhs_t
        union = np.vstack([x for x, _ in data])
        h = union.T @ union / union.shape[0] + cfg.l2 * np.eye(spec.dim)
        l_max = max(l_max, float(jacobi_eigenvalues(h)[-1]))
    return lhs, gaps, excs, l_max, worst


def test_verify_theorem1_equals_per_trial_reference():
    cfg = _config(generator=_generator(spread=0.4), weights=np.array([0.5, 0.3, 0.2]))
    report = verify_theorem1(cfg)
    lhs, gaps, excs, l_max, worst = _per_trial_reference(cfg)
    assert (report.lhs, report.lhs_stderr) == _mean_stderr(lhs)
    assert report.L == l_max and report.max_erm_grad_norm == worst
    for k in range(3):
        mean, se = _mean_stderr(gaps[:, k])
        assert report.local_gen[k] == {"client": k, "mean": mean, "stderr": se}
        mean, se = _mean_stderr(excs[:, k])
        assert report.non_iid[k] == {"client": k, "mean": mean, "stderr": se}


def test_verify_theorem1_independent_of_block_size(monkeypatch):
    # 3 clients x 30 samples x dim 2 = 180 values per trial: blocks of 1, of
    # 7 (120 = 17 * 7 + 1, a ragged last block) and of all 120 trials
    cfg = _config(generator=_generator(spread=0.4), weights=np.array([0.5, 0.3, 0.2]))
    reports = []
    for trials_per_block in (1, 7, 120):
        monkeypatch.setattr(models, "STACK_ELEMENTS", trials_per_block * 180)
        reports.append(verify_theorem1(cfg).to_json_dict())
    assert reports[0] == reports[1] == reports[2]


def test_verify_theorem1_config_validation():
    with pytest.raises(ValueError, match="insufficient trials"):
        _config(trials=10)
    with pytest.raises(ValueError, match="l2"):
        _config(l2=0.0)
    with pytest.raises(ValueError, match="n_per_client"):
        _config(n_per_client=1)
    with pytest.raises(ValueError, match="one weight per client"):
        _config(weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="sum to 1"):
        _config(weights=np.array([0.5, 0.4, 0.4]))
    with pytest.raises(ValueError, match="client_coefs"):
        _config(generator=_generator(num_clients=2, spread=0.1))


def test_verify_theorem1_seed_stability():
    # independent seeds agree on the lhs within Monte Carlo error
    reports = [
        verify_theorem1(_config(trials=150, seed=100 + i, num_clients=2,
                                generator=_generator(num_clients=2), n_per_client=20))
        for i in range(10)
    ]
    lhs = np.array([r.lhs for r in reports])
    se = np.array([r.lhs_stderr for r in reports])
    center = float(np.mean(lhs))
    outliers = int(np.sum(np.abs(lhs - center) > 3.0 * se))
    assert outliers <= 1


def test_verify_theorem1_heterogeneity_raises_excess():
    iid = verify_theorem1(_config(generator=_generator(num_clients=3, spread=0.0)))
    het = verify_theorem1(_config(generator=_generator(num_clients=3, spread=1.5)))
    for k in range(3):
        a, b = iid.non_iid[k], het.non_iid[k]
        gap = b["mean"] - a["mean"]
        assert gap > 3.0 * np.hypot(a["stderr"], b["stderr"]), k


def test_identities_with_replacement_uniform():
    rep = verify_participation_identities(6, 3, "with_replacement", draws=20000, seed=1)
    assert rep.passed
    names = [c["identity"] for c in rep.checks]
    assert names == ["mean", "weighted_mean", "square_weighted_mean"]
    assert rep.checks[0]["analytic"] == 3.5  # mean of 1..6
    assert rep.checks[1]["analytic"] == pytest.approx(3.5 / 3, rel=1e-15)
    assert rep.checks[2]["analytic"] == pytest.approx(3.5 / 9, rel=1e-15)
    for c in rep.checks:
        assert abs(c["diff"]) <= 3.0 * c["stderr"]


def test_identities_with_replacement_degenerate_weights():
    w = np.array([1.0, 0.0, 0.0, 0.0])
    rep = verify_participation_identities(4, 2, "with_replacement", draws=500, seed=2, weights=w)
    assert rep.passed
    assert rep.checks[0]["mc_mean"] == rep.checks[0]["analytic"] == 1.0


def test_identities_without_replacement():
    w = np.array([0.4, 0.3, 0.2, 0.1])
    x = np.array([2.0, -1.0, 0.5, 3.0])
    rep = verify_participation_identities(
        4, 2, "without_replacement", draws=30000, seed=3, weights=w, x=x
    )
    assert rep.passed
    # factor^{j-1} * sum_k w_k^j x_k
    for j, c in zip((1, 2, 3), rep.checks):
        want = (4 / 2) ** (j - 1) * float(np.sum(w**j * x))
        assert c["analytic"] == pytest.approx(want, rel=1e-13), j


def test_identities_degenerate_subset_is_exact():
    rep = verify_participation_identities(5, 5, "without_replacement", draws=50, seed=4)
    assert rep.passed
    for c in rep.checks:
        assert c["diff"] == 0.0 and c["stderr"] == 0.0


def test_identities_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        verify_participation_identities(4, 2, "jackknife", draws=10, seed=0)
    with pytest.raises(ValueError, match="more clients than exist"):
        verify_participation_identities(4, 5, "without_replacement", draws=10, seed=0)
    with pytest.raises(ValueError, match="at least 2 draws"):
        verify_participation_identities(4, 2, "with_replacement", draws=1, seed=0)
    with pytest.raises(ValueError, match="sum to 1"):
        verify_participation_identities(
            3, 2, "with_replacement", draws=10, seed=0, weights=np.array([0.5, 0.4, 0.2])
        )
    with pytest.raises(ValueError, match="one value per client"):
        verify_participation_identities(
            3, 2, "with_replacement", draws=10, seed=0, x=np.array([1.0])
        )


def test_identities_deterministic_per_seed():
    a = verify_participation_identities(5, 3, "with_replacement", draws=1000, seed=9)
    b = verify_participation_identities(5, 3, "with_replacement", draws=1000, seed=9)
    assert a.to_json_dict() == b.to_json_dict()
    c = verify_participation_identities(5, 3, "with_replacement", draws=1000, seed=10)
    assert a.checks[0]["mc_mean"] != c.checks[0]["mc_mean"]


@pytest.mark.parametrize(
    "num_clients, num_sampled, scheme",
    [
        (5, 3, "with_replacement"),
        (5, 5, "with_replacement"),
        (3, 5, "with_replacement"),
        (5, 3, "without_replacement"),
        (5, 5, "without_replacement"),
    ],
)
def test_identities_independent_of_chunk_size(monkeypatch, num_clients, num_sampled, scheme):
    # a chunk row is max(num_clients, num_sampled) elements wide; 200 draws in
    # chunks of 1 row, of 7 rows (200 = 28 * 7 + 4, a ragged last chunk) and
    # of all 200 rows
    width = max(num_clients, num_sampled)
    w = np.array([0.35, 0.25, 0.2, 0.15, 0.05][:num_clients])
    w = w / np.sum(w)
    x = np.array([2.0, -1.0, 0.5, 3.0, -4.0][:num_clients])
    reports = []
    for rows in (1, 7, 200):
        monkeypatch.setattr(models, "STACK_ELEMENTS", rows * width)
        rep = verify_participation_identities(
            num_clients, num_sampled, scheme, draws=200, seed=6, weights=w, x=x
        )
        reports.append(rep.to_json_dict())
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("scheme", ["with_replacement", "without_replacement"])
def test_identities_memory_grows_with_draws_alone(scheme):
    # three per-draw vectors and the reduction's temporaries need about 40
    # bytes a draw; the rest is one chunk of keys and indices. Holding every
    # (draws, K) key and index at once needs 328 and 824 bytes a draw here.
    draws = 50000
    verify_participation_identities(40, 20, scheme, draws=100, seed=3)
    tracemalloc.start()
    try:
        verify_participation_identities(40, 20, scheme, draws=draws, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * draws + 4 * models.STACK_ELEMENTS * 8, peak / draws
