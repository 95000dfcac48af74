"""verify_theorem1's Monte Carlo means against their exact values in the
ridgeless limit: l2 = 1e-10 and n > d + 1, where every local ERM is OLS.

For a Gaussian design, E[(X^T X)^-1] = Sigma^-1 / (n - d - 1), the
inverse-Wishart mean (Breiman & Freedman 1983; Hastie, Montanari, Rosset &
Tibshirani 2022). For noise sigma, weights w and client coefficients c_k,
with c_w = sum_j w_j c_j and m = n - d - 1, this gives

    E[lhs]     = sigma^2 d / 2 * sum_k w_k [w_k (2 - w_k) / n + w_k^2 / m]
    E[Delta_k] = sigma^2 d / 2 * [1 / n + 1 / m]
    E[delta_k] = (c_k - c_w)^T Sigma (c_k - c_w) / 2
                 + sigma^2 d / 2 * [(1 - w_k)^2 / n + (sum_j w_j^2 - w_k^2) / m]

so E[lhs] does not depend on the coefficients, and only delta_k does. The
penalty's share of delta_k, l2 / 2 * E[|theta_w|^2 - |theta_k|^2], is of order
1e-10 and is left out. Each reported mean must lie within 4 of its stderrs of
its exact value.
"""

import numpy as np

from fedsim.bounds import BoundTrialConfig, verify_theorem1
from fedsim.data import GaussianLinear

L2 = 1e-10


def _exact(cov, coefs, noise, n, weights):
    """The exact E[lhs], E[Delta_k] (K,) and E[delta_k] (K,)."""
    d = cov.shape[0]
    w = np.asarray(weights)
    m = n - d - 1
    scale = 0.5 * noise**2 * d
    lhs = scale * np.sum(w * (w * (2.0 - w) / n + w**2 / m))
    gap = np.full(w.shape, scale * (1.0 / n + 1.0 / m))
    spread = coefs - w @ coefs
    drift = 0.5 * np.einsum("ki,ij,kj->k", spread, cov, spread)
    excess = drift + scale * ((1.0 - w) ** 2 / n + (np.sum(w**2) - w**2) / m)
    return lhs, gap, excess


def _assert_within_4_stderrs(cov, coefs, noise, n, weights, trials, seed):
    k = len(weights)
    gen = GaussianLinear(covariance=cov, client_coefs=coefs, noise_std=noise, seed=0)
    config = BoundTrialConfig(gen, k, n, L2, trials, seed, weights=np.asarray(weights))
    report = verify_theorem1(config)
    lhs, gap, excess = _exact(cov, np.stack([gen.coef_for(j) for j in range(k)]), noise, n, weights)
    checks = [("lhs", report.lhs, report.lhs_stderr, lhs)]
    for j in range(k):
        checks.append((f"Delta_{j}", report.local_gen[j]["mean"], report.local_gen[j]["stderr"], gap[j]))
        checks.append((f"delta_{j}", report.non_iid[j]["mean"], report.non_iid[j]["stderr"], excess[j]))
    for name, mean, stderr, want in checks:
        assert abs(mean - want) <= 4.0 * stderr, f"{name}: {mean} vs exact {want}, stderr {stderr}"


def test_uniform_weights_and_a_shared_coefficient():
    # every client draws from one law, so delta_k is all noise
    cov = np.diag([1.0, 0.5, 2.0])
    _assert_within_4_stderrs(cov, [[0.5, -1.0, 2.0]], 0.7, 12, [1 / 3] * 3, 3000, seed=5)


def test_weights_a_full_covariance_and_spread_coefficients():
    a = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, -0.3], [0.0, -0.3, 0.5]])
    cov = a @ a.T + 0.2 * np.eye(3)
    coefs = [[0.5, 0.0, -0.25], [-0.25, 0.75, 0.0], [0.1, -0.2, 0.5]]
    # the spread makes lhs noisy; the noise level keeps its stderr near 2%
    _assert_within_4_stderrs(cov, coefs, 1.0, 10, [0.6, 0.3, 0.1], 3000, seed=6)

