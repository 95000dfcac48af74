"""verify_theorem1's Monte Carlo means against their exact values: in the
ridgeless limit, l2 = 1e-10 and n > d + 1, where every local ERM is OLS, and
in one dimension for any l2 > 0.

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
1e-10 and is left out.

In one dimension the same means have exact values for any l2 > 0. With
x ~ N(0, s2), S = sum x_i^2 ~ s2 chi2_n and u | S ~ N(0, S), the local ERM is
theta_k = T_k / (S_k + a) with T_k = c_k S_k + sigma u_k and a = n l2, and the
penalized empirical risk is R_k(theta) = ((S_k + a) theta^2 - 2 theta T_k + Y_k)
/ (2n), with E[Y_k] = n (c_k^2 s2 + sigma^2). Every mean is then a sum of
products of the moments M(p, q) = E[S^p / (S + a)^q], one-dimensional
integrals against the chi-square density, because the clients are
independent and E[u | S] = 0. The trapezoid rule on a grid of log S computes
each moment: the integrand decays doubly exponentially at both ends, and the
result agrees with scipy.integrate.quad to 2e-15 relative for n from 2 to 50.
Each reported mean must lie within 4 of its stderrs of its exact value.
"""

import math

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


def _exact_d1(s2, coefs, noise, n, l2, weights):
    """The exact E[lhs], E[Delta_k] (K,) and E[delta_k] (K,) for d = 1 and l2 > 0."""
    w, c = np.asarray(weights), np.asarray(coefs)
    a, es = n * l2, n * s2  # es = E[S]

    t, h = np.linspace(-40.0, 7.0, 4001, retstep=True)  # log of S / s2
    v = np.exp(t)
    density = np.exp(n / 2 * np.log(v / 2) - v / 2 - math.lgamma(n / 2))  # chi2_n pdf times v

    def moment(p, q):  # the trapezoid rule on the grid
        f = (s2 * v) ** p / (s2 * v + a) ** q * density
        return h * (f.sum() - 0.5 * (f[0] + f[-1]))

    m11, m12, m21, m22 = moment(1, 1), moment(1, 2), moment(2, 1), moment(2, 2)
    mean = c * m11  # E[theta_k]
    second = c**2 * m22 + noise**2 * m12  # E[theta_k^2]
    var = second - mean**2
    curv = c**2 * m21 + noise**2 * m11  # E[(S_k + a) theta_k^2] = E[T_k^2 / (S_k + a)]
    ey = n * (c**2 * s2 + noise**2)  # E[Y_k]
    agg_mean = w @ mean
    agg_second = w**2 @ var + agg_mean**2  # E[theta_w^2]
    # D_k = theta_w - w_k theta_k is independent of client k's sample
    d_mean = agg_mean - w * mean
    d_second = agg_second - agg_mean**2 - w**2 * var + d_mean**2

    def pop(m1, m2):  # E of the population risk at a model with moments m1, m2
        return 0.5 * s2 * (m2 - 2 * c * m1 + c**2) + 0.5 * noise**2 + 0.5 * l2 * m2

    gap = pop(mean, second) - (ey - curv) / (2 * n)
    # R_k(theta_w) - R_k(theta_k) = (S_k + a) (theta_w - theta_k)^2 / (2n)
    excess = ((es + a) * d_second - 2 * (1 - w) * d_mean * c * es + (1 - w) ** 2 * curv) / (2 * n)
    emp_agg = (
        w**2 * curv + 2 * w * d_mean * c * es + (es + a) * d_second
        - 2 * (w * curv + d_mean * c * es) + ey
    ) / (2 * n)
    lhs = w @ (pop(agg_mean, agg_second) - emp_agg)
    return lhs, gap, excess


def _report(cov, coefs, noise, n, l2, weights, trials, seed):
    """verify_theorem1's report and the (K, d) client coefficients."""
    k = len(weights)
    gen = GaussianLinear(covariance=np.asarray(cov), client_coefs=coefs, noise_std=noise, seed=0)
    config = BoundTrialConfig(gen, k, n, l2, trials, seed, weights=np.asarray(weights))
    return verify_theorem1(config), np.stack([gen.coef_for(j) for j in range(k)])


def _assert_within_4_stderrs(report, lhs, gap, excess):
    checks = [("lhs", report.lhs, report.lhs_stderr, lhs)]
    for j in range(report.num_clients):
        checks.append((f"Delta_{j}", report.local_gen[j]["mean"], report.local_gen[j]["stderr"], gap[j]))
        checks.append((f"delta_{j}", report.non_iid[j]["mean"], report.non_iid[j]["stderr"], excess[j]))
    for name, mean, stderr, want in checks:
        assert abs(mean - want) <= 4.0 * stderr, f"{name}: {mean} vs exact {want}, stderr {stderr}"


def _assert_ridgeless(cov, coefs, noise, n, weights, trials, seed):
    report, full = _report(cov, coefs, noise, n, L2, weights, trials, seed)
    _assert_within_4_stderrs(report, *_exact(np.asarray(cov), full, noise, n, weights))


def _assert_d1(s2, coefs, noise, n, l2, weights, trials, seed):
    report, full = _report([[s2]], coefs, noise, n, l2, weights, trials, seed)
    _assert_within_4_stderrs(report, *_exact_d1(s2, full[:, 0], noise, n, l2, weights))


def test_uniform_weights_and_a_shared_coefficient():
    # every client draws from one law, so delta_k is all noise
    cov = np.diag([1.0, 0.5, 2.0])
    _assert_ridgeless(cov, [[0.5, -1.0, 2.0]], 0.7, 12, [1 / 3] * 3, 3000, seed=5)


def test_weights_a_full_covariance_and_spread_coefficients():
    a = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, -0.3], [0.0, -0.3, 0.5]])
    cov = a @ a.T + 0.2 * np.eye(3)
    coefs = [[0.5, 0.0, -0.25], [-0.25, 0.75, 0.0], [0.1, -0.2, 0.5]]
    # the spread makes lhs noisy; the noise level keeps its stderr near 2%
    _assert_ridgeless(cov, coefs, 1.0, 10, [0.6, 0.3, 0.1], 3000, seed=6)


def test_d1_uniform_weights_and_a_shared_coefficient():
    # l2 n = 4 against E[S] = 12: the ridge shrinkage is far from OLS
    _assert_d1(1.5, [[0.7]], 0.8, 8, 0.5, [1 / 3] * 3, 2000, seed=3)


def test_d1_weights_and_spread_coefficients():
    # l2 n = 24 against E[S] = 8.4: most of each ERM is shrinkage
    _assert_d1(0.7, [[0.5], [-1.0], [1.5]], 1.0, 12, 2.0, [0.6, 0.3, 0.1], 2000, seed=4)
