"""Two-component Gaussian mixture and its EM fitter."""

import numpy as np
import pytest

from scorefim import Design, conditional_score_fim, finite_diff_score, simulate_dataset
from scorefim.data import Dataset
from scorefim.errors import DomainViolation
from scorefim.modelbase import validate_params
from scorefim.models import gaussian_mixture_em, lmm_analytic_fim
from scorefim.models.gaussian_mixture import GaussianMixtureModel
from scorefim.rng import substream
from scorefim.saem import individual_delta


def test_validate(gmm):
    with pytest.raises(DomainViolation) as err:
        validate_params(gmm, gmm.make_params([1.2, 3.0, 0.0]))
    assert err.value.component == "pi"


def test_complete_score_matches_finite_differences(gmm, gmm_data):
    rng = substream(31, 0)
    for _ in range(5):
        Z = (rng.random((gmm_data.n, 1)) < 0.5).astype(float)
        theta = gmm.make_params([rng.uniform(0.2, 0.8), rng.normal(3, 1), rng.normal(0, 1)])
        an = gmm.complete_score(gmm_data, Z, theta)
        fd = finite_diff_score(gmm, gmm_data, Z, theta)
        np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-6)


def test_marginal_score_matches_finite_differences(gmm, gmm_data, gmm_theta):
    vals = gmm_theta.values
    h = 1e-6 * np.maximum(1.0, np.abs(vals))
    an = gmm.marginal_score(gmm_data, gmm_theta)
    for a in range(3):
        ea = np.eye(3)[a] * h[a]
        lp = gmm.marginal_loglik(gmm_data, gmm_theta.replace_values(vals + ea))
        lm = gmm.marginal_loglik(gmm_data, gmm_theta.replace_values(vals - ea))
        np.testing.assert_allclose(an[:, a], (lp - lm) / (2 * h[a]), rtol=1e-5, atol=1e-7)


def test_marginal_hessian_matches_finite_differences(gmm, gmm_data, gmm_theta):
    vals = gmm_theta.values
    h = 2e-6 * np.maximum(1.0, np.abs(vals))
    H = gmm.marginal_hessian(gmm_data, gmm_theta)
    for a in range(3):
        ea = np.eye(3)[a] * h[a]
        sp = gmm.marginal_score(gmm_data, gmm_theta.replace_values(vals + ea))
        sm = gmm.marginal_score(gmm_data, gmm_theta.replace_values(vals - ea))
        np.testing.assert_allclose(H[:, :, a], (sp - sm) / (2 * h[a]), rtol=2e-4, atol=1e-5)


def test_conditional_expected_score_equals_marginal(gmm, gmm_data, gmm_theta):
    cond = gmm.conditional_expected_score(gmm_data, gmm_theta)
    marg = gmm.marginal_score(gmm_data, gmm_theta)
    np.testing.assert_allclose(cond, marg, rtol=1e-10, atol=1e-12)


def test_expo_family_identity(gmm, gmm_data, gmm_theta):
    rng = substream(31, 1)
    Z = (rng.random((gmm_data.n, 1)) < 0.4).astype(float)
    stats = gmm.statistics(gmm_data, Z)
    delta = individual_delta(gmm, gmm_data, stats, gmm_theta)
    direct = gmm.complete_score(gmm_data, Z, gmm_theta)
    np.testing.assert_allclose(delta, direct, rtol=1e-12, atol=1e-12)


def test_em_loglik_monotone(gmm, gmm_theta):
    rng = substream(32, 0)
    for trial in range(100):
        n = int(rng.integers(20, 120))
        ds = gmm.simulate(gmm_theta, Design(n=n), rng)
        theta0 = gmm.make_params(
            [rng.uniform(0.1, 0.9), rng.normal(2, 2), rng.normal(0, 2)]
        )
        res = gaussian_mixture_em(ds, theta0, tol=1e-8, max_iter=300)
        gains = np.diff(res.loglik_path)
        assert np.all(gains >= -1e-10)


def _log_terms(y, theta):
    pi, mu1, mu2 = theta.values
    return np.log1p(-pi) - 0.5 * (y - mu1) ** 2, np.log(pi) - 0.5 * (y - mu2) ** 2


def _responsibility(y, theta):
    l1, l2 = _log_terms(y, theta)
    return np.exp(l2 - np.logaddexp(l1, l2))


def _em_two_calls(ds, theta0, tol, max_iter):
    """EM as written before each iterate's log terms were shared: the
    responsibilities and the marginal log-likelihood from their own calls."""
    gmm = GaussianMixtureModel()
    y = ds.y[:, 0]

    def loglik(theta):
        return float((np.logaddexp(*_log_terms(y, theta)) - 0.5 * np.log(2.0 * np.pi)).sum())

    theta, path, converged = theta0, [loglik(theta0)], False
    for _ in range(max_iter):
        r = _responsibility(y, theta)
        mass2 = r.sum()
        mass1 = ds.n - mass2
        pi, mu1, mu2 = theta.values
        if mass2 > 0:
            mu2 = float(r @ y / mass2)
        if mass1 > 0:
            mu1 = float((1.0 - r) @ y / mass1)
        pi = float(np.clip(mass2 / ds.n, 1e-12, 1.0 - 1e-12))
        theta = gmm.make_params([pi, mu1, mu2])
        path.append(loglik(theta))
        if path[-1] - path[-2] < tol:
            converged = True
            break
    return theta, path[-1], len(path) - 1, converged, np.array(path)


def test_em_matches_the_two_call_form_bit_for_bit(gmm, gmm_theta):
    # EM computes each iterate's log terms once, for its log-likelihood and
    # the next responsibilities, and the marginal Hessian its
    # responsibilities once; both give the bits of the two-call form
    rng = substream(34, 0)
    for trial in range(12):
        ds = gmm.simulate(gmm_theta, Design(n=750), rng)
        theta0 = gmm.make_params([rng.uniform(0.1, 0.9), rng.normal(2, 2), rng.normal(0, 2)])
        max_iter = 3 if trial == 0 else 2000  # one fit stops at its limit
        res = gaussian_mixture_em(ds, theta0, tol=1e-8, max_iter=max_iter)
        theta, loglik, n_iter, converged, path = _em_two_calls(ds, theta0, 1e-8, max_iter)
        assert converged == res.converged == (trial > 0)
        np.testing.assert_array_equal(res.theta.values, theta.values)
        np.testing.assert_array_equal(res.loglik_path, path)
        assert (res.loglik, res.n_iter) == (loglik, n_iter)
        pi, mu1, mu2 = theta.values
        y = ds.y[:, 0]
        r = _responsibility(y, theta)
        np.testing.assert_array_equal(gmm.responsibility(ds, theta), r)
        s = np.column_stack([r / pi - (1.0 - r) / (1.0 - pi), (1.0 - r) * (y - mu1), r * (y - mu2)])
        np.testing.assert_array_equal(gmm.marginal_score(ds, theta), s)
        H = -np.einsum("ij,ik->ijk", s, s)
        H[:, 0, 1] += -(1.0 - r) * (y - mu1) / (1.0 - pi)
        H[:, 1, 0] = H[:, 0, 1]
        H[:, 0, 2] += r * (y - mu2) / pi
        H[:, 2, 0] = H[:, 0, 2]
        H[:, 1, 1] += (1.0 - r) * ((y - mu1) ** 2 - 1.0)
        H[:, 2, 2] += r * ((y - mu2) ** 2 - 1.0)
        np.testing.assert_array_equal(gmm.marginal_hessian(ds, theta), H)


def test_em_degenerate_single_component(gmm):
    rng = substream(33, 0)
    y = rng.normal(1.5, 1.0, size=200)
    ds = Dataset.from_arrays(y[:, None])
    theta0 = gmm.make_params([1.0 - 1e-12, 0.0, 0.0])
    res = gaussian_mixture_em(ds, theta0, tol=1e-14, max_iter=1)
    # all mass on the second component: its mean is the sample mean in one step
    assert res.theta["mu2"] == pytest.approx(y.mean(), abs=1e-9)


def test_em_recovers_truth_within_3se(gmm, gmm_theta):
    ds = simulate_dataset(gmm, gmm_theta, Design(n=750), seed=202)
    res = gaussian_mixture_em(ds, gmm.make_params([0.5, 2.0, 1.0]))
    theta_hat = gmm.canonicalize(res.theta)
    fim = conditional_score_fim(gmm, ds, theta_hat)
    cov = np.linalg.inv(750 * fim.entries)
    se = np.sqrt(np.diag(cov))
    gap = np.abs(theta_hat.values - gmm_theta.values)
    assert np.all(gap <= 3.0 * se)


def test_em_label_swap_invariance(gmm, gmm_theta):
    ds = simulate_dataset(gmm, gmm_theta, Design(n=400), seed=203)
    res1 = gaussian_mixture_em(ds, gmm.make_params([0.3, 4.0, -1.0]))
    res2 = gaussian_mixture_em(ds, gmm.make_params([0.7, -1.0, 4.0]))
    t1 = gmm.canonicalize(res1.theta).values
    t2 = gmm.canonicalize(res2.theta).values
    np.testing.assert_allclose(t1, t2, atol=1e-6)


def test_canonicalize_is_involution_on_good_labels(gmm):
    theta = gmm.make_params([0.25, 5.0, 1.0])
    assert gmm.canonicalize(theta) is theta
    swapped = gmm.make_params([0.75, 1.0, 5.0])
    np.testing.assert_allclose(gmm.canonicalize(swapped).values, theta.values)


def test_em_needs_two_points(gmm):
    ds = Dataset.from_arrays(np.array([[1.0]]))
    with pytest.raises(DomainViolation):
        gaussian_mixture_em(ds, gmm.make_params([0.5, 1.0, 0.0]))
