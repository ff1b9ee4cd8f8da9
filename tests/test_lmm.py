"""Linear mixed model: analytic pieces vs explicit-matrix and
finite-difference oracles."""

import numpy as np
import pytest

from scorefim import Design, conditional_score_fim, finite_diff_score, simulate_dataset
from scorefim.errors import DomainViolation
from scorefim.modelbase import validate_params
from scorefim.models import lmm_analytic_fim
from scorefim.rng import substream
from scorefim.saem import individual_delta


def _explicit_marginal(theta, y):
    """Oracle: marginal loglik/score/hessian via explicit V inversion and
    finite differences, no Sherman-Morrison shortcuts."""
    J = y.size

    def loglik(vals):
        beta, eta2, sigma2 = vals
        V = sigma2 * np.eye(J) + eta2 * np.ones((J, J))
        r = y - beta
        sign, logdet = np.linalg.slogdet(V)
        return -0.5 * (J * np.log(2 * np.pi) + logdet + r @ np.linalg.inv(V) @ r)

    vals = np.asarray(theta.values)
    h = 1e-5 * np.maximum(1.0, np.abs(vals))
    grad = np.zeros(3)
    hess = np.zeros((3, 3))
    for a in range(3):
        ea = np.eye(3)[a] * h[a]
        grad[a] = (loglik(vals + ea) - loglik(vals - ea)) / (2 * h[a])
        for b in range(3):
            eb = np.eye(3)[b] * h[b]
            hess[a, b] = (
                loglik(vals + ea + eb) - loglik(vals + ea - eb)
                - loglik(vals - ea + eb) + loglik(vals - ea - eb)
            ) / (4 * h[a] * h[b])
    return loglik(vals), grad, hess


def test_validate_params(lmm):
    validate_params(lmm, lmm.make_params([3.0, 2.0, 5.0]))
    with pytest.raises(DomainViolation) as err:
        validate_params(lmm, lmm.make_params([3.0, -1.0, 5.0]))
    assert err.value.component == "eta2"


def test_complete_score_matches_finite_differences(lmm, lmm_theta):
    rng = substream(7, 0)
    for _ in range(10):
        ds = lmm.simulate(lmm_theta, Design(n=10, n_obs=12), rng)
        Z = rng.normal(size=(10, 1))
        theta = lmm.make_params(
            [rng.normal(3, 1), rng.uniform(0.5, 4), rng.uniform(1, 8)]
        )
        an = lmm.complete_score(ds, Z, theta)
        fd = finite_diff_score(lmm, ds, Z, theta)
        np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-8)


def test_complete_hessian_matches_score_differences(lmm, lmm_data, lmm_theta):
    Z = substream(1, 1).normal(size=(lmm_data.n, 1))
    H = lmm.complete_hessian(lmm_data, Z, lmm_theta)
    vals = lmm_theta.values
    h = 1e-6 * np.maximum(1.0, np.abs(vals))
    for a in range(3):
        ea = np.eye(3)[a] * h[a]
        sp = lmm.complete_score(lmm_data, Z, lmm_theta.replace_values(vals + ea))
        sm = lmm.complete_score(lmm_data, Z, lmm_theta.replace_values(vals - ea))
        np.testing.assert_allclose(H[:, :, a], (sp - sm) / (2 * h[a]), rtol=5e-5, atol=1e-6)


def test_marginal_pieces_match_explicit_oracle(lmm, lmm_theta):
    rng = substream(21, 0)
    ds = lmm.simulate(lmm_theta, Design(n=6, n_obs=12), rng)
    ll = lmm.marginal_loglik(ds, lmm_theta)
    sc = lmm.marginal_score(ds, lmm_theta)
    he = lmm.marginal_hessian(ds, lmm_theta)
    for i, y in enumerate(ds.y):
        l0, g0, h0 = _explicit_marginal(lmm_theta, y)
        assert ll[i] == pytest.approx(l0, rel=1e-12)
        np.testing.assert_allclose(sc[i], g0, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(he[i], h0, rtol=1e-4, atol=1e-5)


def test_theta_free_term_contributes_nothing(lmm, lmm_data, lmm_theta):
    # central differences see only theta-dependence, never the data constant
    Z = np.zeros((lmm_data.n, 1))
    fd = finite_diff_score(lmm, lmm_data, Z, lmm_theta, h=1e-5)
    an = lmm.complete_score(lmm_data, Z, lmm_theta)
    np.testing.assert_allclose(fd, an, rtol=1e-6, atol=1e-8)


def test_expo_family_identity(lmm, lmm_data):
    # complete score == -dpsi + dphi^t S(z) exactly, both code paths
    rng = substream(5, 5)
    for _ in range(5):
        Z = rng.normal(size=(lmm_data.n, 1)) * 2.0
        theta = lmm.make_params(
            [rng.normal(3, 1), rng.uniform(0.5, 4), rng.uniform(1, 8)]
        )
        stats = lmm.statistics(lmm_data, Z)
        delta = individual_delta(lmm, lmm_data, stats, theta)
        direct = lmm.complete_score(lmm_data, Z, theta)
        np.testing.assert_allclose(delta, direct, rtol=1e-12, atol=1e-12)


def test_argmax_complete_stationarity(lmm, lmm_data):
    rng = substream(6, 0)
    for _ in range(5):
        stats = np.column_stack(
            [rng.normal(0, 1, lmm_data.n), rng.uniform(0.5, 3, lmm_data.n)]
        )
        stats[:, 1] += stats[:, 0] ** 2  # keep second moments feasible
        theta_hat = lmm.argmax_complete(lmm_data, stats)
        grad = individual_delta(lmm, lmm_data, stats, theta_hat).sum(axis=0)
        assert np.linalg.norm(grad) < 1e-8


def test_conditional_expected_score_equals_marginal_score(lmm, lmm_data, lmm_theta):
    cond = lmm.conditional_expected_score(lmm_data, lmm_theta)
    marg = lmm.marginal_score(lmm_data, lmm_theta)
    np.testing.assert_allclose(cond, marg, rtol=1e-10, atol=1e-12)


def test_conditional_score_fim_matches_outer_product(lmm, lmm_data, lmm_theta):
    fim = conditional_score_fim(lmm, lmm_data, lmm_theta)
    s = lmm.marginal_score(lmm_data, lmm_theta)
    np.testing.assert_allclose(fim.entries, s.T @ s / lmm_data.n, rtol=1e-10)
    assert fim.provenance == "conditional-score"
    assert fim.is_psd()


def test_analytic_fim_values(lmm_theta):
    fim = lmm_analytic_fim(lmm_theta, 12)
    assert fim.entries[0, 0] == pytest.approx(12.0 / 29.0, abs=1e-14)
    assert fim.entries[0, 1] == 0.0 and fim.entries[0, 2] == 0.0
    # eta2 -> 0 limit: i.i.d. Gaussian information J / sigma2
    small = lmm_analytic_fim(lmm_theta.replace_values([3.0, 1e-12, 5.0]), 12)
    assert small.entries[0, 0] == pytest.approx(12.0 / 5.0, rel=1e-9)


def test_simulate_marginal_variance(lmm, lmm_theta):
    # Var(y_ij) = eta2 + sigma2 = 7, checked against sample moments
    ds = simulate_dataset(lmm, lmm_theta, Design(n=100_000, n_obs=12), seed=42)
    y = ds.y
    v = y.var()
    se = np.sqrt(2.0 / y.size) * 7.0 * 2.0  # generous moment SE bound
    assert abs(v - 7.0) < 3.0 * se + 0.05
    assert ds.latent_truth is not None
    assert np.all(np.isfinite(lmm.complete_loglik(ds, ds.latent_truth, lmm_theta)))


def test_simulate_deterministic(lmm, lmm_theta):
    a = simulate_dataset(lmm, lmm_theta, Design(n=50, n_obs=12), seed=9)
    b = simulate_dataset(lmm, lmm_theta, Design(n=50, n_obs=12), seed=9)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.latent_truth, b.latent_truth)


def test_ragged_designs_supported(lmm, lmm_theta):
    from scorefim.data import Dataset

    rng = substream(3, 3)
    y = np.zeros((3, 12))
    for i, j in enumerate((3, 5, 12)):
        y[i, :j] = rng.normal(3, 2, size=j)
    ds = Dataset.from_arrays(y, n_obs=[3, 5, 12])
    sc = lmm.marginal_score(ds, lmm_theta)
    assert sc.shape == (3, 3)
    Z = rng.normal(size=(3, 1))
    fd = finite_diff_score(lmm, ds, Z, lmm_theta)
    np.testing.assert_allclose(lmm.complete_score(ds, Z, lmm_theta), fd, rtol=1e-6, atol=1e-8)
