"""Poisson mixture: posterior arithmetic, the conditional-score identity, and
marginal derivatives against independent oracles."""

from fractions import Fraction

import numpy as np
import pytest

from scorefim import Design, conditional_score_fim, finite_diff_score, score_outer_fim, simulate_dataset
from scorefim.data import Dataset
from scorefim.errors import DomainViolation
from scorefim.modelbase import validate_params
from scorefim.models import PoissonMixtureModel
from scorefim.rng import substream
from scorefim.saem import individual_delta


def _single(y):
    return Dataset.from_arrays(np.array([[float(y)]]))


def test_validate_rejects_bad_proportions(poisson):
    with pytest.raises(DomainViolation) as err:
        validate_params(poisson, poisson.make_params([2.0, 5.0, 9.0, 0.3, 0.8]))
    assert err.value.component == "alpha_3"
    with pytest.raises(DomainViolation) as err:
        validate_params(poisson, poisson.make_params([2.0, -5.0, 9.0, 0.3, 0.5]))
    assert err.value.component == "lambda_2"


def test_posterior_exact_arithmetic(poisson, poisson_theta):
    # w_k prop alpha_k e^{-lambda_k} lambda_k^y / y!, evaluated exactly
    y = 2
    w = poisson.posterior(_single(y), poisson_theta)[0]
    lam = [2, 5, 9]
    alpha = [Fraction(3, 10), Fraction(5, 10), Fraction(2, 10)]
    from mpmath import mp, mpf, e

    mp.dps = 60
    raw = [float(alpha[k]) * mpf(lam[k]) ** y * e ** (-lam[k]) for k in range(3)]
    tot = sum(raw)
    expected = np.array([float(r / tot) for r in raw])
    np.testing.assert_allclose(w, expected, rtol=1e-12)
    np.testing.assert_allclose(w, [0.6532, 0.3388, 0.0080], atol=5e-5)


def test_posterior_degenerate_cases():
    single = PoissonMixtureModel(n_components=1)
    theta = single.make_params([4.0])
    assert single.posterior(_single(3), theta)[0] == pytest.approx(1.0)

    equal = PoissonMixtureModel(n_components=3)
    theta = equal.make_params([5.0, 5.0, 5.0, 0.3, 0.5])
    w = equal.posterior(_single(7), theta)[0]
    np.testing.assert_allclose(w, [0.3, 0.5, 0.2], rtol=1e-12)


def test_complete_score_matches_finite_differences(poisson, poisson_data, poisson_theta):
    rng = substream(17, 0)
    for _ in range(5):
        Z = rng.integers(0, 3, size=(poisson_data.n, 1)).astype(float)
        vals = np.concatenate([rng.uniform(1, 10, 3), rng.dirichlet([3, 3, 3])[:2]])
        theta = poisson.make_params(vals)
        an = poisson.complete_score(poisson_data, Z, theta)
        fd = finite_diff_score(poisson, poisson_data, Z, theta)
        np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-6)


def test_marginal_score_matches_finite_differences(poisson, poisson_data, poisson_theta):
    vals = poisson_theta.values
    h = 1e-6 * np.maximum(1.0, np.abs(vals))
    an = poisson.marginal_score(poisson_data, poisson_theta)
    for a in range(5):
        ea = np.eye(5)[a] * h[a]
        lp = poisson.marginal_loglik(poisson_data, poisson_theta.replace_values(vals + ea))
        lm = poisson.marginal_loglik(poisson_data, poisson_theta.replace_values(vals - ea))
        np.testing.assert_allclose(an[:, a], (lp - lm) / (2 * h[a]), rtol=1e-5, atol=1e-7)


def test_marginal_hessian_matches_finite_differences(poisson, poisson_data, poisson_theta):
    vals = poisson_theta.values
    h = 2e-6 * np.maximum(1.0, np.abs(vals))
    H = poisson.marginal_hessian(poisson_data, poisson_theta)
    for a in range(5):
        ea = np.eye(5)[a] * h[a]
        sp = poisson.marginal_score(poisson_data, poisson_theta.replace_values(vals + ea))
        sm = poisson.marginal_score(poisson_data, poisson_theta.replace_values(vals - ea))
        np.testing.assert_allclose(H[:, :, a], (sp - sm) / (2 * h[a]), rtol=2e-4, atol=1e-5)


def test_marginal_hessian_evaluates_the_posterior_once(
    monkeypatch, poisson, poisson_data, poisson_theta
):
    # the score term reuses the Hessian's class probabilities
    calls = []
    posterior = PoissonMixtureModel.posterior

    def counted(self, dataset, theta):
        calls.append(dataset)
        return posterior(self, dataset, theta)

    monkeypatch.setattr(PoissonMixtureModel, "posterior", counted)
    poisson.marginal_hessian(poisson_data, poisson_theta)
    assert len(calls) == 1


def test_conditional_identity_prop3(poisson, poisson_theta):
    # E[complete score | y] equals the marginal score for every y <= 50
    ds = Dataset.from_arrays(np.arange(51.0)[:, None])
    cond = poisson.conditional_expected_score(ds, poisson_theta)
    marg = poisson.marginal_score(ds, poisson_theta)
    np.testing.assert_allclose(cond, marg, rtol=1e-10, atol=1e-12)


def test_conditional_score_fim_equals_outer_product(poisson, poisson_data, poisson_theta):
    fim = conditional_score_fim(poisson, poisson_data, poisson_theta)
    direct = score_outer_fim(poisson.marginal_score(poisson_data, poisson_theta))
    scale = np.abs(direct.entries).max()
    np.testing.assert_allclose(fim.entries, direct.entries, rtol=1e-10, atol=1e-10 * scale)


def test_single_component_reduces_to_plain_poisson():
    single = PoissonMixtureModel(n_components=1)
    theta = single.make_params([4.0])
    ds = Dataset.from_arrays(np.array([[0.0], [3.0], [7.0]]))
    fim = conditional_score_fim(single, ds, theta)
    s = np.array([[y / 4.0 - 1.0] for y in (0, 3, 7)])
    np.testing.assert_allclose(fim.entries, s.T @ s / 3, rtol=1e-12)


def test_exact_fim_matches_single_poisson_limit():
    # all rates equal: the lambda-information collapses to the single-Poisson
    # value 1/lambda on the weighted diagonal combination
    model = PoissonMixtureModel(n_components=3)
    lam = 5.0
    theta = model.make_params([lam, lam, lam, 0.3, 0.5])
    I = model.exact_fim(theta)
    alpha = np.array([0.3, 0.5, 0.2])
    lam_block = I[:3, :3]
    total = lam_block.sum()  # information about a common shift of all rates
    assert total == pytest.approx(1.0 / lam, rel=1e-9)
    # and the alpha block carries no information (components indistinguishable)
    np.testing.assert_allclose(I[3:, 3:], 0.0, atol=1e-12)


def test_exact_fim_agrees_with_mc_reference(poisson, poisson_theta):
    from scorefim import mc_reference_fim

    exact = poisson.exact_fim(poisson_theta)
    mc = mc_reference_fim(poisson, poisson_theta, Design(n=1), n_draws=200_000, seed=31)
    assert np.all(np.abs(mc.entries - exact) <= 5.0 * mc.mc_se + 1e-10)


def test_expo_family_identity(poisson, poisson_data, poisson_theta):
    rng = substream(8, 1)
    Z = rng.integers(0, 3, size=(poisson_data.n, 1)).astype(float)
    stats = poisson.statistics(poisson_data, Z)
    delta = individual_delta(poisson, poisson_data, stats, poisson_theta)
    direct = poisson.complete_score(poisson_data, Z, poisson_theta)
    np.testing.assert_allclose(delta, direct, rtol=1e-12, atol=1e-12)


def test_simulate_mixture_mean(poisson, poisson_theta):
    # E[y] = sum alpha_k lambda_k = 4.9
    ds = simulate_dataset(poisson, poisson_theta, Design(n=100_000), seed=77)
    y = ds.y[:, 0]
    se = y.std() / np.sqrt(y.size)
    assert abs(y.mean() - 4.9) < 3.0 * se


def _logsumexp_inputs():
    # random (n, K) rows: ties, magnitudes up to 1e3, -inf entries and
    # all--inf rows
    rng = np.random.default_rng(20)
    for _ in range(400):
        n, K = int(rng.integers(1, 20)), int(rng.integers(1, 7))
        a = rng.normal(size=(n, K)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.random() < 0.5:
            a = np.round(a, int(rng.integers(0, 2)))
        if rng.random() < 0.4:
            a[rng.random((n, K)) < 0.3] = -np.inf
        if rng.random() < 0.3:
            a[rng.integers(n)] = -np.inf
        yield a


@pytest.mark.parametrize("keepdims", [True, False])
def test_logsumexp_is_scipys_bit_for_bit(keepdims):
    from scipy.special import logsumexp

    from scorefim.models.poisson_mixture import _logsumexp

    seen_ties = seen_dead_rows = 0
    for a in _logsumexp_inputs():
        out = _logsumexp(a, keepdims=keepdims)
        assert np.array_equal(out, logsumexp(a, axis=1, keepdims=keepdims))
        seen_ties += int(((a == a.max(axis=1, keepdims=True)).sum(axis=1) > 1).any())
        seen_dead_rows += int(np.isneginf(a).all(axis=1).any())
    assert seen_ties > 50 and seen_dead_rows > 50
    assert np.array_equal(_logsumexp(np.full((2, 3), -np.inf)), [-np.inf, -np.inf])


def test_posterior_and_marginal_derivatives_match_the_scipy_forms(
    monkeypatch, poisson, poisson_data, poisson_theta
):
    # the same model code with scipy's logsumexp put back gives the same bits,
    # on the simulated data and on the exact-FIM support 0..189
    from scipy.special import logsumexp

    from scorefim.models import poisson_mixture

    support = Dataset.from_arrays(np.arange(190.0)[:, None])
    names = ("posterior", "marginal_score", "marginal_hessian")
    ours = [getattr(poisson, f)(ds, poisson_theta) for ds in (poisson_data, support) for f in names]
    monkeypatch.setattr(
        poisson_mixture, "_logsumexp",
        lambda a, keepdims=False: logsumexp(a, axis=1, keepdims=keepdims),
    )
    theirs = [getattr(poisson, f)(ds, poisson_theta) for ds in (poisson_data, support) for f in names]
    for a, b in zip(ours, theirs):
        assert np.array_equal(a, b)


def test_log_y_factorial_is_kept_per_dataset(poisson, poisson_data, poisson_theta):
    # log y! by math.lgamma, within a few ulp of scipy's gammaln, computed
    # once per dataset and read-only
    from scipy.special import gammaln, logsumexp

    y = poisson_data.y[:, 0]
    kept = poisson._log_y_factorial(poisson_data)
    assert poisson._log_y_factorial(poisson_data) is kept and not kept.flags.writeable
    np.testing.assert_allclose(kept, gammaln(y + 1.0), rtol=4 * np.finfo(float).eps, atol=0)
    # the log-likelihoods move by no more than those few ulp of log y!
    lam, alpha = poisson.split(poisson_theta)
    logw = np.log(alpha) + y[:, None] * np.log(lam) - lam
    atol = 4 * np.finfo(float).eps * np.abs(kept).max()
    np.testing.assert_allclose(
        poisson.marginal_loglik(poisson_data, poisson_theta),
        logsumexp(logw, axis=1) - gammaln(y + 1.0), rtol=0, atol=atol,
    )
