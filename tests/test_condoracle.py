"""The conditional-moment Monte-Carlo oracle against LMM closed forms, and
its batched Laplace fit against independent routes."""

import warnings

import numpy as np
import pytest

from scorefim import Design, condoracle, conditional_score_fim, simulate_dataset
from scorefim.condoracle import _laplace_fit, conditional_moments, reference_fims
from scorefim.errors import NumericalError
from scorefim.rng import substream


def test_oracle_matches_lmm_closed_forms(lmm, lmm_theta):
    ds = simulate_dataset(lmm, lmm_theta, Design(n=15, n_obs=12), seed=301)
    mom = conditional_moments(lmm, ds, lmm_theta, n_draws=60_000, seed=4)
    exact_score = lmm.conditional_expected_score(ds, lmm_theta)
    assert np.max(np.abs(mom.escore - exact_score)) < 0.02
    assert mom.ess.min() > 5000

    i_sco, i_obs = reference_fims(mom, lmm.param_names, ds.n)
    exact_sco = conditional_score_fim(lmm, ds, lmm_theta).entries
    np.testing.assert_allclose(i_sco.entries, exact_sco, atol=0.01)
    exact_obs = -(lmm.marginal_hessian(ds, lmm_theta)).mean(axis=0)
    np.testing.assert_allclose(i_obs.entries, exact_obs, atol=0.01)


def test_oracle_seed_deterministic(lmm, lmm_theta):
    ds = simulate_dataset(lmm, lmm_theta, Design(n=5, n_obs=12), seed=302)
    a = conditional_moments(lmm, ds, lmm_theta, n_draws=5_000, seed=9)
    b = conditional_moments(lmm, ds, lmm_theta, n_draws=5_000, seed=9)
    np.testing.assert_array_equal(a.escore, b.escore)
    np.testing.assert_array_equal(a.ehessian, b.ehessian)


def test_laplace_fit_leaves_the_mirror_mode(pk, pk_desk_data):
    # started at the flip-flop image of an individual's conditional mode, the
    # fit must still return the main mode, not the mirror one
    ds, theta = pk_desk_data
    i = 41
    (main,), _ = _laplace_fit(pk, ds.subset([i]), theta, np.log([[theta["ka"], theta["Cl"], theta["V"]]]))
    image = pk.mirror_latents(main[None, :])[0]
    (got,), _ = _laplace_fit(pk, ds.subset([i]), theta, image[None, :])
    np.testing.assert_allclose(got, main, atol=1e-4)


def test_laplace_fit_matches_lmm_gaussian_conditional(lmm, lmm_theta):
    # the LMM conditional is Gaussian: its mode and inverse curvature are the
    # closed-form posterior mean and variance
    ds = simulate_dataset(lmm, lmm_theta, Design(n=30, n_obs=12), seed=303)
    z0 = lmm.initial_latents(ds, lmm_theta, substream(6, 12345))
    modes, covs = _laplace_fit(lmm, ds, lmm_theta, z0)
    mean, var = lmm._posterior(ds, lmm_theta)
    np.testing.assert_allclose(modes[:, 0], mean, rtol=1e-6)
    np.testing.assert_allclose(covs[:, 0, 0], var, rtol=1e-6)


def _pk_modes(pk, ds, theta, z0):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return _laplace_fit(pk, ds, theta, z0)[0]


def test_laplace_fit_gradient_vanishes_at_every_mode(pk, pk_desk_data):
    ds, theta = pk_desk_data
    z0 = pk.initial_latents(ds, theta, substream(1, 12345))
    modes = _pk_modes(pk, ds, theta, z0)
    # central differences of the log density at a step of 1e-5, row by row
    grad = np.empty_like(modes)
    for i in range(ds.n):
        one = ds.subset([i])
        for a in range(3):
            e = np.zeros((1, 3))
            e[0, a] = 1e-5
            up = pk.complete_loglik(one, modes[i:i + 1] + e, theta)[0]
            down = pk.complete_loglik(one, modes[i:i + 1] - e, theta)[0]
            grad[i, a] = (up - down) / 2e-5
    assert np.abs(grad).max() < 1e-4


def test_laplace_fit_from_far_out_starts_is_finite_and_agrees(pk, pk_desk_data):
    # rows started 10 prior SDs out in log ka and log Cl: an uncapped Newton
    # step from there overflows exp in the PK prediction
    ds, theta = pk_desk_data
    z0 = pk.initial_latents(ds, theta, substream(1, 12345))
    sd = np.sqrt([theta["omega2_ka"], theta["omega2_Cl"]])
    far = np.log([[theta["ka"], theta["Cl"], theta["V"]]]).repeat(ds.n, axis=0)
    far[:, :2] += 10.0 * sd
    np.testing.assert_allclose(
        _pk_modes(pk, ds, theta, far), _pk_modes(pk, ds, theta, z0), atol=1e-6
    )


def test_oracle_reports_its_fit(pk, pk_desk_data, monkeypatch):
    ds, theta = pk_desk_data
    sub = ds.subset([3, 17, 41])
    mom = conditional_moments(pk, sub, theta, n_draws=2_000, seed=5)
    assert mom.newton_iterations > 0 and mom.mirror_refits == 0 and mom.unconverged == ()
    assert mom.fit_s > 0
    # a row started in the mirror mode is refit from its image
    one, report = sub.subset([2]), {}
    (main,), _ = _laplace_fit(pk, one, theta, np.log([[theta["ka"], theta["Cl"], theta["V"]]]))
    _laplace_fit(pk, one, theta, pk.mirror_latents(main[None, :]), report=report)
    assert report["mirror_refits"] == 1
    # rows that hit the iteration limit are reported, not raised
    monkeypatch.setattr(condoracle, "_NEWTON_MAX_ITER", 1)
    report = {}
    _laplace_fit(pk, sub, theta, pk.initial_latents(sub, theta, substream(5, 12345)), report=report)
    assert report["unconverged"] == (0, 1, 2)


def test_oracle_fan_out_matches_one_worker(pk, pk_desk_data):
    # individuals are independent tasks on their own streams, stacked in order
    ds, theta = pk_desk_data
    sub = ds.subset([3, 17, 41, 42])
    a = conditional_moments(pk, sub, theta, n_draws=3_000, seed=5, threads=1)
    b = conditional_moments(pk, sub, theta, n_draws=3_000, seed=5, threads=2)
    for name in ("escore", "escore_outer", "ehessian", "ess"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def test_oracle_degenerate_individual_same_error_at_any_worker_count(pk, pk_desk_data):
    ds, theta = pk_desk_data
    sub = ds.subset(range(1, 7))
    ess = conditional_moments(pk, sub, theta, n_draws=2_000, seed=5, min_ess=0.0).ess
    # a bound that the two lowest-ESS individuals fail: the lower index is named
    failing = np.argsort(ess)[:2]
    bound = np.nextafter(ess[failing].max(), np.inf)
    first = int(failing.min())
    assert first > 0 and failing[0] != first
    messages = []
    for threads in (1, 2):
        with pytest.raises(NumericalError) as err:
            conditional_moments(pk, sub, theta, n_draws=2_000, seed=5, min_ess=bound, threads=threads)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert f"individual {first} " in messages[0]


@pytest.mark.parametrize("seed", [1, 4, 5])
def test_oracle_moments_finite_when_draws_overflow(pk, pk_theta, pk_data, monkeypatch, seed):
    # a one-step Laplace fit leaves poor proposals: some draws overflow exp,
    # weigh exactly 0 and have NaN scores, which must not reach the moments
    monkeypatch.setattr(condoracle, "_NEWTON_MAX_ITER", 1)
    design = Design(n=3, times=pk_data.times[0], dose=320.0)
    ds = simulate_dataset(pk, pk_theta, design, seed=seed)
    mom = conditional_moments(pk, ds, pk_theta, n_draws=2_000, seed=seed, min_ess=1)
    assert mom.ess.min() < 5
    for name in ("escore", "escore_outer", "ehessian"):
        assert np.all(np.isfinite(getattr(mom, name))), name
