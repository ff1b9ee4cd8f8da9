"""The conditional-moment Monte-Carlo oracle against LMM closed forms."""

import numpy as np
import pytest

from scorefim import Design, conditional_score_fim, simulate_dataset
from scorefim.condoracle import _laplace_fit, conditional_moments, reference_fims
from scorefim.errors import NumericalError


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
    main, _ = _laplace_fit(pk, ds, i, theta, np.log([theta["ka"], theta["Cl"], theta["V"]]))
    image = pk.mirror_latents(main[None, :])[0]
    got, _ = _laplace_fit(pk, ds, i, theta, image)
    np.testing.assert_allclose(got, main, atol=1e-4)


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
