"""PK structural model and both hierarchical variants."""

import mpmath as mp
import numpy as np
import pytest

from scorefim import Design, finite_diff_score, simulate_dataset
from scorefim.errors import DomainViolation, MStepFailure
from scorefim.modelbase import validate_params
from scorefim.models import pk_prediction, pk_prediction_dv
from scorefim.rng import substream
from scorefim.saem import individual_delta

mp.mp.dps = 50


def _pred_mp(d, t, ka, V, Cl):
    d, t, ka, V, Cl = map(mp.mpf, (d, t, ka, V, Cl))
    if V * ka == Cl:
        return d * ka * t * mp.e ** (-ka * t) / V
    return d * ka / (V * ka - Cl) * (mp.e ** (-(Cl / V) * t) - mp.e ** (-ka * t))


def test_prediction_reference_value():
    # high-precision arithmetic oracle at the standard design point
    got = pk_prediction(320.0, 1.0, 1.6, 31.0, 1.8)
    want = float(_pred_mp(320, 1, 1.6, 31, 1.8))
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(7.944, abs=5e-4)


def test_prediction_boundaries():
    assert pk_prediction(320.0, 0.0, 1.6, 31.0, 1.8) == 0.0
    assert pk_prediction(320.0, 1e5, 1.6, 31.0, 1.8) == pytest.approx(0.0, abs=1e-200)


def test_prediction_continuous_across_singularity():
    ka, V, t = 1.6, 31.0, 2.0
    cl0 = V * ka
    base = pk_prediction(320.0, t, ka, V, cl0)
    for eps in (1e-6, 1e-9, 1e-12, -1e-12, -1e-9, -1e-6):
        got = pk_prediction(320.0, t, ka, V, cl0 - eps)
        want = float(_pred_mp(320, t, ka, V, cl0 - eps))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(base, rel=1e-6)
    # two-sided limit agreement at matched offsets
    for eps in (1e-10, 1e-12):
        hi = pk_prediction(320.0, t, ka, V, cl0 - eps)
        lo = pk_prediction(320.0, t, ka, V, cl0 + eps)
        assert hi == pytest.approx(lo, rel=1e-8)


def test_prediction_large_x_branch():
    got = pk_prediction(320.0, 24.0, 8.0, 31.0, 1.8)
    want = float(_pred_mp(320, 24, 8.0, 31, 1.8))
    assert got == pytest.approx(want, rel=1e-12)


def test_prediction_dv_matches_high_precision():
    cases = [
        (1.0, 1.6, 31.0, 1.8),
        (24.0, 8.0, 31.0, 1.8),
        (2.0, 1.6, 31.0, 49.5999),  # within a hair of the singularity
        (5.0, 0.3, 10.0, 2.9999999),
        (0.25, 1.6, 31.0, 1.8),
    ]
    h = mp.mpf("1e-20")
    for t, ka, V, Cl in cases:
        got = pk_prediction_dv(320.0, t, ka, V, Cl)
        want = float(
            (_pred_mp(320, t, ka, V + h, Cl) - _pred_mp(320, t, ka, V - h, Cl)) / (2 * h)
        )
        assert got == pytest.approx(want, rel=1e-10)


def test_validate_positive(pk, pk_fixed_v):
    with pytest.raises(DomainViolation) as err:
        validate_params(pk, pk.make_params([1.6, 31.0, 1.8, -0.4, 0.4, 0.4, 0.75]))
    assert err.value.component == "omega2_ka"
    with pytest.raises(DomainViolation):
        validate_params(pk_fixed_v, pk_fixed_v.make_params([1.6, 0.0, 1.8, 0.4, 0.4, 0.75]))


def test_complete_score_matches_finite_differences(pk, pk_data):
    rng = substream(41, 0)
    for _ in range(5):
        Z = np.log([1.6, 1.8, 31.0]) + rng.normal(0, 0.5, size=(pk_data.n, 3))
        theta = pk.make_params(
            np.concatenate([
                [rng.uniform(1, 3), rng.uniform(20, 40), rng.uniform(1, 3)],
                rng.uniform(0.2, 0.8, 3), [rng.uniform(0.3, 1.5)],
            ])
        )
        an = pk.complete_score(pk_data, Z, theta)
        fd = finite_diff_score(pk, pk_data, Z, theta)
        np.testing.assert_allclose(an, fd, rtol=1e-5, atol=1e-6)


def test_fixed_v_complete_score_matches_finite_differences(pk_fixed_v, pk_fixed_v_data):
    rng = substream(42, 0)
    for _ in range(5):
        Z = np.log([1.6, 1.8]) + rng.normal(0, 0.5, size=(pk_fixed_v_data.n, 2))
        theta = pk_fixed_v.make_params(
            np.concatenate([
                [rng.uniform(1, 3), rng.uniform(20, 40), rng.uniform(1, 3)],
                rng.uniform(0.2, 0.8, 2), [rng.uniform(0.3, 1.5)],
            ])
        )
        an = pk_fixed_v.complete_score(pk_fixed_v_data, Z, theta)
        fd = finite_diff_score(pk_fixed_v, pk_fixed_v_data, Z, theta)
        np.testing.assert_allclose(an, fd, rtol=1e-5, atol=1e-6)


def test_complete_hessian_matches_score_differences(pk, pk_data, pk_theta):
    rng = substream(43, 0)
    Z = np.log([1.6, 1.8, 31.0]) + rng.normal(0, 0.4, size=(pk_data.n, 3))
    H = pk.complete_hessian(pk_data, Z, pk_theta)
    vals = pk_theta.values
    h = 1e-6 * np.maximum(1.0, np.abs(vals))
    for a in range(7):
        ea = np.eye(7)[a] * h[a]
        sp = pk.complete_score(pk_data, Z, pk_theta.replace_values(vals + ea))
        sm = pk.complete_score(pk_data, Z, pk_theta.replace_values(vals - ea))
        np.testing.assert_allclose(H[:, :, a], (sp - sm) / (2 * h[a]), rtol=5e-4, atol=1e-5)


def test_expo_family_identity(pk, pk_data, pk_theta):
    rng = substream(44, 0)
    Z = np.log([1.6, 1.8, 31.0]) + rng.normal(0, 0.5, size=(pk_data.n, 3))
    stats = pk.statistics(pk_data, Z)
    delta = individual_delta(pk, pk_data, stats, pk_theta)
    direct = pk.complete_score(pk_data, Z, pk_theta)
    np.testing.assert_allclose(delta, direct, rtol=1e-11, atol=1e-12)


def test_argmax_complete_stationarity(pk, pk_data):
    rng = substream(45, 0)
    n = pk_data.n
    for _ in range(5):
        base = np.log([1.6, 1.8, 31.0]) + rng.normal(0, 0.4, size=(n, 3))
        spread = rng.uniform(0.05, 0.3, size=(n, 3))
        stats = np.column_stack([base, base**2 + spread, rng.uniform(3, 12, n)])
        theta_hat = pk.argmax_complete(pk_data, stats)
        grad = individual_delta(pk, pk_data, stats, theta_hat).sum(axis=0)
        assert np.linalg.norm(grad) < 1e-8


def test_argmax_zero_residuals_clamped(pk, pk_data):
    stats = pk.statistics(pk_data, pk_data.latent_truth)
    stats = stats.copy()
    stats[:, 6] = 0.0  # zero residual statistics: boundary estimate
    theta = pk.argmax_complete(pk_data, stats)
    assert theta["sigma2"] == pytest.approx(1e-10)


def test_conditional_score_two_route_agreement(pk, pk_data, pk_theta):
    # Delta is linear in s, so E[score|y] = Delta(E[S|y]); the Laplace-IS
    # oracle and a long MH estimate of E[S|y] must agree through that map
    from scorefim.condoracle import conditional_moments

    sub = pk_data.subset(range(12))
    mom = conditional_moments(pk, sub, pk_theta, n_draws=60_000, seed=9)
    delta_via_oracle = mom.escore
    from scorefim.saem import _mh_sweep

    rng = substream(46, 0)
    Zc = pk.initial_latents(sub, pk_theta, rng)
    logf = pk.complete_loglik(sub, Zc, pk_theta)
    acc_stats = np.zeros((sub.n, 7))
    n_keep = 0
    for it in range(6000):
        Zc, logf, _ = _mh_sweep(pk, sub, Zc, logf, pk_theta, 0.3 * np.ones(3), rng, 1)
        if it >= 1000:
            acc_stats += pk.statistics(sub, Zc)
            n_keep += 1
    stats_mh = acc_stats / n_keep
    delta_mh = individual_delta(pk, sub, stats_mh, pk_theta)
    scale = np.abs(delta_via_oracle).max()
    assert np.max(np.abs(delta_mh - delta_via_oracle)) < 0.05 * scale


def test_flip_flop_mirror_is_a_likelihood_symmetry(pk, pk_data):
    rng = substream(47, 0)
    Z = np.log([1.6, 1.8, 31.0]) + rng.normal(0, 0.5, size=(pk_data.n, 3))
    image = pk.mirror_latents(Z)
    # an involution ...
    np.testing.assert_allclose(pk.mirror_latents(image), Z, rtol=0, atol=1e-13)
    # ... that swaps ka with ke = Cl/V and leaves every prediction unchanged
    ka, cl, v = np.exp(Z).T
    ka_m, cl_m, v_m = np.exp(image).T
    np.testing.assert_allclose(ka_m, cl / v, rtol=1e-13)
    np.testing.assert_allclose(cl_m / v_m, ka, rtol=1e-13)
    t = pk_data.records[0].times[None, :]
    np.testing.assert_allclose(
        pk_prediction(320.0, t, ka_m[:, None], v_m[:, None], cl_m[:, None]),
        pk_prediction(320.0, t, ka[:, None], v[:, None], cl[:, None]),
        rtol=1e-10,
    )
    # ... with |Jacobian| 1 (the map is linear)
    jac = np.column_stack([
        pk.mirror_latents(Z[:1] + e)[0] - image[0] for e in np.eye(3)
    ])
    assert abs(np.linalg.det(jac)) == pytest.approx(1.0, abs=1e-12)


def test_chain_started_in_the_mirror_mode_returns(pk, pk_desk_data):
    # a random walk cannot cross the flip-flop valley; the kernel's mirror
    # proposal must bring a chain started at the mirror image of the main
    # conditional mode back to that mode
    from scorefim.condoracle import _laplace_fit
    from scorefim.saem import _MhKernel

    ds, theta = pk_desk_data
    i = 41
    main, _ = _laplace_fit(pk, ds, i, theta, np.log([theta["ka"], theta["Cl"], theta["V"]]))
    image = pk.mirror_latents(main[None, :])
    one = ds.subset([i])
    logf_main = pk.complete_loglik(one, main[None, :], theta)[0]
    assert pk.complete_loglik(one, image, theta)[0] < logf_main - 10.0
    kernel = _MhKernel(pk, pk.default_proposal_scales(theta), burn_in=0)
    Z = image.copy()
    rng = substream(48, 0)
    for k in range(1, 21):
        Z, _ = kernel(one, Z, theta, rng, k, 5)
    assert kernel.mirror_moves >= 1
    assert Z[0, 0] > Z[0, 1] - Z[0, 2]  # back in the ka > ke branch
    assert np.linalg.norm(Z[0] - main) < 0.25 * np.linalg.norm(image[0] - main)


def test_simulate_latent_truth_finite(pk, pk_theta, pk_data):
    ll = pk.complete_loglik(pk_data, pk_data.latent_truth, pk_theta)
    assert np.all(np.isfinite(ll))


def test_initial_theta_feasible(pk, pk_data, pk_fixed_v, pk_fixed_v_data):
    t0 = pk.initial_theta(pk_data)
    validate_params(pk, t0)
    t0v = pk_fixed_v.initial_theta(pk_fixed_v_data)
    validate_params(pk_fixed_v, t0v)
    # crude inits should land within a factor of a few of the truth
    assert 0.2 < t0["V"] / 31.0 < 5.0
    assert 0.2 < t0v["V"] / 31.0 < 5.0


def _buffer_stack(ds, n_entries, seed):
    """Latent entries around the fixed-V prior plus three rigged individuals:
    two with V ka = Cl at V = 31, exactly and to 2e-6 (the |x| < 1e-4
    series at x = 0 and x up to 8e-5), and one with a fast absorption (the
    |x| > 30 direct branch)."""
    rng = substream(seed, 0)
    latents = []
    for _ in range(n_entries):
        Z = np.log([1.6, 1.8]) + rng.normal(0, 0.6, size=(ds.n, 2))
        Z[0, 1] = Z[0, 0] + np.log(31.0)
        Z[1, 1] = Z[1, 0] + np.log(31.0 * (1.0 - 2e-6))
        Z[2, 0] = np.log(8.0)
        latents.append(Z)
    w = rng.uniform(0.1, 1.0, n_entries)
    return latents, w / w.sum()


def _profile_by_records(model, ds, latents, w, V):
    """(rss, d rss/dV, 2 sum w dpred/dV^2) summed entry by entry through
    _residual_dv, the route non-uniform designs take, and pk_prediction_dv."""
    from scorefim.models.pk import _design_arrays

    _, T, doses = _design_arrays(ds)
    rss = drss = curv = 0.0
    for wl, Z in zip(w, latents):
        r, rdv = model._residual_dv(ds, Z, V)
        dv = pk_prediction_dv(doses[:, None], T, np.exp(Z[:, :1]), V, np.exp(Z[:, 1:]))
        rss += wl * r.sum()
        drss += -2.0 * wl * rdv.sum()
        curv += 2.0 * wl * (dv**2).sum()
    return rss, drss, curv


def test_fused_profile_matches_the_per_record_route(pk_fixed_v, pk_fixed_v_data):
    from scorefim.models.pk import _PROFILE_BLOCK, _FusedProfile, _design_arrays

    ds = pk_fixed_v_data
    Y, T, doses = _design_arrays(ds)
    latents, w = _buffer_stack(ds, 2 * _PROFILE_BLOCK + 5, 49)
    kat = np.exp(np.stack(latents)[:, :, 0])[:, :, None] * T
    x31 = kat - np.exp(np.stack(latents)[:, :, 1])[:, :, None] * T / 31.0
    assert (np.abs(x31) > 30).any() and (np.abs(x31) < 1e-4).any()
    prof = _FusedProfile(Y, T, doses, latents, w)
    for V in (12.0, 31.0, 77.0):
        np.testing.assert_allclose(
            prof(V), _profile_by_records(pk_fixed_v, ds, latents, w, V), rtol=1e-12
        )


def test_fused_profile_keeps_rows_across_buffers(pk_fixed_v_data):
    # rows handed over from the previous profile, appended in place or
    # gathered into new stacks, evaluate exactly as a profile built afresh,
    # and building a successor leaves its predecessor unchanged
    from scorefim.models.pk import _FusedProfile, _design_arrays

    Y, T, doses = _design_arrays(pk_fixed_v_data)
    latents, w = _buffer_stack(pk_fixed_v_data, 40, 50)

    def check(entries, previous):
        wn = w[: len(entries)] / w[: len(entries)].sum()
        prof = _FusedProfile(Y, T, doses, entries, wn, previous=previous)
        assert prof(29.0) == _FusedProfile(Y, T, doses, entries, wn)(29.0)
        return prof

    first = check(latents[:20], None)
    before = first(29.0)
    grown = check(latents[:21], first)  # appended behind first's rows
    assert grown.store is first.store and first(29.0) == before
    sibling = check(latents[:20] + [latents[30]], first)  # first was extended already
    assert sibling.store is not first.store and grown(29.0) == check(latents[:21], None)(29.0)
    slid = check(latents[3:24], grown)  # oldest pruned, new appended
    assert slid.store is grown.store
    check(latents[4:10] + latents[11:25], slid)  # pruned inside: gathered afresh


def test_profile_v_curvature_start_reaches_the_secant_minimum(pk_fixed_v_data):
    from scorefim.models.pk import _FusedProfile, _design_arrays, _profile_v

    Y, T, doses = _design_arrays(pk_fixed_v_data)
    latents, w = _buffer_stack(pk_fixed_v_data, 21, 51)
    prof = _FusedProfile(Y, T, doses, latents, w)

    def probe_only(V):
        return prof(V)[:2] + (None,)

    for V0 in (15.0, 31.0, 100.0):
        f0, g0, c0 = prof(V0)
        if V0 == 100.0:
            assert V0 - g0 / c0 < V0 / 4.0  # the Gauss-Newton step is clipped
        gtol = 1e-8 * (1.0 + abs(f0))
        V_gn, f_gn = _profile_v(prof, V0)
        V_probe, _ = _profile_v(probe_only, V0)
        assert abs(prof(V_gn)[1]) < 10.0 * gtol
        assert f_gn == prof(V_gn)[0]
        assert V_gn == pytest.approx(V_probe, rel=1e-6)
