"""PK structural model and both hierarchical variants."""

import mpmath as mp
import numpy as np
import pytest

from scorefim import Design, finite_diff_score, simulate_dataset
from scorefim.errors import DomainViolation, MStepFailure
from scorefim.modelbase import validate_params
from scorefim.models import pk_prediction
from scorefim.models.pk import _pk_core
from scorefim.rng import substream
from scorefim.saem import individual_delta

mp.mp.dps = 50


def _pred_mp(d, t, ka, V, Cl):
    d, t, ka, V, Cl = map(mp.mpf, (d, t, ka, V, Cl))
    if V * ka == Cl:
        return d * ka * t * mp.e ** (-ka * t) / V
    return d * ka / (V * ka - Cl) * (mp.e ** (-(Cl / V) * t) - mp.e ** (-ka * t))


def _pred_dv(dose, t, ka, V, Cl):
    """(pred, dpred/dV) from the prediction core, fed the factors that
    pk_prediction builds."""
    t = np.asarray(t, dtype=float)
    kat = ka * t
    return _pk_core(kat, Cl * t, dose * kat, V, dv=True)


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
        got = _pred_dv(320.0, t, ka, V, Cl)[1]
        want = float(
            (_pred_mp(320, t, ka, V + h, Cl) - _pred_mp(320, t, ka, V - h, Cl)) / (2 * h)
        )
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_prediction_and_dv_sweep_matches_high_precision():
    # fixed-seed sweep over 2-4 decades of each argument plus the regimes a
    # two-exponential form overflows or cancels in: |ka t - Cl t / V| > 709,
    # exp(-ka t) below the double range, V ka = Cl exactly, and t = 0, which
    # must give exact zeros
    rng = np.random.default_rng(20191)
    cases = [
        (100.0, 8.0, 31.0, 1.8),  # ka t = 800: exp(-ka t) underflows, x = 794
        (24.0, 40.0, 31.0, 1.8),  # x = 959
        (24.0, 0.01, 31.0, 1550.0),  # Cl t / V = 1200 > ka t
        (2.0, 2.0, 32.0, 64.0),  # V ka = Cl exactly
        (300.0, 0.125, 8.0, 1.0),  # V ka = Cl exactly, far out
        (0.0, 1.6, 31.0, 1.8),
    ]
    for _ in range(200):
        cases.append(tuple(10.0 ** rng.uniform(lo, hi) for lo, hi in ((-2, 2), (-2, 2), (0, 3), (-1, 2))))

    def dv_mp(t, ka, V, Cl):
        with mp.workdps(120):
            h = mp.mpf("1e-40")
            return (_pred_mp(320, t, ka, V + h, Cl) - _pred_mp(320, t, ka, V - h, Cl)) / (2 * h)

    with np.errstate(all="raise"):
        for t, ka, V, Cl in cases:
            pred, dv = _pred_dv(320.0, t, ka, V, Cl)
            assert pred == pk_prediction(320.0, t, ka, V, Cl)
            if t == 0.0:
                assert pred == 0.0 and dv == 0.0
                continue
            want = float(_pred_mp(320, t, ka, V, Cl))
            assert pred == pytest.approx(want, rel=1e-12, abs=0.0), (t, ka, V, Cl)
            dv_want = float(dv_mp(t, ka, V, Cl))
            assert dv == pytest.approx(dv_want, rel=1e-10, abs=0.0), (t, ka, V, Cl)


def test_dv_keeps_its_digits_where_elimination_outpaces_absorption():
    # where ka t < u = Cl t / V the form u g'(y) - g(y) cancels as ka t / u
    # shrinks (7.2e-13 relative at the first case); ka t g'(y) - exp(y) does
    # not.  Seeded cases from the sweep's ranges with u - ka t >= 1 whose
    # derivative is a normal double
    rng = np.random.default_rng(20192)
    cases = [(24.0, 0.01, 31.0, 1550.0)]
    while len(cases) < 60:
        t, ka, V, Cl = (
            10.0 ** rng.uniform(lo, hi) for lo, hi in ((-2, 2), (-2, 2), (0, 3), (-1, 2))
        )
        if Cl * t / V - ka * t >= 1.0:
            cases.append((t, ka, V, Cl))
    checked = 0
    for t, ka, V, Cl in cases:
        with mp.workdps(120):
            h = mp.mpf("1e-40")
            diff = _pred_mp(320, t, ka, V + h, Cl) - _pred_mp(320, t, ka, V - h, Cl)
            want = float(diff / (2 * h))
        if abs(want) < 1e-290:
            continue
        checked += 1
        got = _pred_dv(320.0, t, ka, V, Cl)[1]
        assert got == pytest.approx(want, rel=2e-13, abs=0.0), (t, ka, V, Cl)
    assert checked >= 40


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_conditional_score_two_route_agreement_within_mc_se(pk, pk_data, pk_theta, seed):
    # the same two routes, judged in Monte-Carlo standard errors: K chains
    # per individual run side by side in one _mh_sweep call, and the spread
    # between them gives the MH estimate's SE; the oracle's SE is the
    # conditional score variance over its importance-sampling ESS
    from scorefim.condoracle import _laplace_fit, conditional_moments
    from scorefim.saem import _mh_sweep

    K, burn_in, kept = 32, 500, 4000
    sub = pk_data.subset(range(12))
    mom = conditional_moments(pk, sub, pk_theta, n_draws=60_000, seed=seed)
    cov = mom.escore_outer - np.einsum("ij,ik->ijk", mom.escore, mom.escore)
    oracle_se = np.sqrt(np.diagonal(cov, axis1=1, axis2=2) / mom.ess[:, None])

    # every chain starts at its individual's conditional mode, on the main
    # side of the flip-flop valley that a random walk cannot cross
    z0 = pk.initial_latents(sub, pk_theta, substream(seed, 12345))
    modes, _ = _laplace_fit(pk, sub, pk_theta, z0)
    chains = pk_data.subset(list(range(12)) * K)
    Z = np.tile(modes, (K, 1))
    logf = pk.complete_loglik(chains, Z, pk_theta)
    rng = substream(seed, 0)
    scales = 0.3 * np.ones(3)
    Z, logf, _ = _mh_sweep(pk, chains, Z, logf, pk_theta, scales, rng, burn_in)
    acc_stats = np.zeros((chains.n, 7))
    for _ in range(kept):
        Z, logf, _ = _mh_sweep(pk, chains, Z, logf, pk_theta, scales, rng, 1)
        acc_stats += pk.statistics(chains, Z)
    delta = individual_delta(pk, chains, acc_stats / kept, pk_theta).reshape(K, sub.n, -1)
    mh_se = delta.std(axis=0, ddof=1) / np.sqrt(K)
    z = (delta.mean(axis=0) - mom.escore) / np.sqrt(mh_se**2 + oracle_se**2)
    assert np.abs(z).max() < 5.0
    # the SEs are small enough for the check to mean something
    assert mh_se.max() < 0.02 * np.abs(mom.escore).max()


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
    t = pk_data.times[:1]
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
    (main,), _ = _laplace_fit(pk, ds.subset([i]), theta, np.log([[theta["ka"], theta["Cl"], theta["V"]]]))
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
    series at x = 0 and x up to 8e-5), and one with a fast absorption
    (|x| > 30), x = ka t - Cl t / V."""
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


def _profile_by_records(ds, latents, w, V):
    """(rss, d rss/dV, 2 sum w dpred/dV^2) summed entry by entry and record
    by record through pk_prediction and the core's dpred/dV."""
    rss = drss = curv = 0.0
    for wl, Z in zip(w, latents):
        for y, t, d, k, (ka, cl) in zip(ds.y, ds.times, ds.doses, ds.n_obs(), np.exp(Z)):
            y, t = y[:k], t[:k]
            resid = y - pk_prediction(d, t, ka, V, cl)
            dv = _pred_dv(d, t, ka, V, cl)[1]
            rss += wl * (resid**2).sum()
            drss += -2.0 * wl * (resid * dv).sum()
            curv += 2.0 * wl * (dv**2).sum()
    return rss, drss, curv


def test_fused_profile_matches_the_per_record_route(pk_fixed_v_data):
    from scorefim.models.pk import _PROFILE_BLOCK, _FusedProfile, _design_arrays, _profile_factors

    ds = pk_fixed_v_data
    Y, T, doses = _design_arrays(ds)
    latents, w = _buffer_stack(ds, 2 * _PROFILE_BLOCK + 5, 49)
    kat = np.exp(np.stack(latents)[:, :, 0])[:, :, None] * T
    x31 = kat - np.exp(np.stack(latents)[:, :, 1])[:, :, None] * T / 31.0
    assert (np.abs(x31) > 30).any() and (np.abs(x31) < 1e-4).any()
    prof = _FusedProfile(Y, _profile_factors(T, doses, np.stack(latents)), w)
    for V in (12.0, 31.0, 77.0):
        np.testing.assert_allclose(
            prof(V), _profile_by_records(ds, latents, w, V), rtol=1e-12
        )


def test_buffer_profile_factors_match_a_fresh_build(pk_fixed_v, pk_fixed_v_data, pk_fixed_v_theta):
    # the factors the buffer keeps for the fixed-V profile are computed once
    # per entry, and the per-entry sums once per entry and V, at the last
    # three V's asked for; both survive slides, relocations, a gather that is
    # not a suffix, gamma 0 and gamma 1.  At every step they, and the profile
    # built on them, equal a build from the live entries bit for bit, and a
    # second dataset gets its own
    from scorefim import Dataset
    from scorefim.models.pk import _FusedProfile, _design_arrays, _profile_factors
    from scorefim.saem_general import WeightedSampleBuffer, buffer_update

    ds = pk_fixed_v_data
    other = Dataset.from_arrays(ds.y, times=1.5 * ds.times, doses=2.0 * ds.doses)
    latents, _ = _buffer_stack(ds, 60, 50)
    # slides at gamma 0.3 fill the first array and relocate; the draw at
    # gamma 0.0015 (step 27) is pruned inside the window at step 28; gamma 1
    # (step 30) is followed by a decreasing schedule, as after burn-in
    gammas = [0.3] * 25 + [0.0, 0.5, 0.0015, 0.5, 0.3, 1.0]
    gammas += [m ** -0.6 for m in range(2, len(latents) - len(gammas) + 2)]
    buf = WeightedSampleBuffer(prune_epsilon=1e-3)
    live, w = [], []  # the entries the buffer should hold, oldest first
    have, current = set(), None  # entries with factors, and for which dataset
    summed, key = {}, None  # V -> entries with sums there, least recent V first; last V
    bases, suffixes = [], []
    for k, (g, Z) in enumerate(zip(gammas, latents)):
        w = [wl * (1.0 - g) for wl in w] + ([g] if g > 0 else [])
        live = live + [k] if g > 0 else live
        keep = [wl >= 1e-3 for wl in w]
        suffixes.append(keep == sorted(keep))
        w = [wl for wl, kl in zip(w, keep) if kl]
        live = [l for l, kl in zip(live, keep) if kl]
        buf = buffer_update(buf, Z, g)
        stack = np.stack([latents[l] for l in live])
        np.testing.assert_array_equal(buf.latents, stack)
        if not any(b is buf.latents.base for b in bases):
            bases.append(buf.latents.base)

        dataset = other if k in (40, 41) else ds
        if dataset is not current:
            have, current, summed = set(), dataset, {}
        Y, T, doses = _design_arrays(dataset)
        filled = []

        def fill(Z):
            filled.append(len(Z))
            return _profile_factors(T, doses, Z)

        factors = buf.derived("profile_factors", dataset, fill)
        assert sum(filled) == len(set(live) - have)
        have |= set(live)
        fresh = _profile_factors(T, doses, stack)
        np.testing.assert_array_equal(factors, fresh)
        wn = buf.weights / buf.total_weight

        # as an M-step: a first evaluation at the V the last one ended on,
        # which sums only the entries that joined since, then another V; five
        # V's in turn, so a V comes back after it was dropped
        def keep_sums(V, fill):
            def counted(Z):
                filled.append(len(Z))
                return fill(Z)

            return buf.derived("profile_sums", dataset, counted, key=V)

        cached = _FusedProfile(Y, factors, wn, keep=keep_sums)
        for V in (key if key is not None else 29.0, 29.0 + k % 5):
            filled.clear()
            assert cached(V) == _FusedProfile(Y, fresh, wn)(V)
            at_v = summed.pop(V, set())
            if len(summed) == 3:
                summed.pop(next(iter(summed)))  # the least recent V is dropped
            assert sum(filled) == len(set(live) - at_v)
            summed[V], key = at_v | set(live), V
            assert buf.derived_keys("profile_sums", dataset) == list(summed)
        assert len(buf) > 1 or k in (0, 30)  # gamma 1 drops every older entry
    assert suffixes.count(False) == 1 and not suffixes[28]  # the gather ran once
    assert len(bases) >= 4  # the first array, two relocations and the gather
    # the M-step on the kept factors and sums equals one on a buffer that
    # builds them all at once, at the same three V's
    replay = WeightedSampleBuffer(prune_epsilon=1e-3)
    for g, Z in zip(gammas, latents):
        replay = buffer_update(replay, Z, g)
    Y, T, doses = _design_arrays(ds)
    factors = replay.derived("profile_factors", ds, lambda Z: _profile_factors(T, doses, Z))
    at_once = _FusedProfile(
        Y, factors, replay.weights / replay.total_weight,
        keep=lambda V, fill: replay.derived("profile_sums", ds, fill, key=V),
    )
    for V in buf.derived_keys("profile_sums", ds):
        at_once(V)
    np.testing.assert_array_equal(
        pk_fixed_v.maximize_weighted(ds, buf, pk_fixed_v_theta).values,
        pk_fixed_v.maximize_weighted(ds, replay, pk_fixed_v_theta).values,
    )


def test_each_mstep_checks_one_interpolated_start_on_the_whole_window(
    pk_fixed_v, pk_fixed_v_data, pk_fixed_v_theta, monkeypatch
):
    # the buffer keeps the entries' sums at the last three V's evaluated.  An
    # M-step evaluates the two older V's and its start V0, each on the joining
    # entry alone.  Under steps 1/k (as after burn-in), after the first
    # M-steps, most M-steps end on one whole-window evaluation, at the
    # interpolated step.  Every V returned meets the tolerance on a fresh whole-window
    # profile, and equals a profile that sums every entry afresh at the same
    # points bit for bit
    from scorefim.models import pk
    from scorefim.saem_general import WeightedSampleBuffer, buffer_update

    sizes, points = [], []
    sums, call = pk._FusedProfile._sums, pk._FusedProfile.__call__

    def counted_sums(self, F, V):
        sizes.append(len(F))
        return sums(self, F, V)

    def counted_call(self, V):
        points.append(V)
        return call(self, V)

    monkeypatch.setattr(pk._FusedProfile, "_sums", counted_sums)
    monkeypatch.setattr(pk._FusedProfile, "__call__", counted_call)
    ds = pk_fixed_v_data
    Y, T, doses = pk._design_arrays(ds)
    latents, _ = _buffer_stack(ds, 30, 54)
    buf, theta, once = WeightedSampleBuffer(prune_epsilon=1e-3), pk_fixed_v_theta, []
    for k, Z in enumerate(latents):
        buf = buffer_update(buf, Z, 1.0 / (k + 1))
        sizes.clear(), points.clear()
        V0 = float(theta.values[1])
        kept = [V for V in buf.derived_keys("profile_sums", ds) if V != V0][-2:]
        effort = dict(buf.mstep_effort)
        theta = pk_fixed_v.maximize_weighted(ds, buf, theta)
        V = theta.values[1]
        start = len(kept) + 1  # the kept points, then V0
        assert points[:start] == kept + [V0] and points[-1] == V
        if k > 0:
            assert sizes[:start] == [1] * start  # only the joining entry
        whole = sizes[start:] if k > 0 else sizes
        assert len(sizes) == len(points) and whole == [len(buf)] * len(whole)
        assert buf.mstep_effort["window_evals"] - effort.get("window_evals", 0) == len(whole)
        if k >= 3:
            once.append(len(whole) == 1)
        wn = buf.weights / buf.total_weight
        fresh = pk._FusedProfile(Y, pk._profile_factors(T, doses, buf.latents), wn)
        assert abs(fresh(V)[1]) < 1e-8 * (1.0 + abs(fresh(V0)[0]))
        assert pk._profile_v(fresh, V0, kept)[0] == V
    assert len(buf) == 30 and sum(once) > len(once) / 2
    assert buf.mstep_effort["interpolation"] >= sum(once)
    steps = ("start", "interpolation", "gauss_newton", "secant", "brent")
    assert sum(buf.mstep_effort[s] for s in steps) == 30


def test_pk_core_in_scratch_arrays_matches_its_own_arrays():
    # the profile runs the kernel in scratch arrays reused across blocks;
    # pred and dpred/dV must equal a call that allocates its own, bit for bit,
    # in both branches (ka t < u and not), the series region around
    # V ka = Cl, t = 0 padding of ragged records, a block with no ka t < u,
    # and after the scratch held another block
    from scorefim.models.pk import _core_scratch

    rng = substream(55, 0)
    T = np.tile([0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 7.0, 9.0, 12.0, 24.0], (30, 1))
    T[::4, 7:] = 0.0  # ragged records, padded with t = 0
    blocks = []
    for _ in range(3):
        ka = np.exp(rng.normal(0.0, 1.5, (16, 30, 1)))
        cl = np.exp(rng.normal(0.6, 1.5, (16, 30, 1)))
        cl[:, :5] = ka[:, :5] * 31.0 * (1.0 + rng.normal(0.0, 1e-6, (16, 5, 1)))  # |y| < 1e-4
        kat = ka * T
        blocks.append((kat, cl * T, 320.0 * kat))
    kat, clt, _ = blocks[0]
    y = -np.abs(kat - clt / 31.0)
    assert (kat < clt / 31.0).any() and (kat > clt / 31.0).any()
    assert ((y > -1e-4) & (T > 0)).any() and (T == 0).any()
    fast = 10.0 * cl / 31.0 * T  # ka = 10 Cl / V: ka t >= u everywhere
    absorbed = (fast, cl * T, 320.0 * fast)
    assert not (fast < cl * T / 31.0).any()
    scratch = _core_scratch(kat.shape)
    for args in blocks + [absorbed] + blocks[:1]:
        for dv in (False, True):
            got = _pk_core(*args, 31.0, dv=dv, scratch=scratch)
            want = _pk_core(*args, 31.0, dv=dv)
            for a, b in zip(got if dv else (got,), want if dv else (want,)):
                np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(want, scratch[2])
    pred, dv = _pk_core(*blocks[0], 31.0, dv=True)
    assert (pred[:, T == 0] == 0.0).all() and (dv[:, T == 0] == 0.0).all()


def test_profile_v_returns_the_last_v_it_evaluated():
    # the buffer keeps the entries' sums at the last V's evaluated, and the
    # next M-step starts at the V returned: they must be one V, on the early
    # return, the interpolated and Gauss-Newton starts and their fallbacks,
    # the secant, its midpoint step and the Brent fallback alike
    from scorefim.models.pk import _profile_v

    def traced(f, grad, curv=None):
        calls = []

        def evaluate(V):
            calls.append((V, f(V)))
            return f(V), grad(V), None if curv is None else curv(V)

        return evaluate, calls

    def kinked(V):  # slope 2 (V - 30) below V = 35, 10 above
        return (V - 30.0) ** 2 if V < 35.0 else 25.0 + 10.0 * (V - 35.0)

    # name: f, its derivative, curvature, V0, kept points, the step that ends it
    cases = {
        "early": (lambda V: (V - 30.0) ** 2, lambda V: 0.0, None, 30.0, (), "start"),
        "gauss-newton": (
            lambda V: (V - 30.0) ** 2, lambda V: 2.0 * (V - 30.0), lambda V: 2.0, 40.0, (), "gauss_newton"
        ),
        # V(g) = (g + sqrt 10)^2 + 20 is quadratic in g: the interpolate is the root
        "interpolation": (
            lambda V: 2.0 / 3.0 * (V - 20.0) ** 1.5 - np.sqrt(10.0) * V,
            lambda V: np.sqrt(V - 20.0) - np.sqrt(10.0), None, 40.0, (34.0, 37.0), "interpolation",
        ),
        # the three derivatives coincide: the Gauss-Newton step instead
        "equal derivatives": (
            kinked, lambda V: 2.0 * (V - 30.0) if V < 35.0 else 10.0, lambda V: 1.0,
            40.0, (36.0, 38.0), "gauss_newton",
        ),
        # one kept point only: no interpolation, the probe downhill
        "one kept point": (
            lambda V: np.cosh(V / 10.0 - 3.0), lambda V: np.sinh(V / 10.0 - 3.0) / 10.0, None,
            38.0, (36.0,), "secant",
        ),
        # derivatives near 1 put the interpolate far out: it is clipped to 4 V0
        "clipped interpolation": (
            lambda V: np.log(np.cosh(V - 30.0)), lambda V: np.tanh(V - 30.0), None,
            40.0, (36.0, 38.0), "secant",
        ),
        "secant": (
            lambda V: np.cosh(V / 10.0 - 3.0), lambda V: np.sinh(V / 10.0 - 3.0) / 10.0, None, 38.0,
            (), "secant",
        ),
        "midpoint": (
            lambda V: np.log(np.cosh(V - 30.0)), lambda V: np.tanh(V - 30.0), None, 40.0, (), "secant"
        ),
        # a derivative that never changes sign leaves the secant stalled
        "brent": (lambda V: (V - 30.0) ** 2, lambda V: 1.0, None, 40.0, (), "brent"),
    }
    for name, (f, grad, curv, V0, kept, step) in cases.items():
        evaluate, calls = traced(f, grad, curv)
        V, fV, how = _profile_v(evaluate, V0, kept)
        assert (V, fV) == calls[-1] and how == step, name
        Vs = [c[0] for c in calls]
        assert Vs[:len(kept) + 1] == [*kept, V0], name
        assert len(calls) == 1 if name == "early" else len(calls) > len(kept) + 1, name
        if name == "interpolation":
            assert len(calls) == 4 and V == pytest.approx(30.0, rel=1e-12)
        if name == "equal derivatives":
            assert Vs[3] == 30.0  # V0 - g0 / 1
        if name == "clipped interpolation":
            assert Vs[3] == 160.0 and V == pytest.approx(30.0, rel=1e-6)
        if name == "midpoint":
            assert any(Vs[i] == 0.5 * (Vs[i - 1] + Vs[i - 2]) for i in range(2, len(Vs)))
        if name == "brent":
            assert V == pytest.approx(30.0, rel=1e-6) and len(calls) > 3


def test_profile_v_curvature_start_reaches_the_secant_minimum(pk_fixed_v_data):
    from scorefim.models.pk import _FusedProfile, _design_arrays, _profile_factors, _profile_v

    Y, T, doses = _design_arrays(pk_fixed_v_data)
    latents, w = _buffer_stack(pk_fixed_v_data, 21, 51)
    prof = _FusedProfile(Y, _profile_factors(T, doses, np.stack(latents)), w)

    def probe_only(V):
        return prof(V)[:2] + (None,)

    for V0 in (15.0, 31.0, 100.0):
        f0, g0, c0 = prof(V0)
        if V0 == 100.0:
            assert V0 - g0 / c0 < V0 / 4.0  # the Gauss-Newton step is clipped
        gtol = 1e-8 * (1.0 + abs(f0))
        V_gn, f_gn, _ = _profile_v(prof, V0)
        V_probe, _, _ = _profile_v(probe_only, V0)
        assert abs(prof(V_gn)[1]) < 10.0 * gtol
        assert f_gn == prof(V_gn)[0]
        assert V_gn == pytest.approx(V_probe, rel=1e-6)


def test_rss_memo_sees_latents_changed_in_place(pk, pk_data, pk_theta):
    # the MH step writes accepted proposals into Z in place: the kept residual
    # sums must not be returned for the changed latents
    ds = pk_data.subset(range(pk_data.n))
    Z = pk.initial_latents(ds, pk_theta, substream(3, 1))
    first = pk.complete_loglik(ds, Z, pk_theta)
    Z[::2] += 0.05
    got = pk.complete_loglik(ds, Z, pk_theta)
    assert not np.array_equal(got, first)
    # each method on a fresh dataset computes its own sums
    for method in ("complete_loglik", "complete_score", "complete_hessian", "statistics"):
        args = (Z, pk_theta) if method != "statistics" else (Z,)
        np.testing.assert_array_equal(
            getattr(pk, method)(ds, *args), getattr(pk, method)(ds.subset(range(ds.n)), *args),
            err_msg=method,
        )


def test_replicated_record_matches_the_single_record_rows(pk, pk_data, pk_theta):
    from scorefim.models.pk import _design_arrays

    one = pk_data.subset([4])
    n = 40
    rep = one.replicate(n)  # as the oracle builds its draws' dataset
    Y, T, doses = _design_arrays(rep)
    assert Y.shape == T.shape == (n, one.y.shape[1]) and doses.shape == (n,)
    assert not (Y.flags.writeable or T.flags.writeable or doses.flags.writeable)
    assert Y.strides[0] == T.strides[0] == doses.strides[0] == 0  # broadcast views
    Z = pk.initial_latents(rep, pk_theta, substream(4, 1))
    for method in ("complete_loglik", "complete_score", "complete_hessian"):
        got = getattr(pk, method)(rep, Z, pk_theta)
        want = np.concatenate([getattr(pk, method)(one, Z[b:b + 1], pk_theta) for b in range(n)])
        np.testing.assert_array_equal(got, want, err_msg=method)


def test_ragged_design_matches_records_evaluated_alone(pk, pk_theta, pk_data, pk_fixed_v, pk_fixed_v_theta):
    # records of 8 to 10 observations are padded to 10 with t = 0, y = 0;
    # every padded slot must add exactly nothing to any per-record sum
    from scorefim import Dataset
    from scorefim.models.pk import _FusedProfile, _design_arrays, _profile_factors

    k = 10 - np.arange(12) % 3
    keep = np.arange(10) < k[:, None]
    ds = Dataset.from_arrays(
        np.where(keep, pk_data.y[:12], 0.0), k, np.where(keep, pk_data.times[:12], 0.0),
        pk_data.doses[:12] * (1 + np.arange(12) / 10),
    )
    Y, T, doses = _design_arrays(ds)
    assert Y.shape == T.shape == (12, 10) and (T[2, 8:] == 0).all() and (Y[2, 8:] == 0).all()
    alone = [ds.subset([i]) for i in range(ds.n)]
    rng = substream(52, 1)

    def check(method, model, Z, *args):
        got = getattr(model, method)(ds, Z, *args)
        want = np.concatenate([getattr(model, method)(one, Z[i:i + 1], *args) for i, one in enumerate(alone)])
        np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=method)

    Z = pk.initial_latents(ds, pk_theta, rng)
    check("complete_loglik", pk, Z, pk_theta)
    check("statistics", pk, Z)
    Zv = pk_fixed_v.initial_latents(ds, pk_fixed_v_theta, rng)
    check("complete_loglik", pk_fixed_v, Zv, pk_fixed_v_theta)
    check("complete_score", pk_fixed_v, Zv, pk_fixed_v_theta)

    latents, w = _buffer_stack(ds, 20, 53)
    stack = np.stack(latents)
    prof = _FusedProfile(Y, _profile_factors(T, doses, stack), w)

    def alone_profile(i):
        Yi, Ti, Di = _design_arrays(alone[i])
        return _FusedProfile(Yi, _profile_factors(Ti, Di, stack[:, i:i + 1]), w)

    for V in (12.0, 31.0, 77.0):
        parts = [alone_profile(i)(V) for i in range(len(alone))]
        np.testing.assert_allclose(prof(V), np.sum(parts, axis=0), rtol=1e-12)
