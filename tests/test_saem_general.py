"""General (non-exponential) stochastic algorithm: buffer bookkeeping, the
weighted M-step against grid/closed-form oracles, and the Delta recursions."""

from dataclasses import replace

import numpy as np
import pytest

from scorefim import Design, simulate_dataset
from scorefim.errors import ConfigError, DomainViolation, MStepFailure
from scorefim.rng import substream
from scorefim.saem import (
    SaemConfig, SaemResult, StepSchedule, individual_delta, run_saem, step_size,
)
from scorefim.saem_general import (
    WeightedSampleBuffer,
    _relaxed_weights,
    buffer_gradient,
    buffer_objective,
    buffer_update,
    check_buffer_schedule,
    delta_update,
    maximize_q,
    run_general_saem,
)


def _z(val, n=3, d=1):
    return np.full((n, d), float(val))


def _buffer_lengths(schedule, total_iterations, prune_epsilon):
    """len(buffer) after each iteration of a run under ``schedule``: the
    weights depend on the step sizes and prune_epsilon alone, so one-value
    draws give the lengths of any run."""
    buf, lengths = WeightedSampleBuffer(prune_epsilon=prune_epsilon), []
    for k in range(1, total_iterations + 1):
        buf = buffer_update(buf, _z(k, n=1), step_size(k, schedule))
        lengths.append(len(buf))
    return lengths


def _assert_stationary(buf, model, dataset, theta):
    """The M-step's postcondition: the gradient of Q at theta is below
    1e-6 (1 + |Q|) in norm."""
    g = buffer_gradient(buf, model, dataset, theta)
    q = buffer_objective(buf, model, dataset, theta)
    assert np.linalg.norm(g) < 1e-6 * (1.0 + abs(q))


def test_buffer_unrolling_example():
    buf = WeightedSampleBuffer(prune_epsilon=0.0)
    for g, v in [(1.0, 1), (0.5, 2), (0.5, 3)]:
        buf = buffer_update(buf, _z(v), g)
    np.testing.assert_allclose(buf.weights, [0.25, 0.25, 0.5])
    assert [l[0, 0] for l in buf.latents] == [1.0, 2.0, 3.0]


def test_buffer_gamma_one_keeps_newest():
    buf = WeightedSampleBuffer(prune_epsilon=1e-12)
    buf = buffer_update(buf, _z(1), 0.7)
    buf = buffer_update(buf, _z(2), 1.0)
    assert len(buf) == 1
    assert buf.latents[0][0, 0] == 2.0
    np.testing.assert_allclose(buf.weights, [1.0])


def test_buffer_gamma_zero_no_entry():
    buf = WeightedSampleBuffer()
    buf = buffer_update(buf, _z(1), 0.6)
    buf = buffer_update(buf, _z(2), 0.0)
    assert len(buf) == 1
    np.testing.assert_allclose(buf.weights, [0.6])


def test_buffer_weight_law_and_mass_accounting():
    rng = substream(81, 0)
    gammas = [1.0] + list(rng.uniform(0.05, 0.9, 40))
    buf = WeightedSampleBuffer(prune_epsilon=1e-4)
    for k, g in enumerate(gammas):
        buf = buffer_update(buf, _z(k), g)
    # surviving weight law: w_l = gamma_l prod_{j>l} (1 - gamma_j)
    for latent, w in zip(buf.latents, buf.weights):
        l = int(latent[0, 0])
        expect = gammas[l] * np.prod([1.0 - g for g in gammas[l + 1 :]])
        assert w == pytest.approx(expect, rel=1e-12)
    # with gamma_1 = 1 the retained mass plus discarded mass is exactly 1
    assert buf.total_weight + buf.discarded_mass == pytest.approx(1.0, abs=1e-12)


def test_max_buffer_length_follows_the_buffer():
    assert max(_buffer_lengths(StepSchedule(10, 0.95, 0.6), 80, 1e-3)) > 10
    # the paper-scale and desk fixed-V schedules (the lengths README gives)
    paper = StepSchedule(1000, 0.95, 0.6)
    lengths = _buffer_lengths(paper, 3000, 1e-5)
    assert max(lengths) == 614
    assert max(lengths[:2389]) == 500
    assert max(lengths[:2390]) == 501
    assert max(_buffer_lengths(paper, 3000, 1e-6)) == 789
    assert max(_buffer_lengths(StepSchedule(150, 0.95, 0.6), 400, 1e-5)) == 176


def test_zero_weight_entries_drop_at_prune_epsilon_zero():
    # the gamma = 1 step after burn-in zeroes every older weight; at
    # prune_epsilon 0 those entries must go too, not stay at weight 0
    buf = WeightedSampleBuffer(prune_epsilon=0.0)
    for v, g in [(1, 0.5), (2, 0.5), (3, 1.0), (4, 0.5)]:
        buf = buffer_update(buf, _z(v), g)
    assert [l[0, 0] for l in buf.latents] == [3.0, 4.0]
    np.testing.assert_array_equal(buf.weights, [0.5, 0.5])
    assert max(_buffer_lengths(StepSchedule(150, 0.95, 0.6), 400, 0.0)) == 250
    assert max(_buffer_lengths(StepSchedule(1000, 0.95, 0.6), 3000, 0.0)) == 2000


def test_run_general_saem_runs_the_default_schedule_to_its_buffer_length(lmm):
    # the default schedule (burn-in 1000, K = 3000) reaches 789 entries at
    # the default prune_epsilon 1e-6; the buffer holds them all
    ds = simulate_dataset(lmm, lmm.make_params([3.0, 2.0, 5.0]), Design(n=5, n_obs=4), seed=91)
    res = run_general_saem(lmm, ds, SaemConfig(seed=1))
    assert isinstance(res, SaemResult) and res.louis is None
    assert res.diagnostics["buffer_length"] == 789
    assert np.isfinite(res.theta.values).all()


def test_check_buffer_schedule_rejects_a_step_at_or_below_prune_epsilon(lmm):
    # after burn-in the step 1/(k - 5) falls below 1e-3 at k = 1006: that
    # draw would be pruned as it enters, the tied older weights with it, and
    # the M-step would find the buffer empty, so the run refuses to start
    cfg = SaemConfig(schedule=StepSchedule(5, 0.95, 1.0), total_iterations=1010, seed=1)
    with pytest.raises(ConfigError, match="below the smallest step"):
        check_buffer_schedule(cfg, 1e-3)
    ds = simulate_dataset(lmm, lmm.make_params([3.0, 2.0, 5.0]), Design(n=5, n_obs=4), seed=91)
    with pytest.raises(ConfigError, match="below the smallest step"):
        run_general_saem(lmm, ds, cfg, prune_epsilon=1e-3)
    # the step exactly at prune_epsilon is rejected; one just above it is not
    at = SaemConfig(schedule=StepSchedule(5, 0.95, 1.0), total_iterations=1005)
    with pytest.raises(ConfigError):
        check_buffer_schedule(at, 1e-3)
    check_buffer_schedule(replace(at, total_iterations=1004), 1e-3)
    assert max(_buffer_lengths(at.schedule, 1004, 1e-3)) == 999
    with pytest.raises(ConfigError):  # a burn-in step at or below it too
        check_buffer_schedule(SaemConfig(schedule=StepSchedule(5, 0.01, 0.6), total_iterations=50), 0.01)


def _prunes_oldest_first(schedule, total_iterations, prune_epsilon):
    """Whether every prune mask over a run is a suffix: no kept entry is
    older than a pruned one."""
    weights = np.zeros(0)
    for k in range(1, total_iterations + 1):
        weights, keep = _relaxed_weights(weights, step_size(k, schedule), prune_epsilon)
        if (np.diff(keep.astype(int)) < 0).any():
            return False
        weights = weights[keep]
    return True


def test_pruning_drops_the_oldest_entries_first():
    # the weights never decrease from the oldest entry to the newest, so the
    # buffer's window only slides; checked on every preset schedule, at desk
    # and paper scale, and on a grid of schedules the parser accepts
    from scorefim.presets import PRESETS, preset_config
    from scorefim.studies import parse_study_config

    runs = []
    for name in PRESETS:
        for desk in (False, True):
            cfg = parse_study_config(preset_config(name, desk=desk))
            if cfg.saem is not None:
                runs.append((cfg.saem.schedule, cfg.saem.total_iterations, cfg.prune_epsilon))
    assert len(runs) == 4
    for burn_in in (0, 7, 60):
        for burn_value in (0.3, 0.95, 1.0):
            for exponent in (0.51, 0.6, 0.8, 1.0):
                for eps in (0.0, 1e-6, 1e-3):
                    cfg = SaemConfig(StepSchedule(burn_in, burn_value, exponent), total_iterations=400)
                    try:
                        check_buffer_schedule(cfg, eps)
                    except ConfigError:
                        continue
                    runs.append((cfg.schedule, 400, eps))
    assert len(runs) > 100
    for schedule, total, eps in runs:
        assert _prunes_oldest_first(schedule, total, eps), (schedule, total, eps)


def test_buffer_memory_follows_the_live_length():
    # the array behind the window is sized to the live entries plus slack
    sched = StepSchedule(10, 0.95, 0.6)
    lengths = _buffer_lengths(sched, 80, 1e-3)
    buf = WeightedSampleBuffer(prune_epsilon=1e-3)
    for k in range(1, 81):
        buf = buffer_update(buf, _z(k), step_size(k, sched))
        assert len(buf.latents.base) <= 1.25 * max(lengths[:k]) + 17


def test_derived_keeps_the_last_three_keys():
    # per-entry arrays are kept at the last three keys asked for, the least
    # recently asked dropped first; each array is filled with the entries
    # that joined since it was last asked for, and its rows survive slides
    # and relocations and equal a fresh fill
    dataset, calls = object(), []

    def fill(key):
        def rows(Z):
            calls.append((key, len(Z)))
            return Z[:, 0, 0] * key
        return rows

    buf = WeightedSampleBuffer(prune_epsilon=1e-3)
    live, have, bases = [], {}, []  # have: key -> entries filled, least recent first
    for k in range(1, 61):
        buf = buffer_update(buf, _z(k), 0.3)
        live = [v for v in live if 0.3 * 0.7 ** (k - v) >= 1e-3] + [k]
        bases.append(buf.latents.base)  # held, so a freed array's id is not reused
        for key in ([2.0] if k % 3 == 0 else [1.0, 2.0, 3.0 + k // 10]):
            calls.clear()
            rows = buf.derived("rows", dataset, fill(key), key=key)
            at = have.pop(key, set())
            if len(have) == 3:
                have.pop(next(iter(have)))
            assert calls == ([(key, len(set(live) - at))] if set(live) - at else [])
            have[key] = set(live)
            np.testing.assert_array_equal(rows, np.array(live, dtype=float) * key)
        assert buf.derived_keys("rows", dataset) == list(have)
    assert len(set(map(id, bases))) > 2 and buf.derived_keys("rows", object()) == []


def test_buffer_rejects_bad_gamma():
    with pytest.raises(DomainViolation):
        buffer_update(WeightedSampleBuffer(), _z(0), 1.5)


def test_delta_update_trivials():
    d = np.array([[1.0, 2.0]])
    s = np.array([[5.0, -2.0]])
    np.testing.assert_array_equal(delta_update(d, s, 1.0), s)
    np.testing.assert_array_equal(delta_update(d, s, 0.0), d)
    np.testing.assert_allclose(delta_update(d, s, 0.25), 0.75 * d + 0.25 * s)


def test_delta_recursion_matches_expo_delta_under_frozen_theta(lmm, lmm_data, lmm_theta):
    # on shared draws with theta held fixed, the general Delta recursion equals
    # Delta-hat evaluated at the identically-relaxed statistics (linearity)
    rng = substream(82, 0)
    gammas = [1.0] + list(rng.uniform(0.1, 0.9, 25))
    stats = None
    deltas = np.zeros((lmm_data.n, 3))
    for g in gammas:
        Z = lmm.sample_conditional(lmm_data, lmm_theta, rng)
        s_new = lmm.statistics(lmm_data, Z)
        stats = s_new if stats is None else (1 - g) * stats + g * s_new
        score = lmm.complete_score(lmm_data, Z, lmm_theta)
        deltas = delta_update(deltas, score, g)
    np.testing.assert_allclose(
        deltas, individual_delta(lmm, lmm_data, stats, lmm_theta), rtol=1e-12, atol=1e-12
    )


def test_maximize_q_quadratic_closed_form(lmm, lmm_data, lmm_theta):
    # expo-family model: weighted argmax equals theta-hat of weighted stats
    rng = substream(83, 0)
    buf = WeightedSampleBuffer(prune_epsilon=0.0)
    for g in (1.0, 0.6, 0.3):
        buf = buffer_update(buf, lmm.sample_conditional(lmm_data, lmm_theta, rng), g)
    theta = maximize_q(buf, lmm, lmm_data, lmm_theta)
    _assert_stationary(buf, lmm, lmm_data, theta)
    wn = buf.weights / buf.total_weight
    stats = sum(w * lmm.statistics(lmm_data, Z) for w, Z in zip(wn, buf.latents))
    expect = lmm.argmax_complete(lmm_data, stats)
    np.testing.assert_allclose(theta.values, expect.values, rtol=1e-12)


def test_maximize_q_single_entry_is_complete_mle(lmm, lmm_data, lmm_theta):
    rng = substream(84, 0)
    Z = lmm.sample_conditional(lmm_data, lmm_theta, rng)
    buf = buffer_update(WeightedSampleBuffer(), Z, 1.0)
    theta = maximize_q(buf, lmm, lmm_data, lmm_theta)
    expect = lmm.argmax_complete(lmm_data, lmm.statistics(lmm_data, Z))
    np.testing.assert_allclose(theta.values, expect.values, rtol=1e-12)


def test_maximize_q_empty_buffer(lmm, lmm_data, lmm_theta):
    with pytest.raises(MStepFailure):
        maximize_q(WeightedSampleBuffer(), lmm, lmm_data, lmm_theta)


def test_fixed_v_mstep_matches_grid_oracle(pk_fixed_v, pk_fixed_v_data, pk_fixed_v_theta):
    rng = substream(85, 0)
    buf = WeightedSampleBuffer(prune_epsilon=0.0)
    for g in (1.0, 0.5, 0.4, 0.3):
        Z = pk_fixed_v.initial_latents(pk_fixed_v_data, pk_fixed_v_theta, rng)
        buf = buffer_update(buf, Z, g)
    theta = maximize_q(buf, pk_fixed_v, pk_fixed_v_data, pk_fixed_v_theta)
    _assert_stationary(buf, pk_fixed_v, pk_fixed_v_data, theta)

    # 2001-point grid over [V/4, 4V] on the full weighted objective
    V0 = pk_fixed_v_theta.values[1]
    grid = np.linspace(V0 / 4.0, 4.0 * V0, 2001)
    best, best_q = None, -np.inf
    vals = theta.values.copy()
    for V in grid:
        vals[1] = V
        # profile sigma2 in closed form at each grid V
        rss = 0.0
        Jtot = pk_fixed_v_data.n_obs().sum()
        wn = buf.weights / buf.total_weight
        from scorefim.models.pk import _rss_per_individual
        rss = sum(
            w * _rss_per_individual(pk_fixed_v_data, Z, V_fixed=V).sum()
            for w, Z in zip(wn, buf.latents)
        )
        vals[5] = max(rss / Jtot, 1e-10)
        q = buffer_objective(buf, pk_fixed_v, pk_fixed_v_data, pk_fixed_v.make_params(vals))
        if q > best_q:
            best_q, best = q, V
    resolution = grid[1] - grid[0]
    assert abs(theta.values[1] - best) <= resolution


def test_mstep_gradient_postcondition(pk_fixed_v, pk_fixed_v_data, pk_fixed_v_theta):
    rng = substream(86, 0)
    buf = WeightedSampleBuffer(prune_epsilon=0.0)
    for g in (1.0, 0.5):
        Z = pk_fixed_v.initial_latents(pk_fixed_v_data, pk_fixed_v_theta, rng)
        buf = buffer_update(buf, Z, g)
    theta = maximize_q(buf, pk_fixed_v, pk_fixed_v_data, pk_fixed_v_theta)
    _assert_stationary(buf, pk_fixed_v, pk_fixed_v_data, theta)


def test_mstep_on_non_uniform_design(pk_fixed_v, pk_fixed_v_data, pk_fixed_v_theta):
    # records of different lengths are padded to the longest one, so the
    # M-step runs the same profile as on a uniform design
    from scorefim.data import Dataset
    from scorefim.models.pk import _design_arrays

    data = pk_fixed_v_data
    k = 10 - np.arange(data.n) % 3
    keep = np.arange(10) < k[:, None]
    ds = Dataset.from_arrays(
        np.where(keep, data.y, 0.0), k, np.where(keep, data.times, 0.0), data.doses
    )
    Y, T, doses = _design_arrays(ds)
    assert Y.shape == T.shape == (ds.n, 10) and doses.shape == (ds.n,)
    rng = substream(86, 0)
    buf = WeightedSampleBuffer(prune_epsilon=0.0)
    for g in (1.0, 0.5, 0.3):
        buf = buffer_update(buf, pk_fixed_v.initial_latents(ds, pk_fixed_v_theta, rng), g)
    theta = maximize_q(buf, pk_fixed_v, ds, pk_fixed_v_theta)
    _assert_stationary(buf, pk_fixed_v, ds, theta)


def test_mstep_never_decreases_current_objective(pk_fixed_v, pk_fixed_v_theta):
    ds = simulate_dataset(
        pk_fixed_v, pk_fixed_v_theta,
        Design(n=20, times=np.array([0.5, 1, 2, 5, 9, 24.0]), dose=320.0), seed=87,
    )
    cfg = SaemConfig(schedule=StepSchedule(20, 0.95, 0.6), total_iterations=60, seed=3)
    rng = substream(88, 0)
    theta = pk_fixed_v.initial_theta(ds)
    Z = pk_fixed_v.initial_latents(ds, theta, rng)
    buf = WeightedSampleBuffer()
    from scorefim.saem import _mh_sweep, step_size

    logf = pk_fixed_v.complete_loglik(ds, Z, theta)
    for k in range(1, 40):
        gamma = step_size(k, cfg.schedule)
        logf = pk_fixed_v.complete_loglik(ds, Z, theta)
        Z, logf, _ = _mh_sweep(pk_fixed_v, ds, Z, logf, theta, 0.3 * np.ones(2), rng, 3)
        buf = buffer_update(buf, Z, gamma)
        q_old = buffer_objective(buf, pk_fixed_v, ds, theta)
        theta = maximize_q(buf, pk_fixed_v, ds, theta)
        q_new = buffer_objective(buf, pk_fixed_v, ds, theta)
        assert q_new >= q_old - 1e-8


def test_general_run_point_mass_is_deterministic_em(lmm):
    tiny = lmm.make_params([3.0, 1e-14, 5.0])
    ds = simulate_dataset(lmm, tiny, Design(n=20, n_obs=12), seed=89)
    cfg1 = SaemConfig(schedule=StepSchedule(3, 1.0, 1.0), total_iterations=5, seed=1)
    cfg2 = SaemConfig(schedule=StepSchedule(3, 1.0, 1.0), total_iterations=5, seed=2)
    r1 = run_general_saem(lmm, ds, cfg1, theta0=tiny)
    r2 = run_general_saem(lmm, ds, cfg2, theta0=tiny)
    np.testing.assert_allclose(
        r1.trajectories["theta"], r2.trajectories["theta"], rtol=1e-6, atol=1e-12
    )
    assert r1.fim.is_psd()


def test_general_seed_determinism(pk_fixed_v, pk_fixed_v_data):
    cfg = SaemConfig(schedule=StepSchedule(15, 0.95, 0.6), total_iterations=45, seed=5)
    theta0 = pk_fixed_v.initial_theta(pk_fixed_v_data)
    a = run_general_saem(pk_fixed_v, pk_fixed_v_data, cfg, theta0=theta0)
    b = run_general_saem(pk_fixed_v, pk_fixed_v_data, cfg, theta0=theta0)
    np.testing.assert_array_equal(a.trajectories["theta"], b.trajectories["theta"])
    np.testing.assert_array_equal(a.fim.entries, b.fim.entries)


def test_general_fim_psd_and_trajectories(pk_fixed_v, pk_fixed_v_data):
    cfg = SaemConfig(schedule=StepSchedule(25, 0.95, 0.6), total_iterations=80, seed=6)
    res = run_general_saem(
        pk_fixed_v, pk_fixed_v_data, cfg, theta0=pk_fixed_v.initial_theta(pk_fixed_v_data)
    )
    assert res.fim.provenance == "sa-byproduct"
    assert res.fim.is_psd()
    assert "pruned_mass" in res.trajectories
    assert res.trajectories["pruned_mass"][-1] >= 0.0


def test_general_run_reports_mstep_effort(pk_fixed_v, pk_fixed_v_data, lmm, lmm_data):
    # every fixed-V M-step names the step that ended its profile; the
    # whole-window evaluations are counted beside them, and the first
    # M-steps, with fewer than three kept V's, cannot interpolate
    cfg = SaemConfig(schedule=StepSchedule(25, 0.95, 0.6), total_iterations=80, seed=6)
    res = run_general_saem(pk_fixed_v, pk_fixed_v_data, cfg)
    effort = res.diagnostics["mstep_effort"]
    steps = ("start", "interpolation", "gauss_newton", "secant", "brent")
    assert set(effort) <= {"window_evals", *steps}
    assert sum(effort.get(s, 0) for s in steps) == 80
    assert effort["interpolation"] > 0 and effort["window_evals"] >= 80 - effort.get("start", 0)
    # an exponential-family M-step has no profile to count
    small = SaemConfig(schedule=StepSchedule(5, 0.95, 0.6), total_iterations=10, seed=6)
    assert run_general_saem(lmm, lmm_data, small).diagnostics["mstep_effort"] == {}


def test_cross_algorithm_consistency(pk, pk_theta):
    # run the exponential PK model through BOTH engines; estimates must agree
    # within their own convergence bands
    times = np.array([0.25, 0.5, 1, 2, 3.5, 5, 7, 9, 12, 24.0])
    ds = simulate_dataset(pk, pk_theta, Design(n=40, times=times, dose=320.0), seed=90)
    theta0 = pk.initial_theta(ds)
    sched = StepSchedule(300, 0.95, 0.6)
    res_core = run_saem(
        pk, ds, SaemConfig(schedule=sched, total_iterations=900, seed=7), theta0=theta0
    )
    res_gen = run_general_saem(
        pk, ds, SaemConfig(schedule=sched, total_iterations=900, seed=8), theta0=theta0
    )
    rel_theta = np.abs(res_core.theta.values - res_gen.theta.values) / np.abs(res_core.theta.values)
    assert np.max(rel_theta) < 0.1
    d_core = np.diag(res_core.fim.entries)
    d_gen = np.diag(res_gen.fim.entries)
    assert np.max(np.abs(d_core - d_gen) / d_core) < 0.3


def test_cross_algorithm_consistency_within_mc_se(pk, pk_theta):
    # the same comparison calibrated by Monte Carlo error: on each of three
    # datasets, 4 fits per engine on their own seeds give the SE of the gap
    # between the engines' means, which must stay within 5 SEs for every
    # theta entry and FIM diagonal entry (largest |z| 3.2 over datasets
    # 90-97 when the test was written)
    times = np.array([0.25, 0.5, 1, 2, 3.5, 5, 7, 9, 12, 24.0])
    sched = StepSchedule(200, 0.95, 0.6)
    for data_seed in (90, 91, 92):
        ds = simulate_dataset(pk, pk_theta, Design(n=40, times=times, dose=320.0), seed=data_seed)
        theta0 = pk.initial_theta(ds)
        fits = []
        for engine, offset in ((run_saem, 1), (run_general_saem, 1001)):
            runs = [
                engine(pk, ds, SaemConfig(schedule=sched, total_iterations=600, seed=offset + s), theta0=theta0)
                for s in range(4)
            ]
            fits.append(np.array([np.r_[r.theta.values, np.diag(r.fim.entries)] for r in runs]))
        core, gen = fits
        se = np.sqrt(core.var(axis=0, ddof=1) / len(core) + gen.var(axis=0, ddof=1) / len(gen))
        z = (core.mean(axis=0) - gen.mean(axis=0)) / se
        assert np.abs(z).max() < 5.0, (data_seed, np.round(z, 2))
