"""Stochastic approximation EM: schedule, kernel, recursions, by-products."""

import numpy as np
import pytest
from scipy.optimize import minimize

from scorefim import Design, simulate_dataset
from scorefim.data import Dataset
from scorefim.errors import ConfigError
from scorefim.modelbase import ExpoFamilyModel
from scorefim.models import LinearMixedModel
from scorefim.params import ParamVector
from scorefim.rng import substream
from scorefim.saem import (
    SaemConfig,
    StepSchedule,
    _mh_sweep,
    individual_delta,
    run_saem,
    step_size,
)


def paper_schedule(burn=1000):
    return StepSchedule(burn_in=burn, burn_value=0.95, exponent=0.6)


def test_step_size_examples():
    sched = paper_schedule()
    assert step_size(500, sched) == 0.95
    assert step_size(1000, sched) == 0.95
    assert step_size(1001, sched) == 1.0
    assert step_size(2024, sched) == pytest.approx(2.0**-6, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        StepSchedule(burn_in=10, burn_value=0.0, exponent=0.6)
    with pytest.raises(ConfigError):
        StepSchedule(burn_in=10, burn_value=0.95, exponent=0.5)
    with pytest.raises(ConfigError):
        StepSchedule(burn_in=10, burn_value=0.95, exponent=1.2)
    with pytest.raises(ConfigError):
        SaemConfig(schedule=paper_schedule(100), total_iterations=100)


def _one_step_from(model, one, z, theta, scale, rng, trials):
    """One random-walk MH step from z in each of ``trials`` chains, all on
    copies of the one-individual dataset ``one``; returns the (trials, d) end
    points."""
    ds = one.subset([0] * trials)
    Z = np.tile(np.asarray(z, dtype=float), (trials, 1))
    logf = model.complete_loglik(ds, Z, theta)
    Z, _, _ = _mh_sweep(model, ds, Z, logf, theta, np.array([scale]), rng, 1)
    return Z


def test_mh_accepts_uphill(lmm, lmm_theta, lmm_data):
    # a proposal with higher complete log-likelihood is always accepted
    one = lmm_data.subset([0])
    rng = substream(1, 0)
    m, v = lmm._posterior(one, lmm_theta)
    far = np.array([m[0] + 25.0])
    z_new = _one_step_from(lmm, one, far, lmm_theta, 1e-4, rng, 50)
    accepted = int(np.sum(z_new[:, 0] != far[0]))
    assert accepted == 50  # tiny steps from far out always move uphill


def test_mh_zero_scale_is_constant(lmm, lmm_theta, lmm_data):
    one = lmm_data.subset([0])
    rng = substream(1, 1)
    z = np.array([0.7])
    z_new = _one_step_from(lmm, one, z, lmm_theta, 0.0, rng, 10)
    np.testing.assert_array_equal(z_new, np.tile(z, (10, 1)))


def test_mh_long_run_matches_conjugate_posterior(lmm, lmm_theta):
    ds = simulate_dataset(lmm, lmm_theta, Design(n=15, n_obs=12), seed=61)
    m, v = lmm._posterior(ds, lmm_theta)
    # one diagonal scale for all chains, then one proposal factor per chain
    per_chain = np.linspace(0.6, 1.0, ds.n)[:, None, None]
    for path, scales in enumerate((np.array([0.8]), per_chain)):
        rng = substream(62, path)
        Z = lmm.initial_latents(ds, lmm_theta, rng)
        logf = lmm.complete_loglik(ds, Z, lmm_theta)
        total = np.zeros(ds.n)
        count = 0
        for it in range(8000):
            Z, logf, _ = _mh_sweep(lmm, ds, Z, logf, lmm_theta, scales, rng, 1)
            if it >= 1000:
                total += Z[:, 0]
                count += 1
        mean = total / count
        # 3 sigma with an autocorrelation-inflated MC standard error
        mc_se = np.sqrt(v) / np.sqrt(count / 25.0)
        assert np.all(np.abs(mean - m) < 3.5 * mc_se)


def test_mh_detailed_balance_smoke(lmm, lmm_theta):
    # pi(A) q(A->B) alpha(A->B) == pi(B) q(B->A) alpha(B->A) for the
    # random-walk kernel; empirical flows into matched balls around A and B
    ds1 = simulate_dataset(lmm, lmm_theta, Design(n=1, n_obs=12), seed=63)
    scale = 1.0
    A, B = np.array([0.0]), np.array([1.1])
    radius = 0.12
    rng = substream(64, 0)

    def log_pi(z):
        return float(lmm.complete_loglik(ds1, np.array([z]), lmm_theta)[0])

    flows = {}
    for name, start in (("AB", A), ("BA", B)):
        trials = 150_000
        z_new = _one_step_from(lmm, ds1, start, lmm_theta, scale, rng, trials)
        hits = int(np.sum(np.abs(z_new[:, 0] - (B if name == "AB" else A)[0]) < radius))
        flows[name] = hits / trials
    lhs = np.exp(log_pi(A)) * flows["AB"]
    rhs = np.exp(log_pi(B)) * flows["BA"]
    se = np.exp(log_pi(A)) * np.sqrt(flows["AB"] / 150_000) + np.exp(
        log_pi(B)
    ) * np.sqrt(flows["BA"] / 150_000)
    assert abs(lhs - rhs) < 4.0 * se + 1e-12


def test_gamma_one_erases_history(recording_lmm, lmm_data, lmm_theta):
    # gamma = 1 at every iteration: each s^k is the statistic of draw k alone
    cfg = SaemConfig(
        schedule=StepSchedule(burn_in=5, burn_value=1.0, exponent=0.6),
        total_iterations=6, seed=3,
    )
    run_saem(recording_lmm, lmm_data, cfg, theta0=lmm_theta)
    assert len(recording_lmm.relaxed) == 6
    np.testing.assert_array_equal(np.stack(recording_lmm.relaxed), np.stack(recording_lmm.drawn[1:]))


def test_point_mass_conditional_reduces_to_deterministic_em(lmm, lmm_theta):
    # eta2 -> 0 limit: conditional of z degenerates at (essentially) zero,
    # iterations become deterministic EM steps
    tiny = lmm.make_params([3.0, 1e-14, 5.0])
    ds = simulate_dataset(lmm, tiny, Design(n=25, n_obs=12), seed=66)
    cfg = SaemConfig(
        schedule=StepSchedule(burn_in=3, burn_value=1.0, exponent=1.0),
        total_iterations=4, seed=7,
    )
    r1 = run_saem(lmm, ds, cfg, theta0=tiny)
    r2 = run_saem(lmm, ds, SaemConfig(
        schedule=StepSchedule(burn_in=3, burn_value=1.0, exponent=1.0),
        total_iterations=4, seed=8,
    ), theta0=tiny)
    # different seeds, same trajectories: no residual stochasticity beyond
    # the degenerate 1e-14-scale variance coordinate itself
    np.testing.assert_allclose(
        r1.trajectories["theta"], r2.trajectories["theta"], rtol=1e-6, atol=1e-12
    )


def test_saem_converges_to_marginal_mle(lmm, lmm_theta):
    ds = simulate_dataset(lmm, lmm_theta, Design(n=100, n_obs=12), seed=67)

    # oracle: maximize the analytic marginal likelihood directly
    # (log-variance coordinates, analytic gradient)
    def negll_grad(x):
        th = lmm.make_params([x[0], np.exp(x[1]), np.exp(x[2])])
        g = lmm.marginal_score(ds, th).sum(axis=0)
        return (
            -lmm.marginal_loglik(ds, th).sum(),
            -np.array([g[0], g[1] * np.exp(x[1]), g[2] * np.exp(x[2])]),
        )

    res = minimize(negll_grad, [3.0, np.log(2.0), np.log(5.0)], jac=True,
                   method="L-BFGS-B", options={"ftol": 1e-15, "gtol": 1e-12})
    mle = np.array([res.x[0], np.exp(res.x[1]), np.exp(res.x[2])])
    # balanced design: the marginal MLE of the mean is the grand mean
    grand = np.mean(ds.y.mean(axis=1))
    assert mle[0] == pytest.approx(grand, abs=1e-6)

    cfg = SaemConfig(
        schedule=StepSchedule(burn_in=500, burn_value=0.95, exponent=0.6),
        total_iterations=2000, seed=11,
    )
    out = run_saem(lmm, ds, cfg)
    np.testing.assert_allclose(out.theta.values, mle, rtol=4e-2)


def test_seed_determinism(lmm, lmm_data):
    cfg = SaemConfig(
        schedule=paper_schedule(50), total_iterations=120, seed=12,
    )
    a = run_saem(lmm, lmm_data, cfg)
    b = run_saem(lmm, lmm_data, cfg)
    np.testing.assert_array_equal(a.trajectories["theta"], b.trajectories["theta"])
    np.testing.assert_array_equal(a.fim.entries, b.fim.entries)


def test_convex_hull_invariant(recording_lmm, lmm_data):
    cfg = SaemConfig(schedule=paper_schedule(30), total_iterations=90, seed=13)
    run_saem(recording_lmm, lmm_data, cfg)
    recording_lmm.assert_in_hull(1e-12)


def test_fim_byproduct_psd_symmetric(lmm, lmm_data):
    cfg = SaemConfig(schedule=paper_schedule(40), total_iterations=120, seed=14)
    out = run_saem(lmm, lmm_data, cfg)
    assert out.fim.provenance == "sa-byproduct"
    assert np.array_equal(out.fim.entries, out.fim.entries.T)
    assert out.fim.is_psd()
    assert out.fim.n == lmm_data.n


def test_delta_equals_marginal_score_at_conditional_expectation(lmm, lmm_data, lmm_theta):
    stats = lmm.conditional_stat_expectation(lmm_data, lmm_theta)
    delta = individual_delta(lmm, lmm_data, stats, lmm_theta)
    marg = lmm.marginal_score(lmm_data, lmm_theta)
    np.testing.assert_allclose(delta, marg, rtol=1e-10, atol=1e-12)


def test_delta_sums_to_zero_at_em_fixed_point(lmm, lmm_data):
    # iterate exact EM to numerical convergence, then check the score equation
    theta = lmm.initial_theta(lmm_data)
    for _ in range(4000):
        stats = lmm.conditional_stat_expectation(lmm_data, theta)
        theta = lmm.argmax_complete(lmm_data, stats)
    stats = lmm.conditional_stat_expectation(lmm_data, theta)
    total = individual_delta(lmm, lmm_data, stats, theta).sum(axis=0)
    assert np.linalg.norm(total) < 1e-6 * lmm_data.n


class _PointMassModel(ExpoFamilyModel):
    """Latent variable degenerate at a constant: missing information is zero."""

    name = "point-mass"
    param_names = ("mu",)
    latent_dim = 1
    stat_dim = 1

    def validate_params(self, theta):
        self._check_dim(theta)

    def complete_loglik(self, dataset, Z, theta):
        y = dataset.y[:, 0]
        return -0.5 * (y - theta.values[0]) ** 2 - 0.5 * Z[:, 0] ** 2

    def complete_score(self, dataset, Z, theta):
        y = dataset.y[:, 0]
        return (y - theta.values[0])[:, None]

    def complete_hessian(self, dataset, Z, theta):
        return -np.ones((dataset.n, 1, 1))

    def simulate(self, theta, design, rng):
        y = theta.values[0] + rng.standard_normal(design.n)
        return Dataset.from_arrays(y[:, None])

    def sample_conditional(self, dataset, theta, rng):
        return np.zeros((dataset.n, 1))

    def initial_latents(self, dataset, theta, rng):
        return np.zeros((dataset.n, 1))

    def initial_theta(self, dataset):
        return self.make_params([0.0])

    def statistics(self, dataset, Z):
        return Z.copy()

    def dpsi(self, dataset, theta):
        y = dataset.y[:, 0]
        return -(y - theta.values[0])[:, None]

    def dphi(self, dataset, theta):
        return np.zeros((dataset.n, 1, 1))

    def argmax_complete(self, dataset, stats):
        y = dataset.y[:, 0]
        return self.make_params([y.mean()])


def test_louis_point_mass_equals_complete_information():
    model = _PointMassModel()
    ds = model.simulate(model.make_params([1.0]), Design(n=20), substream(71, 0))
    cfg = SaemConfig(schedule=paper_schedule(20), total_iterations=60, seed=15,
                     track_louis=True)
    fim = run_saem(model, ds, cfg).louis
    assert fim.provenance == "louis-sa"
    # complete-data observed information is exactly 1 and missing info is zero
    np.testing.assert_allclose(fim.entries, [[1.0]], rtol=1e-12)


def test_louis_lmm_matches_analytic_observed_fim(lmm, lmm_theta):
    # exponent 1.0 makes the post-burn-in relaxation a uniform average,
    # which kills the quadratic noise of the D D^t covariance correction
    ds = simulate_dataset(lmm, lmm_theta, Design(n=400, n_obs=12), seed=72)
    cfg = SaemConfig(schedule=StepSchedule(500, 0.95, 1.0), total_iterations=2000,
                     seed=16, track_louis=True)
    res = run_saem(lmm, ds, cfg, theta0=lmm_theta)
    louis = res.louis
    analytic = -(lmm.marginal_hessian(ds, res.theta)).mean(axis=0)
    rel = np.abs(np.diag(louis.entries) - np.diag(analytic)) / np.abs(np.diag(analytic))
    assert np.all(rel < 0.02)


def test_trajectory_thinning(lmm, lmm_data):
    cfg = SaemConfig(schedule=paper_schedule(10), total_iterations=100, seed=18, thin=10)
    out = run_saem(lmm, lmm_data, cfg)
    assert list(out.trajectories["iteration"]) == list(range(10, 101, 10))
