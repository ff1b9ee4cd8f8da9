"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test registers a line that pytest prints in its terminal summary, so a
plain `pytest -v` run ends with one pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from scorefim import (
    Design,
    conditional_score_fim,
    finite_diff_score,
    mc_reference_fim,
    score_outer_fim,
    simulate_dataset,
)
from scorefim.models import (
    GaussianMixtureModel,
    LinearMixedModel,
    PkFixedVModel,
    PkNlmeModel,
    PoissonMixtureModel,
    lmm_analytic_fim,
)
from scorefim.presets import preset_config
from scorefim.rng import substream
from scorefim.saem import SaemConfig, StepSchedule, run_saem
from scorefim.saem_general import WeightedSampleBuffer, buffer_update
from scorefim.studies import parse_study_config, run_study

CRITERIA: dict[int, str] = {}
ATTEMPTED: set[int] = set()

PK_TIMES = np.array([0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 7.0, 9.0, 12.0, 24.0])


def _register(num: int, text: str) -> None:
    CRITERIA[num] = text


def _attempt(num: int) -> None:
    ATTEMPTED.add(num)


def _elapsed_guard(num, t0, budget_s):
    dt = time.monotonic() - t0
    assert dt < budget_s, f"criterion {num} exceeded its runtime budget: {dt:.1f}s"
    return dt


# --------------------------------------------------------------------------
def test_criterion_01_gradient_oracle_suite():
    t0 = time.monotonic()
    _attempt(1)
    rng = substream(9001, 0)
    cases = []

    lmm = LinearMixedModel()
    cases.append((
        lmm,
        lambda: lmm.make_params([rng.normal(3, 1), rng.uniform(0.5, 4), rng.uniform(1, 8)]),
        lambda th, n: lmm.simulate(th, Design(n=n, n_obs=12), rng),
        lambda n: rng.normal(0, 1.5, size=(n, 1)),
    ))
    poi = PoissonMixtureModel(3)
    cases.append((
        poi,
        lambda: poi.make_params(
            np.concatenate([np.sort(rng.uniform(1, 10, 3)), rng.dirichlet([4, 4, 4])[:2]])
        ),
        lambda th, n: poi.simulate(th, Design(n=n), rng),
        lambda n: rng.integers(0, 3, size=(n, 1)).astype(float),
    ))
    gmm = GaussianMixtureModel()
    cases.append((
        gmm,
        lambda: gmm.make_params([rng.uniform(0.2, 0.8), rng.normal(3, 1), rng.normal(0, 1)]),
        lambda th, n: gmm.simulate(th, Design(n=n), rng),
        lambda n: (rng.random((n, 1)) < 0.5).astype(float),
    ))
    pk = PkNlmeModel()
    cases.append((
        pk,
        lambda: pk.make_params(np.concatenate([
            [rng.uniform(1, 2.5), rng.uniform(20, 40), rng.uniform(1, 3)],
            rng.uniform(0.2, 0.8, 3), [rng.uniform(0.4, 1.2)],
        ])),
        lambda th, n: pk.simulate(th, Design(n=n, times=PK_TIMES, dose=320.0), rng),
        lambda n: np.log([1.6, 1.8, 31.0]) + rng.normal(0, 0.5, size=(n, 3)),
    ))
    pkv = PkFixedVModel()
    cases.append((
        pkv,
        lambda: pkv.make_params(np.concatenate([
            [rng.uniform(1, 2.5), rng.uniform(20, 40), rng.uniform(1, 3)],
            rng.uniform(0.2, 0.8, 2), [rng.uniform(0.4, 1.2)],
        ])),
        lambda th, n: pkv.simulate(th, Design(n=n, times=PK_TIMES, dose=320.0), rng),
        lambda n: np.log([1.6, 1.8]) + rng.normal(0, 0.5, size=(n, 2)),
    ))

    worst = 0.0
    for model, draw_theta, draw_data, draw_z in cases:
        checked = 0
        while checked < 100:
            theta = draw_theta()
            n = 10
            ds = draw_data(theta, n)
            Z = draw_z(n)
            an = model.complete_score(ds, Z, theta)
            fd = finite_diff_score(model, ds, Z, theta)
            # component-wise relative error, floored at 1% of the score scale:
            # below that, central differences are roundoff-limited and cannot
            # certify anything tighter
            floor = np.maximum(1e-2 * np.abs(fd).max(axis=1, keepdims=True), 1e-8)
            rel = np.abs(an - fd) / np.maximum(np.abs(fd), floor)
            worst = max(worst, float(rel.max()))
            assert rel.max() < 1e-6, f"{model.name}: rel err {rel.max():.2e}"
            checked += n
    dt = _elapsed_guard(1, t0, 10.0)
    _register(1, f"gradient oracle suite, 5 models x 100 points, worst rel err {worst:.2e} < 1e-6 ({dt:.1f}s)")


# --------------------------------------------------------------------------
def test_criterion_02_lmm_analytic_fim_brute_force():
    t0 = time.monotonic()
    _attempt(2)
    lmm = LinearMixedModel()
    theta = lmm.make_params([3.0, 2.0, 5.0])
    J, N = 12, 100_000
    ds = simulate_dataset(lmm, theta, Design(n=N, n_obs=J), seed=9002)
    Y = ds.y

    def loglik_all(vals):
        beta, eta2, sigma2 = vals
        V = sigma2 * np.eye(J) + eta2 * np.ones((J, J))
        Vi = np.linalg.inv(V)
        sign, logdet = np.linalg.slogdet(V)
        R = Y - beta
        quad = np.einsum("nj,jk,nk->n", R, Vi, R)
        return -0.5 * (J * np.log(2 * np.pi) + logdet + quad)

    vals = theta.values
    h = 1e-4 * np.maximum(1.0, np.abs(vals))
    hess = np.zeros((N, 3, 3))
    f0 = loglik_all(vals)
    for a in range(3):
        ea = np.eye(3)[a] * h[a]
        hess[:, a, a] = (loglik_all(vals + ea) - 2 * f0 + loglik_all(vals - ea)) / h[a] ** 2
        for b in range(a + 1, 3):
            eb = np.eye(3)[b] * h[b]
            hess[:, a, b] = hess[:, b, a] = (
                loglik_all(vals + ea + eb) - loglik_all(vals + ea - eb)
                - loglik_all(vals - ea + eb) + loglik_all(vals - ea - eb)
            ) / (4 * h[a] * h[b])

    oracle = -hess.mean(axis=0)
    oracle_se = hess.std(axis=0) / np.sqrt(N)
    exact = lmm_analytic_fim(theta, J).entries
    gap = np.abs(oracle - exact)
    assert np.all(gap <= 4.0 * oracle_se + 5e-5), f"gap {gap}, se {oracle_se}"
    assert abs(exact[0, 0] - 12.0 / 29.0) < 1e-10
    dt = _elapsed_guard(2, t0, 30.0)
    _register(2, f"LMM analytic FIM vs 1e5-individual brute force within 4 MC SE; I_bb = 12/29 exact ({dt:.1f}s)")


# --------------------------------------------------------------------------
_TABLE1_RMSD = {  # score estimator, printed root mean squared deviations
    20: {("beta", "beta"): 0.141, ("sigma2", "sigma2"): 0.085,
         ("beta", "eta2"): 0.102, ("beta", "sigma2"): 0.068, ("eta2", "sigma2"): 0.032},
    100: {("beta", "beta"): 0.057, ("eta2", "eta2"): 0.030, ("sigma2", "sigma2"): 0.039,
          ("beta", "eta2"): 0.039, ("beta", "sigma2"): 0.031, ("eta2", "sigma2"): 0.014},
    500: {("beta", "beta"): 0.026, ("eta2", "eta2"): 0.014, ("sigma2", "sigma2"): 0.017,
          ("beta", "eta2"): 0.018, ("beta", "sigma2"): 0.013, ("eta2", "sigma2"): 0.006},
}
# the n=20 (eta2,eta2) entry is excluded above: the printed 0.009 is
# inconsistent with the published n=100/n=500 column (0.030/0.014 imply
# sqrt(n)-scaling to ~0.07 at n=20) and with the chi-square moment value
# J/(2a) sqrt(56/20) = 0.072; it is checked against that derived value instead
_TABLE1_ETA2_N20_DERIVED = 0.0716

_TABLE2_RMSD = {  # observed estimator
    20: {("beta", "beta"): 0.0, ("eta2", "eta2"): 0.058, ("sigma2", "sigma2"): 0.042,
         ("beta", "eta2"): 0.058, ("beta", "sigma2"): 0.005, ("eta2", "sigma2"): 0.005},
    100: {("beta", "beta"): 0.0, ("eta2", "eta2"): 0.023, ("sigma2", "sigma2"): 0.018,
          ("beta", "eta2"): 0.026, ("beta", "sigma2"): 0.002, ("eta2", "sigma2"): 0.002},
    500: {("beta", "beta"): 0.0, ("eta2", "eta2"): 0.011, ("sigma2", "sigma2"): 0.009,
          ("beta", "eta2"): 0.012, ("beta", "sigma2"): 0.001, ("eta2", "sigma2"): 0.001},
}


def _component_index(names, pair):
    return names.index(pair[0]), names.index(pair[1])


def test_criterion_03_lmm_bias_tables_desk():
    t0 = time.monotonic()
    _attempt(3)
    cfg = parse_study_config(preset_config("lmm_bias", desk=True))
    assert cfg.M == 200
    rep = run_study(cfg, out_dir=None, threads=2)
    names = list(cfg.theta_star.names)

    for n in (20, 100, 500):
        tab = rep.tables[("score", n)]
        assert np.all(np.abs(tab["bias"]) <= 3.0 * tab["mc_se"] + 1e-12), f"n={n}"

    obs20 = rep.tables[("observed", 20)]
    i, j = 0, 0
    assert obs20["bias"][i, j] == 0.0 and obs20["rmsd"][i, j] == 0.0

    def check_rmsd(est, table):
        for n, entries in table.items():
            tab = rep.tables[(est, n)]
            for pair, printed in entries.items():
                a, b = _component_index(names, pair)
                got = tab["rmsd"][a, b]
                if printed == 0.0:
                    assert got == 0.0
                else:
                    tol = 0.35 * printed + 0.0005  # print-rounding half-step
                    assert abs(got - printed) <= tol, (est, n, pair, got, printed)

    check_rmsd("score", _TABLE1_RMSD)
    check_rmsd("observed", _TABLE2_RMSD)
    got = rep.tables[("score", 20)]["rmsd"][1, 1]
    assert abs(got - _TABLE1_ETA2_N20_DERIVED) <= 0.35 * _TABLE1_ETA2_N20_DERIVED
    dt = _elapsed_guard(3, t0, 120.0)
    _register(3, f"LMM bias/RMSD tables at M=200: zero-bias within 3 SE, RMSD within 35% of published ({dt:.1f}s)")


# --------------------------------------------------------------------------
def test_criterion_04_conditional_score_identity():
    t0 = time.monotonic()
    _attempt(4)
    poi = PoissonMixtureModel(3)
    theta = poi.make_params([2.0, 5.0, 9.0, 0.3, 0.5])
    worst = 0.0
    for m in range(50):
        ds = poi.simulate(theta, Design(n=100), substream(9004, m))
        fim_cond = conditional_score_fim(poi, ds, theta).entries
        s = poi.marginal_score(ds, theta)
        fim_marg = s.T @ s / ds.n
        scale = np.abs(fim_marg).max()
        rel = np.abs(fim_cond - fim_marg).max() / scale
        worst = max(worst, rel)
        assert rel < 1e-10
    dt = _elapsed_guard(4, t0, 5.0)
    _register(4, f"conditional-expectation FIM equals marginal-score FIM on 50 datasets, worst rel {worst:.1e} ({dt:.1f}s)")


# --------------------------------------------------------------------------
_TABLE3_RMSD = {  # score estimator, poisson mixture
    20: {("lambda_2", "lambda_2"): 0.007, ("lambda_3", "lambda_3"): 0.015,
         ("alpha_1", "alpha_1"): 1.202, ("alpha_2", "alpha_2"): 1.056,
         ("lambda_2", "lambda_3"): 0.003, ("lambda_3", "alpha_2"): 0.110},
    100: {("lambda_2", "lambda_2"): 0.003, ("lambda_3", "lambda_3"): 0.007,
          ("alpha_1", "alpha_1"): 0.526, ("alpha_2", "alpha_2"): 0.469,
          ("lambda_2", "lambda_3"): 0.001, ("lambda_3", "alpha_2"): 0.046},
    500: {("lambda_2", "lambda_2"): 0.001, ("lambda_3", "lambda_3"): 0.003,
          ("alpha_1", "alpha_1"): 0.232, ("alpha_2", "alpha_2"): 0.205,
          ("lambda_2", "lambda_3"): 0.001, ("lambda_3", "alpha_2"): 0.021},
}
_TABLE4_RMSD = {  # observed estimator
    20: {("lambda_2", "lambda_2"): 0.022, ("lambda_3", "lambda_3"): 0.009,
         ("alpha_1", "alpha_1"): 1.202, ("alpha_2", "alpha_2"): 1.055,
         ("lambda_2", "lambda_3"): 0.003, ("lambda_3", "alpha_2"): 0.034},
    100: {("lambda_2", "lambda_2"): 0.010, ("lambda_3", "lambda_3"): 0.004,
          ("alpha_1", "alpha_1"): 0.526, ("alpha_2", "alpha_2"): 0.469,
          ("lambda_2", "lambda_3"): 0.001, ("lambda_3", "alpha_2"): 0.016},
    500: {("lambda_2", "lambda_2"): 0.005, ("lambda_3", "lambda_3"): 0.002,
          ("alpha_1", "alpha_1"): 0.232, ("alpha_2", "alpha_2"): 0.205,
          ("lambda_2", "lambda_3"): 0.0006, ("lambda_3", "alpha_2"): 0.007},
}


def test_criterion_05_poisson_bias_tables_desk():
    t0 = time.monotonic()
    _attempt(5)
    cfg = parse_study_config(preset_config("poisson_bias", desk=True))
    assert cfg.M == 200 and cfg.n_mc == 1_000_000
    rep = run_study(cfg, out_dir=None, threads=2)
    names = list(cfg.theta_star.names)
    ref = rep.extras["reference"]

    for n in (20, 100, 500):
        for est in ("score", "observed"):
            tab = rep.tables[(est, n)]
            comb = np.sqrt(tab["mc_se"] ** 2 + ref.mc_se**2)
            assert np.all(np.abs(tab["bias"]) <= 3.0 * comb + 1e-12), (est, n)

    for est, table in (("score", _TABLE3_RMSD), ("observed", _TABLE4_RMSD)):
        for n, entries in table.items():
            tab = rep.tables[(est, n)]
            for pair, printed in entries.items():
                a, b = _component_index(names, pair)
                got = tab["rmsd"][a, b]
                tol = 0.35 * printed + 0.0005
                assert abs(got - printed) <= tol, (est, n, pair, got, printed)
    dt = _elapsed_guard(5, t0, 180.0)
    _register(5, f"Poisson mixture bias/RMSD tables at M=200 vs 1e6-draw reference ({dt:.1f}s)")


# --------------------------------------------------------------------------
def test_criterion_06_normality_diagnostics():
    t0 = time.monotonic()
    _attempt(6)
    for preset in ("lmm_density", "poisson_density"):
        cfg = parse_study_config(preset_config(preset, desk=True))
        assert cfg.M == 500 and tuple(cfg.n_values) == (500,)
        rep = run_study(cfg, out_dir=None, threads=2)
        for (est, n, label), (skew, kurt, _) in rep.tables["moments"].items():
            assert abs(skew) < 0.3, (preset, est, label, skew)
            assert abs(kurt) < 0.8, (preset, est, label, kurt)
    dt = _elapsed_guard(6, t0, 60.0)
    _register(6, f"sqrt(n)-normalized samples at n=500, M=500: |skew| < 0.3, |excess kurtosis| < 0.8 ({dt:.1f}s)")


# --------------------------------------------------------------------------
def test_criterion_07_saem_replication_desk():
    t0 = time.monotonic()
    _attempt(7)
    cfg = parse_study_config(preset_config("pk_replication", desk=True))
    assert cfg.M == 50 and cfg.design.n == 50
    assert cfg.saem.total_iterations == 1500 and cfg.saem.schedule.burn_in == 500
    rep = run_study(cfg, out_dir=None, threads=2)
    assert rep.failures == 0

    relbias = rep.tables["relbias_sco"]
    relse = rep.tables["relse_sco"]
    terminal = np.abs(relbias[-1])
    assert np.all(terminal < 0.05), f"terminal |rel bias| {terminal}"
    k_half = len(relse) // 2
    assert np.all(relse[-1] <= relse[k_half] + 0.01), "relative SE must decrease"
    dt = _elapsed_guard(7, t0, 900.0)
    _register(
        7,
        "PK replication (n=50, M=50, K=1500): terminal |rel bias| "
        f"max {terminal.max():.3f} < 0.05, rel SE decreasing ({dt:.1f}s)",
    )


# --------------------------------------------------------------------------
def test_criterion_08_louis_comparator():
    t0 = time.monotonic()
    _attempt(8)
    lmm = LinearMixedModel()
    theta = lmm.make_params([3.0, 2.0, 5.0])
    ds = simulate_dataset(lmm, theta, Design(n=400, n_obs=12), seed=9008)
    cfg = SaemConfig(
        schedule=StepSchedule(500, 0.95, 1.0), total_iterations=2000, seed=16,
        track_louis=True,
    )
    res = run_saem(lmm, ds, cfg, theta0=theta)
    analytic = -(lmm.marginal_hessian(ds, res.theta)).mean(axis=0)
    rel = np.abs(np.diag(res.louis.entries) - np.diag(analytic)) / np.abs(np.diag(analytic))
    assert np.all(rel < 0.02), rel
    dt = _elapsed_guard(8, t0, 60.0)
    _register(8, f"Louis SA comparator matches analytic observed FIM diagonals, worst {rel.max():.4f} < 0.02 ({dt:.1f}s)")


# --------------------------------------------------------------------------
def test_criterion_09_fixed_v_coverage_desk():
    t0 = time.monotonic()
    _attempt(9)
    cfg = parse_study_config(preset_config("pk_fixed_v_coverage", desk=True))
    assert cfg.M == 200
    rep = run_study(cfg, out_dir=None, threads=2)
    assert rep.failures < 0.02 * cfg.M
    coverage = rep.tables["coverage"]
    for name, cov in coverage.items():
        assert 0.90 <= cov <= 0.99, (name, cov)
    dt = _elapsed_guard(9, t0, 1200.0)
    covs = ", ".join(f"{v:.3f}" for v in coverage.values())
    _register(9, f"fixed-V PK coverage at M=200 in [0.90, 0.99]: {covs} ({dt:.0f}s)")


# --------------------------------------------------------------------------
_MENG_STUDY_MEAN = np.array(
    [
        [2685.184, -211.068, -251.808],
        [-211.068, 170.927, -61.578],
        [-251.808, -61.578, 392.859],
    ]
)


def test_criterion_10_meng_comparison_desk():
    t0 = time.monotonic()
    _attempt(10)
    cfg = parse_study_config(preset_config("gmm_meng", desk=True))
    assert cfg.M == 1000 and cfg.design.n == 750
    rep = run_study(cfg, out_dir=None, threads=2)
    mean = rep.tables["mean_matrix"]
    se = rep.tables["se_matrix"]
    gap = np.abs(mean - _MENG_STUDY_MEAN)
    assert np.all(gap <= 4.0 * se), f"gap/se = {gap / se}"
    for name, cov in rep.tables["coverage"].items():
        assert 0.93 <= cov <= 0.97, (name, cov)
    dt = _elapsed_guard(10, t0, 600.0)
    _register(10, f"mean I_sco matrix at M=1000 within 4 SE of the published M=1e4 values; coverage in [0.93, 0.97] ({dt:.0f}s)")


# --------------------------------------------------------------------------
def test_criterion_11_structural_invariants(tmp_path, recording_lmm):
    t0 = time.monotonic()
    _attempt(11)
    lmm = LinearMixedModel()
    theta = lmm.make_params([3.0, 2.0, 5.0])
    ds = simulate_dataset(lmm, theta, Design(n=25, n_obs=12), seed=9011)

    # every score-provenance matrix PSD
    rng = substream(9011, 1)
    for _ in range(20):
        s = rng.normal(size=(13, 3)) * rng.uniform(0.1, 10)
        fim = score_outer_fim(s)
        assert fim.min_eigenvalue() >= -1e-10 * max(np.trace(fim.entries), 1e-300)

    # each relaxed statistic in the hull of the draws' statistics so far
    cfg = SaemConfig(schedule=StepSchedule(40, 0.95, 0.6), total_iterations=120, seed=4)
    out = run_saem(recording_lmm, ds, cfg)
    assert out.fim.is_psd()
    recording_lmm.assert_in_hull(1e-12)

    # buffer weights sum to one when gamma_1 = 1 (with mass accounting)
    buf = WeightedSampleBuffer(prune_epsilon=1e-5)
    rng2 = substream(9011, 2)
    gammas = [1.0] + list(rng2.uniform(0.05, 0.95, 60))
    for k, g in enumerate(gammas):
        buf = buffer_update(buf, np.full((4, 1), float(k)), g)
    assert buf.total_weight + buf.discarded_mass == pytest.approx(1.0, abs=1e-12)

    # full seed determinism: byte-identical study outputs
    raw = {
        "kind": "bias_table", "model": "lmm", "theta_star": [3.0, 2.0, 5.0],
        "design": {"n_obs": 12}, "n_values": [20], "M": 12, "seed": 99,
    }
    scfg = parse_study_config(raw)
    a, b = tmp_path / "a", tmp_path / "b"
    run_study(scfg, out_dir=a, threads=1)
    run_study(scfg, out_dir=b, threads=2)
    fa = (a / "bias_table" / "bias_rmsd.csv").read_bytes()
    fb = (b / "bias_table" / "bias_rmsd.csv").read_bytes()
    assert fa == fb
    dt = _elapsed_guard(11, t0, 60.0)
    _register(11, f"structural invariants: PSD, convex hull, buffer mass, byte-identical reruns ({dt:.1f}s)")
