"""Study harness: strict config parsing, determinism, and the bias/density/
coverage/comparison runners at reduced scale."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from scorefim.errors import ConfigError
from scorefim.presets import PRESETS, preset_config
from scorefim.studies import parse_study_config, run_study


def _tiny_bias_raw(**over):
    raw = {
        "kind": "bias_table",
        "model": "lmm",
        "theta_star": [3.0, 2.0, 5.0],
        "design": {"n_obs": 12},
        "n_values": [20, 50],
        "M": 40,
        "seed": 99,
    }
    raw.update(over)
    return raw


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_study_config(_tiny_bias_raw(bogus=1))
    with pytest.raises(ConfigError, match="unknown design keys"):
        parse_study_config(_tiny_bias_raw(design={"n_obs": 12, "oops": 3}))
    with pytest.raises(ConfigError, match="unknown saem keys"):
        parse_study_config(_tiny_bias_raw(saem={"garbage": 1}))


def test_missing_keys_rejected():
    raw = _tiny_bias_raw()
    del raw["theta_star"]
    with pytest.raises(ConfigError, match="missing config key"):
        parse_study_config(raw)


def test_m_lower_bound():
    with pytest.raises(ConfigError, match="M must be"):
        parse_study_config(_tiny_bias_raw(M=1))


def test_all_presets_parse():
    for name in PRESETS:
        parse_study_config(preset_config(name))
        parse_study_config(preset_config(name, desk=True))


def test_bias_study_report(tmp_path):
    cfg = parse_study_config(_tiny_bias_raw())
    rep = run_study(cfg, out_dir=tmp_path, threads=1)
    assert rep.m_effective == 40
    for key, tab in rep.tables.items():
        assert np.all(tab["rmsd"] + 1e-300 >= np.abs(tab["bias"]))
    path = Path(tmp_path) / "bias_table" / "bias_rmsd.csv"
    assert path.exists()
    header = path.read_text().splitlines()[0]
    assert header == "estimator,n,component_row,component_col,bias,rmsd,mc_se,M"
    assert (Path(tmp_path) / "bias_table" / "manifest.json").exists()


def test_bias_study_threads_deterministic(tmp_path):
    cfg = parse_study_config(_tiny_bias_raw())
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_study(cfg, out_dir=a, threads=1)
    run_study(cfg, out_dir=b, threads=2)
    fa = (a / "bias_table" / "bias_rmsd.csv").read_bytes()
    fb = (b / "bias_table" / "bias_rmsd.csv").read_bytes()
    assert fa == fb


@pytest.mark.parametrize("kind", ["bias_table", "density"])
def test_bias_and_density_studies_fan_out_once(monkeypatch, kind):
    # every (n_idx, m) replicate goes out in one batch, n-major as before
    from scorefim import studies

    batches = []
    pmap = studies._pmap

    def spy(fn, payloads, threads):
        batches.append([(p[2], p[3]) for p in payloads])
        return pmap(fn, payloads, threads)

    monkeypatch.setattr(studies, "_pmap", spy)
    run_study(parse_study_config(_tiny_bias_raw(kind=kind, M=5)), threads=1)
    assert batches == [[(n_idx, m) for n_idx in range(2) for m in range(5)]]


def test_bias_shrinks_with_n():
    # both moment estimators are unbiased; the observed trend must stay
    # within 2 combined MC standard errors (consistency as a trend check)
    raw = _tiny_bias_raw(n_values=[20, 500], M=120)
    rep = run_study(parse_study_config(raw), out_dir=None, threads=1)
    for est in ("score", "observed"):
        small = rep.tables[(est, 20)]
        large = rep.tables[(est, 500)]
        comb = 2.0 * np.sqrt(small["mc_se"] ** 2 + large["mc_se"] ** 2)
        assert np.all(np.abs(large["bias"]) <= np.abs(small["bias"]) + comb + 1e-12)


def test_density_study_outputs(tmp_path):
    raw = _tiny_bias_raw(
        kind="density", n_values=[50], M=60,
        components=[["beta", "beta"], ["sigma2", "sigma2"]],
    )
    rep = run_study(parse_study_config(raw), out_dir=tmp_path, threads=1)
    dens = Path(tmp_path) / "density" / "density_score.csv"
    rows = dens.read_text().splitlines()
    assert rows[0] == "n,component,x,density"
    # density integrates to ~1 on its grid (trapezoid)
    data = np.array([r.split(",")[2:] for r in rows[1:] if r.startswith("50,beta:beta")], dtype=float)
    integral = np.trapezoid(data[:, 1], data[:, 0])
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_density_symmetric_sample_gives_symmetric_density():
    from scorefim.kde import gaussian_kde

    s = np.concatenate([np.linspace(-3, 3, 101)])
    grid, dens = gaussian_kde(s)
    center = s.mean()
    left = np.interp(center - np.linspace(0, 2, 50), grid, dens)
    right = np.interp(center + np.linspace(0, 2, 50), grid, dens)
    np.testing.assert_allclose(left, right, atol=1e-6)


def test_silverman_rule_value():
    from scorefim.kde import silverman_bandwidth

    rng = np.random.default_rng(5)
    s = rng.standard_normal(400)
    sd = s.std(ddof=1)
    q25, q75 = np.quantile(s, [0.25, 0.75])
    expect = 0.9 * min(sd, (q75 - q25) / 1.34) * 400 ** (-0.2)
    assert silverman_bandwidth(s) == pytest.approx(expect, rel=1e-12)


def test_rmsd_equals_bias_iff_degenerate():
    # aggregation-level identity behind the single-replicate special case
    devs = np.full((1, 2, 2), 0.37)
    bias = devs.mean(axis=0)
    rmsd = np.sqrt((devs**2).mean(axis=0))
    np.testing.assert_allclose(rmsd, np.abs(bias), rtol=1e-15)


def test_gmm_coverage_small(tmp_path):
    raw = {
        "kind": "coverage",
        "model": "gaussian_mixture2",
        "theta_star": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 750},
        "M": 60,
        "seed": 1234,
        "alpha": 0.05,
    }
    rep = run_study(parse_study_config(raw), out_dir=tmp_path, threads=1)
    assert rep.failures == 0
    for name, cov in rep.tables["coverage"].items():
        assert 0.8 <= cov <= 1.0
    path = Path(tmp_path) / "coverage" / "coverage.csv"
    assert path.read_text().splitlines()[0] == (
        "parameter,coverage,binomial_se,M_effective,failures"
    )


def test_coverage_alpha_one_zero_coverage():
    raw = {
        "kind": "coverage",
        "model": "gaussian_mixture2",
        "theta_star": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 200},
        "M": 10,
        "seed": 4321,
        "alpha": 0.999999999,
    }
    rep = run_study(parse_study_config(raw), out_dir=None, threads=1)
    for cov in rep.tables["coverage"].values():
        assert cov == 0.0


def test_meng_comparison_small():
    raw = {
        "kind": "meng_comparison",
        "model": "gaussian_mixture2",
        "theta_star": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 750},
        "M": 40,
        "seed": 77,
    }
    rep = run_study(parse_study_config(raw), out_dir=None, threads=1)
    mean = rep.tables["mean_matrix"]
    assert mean[0, 0] > 2000  # total-information scale
    assert mean[0, 1] < 0 and mean[0, 2] < 0
    assert rep.extras["matrices"].shape == (40, 3, 3)


def test_run_study_dispatch():
    cfg = parse_study_config(_tiny_bias_raw(M=10, n_values=[20]))
    rep = run_study(cfg, out_dir=None, threads=1)
    assert rep.kind == "bias_table"


def test_coverage_manifests_sum_the_fits_diagnostics(tmp_path):
    # the general algorithm's replicates report wall seconds per phase and
    # M-step effort; the coverage manifest sums them over the replicates.
    # EM fits report neither, and the coverage and comparison manifests then
    # carry neither key
    raw = preset_config("pk_fixed_v_coverage", desk=True)
    raw.update(M=2, design={**raw["design"], "n": 6})
    raw["saem"].update(burn_in=20, total_iterations=60)
    run_study(parse_study_config(raw), out_dir=tmp_path / "pk", threads=1)
    manifest = json.loads((tmp_path / "pk" / "coverage" / "manifest.json").read_text())
    assert set(manifest["phase_s"]) == {"draw", "update", "mstep", "fim"}
    assert manifest["phase_s"]["mstep"] > 0
    effort = manifest["mstep_effort"]
    steps = sum(effort.get(s, 0) for s in ("start", "interpolation", "gauss_newton", "secant", "brent"))
    assert steps == 2 * 60 and set(effort) <= {"window_evals", "start", "interpolation",
                                              "gauss_newton", "secant", "brent"}
    assert effort["window_evals"] >= steps - effort.get("start", 0)
    for kind in ("coverage", "meng_comparison"):
        run_study(parse_study_config(_gmm_raw(kind)), out_dir=tmp_path / "gmm", threads=1)
        manifest = json.loads((tmp_path / "gmm" / kind / "manifest.json").read_text())
        assert "phase_s" not in manifest and "mstep_effort" not in manifest


def test_fixed_v_prune_epsilon_checked_against_the_steps_at_parse_time():
    # at exponent 1 the desk schedule's last steps, 1/1001 to 1/1050, fall
    # below prune_epsilon 1e-3: every replicate would empty its buffer at
    # k = 1151, so the config fails before anything runs
    raw = preset_config("pk_fixed_v_coverage", desk=True)
    raw["saem"].update(exponent=1.0, total_iterations=1200)
    raw["prune_epsilon"] = 1e-3
    with pytest.raises(ConfigError, match=r"prune_epsilon 0.001 must lie in \[0, 0.000952\)"):
        parse_study_config(raw)
    raw["saem"]["total_iterations"] = 1149  # last step 1/999
    parse_study_config(raw)
    # a negative prune_epsilon parsed, and then every replicate failed
    raw["prune_epsilon"] = -1e-6
    with pytest.raises(ConfigError, match="must lie in"):
        parse_study_config(raw)


def test_pk_replication_threads_deterministic(tmp_path):
    # the chains and the oracle's individuals both fan out over the workers
    raw = preset_config("pk_replication", desk=True)
    raw.update(M=2, n_mc=2_000, design={**raw["design"], "n": 8})
    raw["saem"].update(burn_in=20, total_iterations=60)
    cfg = parse_study_config(raw)
    for threads in (1, 2):
        run_study(cfg, out_dir=tmp_path / str(threads), threads=threads)
    for name in ("replication.csv", "terminal_thetas.csv"):
        a, b = (tmp_path / t / "saem_replication" / name for t in ("1", "2"))
        assert a.read_bytes() == b.read_bytes(), name
    manifest = json.loads((tmp_path / "2" / "saem_replication" / "manifest.json").read_text())
    assert manifest["oracle_draws"] == 2_000
    assert manifest["replicates_s"] > 0 and manifest["oracle_s"] > 0
    assert 0 <= manifest["oracle_fit_s"] <= manifest["oracle_s"]
    # each run's phases fit in its own time, and the two runs share two workers
    phases = manifest["phase_s"]
    assert set(phases) == {"draw", "update", "mstep", "fim"} and phases["draw"] > 0
    assert sum(phases.values()) <= 2 * manifest["replicates_s"] + 0.005
    assert manifest["oracle_newton_iterations"] > 0
    assert manifest["oracle_mirror_refits"] >= 0 and manifest["oracle_unconverged"] == []
    assert manifest["failure_reasons"] == []


def _gmm_raw(kind):
    return {
        "kind": kind, "model": "gaussian_mixture2", "theta_star": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 200}, "M": 60, "seed": 31,
    }


def _pk_replication_raw():
    raw = preset_config("pk_replication", desk=True)
    raw.update(M=3, n_mc=2_000, design={**raw["design"], "n": 8})
    raw["saem"].update(burn_in=20, total_iterations=60)
    return raw


def test_pk_replication_manifest_records_the_capped_oracle_draws(tmp_path, monkeypatch):
    # a config without n_mc echoes the default 1e6; the oracle draws 2e5
    from scorefim import studies

    raw = _pk_replication_raw()
    del raw["n_mc"]
    raw.update(M=2)
    asked, oracle = [], studies.conditional_moments

    def cheap_oracle(*args, n_draws, **kwargs):
        asked.append(n_draws)
        return oracle(*args, n_draws=2_000, **kwargs)

    monkeypatch.setattr(studies, "conditional_moments", cheap_oracle)
    run_study(parse_study_config(raw), out_dir=tmp_path)
    manifest = json.loads((tmp_path / "saem_replication" / "manifest.json").read_text())
    assert asked == [200_000]
    assert manifest["config"]["n_mc"] == 1_000_000 and manifest["oracle_draws"] == 200_000


@pytest.mark.parametrize("raw, patched, subdir", [
    (_pk_replication_raw(), "run_saem", "saem_replication"),
    (_gmm_raw("coverage"), "fit_model", "coverage"),
    (_gmm_raw("meng_comparison"), "fit_model", "meng_comparison"),
])
def test_failure_reasons_in_manifest(tmp_path, monkeypatch, raw, patched, subdir):
    # replicate 1 fails: its reason is kept, the CSVs keep their schema
    from scorefim import studies
    from scorefim.errors import NumericalError

    original = getattr(studies, patched)
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericalError("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(studies, patched, fail_second)
    rep = run_study(parse_study_config(raw), out_dir=tmp_path, threads=1)
    assert rep.failures == 1
    manifest = json.loads((tmp_path / subdir / "manifest.json").read_text())
    assert manifest["failures"] == 1
    assert manifest["failure_reasons"] == [[1, "injected failure"]]
    if subdir == "saem_replication":  # rows keep their replicate index
        with open(tmp_path / subdir / "terminal_thetas.csv") as fh:
            assert [int(row["run"]) for row in csv.DictReader(fh)] == [0, 2]


def test_replication_gate_names_the_first_error(monkeypatch):
    # every chain fails: the study fails and says why, as the Wald gate does
    from scorefim import studies
    from scorefim.errors import NumericalError

    def fail(*args, **kwargs):
        raise NumericalError("injected failure")

    monkeypatch.setattr(studies, "run_saem", fail)
    with pytest.raises(NumericalError, match="all 3 replication runs failed; first error: injected failure"):
        run_study(parse_study_config(_pk_replication_raw()), out_dir=None, threads=1)
