"""End-to-end CLI flows and exit-code contract."""

import json
from pathlib import Path

import numpy as np
import pytest

from scorefim.cli import main
from scorefim.errors import ConfigError
from scorefim.studies import parse_study_config


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def lmm_sim_config(tmp_path):
    return _write(tmp_path / "sim.json", {
        "model": "lmm",
        "theta": [3.0, 2.0, 5.0],
        "design": {"n": 25, "n_obs": 12},
        "seed": 7,
    })


def test_simulate_and_fim_roundtrip(tmp_path, lmm_sim_config, capsys):
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", lmm_sim_config, "--out", str(data)]) == 0
    assert data.exists()
    header = data.read_text().splitlines()[0]
    assert header == "individual,obs_index,time,dose,y"

    fim_cfg = _write(tmp_path / "fim.json", {
        "model": "lmm", "theta": [3.0, 2.0, 5.0], "estimator": "score",
    })
    out = tmp_path / "fim.csv"
    assert main(["fim", "--config", fim_cfg, "--data", str(data), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# provenance=score"
    assert lines[1] == "# n=25"


def test_simulate_deterministic_bytes(tmp_path, lmm_sim_config):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", lmm_sim_config, "--out", str(a)])
    main(["simulate", "--config", lmm_sim_config, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_fit_lmm_saem(tmp_path, lmm_sim_config):
    data = tmp_path / "data.csv"
    main(["simulate", "--config", lmm_sim_config, "--out", str(data)])
    fit_cfg = _write(tmp_path / "fit.json", {
        "model": "lmm",
        "theta0": [3.0, 2.0, 5.0],
        "saem": {"burn_in": 40, "total_iterations": 120},
        "seed": 3,
    })
    out = tmp_path / "fit_out"
    assert main(["fit", "--config", fit_cfg, "--data", str(data), "--out", str(out)]) == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == (
        "iteration,gamma,theta_1,theta_2,theta_3,fim_diag_1,fim_diag_2,fim_diag_3"
    )
    assert len(traj) == 121
    theta = dict(
        line.split(",") for line in (out / "theta.csv").read_text().splitlines()[1:]
    )
    assert 1.0 < float(theta["sigma2"]) < 12.0
    assert (out / "wald_intervals.csv").exists()
    assert (out / "fim.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["param_names"] == ["beta", "eta2", "sigma2"]


def test_fit_gmm_em(tmp_path):
    sim = _write(tmp_path / "sim.json", {
        "model": "gaussian_mixture2",
        "theta": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 400},
        "seed": 11,
    })
    data = tmp_path / "data.csv"
    main(["simulate", "--config", sim, "--out", str(data)])
    fit_cfg = _write(tmp_path / "fit.json", {"model": "gaussian_mixture2"})
    out = tmp_path / "em_out"
    assert main(["fit", "--config", fit_cfg, "--data", str(data), "--out", str(out)]) == 0
    theta = dict(
        line.split(",") for line in (out / "theta.csv").read_text().splitlines()[1:]
    )
    assert float(theta["mu1"]) > float(theta["mu2"])  # canonical labels


def test_study_with_config(tmp_path):
    study = _write(tmp_path / "study.json", {
        "kind": "bias_table",
        "model": "lmm",
        "theta_star": [3.0, 2.0, 5.0],
        "design": {"n_obs": 12},
        "n_values": [20],
        "M": 12,
        "seed": 5,
    })
    out = tmp_path / "study_out"
    assert main(["study", "--config", study, "--out", str(out), "--threads", "1"]) == 0
    assert (out / "bias_table" / "bias_rmsd.csv").exists()


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["simulate", "--config", str(bad)]) == 2
    unknown = _write(tmp_path / "unknown.json", {
        "model": "lmm", "theta": [3, 2, 5], "design": {"n": 5, "n_obs": 3}, "whoops": 1,
    })
    assert main(["simulate", "--config", str(unknown)]) == 2
    assert main(["study"]) == 2
    assert main(["study", "--preset", "not_a_preset"]) == 2
    domain = _write(tmp_path / "domain.json", {
        "model": "lmm", "theta": [3, -2, 5], "design": {"n": 5, "n_obs": 3},
    })
    assert main(["simulate", "--config", str(domain)]) == 2


@pytest.mark.parametrize("block, bad", [
    ("design", {"n_obs": 12, "oops": 3}),
    ("design", {"n": 0, "n_obs": 12}),
    ("design", [25, 12]),
    ("saem", {"garbage": 1}),
    ("saem", [40, 120]),
    ("saem", {"burn_in": 50, "total_iterations": 50}),
    ("saem", {"averaging": "sometimes"}),
])
def test_bad_block_rejected_by_study_and_cli(tmp_path, lmm_sim_config, block, bad):
    # one schema: the study parser and the CLI reject the same blocks
    study = {
        "kind": "bias_table", "model": "lmm", "theta_star": [3.0, 2.0, 5.0],
        "design": {"n_obs": 12}, "n_values": [20], "M": 12, "seed": 5, block: bad,
    }
    with pytest.raises(ConfigError):
        parse_study_config(study)
    if block == "design":
        sim = _write(tmp_path / "sim.json", {"model": "lmm", "theta": [3, 2, 5], "design": bad})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "d.csv")]) == 2
    else:
        data = str(tmp_path / "data.csv")
        assert main(["simulate", "--config", lmm_sim_config, "--out", data]) == 0
        fit = _write(tmp_path / "fit.json", {"model": "lmm", "saem": bad})
        assert main(["fit", "--config", fit, "--data", data, "--out", str(tmp_path / "f")]) == 2


def test_exit_code_3_on_numerical_failure(tmp_path):
    # EM capped at one iteration with zero tolerance: every coverage
    # replicate fails, tripping the excluded-replicate limit
    study = _write(tmp_path / "study.json", {
        "kind": "coverage",
        "model": "gaussian_mixture2",
        "theta_star": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 100},
        "M": 10,
        "seed": 2,
        "em_max_iter": 1,
        "em_tol": 0.0,
    })
    rc = main(["coverage", "--config", study, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_coverage_subcommand_kind_check(tmp_path):
    study = _write(tmp_path / "study.json", {
        "kind": "bias_table",
        "model": "lmm",
        "theta_star": [3.0, 2.0, 5.0],
        "design": {"n_obs": 12},
        "n_values": [20],
        "M": 12,
        "seed": 5,
    })
    assert main(["coverage", "--config", str(study)]) == 2


def test_exit_code_2_on_short_buffer_capacity(tmp_path, capsys):
    from scorefim.presets import preset_config

    raw = preset_config("pk_fixed_v_coverage")
    raw["capacity"] = 500
    study = _write(tmp_path / "study.json", raw)
    assert main(["coverage", "--config", study, "--out", str(tmp_path / "o")]) == 2
    times = [0.5, 1.0, 2.0, 5.0, 9.0, 24.0]
    sim = _write(tmp_path / "sim.json", {
        "model": "pk_nlme_fixed_v", "theta": [1.6, 31.0, 1.8, 0.4, 0.4, 0.75],
        "design": {"n": 4, "times": times, "dose": 320.0}, "seed": 3,
    })
    data = str(tmp_path / "data.csv")
    assert main(["simulate", "--config", sim, "--out", data]) == 0
    # the README's schedule at the default prune_epsilon 1e-6 reaches 789 entries
    fit = _write(tmp_path / "fit.json", {
        "model": "pk_nlme_fixed_v", "capacity": 500,
        "saem": {"burn_in": 1000, "total_iterations": 3000},
    })
    assert main(["fit", "--config", fit, "--data", data, "--out", str(tmp_path / "f")]) == 2
    assert "below the 789 entries" in capsys.readouterr().err
