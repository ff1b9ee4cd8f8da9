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


_PK_TIMES = [0.5, 1.0, 2.0, 5.0, 9.0, 24.0]


@pytest.mark.parametrize("model, theta, fit, expected", [
    ("pk_nlme", [1.6, 31.0, 1.8, 0.4, 0.4, 0.4, 0.75],
     {"saem": {"burn_in": 20, "total_iterations": 60}},
     {"acceptance_rate", "proposal_multiplier", "mirror_moves", "clamp_hits", "phase_s"}),
    ("pk_nlme_fixed_v", [1.6, 31.0, 1.8, 0.4, 0.4, 0.75],
     {"saem": {"burn_in": 20, "total_iterations": 60}},
     {"acceptance_rate", "proposal_multiplier", "mirror_moves", "buffer_length", "pruned_mass",
      "phase_s", "mstep_effort"}),
    ("gaussian_mixture2", [2.0 / 3.0, 3.0, 0.0], {}, {"iterations", "converged"}),
])
def test_fit_manifest_records_diagnostics(tmp_path, model, theta, fit, expected):
    design = {"n": 20, "times": _PK_TIMES, "dose": 320.0}
    if model == "gaussian_mixture2":
        design = {"n": 200}
    sim = _write(tmp_path / "sim.json", {
        "model": model, "theta": theta, "design": design, "seed": 4,
    })
    data = str(tmp_path / "data.csv")
    assert main(["simulate", "--config", sim, "--out", data]) == 0
    cfg = _write(tmp_path / "fit.json", {"model": model, **fit})
    out = tmp_path / "fit_out"
    assert main(["fit", "--config", cfg, "--data", data, "--out", str(out)]) == 0
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert expected <= set(diagnostics)
    if "acceptance_rate" in expected:
        assert 0.0 < diagnostics["acceptance_rate"] <= 1.0
        assert diagnostics["proposal_multiplier"] > 0
    if "phase_s" in expected:
        assert set(diagnostics["phase_s"]) == {"draw", "update", "mstep", "fim"}
        assert all(s >= 0.0 for s in diagnostics["phase_s"].values())
    if "buffer_length" in expected:
        assert diagnostics["buffer_length"] > 0 and 0.0 <= diagnostics["pruned_mass"] < 1.0
        assert diagnostics["mstep_effort"]["window_evals"] > 0
    if "converged" in expected:
        assert diagnostics["converged"] is True and diagnostics["iterations"] > 1


def test_fit_em_iteration_limit_is_a_numerical_failure(tmp_path, capsys):
    # one EM step with zero tolerance cannot converge: no estimates are written
    sim = _write(tmp_path / "sim.json", {
        "model": "gaussian_mixture2", "theta": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 300}, "seed": 11,
    })
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", sim, "--out", str(data)]) == 0
    fit_cfg = _write(tmp_path / "fit.json", {
        "model": "gaussian_mixture2", "em_max_iter": 1, "em_tol": 0.0,
    })
    out = tmp_path / "em_out"
    assert main(["fit", "--config", fit_cfg, "--data", str(data), "--out", str(out)]) == 3
    assert "EM hit its iteration limit" in capsys.readouterr().err
    assert not out.exists()


def test_fit_unknown_method_creates_no_output(tmp_path, lmm_sim_config, capsys):
    data = str(tmp_path / "data.csv")
    assert main(["simulate", "--config", lmm_sim_config, "--out", data]) == 0
    fit_cfg = _write(tmp_path / "fit.json", {"model": "lmm", "method": "bogus"})
    out = tmp_path / "fit_out"
    assert main(["fit", "--config", fit_cfg, "--data", data, "--out", str(out)]) == 2
    assert "unknown fit method" in capsys.readouterr().err
    assert not out.exists()


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
    ("saem", {"averaging": "on_after_burn_in"}),
    ("saem", {"proposal_scales": [0.5, 0.5]}),
    ("saem", {"proposal_scales": [float("nan")]}),
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
        assert not (tmp_path / "f").exists()


def _bias_study_raw(**over):
    return {
        "kind": "bias_table", "model": "lmm", "theta_star": [3.0, 2.0, 5.0],
        "design": {"n_obs": 12}, "n_values": [20], "M": 12, "seed": 5, **over,
    }


def _replication_raw(**over):
    from scorefim.presets import preset_config

    raw = preset_config("pk_replication", desk=True)
    raw.update({"M": 2, "n_mc": 2_000, "design": {**raw["design"], "n": 8}, **over})
    raw["saem"].update(burn_in=20, total_iterations=60)
    return raw


@pytest.mark.parametrize("raw", [
    _bias_study_raw(M="ten"),
    _bias_study_raw(capacity="big"),
    _bias_study_raw(theta_star=3),
    _bias_study_raw(theta_star=["a", 2, 5]),
    _bias_study_raw(design={"n_obs": 12, "times": "abc"}),
    _bias_study_raw(design={"n_obs": "twelve"}),
    _bias_study_raw(saem={"burn_in": "x"}),
    _bias_study_raw(alpha=[0.1]),
    _bias_study_raw(estimators="score"),
    _bias_study_raw(components=[["beta"]]),
    _bias_study_raw(seed=-1),
    _bias_study_raw(kind="density", components=[["beta", "betta"]]),
    _bias_study_raw(estimators=["score", "observd"]),
    _bias_study_raw(kind="coverage", design={"n": 30}, saem={"burn_in": 20, "total_iterations": 60}),
    _replication_raw(model="pk_nlme_fixed_v", theta_star=[1.6, 31.0, 1.8, 0.4, 0.4, 0.75]),
    _replication_raw(reference_theta=[1.6, 31.0, 1.8]),
    _replication_raw(n_mc=100),  # below the oracle's minimum ESS of 200
])
def test_config_errors_exit_2_before_any_replicate(tmp_path, monkeypatch, capsys, raw):
    # every limit a config can be seen to break is found when it is parsed
    from scorefim import studies

    def no_replicates(*args):
        raise AssertionError("a replicate ran before the config was rejected")

    monkeypatch.setattr(studies, "_pmap", no_replicates)
    study = _write(tmp_path / "study.json", raw)
    out = tmp_path / "o"
    assert main(["study", "--config", study, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, bad", [
    ("simulate", {"theta": "abc"}),
    ("simulate", {"seed": "x"}),
    ("simulate", {"seed": -1}),
    ("fit", {"theta0": [3, "b", 5]}),
    ("fit", {"seed": [1]}),
    ("fit", {"alpha": "small"}),
    ("fim", {"theta": [3, 2, "five"]}),
])
def test_cli_values_that_do_not_convert_exit_2(tmp_path, lmm_sim_config, command, bad):
    data = str(tmp_path / "data.csv")
    assert main(["simulate", "--config", lmm_sim_config, "--out", data]) == 0
    raw = {"model": "lmm", "theta": [3, 2, 5], "design": {"n": 5, "n_obs": 3}}
    if command != "simulate":
        raw = {"model": "lmm", "theta" if command == "fim" else "theta0": [3, 2, 5]}
    cfg = _write(tmp_path / "cfg.json", {**raw, **bad})
    args = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(args if command == "simulate" else args + ["--data", data]) == 2


@pytest.mark.parametrize("alpha", [1.5, 0.0, -0.1])
def test_fit_rejects_alpha_before_fitting(tmp_path, monkeypatch, alpha):
    # alpha outside the (0, 1] of the Wald intervals is a config error found
    # when the config is read: nothing is fitted and no output is written
    import scorefim.cli as cli

    data = tmp_path / "data.csv"
    sim = _write(tmp_path / "sim.json", {
        "model": "gaussian_mixture2", "theta": [2.0 / 3.0, 3.0, 0.0], "design": {"n": 400},
    })
    assert main(["simulate", "--config", sim, "--out", str(data)]) == 0

    def no_fit(*args, **kwargs):
        raise AssertionError("fit_model ran")

    monkeypatch.setattr(cli, "fit_model", no_fit)
    fit = _write(tmp_path / "fit.json", {
        "model": "gaussian_mixture2", "theta0": [0.5, 2.5, 0.5], "alpha": alpha,
    })
    out = tmp_path / "fo"
    assert main(["fit", "--config", fit, "--data", str(data), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["coverage", "meng_comparison"])
def test_exit_code_3_on_numerical_failure(tmp_path, capsys, kind):
    # EM capped at one iteration with zero tolerance: every replicate fails,
    # tripping the excluded-replicate limit, which names the first error
    study = _write(tmp_path / "study.json", {
        "kind": kind,
        "model": "gaussian_mixture2",
        "theta_star": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 100},
        "M": 10,
        "seed": 2,
        "em_max_iter": 1,
        "em_tol": 0.0,
    })
    rc = main(["study", "--config", study, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert (
        "10 of 10 replicates failed (limit 2%); first error: EM hit its iteration limit"
        in capsys.readouterr().err
    )


def test_exit_code_2_on_missing_saem_block(tmp_path, capsys):
    # an SAEM-fitted coverage study without a saem block is a config error,
    # caught before any replicate runs
    study = _write(tmp_path / "study.json", {
        "kind": "coverage", "model": "lmm", "theta_star": [3, 2, 5],
        "design": {"n": 30, "n_obs": 12}, "M": 3, "seed": 1,
    })
    out = tmp_path / "o"
    assert main(["coverage", "--config", study, "--out", str(out)]) == 2
    assert "coverage for lmm needs a saem config block" in capsys.readouterr().err
    assert not out.exists()


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


def test_exit_code_2_on_a_step_below_prune_epsilon(tmp_path, capsys):
    from scorefim.presets import preset_config

    raw = preset_config("pk_fixed_v_coverage", desk=True)
    raw["saem"].update(exponent=1.0, total_iterations=1200)
    raw["prune_epsilon"] = 1e-3
    study = _write(tmp_path / "study.json", raw)
    assert main(["coverage", "--config", study, "--out", str(tmp_path / "o")]) == 2
    assert "below the smallest step" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exit_code_2_on_a_capacity_key(tmp_path, capsys):
    # the general algorithm's buffer has no capacity: the key is unknown to
    # study and fit configs alike, and fails before any output is written
    from scorefim.presets import preset_config

    raw = preset_config("pk_fixed_v_coverage", desk=True)
    raw["capacity"] = 999
    study = _write(tmp_path / "study.json", raw)
    assert main(["coverage", "--config", study, "--out", str(tmp_path / "o")]) == 2
    assert "unknown config keys: capacity" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    sim = _write(tmp_path / "sim.json", {
        "model": "pk_nlme_fixed_v", "theta": [1.6, 31.0, 1.8, 0.4, 0.4, 0.75],
        "design": {"n": 12, "times": [0.5, 1.0, 2.0, 5.0, 9.0, 24.0], "dose": 320.0}, "seed": 3,
    })
    data = str(tmp_path / "data.csv")
    assert main(["simulate", "--config", sim, "--out", data]) == 0
    fit = _write(tmp_path / "fit.json", {
        "model": "pk_nlme_fixed_v", "capacity": 999,
        "saem": {"burn_in": 20, "total_iterations": 60},
    })
    capsys.readouterr()
    assert main(["fit", "--config", fit, "--data", data, "--out", str(tmp_path / "f")]) == 2
    assert "unknown fit keys: capacity" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


_BAD_CSVS = {  # rows after the header, and what stderr must name
    "y not a number": (
        "0,0,,,1.5\n0,1,,,abc\n", "individual 0: could not convert string to float: 'abc'"
    ),
    "blank y": ("0,0,,,1.5\n1,0,,,\n", "individual 1: could not convert string to float: ''"),
    "blank time on one row": ("0,0,0.5,320,1.5\n0,1,,320,2.5\n", "individual 0"),
    "individual id not an integer": ("0,0,,,1.5\nA,0,,,2.5\n", "individual 'A'"),
    "repeated obs_index": ("0,0,,,1.5\n0,0,,,2.5\n", "individual 0 has two rows"),
    "obs_index gap": ("0,0,,,1.5\n0,5,,,2.5\n", "individual 0: obs_index must run 0..1"),
    "missing file": (None, "dataset file not found"),
}


@pytest.mark.parametrize("command", ["fit", "fim"])
@pytest.mark.parametrize("case", sorted(_BAD_CSVS))
def test_exit_code_2_on_a_bad_dataset_csv(tmp_path, capsys, command, case):
    rows, named = _BAD_CSVS[case]
    data = tmp_path / "data.csv"
    if rows is not None:
        data.write_text("individual,obs_index,time,dose,y\n" + rows)
    key = "theta0" if command == "fit" else "theta"
    config = _write(tmp_path / "c.json", {"model": "lmm", key: [3.0, 2.0, 5.0]})
    out = tmp_path / "out"
    argv = [command, "--config", config, "--data", str(data), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err, err
    assert not out.exists()
