"""The benchmark's workloads, one per route to the score-based FIM.

Each workload is a list of study configs generated from the library's desk
presets, with the master seed replaced by the benchmark's ``--seed``, plus
(for ``analytic``) one SAEM fit.  ``tiny=True`` shrinks every size so the
benchmark's own tests can exercise each layer in seconds; the layers touched
are the same.

Why these three (see also ARROWS):

* ``pk_saem`` - the MH route: SAEM replicate chains on one PK dataset, with
  the serial Laplace-IS oracle that the replicates are judged against.  PK
  kernels, ``Dataset.n_obs`` and the per-iteration FIM bookkeeping dominate.
* ``pk_fixed_v`` - the general weighted-buffer algorithm: the V-profile runs
  the PK kernel on (L, n, J) buffer stacks, not on (n, J) rows.
* ``analytic`` - the direct route: cheap analytic kernels, so the cost is the
  fan-out of thousands of millisecond replicates, the serial MC reference,
  the EM loop and the SAEM engine's own overhead.  No PK or MH work at all.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("pk_saem", "pk_fixed_v", "analytic")

# DEV_SEED is the seed used while tuning; HELDOUT_SEED was never used for
# tuning and confirms a later speed claim on inputs the change was not
# written against.
DEV_SEED = 1
HELDOUT_SEED = 7919


@dataclass(frozen=True)
class Plan:
    studies: tuple  # ((label, raw study config), ...)
    fit: dict | None = None  # the analytic workload's single LMM SAEM fit


def _preset(name: str, seed: int, **overrides) -> dict:
    from scorefim.presets import preset_config

    raw = preset_config(name, desk=True)
    raw.update(overrides)
    raw["seed"] = seed
    return raw


def _tiny_pk(raw: dict, total: int, burn_in: int) -> dict:
    raw["design"]["n"] = 12
    raw["saem"].update(total_iterations=total, burn_in=burn_in)
    return raw


def plan(workload: str, seed: int, tiny: bool = False) -> Plan:
    if workload == "pk_saem":
        # the pk_replication desk design (n=50, K=1500, burn-in 500, Louis and
        # averaging on) with 4 chains and a 1e4-draw oracle
        if tiny:
            return Plan(studies=(("pk_replication", _tiny_pk(
                _preset("pk_replication", seed, M=2, n_mc=4000), 60, 20)),))
        return Plan(studies=(("pk_replication", _preset("pk_replication", seed, M=4, n_mc=10_000)),))
    if workload == "pk_fixed_v":
        # the pk_fixed_v_coverage desk design (n=60, K=400, burn-in 150), M=2;
        # the tiny run still needs enough decreasing steps to prune entries
        if tiny:
            return Plan(studies=(("pk_fixed_v_coverage", _tiny_pk(
                _preset("pk_fixed_v_coverage", seed, M=2), 150, 15)),))
        return Plan(studies=(("pk_fixed_v_coverage", _preset("pk_fixed_v_coverage", seed, M=2)),))
    if workload == "analytic":
        if tiny:
            studies = (
                ("lmm_bias", _preset("lmm_bias", seed, M=4, n_values=[20, 50])),
                ("poisson_bias", _preset("poisson_bias", seed, M=4, n_values=[20, 50], n_mc=10_000)),
                ("gmm_meng", _preset("gmm_meng", seed, M=4)),
            )
            fit = {"theta": [3.0, 2.0, 5.0], "n": 40, "n_obs": 12, "total_iterations": 60, "burn_in": 20}
        else:
            studies = (
                ("lmm_bias", _preset("lmm_bias", seed)),
                ("poisson_bias", _preset("poisson_bias", seed, n_mc=200_000)),
                ("gmm_meng", _preset("gmm_meng", seed, M=400)),
            )
            # the criterion-8 shape: exact conditional sampler, Louis on
            fit = {"theta": [3.0, 2.0, 5.0], "n": 400, "n_obs": 12, "total_iterations": 2000, "burn_in": 500}
        return Plan(studies=studies, fit=fit)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def replicate_count(raw: dict) -> int:
    """Replicates a study attempts: M per sample size for bias tables."""
    return int(raw["M"]) * max(1, len(raw.get("n_values", ())))


def accuracy_err(workload: str, reports: dict):
    """The workload's accuracy statistic, lower is better; None if a study
    it needs raised.  ``reports`` maps label -> (StudyConfig, StudyReport).

    pk_saem: largest terminal |relative bias| of the SA-by-product FIM
    diagonal against the Laplace-IS oracle.  pk_fixed_v: largest
    |mean theta_hat - theta*| / theta*.  analytic: largest |bias| / mc_se
    over the bias tables and the Meng mean-matrix comparison.
    """
    import numpy as np
    from scorefim.studies import MENG_REFERENCE

    if any(rep is None for _, rep in reports.values()):
        return None
    if workload == "pk_saem":
        _, rep = reports["pk_replication"]
        return float(np.abs(rep.tables["relbias_sco"][-1]).max())
    if workload == "pk_fixed_v":
        cfg, rep = reports["pk_fixed_v_coverage"]
        star = cfg.theta_star.values
        return float((np.abs(rep.extras["thetas"].mean(axis=0) - star) / star).max())
    worst = 0.0
    for label in ("lmm_bias", "poisson_bias"):
        for cell in reports[label][1].tables.values():
            se = cell["mc_se"]
            live = se > 0  # data-free entries have no Monte-Carlo error
            if live.any():
                worst = max(worst, float((np.abs(cell["bias"][live]) / se[live]).max()))
    meng = reports["gmm_meng"][1].tables
    z = np.abs(meng["mean_matrix"] - MENG_REFERENCE) / meng["se_matrix"]
    return max(worst, float(z.max()))


# Which workload each per-layer metric should move (value > 0 there) and
# where its layer does no work (value exactly 0).  Metrics absent from a
# workload's sets carry no prediction for it.
_PK = ("pk_saem", "pk_fixed_v")
_ALL = WORKLOADS
ARROWS = {
    "models.pk_prediction.calls": (_PK, ("analytic",)),
    "models.pk_prediction.self_s": (_PK, ("analytic",)),
    "models.pk_prediction.ns_per_elem": (_PK, ("analytic",)),
    "models.complete_loglik.calls": (_PK, ("analytic",)),
    "models.complete_loglik.self_s": (_PK, ("analytic",)),
    "models.complete_loglik.us_per_row": (_PK, ("analytic",)),
    "models.complete_score.self_s": (_ALL, ()),
    "models.complete_hessian.self_s": (("pk_saem", "analytic"), ("pk_fixed_v",)),
    "models.statistics.self_s": (("pk_saem", "analytic"), ("pk_fixed_v",)),
    "models.argmax_complete.calls": (("pk_saem", "analytic"), ("pk_fixed_v",)),
    "models.argmax_complete.self_s": (("pk_saem", "analytic"), ("pk_fixed_v",)),
    "models.profile_evals": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "models.profile_evals_per_mstep": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "models.profile_eval.self_s": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "models.profile_build.self_s": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "models.maximize_weighted.self_s": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "models.marginal_score.self_s": (("analytic",), _PK),
    "models.marginal_hessian.self_s": (("analytic",), _PK),
    "models.simulate.self_s": (_ALL, ()),
    "models.conditional_expected_score.self_s": (("analytic",), _PK),
    "models.em.calls": (("analytic",), _PK),
    "models.em.iterations": (("analytic",), _PK),
    "models.em.self_s": (("analytic",), _PK),
    "data.n_obs.calls": (_PK, ("analytic",)),
    "data.n_obs.self_s": (_PK, ("analytic",)),
    "saem.iterations": (("pk_saem", "analytic"), ("pk_fixed_v",)),
    "saem.run_saem.self_s": (("pk_saem", "analytic"), ("pk_fixed_v",)),
    "saem.mh_sweep.calls": (_PK, ("analytic",)),
    "saem.mh_sweep.self_s": (_PK, ("analytic",)),
    "saem.individual_delta.calls": (("pk_saem", "analytic"), ("pk_fixed_v",)),
    "saem.individual_delta.self_s": (("pk_saem", "analytic"), ("pk_fixed_v",)),
    "saem.mh_accept_ratio": (_PK, ("analytic",)),
    "saem_general.run.self_s": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "saem_general.buffer_update.self_s": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "saem_general.buffer_len_max": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "saem_general.pruned_mass": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "saem_general.maximize_q.self_s": (("pk_fixed_v",), ("pk_saem", "analytic")),
    "fim.score_outer_fim.calls": (_ALL, ()),
    "fim.score_outer_fim.self_s": (_ALL, ()),
    "fim.observed_fim.self_s": (("analytic",), _PK),
    "fim.mc_reference_fim.self_s": (("analytic",), _PK),
    "fim.mc_reference_fim.draws_per_s": (("analytic",), _PK),
    "fim.conditional_score_fim.self_s": (("analytic",), _PK),
    "fim.wald.self_s": (("analytic", "pk_fixed_v"), ("pk_saem",)),
    "condoracle.conditional_moments.self_s": (("pk_saem",), ("pk_fixed_v", "analytic")),
    "condoracle.laplace_fit.calls": (("pk_saem",), ("pk_fixed_v", "analytic")),
    "condoracle.laplace_fit.self_s": (("pk_saem",), ("pk_fixed_v", "analytic")),
    "condoracle.draws_per_s": (("pk_saem",), ("pk_fixed_v", "analytic")),
    "condoracle.min_ess": (("pk_saem",), ("pk_fixed_v", "analytic")),
    "studies.replicates": (_ALL, ()),
    "studies.replicate_s_p50": (_ALL, ()),
    "studies.replicate_s_max": (_ALL, ()),
    "studies.serial_s": (_ALL, ()),
    "studies.fanout_speedup": (_ALL, ()),
    "reporting.bytes_written": (_ALL, ()),
    "reporting.write_s": (_ALL, ()),
    "trace.overhead_frac": ((), ()),
}
