"""Simulation-study engine: bias/RMSD tables, normalized-density exports,
stochastic-approximation replication trajectories, coverage studies, and the
mean-matrix comparison against the published iterative-method estimate.

Every study is a pure function of (config, master seed): replicate m draws
from the stream keyed (master_seed, group, m), results are reduced in
replicate order, and output files are byte-identical for any worker count.
``parse_study_config`` checks a config completely before anything runs, and
``run_study`` is the one way a study runs and the one place it writes files.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .condoracle import conditional_moments, reference_fims
from .data import Dataset, Design
from .errors import ConfigError, NumericalError, ScorefimError
from .fim import (
    FimMatrix,
    conditional_score_fim,
    mc_reference_fim,
    observed_fim,
    score_outer_fim,
    wald_confidence_intervals,
)
from .kde import gaussian_kde, sample_moments
from .modelbase import ExpoFamilyModel, LatentModel, validate_params
from .models import build_model, gaussian_mixture_em, lmm_analytic_fim
from .parallel import pmap as _pmap  # the replicate fan-out; bench/child.py swaps this name
from .params import ParamVector
from .reporting import ManifestTimer, write_table
from .rng import substream
from .saem import SaemConfig, StepSchedule, run_saem
from .saem_general import PRUNE_EPSILON, check_buffer_schedule, run_general_saem

# stream namespaces: replicate groups start at 100; 1 is reserved for
# mc_reference_fim chunks, 2 for conditional-moment oracles
_GROUP_DATA = 100
_GROUP_FIT = 200

STUDY_KINDS = ("bias_table", "density", "saem_replication", "coverage", "meng_comparison")

# how each model is fitted: EM, the general weighted-buffer algorithm, or
# (every model not listed) SAEM
_FIT_ROUTES = {"gaussian_mixture2": "em", "pk_nlme_fixed_v": "saem_general"}


def fit_route(model: str) -> str:
    """Default fitting route of a model: "em", "saem_general" or "saem"."""
    return _FIT_ROUTES.get(model, "saem")


def fit_model(
    model: LatentModel, ds: Dataset, route: str, saem: SaemConfig | None, seed: int,
    theta0: ParamVector | None = None, *,
    em_tol: float, em_max_iter: int, prune_epsilon: float,
) -> tuple:
    """Fit ``model`` to ``ds`` by ``route``, the one fit path of ``scorefim
    fit`` and the studies: (theta_hat, FIM, trajectories or None,
    diagnostics).  The stochastic routes run the ``saem`` block at ``seed``;
    theta0 defaults to the model's initial_theta."""
    theta0 = model.initial_theta(ds) if theta0 is None else theta0
    if route == "em":
        res = gaussian_mixture_em(ds, theta0, tol=em_tol, max_iter=em_max_iter)
        if not res.converged:
            raise NumericalError("EM hit its iteration limit")
        theta_hat = model.canonicalize(res.theta)
        fim = conditional_score_fim(model, ds, theta_hat)
        return theta_hat, fim, None, {"iterations": res.n_iter, "converged": res.converged}
    if route not in ("saem", "saem_general"):
        raise ConfigError(f"unknown fit method {route!r}")
    cfg = replace(saem, seed=seed)
    if route == "saem":
        res = run_saem(model, ds, cfg, theta0=theta0)
    else:
        res = run_general_saem(model, ds, cfg, theta0=theta0, prune_epsilon=prune_epsilon)
    return res.theta, res.fim, res.trajectories, res.diagnostics


@dataclass(frozen=True)
class StudyConfig:
    """A study config as ``parse_study_config`` returns it, already checked."""

    kind: str
    model: str
    theta_star: ParamVector
    design: Design
    M: int
    seed: int
    n_values: tuple[int, ...]
    alpha: float
    n_mc: int
    estimators: tuple[str, ...]
    components: tuple[tuple[str, str], ...]
    saem: SaemConfig | None
    reference_theta: str | tuple[float, ...]
    prune_epsilon: float
    em_tol: float
    em_max_iter: int


@dataclass(frozen=True)
class StudyReport:
    kind: str
    tables: dict
    files: tuple[str, ...]
    m_effective: int
    failures: int
    extras: dict = field(default_factory=dict)


def _model_for(config: StudyConfig) -> LatentModel:
    return build_model(config.model, n_params=config.theta_star.p)


# --------------------------------------------------------------------------
# strict JSON config parsing

# the keys parse_fit_keys reads, in study and ``scorefim fit`` configs alike
FIT_KEYS = ("em_tol", "em_max_iter", "prune_epsilon")
_TOP_KEYS = {
    "kind", "model", "theta_star", "design", "M", "seed", "n_values", "alpha",
    "n_mc", "estimators", "components", "saem", "reference_theta", *FIT_KEYS,
}
_DESIGN_KEYS = {"n", "n_obs", "times", "dose"}
_SAEM_KEYS = {
    "burn_in", "burn_value", "exponent", "total_iterations",
    "mh_transitions_per_iter", "proposal_scales", "thin",
}
_ESTIMATORS = ("score", "observed")


def _config_block(raw, name: str, keys: set, required=()) -> dict:
    """A ``name`` block checked to be a JSON object with every ``required``
    key and no key outside ``keys``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(raw) - keys
    if unknown:
        raise ConfigError(f"unknown {name} keys: {', '.join(sorted(unknown))}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing {name} key {key!r}")
    return raw


def _config_value(raw: dict, key: str, convert, default=None):
    """``convert(raw[key])``, or ``default`` when ``key`` is absent: the one
    way config values are read, so a value that does not convert is a
    ConfigError, not a traceback."""
    if key not in raw:
        return default
    try:
        return convert(raw[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key} value {raw[key]!r}: {exc}") from exc


def _vector(value) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.ndim != 1:
        raise ValueError("expected a flat list of numbers")
    return out


def _seed(value) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError("seeds are nonnegative integers")
    return seed


def _names(value) -> tuple[str, ...]:
    if isinstance(value, str) or not all(isinstance(v, str) for v in value):
        raise ValueError("expected a list of names")
    return tuple(value)


def _pairs(value) -> tuple[tuple[str, str], ...]:
    pairs = tuple(_names(pair) for pair in value)
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected pairs of names")
    return pairs


def _ints(value) -> tuple[int, ...]:
    return tuple(int(v) for v in value)


def _reference(value) -> str | tuple[float, ...]:
    return value if value == "terminal_mean" else tuple(_vector(value).tolist())


def parse_model_theta(raw: dict, key: str) -> tuple[LatentModel, ParamVector | None]:
    """The model a config's ``model`` id names and its ``key`` vector,
    checked as that model's parameters (None when ``key`` is absent)."""
    values = _config_value(raw, key, _vector)
    model = build_model(raw["model"], n_params=None if values is None else values.size)
    if values is None:
        return model, None
    theta = model.make_params(values)
    validate_params(model, theta)
    return model, theta


def parse_design_config(raw: dict) -> Design:
    """Strict parser of a ``design`` block (study, ``scorefim simulate``)."""
    raw = _config_block(raw, "design", _DESIGN_KEYS)
    return Design(
        n=_config_value(raw, "n", int, 1),
        n_obs=_config_value(raw, "n_obs", int),
        times=_config_value(raw, "times", _vector),
        dose=_config_value(raw, "dose", float),
    )


def parse_saem_config(raw: dict, model: LatentModel) -> SaemConfig:
    """Strict parser of a ``saem`` block (study, ``scorefim fit``) for
    ``model``, whose latent dimension ``proposal_scales`` must match; the
    caller sets the seed."""
    raw = _config_block(raw, "saem", _SAEM_KEYS)
    scales = _config_value(raw, "proposal_scales", _vector)
    if scales is not None and scales.size != model.latent_dim:
        raise ConfigError(
            f"proposal_scales needs one entry per latent coordinate of {model.name} "
            f"({model.latent_dim}), got {scales.size}"
        )
    return SaemConfig(
        schedule=StepSchedule(
            burn_in=_config_value(raw, "burn_in", int, 1000),
            burn_value=_config_value(raw, "burn_value", float, 0.95),
            exponent=_config_value(raw, "exponent", float, 0.6),
        ),
        total_iterations=_config_value(raw, "total_iterations", int, 3000),
        mh_transitions_per_iter=_config_value(raw, "mh_transitions_per_iter", int, 5),
        proposal_scales=scales,
        thin=_config_value(raw, "thin", int, 1),
    )


def parse_fit_keys(raw: dict, route: str, saem: SaemConfig | None) -> dict:
    """The fit keys of a ``fit`` or study config, as ``fit_model`` takes them:
    em_tol, em_max_iter and prune_epsilon with their defaults.  On the
    general route a prune_epsilon the ``saem`` block's schedule reaches is a
    ConfigError (``check_buffer_schedule``)."""
    prune_epsilon = _config_value(raw, "prune_epsilon", float, PRUNE_EPSILON)
    if route == "saem_general" and saem is not None:
        check_buffer_schedule(saem, prune_epsilon)
    return {
        "em_tol": _config_value(raw, "em_tol", float, 1e-8),
        "em_max_iter": _config_value(raw, "em_max_iter", int, 2000),
        "prune_epsilon": prune_epsilon,
    }


def parse_study_config(raw: dict) -> StudyConfig:
    """Strict parser: unknown keys, values that do not convert and every
    limit a study can be seen to break are ConfigErrors here, before
    anything runs."""
    raw = _config_block(
        raw, "config", _TOP_KEYS, required=("kind", "model", "theta_star", "design", "M", "seed"),
    )
    kind = raw["kind"]
    if kind not in STUDY_KINDS:
        raise ConfigError(f"unknown study kind {kind!r}")
    model, theta = parse_model_theta(raw, "theta_star")
    design = parse_design_config(raw["design"])
    saem = parse_saem_config(raw["saem"], model) if "saem" in raw else None
    route = fit_route(raw["model"])
    config = StudyConfig(
        kind=kind,
        model=raw["model"],
        theta_star=theta,
        design=design,
        M=_config_value(raw, "M", int),
        seed=_config_value(raw, "seed", _seed),
        n_values=_config_value(raw, "n_values", _ints, ()),
        alpha=_config_value(raw, "alpha", float, 0.05),
        n_mc=_config_value(raw, "n_mc", int, 1_000_000),
        estimators=_config_value(raw, "estimators", _names, _ESTIMATORS),
        components=_config_value(raw, "components", _pairs, ()),
        saem=saem,
        reference_theta=_config_value(raw, "reference_theta", _reference, "terminal_mean"),
        **parse_fit_keys(raw, route, saem),
    )

    if config.M < 2:
        raise ConfigError("M must be >= 2")
    if not 0.0 < config.alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    unknown = sorted(set(config.estimators) - set(_ESTIMATORS))
    if unknown:
        raise ConfigError(f"unknown estimators {unknown}; known: {', '.join(_ESTIMATORS)}")
    for a, b in config.components:
        if a not in theta.names or b not in theta.names:
            raise ConfigError(f"unknown component pair ({a}, {b})")
    if kind in ("bias_table", "density"):
        if not config.n_values or min(config.n_values) < 1:
            raise ConfigError(f"{kind} study needs n_values, each >= 1")
        if not model.has_marginal_score:
            raise ConfigError(f"{config.model} has no analytic direct-estimator path")
    if config.model == "lmm" and design.n_obs is None:
        raise ConfigError("lmm design needs n_obs")
    if kind == "meng_comparison" and config.model != "gaussian_mixture2":
        raise ConfigError("the comparison study is defined for gaussian_mixture2")
    if kind == "saem_replication" and not (
        isinstance(model, ExpoFamilyModel) and model.has_complete_hessian
    ):
        raise ConfigError(
            f"saem_replication runs SAEM with the Louis comparator, which needs a "
            f"curved-exponential model with a complete Hessian; {config.model} is not one"
        )
    if config.reference_theta != "terminal_mean":
        validate_params(model, model.make_params(config.reference_theta))
    needs_saem = kind == "saem_replication" or (
        kind in ("coverage", "meng_comparison") and route != "em"
    )
    if needs_saem and saem is None:
        raise ConfigError(f"{kind} for {config.model} needs a saem config block")
    return config


def _config_echo(config: StudyConfig) -> dict:
    echo = asdict(config)
    echo["theta_star"] = {
        "names": list(config.theta_star.names),
        "values": config.theta_star.values.tolist(),
    }
    return echo


# --------------------------------------------------------------------------
# bias / density studies (direct estimators at theta*)

def _direct_estimates(model, config, n: int, n_idx: int, m: int) -> dict:
    rng = substream(config.seed, _GROUP_DATA + n_idx, m)
    design = replace(config.design, n=n)
    ds = model.simulate(config.theta_star, design, rng)
    out = {}
    if "score" in config.estimators:
        out["score"] = score_outer_fim(
            model.marginal_score(ds, config.theta_star), names=config.theta_star.names
        ).entries
    if "observed" in config.estimators:
        out["observed"] = observed_fim(
            model.marginal_hessian(ds, config.theta_star), names=config.theta_star.names
        ).entries
    return out


def _bias_worker(payload):
    config, n, n_idx, m = payload
    model = _model_for(config)
    return _direct_estimates(model, config, n, n_idx, m)


def _reference_matrix(model, config: StudyConfig) -> FimMatrix:
    if config.model == "lmm":
        return lmm_analytic_fim(config.theta_star, config.design.n_obs)
    return mc_reference_fim(
        model, config.theta_star, replace(config.design, n=1),
        n_draws=config.n_mc, seed=config.seed,
    )


def _bias_samples(config: StudyConfig, threads: int):
    """The reference matrix, the per-(estimator, n) bias/RMSD tables, the
    deviation samples behind them and the rows of bias_rmsd.csv."""
    reference = _reference_matrix(_model_for(config), config)
    names = config.theta_star.names
    p = len(names)
    tables = {}
    samples = {}
    rows = []
    payloads = [(config, n, n_idx, m) for n_idx, n in enumerate(config.n_values)
                for m in range(config.M)]
    batch = _pmap(_bias_worker, payloads, threads)  # one fan-out for every n
    for n_idx, n in enumerate(config.n_values):
        results = batch[n_idx * config.M:(n_idx + 1) * config.M]
        for est in config.estimators:
            devs = np.stack([r[est] for r in results]) - reference.entries
            bias = devs.mean(axis=0)
            rmsd = np.sqrt((devs**2).mean(axis=0))
            se = np.sqrt(np.maximum((devs**2).mean(0) - bias**2, 0.0) / config.M)
            tables[(est, n)] = {"bias": bias, "rmsd": rmsd, "mc_se": se}
            samples[(est, n)] = devs
            for j in range(p):
                for i in range(j + 1):
                    rows.append(
                        [est, n, names[i], names[j], bias[i, j], rmsd[i, j], se[i, j], config.M]
                    )
            if not np.all(rmsd + 1e-300 >= np.abs(bias)):
                raise NumericalError("RMSD fell below |bias|")  # Jensen violated: bug
    return reference, tables, samples, rows


def _bias_study(config: StudyConfig, threads: int):
    """Per-component empirical bias and root mean squared deviation, per n."""
    reference, tables, samples, rows = _bias_samples(config, threads)
    report = StudyReport(
        kind="bias_table", tables=tables, files=(), m_effective=config.M, failures=0,
        extras={"reference": reference, "samples": samples},
    )
    header = ["estimator", "n", "component_row", "component_col", "bias", "rmsd", "mc_se", "M"]
    return report, {"bias_rmsd.csv": (header, rows)}, {"param_names": list(config.theta_star.names)}


def _density_study(config: StudyConfig, threads: int):
    """Kernel densities of sqrt(n) (I_hat - I_ref) for selected components."""
    samples = _bias_samples(config, threads)[2]
    names = list(config.theta_star.names)
    components = config.components or _default_components(config)
    dens_rows = {est: [] for est in config.estimators}
    moment_rows = []
    moments = {}
    for n in config.n_values:
        for est in config.estimators:
            devs = samples[(est, n)]
            for a, b in components:
                label = f"{a}:{b}"
                sample = np.sqrt(n) * devs[:, names.index(a), names.index(b)]
                skew, kurt = sample_moments(sample)
                moments[(est, n, label)] = (skew, kurt, sample)
                moment_rows.append([est, n, label, skew, kurt, len(sample)])
                if sample.std() == 0.0:
                    continue  # degenerate component (deterministic estimator entry)
                grid, dens = gaussian_kde(sample)
                dens_rows[est] += [
                    [n, label, g, d] for g, d in zip(grid, dens)
                ]

    report = StudyReport(
        kind="density", tables={"moments": moments}, files=(), m_effective=config.M, failures=0,
    )
    tables = {
        f"density_{est}.csv": (["n", "component", "x", "density"], dens_rows[est])
        for est in config.estimators
    }
    tables["moments.csv"] = (
        ["estimator", "n", "component", "skewness", "excess_kurtosis", "M"], moment_rows,
    )
    return report, tables, {}


def _default_components(config: StudyConfig):
    names = config.theta_star.names
    if config.model == "lmm":
        return tuple((n, n) for n in names)
    return tuple((n, n) for n in names[:3])


def _failure_reasons(results) -> list:
    """[run, error] of every replicate that failed, in run order."""
    return [[m, r["error"]] for m, r in enumerate(results) if "error" in r]


# the run diagnostics a replicate's fit reports that its study sums over the
# replicates into manifest.json: wall seconds per SAEM phase, and the M-step
# effort of the general algorithm (profile evaluations and steps, counted)
_SUMMED_DIAGNOSTICS = ("phase_s", "mstep_effort")


def _summed_diagnostics(ok: list) -> dict:
    """Each of _SUMMED_DIAGNOSTICS summed name by name over the replicates in
    ``ok`` that report it (seconds to the ms); a route that reports none of
    them, as EM, adds nothing."""
    out = {}
    for key in _SUMMED_DIAGNOSTICS:
        parts = [r[key] for r in ok if key in r]
        names = dict.fromkeys(name for part in parts for name in part)
        if names:
            out[key] = {name: round(sum(part.get(name, 0) for part in parts), 3) for name in names}
    return out


def _fit_seed(config: StudyConfig, m: int) -> int:
    """Seed of replicate m's stochastic fit, from the stream (seed, _GROUP_FIT, m)."""
    return int(np.random.SeedSequence(config.seed, spawn_key=(_GROUP_FIT, m)).generate_state(1)[0])


# --------------------------------------------------------------------------
# stochastic-approximation replication study (one dataset, M runs)

def _replication_worker(payload):
    config, theta0_values, m = payload
    model = _model_for(config)
    rng = substream(config.seed, _GROUP_DATA, 0)
    ds = model.simulate(config.theta_star, config.design, rng)
    cfg = replace(config.saem, seed=_fit_seed(config, m), track_louis=True)
    theta0 = model.make_params(theta0_values)
    try:
        res = run_saem(model, ds, cfg, theta0=theta0)
    except ScorefimError as exc:
        return {"error": str(exc)}
    return {
        "theta": res.theta.values,
        "fim_diag": res.trajectories["fim_diag"],
        "louis_diag": res.trajectories["louis_diag"],
        "iteration": res.trajectories["iteration"],
        "gamma": res.trajectories["gamma"],
        "phase_s": res.diagnostics["phase_s"],
    }


def _replication_study(config: StudyConfig, threads: int):
    """M independent stochastic runs on one fixed dataset; per-iteration mean
    relative bias and relative dispersion of the FIM diagonals against the
    conditional-expectation Monte-Carlo reference.  The oracle draws
    min(n_mc, 200000) times per individual, recorded as ``oracle_draws`` in
    the manifest."""
    model = _model_for(config)
    rng = substream(config.seed, _GROUP_DATA, 0)
    ds = model.simulate(config.theta_star, config.design, rng)
    theta0 = model.initial_theta(ds)

    payloads = [(config, theta0.values, m) for m in range(config.M)]
    t0 = time.perf_counter()
    results = _pmap(_replication_worker, payloads, threads)
    replicates_s = time.perf_counter() - t0
    ok = [r for r in results if "error" not in r]
    failures = config.M - len(ok)
    failure_reasons = _failure_reasons(results)
    if not ok:
        raise NumericalError(
            f"all {config.M} replication runs failed; first error: {failure_reasons[0][1]}"
        )

    # reference theta: averaged terminal estimate unless pinned in the config
    if config.reference_theta == "terminal_mean":
        theta_ref = model.make_params(np.mean([r["theta"] for r in ok], axis=0))
    else:
        theta_ref = model.make_params(np.asarray(config.reference_theta))
    oracle_draws = min(config.n_mc, 200_000)
    t0 = time.perf_counter()
    moments = conditional_moments(
        model, ds, theta_ref, n_draws=oracle_draws, seed=config.seed, threads=threads,
    )
    oracle_s = time.perf_counter() - t0
    ref_sco, ref_obs = reference_fims(moments, model.param_names, ds.n)
    dsco = np.diag(ref_sco.entries)
    dobs = np.diag(ref_obs.entries)

    iters = ok[0]["iteration"]
    gammas = ok[0]["gamma"]
    sco = np.stack([r["fim_diag"] for r in ok])  # (M, T, p)
    lou = np.stack([r["louis_diag"] for r in ok])
    rel_sco = (sco - dsco) / dsco
    rel_lou = (lou - dobs) / dobs
    relbias_sco = rel_sco.mean(axis=0)
    relse_sco = np.sqrt((rel_sco**2).mean(axis=0))
    relbias_lou = rel_lou.mean(axis=0)
    relse_lou = np.sqrt((rel_lou**2).mean(axis=0))

    names = model.param_names
    rows = []
    for t in range(len(iters)):
        rows.append(
            [int(iters[t]), gammas[t]]
            + list(relbias_sco[t]) + list(relse_sco[t])
            + list(relbias_lou[t]) + list(relse_lou[t])
        )
    header = (
        ["iteration", "gamma"]
        + [f"relbias_sco_{n}" for n in names]
        + [f"relse_sco_{n}" for n in names]
        + [f"relbias_obs_{n}" for n in names]
        + [f"relse_obs_{n}" for n in names]
    )
    terminal = [[m] + list(r["theta"]) for m, r in enumerate(results) if "error" not in r]

    report = StudyReport(
        kind="saem_replication",
        tables={
            "relbias_sco": relbias_sco, "relse_sco": relse_sco,
            "relbias_obs": relbias_lou, "relse_obs": relse_lou,
            "iteration": iters,
        },
        files=(), m_effective=len(ok), failures=failures,
        extras={
            "reference_sco": ref_sco, "reference_obs": ref_obs,
            "theta_ref": theta_ref, "sco_runs": sco, "louis_runs": lou, "dataset": ds,
        },
    )
    tables = {
        "replication.csv": (header, rows),
        "terminal_thetas.csv": (["run"] + list(names), terminal),
    }
    manifest = {
        "failures": failures,
        "failure_reasons": failure_reasons,
        "reference_theta": theta_ref.values.tolist(),
        "oracle_draws": oracle_draws,
        "oracle_min_ess": float(moments.ess.min()),
        "replicates_s": round(replicates_s, 3),
        **_summed_diagnostics(ok),
        "oracle_s": round(oracle_s, 3),
        "oracle_fit_s": round(moments.fit_s, 3),
        "oracle_newton_iterations": moments.newton_iterations,
        "oracle_mirror_refits": moments.mirror_refits,
        "oracle_unconverged": list(moments.unconverged),
    }
    return report, tables, manifest


# --------------------------------------------------------------------------
# coverage studies: M replicates of simulate / fit / FIM / Wald interval

def _wald_replicate(config: StudyConfig, m: int) -> dict:
    """Replicate m: which Wald intervals cover theta*, theta_hat and the FIM."""
    model = _model_for(config)
    rng = substream(config.seed, _GROUP_DATA, m)
    ds = model.simulate(config.theta_star, config.design, rng)
    try:
        theta_hat, fim, _, diagnostics = fit_model(
            model, ds, fit_route(config.model), config.saem, _fit_seed(config, m),
            em_tol=config.em_tol, em_max_iter=config.em_max_iter,
            prune_epsilon=config.prune_epsilon,
        )
        cis = wald_confidence_intervals(theta_hat, fim, config.alpha)
    except ScorefimError as exc:
        return {"error": str(exc)}
    star = config.theta_star.values
    return {
        "cover": np.array([ci.contains(star[l]) for l, ci in enumerate(cis)], dtype=float),
        "theta": theta_hat.values,
        "fim": fim.entries,
        **{key: diagnostics[key] for key in _SUMMED_DIAGNOSTICS if key in diagnostics},
    }


def _coverage_worker(payload):
    return _wald_replicate(*payload)


@dataclass(frozen=True)
class _WaldRuns:
    ok: list
    failures: int
    failure_reasons: list
    coverage: np.ndarray
    binomial_se: np.ndarray


def _run_wald_replicates(config: StudyConfig, worker, threads: int) -> _WaldRuns:
    """Fan the M replicates out to ``worker``; 2% or more failed replicates
    fail the study, and the rest give the empirical coverage."""
    results = _pmap(worker, [(config, m) for m in range(config.M)], threads)
    ok = [r for r in results if "error" not in r]
    failures = config.M - len(ok)
    failure_reasons = _failure_reasons(results)
    if failures >= 0.02 * config.M:
        raise NumericalError(
            f"{failures} of {config.M} replicates failed (limit 2%); "
            f"first error: {failure_reasons[0][1]}"
        )
    coverage = np.stack([r["cover"] for r in ok]).mean(axis=0)
    se = np.sqrt(coverage * (1.0 - coverage) / len(ok))
    return _WaldRuns(ok, failures, failure_reasons, coverage, se)


def _coverage_outputs(names, runs: _WaldRuns):
    """The coverage.csv table, and for the manifest the failed replicates and
    the fits' summed diagnostics."""
    rows = [[n, c, s, len(runs.ok), runs.failures]
            for n, c, s in zip(names, runs.coverage, runs.binomial_se)]
    header = ["parameter", "coverage", "binomial_se", "M_effective", "failures"]
    return {"coverage.csv": (header, rows)}, {
        "failures": runs.failures, "failure_reasons": runs.failure_reasons,
        **_summed_diagnostics(runs.ok),
    }


def _coverage_study(config: StudyConfig, threads: int):
    """M replicates of simulate / fit / FIM / Wald interval; empirical coverage."""
    names = _model_for(config).param_names
    runs = _run_wald_replicates(config, _coverage_worker, threads)
    report = StudyReport(
        kind="coverage",
        tables={"coverage": dict(zip(names, runs.coverage)),
                "binomial_se": dict(zip(names, runs.binomial_se))},
        files=(), m_effective=len(runs.ok), failures=runs.failures,
        extras={"thetas": np.stack([r["theta"] for r in runs.ok])},
    )
    return report, *_coverage_outputs(names, runs)


# --------------------------------------------------------------------------
# mean-matrix comparison study

# Published single-dataset estimate of the comparison method (iterative,
# numerical-derivative based) on the same mixture design; context only.
MENG_REFERENCE = np.array(
    [
        [2591.3, -237.9, -231.8],
        [-237.9, 155.8, -86.7],
        [-231.8, -86.7, 394.5],
    ]
)


def _meng_worker(payload):
    config, m = payload
    result = _wald_replicate(config, m)
    if "fim" in result:
        result["total_fim"] = config.design.n * result.pop("fim")
    return result


def _meng_study(config: StudyConfig, threads: int):
    """Mean of M total-information matrices I_sco(theta_hat), with coverage.

    The displayed matrices are total information (n times the per-individual
    average), matching the scale of the published comparison values.
    """
    names = _model_for(config).param_names
    runs = _run_wald_replicates(config, _meng_worker, threads)
    mats = np.stack([r["total_fim"] for r in runs.ok])
    mean_matrix = mats.mean(axis=0)
    se_matrix = mats.std(axis=0, ddof=1) / np.sqrt(len(runs.ok))

    report = StudyReport(
        kind="meng_comparison",
        tables={"mean_matrix": mean_matrix, "se_matrix": se_matrix,
                "coverage": dict(zip(names, runs.coverage))},
        files=(), m_effective=len(runs.ok), failures=runs.failures,
        extras={"matrices": mats},
    )
    rows = [
        [f"{names[i]}:{names[j]}", mean_matrix[i, j], se_matrix[i, j], MENG_REFERENCE[i, j]]
        for j in range(3) for i in range(j + 1)
    ]
    coverage_tables, manifest = _coverage_outputs(names, runs)
    tables = {
        "mean_matrix.csv": (["component", "mean", "replicate_se", "meng_single_dataset"], rows),
        **coverage_tables,
    }
    return report, tables, manifest


# --------------------------------------------------------------------------
# the one entry point: dispatch by kind, then write

_STUDIES = {
    "bias_table": _bias_study,
    "density": _density_study,
    "saem_replication": _replication_study,
    "coverage": _coverage_study,
    "meng_comparison": _meng_study,
}


def run_study(config: StudyConfig, out_dir=None, threads: int = 1) -> StudyReport:
    """Run the study ``config`` describes on ``threads`` workers.  With
    ``out_dir``, write its CSV tables under ``out_dir/<kind>`` and then its
    manifest.json; the report's ``files`` lists them in that order."""
    timer = ManifestTimer(_config_echo(config), config.seed)
    report, tables, manifest = _STUDIES[config.kind](config, threads)
    if out_dir is None:
        return report
    out = Path(out_dir) / config.kind
    for name, (header, rows) in tables.items():
        write_table(out / name, header, rows)
        timer.add_output(out / name)
    timer.extra.update(manifest)
    return replace(report, files=(*timer.outputs, str(timer.write(out))))
