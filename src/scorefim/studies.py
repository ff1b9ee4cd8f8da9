"""Simulation-study engine: bias/RMSD tables, normalized-density exports,
stochastic-approximation replication trajectories, coverage studies, and the
mean-matrix comparison against the published iterative-method estimate.

Every study is a pure function of (config, master seed): replicate m draws
from the stream keyed (master_seed, group, m), results are reduced in
replicate order, and output files are byte-identical for any worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .condoracle import conditional_moments, reference_fims
from .data import Design
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
from .modelbase import LatentModel
from .models import build_model, gaussian_mixture_em, lmm_analytic_fim
from .params import ParamVector
from .reporting import ManifestTimer, write_table
from .rng import substream
from .saem import SaemConfig, StepSchedule, run_saem
from .saem_general import buffer_capacity, run_general_saem

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


@dataclass(frozen=True)
class StudyConfig:
    kind: str
    model: str
    theta_star: ParamVector
    design: Design
    M: int
    seed: int
    n_values: tuple[int, ...] = ()
    alpha: float = 0.05
    n_mc: int = 1_000_000
    estimators: tuple[str, ...] = ("score", "observed")
    components: tuple[tuple[str, str], ...] = ()
    saem: SaemConfig | None = None
    reference_theta: str | tuple[float, ...] = "terminal_mean"
    prune_epsilon: float = 1e-6
    capacity: int = 500
    em_tol: float = 1e-8
    em_max_iter: int = 2000

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ConfigError(f"unknown study kind {self.kind!r}")
        if self.M < 2:
            raise ConfigError("M must be >= 2")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.design.n < 1:
            raise ConfigError("design needs n >= 1")


@dataclass(frozen=True)
class StudyReport:
    kind: str
    tables: dict
    files: tuple[str, ...]
    m_effective: int
    failures: int
    extras: dict = field(default_factory=dict)


def _model_for(config: StudyConfig) -> LatentModel:
    model = build_model(config.model, n_params=config.theta_star.p)
    model._check_dim(config.theta_star)
    model.validate_params(config.theta_star)
    return model


# --------------------------------------------------------------------------
# strict JSON config parsing

_TOP_KEYS = {
    "kind", "model", "theta_star", "design", "M", "seed", "n_values", "alpha",
    "n_mc", "estimators", "components", "saem", "reference_theta",
    "prune_epsilon", "capacity", "em_tol", "em_max_iter",
}
_DESIGN_KEYS = {"n", "n_obs", "times", "dose"}
_SAEM_KEYS = {
    "burn_in", "burn_value", "exponent", "total_iterations",
    "mh_transitions_per_iter", "proposal_scales", "averaging", "thin",
}


def _config_block(raw, name: str, keys: set) -> dict:
    """A ``name`` block checked to be a JSON object with no key outside ``keys``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(raw) - keys
    if unknown:
        raise ConfigError(f"unknown {name} keys: {', '.join(sorted(unknown))}")
    return raw


def parse_design_config(raw: dict) -> Design:
    """Strict parser of a ``design`` block (study, ``scorefim simulate``)."""
    raw = _config_block(raw, "design", _DESIGN_KEYS)
    return Design(
        n=int(raw.get("n", 1)),
        n_obs=int(raw["n_obs"]) if "n_obs" in raw else None,
        times=np.asarray(raw["times"], dtype=float) if "times" in raw else None,
        dose=float(raw["dose"]) if "dose" in raw else None,
    )


def parse_saem_config(raw: dict) -> SaemConfig:
    """Strict parser of a ``saem`` block (study, ``scorefim fit``); the
    caller sets the seed."""
    raw = _config_block(raw, "saem", _SAEM_KEYS)
    return SaemConfig(
        schedule=StepSchedule(
            burn_in=int(raw.get("burn_in", 1000)),
            burn_value=float(raw.get("burn_value", 0.95)),
            exponent=float(raw.get("exponent", 0.6)),
        ),
        total_iterations=int(raw.get("total_iterations", 3000)),
        mh_transitions_per_iter=int(raw.get("mh_transitions_per_iter", 5)),
        proposal_scales=(
            np.asarray(raw["proposal_scales"], dtype=float)
            if "proposal_scales" in raw else None
        ),
        averaging=raw.get("averaging", "off"),
        thin=int(raw.get("thin", 1)),
    )


def parse_study_config(raw: dict) -> StudyConfig:
    """Strict parser: unknown keys anywhere are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("study config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in ("kind", "model", "theta_star", "design", "M", "seed"):
        if key not in raw:
            raise ConfigError(f"missing config key {key!r}")

    model = build_model(raw["model"], n_params=len(raw["theta_star"]))
    theta = model.make_params(np.asarray(raw["theta_star"], dtype=float))

    design = parse_design_config(raw["design"])
    saem = parse_saem_config(raw["saem"]) if "saem" in raw else None

    ref = raw.get("reference_theta", "terminal_mean")
    if isinstance(ref, (list, tuple)):
        ref = tuple(float(v) for v in ref)
    elif ref != "terminal_mean":
        raise ConfigError("reference_theta must be 'terminal_mean' or a vector")

    components = tuple(
        (str(a), str(b)) for a, b in raw.get("components", [])
    )
    prune_epsilon = float(raw.get("prune_epsilon", 1e-6))
    capacity = int(raw.get("capacity", 500))
    if saem is not None and fit_route(raw["model"]) == "saem_general":
        capacity = buffer_capacity(saem, prune_epsilon, raw.get("capacity"))
    return StudyConfig(
        kind=str(raw["kind"]),
        model=str(raw["model"]),
        theta_star=theta,
        design=design,
        M=int(raw["M"]),
        seed=int(raw["seed"]),
        n_values=tuple(int(v) for v in raw.get("n_values", [])),
        alpha=float(raw.get("alpha", 0.05)),
        n_mc=int(raw.get("n_mc", 1_000_000)),
        estimators=tuple(raw.get("estimators", ("score", "observed"))),
        components=components,
        saem=saem,
        reference_theta=ref,
        prune_epsilon=prune_epsilon,
        capacity=capacity,
        em_tol=float(raw.get("em_tol", 1e-8)),
        em_max_iter=int(raw.get("em_max_iter", 2000)),
    )


def load_study_config(path) -> StudyConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return parse_study_config(raw)


def _config_echo(config: StudyConfig) -> dict:
    echo = asdict(config)
    echo["theta_star"] = {
        "names": list(config.theta_star.names),
        "values": config.theta_star.values.tolist(),
    }
    return echo


def _pmap(fn, payloads, threads: int):
    if threads <= 1:
        return [fn(p) for p in payloads]
    chunk = max(1, len(payloads) // (8 * threads))
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, payloads, chunksize=chunk))


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
        if config.design.n_obs is None:
            raise ConfigError("lmm design needs n_obs")
        return lmm_analytic_fim(config.theta_star, config.design.n_obs)
    return mc_reference_fim(
        model, config.theta_star, replace(config.design, n=1),
        n_draws=config.n_mc, seed=config.seed,
    )


def run_bias_study(config: StudyConfig, out_dir=None, threads: int = 1) -> StudyReport:
    """Per-component empirical bias and root mean squared deviation, per n."""
    if config.kind not in ("bias_table", "density"):
        raise ConfigError(f"expected a bias_table config, got {config.kind!r}")
    if not config.n_values:
        raise ConfigError("bias study needs n_values")
    model = _model_for(config)
    if not model.has_marginal_score:
        raise ConfigError(f"{config.model} has no analytic direct-estimator path")
    timer = ManifestTimer(_config_echo(config), config.seed)
    reference = _reference_matrix(model, config)

    names = config.theta_star.names
    p = len(names)
    tables = {}
    samples = {}
    rows = []
    for n_idx, n in enumerate(config.n_values):
        payloads = [(config, n, n_idx, m) for m in range(config.M)]
        results = _pmap(_bias_worker, payloads, threads)
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

    files = []
    if out_dir is not None:
        out = Path(out_dir) / config.kind
        path = out / "bias_rmsd.csv"
        write_table(
            path,
            ["estimator", "n", "component_row", "component_col", "bias", "rmsd", "mc_se", "M"],
            rows,
        )
        timer.add_output(path)
        files.append(str(path))
        timer.extra["param_names"] = list(names)
        timer.write(out)
        files.append(str(out / "manifest.json"))
    return StudyReport(
        kind=config.kind, tables=tables, files=tuple(files),
        m_effective=config.M, failures=0,
        extras={"reference": reference, "samples": samples},
    )


def run_density_study(config: StudyConfig, out_dir=None, threads: int = 1) -> StudyReport:
    """Kernel densities of sqrt(n) (I_hat - I_ref) for selected components."""
    if config.kind != "density":
        raise ConfigError(f"expected a density config, got {config.kind!r}")
    base = run_bias_study(replace(config, kind="density"), out_dir=None, threads=threads)
    names = list(config.theta_star.names)
    components = config.components or _default_components(config)
    idx = []
    for a, b in components:
        if a not in names or b not in names:
            raise ConfigError(f"unknown component pair ({a}, {b})")
        idx.append((names.index(a), names.index(b)))

    timer = ManifestTimer(_config_echo(config), config.seed)
    dens_rows = {est: [] for est in config.estimators}
    moment_rows = []
    moments = {}
    for n in config.n_values:
        for est in config.estimators:
            devs = base.extras["samples"][(est, n)]
            for (a, b), (i, j) in zip(components, idx):
                label = f"{a}:{b}"
                sample = np.sqrt(n) * devs[:, i, j]
                skew, kurt = sample_moments(sample)
                moments[(est, n, label)] = (skew, kurt, sample)
                moment_rows.append([est, n, label, skew, kurt, len(sample)])
                if sample.std() == 0.0:
                    continue  # degenerate component (deterministic estimator entry)
                grid, dens = gaussian_kde(sample, grid_size=512)
                dens_rows[est] += [
                    [n, label, g, d] for g, d in zip(grid, dens)
                ]

    files = []
    if out_dir is not None:
        out = Path(out_dir) / "density"
        for est in config.estimators:
            path = out / f"density_{est}.csv"
            write_table(path, ["n", "component", "x", "density"], dens_rows[est])
            timer.add_output(path)
            files.append(str(path))
        path = out / "moments.csv"
        write_table(
            path, ["estimator", "n", "component", "skewness", "excess_kurtosis", "M"],
            moment_rows,
        )
        timer.add_output(path)
        files.append(str(path))
        timer.write(out)
        files.append(str(out / "manifest.json"))
    return StudyReport(
        kind="density", tables={"moments": moments}, files=tuple(files),
        m_effective=config.M, failures=0, extras={"base": base},
    )


def _default_components(config: StudyConfig):
    names = config.theta_star.names
    if config.model == "lmm":
        return tuple((n, n) for n in names)
    return tuple((n, n) for n in names[:3])


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
        "fim_diag_averaged": res.trajectories.get("fim_diag_averaged"),
        "iteration": res.trajectories["iteration"],
        "gamma": res.trajectories["gamma"],
    }


def run_saem_replication_study(config: StudyConfig, out_dir=None, threads: int = 1) -> StudyReport:
    """M independent stochastic runs on one fixed dataset; per-iteration mean
    relative bias and relative dispersion of the FIM diagonals against the
    conditional-expectation Monte-Carlo reference."""
    if config.kind != "saem_replication":
        raise ConfigError(f"expected a saem_replication config, got {config.kind!r}")
    if config.saem is None:
        raise ConfigError("saem_replication needs a saem config block")
    model = _model_for(config)
    timer = ManifestTimer(_config_echo(config), config.seed)

    rng = substream(config.seed, _GROUP_DATA, 0)
    ds = model.simulate(config.theta_star, config.design, rng)
    theta0 = model.initial_theta(ds)

    payloads = [(config, theta0.values, m) for m in range(config.M)]
    results = _pmap(_replication_worker, payloads, threads)
    ok = [r for r in results if "error" not in r]
    failures = config.M - len(ok)
    if not ok:
        raise NumericalError("all replication runs failed")

    # reference theta: averaged terminal estimate unless pinned in the config
    if config.reference_theta == "terminal_mean":
        theta_ref = model.make_params(np.mean([r["theta"] for r in ok], axis=0))
    else:
        theta_ref = model.make_params(np.asarray(config.reference_theta))
    moments = conditional_moments(
        model, ds, theta_ref, n_draws=min(config.n_mc, 200_000), seed=config.seed,
    )
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

    averaged = None
    if ok[0].get("fim_diag_averaged") is not None and len(ok[0]["fim_diag_averaged"]):
        averaged = np.stack([r["fim_diag_averaged"] for r in ok])

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

    files = []
    if out_dir is not None:
        out = Path(out_dir) / "saem_replication"
        path = out / "replication.csv"
        write_table(path, header, rows)
        timer.add_output(path)
        files.append(str(path))
        tpath = out / "terminal_thetas.csv"
        write_table(
            tpath, ["run"] + list(names),
            [[m] + list(r["theta"]) for m, r in enumerate(ok)],
        )
        timer.add_output(tpath)
        files.append(str(tpath))
        timer.extra["failures"] = failures
        timer.extra["reference_theta"] = theta_ref.values.tolist()
        timer.extra["oracle_min_ess"] = float(moments.ess.min())
        timer.write(out)
        files.append(str(out / "manifest.json"))

    return StudyReport(
        kind="saem_replication",
        tables={
            "relbias_sco": relbias_sco, "relse_sco": relse_sco,
            "relbias_obs": relbias_lou, "relse_obs": relse_lou,
            "iteration": iters,
        },
        files=tuple(files), m_effective=len(ok), failures=failures,
        extras={
            "reference_sco": ref_sco, "reference_obs": ref_obs,
            "theta_ref": theta_ref, "sco_runs": sco, "louis_runs": lou,
            "averaged_runs": averaged, "dataset": ds,
        },
    )


# --------------------------------------------------------------------------
# coverage studies

def _coverage_worker(payload):
    config, m = payload
    model = _model_for(config)
    rng = substream(config.seed, _GROUP_DATA, m)
    ds = model.simulate(config.theta_star, config.design, rng)
    try:
        theta_hat, fim = _fit_and_fim(model, ds, config, m)
        cis = wald_confidence_intervals(theta_hat, fim, config.alpha)
    except ScorefimError as exc:
        return {"error": str(exc)}
    star = config.theta_star.values
    return {
        "cover": np.array([ci.contains(star[l]) for l, ci in enumerate(cis)], dtype=float),
        "theta": theta_hat.values,
        "fim": fim.entries,
    }


def _fit_and_fim(model, ds, config: StudyConfig, m: int):
    route = fit_route(config.model)
    if route == "em":
        res = gaussian_mixture_em(
            ds, model.initial_theta(ds), tol=config.em_tol, max_iter=config.em_max_iter
        )
        if not res.converged:
            raise NumericalError("EM hit its iteration limit")
        theta_hat = model.canonicalize(res.theta)
        return theta_hat, conditional_score_fim(model, ds, theta_hat)
    if config.saem is None:
        raise ConfigError(f"coverage for {config.model} needs a saem config block")
    cfg = replace(config.saem, seed=_fit_seed(config, m))
    if route == "saem_general":
        res = run_general_saem(
            model, ds, cfg, theta0=model.initial_theta(ds),
            prune_epsilon=config.prune_epsilon, capacity=config.capacity,
        )
    else:
        res = run_saem(model, ds, cfg, theta0=model.initial_theta(ds))
    return res.theta, res.fim


def run_coverage_study(config: StudyConfig, out_dir=None, threads: int = 1) -> StudyReport:
    """M replicates of simulate / fit / FIM / Wald interval; empirical coverage."""
    if config.kind != "coverage":
        raise ConfigError(f"expected a coverage config, got {config.kind!r}")
    model = _model_for(config)
    timer = ManifestTimer(_config_echo(config), config.seed)
    payloads = [(config, m) for m in range(config.M)]
    results = _pmap(_coverage_worker, payloads, threads)
    ok = [r for r in results if "error" not in r]
    failures = config.M - len(ok)
    if failures >= 0.02 * config.M:
        raise NumericalError(
            f"{failures} of {config.M} replicates failed (limit 2%); "
            f"first error: {next(r['error'] for r in results if 'error' in r)}"
        )
    cover = np.stack([r["cover"] for r in ok])
    coverage = cover.mean(axis=0)
    se = np.sqrt(coverage * (1.0 - coverage) / len(ok))
    names = model.param_names

    rows = [
        [names[l], coverage[l], se[l], len(ok), failures]
        for l in range(len(names))
    ]
    files = []
    if out_dir is not None:
        out = Path(out_dir) / "coverage"
        path = out / "coverage.csv"
        write_table(path, ["parameter", "coverage", "binomial_se", "M_effective", "failures"], rows)
        timer.add_output(path)
        files.append(str(path))
        timer.extra["failures"] = failures
        timer.write(out)
        files.append(str(out / "manifest.json"))
    return StudyReport(
        kind="coverage",
        tables={"coverage": dict(zip(names, coverage)), "binomial_se": dict(zip(names, se))},
        files=tuple(files), m_effective=len(ok), failures=failures,
        extras={"thetas": np.stack([r["theta"] for r in ok])},
    )


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
    model = _model_for(config)
    rng = substream(config.seed, _GROUP_DATA, m)
    ds = model.simulate(config.theta_star, config.design, rng)
    try:
        theta_hat, fim = _fit_and_fim(model, ds, config, m)
        cis = wald_confidence_intervals(theta_hat, fim, config.alpha)
    except ScorefimError as exc:
        return {"error": str(exc)}
    star = config.theta_star.values
    return {
        "total_fim": ds.n * fim.entries,
        "cover": np.array([ci.contains(star[l]) for l, ci in enumerate(cis)], dtype=float),
        "theta": theta_hat.values,
    }


def run_meng_comparison(config: StudyConfig, out_dir=None, threads: int = 1) -> StudyReport:
    """Mean of M total-information matrices I_sco(theta_hat), with coverage.

    The displayed matrices are total information (n times the per-individual
    average), matching the scale of the published comparison values.
    """
    if config.kind != "meng_comparison":
        raise ConfigError(f"expected a meng_comparison config, got {config.kind!r}")
    if config.model != "gaussian_mixture2":
        raise ConfigError("the comparison study is defined for gaussian_mixture2")
    model = _model_for(config)
    timer = ManifestTimer(_config_echo(config), config.seed)
    payloads = [(config, m) for m in range(config.M)]
    results = _pmap(_meng_worker, payloads, threads)
    ok = [r for r in results if "error" not in r]
    failures = config.M - len(ok)
    if failures >= 0.02 * config.M:
        raise NumericalError(f"{failures} of {config.M} replicates failed (limit 2%)")

    mats = np.stack([r["total_fim"] for r in ok])
    mean_matrix = mats.mean(axis=0)
    se_matrix = mats.std(axis=0, ddof=1) / np.sqrt(len(ok))
    cover = np.stack([r["cover"] for r in ok]).mean(axis=0)
    cover_se = np.sqrt(cover * (1.0 - cover) / len(ok))
    names = model.param_names

    files = []
    if out_dir is not None:
        out = Path(out_dir) / "meng_comparison"
        rows = []
        for j in range(3):
            for i in range(j + 1):
                rows.append(
                    [f"{names[i]}:{names[j]}", mean_matrix[i, j], se_matrix[i, j],
                     MENG_REFERENCE[i, j]]
                )
        path = out / "mean_matrix.csv"
        write_table(path, ["component", "mean", "replicate_se", "meng_single_dataset"], rows)
        timer.add_output(path)
        files.append(str(path))
        cpath = out / "coverage.csv"
        write_table(
            cpath, ["parameter", "coverage", "binomial_se", "M_effective", "failures"],
            [[names[l], cover[l], cover_se[l], len(ok), failures] for l in range(3)],
        )
        timer.add_output(cpath)
        files.append(str(cpath))
        timer.extra["failures"] = failures
        timer.write(out)
        files.append(str(out / "manifest.json"))
    return StudyReport(
        kind="meng_comparison",
        tables={"mean_matrix": mean_matrix, "se_matrix": se_matrix,
                "coverage": dict(zip(names, cover))},
        files=tuple(files), m_effective=len(ok), failures=failures,
        extras={"matrices": mats},
    )


RUNNERS = {
    "bias_table": run_bias_study,
    "density": run_density_study,
    "saem_replication": run_saem_replication_study,
    "coverage": run_coverage_study,
    "meng_comparison": run_meng_comparison,
}


def run_study(config: StudyConfig, out_dir=None, threads: int = 1) -> StudyReport:
    return RUNNERS[config.kind](config, out_dir=out_dir, threads=threads)
