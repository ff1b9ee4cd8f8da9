"""Built-in study configurations at publication scale, with desk-scale
reductions (smaller M / K / n) for quick runs on a workstation."""

from __future__ import annotations

import copy

from .errors import ConfigError

_PK_TIMES = [0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 7.0, 9.0, 12.0, 24.0]
_PK_THETA = [1.6, 31.0, 1.8, 0.4, 0.4, 0.4, 0.75]
_PK_FIXED_V_THETA = [1.6, 31.0, 1.8, 0.4, 0.4, 0.75]

PRESETS: dict[str, dict] = {
    "lmm_bias": {
        "kind": "bias_table",
        "model": "lmm",
        "theta_star": [3.0, 2.0, 5.0],
        "design": {"n_obs": 12},
        "n_values": [20, 100, 500],
        "M": 500,
        "seed": 20240801,
    },
    "poisson_bias": {
        "kind": "bias_table",
        "model": "poisson_mixture",
        "theta_star": [2.0, 5.0, 9.0, 0.3, 0.5],
        "design": {},
        "n_values": [20, 100, 500],
        "M": 500,
        "n_mc": 1_000_000,
        "seed": 20240802,
    },
    "lmm_density": {
        "kind": "density",
        "model": "lmm",
        "theta_star": [3.0, 2.0, 5.0],
        "design": {"n_obs": 12},
        "n_values": [500],
        "M": 500,
        "seed": 20240823,
        "components": [
            ["beta", "beta"], ["sigma2", "sigma2"], ["eta2", "sigma2"],
        ],
    },
    "poisson_density": {
        "kind": "density",
        "model": "poisson_mixture",
        "theta_star": [2.0, 5.0, 9.0, 0.3, 0.5],
        "design": {},
        "n_values": [500],
        "M": 500,
        "n_mc": 1_000_000,
        "seed": 20240804,
        "components": [
            ["lambda_1", "lambda_1"], ["lambda_2", "lambda_2"], ["alpha_1", "alpha_1"],
        ],
    },
    "pk_replication": {
        "kind": "saem_replication",
        "model": "pk_nlme",
        "theta_star": _PK_THETA,
        "design": {"n": 100, "times": _PK_TIMES, "dose": 320.0},
        "M": 500,
        "seed": 20240805,
        "n_mc": 200_000,
        "saem": {
            "burn_in": 1000,
            "burn_value": 0.95,
            "exponent": 0.6,
            "total_iterations": 3000,
            "mh_transitions_per_iter": 5,
        },
    },
    "pk_fixed_v_coverage": {
        "kind": "coverage",
        "model": "pk_nlme_fixed_v",
        "theta_star": _PK_FIXED_V_THETA,
        "design": {"n": 100, "times": _PK_TIMES, "dose": 320.0},
        "M": 500,
        "seed": 20240806,
        "alpha": 0.05,
        "prune_epsilon": 1e-5,
        "saem": {
            "burn_in": 1000,
            "burn_value": 0.95,
            "exponent": 0.6,
            "total_iterations": 3000,
            "mh_transitions_per_iter": 5,
        },
    },
    "gmm_meng": {
        "kind": "meng_comparison",
        "model": "gaussian_mixture2",
        "theta_star": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 750},
        "M": 10_000,
        "seed": 20240807,
        "alpha": 0.05,
    },
    "gmm_coverage": {
        "kind": "coverage",
        "model": "gaussian_mixture2",
        "theta_star": [2.0 / 3.0, 3.0, 0.0],
        "design": {"n": 750},
        "M": 10_000,
        "seed": 20240808,
        "alpha": 0.05,
    },
}

# desk-scale overrides; tolerances widen accordingly (documented in README)
_DESK: dict[str, dict] = {
    "lmm_bias": {"M": 200},
    "poisson_bias": {"M": 200},
    "lmm_density": {"M": 500},
    "poisson_density": {"M": 500},
    "pk_replication": {
        "M": 50,
        "design": {"n": 50, "times": _PK_TIMES, "dose": 320.0},
        "n_mc": 100_000,
        "saem": {
            "burn_in": 500,
            "burn_value": 0.95,
            "exponent": 0.6,
            "total_iterations": 1500,
            "mh_transitions_per_iter": 5,
        },
    },
    "pk_fixed_v_coverage": {
        "M": 200,
        "design": {"n": 60, "times": _PK_TIMES, "dose": 320.0},
        "saem": {
            "burn_in": 150,
            "burn_value": 0.95,
            "exponent": 0.6,
            "total_iterations": 400,
            "mh_transitions_per_iter": 5,
        },
    },
    "gmm_meng": {"M": 1000},
    "gmm_coverage": {"M": 1000},
}


def preset_config(name: str, desk: bool = False) -> dict:
    """Raw config dict for a named preset, optionally at desk scale."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}"
        )
    raw = copy.deepcopy(PRESETS[name])
    if desk:
        raw.update(copy.deepcopy(_DESK.get(name, {})))
    return raw
