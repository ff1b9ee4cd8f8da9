"""Stochastic approximation EM for general (non-exponential) latent models.

The functional objective Q_k(theta) = (1-gamma_k) Q_{k-1}(theta)
+ gamma_k sum_i log f(y_i, Z_i^k; theta) is represented exactly as a weighted
buffer of latent configurations: after iteration k the surviving entry l holds
weight gamma_l prod_{j=l+1..k} (1-gamma_j).  Entries below prune_epsilon are
dropped with their mass recorded.  The per-individual score relaxations
Delta_i^k = (1-gamma_k) Delta_i^{k-1} + gamma_k d/dtheta log f(y_i, Z_i^k;
theta_{k-1}) deliver the score-based FIM at the end, using the same draws that
feed the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .data import Dataset
from .errors import (
    CapacityExceeded,
    ConfigError,
    DomainViolation,
    MStepFailure,
    OptimFailure,
)
from .fim import FimMatrix, score_outer_fim
from .modelbase import ExpoFamilyModel, LatentModel
from .params import ParamVector
from .saem import SaemConfig, StepSchedule, _SaemRun, step_size


@dataclass(frozen=True)
class WeightedSampleBuffer:
    """Closed-form unrolling of the Q_k recursion.

    ``latents[l]`` is the full latent configuration (n, d) of one retained
    simulation step; ``weights[l]`` its current mass.
    """

    latents: tuple = ()
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    prune_epsilon: float = 1e-6
    capacity: int = 500
    discarded_mass: float = 0.0  # missing mass of the exact unrolling (decays)
    dropped_cumulative: float = 0.0  # raw sum of weights at drop time

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "latents", tuple(self.latents))
        if self.prune_epsilon < 0:
            raise ConfigError("prune_epsilon must be nonnegative")
        if self.capacity < 1:
            raise ConfigError("capacity must be positive")

    def __len__(self):
        return len(self.latents)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def _relaxed_weights(weights: np.ndarray, gamma_k: float, prune_epsilon: float):
    """Existing weights scaled by (1-gamma) with the new draw's gamma appended
    (none at gamma 0), and the mask of the entries pruning keeps."""
    weights = weights * (1.0 - gamma_k)
    if gamma_k > 0.0:
        weights = np.append(weights, gamma_k)
    return weights, weights >= prune_epsilon


def buffer_update(buffer: WeightedSampleBuffer, z_k: np.ndarray, gamma_k: float) -> WeightedSampleBuffer:
    """Scale existing weights by (1-gamma), append the new draw at gamma, prune."""
    if not 0.0 <= gamma_k <= 1.0:
        raise DomainViolation("gamma must lie in [0, 1]", component="gamma")
    weights, keep = _relaxed_weights(buffer.weights, gamma_k, buffer.prune_epsilon)
    latents = list(buffer.latents)
    if gamma_k > 0.0:
        latents.append(np.array(z_k, dtype=float))
    dropped = float(weights[~keep].sum())
    latents = tuple(l for l, k in zip(latents, keep) if k)
    weights = weights[keep]
    if len(latents) > buffer.capacity:
        raise CapacityExceeded(
            f"buffer holds {len(latents)} entries after pruning "
            f"(capacity {buffer.capacity}); raise prune_epsilon or capacity"
        )
    return WeightedSampleBuffer(
        latents=latents,
        weights=weights,
        prune_epsilon=buffer.prune_epsilon,
        capacity=buffer.capacity,
        discarded_mass=buffer.discarded_mass * (1.0 - gamma_k) + dropped,
        dropped_cumulative=buffer.dropped_cumulative + dropped,
    )


def max_buffer_length(schedule: StepSchedule, total_iterations: int, prune_epsilon: float) -> int:
    """Most entries the buffer holds after pruning over a run.

    The weights depend on the step sizes and prune_epsilon alone, never on
    the draws, so the length a run reaches is known before it starts.
    """
    weights, longest = np.zeros(0), 0
    for k in range(1, total_iterations + 1):
        weights, keep = _relaxed_weights(weights, step_size(k, schedule), prune_epsilon)
        weights = weights[keep]
        longest = max(longest, weights.size)
    return longest


def buffer_capacity(config: SaemConfig, prune_epsilon: float, capacity=None) -> int:
    """Buffer capacity for a run of ``config``: the length the buffer reaches,
    or ``capacity`` when given; a capacity below that length is a ConfigError,
    since the run would raise CapacityExceeded part way through."""
    need = max_buffer_length(config.schedule, config.total_iterations, prune_epsilon)
    if capacity is None:
        return need
    capacity = int(capacity)
    if capacity < need:
        raise ConfigError(
            f"capacity {capacity} is below the {need} entries the sample buffer "
            f"reaches with this schedule and prune_epsilon {prune_epsilon:g}"
        )
    return capacity


def buffer_objective(buffer: WeightedSampleBuffer, model: LatentModel, dataset: Dataset, theta: ParamVector) -> float:
    """Q(theta) = sum_l w_l sum_i log f(y_i, z_i^l; theta)."""
    return float(
        sum(
            w * model.complete_loglik(dataset, Z, theta).sum()
            for w, Z in zip(buffer.weights, buffer.latents)
        )
    )


def buffer_gradient(buffer: WeightedSampleBuffer, model: LatentModel, dataset: Dataset, theta: ParamVector) -> np.ndarray:
    return sum(
        w * model.complete_score(dataset, Z, theta).sum(axis=0)
        for w, Z in zip(buffer.weights, buffer.latents)
    )


def maximize_q(
    buffer: WeightedSampleBuffer,
    model: LatentModel,
    dataset: Dataset,
    theta_init: ParamVector,
    grad_tol: float = 1e-6,
    check_gradient: bool = False,
) -> ParamVector:
    """argmax_theta Q(theta), warm-started at theta_init.

    Exponential-family models collapse to theta-hat of the weighted
    statistics; models exposing ``maximize_weighted`` use their own nested
    closed-form / 1-D machinery; anything else goes through L-BFGS-B with the
    analytic gradient on positive-orthant bounds.
    """
    if len(buffer) == 0 or buffer.total_weight <= 0:
        raise MStepFailure("empty or massless sample buffer")

    if isinstance(model, ExpoFamilyModel):
        wn = buffer.weights / buffer.total_weight
        stats = sum(
            w * model.statistics(dataset, Z) for w, Z in zip(wn, buffer.latents)
        )
        theta = model.argmax_complete(dataset, stats)
    elif hasattr(model, "maximize_weighted"):
        theta = model.maximize_weighted(dataset, buffer.latents, buffer.weights, theta_init)
    else:
        theta = _maximize_q_numeric(buffer, model, dataset, theta_init, grad_tol)
    model.validate_params(theta)

    if check_gradient:
        q = buffer_objective(buffer, model, dataset, theta)
        g = buffer_gradient(buffer, model, dataset, theta)
        norm = float(np.linalg.norm(g))
        if norm >= grad_tol * (1.0 + abs(q)):
            raise OptimFailure(
                f"M-step gradient norm {norm:.3e} above tolerance", grad_norm=norm
            )
    return theta


def _maximize_q_numeric(buffer, model, dataset, theta_init, grad_tol):
    """Bounded quasi-Newton fallback on the raw parameter vector."""

    def negq(x):
        try:
            th = theta_init.replace_values(x)
            model.validate_params(th)
        except DomainViolation:
            return np.inf, np.zeros_like(x)
        q = buffer_objective(buffer, model, dataset, th)
        g = buffer_gradient(buffer, model, dataset, th)
        return -q, -g

    bounds = [(1e-10, None)] * theta_init.p
    res = minimize(
        negq, theta_init.values, jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10},
    )
    theta = theta_init.replace_values(res.x)
    g = buffer_gradient(buffer, model, dataset, theta)
    q = buffer_objective(buffer, model, dataset, theta)
    if float(np.linalg.norm(g)) >= grad_tol * (1.0 + abs(q)):
        raise OptimFailure(
            f"line search collapsed; gradient norm {np.linalg.norm(g):.3e}",
            grad_norm=float(np.linalg.norm(g)),
        )
    return theta


def delta_update(delta_i: np.ndarray, score_i: np.ndarray, gamma_k: float) -> np.ndarray:
    """(1-gamma) Delta + gamma * score."""
    if not 0.0 <= gamma_k <= 1.0:
        raise DomainViolation("gamma must lie in [0, 1]", component="gamma")
    delta_i = np.asarray(delta_i, dtype=float)
    score_i = np.asarray(score_i, dtype=float)
    if delta_i.shape != score_i.shape:
        raise DomainViolation("delta/score dimensions differ")
    return (1.0 - gamma_k) * delta_i + gamma_k * score_i


@dataclass(frozen=True)
class GeneralSaemResult:
    theta: ParamVector
    fim: FimMatrix
    trajectories: dict
    buffer: WeightedSampleBuffer
    deltas: np.ndarray
    diagnostics: dict


def run_general_saem(
    model: LatentModel,
    dataset: Dataset,
    config: SaemConfig,
    theta0: ParamVector | None = None,
    prune_epsilon: float = 1e-6,
    capacity: int = 500,
) -> GeneralSaemResult:
    """General-algorithm driver: simulate, relax Q-buffer and Deltas, maximize.

    The same draws feed both the buffer and the Delta recursions; scores enter
    at theta_{k-1}, the value used for the simulation step.
    """
    run = _SaemRun(model, dataset, config, theta0)
    theta = run.theta0
    deltas = np.zeros((dataset.n, model.p))
    buffer = WeightedSampleBuffer(prune_epsilon=prune_epsilon, capacity=capacity)

    for k in range(1, config.total_iterations + 1):
        gamma = step_size(k, config.schedule)
        Z = run.draw(k, theta)
        scores = model.complete_score(dataset, Z, theta)
        deltas = delta_update(deltas, scores, gamma)
        buffer = buffer_update(buffer, Z, gamma)
        theta = maximize_q(buffer, model, dataset, theta)
        if run.due(k):
            run.record(
                k, gamma, theta,
                fim_diag=(deltas**2).mean(axis=0), pruned_mass=buffer.discarded_mass,
            )

    fim = score_outer_fim(deltas, names=model.param_names, provenance="sa-byproduct")
    trajectories, diagnostics = run.results(
        buffer_length=len(buffer), pruned_mass=buffer.discarded_mass
    )
    return GeneralSaemResult(
        theta=theta, fim=fim, trajectories=trajectories,
        buffer=buffer, deltas=deltas, diagnostics=diagnostics,
    )
