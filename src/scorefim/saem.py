"""Stochastic approximation EM for curved-exponential latent models.

Each iteration simulates latent values from the current conditional (exactly,
or by continuing per-individual Metropolis-Hastings chains), relaxes the
per-individual statistics s_i^k = (1-gamma_k) s_i^{k-1} + gamma_k S_i(Z_i^k),
and re-maximizes theta_k = theta-hat(s^k).  At the final iteration the
score-based FIM estimate comes for free from the per-individual quantities
Delta_i = -dpsi_i(theta) + <s_i, dphi_i(theta)>.

The start-up, draw step, thinned trajectory and chain diagnostics live in
``_SaemRun``, which the general algorithm shares.  Its
Metropolis-Hastings kernel (``_MhKernel``) runs one chain per individual.
Each iteration it makes a few random-walk sweeps and then, for models with a
latent mirror (the PK flip-flop map swapping ka with ke = Cl/V), proposes
every chain's mirror image, which the random walk alone cannot reach across
the valley between the two modes (Kuhn & Lavielle 2005 mix kernels the same
way).  The walk's proposals are learned during burn-in: a diagonal scale
times one global multiplier at first, then, from the end of burn-in on, one
covariance per chain estimated from its draws over the second half of
burn-in and scaled by 2.38^2/d (Haario, Saksman & Tamminen 2001).  Nothing
adapts after burn-in, because adapting during the decreasing-step phase
would break the stochastic-approximation contract.

A Louis-style comparator for the observed FIM runs on the same draws when
requested: it relaxes G_i (complete Hessian plus score outer product) and
D_i (complete score) and reports -(1/n) sum_i [G_i - D_i D_i^t].
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DomainViolation, MStepFailure
from .fim import FimMatrix, _symmetrize_exact, score_outer_fim
from .modelbase import ExpoFamilyModel, LatentModel
from .params import ParamVector
from .rng import substream


@dataclass(frozen=True)
class StepSchedule:
    """Burn-in at a constant step, then gamma_k = (k - burn_in)^(-exponent).

    exponent in (1/2, 1] keeps sum(gamma) divergent with sum(gamma^2) finite.
    """

    burn_in: int = 1000
    burn_value: float = 0.95
    exponent: float = 0.6

    def __post_init__(self):
        if self.burn_in < 0:
            raise ConfigError("burn_in must be nonnegative")
        if not 0.0 < self.burn_value <= 1.0:
            raise ConfigError("burn_value must lie in (0, 1]")
        if not 0.5 < self.exponent <= 1.0:
            raise ConfigError("exponent must lie in (1/2, 1]")


def step_size(k: int, schedule: StepSchedule) -> float:
    """gamma_k for 1-based iteration k."""
    if k < 1:
        raise ConfigError("iterations are 1-based")
    if k <= schedule.burn_in:
        return schedule.burn_value
    return float(k - schedule.burn_in) ** (-schedule.exponent)


@dataclass(frozen=True)
class SaemConfig:
    schedule: StepSchedule = StepSchedule()
    total_iterations: int = 3000
    mh_transitions_per_iter: int = 5
    proposal_scales: np.ndarray | None = None
    seed: int = 0
    track_louis: bool = False
    thin: int = 1

    def __post_init__(self):
        if self.total_iterations <= self.schedule.burn_in:
            raise ConfigError("total_iterations must exceed the burn-in")
        if self.mh_transitions_per_iter < 1:
            raise ConfigError("mh_transitions_per_iter must be >= 1")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.proposal_scales is not None:
            scales = np.asarray(self.proposal_scales, dtype=float)
            if not np.all(np.isfinite(scales) & (scales >= 0)):
                raise ConfigError("proposal scales must be finite and nonnegative")
            object.__setattr__(self, "proposal_scales", scales)


@dataclass(frozen=True)
class SaemResult:
    """What both SAEM engines return: the final iterate theta_K, its
    score-based FIM, the thinned trajectories, the diagnostics and, on the
    exponential-family engine with ``track_louis``, the Louis comparator."""

    theta: ParamVector
    fim: FimMatrix
    trajectories: dict
    diagnostics: dict
    louis: FimMatrix | None = None


def individual_delta(model: ExpoFamilyModel, dataset: Dataset, stats: np.ndarray, theta: ParamVector) -> np.ndarray:
    """Delta_i = -dpsi_i(theta) + <s_i, dphi_i(theta)>, shape (n, p)."""
    return -model.dpsi(dataset, theta) + np.einsum(
        "im,imp->ip", stats, model.dphi(dataset, theta)
    )


def _metropolis(model, dataset, Z, logf, prop, theta, rng):
    """Accept each row of prop with probability min(1, f(prop)/f(Z)), in place;
    a proposal of log-likelihood -inf (``complete_loglik``'s value for a
    non-finite row) is always rejected.  Returns the count."""
    logf_prop = model.complete_loglik(dataset, prop, theta)
    take = np.log(rng.random(dataset.n)) < logf_prop - logf
    np.copyto(Z, prop, where=take[:, None])
    np.copyto(logf, logf_prop, where=take)
    return int(np.count_nonzero(take))


def _mh_sweep(model, dataset, Z, logf, theta, scales, rng, n_steps):
    """n_steps vectorized random-walk updates across all individuals.

    ``scales`` holds either one proposal sd per latent coordinate, shape (d,),
    or one lower-triangular proposal factor per chain, shape (n, d, d); both
    forms consume the same draws.
    """
    accepted = 0
    per_chain = np.ndim(scales) == 3
    for _ in range(n_steps):
        step = rng.standard_normal(Z.shape)
        if per_chain:
            prop = np.einsum("ijk,ik->ij", scales, step)
        else:
            prop = np.multiply(step, scales, out=step)
        prop += Z
        accepted += _metropolis(model, dataset, Z, logf, prop, theta, rng)
    return Z, logf, accepted / (n_steps * dataset.n)


class _MhKernel:
    """The Metropolis-Hastings kernel every SAEM engine runs on p(z | y; theta).

    One call is ``n_steps`` random-walk sweeps followed, for models with a
    latent mirror, by one mirror proposal per chain (a deterministic
    involution with |Jacobian| 1, accepted with min(1, f(z')/f(z))).

    During burn-in the walk uses the diagonal ``scales`` times one global
    multiplier steered towards 40% acceptance, and each chain's draws of the
    second half of burn-in are accumulated.  When burn-in ends each chain
    switches to its own proposal, its burn-in sample covariance scaled by
    2.38^2/d (Haario, Saksman & Tamminen 2001), and nothing adapts any more.
    A burn-in too short to give the window more than d draws keeps the
    diagonal proposal.
    """

    def __init__(self, model, scales, burn_in):
        self.model = model
        self.scales = np.asarray(scales, dtype=float)
        self.mult = 1.0
        self.burn_in = burn_in
        self.window_start = burn_in - burn_in // 2  # window: k in (start, burn_in]
        self.factors = None  # (n, d, d) per-chain proposal factors once frozen
        self.mirror_moves = 0
        self._count = 0
        self._origin = self._sum = self._outer = None

    def __call__(self, dataset, Z, theta, rng, k, n_steps):
        """Advance all chains at iteration k (1-based); returns (Z, acceptance)."""
        model = self.model
        # theta moved since the last call: refresh the cached target values
        logf = model.complete_loglik(dataset, Z, theta)
        proposal = self.factors if self.factors is not None else self.mult * self.scales
        Z, logf, acc = _mh_sweep(model, dataset, Z, logf, theta, proposal, rng, n_steps)
        if model.has_mirror:
            self.mirror_moves += _metropolis(
                model, dataset, Z, logf, model.mirror_latents(Z), theta, rng
            )
        if k <= self.burn_in:
            # frozen after burn-in: adapting during the decreasing-step
            # phase would break the stochastic-approximation contract
            self.mult = float(np.clip(self.mult * np.exp(0.1 * (acc - 0.4)), 1e-3, 1e3))
            if k > self.window_start:
                self._accumulate(Z)
            if k == self.burn_in and self._count > Z.shape[1]:
                self.factors = self._frozen_factors()
        return Z, acc

    def _accumulate(self, Z):
        if self._origin is None:
            self._origin = Z.copy()  # shift for a cancellation-free covariance
            self._sum = np.zeros_like(Z)
            self._outer = np.zeros(Z.shape + Z.shape[1:])
        dev = Z - self._origin
        self._count += 1
        self._sum += dev
        self._outer += dev[:, :, None] * dev[:, None, :]

    def _frozen_factors(self):
        d = self._sum.shape[1]
        mean = self._sum / self._count
        cov = self._outer / self._count - mean[:, :, None] * mean[:, None, :]
        # a ridge keeps a chain that never moved in the window able to move
        cov += 1e-6 * (self.mult * self.scales) ** 2 * np.eye(d)
        return (2.38 / np.sqrt(d)) * np.linalg.cholesky(cov)


class _SaemRun:
    """What every SAEM engine shares around its own relaxation and M-step.

    Start-up draws from stream 0 of ``config.seed``: the checked starting
    theta and the initial latents.  ``draw`` then simulates Z^k from
    p(z | y; theta_{k-1}) with the model's exact conditional sampler or the
    MH kernel, ``record`` keeps the thinned trajectory, and ``results``
    returns it with the chain diagnostics.  ``lap(phase)`` charges the wall
    time since the previous lap to ``phase``: ``draw`` (the E-step),
    ``update`` (statistics and the stochastic-approximation update),
    ``mstep``, and ``fim`` (the Louis comparator, FIM diagonals and
    trajectory record); the sums go into ``diagnostics["phase_s"]``.
    """

    def __init__(
        self, model: LatentModel, dataset: Dataset, config: SaemConfig, theta0: ParamVector | None
    ):
        self.model, self.dataset, self.config = model, dataset, config
        self.rng = substream(config.seed, 0)
        theta = theta0 if theta0 is not None else model.initial_theta(dataset)
        model._check_dim(theta)
        model.validate_params(theta)
        self.theta0 = theta
        self.Z = model.initial_latents(dataset, theta, self.rng)
        scales = config.proposal_scales
        if scales is None:
            scales = model.default_proposal_scales(theta)
        self.kernel = _MhKernel(model, scales, config.schedule.burn_in)
        self.acc_rates = []
        self._columns = {}
        self.phase_s = dict.fromkeys(("draw", "update", "mstep", "fim"), 0.0)
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        """Charge the wall time since the previous lap to ``phase``."""
        now = time.perf_counter()
        self.phase_s[phase] += now - self._mark
        self._mark = now

    def draw(self, k: int, theta: ParamVector) -> np.ndarray:
        """Latents of iteration k (1-based) drawn at theta = theta_{k-1}."""
        if self.model.has_exact_conditional:
            self.Z = self.model.sample_conditional(self.dataset, theta, self.rng)
        else:
            self.Z, acc = self.kernel(
                self.dataset, self.Z, theta, self.rng, k, self.config.mh_transitions_per_iter
            )
            self.acc_rates.append(acc)
        self.lap("draw")
        return self.Z

    def due(self, k: int) -> bool:
        """Whether iteration k enters the thinned trajectory."""
        return k % self.config.thin == 0 or k == self.config.total_iterations

    def record(self, k: int, gamma: float, theta: ParamVector, **columns) -> None:
        """Append one trajectory row: k, gamma, theta and the engine's columns."""
        row = {"iteration": k, "gamma": gamma, "theta": theta.values.copy(), **columns}
        for name, value in row.items():
            self._columns.setdefault(name, []).append(value)

    def results(self, **diagnostics) -> tuple[dict, dict]:
        """(trajectories, diagnostics), the engine's diagnostics last."""
        trajectories = {name: np.array(values) for name, values in self._columns.items()}
        theta_traj = trajectories["theta"]
        tail = max(1, len(theta_traj) // 10)
        return trajectories, {
            "theta_sd_last10pct": theta_traj[-tail:].std(axis=0),
            "acceptance_rate": float(np.mean(self.acc_rates)) if self.acc_rates else None,
            "proposal_multiplier": self.kernel.mult,
            "mirror_moves": self.kernel.mirror_moves,
            "phase_s": dict(self.phase_s),
            **diagnostics,
        }


def run_saem(
    model: ExpoFamilyModel,
    dataset: Dataset,
    config: SaemConfig,
    theta0: ParamVector | None = None,
) -> SaemResult:
    """Run K SAEM iterations; fully seed-deterministic.

    Non-convergence is not an error: the standard deviation of the last 10%
    of each theta trajectory is reported in the diagnostics instead.
    """
    if not isinstance(model, ExpoFamilyModel):
        raise ConfigError("run_saem needs a curved-exponential model")
    if config.track_louis and not model.has_complete_hessian:
        raise ConfigError(f"{model.name} exposes no complete Hessian for the Louis comparator")

    run = _SaemRun(model, dataset, config, theta0)
    n, p = dataset.n, model.p
    theta = run.theta0
    stats = model.statistics(dataset, run.Z).copy()  # relaxed in place below

    track_louis = config.track_louis
    G = np.zeros((n, p, p)) if track_louis else None
    D = np.zeros((n, p)) if track_louis else None
    clamp_hits = 0

    # the relaxations run in place; arrays the model returns are only read
    for k in range(1, config.total_iterations + 1):
        gamma = step_size(k, config.schedule)
        Z = run.draw(k, theta)
        stats *= 1.0 - gamma
        stats += gamma * model.statistics(dataset, Z)
        run.lap("update")

        if track_louis:
            sc = model.complete_score(dataset, Z, theta)
            he = model.complete_hessian(dataset, Z, theta)
            outer = np.einsum("ij,ik->ijk", sc, sc)
            outer += he
            outer *= gamma
            G *= 1.0 - gamma
            G += outer
            D *= 1.0 - gamma
            D += gamma * sc
            run.lap("fim")

        try:
            theta = model.argmax_complete(dataset, stats)
            model.validate_params(theta)
        except DomainViolation as exc:
            raise MStepFailure(
                f"M-step infeasible at iteration {k}: {exc}", stats=stats
            ) from exc
        if np.any(theta.values <= 1e-10):
            clamp_hits += 1
        run.lap("mstep")

        if run.due(k):
            delta = individual_delta(model, dataset, stats, theta)
            columns = {"fim_diag": (delta**2).mean(axis=0)}
            if track_louis:
                columns["louis_diag"] = -(
                    np.einsum("ill->il", G) - D**2  # type: ignore[index]
                ).mean(axis=0)
            run.record(k, gamma, theta, **columns)
            run.lap("fim")

    delta_final = individual_delta(model, dataset, stats, theta)
    fim = score_outer_fim(delta_final, names=model.param_names, provenance="sa-byproduct")

    louis = None
    if track_louis:
        entries = -(G - np.einsum("ij,ik->ijk", D, D)).mean(axis=0)
        louis = FimMatrix(_symmetrize_exact(entries), "louis-sa", n, model.param_names)

    trajectories, diagnostics = run.results(clamp_hits=clamp_hits)
    return SaemResult(theta, fim, trajectories, diagnostics, louis)
