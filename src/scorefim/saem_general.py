"""Stochastic approximation EM for general (non-exponential) latent models.

The functional objective Q_k(theta) = (1-gamma_k) Q_{k-1}(theta)
+ gamma_k sum_i log f(y_i, Z_i^k; theta) is represented exactly as a weighted
buffer of latent configurations: after iteration k the surviving entry l holds
weight gamma_l prod_{j=l+1..k} (1-gamma_j).  Entries below prune_epsilon, and
entries of weight 0, are dropped oldest first with their mass recorded.  The
per-individual score relaxations Delta_i^k = (1-gamma_k) Delta_i^{k-1}
+ gamma_k d/dtheta log f(y_i, Z_i^k; theta_{k-1}) deliver the score-based FIM
at the end, using the same draws that feed the buffer.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .data import Dataset
from .errors import ConfigError, DomainViolation, MStepFailure
from .fim import score_outer_fim
from .modelbase import ExpoFamilyModel, LatentModel
from .params import ParamVector
from .saem import SaemConfig, SaemResult, _SaemRun, step_size

PRUNE_EPSILON = 1e-6  # default weight below which a buffer entry is pruned
_KEPT_KEYS = 3  # keys ``derived`` keeps arrays at, per name


class WeightedSampleBuffer:
    """Closed-form unrolling of the Q_k recursion, as a FIFO: ``latents`` is
    the (L, n, d) window [start, stop) of one array, oldest entry first, and
    ``weights[l]`` the current mass of entry l.  Under every StepSchedule the
    weights do not decrease from the oldest entry to the newest (after
    burn-in (m+1)^a - 1 <= m^a for a <= 1; in burn-in each older entry carries
    a factor 1 - burn_value < 1), so pruning drops a prefix and the window
    slides.  Another prune (from an arbitrary gamma sequence) or an append to
    a full array moves the kept rows to the front of a new array sized to the
    live length plus slack.  ``derived`` keeps per-entry arrays beside them,
    at up to _KEPT_KEYS keys each."""

    def __init__(self, prune_epsilon: float = PRUNE_EPSILON):
        if prune_epsilon < 0:
            raise ConfigError("prune_epsilon must be nonnegative")
        self.prune_epsilon = prune_epsilon
        self.weights = np.zeros(0)
        self.discarded_mass = 0.0  # missing mass of the exact unrolling (decays)
        self._rows, self._start, self._stop = np.zeros(0), 0, 0
        # name -> {key: (array like _rows, rows filled)}, least recently used key first
        self._dataset, self._derived = None, {}
        self.mstep_effort = Counter()  # counts a model's M-step adds, by name

    def __len__(self):
        return self._stop - self._start

    @property
    def latents(self) -> np.ndarray:
        return self._rows[self._start:self._stop]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def derived(self, name: str, dataset: Dataset, fill, key=None) -> np.ndarray:
        """The (L, ...) per-entry array ``name`` of ``dataset`` at ``key``,
        aligned with ``latents``.  ``fill`` maps an (m, n, d) stack of entries
        to their (m, ...) rows; it runs on the entries that joined since the
        last call at that key, which are always the newest m of the window,
        so each entry is filled once per key.  Arrays are kept at the last
        _KEPT_KEYS keys asked for (say the points the rows are evaluated at):
        a call with a key not kept fills the whole window again, in place of
        the least recently asked one.  A call with another dataset drops
        every array."""
        if dataset is not self._dataset:
            self._dataset, self._derived = dataset, {}
        kept = self._derived.setdefault(name, {})
        rows, done = kept.pop(key, (None, self._start))
        if rows is None and len(kept) == _KEPT_KEYS:
            rows, _ = kept.pop(next(iter(kept)))  # reuse the least recent array
        done = max(done, self._start)
        if done < self._stop:
            new = fill(self._rows[done:self._stop])
            if rows is None:
                rows = np.empty((len(self._rows),) + new.shape[1:])
            rows[done:self._stop] = new
        kept[key] = rows, self._stop
        return rows[self._start:self._stop]

    def derived_keys(self, name: str, dataset: Dataset) -> list:
        """The keys ``derived`` keeps ``name`` of ``dataset`` at, least
        recently asked first."""
        return list(self._derived.get(name, ())) if dataset is self._dataset else []

    def _advance(self, keep: np.ndarray, z: np.ndarray, push: bool) -> None:
        """Keep the live entries where ``keep`` holds, then append ``z`` if ``push``."""
        kept = self._start + np.flatnonzero(keep)
        gather = kept.size and kept[0] != self._stop - kept.size  # not only the newest
        if gather or (push and self._stop == len(self._rows)):
            self._relocate(kept, np.shape(z))
        else:
            self._start = self._stop - kept.size  # the oldest entries went: slide
        if push:
            self._rows[self._stop] = z
            self._stop += 1

    def _relocate(self, kept: np.ndarray, entry_shape: tuple) -> None:
        """Move the rows ``kept`` (ascending) to the front of new arrays."""
        size = len(kept) + len(kept) // 4 + 16  # a quarter more rows and 16 spare
        old, self._rows = self._rows, np.empty((size,) + entry_shape)
        if len(kept):  # the initial array is empty and 1-D
            self._rows[:len(kept)] = old[kept]
        for arrays in self._derived.values():
            for key, (rows, done) in arrays.items():
                filled = kept[:np.searchsorted(kept, done)]  # filled rows lead the window
                moved = np.empty((size,) + rows.shape[1:])
                moved[:len(filled)] = rows[filled]
                arrays[key] = moved, len(filled)
        self._start, self._stop = 0, len(kept)


def _relaxed_weights(weights: np.ndarray, gamma_k: float, prune_epsilon: float):
    """Existing weights scaled by (1-gamma) with the new draw's gamma appended
    (none at gamma 0), and the mask of the entries pruning keeps: those of
    positive weight at or above prune_epsilon."""
    weights = weights * (1.0 - gamma_k)
    if gamma_k > 0.0:
        weights = np.append(weights, gamma_k)
    return weights, (weights >= prune_epsilon) & (weights > 0.0)


def buffer_update(buffer: WeightedSampleBuffer, z_k: np.ndarray, gamma_k: float) -> WeightedSampleBuffer:
    """Scale existing weights by (1-gamma), append the new draw at gamma and
    prune, in place; returns ``buffer``."""
    if not 0.0 <= gamma_k <= 1.0:
        raise DomainViolation("gamma must lie in [0, 1]", component="gamma")
    weights, keep = _relaxed_weights(buffer.weights, gamma_k, buffer.prune_epsilon)
    buffer._advance(keep[:len(buffer)], z_k, push=gamma_k > 0.0 and keep[-1])
    buffer.weights = weights[keep]
    buffer.discarded_mass = buffer.discarded_mass * (1.0 - gamma_k) + float(weights[~keep].sum())
    return buffer


def check_buffer_schedule(config: SaemConfig, prune_epsilon: float) -> None:
    """ConfigError for a prune_epsilon that is negative or at or above a step
    of ``config``'s schedule: that step's draw would be pruned as it enters,
    and the run would raise MStepFailure on the empty buffer it left."""
    gamma_min = min(step_size(k, config.schedule) for k in (1, config.total_iterations))
    if not 0.0 <= prune_epsilon < gamma_min:
        raise ConfigError(
            f"prune_epsilon {prune_epsilon:g} must lie in [0, {gamma_min:.3g}), "
            "below the smallest step of this schedule"
        )


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
) -> ParamVector:
    """argmax_theta Q(theta), warm-started at theta_init.

    Exponential-family models collapse to theta-hat of the weighted
    statistics, computed once per entry and kept in the buffer; any other
    model supplies ``maximize_weighted(dataset, buffer, theta_init)``, its own
    nested closed-form / 1-D machinery.
    """
    if len(buffer) == 0 or buffer.total_weight <= 0:
        raise MStepFailure("empty or massless sample buffer")

    if isinstance(model, ExpoFamilyModel):
        stats = buffer.derived(
            "statistics", dataset, lambda Z: np.stack([model.statistics(dataset, z) for z in Z])
        )
        wn = buffer.weights / buffer.total_weight
        theta = model.argmax_complete(dataset, np.tensordot(wn, stats, axes=1))
    else:
        theta = model.maximize_weighted(dataset, buffer, theta_init)
    model.validate_params(theta)
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


def run_general_saem(
    model: LatentModel,
    dataset: Dataset,
    config: SaemConfig,
    theta0: ParamVector | None = None,
    prune_epsilon: float = PRUNE_EPSILON,
) -> SaemResult:
    """General-algorithm driver: simulate, relax Q-buffer and Deltas, maximize.

    The same draws feed both the buffer and the Delta recursions; scores enter
    at theta_{k-1}, the value used for the simulation step.  A prune_epsilon
    a step can fall to is a ConfigError before the first iteration
    (``check_buffer_schedule``).
    """
    check_buffer_schedule(config, prune_epsilon)
    run = _SaemRun(model, dataset, config, theta0)
    theta = run.theta0
    deltas = np.zeros((dataset.n, model.p))
    buffer = WeightedSampleBuffer(prune_epsilon=prune_epsilon)

    for k in range(1, config.total_iterations + 1):
        gamma = step_size(k, config.schedule)
        Z = run.draw(k, theta)
        scores = model.complete_score(dataset, Z, theta)
        deltas = delta_update(deltas, scores, gamma)
        buffer = buffer_update(buffer, Z, gamma)
        run.lap("update")
        theta = maximize_q(buffer, model, dataset, theta)
        run.lap("mstep")
        if run.due(k):
            run.record(
                k, gamma, theta,
                fim_diag=(deltas**2).mean(axis=0), pruned_mass=buffer.discarded_mass,
            )
            run.lap("fim")

    fim = score_outer_fim(deltas, names=model.param_names, provenance="sa-byproduct")
    trajectories, diagnostics = run.results(
        buffer_length=len(buffer), pruned_mass=buffer.discarded_mass,
        mstep_effort=dict(buffer.mstep_effort),
    )
    return SaemResult(theta, fim, trajectories, diagnostics)
