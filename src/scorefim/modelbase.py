"""Model contracts: general latent model and its curved-exponential refinement.

A model is a stateless bundle of density ingredients.  All array operations
are vectorized across individuals: latent configurations are (n, d) arrays,
complete log-likelihoods (n,), complete scores (n, p).
"""

from __future__ import annotations

import abc

import numpy as np

from .data import Dataset, Design
from .errors import DimensionMismatch, DomainViolation
from .params import ParamVector
from .rng import substream


class LatentModel(abc.ABC):
    """Joint model f(y_i, z_i; theta) with unobserved per-individual z_i."""

    name: str = "latent-model"
    param_names: tuple[str, ...] = ()
    latent_dim: int = 1

    @property
    def p(self) -> int:
        return len(self.param_names)

    # --- parameter space -------------------------------------------------
    @abc.abstractmethod
    def validate_params(self, theta: ParamVector) -> None:
        """Raise DomainViolation / DimensionMismatch on invalid theta."""

    def _check_dim(self, theta: ParamVector) -> None:
        if theta.p != self.p:
            raise DimensionMismatch(
                f"{self.name} expects {self.p} parameters, got {theta.p}"
            )

    def make_params(self, values) -> ParamVector:
        return ParamVector(np.asarray(values, dtype=float), self.param_names)

    # --- complete-data ingredients ---------------------------------------
    @abc.abstractmethod
    def complete_loglik(self, dataset: Dataset, Z: np.ndarray, theta: ParamVector) -> np.ndarray:
        """log f(y_i, z_i; theta) per individual, shape (n,): a fresh array,
        finite or -inf.  A row whose value would not be finite (a latent far
        enough out to overflow) reads -inf, which the MH kernel rejects."""

    @abc.abstractmethod
    def complete_score(self, dataset: Dataset, Z: np.ndarray, theta: ParamVector) -> np.ndarray:
        """d/dtheta log f(y_i, z_i; theta), shape (n, p)."""

    def complete_hessian(self, dataset: Dataset, Z: np.ndarray, theta: ParamVector) -> np.ndarray:
        """Second derivative array (n, p, p); optional, used by comparators."""
        raise NotImplementedError(f"{self.name} does not expose a complete Hessian")

    @property
    def has_complete_hessian(self) -> bool:
        return type(self).complete_hessian is not LatentModel.complete_hessian

    # --- simulation and conditional sampling ------------------------------
    @abc.abstractmethod
    def simulate(self, theta: ParamVector, design: Design, rng: np.random.Generator) -> Dataset:
        """Draw an i.i.d. dataset (latent truth retained on the Dataset)."""

    def sample_conditional(
        self, dataset: Dataset, theta: ParamVector, rng: np.random.Generator
    ) -> np.ndarray | None:
        """Exact draw from p(z_i | y_i; theta) for all i, or None when only MH applies."""
        return None

    @property
    def has_exact_conditional(self) -> bool:
        return type(self).sample_conditional is not LatentModel.sample_conditional

    def initial_latents(self, dataset: Dataset, theta: ParamVector, rng: np.random.Generator) -> np.ndarray:
        """Draw z^0 from the prior latent law at theta (feasible by construction)."""
        raise NotImplementedError

    def default_proposal_scales(self, theta: ParamVector) -> np.ndarray:
        """Random-walk proposal scales per latent coordinate."""
        return np.full(self.latent_dim, 0.5)

    def mirror_latents(self, Z: np.ndarray) -> np.ndarray:
        """Image of Z (n, d) under the model's latent mirror: an involution with
        |Jacobian| 1 that leaves the observation likelihood unchanged, so that
        p(z | y) has a mirror mode wherever it has a mode.  Samplers propose it
        to cross between the two; models without one do not override this."""
        raise NotImplementedError

    @property
    def has_mirror(self) -> bool:
        return type(self).mirror_latents is not LatentModel.mirror_latents

    def initial_theta(self, dataset: Dataset) -> ParamVector:
        """Data-driven starting point for iterative fitting."""
        raise NotImplementedError

    # --- optional analytic observed-data paths ----------------------------
    def marginal_loglik(self, dataset: Dataset, theta: ParamVector) -> np.ndarray:
        raise NotImplementedError

    def marginal_score(self, dataset: Dataset, theta: ParamVector) -> np.ndarray:
        raise NotImplementedError

    def marginal_hessian(self, dataset: Dataset, theta: ParamVector) -> np.ndarray:
        raise NotImplementedError

    def conditional_expected_score(self, dataset: Dataset, theta: ParamVector) -> np.ndarray:
        """E[d/dtheta log f(y_i, Z_i; theta) | y_i] per individual, when analytic."""
        raise NotImplementedError

    @property
    def has_marginal_score(self) -> bool:
        return type(self).marginal_score is not LatentModel.marginal_score


class ExpoFamilyModel(LatentModel):
    """Complete likelihood exp(-psi_i(theta) + <S_i(z_i), phi_i(theta)>) (+ theta-free term).

    The theta-free base term is permitted; it cancels from every score, so the
    estimator formulas are unaffected.
    """

    stat_dim: int = 1

    @abc.abstractmethod
    def statistics(self, dataset: Dataset, Z: np.ndarray) -> np.ndarray:
        """S_i(z_i), shape (n, m)."""

    @abc.abstractmethod
    def dpsi(self, dataset: Dataset, theta: ParamVector) -> np.ndarray:
        """d psi_i / d theta, shape (n, p)."""

    @abc.abstractmethod
    def dphi(self, dataset: Dataset, theta: ParamVector) -> np.ndarray:
        """d phi_i / d theta, shape (n, m, p)."""

    @abc.abstractmethod
    def argmax_complete(self, dataset: Dataset, stats: np.ndarray) -> ParamVector:
        """theta-hat(s): maximizer of sum_i [-psi_i(theta) + <s_i, phi_i(theta)>]."""


def validate_params(model: LatentModel, theta: ParamVector) -> None:
    """Full parameter validation: dimension first, then the model's domain."""
    model._check_dim(theta)
    model.validate_params(theta)


def simulate_dataset(model: LatentModel, theta: ParamVector, design: Design, seed: int) -> Dataset:
    """Seeded i.i.d. simulation; identical seed gives a bit-identical dataset."""
    validate_params(model, theta)
    rng = substream(seed, 0)
    return model.simulate(theta, design, rng)


def finite_diff_score(
    model: LatentModel,
    dataset: Dataset,
    Z: np.ndarray,
    theta: ParamVector,
    h: float | np.ndarray = 1e-5,
) -> np.ndarray:
    """Central-difference approximation of the complete score, shape (n, p).

    Steps are relative: h_l = h * max(1, |theta_l|).  Shrinks the step once if
    theta +/- h e_l leaves the domain, then fails.
    """
    if np.any(np.asarray(h) <= 0):
        raise DomainViolation("finite-difference step must be positive", component="h")
    base = theta.values
    steps = np.broadcast_to(np.asarray(h, dtype=float), base.shape) * np.maximum(
        1.0, np.abs(base)
    )
    out = np.empty((dataset.n, theta.p))
    for l in range(theta.p):
        step = float(steps[l])
        for attempt in range(2):
            plus = base.copy()
            minus = base.copy()
            plus[l] += step
            minus[l] -= step
            try:
                tp = theta.replace_values(plus)
                tm = theta.replace_values(minus)
                model.validate_params(tp)
                model.validate_params(tm)
            except DomainViolation:
                if attempt == 0:
                    step /= 16.0
                    continue
                raise DomainViolation(
                    f"theta +/- h e_{l} leaves the domain even after shrinking h",
                    component=theta.names[l],
                )
            out[:, l] = (
                model.complete_loglik(dataset, Z, tp)
                - model.complete_loglik(dataset, Z, tm)
            ) / (2.0 * step)
            break
    return out
