"""Two-component Gaussian mixture with unit variances and unknown means.

g(y; theta) = (1 - pi) N(y; mu1, 1) + pi N(y; mu2, 1), theta = (pi, mu1, mu2).
The mixing weight is attached to the mu2 component; with this layout the
reference comparison matrix of the simulation study is reproduced including
cross-term signs.  Latent z in {0, 1}: z = 1 selects the mu2 component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..errors import DimensionMismatch, DomainViolation, MStepFailure
from ..modelbase import ExpoFamilyModel
from ..params import ParamVector

_LOG2PI = np.log(2.0 * np.pi)


class GaussianMixtureModel(ExpoFamilyModel):
    name = "gaussian_mixture2"
    param_names = ("pi", "mu1", "mu2")
    latent_dim = 1
    stat_dim = 1

    def validate_params(self, theta: ParamVector) -> None:
        self._check_dim(theta)
        pi = theta.values[0]
        if not 0.0 < pi < 1.0:
            raise DomainViolation(f"pi = {pi:.6g} outside (0, 1)", component="pi")

    def _y(self, dataset: Dataset) -> np.ndarray:
        if dataset.y.shape[1] != 1:
            raise DimensionMismatch("mixture individuals carry a single observation")
        return dataset.y[:, 0]

    # --- complete data -----------------------------------------------------
    def complete_loglik(self, dataset, Z, theta):
        pi, mu1, mu2 = theta.values
        y = self._y(dataset)
        z = Z[:, 0]
        mu = np.where(z > 0.5, mu2, mu1)
        logw = np.where(z > 0.5, np.log(pi), np.log1p(-pi))
        return logw - 0.5 * _LOG2PI - 0.5 * (y - mu) ** 2

    def complete_score(self, dataset, Z, theta):
        pi, mu1, mu2 = theta.values
        y = self._y(dataset)
        z = (Z[:, 0] > 0.5).astype(float)
        return np.column_stack(
            [
                z / pi - (1.0 - z) / (1.0 - pi),
                (1.0 - z) * (y - mu1),
                z * (y - mu2),
            ]
        )

    def complete_hessian(self, dataset, Z, theta):
        pi, mu1, mu2 = theta.values
        z = (Z[:, 0] > 0.5).astype(float)
        n = dataset.n
        H = np.zeros((n, 3, 3))
        H[:, 0, 0] = -z / pi**2 - (1.0 - z) / (1.0 - pi) ** 2
        H[:, 1, 1] = -(1.0 - z)
        H[:, 2, 2] = -z
        return H

    # --- simulation and conditionals --------------------------------------
    def simulate(self, theta, design, rng):
        pi, mu1, mu2 = theta.values
        z = (rng.random(design.n) < pi).astype(float)
        y = np.where(z > 0.5, mu2, mu1) + rng.standard_normal(design.n)
        return Dataset.from_arrays(y[:, None], latent_truth=z[:, None])

    def _log_terms(self, dataset, theta):
        """(l2, log(e^l1 + e^l2)) per individual, l1 and l2 being the log
        weighted component densities at y less log(2 pi) / 2: the
        responsibility is exp(l2 - the second) and the marginal
        log-likelihood the second less log(2 pi) / 2.  EM reads both of each
        iterate from one call."""
        pi, mu1, mu2 = theta.values
        y = self._y(dataset)
        l1 = np.log1p(-pi) - 0.5 * (y - mu1) ** 2
        l2 = np.log(pi) - 0.5 * (y - mu2) ** 2
        return l2, np.logaddexp(l1, l2)

    def responsibility(self, dataset, theta) -> np.ndarray:
        """P(z_i = 1 | y_i; theta), the mu2-component posterior weight."""
        l2, lse = self._log_terms(dataset, theta)
        return np.exp(l2 - lse)

    def sample_conditional(self, dataset, theta, rng):
        r = self.responsibility(dataset, theta)
        return (rng.random(dataset.n) < r).astype(float)[:, None]

    def initial_latents(self, dataset, theta, rng):
        pi = theta.values[0]
        return (rng.random(dataset.n) < pi).astype(float)[:, None]

    def initial_theta(self, dataset):
        y = self._y(dataset)
        q25, q75 = np.quantile(y, [0.25, 0.75])
        if q75 - q25 < 1e-8:
            q75 = q25 + 1.0
        return self.make_params([0.5, q75, q25])

    # --- exponential family -------------------------------------------------
    def statistics(self, dataset, Z):
        return (Z[:, :1] > 0.5).astype(float)

    def dpsi(self, dataset, theta):
        pi, mu1, mu2 = theta.values
        y = self._y(dataset)
        return np.column_stack(
            [np.full(dataset.n, 1.0 / (1.0 - pi)), -(y - mu1), np.zeros(dataset.n)]
        )

    def dphi(self, dataset, theta):
        pi, mu1, mu2 = theta.values
        y = self._y(dataset)
        out = np.empty((dataset.n, 1, 3))
        out[:, 0, 0] = 1.0 / (pi * (1.0 - pi))
        out[:, 0, 1] = -(y - mu1)
        out[:, 0, 2] = y - mu2
        return out

    def argmax_complete(self, dataset, stats):
        y = self._y(dataset)
        s = stats[:, 0]
        mass2 = s.sum()
        mass1 = dataset.n - mass2
        if mass1 <= 0 or mass2 <= 0:
            raise MStepFailure("a mixture component received zero mass", stats=stats)
        pi = mass2 / dataset.n
        mu2 = float(s @ y / mass2)
        mu1 = float((1.0 - s) @ y / mass1)
        return self.make_params([pi, mu1, mu2])

    def conditional_stat_expectation(self, dataset, theta):
        return self.responsibility(dataset, theta)[:, None]

    # --- analytic observed-data quantities ---------------------------------
    def marginal_loglik(self, dataset, theta):
        return self._log_terms(dataset, theta)[1] - 0.5 * _LOG2PI

    def marginal_score(self, dataset, theta):
        return self._marginal_score(self._y(dataset), theta, self.responsibility(dataset, theta))

    @staticmethod
    def _marginal_score(y, theta, r):
        pi, mu1, mu2 = theta.values
        return np.column_stack(
            [
                r / pi - (1.0 - r) / (1.0 - pi),
                (1.0 - r) * (y - mu1),
                r * (y - mu2),
            ]
        )

    def marginal_hessian(self, dataset, theta):
        pi, mu1, mu2 = theta.values
        y = self._y(dataset)
        r = self.responsibility(dataset, theta)
        s = self._marginal_score(y, theta, r)
        H = -np.einsum("ij,ik->ijk", s, s)
        H[:, 0, 1] += -(1.0 - r) * (y - mu1) / (1.0 - pi)
        H[:, 1, 0] = H[:, 0, 1]
        H[:, 0, 2] += r * (y - mu2) / pi
        H[:, 2, 0] = H[:, 0, 2]
        H[:, 1, 1] += (1.0 - r) * ((y - mu1) ** 2 - 1.0)
        H[:, 2, 2] += r * ((y - mu2) ** 2 - 1.0)
        return H

    def conditional_expected_score(self, dataset, theta):
        r = self.responsibility(dataset, theta)
        out = np.zeros((dataset.n, 3))
        Z = np.zeros((dataset.n, 1))
        out += (1.0 - r)[:, None] * self.complete_score(dataset, Z, theta)
        Z[:, 0] = 1.0
        out += r[:, None] * self.complete_score(dataset, Z, theta)
        return out

    def canonicalize(self, theta: ParamVector) -> ParamVector:
        """Label convention mu1 > mu2 (swap means and flip pi when violated)."""
        pi, mu1, mu2 = theta.values
        if mu1 < mu2:
            return self.make_params([1.0 - pi, mu2, mu1])
        return theta


@dataclass(frozen=True)
class EmResult:
    theta: ParamVector
    loglik: float
    n_iter: int
    converged: bool
    loglik_path: np.ndarray


def gaussian_mixture_em(
    dataset: Dataset,
    theta0: ParamVector,
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> EmResult:
    """Standard EM; the observed log-likelihood is non-decreasing every step.

    Hits of ``max_iter`` return the best iterate flagged, not an exception.
    """
    model = GaussianMixtureModel()
    model.validate_params(theta0)
    if dataset.n < 2:
        raise DomainViolation("EM needs at least two observations")
    y = model._y(dataset)
    theta = theta0
    # each iterate's log terms give its marginal log-likelihood and the
    # next step's responsibilities
    l2, lse = model._log_terms(dataset, theta)
    path = [float((lse - 0.5 * _LOG2PI).sum())]
    converged = False
    for it in range(1, max_iter + 1):
        r = np.exp(l2 - lse)
        mass2 = r.sum()
        mass1 = dataset.n - mass2
        pi, mu1, mu2 = theta.values
        if mass2 > 0:
            mu2 = float(r @ y / mass2)
        if mass1 > 0:
            mu1 = float((1.0 - r) @ y / mass1)
        pi = float(np.clip(mass2 / dataset.n, 1e-12, 1.0 - 1e-12))
        theta = model.make_params([pi, mu1, mu2])
        l2, lse = model._log_terms(dataset, theta)
        path.append(float((lse - 0.5 * _LOG2PI).sum()))
        if path[-1] - path[-2] < tol:
            converged = True
            break
    return EmResult(theta, path[-1], len(path) - 1, converged, np.array(path))
