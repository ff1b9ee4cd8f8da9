"""Finite Poisson mixture: y_i | z_i = k ~ Poisson(lambda_k), P(z_i = k) = alpha_k.

theta = (lambda_1..lambda_K, alpha_1..alpha_{K-1}); the last proportion is
implied.  One observation per individual.  Conditional class probabilities are
analytic, so both the conditional-score route and the direct marginal
derivatives are available as independent code paths.
"""

from __future__ import annotations

import math

import numpy as np

from ..data import Dataset
from ..errors import DimensionMismatch, DomainViolation, MStepFailure
from ..modelbase import ExpoFamilyModel
from ..params import ParamVector


def _logsumexp(a: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """log sum_k exp(a_ik) per row of a real (n, K) array, bit for bit the
    value of scipy 1.17's ``logsumexp(a, axis=1)``.

    The max-separated form of Blanchard, Higham & Higham (2021): with m the
    count of a row's maximal elements and s the sum of exp(a - max) over the
    others, log1p(s / m) + log(m) + max.  Where that is not finite (a row
    that is all -inf, or one holding +inf) it falls back to
    log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        at_max = a == a_max
        m = at_max.sum(axis=1, keepdims=True, dtype=a.dtype)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=1, keepdims=True)))
    return out if keepdims else out[:, 0]


class PoissonMixtureModel(ExpoFamilyModel):
    latent_dim = 1

    def __init__(self, n_components: int = 3):
        if n_components < 1:
            raise DomainViolation("need at least one component")
        self.K = int(n_components)
        self.name = "poisson_mixture"
        self.param_names = tuple(
            [f"lambda_{k + 1}" for k in range(self.K)]
            + [f"alpha_{k + 1}" for k in range(self.K - 1)]
        )
        self.stat_dim = self.K

    def split(self, theta: ParamVector):
        lam = theta.values[: self.K]
        alpha_free = theta.values[self.K :]
        alpha = np.append(alpha_free, 1.0 - alpha_free.sum())
        return lam, alpha

    def validate_params(self, theta: ParamVector) -> None:
        self._check_dim(theta)
        lam, alpha = self.split(theta)
        for k, lk in enumerate(lam):
            if not lk > 0:
                raise DomainViolation(
                    f"lambda_{k + 1} must be positive, got {lk}",
                    component=f"lambda_{k + 1}",
                )
        if self.K == 1:
            return  # no free proportions; the implied weight is exactly 1
        for k, ak in enumerate(alpha):
            if not 0.0 < ak < 1.0:
                raise DomainViolation(
                    f"alpha_{k + 1} = {ak:.6g} outside (0, 1)",
                    component=f"alpha_{k + 1}",
                )

    def _y(self, dataset: Dataset) -> np.ndarray:
        if dataset.y.shape[1] != 1:
            raise DimensionMismatch("mixture individuals carry a single observation")
        return dataset.y[:, 0]

    def _log_y_factorial(self, dataset: Dataset) -> np.ndarray:
        """log y_i! per individual, by ``math.lgamma`` (within a few ulp of
        scipy's ``gammaln``); it does not depend on theta, so it is computed
        once per dataset and kept read-only."""

        def build():
            out = np.array([math.lgamma(v + 1.0) for v in self._y(dataset).tolist()])
            out.setflags(write=False)
            return out

        return dataset.memo("log_y_factorial", build)

    # --- complete data -----------------------------------------------------
    def complete_loglik(self, dataset, Z, theta):
        lam, alpha = self.split(theta)
        y = self._y(dataset)
        z = Z[:, 0].astype(int)
        return np.log(alpha[z]) + y * np.log(lam[z]) - lam[z] - self._log_y_factorial(dataset)

    def complete_score(self, dataset, Z, theta):
        lam, alpha = self.split(theta)
        y = self._y(dataset)
        z = Z[:, 0].astype(int)
        n = dataset.n
        out = np.zeros((n, self.p))
        rows = np.arange(n)
        out[rows, z] = y / lam[z] - 1.0
        for j in range(self.K - 1):
            out[:, self.K + j] = (z == j) / alpha[j] - (z == self.K - 1) / alpha[-1]
        return out

    def complete_hessian(self, dataset, Z, theta):
        lam, alpha = self.split(theta)
        y = self._y(dataset)
        z = Z[:, 0].astype(int)
        n = dataset.n
        H = np.zeros((n, self.p, self.p))
        rows = np.arange(n)
        H[rows, z, z] = -y / lam[z] ** 2
        last = (z == self.K - 1) / alpha[-1] ** 2
        for j in range(self.K - 1):
            for l in range(self.K - 1):
                H[:, self.K + j, self.K + l] = -last
            H[:, self.K + j, self.K + j] -= (z == j) / alpha[j] ** 2
        return H

    # --- simulation and conditionals --------------------------------------
    def simulate(self, theta, design, rng):
        lam, alpha = self.split(theta)
        z = rng.choice(self.K, size=design.n, p=alpha)
        y = rng.poisson(lam[z]).astype(float)
        return Dataset.from_arrays(y[:, None], latent_truth=z[:, None].astype(float))

    def posterior(self, dataset, theta) -> np.ndarray:
        """Class probabilities w_ik proportional to alpha_k Poisson(y_i; lambda_k)."""
        lam, alpha = self.split(theta)
        y = self._y(dataset)
        logw = np.log(alpha) + y[:, None] * np.log(lam) - lam
        return np.exp(logw - _logsumexp(logw, keepdims=True))

    def sample_conditional(self, dataset, theta, rng):
        w = self.posterior(dataset, theta)
        u = rng.random(dataset.n)
        z = (u[:, None] > np.cumsum(w, axis=1)).sum(axis=1)
        return np.minimum(z, self.K - 1)[:, None].astype(float)

    def initial_latents(self, dataset, theta, rng):
        _, alpha = self.split(theta)
        return rng.choice(self.K, size=dataset.n, p=alpha)[:, None].astype(float)

    def initial_theta(self, dataset):
        y = np.sort(self._y(dataset))
        groups = np.array_split(y, self.K)
        lam0 = np.array([max(g.mean(), 0.05) if g.size else 1.0 for g in groups])
        lam0 += 1e-3 * np.arange(self.K)  # break ties
        alpha0 = np.full(self.K - 1, 1.0 / self.K)
        return self.make_params(np.concatenate([lam0, alpha0]))

    # --- exponential family (one-hot statistics) ---------------------------
    def statistics(self, dataset, Z):
        z = Z[:, 0].astype(int)
        out = np.zeros((dataset.n, self.K))
        out[np.arange(dataset.n), z] = 1.0
        return out

    def dpsi(self, dataset, theta):
        return np.zeros((dataset.n, self.p))

    def dphi(self, dataset, theta):
        lam, alpha = self.split(theta)
        y = self._y(dataset)
        n = dataset.n
        out = np.zeros((n, self.K, self.p))
        for k in range(self.K):
            out[:, k, k] = y / lam[k] - 1.0
        for j in range(self.K - 1):
            out[:, j, self.K + j] = 1.0 / alpha[j]
            out[:, self.K - 1, self.K + j] = -1.0 / alpha[-1]
        return out

    def argmax_complete(self, dataset, stats):
        y = self._y(dataset)
        mass = stats.sum(axis=0)
        if np.any(mass <= 0):
            raise MStepFailure("a mixture component received zero mass", stats=stats)
        lam = stats.T @ y / mass
        if np.any(lam <= 0):
            raise MStepFailure("a component rate collapsed to zero", stats=stats)
        alpha = mass / dataset.n
        return self.make_params(np.concatenate([lam, alpha[: self.K - 1]]))

    def conditional_stat_expectation(self, dataset, theta):
        return self.posterior(dataset, theta)

    # --- analytic observed-data quantities ---------------------------------
    def marginal_loglik(self, dataset, theta):
        lam, alpha = self.split(theta)
        y = self._y(dataset)
        logw = np.log(alpha) + y[:, None] * np.log(lam) - lam
        return _logsumexp(logw) - self._log_y_factorial(dataset)

    def marginal_score(self, dataset, theta):
        """Direct derivatives of log g; independent of the posterior route."""
        return self._marginal_score(self._y(dataset), theta, self.posterior(dataset, theta))

    def _marginal_score(self, y, theta, w):
        """The marginal score from the class probabilities ``w``."""
        lam, alpha = self.split(theta)
        u = y[:, None] / lam - 1.0
        out = np.empty((y.size, self.p))
        out[:, : self.K] = w * u
        out[:, self.K :] = w[:, :-1] / alpha[:-1] - (w[:, -1] / alpha[-1])[:, None]
        return out

    def marginal_hessian(self, dataset, theta):
        lam, alpha = self.split(theta)
        y = self._y(dataset)
        w = self.posterior(dataset, theta)
        u = y[:, None] / lam - 1.0
        s = self._marginal_score(y, theta, w)
        H = -np.einsum("ij,ik->ijk", s, s)
        for k in range(self.K):
            H[:, k, k] += w[:, k] * (u[:, k] ** 2 - y / lam[k] ** 2)
        wu_last = w[:, -1] * u[:, -1] / alpha[-1]
        for j in range(self.K - 1):
            cross = w[:, j] * u[:, j] / alpha[j]
            H[:, j, self.K + j] += cross
            H[:, self.K + j, j] += cross
            H[:, self.K - 1, self.K + j] += -wu_last
            H[:, self.K + j, self.K - 1] += -wu_last
        return H

    def conditional_expected_score(self, dataset, theta):
        """Posterior-weighted complete scores (Leibniz-rule route)."""
        w = self.posterior(dataset, theta)
        out = np.zeros((dataset.n, self.p))
        Z = np.empty((dataset.n, 1))
        for k in range(self.K):
            Z[:, 0] = k
            out += w[:, k : k + 1] * self.complete_score(dataset, Z, theta)
        return out

    def exact_fim(self, theta) -> np.ndarray:
        """Per-observation I(theta) by direct summation over the integer support."""
        lam, alpha = self.split(theta)
        ymax = int(np.max(lam) + 40.0 * np.sqrt(np.max(lam)) + 60)
        y = np.arange(ymax + 1).astype(float)
        ds = Dataset.from_arrays(y[:, None])
        g = np.exp(self.marginal_loglik(ds, theta))
        if g.sum() <= 1.0 - 1e-9:
            raise DomainViolation("support truncation lost probability mass")
        s = self.marginal_score(ds, theta)
        return np.einsum("i,ij,ik->jk", g, s, s)
