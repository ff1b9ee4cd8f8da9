"""Linear mixed effects model: y_ij = beta + z_i + eps_ij.

z_i ~ N(0, eta2), eps_ij ~ N(0, sigma2), theta = (beta, eta2, sigma2).
The marginal covariance V = sigma2 I + eta2 11^t is handled through
Sherman-Morrison scalar identities: with a = sigma2 + J eta2, w = sum_j r_j
and rssp = sum_j r_j^2 - w^2/J, every marginal quantity reduces to (w, rssp).
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..errors import DomainViolation, MStepFailure
from ..fim import FimMatrix
from ..modelbase import ExpoFamilyModel
from ..params import ParamVector

_LOG2PI = np.log(2.0 * np.pi)


def _summaries(dataset: Dataset):
    """Per-individual (J, sum y, sum y^2); cached on the dataset."""

    def build():
        y = dataset.y  # zero-padded: the padding adds 0 to both sums
        return dataset.n_obs().astype(float), y.sum(axis=1), (y**2).sum(axis=1)

    return dataset.memo("lmm_summaries", build)


class LinearMixedModel(ExpoFamilyModel):
    name = "lmm"
    param_names = ("beta", "eta2", "sigma2")
    latent_dim = 1
    stat_dim = 2

    def validate_params(self, theta: ParamVector) -> None:
        self._check_dim(theta)
        beta, eta2, sigma2 = theta.values
        if not eta2 > 0:
            raise DomainViolation(f"eta2 must be positive, got {eta2}", component="eta2")
        if not sigma2 > 0:
            raise DomainViolation(f"sigma2 must be positive, got {sigma2}", component="sigma2")

    # --- complete data -----------------------------------------------------
    def _residual_sums(self, dataset, Z, beta):
        """(J, w, rss) with r = y - beta - z componentwise."""
        J, sumy, sumy2 = _summaries(dataset)
        z = Z[:, 0]
        w = sumy - J * (beta + z)
        rss = sumy2 - 2.0 * (beta + z) * sumy + J * (beta + z) ** 2
        return J, w, rss

    def complete_loglik(self, dataset, Z, theta):
        beta, eta2, sigma2 = theta.values
        z = Z[:, 0]
        J, w, rss = self._residual_sums(dataset, Z, beta)
        return (
            -0.5 * (_LOG2PI + np.log(eta2))
            - z**2 / (2.0 * eta2)
            - 0.5 * J * (_LOG2PI + np.log(sigma2))
            - rss / (2.0 * sigma2)
        )

    def complete_score(self, dataset, Z, theta):
        beta, eta2, sigma2 = theta.values
        z = Z[:, 0]
        J, w, rss = self._residual_sums(dataset, Z, beta)
        return np.column_stack(
            [
                w / sigma2,
                -1.0 / (2.0 * eta2) + z**2 / (2.0 * eta2**2),
                -J / (2.0 * sigma2) + rss / (2.0 * sigma2**2),
            ]
        )

    def complete_hessian(self, dataset, Z, theta):
        beta, eta2, sigma2 = theta.values
        z = Z[:, 0]
        J, w, rss = self._residual_sums(dataset, Z, beta)
        n = dataset.n
        H = np.zeros((n, 3, 3))
        H[:, 0, 0] = -J / sigma2
        H[:, 0, 2] = H[:, 2, 0] = -w / sigma2**2
        H[:, 1, 1] = 1.0 / (2.0 * eta2**2) - z**2 / eta2**3
        H[:, 2, 2] = J / (2.0 * sigma2**2) - rss / sigma2**3
        return H

    # --- simulation and conditionals --------------------------------------
    def simulate(self, theta, design, rng):
        beta, eta2, sigma2 = theta.values
        if design.n_obs is None:
            raise DomainViolation("lmm design needs n_obs (J)", component="n_obs")
        n, J = design.n, design.n_obs
        z = rng.normal(0.0, np.sqrt(eta2), size=n)
        y = beta + z[:, None] + rng.normal(0.0, np.sqrt(sigma2), size=(n, J))
        return Dataset.from_arrays(y, latent_truth=z[:, None])

    def _posterior(self, dataset, theta):
        """Conditional z | y is Gaussian: returns (mean, variance)."""
        beta, eta2, sigma2 = theta.values
        J, sumy, _ = _summaries(dataset)
        a = sigma2 + J * eta2
        w = sumy - J * beta
        return eta2 * w / a, eta2 * sigma2 / a

    def sample_conditional(self, dataset, theta, rng):
        m, v = self._posterior(dataset, theta)
        return (m + np.sqrt(v) * rng.standard_normal(dataset.n))[:, None]

    def initial_latents(self, dataset, theta, rng):
        eta2 = theta.values[1]
        return rng.normal(0.0, np.sqrt(eta2), size=(dataset.n, 1))

    def default_proposal_scales(self, theta):
        return np.array([np.sqrt(theta.values[1])])

    def initial_theta(self, dataset):
        """ANOVA-style moment estimates."""
        J, sumy, sumy2 = _summaries(dataset)
        means = sumy / J
        beta0 = float(sumy.sum() / J.sum())
        within = (sumy2 - J * means**2) / np.maximum(J - 1.0, 1.0)
        sigma20 = max(float(within.mean()), 1e-8)
        eta20 = max(float(np.var(means) - sigma20 / J.mean()), 0.01 * sigma20)
        return self.make_params([beta0, eta20, sigma20])

    # --- exponential family ------------------------------------------------
    def statistics(self, dataset, Z):
        z = Z[:, 0]
        return np.column_stack([z, z**2])

    def dpsi(self, dataset, theta):
        beta, eta2, sigma2 = theta.values
        J, sumy, sumy2 = _summaries(dataset)
        w0 = sumy - J * beta
        rss0 = sumy2 - 2.0 * beta * sumy + J * beta**2
        return np.column_stack(
            [
                -w0 / sigma2,
                np.full(dataset.n, 1.0 / (2.0 * eta2)),
                J / (2.0 * sigma2) - rss0 / (2.0 * sigma2**2),
            ]
        )

    def dphi(self, dataset, theta):
        beta, eta2, sigma2 = theta.values
        J, sumy, _ = _summaries(dataset)
        w0 = sumy - J * beta
        n = dataset.n
        out = np.zeros((n, 2, 3))
        out[:, 0, 0] = -J / sigma2
        out[:, 0, 2] = -w0 / sigma2**2
        out[:, 1, 1] = 1.0 / (2.0 * eta2**2)
        out[:, 1, 2] = J / (2.0 * sigma2**2)
        return out

    def argmax_complete(self, dataset, stats):
        J, sumy, sumy2 = _summaries(dataset)
        s1, s2 = stats[:, 0], stats[:, 1]
        beta = float((sumy - J * s1).sum() / J.sum())
        eta2 = float(s2.mean())
        w0 = sumy - J * beta
        rss0 = sumy2 - 2.0 * beta * sumy + J * beta**2
        sigma2 = float((rss0 - 2.0 * s1 * w0 + J * s2).sum() / J.sum())
        if not eta2 > 0 or not sigma2 > 0:
            raise MStepFailure(
                f"infeasible complete-data maximizer: eta2={eta2}, sigma2={sigma2}",
                stats=stats,
            )
        return self.make_params([beta, eta2, sigma2])

    def conditional_stat_expectation(self, dataset, theta):
        m, v = self._posterior(dataset, theta)
        return np.column_stack([m, m**2 + v])

    # --- analytic observed-data quantities ---------------------------------
    def _marginal_parts(self, dataset, theta):
        beta, eta2, sigma2 = theta.values
        J, sumy, sumy2 = _summaries(dataset)
        a = sigma2 + J * eta2
        w = sumy - J * beta
        rss = sumy2 - 2.0 * beta * sumy + J * beta**2
        rssp = rss - w**2 / J
        return J, a, w, rssp

    def marginal_loglik(self, dataset, theta):
        beta, eta2, sigma2 = theta.values
        J, a, w, rssp = self._marginal_parts(dataset, theta)
        return -0.5 * (
            J * _LOG2PI + (J - 1.0) * np.log(sigma2) + np.log(a) + w**2 / (J * a) + rssp / sigma2
        )

    def marginal_score(self, dataset, theta):
        beta, eta2, sigma2 = theta.values
        J, a, w, rssp = self._marginal_parts(dataset, theta)
        return np.column_stack(
            [
                w / a,
                -J / (2.0 * a) + w**2 / (2.0 * a**2),
                -(J - 1.0) / (2.0 * sigma2)
                - 1.0 / (2.0 * a)
                + w**2 / (2.0 * J * a**2)
                + rssp / (2.0 * sigma2**2),
            ]
        )

    def marginal_hessian(self, dataset, theta):
        beta, eta2, sigma2 = theta.values
        J, a, w, rssp = self._marginal_parts(dataset, theta)
        n = dataset.n
        H = np.zeros((n, 3, 3))
        H[:, 0, 0] = -J / a
        H[:, 0, 1] = H[:, 1, 0] = -J * w / a**2
        H[:, 0, 2] = H[:, 2, 0] = -w / a**2
        H[:, 1, 1] = J**2 / (2.0 * a**2) - J * w**2 / a**3
        H[:, 1, 2] = H[:, 2, 1] = J / (2.0 * a**2) - w**2 / a**3
        H[:, 2, 2] = (
            0.5 * ((J - 1.0) / sigma2**2 + 1.0 / a**2)
            - w**2 / (J * a**3)
            - rssp / sigma2**3
        )
        return H

    def conditional_expected_score(self, dataset, theta):
        beta, eta2, sigma2 = theta.values
        J, sumy, sumy2 = _summaries(dataset)
        w = sumy - J * beta
        rss = sumy2 - 2.0 * beta * sumy + J * beta**2
        m, v = self._posterior(dataset, theta)
        ez2 = m**2 + v
        return np.column_stack(
            [
                (w - J * m) / sigma2,
                -1.0 / (2.0 * eta2) + ez2 / (2.0 * eta2**2),
                -J / (2.0 * sigma2) + (rss - 2.0 * m * w + J * ez2) / (2.0 * sigma2**2),
            ]
        )


def lmm_analytic_fim(theta: ParamVector, J: int) -> FimMatrix:
    """Closed-form per-individual FIM for the balanced design with J observations."""
    beta, eta2, sigma2 = theta.values
    if not (eta2 > 0 and sigma2 > 0):
        raise DomainViolation("variance components must be positive")
    a = sigma2 + J * eta2
    entries = np.zeros((3, 3))
    entries[0, 0] = J / a
    entries[1, 1] = 0.5 * (J / a) ** 2
    entries[2, 2] = 0.5 * ((J - 1.0) / sigma2**2 + 1.0 / a**2)
    entries[1, 2] = entries[2, 1] = 0.5 * J / a**2
    return FimMatrix(entries, "mc-reference", 1, LinearMixedModel.param_names)
