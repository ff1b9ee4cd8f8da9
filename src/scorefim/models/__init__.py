"""Concrete models and the string-id registry used by harness configs."""

from __future__ import annotations

from ..errors import ConfigError
from .gaussian_mixture import GaussianMixtureModel, gaussian_mixture_em
from .lmm import LinearMixedModel, lmm_analytic_fim
from .pk import PkFixedVModel, PkNlmeModel, pk_prediction
from .poisson_mixture import PoissonMixtureModel

MODEL_IDS = (
    "lmm",
    "poisson_mixture",
    "gaussian_mixture2",
    "pk_nlme",
    "pk_nlme_fixed_v",
)


def build_model(model_id: str, n_params: int | None = None):
    """Instantiate a model by registry id.

    For the Poisson mixture the component count is recovered from the
    parameter dimension (p = 2K - 1) when given.
    """
    if model_id == "lmm":
        return LinearMixedModel()
    if model_id == "poisson_mixture":
        if n_params is not None:
            if n_params % 2 == 0:
                raise ConfigError("poisson mixture needs an odd parameter count (2K-1)")
            return PoissonMixtureModel(n_components=(n_params + 1) // 2)
        return PoissonMixtureModel()
    if model_id == "gaussian_mixture2":
        return GaussianMixtureModel()
    if model_id == "pk_nlme":
        return PkNlmeModel()
    if model_id == "pk_nlme_fixed_v":
        return PkFixedVModel()
    raise ConfigError(f"unknown model id {model_id!r}; known: {', '.join(MODEL_IDS)}")


__all__ = [
    "GaussianMixtureModel",
    "LinearMixedModel",
    "PkFixedVModel",
    "PkNlmeModel",
    "PoissonMixtureModel",
    "MODEL_IDS",
    "build_model",
    "gaussian_mixture_em",
    "lmm_analytic_fim",
    "pk_prediction",
]
