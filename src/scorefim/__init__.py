"""Score-based Fisher information estimation in latent variable models.

The score-covariance moment estimator of the FIM is computed directly when
conditional expectations are analytic, and as a by-product of stochastic
approximation EM otherwise, with observed-information comparators and a
reproducible simulation-study harness.
"""

# numpy loads these two on first use (np.random, and np.median's NaN check);
# loading them here lets forked study workers inherit them, where each would
# otherwise import them inside its first replicate
import numpy.ma
import numpy.random

from .data import Dataset, Design, read_dataset_csv, write_dataset_csv
from .fim import (
    FimMatrix,
    conditional_score_fim,
    mc_reference_fim,
    observed_fim,
    score_outer_fim,
    wald_confidence_intervals,
    write_fim_csv,
)
from .modelbase import (
    ExpoFamilyModel,
    LatentModel,
    finite_diff_score,
    simulate_dataset,
    validate_params,
)
from .params import ParamVector
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Design",
    "ExpoFamilyModel",
    "FimMatrix",
    "LatentModel",
    "ParamVector",
    "conditional_score_fim",
    "finite_diff_score",
    "mc_reference_fim",
    "observed_fim",
    "read_dataset_csv",
    "score_outer_fim",
    "simulate_dataset",
    "substream",
    "validate_params",
    "wald_confidence_intervals",
    "write_dataset_csv",
    "write_fim_csv",
    "__version__",
]
