"""Direct Fisher-information estimators, their Monte-Carlo reference and
Wald intervals.

Two moment estimators of the FIM from an n-sample: the averaged outer product
of observed-data scores (PSD by construction) and minus the averaged Hessian
(not PSD-projected; negative eigenvalues are diagnostically meaningful away
from the MLE).  The reference I(theta) they are judged against averages the
score products of fresh individuals simulated in keyed blocks of _MC_BLOCK
draws (``mc_reference_fim``).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .data import Dataset, Design
from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    DomainViolation,
    ProviderFailure,
    SingularFim,
)
from .modelbase import LatentModel, validate_params
from .params import ParamVector
from .rng import substream

PROVENANCES = (
    "score",
    "observed",
    "conditional-score",
    "mc-reference",
    "sa-byproduct",
    "louis-sa",
)
_PSD_PROVENANCES = {"score", "conditional-score", "sa-byproduct"}

# draws per block of the Monte-Carlo references, which simulate (the direct
# route) and evaluate the model one block at a time: a block's (B, p, p) arrays
# take 8 p^2 bytes per draw each, so the two a block holds at once (about
# 1.6 MB at p = 7) stay in a 2 MiB L2 cache
_MC_BLOCK = 2048
_HESSIAN_SYMMETRY_TOL = 1e-10  # relative asymmetry observed_fim accepts
_COND_LIMIT = 1e12  # largest condition number invert_fim inverts


def _carried_sum(block: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``total`` plus the sum over axis 0 of ``block``, a C-contiguous
    (B, ...) array of more than one entry per row, which is overwritten.

    numpy sums axis 0 of such an array row by row from zero, so adding the
    running total into the first row continues it: the blocks of x carried
    in turn from zeros give x.sum(axis=0) bit for bit.
    """
    block[0] += total
    return block.sum(axis=0)


@dataclass(frozen=True)
class FimMatrix:
    """Symmetric p x p information matrix, normalized per individual.

    ``n`` records the sample size the estimate is based on; ``mc_se`` carries
    per-entry Monte-Carlo standard errors when the producer estimates them.
    """

    entries: np.ndarray
    provenance: str
    n: int
    names: tuple[str, ...] = ()
    mc_se: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatch("FIM must be square")
        if not np.array_equal(entries, entries.T):
            raise AsymmetricInput("FIM entries must be exactly symmetric")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if self.provenance not in PROVENANCES:
            raise DomainViolation(f"unknown provenance {self.provenance!r}")
        if self.n < 1:
            raise DomainViolation("n must be >= 1", component="n")
        names = tuple(self.names) if self.names else tuple(
            f"theta_{i + 1}" for i in range(entries.shape[0])
        )
        if len(names) != entries.shape[0]:
            raise DimensionMismatch("component names must match dimension")
        object.__setattr__(self, "names", names)
        if self.mc_se is not None:
            se = np.array(self.mc_se, dtype=float)
            se.setflags(write=False)
            object.__setattr__(self, "mc_se", se)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def is_psd(self, slack: float = 1e-10) -> bool:
        return self.min_eigenvalue() >= -slack * max(np.trace(self.entries), 1e-300)


def _symmetrize_exact(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def score_outer_fim(scores, names: tuple[str, ...] = (), provenance: str = "score") -> FimMatrix:
    """(1/n) sum_i s_i s_i^t over observed-data scores; PSD and symmetric."""
    s = np.asarray(scores, dtype=float)
    if s.ndim != 2:
        raise DimensionMismatch("scores must be an (n, p) array")
    n = s.shape[0]
    if n < 1:
        raise DimensionMismatch("need at least one score vector")
    entries = s.T @ s / n
    return FimMatrix(_symmetrize_exact(entries), provenance, n, names)


def observed_fim(hessians, names: tuple[str, ...] = ()) -> FimMatrix:
    """-(1/n) sum_i H_i from observed-data Hessians.

    Inputs must be symmetric to within _HESSIAN_SYMMETRY_TOL; the result is
    exactly symmetrized but never PSD-projected.
    """
    H = np.asarray(hessians, dtype=float)
    if H.ndim != 3 or H.shape[1] != H.shape[2]:
        raise DimensionMismatch("hessians must be an (n, p, p) array")
    n = H.shape[0]
    if n < 1:
        raise DimensionMismatch("need at least one Hessian")
    skew = np.max(np.abs(H - np.transpose(H, (0, 2, 1))))
    scale = max(np.max(np.abs(H)), 1.0)
    if skew > _HESSIAN_SYMMETRY_TOL * scale:
        raise AsymmetricInput(f"Hessian asymmetry {skew:.3e} beyond tolerance")
    entries = -H.mean(axis=0)
    # pairwise summation rounds even on constant input; the average of a
    # data-free entry must equal that entry bit-for-bit
    constant = np.ptp(H, axis=0) == 0.0
    entries[constant] = -H[0][constant]
    return FimMatrix(_symmetrize_exact(entries), "observed", n, names)


def conditional_score_fim(
    model: LatentModel,
    dataset: Dataset,
    theta: ParamVector,
) -> FimMatrix:
    """Score-based FIM from the model's analytic conditional expectations
    E[d/dtheta log f(y_i, Z_i; theta) | y_i] of the complete score, shape (n, p).
    """
    validate_params(model, theta)
    e = np.asarray(model.conditional_expected_score(dataset, theta), dtype=float)
    if not np.all(np.isfinite(e)):
        bad = int(np.where(~np.isfinite(e).all(axis=1))[0][0])
        raise ProviderFailure(f"non-finite conditional expectation for individual {bad}")
    return score_outer_fim(e, names=theta.names, provenance="conditional-score")


def mc_reference_fim(
    model: LatentModel,
    theta: ParamVector,
    design: Design,
    n_draws: int,
    seed: int,
) -> FimMatrix:
    """Reference I(theta) from N fresh simulated individuals' observed scores.

    The draws are simulated, scored and summed _MC_BLOCK at a time: block b
    comes from its own keyed stream (seed, 1, b), and its score products are
    carried into the running sums in block order, so the working set is one
    block, not the draws, and the result is the one a single sum over all
    draws gives.  Per-entry Monte-Carlo standard errors are attached.
    """
    if n_draws < 10_000:
        raise DomainViolation("mc_reference_fim needs at least 1e4 draws", component="n_draws")
    validate_params(model, theta)
    p = theta.p
    sum1 = np.zeros((p, p))
    sum2 = np.zeros((p, p))
    for b, start in enumerate(range(0, n_draws, _MC_BLOCK)):
        block = replace(design, n=min(_MC_BLOCK, n_draws - start))
        s = model.marginal_score(model.simulate(theta, block, substream(seed, 1, b)), theta)
        outer = np.einsum("ij,ik->ijk", s, s)
        sum2 = _carried_sum(outer**2, sum2)
        sum1 = _carried_sum(outer, sum1)
    mean = sum1 / n_draws
    var = sum2 / n_draws - mean**2
    se = np.sqrt(np.maximum(var, 0.0) / n_draws)
    return FimMatrix(
        _symmetrize_exact(mean), "mc-reference", n_draws, theta.names, mc_se=se
    )


def invert_fim(entries: np.ndarray) -> np.ndarray:
    """Inverse via symmetric eigendecomposition with explicit singularity reporting."""
    w, v = np.linalg.eigh(entries)
    wmax = float(np.max(np.abs(w)))
    if wmax == 0.0 or np.min(np.abs(w)) < wmax / _COND_LIMIT:
        raise SingularFim(
            "information matrix numerically singular", eigenvalues=w.copy()
        )
    return (v / w) @ v.T


@dataclass(frozen=True)
class WaldInterval:
    name: str
    estimate: float
    se: float
    lower: float
    upper: float

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def wald_alpha(alpha) -> float:
    """``alpha`` as a float, checked against the range (0, 1] of
    ``wald_confidence_intervals``."""
    alpha = float(alpha)
    if not 0 < alpha <= 1:
        raise DomainViolation("alpha must be in (0, 1]", component="alpha")
    return alpha


def wald_confidence_intervals(
    theta_hat: ParamVector, fim: FimMatrix, alpha: float
) -> list[WaldInterval]:
    """Per-component theta_l +/- q_{1-alpha/2} sqrt([(n I)^{-1}]_{ll}).

    ``fim`` is per-individual; the recorded n scales it to total information.
    The quantile is the standard library's (Wichura's AS241), within 6 ulp
    of scipy's ``norm.ppf``; where 1 - alpha/2 rounds to 1 it is infinite.
    """
    alpha = wald_alpha(alpha)
    if fim.p != theta_hat.p:
        raise DimensionMismatch("FIM and estimate dimensions differ")
    cov = invert_fim(fim.n * fim.entries)
    level = 1.0 - alpha / 2.0
    q = math.inf if level == 1.0 else NormalDist().inv_cdf(level)
    out = []
    for l, name in enumerate(theta_hat.names):
        se = float(np.sqrt(max(cov[l, l], 0.0)))
        est = float(theta_hat.values[l])
        out.append(WaldInterval(name, est, se, est - q * se, est + q * se))
    return out


def vect_upper(entries: np.ndarray) -> np.ndarray:
    """Upper-triangular part stacked by columns: (1,1), (1,2), (2,2), (1,3), ..."""
    p = entries.shape[0]
    return np.concatenate([entries[: j + 1, j] for j in range(p)])


def vect_upper_names(names) -> list[str]:
    return [f"{names[i]}:{names[j]}" for j in range(len(names)) for i in range(j + 1)]


def write_fim_csv(fim: FimMatrix, path_or_buf) -> None:
    """Upper triangle by columns with provenance and n as '#' comment lines."""

    def _write(fh):
        fh.write(f"# provenance={fim.provenance}\n")
        fh.write(f"# n={fim.n}\n")
        writer = csv.writer(fh)
        writer.writerow(vect_upper_names(fim.names))
        writer.writerow([f"{v:.9g}" for v in vect_upper(fim.entries)])

    if isinstance(path_or_buf, str) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_buf)


def fim_to_csv_string(fim: FimMatrix) -> str:
    buf = io.StringIO()
    write_fim_csv(fim, buf)
    return buf.getvalue()
