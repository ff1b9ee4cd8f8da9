"""Monte-Carlo conditional-expectation oracle for reference FIM values.

For a fixed dataset and reference theta, estimates per individual the
conditional moments of the complete score and Hessian given y_i via
self-normalized importance sampling from a multivariate-t proposal centered
at the conditional mode (Laplace fit).  For models with a latent mirror (the
PK flip-flop map) the fit checks the image of the mode it found and refits
from there when the image is more probable, so the proposal is never centered
on a mirror mode that carries almost no conditional mass.  The moments feed
the reference matrices the stochastic-approximation trajectories are judged
against:

    I_sco_ref = (1/n) sum_i E[s_i|y_i] E[s_i|y_i]^t
    I_obs_ref = -(1/n) sum_i (E[H_i|y_i] + Cov[s_i|y_i])
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from .data import Dataset
from .errors import NumericalError
from .fim import FimMatrix, _symmetrize_exact
from .modelbase import LatentModel
from .parallel import pmap
from .params import ParamVector
from .rng import substream


@dataclass(frozen=True)
class ConditionalMoments:
    escore: np.ndarray  # (n, p)   E[score | y]
    escore_outer: np.ndarray  # (n, p, p) E[score score^t | y]
    ehessian: np.ndarray | None  # (n, p, p) E[H | y]
    ess: np.ndarray  # (n,) importance-sampling effective sample sizes


def _laplace_fit(model, dataset, i, theta, z0):
    """Conditional mode and curvature for one individual.

    For a model with a latent mirror the search from z0 may stop in the mirror
    mode; when the image of the fitted mode is more probable, the search
    restarts there and the better of the two modes is kept.
    """
    ds1 = dataset.subset([i])

    def neg(z):
        return -float(model.complete_loglik(ds1, z[None, :], theta)[0])

    def search(start):
        return minimize(
            neg, start, method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000},
        )

    res = search(z0)
    if model.has_mirror:
        image = model.mirror_latents(res.x[None, :])[0]
        if neg(image) < res.fun:
            res = min(res, search(image), key=lambda r: r.fun)
    mode = res.x
    d = mode.size
    h = 1e-4 * np.maximum(1.0, np.abs(mode))
    H = np.zeros((d, d))
    f0 = neg(mode)
    for a in range(d):
        for b in range(a, d):
            ea = np.eye(d)[a] * h[a]
            eb = np.eye(d)[b] * h[b]
            if a == b:
                H[a, a] = (neg(mode + ea) - 2.0 * f0 + neg(mode - ea)) / h[a] ** 2
            else:
                H[a, b] = H[b, a] = (
                    neg(mode + ea + eb) - neg(mode + ea - eb)
                    - neg(mode - ea + eb) + neg(mode - ea - eb)
                ) / (4.0 * h[a] * h[b])
    w, v = np.linalg.eigh(H)
    w = np.maximum(w, 1e-4)
    cov = (v / w) @ v.T
    return mode, cov


def _mvt_draws(mode, cov, df, size, rng):
    d = mode.size
    L = np.linalg.cholesky(cov * 1.5)  # inflate for tail cover
    g = rng.standard_normal((size, d))
    chi = rng.chisquare(df, size=size)
    draws = mode + (g @ L.T) / np.sqrt(chi / df)[:, None]
    dev = draws - mode
    sol = np.linalg.solve(L, dev.T).T
    maha = (sol**2).sum(axis=1)
    logdet = 2.0 * np.log(np.diag(L)).sum()
    logq = (
        gammaln((df + d) / 2.0) - gammaln(df / 2.0) - 0.5 * d * np.log(df * np.pi)
        - 0.5 * logdet - 0.5 * (df + d) * np.log1p(maha / df)
    )
    return draws, logq


def _individual_moments(task):
    """(E[s | y_i], E[s s^t | y_i], E[H | y_i] or None, ESS) for one individual.

    ``task`` carries the individual's one record, not the dataset; its draws
    come from stream (seed, 2, i), so the result does not depend on which
    process computes it.
    """
    model, record, theta, z0, i, n_draws, seed, df, min_ess, with_hessian = task
    mode, cov = _laplace_fit(model, Dataset((record,)), 0, theta, z0)
    draws, logq = _mvt_draws(mode, cov, df, n_draws, substream(seed, 2, i))
    rep = Dataset((record,) * n_draws)
    logf = model.complete_loglik(rep, draws, theta)
    lw = logf - logq
    lw -= lw.max()
    w = np.exp(lw)
    w /= w.sum()
    ess = 1.0 / float((w**2).sum())
    if ess < min_ess:
        raise NumericalError(
            f"importance sampling degenerate for individual {i} (ESS {ess:.1f})"
        )
    sc = model.complete_score(rep, draws, theta)
    ehess = None
    if with_hessian:
        ehess = np.einsum("b,bjk->jk", w, model.complete_hessian(rep, draws, theta))
    return w @ sc, np.einsum("b,bj,bk->jk", w, sc, sc), ehess, ess


def conditional_moments(
    model: LatentModel,
    dataset: Dataset,
    theta: ParamVector,
    n_draws: int = 100_000,
    seed: int = 0,
    df: float = 5.0,
    min_ess: float = 200.0,
    with_hessian: bool = True,
    threads: int = 1,
) -> ConditionalMoments:
    """Per-individual conditional moments at theta by Laplace-IS.

    Individuals are independent tasks fanned out over ``threads`` worker
    processes.  Individual i's Laplace fit starts from row i of one shared
    prior draw (stream (seed, 12345)) and its proposal draws come from
    stream (seed, 2, i); results are stacked in index order, so the moments
    are bitwise the same for any worker count.  An individual whose
    importance weights have an ESS below ``min_ess`` raises NumericalError;
    when several do, the error names the first in index order.
    """
    with_hessian = with_hessian and model.has_complete_hessian
    z_center = model.initial_latents(dataset, theta, substream(seed, 12345))
    tasks = [
        (model, record, theta, z_center[i], i, n_draws, seed, df, min_ess, with_hessian)
        for i, record in enumerate(dataset.records)
    ]
    escore, eouter, ehess, ess = zip(*pmap(_individual_moments, tasks, threads))
    return ConditionalMoments(
        np.stack(escore), np.stack(eouter),
        np.stack(ehess) if with_hessian else None, np.array(ess),
    )


def reference_fims(moments: ConditionalMoments, names, n: int):
    """(I_sco_ref, I_obs_ref or None) from conditional moments."""
    es = moments.escore
    sco = _symmetrize_exact(es.T @ es / es.shape[0])
    i_sco = FimMatrix(sco, "mc-reference", n, tuple(names))
    i_obs = None
    if moments.ehessian is not None:
        cov = moments.escore_outer - np.einsum("ij,ik->ijk", es, es)
        entries = -(moments.ehessian + cov).mean(axis=0)
        i_obs = FimMatrix(_symmetrize_exact(entries), "mc-reference", n, tuple(names))
    return i_sco, i_obs
