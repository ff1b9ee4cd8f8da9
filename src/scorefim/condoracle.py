"""Monte-Carlo conditional-expectation oracle for reference FIM values.

For a fixed dataset and reference theta, estimates per individual the
conditional moments of the complete score and Hessian given y_i via
self-normalized importance sampling from a multivariate-t proposal centered
at the conditional mode (Laplace fit).  The modes of all individuals are fit
together, by damped Newton solves whose central differences are
whole-dataset ``complete_loglik`` calls: one from a prior draw, one from the
median of the modes it found (a start far out can stop in a poor local
mode) and, for models with a latent mirror (the PK flip-flop map), one from
the image of each mode whose image is more probable, so no proposal is
centered on a mirror mode that carries almost no conditional mass.  The
moments feed the reference matrices the stochastic-approximation
trajectories are judged against:

    I_sco_ref = (1/n) sum_i E[s_i|y_i] E[s_i|y_i]^t
    I_obs_ref = -(1/n) sum_i (E[H_i|y_i] + Cov[s_i|y_i])
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .fim import _MC_BLOCK, FimMatrix, _carried_sum, _symmetrize_exact
from .modelbase import LatentModel
from .parallel import pmap
from .params import ParamVector
from .rng import substream

# Newton solve of the conditional modes, all in latent (log) coordinates
_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-8  # a row has converged once its Newton step is below this
_MAX_STEP = 1.0  # largest step per row and coordinate
_MAX_HALVINGS = 40
_EIG_FLOOR = 1e-4  # eigenvalue floor of the curvature
_T_DF = 5.0  # degrees of freedom of the multivariate-t proposal
MIN_ESS = 200.0  # smallest importance-sampling ESS an individual may have


@dataclass(frozen=True)
class ConditionalMoments:
    escore: np.ndarray  # (n, p)   E[score | y]
    escore_outer: np.ndarray  # (n, p, p) E[score score^t | y]
    ehessian: np.ndarray | None  # (n, p, p) E[H | y]
    ess: np.ndarray  # (n,) importance-sampling effective sample sizes
    fit_s: float  # seconds spent in the Laplace fit
    newton_iterations: int  # batched Newton iterations over all solves
    mirror_refits: int  # rows refit from the image of their first mode
    unconverged: tuple[int, ...]  # rows that hit the iteration limit


def _neg_loglik_derivatives(model, dataset, theta, Z):
    """(f, gradient, Hessian) of f = -complete_loglik per row at Z (n, d).

    Central differences with steps h = 1e-4 max(1, |z|); each difference is
    one call on the whole dataset, 1 + 2d^2 calls in all.
    """
    n, d = Z.shape
    h = 1e-4 * np.maximum(1.0, np.abs(Z))
    shift = [h[:, a, None] * np.eye(d)[a] for a in range(d)]

    def f(U):
        return -model.complete_loglik(dataset, U, theta)

    f0 = f(Z)
    grad = np.empty((n, d))
    hess = np.empty((n, d, d))
    for a in range(d):
        up, down = f(Z + shift[a]), f(Z - shift[a])
        grad[:, a] = (up - down) / (2.0 * h[:, a])
        hess[:, a, a] = (up - 2.0 * f0 + down) / h[:, a] ** 2
        for b in range(a + 1, d):
            hess[:, a, b] = hess[:, b, a] = (
                f(Z + shift[a] + shift[b]) - f(Z + shift[a] - shift[b])
                - f(Z - shift[a] + shift[b]) + f(Z - shift[a] - shift[b])
            ) / (4.0 * h[:, a] * h[:, b])
    return f0, grad, hess


def _newton(model, dataset, theta, Z):
    """Damped Newton descent of -complete_loglik, every row at once.

    Each row's step uses its Hessian with absolute eigenvalues floored, is
    capped at _MAX_STEP per coordinate and halved while the trial value is
    non-finite or not lower.  Returns (modes, f at the modes, iterations,
    mask of the rows that hit _NEWTON_MAX_ITER unconverged).
    """
    Z = np.array(Z, dtype=float)
    done = np.zeros(Z.shape[0], dtype=bool)
    iterations = 0
    while iterations < _NEWTON_MAX_ITER and not done.all():
        iterations += 1
        f, grad, hess = _neg_loglik_derivatives(model, dataset, theta, Z)
        w, v = np.linalg.eigh(hess)
        w = np.maximum(np.abs(w), _EIG_FLOOR)
        step = -np.einsum("nab,nb,ncb,nc->na", v, 1.0 / w, v, grad)
        size = np.abs(step).max(axis=1)
        done |= size < _NEWTON_TOL
        step *= (_MAX_STEP / np.maximum(size, _MAX_STEP))[:, None]
        t = np.where(done, 0.0, 1.0)
        for _ in range(_MAX_HALVINGS):
            trial = Z + t[:, None] * step
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                f_trial = -model.complete_loglik(dataset, trial, theta)
            worse = (t > 0) & ~(f_trial < f)  # a NaN trial is never lower
            if not worse.any():
                break
            t[worse] *= 0.5
            # a step halved below the tolerance that still gains nothing
            # leaves its row at a minimum, to rounding
            stalled = worse & (t * np.abs(step).max(axis=1) < _NEWTON_TOL)
            done |= stalled
            t[stalled] = 0.0
        Z += t[:, None] * step
    return Z, -model.complete_loglik(dataset, Z, theta), iterations, ~done


def _solve_again(model, dataset, theta, fit, rows, starts) -> int:
    """Solve ``rows`` again from ``starts``; each keeps the better of its two
    modes, updating ``fit`` = (modes, f, stuck) in place.  Returns the
    iterations spent."""
    modes, f, stuck = fit
    alt, f_alt, iterations, alt_stuck = _newton(model, dataset.subset(rows), theta, starts)
    better = f_alt < f[rows]
    modes[rows[better]] = alt[better]
    f[rows[better]] = f_alt[better]
    stuck[rows[better]] = alt_stuck[better]
    return iterations


def _laplace_fit(model, dataset, theta, Z0, report=None):
    """Conditional modes (n, d) and curvature covariances (n, d, d) of all
    individuals, by batched Newton solves over all rows, the first started
    from Z0 (n, d).

    A solve started far out can stop in a poor local mode, so every row is
    solved again from the median of the first modes.  For a model with a
    latent mirror a solve may also stop in a mirror mode; the rows whose
    image of the fitted mode is more probable are solved again from the
    image.  Each row keeps the best mode it reached.  The covariance is the
    inverse central-difference Hessian of -complete_loglik at the mode, its
    eigenvalues floored at _EIG_FLOOR.  A dict passed as ``report`` receives
    the Newton iterations, the number of mirror refits and the indices of
    the rows that hit the iteration limit.
    """
    modes, f, iterations, stuck = _newton(model, dataset, theta, Z0)
    fit = (modes, f, stuck)
    every = np.arange(dataset.n)
    center = np.broadcast_to(np.median(modes, axis=0), modes.shape)
    iterations += _solve_again(model, dataset, theta, fit, every, center)
    rows = every[:0]
    if model.has_mirror:
        image = model.mirror_latents(modes)
        rows = np.flatnonzero(-model.complete_loglik(dataset, image, theta) < f)
        if rows.size:
            iterations += _solve_again(model, dataset, theta, fit, rows, image[rows])
    _, _, hess = _neg_loglik_derivatives(model, dataset, theta, modes)
    w, v = np.linalg.eigh(hess)
    w = np.maximum(w, _EIG_FLOOR)
    covs = np.einsum("nab,nb,ncb->nac", v, 1.0 / w, v)
    if report is not None:
        report.update(
            iterations=iterations, mirror_refits=int(rows.size),
            unconverged=tuple(np.flatnonzero(stuck).tolist()),
        )
    return modes, covs


def _mvt_draws(mode, cov, size, rng):
    """``size`` multivariate-t draws (_T_DF degrees of freedom) centered at
    ``mode`` and their log density ``logq``, known up to a constant: the t
    normalizing term in df and d is left out, since it cancels in the
    self-normalized weights."""
    d = mode.size
    L = np.linalg.cholesky(cov * 1.5)  # inflate for tail cover
    g = rng.standard_normal((size, d))
    chi = rng.chisquare(_T_DF, size=size)
    draws = mode + (g @ L.T) / np.sqrt(chi / _T_DF)[:, None]
    dev = draws - mode
    sol = np.linalg.solve(L, dev.T).T
    maha = (sol**2).sum(axis=1)
    logdet = 2.0 * np.log(np.diag(L)).sum()
    logq = -0.5 * logdet - 0.5 * (_T_DF + d) * np.log1p(maha / _T_DF)
    return draws, logq


def _individual_moments(task):
    """(E[s | y_i], E[s s^t | y_i], E[H | y_i] or None, ESS) for one individual.

    ``task`` carries the individual's one-row subset and its Laplace mode and
    covariance, not the dataset; its draws come from stream (seed, 2, i), so
    the result does not depend on which process computes it.  The model is
    evaluated _MC_BLOCK draws at a time, each block on a dataset of its own
    kept from the weight pass to the moment pass, so its score and Hessian
    reuse what its log-likelihood call kept (the PK residual sums); E[H | y]
    is summed block by block in draw order.
    """
    model, one, theta, mode, cov, i, n_draws, seed, min_ess = task
    draws, logq = _mvt_draws(mode, cov, n_draws, substream(seed, 2, i))
    blocks = [
        (slice(s, s + _MC_BLOCK), one.replicate(min(_MC_BLOCK, n_draws - s)))
        for s in range(0, n_draws, _MC_BLOCK)
    ]
    logf = np.concatenate([model.complete_loglik(rep, draws[b], theta) for b, rep in blocks])
    lw = logf - logq
    lw -= lw.max()
    w = np.exp(lw)
    w /= w.sum()
    ess = 1.0 / float((w**2).sum())
    if ess < min_ess:
        raise NumericalError(
            f"importance sampling degenerate for individual {i} (ESS {ess:.1f})"
        )
    # a draw whose latents overflow exp has weight exactly 0 but may have a
    # NaN score or Hessian; zero those rows in place rather than drop them, so
    # that 0 x NaN cannot spoil the moments and the summation order stays
    dead = w == 0
    has_hessian = model.has_complete_hessian
    sc = np.empty((n_draws, theta.p))
    ehess = np.zeros((theta.p, theta.p)) if has_hessian else None
    for b, rep in blocks:
        sc[b] = model.complete_score(rep, draws[b], theta)
        if has_hessian:
            hess = model.complete_hessian(rep, draws[b], theta)
            hess[dead[b]] = 0.0
            ehess = _carried_sum(np.multiply(w[b, None, None], hess, out=hess), ehess)
    sc[dead] = 0.0
    return w @ sc, np.einsum("b,bj,bk->jk", w, sc, sc), ehess, ess


def conditional_moments(
    model: LatentModel,
    dataset: Dataset,
    theta: ParamVector,
    n_draws: int = 100_000,
    seed: int = 0,
    min_ess: float = MIN_ESS,
    threads: int = 1,
) -> ConditionalMoments:
    """Per-individual conditional moments at theta by Laplace-IS.

    The Laplace fit of all individuals is one batched Newton solve in this
    process, started from one shared prior draw (stream (seed, 12345)); its
    time, iterations, mirror refits and any rows that hit the iteration limit
    are reported on the result, which does not raise for them.  The
    individuals' importance sampling then fans out over ``threads`` worker
    processes, one task per individual carrying its mode and covariance; the
    proposal draws of individual i come from stream (seed, 2, i) and results
    are stacked in index order, so the moments are bitwise the same for any
    worker count.  A task's draws are evaluated in blocks of _MC_BLOCK, so
    its working set is bounded by the block, not by the draws, apart from a
    few vectors of one entry or one score per draw.  An individual whose
    importance weights have an ESS below ``min_ess`` raises NumericalError;
    when several do, the error names the first in index order.
    """
    z_start = model.initial_latents(dataset, theta, substream(seed, 12345))
    fit = {}
    t0 = time.perf_counter()
    modes, covs = _laplace_fit(model, dataset, theta, z_start, report=fit)
    fit_s = time.perf_counter() - t0
    tasks = [
        # subset cuts row i to its n_obs; zero padding could regroup a row sum
        (model, dataset.subset([i]), theta, modes[i], covs[i], i, n_draws, seed, min_ess)
        for i in range(dataset.n)
    ]
    escore, eouter, ehess, ess = zip(*pmap(_individual_moments, tasks, threads))
    return ConditionalMoments(
        np.stack(escore), np.stack(eouter),
        np.stack(ehess) if model.has_complete_hessian else None, np.array(ess),
        fit_s=fit_s, newton_iterations=fit["iterations"],
        mirror_refits=fit["mirror_refits"], unconverged=fit["unconverged"],
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
