"""One-compartment oral-absorption pharmacokinetic mixed models.

Structural model for dose d at time t with absorption rate ka, volume V and
clearance Cl, written with u = Cl t / V and y = -|ka t - u|:

    pred = d ka / (V ka - Cl) [exp(-u) - exp(-ka t)]
         = (d ka t / V) exp(-min(ka t, u)) g(y),   g(y) = expm1(y) / y,  g(0) = 1.

Since y <= 0, g(y) lies in (0, 1] and exp(-min(ka t, u)) <= 1, so no factor
can overflow at any rate or time, and expm1 keeps the removable singularity
at V ka = Cl (y = 0) and the cancellation around it free of precision loss.
At t = 0 the prediction and its V-derivative are exactly 0.  Two
hierarchical variants:

* ``PkNlmeModel`` - all three individual parameters are lognormal random
  effects; the complete likelihood is curved-exponential with statistics
  (log-parameters, their squares, residual sum of squares).
* ``PkFixedVModel`` - V is a fixed effect shared across individuals, which
  breaks the exponential-family form; fitting goes through the general
  stochastic algorithm with a nested 1-D profile search over V.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..errors import DomainViolation, MStepFailure
from ..modelbase import ExpoFamilyModel, LatentModel
from ..params import ParamVector

_LOG2PI = np.log(2.0 * np.pi)

# latent coordinate order: (log ka_i, log Cl_i, log V_i)
_LAT_NAMES = ("log_ka", "log_cl", "log_v")

# below this |y|, g and the derivative factor h come from their series:
# the direct forms of h lose digits to cancellation there, and y = 0 is 0/0
_SERIES = 1e-4


def _pk_core(kat, clt, dkat, V, dv=False):
    """pred from the factors ka t, Cl t and d ka t, plus dpred/dV if ``dv``.

    With P = (d ka t / V) exp(-min(ka t, u)), pred = P g(y) and

        V dpred/dV = P u h - pred,   h = g'(y)                   where ka t < u,
                                     h = (expm1(y) - y) / y^2    otherwise,

    the second being g(y) - g'(y).  Broadcasts over all arguments.
    """
    u = clt / V
    P = np.exp(-np.minimum(kat, u)) * dkat
    P /= V
    y = np.asarray(-np.abs(kat - u))
    small = y > -_SERIES
    ys = y[small] if small.any() else None
    if ys is not None:
        y[small] = -1.0  # keeps the divides finite; the series replaces them
    em = np.expm1(y)
    g = np.asarray(em / y)
    if ys is not None:
        g[small] = 1.0 + ys / 2.0 + ys**2 / 6.0 + ys**3 / 24.0
    if dv:
        lo = np.asarray(kat < u)
        h = em - y
        h = np.where(lo, y * em - h, h)  # y^2 g'(y) where ka t < u
        h /= y
        h /= y
        if ys is not None:
            h[small] = np.where(
                lo[small],
                0.5 + ys / 3.0 + ys**2 / 8.0 + ys**3 / 30.0,
                0.5 + ys / 6.0 + ys**2 / 24.0 + ys**3 / 120.0,
            )
        h *= u
        h -= g
        h = h * P
        h /= V
    P *= g
    return (P, h) if dv else P


def pk_prediction(dose, t, ka, V, Cl):
    """Concentration at times t; broadcasts over all arguments."""
    t = np.asarray(t, dtype=float)
    kat = ka * t
    return _pk_core(kat, Cl * t, dose * kat, V)


def _design_arrays(dataset: Dataset):
    """(Y, T, doses): the dataset's (n, J) observations and times and its n
    doses.  Records shorter than J are padded with t = 0 and y = 0, where the
    prediction and its V-derivative are exactly 0, so a padded slot adds
    exactly 0 to every residual sum."""
    if dataset.times is None or dataset.doses is None:
        raise DomainViolation("pk records need times and dose")
    return dataset.y, dataset.times, dataset.doses


def _rss_per_individual(dataset, Z, V_fixed=None):
    """Residual sum of squares per individual at latent log-parameters Z.

    The dataset keeps the last result with a copy of its Z and V_fixed; a
    call at equal values returns that result, read-only.  An SAEM iteration
    asks for the same sums several times (statistics, then the Louis score
    and Hessian, then the next MH target refresh), and so does the oracle
    (weights, score and Hessian at one set of draws).
    """
    last = dataset.memo("pk_rss_last", dict)
    prev = last.get("Z")
    if (
        prev is not None and last["V_fixed"] == V_fixed
        and prev.shape == Z.shape and (prev == Z).all()
    ):
        return last["rss"]
    Y, T, doses = _design_arrays(dataset)
    # a latent far enough out to overflow exp leaves its row's sum non-finite,
    # which complete_loglik reads as -inf: no warning is due
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ka = np.exp(Z[:, 0])
        cl = np.exp(Z[:, 1])
        v = np.full(dataset.n, V_fixed) if V_fixed is not None else np.exp(Z[:, 2])
        pred = pk_prediction(doses[:, None], T, ka[:, None], v[:, None], cl[:, None])
        rss = ((Y - pred) ** 2).sum(axis=1)
    rss.setflags(write=False)
    last.update(Z=np.array(Z, dtype=float), V_fixed=V_fixed, rss=rss)
    return rss


def _crude_individual_fits(dataset: Dataset):
    """Per-individual (ka, V, Cl) from classic moment heuristics.

    Cl from dose/AUC (trapezoid plus terminal-tail extrapolation), V from
    Cl over the terminal log-linear slope, ka from the time of the peak.
    """
    fits = []
    for r in dataset.records:
        t, y, d = r.times, np.maximum(r.y, 1e-6), r.dose
        auc = np.trapezoid(y, t)
        tail = y[-3:]
        ttail = t[-3:]
        slope, _ = np.polyfit(ttail, np.log(tail), 1)
        ke = max(-slope, 1e-3)
        auc += y[-1] / ke
        cl = d / max(auc, 1e-8)
        v = cl / ke
        tpeak = t[np.argmax(y)]
        ka = 3.0 / max(tpeak, t[0])
        fits.append((ka, v, cl))
    return np.array(fits)


class PkNlmeModel(ExpoFamilyModel):
    """Exponential-family PK model: (ka, V, Cl) all random effects.

    The prediction is symmetric in ka and ke = Cl/V (flip-flop), so p(z | y)
    has a mirror mode that differs from the main one only through the prior.
    ``mirror_latents`` exposes that map; the SAEM engines propose it once per
    iteration next to per-chain random-walk proposals learned over the second
    half of burn-in and frozen after it, and the conditional-moment oracle
    checks it when it fits a conditional mode.
    """

    name = "pk_nlme"
    param_names = ("ka", "V", "Cl", "omega2_ka", "omega2_V", "omega2_Cl", "sigma2")
    latent_dim = 3
    stat_dim = 7

    # theta indices of the population and variance parameter per latent coord
    _POP = (0, 2, 1)
    _OM = (3, 5, 4)

    def validate_params(self, theta: ParamVector) -> None:
        self._check_dim(theta)
        for name, v in zip(self.param_names, theta.values):
            if not v > 0:
                raise DomainViolation(f"{name} must be positive, got {v}", component=name)

    def _unpack(self, theta):
        v = theta.values
        pops = np.array([v[i] for i in self._POP])  # (ka, Cl, V) latent order
        oms = np.array([v[i] for i in self._OM])
        return pops, oms, v[6]

    # --- complete data -----------------------------------------------------
    def complete_loglik(self, dataset, Z, theta):
        pops, oms, sigma2 = self._unpack(theta)
        J = dataset.n_obs().astype(float)
        dev = Z - np.log(pops)
        prior = (-0.5 * (_LOG2PI + np.log(oms)) - dev**2 / (2.0 * oms)).sum(axis=1)
        rss = _rss_per_individual(dataset, Z)
        out = prior - 0.5 * J * (_LOG2PI + np.log(sigma2)) - rss / (2.0 * sigma2)
        return np.where(np.isfinite(out), out, -np.inf)

    def complete_score(self, dataset, Z, theta):
        pops, oms, sigma2 = self._unpack(theta)
        J = dataset.n_obs().astype(float)
        dev = Z - np.log(pops)
        rss = _rss_per_individual(dataset, Z)
        out = np.zeros((dataset.n, 7))
        for c in range(3):
            out[:, self._POP[c]] = dev[:, c] / (oms[c] * pops[c])
            out[:, self._OM[c]] = -0.5 / oms[c] + dev[:, c] ** 2 / (2.0 * oms[c] ** 2)
        out[:, 6] = -J / (2.0 * sigma2) + rss / (2.0 * sigma2**2)
        return out

    def complete_hessian(self, dataset, Z, theta):
        pops, oms, sigma2 = self._unpack(theta)
        J = dataset.n_obs().astype(float)
        dev = Z - np.log(pops)
        rss = _rss_per_individual(dataset, Z)
        H = np.zeros((dataset.n, 7, 7))
        for c in range(3):
            ip, io = self._POP[c], self._OM[c]
            H[:, ip, ip] = -(1.0 + dev[:, c]) / (oms[c] * pops[c] ** 2)
            H[:, io, io] = 0.5 / oms[c] ** 2 - dev[:, c] ** 2 / oms[c] ** 3
            H[:, ip, io] = H[:, io, ip] = -dev[:, c] / (oms[c] ** 2 * pops[c])
        H[:, 6, 6] = J / (2.0 * sigma2**2) - rss / sigma2**3
        return H

    # --- simulation / sampling ---------------------------------------------
    def simulate(self, theta, design, rng):
        if design.times is None or design.dose is None:
            raise DomainViolation("pk design needs times and dose")
        pops, oms, sigma2 = self._unpack(theta)
        n = design.n
        Z = np.log(pops) + rng.standard_normal((n, 3)) * np.sqrt(oms)
        ka, cl, v = np.exp(Z[:, 0]), np.exp(Z[:, 1]), np.exp(Z[:, 2])
        T = np.asarray(design.times, dtype=float)
        pred = pk_prediction(design.dose, T[None, :], ka[:, None], v[:, None], cl[:, None])
        y = pred + rng.standard_normal((n, T.size)) * np.sqrt(sigma2)
        return Dataset.from_arrays(
            y, times=np.broadcast_to(T, y.shape), doses=np.full(n, design.dose), latent_truth=Z
        )

    def initial_latents(self, dataset, theta, rng):
        pops, oms, _ = self._unpack(theta)
        return np.log(pops) + rng.standard_normal((dataset.n, 3)) * np.sqrt(oms)

    def default_proposal_scales(self, theta):
        _, oms, _ = self._unpack(theta)
        return 0.4 * np.sqrt(oms)

    def mirror_latents(self, Z):
        """(log ka, log Cl, log V) -> (log Cl - log V, log Cl, log Cl - log ka):
        swaps ka with ke = Cl/V at fixed Cl, leaving pk_prediction unchanged."""
        log_ka, log_cl, log_v = Z[:, 0], Z[:, 1], Z[:, 2]
        return np.column_stack([log_cl - log_v, log_cl, log_cl - log_ka])

    def initial_theta(self, dataset):
        fits = _crude_individual_fits(dataset)
        logs = np.log(np.clip(fits, 1e-4, 1e6))  # columns (ka, V, Cl)
        med = np.median(logs, axis=0)
        spread = np.clip(np.var(logs, axis=0), 0.05, 2.0)
        ka0, v0, cl0 = np.exp(med)
        Z0 = np.column_stack([logs[:, 0], logs[:, 2], logs[:, 1]])
        rss = _rss_per_individual(dataset, Z0)
        Jtot = float(dataset.n_obs().sum())
        sigma20 = float(np.clip(rss.sum() / Jtot, 1e-4, None))
        return self.make_params(
            [ka0, v0, cl0, spread[0], spread[1], spread[2], sigma20]
        )

    # --- exponential family -------------------------------------------------
    def statistics(self, dataset, Z):
        rss = _rss_per_individual(dataset, Z)
        return np.column_stack([Z, Z**2, rss])

    def dpsi(self, dataset, theta):
        pops, oms, sigma2 = self._unpack(theta)
        J = dataset.n_obs().astype(float)
        out = np.zeros((dataset.n, 7))
        for c in range(3):
            out[:, self._POP[c]] = np.log(pops[c]) / (oms[c] * pops[c])
            out[:, self._OM[c]] = 0.5 / oms[c] - np.log(pops[c]) ** 2 / (2.0 * oms[c] ** 2)
        out[:, 6] = 0.5 * J / sigma2
        return out

    def dphi(self, dataset, theta):
        pops, oms, sigma2 = self._unpack(theta)
        out = np.zeros((dataset.n, 7, 7))
        for c in range(3):
            ip, io = self._POP[c], self._OM[c]
            out[:, c, ip] = 1.0 / (oms[c] * pops[c])
            out[:, c, io] = -np.log(pops[c]) / oms[c] ** 2
            out[:, 3 + c, io] = 0.5 / oms[c] ** 2
        out[:, 6, 6] = 0.5 / sigma2**2
        return out

    def argmax_complete(self, dataset, stats):
        J = dataset.n_obs().astype(float)
        m1 = stats[:, :3].mean(axis=0)
        m2 = stats[:, 3:6].mean(axis=0)
        oms = m2 - m1**2
        sigma2 = stats[:, 6].sum() / J.sum()
        if sigma2 < 0 or np.any(oms < 0):
            raise MStepFailure("negative variance statistic", stats=stats)
        oms = np.maximum(oms, 1e-10)  # transient boundary hits are clamped
        sigma2 = max(sigma2, 1e-10)
        vals = np.empty(7)
        for c in range(3):
            vals[self._POP[c]] = np.exp(m1[c])
            vals[self._OM[c]] = oms[c]
        vals[6] = sigma2
        return self.make_params(vals)


class PkFixedVModel(LatentModel):
    """PK model with V a fixed effect: not curved-exponential."""

    name = "pk_nlme_fixed_v"
    param_names = ("ka", "V", "Cl", "omega2_ka", "omega2_Cl", "sigma2")
    latent_dim = 2

    _POP = (0, 2)  # theta indices for (ka, Cl)
    _OM = (3, 4)

    def validate_params(self, theta: ParamVector) -> None:
        self._check_dim(theta)
        for name, v in zip(self.param_names, theta.values):
            if not v > 0:
                raise DomainViolation(f"{name} must be positive, got {v}", component=name)

    def _unpack(self, theta):
        v = theta.values
        return np.array([v[0], v[2]]), v[1], np.array([v[3], v[4]]), v[5]

    def complete_loglik(self, dataset, Z, theta):
        pops, V, oms, sigma2 = self._unpack(theta)
        J = dataset.n_obs().astype(float)
        dev = Z - np.log(pops)
        prior = (-0.5 * (_LOG2PI + np.log(oms)) - dev**2 / (2.0 * oms)).sum(axis=1)
        rss = _rss_per_individual(dataset, Z, V_fixed=V)
        out = prior - 0.5 * J * (_LOG2PI + np.log(sigma2)) - rss / (2.0 * sigma2)
        return np.where(np.isfinite(out), out, -np.inf)

    def complete_score(self, dataset, Z, theta):
        pops, V, oms, sigma2 = self._unpack(theta)
        J = dataset.n_obs().astype(float)
        dev = Z - np.log(pops)
        Y, T, doses = _design_arrays(dataset)
        kat = np.exp(Z[:, :1]) * T
        pred, dv = _pk_core(kat, np.exp(Z[:, 1:]) * T, doses[:, None] * kat, V, dv=True)
        resid = Y - pred
        out = np.zeros((dataset.n, 6))
        for c in range(2):
            out[:, self._POP[c]] = dev[:, c] / (oms[c] * pops[c])
            out[:, self._OM[c]] = -0.5 / oms[c] + dev[:, c] ** 2 / (2.0 * oms[c] ** 2)
        out[:, 1] = (resid * dv).sum(axis=1) / sigma2
        out[:, 5] = -J / (2.0 * sigma2) + (resid**2).sum(axis=1) / (2.0 * sigma2**2)
        return out

    def simulate(self, theta, design, rng):
        if design.times is None or design.dose is None:
            raise DomainViolation("pk design needs times and dose")
        pops, V, oms, sigma2 = self._unpack(theta)
        n = design.n
        Z = np.log(pops) + rng.standard_normal((n, 2)) * np.sqrt(oms)
        ka, cl = np.exp(Z[:, 0]), np.exp(Z[:, 1])
        T = np.asarray(design.times, dtype=float)
        pred = pk_prediction(design.dose, T[None, :], ka[:, None], V, cl[:, None])
        y = pred + rng.standard_normal((n, T.size)) * np.sqrt(sigma2)
        return Dataset.from_arrays(
            y, times=np.broadcast_to(T, y.shape), doses=np.full(n, design.dose), latent_truth=Z
        )

    def initial_latents(self, dataset, theta, rng):
        pops, _, oms, _ = self._unpack(theta)
        return np.log(pops) + rng.standard_normal((dataset.n, 2)) * np.sqrt(oms)

    def default_proposal_scales(self, theta):
        _, _, oms, _ = self._unpack(theta)
        return 0.4 * np.sqrt(oms)

    def initial_theta(self, dataset):
        fits = _crude_individual_fits(dataset)
        logs = np.log(np.clip(fits, 1e-4, 1e6))
        med = np.median(logs, axis=0)
        spread = np.clip(np.var(logs, axis=0), 0.05, 2.0)
        ka0, v0, cl0 = np.exp(med)
        Z0 = np.column_stack([logs[:, 0], logs[:, 2]])
        rss = _rss_per_individual(dataset, Z0, V_fixed=v0)
        sigma20 = float(np.clip(rss.sum() / dataset.n_obs().sum(), 1e-4, None))
        return self.make_params([ka0, v0, cl0, spread[0], spread[2], sigma20])

    # --- weighted complete-data maximization (general-algorithm M-step) -----
    def maximize_weighted(self, dataset, buffer, theta_init):
        """argmax of sum_l w_l sum_i log f(y_i, z_i^l; theta) over the
        entries l of a nonempty sample buffer (``maximize_q`` checks it).

        ka, Cl and their variances are closed-form in the weighted latent
        moments; V is a 1-D profile (``_profile_v``: a Gauss-Newton first
        step, then a safeguarded secant on the derivative of the weighted
        residual sum, with a bounded-Brent fallback) and sigma2 is
        closed-form given V.  The profile (``_FusedProfile``) runs on the
        entries' ``_profile_factors``, which the buffer computes once per
        entry and keeps.
        """
        wn = buffer.weights / buffer.total_weight
        m1 = np.einsum("l,lic->c", wn, buffer.latents) / dataset.n
        m2 = np.einsum("l,lic->c", wn, buffer.latents**2) / dataset.n
        oms = np.maximum(m2 - m1**2, 1e-10)

        Y, T, D = _design_arrays(dataset)
        factors = buffer.derived("profile_factors", dataset, lambda Z: _profile_factors(T, D, Z))
        V, rss_at_v = _profile_v(_FusedProfile(Y, factors, wn), float(theta_init.values[1]))
        sigma2 = max(rss_at_v / float(dataset.n_obs().sum()), 1e-10)
        return self.make_params([np.exp(m1[0]), V, np.exp(m1[1]), oms[0], oms[1], sigma2])


# buffer entries per pass of _FusedProfile: a block's (B, n, J) arrays take
# about 1.3 kB per observation, so they stay in a 2 MiB L2 cache at the desk
# (n J = 600) and paper (n J = 1000) designs
_PROFILE_BLOCK = 16


def _profile_factors(T, D, Z):
    """(m, 3, n, J) V-independent factors ka t, Cl t and dose ka t of the
    (m, n, 2) latent entries Z on the design's (n, J) times T and n doses D."""
    kat = np.exp(Z[:, :, :1]) * T
    return np.stack([kat, np.exp(Z[:, :, 1:]) * T, D[:, None] * kat], axis=1)


class _FusedProfile:
    """(rss, d rss/dV, Gauss-Newton curvature) of the weighted buffer objective

        rss(V) = sum_l w_l sum_ij (y_ij - pred(t_ij; ka_il, V, Cl_il))^2

    through the prediction core ``_pk_core``, from the (L, 3, n, J)
    ``_profile_factors`` of the buffer entries l and their weights W, in
    blocks of _PROFILE_BLOCK entries so each block's temporaries stay in
    cache.  The curvature 2 sum w (dpred/dV)^2 is _profile_v's first step."""

    def __init__(self, Y, factors, W):
        self.Y, self.factors, self.W = Y, factors, W

    def __call__(self, V):
        rss = rdv = dvdv = 0.0
        for s in range(0, len(self.W), _PROFILE_BLOCK):
            b = slice(s, s + _PROFILE_BLOCK)
            F = self.factors[b]
            pred, dv = _pk_core(F[:, 0], F[:, 1], F[:, 2], V, dv=True)
            resid = np.subtract(self.Y, pred, out=pred)
            w = self.W[b, None, None]
            wx = resid * w
            rss += np.vdot(wx, resid)
            rdv += np.vdot(wx, dv)
            np.multiply(dv, w, out=wx)
            dvdv += np.vdot(wx, dv)
        return float(rss), float(-2.0 * rdv), float(2.0 * dvdv)


def _profile_v(evaluate, V0, max_iter=40):
    """Minimize the 1-D profile over [V0/4, 4 V0]; returns (V, rss(V)).

    ``evaluate(V)`` returns (rss, d rss/dV, curvature), the curvature None
    where the caller has none.  The first step is the Gauss-Newton step
    V0 - g0 / curvature, else a 1e-4 V0 probe downhill; from there a
    safeguarded secant on the derivative runs, with a bounded-Brent fallback.
    """
    lo, hi = V0 / 4.0, 4.0 * V0
    f0, g0, c0 = evaluate(V0)
    gtol = 1e-8 * (1.0 + abs(f0))
    if abs(g0) < gtol:
        return V0, f0
    V1 = float(np.clip(V0 - g0 / c0, lo, hi)) if c0 is not None and c0 > 0 else V0
    if V1 == V0:
        V1 = float(np.clip(V0 + 1e-4 * V0 * (-1.0 if g0 > 0 else 1.0), lo, hi))
    f1, g1, _ = evaluate(V1)
    Va, ga, fa, Vb, gb, fb = V0, g0, f0, V1, g1, f1
    for _ in range(max_iter):
        if abs(gb) < gtol:
            return Vb, fb
        if gb == ga:
            break
        Vn = float(np.clip(Vb - gb * (Vb - Va) / (gb - ga), lo, hi))
        if Vn == Vb:
            break
        fn, gn, _ = evaluate(Vn)
        # keep the two iterates with smallest |derivative|
        if abs(gn) > abs(gb):
            Vn = 0.5 * (Vn + Vb)
            fn, gn, _ = evaluate(Vn)
        Va, ga, fa = Vb, gb, fb
        Vb, gb, fb = Vn, gn, fn
    if abs(gb) < 10.0 * gtol:
        return Vb, fb
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda v: evaluate(v)[0], bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10 * V0},
    )
    Vr = float(res.x)
    return Vr, evaluate(Vr)[0]
