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


def _pk_core(kat, clt, dkat, V, dv=False, scratch=None):
    """pred from the factors ka t, Cl t and d ka t, plus dpred/dV if ``dv``.

    With P = (d ka t / V) exp(-min(ka t, u)), pred = P g(y) and

        V dpred/dV = P (ka t g'(y) - exp(y))      where ka t < u,
                   = P (u h - g(y)),   h = (expm1(y) - y) / y^2   otherwise,

    h being g(y) - g'(y).  Where ka t < u, y = ka t - u and y g' + g = exp(y)
    turn u g' - g into the first form, whose terms do not cancel when
    ka t << u.  Broadcasts over all arguments (with ``dv``, d ka t adds no
    dimension to the others).  Each step writes in place: into arrays of its
    own, or into ``scratch`` (``_core_scratch`` of the broadcast shape), which
    a caller evaluating many blocks passes in to reuse; the results are then
    views into it.
    """
    u, y, pred, em, g, t, small, lo = scratch or (None,) * 8
    u = np.divide(clt, V, out=u)
    P = np.asarray(np.minimum(kat, u, out=pred))  # 0-d, not a scalar, for scalar factors
    np.negative(P, out=P)
    np.exp(P, out=P)
    pred = np.multiply(P, dkat, out=pred)
    pred /= V  # P
    y = np.asarray(np.subtract(kat, u, out=y))
    np.abs(y, out=y)
    np.negative(y, out=y)
    small = np.greater(y, -_SERIES, out=small)
    ys = y[small] if np.count_nonzero(small) else None
    if ys is not None:
        y[small] = -1.0  # keeps the divides finite; the series replaces them
    em = np.asarray(np.expm1(y, out=em))
    g = np.asarray(np.divide(em, y, out=g))
    if ys is not None:
        g[small] = 1.0 + ys / 2.0 + ys**2 / 6.0 + ys**3 / 24.0
    if dv:
        lo = np.less(kat, u, out=lo)
        flip = np.count_nonzero(lo) > 0  # else the five passes where=lo write nothing
        h = em  # expm1(y) is read for the last time here
        if flip:
            t = np.asarray(np.multiply(y, em, out=t, where=lo))
        h -= y
        if flip:
            np.subtract(t, h, out=h, where=lo)  # y^2 g'(y) where ka t < u
        h /= y
        h /= y
        if ys is not None:
            h[small] = np.where(
                lo[small],
                0.5 + ys / 3.0 + ys**2 / 8.0 + ys**3 / 30.0,
                0.5 + ys / 6.0 + ys**2 / 24.0 + ys**3 / 120.0,
            )
            y[small] = ys
        t = np.asarray(np.multiply(h, u, out=t))
        t -= g
        if flip:
            np.multiply(h, kat, out=h, where=lo)
            with np.errstate(under="ignore"):  # exp(y) -> 0 is the exact limit
                np.exp(y, out=y, where=lo)
            np.subtract(h, y, out=t, where=lo)
        t *= pred
        t /= V
    pred *= g
    return (pred, t) if dv else pred


def _core_scratch(shape):
    """The six float and two boolean work arrays of ``_pk_core``."""
    return [np.empty(shape) for _ in range(6)] + [np.empty(shape, dtype=bool) for _ in range(2)]


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

    The dataset keeps the last result under the bytes of Z and V_fixed; a
    call with the same bits returns that result, read-only.  An SAEM
    iteration asks for the same sums several times (statistics, then the
    Louis score and Hessian, then the next MH target refresh), and so does
    the oracle (weights, score and Hessian at one set of draws).
    """
    last = dataset.memo("pk_rss_last", dict)
    key = (Z.shape, Z.tobytes(), V_fixed)
    if last.get("key") == key:
        return last["rss"]
    Y, T, doses = _design_arrays(dataset)
    # a latent far enough out to overflow exp leaves its row's sum non-finite,
    # which complete_loglik reads as -inf: no warning is due
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        E = np.exp(Z)  # columns (ka, Cl, V)
        v = E[:, 2:] if V_fixed is None else V_fixed
        pred = pk_prediction(doses[:, None], T, E[:, :1], v, E[:, 1:2])
        # a fresh array, not pred: a column-major design makes pred
        # column-major, and a row sum there adds in another order
        resid = Y - pred
        rss = np.add.reduce(np.square(resid, out=resid), axis=1)
    rss.setflags(write=False)
    last.update(key=key, rss=rss)
    return rss


def _loglik_terms(dataset, theta, pop, om):
    """The theta-only terms of complete_loglik: log pops, the prior constant
    -(log 2 pi + log omega2)/2 and 2 omega2 per latent coordinate, the
    observation constant J (log 2 pi + log sigma2)/2 per record, and
    2 sigma2.  ``pop`` and ``om`` index the coordinates' population values
    and variances in theta, whose last value is sigma2.  The dataset keeps
    the terms of the last theta, so an MH sweep's proposals at one theta
    build them once.
    """
    last = dataset.memo("pk_loglik_terms", dict)
    v = theta.values
    key = v.tobytes()  # the two PK models' thetas differ in length
    if last.get("key") != key:
        oms, sigma2 = v[list(om)], v[-1]
        J = dataset.n_obs().astype(float)
        last.update(key=key, terms=(
            np.log(v[list(pop)]), -0.5 * (_LOG2PI + np.log(oms)), 2.0 * oms,
            0.5 * J * (_LOG2PI + np.log(sigma2)), 2.0 * sigma2,
        ))
    return last["terms"]


def _complete_loglik(Z, terms, rss):
    """log f(y_i, z_i; theta) from the latents, ``_loglik_terms`` and the
    residual sums: the prior of each coordinate, summed over coordinates,
    less the observation constant and rss / (2 sigma2).  A row that is not
    finite (a latent overflowing exp) reads -inf."""
    log_pops, prior_const, two_om, obs_const, two_sigma2 = terms
    dev = np.subtract(Z, log_pops)
    np.square(dev, out=dev)
    dev /= two_om
    out = np.add.reduce(np.subtract(prior_const, dev, out=dev), axis=1)
    out -= obs_const
    out -= rss / two_sigma2
    out[~np.isfinite(out)] = -np.inf
    return out


def _crude_individual_fits(dataset: Dataset):
    """Per-individual (ka, V, Cl) from classic moment heuristics.

    Cl from dose/AUC (trapezoid plus terminal-tail extrapolation), V from
    Cl over the terminal log-linear slope, ka from the time of the peak.
    """
    fits = []
    for y, t, d, k in zip(dataset.y, dataset.times, dataset.doses, dataset.n_obs()):
        t, y = t[:k], np.maximum(y[:k], 1e-6)
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
        terms = _loglik_terms(dataset, theta, self._POP, self._OM)
        return _complete_loglik(Z, terms, _rss_per_individual(dataset, Z))

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
        # each entry's last operation writes into its slot of H (the mirrored
        # cross term is copied from its twin): no temporary is made and copied
        H = np.zeros((dataset.n, 7, 7))
        for c in range(3):
            ip, io = self._POP[c], self._OM[c]
            d = dev[:, c]
            np.divide(-(1.0 + d), oms[c] * pops[c] ** 2, out=H[:, ip, ip])
            np.subtract(0.5 / oms[c] ** 2, d**2 / oms[c] ** 3, out=H[:, io, io])
            H[:, io, ip] = np.divide(-d, oms[c] ** 2 * pops[c], out=H[:, ip, io])
        np.subtract(J / (2.0 * sigma2**2), rss / sigma2**3, out=H[:, 6, 6])
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

    # dpsi and dphi build their theta-only row once and copy it to every
    # individual; the scalar powers keep the bits of a per-column fill
    def dpsi(self, dataset, theta):
        pops, oms, sigma2 = self._unpack(theta)
        row = np.zeros(7)
        for c in range(3):
            row[self._POP[c]] = np.log(pops[c]) / (oms[c] * pops[c])
            row[self._OM[c]] = 0.5 / oms[c] - np.log(pops[c]) ** 2 / (2.0 * oms[c] ** 2)
        out = np.repeat(row[None], dataset.n, axis=0)
        out[:, 6] = 0.5 * dataset.n_obs().astype(float) / sigma2
        return out

    def dphi(self, dataset, theta):
        pops, oms, sigma2 = self._unpack(theta)
        block = np.zeros((7, 7))
        for c in range(3):
            ip, io = self._POP[c], self._OM[c]
            block[c, ip] = 1.0 / (oms[c] * pops[c])
            block[c, io] = -np.log(pops[c]) / oms[c] ** 2
            block[3 + c, io] = 0.5 / oms[c] ** 2
        block[6, 6] = 0.5 / sigma2**2
        return np.repeat(block[None], dataset.n, axis=0)

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
        terms = _loglik_terms(dataset, theta, self._POP, self._OM)
        rss = _rss_per_individual(dataset, Z, V_fixed=theta.values[1])
        return _complete_loglik(Z, terms, rss)

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
        moments; V is a 1-D profile (``_profile_v``) and sigma2 is
        closed-form given V.  The profile (``_FusedProfile``) runs on the
        entries' ``_profile_factors``, which the buffer computes once per
        entry and keeps, and weights each entry's own residual sums.  The
        buffer keeps those sums at the last three V's evaluated: the V the
        last M-step returned, where this one starts, and the two before it.
        At those points an evaluation sums only the entry that joined, so the
        derivatives there are exact and cheap, and they give the profile its
        inverse-quadratic first step; most M-steps then evaluate the whole
        window once, at that step, to check the tolerance.  What each M-step
        took goes into ``buffer.mstep_effort``: its ``_profile_v`` step, and
        ``window_evals``, the evaluations that summed the whole window.
        """
        wn = buffer.weights / buffer.total_weight
        m1 = np.einsum("l,lic->c", wn, buffer.latents) / dataset.n
        m2 = np.einsum("l,lic->c", wn, buffer.latents**2) / dataset.n
        oms = np.maximum(m2 - m1**2, 1e-10)

        Y, T, D = _design_arrays(dataset)
        factors = buffer.derived("profile_factors", dataset, lambda Z: _profile_factors(T, D, Z))

        def keep(V, fill):
            return buffer.derived("profile_sums", dataset, fill, key=V)

        V0 = float(theta_init.values[1])
        kept = [V for V in buffer.derived_keys("profile_sums", dataset) if V != V0]
        profile = _FusedProfile(Y, factors, wn, keep)
        V, rss_at_v, step = _profile_v(profile, V0, kept[-2:])
        buffer.mstep_effort.update({step: 1, "window_evals": profile.window_evals})
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
    ``_profile_factors`` of the buffer entries l and their weights W.  An
    evaluation weights each entry's own sums S_l(V) = (sum r^2, sum r dpred/dV,
    sum (dpred/dV)^2), which depend on neither W nor the other entries, so
    ``keep(V, fill)`` may return the (L, 3) sums kept from an earlier call at
    the same V and run ``fill`` only on the newest entries (the buffer keeps
    them at the last three V's evaluated).
    Without ``keep`` every entry's sums are computed.  The entries run in
    blocks of _PROFILE_BLOCK through scratch arrays reused across blocks and
    evaluations, so a block's work stays in cache.  The curvature
    2 sum w (dpred/dV)^2 gives _profile_v's Gauss-Newton step."""

    def __init__(self, Y, factors, W, keep=None):
        self.Y, self.factors, self.W, self.keep = Y, factors, W, keep
        self.window_evals = 0  # evaluations that summed every entry
        self._scratch = _core_scratch((min(_PROFILE_BLOCK, len(W)),) + Y.shape)

    def __call__(self, V):
        def fill(Z):  # the newest len(Z) entries of the window
            self.window_evals += len(Z) == len(self.factors)
            return self._sums(self.factors[len(self.factors) - len(Z):], V)

        S = fill(self.factors) if self.keep is None else self.keep(V, fill)
        # summed entry by entry in window order, so kept sums give the bits
        # fresh ones do wherever they are stored
        rss, rdv, dvdv = (S * self.W[:, None]).sum(axis=0)
        return float(rss), float(-2.0 * rdv), float(2.0 * dvdv)

    def _sums(self, F, V):
        """(m, 3) per-entry sums S_l(V) of the (m, 3, n, J) factors F."""
        S = np.empty((len(F), 3))
        for s in range(0, len(F), _PROFILE_BLOCK):
            b = F[s:s + _PROFILE_BLOCK]
            m = len(b)
            scratch = [a[:m] for a in self._scratch]
            pred, dv = _pk_core(b[:, 0], b[:, 1], b[:, 2], V, dv=True, scratch=scratch)
            resid = np.subtract(self.Y, pred, out=pred).reshape(m, -1)
            dv = dv.reshape(m, -1)
            # row by row, so an entry's sums do not depend on its block
            S[s:s + m, 0] = np.vecdot(resid, resid)
            S[s:s + m, 1] = np.vecdot(resid, dv)
            S[s:s + m, 2] = np.vecdot(dv, dv)
        return S


def _profile_v(evaluate, V0, kept=(), max_iter=40):
    """Minimize the 1-D profile over [V0/4, 4 V0]; returns (V, rss(V), step),
    V being the last point evaluated and ``step`` what reached it: "start"
    (V0 met the tolerance), "interpolation" or "gauss_newton" (the first
    step did), "secant" or "brent".

    ``evaluate(V)`` returns (rss, d rss/dV, curvature), the curvature None
    where the caller has none.  ``kept`` holds up to two earlier points where
    evaluating is cheap (the buffer keeps the sums there), oldest first; they
    are evaluated before V0.  With two of them the first step is inverse
    quadratic interpolation of V(g) at g = 0 through their derivatives and
    V0's (Brent 1973, ch. 4); with fewer, or coinciding derivatives, or an
    interpolate that is not finite, it is the Gauss-Newton step
    V0 - g0 / curvature, else a 1e-4 V0 probe downhill.  A first step that
    does not reach the tolerance is followed by a safeguarded secant on the
    derivative from the kept point or V0 of smallest |derivative|, with a
    bounded-Brent fallback.
    """
    lo, hi = V0 / 4.0, 4.0 * V0
    points = [(V, evaluate(V)[1]) for V in kept]
    f0, g0, c0 = evaluate(V0)
    gtol = 1e-8 * (1.0 + abs(f0))
    if abs(g0) < gtol:
        return V0, f0, "start"
    points.append((V0, g0))
    V1 = _inverse_quadratic_root(points) if len(points) == 3 else None
    first = "gauss_newton" if V1 is None else "interpolation"
    if V1 is None:
        V1 = V0 - g0 / c0 if c0 is not None and c0 > 0 else V0
    V1 = float(np.clip(V1, lo, hi))
    if V1 == V0:
        V1 = float(np.clip(V0 + 1e-4 * V0 * (-1.0 if g0 > 0 else 1.0), lo, hi))
    f1, g1, _ = evaluate(V1)
    if abs(g1) < gtol:
        return V1, f1, first
    Va, ga = min(points, key=lambda p: abs(p[1]))
    Vb, gb, fb = V1, g1, f1
    for _ in range(max_iter):
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
        Va, ga = Vb, gb
        Vb, gb, fb = Vn, gn, fn
        if abs(gb) < gtol:
            return Vb, fb, "secant"
    if abs(gb) < 10.0 * gtol:
        return Vb, fb, "secant"
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda v: evaluate(v)[0], bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10 * V0},
    )
    Vr = float(res.x)
    return Vr, evaluate(Vr)[0], "brent"


def _inverse_quadratic_root(points):
    """V at g = 0 of the quadratic V(g) through three (V, g) points, or None
    where two points share a V or a g, or the root is not finite."""
    (a, ga), (b, gb), (c, gc) = points
    if len({a, b, c}) < 3 or len({ga, gb, gc}) < 3:
        return None
    V = (
        a * gb * gc / ((ga - gb) * (ga - gc))
        + b * ga * gc / ((gb - ga) * (gb - gc))
        + c * ga * gb / ((gc - ga) * (gc - gb))
    )
    return V if np.isfinite(V) else None
