"""One-compartment oral-absorption pharmacokinetic mixed models.

Structural model for dose d at time t with absorption rate ka, volume V and
clearance Cl:

    pred = d ka / (V ka - Cl) [exp(-(Cl/V) t) - exp(-ka t)]

computed through expm1 so the removable singularity at V ka = Cl and the
cancellation around it cost no precision.  Two hierarchical variants:

* ``PkNlmeModel`` - all three individual parameters are lognormal random
  effects; the complete likelihood is curved-exponential with statistics
  (log-parameters, their squares, residual sum of squares).
* ``PkFixedVModel`` - V is a fixed effect shared across individuals, which
  breaks the exponential-family form; fitting goes through the general
  stochastic algorithm with a nested 1-D profile search over V.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset, Design, IndividualRecord
from ..errors import DimensionMismatch, DomainViolation, MStepFailure
from ..modelbase import ExpoFamilyModel, LatentModel
from ..params import ParamVector

_LOG2PI = np.log(2.0 * np.pi)

# latent coordinate order: (log ka_i, log Cl_i, log V_i)
_LAT_NAMES = ("log_ka", "log_cl", "log_v")


def _expm1_ratio(x):
    """expm1(x)/x with the limit value 1 at x = 0; elementwise."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.expm1(x[nz]) / x[nz]
    return out


def _expm1_ratio_deriv(x):
    """d/dx [expm1(x)/x], series below 1e-4 to dodge cancellation."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 0.5 + xs / 3.0 + xs**2 / 8.0 + xs**3 / 30.0
    xl = x[~small]
    out[~small] = (xl * np.exp(xl) - np.expm1(xl)) / xl**2
    return out


def pk_prediction(dose, t, ka, V, Cl):
    """Concentration at times t; broadcasts over all arguments.

    For large |x|, x = (V ka - Cl) t / V, the expm1 form would overflow before
    the prediction does, so the code switches to the direct two-exponential
    difference there (no cancellation risk in that regime).
    """
    t = np.asarray(t, dtype=float)
    ka, V, Cl = np.asarray(ka, float), np.asarray(V, float), np.asarray(Cl, float)
    x = (ka - Cl / V) * t
    safe = np.abs(x) <= 30.0
    xs = np.where(safe, x, 0.0)
    pred_small = dose * ka * t / V * np.exp(-ka * t) * _expm1_ratio(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        eps = V * ka - Cl
        eps_safe = np.where(eps == 0.0, 1.0, eps)
        pred_large = dose * ka / eps_safe * (np.exp(-Cl / V * t) - np.exp(-ka * t))
    return np.where(safe, pred_small, pred_large)


def pk_prediction_dv(dose, t, ka, V, Cl):
    """d pred / d V at fixed (ka, Cl); same branching as pk_prediction."""
    t = np.asarray(t, dtype=float)
    ka, V, Cl = np.asarray(ka, float), np.asarray(V, float), np.asarray(Cl, float)
    x = (ka - Cl / V) * t
    safe = np.abs(x) <= 30.0
    xs = np.where(safe, x, 0.0)
    C = dose * ka * np.exp(-ka * t)
    dv_small = C * t / V**2 * (-_expm1_ratio(xs) + (Cl * t / V) * _expm1_ratio_deriv(xs))
    with np.errstate(over="ignore", invalid="ignore"):
        eps = V * ka - Cl
        eps_safe = np.where(eps == 0.0, 1.0, eps)
        diff = np.exp(-Cl / V * t) - np.exp(-ka * t)
        dv_large = (
            -dose * ka**2 / eps_safe**2 * diff
            + dose * ka / eps_safe * np.exp(-Cl / V * t) * Cl * t / V**2
        )
    return np.where(safe, dv_small, dv_large)


def _design_arrays(dataset: Dataset):
    """(Y, T, doses) stacked when the sampling design is uniform, else None."""

    def build():
        J0 = dataset.records[0].n_obs
        for r in dataset.records:
            if r.times is None or r.dose is None:
                raise DomainViolation("pk records need times and dose")
            if r.n_obs != J0:
                return None
        Y = np.stack([r.y for r in dataset.records])
        T = np.stack([r.times for r in dataset.records])
        doses = np.array([r.dose for r in dataset.records])
        return Y, T, doses

    return dataset.memo("pk_design_arrays", build)


def _rss_per_individual(dataset, Z, V_fixed=None):
    """Residual sum of squares per individual at latent log-parameters Z."""
    ka = np.exp(Z[:, 0])
    cl = np.exp(Z[:, 1])
    v = np.full(dataset.n, V_fixed) if V_fixed is not None else np.exp(Z[:, 2])
    arrays = _design_arrays(dataset)
    if arrays is not None:
        Y, T, doses = arrays
        pred = pk_prediction(doses[:, None], T, ka[:, None], v[:, None], cl[:, None])
        return ((Y - pred) ** 2).sum(axis=1)
    out = np.empty(dataset.n)
    for i, r in enumerate(dataset.records):
        pred = pk_prediction(r.dose, r.times, ka[i], v[i], cl[i])
        out[i] = ((r.y - pred) ** 2).sum()
    return out


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
        records = tuple(
            IndividualRecord(y=row, times=T, dose=design.dose) for row in y
        )
        return Dataset(records, latent_truth=Z)

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

    def psi(self, dataset, theta):
        pops, oms, sigma2 = self._unpack(theta)
        J = dataset.n_obs().astype(float)
        const = (0.5 * (_LOG2PI + np.log(oms)) + np.log(pops) ** 2 / (2.0 * oms)).sum()
        return const + 0.5 * J * (_LOG2PI + np.log(sigma2))

    def phi(self, dataset, theta):
        pops, oms, sigma2 = self._unpack(theta)
        row = np.concatenate([np.log(pops) / oms, -0.5 / oms, [-0.5 / sigma2]])
        return np.tile(row, (dataset.n, 1))

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

    def _residual_dv(self, dataset, Z, V):
        """(rss, sum_j r_ij dpred_ij/dV) per individual."""
        ka = np.exp(Z[:, 0])
        cl = np.exp(Z[:, 1])
        arrays = _design_arrays(dataset)
        if arrays is not None:
            Y, T, doses = arrays
            pred = pk_prediction(doses[:, None], T, ka[:, None], V, cl[:, None])
            dv = pk_prediction_dv(doses[:, None], T, ka[:, None], V, cl[:, None])
            resid = Y - pred
            return (resid**2).sum(axis=1), (resid * dv).sum(axis=1)
        rss = np.empty(dataset.n)
        rdv = np.empty(dataset.n)
        for i, r in enumerate(dataset.records):
            pred = pk_prediction(r.dose, r.times, ka[i], V, cl[i])
            dv = pk_prediction_dv(r.dose, r.times, ka[i], V, cl[i])
            resid = r.y - pred
            rss[i] = (resid**2).sum()
            rdv[i] = (resid * dv).sum()
        return rss, rdv

    def complete_score(self, dataset, Z, theta):
        pops, V, oms, sigma2 = self._unpack(theta)
        J = dataset.n_obs().astype(float)
        dev = Z - np.log(pops)
        rss, rdv = self._residual_dv(dataset, Z, V)
        out = np.zeros((dataset.n, 6))
        for c in range(2):
            out[:, self._POP[c]] = dev[:, c] / (oms[c] * pops[c])
            out[:, self._OM[c]] = -0.5 / oms[c] + dev[:, c] ** 2 / (2.0 * oms[c] ** 2)
        out[:, 1] = rdv / sigma2
        out[:, 5] = -J / (2.0 * sigma2) + rss / (2.0 * sigma2**2)
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
        records = tuple(
            IndividualRecord(y=row, times=T, dose=design.dose) for row in y
        )
        return Dataset(records, latent_truth=Z)

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
    def maximize_weighted(self, dataset, latents, weights, theta_init):
        """argmax of sum_l w_l sum_i log f(y_i, z_i^l; theta).

        ka, Cl and their variances are closed-form in the weighted latent
        moments; V is a 1-D profile (``_profile_v``: a Gauss-Newton first
        step, then a safeguarded secant on the derivative of the weighted
        residual sum, with a bounded-Brent fallback) and sigma2 is
        closed-form given V.  On a uniform design the profile of the last
        M-step on this dataset hands its per-entry factors to the next one.
        """
        W = float(np.sum(weights))
        if W <= 0 or len(latents) == 0:
            raise MStepFailure("empty or massless sample buffer")
        wn = np.asarray(weights, dtype=float) / W
        stack = np.stack(latents)  # (L, n, 2)
        m1 = np.einsum("l,lic->c", wn, stack) / dataset.n
        m2 = np.einsum("l,lic->c", wn, stack**2) / dataset.n
        oms = np.maximum(m2 - m1**2, 1e-10)

        arrays = _design_arrays(dataset)
        Jtot = float(dataset.n_obs().sum())
        V0 = float(theta_init.values[1])

        if arrays is not None:
            Y, T, doses = arrays
            last = dataset.memo("pk_fixed_v_profile", dict)
            evaluate = _FusedProfile(Y, T, doses, latents, wn, previous=last.get("profile"))
            last["profile"] = evaluate
        else:

            def evaluate(V):
                rss = drss = 0.0
                for w, Z in zip(wn, latents):
                    r, rdv = self._residual_dv(dataset, Z, V)
                    rss += w * r.sum()
                    drss += w * (-2.0) * rdv.sum()
                return rss, drss, None

        V, rss_at_v = _profile_v(evaluate, V0)
        sigma2 = max(rss_at_v / Jtot, 1e-10)
        return self.make_params(
            [np.exp(m1[0]), V, np.exp(m1[1]), oms[0], oms[1], sigma2]
        )


# buffer entries per pass of _FusedProfile: a block's (B, n, J) arrays take
# about 1.1 kB per observation, so they stay in a 2 MiB L2 cache at the desk
# (n J = 600) and paper (n J = 1000) designs
_PROFILE_BLOCK = 16
_FACTORS = ("KA", "CL", "KAT", "CLT", "AT")  # per-entry factors _FusedProfile keeps


class _FusedProfile:
    """(rss, d rss/dV, Gauss-Newton curvature) of the weighted buffer objective

        rss(V) = sum_l w_l sum_ij (y_ij - pred(t_ij; ka_il, V, Cl_il))^2

    over stacked buffer entries l, with the branching of pk_prediction and
    pk_prediction_dv: the direct two-exponential form where |x| > 30 and the
    series of expm1(x)/x and of its derivative where |x| < 1e-4.

    The V-independent factors of an entry (ka, Cl, ka t, Cl t and
    dose ka t exp(-ka t)) are computed once, when the entry joins the buffer:
    ``previous``, the profile of the last M-step, hands over the rows of the
    entries still in the buffer (matched by identity) and the rows of pruned
    entries are dropped.  Kept rows come first, so ``W`` is permuted to match.
    When only the oldest entries were pruned, the new rows are written behind
    the kept ones in the previous profile's arrays (``store``, whose "end"
    marks the rows written so far, so a second successor cannot overwrite a
    first); otherwise the kept rows are gathered into new arrays with room
    for a quarter more entries and one block.  The arrays never grow past
    that slack on the live buffer.

    An evaluation walks the stacks in blocks of _PROFILE_BLOCK entries so each
    block's temporaries stay in cache.  Its third value, 2 sum w (dpred/dV)^2,
    is the Gauss-Newton curvature that _profile_v takes its first step from.
    """

    def __init__(self, Y, T, D, latents, W, previous=None):
        self.Y, self.T, self.D = Y, T, D
        rows = {}
        if previous is not None:
            rows = {id(z): r for r, z in enumerate(previous.latents)}
        reuse = [rows.get(id(z), -1) for z in latents]
        order = [l for l, r in enumerate(reuse) if r >= 0]
        kept = [reuse[l] for l in order]
        m = len(order)
        order += [l for l, r in enumerate(reuse) if r < 0]
        self.latents = [latents[l] for l in order]  # holds them, so ids stay unique
        self.W = np.asarray(W, dtype=float)[order]

        L = len(order)
        if (
            m and previous.stop == previous.store["end"]
            and kept == list(range(len(previous.W) - m, len(previous.W)))
            and previous.stop + L - m <= len(previous.store["KA"])
        ):
            self.store, start = previous.store, previous.stop - m
        else:
            n, J = T.shape
            size = L + L // 4 + _PROFILE_BLOCK
            self.store = {k: np.empty((size, n)) for k in ("KA", "CL")}
            self.store.update({k: np.empty((size, n, J)) for k in ("KAT", "CLT", "AT")})
            start = 0
            if m:
                for k in _FACTORS:
                    np.take(getattr(previous, k), kept, axis=0, out=self.store[k][:m], mode="clip")
        self.stop = self.store["end"] = start + L
        self.KA, self.CL, self.KAT, self.CLT, self.AT = (self.store[k][start:self.stop] for k in _FACTORS)
        if L > m:
            Z = np.stack([latents[l] for l in order[m:]])
            ka = np.exp(Z[:, :, 0])[:, :, None]
            cl = np.exp(Z[:, :, 1])[:, :, None]
            self.KA[m:], self.CL[m:] = ka[:, :, 0], cl[:, :, 0]
            kat = ka * T
            self.KAT[m:] = kat
            self.CLT[m:] = cl * T
            self.AT[m:] = D[:, None] * ka * np.exp(-kat) * T

    def __call__(self, V):
        n, J = self.T.shape
        inv_v = 1.0 / V
        rss = rdv = dvdv = 0.0
        for s in range(0, len(self.W), _PROFILE_BLOCK):
            b = slice(s, s + _PROFILE_BLOCK)
            u = self.CLT[b] * inv_v
            x = self.KAT[b] - u
            ax = np.abs(x)
            big = np.flatnonzero(ax > 30.0)  # flat indices: cheaper than masks
            tiny = np.flatnonzero(ax < 1e-4) if ax.min() < 1e-4 else None
            if tiny is not None:
                # the series replaces G and G' there; a nonzero x keeps the
                # two divides below from computing 0/0 at x = 0
                xt = x.ravel()[tiny]
                np.put(x, tiny, 1.0)
            np.put(x, big, 1.0)
            G = np.expm1(x)
            Gp = x * G  # (x expm1(x) - expm1(x) + x) / x^2
            Gp -= G
            Gp += x
            Gp /= np.multiply(x, x, out=ax)
            G /= x  # expm1(x) / x
            if tiny is not None:
                np.put(G, tiny, 1.0 + xt / 2.0 + xt**2 / 6.0 + xt**3 / 24.0)
                np.put(Gp, tiny, 0.5 + xt / 3.0 + xt**2 / 8.0 + xt**3 / 30.0)
            P = self.AT[b] * inv_v
            dv = Gp  # V dpred/dV = (A t / V) (u G' - G)
            dv *= u
            dv -= G
            dv *= P
            pred = G
            pred *= P
            if big.size:
                li = big // J  # flat (entry, individual) index
                ka, cl = self.KA[b].ravel()[li], self.CL[b].ravel()[li]
                dka = self.D[li % n] * ka
                eps = V * ka - cl
                ub = u.ravel()[big]
                ecl = np.exp(-ub)
                diff = ecl - np.exp(-self.KAT[b].ravel()[big])
                base = dka / eps
                np.put(pred, big, base * diff)
                np.put(dv, big, V * (-(dka * ka / eps**2) * diff + base * ecl * ub * inv_v))
            resid = np.subtract(self.Y, pred, out=pred)
            w = self.W[b, None, None]
            wx = np.multiply(resid, w, out=x)
            rss += np.vdot(wx, resid)
            rdv += np.vdot(wx, dv)
            np.multiply(dv, w, out=wx)
            dvdv += np.vdot(wx, dv)
        return float(rss), float(-2.0 * rdv * inv_v), float(2.0 * dvdv * inv_v * inv_v)


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
