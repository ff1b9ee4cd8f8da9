"""The PK chain path gives the bits of its plain form.

``_metropolis``, ``_mh_sweep``, ``_rss_per_individual`` and both PK
``complete_loglik``s merge rows in place, keep theta-only terms per theta and
reuse the kept latents' array; ``PkNlmeModel.dpsi`` and ``dphi`` build their
theta-only row once, and ``complete_hessian`` writes each entry's last
operation into its slot.  The reference functions below are their plain forms:
fresh arrays, boolean-mask merges, column-by-column fills and every term
recomputed on every call.  Each check asserts equal bits, not closeness.
"""

import warnings

import numpy as np
import pytest

from scorefim import Dataset, Design
from scorefim.models import pk_prediction
from scorefim.models.pk import _LOG2PI, PkNlmeModel, _design_arrays, _rss_per_individual
from scorefim.rng import substream
from scorefim.saem import SaemConfig, StepSchedule, _metropolis, _mh_sweep, run_saem


def _ref_rss(dataset, Z, V_fixed=None):
    Y, T, doses = _design_arrays(dataset)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ka = np.exp(Z[:, 0])
        cl = np.exp(Z[:, 1])
        v = np.full(dataset.n, V_fixed) if V_fixed is not None else np.exp(Z[:, 2])
        pred = pk_prediction(doses[:, None], T, ka[:, None], v[:, None], cl[:, None])
        return ((Y - pred) ** 2).sum(axis=1)


def _ref_loglik_terms(pops, oms, sigma2, dataset, Z, rss):
    J = dataset.n_obs().astype(float)
    dev = Z - np.log(pops)
    prior = (-0.5 * (_LOG2PI + np.log(oms)) - dev**2 / (2.0 * oms)).sum(axis=1)
    out = prior - 0.5 * J * (_LOG2PI + np.log(sigma2)) - rss / (2.0 * sigma2)
    return np.where(np.isfinite(out), out, -np.inf)


def _ref_loglik_nlme(dataset, Z, theta):
    v = theta.values
    pops, oms = np.array([v[0], v[2], v[1]]), np.array([v[3], v[5], v[4]])
    return _ref_loglik_terms(pops, oms, v[6], dataset, Z, _ref_rss(dataset, Z))


def _ref_loglik_fixed_v(dataset, Z, theta):
    v = theta.values
    pops, oms = np.array([v[0], v[2]]), np.array([v[3], v[4]])
    return _ref_loglik_terms(pops, oms, v[5], dataset, Z, _ref_rss(dataset, Z, V_fixed=v[1]))


def _ref_dpsi(model, dataset, theta):
    pops, oms, sigma2 = model._unpack(theta)
    J = dataset.n_obs().astype(float)
    out = np.zeros((dataset.n, 7))
    for c in range(3):
        out[:, model._POP[c]] = np.log(pops[c]) / (oms[c] * pops[c])
        out[:, model._OM[c]] = 0.5 / oms[c] - np.log(pops[c]) ** 2 / (2.0 * oms[c] ** 2)
    out[:, 6] = 0.5 * J / sigma2
    return out


def _ref_complete_hessian(model, dataset, Z, theta):
    pops, oms, sigma2 = model._unpack(theta)
    J = dataset.n_obs().astype(float)
    dev = Z - np.log(pops)
    rss = _ref_rss(dataset, Z)
    H = np.zeros((dataset.n, 7, 7))
    for c in range(3):
        ip, io = model._POP[c], model._OM[c]
        H[:, ip, ip] = -(1.0 + dev[:, c]) / (oms[c] * pops[c] ** 2)
        H[:, io, io] = 0.5 / oms[c] ** 2 - dev[:, c] ** 2 / oms[c] ** 3
        H[:, ip, io] = H[:, io, ip] = -dev[:, c] / (oms[c] ** 2 * pops[c])
    H[:, 6, 6] = J / (2.0 * sigma2**2) - rss / sigma2**3
    return H


def _ref_dphi(model, dataset, theta):
    pops, oms, sigma2 = model._unpack(theta)
    out = np.zeros((dataset.n, 7, 7))
    for c in range(3):
        ip, io = model._POP[c], model._OM[c]
        out[:, c, ip] = 1.0 / (oms[c] * pops[c])
        out[:, c, io] = -np.log(pops[c]) / oms[c] ** 2
        out[:, 3 + c, io] = 0.5 / oms[c] ** 2
    out[:, 6, 6] = 0.5 / sigma2**2
    return out


def _ref_metropolis(loglik, dataset, Z, logf, prop, theta, rng):
    logf_prop = loglik(dataset, prop, theta)
    logf_prop = np.where(np.isfinite(logf_prop), logf_prop, -np.inf)
    take = np.log(rng.random(dataset.n)) < logf_prop - logf
    Z[take] = prop[take]
    logf[take] = logf_prop[take]
    return int(take.sum())


def _ref_mh_sweep(loglik, dataset, Z, logf, theta, scales, rng, n_steps):
    accepted = 0
    for _ in range(n_steps):
        step = rng.standard_normal(Z.shape)
        if np.ndim(scales) == 3:
            prop = Z + np.einsum("ijk,ik->ij", scales, step)
        else:
            prop = Z + step * scales
        accepted += _ref_metropolis(loglik, dataset, Z, logf, prop, theta, rng)
    return Z, logf, accepted / (n_steps * dataset.n)


@pytest.fixture(params=["pk_nlme", "pk_nlme_fixed_v"])
def case(request, pk, pk_theta, pk_data, pk_fixed_v, pk_fixed_v_theta, pk_fixed_v_data):
    """(model, its reference loglik, theta, a second theta, dataset, V of theta)."""
    if request.param == "pk_nlme":
        other = pk.make_params(pk_theta.values * [1.1, 0.9, 1.2, 0.8, 1.3, 0.7, 1.05])
        return pk, _ref_loglik_nlme, pk_theta, other, pk_data, None
    # the second theta differs in V as well: the residual sums must follow it
    other = pk_fixed_v.make_params(pk_fixed_v_theta.values * [1.1, 1.2, 0.9, 0.8, 1.3, 1.05])
    return pk_fixed_v, _ref_loglik_fixed_v, pk_fixed_v_theta, other, pk_fixed_v_data, 1


def _v_fixed(theta, v_index):
    return None if v_index is None else theta.values[v_index]


def _rows(model, dataset, theta, seed, extreme=False):
    Z = model.initial_latents(dataset, theta, substream(seed, 0))
    Z += substream(seed, 1).normal(0.0, 0.7, Z.shape)
    if extreme:  # log ka or log Cl 800 out either way: exp overflows or underflows
        Z[0, 0], Z[1, 0], Z[2, 1], Z[3, 1] = 800.0, -800.0, 800.0, -800.0
    return Z


@pytest.mark.parametrize("layout", ["simulated", "column_major"])
def test_loglik_rss_and_statistics_match_the_plain_forms(case, layout):
    model, ref, theta, _, ds, v_index = case
    if layout == "column_major":  # times as np.array copies a broadcast view
        ds = Dataset.from_arrays(
            np.array(ds.y), times=np.asfortranarray(ds.times), doses=np.array(ds.doses)
        )
        assert ds.times.flags.f_contiguous and ds.y.flags.c_contiguous
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, extreme in ((1, False), (2, True), (3, False)):
            Z = _rows(model, ds, theta, seed, extreme)
            got = model.complete_loglik(ds, Z, theta)
            want = ref(ds, Z, theta)
            assert np.array_equal(got, want)
            rss = _rss_per_individual(ds, Z, _v_fixed(theta, v_index))
            assert np.array_equal(rss, _ref_rss(ds, Z, _v_fixed(theta, v_index)), equal_nan=True)
            # log ka = 800 overflows the prediction to NaN; the other far
            # rows stay finite
            assert not np.isnan(got).any() and (got[0] == -np.inf) == extreme
            if v_index is None:
                stats = model.statistics(ds, Z)
                want = np.column_stack([Z, Z**2, _ref_rss(ds, Z)])
                assert np.array_equal(stats, want, equal_nan=True)


def test_interleaved_thetas_datasets_and_latents_match_the_plain_forms(case):
    # theta 1, theta 2, theta 1 on two datasets, and latents changed in place:
    # the kept theta terms and residual sums must never answer another call
    model, ref, theta, other, ds, _ = case
    ds2 = ds.subset(range(ds.n - 1, -1, -1))
    Z = _rows(model, ds, theta, 4)
    calls = [(ds, theta), (ds, other), (ds, theta), (ds2, theta), (ds, theta), (ds2, other)]
    for step, (data, th) in enumerate(calls):
        assert np.array_equal(model.complete_loglik(data, Z, th), ref(data, Z, th)), step
        if step == 2:
            Z[::3] += 0.25
    # one proposal after another at one theta, as in a sweep, and back to
    # the first latents the dataset's kept sums were computed at
    ds3 = ds.subset(range(ds.n))
    for seed in (5, 6, 5):
        prop = _rows(model, ds3, theta, seed)
        assert np.array_equal(model.complete_loglik(ds3, prop, theta), ref(ds3, prop, theta))


@pytest.mark.parametrize("per_chain", [False, True])
def test_sweeps_and_mirror_moves_match_the_plain_kernel(case, per_chain):
    model, ref, theta, other, ds, _ = case
    d = model.latent_dim
    if per_chain:
        factors = np.tril(substream(8, 2).normal(0.0, 0.2, (ds.n, d, d)))
        scales = factors + 0.3 * np.eye(d)
    else:
        scales = np.full(d, 0.3)
    Z0 = _rows(model, ds, theta, 9)

    def chains(target, loglik, sweep, merge):
        rng = substream(10, 0)
        Z, out = Z0.copy(), []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for th in (theta, other, theta):
                logf = loglik(ds, Z, th)  # the target refresh at a new theta
                Z, logf, rate = sweep(target, ds, Z, logf, th, scales, rng, 4)
                far = Z.copy()
                far[::4, 0] = 800.0  # proposals of log-likelihood -inf
                far[1::4, 1] = -800.0
                out += [rate, merge(target, ds, Z, logf, far, th, rng)]
                if model.has_mirror:
                    out.append(merge(target, ds, Z, logf, model.mirror_latents(Z), th, rng))
        return Z, logf, out

    Z, logf, counts = chains(model, model.complete_loglik, _mh_sweep, _metropolis)
    Z_ref, logf_ref, counts_ref = chains(ref, ref, _ref_mh_sweep, _ref_metropolis)
    assert counts == counts_ref
    assert np.array_equal(Z, Z_ref) and np.array_equal(logf, logf_ref)
    assert np.all(np.isfinite(logf))


class _ReadOnlyPk(PkNlmeModel):
    """PkNlmeModel whose statistics, score and Hessian come back read-only."""

    def statistics(self, dataset, Z):
        return _frozen(super().statistics(dataset, Z))

    def complete_score(self, dataset, Z, theta):
        return _frozen(super().complete_score(dataset, Z, theta))

    def complete_hessian(self, dataset, Z, theta):
        return _frozen(super().complete_hessian(dataset, Z, theta))


def _frozen(a):
    a.setflags(write=False)
    return a


def test_run_saem_relaxes_in_place_without_writing_model_arrays(pk, pk_data):
    # the SA and Louis updates write into their own arrays only: a model whose
    # arrays are read-only runs, and gives the same run bit for bit
    cfg = SaemConfig(schedule=StepSchedule(20, 0.95, 0.6), total_iterations=50, seed=3,
                     track_louis=True)
    plain = run_saem(pk, pk_data, cfg)
    frozen = run_saem(_ReadOnlyPk(), pk_data, cfg)
    for name in ("theta", "fim_diag", "louis_diag"):
        assert np.array_equal(plain.trajectories[name], frozen.trajectories[name]), name
    assert np.array_equal(plain.louis.entries, frozen.louis.entries)
    assert set(plain.diagnostics["phase_s"]) == {"draw", "update", "mstep", "fim"}


def test_dpsi_and_dphi_match_the_column_fills(pk, pk_data):
    # random thetas over many decades, on a dataset whose rows differ in J
    k = 4 + np.arange(pk_data.n) % 7
    keep = np.arange(10) < k[:, None]
    ragged = Dataset.from_arrays(
        np.where(keep, pk_data.y, 0.0), k, np.where(keep, pk_data.times, 0.0), pk_data.doses
    )
    rng = substream(17, 0)
    for _ in range(500):
        values = np.exp(rng.uniform(-6.0, 6.0, 7))
        theta = pk.make_params(values)
        for ds in (pk_data, ragged):
            dpsi, dphi = pk.dpsi(ds, theta), pk.dphi(ds, theta)
            assert np.array_equal(dpsi, _ref_dpsi(pk, ds, theta))
            assert np.array_equal(dphi, _ref_dphi(pk, ds, theta))
            assert dpsi.flags.c_contiguous and dphi.flags.c_contiguous


@pytest.mark.parametrize("n", [50, 2048])
def test_complete_hessian_matches_the_column_writes(pk, pk_theta, pk_data, n):
    # n = 2048 is one oracle block; random thetas over many decades, and
    # latents whose exp overflows or underflows
    ds = pk.simulate(pk_theta, Design(n=n, times=pk_data.times[0], dose=320.0), substream(18, 0))
    rng = substream(18, 1)
    for extreme in (False, True):
        Z = _rows(pk, ds, pk_theta, 19, extreme)
        for _ in range(20):
            theta = pk.make_params(np.exp(rng.uniform(-6.0, 6.0, 7)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = _ref_complete_hessian(pk, ds, Z, theta)
            got = pk.complete_hessian(ds, Z, theta)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous
