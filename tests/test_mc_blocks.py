"""The Monte-Carlo references evaluated in blocks of draws give the bits of
their whole-array forms, in bounded memory.

``mc_reference_fim`` simulates and scores one block of ``_MC_BLOCK`` draws
at a time, each from its own keyed stream, and the oracle's
``_individual_moments`` runs the model on blocks of an individual's draws;
both carry their sums from block to block.  The reference functions below
are their whole-array forms: the blocks' scores (an individual's draws)
gathered into one array and reduced once.  Each check asserts equal bits,
not closeness.
"""

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scorefim import Design, simulate_dataset
from scorefim import condoracle
from scorefim.condoracle import _laplace_fit, _mvt_draws, conditional_moments
from scorefim.errors import NumericalError
from scorefim.fim import _MC_BLOCK, FimMatrix, _carried_sum, _symmetrize_exact, mc_reference_fim
from scorefim.modelbase import validate_params
from scorefim.rng import substream


def _ref_mc_reference_fim(model, theta, design, n_draws, seed):
    validate_params(model, theta)
    blocks = range(0, n_draws, _MC_BLOCK)
    s = np.concatenate([
        model.marginal_score(model.simulate(
            theta, replace(design, n=min(_MC_BLOCK, n_draws - start)), substream(seed, 1, b),
        ), theta)
        for b, start in enumerate(blocks)
    ])
    outer = np.einsum("ij,ik->ijk", s, s)
    mean = outer.sum(axis=0) / n_draws
    var = (outer**2).sum(axis=0) / n_draws - mean**2
    se = np.sqrt(np.maximum(var, 0.0) / n_draws)
    return FimMatrix(_symmetrize_exact(mean), "mc-reference", n_draws, theta.names, mc_se=se)


def _ref_individual_moments(task, dead_draws=None):
    model, one, theta, mode, cov, i, n_draws, seed, min_ess = task
    with_hessian = model.has_complete_hessian
    draws, logq = _mvt_draws(mode, cov, n_draws, substream(seed, 2, i))
    rep = one.replicate(n_draws)
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
    dead = w == 0
    if dead_draws is not None:
        dead_draws.append(int(dead.sum()))
    sc = model.complete_score(rep, draws, theta)
    sc[dead] = 0.0
    ehess = None
    if with_hessian:
        hess = model.complete_hessian(rep, draws, theta)
        hess[dead] = 0.0
        ehess = np.einsum("b,bjk->jk", w, hess)
    return w @ sc, np.einsum("b,bj,bk->jk", w, sc, sc), ehess, ess


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_moments(new, ref):
    for name in ("escore", "escore_outer", "ehessian", "ess"):
        a, b = getattr(new, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert _same_bits(a, b), name


@pytest.mark.parametrize("rows, block", [
    ((1, 3), 1), ((7, 3, 3), 3), ((4096, 7, 7), 2048), ((5000, 5, 5), 2048), ((2049, 4), 1000),
])
def test_carried_sum_continues_the_axis_0_sum(rows, block):
    rng = np.random.default_rng(block)
    scale = np.exp(5.0 * rng.standard_normal(rows[:1] + (1,) * (len(rows) - 1)))
    x = rng.standard_normal(rows) * scale
    x[rng.random(rows) < 0.2] = -0.0  # signed zeros carry too
    total = np.zeros(rows[1:])
    for s in range(0, rows[0], block):
        total = _carried_sum(x[s:s + block].copy(), total)
    assert _same_bits(total, x.sum(axis=0))
    x[:] = -0.0
    assert _same_bits(_carried_sum(x.copy(), np.zeros(rows[1:])), x.sum(axis=0))


@pytest.mark.parametrize("key", ["lmm", "poisson", "gmm"])
@pytest.mark.parametrize("n_draws", [
    10_000,  # the fewest draws allowed: 4 whole blocks and a partial one
    23_457,  # a partial last block of 929 draws
    100_003,  # 48 whole blocks and a partial one of 1,699
])
def test_mc_reference_fim_matches_whole_draw_form(request, key, n_draws):
    model, theta = (request.getfixturevalue(n) for n in (key, f"{key}_theta"))
    assert model.has_marginal_score
    design = Design(n=1, n_obs=12) if key == "lmm" else Design(n=1)
    new = mc_reference_fim(model, theta, design, n_draws, seed=17)
    ref = _ref_mc_reference_fim(model, theta, design, n_draws, seed=17)
    assert _same_bits(new.entries, ref.entries)
    assert _same_bits(new.mc_se, ref.mc_se)


@pytest.mark.parametrize("n_draws", [_MC_BLOCK // 2, 2 * _MC_BLOCK, 2 * _MC_BLOCK + 901])
@pytest.mark.parametrize("key", ["pk", "lmm"])
def test_oracle_moments_match_whole_draw_form(request, key, n_draws, monkeypatch):
    model, theta = (request.getfixturevalue(n) for n in (key, f"{key}_theta"))
    ds = request.getfixturevalue(f"{key}_data").subset(range(4))
    new = conditional_moments(model, ds, theta, n_draws=n_draws, seed=3, min_ess=1)
    monkeypatch.setattr(condoracle, "_individual_moments", _ref_individual_moments)
    ref = conditional_moments(model, ds, theta, n_draws=n_draws, seed=3, min_ess=1)
    _assert_same_moments(new, ref)


@pytest.mark.parametrize("seed", [1, 4, 5])
def test_oracle_moments_match_whole_draw_form_when_draws_overflow(
    pk, pk_theta, pk_data, monkeypatch, seed,
):
    # as in test_oracle_moments_finite_when_draws_overflow: a one-step Laplace
    # fit leaves proposals under which some draws overflow exp and weigh 0
    monkeypatch.setattr(condoracle, "_NEWTON_MAX_ITER", 1)
    design = Design(n=3, times=pk_data.times[0], dose=320.0)
    ds = simulate_dataset(pk, pk_theta, design, seed=seed)
    n_draws = 2 * _MC_BLOCK + 901
    new = conditional_moments(pk, ds, pk_theta, n_draws=n_draws, seed=seed, min_ess=1)
    dead_draws = []
    ref_task = functools.partial(_ref_individual_moments, dead_draws=dead_draws)
    monkeypatch.setattr(condoracle, "_individual_moments", ref_task)
    ref = conditional_moments(pk, ds, pk_theta, n_draws=n_draws, seed=seed, min_ess=1)
    assert sum(dead_draws) > 0
    _assert_same_moments(new, ref)


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_mc_reference_fim_memory_bounded_by_the_block(poisson, poisson_theta):
    # simulating 100,000-draw chunks peaked at 7.35 MiB traced here, one
    # block simulated at a time at 0.86
    peak = _traced_peak_mib(
        lambda: mc_reference_fim(poisson, poisson_theta, Design(n=1), n_draws=200_000, seed=3)
    )
    assert peak < 2.0


def test_oracle_task_memory_bounded_by_the_block(pk, pk_theta, pk_data):
    # the whole-draw form peaked at 78 MiB traced here, the blocked one at 16
    ds = pk_data.subset([0])
    start = pk.initial_latents(ds, pk_theta, substream(3, 12345))
    modes, covs = _laplace_fit(pk, ds, pk_theta, start)
    task = (pk, ds, pk_theta, modes[0], covs[0], 0, 100_000, 3, 1.0)
    peak = _traced_peak_mib(lambda: condoracle._individual_moments(task))
    assert peak < 32.0
