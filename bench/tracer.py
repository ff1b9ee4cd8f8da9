"""In-memory call tracer installed around scorefim's layers from outside.

Every wrapped call pushes a frame on one stack; when it returns, its duration
is charged to its parent frame as child time, so a call's self time is its
duration minus the part its wrapped callees cover.  Coarse calls are also kept
as span records (name, start, end, parent span, and a run id: the id of
the outermost enclosing span, so one per study or fit); hot leaf functions
only feed the per-name aggregate counters, so tracing them stores nothing per
call.  The tracer is single-threaded: the traced run uses one worker, so every
replicate executes in this process.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.extra[key] = max(self.extra.get(key, value), value)

    def minimum(self, key: str, value: float) -> None:
        self.extra[key] = min(self.extra.get(key, value), value)


class Tracer:
    """Stack of open calls plus finished spans and per-name counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child_s, span_id, run_id]
        self.spans: list[dict] = []
        self.stats: dict[str, Stat] = {}

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def enter(self, name: str, span: bool = False) -> None:
        span_id = run_id = None
        if span:
            span_id = len(self.spans)
            parent = next((f for f in reversed(self.stack) if f[3] is not None), None)
            run_id = parent[4] if parent is not None else span_id
            self.spans.append({
                "id": span_id, "name": name, "parent": parent[3] if parent else None,
                "run": run_id, "start": None, "end": None, "self": None,
            })
        self.stack.append([name, self.clock(), 0.0, span_id, run_id])

    def exit(self) -> None:
        """Close the innermost call."""
        name, start, child_s, span_id, _ = self.stack.pop()
        end = self.clock()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        st = self.stat(name)
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s
        if span_id is not None:
            self.spans[span_id].update(start=start, end=end, self=duration - child_s)

    def wrap(self, name: str, fn, span: bool = False, observe=None):
        """Wrapper that traces ``fn`` under ``name``.

        ``observe(stat, bound_args, result)`` records counts at the same
        boundary; ``bound_args`` maps parameter names to values.
        """
        sig = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self.stat(name), bound.arguments, result)
            return result

        return traced


class Patcher:
    """Replaces every binding of a function or method and restores them."""

    def __init__(self):
        self._undo: list = []

    def function(self, fn, wrapper) -> None:
        """Rebind ``fn`` under every scorefim module attribute that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "scorefim" or mod_name.startswith("scorefim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# --------------------------------------------------------------------------
# what is traced: one entry per layer boundary


def _count_rows(stat, args, result):
    stat.add("rows", len(result))


def _count_elems(stat, args, result):
    stat.add("elems", getattr(result, "size", 1))


def _count_mh(stat, args, result):
    tried = int(args["n_steps"]) * args["dataset"].n
    stat.add("tried", tried)
    stat.add("accepted", round(result[2] * tried))


def _count_saem_iterations(stat, args, result):
    stat.add("iterations", args["config"].total_iterations)


def _count_em(stat, args, result):
    stat.add("iterations", result.n_iter)


def _count_buffer(stat, args, result):
    stat.maximum("len_max", len(result))


def _count_general(stat, args, result):
    stat.add("pruned_mass", result.diagnostics["pruned_mass"])


def _count_mc_draws(stat, args, result):
    stat.add("draws", int(args["n_draws"]))


def _count_oracle(stat, args, result):
    stat.add("draws", int(args["n_draws"]) * args["dataset"].n)
    stat.minimum("min_ess", float(result.ess.min()))


def _count_bytes(stat, args, result):
    path = result if result is not None else args["path"]
    stat.add("bytes", os.path.getsize(path))


def install(tracer: Tracer) -> Patcher:
    """Wrap scorefim's layer boundaries; the returned Patcher undoes it."""
    from scorefim import condoracle, data, fim, reporting, saem, saem_general, studies
    from scorefim.models import gaussian_mixture, lmm, pk, poisson_mixture

    patch = Patcher()

    def fn(name, f, span=False, observe=None):
        patch.function(f, tracer.wrap(name, f, span, observe))

    model_classes = (
        lmm.LinearMixedModel, poisson_mixture.PoissonMixtureModel,
        gaussian_mixture.GaussianMixtureModel, pk.PkNlmeModel, pk.PkFixedVModel,
    )
    methods = {
        "complete_loglik": _count_rows, "complete_score": None,
        "complete_hessian": None, "statistics": None, "argmax_complete": None,
        "marginal_score": None, "marginal_hessian": None, "simulate": None,
        "conditional_expected_score": None, "maximize_weighted": None,
    }
    for cls in model_classes:
        for meth, observe in methods.items():
            if meth in cls.__dict__:
                patch.method(cls, meth, tracer.wrap(f"models.{meth}", cls.__dict__[meth], observe=observe))
    patch.method(pk._FusedProfile, "__init__", tracer.wrap("models.profile_build", pk._FusedProfile.__init__))
    patch.method(pk._FusedProfile, "__call__", tracer.wrap("models.profile_eval", pk._FusedProfile.__call__))
    patch.method(data.Dataset, "n_obs", tracer.wrap("data.n_obs", data.Dataset.n_obs))
    patch.method(
        reporting.ManifestTimer, "write",
        tracer.wrap("reporting.write", reporting.ManifestTimer.write, span=True, observe=_count_bytes),
    )

    fn("models.pk_prediction", pk.pk_prediction, observe=_count_elems)
    fn("models.em", gaussian_mixture.gaussian_mixture_em, span=True, observe=_count_em)
    fn("saem.run_saem", saem.run_saem, span=True, observe=_count_saem_iterations)
    fn("saem.mh_sweep", saem._mh_sweep, observe=_count_mh)
    fn("saem.individual_delta", saem.individual_delta)
    fn("saem_general.run", saem_general.run_general_saem, span=True, observe=_count_general)
    fn("saem_general.buffer_update", saem_general.buffer_update, observe=_count_buffer)
    fn("saem_general.maximize_q", saem_general.maximize_q)
    fn("fim.score_outer_fim", fim.score_outer_fim)
    fn("fim.observed_fim", fim.observed_fim)
    fn("fim.mc_reference_fim", fim.mc_reference_fim, span=True, observe=_count_mc_draws)
    fn("fim.conditional_score_fim", fim.conditional_score_fim)
    fn("fim.wald", fim.wald_confidence_intervals)
    fn("condoracle.conditional_moments", condoracle.conditional_moments, span=True, observe=_count_oracle)
    fn("condoracle.laplace_fit", condoracle._laplace_fit)
    fn("reporting.write", reporting.write_table, span=True, observe=_count_bytes)
    fn("studies.run_study", studies.run_study, span=True)
    for worker in ("_bias_worker", "_replication_worker", "_coverage_worker", "_meng_worker"):
        fn("studies.replicate", getattr(studies, worker), span=True)
    return patch


# --------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> value; a layer that did no work reads 0."""
    st = tracer.stats
    empty = Stat()

    def s(name) -> Stat:
        return st.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in (
        "models.pk_prediction", "models.complete_loglik", "models.argmax_complete",
        "data.n_obs", "saem.mh_sweep", "saem.individual_delta",
        "fim.score_outer_fim", "condoracle.laplace_fit",
    ):
        m[f"{layer}.calls"] = s(layer).calls
    for layer in (
        "models.pk_prediction", "models.complete_loglik", "models.complete_score",
        "models.complete_hessian", "models.statistics", "models.argmax_complete",
        "models.profile_eval", "models.profile_build", "models.maximize_weighted",
        "models.marginal_score", "models.marginal_hessian", "models.simulate",
        "models.conditional_expected_score", "models.em", "data.n_obs",
        "saem.run_saem", "saem.mh_sweep", "saem.individual_delta",
        "saem_general.buffer_update", "saem_general.maximize_q",
        "fim.score_outer_fim", "fim.observed_fim", "fim.mc_reference_fim",
        "fim.conditional_score_fim", "fim.wald", "condoracle.conditional_moments",
        "condoracle.laplace_fit",
    ):
        m[f"{layer}.self_s"] = s(layer).self_s
    m["saem_general.run.self_s"] = s("saem_general.run").self_s

    # unit costs use inclusive time: complete_loglik's own work is mostly
    # the pk_prediction and n_obs calls it makes
    pk = s("models.pk_prediction")
    m["models.pk_prediction.ns_per_elem"] = ratio(pk.total_s * 1e9, pk.extra.get("elems", 0))
    cl = s("models.complete_loglik")
    m["models.complete_loglik.us_per_row"] = ratio(cl.total_s * 1e6, cl.extra.get("rows", 0))
    m["models.profile_evals"] = s("models.profile_eval").calls
    m["models.profile_evals_per_mstep"] = ratio(
        s("models.profile_eval").calls, s("models.maximize_weighted").calls
    )
    m["models.em.calls"] = s("models.em").calls
    m["models.em.iterations"] = s("models.em").extra.get("iterations", 0)

    m["saem.iterations"] = s("saem.run_saem").extra.get("iterations", 0)
    mh = s("saem.mh_sweep")
    m["saem.mh_accept_ratio"] = ratio(mh.extra.get("accepted", 0), mh.extra.get("tried", 0))

    gen = s("saem_general.run")
    m["saem_general.buffer_len_max"] = s("saem_general.buffer_update").extra.get("len_max", 0)
    m["saem_general.pruned_mass"] = ratio(gen.extra.get("pruned_mass", 0.0), gen.calls)

    mc = s("fim.mc_reference_fim")
    m["fim.mc_reference_fim.draws_per_s"] = ratio(mc.extra.get("draws", 0), mc.total_s)
    oracle = s("condoracle.conditional_moments")
    m["condoracle.draws_per_s"] = ratio(oracle.extra.get("draws", 0), oracle.total_s)
    m["condoracle.min_ess"] = oracle.extra.get("min_ess", 0.0)

    reps = [sp["end"] - sp["start"] for sp in tracer.spans if sp["name"] == "studies.replicate"]
    m["studies.replicates"] = len(reps)
    m["studies.replicate_s_p50"] = statistics.median(reps) if reps else 0.0
    m["studies.replicate_s_max"] = max(reps, default=0.0)
    m["studies.serial_s"] = s("studies.run_study").total_s - sum(reps)

    rep = s("reporting.write")
    m["reporting.bytes_written"] = rep.extra.get("bytes", 0)
    m["reporting.write_s"] = rep.total_s
    return m
