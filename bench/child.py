"""One execution of a workload in a fresh interpreter.

    python3 bench/child.py --workload W --seed S --threads T --trace 0|1 --out DIR [--tiny]

Imports scorefim from the checkout's ``src/``, runs the workload's studies
through ``parse_study_config`` + ``run_study`` (and the analytic workload's
fit through ``run_saem``), checks every output, and prints one JSON record as
the last line of standard output.  Times are ``time.monotonic()`` stamps, so
the launching process can measure them from its own clock.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Dispatch:
    """Stands in for ``studies._pmap``, the one point where replicates fan
    out: stamps the first dispatch and keeps each batch's results for the
    output checks.  It adds one call per batch, not per replicate."""

    def __init__(self, pmap):
        self.pmap = pmap
        self.first: float | None = None
        self.batches: list = []

    def __call__(self, fn, payloads, threads):
        if self.first is None:
            self.first = time.monotonic()
        results = self.pmap(fn, payloads, threads)
        self.batches.append((fn.__name__, results))
        return results


def run(workload: str, seed: int, threads: int, traced: bool, out: Path, tiny: bool) -> dict:
    import numpy as np
    import scipy

    import checks
    import tracer as tracing
    import workloads
    from scorefim import Design, simulate_dataset, studies, write_fim_csv
    from scorefim import saem as saem_mod
    from scorefim.models import build_model

    tracer = tracing.Tracer() if traced else None
    patch = tracing.install(tracer) if traced else None
    dispatch = Dispatch(studies._pmap)
    studies._pmap = dispatch

    plan = workloads.plan(workload, seed, tiny)
    configs = [(label, studies.parse_study_config(raw), workloads.replicate_count(raw))
               for label, raw in plan.studies]
    fit_setup = None
    if plan.fit is not None:
        f = plan.fit
        model = build_model("lmm")
        ds = simulate_dataset(model, model.make_params(f["theta"]),
                              Design(n=f["n"], n_obs=f["n_obs"]), seed=seed)
        cfg = saem_mod.SaemConfig(
            schedule=saem_mod.StepSchedule(f["burn_in"], 0.95, 1.0),
            total_iterations=f["total_iterations"], seed=seed, track_louis=True,
        )
        fit_setup = (model, ds, cfg, model.initial_theta(ds))

    outputs = out / "outputs"
    attempted = failed = 0
    errors: list[str] = []  # failures the library reported: counted, not a check failure
    problems: list[str] = []  # outputs that fail a check
    reports = {}
    study_results = {}
    for label, cfg, count in configs:
        first_batch = len(dispatch.batches)
        attempted += count
        try:
            report = studies.run_study(cfg, out_dir=outputs / label, threads=threads)
        except Exception:  # a study that raises fails all its replicates
            errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            failed += count
            reports[label] = (cfg, None)
            continue
        reports[label] = (cfg, report)
        study_results[label] = dispatch.batches[first_batch:]

    fit = None
    if fit_setup is not None:
        attempted += 1
        model, ds, cfg, theta0 = fit_setup
        try:
            fit = saem_mod.run_saem(model, ds, cfg, theta0=theta0)
            (outputs / "lmm_fit").mkdir(parents=True, exist_ok=True)
            write_fim_csv(fit.fim, outputs / "lmm_fit" / "fim.csv")
            write_fim_csv(fit.louis, outputs / "lmm_fit" / "louis.csv")
        except Exception:
            errors.append(f"lmm_fit: {traceback.format_exc(limit=3)}")
            failed += 1
            fit = None
    t_done = time.monotonic()

    if patch is not None:
        patch.restore()  # the checks below must not count as traced work
    studies._pmap = dispatch.pmap

    for label, cfg, count in configs:
        if reports[label][1] is None:
            continue
        results = [r for _, batch in study_results[label] for r in batch]
        problem = checks.study_problem(cfg, reports[label][1], results, outputs / label)
        if problem:
            problems.append(f"{label}: {problem}")
            failed += count
            continue
        for worker, batch in study_results[label]:
            for m, result in enumerate(batch):
                if "error" in result:
                    errors.append(f"{label} replicate {m}: {result['error']}")
                    failed += 1
                elif problem := checks.replicate_problem(worker, cfg, result):
                    problems.append(f"{label} replicate {m}: {problem}")
                    failed += 1
    if fit is not None:
        problem = checks.fit_problem(fit)
        if problem:
            problems.append(f"lmm_fit: {problem}")
            failed += 1

    self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record = {
        "workload": workload, "seed": seed, "threads": threads, "traced": traced,
        "t_first_dispatch": dispatch.first, "t_done": t_done,
        "attempted": attempted, "failed": failed, "errors": errors, "problems": problems,
        "accuracy_err": workloads.accuracy_err(workload, reports),
        "peak_rss_mb": max(self_ru, kids_ru) / 1024.0,  # ru_maxrss is in KiB
        "csv_sha256": checks.csv_digests(outputs),
        "versions": {
            "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
        with open(out / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "scorefim" / "__init__.py").is_file():
        print(f"no scorefim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scorefim

    if Path(scorefim.__file__).resolve().parent != (SRC / "scorefim").resolve():
        print(f"scorefim imported from {scorefim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.threads, bool(args.trace), args.out, args.tiny)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
