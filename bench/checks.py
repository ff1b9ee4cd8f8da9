"""Output checks applied to every replicate and study of a benchmark run.

A completed replicate fails the checks when one of its outputs is malformed: a score-provenance FIM that is not finite, not exactly
symmetric or not PSD, or a Wald interval that is not finite.  A study fails
as a whole (all its replicates) when it raises, when its reference matrix is
malformed, or when the M_effective it reports does not equal the attempted
count less the failures.  Accuracy is not checked here: it is a graded
metric, not a gate.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np


def score_fim_problem(entries) -> str | None:
    """Why a score-provenance FIM is malformed, or None."""
    a = np.asarray(entries, dtype=float)
    if not np.all(np.isfinite(a)):
        return "non-finite FIM"
    if not np.array_equal(a, a.T):
        return "FIM not exactly symmetric"
    if np.linalg.eigvalsh(a)[0] < -1e-10 * max(float(np.trace(a)), 1e-300):
        return "FIM not PSD"
    return None


def wald_problem(theta_values, fim) -> str | None:
    """Why the 95% Wald intervals at (theta, fim) are unusable, or None."""
    from scorefim.errors import ScorefimError
    from scorefim.fim import wald_confidence_intervals
    from scorefim.params import ParamVector

    theta = ParamVector(np.asarray(theta_values, dtype=float), fim.names)
    try:
        cis = wald_confidence_intervals(theta, fim, 0.05)
    except ScorefimError as exc:
        return f"Wald intervals: {exc}"
    if not all(np.isfinite([ci.lower, ci.upper, ci.se]).all() for ci in cis):
        return "non-finite Wald interval"
    return None


def replicate_problem(worker: str, config, result: dict) -> str | None:
    """Why one completed replicate's outputs fail the checks, or None."""
    from scorefim.fim import FimMatrix

    names = config.theta_star.names
    if worker == "_bias_worker":
        for est, entries in result.items():
            a = np.asarray(entries)
            if est == "score":
                problem = score_fim_problem(a)
            elif not (np.all(np.isfinite(a)) and np.array_equal(a, a.T)):
                problem = "malformed observed FIM"
            else:
                problem = None
            if problem:
                return f"{est}: {problem}"
        return None
    if worker == "_replication_worker":
        # chains return only the FIM diagonal trajectory: finite and >= 0
        diag = np.asarray(result["fim_diag"])
        if not (np.all(np.isfinite(diag)) and np.all(diag >= 0)):
            return "FIM diagonal not finite and nonnegative"
        if not np.all(np.isfinite(result["theta"])):
            return "non-finite terminal estimate"
        return None
    if worker == "_coverage_worker":
        entries, n = result["fim"], config.design.n
    elif worker == "_meng_worker":
        entries, n = result["total_fim"], 1  # n * per-individual FIM
    else:
        raise ValueError(f"no checks for worker {worker!r}")
    problem = score_fim_problem(entries)
    if problem:
        return problem
    return wald_problem(result["theta"], FimMatrix(entries, "score", n, names))


def study_problem(config, report, results: list, out_dir: Path) -> str | None:
    """Why a finished study's report or files are inconsistent, or None."""
    attempted = len(results)
    errors = sum("error" in r for r in results)
    if report.failures != errors:
        return f"report counts {report.failures} failures, replicates returned {errors}"
    expected = config.M - report.failures
    if report.m_effective != expected:
        return f"M_effective {report.m_effective} != {config.M} attempted - {report.failures} failed"
    if "reference_sco" in report.extras:  # the oracle's score reference
        problem = score_fim_problem(report.extras["reference_sco"].entries)
        if problem:
            return f"oracle reference: {problem}"
    for path in out_dir.rglob("*.csv"):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if "M_effective" in row and int(row["M_effective"]) != report.m_effective:
                    return f"{path.name}: M_effective {row['M_effective']} != {report.m_effective}"
                if "M" in row and int(row["M"]) != config.M:
                    return f"{path.name}: M {row['M']} != {config.M}"
    if attempted and attempted % config.M:
        return f"{attempted} replicates dispatched for M={config.M}"
    return None


def fit_problem(result) -> str | None:
    """Why a single SAEM fit's outputs fail the checks, or None."""
    problem = score_fim_problem(result.fim.entries)
    if problem:
        return problem
    if result.louis is not None:
        louis = result.louis.entries
        if not (np.all(np.isfinite(louis)) and np.array_equal(louis, louis.T)):
            return "malformed Louis FIM"
    return wald_problem(result.theta.values, result.fim)


def csv_digests(out_dir: Path) -> dict:
    """SHA-256 of every CSV under out_dir, keyed by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*.csv"))
    }
