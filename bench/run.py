"""scorefim benchmark: three workloads along the three routes to the FIM.

    python3 bench/run.py --workload pk_saem --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --record bench/results/NAME.json

Each measurement runs the workload in a fresh interpreter (bench/child.py)
with BLAS pinned to one thread per process.

--trace 0 repeats the workload at 2 workers for as long as another repeat,
as long as the slowest so far, still ends within --seconds (at least once),
and reports the median of each end-to-end metric over the repeats:
  wall_s            process start until every output file is written
  setup_s           process start until the first replicate is dispatched
  replicates_per_s  replicates attempted / (wall_s - setup_s)
  peak_rss_mb       peak RSS of the run process or any of its workers
Both modes print failed_frac (failed / attempted replicates) and
accuracy_err (the workload's accuracy statistic, fixed by the seed) alongside
the metrics and record them in the result; accuracy_err is not one of the
result's metrics because it has no value when a study the statistic needs
raised (the pk_saem oracle on a few seeds, see README.md).

--trace 1 runs the workload once at 2 workers, once at 1 worker and once at
1 worker with the tracer installed, and reports the per-layer metrics of the
traced run plus studies.fanout_speedup (1-worker over 2-worker wall time) and
trace.overhead_frac (traced over untraced 1-worker wall time, minus 1).

Every run checks the outputs (bench/checks.py) and that all its executions
wrote byte-identical study CSVs and counted the same failures, whatever the
worker count.  The executions of a run repeat the same replicates to time
them, so the run's attempted and failed counts are those of one execution:
they depend on the seed alone, not on how many repeats fitted in the time.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
THREADS = 2
BLAS_PINS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units every run must report."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def execute(workload, seed, threads, traced, deadline, tiny=False) -> dict:
    """Run the workload once in a fresh interpreter; returns its record with
    wall_s and setup_s measured from just before the process started."""
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--threads", str(threads), "--trace", str(int(traced)),
        "--out", str(out),
    ] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_PINS)
    try:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
        exec_s = time.monotonic() - t0
        if proc.returncode != 0:
            raise BenchError(f"{workload} exited with code {proc.returncode}")
        record = json.loads(stdout.strip().splitlines()[-1])
        if traced:
            shutil.copy(out / "spans.json", OUT / f"spans-{workload}-seed{seed}.json")
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within the run budget") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record["exec_s"] = exec_s  # wall_s plus the output checks and the exit
    record["wall_s"] = record["t_done"] - t0
    record["setup_s"] = record["t_first_dispatch"] - t0
    record["replicates_per_s"] = record["attempted"] / (record["wall_s"] - record["setup_s"])
    return record


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "platform": platform.platform(), "workers": THREADS, "blas_threads": BLAS_PINS,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run: the result object plus a summary of each execution."""
    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    if trace:
        records = [
            execute(workload, seed, THREADS, False, deadline, tiny),
            execute(workload, seed, 1, False, deadline, tiny),
            execute(workload, seed, 1, True, deadline, tiny),
        ]
        two, one, traced = records
        metrics = dict(traced["layers"])
        metrics["studies.fanout_speedup"] = one["wall_s"] / two["wall_s"]
        metrics["trace.overhead_frac"] = traced["wall_s"] / one["wall_s"] - 1.0
    else:
        records = [execute(workload, seed, THREADS, False, deadline, tiny)]
        while True:
            elapsed = time.monotonic() - start
            slowest = max(r["exec_s"] for r in records)
            if elapsed + slowest > min(seconds, RUN_BUDGET_S):
                break
            records.append(execute(workload, seed, THREADS, False, deadline, tiny))
        metrics = {m["name"]: statistics.median(r[m["name"]] for r in records) for m in declared}
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError("the run's metrics differ from those BENCHMARK.json declares")

    problems = [p for r in records for p in r["problems"]]
    if len({json.dumps(r["csv_sha256"], sort_keys=True) for r in records}) != 1:
        problems.append("study CSVs differ between executions of the same seed")
    if len({(r["attempted"], r["failed"]) for r in records}) != 1:
        problems.append("executions of the same seed counted different failures")
    attempted, failed = records[0]["attempted"], records[0]["failed"]
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": {**environment(), "versions": records[0]["versions"]},
        "correct": not problems,
        "attempted": attempted, "failed": failed, "problems": problems,
        "errors": records[0]["errors"],
        "accuracy_err": records[0]["accuracy_err"],
        "csv_sha256": records[0]["csv_sha256"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "executions": [
            {k: r[k] for k in ("threads", "traced", "wall_s", "setup_s", "replicates_per_s",
                               "peak_rss_mb", "attempted", "failed")}
            for r in records
        ],
    }


def report(result: dict) -> None:
    """Human-readable lines for one run (never the last line of output)."""
    env = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"commit {env['commit'][:12]}  nproc {env['nproc']}  {env['cpu_model']}")
    print(f"   python {env['versions']['python']}  numpy {env['versions']['numpy']}  "
          f"scipy {env['versions']['scipy']}  workers {env['workers']}  BLAS threads 1")
    for ex in result["executions"]:
        print(f"   execution: {ex['threads']} worker(s){' traced' if ex['traced'] else ''}  "
              f"wall {ex['wall_s']:.3f} s  setup {ex['setup_s']:.3f} s  "
              f"rss {ex['peak_rss_mb']:.1f} MB")
    for name, m in result["metrics"].items():
        print(f"   {name:42s} {m['value']:>14.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"   {'failed_frac':42s} {frac:>14.6g} ratio ({result['failed']} of {result['attempted']})")
    acc = result["accuracy_err"]
    print(f"   {'accuracy_err':42s} {acc if acc is not None else 'n/a':>14} ratio")
    for path, digest in sorted(result["csv_sha256"].items()):
        print(f"   sha256 {digest}  {path}")
    for e in result["errors"]:
        print(f"   FAILED: {e}")
    for p in result["problems"]:
        print(f"   CHECK FAILED: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="with --workload all: write every result here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "scorefim" / "__init__.py").is_file():
        print(f"no scorefim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.workload == "all":
            results = [
                run_workload(w, args.seed, args.seconds, bool(t))
                for w in WORKLOADS for t in (0, 1)
            ]
            for r in results:
                report(r)
            if args.record:
                args.record.parent.mkdir(parents=True, exist_ok=True)
                args.record.write_text(json.dumps(results, indent=1) + "\n")
            return 0 if all(r["correct"] for r in results) else 1
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
