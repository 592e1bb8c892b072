"""Benchmark entry point for sumsieve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout.  Every measurement happens in a
fresh single-threaded worker process (``worker.py``) with ``PYTHONPATH=src``
and BLAS/OpenMP pinned to one thread.

``--trace 0`` measures the end-to-end metrics with no wrappers installed:
set-up is timed in ``SETUP_ONLY_RUNS`` set-up-only processes before the
measuring process and as many after it, plus the measuring process itself,
and reported as their median.  The measuring process replays the seed's op
set in whole passes for up to ``--seconds`` and takes each op's fastest pass
as its latency (see ``worker.py``).  ``--trace 1`` runs a fixed number of
ops of the same seed once untraced and once traced (``metrics.TRACE_OPS``),
so its counters repeat exactly, and reports the per-layer metrics and the
tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON record
with the keys correct, attempted, failed and metrics.  ``attempted`` counts
op executions over all passes.  The documented defects of the program run
as probes once per timed run; they are printed, and are not ops.  A full
record with host metadata is written to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent
WORK = "perfbench/.work"
# every workload this directory can run; ``all`` and the driver run the
# ones BENCHMARK.json lists
WORKLOADS = ("sieve-soundness", "multiplicative", "sumset-search", "cli-cold")
# every worker of one workload's run must have ended by then
RUN_DEADLINE_S = 170
# set-up-only processes before the measuring one, and again after it;
# setup_s is the median of these and the measuring process, so that the
# samples span the run rather than a few seconds before it
SETUP_ONLY_RUNS = 4


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": "src",
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
    })
    return env


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Start one worker; returns its JSON record and the start time.

    The worker runs in its own process group, so that on a timeout it is
    stopped together with any CLI process it started, and waited for.
    """
    cmd = [sys.executable, "perfbench/worker.py"] + args
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=os.setpgrp)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker passed the run's deadline: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    try:
        return json.loads(stdout.strip().splitlines()[-1]), spawned
    except (ValueError, IndexError) as exc:
        raise BenchError(f"worker printed no record: {stdout[-500:]}") from exc


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_only() -> float:
        record, spawned = run_worker(base + ["--setup-only"], deadline)
        return record["ready"] - spawned

    setups = [setup_only() for _ in range(SETUP_ONLY_RUNS)]
    result, spawned = run_worker(base + ["--seconds", str(seconds)], deadline)
    setups.append(result["ready"] - spawned)
    setups += [setup_only() for _ in range(SETUP_ONLY_RUNS)]
    values = metrics.end_to_end(result, setups)
    return {"metrics": values, "setup_samples": setups, "results": [result]}


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    # a fixed op count, so counters repeat exactly and self times compare
    # the same work across commits
    base = ["--workload", workload, "--seed", str(seed), "--ops", str(metrics.TRACE_OPS[workload])]
    untraced, _ = run_worker(base, deadline)
    spans = f"{WORK}/spans-{workload}-{seed}.npz"
    traced, _ = run_worker(base + ["--trace", "--spans-out", spans], deadline)
    values = metrics.per_layer(traced, untraced)
    return {"metrics": values, "spans_file": spans, "results": [untraced, traced]}


def host_metadata() -> dict:
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def summarise(workload: str, seed: int, trace: int, run: dict) -> dict:
    results = run["results"]
    failures = [f for r in results for f in r["failures"]]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": host_metadata(),
        "ops_by_kind": [r["ops_by_kind"] for r in results],
        "passes": [r["passes"] for r in results],
        "attempted": sum(r["executions"] for r in results),
        "failed": len(failures),
        "known_defects": [d for r in results for d in r["known_defects"]],
        "failures": failures[:50],
        "exact_digest": [r["exact_digest"] for r in results],
        "input_digest": [r["input_digest"] for r in results],
        "oracle_s": [r["oracle_s"] for r in results],
        "samples": len(results[-1]["latencies"]),
        "setup_samples": run.get("setup_samples"),
        "spans_file": run.get("spans_file"),
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in metrics.units().items() if name in run["metrics"]},
    }
    if trace:
        record["moves"] = {name: {"moves": moves, "on": on}
                           for names, moves, on in metrics.MOVES for name in names}
    return record


def print_human(record: dict):
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={record['samples']} passes={record['passes']} "
          f"failed/attempted={record['failed']}/{record['attempted']}")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:42s} {shown:>14s} {metric['unit']:8s} n={record['samples']}")
    if record["trace"] == 0:
        ratio = record["failed"] / record["attempted"]
        print(f"  {'failed_ratio':42s} {ratio:14.6g} {'failed/attempted':8s} "
              f"n={record['attempted']}")
    for failure in record["failures"][:10]:
        print(f"  [FAILED] {failure['kind']}: {failure['reason'][:160]}")
    for defect in record["known_defects"]:
        state = "still reproduces" if defect["reproduces"] else "no longer reproduces"
        print(f"  [known defect {state}] {defect['kind']} {defect['inputs'][:80]}: "
              f"{(defect['reason'] or '')[:120]}")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        run = measure_traced(workload, seed, deadline)
    else:
        run = measure(workload, seed, seconds, deadline)
    record = summarise(workload, seed, trace, run)
    results_dir = ROOT / WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_human(record)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sumsieve" / "__init__.py").is_file():
        print(f"no sumsieve sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(ROOT / WORK, exist_ok=True)
    names = metrics.benchmarked() if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        out_metrics = {name: dict(m) for name, m in records[0]["metrics"].items()}
    else:
        out_metrics = {f"{r['workload']}.{name}": dict(m)
                       for r in records for name, m in r["metrics"].items()}
    summary = {
        "correct": not any(r["failures"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": out_metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
