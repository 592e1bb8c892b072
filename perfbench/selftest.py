"""The benchmark's own checks.

    python3 perfbench/selftest.py [--workloads a,b]

1. The traced run's wrappers bind every copy of each wrapped function and
   ``uninstall`` restores the originals.
2. Determinism: two traced runs of a fixed op count with the same seed give
   identical work counters and an identical digest of exact outputs (counts,
   verdicts, exit codes); a different seed gives different inputs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run as bench  # noqa: E402

SELFTEST_OPS = {"sieve-soundness": 60, "multiplicative": 60, "sumset-search": 200, "cli-cold": 12}
COUNTER_KEYS = ("pairs", "values", "elements", "moduli", "nodes", "table_bytes", "capacity_errors")


def check_bindings() -> list[str]:
    sys.path.insert(0, str(bench.ROOT / "src"))
    import sumsieve
    from sumsieve import irreducibility, primes, sieves, smooth
    from tracing import Tracer

    originals = (primes.divisibility_hits, primes.density_ratio_c,
                 sieves.reduced_residues_mask, primes.PrimeTable.__init__)
    tracer = Tracer()
    tracer.install()
    problems = []
    copies = {
        "divisibility_hits": (primes.divisibility_hits, sieves.divisibility_hits,
                              irreducibility.divisibility_hits),
        "density_ratio_c": (primes.density_ratio_c, irreducibility.density_ratio_c,
                            sumsieve.density_ratio_c),
        "reduced_residues_mask": (sieves.reduced_residues_mask, smooth.reduced_residues_mask,
                                  irreducibility.reduced_residues_mask),
    }
    for name, bound in copies.items():
        if not all(hasattr(fn, "__wrapped__") for fn in bound) or len({id(fn) for fn in bound}) != 1:
            problems.append(f"{name} is not wrapped in every module that binds it")
    if not hasattr(primes.PrimeTable.__init__, "__wrapped__"):
        problems.append("PrimeTable.__init__ is not wrapped")
    primes.PrimeTable(1000)
    if tracer.calls.get("primes.PrimeTable") != 1:
        problems.append("PrimeTable construction recorded no span")
    tracer.uninstall()
    restored = (primes.divisibility_hits, primes.density_ratio_c,
                sieves.reduced_residues_mask, primes.PrimeTable.__init__)
    if restored != originals or hasattr(sieves.divisibility_hits, "__wrapped__"):
        problems.append("uninstall did not restore the originals")
    return problems


def traced_run(workload: str, seed: int) -> dict:
    record, _ = bench.run_worker(["--workload", workload, "--seed", str(seed), "--trace",
                                  "--ops", str(SELFTEST_OPS[workload])],
                                 time.monotonic() + bench.RUN_DEADLINE_S)
    return record


def work_counters(record: dict) -> dict:
    merged = metrics._merge([record["trace"]] + record["extra"].get("child_traces", []))
    counters = {k: v for k, v in merged["counters"].items() if k.rsplit(".", 1)[-1] in COUNTER_KEYS}
    counters.update({f"{k}.calls": v for k, v in merged["calls"].items()})
    return counters


def check_determinism(workload: str) -> list[str]:
    first, second = traced_run(workload, 11), traced_run(workload, 11)
    other = traced_run(workload, 12)
    problems = []
    if work_counters(first) != work_counters(second):
        diff = {k for k in set(work_counters(first)) | set(work_counters(second))
                if work_counters(first).get(k) != work_counters(second).get(k)}
        problems.append(f"{workload}: counters differ between same-seed runs: {sorted(diff)[:8]}")
    if first["exact_digest"] != second["exact_digest"]:
        problems.append(f"{workload}: exact outputs differ between same-seed runs")
    if first["input_digest"] != second["input_digest"]:
        problems.append(f"{workload}: inputs differ between same-seed runs")
    if first["input_digest"] == other["input_digest"]:
        problems.append(f"{workload}: seeds 11 and 12 gave the same inputs")
    if not work_counters(first):
        problems.append(f"{workload}: the traced run recorded no work")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    args = parser.parse_args(argv)
    problems = check_bindings()
    for workload in args.workloads.split(","):
        found = check_determinism(workload)
        print(f"determinism {workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
