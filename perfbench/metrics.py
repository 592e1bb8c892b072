"""The benchmark's metrics.

Names, units, directions and bounds are read from ``BENCHMARK.json``; this
module holds how each metric is computed and, for each layer metric, the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import json
import statistics
from pathlib import Path

SIEVE, MULT, SUMSET, CLI = "sieve-soundness", "multiplicative", "sumset-search", "cli-cold"
# ops per half of a traced run (untraced, then traced, same seed)
TRACE_OPS = {SIEVE: 400, MULT: 100, SUMSET: 600, CLI: 30}

CLI_SUBCOMMANDS = (
    "primes", "sieve-bound", "inverse-sieve", "smooth-count", "dickman", "tuple-count",
    "bv-sum", "semigroup", "sumset", "ruzsa", "decompose", "check-genthm", "ostmann-diag",
    "verify-all",
)

# layer metrics, the end-to-end metric each should move, and on which workload
MOVES = [
    (("sieves.sift_count.self_s", "sieves.sift_count.pairs"),
     "throughput_ops_s, latency_p90_ms", SIEVE),
    (("primes.divisibility_hits.self_s", "primes.divisibility_hits.values"),
     "throughput_ops_s", SIEVE),
    (("irreducibility.build_context.self_s", "primes.density_ratio_c.self_s",
      "primes.subset_sums.calls", "primes.subset_sums.self_s"), "latency_p50_ms", SIEVE),
    (tuple(f"sieves.{fn}.self_s" for fn in (
        "larger_sieve_bound", "large_sieve_bound", "selberg_bound", "prop_smallkscs_bound",
        "prop_smallkbv_bound", "middlek_bound", "occupancy"))
     + ("sieves.verified_ratio", "sieves.verified_count", "sieves.attempted_count"),
     "throughput_ops_s", SIEVE),
    (("primes.PrimeTable.self_s", "primes.table_bytes", "semigroup.enumerate_q.self_s",
      "semigroup.enumerate_q.elements"), "setup_s, peak_rss_mb",
     f"{SIEVE}; throughput_ops_s on {MULT}"),
    (("smooth.dickman_rho.self_s", "smooth.dickman_rho.max_call_ms"),
     f"throughput_ops_s on {MULT}; latency_p90_ms on {CLI}", f"{MULT}, {CLI}"),
    (tuple(f"smooth.{fn}.self_s" for fn in (
        "psi", "enumerate_smooth", "bv_discrepancy_sum", "smooth_tuple_count"))
     + ("smooth.psi.calls", "smooth.enumerate_smooth.elements",
        "smooth.bv_discrepancy_sum.moduli", "smooth.capacity_errors"),
     "latency_p50_ms, throughput_ops_s", MULT),
    (("semigroup.estimate_tau.self_s", "semigroup.verify_hypotheses_wirsing.self_s",
      "arith.check_comparison_inequality.self_s", "arith.restricted_multiplicative_sum.self_s"),
     "throughput_ops_s", MULT),
    (tuple(f"sumset.{fn}.self_s" for fn in (
        "sumset", "ruzsa_check", "decompose_binary", "decompose_binary_relative"))
     + ("sumset.decompose_binary.nodes", "sumset.decompose_binary_relative.nodes"),
     "throughput_ops_s, latency_p90_ms", SUMSET),
    (("cli.import_s",) + tuple(f"cli.{sub}.{stat}" for sub in CLI_SUBCOMMANDS
                               for stat in ("process_s", "report_ms")),
     "latency_p50_ms, setup_s", CLI),
    (("checks.run_all.self_s",), "latency_p90_ms", CLI),
    (("trace.overhead_ratio", "trace.traced_ops_s", "trace.untraced_ops_s"),
     "none: the cost of tracing", "all"),
]


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    """``BENCHMARK.json``: every metric's name, unit, direction and bound."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def benchmarked() -> tuple:
    """The workloads ``BENCHMARK.json`` lists, in its order."""
    return tuple(w["name"] for w in spec()["workloads"])


def units() -> dict:
    return {m["name"]: m["unit"] for m in spec()["end_to_end"] + spec()["per_layer"]}


def quantile(values, q: float) -> float:
    """The q-quantile by the 'exclusive' method of statistics.quantiles."""
    cuts = statistics.quantiles(sorted(values), n=100, method="exclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    lat = result["latencies"]
    return {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_p90_ms": 1000.0 * quantile(lat, 0.90),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Layer metrics of a traced worker result; ``untraced`` is the result
    of the untraced half of the same run (same seed)."""
    summary = _merge([traced["trace"]] + traced["extra"].get("child_traces", []))
    self_s, calls, counters, max_s = (summary[k] for k in ("self_s", "calls", "counters", "max_s"))
    out = {}
    for name in (m["name"] for m in spec()["per_layer"]):
        base, _, stat = name.rpartition(".")
        if stat == "self_s":
            out[name] = self_s.get(base, 0.0)
        elif stat == "calls":
            out[name] = calls.get(base, 0)
        elif name in counters:
            out[name] = counters[name]
    out["primes.table_bytes"] = counters.get("primes.PrimeTable.table_bytes", 0)
    out["sieves.sift_count.pairs"] = counters.get("sieves.sift_count.pairs", 0)
    out["smooth.capacity_errors"] = counters.get("smooth.capacity_errors", 0)
    out["smooth.dickman_rho.max_call_ms"] = 1000.0 * max_s.get("smooth.dickman_rho", 0.0)
    extra = traced["extra"]
    verified, attempted = extra.get("sieves.verified_count", 0), extra.get("sieves.attempted_count", 0)
    out["sieves.verified_count"] = verified
    out["sieves.attempted_count"] = attempted
    out["sieves.verified_ratio"] = verified / attempted if attempted else 0.0
    imports = [t["import_s"] for t in extra.get("child_traces", []) if "import_s" in t]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    plain = untraced["extra"]
    for sub in CLI_SUBCOMMANDS:
        times = plain.get("process_s", {}).get(f"cli.{sub}", [])
        reports = plain.get("report_ms", {}).get(f"cli.{sub}", [])
        out[f"cli.{sub}.process_s"] = statistics.median(times) if times else 0.0
        out[f"cli.{sub}.report_ms"] = statistics.median(reports) if reports else 0.0
    traced_rate = len(traced["latencies"]) / sum(traced["latencies"])
    plain_rate = len(untraced["latencies"]) / sum(untraced["latencies"])
    out["trace.traced_ops_s"] = traced_rate
    out["trace.untraced_ops_s"] = plain_rate
    out["trace.overhead_ratio"] = traced_rate / plain_rate
    for name in (m["name"] for m in spec()["per_layer"]):
        out.setdefault(name, 0)
    return out


def _merge(summaries) -> dict:
    merged = {"self_s": {}, "calls": {}, "counters": {}, "max_s": {}}
    for summary in summaries:
        if not summary:
            continue
        for key in ("self_s", "calls", "counters"):
            for name, value in summary[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in summary["max_s"].items():
            merged["max_s"][name] = max(merged["max_s"].get(name, 0.0), value)
    return merged
