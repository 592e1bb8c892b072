"""One benchmark process: set up one workload, replay its op set, check.

Started by ``run.py`` as a fresh single-threaded interpreter with
``PYTHONPATH=src``.  The loop has one caller: it issues the next op only
after the previous one returns.

The seed fixes an op set, the first ``opset_cycles`` cycles of the
workload's ops.  A timed run replays the set in whole passes for as long as
the next pass still ends within ``--seconds``, and an op's latency is the
fastest of its passes: the host this was built on switches, from tenths of
a second to tens of seconds at a time, between a fast state and one about
1.5 times slower, and each op's fastest pass is the figure that moves least
with it.  An op that takes ``HEAVY_S`` or more runs only in every
``HEAVY_EVERY``-th pass.  Outputs of the first pass are checked by the
workload's oracles after the timed phase, so checking never lands in a
measured span; a later pass fails only if it raises.  The known-defect
probes run once, after the timed phase, and are reported apart from the ops.
The last line of stdout is one JSON record.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--ops N] [--trace] [--setup-only] [--spans-out PATH]

Run from the repository root; working files go to perfbench/.work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time

import workloads
from common import stable_repr

WORK_DIR = "perfbench/.work"
HEAVY_S = 0.05
HEAVY_EVERY = 2


def op_set(workload, rng, ops: int | None) -> list:
    """The run's ops: ``opset_cycles`` whole cycles, or the first ``ops``."""
    chosen = []
    for index, cycle in enumerate(workload.cycles(rng)):
        chosen += cycle
        if ops is None and index + 1 >= workload.opset_cycles:
            return chosen
        if ops is not None and len(chosen) >= ops:
            return chosen[:ops]


def call(op):
    try:
        return op.run(), None
    except Exception as exc:  # every failure is recorded, none is fatal
        return None, exc


def compacted(op, out, error):
    if op.compact is not None and error is None:
        out = op.compact(out)
    return out, error


def check(op, out, error) -> tuple[str | None, object]:
    """The oracle's verdict on one output, and the output as checked."""
    if error is not None:
        name = type(error).__name__
        if op.expect != name:
            return f"raised {name}: {error}", None
        out = {"raised": name, "info": getattr(error, "info", {})}
    try:
        return op.check(out), out
    except Exception as exc:  # an oracle crash is a failed op, not a crash
        return f"oracle error {type(exc).__name__}: {exc}", out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ALL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=None,
                        help="one pass over the first N ops instead of timed passes")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    process_start = time.monotonic()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.ALL[args.workload](work_dir=WORK_DIR, traced=args.trace)
    workload.setup(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # making the inputs is the benchmark's work, not the program's: it comes
    # after ``ready`` and before the first timed op
    ops = op_set(workload, random.Random(f"{args.workload}:{args.seed}"), args.ops)
    timings = [[] for _ in ops]
    first = [None] * len(ops)
    later_failures = []
    clock = time.perf_counter
    started = clock()
    passes, pass_s = 0, {}
    while True:
        pass_start = clock()
        for index, op in enumerate(ops):
            # a long op averages over many of the host's short stretches, so
            # it needs fewer timings, and the light ops get more passes
            if passes % HEAVY_EVERY and timings[index][0] >= HEAVY_S:
                continue
            t0 = clock()
            out, error = call(op)
            timings[index].append(clock() - t0)
            if first[index] is None:
                first[index] = compacted(op, out, error)
            elif error is not None and op.expect != type(error).__name__:
                later_failures.append({"index": index, "kind": op.kind,
                                       "reason": f"pass {len(timings[index])} raised "
                                                 f"{type(error).__name__}: {error}"[:300]})
        pass_s[passes % HEAVY_EVERY == 0] = clock() - pass_start
        passes += 1
        # another pass only if it ends within --seconds, so every pass is
        # whole; it should take as long as the last pass of its kind
        next_s = pass_s.get(passes % HEAVY_EVERY == 0, pass_s[True])
        if args.ops is not None or clock() - started + next_s > args.seconds:
            break
    timed_s = clock() - started
    # peak resident memory of this process, or of the CLI processes it ran
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss

    trace = None
    if tracer is not None:
        tracer.recording = False
        trace = tracer.summary()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        tracer.uninstall()

    # the documented defects, once per timed run and apart from the ops
    known_defects = []
    if args.ops is None:
        for probe in workload.probes():
            reason, _ = check(probe, *compacted(probe, *call(probe)))
            known_defects.append({"kind": probe.kind, "inputs": stable_repr(probe.inputs),
                                  "reproduces": reason is not None, "reason": reason})

    # oracle phase: outside every timed span
    oracle_start = clock()
    latencies = [min(t) for t in timings]
    kinds, failures, oracle_by_kind, records = {}, [], {}, []
    exact_hash = hashlib.sha256()
    input_hash = hashlib.sha256()
    for index, (op, (out, error)) in enumerate(zip(ops, first)):
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        input_hash.update(stable_repr([op.kind, op.inputs]).encode())
        check_start = clock()
        reason, out = check(op, out, error)
        oracle_by_kind[op.kind] = oracle_by_kind.get(op.kind, 0.0) + clock() - check_start
        if reason is None:
            exact_hash.update(stable_repr([op.kind, op.exact(out)]).encode())
        else:
            exact_hash.update(stable_repr([op.kind, "failed"]).encode())
            failures.append({"index": index, "kind": op.kind, "reason": reason[:300]})
        records.append((op, out, error, latencies[index]))

    result = {
        "workload": args.workload,
        "oracle_s": clock() - oracle_start,
        "oracle_s_by_kind": oracle_by_kind,
        "setup_s_in_process": ready - process_start,
        "ready": ready,
        "seed": args.seed,
        "timed_s": timed_s,
        "passes": passes,
        "executions": sum(len(t) for t in timings),
        "latencies": latencies,
        "op_kinds": [op.kind for op in ops],
        "ops_by_kind": kinds,
        "failures": failures + later_failures,
        "known_defects": known_defects,
        "peak_rss_mb": peak_kb / 1024.0,
        "exact_digest": exact_hash.hexdigest(),
        "input_digest": input_hash.hexdigest(),
        "extra": workload.extra_metrics(records),
        "trace": trace,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
