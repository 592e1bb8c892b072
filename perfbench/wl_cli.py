"""cli-cold: every README CLI line, ``verify-all`` with a budget it never
reaches and a few seeded commands, each run as a fresh
``python -m sumsieve.cli`` process; the documented defect probes run once per
timed run, apart from the ops.

This is the only workload where interpreter start, the package import,
per-process table builds (the Dickman mesh, prime tables) and the error path
show.  An op fails unless the process exits 0 or, where the command
documents it, 2, with schema-valid output that the oracle accepts; a
``skipped`` row of ``verify-all`` fails it.  Only the malformed-input probes
may exit 1, and they must: with the documented error object.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

import oracles
from common import BaseWorkload, Op

NAME = "cli-cold"
REPORT_KEYS = {"schema", "command", "params", "profile", "result", "diagnostics", "elapsed_ms"}
PROCESS_TIMEOUT_S = 60


def readme_lines(work: str) -> list[list[str]]:
    """The README's CLI examples, with their input files under ``work``."""
    return [
        ["smooth-count", "--x", "100", "--y", "3"],
        ["--output", "csv", "smooth-count", "--grid", "1000,10000/2,3,5"],
        ["dickman", "--u", "2.5"],
        ["--output", "csv", "dickman", "--table", "1,6,0.25"],
        ["decompose", "--set", "0,1,2,3"],
        ["decompose", "--set", "0,1,2,3", "--all-witnesses"],
        ["decompose", "--set", "0..100", "--ternary-bound", "12"],
        ["ruzsa", "--a", "0,1", "--b", "0,1", "--c", "0,1"],
        ["sumset", "--a", "0,1,5", "--b", "0,2"],
        ["primes", "--limit", "100000", "--selector", "ap:1,4", "--sums", "1,1000"],
        ["primes", "--limit", "1000000", "--selector", "ap:3,4", "--density-c", "100000000"],
        ["sieve-bound", "--kind", "larger", "--set", "2,4,8,16,32", "--selector",
         "interval:2,2000", "--n-limit", "32", "--limit", "10000"],
        ["inverse-sieve", "--set", "10,25,90", "--y", "50", "--x", "100", "--selector", "all"],
        ["bv-sum", "--x", "100000", "--y", "20", "--q", "90", "--selector", "interval:50,100",
         "--exponent-k", "2", "--limit", "10000"],
        ["tuple-count", "--x", "10000", "--y", "10", "--shifts", "0,1"],
        ["semigroup", "--x", "1000000", "--selector", "ap:1,4", "--tau-fit", "--wirsing", "0.5",
         "--limit", "10000000"],
        ["ostmann-diag", "--set", f"@{work}/squares.txt", "--x", "1000000", "--y-limit", "1000"],
        ["check-genthm", "--s", f"@{work}/set.txt", "--x", "10000", "--selector", "interval:3,100",
         "--profile", "scaled", "--scale", "k_coefficient=0.002", "--scale", "star_exponent=1.2",
         "--scale", "condition_coefficient=0.0015", "--scale", "c_floor_exponent=0.25", "--q", "100"],
        ["verify-all", "--budget", "120", "--cases", "25"],
    ]


# documented defects of the program: each fails its oracle until fixed.
# Malformed input: the process must exit 1 with the documented error object
# (at the seed it ends in a traceback).
ERROR_PROBES = [
    ["decompose", "--set", "0,a"],
    ["sumset", "--a", "@perfbench/.work/missing", "--b", "0,1"],
    ["dickman", "--u", "nan"],
]
# the Dickman u = 20 anchor: log rho(20) must meet the published value
ANCHOR_PROBES = [["dickman", "--u", "20"]]
# a larger-sieve bound marked valid that lies below |A| = 361
BOUND_PROBES = [
    ["sieve-bound", "--kind", "larger", "--set", "2..362", "--n-limit", "11", "--selector",
     "interval:2,2000", "--limit", "10000"],
]


class Workload(BaseWorkload):
    name = NAME
    in_children = True
    # 19 README lines and 6 seeded commands per cycle: the op set is the 100
    # ops that put ten samples beyond the 90th percentile; a pass takes 40-55 s,
    # so a 60-second run times it once
    opset_cycles = 4

    def setup(self, seed: int):
        import sumsieve  # noqa: F401 - set-up time includes the package import

        os.makedirs(self.work_dir, exist_ok=True)
        with open(os.path.join(self.work_dir, "squares.txt"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(str(i * i) for i in range(1, 1001)) + "\n")
        three_smooth = sorted(2**i * 3**j for i in range(14) for j in range(9) if 2**i * 3**j <= 10**4)
        self.three_smooth = three_smooth
        with open(os.path.join(self.work_dir, "set.txt"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(map(str, three_smooth)) + "\n")
        self.readme = readme_lines(self.work_dir)
        self.trace_file = os.path.join(self.work_dir, f"cli-trace-{os.getpid()}.json")

    def cycles(self, rng):
        cycle_index = 0
        while True:
            argvs = [("readme", argv) for argv in self.readme]
            argvs += self._seeded(rng, cycle_index)
            rng.shuffle(argvs)
            yield [self._op(kind, argv) for kind, argv in argvs]
            cycle_index += 1

    def probes(self) -> list:
        return ([self._op("error-probe", argv) for argv in ERROR_PROBES]
                + [self._op("anchor-probe", argv) for argv in ANCHOR_PROBES]
                + [self._op("bound-probe", argv) for argv in BOUND_PROBES])

    def _seeded(self, rng, cycle_index):
        # u stratified over [20, 100] across cycles so every run sees the
        # same spread of per-process mesh growth
        u = 20.0 + 80.0 * ((cycle_index * 0.618034 + rng.random() * 0.25) % 1.0)
        x, y = rng.randrange(100, 10**6), rng.randrange(2, 200)
        elems = sorted(rng.sample(range(0, 30), rng.randrange(2, 10)))
        a = sorted(rng.sample(range(0, 500), rng.randrange(1, 20)))
        b = sorted(rng.sample(range(0, 500), rng.randrange(1, 20)))
        residue, modulus = rng.choice(((1, 4), (3, 4), (1, 3), (2, 3), (1, 6), (5, 6)))
        return [
            ("seeded", ["primes", "--limit", str(rng.randrange(1000, 10**5)),
                        "--selector", f"ap:{residue},{modulus}"]),
            ("seeded", ["dickman", "--u", repr(round(u, 6))]),
            ("seeded", ["dickman", "--u", repr(round(20.0 * rng.random(), 6))]),
            ("seeded", ["smooth-count", "--x", str(x), "--y", str(y)]),
            ("seeded", ["decompose", "--set", ",".join(map(str, elems))]),
            ("seeded", ["sumset", "--a", ",".join(map(str, a)), "--b", ",".join(map(str, b))]),
        ]

    def _op(self, kind: str, argv: list[str]) -> Op:
        command = _subcommand(argv)
        if self.traced:
            cmd = [sys.executable, "perfbench/cli_child.py", self.trace_file] + argv
        else:
            cmd = [sys.executable, "-m", "sumsieve.cli"] + argv
        trace_file = self.trace_file if self.traced else None

        def run():
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
            return proc.returncode, proc.stdout, proc.stderr[-400:]

        def compact(out):
            code, stdout, stderr = out
            child = None
            if trace_file is not None and os.path.exists(trace_file):
                with open(trace_file, encoding="utf-8") as handle:
                    child = json.load(handle)
                os.remove(trace_file)
            return {"code": code, "stdout": stdout, "stderr": stderr, "child_trace": child}

        def check(out):
            reason = check_cli(argv, command, out, self.three_smooth, kind == "error-probe")
            if reason is None and kind == "anchor-probe":
                log_rho = json.loads(out["stdout"])["result"]["log_rho"]
                rel = abs(log_rho - oracles.LOG_RHO_20) / abs(oracles.LOG_RHO_20)
                if rel > 1e-4:
                    reason = (f"log_rho(20) = {log_rho:.6g}, published {oracles.LOG_RHO_20} "
                              f"(relative error {rel:.3g})")
            return reason

        return Op(f"cli.{command}", argv, run, check,
                  lambda out: [out["code"], _result_digest(out["stdout"])], compact=compact)

    def extra_metrics(self, records) -> dict:
        """Per-subcommand process and report times, and the merged traces
        of the traced child processes."""
        process_s, report_ms, children = {}, {}, []
        for op, out, error, latency in records:
            if error is not None:
                continue
            process_s.setdefault(op.kind, []).append(latency)
            try:
                payload = json.loads(out["stdout"].strip().splitlines()[-1])
                report_ms.setdefault(op.kind, []).append(float(payload["elapsed_ms"]))
            except (ValueError, IndexError, KeyError, TypeError):
                pass
            if out.get("child_trace"):
                children.append(out["child_trace"])
        return {"process_s": process_s, "report_ms": report_ms, "child_traces": children}


def _subcommand(argv: list[str]) -> str:
    i = 0
    while argv[i].startswith("--"):
        i += 2
    return argv[i]


def _result_digest(stdout: str):
    """Exact parts of a report: everything but ``elapsed_ms``."""
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return stdout.strip()[:200]
    if isinstance(payload, dict):
        payload.pop("elapsed_ms", None)
    return json.dumps(payload, sort_keys=True)


def check_cli(argv, command, out, three_smooth, error_probe=False) -> str | None:
    code, stdout = out["code"], out["stdout"]
    if code not in (0, 1, 2):
        return f"exit code {code}: {out['stderr'][-160:]!r}"
    csv = argv[:2] == ["--output", "csv"]
    if csv:
        if code != 0:
            return f"csv command exited {code}"
        return _check_csv(argv, stdout)
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return f"expected one JSON line, got {len(lines)}: {out['stderr'][-160:]!r}"
    try:
        payload = json.loads(lines[0])
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(payload, dict) or payload.get("schema") != 1:
        return "schema is not 1"
    if error_probe:
        error = payload.get("error")
        if code != 1 or set(payload) != {"schema", "command", "error"} \
                or not isinstance(error, dict) or set(error) != {"type", "message"}:
            return f"malformed input not rejected with the documented error object (exit {code})"
        return None
    if code == 1:
        return f"exit 1: {str(payload.get('error') or payload.get('result'))[:160]}"
    if set(payload) != REPORT_KEYS:
        return f"report keys {sorted(payload)}"
    return _check_result(argv, command, payload, code, three_smooth)


def _flag(argv, name, cast=str):
    return cast(argv[argv.index(name) + 1])


def _check_csv(argv, stdout) -> str | None:
    lines = stdout.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if "smooth-count" in argv:
        for row in rows:
            x, y = int(row["x"]), int(row["y"])
            expect = int(oracles.smooth_mask(10**4, y)[: x + 1].sum())
            if int(row["psi"]) != expect:
                return f"psi({x},{y}) = {row['psi']}, reference {expect}"
        return None if len(rows) == 6 else f"{len(rows)} grid rows"
    for row in rows:
        u = float(row["u"])
        err = abs(float(row["rho"]) - float(oracles.dickman_rho(u)))
        if err > 1e-9:
            return f"rho({u}) absolute error {err:.3g}"
    return None if len(rows) == 21 else f"{len(rows)} table rows"


def _check_result(argv, command, payload, code, three_smooth) -> str | None:
    res = payload["result"]
    if command == "verify-all":
        bad = [row["name"] for row in res["rows"] if row["status"] != "pass"]
        return f"verify-all rows not passing: {bad}" if bad or code != 0 else None
    if command == "sieve-bound":
        size = payload["params"]["set_size"]
        if res["valid"] and res["bound"] < size - 1e-9:
            return f"valid larger-sieve bound {res['bound']:.6g} below |A| = {size}"
        return None
    if code != 0 and command != "check-genthm":
        return f"exit code {code}"
    if command == "smooth-count":
        x, y = _flag(argv, "--x", int), _flag(argv, "--y", int)
        expect = int(oracles.smooth_mask(10**6, min(y, 10**6))[: x + 1].sum())
        return None if res["psi"] == expect else f"psi({x},{y}) = {res['psi']}, reference {expect}"
    if command == "dickman":
        u = _flag(argv, "--u", float)
        if u <= oracles.DICKMAN_MAX_U:
            err = abs(res["rho"] - float(oracles.dickman_rho(u)))
        else:
            err = res["rho"]  # rho(u) < 1e-31 here
        return None if 0 <= err <= 1e-9 else f"rho({u}) absolute error {err:.3g}"
    if command == "decompose":
        elems = sorted(oracles.parse_int_list(argv[argv.index("--set") + 1]))
        if "--ternary-bound" in argv:
            bound = _flag(argv, "--ternary-bound", float)
            expect = len(elems) ** 2 > bound**3
            return None if res["impossible"] == expect else "ternary verdict differs"
        expect = oracles.decomposable_by_cover(elems)
        if res["decomposable"] != expect:
            return f"decomposable = {res['decomposable']}, reference {expect}"
        witnesses = res.get("all_witnesses") or ([res["witness"]] if res["witness"] else [])
        for wa, wb in witnesses:
            if oracles.sumset_values(wa, wb) != set(elems):
                return "witness does not re-sum to the set"
        return None
    if command == "ruzsa":
        return None if (res["lhs"], res["rhs"], res["holds"]) == (16, 27, True) else "ruzsa values"
    if command == "sumset":
        a = oracles.parse_int_list(_flag(argv, "--a"))
        b = oracles.parse_int_list(_flag(argv, "--b"))
        expect = sorted(oracles.sumset_values(a, b))
        return None if res["size"] == len(expect) and res["elements"] in (expect, None) else "sumset"
    if command == "primes":
        limit = _flag(argv, "--limit", int)
        residue, modulus = (int(v) for v in _flag(argv, "--selector")[3:].split(","))
        primes = oracles.prime_list(limit)
        chosen = primes[primes % modulus == residue]
        if res["count"] != chosen.size:
            return f"prime count {res['count']}, reference {chosen.size}"
        if "sums" in res:
            window = chosen[chosen <= 1000].astype(np.float64)
            theta = float(np.log(window).sum())
            if not math.isclose(res["sums"]["theta"], theta, rel_tol=1e-9):
                return "theta sum differs"
        if "density_c" in res and not 0.0 < res["density_c"] <= 1.0:
            return f"density ratio {res['density_c']} outside (0, 1]"
        return None
    if command == "inverse-sieve":
        primes = oracles.prime_list(50)
        lhs = sum(len({a % p for a in (10, 25, 90)}) / p for p in primes.tolist() if p > 25)
        if not math.isclose(res["lhs"], lhs, rel_tol=1e-12) or res["lhs"] < res["lower"] - 1e-9:
            return f"inverse sieve lhs {res['lhs']!r}, reference {lhs!r}"
        return None
    if command == "bv-sum":
        support = [p for p in oracles.prime_list(100).tolist() if p > 50]
        expect = oracles.bv_total(oracles.smooth_values(10**5, 20, 10**6), support, 90, 2)
        return None if math.isclose(res["total"], expect, rel_tol=1e-9) else "bv total differs"
    if command == "tuple-count":
        mask = oracles.smooth_mask(10**6, 10)
        expect = int((mask[1:10**4 + 1] & mask[2:10**4 + 2]).sum())
        return None if res["count"] == expect else f"tuple count {res['count']}, reference {expect}"
    if command == "semigroup":
        expect = oracles.marking_filter(10**6, lambda p: p % 4 == 1).size
        return None if res["count"] == expect else f"|Q| = {res['count']}, reference {expect}"
    if command == "ostmann-diag":
        return None if res["identity_gap"] <= 1e-9 else f"identity gap {res['identity_gap']}"
    if command == "check-genthm":
        if res["context"]["s_size"] != len(three_smooth):
            return "check-genthm read the wrong set"
        return None if res["sieve_controls_size"]["holds"] else "3-smooth scaled SCS does not hold"
    return f"no oracle for {command}"
