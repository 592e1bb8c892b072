"""Command-line front end.

Reports are JSON objects with a fixed schema:

    {"schema": 1, "command": ..., "params": ..., "profile": ...,
     "result": ..., "diagnostics": ..., "elapsed_ms": ...}

A result is its layer's record, serialized field for field by ``_sanitize``.
Exit codes: 0 success, 1 error (machine-readable error object on stdout,
usage errors included), 2 for "hypotheses not satisfied" verdicts so batch
drivers can tell math verdicts from tool failures.

Set inputs accept comma lists (``1,2,5``), ranges (``lo..hi``) and files
(``@path``, one integer per line).  Prime subsets use the selector grammar
``all | ap:a,m | interval:lo,hi | min:V | and(sel;sel;...)``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, DomainError, SumsieveError
from .primes import (
    ALL,
    ENTRY_CAP,
    VALUE_CAP,
    And,
    Interval,
    MinValue,
    PrimeSubset,
    ResidueClass,
    Selector,
    density_ratio_c,
    prime_table,
    subset_sums,
)
from .profiles import STRICT, ConstantsProfile, scaled

if TYPE_CHECKING:
    from .sumset import IntegerSet

_SCHEMA = 1
# keys `--scale` may set: every constant of a profile but its name
_SCALE_KEYS = tuple(f.name for f in dataclasses.fields(ConstantsProfile) if f.name != "name")


def parse_int_set(text: str) -> IntegerSet:
    """Comma list, lo..hi range, or @file with one integer per line; at most
    VALUE_CAP values, counted before they are built."""
    from .sumset import IntegerSet

    text = text.strip()
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as handle:
                lines = itertools.islice(filter(str.strip, handle), VALUE_CAP + 1)
                values = [int(line) for line in lines]
        elif ".." in text:
            lo, hi = text.split("..", 1)
            values = range(int(lo), int(hi) + 1)
        else:
            values = [int(part) for part in text.split(",") if part.strip()]
    except OSError as exc:
        raise DomainError(f"cannot read integer set {text!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise DomainError(f"cannot parse integer set {text!r}: {exc}") from None
    if len(values) > VALUE_CAP:
        raise CapacityError(f"integer set {text[:40]!r} has more than {VALUE_CAP} values")
    return IntegerSet(values)


def parse_numbers(text: str, convert, what: str, count: int | None = None) -> list:
    """Comma-separated numbers (exactly `count` of them when given); anything
    else is a DomainError naming `what`."""
    parts = text.split(",")
    try:
        if count is not None and len(parts) != count:
            raise ValueError(f"need {count} comma-separated numbers")
        return [convert(part) for part in parts]
    except ValueError as exc:
        raise DomainError(f"cannot parse {what} {text!r}: {exc}") from None


def parse_selector(text: str) -> Selector:
    text = text.strip()
    if text == "all":
        return ALL
    if text.startswith("ap:"):
        a, m = parse_numbers(text[3:], int, "ap: selector", 2)
        return ResidueClass(a, m)
    if text.startswith("interval:"):
        lo, hi = parse_numbers(text[9:], float, "interval: selector", 2)
        return Interval(lo, hi)
    if text.startswith("min:"):
        return MinValue(*parse_numbers(text[4:], float, "min: selector", 1))
    if text.startswith("and(") and text.endswith(")"):
        inner = text[4:-1]
        return And(tuple(parse_selector(part) for part in inner.split(";") if part))
    raise SumsieveError(f"cannot parse selector {text!r}")


def _profile_from_args(args) -> ConstantsProfile:
    if getattr(args, "profile", "strict") == "strict":
        return STRICT
    overrides = {}
    for text in getattr(args, "scale", []) or []:
        key, sep, value = text.partition("=")
        if not sep or key not in _SCALE_KEYS:
            raise DomainError(
                f"--scale needs key=value with key in {', '.join(_SCALE_KEYS)}, got {text!r}"
            )
        overrides[key] = parse_numbers(value, float, f"--scale {key}", 1)[0]
    return scaled(**overrides)


def _sanitize(obj):
    """The strictly JSON-safe form of a report value.  A record with ``to_dict``
    is that dict, any other dataclass record {field name: value}; an
    IntegerSet, list or tuple is a list, a set a sorted list, and a non-finite
    float its repr."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if hasattr(obj, "to_dict"):
        return _sanitize(obj.to_dict())
    if dataclasses.is_dataclass(obj):
        return {f.name: _sanitize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(_sanitize(v) for v in obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return [_sanitize(v) for v in obj]


def _emit(args, params: dict, result, diagnostics=None, exit_code=0):
    payload = {
        "schema": _SCHEMA,
        "command": args.command,
        "params": _sanitize(params),
        "profile": getattr(args, "_profile_name", None),
        "result": _sanitize(result),
        "diagnostics": _sanitize(diagnostics or {}),
        "elapsed_ms": round(1000.0 * (time.monotonic() - args._start), 3),
    }
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    elif args.output == "csv":
        _emit_csv(payload["result"])
    else:
        _emit_plain(payload)
    return exit_code


def _emit_csv(result):
    rows = result.get("rows") if isinstance(result, dict) else None
    if rows is None:
        rows = [result] if isinstance(result, dict) else [{"value": result}]
    header = sorted({key for row in rows for key in row})
    print(",".join(header))
    for row in rows:
        print(",".join(str(row.get(col, "")) for col in header))


def _emit_plain(payload):
    print(f"{payload['command']}:")
    for key, value in sorted(payload["params"].items()):
        print(f"  {key} = {value}")
    result = payload["result"]
    if isinstance(result, dict):
        for key, value in sorted(result.items()):
            print(f"  {key}: {value}")
    else:
        print(f"  result: {result}")
    for key, value in sorted(payload["diagnostics"].items()):
        print(f"  [{key}] {value}")


def _subset(args) -> PrimeSubset:
    return PrimeSubset(prime_table(args.limit), parse_selector(args.selector))


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_primes(args) -> int:
    ps = _subset(args)
    result = {"count": int(ps.primes().size), "selector": ps.describe()}
    if args.sums:
        lo, hi = parse_numbers(args.sums, float, "--sums", 2)
        result["sums"] = {"lo": lo, "hi": hi, **_sanitize(subset_sums(ps, lo, hi))}
    if args.density_c:
        result["density_c"] = density_ratio_c(
            ps, args.density_c, window_floor_exponent=args.c_floor
        )
    return _emit(args, {"limit": args.limit, "selector": args.selector}, result)


def _cmd_sieve_bound(args) -> int:
    from .sieves import (avoided_classes, large_sieve_bound, larger_sieve_bound, middlek_bound,
                         occupancy, selberg_bound)
    from .sumset import coerce_shifts

    ps = _subset(args)
    s = parse_int_set(args.set)
    shifts = coerce_shifts(parse_int_set(args.shifts)) if args.shifts else None
    params = {
        "kind": args.kind,
        "set_size": len(s),
        "selector": args.selector,
        "shifts": shifts,
        "N": args.n_limit,
        "x": args.x,
        "Q": args.q,
        "y1": args.y1,
        "y2": args.y2,
    }
    q = 10 if args.q is None else args.q
    if args.kind == "larger":
        prof = occupancy(s, ps)
        report = larger_sieve_bound(prof, ps, s.max if args.n_limit is None else args.n_limit)
    elif args.kind == "large":
        omega = avoided_classes(occupancy(s, ps))
        # by default x is the length of the set's span, the least x it meets
        x = s.max - s.min + 1 if args.x is None else args.x
        report = large_sieve_bound(omega, x, q)
    elif args.kind == "selberg":
        if shifts is None:
            raise SumsieveError("selberg needs --shifts")
        omega = occupancy(shifts, ps)
        report = selberg_bound(s, ps, shifts, omega, q)
    else:  # middlek
        if shifts is None or args.x is None or args.y1 is None or args.y2 is None:
            raise SumsieveError("middlek needs --shifts, --x, --y1 and --y2")
        report = middlek_bound(
            s, shifts, ps, args.x, args.y1, args.y2,
            profile=scaled(window_coefficient=args.window_coefficient)
            if args.window_coefficient is not None else STRICT,
        )
    return _emit(args, params, report, exit_code=0 if report.valid else 2)


def _cmd_inverse_sieve(args) -> int:
    from .sieves import inverse_sieve_lower_bound

    ps = _subset(args)
    a = parse_int_set(args.set)
    params = {"set_size": len(a), "y": args.y, "x": args.x, "selector": args.selector}
    return _emit(args, params, inverse_sieve_lower_bound(a, ps, args.y, args.x))


def _cmd_smooth_count(args) -> int:
    from .smooth import SmoothQuery, psi, psi_coprime

    if args.grid:
        xs_text, _, ys_text = args.grid.partition("/")
        xs, ys = parse_numbers(xs_text, int, "--grid"), parse_numbers(ys_text, int, "--grid")
        rows = []
        for x_val in xs:
            for y_val in ys:
                rows.append(
                    {"x": x_val, "y": y_val, "psi": psi(SmoothQuery(x_val, y_val))}
                )
        return _emit(args, {"grid": args.grid}, {"rows": rows})
    if args.x is None or args.y is None:
        raise DomainError("smooth-count needs --x and --y, or --grid")
    query = SmoothQuery(args.x, args.y, args.mod, args.res)
    value = psi(query)
    result = {"psi": value}
    if args.coprime:
        result["psi_coprime"] = psi_coprime(SmoothQuery(args.x, args.y), args.coprime)
    params = {"x": args.x, "y": args.y, "mod": args.mod, "res": args.res}
    return _emit(args, params, result)


def _cmd_dickman(args) -> int:
    from .smooth import RHO_U_CAP, dickman_rho

    if args.table:
        lo, hi, step = parse_numbers(args.table, float, "--table", 3)
        if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi <= RHO_U_CAP):
            raise DomainError(
                f"--table needs finite lo,hi,step with step > 0 and hi <= {RHO_U_CAP:g}, "
                f"got {args.table!r}"
            )
        if (hi + 1e-12 - lo) / step >= ENTRY_CAP:
            raise CapacityError(f"--table {args.table!r} asks for more than {ENTRY_CAP} rows")
        rows = []
        u = lo
        while u <= hi + 1e-12:
            rows.append({"u": round(u, 12), **_sanitize(dickman_rho(u))})
            u += step
        return _emit(args, {"table": args.table}, {"rows": rows})
    if args.u is None:
        raise DomainError("dickman needs --u or --table")
    return _emit(args, {"u": args.u}, dickman_rho(args.u))


def _cmd_tuple_count(args) -> int:
    from .smooth import smooth_tuple_count

    shifts = parse_int_set(args.shifts)
    params = {"x": args.x, "y": args.y, "shifts": shifts}
    return _emit(args, params, smooth_tuple_count(args.x, args.y, shifts))


def _cmd_bv_sum(args) -> int:
    from .smooth import SmoothQuery, bv_discrepancy_sum

    ps = _subset(args)
    total, breakdown = bv_discrepancy_sum(
        SmoothQuery(args.x, args.y), ps, args.q, args.exponent_k
    )
    rows = [
        {"d": b.d, "weight": b.weight, "max_deviation": b.max_deviation, "term": b.term}
        for b in breakdown
    ]
    params = {
        "x": args.x,
        "y": args.y,
        "Q": args.q,
        "exponent_k": args.exponent_k,
        "selector": args.selector,
    }
    return _emit(args, params, {"total": total, "rows": rows})


def _cmd_semigroup(args) -> int:
    from .semigroup import (enumerate_q, estimate_tau, max_gap, verify_hypotheses_wirsing,
                            wirsing_estimate)

    ps = _subset(args)
    params = {"selector": args.selector, "x": args.x}
    result: dict = {}
    diagnostics: dict = {}
    exit_code = 0
    if args.count or args.csv_xs is None:
        q = enumerate_q(ps, args.x)
        result["count"] = len(q)
        diagnostics["max_gap"] = max_gap(q)
    if args.tau_fit:
        result.update(_sanitize(estimate_tau(ps, args.x)))
    if args.wirsing is not None:
        result["wirsing_estimate"] = wirsing_estimate(ps, args.x, args.wirsing)
    if args.verify_hypotheses:
        report = verify_hypotheses_wirsing(ps, args.x)
        result["hypotheses"] = report.checks
        if not report.all_pass:
            exit_code = 2
    if args.csv_xs:
        rows = []
        tau = args.wirsing if args.wirsing is not None else 0.5
        for x_val in parse_numbers(args.csv_xs, int, "--csv-xs"):
            q = enumerate_q(ps, x_val)
            rows.append(
                {
                    "x": x_val,
                    "count": len(q),
                    "wirsing_estimate": wirsing_estimate(ps, x_val, tau),
                }
            )
        result["rows"] = rows
    return _emit(args, params, result, diagnostics, exit_code)


def _cmd_sumset(args) -> int:
    from .sumset import sumset

    a = parse_int_set(args.a)
    b = parse_int_set(args.b)
    out = sumset(a, b)
    return _emit(
        args,
        {"a_size": len(a), "b_size": len(b)},
        {"size": len(out), "elements": out if len(out) <= args.max_list else None},
    )


def _cmd_ruzsa(args) -> int:
    from .sumset import ruzsa_check

    res = ruzsa_check(parse_int_set(args.a), parse_int_set(args.b), parse_int_set(args.c))
    return _emit(args, {"a": args.a, "b": args.b, "c": args.c}, res)


def _cmd_decompose(args) -> int:
    from .sumset import decompose_binary, decompose_binary_relative, decompose_ternary_via_ruzsa

    s = parse_int_set(args.set)
    if args.ternary_bound is not None:
        params = {"set_size": len(s), "ternary_bound": args.ternary_bound}
        return _emit(args, params, decompose_ternary_via_ruzsa(s, args.ternary_bound))
    if args.s0 is not None:
        res = decompose_binary_relative(parse_int_set(args.s0), s, args.min_part)
    else:
        res = decompose_binary(
            s, args.min_part, all_witnesses=args.all_witnesses
        )
    result = _sanitize(res)
    if res.all_witnesses is None:
        del result["all_witnesses"]
    params = {"set_size": len(s), "min_part": args.min_part, "relative": args.s0 is not None}
    return _emit(args, params, result)


def _cmd_check_genthm(args) -> int:
    from .irreducibility import (build_context, check_bv_condition, check_scs_condition,
                                 conclusion_bounds)

    ps = _subset(args)
    profile = _profile_from_args(args)
    args._profile_name = profile.name
    s = parse_int_set(args.s)
    s0 = parse_int_set(args.s0) if args.s0 else s
    ctx = build_context(s, s0, ps, args.x, profile)
    scs = check_scs_condition(ctx)
    bv = check_bv_condition(ctx, s, args.q) if args.q else None
    any_holds = scs.holds or (bv.holds if bv else False)
    result = {
        "context": ctx,
        "sieve_controls_size": scs,
        "bombieri_vinogradov": bv,
        "conclusion_bounds": conclusion_bounds(ctx),
        "some_condition_holds": any_holds,
    }
    exit_code = 0 if (any_holds and ctx.hypotheses_met) else 2
    params = {
        "x": args.x,
        "selector": args.selector,
        "s_size": len(s),
        "s0_size": len(s0),
        "Q": args.q,
    }
    return _emit(args, params, result, exit_code=exit_code)


def _cmd_ostmann_diag(args) -> int:
    from .irreducibility import (half_occupancy_identity_gap, ostmann_epsilon_profile,
                                 ostmann_multiplicative_diagnostic)

    a = parse_int_set(args.set)
    prof = ostmann_epsilon_profile(a, args.x, args.y_limit)
    diag = ostmann_multiplicative_diagnostic(prof)
    result = {
        "moment_quadratic": prof.moment_quadratic,
        "moment_linear": prof.moment_linear,
        "moment_large": prof.moment_large,
        "identity_gap": half_occupancy_identity_gap(prof),
        "multiplicative_diagnostic": diag,
    }
    if args.list_eps:
        result["epsilons"] = {str(p): prof.entries[p] for p in sorted(prof.entries)}
    params = {"set_size": len(a), "x": args.x, "y_limit": args.y_limit}
    return _emit(args, params, result)


def _cmd_verify_all(args) -> int:
    from . import checks

    results = checks.run_all(args.seed, args.budget, cases_per_check=args.cases)
    failures = [r for r in results if r["status"] == "fail"]
    code = 1 if failures else 0
    return _emit(
        args,
        {"seed": args.seed, "budget": args.budget, "cases": args.cases},
        {"rows": results, "failures": len(failures)},
        exit_code=code,
    )


# --------------------------------------------------------------------------
# parser assembly


def _add_common(sub, limit_default=10**6):
    sub.add_argument("--limit", type=int, default=limit_default,
                     help="prime table limit")
    sub.add_argument("--selector", default="all", help="prime subset selector")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError, its `command` the subparser's name or None,
    instead of exiting 2 (the "hypotheses not satisfied" code); so do subparsers."""

    def error(self, message):
        exc = DomainError(message)
        exc.command = self.prog.partition(" ")[2] or None
        raise exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sumsieve",
        description="Exact sieve bounds, smooth counts and sumset decomposition.",
    )
    parser.add_argument("--output", choices=("json", "csv", "plain"), default="json")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomised runs")
    parser.add_argument("--config", default=None,
                        help="key=value config file; 'command=NAME' selects the subcommand")
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser("primes", help="prime subset counts and partial sums")
    _add_common(sp)
    sp.add_argument("--sums", default=None, help="lo,hi for partial sums over (lo, hi]")
    sp.add_argument("--density-c", type=int, default=None, help="x for the dyadic density ratio")
    sp.add_argument("--c-floor", type=float, default=0.1, help="window floor exponent")
    sp.set_defaults(func=_cmd_primes)

    sp = subs.add_parser("sieve-bound", help="larger/large/selberg bound evaluators")
    _add_common(sp)
    sp.add_argument("--kind", choices=("larger", "large", "selberg", "middlek"),
                    required=True)
    sp.add_argument("--set", required=True, help="the set to bound or sift")
    sp.add_argument("--shifts", default=None)
    sp.add_argument("--n-limit", type=int, default=None)
    sp.add_argument("--x", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--y1", type=float, default=None)
    sp.add_argument("--y2", type=float, default=None)
    sp.add_argument("--window-coefficient", type=float, default=None,
                    help="scaled window threshold for middlek")
    sp.set_defaults(func=_cmd_sieve_bound)

    sp = subs.add_parser("inverse-sieve", help="occupancy lower bound on a dyadic window")
    _add_common(sp)
    sp.add_argument("--set", required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.set_defaults(func=_cmd_inverse_sieve)

    sp = subs.add_parser("smooth-count", help="exact smooth-number counts")
    sp.add_argument("--x", type=int)
    sp.add_argument("--y", type=int)
    sp.add_argument("--grid", default=None,
                    help="x1,x2,../y1,y2,.. for a CSV-friendly table")
    sp.add_argument("--mod", type=int, default=None)
    sp.add_argument("--res", type=int, default=None)
    sp.add_argument("--coprime", type=int, default=None)
    sp.set_defaults(func=_cmd_smooth_count)

    sp = subs.add_parser("dickman", help="Dickman rho values")
    sp.add_argument("--u", type=float, default=None)
    sp.add_argument("--table", default=None, help="lo,hi,step for a CSV table")
    sp.set_defaults(func=_cmd_dickman)

    sp = subs.add_parser("tuple-count", help="simultaneous smooth shifts")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--shifts", required=True)
    sp.set_defaults(func=_cmd_tuple_count)

    sp = subs.add_parser("bv-sum", help="progression discrepancy sum over smooth numbers")
    _add_common(sp)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--exponent-k", type=int, default=2)
    sp.set_defaults(func=_cmd_bv_sum)

    sp = subs.add_parser("semigroup", help="multiplicatively generated sets")
    _add_common(sp, limit_default=10**7)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--count", action="store_true")
    sp.add_argument("--tau-fit", action="store_true")
    sp.add_argument("--wirsing", type=float, default=None, help="tau for the estimate")
    sp.add_argument("--verify-hypotheses", action="store_true")
    sp.add_argument("--csv-xs", default=None, help="comma list of x values for a table")
    sp.set_defaults(func=_cmd_semigroup)

    sp = subs.add_parser("sumset", help="exact sumset")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--max-list", type=int, default=1000)
    sp.set_defaults(func=_cmd_sumset)

    sp = subs.add_parser("ruzsa", help="ternary sumset inequality check")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--c", required=True)
    sp.set_defaults(func=_cmd_ruzsa)

    sp = subs.add_parser("decompose", help="exact binary decomposability search")
    sp.add_argument("--set", required=True)
    sp.add_argument("--s0", default=None, help="relative variant: required subset")
    sp.add_argument("--min-part", type=int, default=2)
    sp.add_argument("--ternary-bound", type=float, default=None,
                    help="binary size bound for the ternary impossibility deduction")
    sp.add_argument("--all-witnesses", action="store_true",
                    help="enumerate every witness (exponential, capped)")
    sp.set_defaults(func=_cmd_decompose)

    sp = subs.add_parser("check-genthm", help="evaluate the irreducibility conditions")
    _add_common(sp)
    sp.add_argument("--s", required=True)
    sp.add_argument("--s0", default=None)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--profile", choices=("strict", "scaled"), default="strict")
    sp.add_argument("--scale", action="append", default=[],
                    help="scaled-profile override key=value (repeatable)")
    sp.set_defaults(func=_cmd_check_genthm)

    sp = subs.add_parser("ostmann-diag", help="half-occupancy diagnostics")
    sp.add_argument("--set", required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y-limit", type=float, required=True)
    sp.add_argument("--list-eps", action="store_true")
    sp.set_defaults(func=_cmd_ostmann_diag)

    sp = subs.add_parser("verify-all", help="run every randomised invariant batch")
    sp.add_argument("--budget", type=float, default=120.0, help="time budget in seconds")
    sp.add_argument("--cases", type=int, default=25)
    sp.set_defaults(func=_cmd_verify_all)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Merge a key=value config file into argv (explicit argv wins); a missing
    path, an unreadable file or a line without '=' is a DomainError."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise DomainError("--config needs a file path")
    path = argv[idx + 1]
    head = argv[:idx]
    tail = argv[idx + 2 :]
    command = None
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file: {exc}") from None
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"config line {line!r} is not key=value")
        key = key.strip()
        value = value.strip()
        if key == "command":
            command = value
        elif key in ("output", "seed"):
            head = [f"--{key}", value] + head
        else:
            pairs.extend([f"--{key.replace('_', '-')}", value])
    if tail and not tail[0].startswith("-"):
        # explicit subcommand: config pairs become defaults before its args
        return head + [tail[0]] + pairs + tail[1:]
    if command:
        return head + [command] + pairs + tail
    return head + pairs + tail


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(_apply_config(argv))
        if not args.command:
            parser.print_help()
            return 1
        args._start = time.monotonic()
        return args.func(args)
    except SumsieveError as exc:
        # no args: a usage error (its subcommand, if any) or a config error (none)
        command = getattr(exc, "command", None) if args is None else args.command
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"schema": _SCHEMA, "command": command, "error": error}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
