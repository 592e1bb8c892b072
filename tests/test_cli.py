import contextlib
import io
import json
import math
import importlib
import os
import shlex
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sumsieve
from sumsieve import arith, cli, primes, sieves
from sumsieve.cli import main, parse_int_set, parse_selector
from sumsieve.primes import And, Interval, MinValue, ResidueClass
from test_readme_cli import _ELAPSED, GOLDEN, readme_commands, write_inputs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestParsing:
    def test_int_set_forms(self, tmp_path):
        assert parse_int_set("3,1,2").elements == (1, 2, 3)
        assert parse_int_set("5..8").elements == (5, 6, 7, 8)
        path = tmp_path / "vals.txt"
        path.write_text("4\n9\n2\n")
        assert parse_int_set(f"@{path}").elements == (2, 4, 9)

    def test_selector_grammar(self):
        assert parse_selector("ap:1,4") == ResidueClass(1, 4)
        assert parse_selector("interval:10,40") == Interval(10.0, 40.0)
        assert parse_selector("min:97") == MinValue(97.0)
        sel = parse_selector("and(interval:5,100;ap:3,4)")
        assert isinstance(sel, And) and len(sel.parts) == 2


# argvs whose values pass the float range, with the exit code and the values
# the one rule gives (inf past the range, 0 below it), or the error type
_PAST_THE_FLOAT_RANGE = [
    (("bv-sum", "--x", "1000", "--y", "5", "--q", "10", "--selector", "interval:7,100",
      "--limit", "1000", "--exponent-k", str(10**400)), 0, {"total": "inf"}),
    (("tuple-count", "--x", "10000", "--y", "2", "--shifts", "0..300"), 0,
     {"heuristic_u_power": 0.0, "heuristic_u_super": 0.0}),
    # u < 1: u^k is 0, and x / u^k past the float range
    (("tuple-count", "--x", "2", "--y", "100", "--shifts", "0..2000"), 0,
     {"heuristic_u_power": "inf", "heuristic_u_super": "inf"}),
    (("decompose", "--set", "0,1,2", "--ternary-bound", "1e200"), 0,
     {"verdict": "inconclusive", "bound_cubed": "inf"}),
    (("sieve-bound", "--kind", "large", "--set", "0,1", "--selector", "interval:2,3",
      "--limit", "100", "--q", str(10**160)), 0, {"bound": "inf"}),
    (("sieve-bound", "--kind", "middlek", "--set", "1..100", "--shifts", "0,2",
      "--x", str(10**400), "--y1", "12", "--y2", "40", "--limit", "10000",
      "--window-coefficient", "1e-300"), 2, {"bound": "inf", "valid": False}),
    (("ostmann-diag", "--set", "1..100", "--x", str(10**400), "--y-limit", "100"), 0,
     {"large_sieve_bound": "inf"}),
    (("primes", "--density-c", str(10**400)), 1, "CapacityError"),
    (("check-genthm", "--s", "5,13", "--x", str(10**400), "--selector", "ap:3,4",
      "--limit", "1000"), 1, "CapacityError"),
]


class TestCommands:
    def test_decompose_example(self, capsys):
        code, doc = run_json(capsys, "decompose", "--set", "0,1,2,3")
        assert code == 0
        assert doc["schema"] == 1
        assert doc["result"]["decomposable"] is True
        a, b = doc["result"]["witness"]
        sums = sorted({x + y for x in a for y in b})
        assert sums == [0, 1, 2, 3]

    def test_decompose_indecomposable(self, capsys):
        code, doc = run_json(capsys, "decompose", "--set", "0,1,3")
        assert code == 0
        assert doc["result"]["decomposable"] is False

    def test_smooth_count_example(self, capsys):
        code, doc = run_json(capsys, "smooth-count", "--x", "100", "--y", "3")
        assert code == 0
        assert doc["result"]["psi"] == 20

    def test_ruzsa_example(self, capsys):
        code, doc = run_json(capsys, "ruzsa", "--a", "0,1", "--b", "0,1", "--c", "0,1")
        assert code == 0
        assert doc["result"] == {"lhs": 16, "rhs": 27, "holds": True}

    def test_dickman(self, capsys):
        code, doc = run_json(capsys, "dickman", "--u", "2")
        assert code == 0
        assert doc["result"]["rho"] == pytest.approx(1 - math.log(2), abs=1e-12)

    def test_sieve_bound_invalid_gives_exit_two(self, capsys):
        code, doc = run_json(
            capsys,
            "sieve-bound", "--kind", "larger", "--set", "1..100",
            "--selector", "interval:2,50", "--n-limit", "100", "--limit", "10000",
        )
        assert code == 2
        assert doc["result"]["valid"] is False

    def test_sieve_bound_valid(self, capsys):
        code, doc = run_json(
            capsys,
            "sieve-bound", "--kind", "larger", "--set", "2,4,8,16,32",
            "--selector", "interval:2,2000", "--n-limit", "32", "--limit", "10000",
        )
        assert code == 0
        assert doc["result"]["valid"] is True
        assert doc["result"]["bound"] >= 5

    def test_sieve_bound_with_failed_hypotheses_gives_exit_two(self, capsys):
        # four window hypotheses fail: once reported valid, with no reason, and exit 0
        code, doc = run_json(
            capsys,
            "sieve-bound", "--kind", "middlek", "--set", "1..3000",
            "--shifts", "0,7,11,13,17,19,23,29,31,37", "--x", "1000000",
            "--y1", "15", "--y2", "40", "--window-coefficient", "0.1",
            "--selector", "all", "--limit", "10000",
        )
        failed = [
            "window1_error_term_dominated", "window1_mertens_at_least_half",
            "window2_error_term_dominated", "window2_mertens_at_least_half",
        ]
        assert code == 2
        assert doc["result"]["valid"] is False and doc["result"]["hypotheses_ok"] is False
        assert [name for name, ok in doc["result"]["hypotheses"].items() if not ok] == failed
        assert doc["result"]["reason"] == "hypotheses not met: " + ", ".join(failed)

    def test_error_exit_one(self, capsys):
        code, doc = run_json(capsys, "dickman", "--u", "-3")
        assert code == 1
        assert doc["error"]["type"] == "DomainError"

    def test_malformed_set_is_an_error_object(self, capsys):
        code, doc = run_json(capsys, "decompose", "--set", "0,a")
        assert code == 1
        assert set(doc) == {"schema", "command", "error"}
        assert doc["error"]["type"] == "DomainError"

    def test_missing_set_file_is_an_error_object(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        code, doc = run_json(capsys, "sumset", "--a", f"@{missing}", "--b", "0,1")
        assert code == 1
        assert set(doc) == {"schema", "command", "error"}
        assert doc["error"]["type"] == "DomainError"

    def test_nan_dickman_argument_is_an_error_object(self, capsys):
        code, doc = run_json(capsys, "dickman", "--u", "nan")
        assert code == 1
        assert set(doc) == {"schema", "command", "error"}
        assert doc["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ("dickman", "--table", "1,6,0"),  # step 0 used to loop forever
        ("dickman", "--table", "1,6,-0.5"),
        ("dickman", "--table", "1,x,1"),
        ("dickman", "--table", "1,6"),
        ("dickman", "--table", "nan,6,1"),
        ("dickman", "--table", "1,inf,1"),
        ("dickman", "--table", "1,6,nan"),
        ("dickman", "--table", "1,501,1"),
        ("primes", "--limit", "1000", "--selector", "ap:x,4"),
        ("primes", "--limit", "1000", "--sums", "1,b"),
        ("smooth-count", "--grid", "10,a/2"),
        ("smooth-count", "--grid", "10,20"),
        ("semigroup", "--x", "100", "--limit", "1000", "--csv-xs", "10,z"),
        *(("check-genthm", "--s", "1,2,3,4", "--x", "100", "--selector", "interval:3,50",
           "--profile", "scaled", "--scale", scale)
          for scale in ("bogus=1", "k_coefficient=x", "k_coefficient", "name=foo")),
        # constants outside their domains: a math domain error, or taken as given
        *(("check-genthm", "--s", "1,2,3,4", "--x", "100", "--selector", "interval:3,50",
           "--profile", "scaled", "--scale", scale)
          for scale in ("k_coefficient=-0.002", "k_coefficient=0", "star_exponent=-1",
                        "window_coefficient=0", "condition_coefficient=-1",
                        "c_floor_exponent=0", "c_floor_exponent=1")),
        ("sieve-bound", "--kind", "middlek", "--set", "5,7,11", "--shifts", "0,2", "--x",
         "1000000", "--y1", "10", "--y2", "40", "--window-coefficient", "-1"),
        # a non-finite y limit: a ValueError or OverflowError traceback
        *(("ostmann-diag", "--set", "1..100", "--x", "100", f"--y-limit={y}")
          for y in ("nan", "inf", "-inf")),
        # values and sums outside int64: an OverflowError traceback, or a
        # wrapped negative element
        ("sumset", "--a", "0,100000000000000000000", "--b", "0,1"),
        ("ruzsa", "--a", "0,1", "--b", "0,1", "--c", "0,100000000000000000000"),
        ("sumset", "--a", "0,5000000000000000000", "--b", "0,5000000000000000000"),
        ("decompose", "--set", "0,9223372036854775808"),
        # a missing value: a TypeError traceback
        ("smooth-count",),
        ("dickman",),
        # u = log x / log y needs x, y >= 2, and log log x > 0 needs x >= 3
        ("tuple-count", "--x", "100", "--y", "1", "--shifts", "0,1"),
        ("tuple-count", "--x", "100", "--y", "0", "--shifts", "0,1"),
        ("tuple-count", "--x", "1", "--y", "10", "--shifts", "0,1"),
        ("ostmann-diag", "--set", "1", "--x", "1", "--y-limit", "10"),
        # N, x and Q below 1: computed from other values, or a math domain
        # error or ZeroDivisionError traceback
        *(("sieve-bound", "--limit", "100", "--selector", "interval:2,30", "--kind", *rest)
          for rest in (("larger", "--set", "1..50", "--n-limit", "0"),
                       ("larger", "--set", "1..50", "--n-limit", "-3"),
                       ("larger", "--set", "0"),
                       ("large", "--set", "1..50", "--x", "0"),
                       ("large", "--set", "1..50", "--q", "0"),
                       ("large", "--set", "1..50", "--q", "-2"),
                       ("selberg", "--set", "1..50", "--shifts", "0,2", "--q", "0"),
                       ("selberg", "--set", "1..50", "--shifts", "0,2", "--q", "-1"))),
        # NaN range bounds: sums over the whole table, zeros, or lower "nan"
        ("primes", "--limit", "1000", "--sums", "0,nan"),
        ("primes", "--limit", "1000", "--sums", "nan,100"),
        ("inverse-sieve", "--set", "1,2,3", "--y", "nan", "--x", "100", "--limit", "1000"),
        # a NaN ternary bound: "inconclusive" with bound_cubed "nan", exit 0
        ("decompose", "--set", "0,1,2", "--ternary-bound", "nan"),
    ])
    def test_malformed_numbers_are_error_objects(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code == 1
        assert set(doc) == {"schema", "command", "error"}
        assert doc["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("argv, code, expected", _PAST_THE_FLOAT_RANGE,
                             ids=[argv[0] for argv, _, _ in _PAST_THE_FLOAT_RANGE])
    def test_values_past_the_float_range(self, capsys, argv, code, expected):
        # each ended in an OverflowError (or ZeroDivisionError) traceback
        got, out = run_cli(capsys, *argv)
        assert got == code and out.count("\n") == 1
        doc = json.loads(out)
        assert doc["schema"] == 1
        if code == 1:
            assert set(doc) == {"schema", "command", "error"}
            assert doc["error"]["type"] == expected
            return
        result = doc["result"]
        if argv[0] == "bv-sum":
            assert {row["weight"] for row in result["rows"]} == {"inf"}
            result = {"total": result["total"]}
        if argv[0] == "ostmann-diag":
            result = result["multiplicative_diagnostic"]
        assert {key: result[key] for key in expected} == expected

    @pytest.mark.parametrize("argv, command", [
        (("primes", "--limit", "abc"), "primes"),
        (("semigroup", "--x", "1e5"), "semigroup"),
        (("decompose",), "decompose"),
        (("bogus",), None),
        (("sieve-bound", "--kind", "bogus", "--set", "1..10"), "sieve-bound"),
    ])
    def test_usage_errors_are_error_objects(self, capsys, argv, command):
        # argparse once exited 2, the "hypotheses not satisfied" code, with
        # usage text on stderr and nothing on stdout
        code, doc = run_json(capsys, *argv)
        assert code == 1
        assert doc == {"schema": 1, "command": command, "error": doc["error"]}
        assert doc["error"]["type"] == "DomainError"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["primes", "--help"])
        assert info.value.code == 0
        assert "usage: sumsieve primes" in capsys.readouterr().out

    def test_q_t_needs_the_table_to_cover_x(self, capsys):
        # a 10^4 table once gave 4933 of the 9623 elements, with exit 0
        argv = ["semigroup", "--x", "100000", "--selector", "ap:1,4", "--limit"]
        code, doc = run_json(capsys, *argv, "10000")
        assert code == 1
        assert set(doc) == {"schema", "command", "error"}
        assert doc["error"]["type"] == "CapacityError"
        code, doc = run_json(capsys, *argv, "100000")
        assert code == 0 and doc["result"]["count"] == 9623

    def test_bounded_selector_needs_no_covering_table(self, capsys):
        # the 10^4 table was once refused for the fit and the estimate
        argv = ["semigroup", "--x", "100000", "--selector", "interval:2,100", "--tau-fit",
                "--wirsing", "0.5", "--limit"]
        outs = []
        for limit in ("10000", "100000"):
            code, doc = run_json(capsys, *argv, limit)
            assert code == 0 and doc["result"]["count"] == 6343
            doc.pop("elapsed_ms")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("x", ["10001", "10201"])
    def test_density_c_past_the_table_is_one_error(self, capsys, x):
        # 10201 once gave "does not cover sqrt", 10001 "range end"
        code, doc = run_json(capsys, "primes", "--limit", "100", "--density-c", x)
        assert code == 1
        assert doc["error"]["type"] == "CapacityError"
        assert doc["error"]["message"].startswith("range end")

    def test_set_value_count_is_capped(self, capsys, monkeypatch, tmp_path):
        # 10^12 values: used to grow until memory ran out
        code, doc = run_json(capsys, "sumset", "--a", "0..1000000000000", "--b", "0,1")
        assert code == 1
        assert doc["error"]["type"] == "CapacityError"
        monkeypatch.setattr(cli, "VALUE_CAP", 5)
        # reading stops at the sixth value, before the malformed last line
        path = tmp_path / "six.txt"
        path.write_text("\n".join(map(str, range(6))) + "\nnot-a-number\n")
        for text in ("0..5", "0,1,2,3,4,5", f"@{path}"):
            code, doc = run_json(capsys, "sumset", "--a", text, "--b", "0,1")
            assert code == 1
            assert set(doc) == {"schema", "command", "error"}
            assert doc["error"]["type"] == "CapacityError"
        code, doc = run_json(capsys, "sumset", "--a", "0..4", "--b", "0,1")
        assert code == 0 and doc["result"]["size"] == 6

    def test_tuple_scan_past_the_memory_cap_is_an_error_object(self, capsys):
        # x is capped at 10^8, but the scan runs to x + the largest shift
        code, doc = run_json(capsys, "tuple-count", "--x", "100", "--y", "10",
                             "--shifts", "5000000000")
        assert code == 1
        assert set(doc) == {"schema", "command", "error"}
        assert doc["error"]["type"] == "CapacityError"

    def test_larger_sieve_needs_the_set_in_1_to_n(self, capsys):
        # |A| = 361 in [2, 362] with N = 11: was reported valid with bound 34.7
        code, doc = run_json(
            capsys,
            "sieve-bound", "--kind", "larger", "--set", "2..362", "--n-limit", "11",
            "--selector", "interval:2,2000", "--limit", "10000",
        )
        assert code == 2
        assert doc["result"]["valid"] is False
        assert doc["result"]["hypotheses"] == {"set_within_1_to_N": False}

    def test_middlek_needs_the_set_in_1_to_x(self, capsys):
        argv = ["sieve-bound", "--kind", "middlek", "--shifts", "0,2", "--x", "10000000000",
                "--y1", "200", "--y2", "450", "--window-coefficient", "0.5",
                "--selector", "interval:100,450", "--limit", "10000", "--set"]
        code, doc = run_json(capsys, *argv, "1,5,9,10000000000")
        assert code == 0 and doc["result"]["valid"] is True
        code, doc = run_json(capsys, *argv, "1,5,9,10000000001")
        assert code == 2
        assert doc["result"]["valid"] is False
        assert doc["result"]["reason"] == "hypotheses not met: set_within_1_to_x"

    def test_bv_sum_needs_the_table_to_cover_q_squared(self, capsys):
        # Q^2 = 14400: a 10^4 table once gave 25888.75 from 3189 of the 3646 moduli
        argv = ["bv-sum", "--x", "1000", "--y", "5", "--q", "120", "--selector", "min:7",
                "--exponent-k", "1", "--limit"]
        code, doc = run_json(capsys, *argv, "10000")
        assert code == 1
        assert doc["error"]["type"] == "CapacityError"
        for limit in ("20000", "100000"):
            code, doc = run_json(capsys, *argv, limit)
            assert code == 0
            assert doc["result"]["total"] == 27249.950649224844
            assert len(doc["result"]["rows"]) == 3646

    def test_large_sieve_omega_counts_avoided_classes(self, capsys, tmp_path):
        # the 228 integers in [1, 1000] coprime to 210: omega was once the
        # classes met, which gave a valid bound of 80.69
        path = tmp_path / "coprime.txt"
        path.write_text("\n".join(str(v) for v in range(1, 1001) if math.gcd(v, 210) == 1))
        argv = ["sieve-bound", "--kind", "large", "--set", f"@{path}", "--q", "7",
                "--selector", "interval:2,7", "--limit", "1000"]
        code, doc = run_json(capsys, *argv, "--x", "1000")
        assert code == 0
        assert doc["params"]["set_size"] == 228
        assert doc["result"]["valid"] is True
        assert doc["result"]["hypotheses"] == {"set_within_interval_of_length_x": True}
        assert doc["result"]["bound"] >= 228
        # the set spans 1..999, more than an interval of 500 integers
        code, doc = run_json(capsys, *argv, "--x", "500")
        assert code == 2
        assert doc["result"]["valid"] is False
        assert doc["result"]["hypotheses"] == {"set_within_interval_of_length_x": False}
        # without --x, x is the length of the span: 997 - 1 + 1
        code, doc = run_json(capsys, *argv)
        assert code == 0 and doc["result"]["params"]["x"] == 997
        code, doc = run_json(capsys, "sieve-bound", "--kind", "large", "--set", "0..100",
                             "--selector", "interval:1,10", "--limit", "1000")
        assert code == 0 and doc["result"]["params"]["x"] == 101
        code, doc = run_json(capsys, *argv, "--variant", "nonzero")
        assert code == 1
        assert set(doc) == {"schema", "command", "error"}

    def test_sumset_result_is_capped(self, capsys, monkeypatch):
        # 1000 values fit; the blocks hold 400 sums each
        monkeypatch.setattr(primes, "VALUE_CAP", 1000)
        monkeypatch.setattr(primes, "BLOCK_BYTES", 3200)
        code, doc = run_json(capsys, "sumset", "--a", "0..99", "--b", "0..99", "--max-list", "0")
        assert code == 0 and doc["result"]["size"] == 199
        tens = ",".join(str(1000 * i) for i in range(20))
        code, doc = run_json(capsys, "sumset", "--a", "0..99", "--b", tens, "--max-list", "0")
        assert code == 1
        assert set(doc) == {"schema", "command", "error"}
        assert doc["error"]["type"] == "CapacityError"

    def test_large_sieve_denominator_is_capped(self, capsys):
        # the squarefree q <= 10^10 over the 4203 primes to 40000: the walk
        # used to run without end; it stops at primes.ENTRY_CAP of them
        started = time.monotonic()
        code, doc = run_json(capsys, "sieve-bound", "--kind", "large", "--set", "0,1",
                             "--selector", "all", "--limit", "40000", "--q", "10000000000")
        assert time.monotonic() - started < 15
        assert code == 1
        assert doc == {"schema": 1, "command": "sieve-bound", "error": {
            "type": "CapacityError",
            "message": f"the sieve denominator sums over more than {primes.ENTRY_CAP} squarefree q"}}

    def test_ostmann_sum_is_capped(self, capsys, tmp_path):
        # the squarefree n <= 10^15 over the primes to 1000 with |eps_p| <= p/4: the
        # walk used to run without end; the products of four of them pass the cap
        squares = write_inputs(tmp_path)["@squares.txt"]
        started = time.monotonic()
        code, doc = run_json(capsys, "ostmann-diag", "--set", squares, "--x", str(10**30),
                             "--y-limit", "1000")
        assert time.monotonic() - started < 15
        assert code == 1
        assert doc == {"schema": 1, "command": "ostmann-diag", "error": {
            "type": "CapacityError",
            "message": f"the weighted lattice sum runs over more than {arith.ENTRY_CAP} n"}}

    @pytest.mark.parametrize("cap, message", [
        # L's 25704 squarefree q <= 10^5 come first
        (10**4, "the sieve denominator sums over more than 10000 squarefree q"),
        # the 790216 products of at most three primes below 1000 are all below 10^10
        (10**5, "Selberg's remainder sums over more than 100000 squarefree d"),
    ])
    def test_selberg_remainder_is_capped(self, capsys, monkeypatch, cap, message):
        # the squarefree d <= 10^10 over the primes to 1000: the walk used to run
        # without end; at the default cap the walk reaches the cap in about a minute
        monkeypatch.setattr(arith, "ENTRY_CAP", cap)
        code, doc = run_json(capsys, "sieve-bound", "--kind", "selberg", "--set", "1..100",
                             "--shifts", "0,2", "--q", "100000", "--limit", "1000")
        assert code == 1
        assert doc == {"schema": 1, "command": "sieve-bound",
                       "error": {"type": "CapacityError", "message": message}}

    def test_selberg_refused_before_any_mask(self, capsys, monkeypatch):
        # the 78498 primes to 10^6, all up to Q^2 = 10^10: the products of two of
        # them pass the entry cap, counted before the walk builds any hit mask
        built, masks = [], sieves.shift_class_masks
        monkeypatch.setattr(sieves, "shift_class_masks",
                            lambda c, a: lambda p: built.append(p) or masks(c, a)(p))
        started = time.monotonic()
        code, doc = run_json(capsys, "sieve-bound", "--kind", "selberg", "--set", "1..100",
                             "--shifts", "0,2", "--q", "100000", "--limit", "1000000")
        assert time.monotonic() - started < 15
        assert code == 1 and built == []
        assert doc == {"schema": 1, "command": "sieve-bound", "error": {
            "type": "CapacityError",
            "message": f"Selberg's remainder sums over more than {arith.ENTRY_CAP} squarefree d"}}

    def test_selberg_report_within_the_cap(self, capsys):
        # recorded before the remainder moved onto the capped walk sum
        code, out = run_cli(capsys, "sieve-bound", "--kind", "selberg", "--set", "1..20000",
                            "--shifts", "0,2", "--q", "200", "--limit", "100000")
        assert code == 0
        assert _ELAPSED.sub('"elapsed_ms": null', out) == (
            '{"command": "sieve-bound", "diagnostics": {}, "elapsed_ms": null, "params": '
            '{"N": null, "Q": 200, "kind": "selberg", "selector": "all", "set_size": 20000, '
            '"shifts": [0, 2], "x": null, "y1": null, "y2": null}, "profile": null, "result": '
            '{"bound": 306328.7648481053, "branch": null, "denominator_L": 22.86869028445493, '
            '"hypotheses": {}, "hypotheses_ok": true, "main_term": 874.5581732590548, '
            '"params": {"Q": 200, "k": 2, "primes": 9592, "ps": "all", "set_size": 20000}, '
            '"profile": null, "reason": "", "remainder": 305454.20667484624, '
            '"sifted_count": 1, "valid": true}, "schema": 1}\n')

    def test_dickman_table_row_count_is_capped(self, capsys):
        # 5e11 rows: used to run without end
        code, doc = run_json(capsys, "dickman", "--table", "0,500,1e-9")
        assert code == 1
        assert set(doc) == {"schema", "command", "error"}
        assert doc["error"]["type"] == "CapacityError"

    def test_dickman_table_up_to_the_cap(self, capsys):
        code, doc = run_json(capsys, "dickman", "--table", "499,500,0.5")
        assert code == 0
        assert [row["u"] for row in doc["result"]["rows"]] == [499.0, 499.5, 500.0]

    def test_check_genthm_strict_honest(self, capsys):
        code, doc = run_json(
            capsys,
            "check-genthm", "--s", "1,2,3,4,6,8,9,12,16,18,24,27,32,36,48,54,64,72,81,96",
            "--x", "100", "--selector", "interval:3,50", "--profile", "strict",
            "--limit", "10000",
        )
        assert code == 2  # hypotheses fail honestly at this scale
        assert doc["result"]["context"]["ps_star_empty"] is True
        assert doc["profile"] == "strict"

    def test_check_genthm_modulus_budget(self, tmp_path):
        # the README check-genthm line at Q = 30000: about 6e9 units of
        # modulus work, which ran for minutes before the budget.  A separate
        # process, so the reduced-residue masks it caches go with it.
        path = tmp_path / "set.txt"
        smooth = sorted(2**i * 3**j for i in range(14) for j in range(9) if 2**i * 3**j <= 10**4)
        path.write_text("\n".join(map(str, smooth)) + "\n")
        argv = ["check-genthm", "--s", f"@{path}", "--x", "10000", "--selector", "interval:3,100",
                "--profile", "scaled", "--scale", "k_coefficient=0.002",
                "--scale", "star_exponent=1.2", "--scale", "condition_coefficient=0.0015",
                "--scale", "c_floor_exponent=0.25", "--q", "30000"]
        src = str(Path(sumsieve.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "sumsieve.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert set(doc) == {"schema", "command", "error"}
        assert doc["error"] == {"message": "modulus enumeration budget exceeded",
                                "type": "CapacityError"}

    def test_verify_all_zero_budget(self, capsys):
        code, doc = run_json(capsys, "verify-all", "--budget", "0")
        assert code == 0
        assert all(r["status"] == "skipped" for r in doc["result"]["rows"])

    def test_verify_all_small(self, capsys):
        code, doc = run_json(capsys, "verify-all", "--budget", "60", "--cases", "2")
        assert code == 0
        statuses = {r["name"]: r["status"] for r in doc["result"]["rows"]}
        assert all(s in ("pass", "skipped") for s in statuses.values())
        assert sorted(statuses) == list(statuses)


class TestReportDiscipline:
    def test_byte_identical_modulo_elapsed(self, capsys):
        _, out1 = run_cli(capsys, "--seed", "7", "smooth-count", "--x", "1000", "--y", "7")
        _, out2 = run_cli(capsys, "--seed", "7", "smooth-count", "--x", "1000", "--y", "7")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("elapsed_ms")
        doc2.pop("elapsed_ms")
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    def test_params_echoed(self, capsys):
        _, doc = run_json(capsys, "tuple-count", "--x", "1000", "--y", "10",
                          "--shifts", "0,2")
        assert doc["params"] == {"x": 1000, "y": 10, "shifts": [0, 2]}

    def test_csv_output(self, capsys):
        code, out = run_cli(
            capsys, "--output", "csv", "dickman", "--table", "0,2,0.5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "log_rho,rho,u"
        assert len(lines) == 6

    def test_plain_output(self, capsys):
        code, out = run_cli(capsys, "--output", "plain", "smooth-count",
                            "--x", "100", "--y", "3")
        assert code == 0
        assert "psi: 20" in out

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=smooth-count\nx=100\ny=3\n")
        code, doc = run_json(capsys, "--config", str(cfg))
        assert code == 0
        assert doc["result"]["psi"] == 20

    @pytest.mark.parametrize("path", [None, "missing.cfg"])
    def test_config_errors_are_error_objects(self, capsys, tmp_path, path):
        # --config as the last argument, or naming no file
        argv = ["--config"] + ([str(tmp_path / path)] if path else [])
        code, doc = run_json(capsys, *argv)
        assert code == 1
        assert doc == {"schema": 1, "command": None, "error": doc["error"]}
        assert doc["error"]["type"] == "DomainError"

    def test_selberg_masks_past_the_memory_cap(self, capsys, monkeypatch):
        # 503 primes up to Q^2 = 3600, one 20,000-byte hit mask each
        monkeypatch.setattr(sieves, "MEMORY_CAP", 10**6)
        code, doc = run_json(capsys, "sieve-bound", "--kind", "selberg", "--set", "1..20000",
                             "--shifts", "0,2", "--q", "60", "--limit", "100000")
        assert code == 1
        assert doc["error"]["type"] == "CapacityError"
        assert "Selberg hit masks" in doc["error"]["message"]

    def test_prime_table_past_the_memory_cap(self, capsys):
        # refused before numpy is asked for the mask
        code, doc = run_json(capsys, "primes", "--limit", "100000000000")
        assert code == 1
        assert doc["error"]["type"] == "CapacityError"

    def test_config_overridden_by_argv(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=smooth-count\nx=100\ny=3\n")
        code, doc = run_json(capsys, "--config", str(cfg), "smooth-count",
                             "--x", "10", "--y", "2")
        assert code == 0
        assert doc["result"]["psi"] == 4


# malformed number tokens: the fuzz puts one in place of an option's value
_MALFORMED = st.sampled_from(["abc", "1e5", "", "nan"])


def _number(lo, hi):
    return st.integers(lo, hi).map(str)


def _option(name, value):
    """--name value, or the option left out."""
    return st.one_of(st.just([]), value.map(lambda v: [name, v]))


def _table(selectors):
    limits = st.one_of(_number(2, 5000), st.sampled_from(["0", "1000", "10000", "40000"]))
    return st.tuples(limits, selectors).map(
        lambda t: ["--limit", t[0], "--selector", t[1]])


_SELECTOR = st.one_of(
    st.just("all"),
    st.just("ap:1,4"),
    _number(0, 300).map(lambda v: f"interval:2,{v}"),
    _number(0, 80).map(lambda v: f"min:{v}"),
)
_SET = st.one_of(
    st.tuples(st.integers(-2, 300), st.integers(0, 300)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),
    st.lists(st.integers(0, 2000), max_size=30).map(lambda v: ",".join(map(str, v))),
    st.lists(st.integers(1, 40), min_size=1, max_size=30).map(  # few classes per prime
        lambda v: ",".join(str(n * n) for n in v)),
)
def _shifts(most):
    return st.lists(st.integers(0, 60), min_size=1, max_size=most).map(
        lambda v: ",".join(map(str, v)))


# x, y1 and y2: any, or with y1 < y2/2 < y2 < sqrt(x)/y1 as middlek needs
_MIDDLEK_WINDOWS = st.one_of(
    st.tuples(st.integers(100, 10**7), st.integers(2, 30), st.integers(5, 200)),
    st.tuples(st.integers(2, 5), st.integers(10, 40), st.integers(3, 10)).map(
        lambda t: (t[0] * (t[1] * t[1] * t[2]) ** 2, t[1], t[1] * t[2])),
).map(lambda t: ["--x", str(t[0]), "--y1", str(t[1]), "--y2", str(t[2])])
_SMOOTH3 = sorted(2**i * 3**j for i in range(15) for j in range(10))
# x and S inside [1, x]: any elements, or 3-smooth ones, which some selectors clear
_GENTHM_SETS = st.integers(100, 30000).flatmap(lambda x: st.tuples(st.just(x), st.one_of(
    st.lists(st.integers(1, x), min_size=1, max_size=30),
    st.lists(st.sampled_from([n for n in _SMOOTH3 if n <= x]), min_size=1, max_size=30),
))).map(lambda t: ["--x", str(t[0]), "--s", ",".join(map(str, t[1]))])
# profile constants: 10^k for |k| <= 320 (past 308 that parses as inf, below
# -307 as a subnormal or 0), their negatives, 0, or any float in [0, 1]
_CONSTANT = st.one_of(
    st.integers(-320, 320).map(lambda k: f"1e{k}"),
    st.integers(-320, 320).map(lambda k: f"-1e{k}"),
    st.just("0"),
    st.floats(0, 1).map(repr),
)
# 10^k for 0 <= k <= 400: past about 1.8e308 an int no longer converts to a float
_POWERS_OF_TEN = st.integers(0, 400).map(lambda k: str(10**k))
_SCALES = st.dictionaries(st.sampled_from(cli._SCALE_KEYS), _CONSTANT, min_size=1).map(
    lambda scales: [arg for key, value in scales.items() for arg in ("--scale", f"{key}={value}")])
_VALID_ARGVS = st.one_of(
    st.tuples(st.just(["primes", "--density-c"]), _number(90, 10**7).map(lambda v: [v]),
              _table(_SELECTOR)),
    st.tuples(
        st.just(["semigroup", "--tau-fit", "--x"]),
        st.tuples(_number(10**4, 30000), st.floats(0, 1.1).map(repr)).map(
            lambda t: [t[0], "--wirsing", t[1]]),
        _table(_SELECTOR),
    ),
    st.tuples(
        st.just(["bv-sum", "--x"]),
        st.tuples(_number(1, 3000), _number(2, 12), _number(1, 35),
                  st.one_of(_number(1, 3), _POWERS_OF_TEN)).map(
            lambda t: [t[0], "--y", t[1], "--q", t[2], "--exponent-k", t[3]]),
        _table(st.one_of(_SELECTOR, _number(13, 80).map(lambda v: f"min:{v}"))),
    ),
    st.tuples(
        st.sampled_from([["sieve-bound", "--kind", "larger"], ["sieve-bound", "--kind", "large"]]),
        st.tuples(
            _SET,
            _option("--n-limit", _number(-3, 3000)),
            _option("--x", _number(-3, 3000)),
            _option("--q", _number(-3, 40)),
        ).map(lambda t: ["--set", t[0], *t[1], *t[2], *t[3]]),
        _table(_SELECTOR),
    ),
    # a huge Q over any selector: L sums over every squarefree q <= Q the
    # primes support, up to primes.ENTRY_CAP of them
    st.tuples(
        st.just(["sieve-bound", "--kind", "large"]),
        st.tuples(_SET, _POWERS_OF_TEN).map(lambda t: ["--set", t[0], "--q", t[1]]),
        _table(_SELECTOR),
    ),
    st.tuples(
        st.just(["sieve-bound", "--kind", "selberg"]),
        st.tuples(_SET, _shifts(4), _option("--q", _number(-1, 40))).map(
            lambda t: ["--set", t[0], "--shifts", t[1], *t[2]]),
        _table(_SELECTOR),
    ),
    st.tuples(
        st.just(["sieve-bound", "--kind", "middlek"]),
        # one or two shifts and a small window coefficient, so that some
        # reports are valid at these scales
        st.tuples(_SET, _shifts(2), _MIDDLEK_WINDOWS,
                  _option("--window-coefficient", st.floats(0, 1).map(repr))).map(
            lambda t: ["--set", t[0], "--shifts", t[1], *t[2], *t[3]]),
        _table(_SELECTOR),
    ),
    st.tuples(
        st.just(["check-genthm", "--profile", "scaled"]),
        st.tuples(_GENTHM_SETS, _SCALES, _option("--q", _number(1, 40))).map(
            lambda t: [*t[0], *t[1], *t[2]]),
        _table(_SELECTOR),
    ),
).map(lambda t: [*t[0], *t[1], *t[2]])


def _trial_sifted_count(argv):
    """#{s in S : no prime p <= limit of the selector divides s - a for a
    shift a}, by trial division; the ps of ``sieve-bound``'s sifted count."""
    opts = {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}
    s, shifts = parse_int_set(opts["--set"]), parse_int_set(opts["--shifts"])
    selector, limit = parse_selector(opts["--selector"]), int(opts["--limit"])

    def selected(p):
        return p <= limit and selector.contains(p) and all(p % d for d in range(2, math.isqrt(p) + 1))

    # every prime divides 0: a shift equal to s sifts it out when ps has a prime
    any_prime = any(selected(p) for p in range(2, int(min(limit, selector.upper())) + 1))

    def sifted(d):
        if d == 0:
            return any_prime
        return any(d % p == 0 and selected(p) for p in range(2, d + 1))

    return sum(1 for v in s if not any(sifted(abs(v - a)) for a in shifts))


def _in_domain(key, value) -> bool:
    """Whether a profile constant lies in the domain its docs state."""
    if key == "c_override":
        return 0 <= value <= 1
    if key == "c_floor_exponent":
        return 0 < value < 1
    return 0 < value < math.inf


def _out_of_domain(argv) -> list:
    """The --scale constants of argv that parse as numbers outside their domain."""
    scales = [argv[i + 1].partition("=") for i, arg in enumerate(argv[:-1]) if arg == "--scale"]
    out = []
    for key, _, text in scales:
        try:
            value = float(text)
        except ValueError:
            continue
        if key in cli._SCALE_KEYS and not _in_domain(key, value):
            out.append(key)
    return out


def _corrupt(argv, at, token):
    """argv with the value of its at-th option (mod their number) replaced."""
    values = [i + 1 for i, a in enumerate(argv[:-1]) if a.startswith("--")
              and not argv[i + 1].startswith("--")]
    argv = list(argv)
    argv[values[at % len(values)]] = token
    return argv


_ARGVS = st.one_of(
    _VALID_ARGVS, _VALID_ARGVS, _VALID_ARGVS,
    st.builds(_corrupt, _VALID_ARGVS, st.integers(0, 20), _MALFORMED),
)


def _examples(argvs):
    """One hypothesis @example per argv."""
    def decorate(test):
        for argv in argvs:
            test = example(argv=list(argv))(test)
        return test
    return decorate


class TestCliFuzz:
    """Every argv of the fuzz exits 0, 1 or 2 with one schema-1 JSON line:
    exit 1 with exactly the error object, a valid larger- or large-sieve
    bound at least |S| and a valid Selberg or middle-k bound at least the
    sifted count, as the lemmas promise; for |S| <= 30 the sifted count is
    checked by trial division.  check-genthm exits 1 when a profile constant
    lies outside its domain, and otherwise, with a report, 0 exactly when
    its hypotheses are met and a condition holds."""

    @settings(max_examples=200, deadline=None)
    @given(argv=_ARGVS)
    @example(argv=["semigroup", "--x", "100000", "--selector", "ap:1,4", "--limit", "10000"])
    @example(argv=["sieve-bound", "--kind", "larger", "--set", "0"])
    @example(argv=["sieve-bound", "--kind", "large", "--set", "1..50", "--q", "-2"])
    @example(argv=["primes", "--limit", "100", "--density-c", "10201"])
    @example(argv=["semigroup", "--tau-fit", "--x", "10000", "--wirsing", "5e-324",
                   "--limit", "2", "--selector", "interval:2,0"])
    @example(argv=["sieve-bound", "--kind", "middlek", "--set", "1..30", "--shifts", "0",
                   "--x", "100000000", "--y1", "20", "--y2", "100", "--window-coefficient", "0.1",
                   "--limit", "1000", "--selector", "all"])  # a valid middle-k report
    # profile constants that ended in a ValueError traceback
    @example(argv=["sieve-bound", "--kind", "middlek", "--set", "5,7,11", "--shifts", "0,2",
                   "--x", "1000000", "--y1", "10", "--y2", "40", "--window-coefficient", "nan"])
    @example(argv=["check-genthm", "--s", "5,13,17,29", "--x", "10000", "--selector", "ap:3,4",
                   "--limit", "100000", "--profile", "scaled", "--scale", "c_override=inf",
                   "--q", "5"])
    @example(argv=["check-genthm", "--s", "5,13,17,29", "--x", "10000", "--selector", "ap:3,4",
                   "--limit", "100000", "--profile", "scaled", "--scale", "c_override=1e200",
                   "--q", "5"])
    # a tiny asserted c: sigma0 sigma c^2 underflowed to 0 (1e-300, 1e-160), K^3
    # overflowed (1e-80), and the BV weight 3K would overflow (1.4e-150)
    @example(argv=["check-genthm", "--s", "5,13,17,29", "--x", "10000", "--selector", "ap:3,4",
                   "--limit", "100000", "--profile", "scaled", "--scale", "c_override=1e-300",
                   "--q", "5"])
    @example(argv=["check-genthm", "--s", "5,13,17,29", "--x", "10000", "--selector", "ap:3,4",
                   "--limit", "100000", "--profile", "scaled", "--scale", "c_override=1e-160",
                   "--q", "5"])
    @example(argv=["check-genthm", "--s", "5,13,17,29", "--x", "10000", "--selector", "ap:3,4",
                   "--limit", "100000", "--profile", "scaled", "--scale", "c_override=1e-80",
                   "--q", "5"])
    @example(argv=["check-genthm", "--s", "5,13,17,29", "--x", "10000", "--selector", "ap:3,4",
                   "--limit", "100000", "--profile", "scaled", "--scale", "c_override=1.4e-150",
                   "--q", "5"])
    # (3K)^2 overflowed in the BV weights; a negative K ended in a math domain error
    @example(argv=["check-genthm", "--s", "5,13,17,29", "--x", "10000", "--selector", "ap:3,4",
                   "--limit", "100000", "--profile", "scaled", "--scale", "c_override=1e-100",
                   "--scale", "star_exponent=0.01", "--q", "200"])
    @example(argv=["check-genthm", "--s", ",".join(str(n) for n in _SMOOTH3 if n <= 10**4),
                   "--x", "10000", "--selector", "interval:3,100", "--profile", "scaled",
                   "--scale", "k_coefficient=-0.002", "--scale", "star_exponent=1.2",
                   "--scale", "condition_coefficient=0.0015", "--scale", "c_floor_exponent=0.25",
                   "--q", "100"])
    @_examples(argv for argv, _, _ in _PAST_THE_FLOAT_RANGE)
    def test_reports(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert out.getvalue().count("\n") == 1
        doc = json.loads(out.getvalue())
        assert doc["schema"] == 1
        if argv[0] == "check-genthm" and _out_of_domain(argv):
            assert code == 1
        if code == 1:
            assert set(doc) == {"schema", "command", "error"}
            return
        result = doc["result"]
        if argv[0] == "check-genthm":
            met = not result["context"]["hypothesis_failures"]
            assert (code == 0) == (met and result["some_condition_holds"])
        if argv[0] != "sieve-bound":
            return
        bound = float(result["bound"])  # "inf" past the float range
        if argv[2] in ("larger", "large"):
            if result["valid"]:
                assert bound >= doc["params"]["set_size"]
            return
        if result["valid"]:
            assert bound >= result["sifted_count"]
        if doc["params"]["set_size"] <= 30:
            assert result["sifted_count"] == _trial_sifted_count(argv)


def run_fresh(*args, timeout=120):
    """A new interpreter with this checkout's package on its path: nothing
    loaded by the tests above is loaded there."""
    src = str(Path(sumsieve.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


# runs argv through the CLI under tracemalloc, then prints its stdout, the
# package modules it loaded and its traced peak
_LOADED = """
import contextlib, io, json, sys, tracemalloc
import sumsieve.cli
out = io.StringIO()
tracemalloc.start()
with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
    sumsieve.cli.main(sys.argv[1:])
print(json.dumps({"stdout": out.getvalue(), "peak": tracemalloc.get_traced_memory()[1],
                  "modules": sorted(m[9:] for m in sys.modules if m.startswith("sumsieve."))}))
"""
# the modules cli.py imports at its top
_CLI_CORE = {"cli", "errors", "primes", "profiles"}
_SUBCOMMANDS = ("primes", "sieve-bound", "inverse-sieve", "smooth-count", "dickman",
                "tuple-count", "bv-sum", "semigroup", "sumset", "ruzsa", "decompose",
                "check-genthm", "ostmann-diag", "verify-all")
# the names the package exports, by defining module
_EXPORTS = {
    "errors": "CapacityError DegenerateInputError DivisibilityError DomainError SumsieveError",
    "primes": "ALL And Excluding Interval MinValue PrimeSubset PrimeSums PrimeTable ResidueClass "
              "all_primes density_ratio_c subset_sums",
    "arith": "EULER_GAMMA MultiplicativeSpec check_comparison_inequality "
             "enumerate_squarefree_supported euler_phi factorize gamma_function mobius "
             "restricted_multiplicative_sum tau3",
    "profiles": "STRICT ConstantsProfile scaled",
    "sumset": "DecompositionResult IntegerSet decompose_binary decompose_binary_relative "
              "decompose_ternary_via_ruzsa ruzsa_check sumset",
    "sieves": "OccupancyProfile SieveBoundReport inverse_sieve_lower_bound large_sieve_bound "
              "larger_sieve_bound middlek_bound occupancy prop_smallkbv_bound "
              "prop_smallkscs_bound selberg_bound sift_count",
    "smooth": "SmoothQuery bv_discrepancy_sum dickman_rho enumerate_smooth psi psi_coprime "
              "smooth_tuple_count",
    "semigroup": "SemigroupStats enumerate_q estimate_tau verify_hypotheses_wirsing "
                 "wirsing_estimate",
    "irreducibility": "GenThmContext build_context check_bv_condition check_scs_condition "
                      "conclusion_bounds ostmann_epsilon_profile",
}


class TestColdStart:
    """Each command in a fresh process, as a user runs it: the in-process tests
    above have every layer loaded already, so a handler that forgot to import
    its layer would pass them."""

    @pytest.mark.parametrize("line", readme_commands())
    def test_readme_line_in_a_fresh_process(self, line, tmp_path):
        files = write_inputs(tmp_path)
        argv = [files.get(token, token) for token in shlex.split(line)[1:]]
        proc = run_fresh("-m", "sumsieve.cli", *argv)
        got = {"exit": proc.returncode, "stdout": _ELAPSED.sub('"elapsed_ms": null', proc.stdout)}
        assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))[line]

    def test_readme_semigroup_line_sieves_only_as_far_as_x(self):
        # --limit 10^7 bounds the table's coverage, but every query stops at
        # x = 10^6: the table sieved to 10^7 alone is about 10.3 MB
        line = next(line for line in readme_commands() if line.startswith("sumsieve semigroup"))
        proc = run_fresh("-c", _LOADED, *shlex.split(line)[1:])
        doc = json.loads(proc.stdout)
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[line]["stdout"]
        assert _ELAPSED.sub('"elapsed_ms": null', doc["stdout"]) == expected
        assert doc["peak"] <= 8 * 10**6

    def test_import_loads_no_layer(self):
        proc = run_fresh("-c", "import sys, sumsieve; print(sorted(m for m in sys.modules "
                               "if m.startswith('sumsieve.')))")
        assert proc.returncode == 0 and proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, unused", [
        (["primes", "--limit", "1000", "--sums", "1,100"], ()),
        (["sumset", "--a", "0,1,5", "--b", "0,2"], ()),
        (["ruzsa", "--a", "0,1", "--b", "0,1", "--c", "0,1"], ()),
        (["decompose", "--set", "0,1,2,3"], ()),
        (["dickman", "--u", "2.5"], ("smooth",)),
        (["smooth-count", "--x", "100", "--y", "3"], ("smooth",)),
        (["tuple-count", "--x", "10000", "--y", "10", "--shifts", "0,1"], ("smooth",)),
        (["bv-sum", "--x", "1000", "--y", "5", "--q", "10", "--selector", "interval:7,100",
          "--limit", "1000"], ("smooth",)),
    ])
    def test_subcommands_load_only_their_layers(self, argv, unused):
        proc = run_fresh("-c", _LOADED, *argv)
        doc = json.loads(proc.stdout)
        assert json.loads(doc["stdout"])["command"] == argv[0]
        forbidden = {"sieves", "smooth", "semigroup", "irreducibility", "checks"} - set(unused)
        assert not forbidden & set(doc["modules"]), doc["modules"]

    def test_help_lists_every_subcommand_and_loads_no_layer(self):
        doc = json.loads(run_fresh("-c", _LOADED, "--help").stdout)
        assert set(doc["modules"]) == _CLI_CORE
        assert "{" + ",".join(_SUBCOMMANDS) + "}" in doc["stdout"]

    def test_export_table(self):
        expected = {name: module for module, names in _EXPORTS.items() for name in names.split()}
        for name, module in expected.items():
            layer = importlib.import_module(f"sumsieve.{module}")
            assert getattr(sumsieve, name) is getattr(layer, name), name
        listed = {name for name in dir(sumsieve) if not name.startswith("_")
                  and not isinstance(getattr(sumsieve, name), types.ModuleType)}
        assert listed == set(expected)
        with pytest.raises(AttributeError):
            sumsieve.no_such_name
