"""CLI handler paths the README lines do not reach, against recorded stdout.

Each line below takes a branch of a subcommand handler, or an output mode,
that no README example takes; ``cli_paths_golden.json`` holds its exact
stdout (``elapsed_ms`` blanked) and exit code, recorded before the handlers
printed the layers' records directly, so that change kept every byte.
Re-record a line only for a report change made on purpose.
"""

import json
from pathlib import Path

import pytest

from test_readme_cli import run_line, write_inputs

GOLDEN = Path(__file__).with_name("cli_paths_golden.json")
LINES = [
    "sumsieve semigroup --x 10000 --selector ap:1,4 --count --verify-hypotheses --limit 100000",
    "sumsieve semigroup --x 10000 --selector ap:1,4 --csv-xs 100,1000,10000 --wirsing 0.5"
    " --limit 100000",
    "sumsieve decompose --set 0,1,2,3,4,5 --s0 0,5",
    "sumsieve decompose --set 0,1,3",
    "sumsieve smooth-count --x 1000 --y 7 --coprime 3",
    "sumsieve smooth-count --x 1000 --y 7 --mod 4 --res 1",
    "sumsieve ostmann-diag --set 1,4,9,16,25,36,49,64,81,100 --x 100 --y-limit 12 --list-eps",
    "sumsieve sieve-bound --kind large --set 0..100 --q 7 --selector interval:2,50 --limit 1000",
    "sumsieve sieve-bound --kind selberg --set 1..200 --shifts 0,2 --q 5 --limit 1000",
    "sumsieve sieve-bound --kind middlek --set 1..30 --shifts 0 --x 100000000 --y1 20 --y2 100"
    " --window-coefficient 0.1 --limit 1000",
    # strict constants: hypotheses met, no condition holds, exit 2
    "sumsieve check-genthm --s 1,2,4,8 --x 10000 --selector interval:2,10000 --limit 100000"
    " --q 10",
    "sumsieve check-genthm --s @set.txt --x 10000 --selector interval:3,100 --q 100",
    "sumsieve --output plain tuple-count --x 10000 --y 10 --shifts 0,1",
    "sumsieve --output csv tuple-count --x 10000 --y 10 --shifts 0,1",
    "sumsieve --output plain inverse-sieve --set 10,25,90 --y 50 --x 100",
    "sumsieve --output csv inverse-sieve --set 10,25,90 --y 50 --x 100",
    "sumsieve --output plain ruzsa --a 0,1 --b 0,1 --c 0,1",
    "sumsieve --output csv ruzsa --a 0,1 --b 0,1 --c 0,1",
]


def test_golden_lists_every_line():
    assert list(json.loads(GOLDEN.read_text(encoding="utf-8"))) == LINES


@pytest.mark.parametrize("line", LINES)
def test_path_output(line, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[line]
    assert run_line(line, write_inputs(tmp_path), capsys) == expected

