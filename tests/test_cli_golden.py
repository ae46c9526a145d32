"""Byte-identity of the CLI on a fixed set of requests.

`cli_golden.json` holds the exit code, stdout and stderr of every argv
list in CASES.  The cases cover every subcommand, both conventions (the paper's
singletons and pairs also as word literals, with points past index 1,000),
`--json`/`--decimal`, the interval fallback of beta, a 127/113 period
pair, a 2,048-bit head, each error exit (1 and 3), argparse messages cut to
their start and length, `check --seed S` for S = 1..20, and the seven
`--help` texts (the top-level one, each subcommand's, and `--help distance`,
which prints the top-level one) at 80 columns.  A change that alters any of
these bytes fails here.

For `check`, that means a change to a suite's case count, verdict or
transcript wording.  A change to an RNG stream need not fail here: an
all-PASS transcript shows only case counts.  The draws themselves are
pinned in `test_check_draws.py`, and the FAIL transcript's shape by the
mutation tests in `test_check_oracles.py`.

`python tests/test_cli_golden.py --write` regenerates the file (see
`pins.py`).
"""

import json
from pathlib import Path

import pytest

import pins

GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")

PERIOD_127 = "head=;period=1" + "0" * 126
PERIOD_113 = "head=;period=1" + "0" * 112
HEAD_2048 = "head=" + "0" * 2047 + "1;period="
HEAD_2049 = "head=" + "0" * 2048 + "1;period="
# The paper's {2**-m} at m = 1,200 and {2**-n, 2**-(n+k)} at n = 1,100, k = 400.
FAR_SINGLETON = "head=" + "0" * 1200 + "1;period="
FAR_PAIR = "head=" + "0" * 1100 + "1" + "0" * 399 + "1;period="

CASES = (
    ("distance", "1/2", "1/4,1/8"),
    ("distance", "--convention", "paper", "1/2", "1/4,1/8"),
    ("distance", "--convention", "paper", "--json", "1/2", "1/4,1/16"),
    ("distance", "--convention", "paper", "--metric", "beta", "--decimal", "8", "1/2", "1/4,1/8"),
    ("distance", "--convention", "paper", "--metric", "phi", "1/2", "1/4,1/16"),
    ("distance", "--convention", "paper", "head=001;period=", "head=01001;period="),
    ("distance", "--convention", "paper", "--json", "head=0010;period=0", "head=0101;period="),
    ("distance", "--convention", "paper", FAR_SINGLETON, FAR_PAIR),
    ("distance", "--convention", "paper", "--decimal", "20", "head=" + "0" * 1100 + "1;period=", FAR_PAIR),
    ("distance", "--json", "--decimal", "6", "1/2", "0"),
    ("distance", "--decimal", "0", "--metric", "phi", "1", "1/2"),
    ("distance", "--decimal", "10", "--metric", "beta", "1/2,1/8,0", "head=1;period=01"),
    ("distance", "--metric", "hausdorff", "head=1;period=01", "head=;period=011"),
    ("distance", "--metric", "beta", "--depth", "64", "head=1;period=01", "head=;period=011"),
    ("distance", "--metric", "beta", "--depth", "8", "head=;period=10", ""),
    ("distance", "--metric", "beta", "0", "head=;period=1"),
    ("distance", "--json", "head=0101;period=", "head=11;period=;zero=1"),
    ("distance", "--json", "--decimal", "4", PERIOD_127, PERIOD_113),
    ("distance", "--metric", "all", "--depth", "1024", "head=1;period=011", PERIOD_113),
    ("distance", "--metric", "beta", HEAD_2048, "1/2"),
    ("distance", "--metric", "hausdorff", HEAD_2048, "head=" + "0" * 1023 + "1;period=;zero=1"),
    ("distance", HEAD_2049, "1/2"),
    ("distance", "", "1/2"),
    ("distance", "1/3", "1/2"),
    ("distance", "head=2;period=", "1/2"),
    ("distance", "--convention", "paper", "head=;period=1", "1/4,1/8"),
    ("distance", "--convention", "paper", "1/2,1/4", "1/4,1/8"),
    ("distance", "--convention", "paper", "1", "1/4,1/8"),
    ("distance", "--convention", "paper", "1/2", "1/4,0"),
    ("distance", "--convention", "paper", "1/2", "1/4"),
    ("distance", "--convention", "paper", "1/2", "1,1/2"),
    ("distance", "--depth", "0", "1/2", "1/4"),
    ("distance", "--depth", "1025", "1/2", "1/4"),
    ("distance", "--decimal", "-2", "1/2", "1/4"),
    ("distance", "--decimal", "1001", "1/2", "1/4"),
    ("distance", "1/2"),
    ("distance", "--json=" + "1" * 3000, "1/2", "1/4"),
    ("distance", "1/2", "1/4") + tuple(f"--x{i}" for i in range(100)),
    (),
    ("-h",),
    ("distance", "-h"),
    ("paper-table", "-h"),
    ("descriptor", "-h"),
    ("diagram", "-h"),
    ("check", "-h"),
    ("--help", "distance"),
    ("paper-table",),
    ("paper-table", "--json"),
    ("descriptor", "1/2"),
    ("descriptor", "--depth", "8", "--convention", "paper", "1/2"),
    ("descriptor", "--json", "--depth", "6", "--convention", "paper", "1/4,1/8"),
    ("descriptor", "--depth", "8", "--convention", "paper", "head=0001;period="),
    ("descriptor", "--depth", "9", "--convention", "paper", "head=010001;period="),
    ("descriptor", "--depth", "10", "head=01;period=011"),
    ("descriptor", "--depth", "6", "1/2,0"),
    ("descriptor", "--depth", "5", ""),
    ("descriptor", "--convention", "paper", "head=;period=1"),
    ("descriptor", "--convention", "paper", "1"),
    ("descriptor", "--convention", "paper", "1,1/4"),
    ("diagram", "--depth", "4"),
    ("diagram", "--depth", "3", "--dot"),
    ("diagram", "--depth", "0"),
    *(("check", "--seed", str(seed)) for seed in range(1, 21)),
)


def load_golden() -> list:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_cases():
    assert [tuple(record["argv"]) for record in load_golden()] == list(CASES)
    assert len(set(CASES)) == len(CASES)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_cli_output_is_byte_identical(index):
    assert pins.capture(CASES[index]) == load_golden()[index]


if __name__ == "__main__":
    pins.script(GOLDEN, lambda: [pins.capture(argv) for argv in CASES])
