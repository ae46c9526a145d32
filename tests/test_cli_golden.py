"""Byte-identity of the CLI on a fixed set of requests.

`cli_golden.json` holds the exit code, stdout and stderr of every argv
list in CASES.  The cases cover every subcommand, both conventions,
`--json`/`--decimal`, the interval fallback of beta, a 127/113 period
pair, a 2,048-bit head, each error exit (1 and 3), `check --seed 1` and
`--inject-failure`.  A change that alters any of these bytes fails here.

To regenerate the file after a deliberate change of output, run

    PYTHONPATH=src python tests/test_cli_golden.py

and record the change of output in CHANGES.md.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from afideals.cli import main

GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")

PERIOD_127 = "head=;period=1" + "0" * 126
PERIOD_113 = "head=;period=1" + "0" * 112
HEAD_2048 = "head=" + "0" * 2047 + "1;period="
HEAD_2049 = "head=" + "0" * 2048 + "1;period="

CASES = (
    ("distance", "1/2", "1/4,1/8"),
    ("distance", "--convention", "paper", "1/2", "1/4,1/8"),
    ("distance", "--convention", "paper", "--json", "1/2", "1/4,1/16"),
    ("distance", "--convention", "paper", "--metric", "beta", "--decimal", "8", "1/2", "1/4,1/8"),
    ("distance", "--convention", "paper", "--metric", "phi", "1/2", "1/4,1/16"),
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
    (),
    ("paper-table",),
    ("paper-table", "--json"),
    ("descriptor", "1/2"),
    ("descriptor", "--depth", "8", "--convention", "paper", "1/2"),
    ("descriptor", "--json", "--depth", "6", "--convention", "paper", "1/4,1/8"),
    ("descriptor", "--depth", "10", "head=01;period=011"),
    ("descriptor", "--depth", "6", "1/2,0"),
    ("descriptor", "--depth", "5", ""),
    ("descriptor", "--convention", "paper", "head=;period=1"),
    ("descriptor", "--convention", "paper", "1"),
    ("descriptor", "--convention", "paper", "1,1/4"),
    ("diagram", "--depth", "4"),
    ("diagram", "--depth", "3", "--dot"),
    ("diagram", "--depth", "0"),
    ("check", "--seed", "1"),
    ("check", "--seed", "1", "--inject-failure"),
)


def capture(argv) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {"argv": list(argv), "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_golden() -> list:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_cases():
    assert [tuple(record["argv"]) for record in load_golden()] == list(CASES)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_cli_output_is_byte_identical(index, monkeypatch):
    monkeypatch.delenv("AFIDEALS_DEPTH", raising=False)
    monkeypatch.delenv("AFIDEALS_SEED", raising=False)
    assert capture(CASES[index]) == load_golden()[index]


if __name__ == "__main__":
    os.environ.pop("AFIDEALS_DEPTH", None)
    os.environ.pop("AFIDEALS_SEED", None)
    GOLDEN.write_text(json.dumps([capture(argv) for argv in CASES], indent=1) + "\n")
