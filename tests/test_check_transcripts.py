"""Byte-identity of `check` over a fixed range of seeds.

`check_transcripts.json` holds the exit code, stdout and stderr of
`check --seed S` for S = 1..20.  A change to a suite's case count,
verdict or transcript wording fails here.  A change to an RNG stream need
not: an all-PASS transcript shows only case counts.  The draws themselves
are pinned in `test_check_draws.py`, and the FAIL transcript's shape by
the mutation tests in `test_check_oracles.py`.

To regenerate the file after a deliberate change of output, run

    PYTHONPATH=src python tests/test_check_transcripts.py

and record the change of output in CHANGES.md.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from afideals.cli import main

TRANSCRIPTS = Path(__file__).resolve().with_name("check_transcripts.json")

CASES = tuple(("check", "--seed", str(seed)) for seed in range(1, 21))


def capture(argv) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {"argv": list(argv), "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_transcripts() -> list:
    return json.loads(TRANSCRIPTS.read_text())


def test_transcripts_cover_cases():
    assert [tuple(record["argv"]) for record in load_transcripts()] == list(CASES)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_check_transcript_is_byte_identical(index, monkeypatch):
    monkeypatch.delenv("AFIDEALS_DEPTH", raising=False)
    monkeypatch.delenv("AFIDEALS_SEED", raising=False)
    assert capture(CASES[index]) == load_transcripts()[index]


if __name__ == "__main__":
    os.environ.pop("AFIDEALS_DEPTH", None)
    os.environ.pop("AFIDEALS_SEED", None)
    TRANSCRIPTS.write_text(json.dumps([capture(argv) for argv in CASES], indent=1) + "\n")
