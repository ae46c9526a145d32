"""Byte-identity of `check` over a fixed range of seeds.

`check_transcripts.json` holds the exit code, stdout and stderr of
`check --seed S` for S = 1..20.  A change to a suite's case count,
verdict or transcript wording fails here.  A change to an RNG stream need
not: an all-PASS transcript shows only case counts.  The draws themselves
are pinned in `test_check_draws.py`, and the FAIL transcript's shape by
the mutation tests in `test_check_oracles.py`.

The module needs no pytest (see `pins.py`):

    PYTHONPATH=src python tests/test_check_transcripts.py --verify

checks the file, and `--write` regenerates it after a deliberate change
of output, which CHANGES.md then records.
"""

import json
from pathlib import Path

import pins

TRANSCRIPTS = Path(__file__).resolve().with_name("check_transcripts.json")

CASES = tuple(("check", "--seed", str(seed)) for seed in range(1, 21))


def load_transcripts() -> list:
    return json.loads(TRANSCRIPTS.read_text())


def pytest_generate_tests(metafunc):
    if "index" in metafunc.fixturenames:
        metafunc.parametrize("index", range(len(CASES)))


def test_transcripts_cover_cases():
    assert [tuple(record["argv"]) for record in load_transcripts()] == list(CASES)


def test_check_transcript_is_byte_identical(index):
    assert pins.capture(CASES[index]) == load_transcripts()[index]


def runs() -> list:
    return [("test_transcripts_cover_cases", test_transcripts_cover_cases, ())] + [
        (f"test_check_transcript_is_byte_identical[{index}]",
         test_check_transcript_is_byte_identical, (index,))
        for index in range(len(CASES))]


if __name__ == "__main__":
    pins.script(TRANSCRIPTS, runs, lambda: TRANSCRIPTS.write_text(
        json.dumps([pins.capture(argv) for argv in CASES], indent=1) + "\n"))
