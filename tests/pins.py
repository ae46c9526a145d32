"""What the pinned-output test modules share: `test_cli_golden.py`,
`test_check_transcripts.py` and `test_check_draws.py` each compare the
package's output with a JSON file beside them.

The modules need no pytest, so each also runs as a script, under any
interpreter the package supports:

    PYTHONPATH=src python tests/test_cli_golden.py --verify

checks the pins and exits 1 on a mismatch, and `--write` regenerates the
file after a deliberate change, which CHANGES.md then records.
"""

import argparse
import contextlib
import io
import os
import sys
from unittest import mock

from afideals.cli import main as cli_main


def capture(argv) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call.

    COLUMNS is 80 during the call, since argparse wraps --help to the
    terminal's width.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(list(argv))
    return {"argv": list(argv), "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def verify(runs) -> bool:
    """Run each (label, test, args) without pytest, one line each; True
    when all pass."""
    ok = True
    for label, test, args in runs:
        try:
            test(*args)
        except AssertionError as error:
            ok = False
            print(f"FAIL {label} {error}")
        else:
            print(f"PASS {label}")
    return ok


def script(path, runs, write):
    """The command line of a pinned-output module: `--verify` runs `runs`
    and exits 1 on a failure, `--write` calls `write` to regenerate `path`."""
    parser = argparse.ArgumentParser(description=f"Check or regenerate {path.name}.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--verify", action="store_true", help="check the pins; exit 1 on a mismatch")
    mode.add_argument("--write", action="store_true", help=f"regenerate {path.name}")
    if parser.parse_args().verify:
        print(f"python {sys.version.split()[0]}")
        sys.exit(0 if verify(runs()) else 1)
    write()
