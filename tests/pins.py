"""What the pinned-output test modules share: `test_cli_golden.py` and
`test_check_draws.py` each compare the package's output with a JSON file
beside them.  `test_cli_fuzz.py` makes its calls through `capture` too.

pytest checks the pins.  After a deliberate change of output, which
CHANGES.md then records, each module run as a script regenerates its file:

    PYTHONPATH=src python tests/test_cli_golden.py --write

To check the pins under another interpreter, run
`python3.X -m pytest tests/test_cli_golden.py tests/test_check_draws.py`
under it.
"""

import argparse
import contextlib
import io
import json
import os
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


def script(path, pinned):
    """The command line of a pinned-output module: `--write` writes
    `pinned()` to `path` as JSON."""
    parser = argparse.ArgumentParser(description=f"Regenerate {path.name}; pytest checks it.")
    parser.add_argument("--write", action="store_true", required=True,
                        help=f"regenerate {path.name}")
    parser.parse_args()
    path.write_text(json.dumps(pinned(), indent=1) + "\n")
