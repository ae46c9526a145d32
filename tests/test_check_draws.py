"""The cases `check` draws, pinned independently of its verdicts.

An all-PASS transcript shows only case counts, so it cannot tell whether
the suites still draw the same cases.  `check_draws.json` holds:

* for each suite, a SHA-256 digest of its RNG state after it has run,
  over seeds 1..20: a suite that draws one bit more or less, or in
  another order, leaves another state;
* the reprs of 50 `random_word`, 50 `random_closed_set(nonempty=False)`
  and 50 `random_ideal` values drawn from one RNG seeded with `DRAW_SEED`.

To regenerate the file after a deliberate change of the draws, run

    PYTHONPATH=src python tests/test_check_draws.py

and record the change in CHANGES.md.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from afideals import checks

DRAWS = Path(__file__).resolve().with_name("check_draws.json")

SEEDS = range(1, 21)
DRAW_SEED = 15
DRAW_COUNT = 50

GENERATORS = {
    "random_word": checks.random_word,
    "random_closed_set": lambda rng: checks.random_closed_set(rng, nonempty=False),
    "random_ideal": checks.random_ideal,
}


def state_digest(name: str, suite) -> str:
    """Digest of the suite's RNG state after it runs, over every seed."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(f"{seed}:{name}")
        suite(rng)
        digest.update(repr(rng.getstate()).encode())
    return digest.hexdigest()


def drawn_reprs() -> dict:
    rng = random.Random(DRAW_SEED)
    return {name: [repr(draw(rng)) for _ in range(DRAW_COUNT)]
            for name, draw in GENERATORS.items()}


def load_draws() -> dict:
    return json.loads(DRAWS.read_text())


def test_digests_cover_every_suite():
    assert list(load_draws()["states"]) == [name for name, _ in checks.SUITES]


@pytest.mark.parametrize("name,suite", checks.SUITES, ids=[name for name, _ in checks.SUITES])
def test_suite_leaves_pinned_rng_state(name, suite):
    assert state_digest(name, suite) == load_draws()["states"][name]


def test_generators_draw_pinned_values():
    assert drawn_reprs() == load_draws()["reprs"]


if __name__ == "__main__":
    DRAWS.write_text(json.dumps({
        "states": {name: state_digest(name, suite) for name, suite in checks.SUITES},
        "reprs": drawn_reprs(),
    }, indent=1) + "\n")
