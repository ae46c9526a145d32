"""The cases `check` draws, pinned independently of its verdicts.

An all-PASS transcript shows only case counts, so it cannot tell whether
the suites still draw the same cases.  `check_draws.json` holds:

* for each suite, a SHA-256 digest of its RNG state after it has run,
  over seeds 1..20: a suite that draws one bit more or less, or in
  another order, leaves another state;
* the reprs of 50 `random_word`, 50 `random_closed_set(nonempty=False)`
  and 50 `random_ideal` values drawn from one RNG seeded with `DRAW_SEED`.

The suites draw their integers through `checks._below`, which copies the
rejection loop behind `randrange` and `randint`; a test here requires the
same values and the same RNG state as those methods.

The module needs no pytest, so the pins can be checked under any
interpreter the package supports:

    PYTHONPATH=src python tests/test_check_draws.py --verify

To regenerate the file after a deliberate change of the draws, run

    PYTHONPATH=src python tests/test_check_draws.py --write

and record the change in CHANGES.md.
"""

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

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


def pytest_generate_tests(metafunc):
    if "suite" in metafunc.fixturenames:
        metafunc.parametrize("name,suite", checks.SUITES,
                             ids=[name for name, _ in checks.SUITES])


def test_digests_cover_every_suite():
    assert list(load_draws()["states"]) == [name for name, _ in checks.SUITES]


def test_suite_leaves_pinned_rng_state(name, suite):
    assert state_digest(name, suite) == load_draws()["states"][name]


def test_generators_draw_pinned_values():
    assert drawn_reprs() == load_draws()["reprs"]


# Each sampler draw beside the `random` call it stands for.
SAMPLER_PAIRS = {
    "randrange(n)": (lambda rng, n: checks._below(rng.getrandbits, n),
                     lambda rng, n: rng.randrange(n)),
    "randint(0, n - 1)": (lambda rng, n: checks._below(rng.getrandbits, n),
                          lambda rng, n: rng.randint(0, n - 1)),
    "randint(1, n)": (lambda rng, n: 1 + checks._below(rng.getrandbits, n),
                      lambda rng, n: rng.randint(1, n)),
    "random_mask": (checks.random_mask,
                    lambda rng, n: sum(rng.randrange(2) << k for k in range(n))),
}


def test_sampler_draws_as_random_does():
    for label, (sampler, method) in SAMPLER_PAIRS.items():
        for seed in (0, 1, 7, 2**40 + 3, "15:correspondence"):
            for n in range(1, 41):
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(20):
                    assert sampler(ours, n) == method(theirs, n), (label, seed, n)
                assert ours.getstate() == theirs.getstate(), (label, seed, n)


def verify() -> bool:
    """Run every test above without pytest, one line each; True when all pass."""
    runs = [("test_digests_cover_every_suite", test_digests_cover_every_suite, ())]
    runs += [(f"test_suite_leaves_pinned_rng_state[{name}]", test_suite_leaves_pinned_rng_state,
              (name, suite)) for name, suite in checks.SUITES]
    runs += [("test_generators_draw_pinned_values", test_generators_draw_pinned_values, ()),
             ("test_sampler_draws_as_random_does", test_sampler_draws_as_random_does, ())]
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


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check or regenerate check_draws.json.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--verify", action="store_true", help="check the pins; exit 1 on a mismatch")
    mode.add_argument("--write", action="store_true", help="regenerate check_draws.json")
    if parser.parse_args().verify:
        print(f"python {sys.version.split()[0]}")
        sys.exit(0 if verify() else 1)
    DRAWS.write_text(json.dumps({
        "states": {name: state_digest(name, suite) for name, suite in checks.SUITES},
        "reprs": drawn_reprs(),
    }, indent=1) + "\n")
