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

The module needs no pytest (see `pins.py`):

    PYTHONPATH=src python tests/test_check_draws.py --verify

checks the pins, and `--write` regenerates the file after a deliberate
change of the draws, which CHANGES.md then records.
"""

import hashlib
import json
import random
from pathlib import Path

import pins
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


def runs() -> list:
    return [("test_digests_cover_every_suite", test_digests_cover_every_suite, ())] + [
        (f"test_suite_leaves_pinned_rng_state[{name}]", test_suite_leaves_pinned_rng_state,
         (name, suite)) for name, suite in checks.SUITES] + [
        ("test_generators_draw_pinned_values", test_generators_draw_pinned_values, ()),
        ("test_sampler_draws_as_random_does", test_sampler_draws_as_random_does, ())]


if __name__ == "__main__":
    pins.script(DRAWS, runs, lambda: DRAWS.write_text(json.dumps({
        "states": {name: state_digest(name, suite) for name, suite in checks.SUITES},
        "reprs": drawn_reprs(),
    }, indent=1) + "\n"))
