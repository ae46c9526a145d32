"""The cases `check` draws, pinned independently of its verdicts.

An all-PASS transcript shows only case counts, so it cannot tell whether
the suites still draw the same cases.  `check_draws.json` holds:

* for each suite, a SHA-256 digest of its RNG state after it has run,
  over seeds 1..20: a suite that draws one bit more or less, or in
  another order, leaves another state;
* the reprs of 50 `random_word`, 50 `random_closed_set(nonempty=False)`
  and 50 `random_ideal` values drawn from one RNG seeded with `DRAW_SEED`.

`random_word` draws its head and period lengths through `checks._below`,
which copies the rejection loop behind `randrange` and `randint`; a test
here requires the same values and the same RNG state as those methods.
The suites' other draws (`rng.sample` positions in `exact-arithmetic`,
`rng.randint` depths in `truncation`) are pinned by the per-suite
RNG-state digests.  `random_mask` and the `closure-fixpoint` seeds draw
in one loop each; the per-bit and per-level draws they replaced are kept
here as references, and must give the same values and leave the same RNG
state.

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


def reference_random_mask(rng, n):
    """One `_below` call per bit, summed."""
    getrandbits = rng.getrandbits
    return sum(checks._below(getrandbits, 2) << k for k in range(n))


def reference_closure_seeds(draw):
    """The `closure-fixpoint` seeds drawn level by level."""
    small = [sum(1 << k for k in range(p) if draw() < 0.2) for p in range(1, 9)]
    big = [s | sum(1 << k for k in range(p) if draw() < 0.2) for p, s in enumerate(small, 1)]
    return small, big


def test_random_mask_draws_as_reference():
    for seed in (0, 1, 7, 2**40 + 3, "15:correspondence", "3:hausdorff-metric"):
        for n in range(41):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(20):
                assert checks.random_mask(ours, n) == reference_random_mask(theirs, n), (seed, n)
            assert ours.getstate() == theirs.getstate(), (seed, n)


def test_closure_seeds_draw_as_reference():
    seen = {"big adds indices": 0, "empty small level": 0, "full big level": 0}
    for seed in range(250):
        ours, theirs = (random.Random(f"{seed}:closure-fixpoint") for _ in range(2))
        for _ in range(3):
            small, big = checks._closure_seeds(ours.random)
            assert (small, big) == reference_closure_seeds(theirs.random), seed
            seen["big adds indices"] += small != big
            seen["empty small level"] += 0 in small
            seen["full big level"] += any(m == (1 << p) - 1 for p, m in enumerate(big, 1))
        assert ours.getstate() == theirs.getstate(), seed
    assert min(seen.values()) > 50, seen


def runs() -> list:
    return [("test_digests_cover_every_suite", test_digests_cover_every_suite, ())] + [
        (f"test_suite_leaves_pinned_rng_state[{name}]", test_suite_leaves_pinned_rng_state,
         (name, suite)) for name, suite in checks.SUITES] + [
        ("test_generators_draw_pinned_values", test_generators_draw_pinned_values, ()),
        ("test_sampler_draws_as_random_does", test_sampler_draws_as_random_does, ()),
        ("test_random_mask_draws_as_reference", test_random_mask_draws_as_reference, ()),
        ("test_closure_seeds_draw_as_reference", test_closure_seeds_draw_as_reference, ())]


if __name__ == "__main__":
    pins.script(DRAWS, runs, lambda: DRAWS.write_text(json.dumps({
        "states": {name: state_digest(name, suite) for name, suite in checks.SUITES},
        "reprs": drawn_reprs(),
    }, indent=1) + "\n"))
