"""Seeded random command lines through `cli.main`, in-process: malformed
input must end in exit 1 or 3 with one `error:` line, never a traceback.
Each call goes through `pins.capture`, as the pinned outputs' calls do.

Each argv mixes the closed-set grammar's atoms, every option and
subcommand, integers past the 4,300 digits int() reads, full-width and
Arabic-Indic digits (which int() accepts in numeric options and the point
grammar, ASCII digits only, refuses) and literals one bit past the
2,048-bit cap.  `check` is drawn rarely, since one run takes tens of
milliseconds.

Each stderr line is held to README's 200 characters.  Stdout has no such
bound: a successful command's lines grow with depth, and a bare `diagram`,
at the default depth 32, prints a 244-character `edges:` line.
"""

import random

from afideals.qi import MAX_LITERAL_BITS
from pins import capture

CASES = 3000
LINE_LIMIT = 200

HUGE = "7" * 5000
OVER_CAP = [
    "head=" + "0" * MAX_LITERAL_BITS + ";period=1",
    f"1/{2**MAX_LITERAL_BITS}",
    "head=;period=" + "01" * (MAX_LITERAL_BITS // 2) + "1",
]
# Each pool is (well-formed values, malformed ones).
SETS = (
    ["", "0", "1", "1/2", "1/4,1/8", "1,0", "1/2,0", "1/8,1/64", "1,1/2,1/8", " 1/2 ",
     "head=1;period=01", "head=;period=011", "head=0;period=1", "head=101;period=",
     "head=11;period=;zero=1", "head=;period=1", "head=0110;period=101"],
    ["1/3", "-1/2", "2", "1/0", "1/2,,1/4", "1/2;1/4", "head=2;period=1", "head=1",
     "head=1;period=1;zero=1", "period=1", "x", "١/2", "١/٢", "١/٨,٠", "１/４", "１/٢", "１,0",
     HUGE, "1/" + HUGE, HUGE + "/1", *OVER_CAP],
)
# Depths stay small in every digit script, so diagrams and descriptors stay short.
DEPTHS = (["1", "3", "8", "٥", "７"],
          ["0", "-2", "1025", "１０２５", "x", "", "3.5", HUGE, "-" + HUGE])
NUMBERS = (["0", "1", "6", "12", "٣", "１２"], ["-1", "1001", "x", "", HUGE, "-" + HUGE])
VALUES = {
    "--convention": (["paper", "derived"], ["pap", "", "PAPER", "x" * 300]),
    "--metric": (["phi", "beta", "hausdorff", "all"], ["b", "x" * 300, HUGE]),
    "--depth": DEPTHS,
    "--decimal": NUMBERS,
    "--seed": NUMBERS,
}
# Each subcommand's options and its number of closed-set arguments.
GRAMMAR = {
    "distance": (["--convention", "--metric", "--depth", "--decimal", "--json"], 2),
    "descriptor": (["--convention", "--depth", "--json"], 1),
    "diagram": (["--depth", "--dot"], 0),
    "paper-table": (["--json"], 0),
    "check": (["--seed"], 0),
}
FLAGS = ["--json", "--dot", "--help", "-h", "--", "-x", "--unknown", "--" + "z" * 300,
         "--dec", "--dep", "--met", "--con", "--s"]
COMMANDS = ["", "dist", "check-", "Distance", "x" * 300, HUGE]


def pick(rng: random.Random, pool: tuple) -> str:
    """A well-formed value four times in five, else a malformed one."""
    return rng.choice(pool[rng.random() >= 0.8])


def random_atom(rng: random.Random) -> list:
    """One piece of a command line: a set, a flag, an option with a value
    (split or joined by '='), or a command name."""
    kind = rng.randrange(6)
    if kind < 2:
        return [pick(rng, SETS)]
    if kind == 2:
        return [rng.choice(FLAGS)]
    if kind == 3:
        return [rng.choice(COMMANDS + list(GRAMMAR))]
    option, pool = rng.choice(list(VALUES.items()))
    value = pick(rng, pool)
    return [option, value] if kind == 4 else [f"{option}={value}"]


def random_argv(rng: random.Random) -> list:
    """A subcommand with some of its options and its sets, then in half the
    cases up to three insertions, deletions or replacements of pieces.
    One run in two hundred is a `check`."""
    command = "check" if rng.random() < 0.005 else rng.choice([c for c in GRAMMAR if c != "check"])
    options, sets = GRAMMAR[command]
    argv = [command]
    for option in options:
        if rng.random() < 0.4:
            argv += [option] if option in FLAGS else [option, pick(rng, VALUES[option])]
    argv += [pick(rng, SETS) for _ in range(sets)]
    for _ in range(rng.randint(1, 3) if rng.random() < 0.5 else 0):
        at = rng.randrange(len(argv) + 1)
        edit = rng.randrange(3)  # 0 inserts a piece at `at`, 1 replaces argv[at], 2 deletes it
        argv[at:at + (edit > 0)] = random_atom(rng) if edit < 2 else []
    return argv


def test_random_command_lines_never_escape():
    rng = random.Random(2049)
    codes, ran = set(), set()
    for _ in range(CASES):
        argv = random_argv(rng)
        result = capture(argv)
        rc, out, err = result["rc"], result["stdout"], result["stderr"]
        shown = [a[:40] for a in argv]
        assert rc in (0, 1, 3), (shown, rc, err[:300])
        if rc:
            assert not out, shown
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (shown, err[:300])
        else:
            assert not err, shown
        longest = max(map(len, err.splitlines()), default=0)
        assert longest <= LINE_LIMIT, (shown, longest)
        codes.add(rc)
        if rc == 0 and not {"-h", "--help"} & set(argv):
            ran.add(argv[0])
    assert codes == {0, 1, 3}
    assert ran >= set(GRAMMAR)
