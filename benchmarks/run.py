"""Closed-loop benchmark of the afideals CLI, driven in-process through cli.main.

    python3 benchmarks/run.py --workload distance --seed 1 --seconds 40 --trace 0

One client sends the next request only when the previous one has
returned, as a CLI or library caller does; the loop is single-threaded.
Each request is `afideals.cli.main(argv)` with stdout and stderr
captured.  After the timed loop every distinct output is checked against
the independent oracle in oracle.py.

--trace 0 prints the end-to-end metrics, scaled to a reference host speed
by pace chunks timed through the run (see Pace), and as context the
metrics as measured and the median latency of each part of the block.
--trace 1 sends each block untraced and then traced, and prints per-layer
counts and self times (not scaled), each part's largest shares of traced
time, the tracing overhead and a scaling report.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import oracle
import tracer
from workloads import SCALING_DEPTHS, WORKLOADS, Request, make_deck, scaling_requests

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
PACE_EVERY_S = 0.1
PACE_REF_S = 0.0025  # a pace chunk's typical time on a 2 vCPU Xeon VM, Python 3.11.7
MODULES = ("cli", "qi", "metrics", "exact", "bratteli", "checks")


def pace_chunk() -> float:
    """Seconds for a fixed pure-Python loop that no change to afideals can touch."""
    start = time.perf_counter()
    x = 0
    for i in range(20_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


class Pace:
    """The host's speed through a run, from pace chunks timed between requests.

    The shared host's speed drifts by about ±20% over minutes, for all code
    alike.  A chunk is timed at most every PACE_EVERY_S of loop time.  Loop
    time is scaled by PACE_REF_S / the chunks' mean, and each request or
    set-up by PACE_REF_S / the mean of the chunks just before and after it:
    the metrics read as on a host where a chunk takes PACE_REF_S.  See
    NOTES.md, "Host drift".
    """

    def __init__(self):
        self.times = []
        self.spent = 0.0  # seconds spent in chunks, kept out of loop time
        self.last = time.perf_counter()

    def tick(self, force: bool = False):
        now = time.perf_counter()
        if force or now - self.last >= PACE_EVERY_S:
            self.times.append(pace_chunk())
            self.last = time.perf_counter()
            self.spent += self.last - now

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference pace."""
        return PACE_REF_S / statistics.mean(self.times)

    def at(self, k: int) -> float:
        """The same factor for what ran after the first `k` chunks, from chunks k-1 and k."""
        return PACE_REF_S / statistics.mean(self.times[max(k - 1, 0):k + 1])


def call(cli, request: Request):
    """One request through the front door: (exit code or None, stdout, stderr, exception name, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(request.argv))
    except Exception as exc:  # escaped cli.main: a failed request, not a benchmark error
        rc, crash = None, type(exc).__name__
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), crash, elapsed


def set_up(workload, setups: list, pace: Pace | None = None):
    """Fresh import of afideals and the workload's warm-up requests; returns afideals.cli.

    Appends (seconds, chunks so far) to `setups`; with `pace`, a chunk is
    timed just before and just after.  The deck is made once, outside
    set-up: it is the benchmark's own work, and on `distance` it would be
    four fifths of the set-up time.
    """
    k = 0
    if pace is not None:
        pace.tick(force=True)
        k = len(pace.times)
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "afideals" or m.startswith("afideals.")]:
        del sys.modules[name]
    cli = importlib.import_module("afideals.cli")
    for argv in workload.warm_up:
        call(cli, Request(argv, "warm-up"))
    setups.append((time.perf_counter() - start, k))
    if pace is not None:
        pace.tick(force=True)
    return cli


class Outcomes:
    """Distinct (request, output) pairs with their counts, checked after timing."""

    def __init__(self):
        self.seen = {}
        self.direct = []  # reasons for results checked where they were made

    def add(self, where, request, rc, stdout, stderr, crash):
        key = (where, rc, stdout, stderr, crash)
        if key in self.seen:
            self.seen[key][1] += 1
        else:
            self.seen[key] = [request, 1]

    def verify(self):
        """(crashes by exception name, wrong count, failed count, first reasons).

        An exception that escapes cli.main is a crash, so a failed request.
        It is also wrong, unless the request names it as a known defect's.
        """
        crashes, wrong, failed, reasons = {}, len(self.direct), len(self.direct), self.direct[:5]
        expected = {}
        for (where, rc, stdout, stderr, crash), (request, count) in self.seen.items():
            if crash is not None:
                crashes[crash] = crashes.get(crash, 0) + count
                failed += count
                problem = None if crash == request.known_crash else f"{crash} escaped cli.main"
            else:
                if where not in expected:
                    expected[where] = oracle.Expected(request)
                problem = oracle.check(expected[where], rc, stdout, stderr)
                failed += count if problem else 0
            if problem:
                wrong += count
                if len(reasons) < 5:
                    reasons.append(f"{' '.join(request.argv)[:120]}: {problem}")
        return crashes, wrong, failed, reasons

    def result(self, attempted: int, metrics: dict) -> dict:
        """The run's JSON result, after printing what the check found."""
        crashes, wrong, failed, reasons = self.verify()
        print(f"checked {len(self.seen)} distinct outputs: {wrong} wrong, "
              f"crashes {crashes or 'none'}; fail_ratio {failed / attempted:.6f} "
              f"({failed}/{attempted})")
        for reason in reasons:
            print(f"  wrong: {reason}")
        return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}


def block_items(deck, b: int) -> list:
    """((block, index), request) for each request of the deck's block `b`."""
    return [((b % len(deck), i), request) for i, request in enumerate(deck[b % len(deck)])]


def run_items(cli, items, outcomes: Outcomes, deadline: float, pace: Pace | None = None):
    """(part, seconds, pace chunks before it) of each request; stops early only past `deadline`."""
    timed = []
    for key, request in items:
        k = len(pace.times) if pace is not None else 0
        rc, stdout, stderr, crash, elapsed = call(cli, request)
        timed.append((request.part, elapsed, k))
        outcomes.add(key, request, rc, stdout, stderr, crash)
        if pace is not None:
            pace.tick()
        if time.perf_counter() > deadline:
            break
    return timed


def closed_loop(workload, deck, seconds: float, outcomes: Outcomes):
    """Run whole blocks for `seconds` of loop time.

    Returns the (part, latency, chunks so far) of each request, the loop
    seconds, the set-ups as (seconds, chunks so far) and the run's Pace.

    The SETUP_REPEATS set-ups are spread over the run: between blocks,
    each one that is due at `seconds / SETUP_REPEATS` of loop time per
    set-up so far.  So their median sees the same host speed as the loop
    does.  Set-up time is not loop time.
    """
    setups, latencies, loop = [], [], 0.0
    pace = Pace()
    cli = set_up(workload, setups, pace)
    deadline = time.perf_counter() + 4 * seconds  # only a far slower program is cut mid-block
    b = 0
    while loop < seconds:
        while len(setups) < SETUP_REPEATS and loop >= len(setups) * seconds / SETUP_REPEATS:
            cli = set_up(workload, setups, pace)
        start = time.perf_counter()
        spent = pace.spent
        latencies += run_items(cli, block_items(deck, b), outcomes, deadline, pace)
        loop += time.perf_counter() - start - (pace.spent - spent)
        b += 1
    while len(setups) < SETUP_REPEATS:
        set_up(workload, setups, pace)
    return latencies, loop, setups, pace


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, latencies, loop, setups):
    """The untraced run's metrics, as {name: {"value", "unit"}}; all times in seconds."""
    metrics = {
        "throughput_rps": (len(latencies) / loop, "req/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "latency_tail_ms": (percentile(latencies, workload.tail_pct) * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def scaling_report(cli, package, trace: tracer.Tracer, seed: int, outcomes: Outcomes):
    """Self times (ms) at three sizes per axis, and the number of results checked.

    Not gated: the figures let a later change show a change in growth order.
    """
    out = {}
    checked = 0
    for label, layers, request in scaling_requests(seed):
        trace.reset()
        rc, stdout, stderr, crash, _ = call(cli, request)
        outcomes.add(("scaling", label), request, rc, stdout, stderr, crash)
        checked += 1
        for layer in layers:
            out[f"scaling.{layer}.{label}.self_ms"] = trace.self_s.get(layer, 0) * 1000
    # The CLI reaches is_ideal and ideal_closure only inside `check`, at
    # depths 8 and 32, so they are called directly at the larger depths.
    bratteli = package["bratteli"]
    ideal_set = oracle.QISet("0110100111", "011")
    for n in SCALING_DEPTHS:
        trace.reset()
        diagram = bratteli.qi_diagram(n)
        ideal = oracle.ideal_levels(ideal_set, n)
        accepted = bratteli.is_ideal(diagram, bratteli.FiniteDescriptor(ideal))
        seed_levels = [set(s) for s in ideal]
        for p in (n // 2, 2 * n // 3, n - 1, n):  # drop the least index of a few upper levels
            seed_levels[p - 1].discard(min(seed_levels[p - 1]))
        closure = bratteli.ideal_closure(diagram, bratteli.FiniteDescriptor(seed_levels))
        for layer in ("bratteli.is_ideal", "bratteli.ideal_closure"):
            out[f"scaling.{layer}.n{n}.self_ms"] = trace.self_s.get(layer, 0) * 1000
        if accepted != (oracle.ideal_problem(ideal) is None):
            outcomes.direct.append(f"is_ideal at depth {n} returned {accepted}")
        closure_levels = [set(closure.sets(p)) for p in range(1, n + 1)]
        problem = oracle.closure_problem(closure_levels, seed_levels, ideal)
        if problem:
            outcomes.direct.append(f"ideal_closure at depth {n}: {problem}")
        checked += 2
    return out, checked


def scaling_names():
    names = []
    for label, layers, _ in scaling_requests(0):
        names += [f"scaling.{layer}.{label}.self_ms" for layer in layers]
    for layer in ("bratteli.is_ideal", "bratteli.ideal_closure"):
        names += [f"scaling.{layer}.n{n}.self_ms" for n in SCALING_DEPTHS]
    return names


def traced_run(seed, seconds, cli, deck, outcomes):
    """Each block runs untraced, then traced; per-layer figures come from the traced copies."""
    package = {name: sys.modules[f"afideals.{name}"] for name in MODULES}
    package["afideals"] = sys.modules["afideals"]
    trace = tracer.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    deadline = start + 3 * seconds
    b = 0
    part_self = {}  # part -> layer -> traced self seconds
    while time.perf_counter() - start < seconds:
        items = block_items(deck, b)
        untraced += run_items(cli, items, outcomes, deadline)
        trace.install(package)
        try:
            for part in sorted({request.part for _, request in items}):
                before = dict(trace.self_s)
                traced += run_items(cli, [it for it in items if it[1].part == part],
                                    outcomes, deadline)
                spent = part_self.setdefault(part, {})
                for name, s in trace.self_s.items():
                    spent[name] = spent.get(name, 0) + s - before.get(name, 0)
        finally:
            trace.uninstall()
        b += 1
    traced_wall = trace.root_s()
    layers = tracer.layer_metrics(trace, len(traced))
    shares = {name: trace.self_s[name] / traced_wall for name in trace.self_s}
    calls = dict(trace.calls)
    trace.install(package)
    try:
        scaling, checked = scaling_report(cli, package, trace, seed, outcomes)
    finally:
        trace.uninstall()
    n = min(len(untraced), len(traced))
    overhead = (sum(t for _, t, _ in traced[:n]) / sum(t for _, t, _ in untraced[:n]) - 1) * 100
    print(f"{len(traced)} requests traced, each also run untraced; "
          f"tracing overhead {overhead:.1f}%")
    if trace.missing:
        print("not found, reported as 0: " + ", ".join(trace.missing))
    print("share of traced time by self time (top 12):")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:40s} {share * 100:6.1f}%  calls {calls[name]}")
    if len(part_self) > 1:
        for part, spent in sorted(part_self.items()):
            total = sum(spent.values())
            top = sorted(spent.items(), key=lambda kv: -kv[1])[:6]
            print(f"part {part}, {total:.2f} s: "
                  + ", ".join(f"{name} {s / total * 100:.0f}%" for name, s in top))
    metrics = {name: {"value": v["value"], "unit": v["unit"]} for name, v in layers.items()}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    for name in scaling_names():
        metrics[name] = {"value": scaling.get(name, 0.0), "unit": "ms"}
    return len(untraced) + len(traced) + checked, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "afideals" / "cli.py").is_file():
        print(f"error: no afideals sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for var in ("AFIDEALS_DEPTH", "AFIDEALS_SEED"):  # the CLI reads these as defaults
        os.environ.pop(var, None)
    workload = WORKLOADS[args.workload]

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"host: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"{platform.machine()}; pace chunk {pace_chunk() * 1000:.3f} ms")
    start = time.perf_counter()
    deck = make_deck(workload, args.seed)
    print(f"deck: {sum(map(len, deck))} requests in {len(deck)} blocks, made in "
          f"{time.perf_counter() - start:.3f} s (not part of setup_s)")
    outcomes = Outcomes()
    if args.trace:
        cli = set_up(workload, [])
        attempted, metrics = traced_run(args.seed, args.seconds, cli, deck, outcomes)
    else:
        timed, loop, setups, pace = closed_loop(workload, deck, args.seconds, outcomes)
        print("set-up seconds: " + " ".join(f"{s:.4f}" for s, _ in setups))
        measured = end_to_end(workload, [t for _, t, _ in timed], loop, [s for s, _ in setups])
        print(f"pace: {len(pace.times)} chunks, mean {statistics.mean(pace.times) * 1000:.3f} ms, "
              f"loop time scaled by {pace.scale():.4f}.  As measured: " + ", ".join(
                  f"{name} {m['value']:.6g} {m['unit']}" for name, m in measured.items()))
        timed = [(part, t * pace.at(k)) for part, t, k in timed]
        latencies = [t for _, t in timed]
        attempted = len(latencies)
        metrics = end_to_end(workload, latencies, loop * pace.scale(),
                             [s * pace.at(k) for s, k in setups])
        parts = sorted({part for part, _ in timed})
        if len(parts) > 1:
            print("median latency by part (context, not gated): " + ", ".join(
                f"{part} {percentile([t for p, t in timed if p == part], 50) * 1000:.3f} ms"
                for part in parts))
        tail = metrics["latency_tail_ms"]["value"] / 1000
        beyond = sum(1 for x in latencies if x > tail)
        print(f"latency tail: p{workload.tail_pct:g} of {attempted} requests, {beyond} beyond it"
              + ("" if beyond >= 10 else " (fewer than 10: run longer)"))
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")

    print(json.dumps(outcomes.result(attempted, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
