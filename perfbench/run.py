"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-128 --seed 0 --seconds 20 --trace 0

``--trace 0`` times passes of the workload for ``--seconds`` and prints
every end-to-end metric that ``BENCHMARK.json`` declares.  ``--trace 1``
runs untraced and traced passes in pairs and prints the per-layer table.
Every pass is checked against ``perfbench/pins.json``; a pass whose
report digest, physics digest or exact counts differ fails the run.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (counted in passes) and ``metrics``.

How wall time is measured (see NOTES.md for why):

* A tick process in every DES world runs the frozen reference unit
  (``refunit.py``) every 0.05 virtual seconds, at most once per 10 ms of
  wall time.  A pass's ``wall_s`` excludes the unit's own time.
  ``wall_ref`` is ``wall_s`` divided by the trimmed mean unit time of the
  same pass and by the pass's simulation steps, an exact count the pins
  hold fixed: on ``campaign-smoke`` the seed changes how many sessions
  arrive, and per step the work no longer does.  Both are reported as
  the median over the run's passes.
* ``setup_wall_s`` is the median over ``SETUP_SAMPLES`` fresh
  interpreters of the time from spawning one to a world ready for its
  first event, after one untimed spawn that warms the bytecode caches.
  They are spawned a few at a time between the timed passes.
  ``setup_s`` is that time scaled to the reference host: multiplied by
  ``refunit.NOMINAL_SECONDS`` over the mean unit time of the run's
  passes, so that a host running slower for a quarter of an hour does
  not read as slower set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

import layers
import refunit
import worlds

#: virtual seconds between ticks of the reference process
TICK = 0.05
#: wall seconds the reference unit waits between runs, so that its
#: samples spread evenly over a pass's wall time, idle virtual time too
GAP = 0.010
#: fresh interpreters timed for setup_s, a few before each timed pass
#: so that they spread over the run instead of one burst of host noise
SETUP_SAMPLES = 9
SETUP_PER_PASS = 3
#: timed passes in a run, at the least
MIN_PASSES = 3


class Ticker(worlds.Hooks):
    """The reference process: samples machine speed throughout a pass."""

    def __init__(self) -> None:
        #: wall seconds of each reference unit run
        self.samples: list[float] = []
        #: DES events the tick processes added
        self.events = 0
        self._last = float("-inf")

    def on_world(self, driver) -> None:
        self.events += 1  # the process's initialize event
        driver.env.process(self._tick(driver.env))

    def _tick(self, env):
        clock = time.perf_counter
        unit = refunit.unit
        while True:
            yield env.timeout(TICK)
            self.events += 1
            start = clock()
            if start - self._last >= GAP:
                unit()
                self._last = clock()
                self.samples.append(self._last - start)

    def unit_seconds(self) -> float:
        """Mean unit time with the slowest and fastest 5% trimmed: a
        preempted sample says nothing about the speed of the code."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 20
        kept = ordered[cut : len(ordered) - cut] or ordered
        return sum(kept) / len(kept)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


class SetupProbe:
    """Seconds from spawning a fresh interpreter to a world ready for its
    first event.  The first spawn, untimed, warms the bytecode caches."""

    def __init__(self, workload: str, seed) -> None:
        self.cmd = [
            sys.executable,
            str(worlds.HERE / "setup_probe.py"),
            workload,
            "default" if seed is None else str(seed),
        ]
        self.samples: list[float] = []
        self._spawn()

    def _spawn(self) -> float:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            self.cmd, cwd=worlds.ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            _fail(f"setup probe failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1]) - spawned

    def sample(self, n: int) -> None:
        """Time up to ``n`` more interpreters, stopping at SETUP_SAMPLES."""
        for _ in range(min(n, SETUP_SAMPLES - len(self.samples))):
            self.samples.append(self._spawn())


def check(workload: str, seed, outcome, want: dict, first) -> list[str]:
    """Everything wrong with one pass's output."""
    errors = worlds.mismatches(outcome, want)
    if first is not None and outcome.pinned() != first.pinned():
        errors.append("differs from the run's first pass")
    if workload == "campaign-smoke":
        rep = outcome.report
        if rep["totals"]["violations"] or not rep["complete"] or rep["quarantined"]:
            errors.append("campaign grid incomplete or violated an invariant")
    return errors


def layer_errors(table: dict, wall: float) -> list[str]:
    """What is wrong with a traced pass's layer accounting."""
    errors = []
    if abs(table["closure_gap_s"]) > 1e-6 * max(wall, 1.0):
        errors.append(f"layer times miss the traced wall by {table['closure_gap_s']:.3g} s")
    if table["trace.unattributed_frac"] > 0.05:
        errors.append("over 5% of traced wall is unattributed")
    return errors


def _keep_going(start: float, seconds: float, durations: list[float], least: int) -> bool:
    if len(durations) < least:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def timed(workload: str, seed, seconds: float, want: dict):
    """Timed passes; returns (end-to-end metrics, passes, failed passes,
    errors)."""
    setup = SetupProbe(workload, seed)
    passes, durations, errors = [], [], []
    first = None
    failed = 0
    start = time.perf_counter()
    while _keep_going(start, seconds, durations, MIN_PASSES):
        setup.sample(SETUP_PER_PASS)
        gc.collect()
        ticker = Ticker()
        t0 = time.perf_counter()
        outcome = worlds.run_pass(workload, seed, ticker)
        durations.append(time.perf_counter() - t0)
        outcome.counts["events"] -= ticker.events
        wall_s = outcome.wall - sum(ticker.samples)
        unit = ticker.unit_seconds()
        passes.append((wall_s, wall_s / unit / outcome.counts["steps"], unit))
        bad = check(workload, seed, outcome, want, first)
        errors += [f"pass {len(passes)}: {e}" for e in bad]
        failed += bool(bad)
        first = first or outcome
        print(
            f"pass {len(passes)}: wall_s {wall_s:.4f} unit_ms {unit * 1e3:.4f} "
            f"(n={len(ticker.samples)}) wall_ref {passes[-1][1]:.4f} "
            f"rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} "
            f"{'ok' if not bad else 'MISMATCH'}",
            flush=True,
        )
    setup.sample(SETUP_SAMPLES)
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup.samples)}")
    setup_wall = statistics.median(setup.samples)
    host_unit = statistics.mean(p[2] for p in passes)
    metrics = {
        "wall_ref": statistics.median(p[1] for p in passes),
        "wall_s": statistics.median(p[0] for p in passes),
        "setup_wall_s": setup_wall,
        "setup_s": setup_wall * refunit.NOMINAL_SECONDS / host_unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **first.end_to_end(workload),
    }
    rep = first.report["totals"] if workload == "campaign-smoke" else first.report
    print(f"counts: {json.dumps(first.counts)}")
    print(f"steer latency over n={rep['ops']} ops; tail is {worlds.TAIL[workload]}")
    return metrics, len(passes), failed, errors


def traced(workload: str, seed, seconds: float, want: dict):
    """Untraced and traced passes in pairs; returns (per-layer metrics,
    passes, failed passes, errors)."""
    tables, durations, errors = [], [], []
    start = time.perf_counter()
    first = tracer = None
    failed = 0
    while _keep_going(start, seconds, durations, 1):
        t0 = time.perf_counter()
        gc.collect()
        plain = worlds.run_pass(workload, seed)
        gc.collect()
        tracer = layers.Tracer()
        with tracer:
            outcome = worlds.run_pass(workload, seed, tracer)
        durations.append(time.perf_counter() - t0)
        table = layers.layer_table(tracer, outcome, plain.wall)
        tables.append(table)
        for label, out in (("plain", plain), ("traced", outcome)):
            bad = check(workload, seed, out, want, first)
            if out is outcome:
                bad += layer_errors(table, outcome.wall)
            errors += [f"{label} {len(tables)}: {e}" for e in bad]
            failed += bool(bad)
            first = first or out
        print(
            f"pair {len(tables)}: plain {plain.wall:.4f} s traced {outcome.wall:.4f} s "
            f"unattributed {table['trace.unattributed_frac']:.4f}",
            flush=True,
        )
    tracer.write(worlds.OUT / f"trace-{workload}.jsonl")
    metrics = {key: statistics.median(t[key] for t in tables) for key in tables[0]}
    return metrics, 2 * len(tables), failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=worlds.WORKLOADS)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="offset of every session seed (fleets) or the campaign seed; "
        "omitted: the canonical inputs",
    )
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="seconds to measure for (3 passes at least)"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: print the per-layer table"
    )
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    declared = json.loads((worlds.ROOT / "BENCHMARK.json").read_text())
    worlds.use_source_tree()
    if refunit.unit() != refunit.EXPECTED:
        _fail("the reference unit no longer computes its pinned result")
    want = worlds.expected(worlds.load_pins(), args.workload, args.seed)

    run = traced if args.trace else timed
    values, attempted, failed, errors = run(args.workload, args.seed, args.seconds, want)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in declared[kind]:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} wall_s = {values['wall_s']:.6g} s (context)")
        print(f"{args.workload} setup_wall_s = {values['setup_wall_s']:.6g} s (context)")
    for error in errors:
        print(f"MISMATCH {error}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
