"""Perf regression gate: fail CI when the fleet-scaling wall regresses.

Re-runs the canonical fleet-scaling scenario at one size through the
unified runner and compares wall-clock against the committed
``benchmarks/BENCH_fleet_scaling.json`` baseline.  A run slower than
``baseline * (1 + threshold)`` exits non-zero — nothing can silently
give the kernel speedup back.

Correctness is gated too: the run must complete every session with the
baseline's op count, so a "speedup" that drops work cannot pass.

``--kernel`` switches to the kernel gate: every pattern in
``benchmarks/bench_kernel.py`` runs once and must clear its absolute
events/sec floor and stay within ``threshold`` of the committed
``BENCH_kernel.json`` baseline rate.  Event counts must match the
baseline exactly — the kernel cannot buy throughput by dropping work.

Usage::

    python -m repro.perf.gate [--sessions 128] [--threshold 0.25]
        [--baseline benchmarks/BENCH_fleet_scaling.json]
    python -m repro.perf.gate --kernel [--threshold 3.0]
        [--baseline benchmarks/BENCH_kernel.json]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.perf.bench import load_bench

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


#: the canonical fleet-scaling scenario — the *single* definition used by
#: both this gate and ``benchmarks/bench_fleet_scaling.py``, so the
#: measured scenario can never drift from the committed baseline's
FLEET_STAGGER = 0.2
FLEET_N_SITES = 4


def run_fleet(n_sessions: int):
    """Run the canonical fleet-scaling scenario at one size.

    Returns ``(report, wall_seconds, events_processed)``.
    """
    from repro.fleet import FleetDriver, fleet_of

    specs = fleet_of(n_sessions, stagger=FLEET_STAGGER)
    t0 = time.perf_counter()
    driver = FleetDriver(specs, n_sites=FLEET_N_SITES)
    report = driver.run(wall_seconds=None)
    wall = time.perf_counter() - t0
    return report, wall, driver.env.events_processed


def check(
    baseline_path: pathlib.Path | str,
    sessions: int = 128,
    threshold: float = 0.25,
) -> tuple[bool, str]:
    """Run the gate; returns (ok, human-readable verdict)."""
    doc = load_bench(baseline_path)
    results = doc["results"]
    key = str(sessions)
    if key not in results:
        return False, (
            f"baseline {baseline_path} has no entry for {sessions} sessions "
            f"(has {sorted(results)})"
        )
    base = results[key]
    base_wall = base["wall_seconds"]
    report, wall, events = run_fleet(sessions)

    lines = [
        f"fleet_scaling @ {sessions}: wall {wall:.2f}s vs baseline "
        f"{base_wall:.2f}s (limit {base_wall * (1 + threshold):.2f}s, "
        f"threshold +{threshold:.0%}), {events} events "
        f"({events / wall:,.0f}/s)"
    ]
    ok = True
    if report.completed != base["completed"] or report.ops != base["ops"]:
        ok = False
        lines.append(
            f"FAIL: workload drifted — completed {report.completed} vs "
            f"{base['completed']}, ops {report.ops} vs {base['ops']}"
        )
    if wall > base_wall * (1 + threshold):
        ok = False
        lines.append(
            f"FAIL: wall-clock regressed {wall / base_wall - 1:+.0%} "
            f"(> +{threshold:.0%} allowed)"
        )
    if ok:
        lines.append("OK")
    return ok, "\n".join(lines)


def _load_kernel_bench():
    """Import ``benchmarks.bench_kernel`` — the single definition of the
    kernel patterns and their floors — from a source or installed
    checkout alike."""
    if str(_REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(_REPO_ROOT))
    from benchmarks import bench_kernel

    return bench_kernel


def check_kernel(
    baseline_path: pathlib.Path | str,
    threshold: float = 3.0,
) -> tuple[bool, str]:
    """Run the kernel gate; returns (ok, verdict).

    ``threshold`` is deliberately generous (CI boxes are slow and
    noisy); the absolute ``FLOORS`` in ``bench_kernel`` are the
    backstop an O(n) regression cannot hide under.  Event counts must
    match the baseline exactly: the kernel cannot buy throughput by
    dropping work.
    """
    bench = _load_kernel_bench()
    baseline = load_bench(baseline_path)["results"]
    lines = []
    ok = True
    for name, fn in bench.SCENARIOS.items():
        base = baseline.get(name)
        if base is None:
            return False, (
                f"baseline {baseline_path} has no results for pattern "
                f"{name!r} (has {sorted(baseline)}) — regenerate "
                f"BENCH_kernel.json"
            )
        events, wall = fn()
        rate = events / wall
        base_rate = base["events_per_sec"]
        limit = max(bench.FLOORS[name], base_rate / (1 + threshold))
        lines.append(
            f"kernel {name}: {rate:,.0f} events/s "
            f"(baseline {base_rate:,.0f}, limit {limit:,.0f})"
        )
        if events != base["events"]:
            ok = False
            lines.append(
                f"FAIL: {name} workload drifted — "
                f"{events} events vs baseline {base['events']}"
            )
        if rate < limit:
            ok = False
            lines.append(f"FAIL: {name} below {limit:,.0f} events/s")
    lines.append("OK" if ok else "kernel gate FAILED")
    return ok, "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=128)
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument("--kernel", action="store_true")
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)
    if args.kernel:
        baseline = args.baseline or str(_REPO_ROOT / "benchmarks" / "BENCH_kernel.json")
        threshold = 3.0 if args.threshold is None else args.threshold
        ok, verdict = check_kernel(baseline, threshold=threshold)
    else:
        baseline = args.baseline or str(
            _REPO_ROOT / "benchmarks" / "BENCH_fleet_scaling.json"
        )
        threshold = 0.25 if args.threshold is None else args.threshold
        ok, verdict = check(baseline, sessions=args.sessions, threshold=threshold)
    print(verdict)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
