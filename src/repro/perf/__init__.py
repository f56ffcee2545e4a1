"""repro.perf — unified benchmarking and regression gating.

The testbed's value is running *many* hostile scenarios; that is only
practical if the DES kernel stays fast and, once fast, stays fast.  This
package owns both legs of that (wall time per layer is measured from
outside the code, by ``perfbench/run.py --trace 1``):

* :mod:`repro.perf.bench` — the unified bench runner: every
  ``benchmarks/bench_*.py`` emits its ``BENCH_*.json`` through
  :func:`~repro.perf.bench.write_bench`, which wraps the bench's own
  payload in a uniform envelope (wall seconds, events, events/sec, peak
  RSS) so the perf trajectory is recorded and comparable across PRs;
* :mod:`repro.perf.gate` — the CI regression gate: re-runs the fleet
  scaling scenario and fails when wall-clock regresses beyond a
  threshold against the committed baseline.
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    load_bench,
    peak_rss_bytes,
    write_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "load_bench",
    "peak_rss_bytes",
    "write_bench",
]
