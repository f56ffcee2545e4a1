"""Per-session and fleet-wide steering telemetry.

Built on the mergeable accumulators of :mod:`repro.util.stats`: each
session records its own latencies into a :class:`LatencyProbe`
(Welford stats + a uniform reservoir), and the fleet aggregate is the
exact merge of the per-session stats — no raw sample stream is ever
stored, so telemetry stays O(sessions), not O(operations).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.util.stats import ReservoirSample, RunningStats


class LatencyProbe:
    """One latency series: streaming moments + a mergeable reservoir.

    Each observation goes straight into both accumulators: a batching
    buffer in front of them was measured slower per ``add`` (it still
    paid both accumulator calls per sample at flush time).
    """

    __slots__ = ("stats", "sample")

    def __init__(self, reservoir: int = 128, seed: int = 0) -> None:
        self.stats = RunningStats()
        self.sample = ReservoirSample(capacity=reservoir, seed=seed)

    def add(self, dt: float) -> None:
        self.stats.add(dt)
        self.sample.add(dt)

    def merge(self, other: "LatencyProbe") -> "LatencyProbe":
        self.stats.merge(other.stats)
        self.sample.merge(other.sample)
        return self

    def export(self) -> dict:
        """JSON-able mergeable summary: exact Welford state plus the
        reservoir's retained sample.  A campaign worker process ships
        this through the results store; the aggregator rebuilds the
        moments with :meth:`RunningStats.from_state` (exact merge) and
        re-estimates percentiles from the pooled samples."""
        return {
            "stats": self.stats.state(),
            "sample": list(self.sample.items),
        }

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100]); NaN when empty."""
        if self.stats.n == 0:
            return math.nan
        return self.sample.percentile(q)

    @property
    def n(self) -> int:
        return self.stats.n

    @property
    def mean(self) -> float:
        return self.stats.mean


class SessionTelemetry:
    """Everything the fleet records about one steering session."""

    def __init__(self, name: str, reservoir: int = 128, seed: int = 0) -> None:
        self.name = name
        self.steer_latency = LatencyProbe(reservoir, seed=seed * 3 + 1)
        self.find_latency = LatencyProbe(reservoir, seed=seed * 3 + 2)
        self.admit_latency = LatencyProbe(reservoir, seed=seed * 3 + 3)
        self.ops = 0
        self.timeouts = 0
        self.errors = 0
        self.completed = False
        self.failure: Optional[str] = None
        self.admitted_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # -- recording ---------------------------------------------------------

    def record_admission(self, started: float, now: float) -> None:
        self.admitted_at = now
        self.admit_latency.add(now - started)

    def record_find(self, dt: float) -> None:
        self.find_latency.add(dt)

    def record_steer(self, dt: float) -> None:
        self.steer_latency.add(dt)
        self.ops += 1

    def record_timeout(self) -> None:
        self.timeouts += 1

    def record_error(self) -> None:
        self.errors += 1

    def mark_completed(self, now: float) -> None:
        self.completed = True
        self.finished_at = now

    def mark_failed(self, reason: str, now: float) -> None:
        self.failure = reason
        self.finished_at = now

    @property
    def session_time(self) -> float:
        if self.admitted_at is None or self.finished_at is None:
            return math.nan
        return self.finished_at - self.admitted_at


class QueueTelemetry:
    """Open-loop queueing ledger: offered/admitted/rejected/abandoned
    counters, admission-wait latencies, a time-weighted queue-depth
    integral, and elastic-capacity scale events.

    Per-class breakdowns are keyed by the SLO-class *name* (plain
    strings) so this layer needs no knowledge of
    :class:`repro.load.slo.SloClass`.
    """

    def __init__(self, reservoir: int = 256) -> None:
        self.wait = LatencyProbe(reservoir, seed=20_011)
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.abandoned = 0
        #: offers that were fault-recovery requeues (subset of offered)
        self.requeued = 0
        #: admissions whose wait met the class admission-wait SLO
        self.slo_met = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.by_class: dict[str, dict] = {}
        self.depth_max = 0
        self._depth_area = 0.0
        self._depth_last_t: Optional[float] = None
        self._depth_last = 0

    def _cls(self, name: str) -> dict:
        c = self.by_class.get(name)
        if c is None:
            c = {
                "offered": 0,
                "admitted": 0,
                "rejected": 0,
                "abandoned": 0,
                "slo_met": 0,
                "requeued": 0,
                "wait": LatencyProbe(64, seed=20_011 + len(self.by_class)),
            }
            self.by_class[name] = c
        return c

    # -- recording ---------------------------------------------------------

    def record_offer(self, cls: str) -> None:
        self.offered += 1
        self._cls(cls)["offered"] += 1

    def record_requeue(self, cls: str) -> None:
        """A recovery requeue: counts as an offer (so the conservation
        law ``offered == admitted + rejected + abandoned + queued`` keeps
        holding) plus its own counter for the chaos scorecards."""
        self.record_offer(cls)
        self.requeued += 1
        self._cls(cls)["requeued"] += 1

    def record_admit(self, cls: str, wait: float, met_slo: bool) -> None:
        self.admitted += 1
        self.wait.add(wait)
        c = self._cls(cls)
        c["admitted"] += 1
        c["wait"].add(wait)
        if met_slo:
            self.slo_met += 1
            c["slo_met"] += 1

    def record_reject(self, cls: str) -> None:
        self.rejected += 1
        self._cls(cls)["rejected"] += 1

    def record_abandon(self, cls: str) -> None:
        # The abandonment wait is always the class patience, so only the
        # counters move; wait percentiles cover admitted sessions.
        self.abandoned += 1
        self._cls(cls)["abandoned"] += 1

    def record_scale(self, delta: int) -> None:
        if delta > 0:
            self.scale_ups += 1
        else:
            self.scale_downs += 1

    def record_depth(self, now: float, depth: int) -> None:
        """Integrate queue depth over virtual time (call on every change)."""
        if self._depth_last_t is not None and now > self._depth_last_t:
            self._depth_area += self._depth_last * (now - self._depth_last_t)
        self._depth_last_t = now
        self._depth_last = depth
        if depth > self.depth_max:
            self.depth_max = depth

    def finalize(self, now: float) -> None:
        """Close the depth integral at the end of the run.  Idempotent,
        and a ``now`` before the last sample (a makespan short of the
        final queue event) leaves the integral untouched."""
        if self._depth_last_t is None or now > self._depth_last_t:
            self.record_depth(now, self._depth_last)

    # -- derived -----------------------------------------------------------

    @property
    def depth_mean(self) -> float:
        if self._depth_last_t is None or self._depth_last_t <= 0:
            return 0.0
        return self._depth_area / self._depth_last_t


class FleetTelemetry:
    """The fleet-wide ledger: one SessionTelemetry per session plus
    merged aggregates computed on demand.  Open-loop runs additionally
    attach a :class:`QueueTelemetry` via :meth:`ensure_queue`."""

    def __init__(self, reservoir: int = 128) -> None:
        self.reservoir = reservoir
        self.sessions: dict[str, SessionTelemetry] = {}
        self.queue: Optional[QueueTelemetry] = None

    def ensure_queue(self) -> QueueTelemetry:
        if self.queue is None:
            self.queue = QueueTelemetry()
        return self.queue

    def session(self, name: str) -> SessionTelemetry:
        tel = self.sessions.get(name)
        if tel is None:
            tel = SessionTelemetry(name, reservoir=self.reservoir, seed=len(self.sessions))
            self.sessions[name] = tel
        return tel

    # -- aggregation -------------------------------------------------------

    def _merged(self, attr: str) -> LatencyProbe:
        out = LatencyProbe(self.reservoir, seed=10_007)
        for tel in self.sessions.values():
            out.merge(getattr(tel, attr))
        return out

    def merged_steer_latency(self) -> LatencyProbe:
        return self._merged("steer_latency")

    def merged_find_latency(self) -> LatencyProbe:
        return self._merged("find_latency")

    def merged_admit_latency(self) -> LatencyProbe:
        return self._merged("admit_latency")

    def export_mergeable(self) -> dict:
        """The fleet's latency series as JSON-able mergeable summaries
        (:meth:`LatencyProbe.export`) — the report-merging hook the
        campaign layer uses to aggregate cells across worker processes
        without shipping raw sample streams."""
        out = {
            "steer": self.merged_steer_latency().export(),
            "find": self.merged_find_latency().export(),
            "admit": self.merged_admit_latency().export(),
        }
        if self.queue is not None:
            out["wait"] = self.queue.wait.export()
        return out

    def totals(self) -> dict:
        sessions = self.sessions.values()
        return {
            "sessions": len(self.sessions),
            "completed": sum(1 for t in sessions if t.completed),
            "failed": sum(1 for t in sessions if t.failure is not None),
            "ops": sum(t.ops for t in sessions),
            "timeouts": sum(t.timeouts for t in sessions),
            "errors": sum(t.errors for t in sessions),
        }
