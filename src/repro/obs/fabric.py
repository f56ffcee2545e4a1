"""The Observability bundle: one object wiring obs into a whole fabric.

Construction is cheap and declarative::

    obs = Observability(tracing=True, breakers=True, quota=4)
    driver = FleetDriver(n_sites=4, obs=obs)          # binds env + fleet
    pool = BrokerPool.build(...); obs.attach_pool(pool)
    controller = AdmissionController(driver, ...)      # self-attaches

Every hook is pull-based or guarded behind an attribute that is ``None``
when no observability is attached, so a fabric built without an
``Observability`` runs the exact pre-obs code paths — the golden-pin
determinism tests prove byte identity.  With tracing on, spans carry
sim time only, so same-seed runs still produce identical span JSONL.

Metric names exposed (all ``repro_``-prefixed; see DESIGN.md):
admission (``repro_admission_*``), fleet (``repro_sessions_*``,
``repro_steer_*``, ``repro_find_latency_seconds``,
``repro_viz_frames_total``), pacing (``repro_pacing_*``), protection
(``repro_circuit_*``, ``repro_quota_*``, ``repro_backpressure``), chaos
(``repro_faults_*``), and the live front end (``repro_http_*``).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry
from repro.obs.protect import STATE_CODE, CircuitBreaker, TenantQuotas
from repro.obs.tracer import Tracer

#: breaker set created by ``breakers=True``
DEFAULT_BREAKERS = {"broker": {}, "registry": {}}


class Observability:
    """Tracer + metrics + protection, wired across one fabric."""

    def __init__(
        self,
        tracing: bool = False,
        metrics: bool = True,
        breakers=None,
        quota: Optional[int] = None,
        tenant_of=None,
        breaker_defaults: Optional[dict] = None,
    ) -> None:
        self.tracer: Optional[Tracer] = Tracer() if tracing else None
        self.metrics: Optional[MetricsRegistry] = MetricsRegistry() if metrics else None
        self.quotas: Optional[TenantQuotas] = (
            TenantQuotas(int(quota), tenant_of=tenant_of) if quota else None
        )
        if breakers in (None, False):
            self._breaker_spec = {}
        elif breakers is True:
            self._breaker_spec = {k: dict(v) for k, v in DEFAULT_BREAKERS.items()}
        else:
            self._breaker_spec = {k: dict(v) for k, v in dict(breakers).items()}
        if breaker_defaults:
            for kwargs in self._breaker_spec.values():
                for k, v in breaker_defaults.items():
                    kwargs.setdefault(k, v)
        self.breakers: dict[str, CircuitBreaker] = {}
        self.env = None
        self.driver = None
        #: breaker name -> open "circuit-open" span (tracing only)
        self._open_spans: dict = {}
        #: id(fault) -> fault-window span (tracing only)
        self._fault_spans: dict = {}

    # -- binding -----------------------------------------------------------

    def bind_env(self, env) -> "Observability":
        """Attach the sim clock; creates the breakers (idempotent)."""
        if self.env is not None:
            if self.env is not env:
                raise ObsError("observability is already bound to another world")
            return self
        self.env = env
        if self.tracer is not None:
            self.tracer.bind(env)
        for name, kwargs in self._breaker_spec.items():
            breaker = CircuitBreaker(name, env, **kwargs)
            breaker.observers.append(self._on_breaker_transition)
            self.breakers[name] = breaker
        if self.metrics is not None and self.breakers:
            self.metrics.add_collector(self._collect_breakers)
        return self

    def breaker(self, name: str) -> Optional[CircuitBreaker]:
        return self.breakers.get(name)

    def bind_driver(self, driver) -> "Observability":
        """Called by ``FleetDriver.__init__`` when built with ``obs=``."""
        if self.driver is not None and self.driver is not driver:
            raise ObsError("observability is already bound to another driver")
        self.bind_env(driver.env)
        self.driver = driver
        driver._tracer = self.tracer
        driver._registry_breaker = self.breakers.get("registry")
        metrics = self.metrics
        if metrics is not None:
            driver._steer_hist = metrics.histogram(
                "repro_steer_latency_seconds", "Per-op steering round-trip (sim s)"
            )
            driver._find_hist = metrics.histogram(
                "repro_find_latency_seconds", "Registry find latency (sim s)"
            )
            driver._op_counter = metrics.counter(
                "repro_steer_ops_total", "Steering ops by outcome", labels=("outcome",)
            )
            driver._viz_counter = metrics.counter(
                "repro_viz_frames_total", "Samples ingested by viz services"
            )
            self._wire_fleet_collector(driver)
        return self

    def _wire_fleet_collector(self, driver) -> None:
        metrics = self.metrics
        g_active = metrics.gauge("repro_sessions_active", "Sessions running right now")
        g_sites = metrics.gauge("repro_sites", "Service sites in the fabric")
        c_outcome = metrics.counter(
            "repro_sessions_total", "Finished sessions by outcome", labels=("outcome",)
        )
        c_timeouts = metrics.counter("repro_steer_timeouts_total", "Steering op timeouts")
        c_errors = metrics.counter("repro_steer_errors_total", "Steering op errors")

        def collect() -> None:
            totals = driver.telemetry.totals()
            g_active.set(len(driver.active))
            g_sites.set(len(driver.sites))
            c_outcome.set_total(totals["completed"], outcome="completed")
            c_outcome.set_total(totals["failed"], outcome="failed")
            c_timeouts.set_total(totals["timeouts"])
            c_errors.set_total(totals["errors"])

        metrics.add_collector(collect)

    # -- component attachment ----------------------------------------------

    def attach_controller(self, controller) -> None:
        """Called by ``AdmissionController.__init__`` via ``driver.obs``."""
        controller.tracer = self.tracer
        controller.quotas = self.quotas
        metrics = self.metrics
        if metrics is None:
            return
        wait_hist = metrics.histogram(
            "repro_admission_wait_seconds", "Admission queue wait (sim s)"
        )

        def on_queue_event(kind: str, **detail) -> None:
            if kind == "admit":
                wait_hist.observe(detail["wait"])

        controller.observers.append(on_queue_event)

        c_offered = metrics.counter("repro_admission_offered_total", "Sessions offered")
        c_admitted = metrics.counter("repro_admission_admitted_total", "Sessions admitted")
        c_rejected = metrics.counter(
            "repro_admission_rejected_total", "Sessions rejected (backpressure + quota)"
        )
        c_abandoned = metrics.counter(
            "repro_admission_abandoned_total", "Sessions that ran out of patience"
        )
        c_requeued = metrics.counter(
            "repro_admission_requeued_total", "Recovery requeues (subset of offered)"
        )
        g_depth = metrics.gauge("repro_admission_queue_depth", "Queued sessions")
        g_limit = metrics.gauge("repro_admission_queue_limit", "Bounded queue size")

        def collect() -> None:
            queue = controller.telemetry
            c_offered.set_total(queue.offered)
            c_admitted.set_total(queue.admitted)
            c_rejected.set_total(queue.rejected)
            c_abandoned.set_total(queue.abandoned)
            c_requeued.set_total(queue.requeued)
            g_depth.set(controller.queue_depth)
            g_limit.set(controller.queue_limit)

        metrics.add_collector(collect)
        if self.quotas is not None:
            self._wire_quota_collector()

    def _wire_quota_collector(self) -> None:
        metrics, quotas = self.metrics, self.quotas
        g_inflight = metrics.gauge(
            "repro_quota_inflight", "Inflight sessions per tenant", labels=("tenant",)
        )
        c_rejected = metrics.counter(
            "repro_quota_rejected_total", "Offers shed by tenant quota", labels=("tenant",)
        )
        g_limit = metrics.gauge("repro_quota_max_inflight", "Per-tenant inflight cap")

        def collect() -> None:
            g_limit.set(quotas.max_inflight)
            for tenant, n in quotas._inflight.items():
                g_inflight.set(n, tenant=tenant)
            for tenant, n in quotas.rejections.items():
                c_rejected.set_total(n, tenant=tenant)

        metrics.add_collector(collect)

    def attach_pool(self, pool) -> None:
        """Wire span + breaker hooks into a :class:`BrokerPool`.

        Call after :meth:`bind_driver` (or :meth:`bind_env`) so the
        breakers exist — they need the sim clock."""
        pool.tracer = self.tracer
        pool.breaker = self.breakers.get("broker")

    def attach_runner(self, runner) -> None:
        """Scrape a :class:`PacedRunner`'s catch-up accounting."""
        metrics = self.metrics
        if metrics is None:
            return
        c_ticks = metrics.counter("repro_pacing_ticks_total", "Runner ticks that stepped")
        c_catchups = metrics.counter(
            "repro_pacing_catchups_total", "Full batches that still left due events"
        )
        c_events = metrics.counter("repro_pacing_events_total", "Events stepped under pacing")
        g_behind = metrics.gauge(
            "repro_pacing_behind_seconds", "Current lag behind the wall clock"
        )
        g_max_behind = metrics.gauge(
            "repro_pacing_max_behind_seconds", "Worst observed pacing lag"
        )
        g_rate = metrics.gauge(
            "repro_pacing_rate", "Sim seconds per wall second (0 = turbo)"
        )

        def collect() -> None:
            stats = runner.stats()
            c_ticks.set_total(stats["ticks"])
            c_catchups.set_total(stats["catchups"])
            c_events.set_total(stats["events"])
            g_behind.set(stats["behind"])
            g_max_behind.set(stats["max_behind"])
            g_rate.set(stats["rate"] if stats["rate"] is not None else 0.0)

        metrics.add_collector(collect)

    def attach_backpressure(self, signal) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        g_pressure = metrics.gauge(
            "repro_backpressure", "Fabric pressure signal in [0, 1]"
        )
        metrics.add_collector(lambda: g_pressure.set(signal.pressure()))

    def attach_injector(self, injector) -> None:
        """Mirror chaos fault windows into metrics and fabric-lane spans."""
        metrics, tracer = self.metrics, self.tracer
        c_faults = g_active = None
        if metrics is not None:
            c_faults = metrics.counter(
                "repro_faults_total", "Faults applied", labels=("kind",)
            )
            g_active = metrics.gauge(
                "repro_faults_active", "Faults currently applied", labels=("kind",)
            )

        def on_fault(fault, phase: str) -> None:
            kind = type(fault).__name__
            if phase == "apply":
                if c_faults is not None:
                    c_faults.inc(kind=kind)
                    g_active.inc(kind=kind)
                if tracer is not None:
                    self._fault_spans[id(fault)] = tracer.begin(
                        f"fault:{kind}", cat="chaos", detail=fault.describe()
                    )
            elif phase == "revert":
                if g_active is not None:
                    g_active.dec(kind=kind)
                span = self._fault_spans.pop(id(fault), None)
                if span is not None:
                    tracer.end(span)

        injector.on_fault.append(on_fault)

    def attach_http_stats(self, stats: dict) -> None:
        """Scrape a LiveServer's request counters."""
        metrics = self.metrics
        if metrics is None:
            return
        counters = {
            key: metrics.counter(f"repro_http_{key}_total", f"HTTP {key.replace('_', ' ')}")
            for key in stats
        }

        def collect() -> None:
            for key, counter in counters.items():
                counter.set_total(stats[key])

        metrics.add_collector(collect)

    # -- breaker observability ---------------------------------------------

    def _on_breaker_transition(self, breaker, old: str, new: str) -> None:
        metrics, tracer = self.metrics, self.tracer
        if metrics is not None:
            metrics.counter(
                "repro_circuit_transitions_total",
                "Breaker state transitions",
                labels=("breaker", "to"),
            ).inc(breaker=breaker.name, to=new)
        if tracer is not None:
            if new == "open":
                self._open_spans[breaker.name] = tracer.begin(
                    "circuit-open", cat="protect", breaker=breaker.name
                )
            else:
                span = self._open_spans.pop(breaker.name, None)
                if span is not None:
                    tracer.end(span, to=new)
                if new != "closed":
                    tracer.instant(
                        f"circuit-{new}", cat="protect", breaker=breaker.name
                    )

    def _collect_breakers(self) -> None:
        metrics = self.metrics
        g_state = metrics.gauge(
            "repro_circuit_state",
            "Breaker state (0 closed, 1 half-open, 2 open)",
            labels=("breaker",),
        )
        c_calls = metrics.counter(
            "repro_circuit_calls_total",
            "Guarded calls by outcome",
            labels=("breaker", "outcome"),
        )
        for name, breaker in self.breakers.items():
            g_state.set(STATE_CODE[breaker.state], breaker=name)
            c_calls.set_total(breaker.successes, breaker=name, outcome="success")
            c_calls.set_total(breaker.failures, breaker=name, outcome="failure")
            c_calls.set_total(breaker.shorted, breaker=name, outcome="shorted")

    # -- artifacts ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able obs dump for batch runs (metrics + protection)."""
        return {
            "metrics": self.metrics.snapshot() if self.metrics is not None else None,
            "trace": self.tracer.counts() if self.tracer is not None else None,
            "breakers": {n: b.snapshot() for n, b in sorted(self.breakers.items())},
            "quotas": self.quotas.snapshot() if self.quotas is not None else None,
        }

    def write_trace(self, path) -> int:
        """Dump the span stream as Chrome-trace JSONL."""
        if self.tracer is None:
            raise ObsError("this Observability was built with tracing=False")
        return self.tracer.write_jsonl(path)
