"""repro.obs — causal spans, metrics, and self-protection for the fabric.

Three pillars (see DESIGN.md "Observability"):

* :mod:`repro.obs.tracer` — deterministic sim-time span trees
  (``session -> admit -> place -> connect -> steer-op -> viz-frame``)
  exported as Chrome-trace/Perfetto JSONL;
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with
  Prometheus text exposition (``GET /metricsz``) and JSON snapshots;
* :mod:`repro.obs.protect` — circuit breakers, per-tenant quotas, and
  the backpressure signal the autoscaler consumes.

:class:`~repro.obs.fabric.Observability` bundles them and wires the
hooks; a fabric built without one runs byte-identically to pre-obs code.
"""

from repro.obs.fabric import Observability
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.protect import (
    BackpressureSignal,
    CircuitBreaker,
    TenantQuotas,
    default_tenant,
)
from repro.obs.tracer import Span, Tracer

__all__ = [
    "BackpressureSignal",
    "CircuitBreaker",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TenantQuotas",
    "Tracer",
    "default_tenant",
]
