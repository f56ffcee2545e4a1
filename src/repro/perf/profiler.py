"""Kernel profiler: event counts, events/sec, per-component attribution.

:meth:`repro.des.Environment.step` times each event callback while a
profiler is attached (an unprofiled step pays one ``None`` check).
Each event callback's wall time is attributed to a *component*:

* a process resume is attributed to the process's generator function —
  ``_pump``, ``steered_app_process``, ``_session``, … — which maps
  directly onto the simulated middleware's moving parts;
* other bound-method callbacks to ``Type.method`` (e.g. a condition's
  ``_check``);
* bare functions/lambdas (delivery callbacks) to their qualified name,
  unwrapping ``functools.partial`` chains to the wrapped callable.

Component names are **stable across runs**: two identical simulations
produce identical attribution keys, so profiles can be diffed.  That is
why the fallback for exotic callables is the callable's *type*
(``module.Qualname``), never ``repr()`` — a repr carries the object's
memory address, different every run.
"""

from __future__ import annotations

import functools
import time
from typing import Optional

from repro.des.core import Environment, Process

_PROCESS_RESUME = Process._resume


def _component_of(cb, event) -> str:
    """Stable component name for one event callback."""
    wrapped = False
    while isinstance(cb, functools.partial):
        cb = cb.func
        wrapped = True
    func = getattr(cb, "__func__", None)
    owner = getattr(cb, "__self__", None)
    if func is _PROCESS_RESUME:
        gen = owner._generator
        name = getattr(gen, "__name__", type(owner).__name__)
    elif owner is not None:
        name = f"{type(owner).__name__}.{func.__name__}"
    else:
        name = getattr(cb, "__qualname__", None)
        if name is None:
            # Callable instances (__call__ objects, C callables): the
            # type is the stable identity; repr() would embed a memory
            # address, different every run.
            cls = type(cb)
            name = f"{cls.__module__}.{cls.__qualname__}"
    return f"partial({name})" if wrapped else name


class Profiler:
    """Attributes a simulation run's wall time to kernel components.

    Usage::

        prof = Profiler()
        with prof.attach(env):
            env.run(until=deadline)
        print(prof.render())
    """

    def __init__(self) -> None:
        #: component -> [calls, seconds]
        self.components: dict[str, list] = {}
        self._env: Optional[Environment] = None
        self._t0 = 0.0
        self._events0 = 0
        self.wall_seconds = 0.0
        self.events = 0

    # -- attachment --------------------------------------------------------

    def attach(self, env: Environment) -> "Profiler":
        if env._profiler is not None:
            raise RuntimeError("environment already has a profiler attached")
        self._env = env
        env._profiler = self
        self._t0 = time.perf_counter()
        self._events0 = env.events_processed
        return self

    def detach(self) -> "Profiler":
        env = self._env
        if env is None:
            return self
        self.wall_seconds += time.perf_counter() - self._t0
        self.events += env.events_processed - self._events0
        env._profiler = None
        self._env = None
        return self

    def __enter__(self) -> "Profiler":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- recording (called by Environment.step) ---------------------------

    def _record(self, cb, event, seconds: float) -> None:
        name = _component_of(cb, event)
        entry = self.components.get(name)
        if entry is None:
            self.components[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    # -- reporting ---------------------------------------------------------

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    def report(self) -> dict:
        """Machine-readable profile: totals plus per-component rows."""
        if self._env is not None:
            # Report mid-attachment: snapshot without detaching.
            wall = self.wall_seconds + (time.perf_counter() - self._t0)
            events = self.events + (self._env.events_processed - self._events0)
        else:
            wall, events = self.wall_seconds, self.events
        rows = sorted(
            (
                {"component": name, "calls": calls, "seconds": secs}
                for name, (calls, secs) in self.components.items()
            ),
            key=lambda r: r["seconds"],
            reverse=True,
        )
        return {
            "wall_seconds": wall,
            "events": events,
            "events_per_sec": (events / wall) if wall > 0 else 0.0,
            "components": rows,
        }

    def render(self, top: int = 12) -> str:
        """Human-readable top-N component table."""
        rep = self.report()
        lines = [
            f"{rep['events']} events in {rep['wall_seconds']:.3f}s wall "
            f"({rep['events_per_sec']:,.0f} events/s)"
        ]
        for row in rep["components"][:top]:
            lines.append(
                f"  {row['component']:<32} {row['calls']:>9} calls "
                f"{row['seconds'] * 1e3:>10.1f} ms"
            )
        return "\n".join(lines)
