"""Per-layer wall time, measured from outside the program.

:class:`Tracer` wraps the public entry point of each ``repro`` layer for
the length of one pass and records a span per call: the layer, the
request id (a session's application name, or a campaign cell id), start,
end and the span that contains it.  A layer's self time is its spans'
duration minus the wrapped spans nested inside them; time outside every
wrapped call is unattributed, and the wrappers' own bookkeeping is the
tracer's self time, so

    sum(layer self times) + tracer self time + unattributed == traced wall

holds by construction; :func:`layer_table` reports how far it misses.

``Environment.run`` is wrapped as well as ``Environment.step``: the drain
loop between steps is kernel time.  Kernel steps (one per event) are
aggregated per request id instead of kept, so memory stays bounded;
every other span is kept in memory and written out by
:meth:`Tracer.write` after the pass.
Nothing under ``src/`` is edited: the wrappers are installed with
``setattr`` and removed when the pass ends.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter, defaultdict
from time import perf_counter

import worlds

#: simulation class -> the sim kind the layer table reports it under
SIM_KINDS = {
    "LatticeBoltzmann3D": "lb3d",
    "PlasmaSim": "pepc",
    "BuildingClimate": "building",
    "CrowdSim": "crowd",
}

LAYERS = ("sims", "des", "net", "wire", "steering", "ogsa", "load", "chaos", "campaign")


def _targets():
    """(owner, attribute, span name, layer) for every wrapped entry point."""
    from repro.campaign import matrix, runner, store
    from repro.chaos import invariants
    from repro.des import core
    from repro.load import admission
    from repro.net import channel
    from repro.ogsa import registry
    from repro.sims import base
    from repro.steering import api

    return [
        (core.Environment, "run", "des.run", "des"),
        (core.Environment, "step", "des.step", "des"),
        (base.Simulation, "step", "sims.step", "sims"),
        (channel.Connection, "send", "net.send", "net"),
        (channel, "approx_size", "wire.approx_size", "wire"),
        (api.SteeredApplication, "process_control", "steering.poll", "steering"),
        (api.SteeredApplication, "emit_sample", "steering.sample", "steering"),
        (registry.RegistryService, "find", "ogsa.find", "ogsa"),
        (admission.AdmissionController, "offer", "load.offer", "load"),
        (invariants.InvariantMonitor, "sweep", "chaos.sweep", "chaos"),
        (runner, "run_cell", "campaign.cell", "campaign"),
        (store.ResultStore, "append", "campaign.store", "campaign"),
        (matrix.MatrixReport, "from_records", "campaign.matrix", "campaign"),
    ]


class _Frame:
    __slots__ = ("start", "child", "rid", "index", "up")

    def __init__(self, start, rid, index, up):
        self.start = start
        self.child = 0.0
        self.rid = rid
        #: this span's index in Tracer.spans, or -1 for a kernel step
        self.index = index
        #: index of the nearest kept span containing this one, or -1
        self.up = up


def _inherit(args, parent):
    return parent.rid if parent is not None else None


class Tracer(worlds.Hooks):
    """Spans and self times of every wrapped call made while installed."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        #: kept spans: [name, rid, start, end, parent index or -1]
        self.spans: list = []
        #: self seconds per span name, and per sim kind under "sims.<kind>"
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        #: aggregated kernel steps: rid -> [count, seconds, self seconds]
        self.kernel: dict = defaultdict(lambda: [0, 0.0, 0.0])
        #: total duration of the outermost spans, wrapper time included
        self.root_s = 0.0
        #: seconds spent in the wrappers themselves, outside every span
        self.tracer_s = 0.0
        #: id(sim) -> application name, filled by on_sim
        self.sim_names: dict = {}
        self._saved: list = []

    # -- worlds.Hooks ---------------------------------------------------------

    def on_sim(self, name: str, sim) -> None:
        self.sim_names[id(sim)] = name

    # -- wrapping ---------------------------------------------------------------

    def _rid_fn(self, name: str):
        """How a span named ``name`` finds its request id."""
        if name == "campaign.cell":
            return lambda args, parent: args[0].cell_id
        if name == "sims.step":
            sim_names = self.sim_names
            return lambda args, parent: sim_names.get(id(args[0]))
        if name.startswith("steering."):
            return lambda args, parent: args[0].name
        return _inherit

    def _wrap(self, fn, name: str):
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        kernel = self.kernel
        rid_of = self._rid_fn(name)
        kept = name != "des.step"
        sim_step = name == "sims.step"
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else None
            up = -1 if parent is None else (parent.index if parent.index >= 0 else parent.up)
            index = -1
            if kept:
                index = len(spans)
                spans.append(None)
            frame = _Frame(0.0, rid_of(args, parent), index, up)
            stack.append(frame)
            frame.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                own = end - frame.start - frame.child
                self_s[name] += own
                calls[name] += 1
                if sim_step:
                    kind = SIM_KINDS.get(type(args[0]).__name__, type(args[0]).__name__)
                    self_s[f"sims.{kind}"] += own
                    calls[f"sims.{kind}"] += 1
                if kept:
                    spans[index] = [name, frame.rid, frame.start, end, up]
                else:
                    agg = kernel[frame.rid]
                    agg[0] += 1
                    agg[1] += end - frame.start
                    agg[2] += own
                left = perf_counter()
                # the wrapper's own time, outside [start, end], is the
                # tracer's: the containing span must not count it as self
                tracer.tracer_s += (frame.start - entered) + (left - end)
                if parent is not None:
                    parent.child += left - entered
                else:
                    tracer.root_s += left - entered

        wrapper.__dict__.update(getattr(fn, "__dict__", {}))
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self) -> "Tracer":
        """Install every wrapper."""
        for owner, attr, name, _layer in _targets():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))
        return self

    def __exit__(self, *exc) -> None:
        """Put every original back."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- output -----------------------------------------------------------------

    def write(self, path: pathlib.Path) -> None:
        """Write the kept spans and the kernel aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for rid, (count, total, own) in sorted(self.kernel.items(), key=str):
                out.write(json.dumps({"kernel": rid, "steps": count, "s": total, "self_s": own}))
                out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def layer_table(tracer: Tracer, outcome, plain_wall: float) -> dict:
    """The per-layer metrics of one traced pass.

    ``outcome`` is the traced pass's :class:`worlds.Outcome`;
    ``plain_wall`` the wall seconds of an untraced pass of the same
    inputs.  ``closure_gap_s`` is how far the self times, the tracer's
    included, plus the unattributed time miss the traced wall.
    """
    wall = outcome.wall
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for _owner, _attr, name, layer_name in _targets():
        per_layer[layer_name] += tracer.self_s.get(name, 0.0)
    unattributed = wall - tracer.root_s
    closure = sum(per_layer.values()) + tracer.tracer_s + unattributed
    calls = tracer.calls
    s = tracer.self_s
    counts = outcome.counts
    layer = outcome.layer

    def us_per_step(kind):
        n = calls[f"sims.{kind}"]
        return s[f"sims.{kind}"] / n * 1e6 if n else 0.0

    return {
        "sims.steps": counts["steps"],
        "sims.self_s": per_layer["sims"],
        "sims.share": per_layer["sims"] / wall,
        **{f"sims.{k}_us_per_step": us_per_step(k) for k in ("lb3d", "pepc", "building", "crowd")},
        "des.events": counts["events"],
        "des.self_s": per_layer["des"],
        "des.share": per_layer["des"] / wall,
        "des.events_per_self_s": counts["events"] / per_layer["des"],
        "net.messages": counts["messages"],
        "net.bytes": counts["bytes"],
        "net.dropped": layer["net.dropped"],
        "net.self_s": per_layer["net"],
        "wire.sizes": calls["wire.approx_size"],
        "wire.self_s": per_layer["wire"],
        "steering.polls": calls["steering.poll"],
        "steering.samples": calls["steering.sample"],
        "steering.self_s": per_layer["steering"],
        "steering.ops": layer["steering.ops"],
        "steering.ops_failed": layer["steering.ops_failed"],
        "ogsa.finds": calls["ogsa.find"],
        "ogsa.self_s": per_layer["ogsa"],
        "load.offered": layer.get("load.offered", 0),
        "load.admitted": layer.get("load.admitted", 0),
        "load.rejected": layer.get("load.rejected", 0),
        "load.requeued": layer.get("load.requeued", 0),
        "load.wait_p50_s": layer.get("load.wait_p50_s", 0.0),
        "load.self_s": per_layer["load"],
        "chaos.faults": layer.get("chaos.faults", 0),
        "chaos.sweeps": calls["chaos.sweep"],
        "chaos.recovered_frac": layer.get("chaos.recovered_frac", 0.0),
        "chaos.self_s": per_layer["chaos"],
        "campaign.cells": layer.get("campaign.cells", 0),
        "campaign.cell_self_s": s["campaign.cell"],
        "campaign.store_s": s["campaign.store"],
        "campaign.store_bytes": layer.get("campaign.store_bytes", 0),
        "campaign.matrix_s": s["campaign.matrix"],
        "trace.self_s": tracer.tracer_s,
        "trace.overhead_frac": wall / plain_wall - 1.0,
        "trace.unattributed_frac": unattributed / wall,
        # ~0 unless the accounting lost a span
        "closure_gap_s": closure - wall,
    }
