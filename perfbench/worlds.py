"""The benchmark's three workloads, and one pass of each.

Every workload runs in this process: no worker processes, no threads.

* ``fleet-128`` — ``fleet_of(128, stagger=0.2)`` on 4 sites, the
  canonical fleet-scaling world (164,107 events, 1,280 steer ops).
  Bound by simulation physics (``repro.sims``).
* ``steer-storm`` — 64 building/crowd sessions with 4 participants,
  steered every 0.1 s, computing 0.25 s per step (188,203 events,
  4,224 ops).  Bound by the fabric: the DES kernel, messaging and
  steering control, with no LB3D or PEPC in it.
* ``campaign-smoke`` — the 12-cell ``smoke`` campaign preset, run inline
  (``workers=1``) into a throwaway store.  The only workload through
  admission (``repro.load``), chaos sweeps (``repro.chaos``) and the
  campaign store and matrix (``repro.campaign``).

``--seed`` offsets every session's seed on the fleet workloads and
replaces the preset seed on ``campaign-smoke``; ``None`` gives the
canonical inputs.

A pass is observed from outside only: :class:`Hooks` sees every fleet
world and every simulation as they are made, by wrapping
``ScenarioSpec.make_sim`` and the ``FleetDriver`` and ``run_cell`` names
the campaign runner uses.  Each is called once per session or cell, so
an unhooked pass runs the program's own code paths.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import pathlib
import statistics
import sys
import tempfile
import time
from typing import Optional

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (git-ignored)
OUT = HERE / "out"

WORKLOADS = ("fleet-128", "steer-storm", "campaign-smoke")

#: the report percentile used as the steer-latency tail, per workload:
#: the highest one the report exposes with at least ten samples beyond
#: it on every seed (fleet-128: 1,280 ops; steer-storm: 4,224;
#: campaign-smoke: 931 to 1,164 ops over seeds 0-31, too few for p99 on some)
TAIL = {"fleet-128": "p99", "steer-storm": "p99", "campaign-smoke": "p90"}

#: the campaign preset's own seed, which ``seed=None`` keeps
CAMPAIGN_DEFAULT_SEED = 11


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def effective_seed(workload: str, seed: Optional[int]) -> int:
    """The seed a pass really uses: the key its pins are stored under."""
    if seed is not None:
        return seed
    return CAMPAIGN_DEFAULT_SEED if workload == "campaign-smoke" else 0


class Hooks:
    """Observers of a pass; the default observes nothing."""

    def on_world(self, driver) -> None:
        """A fleet world was built and has not run yet."""

    def on_sim(self, name: str, sim) -> None:
        """Session ``name`` made its simulation."""


@dataclasses.dataclass
class Outcome:
    """What one pass produced, and how long it took."""

    #: wall seconds of the pass; the benchmark's folding of finished
    #: worlds is excluded, work done by hooks is not
    wall: float
    #: FleetReport.to_dict() or MatrixReport.to_dict()
    report: dict
    #: sha256 over every simulation's final checkpoint, in creation order
    physics: str
    #: exact, machine-independent counts: events, steps, messages,
    #: bytes, ops (and cells on the campaign)
    counts: dict
    #: deterministic numbers the layer table needs beyond ``counts``
    layer: dict

    @property
    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.report, sort_keys=True).encode()).hexdigest()

    def pinned(self) -> dict:
        """The fields pins.json stores for this outcome."""
        return {"report": self.digest, "physics": self.physics, "counts": dict(self.counts)}

    def end_to_end(self, workload: str) -> dict:
        """The deterministic end-to-end metrics of this pass."""
        rep = self.report["totals"] if workload == "campaign-smoke" else self.report
        sessions = rep["sessions"]
        attempted = rep["ops"] + rep["timeouts"] + rep["errors"]
        return {
            "goodput": rep["completed"] / sessions,
            "ops_ok_frac": rep["ops"] / attempted,
            "steer_p50_ms": rep["steer_p50_ms"],
            "steer_tail_ms": rep[f"steer_{TAIL[workload]}_ms"],
        }


def _feed(h, value) -> None:
    """Hash a checkpoint value exactly: arrays by dtype, shape and bytes,
    floats by their hex form."""
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value, key=str):
            h.update(f"k{key!r}".encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"l{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, float):
        h.update(f"f{value.hex()}".encode())
    else:
        h.update(f"r{value!r}".encode())


class _Pass:
    """What a pass made, folded into digests and counts world by world,
    so that no finished world is kept alive to inflate peak RSS."""

    def __init__(self) -> None:
        self.sims: list = []
        self.drivers: list = []
        self.physics = hashlib.sha256()
        self.counts = dict.fromkeys(("events", "steps", "messages", "bytes", "dropped"), 0)
        #: wall seconds spent folding, which is the benchmark's work
        self.fold_s = 0.0

    def fold(self) -> None:
        t0 = time.perf_counter()
        counts = self.counts
        for name, sim in self.sims:
            self.physics.update(name.encode())
            _feed(self.physics, sim.checkpoint())
            counts["steps"] += sim.step_count
        for driver in self.drivers:
            net = driver.net
            counts["events"] += driver.env.events_processed
            counts["dropped"] += net.dropped_messages
            for link in {id(link): link for link in net._links.values()}.values():
                counts["messages"] += link.transfers
                counts["bytes"] += link.bytes_carried
        self.sims.clear()
        self.drivers.clear()
        self.fold_s += time.perf_counter() - t0


@contextlib.contextmanager
def _observed(hooks: Hooks):
    """Route every session's simulation and every fleet world through
    ``hooks`` and into a :class:`_Pass`, folding each campaign cell's
    world as the cell ends."""
    from repro.campaign import runner
    from repro.fleet.spec import ScenarioSpec

    made = _Pass()
    make_sim = ScenarioSpec.make_sim
    driver_cls = runner.FleetDriver
    run_cell = runner.run_cell

    def observed_sim(spec):
        sim = make_sim(spec)
        made.sims.append((spec.name, sim))
        hooks.on_sim(spec.name, sim)
        return sim

    def observed_driver(*args, **kwargs):
        driver = driver_cls(*args, **kwargs)
        made.drivers.append(driver)
        hooks.on_world(driver)
        return driver

    def observed_cell(cell):
        try:
            return run_cell(cell)
        finally:
            made.fold()

    ScenarioSpec.make_sim = observed_sim
    runner.FleetDriver = observed_driver
    runner.run_cell = observed_cell
    try:
        yield made, observed_driver
    finally:
        ScenarioSpec.make_sim = make_sim
        runner.FleetDriver = driver_cls
        runner.run_cell = run_cell


def fleet_specs(workload: str, seed: int) -> list:
    from repro.fleet import fleet_of, sweep_scenarios

    if workload == "fleet-128":
        specs = fleet_of(128, stagger=0.2)
    else:
        specs = fleet_of(
            64,
            suite=sweep_scenarios(sims=("building", "crowd")),
            stagger=0.2,
            participants=4,
            cadence=0.1,
            compute_time=0.25,
        )
    if seed:
        specs = [dataclasses.replace(s, seed=s.seed + seed) for s in specs]
    return specs


def _fleet_pass(workload: str, seed: int, make_driver) -> tuple[dict, dict]:
    driver = make_driver(fleet_specs(workload, seed), n_sites=4)
    report = driver.run().to_dict()
    return report, {}


def _campaign_pass(seed: int, make_driver) -> tuple[dict, dict]:
    from repro.campaign import CampaignRunner, ResultStore
    from repro.campaign.presets import smoke

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        # fsync off: the benchmark times the code, not this disk
        store = ResultStore(pathlib.Path(tmp) / "smoke.jsonl", fsync=False)
        matrix = CampaignRunner(smoke(seed=seed), store, workers=1).run()
        store_bytes = store.path.stat().st_size
        records = store.cell_records()
    loads = [rec["report"]["load"] for rec in records]
    waits = [w for rec in records for w in rec["mergeable"]["wait"]["sample"]]
    totals = matrix.to_dict()["totals"]
    layer = {
        "load.offered": sum(q["offered"] for q in loads),
        "load.admitted": sum(q["admitted"] for q in loads),
        "load.rejected": sum(q["rejected"] for q in loads),
        "load.requeued": sum(q["requeued"] for q in loads),
        "load.wait_p50_s": statistics.median(waits),
        "chaos.faults": totals["faults_applied"],
        "chaos.recovered_frac": (
            totals["recovered"] / totals["impacted"] if totals["impacted"] else 1.0
        ),
        "campaign.cells": len(records),
        "campaign.store_bytes": store_bytes,
    }
    return matrix.to_dict(), layer


def run_pass(workload: str, seed: Optional[int] = None, hooks: Optional[Hooks] = None) -> Outcome:
    """Run one pass of ``workload`` and freeze what it produced."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    seed = effective_seed(workload, seed)
    with _observed(hooks or Hooks()) as (made, make_driver):
        t0 = time.perf_counter()
        if workload == "campaign-smoke":
            report, layer = _campaign_pass(seed, make_driver)
        else:
            report, layer = _fleet_pass(workload, seed, make_driver)
        wall = time.perf_counter() - t0 - made.fold_s
        made.fold()
    rep = report["totals"] if workload == "campaign-smoke" else report
    counts = dict(made.counts, ops=rep["ops"])
    layer.update(
        {
            "net.dropped": counts.pop("dropped"),
            "steering.ops": rep["ops"],
            "steering.ops_failed": rep["timeouts"] + rep["errors"],
        }
    )
    if workload == "campaign-smoke":
        counts["cells"] = layer["campaign.cells"]
    return Outcome(
        wall=wall, report=report, physics=made.physics.hexdigest(), counts=counts, layer=layer
    )


# -- pins ---------------------------------------------------------------------

PINS = HERE / "pins.json"


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def expected(pins: dict, workload: str, seed: Optional[int]) -> dict:
    """The pinned fields a pass of ``workload`` at ``seed`` must match:
    every field for a pinned seed, else the fields that agree across all
    pinned seeds."""
    entry = pins[workload]
    key = str(effective_seed(workload, seed))
    return entry["seeds"].get(key, entry["any_seed"])


def mismatches(outcome: Outcome, want: dict) -> list[str]:
    """Human-readable differences between an outcome and its pins."""
    got = outcome.pinned()
    out = [
        f"{field}: got {got[field]} want {want[field]}"
        for field in ("report", "physics")
        if field in want and got[field] != want[field]
    ]
    for key, value in want.get("counts", {}).items():
        if got["counts"].get(key) != value:
            out.append(f"counts.{key}: got {got['counts'].get(key)} want {value}")
    return out
