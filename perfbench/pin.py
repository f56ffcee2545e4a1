"""Regenerate ``perfbench/pins.json`` from plain passes of the program.

Usage, from the root of a checkout::

    python3 perfbench/pin.py

Pins seeds ``0 .. PINNED_SEEDS-1`` of every workload (``campaign-smoke``'s
canonical seed 11 among them).  For each it stores the sha256 of the
report, the sha256 of every simulation's final state and the exact
counts.  ``any_seed`` keeps the fields that agree across all pinned
seeds; a run at an unpinned seed is checked against those.  Re-pin only
when the program's behaviour is meant to change: the pins are the
benchmark's correctness gate.
"""

from __future__ import annotations

import json
import sys

import worlds

PINNED_SEEDS = 32


def common(entries: list[dict]) -> dict:
    """The fields (and counts) every entry agrees on."""
    first = entries[0]
    out = {
        field: first[field]
        for field in ("report", "physics")
        if all(e[field] == first[field] for e in entries)
    }
    out["counts"] = {
        key: value
        for key, value in first["counts"].items()
        if all(e["counts"].get(key) == value for e in entries)
    }
    return out


def main() -> int:
    worlds.use_source_tree()
    pins = {}
    for workload in worlds.WORKLOADS:
        seeds = {}
        for seed in range(PINNED_SEEDS):
            seeds[str(seed)] = worlds.run_pass(workload, seed).pinned()
            print(workload, seed, seeds[str(seed)]["report"][:12], flush=True)
        pins[workload] = {"any_seed": common(list(seeds.values())), "seeds": seeds}
    worlds.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
