"""The frozen reference unit that wall times are normalised by.

A fixed slice of work shaped like the workloads' own mix: interpreter
work (dict and list churn, small-function calls, a heap, as in the DES
kernel and the messaging layers) and small-array numpy calls on a 6^3
lattice (as in the fleet-sized simulations).  On a host whose speed
drifts, the unit slows in step with the workloads, so
``pass seconds / unit seconds`` moves with the code and much less with
the machine.

Frozen: changing anything here changes the meaning of every ``wall_ref``
ever recorded.  It imports nothing from ``repro`` so that no change to
the program can change it.
"""

from __future__ import annotations

import heapq

import numpy as np

_LATTICE = np.linspace(0.0, 1.0, 216).reshape(6, 6, 6)
_WEIGHTS = np.linspace(1.0, 2.0, 6)

#: what one call returns; run.py checks it once per run so that a unit
#: that silently does other work is caught
EXPECTED = 173613.07898790698

#: the unit's time on the reference host: ``setup_s`` is reported as the
#: set-up time on a host where one unit takes this long
NOMINAL_SECONDS = 0.25e-3


def _mix(key: int, value: int) -> int:
    return (key * 31 + value) & 0xFFFF


def unit() -> float:
    """One reference unit: 0.2 to 0.4 ms on a 2-vCPU VM, about half of
    it in the interpreter and half in numpy calls on tiny arrays."""
    table: dict = {}
    heap: list = []
    acc = 0
    for i in range(160):
        k = i & 15
        table[k] = _mix(k, table.get(k, i))
        heapq.heappush(heap, (table[k], i))
        if len(heap) > 8:
            acc += heapq.heappop(heap)[0]
    a = _LATTICE
    for axis in (0, 1, 2, 0, 1, 2):
        a = 0.5 * a + 0.5 * np.roll(a, 1, axis=axis)
        a = a * _WEIGHTS[axis] - a.mean()
    return float(acc) + float(np.abs(a).sum())
