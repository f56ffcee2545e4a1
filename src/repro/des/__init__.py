"""Discrete-event simulation kernel.

A small, dependency-free process-based DES in the style of SimPy:
processes are Python generators that ``yield`` events (timeouts, store
gets, conditions); the :class:`Environment` advances virtual time and
resumes processes as their events trigger.

The whole simulated Grid (hosts, links, middleware, steering sessions)
runs on this kernel, which makes multi-site latency experiments exact,
deterministic and laptop-fast.
"""

from repro.des.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.des.resources import Mailbox, Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "Store",
    "Resource",
    "Mailbox",
]
