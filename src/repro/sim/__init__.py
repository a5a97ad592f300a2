"""Discrete-event simulation kernel (SimPy-style, written from scratch).

Public surface::

    env = Environment()
    env.call_later(0.5, lambda event: print("leaf step"))
    def proc(env):
        yield env.timeout(1.0)
        return "done"
    p = env.process(proc(env))
    env.run()

Leaf operations use callbacks (``call_later``, event callbacks); a
generator process is for a coroutine that waits more than once or can
be interrupted.
"""

from .environment import EmptySchedule, Environment
from .events import AllOf, AnyOf, ConditionEvent, Event, Timeout
from .process import Interrupt, Process
from .resources import LevelContainer, Request, Resource, Store
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionEvent",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "LevelContainer",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
    "Store",
    "Timeout",
]
