"""Discrete-event simulation kernel.

A small, dependency-free DES kernel in the style of SimPy: a time-ordered
event loop (:class:`~repro.sim.engine.Engine`), generator-based processes
(:class:`~repro.sim.process.Process`), one-shot :class:`~repro.sim.process.Signal`
synchronization primitives, restartable :class:`~repro.sim.timers.Timer` objects,
reproducible named random streams (:class:`~repro.sim.rng.RandomStreams`) and a
structured trace recorder (:class:`~repro.sim.trace.TraceRecorder`).

All protocol simulations in this package (WRT-Ring, TPT, RT-Ring) are built on
this kernel.  Time is unitless; the MAC layers interpret one time unit as one
slot duration, matching the paper's normalization.
"""

from repro.sim.engine import Engine, EventHandle, SimulationError, SchedulingError
from repro.sim.process import Process, Signal, Timeout, Interrupt
from repro.sim.timers import Timer, PeriodicTimer
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder, TraceEvent

__all__ = [
    "Engine",
    "EventHandle",
    "SimulationError",
    "SchedulingError",
    "Process",
    "Signal",
    "Timeout",
    "Interrupt",
    "Timer",
    "PeriodicTimer",
    "RandomStreams",
    "TraceRecorder",
    "TraceEvent",
]
