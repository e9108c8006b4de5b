"""Event loop for the discrete-event kernel.

The :class:`Engine` owns simulated time and a binary-heap agenda of pending
callbacks.  Everything else in the kernel (processes, signals, timers) is
sugar over :meth:`Engine.schedule`.

The agenda orders events by ``(time, priority, sequence)``: events at the same
time fire in ascending priority, ties broken by scheduling order.  This gives
deterministic, reproducible runs — a hard requirement for validating the
paper's worst-case bounds, where a single out-of-order tie can change a
measured rotation time by a slot.

Heap entries are plain ``(time, priority, seq, handle)`` tuples, so heap
ordering is a C-level tuple comparison (``seq`` is unique, so the handle is
never compared).  The :class:`EventHandle` carries the authoritative
``time``/``priority``/``seq`` of its event.

Cancellation is O(1) (heap entries are tombstoned), but tombstones no longer
linger: the engine counts them and lazily compacts the heap when they
outnumber the live events, so :meth:`Engine.pending_count` is O(1) and
:meth:`Engine.peek` reflects live events only — both are load-bearing for the
batched kernel's quiescence test (see :mod:`repro.kernel`).

Deferral: :meth:`Engine.defer` moves a pending event to a *later* time in
O(1).  It takes a fresh sequence number exactly as cancel-plus-reschedule
would (so tie order is unchanged) and updates the handle in place; the heap
entry is left where it is.  When that entry reaches the top of the heap its
``seq`` no longer matches the handle's, and :meth:`run`, :meth:`step` and
:meth:`peek` re-push it at the handle's current key.  Such a re-push is not
an event: it is not counted in ``events_executed``, not charged to a
``max_events`` budget, and counted in :attr:`Engine.stale_repushes`
instead.  Watchdog timers restarted on every SAT release use this rather
than a cancel and a fresh push each time (see :class:`repro.sim.timers.Timer`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.events.bus import EventBus
from repro.events.types import EngineRunWindow

__all__ = ["Engine", "EventHandle", "SimulationError", "SchedulingError"]

#: below this agenda size compaction is not worth the heapify
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Base class for kernel errors."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled in the past or with bad arguments."""


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Returned by :meth:`Engine.schedule` / :meth:`Engine.schedule_at`.  Calling
    :meth:`cancel` prevents the callback from running; cancellation is O(1)
    (the heap entry is tombstoned, not removed) and idempotent.
    :meth:`Engine.defer` moves the event later in place.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "engine")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 engine: "Optional[Engine]" = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Tombstone this event; a cancelled event never fires."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled events pinned in the heap do not keep
        # large object graphs alive.
        self.callback = _noop
        self.args = ()
        if self.engine is not None:
            self.engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} prio={self.priority} {state}>"


def _noop(*_args: Any) -> None:
    return None


class Engine:
    """A discrete-event simulation engine.

    Example
    -------
    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(5.0, hits.append, "a")
    >>> _ = eng.schedule(2.0, hits.append, "b")
    >>> eng.run()
    >>> hits
    ['b', 'a']
    >>> eng.now
    5.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: heap of ``(time, priority, seq, handle)`` entries
        self._agenda: list[tuple] = []
        self._seq: int = 0
        self._cancelled: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self.events_executed: int = 0
        #: heap entries of deferred events re-pushed at their new key (not
        #: events: never in ``events_executed`` nor a ``max_events`` budget)
        self.stale_repushes: int = 0
        #: slot-grid quantum for schedule-time snapping.  ``None`` (default)
        #: keeps exact float semantics; the ring sets it to its slot time so
        #: chained fractional delays cannot drift off the slot grid (which
        #: would break the exact time comparisons fast-forward relies on).
        self.slot_quantum: Optional[float] = None
        #: the ``until`` bound of the currently executing :meth:`run`
        #: (``None`` outside run() or for an unbounded run)
        self.run_until: Optional[float] = None
        #: True while the currently executing :meth:`run` has a
        #: ``max_events`` budget — consumers that batch multiple logical
        #: steps per callback must fall back to one-event-per-step so the
        #: budget keeps its exact meaning
        self.run_budgeted: bool = False
        #: kernel-side event bus: subscribing
        #: :class:`~repro.events.types.EngineRunWindow` (see
        #: ``repro.obs.integrate.attach_run_profiling``) records every
        #: :meth:`run` window — two clock reads per run() call, nothing per
        #: event, so the hot loop is untouched and the unobserved cost is
        #: one falsy-emitter check per run()
        self.events = EventBus()
        self.events.add_binder(self._bind_emitters)

    def _bind_emitters(self) -> None:
        self._ev_run = self.events.emitter(EngineRunWindow)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @staticmethod
    def snap_to_grid(time: float, quantum: float = 1.0,
                     eps: float = 1e-9) -> float:
        """Snap ``time`` to the nearest multiple of ``quantum`` when it is
        within ``eps`` (absolute) of one; off-grid times pass through.

        Accumulated float error from chained fractional delays is a few ulp
        per slot (< 1e-9 for clocks up to ~1e6 slots), while genuinely
        fractional event times (channel delays, Poisson arrivals) sit far
        from the grid — so an absolute epsilon separates the two cleanly.
        """
        k = round(time / quantum)
        snapped = k * quantum
        return snapped if abs(time - snapped) <= eps else time

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = 0) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, priority: int = 0) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        quantum = self.slot_quantum
        if quantum is not None:
            time = self.snap_to_grid(time, quantum)
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time!r}; current time is {self.now!r}")
        if not callable(callback):
            raise SchedulingError(f"callback {callback!r} is not callable")
        self._seq += 1
        seq = self._seq
        handle = EventHandle(time, priority, seq, callback, args, self)
        heapq.heappush(self._agenda, (time, priority, seq, handle))
        return handle

    def defer(self, handle: EventHandle, later_time: float) -> None:
        """Move the pending event ``handle`` to ``later_time`` (no earlier
        than its current time).

        Equivalent to ``handle.cancel()`` followed by ``schedule_at`` with
        the same callback and priority — it consumes one fresh sequence
        number, so ties order exactly as the reschedule would — except that
        the handle is updated in place and nothing is pushed: the old heap
        entry is re-pushed at the new key when it surfaces (see the module
        docstring).
        """
        if handle.cancelled or handle.engine is not self:
            raise SchedulingError(f"cannot defer {handle!r}: not pending here")
        quantum = self.slot_quantum
        if quantum is not None:
            later_time = self.snap_to_grid(later_time, quantum)
        if later_time < handle.time:
            raise SchedulingError(
                f"cannot defer to {later_time!r}, before the event's "
                f"current time {handle.time!r}")
        self._seq += 1
        handle.seq = self._seq
        handle.time = later_time

    # ------------------------------------------------------------------
    # agenda hygiene
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A live agenda entry was tombstoned; compact when dead entries
        outnumber live ones (amortised O(1) per cancellation)."""
        self._cancelled += 1
        agenda = self._agenda
        if len(agenda) >= _COMPACT_MIN and self._cancelled * 2 > len(agenda):
            # in-place so aliases held by a running run() loop stay valid;
            # deferred entries are rewritten at their current key
            agenda[:] = [(h.time, h.priority, h.seq, h)
                         for _, _, _, h in agenda if not h.cancelled]
            heapq.heapify(agenda)
            self._cancelled = 0

    def _settle_top(self) -> None:
        """Drop tombstones and re-push deferred entries until the top of
        the agenda (if any) is a live entry at its current key."""
        agenda = self._agenda
        while agenda:
            _, _, seq, handle = agenda[0]
            if handle.cancelled:
                heapq.heappop(agenda)
                self._cancelled -= 1
            elif seq != handle.seq:
                heapq.heapreplace(agenda, (handle.time, handle.priority,
                                           handle.seq, handle))
                self.stale_repushes += 1
            else:
                return

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the agenda is empty."""
        self._settle_top()
        agenda = self._agenda
        return agenda[0][0] if agenda else None

    def step(self) -> bool:
        """Execute the single next event.  Returns False if nothing is pending."""
        self._settle_top()
        agenda = self._agenda
        if agenda:
            handle = heapq.heappop(agenda)[3]
            self.now = handle.time
            self.events_executed += 1
            # mark consumed so a late cancel() of this handle is a no-op and
            # cannot corrupt the tombstone count
            handle.cancelled = True
            handle.callback(*handle.args)
            return True
        return False

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without executing anything.

        Only valid when no pending event lies strictly before ``time`` —
        advancing past live events would strand them in the past.  Used by
        the batched kernel to jump over analytically quiescent stretches.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot advance to {time!r}; current time is {self.now!r}")
        nxt = self.peek()
        if nxt is not None and nxt < time:
            raise SimulationError(
                f"cannot advance to {time!r} past pending event at {nxt!r}")
        self.now = time

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the agenda drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given and every event up to it has fired, time is
        advanced to exactly ``until`` even if the last event fires earlier
        (mirroring SimPy semantics), so that back-to-back ``run(until=...)``
        calls tile time without gaps.  If the loop stops early — on
        ``max_events`` or :meth:`stop` — with events still pending at or
        before ``until``, the clock stays at the last executed event so those
        events are never stranded in the past.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and until < self.now:
            raise SchedulingError(f"until={until!r} is in the past (now={self.now!r})")
        self._running = True
        self._stopped = False
        self.run_until = until
        self.run_budgeted = max_events is not None
        executed = 0
        agenda = self._agenda
        emit_run = self._ev_run
        if emit_run:
            import time as _time
            wall_start = _time.perf_counter()
            sim_start = self.now
        try:
            while agenda and not self._stopped:
                time, _, seq, handle = agenda[0]
                if handle.cancelled:
                    heapq.heappop(agenda)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    break   # a deferred entry's real time is later still
                if seq != handle.seq:
                    # deferred: re-push at the current key, not an event
                    heapq.heapreplace(agenda, (handle.time, handle.priority,
                                               handle.seq, handle))
                    self.stale_repushes += 1
                    continue
                if max_events is not None and executed >= max_events:
                    break
                heapq.heappop(agenda)
                self.now = time
                self.events_executed += 1
                executed += 1
                handle.cancelled = True   # consumed; late cancel() is a no-op
                handle.callback(*handle.args)
        finally:
            self._running = False
            self.run_until = None
            self.run_budgeted = False
            if emit_run:
                emit_run(self.now, wall_start,
                         _time.perf_counter() - wall_start,
                         executed, sim_start)
        if until is not None and not self._stopped and self.now < until:
            nxt = self.peek()
            if nxt is None or nxt > until:
                self.now = until

    def stop(self) -> None:
        """Stop a running :meth:`run` after the current event completes."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """True when :meth:`stop` ended (or is ending) the current run."""
        return self._stopped

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events in the agenda. O(1)."""
        return len(self._agenda) - self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now} pending={self.pending_count()}>"
