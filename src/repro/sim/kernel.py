"""A minimal discrete-event simulation kernel.

Classic event-queue design: the heap holds ``(time, seq, event)``
tuples and :meth:`Simulator.run` pops them in time order. The sequence
number makes simultaneous events deterministic (FIFO) and, being
unique, settles every comparison before it could reach the
:class:`Event` object — so heap operations compare plain floats and
ints, never call back into Python-level ordering methods.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..errors import ReproError


class SimulationError(ReproError):
    """Scheduling into the past or other kernel misuse."""


class Event:
    """A scheduled callback; :meth:`cancel` keeps it from firing."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        return (f"Event(time={self.time!r}, seq={self.seq}, "
                f"cancelled={self.cancelled})")


class Simulator:
    """Event-driven simulator with a virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self.events_processed = 0

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        time = self.now + delay
        seq = self._seq
        event = Event(time, seq, callback)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> Event:
        """Schedule at an absolute virtual time."""
        return self.schedule(time - self.now, callback)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Process events until the queue empties, ``until`` passes, or
        ``max_events`` fire. Returns the final clock value."""
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        while queue:
            if max_events is not None and processed >= max_events:
                break
            time = queue[0][0]
            if until is not None and time > until:
                self.now = until
                break
            event = pop(queue)[2]
            if event.cancelled:
                continue
            self.now = time
            event.callback()
            processed += 1
            self.events_processed += 1
        else:
            if until is not None:
                self.now = until
        return self.now

    def pending(self) -> int:
        return sum(1 for _t, _s, e in self._queue if not e.cancelled)
