"""Composite events: wait for any/all of a set of events."""

from __future__ import annotations

from typing import Iterable, List

from .core import Event, Simulator

__all__ = ["AnyOf", "AllOf"]


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`.

    The condition's value is a ``dict`` mapping each *triggered* member
    event to its value at the moment the condition fired.  If any member
    fails before the condition is satisfied, the condition fails with that
    member's exception.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, sim: Simulator, events: Iterable[Event], name: str) -> None:
        super().__init__(sim, name=name)
        self._events: List[Event] = list(events)
        self._done = 0
        for e in self._events:
            if e.sim is not sim:
                raise ValueError("all condition members must share a simulator")
        if not self._events:
            # Vacuously satisfied.
            self.succeed({})
            return
        for e in self._events:
            e.add_callback(self._check)

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._satisfied():
            # Only events that have actually *occurred* (processed) belong in
            # the value dict; a scheduled-but-future Timeout carries its value
            # from construction and must be excluded.
            self.succeed(
                {e: e._value for e in self._events if e.processed and e._ok}
            )


class AnyOf(_Condition):
    """Fires when the first member event fires."""

    __slots__ = ()

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim, events, name="any_of")

    def _satisfied(self) -> bool:
        return self._done >= 1


class AllOf(_Condition):
    """Fires when every member event has fired."""

    __slots__ = ()

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim, events, name="all_of")

    def _satisfied(self) -> bool:
        return self._done >= len(self._events)
