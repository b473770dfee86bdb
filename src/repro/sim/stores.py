"""The matching store: posted receives against queued messages.

The MPI progress engine keeps one :class:`FilterStore` per rank.  A
``put`` is a message arriving; a ``get`` with a predicate is a posted
receive (source/tag matching).  The store is zero-cost: wire and
software overheads are charged by the callers, which keeps the kernel
reusable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from .core import Event, Simulator

__all__ = ["FilterStore"]


def _any(_item: Any) -> bool:
    return True


class FilterStore:
    """Queued messages matched against posted receives, in order.

    ``put(item)`` hands ``item`` to the first posted receive whose
    predicate accepts it, or queues it; ``get(predicate)`` returns an
    event that fires with the earliest queued item the predicate
    accepts, or is posted until a put brings one.  No matchable pair
    survives either call, so these are the only pairs there are.  A put
    schedules no event of its own: only the receive it completes fires.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or "store"
        self.items: Deque[Any] = deque()
        self._getters: List[Tuple[Event, Callable[[Any], bool]]] = []

    def put(self, item: Any) -> None:
        """Deliver ``item`` to the first posted receive that accepts it,
        else queue it."""
        for i, (ev, pred) in enumerate(self._getters):
            if pred(item):
                del self._getters[i]
                ev.succeed(item)
                return
        self.items.append(item)

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Return an event that fires with the earliest queued item
        ``predicate`` accepts (any item when ``None``)."""
        pred = predicate if predicate is not None else _any
        ev = self.sim.event(name=f"get({self.name})")
        items = self.items
        for i, item in enumerate(items):
            if pred(item):
                del items[i]
                ev.succeed(item)
                return ev
        self._getters.append((ev, pred))
        return ev
