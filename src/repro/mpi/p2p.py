"""The two-sided (send/recv) wire protocol, written once as data.

A message of ``nbytes`` follows one of two rows, picked by
:func:`p2p_row` from ``IbParams.eager_threshold`` (the small/large
split behind MVAPICH2's Figure 6 shape).  Each side first pays ``sw``
(one ``sw_overhead_us`` quantum); a row's first leg, its *envelope*,
carries the match data, and the match point follows it:

* **eager** — one sender → receiver leg carrying header and payload;
* **rendezvous** — the RTS header leg, then after the match the CTS
  header leg back and the bare payload leg.

Three readers walk the rows: the exact ``Communicator._send_impl``/
``_recv_impl`` (the side that owns a leg puts it on the wire and fires
its event, the other side waits on that event), the fast-path tape
(``FastPathEngine._compile_tape``: the envelope on the sender's node,
the legs after the match in the pair node; a sender with no leg after
the match finishes at its own node) and the selector's
``autotune.p2p_time`` (the row on one (α, β) hop).  This module imports
nothing from :mod:`repro.mpi`, so each reader imports it without a
cycle.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from ..hw.params import IbParams

__all__ = ["HEADER_BYTES", "Leg", "Row", "EAGER", "RENDEZVOUS", "p2p_row"]

#: Size of protocol headers on the wire (match/envelope data).
HEADER_BYTES = 64


class Leg(NamedTuple):
    """One wire leg: who puts it on the wire (``by_sender``: sender →
    receiver, else receiver → sender), the header bytes and whether the
    payload ride it (wire bytes ``header + payload * nbytes``), the
    owner's ``p2p.send`` and the other side's ``p2p.wait`` span-name
    prefixes (+ the peer rank), the name prefix of its completion event
    after the match point (``"cts"`` → ``"cts(0->1)"``) and the
    ``proto`` attribute of the sender's span of it."""

    by_sender: bool
    header: int
    payload: bool
    send: str
    wait: str
    event: str
    proto: Optional[str]


class Row:
    """One protocol: the envelope leg, then the legs after the match.
    Rows hash by identity (the selector keys its closed forms by row)."""

    __slots__ = ("envelope", "after")

    def __init__(self, envelope: Leg, *after: Leg) -> None:
        self.envelope = envelope
        self.after: Tuple[Leg, ...] = after


EAGER = Row(Leg(True, HEADER_BYTES, True, "send->", "recv<-", "", "eager"))
RENDEZVOUS = Row(
    Leg(True, HEADER_BYTES, False, "rts->", "recv<-", "", "rndv"),
    Leg(False, HEADER_BYTES, False, "cts->", "cts<-", "cts", None),
    Leg(True, 0, True, "payload->", "payload<-", "payload", "rndv"),
)


def p2p_row(nbytes: int, ib: IbParams) -> Row:
    """The protocol an ``nbytes`` two-sided message follows."""
    return EAGER if nbytes <= ib.eager_threshold else RENDEZVOUS
