"""One-sided wire protocols as data, and the analytic tape that prices
them.

Each one-sided operation's wire protocol is a row of :data:`PROTOCOLS`:
its legs in order — request and response wire legs, the target staging
copy, a device window's PCIe read/write, the same-pair order point and
the apply point.  Two walkers read the rows.  The exact one is
:meth:`repro.mpi.rma.Window._walk`, each leg a transfer on the
contended channels.  The analytic one is :class:`TapePricer`: a
fast-path window logs its ops and prices a batch of them at a sync
point as one max-plus tape (:mod:`repro.mpi.algorithms.tape`, the
collective fast path's), chained through the exact model's two
serialization points — the origin NIC's injection path and the target's
staging channel — each served in issue order.  The same-pair order
point needs no node of its own there (see :class:`TapePricer`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .algorithms.tape import Tape, lay_out, ranges, run_levels
from .p2p import HEADER_BYTES

__all__ = ["CODES", "COALESCED", "PROTOCOLS", "Protocol", "ROWS",
           "TAPE_ROW_BUDGET", "TapePricer"]

#: Logged rows whose compiled tapes one pricer keeps, in total; a batch
#: past it compiles afresh every time.
TAPE_ROW_BUDGET = 1 << 14

# -- wire protocols as data --------------------------------------------------
# A leg is ``(kind, carries the payload?)``.  Kinds: ``"req"`` origin →
# target and ``"rsp"`` target → origin wire transfers (a header, plus
# the payload when carried); ``"stage"`` the target-host staging copy
# (shm channel); ``"pcie_r"``/``"pcie_w"`` the target's PCIe hop when
# its window is device memory; ``"order"`` the same-pair order point
# (behind the pair's previous accumulate); ``"apply"`` the data
# application on the target window.


class Protocol(NamedTuple):
    """One row of the leg table."""

    #: ``comm.stats`` protocol counter (a get has none).
    counter: Optional[str]
    #: ``rma.op`` span name.
    span: str
    #: Process/event name, formatted with (origin, target).
    proc: str
    #: The exact walk's ``proto`` span attribute.
    proto: Optional[str]
    legs: Tuple[Tuple[str, bool], ...]


#: rkey/validation round-trip, then the zero-copy RDMA write straight
#: into the registered region.
_RNDV = (("req", False), ("rsp", False), ("req", True))
_WRITE = (("pcie_w", True), ("apply", False))
#: An accumulate's read-modify-write pass through target memory (never
#: a zero-copy NIC write), in program order per (origin, target).
_RMW = (
    ("order", False), ("pcie_r", True), ("stage", True), ("apply", False),
    ("pcie_w", True),
)

_PUT = Protocol(
    "rma_put[eager]", "put", "put(r{}->r{})", "eager",
    (("req", True), ("stage", True)) + _WRITE,
)
#: A coalesced batch rides the eager put's legs as one transfer: one
#: header, one fabric traversal, one staging copy of the byte total.
_COALESCED = _PUT._replace(
    counter="rma_put[coalesced_flush]", span="put_coalesced",
    proc="cput(r{}->r{})", proto=None,
)
#: A get snapshots the region when the NIC reads it: writes landing
#: while the payload travels back are not in the result.
_GET = Protocol(
    None, "get", "get(r{}<-r{})", None,
    (("req", False), ("pcie_r", True), ("apply", False), ("rsp", True)),
)
_ACC = Protocol(
    "rma_accumulate[eager]", "accumulate", "acc(r{}->r{})", None,
    (("req", True),) + _RMW,
)
_ACC_RNDV = _ACC._replace(
    counter="rma_accumulate[rendezvous]", legs=_RNDV + _RMW
)
#: A get_accumulate's fetched elements travel back to the origin.
_FETCH = (("rsp", True),)

#: What an op is (``put``/``get``/``accumulate``/``get_accumulate``)
#: → its (eager, rendezvous) rows.
PROTOCOLS: Dict[str, Tuple[Protocol, Protocol]] = {
    "put": (
        _PUT,
        _PUT._replace(
            counter="rma_put[rendezvous]", proto="rndv",
            legs=_RNDV + _WRITE,
        ),
    ),
    "get": (_GET, _GET),
    "accumulate": (_ACC, _ACC_RNDV),
    "get_accumulate": (
        _ACC._replace(legs=_ACC.legs + _FETCH),
        _ACC_RNDV._replace(legs=_ACC_RNDV.legs + _FETCH),
    ),
}

#: Every row, numbered: an analytic op is logged by its row's number,
#: the coalesced batch's first.
ROWS: Tuple[Protocol, ...] = tuple(dict.fromkeys(
    (_COALESCED,) + sum(PROTOCOLS.values(), ())))
COALESCED = 0
#: ``PROTOCOLS`` by row number.
CODES = {what: tuple(map(ROWS.index, rows))
         for what, rows in PROTOCOLS.items()}

# The analytic tape's view of each row: its timed legs, with the PCIe
# hops dropped (device windows walk exactly) and the order and apply
# points dropped (the staging channel absorbs them, see TapePricer).
_KINDS = ("req", "rsp", "stage")
_REQ, _RSP, _STAGE = range(len(_KINDS))
_TAPE_LEGS = [
    [(_KINDS.index(leg), carries) for leg, carries in row.legs
     if leg in _KINDS]
    for row in ROWS
]
#: Per row number: its first tape leg and how many it has.
_TAPE_N = np.array([len(legs) for legs in _TAPE_LEGS])
_TAPE_LO = _TAPE_N.cumsum() - _TAPE_N
#: Per tape leg: its kind and whether it carries the payload.
_TAPE_KIND, _TAPE_CARRY = np.array(
    sum(_TAPE_LEGS, []), dtype=np.intp).reshape(-1, 2).T


class TapePricer:
    """The analytic pricer of one window: its channels' carried cursors
    and the tapes it compiled.

    It prices a host window's rows without their same-pair order point,
    because the staging channel absorbs it.  An accumulate's order point
    waits for the pair's previous accumulate to apply, and that apply
    ends where its stage leg ends, on the target's staging channel.  The
    accumulate's own stage leg then waits for both its order point and
    the staging channel's previous booking.  Bookings on a channel are
    made in issue order and never decrease, so the channel's previous
    booking is at or after the pair's previous stage end.  So the max
    over the order point adds nothing, and ``max`` is exact in floating
    point: dropping the order node leaves every time bit for bit as it
    was.  The same holds across batches, whose carried cursors are
    those bookings.
    """

    def __init__(self, comm) -> None:
        self._topo = topo = comm.cluster.topology
        prof = topo.profile()
        #: NIC injection-path occupancy model: alpha/2 + nbytes*beta
        #: — the tx channel's exact hold time on the modeled fabrics
        #: (the latency's other half rides the receiver's ejection
        #: channel, which the pricer folds into the wire time).
        self._alpha_inj = float(prof.alpha_s) / 2.0
        self._beta = float(prof.beta_s_per_B)
        self._nodes = np.array(comm.placement)
        #: Channel → when its last priced booking frees it (see
        #: :meth:`_compile` for the channel numbering).
        self._free: Dict[int, float] = {}
        #: Compiled tapes by their batch's rows, and how many rows they
        #: hold in total (see :data:`TAPE_ROW_BUDGET`).
        self._tapes: Dict[Tuple, Tuple] = {}
        self._tape_rows = 0

    def price(
        self, o: List[int], t: List[int], code: List[int], nb: List[int],
        t0: List[float],
    ) -> List[float]:
        """The finish times of ops from origins ``o`` to targets ``t``
        (row numbers ``code``, ``nb`` bytes) issued at ``t0``, in issue
        order, priced as one tape (:meth:`_compile`).

        A batch whose rows repeat an earlier batch's runs that batch's
        tape: a tape is a function of its rows, and only its seeds —
        the issue times and the channels' carried cursors — change.
        (With ``accounting`` on every batch compiles, to book its
        legs.)"""
        key = (tuple(o), tuple(t), tuple(code), tuple(nb))
        tapes = self._tapes
        compiled = None if self._topo.accounting else tapes.get(key)
        if compiled is None:
            compiled = self._compile(o, t, code, nb)
            if (key not in tapes
                    and self._tape_rows + len(o) <= TAPE_ROW_BUDGET):
                tapes[key] = compiled
                self._tape_rows += len(o)
        tape, seeds, book, fin = compiled
        R = len(t0)
        S = R + len(seeds)
        v = np.zeros(len(tape.slot) - 1)
        v[:R] = t0
        free = self._free
        v[R:S] = [free.get(c, 0.0) for c in seeds]
        run_levels(v, S, tape.ins, tape.rel, tape.a, tape.b, tape.levels)
        free.update(zip(seeds, v[book].tolist()))
        return v[fin].tolist()

    def _compile(
        self, o: List[int], t: List[int], code: List[int], nb: List[int]
    ) -> Tuple[Tape, List[int], np.ndarray, np.ndarray]:
        """The tape of logged rows (origin ``o``, target ``t``, row
        number ``code``, ``nb`` bytes), with the seeds' channels, the
        slots of each channel's last booking and each row's finish.

        Each leg is a tape node ``(max of its inputs + a) + b`` (see
        :mod:`repro.mpi.algorithms.tape`) whose inputs are its row's
        previous leg (the issue time, for the first) and the previous
        booking on its channel — its seed, carried over from earlier
        batches, for the first booking.  A channel is the origin NIC's
        injection path (a request leg between two nodes) or a node's
        staging channel (a same-node request leg, a stage leg).  The legs
        book their channels in issue order,
        row by row and leg by leg, as the exact FIFO channels serve them:

        * a request leg between two nodes starts at ``s``, the max of
          its inputs; it books ``(s + alpha/2) + nbytes * beta`` and
          arrives at ``(s + wire time) + 0``;
        * a staging leg, or a same-node request, books and ends at
          ``(s + wire time) + 0``;
        * a response leg adds its wire time and books nothing: a future
          booking there would delay traffic the target issues *now*, a
          start-time inversion the exact channels never exhibit.

        The wire times come from the topology's interned
        ``wire_costs``, once per distinct (source, destination, bytes)
        — or once per leg, in issue order, when ``accounting`` books
        them onto the link report.
        """
        R = len(o)
        code = np.array(code)
        n_legs = _TAPE_N[code]
        leg = ranges(_TAPE_LO[code], n_legs)
        kind = _TAPE_KIND[leg]
        row = np.arange(R).repeat(n_legs)
        o_a, t_a = np.array(o)[row], np.array(t)[row]
        on, tn = self._nodes[o_a], self._nodes[t_a]
        req = kind == _REQ
        rsp = kind == _RSP
        stage = kind == _STAGE
        n = np.array(nb)[row] * _TAPE_CARRY[leg]
        n[req | rsp] += HEADER_BYTES
        src = np.where(req, on, tn)
        dst = np.where(req | stage, tn, on)
        inj = req & (src != dst)
        shm = (req & ~inj) | stage

        # Wire times of the timed legs.
        timed = req | rsp | stage
        cols = src[timed], dst[timed], n[timed]
        wt = np.zeros(len(leg))
        topo = self._topo
        nodes = int(max(src.max(), dst.max())) + 1
        span = int(n.max()) + 1
        if not topo.accounting and nodes * nodes * span < 1 << 62:
            # Each distinct (source, destination, bytes) once.
            keys, inv = np.unique((cols[0] * nodes + cols[1]) * span
                                  + cols[2], return_inverse=True)
            cols = keys // span // nodes, keys // span % nodes, keys % span
        else:
            inv = slice(None)
        wt[timed] = np.array(
            topo.wire_costs(*(c.tolist() for c in cols)))[inv]

        # Nodes: a request between two nodes has two (its booking, then
        # its arrival), every other leg one; ``out`` is each leg's output
        # node.
        end = (1 + inj.astype(np.intp)).cumsum()
        out = end - 1
        M = int(end[-1])
        # Channels: 2 * node for an injection path, 2 * node + 1 for a
        # staging channel, entries in issue order.  Each entry's other
        # input is its channel's previous booking, or the channel's seed
        # slot.
        ent = (inj | shm).nonzero()[0]
        chan = np.where(inj[ent], 2 * src[ent], 2 * dst[ent] + 1)
        ent = ent[chan.argsort(kind="stable")]
        chan.sort(kind="stable")
        new = np.ones(len(ent), dtype=bool)
        new[1:] = chan[1:] != chan[:-1]
        seeds = chan[new].tolist()
        S = R + len(seeds)
        book = S + out[ent] - inj[ent]
        prev = np.zeros(len(leg), dtype=np.intp)
        prev[1:] = S + out[:-1]
        prev[n_legs.cumsum() - n_legs] = np.arange(R)
        other = prev.copy()
        other[ent[1:]] = book[:-1]
        other[ent[new]] = R + np.arange(len(seeds))

        ins = np.zeros((M, 2), dtype=np.intp)
        a = np.zeros(M)
        b = np.zeros(M)
        ins[out] = np.array((prev, other)).T
        a[out] = wt
        ins[out[inj] - 1] = np.array((prev[inj], other[inj])).T
        a[out[inj] - 1] = self._alpha_inj
        b[out[inj] - 1] = n[inj] * self._beta
        tape = lay_out(ins.reshape(-1), np.full(M, 2, dtype=np.intp), a, b,
                       S, S + M)
        last = np.append(new[1:], True)
        return (tape, seeds, tape.slot[book[last]],
                tape.slot[S + out[n_legs.cumsum() - 1]])
