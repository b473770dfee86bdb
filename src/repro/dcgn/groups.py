"""DCGN slot groups: sub-world communication scopes for kernels.

The paper's DCGN exposes one world of virtual ranks.  Slot groups carry
the MPI group/communicator concept through the DCGN stack: a
:class:`DcgnGroup` names an ordered subset of virtual ranks, and every
group gets its **own MPI sub-communicator at the node level** (derived
from the job's node communicator via
:meth:`~repro.mpi.communicator.Communicator.create`), its own collective
sequence space, and its own staging state in each comm thread — so
collectives on disjoint groups progress independently and overlap on
the wire, exactly like concurrent communicators in MPI.

Groups come from two places:

* **declared** — ``DcgnConfig(slot_groups={...})`` names groups up
  front; kernels fetch them by name (``ctx.group("row0")`` /
  ``ctx.comm.group("row0")``);
* **split** — kernels call the collective ``split(color, key)``
  (CPU: ``ctx.split``, GPU: ``ctx.comm.split``), the comm threads
  exchange the color/key pairs over the node communicator, and every
  color becomes a fresh group — ``MPI_Comm_split`` at the slot level.

The world itself is group 0 (:data:`WORLD_GID`, named ``"world"``,
backed by the node communicator): kernels address it exactly like any
other group, with one collective-sequence counter per group and rank.

The :class:`GroupTable` is shared by all of a job's comm threads;
whichever thread first sees a complete split registers the groups (all
threads compute identical data from the exchange, so registration is
deterministic and idempotent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..mpi.communicator import Communicator, MpiContext
from ..mpi.group import Group as MpiGroup
from .errors import DcgnConfigError, DcgnError
from .ranks import RankMap

__all__ = ["DcgnGroup", "GroupTable", "WORLD_GID"]

#: gid of the implicit all-ranks group.
WORLD_GID = 0


@dataclass(frozen=True)
class DcgnGroup:
    """An ordered subset of a DCGN job's virtual ranks."""

    gid: int
    name: str
    vranks: Tuple[int, ...]

    def __post_init__(self) -> None:
        # O(1) membership/rank lookups: rank_of sits in per-collective
        # hot paths (entry sorting, gather/scatter assembly).
        object.__setattr__(
            self, "_index", {v: i for i, v in enumerate(self.vranks)}
        )

    @property
    def size(self) -> int:
        return len(self.vranks)

    def rank_of(self, vrank: int) -> int:
        """Group-local rank of ``vrank`` (raises if not a member)."""
        rank = self._index.get(vrank)
        if rank is None:
            raise DcgnError(
                f"vrank {vrank} is not a member of group {self.name!r}"
            )
        return rank

    def __contains__(self, vrank: int) -> bool:
        return vrank in self._index


class _GroupInfo:
    """Runtime view of one group: node footprint + MPI sub-communicator.

    Nodes are named by their rank in the job's node communicator (the
    local node index of :meth:`RankMap.node_of`), never by cluster node
    id, so a job placed off the identity (``DcgnConfig(node_ids=...)``)
    indexes the same way as one on nodes ``0..n-1``.
    """

    def __init__(
        self,
        group: DcgnGroup,
        rankmap: RankMap,
        subcomm: Communicator,
        nodes: Sequence[int],
    ) -> None:
        self.group = group
        self.subcomm = subcomm
        self._local: Dict[int, List[int]] = {}
        for v in group.vranks:
            self._local.setdefault(rankmap.node_of(v), []).append(v)
        #: Nodes hosting members, in sub-communicator rank order.
        self.nodes: List[int] = list(nodes)
        self._sub_rank = {n: r for r, n in enumerate(self.nodes)}

    def local_vranks(self, node: int) -> List[int]:
        """Members on ``node``, ordered by group rank."""
        return self._local.get(node, [])

    def mpi_rank_of_node(self, node: int) -> int:
        return self._sub_rank[node]

    def ctx_for(self, node: int) -> MpiContext:
        return self.subcomm.ctx(self._sub_rank[node])


class GroupTable:
    """All groups of one DCGN job (shared across its comm threads)."""

    def __init__(self, rankmap: RankMap, node_comm: Communicator) -> None:
        self._rankmap = rankmap
        self._node_comm = node_comm
        self._infos: Dict[int, _GroupInfo] = {}
        self._by_name: Dict[str, DcgnGroup] = {}
        self._next_gid = WORLD_GID + 1
        #: split instance (world coll seq) → {color: gid}.
        self._splits: Dict[int, Dict[int, int]] = {}
        world = DcgnGroup(
            WORLD_GID, "world", tuple(range(rankmap.size))
        )
        self._infos[WORLD_GID] = _GroupInfo(
            world, rankmap, node_comm, range(node_comm.size)
        )
        self._by_name["world"] = world

    # -- registration ------------------------------------------------------
    def _register(self, name: str, vranks: Sequence[int]) -> DcgnGroup:
        seen = set()
        for v in vranks:
            if not (0 <= v < self._rankmap.size):
                raise DcgnConfigError(
                    f"group {name!r}: vrank {v} out of range "
                    f"[0,{self._rankmap.size})"
                )
            if v in seen:
                raise DcgnConfigError(
                    f"group {name!r}: duplicate vrank {v}"
                )
            seen.add(v)
        if not vranks:
            raise DcgnConfigError(f"group {name!r} is empty")
        gid = self._next_gid
        self._next_gid += 1
        group = DcgnGroup(gid, name, tuple(int(v) for v in vranks))
        node_comm = self._node_comm
        nodes = sorted({self._rankmap.node_of(v) for v in group.vranks})
        subcomm = node_comm.create(
            MpiGroup([node_comm.world_ranks[n] for n in nodes])
        )
        self._infos[gid] = _GroupInfo(group, self._rankmap, subcomm, nodes)
        return group

    def declare(self, name: str, vranks: Sequence[int]) -> DcgnGroup:
        """Register a config-declared named group."""
        if name in self._by_name:
            raise DcgnConfigError(f"duplicate slot group name {name!r}")
        group = self._register(name, vranks)
        self._by_name[name] = group
        return group

    def register_split(
        self, split_seq: int, triples: Sequence[Tuple[int, int, int]]
    ) -> Dict[int, DcgnGroup]:
        """Turn one split exchange's (vrank, color, key) triples into
        groups — idempotent per split instance, so every comm thread
        that processes the (identical) exchange sees the same groups.

        Members of each color are ordered by (key, vrank), mirroring
        ``MPI_Comm_split``; negative colors opt out.
        """
        existing = self._splits.get(split_seq)
        if existing is not None:
            return {
                color: self._infos[gid].group
                for color, gid in existing.items()
            }
        by_color: Dict[int, List[Tuple[int, int]]] = {}
        for vrank, color, key in triples:
            if color < 0:
                continue
            by_color.setdefault(color, []).append((key, vrank))
        out: Dict[int, DcgnGroup] = {}
        mapping: Dict[int, int] = {}
        for color in sorted(by_color):
            members = [v for _k, v in sorted(by_color[color])]
            group = self._register(
                f"split{split_seq}/{color}", members
            )
            out[color] = group
            mapping[color] = group.gid
        self._splits[split_seq] = mapping
        return out

    # -- queries -----------------------------------------------------------
    def by_name(self, name: str) -> DcgnGroup:
        try:
            return self._by_name[name]
        except KeyError:
            raise DcgnError(f"no slot group named {name!r}") from None

    def info(self, gid: int) -> _GroupInfo:
        try:
            return self._infos[gid]
        except KeyError:
            raise DcgnError(f"unknown group id {gid}") from None

    def group(self, gid: int) -> DcgnGroup:
        return self.info(gid).group

    def local_count(self, gid: int, node: int) -> int:
        """Group members resident on ``node`` (staging quorum)."""
        return len(self.info(gid).local_vranks(node))

    def release(self) -> None:
        """Free every group's derived sub-communicator (job teardown).

        The world group's "sub-communicator" is the node communicator
        itself — its owner releases it, not this table.
        """
        for info in self._infos.values():
            sub = info.subcomm
            if sub is not self._node_comm and not sub._freed:
                sub.free(force=True)
