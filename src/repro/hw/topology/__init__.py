"""Pluggable fabric topologies.

``make_topology`` builds a :class:`Topology` from a declarative
:class:`~repro.hw.params.TopologySpec`; the registry maps spec kinds to
classes so new fabrics plug in without touching cluster assembly.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ...sim.core import Simulator
from ..params import IbParams, TopologySpec
from .base import FabricProfile, Topology
from .fattree import FatTree
from .flat import FlatSwitch
from .multirail import MultiRail
from .torus import Torus2D

__all__ = [
    "FabricProfile",
    "Topology",
    "FlatSwitch",
    "FatTree",
    "MultiRail",
    "Torus2D",
    "TOPOLOGIES",
    "make_topology",
]


def _make_flat(sim, n, params, spec):
    return FlatSwitch(sim, n, params)


def _make_fattree(sim, n, params, spec):
    return FatTree(
        sim,
        n,
        params,
        pod_size=spec.pod_size,
        oversubscription=spec.oversubscription,
    )


def _make_multirail(sim, n, params, spec):
    return MultiRail(sim, n, params, rails=spec.rails)


def _make_torus2d(sim, n, params, spec):
    return Torus2D(sim, n, params, nx=spec.torus_x, ny=spec.torus_y)


#: Registry: spec kind → factory(sim, n_nodes, ib_params, spec).
TOPOLOGIES: Dict[str, Callable[..., Topology]] = {
    "flat": _make_flat,
    "fattree": _make_fattree,
    "multirail": _make_multirail,
    "torus2d": _make_torus2d,
}


def make_topology(
    sim: Simulator,
    n_nodes: int,
    params: IbParams,
    spec: Optional[TopologySpec] = None,
) -> Topology:
    """Instantiate the topology a :class:`TopologySpec` describes
    (``None``: the paper's flat switch)."""
    if spec is None:
        spec = TopologySpec()
    try:
        factory = TOPOLOGIES[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown topology kind {spec.kind!r}; "
            f"choose from {sorted(TOPOLOGIES)}"
        ) from None
    return factory(sim, n_nodes, params, spec)
