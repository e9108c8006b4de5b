"""Composable multi-ring topology descriptions.

The paper's architecture is hierarchical — many WRT-Rings bridged by
gateway stations into one larger ad hoc network (Sec. 1, Fig. 1).  A
:class:`Topology` extends the single-ring :class:`~repro.scenarios.Scenario`
with the fabric-level structure: how many rings, how they are wired
together (``layout``), where on each ring the gateway stations sit
(``gateway_placement``), and which end-to-end flows cross ring boundaries.

Everything here is *pure description + pure resolution*: gateway links,
shortest-path routes and the cross-ring flow set are deterministic
functions of the topology (flows derive from ``RandomStreams(seed)``), so
every execution mode — serial, process-per-ring, resumed — sees the exact
same fabric.

Serialization mirrors ``config_io``: the dict form keeps the per-ring
scenario template's fields at the top level (the shape
:func:`repro.config_io.scenario_to_dict` emits) and adds one ``topology``
sub-dict, so campaign sweeps address fabric axes as ``topology.rings``,
``topology.gateway_placement`` … with the ordinary dotted-key machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.packet import ServiceClass
from repro.scenarios import Scenario, TrafficMix, schema_field
from repro.sim.rng import RandomStreams

__all__ = ["GatewayLink", "CrossFlow", "Topology", "check_topology_key",
           "topology_to_dict", "topology_from_dict",
           "load_topology", "save_topology"]

LAYOUTS = ("chain", "cycle", "star")
GATEWAY_PLACEMENTS = ("spread", "first")
FLOW_KINDS = ("cbr", "poisson")


@dataclass(frozen=True)
class GatewayLink:
    """One bridge between two rings.

    ``station_a``/``station_b`` are the *local* station ids of the gateway
    stations on each side; the pair of buffers at their feet is the only
    place the two rings interact.
    """

    ring_a: int
    station_a: int
    ring_b: int
    station_b: int

    def __post_init__(self) -> None:
        if self.ring_a == self.ring_b:
            raise ValueError(f"a gateway link must join two distinct rings, "
                             f"got ring {self.ring_a} twice")

    def key(self) -> Tuple[int, int]:
        """Canonical undirected identity of the link."""
        return (min(self.ring_a, self.ring_b), max(self.ring_a, self.ring_b))

    def endpoint(self, ring: int) -> int:
        """The gateway station of this link on ``ring``."""
        if ring == self.ring_a:
            return self.station_a
        if ring == self.ring_b:
            return self.station_b
        raise KeyError(f"ring {ring} is not an endpoint of {self}")

    def other(self, ring: int) -> int:
        if ring == self.ring_a:
            return self.ring_b
        if ring == self.ring_b:
            return self.ring_a
        raise KeyError(f"ring {ring} is not an endpoint of {self}")


@dataclass(frozen=True)
class CrossFlow:
    """One end-to-end flow across the fabric.

    ``deadline`` is relative (slots after creation); ``kind`` is ``"cbr"``
    (needs ``period``) or ``"poisson"`` (needs ``rate``).
    """

    src_ring: int
    src_station: int
    dst_ring: int
    dst_station: int
    kind: str = "cbr"
    rate: float = 0.02
    period: float = 50.0
    service: ServiceClass = ServiceClass.PREMIUM
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.src_ring == self.dst_ring:
            raise ValueError("cross-ring flows must join distinct rings "
                             f"(got ring {self.src_ring} twice)")


@dataclass
class Topology:
    """A fabric of gateway-bridged WRT-Rings."""

    rings: int = 4
    ring_size: int = schema_field(8, help="stations per ring (gateways "
                                  "included)")
    layout: str = schema_field("chain", choices=LAYOUTS)
    gateway_placement: str = schema_field(
        "spread", flag="placement", choices=GATEWAY_PLACEMENTS,
        help="where gateway stations sit on each ring")
    cross_flows: int = schema_field(
        4, flag="flows", help="number of generated cross-ring flows")
    flow_kind: str = schema_field("cbr", choices=FLOW_KINDS)
    flow_rate: float = schema_field(
        0.02, help="per-flow rate for poisson cross traffic")
    flow_period: float = schema_field(
        50.0, help="inter-frame period for cbr cross traffic")
    flow_service: ServiceClass = schema_field(
        ServiceClass.PREMIUM, choices=("premium", "assured", "be"))
    flow_deadline: Optional[float] = schema_field(
        None, flag="deadline",
        help="relative end-to-end deadline per cross-ring frame")
    min_ring_hops: int = schema_field(
        1, flag="min_hops", help="minimum gateway hops per generated flow")
    gateway_buffer: int = schema_field(
        64, help="per-direction gateway buffer (frames)")
    frame_ttl: Optional[float] = schema_field(
        None, flag="ttl",
        help="max slots a frame may wait in a gateway buffer")
    sync_window: Optional[float] = schema_field(
        None, help="override the conservative sync window "
                   "(default: min SAT rotation bound across rings)")
    #: explicit bridge list; None derives one from ``layout``
    links: Optional[List[GatewayLink]] = schema_field(None, sparse=True,
                                                      row=True)
    #: explicit cross-ring flows; None generates ``cross_flows`` random ones
    flows: Optional[List[CrossFlow]] = schema_field(None, sparse=True)
    #: per-ring scenario template (its ``n`` and ``seed`` are overridden)
    base: Scenario = field(default_factory=lambda: Scenario(
        traffic=TrafficMix(kind="none")))
    horizon: float = 2_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rings < 2:
            raise ValueError(f"a fabric needs >= 2 rings, got {self.rings}")
        if self.ring_size < 2:
            raise ValueError(f"ring_size must be >= 2, got {self.ring_size}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.gateway_placement not in GATEWAY_PLACEMENTS:
            raise ValueError(
                f"unknown gateway_placement {self.gateway_placement!r}")
        if self.flow_kind not in FLOW_KINDS:
            raise ValueError(f"unknown flow_kind {self.flow_kind!r}")
        if self.gateway_buffer < 1:
            raise ValueError(
                f"gateway_buffer must be >= 1, got {self.gateway_buffer}")
        if self.min_ring_hops < 1:
            raise ValueError(
                f"min_ring_hops must be >= 1, got {self.min_ring_hops}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")

    @property
    def stations(self) -> int:
        """Total station count across the fabric."""
        return self.rings * self.ring_size

    # ------------------------------------------------------------------
    # structure resolution (pure functions of the spec)
    # ------------------------------------------------------------------
    def resolved_links(self) -> List[GatewayLink]:
        """The bridge list, deriving one from ``layout`` when not explicit."""
        if self.links is not None:
            return list(self.links)
        pairs: List[Tuple[int, int]] = []
        if self.layout == "chain":
            pairs = [(r, r + 1) for r in range(self.rings - 1)]
        elif self.layout == "cycle":
            pairs = [(r, (r + 1) % self.rings) for r in range(self.rings)]
            if self.rings == 2:          # cycle of two collapses to a chain
                pairs = pairs[:1]
        else:                            # star: ring 0 is the hub
            pairs = [(0, r) for r in range(1, self.rings)]
        # count the links per ring first so "spread" can space the gateway
        # stations around each ring
        per_ring: Dict[int, int] = {}
        for a, b in pairs:
            per_ring[a] = per_ring.get(a, 0) + 1
            per_ring[b] = per_ring.get(b, 0) + 1
        slot: Dict[int, int] = {}

        def place(ring: int) -> int:
            if self.gateway_placement == "first":
                return 0
            j = slot.get(ring, 0)
            slot[ring] = j + 1
            return (j * self.ring_size) // max(1, per_ring[ring])

        return [GatewayLink(a, place(a), b, place(b)) for a, b in pairs]

    def ring_neighbours(self) -> Dict[int, List[Tuple[int, GatewayLink]]]:
        """``ring -> sorted [(neighbour ring, link), ...]`` adjacency."""
        adj: Dict[int, List[Tuple[int, GatewayLink]]] = {
            r: [] for r in range(self.rings)}
        for link in self.resolved_links():
            adj[link.ring_a].append((link.ring_b, link))
            adj[link.ring_b].append((link.ring_a, link))
        for entries in adj.values():
            entries.sort(key=lambda e: e[0])
        return adj

    def route(self, src_ring: int, dst_ring: int) -> Tuple[int, ...]:
        """Deterministic shortest ring path (BFS, sorted neighbour order)."""
        if src_ring == dst_ring:
            return (src_ring,)
        adj = self.ring_neighbours()
        parent: Dict[int, int] = {src_ring: src_ring}
        frontier = [src_ring]
        while frontier and dst_ring not in parent:
            nxt: List[int] = []
            for ring in frontier:
                for neighbour, _link in adj[ring]:
                    if neighbour not in parent:
                        parent[neighbour] = ring
                        nxt.append(neighbour)
            frontier = nxt
        if dst_ring not in parent:
            raise ValueError(f"no gateway path from ring {src_ring} to "
                             f"ring {dst_ring}")
        path = [dst_ring]
        while path[-1] != src_ring:
            path.append(parent[path[-1]])
        return tuple(reversed(path))

    def link_between(self, ring_a: int, ring_b: int) -> GatewayLink:
        for link in self.resolved_links():
            if {link.ring_a, link.ring_b} == {ring_a, ring_b}:
                return link
        raise KeyError(f"no gateway link between rings {ring_a} and {ring_b}")

    def resolved_flows(self) -> List[CrossFlow]:
        """The cross-ring flow set; generated flows derive from ``seed``."""
        if self.flows is not None:
            return list(self.flows)
        rng = RandomStreams(self.seed).stream("fabric.flows")
        hops = {(a, b): len(self.route(a, b)) - 1
                for a in range(self.rings) for b in range(self.rings) if a != b}
        out: List[CrossFlow] = []
        for _ in range(self.cross_flows):
            src_ring = rng.randrange(self.rings)
            far = sorted(b for (a, b), h in hops.items()
                         if a == src_ring and h >= self.min_ring_hops)
            if not far:    # isolated ring under an explicit sparse link set
                far = sorted(b for (a, b) in hops if a == src_ring)
            dst_ring = rng.choice(far)
            out.append(CrossFlow(
                src_ring=src_ring,
                src_station=rng.randrange(self.ring_size),
                dst_ring=dst_ring,
                dst_station=rng.randrange(self.ring_size),
                kind=self.flow_kind, rate=self.flow_rate,
                period=self.flow_period, service=self.flow_service,
                deadline=self.flow_deadline))
        return out

    def ring_scenario(self, ring: int) -> Scenario:
        """The per-ring scenario: the shared template with this ring's
        size and an independent seed derived from the fabric seed."""
        return replace(self.base, n=self.ring_size,
                       horizon=self.horizon,
                       seed=RandomStreams(self.seed).derive(f"ring:{ring}"))


# ----------------------------------------------------------------------
# serialization (the ``config_io`` shape + one "topology" sub-dict)
# ----------------------------------------------------------------------
#: Topology fields kept at the top level of the dict form, not in its
#: ``topology`` sub-dict
FABRIC_OWNED = ("base", "horizon", "seed")


def topology_to_dict(topo: Topology) -> Dict[str, Any]:
    """JSON description: base-scenario fields at top level + ``topology``."""
    from repro.config_io import to_dict

    sub = to_dict(topo)
    out = sub.pop("base")
    # the fabric owns the horizon and master seed
    out["horizon"] = sub.pop("horizon")
    out["seed"] = sub.pop("seed")
    out["topology"] = sub
    return out


def check_topology_key(key: str) -> None:
    """Raise ValueError unless dotted ``key`` addresses the dict form:
    base-scenario keys at the top, fabric keys under ``topology.``."""
    from repro.config_io import check_key, check_scenario_key

    head, _, rest = key.partition(".")
    if head != "topology" or rest.split(".")[0] in FABRIC_OWNED:
        return check_scenario_key(key)
    check_key(Topology, rest)


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Build a Topology from the dict shape :func:`topology_to_dict` emits."""
    from repro.config_io import from_dict, scenario_from_dict

    data = dict(data)
    sub = data.pop("topology", None) or {}
    if isinstance(sub, dict) and sub.keys() & set(FABRIC_OWNED):
        raise ValueError(f"unknown topology keys: "
                         f"{sorted(sub.keys() & set(FABRIC_OWNED))}")
    base = scenario_from_dict(data)
    return replace(from_dict(Topology, sub, "topology"), base=base,
                   horizon=base.horizon, seed=base.seed)


def save_topology(topo: Topology, path) -> None:
    import json
    from pathlib import Path

    Path(path).write_text(json.dumps(topology_to_dict(topo), indent=2))


def load_topology(path) -> Topology:
    import json
    from pathlib import Path

    return topology_from_dict(json.loads(Path(path).read_text()))
