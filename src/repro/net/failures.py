"""Failure-scenario generators for experiments.

The robustness experiments all need the same few ingredients: random link
failures, isolating a node, regional outages, and management-plane
degradation.  These helpers centralize them so tests, benchmarks and user
scripts build scenarios the same way (and stay seed-reproducible).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

from repro.core.determinism import seeded_rng
from repro.net.simulator import Network
from repro.net.topology import Topology

#: Largest C(E, count) the keep-connected fallback will enumerate.
_ENUMERATION_LIMIT = 250_000


def fail_random_links(
    network: Network,
    count: int,
    seed: int | None = None,
    keep_connected: bool = False,
    attempts: int = 200,
) -> list[int]:
    """Visibly fail *count* distinct random links; returns their edge ids.

    With ``keep_connected=True``, candidate sets that would disconnect the
    live graph are rejected; after *attempts* rejections on a small
    topology, the valid sets are enumerated exhaustively and one is sampled
    uniformly — so the call succeeds whenever a valid set exists (and the
    RuntimeError it raises otherwise is a proof that none does).

    With ``seed=None`` (the default) draws come from ``network.rng``, the
    per-network seeded stream shared with lossy-link drops and the chaos
    harness; pass an explicit seed to get a detached, call-local stream.
    """
    topology = network.topology
    if count > topology.num_edges:
        raise ValueError(
            f"cannot fail {count} of {topology.num_edges} links"
        )
    rng = network.rng if seed is None else seeded_rng(seed)
    for _attempt in range(attempts):
        chosen = rng.sample(range(topology.num_edges), count)
        if not keep_connected or _connected_without(topology, chosen):
            for edge_id in chosen:
                network.links[edge_id].up = False
            return chosen
    # Rejection sampling failed: valid sets are rare or nonexistent.  On
    # small topologies, decide which by enumeration.
    if math.comb(topology.num_edges, count) > _ENUMERATION_LIMIT:
        raise RuntimeError(
            f"no {count}-link failure set keeping {topology.name} connected "
            f"found in {attempts} attempts (topology too large to enumerate)"
        )
    valid = [
        list(combo)
        for combo in combinations(range(topology.num_edges), count)
        if _connected_without(topology, combo)
    ]
    if not valid:
        raise RuntimeError(
            f"no {count}-link failure set keeps {topology.name} connected"
        )
    chosen = rng.choice(valid)
    for edge_id in chosen:
        network.links[edge_id].up = False
    return chosen


def _connected_without(topology: Topology, dead: Iterable[int]) -> bool:
    dead_set = set(dead)
    if topology.num_nodes == 0:
        return True
    adjacency: dict[int, set[int]] = {u: set() for u in topology.nodes()}
    for edge in topology.edges():
        if edge.edge_id in dead_set:
            continue
        adjacency[edge.a.node].add(edge.b.node)
        adjacency[edge.b.node].add(edge.a.node)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == topology.num_nodes


def fail_edge_after_steps(network: Network, edge_id: int, steps: int) -> None:
    """Kill link *edge_id* once *steps* packet arrivals have been processed.

    This is the mid-traversal failure primitive: unlike wall-clock
    scheduling it is deterministic under any link-delay assignment, which
    is what lets a model-checker counterexample (whose transitions are
    packet steps, not times) replay exactly in the simulator.  ``steps=0``
    fails the link before any packet moves (a pre-traversal failure).
    """
    if not 0 <= edge_id < len(network.links):
        raise ValueError(f"no edge {edge_id} in {network.topology.name}")

    def _kill() -> None:
        network.links[edge_id].up = False

    network.at_packet_step(steps, _kill)


def fail_link_after_steps(network: Network, u: int, v: int, steps: int) -> None:
    """Kill the (first) link between *u* and *v* after *steps* packet steps."""
    edge = network.topology.find_edge(u, v)
    if edge is None:
        raise ValueError(f"no link between {u} and {v}")
    fail_edge_after_steps(network, edge.edge_id, steps)


def isolate_node(network: Network, node: int) -> list[int]:
    """Fail every link of *node* (maintenance / crash); returns edge ids."""
    failed = []
    for port in range(1, network.topology.degree(node) + 1):
        edge = network.topology.port_edge(node, port)
        if edge is not None and network.links[edge.edge_id].up:
            network.links[edge.edge_id].up = False
            failed.append(edge.edge_id)
    return failed


def restore_node(network: Network, node: int) -> list[int]:
    """Bring every downed link of *node* back up; returns their edge ids.

    The inverse of :meth:`isolate_node`, for transient node outages: a
    chaos profile schedules ``isolate_node`` at one packet step and this at
    a later simulated time.  Restores *all* of the node's down links, so an
    isolate/restore pair leaves the node at least as connected as before
    (links failed independently in between come back too — matching the
    maintenance-window semantics, where the reconnecting box renegotiates
    every port).
    """
    restored = []
    for port in range(1, network.topology.degree(node) + 1):
        edge = network.topology.port_edge(node, port)
        if edge is not None and not network.links[edge.edge_id].up:
            network.links[edge.edge_id].up = True
            restored.append(edge.edge_id)
    return restored


def fail_region(network: Network, nodes: Iterable[int]) -> list[int]:
    """Fail every link with *both* endpoints in the region (a correlated
    outage: the region's internal fabric goes dark, its uplinks survive)."""
    region = set(nodes)
    failed = []
    for link in network.links:
        edge = link.edge
        if edge.a.node in region and edge.b.node in region and link.up:
            link.up = False
            failed.append(edge.edge_id)
    return failed


def restore_region(network: Network, nodes: Iterable[int]) -> list[int]:
    """Bring every downed intra-region link back up; returns their edge ids.

    The inverse of :meth:`fail_region`: the region's internal fabric comes
    back as one correlated event.  Only links with *both* endpoints in the
    region are touched, mirroring what :meth:`fail_region` failed.
    """
    region = set(nodes)
    restored = []
    for link in network.links:
        edge = link.edge
        if edge.a.node in region and edge.b.node in region and not link.up:
            link.up = True
            restored.append(edge.edge_id)
    return restored


def management_outage(
    channel, fraction: float, seed: int | None = None
) -> list[int]:
    """Disconnect a random *fraction* of switches from the controller.

    With ``seed=None`` the choice comes from the network's shared seeded
    RNG (``channel.network.rng``); an explicit seed detaches the stream.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    topology = channel.network.topology
    rng = channel.network.rng if seed is None else seeded_rng(seed)
    count = int(round(fraction * topology.num_nodes))
    chosen = rng.sample(list(topology.nodes()), count)
    for node in chosen:
        channel.disconnect(node)
    return chosen


def live_component(network: Network, root: int) -> set[int]:
    """Nodes reachable from *root* over up links (experiment oracle)."""
    adjacency: dict[int, set[int]] = {u: set() for u in network.topology.nodes()}
    for link in network.links:
        if link.up:
            adjacency[link.edge.a.node].add(link.edge.b.node)
            adjacency[link.edge.b.node].add(link.edge.a.node)
    seen = {root}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen
