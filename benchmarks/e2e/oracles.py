"""Ground truth for the end-to-end benchmark, computed without the code
under test.

Every oracle reads only the *inputs* (the topology's wiring, which links
the workload failed, which members it drew, where it planted a fault) and
returns ``None`` when the program's answer agrees or a one-line complaint
when it does not.  The only program surface touched is
``Network.live_port_pairs()`` / ``Network.links`` / ``Topology.ports`` —
plain state the workload itself set — never a service, compiler, decoder
or analysis routine.  A complaint makes the op count as failed.

:class:`SimDigest` hashes what the simulation produced (answers, hop and
out-of-band counts).  It must be equal across two runs of one seed and
across the four ladder engines, which are advertised as observably
identical.
"""

from __future__ import annotations

import hashlib


# --------------------------------------------------------------------- #
# Live-graph helpers (the benchmark's own BFS / articulation DFS)       #
# --------------------------------------------------------------------- #


def live_adjacency(network) -> dict[int, list[int]]:
    """node -> neighbours over links that are visibly up."""
    adjacency: dict[int, list[int]] = {u: [] for u in network.topology.nodes()}
    for link in network.links:
        if link.up:
            a, b = link.edge.a.node, link.edge.b.node
            adjacency[a].append(b)
            adjacency[b].append(a)
    return adjacency


def component(adjacency: dict[int, list[int]], root: int) -> set[int]:
    seen = {root}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def articulation_points(adjacency: dict[int, list[int]], root: int) -> set[int]:
    """Articulation points of *root*'s component (iterative Tarjan
    low-link DFS; parallel edges count as one neighbour visit each, which
    is what makes a doubled link non-critical)."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    cut: set[int] = set()
    counter = 0
    root_children = 0
    # Frames: (node, parent, iterator over neighbours, parent-edge skipped?)
    disc[root] = low[root] = counter
    stack = [(root, -1, iter(adjacency[root]), False)]
    while stack:
        node, parent, neighbours, skipped = stack[-1]
        advanced = False
        for nxt in neighbours:
            if nxt == parent and not skipped:
                # Skip the tree edge back to the parent exactly once; a
                # second parallel edge to the parent is a real back edge.
                stack[-1] = (node, parent, neighbours, True)
                skipped = True
                continue
            if nxt in disc:
                low[node] = min(low[node], disc[nxt])
                continue
            counter += 1
            disc[nxt] = low[nxt] = counter
            stack.append((nxt, node, iter(adjacency[nxt]), False))
            advanced = True
            break
        if advanced:
            continue
        stack.pop()
        if parent == -1:
            continue
        low[parent] = min(low[parent], low[node])
        if parent == root:
            root_children += 1
        elif low[node] >= disc[parent]:
            cut.add(parent)
    if root_children > 1:
        cut.add(root)
    return cut


# --------------------------------------------------------------------- #
# Per-answer oracles                                                    #
# --------------------------------------------------------------------- #


def expect_snapshot(network, root: int, nodes, links) -> str | None:
    """A snapshot must equal *root*'s live component, link for link."""
    adjacency = live_adjacency(network)
    want_nodes = component(adjacency, root)
    want_links = {
        pair
        for pair in network.live_port_pairs()
        if all(node in want_nodes for node, _port in pair)
    }
    if set(nodes) != want_nodes:
        return (
            f"snapshot@{root}: {len(nodes)} nodes, live component has "
            f"{len(want_nodes)}"
        )
    if set(links) != want_links:
        return (
            f"snapshot@{root}: {len(links)} links, live component has "
            f"{len(want_links)}"
        )
    return None


def expect_critical(network, node: int, verdict: bool) -> str | None:
    want = node in articulation_points(live_adjacency(network), node)
    if bool(verdict) != want:
        return f"critical@{node}: said {verdict}, articulation DFS says {want}"
    return None


def expect_anycast(network, root: int, members, delivered_at) -> str | None:
    """Anycast delivers at *some* reachable member (or nowhere if none)."""
    reachable = component(live_adjacency(network), root) & set(members)
    if not reachable:
        if delivered_at is not None:
            return f"anycast@{root}: delivered at {delivered_at}, no member reachable"
        return None
    if delivered_at not in reachable:
        return f"anycast@{root}: delivered at {delivered_at}, members {sorted(reachable)}"
    return None


def expect_priocast(network, root: int, priorities, delivered_at) -> str | None:
    """Priocast delivers at the reachable member of highest priority
    (the workloads draw distinct priorities, so the winner is unique)."""
    reach = component(live_adjacency(network), root)
    candidates = {n: p for n, p in priorities.items() if n in reach}
    if not candidates:
        if delivered_at is not None:
            return f"priocast@{root}: delivered at {delivered_at}, no member reachable"
        return None
    want = max(candidates, key=lambda n: candidates[n])
    if delivered_at != want:
        return f"priocast@{root}: delivered at {delivered_at}, best member is {want}"
    return None


def expect_traverse(network, root: int, completed: bool, hops: int) -> str | None:
    """The bare DFS on a healthy component completes after crossing every
    tree edge twice and every other edge four times: 4E - 2n + 2."""
    adjacency = live_adjacency(network)
    reach = component(adjacency, root)
    edges = sum(len(adjacency[u]) for u in reach) // 2
    want = 4 * edges - 2 * len(reach) + 2
    if not completed:
        return f"traverse@{root}: did not complete"
    if hops != want:
        return f"traverse@{root}: {hops} hops, 4E-2n+2 = {want}"
    return None


def expect_blackhole(network, planted_edge: int, found: bool, location) -> str | None:
    """The verdict must name an endpoint of the planted link."""
    edge = network.links[planted_edge].edge
    ends = {(edge.a.node, edge.a.port), (edge.b.node, edge.b.port)}
    if not found:
        return f"blackhole: planted on edge {planted_edge}, nothing found"
    if tuple(location) not in ends:
        return f"blackhole: located {location}, planted at {sorted(ends)}"
    return None


def expect_healed(
    network, root: int, converged: bool, degraded: bool, nodes, links
) -> str | None:
    """A repair (readopt / resynchronize) must report convergence *and*
    the follow-up supervised snapshot must be exact, not degraded."""
    if not converged:
        return f"repair@{root}: did not converge"
    if degraded:
        return f"repair@{root}: healed snapshot is degraded"
    return expect_snapshot(network, root, nodes, links)


# --------------------------------------------------------------------- #
# Simulation digest                                                     #
# --------------------------------------------------------------------- #


def canonical(value) -> str:
    """Order-independent text form of nested sets / dicts / tuples."""
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    return repr(value)


class SimDigest:
    """Running hash of (op kind, answer) pairs."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, kind: str, answer) -> None:
        self._hash.update(f"{kind}={canonical(answer)}\n".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]
