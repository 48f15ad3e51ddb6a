"""The ownership manifest: who may own what in a sharded simulation.

The ROADMAP's next scale unlock partitions the simulated network across
worker processes.  That is only sound if every piece of runtime state has
exactly one owner, and everything that crosses a shard boundary goes
through an API a message layer could serialize.  This module writes that
contract down *declaratively* so the interprocedural rules
(:mod:`repro.analysis.static.shardrules`) can machine-check it:

* **shard-owned** — lives entirely inside one worker (a ``Switch`` and its
  tables, fast-path caches, per-traversal scratch).  Any code may mutate
  it; the shard boundary never sees it.
* **shard-crossing** — state two shards would both touch (``Link`` queues,
  the ``ControlChannel``, the event queue, the epoch clock).  Mutation is
  legal only inside the owning class or through the *channel API* below,
  because each such call site becomes a cross-process message.
* **frozen** — built once, then immutable and freely replicable
  (``Topology``, compiled service programs).  Mutation outside the
  declared *builders* breaks replicas silently.

The manifest also names the *effect providers* — the blessed determinism
seams (:mod:`repro.core.determinism`) whose calls map to clean effect
atoms instead of their raw ``random``/``time`` internals — and the
*sanctioned globals*: module-level registries that are mutated only at
import time and therefore identical in every shard.

Everything here is data, not code: a sharding refactor edits this file in
the same commit that moves an object across the boundary, and the CI
shardcheck job holds the codebase to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SHARD_OWNED = "shard-owned"
SHARD_CROSSING = "shard-crossing"
FROZEN = "frozen"

_OWNERSHIP_KINDS = (SHARD_OWNED, SHARD_CROSSING, FROZEN)


@dataclass(frozen=True)
class ShardManifest:
    """Declarative ownership contract for the runtime object graph."""

    #: bare class name -> ownership kind (classes not listed are
    #: unclassified: effect inference still tracks them, but the SHARD
    #: rules stay silent about their state).
    ownership: dict[str, str] = field(default_factory=dict)
    #: ``ClassName.method`` -> effect atom; calling one of these is the
    #: *sanctioned* way to touch shard-crossing state, so callers inherit
    #: the clean atom instead of the method's raw mutations.
    channel_api: dict[str, str] = field(default_factory=dict)
    #: ``ClassName.method`` entries allowed to mutate frozen state (the
    #: build phase).  ``__init__`` of a frozen class is always a builder.
    builders: frozenset[str] = frozenset()
    #: ``module.NAME`` module globals whose mutation is sanctioned
    #: (import-time registries, memoisation caches keyed on immutables).
    sanctioned_globals: frozenset[str] = frozenset()
    #: function/method FQN suffix -> effect atom (or None for "pure");
    #: the determinism seams whose internals are masked.
    providers: dict[str, str | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for cls, kind in self.ownership.items():
            if kind not in _OWNERSHIP_KINDS:
                raise ValueError(
                    f"unknown ownership kind {kind!r} for class {cls!r}"
                )

    # ------------------------------------------------------------------ #
    # Lookups (all keyed on suffixes so manifests survive module moves)  #
    # ------------------------------------------------------------------ #

    def ownership_of(self, class_name: str) -> str | None:
        """Ownership kind for a bare class name (last FQN component)."""
        return self.ownership.get(class_name.rsplit(".", 1)[-1])

    def _method_key(self, fqn: str) -> str | None:
        """``Class.method`` suffix of a method FQN, or None for functions."""
        parts = fqn.rsplit(".", 2)
        if len(parts) >= 2:
            return ".".join(parts[-2:])
        return None

    def channel_atom(self, fqn: str) -> str | None:
        """The sanctioned effect atom for calling *fqn*, if it is part of
        the channel API."""
        key = self._method_key(fqn)
        return self.channel_api.get(key) if key else None

    def is_builder(self, fqn: str) -> bool:
        key = self._method_key(fqn)
        if key is None:
            return False
        if key in self.builders:
            return True
        cls, _, method = key.partition(".")
        return method == "__init__" and self.ownership_of(cls) == FROZEN

    def provider_atom(self, fqn: str) -> tuple[bool, str | None]:
        """(is_provider, atom) for *fqn*; matched on dotted suffixes so
        both ``repro.core.determinism.seeded_rng`` and a fixture's
        ``determinism.seeded_rng`` hit."""
        for suffix, atom in self.providers.items():
            if fqn == suffix or fqn.endswith("." + suffix):
                return True, atom
        return False, None

    def is_sanctioned_global(self, module: str, name: str) -> bool:
        dotted = f"{module}.{name}"
        for entry in self.sanctioned_globals:
            if dotted == entry or dotted.endswith("." + entry):
                return True
        return False

    def to_dict(self) -> dict:
        return {
            "ownership": dict(sorted(self.ownership.items())),
            "channel_api": dict(sorted(self.channel_api.items())),
            "builders": sorted(self.builders),
            "sanctioned_globals": sorted(self.sanctioned_globals),
            "providers": dict(sorted(self.providers.items())),
        }


def default_manifest() -> ShardManifest:
    """The contract for this repository's runtime object graph.

    Kept in one place on purpose: when the sharded simulator moves an
    object across the boundary, this function is the diff reviewers read.
    """
    return ShardManifest(
        ownership={
            # One worker's private world: a switch, its flow state, and
            # the compiled fast path over it.
            "Switch": SHARD_OWNED,
            "FlowTable": SHARD_OWNED,
            "FlowEntry": SHARD_OWNED,
            "GroupTable": SHARD_OWNED,
            "Group": SHARD_OWNED,
            "FastPath": SHARD_OWNED,
            "FastTable": SHARD_OWNED,
            "Packet": SHARD_OWNED,
            "EpochGate": SHARD_OWNED,
            # State both sides of a cut would touch: every mutation is a
            # future cross-process message.
            "Link": SHARD_CROSSING,
            "ControlChannel": SHARD_CROSSING,
            "EpochClock": SHARD_CROSSING,
            "Simulator": SHARD_CROSSING,
            "Network": SHARD_CROSSING,
            "Trace": SHARD_CROSSING,
            # Built once, replicated everywhere.
            "Topology": FROZEN,
            "TagLayout": FROZEN,
        },
        channel_api={
            # The southbound control channel: the only sanctioned door
            # into another shard's switches.
            "ControlChannel.packet_out": "channel:send",
            "ControlChannel.packet_out_port": "channel:send",
            "ControlChannel._on_packet_in": "channel:recv",
            "ControlChannel.set_packet_in_handler": "channel:recv",
            "ControlChannel.disconnect": "channel:admin",
            "ControlChannel.reconnect": "channel:admin",
            # The channel's seeded fault model: fault installation and the
            # outage/partition switches are management-plane admin; the
            # internal queue scheduler is the send path's machinery.
            "ControlChannel.set_faults": "channel:admin",
            "ControlChannel.fail_controller": "channel:admin",
            "ControlChannel.restore_controller": "channel:admin",
            "ControlChannel.partition_window": "channel:admin",
            "ControlChannel.flap": "channel:admin",
            "ControlChannel.outage_window": "channel:admin",
            "ControlChannel._schedule": "channel:send",
            "ControlChannel._deliver_out": "channel:send",
            "ControlChannel._deliver_in": "channel:recv",
            # Controller process lifecycle (crash/restart are control-plane
            # admin events; a sharded run must broadcast them).
            "Controller.crash": "channel:admin",
            "Controller.restart": "channel:admin",
            # The event queue (a sharded run gives each worker a cursor).
            "Simulator.schedule": "event-queue",
            "Simulator.at": "event-queue",
            "Simulator.schedule_arrival": "event-queue",
            "Simulator.run": "event-queue",
            "Network.run": "event-queue",
            "Network.inject": "event-queue",
            "Network.transmit": "event-queue",
            "Network.at_packet_step": "event-queue",
            "Network.set_handler": "channel:admin",
            "Network.set_drain": "channel:admin",
            "Network.set_batch_handler": "channel:admin",
            "Network.set_controller_sink": "channel:admin",
            "Network.set_delivery_sink": "channel:admin",
            # Epoch advancement is a barrier in a sharded run; the
            # post-crash resync jump is the same barrier, repeated.
            "EpochClock.advance": "epoch:advance",
            "EpochClock.resync": "epoch:advance",
            # Fault injection / healing acts on the shared link fabric.
            # The module-level helpers in repro.net.failures are the
            # chaos campaigns' designated injection seam.
            "Network.fail_link": "link:admin",
            "Network.fail_edges": "link:admin",
            "failures.fail_random_links": "link:admin",
            "failures.fail_edge_after_steps": "link:admin",
            "failures.fail_link_after_steps": "link:admin",
            "failures.isolate_node": "link:admin",
            "failures.fail_region": "link:admin",
            "failures.restore_node": "link:admin",
            "failures.restore_region": "link:admin",
            "Link.set_blackhole": "link:admin",
            "Link.set_loss": "link:admin",
            "Link.set_duplication": "link:admin",
            "Link.set_jitter": "link:admin",
            "Link.clear": "link:admin",
            "Trace.record": "trace:append",
            "Trace.clear": "trace:append",
        },
        builders=frozenset(
            {
                "Topology.add_node",
                "Topology.add_edge",
                "Topology.add_link",
            }
        ),
        sanctioned_globals=frozenset(
            {
                # Import-time registries and memo caches keyed on
                # immutables — identical in every shard, already covered
                # by the sancheck RACE001 baseline.
                "repro.core.compiler._CODEGENS",
                "repro.openflow.fastpath._KEY_FN_CACHE",
            }
        ),
        providers={
            # Suffix-matched, so the blessed seams resolve wherever the
            # determinism module sits in the scanned tree.
            "determinism.seeded_rng": "rng:seeded",
            "determinism.derive_rng": "rng:seeded",
            "determinism.derive_seed": None,
            "determinism.wall_clock": "clock:wall",
            # Packet-id allocation: an owned allocator object inside the
            # provider (the paid-down ``_packet_ids`` EFF001 debt); a
            # sharded run deals each worker its own id range here.
            "determinism.next_packet_id": "packet-id",
            "determinism.reset_packet_ids": "packet-id",
            "determinism.PacketIdAllocator.allocate": "packet-id",
            "determinism.PacketIdAllocator.reset": "packet-id",
        },
    )


__all__ = [
    "FROZEN",
    "SHARD_CROSSING",
    "SHARD_OWNED",
    "ShardManifest",
    "default_manifest",
]
