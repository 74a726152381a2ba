"""A multi-node Cassandra cluster: partitioning and replication.

The thesis tuned ``num-of-tokens`` and ``num-of-nodes`` trying to tame
Cassandra's RISC-V boot times (§3.3.3.2); this module makes those knobs
real.  A :class:`CassandraCluster` hashes every key onto a token ring of
virtual nodes (``num_tokens`` per physical node), stores ``replication``
copies clockwise around the ring, and serves reads at a configurable
consistency level — including after node failures, which is the point of
running Cassandra at all.

The cluster satisfies the :class:`~repro.db.engine.Datastore` interface,
so it drops into the Hotel suite wherever a single store does.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.db.cassandra import CassandraStore
from repro.db.engine import Datastore, WorkReceipt
# One error taxonomy for node loss: the cluster serving platform and
# this datastore cluster raise the same type, driven by the same
# ``cluster.node_down`` fault site (re-exported here for back-compat —
# ``repro.db.NodeDownError`` predates ``repro.faults.NodeDownError``).
from repro.faults.plan import NodeDownError

__all__ = ["CassandraCluster", "NodeDownError"]

_RING_SPACE = 2 ** 32


def _token(value: str) -> int:
    return zlib.crc32(value.encode()) % _RING_SPACE


class CassandraCluster(Datastore):
    """Token-ring cluster of CassandraStore nodes."""

    name = "cassandra"  # drop-in for the single-node store
    riscv_friendly = True
    boot_profile = CassandraStore.boot_profile

    def __init__(self, nodes: int = 3, num_tokens: int = 16,
                 replication: int = 2, consistency: str = "ONE"):
        super().__init__()
        if nodes < 1:
            raise ValueError("cluster needs at least one node")
        if not 1 <= replication <= nodes:
            raise ValueError("replication must be within [1, nodes]")
        if consistency not in ("ONE", "QUORUM", "ALL"):
            raise ValueError("consistency must be ONE, QUORUM or ALL")
        self.num_nodes = nodes
        self.num_tokens = num_tokens
        self.replication = replication
        self.consistency = consistency
        self.nodes: List[CassandraStore] = [
            CassandraStore(num_tokens=num_tokens) for _ in range(nodes)
        ]
        self._up = [True] * nodes
        # Token ring: (token, node_index), num_tokens vnodes per node.
        ring: List[Tuple[int, int]] = []
        for node_index in range(nodes):
            for vnode in range(num_tokens):
                ring.append((_token("node%d-vnode%d" % (node_index, vnode)),
                             node_index))
        self._ring = sorted(ring)
        self._ring_tokens = [token for token, _node in self._ring]
        #: Optional :class:`~repro.faults.FaultInjector`; every operation
        #: then draws at ``cluster.node_down`` and a fire takes a live
        #: node down before the consistency check runs — the same site
        #: and error type the serverless cluster platform uses.  Same
        #: guard-on-``None`` discipline as the tracer.
        self.faults = None

    # -- topology -------------------------------------------------------------

    def replicas_for(self, key: str) -> List[int]:
        """The distinct nodes holding a key, walking the ring clockwise."""
        start = bisect.bisect(self._ring_tokens, _token(key)) % len(self._ring)
        owners: List[int] = []
        position = start
        while len(owners) < self.replication:
            node = self._ring[position][1]
            if node not in owners:
                owners.append(node)
            position = (position + 1) % len(self._ring)
        return owners

    def _required_acks(self) -> int:
        if self.consistency == "ONE":
            return 1
        if self.consistency == "QUORUM":
            return self.replication // 2 + 1
        return self.replication

    def fail_node(self, index: int) -> None:
        self._up[index] = False

    def recover_node(self, index: int) -> None:
        self._up[index] = True

    def live_nodes(self) -> int:
        return sum(self._up)

    def _live_replicas(self, key: str) -> List[int]:
        return [node for node in self.replicas_for(key) if self._up[node]]

    def _maybe_node_down(self) -> None:
        """Injected node failure: one deterministic draw per operation.

        A fire takes down the highest-indexed live node (a fixed, seed-
        independent victim rule keeps the outcome a pure function of the
        injector's draws).  The node stays down until
        :meth:`recover_node` — subsequent operations then surface
        :class:`~repro.faults.NodeDownError` wherever the replica count
        no longer meets the consistency level.
        """
        faults = self.faults
        if faults is None or not faults.should_fire("cluster.node_down"):
            return
        for index in range(self.num_nodes - 1, -1, -1):
            if self._up[index]:
                self.fail_node(index)
                return

    # -- metering: fold node receipts into the cluster's ----------------------

    def _absorb(self, node_index: int) -> None:
        self.receipt.merge(self.nodes[node_index].take_receipt())
        # Coordinator hop per replica contact.
        self.receipt.add(cpu_work=20)

    # -- Datastore interface --------------------------------------------------

    def put(self, table: str, key: str, record: Dict[str, Any]) -> None:
        self._maybe_node_down()
        live = self._live_replicas(key)
        required = self._required_acks()
        if len(live) < required:
            raise NodeDownError(
                "write %r needs %d acks, only %d replicas up"
                % (key, required, len(live))
            )
        self.receipt.add(ops=1)  # coordinator round trip
        for node_index in self._live_replicas(key):
            self.nodes[node_index].put(table, key, record)
            self._absorb(node_index)

    def get(self, table: str, key: str) -> Optional[Dict[str, Any]]:
        self._maybe_node_down()
        live = self._live_replicas(key)
        required = self._required_acks()
        if len(live) < required:
            raise NodeDownError(
                "read %r needs %d replicas, only %d up"
                % (key, required, len(live))
            )
        self.receipt.add(ops=1)
        result: Optional[Dict[str, Any]] = None
        for node_index in live[:required]:
            candidate = self.nodes[node_index].get(table, key)
            self._absorb(node_index)
            if candidate is not None:
                result = candidate
        return result

    def delete(self, table: str, key: str) -> bool:
        self._maybe_node_down()
        live = self._live_replicas(key)
        if len(live) < self._required_acks():
            raise NodeDownError("delete %r: not enough replicas up" % key)
        self.receipt.add(ops=1)
        existed = False
        for node_index in live:
            existed = self.nodes[node_index].delete(table, key) or existed
            self._absorb(node_index)
        return existed

    def scan(self, table: str) -> Iterator[Dict[str, Any]]:
        """Every live node's rows merged by key: one row per key, in key
        order.

        Replicas are not reconciled.  Where copies of a key diverge (a
        write or delete that a down replica missed), the copy from the
        highest-indexed live node that still holds the key wins.
        """
        self._maybe_node_down()
        self.receipt.add(ops=1)
        seen: Dict[str, Dict[str, Any]] = {}
        for node_index, node in enumerate(self.nodes):
            if not self._up[node_index]:
                continue
            seen.update(node._scan_pairs(table))
            self._absorb(node_index)
        for key in sorted(seen):
            yield seen[key]

    def query(self, table: str, **equals: Any) -> List[Dict[str, Any]]:
        results = []
        for row in self.scan(table):
            if all(row.get(field) == value for field, value in equals.items()):
                self.receipt.add(rows_returned=1, serializations=1)
                results.append(row)
        return results

    def flush_all(self) -> None:
        for node in self.nodes:
            node.flush_all()

    def data_bytes(self) -> int:
        return sum(node.data_bytes() for node in self.nodes)

    def __repr__(self) -> str:
        return "CassandraCluster(%d nodes, RF=%d, %s, %d up)" % (
            self.num_nodes, self.replication, self.consistency,
            self.live_nodes(),
        )
