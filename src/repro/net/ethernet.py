"""Bandwidth/latency network with per-NIC serialisation.

Transfer model: a message of ``n`` bytes from A to B

1. waits for A's TX side, then for B's RX side (in that order, so holds
   never form a cycle);
2. holds both for one wire charge of ``overhead + latency + n / bandwidth``;
3. releases both.

End-to-end time is ``overhead + latency + n/bw`` when idle.  A busy
receiver queues its senders, which keep their TX held while they wait,
so many clients targeting one server produce fan-in queueing at both
ends.  Holding both NICs at once couples sender and receiver with zero
lookahead, which is why this model runs on one serial simulator.
Under fault injection, a partition wait and injected latency come first,
before either NIC is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.sim import Resource, Simulator

__all__ = ["Network", "NetworkParams", "Nic"]


@dataclass(frozen=True)
class NetworkParams:
    """Defaults model the Darwin cluster's switched GigE."""

    bandwidth_bytes_s: float = 117e6  # ~GigE after protocol overheads
    latency_s: float = 50e-6
    per_message_overhead_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0 or self.per_message_overhead_s < 0:
            raise ValueError("latency/overhead must be non-negative")


class Nic:
    """Full-duplex NIC: independent TX and RX serialisation points."""

    def __init__(self, sim: Simulator, node_id: int):
        self.node_id = node_id
        self.tx = Resource(sim, capacity=1)
        self.rx = Resource(sim, capacity=1)
        self.bytes_sent = 0
        self.bytes_received = 0


class Network:
    """A switch connecting ``n_nodes`` NICs."""

    def __init__(self, sim: Simulator, n_nodes: int, params: NetworkParams | None = None):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.sim = sim
        self.params = params or NetworkParams()
        self.nics = [Nic(sim, i) for i in range(n_nodes)]
        self.messages_delivered = 0
        #: Degradation state installed by the fault injector (None
        #: nominally; see repro.faults.injector.NetFault).
        self.fault = None

    def n_nodes(self) -> int:
        return len(self.nics)

    def transfer(self, src: int, dst: int, nbytes: int) -> Generator:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        A generator to ``yield from`` inside the caller's process; returns
        when the last byte lands.  Loopback (src == dst) costs only the
        per-message overhead (shared memory).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        p = self.params
        san = sim._sanitizer
        owncheck = san.ownership if san is not None else None
        if src == dst:
            yield sim.timeout(p.per_message_overhead_s)
            self.messages_delivered += 1
            if owncheck is not None:
                owncheck.on_transfer(src, dst)
            return
        src_nic, dst_nic = self.nics[src], self.nics[dst]
        wire_time = nbytes / p.bandwidth_bytes_s

        fault = self.fault
        if fault is not None:
            # Partition wait + injected latency/jitter, before any NIC is
            # held so a cut never pins resources.
            yield from fault.gate(src, dst)

        # Hold TX and RX simultaneously over a single wire occupation so
        # transfer time is charged once while both endpoints serialise.
        # Acquisition order (own TX, then destination RX) is cycle-free.
        tx_req = src_nic.tx.request()
        yield tx_req
        rx_req = dst_nic.rx.request()
        yield rx_req
        try:
            yield sim.timeout(p.per_message_overhead_s + p.latency_s + wire_time)
            src_nic.bytes_sent += nbytes
            dst_nic.bytes_received += nbytes
        finally:
            dst_nic.rx.release(rx_req)
            src_nic.tx.release(tx_req)
        self.messages_delivered += 1
        if owncheck is not None:
            owncheck.on_transfer(src, dst)
