"""The sharded PFS cell: a fig3-style workload partitioned into LPs.

A *cell* is one self-contained simulated cluster running one
mpi-io-test-shaped job -- the unit the CI determinism matrix and the
PDES speedup bench drive.  It reuses the real server-side stack
unmodified (:class:`~repro.pfs.dataserver.DataServer`,
:class:`~repro.iosched.blocklayer.BlockLayer`,
:class:`~repro.disk.drive.DiskDrive`, the server page cache) and
partitions the model along the domains of ``docs/partition_map.json``:

- ``server:ds{j}`` -- one LP per data server, owning its disk, block
  layer, and page cache;
- ``client:node{i}`` -- one LP per compute node, hosting the MPI ranks
  placed there (``rank % n_client_nodes``);
- ``meta`` -- the coordinator LP: metadata opens and the job barrier.

Cross-LP calls of the serial model (``PfsClient._rpc`` ->
``DataServer.handle``/``handle_list``, ``MetadataServer.rpc_*``) become timestamped
channel messages.  The network is re-expressed in *split-phase*
store-and-forward form so every resource hold is LP-local: the sender
holds its own NIC TX for ``overhead + n/bandwidth``, the message
propagates for ``latency_s`` (the lookahead derivation rule is
``lookahead(edge) = NetworkParams.latency_s``), and the receiver holds
its own NIC RX for ``n/bandwidth``.  End-to-end idle latency is
``overhead + 2*n/bandwidth + latency`` (the legacy
:meth:`~repro.net.ethernet.Network.transfer` charges the wire once
while holding both NICs -- a zero-lookahead coupling that cannot be
sharded -- so the cell model is its own reference: the serial
calendar-queue leg runs *this* model on one shared simulator).

Determinism: the cell's state is disjoint across LPs (the shared
:class:`~repro.pfs.filesystem.FileSystem` is immutable after build), so
the engine's ``(t, prio(src_lp), seq)`` merge makes every worker count
bit-identical to the serial leg; :func:`cell_digest` hashes the
canonical-JSON result (model observables only, never protocol stats).

Ownership: under ``REPRO_SANITIZE_OWNERSHIP=1`` the server-side request
handler is adopted into the *client's* LP and receives its grant from
``OwnershipChecker.on_transfer`` after the RX phase -- exactly the
happens-before edge the serial model gets from ``Network.transfer`` --
so ``DataServer.handle``'s guard proves message-mediated crossings stay
clean under sharding.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.disk.drive import DiskDrive, DiskParams
from repro.iosched import make_scheduler
from repro.iosched.blocklayer import BlockLayer
from repro.mpi.ops import BarrierOp, ComputeOp, IoOp
from repro.net.ethernet import Network, NetworkParams
from repro.pfs.client import CONTROL_MSG_BYTES
from repro.pfs.dataserver import DataServer, ServerRequest
from repro.pfs.filesystem import ExtentAllocator, FileSystem, PfsFile
from repro.pfs.layout import StripeLayout, StripePiece
from repro.pfs.metaserver import METADATA_MSG_BYTES, METADATA_OP_CPU_S
from repro.sim.core import Event, Simulator, all_of
from repro.sim.pdes.engine import LogicalProcess, Message, PdesEngine, PdesStats
from repro.workloads.mpi_io_test import MpiIoTest

__all__ = ["CellParams", "CellResult", "cell_digest", "run_sharded_cell"]

#: Per-hop software cost of an MPI message (mirrors MpiJob.MPI_HOP_OVERHEAD_S).
_MPI_HOP_OVERHEAD_S = 60e-6


@dataclass(frozen=True)
class CellParams:
    """Shape of one sharded cell (defaults: a small fig3-style read)."""

    n_servers: int = 4
    n_client_nodes: int = 2
    n_ranks: int = 4
    file_size: int = 8 * 1024 * 1024
    request_bytes: int = 64 * 1024
    op: str = "R"
    stripe_unit: int = 64 * 1024
    io_scheduler: str = "cfq"
    barrier_every: int = 1
    compute_per_call_s: float = 0.0
    disk_capacity_bytes: int = 10 * 10**9
    network: NetworkParams = field(default_factory=NetworkParams)

    def __post_init__(self) -> None:
        if self.n_servers < 1 or self.n_client_nodes < 1 or self.n_ranks < 1:
            raise ValueError("cell needs at least one server, client node, and rank")
        if self.file_size % self.request_bytes != 0:
            raise ValueError("file_size must be a multiple of request_bytes")

    # -- node-id layout (clients, then servers, then metadata) ----------

    @property
    def n_nodes(self) -> int:
        return self.n_client_nodes + self.n_servers + 1

    def client_node_id(self, i: int) -> int:
        return i

    def server_node_id(self, j: int) -> int:
        return self.n_client_nodes + j

    @property
    def metadata_node_id(self) -> int:
        return self.n_client_nodes + self.n_servers


@dataclass
class CellResult:
    """One cell run: the digest-able model result plus protocol stats."""

    digest: str
    results: dict[str, Any]
    stats: PdesStats
    elapsed_s: float
    wall_s: float
    events: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "elapsed_s": self.elapsed_s,
            "wall_s": self.wall_s,
            "events": self.events,
            "stats": self.stats.as_dict(),
            "results": self.results,
        }


def cell_digest(results: dict[str, Any]) -> str:
    """SHA-256 over the canonical-JSON model result.

    Model observables only: the engine's protocol stats (rounds, null
    messages, stalls) legitimately differ between serial and windowed
    modes and must never feed the digest.
    """
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _ShardNet:
    """The split-phase network half living inside one LP.

    Wraps a :class:`~repro.net.ethernet.Network` purely as a bundle of
    per-node NIC resources on this LP's simulator; only this LP's own
    nodes' NICs are ever requested, so every hold stays LP-local.
    """

    def __init__(self, sim: Simulator, params: CellParams) -> None:
        self.params = params.network
        self.net = Network(sim, params.n_nodes, params.network)
        self.sim = sim

    def wire_s(self, nbytes: int) -> float:
        return nbytes / self.params.bandwidth_bytes_s

    def tx(self, node: int, nbytes: int) -> Generator[Event, Any, None]:
        """Sender-side hold: serialise on the local NIC TX."""
        nic = self.net.nics[node]
        req = nic.tx.request()
        yield req
        try:
            yield self.sim.timeout(self.params.per_message_overhead_s + self.wire_s(nbytes))
            nic.bytes_sent += nbytes
        finally:
            nic.tx.release(req)

    def rx(self, node: int, nbytes: int) -> Generator[Event, Any, None]:
        """Receiver-side hold: serialise on the local NIC RX."""
        nic = self.net.nics[node]
        req = nic.rx.request()
        yield req
        try:
            yield self.sim.timeout(self.wire_s(nbytes))
            nic.bytes_received += nbytes
        finally:
            nic.rx.release(req)


class _ServerShard:
    """One ``server:ds{j}`` LP: the real data-server stack plus the
    message-facing request handler."""

    def __init__(
        self,
        lp: LogicalProcess,
        params: CellParams,
        server_index: int,
        fs: FileSystem,
        device: DiskDrive,
    ) -> None:
        self.lp = lp
        self.params = params
        self.server_index = server_index
        self.node_id = params.server_node_id(server_index)
        sim = lp.sim
        self.shardnet = _ShardNet(sim, params)
        self.block_layer = BlockLayer(
            sim, device, make_scheduler(params.io_scheduler), name=f"blk{server_index}"
        )
        self.ds = DataServer(
            sim,
            server_index=server_index,
            node_id=self.node_id,
            network=self.shardnet.net,
            fs=fs,
            device=device,
            block_layer=self.block_layer,
        )
        self.device = device
        self._own = sim._sanitizer.ownership if sim._sanitizer is not None else None
        lp.on("req", self._on_req)
        lp.result_fn = self.result

    def _on_req(self, msg: Message) -> None:
        proc = self.lp.sim.process(
            self._serve(msg), name=f"cell-ds{self.server_index}-rx"
        )
        if self._own is not None:
            # The service conversation starts in the *client's* LP; the
            # RX completion below grants it entry to this server's LP,
            # the same happens-before edge Network.transfer records.
            src_node: int = msg.payload[7]
            self._own.adopt(proc, f"client:node{src_node}")

    def _serve(self, msg: Message) -> Generator[Event, Any, None]:
        (token, fname, obj_off, length, op, stream_id, req_nbytes, src_node) = msg.payload
        yield from self.shardnet.rx(self.node_id, req_nbytes)
        if self._own is not None:
            self._own.on_transfer(src_node, self.node_id)
        done = self.ds.handle(
            ServerRequest(
                file_name=fname,
                object_offset=obj_off,
                length=length,
                op=op,
                stream_id=stream_id,
            )
        )
        yield done
        resp_nbytes = CONTROL_MSG_BYTES + (length if op == "R" else 0)
        yield from self.shardnet.tx(self.node_id, resp_nbytes)
        self.lp.send(msg.src, "resp", (token, resp_nbytes))

    def result(self) -> dict[str, Any]:
        pc = self.ds.page_cache
        dstats = self.device.stats
        return {
            "n_requests": self.ds.n_requests,
            "bytes_served": self.ds.bytes_served,
            "pc_hits": pc.n_hits,
            "pc_misses": pc.n_misses,
            "disk_requests": dstats.n_requests,
            "seek_sectors": dstats.total_seek_sectors,
            "blk_submitted": self.block_layer.stats.n_submitted,
        }


class _MetaShard:
    """The ``meta`` LP: open RPCs plus the job-wide barrier service."""

    def __init__(self, lp: LogicalProcess, params: CellParams, fs: FileSystem) -> None:
        self.lp = lp
        self.params = params
        self.fs = fs
        self.node_id = params.metadata_node_id
        self.shardnet = _ShardNet(lp.sim, params)
        self.n_opens = 0
        self.n_barriers = 0
        #: barrier epoch -> arrival count
        self._arrivals: dict[int, int] = {}
        self._client_lp_ids: list[int] = []
        self._own = lp.sim._sanitizer.ownership if lp.sim._sanitizer is not None else None
        if self._own is not None:
            self._own.tag(self, "meta")
            self._own.map_node(self.node_id, "meta")
        lp.on("open", self._on_open)
        lp.on("barr", self._on_barrier_arrive)
        lp.result_fn = self.result

    def _on_open(self, msg: Message) -> None:
        proc = self.lp.sim.process(self._serve_open(msg), name="cell-meta-open")
        if self._own is not None:
            src_node: int = msg.payload[3]
            self._own.adopt(proc, f"client:node{src_node}")

    def _serve_open(self, msg: Message) -> Generator[Event, Any, None]:
        token, fname, req_nbytes, src_node = msg.payload
        yield from self.shardnet.rx(self.node_id, req_nbytes)
        if self._own is not None:
            self._own.on_transfer(src_node, self.node_id)
            self._own.check(self, "rpc_open")
        self.fs.lookup(fname)
        yield self.lp.sim.timeout(METADATA_OP_CPU_S)
        self.n_opens += 1
        yield from self.shardnet.tx(self.node_id, METADATA_MSG_BYTES)
        self.lp.send(msg.src, "resp", (token, METADATA_MSG_BYTES))

    def _on_barrier_arrive(self, msg: Message) -> None:
        (epoch,) = msg.payload
        n = self._arrivals.get(epoch, 0) + 1
        if n < self.params.n_ranks:
            self._arrivals[epoch] = n
            return
        self._arrivals.pop(epoch, None)
        self.n_barriers += 1
        # Release every client LP in LP-id order (deterministic seq).
        for lp_id in self._client_lp_ids:
            self.lp.send(lp_id, "brel", (epoch,))

    def result(self) -> dict[str, Any]:
        return {"n_opens": self.n_opens, "n_barriers": self.n_barriers}


class _ClientShard:
    """One ``client:node{i}`` LP hosting its share of the MPI ranks."""

    def __init__(
        self,
        lp: LogicalProcess,
        params: CellParams,
        node_index: int,
        fs: FileSystem,
        layout: StripeLayout,
        workload: MpiIoTest,
        meta_lp_id: int,
        server_lp_ids: list[int],
    ) -> None:
        self.lp = lp
        self.params = params
        self.node_id = params.client_node_id(node_index)
        self.fs = fs
        self.layout = layout
        self.workload = workload
        self.meta_lp_id = meta_lp_id
        self.server_lp_ids = server_lp_ids
        self.shardnet = _ShardNet(lp.sim, params)
        self._token = 0
        self._pending: dict[int, Event] = {}
        #: barrier epoch -> release event shared by this node's ranks
        self._barrier_release: dict[int, Event] = {}
        self._barrier_cost = (
            2
            * math.ceil(math.log2(max(params.n_ranks, 2)))
            * (params.network.latency_s + _MPI_HOP_OVERHEAD_S)
        )
        self.rank_metrics: dict[int, dict[str, Any]] = {}
        self._own = lp.sim._sanitizer.ownership if lp.sim._sanitizer is not None else None
        if self._own is not None:
            self._own.map_node(self.node_id, f"client:node{self.node_id}")
        lp.on("resp", self._on_resp)
        lp.on("brel", self._on_barrier_release)
        lp.result_fn = self.result
        self.ranks = [
            r for r in range(params.n_ranks) if r % params.n_client_nodes == node_index
        ]
        for rank in self.ranks:
            proc = lp.sim.process(self._rank_body(rank), name=f"cell-rank{rank}")
            if self._own is not None:
                self._own.adopt(proc, f"client:node{self.node_id}")

    # -- message handlers ----------------------------------------------

    def _on_resp(self, msg: Message) -> None:
        token: int = msg.payload[0]
        self._pending.pop(token).succeed(msg.payload)

    def _on_barrier_release(self, msg: Message) -> None:
        (epoch,) = msg.payload
        ev = self._barrier_release.pop(epoch, None)
        if ev is not None:
            ev.succeed()

    # -- rank-side plumbing --------------------------------------------

    def _call(
        self, dst_lp: int, kind: str, payload_head: tuple[Any, ...], req_nbytes: int
    ) -> Generator[Event, Any, tuple[Any, ...]]:
        """One request/response conversation: TX hold, send, await reply,
        RX hold for the reply's wire time.  Returns the reply payload."""
        yield from self.shardnet.tx(self.node_id, req_nbytes)
        token = self._token
        self._token += 1
        ev = self.lp.sim.event()
        self._pending[token] = ev
        self.lp.send(dst_lp, kind, (token,) + payload_head + (req_nbytes, self.node_id))
        reply: tuple[Any, ...] = yield ev
        resp_nbytes: int = reply[1]
        yield from self.shardnet.rx(self.node_id, resp_nbytes)
        return reply

    def _do_piece(
        self, f: PfsFile, piece: StripePiece, op: str, stream_id: int
    ) -> Generator[Event, Any, None]:
        req_nbytes = CONTROL_MSG_BYTES + (piece.length if op == "W" else 0)
        yield from self._call(
            self.server_lp_ids[piece.server],
            "req",
            (f.name, piece.object_offset, piece.length, op, stream_id),
            req_nbytes,
        )

    def _io(
        self, f: PfsFile, offset: int, length: int, op: str, stream_id: int
    ) -> Generator[Event, Any, None]:
        pieces = self.layout.split(offset, length)
        procs = [
            self.lp.sim.process(
                self._do_piece(f, p, op, stream_id), name="cell-piece"
            )
            for p in pieces
        ]
        yield all_of(self.lp.sim, procs)

    def _open(self, fname: str) -> Generator[Event, Any, None]:
        yield from self._call(self.meta_lp_id, "open", (fname,), METADATA_MSG_BYTES)

    def _barrier(self, epoch: int) -> Generator[Event, Any, None]:
        release = self._barrier_release.get(epoch)
        if release is None:
            release = self.lp.sim.event()
            self._barrier_release[epoch] = release
        self.lp.send(self.meta_lp_id, "barr", (epoch,))
        yield release
        yield self.lp.sim.timeout(self._barrier_cost)

    def _rank_body(self, rank: int) -> Generator[Event, Any, None]:
        sim = self.lp.sim
        params = self.params
        metrics: dict[str, Any] = {
            "io_time_s": 0.0,
            "compute_time_s": 0.0,
            "bytes_read": 0,
            "bytes_written": 0,
            "n_io_calls": 0,
            "finish_t": 0.0,
        }
        self.rank_metrics[rank] = metrics
        yield from self._open(self.workload.file_name)
        f = self.fs.lookup(self.workload.file_name)
        epoch = 0
        for op in self.workload.ops(rank, params.n_ranks):
            if isinstance(op, ComputeOp):
                if op.seconds > 0:
                    yield sim.timeout(op.seconds)
                metrics["compute_time_s"] += op.seconds
            elif isinstance(op, BarrierOp):
                t0 = sim.now
                yield from self._barrier(epoch)
                epoch += 1
                metrics["compute_time_s"] += sim.now - t0
            elif isinstance(op, IoOp):
                t0 = sim.now
                for seg in op.segments:
                    yield from self._io(f, seg.offset, seg.length, op.op, stream_id=rank)
                metrics["io_time_s"] += sim.now - t0
                metrics["n_io_calls"] += 1
                if op.op == "R":
                    metrics["bytes_read"] += op.total_bytes
                else:
                    metrics["bytes_written"] += op.total_bytes
        metrics["finish_t"] = sim.now

    def result(self) -> dict[str, Any]:
        return {
            "node": self.node_id,
            "ranks": {str(r): self.rank_metrics[r] for r in self.ranks},
        }


def _build(engine: PdesEngine, params: CellParams) -> None:
    """Construct the LP graph: meta, clients, servers, and all channels."""
    workload = MpiIoTest(
        file_size=params.file_size,
        request_bytes=params.request_bytes,
        op=params.op,
        barrier_every=params.barrier_every,
        compute_per_call=params.compute_per_call_s,
    )
    meta_lp = engine.add_lp("meta")
    client_lps = [
        engine.add_lp(f"client:node{params.client_node_id(i)}")
        for i in range(params.n_client_nodes)
    ]
    server_lps = [engine.add_lp(f"server:ds{j}") for j in range(params.n_servers)]

    layout = StripeLayout(params.n_servers, params.stripe_unit)
    disk_params = DiskParams(capacity_bytes=params.disk_capacity_bytes)
    devices = [
        DiskDrive(server_lps[j].sim, disk_params, name=f"disk{j}")
        for j in range(params.n_servers)
    ]
    allocators = [
        ExtentAllocator(devices[j].total_sectors, placement="spread")
        for j in range(params.n_servers)
    ]
    fs = FileSystem(layout, allocators)
    for fspec in workload.files():
        # The namespace is complete before the first event: immutable
        # shared state, safe to reference from every LP.
        fs.create(fspec.name, fspec.size)

    la = params.network.latency_s
    for c in client_lps:
        engine.connect(c, meta_lp, la)
        engine.connect(meta_lp, c, la)
        for s in server_lps:
            engine.connect(c, s, la)
            engine.connect(s, c, la)

    meta = _MetaShard(meta_lp, params, fs)
    meta._client_lp_ids = [c.lp_id for c in client_lps]
    for j in range(params.n_servers):
        _ServerShard(server_lps[j], params, j, fs, devices[j])
    for i in range(params.n_client_nodes):
        _ClientShard(
            client_lps[i],
            params,
            i,
            fs,
            layout,
            workload,
            meta_lp.lp_id,
            [s.lp_id for s in server_lps],
        )


def run_sharded_cell(
    params: Optional[CellParams] = None,
    workers: int = 0,
    observe: Optional[Any] = None,
) -> CellResult:
    """Build and run one cell; ``workers=0`` is the serial reference."""
    params = params or CellParams()
    engine = PdesEngine(workers=workers, observe=observe)
    _build(engine, params)
    # Wall-clock here measures the host (bench speedups), never feeds
    # back into simulated time -- digests stay bit-identical.
    t0 = time.perf_counter()  # simlint: ignore[SL002]
    stats = engine.run()
    wall = time.perf_counter() - t0  # simlint: ignore[SL002]
    results = engine.lp_results
    elapsed = max(
        (
            float(r["finish_t"])
            for name, lp_res in results.items()
            if name.startswith("client:")
            for r in lp_res["ranks"].values()
        ),
        default=0.0,
    )
    return CellResult(
        digest=cell_digest(results),
        results=results,
        stats=stats,
        elapsed_s=elapsed,
        wall_s=wall,
        events=stats.committed,
    )
