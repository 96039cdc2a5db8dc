"""Client-side PFS operations: striping, request fan-out, payload moves.

Every request takes one path, :meth:`PfsClient._rpc`: a request message
travels to the owning data server, the server performs the disk I/O, and
a reply returns.  A write's payload travels with the request, a read's
with the reply.  Two front ends pack pieces into exchanges:

- :meth:`PfsClient.io` sends each stripe piece of one contiguous range
  as its own request -- the synchronous MPI-IO semantics DualPar's
  vanilla baseline exhibits.
- :meth:`PfsClient.io_list` is list I/O: "we use list I/O to pack small
  requests and issue them in ascending order of the requested data's
  offsets in the files to improve disk efficiency" (paper SIV-D).  Each
  data server receives one message naming every object-contiguous run
  it owns, and submits them to its block layer together.

Exchanges proceed in parallel; the call completes when the last does.

Under fault injection (``client.faults`` set by the installer) every
exchange runs through :meth:`PfsClient.robust_call`: requests to servers
the metadata server reports down park on the recovery event; live
requests race a size-aware timeout and retry with exponential backoff,
re-sending the same ``req_id`` so the server can commit a write exactly
once.  Nominally ``faults`` is None and none of this code runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Union

from repro.obs.tracing import NULL_SPAN
from repro.pfs.dataserver import DataServer, ServerRequest, _absorb_interrupt
from repro.pfs.filesystem import PfsFile
from repro.pfs.layout import StripeLayout
from repro.net.ethernet import Network
from repro.sim import Event, Simulator, all_of, any_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.ops import Segment

__all__ = ["PfsClient"]

#: Size of a request/acknowledge control message.
CONTROL_MSG_BYTES = 128

#: Wire bytes describing one (offset, length) piece in a list request.
PER_PIECE_HEADER_BYTES = 16


class PfsClient:
    """The PFS library linked into one compute node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        network: Network,
        servers: list[DataServer],
        layout: StripeLayout,
    ):
        self.sim = sim
        self.node_id = node_id
        self.network = network
        self.servers = servers
        self.layout = layout
        self.bytes_read = 0
        self.bytes_written = 0
        #: FaultInjector when a plan is installed, None nominally.
        self.faults = None
        self.n_timeouts = 0
        self.n_retries = 0
        self.n_failovers = 0
        self._tracer = sim.obs.tracer if sim.obs.enabled else None

    # -- fault-aware retry loop ------------------------------------------

    def robust_call(self, make_attempt, server_index: int, nbytes: int = 0) -> Generator:
        """Run ``make_attempt()`` (a fresh generator per call) against one
        server with health-gated dispatch, timeout, and backoff."""
        faults = self.faults
        sim = self.sim
        policy = faults.retry
        health = faults.health
        timeout_s = policy.timeout_for(nbytes)
        attempt = 0
        while True:
            if not health.is_up(server_index):
                # Down per metadata: don't burn the retry budget against
                # a black hole -- park until the server returns.
                self.n_failovers += 1
                yield health.recovery_event(server_index)
            proc = sim.process(_absorb_interrupt(make_attempt()), name="pfs-attempt")
            gate = sim.timeout(timeout_s)
            yield any_of(sim, [proc, gate])
            if proc.triggered:
                return
            proc.interrupt("request-timeout")
            self.n_timeouts += 1
            faults.record_timeout(server_index)
            attempt += 1
            if attempt > policy.max_retries:
                from repro.faults.injector import RequestTimeout

                raise RequestTimeout(
                    f"client {self.node_id} -> ds{server_index}: request dead "
                    f"after {attempt} attempts ({nbytes} bytes, "
                    f"timeout {timeout_s:.3f}s)"
                )
            self.n_retries += 1
            yield sim.timeout(policy.backoff_s(attempt, rng=faults.rng))

    # -- the request path --------------------------------------------------

    def _rpc(
        self,
        server: DataServer,
        reqs: Union[ServerRequest, list[ServerRequest]],
        header: int,
        payload: int,
    ) -> Generator:
        """One exchange with ``server``: request out, service, reply back.

        ``reqs`` is one request (per-piece I/O, serviced by
        :meth:`DataServer.handle`) or a list of them sent in one message
        (list I/O, serviced by :meth:`DataServer.handle_list`).
        ``header`` is the request message's size without payload;
        ``payload`` is the data bytes the exchange moves.
        """
        net = self.network
        if isinstance(reqs, list):
            write = reqs[0].op == "W"
        else:
            write = reqs.op == "W"
        yield from net.transfer(
            self.node_id, server.node_id, header + payload if write else header
        )
        if isinstance(reqs, list):
            yield server.handle_list(reqs)
        else:
            yield server.handle(reqs)
        yield from net.transfer(
            server.node_id,
            self.node_id,
            CONTROL_MSG_BYTES if write else CONTROL_MSG_BYTES + payload,
        )

    def _fan_out(self, exchanges: list[tuple]) -> Event:
        """Start one process per ``(server_index, reqs, header, payload,
        name)`` exchange; return the event that fires when all replied.

        Under fault injection each exchange runs through
        :meth:`robust_call`, which re-sends the same ``reqs`` (and so the
        same write ids) on every attempt.
        """
        sim = self.sim
        servers = self.servers
        if self.faults is None:
            procs = [
                sim.process(self._rpc(servers[s], reqs, header, payload), name=name)
                for s, reqs, header, payload, name in exchanges
            ]
        else:
            procs = [
                sim.process(
                    self.robust_call(
                        lambda s=s, reqs=reqs, header=header, payload=payload: self._rpc(
                            servers[s], reqs, header, payload
                        ),
                        s,
                        nbytes=payload,
                    ),
                    name=name,
                )
                for s, reqs, header, payload, name in exchanges
            ]
        return all_of(sim, procs)

    def _count(self, op: str, nbytes: int) -> None:
        if op == "R":
            self.bytes_read += nbytes
        else:
            self.bytes_written += nbytes

    def io(
        self,
        f: PfsFile,
        offset: int,
        length: int,
        op: str,
        stream_id: int,
    ) -> Generator:
        """Perform one contiguous file read/write, one request per stripe
        piece; yield until complete."""
        if op not in ("R", "W"):
            raise ValueError(f"op must be 'R' or 'W', got {op!r}")
        if offset < 0 or offset + length > f.size:
            raise ValueError(
                f"range [{offset}, {offset + length}) outside file {f.name} of {f.size} bytes"
            )
        if length == 0:
            return
        pieces = self.layout.split(offset, length)
        tr = self._tracer
        trace_id = tr.trace_of_stream(stream_id) if tr is not None else 0
        faults = self.faults
        # Write ids are assigned once per piece, before any attempt, so
        # every retry re-sends the same id (exactly-once commit).
        stamp = faults is not None and op == "W"
        done = self._fan_out(
            [
                (
                    p.server,
                    ServerRequest(
                        file_name=f.name,
                        object_offset=p.object_offset,
                        length=p.length,
                        op=op,
                        stream_id=stream_id,
                        trace_id=trace_id,
                        req_id=faults.next_request_id() if stamp else None,
                    ),
                    CONTROL_MSG_BYTES,
                    p.length,
                    "pfs-piece",
                )
                for p in pieces
            ]
        )
        # Async span: one client node can have overlapping I/O calls.
        span = (
            tr.span(
                "pfs.io",
                track=f"client{self.node_id}",
                cat="pfs",
                trace=trace_id,
                async_=True,
                file=f.name,
                op=op,
                offset=offset,
                length=length,
                pieces=len(pieces),
                lp=f"client:node{self.node_id}",
            )
            if tr is not None
            else NULL_SPAN
        )
        with span:
            yield done
        self._count(op, length)

    def io_list(
        self,
        f: PfsFile,
        segments: list["Segment"],
        op: str,
        stream_id: int,
    ) -> Generator:
        """Issue ``segments`` of file ``f`` as list I/O; yield until done.

        Pieces are grouped per data server and object-contiguous runs
        coalesced, across segments too; each server receives one message.
        """
        if op not in ("R", "W"):
            raise ValueError(f"op must be 'R' or 'W', got {op!r}")
        if not segments:
            return
        by_server: dict[int, list[ServerRequest]] = {}
        for seg in segments:
            if seg.offset < 0 or seg.end > f.size:
                raise ValueError(f"segment {seg} outside file {f.name} of {f.size} bytes")
            for piece in self.layout.split_coalesced(seg.offset, seg.length):
                runs = by_server.setdefault(piece.server, [])
                if runs and runs[-1].object_offset + runs[-1].length == piece.object_offset:
                    runs[-1].length += piece.length
                else:
                    runs.append(
                        ServerRequest(
                            file_name=f.name,
                            object_offset=piece.object_offset,
                            length=piece.length,
                            op=op,
                            stream_id=stream_id,
                        )
                    )
        exchanges = []
        faults = self.faults
        for s in sorted(by_server):
            reqs = by_server[s]
            if faults is not None and op == "W":
                # Stamped per server in sorted order, before any attempt:
                # a timed-out batch is re-sent with the same ids, so the
                # server commits each run once.
                for req in reqs:
                    req.req_id = faults.next_request_id()
            exchanges.append(
                (
                    s,
                    reqs,
                    CONTROL_MSG_BYTES + PER_PIECE_HEADER_BYTES * len(reqs),
                    sum(r.length for r in reqs),
                    f"listio-s{s}",
                )
            )
        yield self._fan_out(exchanges)
        self._count(op, sum(ex[3] for ex in exchanges))
