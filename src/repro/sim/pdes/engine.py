"""Conservative parallel-DES engine: one model, many logical processes.

Shards one simulation into :class:`LogicalProcess` (LP) partitions -- the
domains committed by the simown pass in ``docs/partition_map.json`` --
and runs them under a conservative synchronization protocol (a
Chandy-Misra-Bryant null-message scheme batched into barrier windows, in
the family of YAWNS / bounded-lag).  Cross-LP interaction happens only
through timestamped :class:`Message` channels with a strictly positive
*lookahead* (the minimum latency a message needs to cross the edge,
derived from :class:`repro.net.ethernet.NetworkParams.latency_s`), so
each LP can always execute safely up to its *earliest input time* (EIT).

Execution modes (``PdesEngine(workers=...)``):

- ``workers=0`` -- **serial reference**: every LP shares one
  :class:`~repro.sim.core.Simulator`; a send schedules the delivery
  event directly.  This is "the serial calendar-queue run" the sharded
  modes must be bit-identical to.
- ``workers=1`` -- **inline windowed**: each LP owns a private
  simulator; the synchronization rounds run in-process.  Exercises the
  full protocol (horizons, message routing, null-message accounting)
  without forking.
- ``workers>=2`` -- **multiprocess**: LPs are assigned round-robin
  (``lp_id % workers``) to forked worker processes; a parent-side hub
  exchanges ``(next-event times, messages)`` per round over pipes and
  broadcasts EIT horizons back.

Determinism: results are identical in every mode and for every worker
count, by construction --

1. A delivery for a message from LP *s* is scheduled at priority
   ``MSG_PRIO_BASE + s``: above :data:`~repro.sim.core.NORMAL`, so at
   equal time it runs *after* the destination's local events in every
   mode, and distinct senders occupy distinct priority bands.
2. Within one ``(time, band)`` the queue is FIFO and messages are
   injected in ``(time, src, seq)`` order, where ``seq`` is the
   sender's local send order -- exactly the order serial mode pushes
   them.  The full merge key is therefore ``(t, prio(src), seq)``.
3. Window boundaries only *defer* execution, never reorder it, and EIT
   horizons are a pure function of global LP state -- never of worker
   placement -- so stats like round counts are also placement-invariant.

The protocol cannot deadlock: every lookahead is strictly positive, so
the LP holding the globally minimal next-event time always receives a
horizon strictly above it (``EIT >= min_nvt + min_lookahead``).  A
defensive :class:`PdesDeadlock` guards the invariant at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional, Union

import numpy as np

from repro.sim.core import Event, SimulationError, Simulator

__all__ = [
    "Channel",
    "LogicalProcess",
    "MSG_PRIO_BASE",
    "Message",
    "PdesDeadlock",
    "PdesEngine",
    "PdesError",
    "PdesStats",
]

#: Priority band floor for cross-LP message deliveries.  Far above
#: NORMAL(=1): at equal time a delivery always runs after the
#: destination LP's local events, and each source LP gets its own band
#: (``MSG_PRIO_BASE + src_lp``) so the merge key ``(t, prio, seq)``
#: realises the deterministic ``(t, src_lp, seq)`` tie-break.
MSG_PRIO_BASE = 1 << 20


class PdesError(SimulationError):
    """Raised for misuse of the parallel-DES layer."""


class PdesDeadlock(PdesError):
    """The conservative protocol stopped making progress.

    Unreachable when every channel has positive lookahead; kept as a
    runtime guard for the no-deadlock invariant.
    """


class Message(NamedTuple):
    """A timestamped cross-LP message (picklable for worker transport)."""

    time: float
    dst: int
    src: int
    seq: int
    kind: str
    payload: tuple[Any, ...]

    @property
    def sort_key(self) -> tuple[float, int, int]:
        """The deterministic injection order: ``(t, src_lp, seq)``."""
        return (self.time, self.src, self.seq)


@dataclass(frozen=True)
class Channel:
    """A directed cross-LP edge with strictly positive lookahead."""

    src: int
    dst: int
    lookahead: float


@dataclass
class PdesStats:
    """Protocol-level instrumentation for one engine run.

    ``rounds``/``null_messages``/``horizon_stalls`` are zero in serial
    mode (there is no protocol to account).  ``committed`` counts
    dispatched events -- all conservative, hence "rollback-free".
    These counters describe the *protocol*, not the model: digests over
    simulation results must not include them (windowed and serial modes
    legitimately differ here even though the model results are
    bit-identical).
    """

    mode: str = "serial"
    workers: int = 0
    rounds: int = 0
    null_messages: int = 0
    payload_messages: int = 0
    horizon_stalls: int = 0
    committed: int = 0
    end_time: float = 0.0
    per_lp_committed: dict[str, int] = field(default_factory=dict)
    per_lp_clock: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "rounds": self.rounds,
            "null_messages": self.null_messages,
            "payload_messages": self.payload_messages,
            "horizon_stalls": self.horizon_stalls,
            "committed": self.committed,
            "end_time": self.end_time,
            "per_lp_committed": dict(self.per_lp_committed),
            "per_lp_clock": dict(self.per_lp_clock),
        }


Handler = Callable[[Message], None]


class LogicalProcess:
    """One shard of the model: a named partition owning its simulator.

    In serial mode every LP's ``sim`` is the engine's shared simulator;
    in windowed modes each LP owns a private one.  Model code registers
    message handlers with :meth:`on` and communicates across LPs only
    via :meth:`send` -- never by touching another LP's components (the
    rule :class:`repro.devtools.sanitizer.OwnershipChecker` enforces).
    """

    def __init__(self, engine: "PdesEngine", lp_id: int, name: str, sim: Simulator) -> None:
        self.engine = engine
        self.lp_id = lp_id
        self.name = name
        self.sim = sim
        self.handlers: dict[str, Handler] = {}
        #: Optional extractor returning this LP's picklable result dict,
        #: called after the run completes (in the worker process that
        #: owns the LP when sharded).
        self.result_fn: Optional[Callable[[], Any]] = None
        self._seq = 0
        self.n_committed = 0

    def on(self, kind: str, handler: Handler) -> None:
        """Register the handler invoked when a ``kind`` message arrives."""
        if kind in self.handlers:
            raise PdesError(f"LP {self.name!r} already handles {kind!r}")
        self.handlers[kind] = handler

    def send(
        self,
        dst: Union[int, "LogicalProcess"],
        kind: str,
        payload: tuple[Any, ...] = (),
        extra_delay: float = 0.0,
    ) -> Message:
        """Send a message over the ``self -> dst`` channel.

        Delivery time is ``now + lookahead + extra_delay``: the channel
        lookahead is the *minimum* transit, and the sender may model any
        additional latency on top (``extra_delay >= 0``).
        """
        dst_id = dst.lp_id if isinstance(dst, LogicalProcess) else dst
        if extra_delay < 0:
            raise PdesError(f"extra_delay must be >= 0, got {extra_delay!r}")
        lookahead = self.engine._lookahead.get((self.lp_id, dst_id))
        if lookahead is None:
            raise PdesError(
                f"no channel {self.name!r} -> LP {dst_id}; declare it with "
                "engine.connect() before sending"
            )
        t = self.sim.now + lookahead + extra_delay
        msg = Message(t, dst_id, self.lp_id, self._seq, kind, payload)
        self._seq += 1
        self.engine._post(msg)
        return msg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LogicalProcess {self.lp_id}:{self.name}>"


class PdesEngine:
    """Builds an LP graph and runs it serial, windowed, or sharded."""

    def __init__(
        self,
        workers: int = 0,
        observe: Optional[Any] = None,
    ) -> None:
        if not isinstance(workers, int) or workers < 0:
            raise PdesError(f"workers must be an int >= 0, got {workers!r}")
        self.workers = workers
        self.lps: list[LogicalProcess] = []
        self._lookahead: dict[tuple[int, int], float] = {}
        self._outbox: list[Message] = []
        self._observe = observe if (observe is not None and observe.enabled) else None
        self.stats = PdesStats()
        self.lp_results: dict[str, Any] = {}
        self._ran = False
        #: Shared simulator in serial mode, else None.
        self.sim: Optional[Simulator] = None
        if workers == 0:
            self.sim = Simulator(observe=observe, workers=1)

    # -- graph construction --------------------------------------------

    def add_lp(self, name: str) -> LogicalProcess:
        """Create a logical process; in windowed modes it owns a fresh sim."""
        if any(lp.name == name for lp in self.lps):
            raise PdesError(f"duplicate LP name {name!r}")
        sim = self.sim if self.sim is not None else Simulator(workers=1)
        lp = LogicalProcess(self, len(self.lps), name, sim)
        self.lps.append(lp)
        return lp

    def connect(
        self,
        src: Union[int, LogicalProcess],
        dst: Union[int, LogicalProcess],
        lookahead: float,
    ) -> Channel:
        """Declare the directed channel ``src -> dst``.

        ``lookahead`` must be strictly positive: it is the guarantee the
        conservative protocol lives on (a zero-lookahead edge would
        collapse every window to nothing and deadlock the horizon
        computation; model such coupling inside one LP instead).
        """
        src_id = src.lp_id if isinstance(src, LogicalProcess) else src
        dst_id = dst.lp_id if isinstance(dst, LogicalProcess) else dst
        n = len(self.lps)
        if not (0 <= src_id < n and 0 <= dst_id < n):
            raise PdesError(f"channel {src_id}->{dst_id} references unknown LPs")
        if src_id == dst_id:
            raise PdesError("a channel must connect two distinct LPs")
        if not (lookahead > 0.0):
            raise PdesError(
                f"channel {src_id}->{dst_id} lookahead must be > 0, got {lookahead!r} "
                "(zero-lookahead coupling belongs inside one LP)"
            )
        prev = self._lookahead.get((src_id, dst_id))
        la = lookahead if prev is None else min(prev, lookahead)
        self._lookahead[(src_id, dst_id)] = la
        return Channel(src_id, dst_id, la)

    # -- message plumbing ----------------------------------------------

    def _post(self, msg: Message) -> None:
        if self.workers == 0:
            self._inject(msg)
        else:
            self._outbox.append(msg)
            self.stats.payload_messages += 1

    def _inject(self, msg: Message) -> None:
        """Schedule the delivery event on the destination LP's simulator."""
        lp = self.lps[msg.dst]
        handler = lp.handlers.get(msg.kind)
        if handler is None:
            raise PdesError(f"LP {lp.name!r} has no handler for message kind {msg.kind!r}")
        if self.workers == 0:
            self.stats.payload_messages += 1
        sim = lp.sim
        ev = Event(sim)
        ev._triggered = True
        obs = self._observe
        if obs is not None and self.workers == 0:
            tracer = obs.tracer
            src_name = self.lps[msg.src].name

            def _deliver_traced(_e: Event, m: Message = msg, h: Handler = handler) -> None:
                with tracer.span(
                    "pdes.deliver", track=lp.name, cat="pdes", kind=m.kind, src=src_name
                ):
                    h(m)

            assert ev.callbacks is not None
            ev.callbacks.append(_deliver_traced)
        else:

            def _deliver(_e: Event, m: Message = msg, h: Handler = handler) -> None:
                h(m)

            assert ev.callbacks is not None
            ev.callbacks.append(_deliver)
        sim._queue.push(msg.time, MSG_PRIO_BASE + msg.src, ev)

    def _drain_outbox(self) -> list[Message]:
        out = self._outbox
        self._outbox = []
        return out

    # -- horizon computation -------------------------------------------

    def _dist_matrix(self) -> Any:
        """All-pairs minimal lookahead distance (Floyd-Warshall).

        ``dist[i][i]`` is deliberately initialised to +inf, so after
        closure it holds the minimal *cycle* through other LPs -- an
        LP's own future input caused by its own output must bound its
        horizon too.
        """
        n = len(self.lps)
        dist = np.full((n, n), np.inf)
        for (s, d), la in self._lookahead.items():
            dist[s, d] = min(dist[s, d], la)
        for k in range(n):
            np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
        return dist

    @staticmethod
    def _eits(nvt_eff: Any, dist: Any) -> Any:
        """EIT_i = min over j of (nvt_eff_j + dist[j][i]).

        The closed form of the chained-guarantee fixpoint
        ``EIT_i = min over in-edges j->i of (min(nvt_j, EIT_j) + L_ji)``;
        in-flight messages are covered because their timestamps are
        themselves bounded by ``nvt_src + dist`` (triangle inequality).
        """
        out: Any = np.min(nvt_eff[:, None] + dist, axis=0)
        return out

    # -- running --------------------------------------------------------

    def run(self, until: Optional[float] = None) -> PdesStats:
        """Run the model to quiescence (or ``until``); returns stats."""
        if self._ran:
            raise PdesError("a PdesEngine can only run once")
        self._ran = True
        if not self.lps:
            raise PdesError("no logical processes defined")
        if self.workers == 0:
            self._run_serial(until)
        elif self.workers == 1:
            self._run_windowed(until)
        else:
            self._run_sharded(until)
        if self._observe is not None:
            reg = self._observe.registry
            reg.counter("pdes.rounds").inc(self.stats.rounds)
            reg.counter("pdes.null_messages").inc(self.stats.null_messages)
            reg.counter("pdes.payload_messages").inc(self.stats.payload_messages)
            reg.counter("pdes.horizon_stalls").inc(self.stats.horizon_stalls)
            reg.counter("pdes.commits").inc(self.stats.committed)
        return self.stats

    def _collect_results(self, lps: list[LogicalProcess]) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for lp in lps:
            if lp.result_fn is not None:
                out[lp.name] = lp.result_fn()
        return out

    def _run_serial(self, until: Optional[float]) -> None:
        sim = self.sim
        assert sim is not None
        limit = float("inf") if until is None else until
        n = sim.run_below(limit)
        st = self.stats
        st.mode = "serial"
        st.workers = 0
        st.committed = n
        st.end_time = sim.now
        for lp in self.lps:
            st.per_lp_clock[lp.name] = sim.now
        self.lp_results = self._collect_results(self.lps)

    # The windowed round, shared verbatim by the inline and sharded
    # backends (the worker runs `_window_round` for its own LPs with
    # hub-provided horizons):
    #   1. capture nvt (next event time) per LP, drain the outbox
    #   2. stop iff every nvt is +inf and no message is in flight
    #   3. EITs from nvt_eff = min(nvt, earliest inbound delivery)
    #   4. inject inbound (sorted by (t, src, seq)), run each LP below
    #      its horizon
    # EITs are computed *before* injection in both backends so round
    # counts and stall counters are identical for every worker count.

    def _window_round(
        self,
        lps: list[LogicalProcess],
        eits: dict[int, float],
        inbound: list[Message],
    ) -> int:
        """Inject ``inbound`` then run each LP below its horizon."""
        for m in inbound:
            self._inject(m)
        committed = 0
        st = self.stats
        for lp in lps:
            h = eits[lp.lp_id]
            nvt = lp.sim.peek()
            if h > nvt:
                k = lp.sim.run_below(h)
                lp.n_committed += k
                committed += k
            elif nvt < float("inf"):
                st.horizon_stalls += 1
        return committed

    def _round_eits(
        self, nvt: Any, out: list[Message], dist: Any, until: Optional[float]
    ) -> dict[int, float]:
        nvt_eff = nvt.copy()
        for m in out:
            if m.time < nvt_eff[m.dst]:
                nvt_eff[m.dst] = m.time
        eit = self._eits(nvt_eff, dist)
        if until is not None:
            eit = np.minimum(eit, until)
        return {i: float(eit[i]) for i in range(len(self.lps))}

    def _account_nulls(self, out: list[Message]) -> None:
        """Null-message accounting: every directed edge that carried no
        payload this round still propagated a pure time guarantee."""
        carried = {(m.src, m.dst) for m in out}
        self.stats.null_messages += len(self._lookahead) - len(carried)

    def _run_windowed(self, until: Optional[float]) -> None:
        st = self.stats
        st.mode = "windowed"
        st.workers = 1
        dist = self._dist_matrix()
        while True:
            nvt = np.array([lp.sim.peek() for lp in self.lps])
            out = self._drain_outbox()
            if not out and bool(np.all(np.isinf(nvt))):
                break
            if until is not None and not out and bool(np.all(nvt >= until)):
                break
            eits = self._round_eits(nvt, out, dist, until)
            self._account_nulls(out)
            inbound = sorted(out, key=lambda m: m.sort_key)
            committed = self._window_round(self.lps, eits, inbound)
            st.rounds += 1
            if committed == 0 and not inbound:
                raise PdesDeadlock(
                    "no LP advanced and no message moved in a full round "
                    f"(round {st.rounds}, nvt={[lp.sim.peek() for lp in self.lps]})"
                )
        self._finish_windowed(self.lps)
        self.lp_results = self._collect_results(self.lps)

    def _finish_windowed(self, lps: list[LogicalProcess]) -> None:
        st = self.stats
        for lp in lps:
            st.per_lp_committed[lp.name] = lp.n_committed
            st.per_lp_clock[lp.name] = lp.sim.now
            st.committed += lp.n_committed
            st.end_time = max(st.end_time, lp.sim.now)

    # -- multiprocess backend ------------------------------------------

    def _run_sharded(self, until: Optional[float]) -> None:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise PdesError(
                "workers >= 2 requires the fork start method; "
                "use workers=1 (inline windowed) on this platform"
            ) from exc
        st = self.stats
        st.mode = "sharded"
        W = min(self.workers, len(self.lps))
        st.workers = W
        # The hub counts every routed message (including build-time sends
        # buffered before the fork); drop the parent-side send counts so
        # nothing is double-counted.
        st.payload_messages = 0
        dist = self._dist_matrix()
        owner = [lp.lp_id % W for lp in self.lps]
        pipes = [ctx.Pipe() for _ in range(W)]
        procs = []
        for w in range(W):
            p = ctx.Process(
                target=self._worker_main,
                args=(w, W, pipes[w][1]),
                daemon=True,
            )
            p.start()
            procs.append(p)
        conns = [pipes[w][0] for w in range(W)]
        inf = float("inf")
        try:
            while True:
                nvt = np.full(len(self.lps), inf)
                out: list[Message] = []
                for conn in conns:
                    tag, nvts_w, out_w = conn.recv()
                    if tag == "crash":  # pragma: no cover - crash path
                        raise PdesError(f"pdes worker crashed: {nvts_w}")
                    for lp_id, v in nvts_w:
                        nvt[lp_id] = v
                    out.extend(out_w)
                done = not out and bool(np.all(np.isinf(nvt)))
                if until is not None and not out and bool(np.all(nvt >= until)):
                    done = True
                if done:
                    for conn in conns:
                        conn.send(("stop",))
                    break
                st.payload_messages += len(out)
                eits = self._round_eits(nvt, out, dist, until)
                self._account_nulls(out)
                inbound: list[list[Message]] = [[] for _ in range(W)]
                for m in out:
                    inbound[owner[m.dst]].append(m)
                for w, conn in enumerate(conns):
                    conn.send(
                        (
                            "go",
                            {lp.lp_id: eits[lp.lp_id] for lp in self.lps if owner[lp.lp_id] == w},
                            sorted(inbound[w], key=lambda m: m.sort_key),
                        )
                    )
                st.rounds += 1
            for conn in conns:
                tag, results_w, stats_w = conn.recv()
                if tag != "result":  # pragma: no cover - crash path
                    raise PdesError(f"pdes worker crashed: {results_w}")
                self.lp_results.update(results_w)
                st.committed += stats_w["committed"]
                st.horizon_stalls += stats_w["stalls"]
                for name, k in stats_w["per_lp_committed"].items():
                    st.per_lp_committed[name] = k
                for name, clk in stats_w["per_lp_clock"].items():
                    st.per_lp_clock[name] = clk
                    st.end_time = max(st.end_time, clk)
            # Deterministic result ordering regardless of worker count.
            self.lp_results = {
                lp.name: self.lp_results[lp.name]
                for lp in self.lps
                if lp.name in self.lp_results
            }
        finally:
            for p in procs:
                p.join(timeout=30)
                if p.is_alive():  # pragma: no cover - defensive
                    p.terminate()

    def _worker_main(self, widx: int, nworkers: int, conn: Any) -> None:
        """Body of one forked worker: the owned shard of the round loop."""
        owned = [lp for lp in self.lps if lp.lp_id % nworkers == widx]
        # Build-time sends were buffered in the parent before the fork;
        # every worker inherited the full outbox, so keep only the
        # messages our own LPs sent (each is reported exactly once).
        self._outbox = [m for m in self._outbox if m.src % nworkers == widx]
        stalls_before = self.stats.horizon_stalls
        try:
            while True:
                nvts = [(lp.lp_id, lp.sim.peek()) for lp in owned]
                out = self._drain_outbox()
                conn.send(("round", nvts, out))
                cmd = conn.recv()
                if cmd[0] == "stop":
                    break
                _tag, eits, inbound = cmd
                self._window_round(owned, eits, inbound)
            results = self._collect_results(owned)
            stats_w = {
                "committed": sum(lp.n_committed for lp in owned),
                "stalls": self.stats.horizon_stalls - stalls_before,
                "per_lp_committed": {lp.name: lp.n_committed for lp in owned},
                "per_lp_clock": {lp.name: lp.sim.now for lp in owned},
            }
            # send() pickles here, in the worker, so an unpicklable result
            # raises where the stack still points at the offending LP.
            conn.send(("result", results, stats_w))
        except BaseException as exc:  # pragma: no cover - crash path
            try:
                conn.send(("crash", repr(exc), None))
            finally:
                raise
        finally:
            conn.close()
