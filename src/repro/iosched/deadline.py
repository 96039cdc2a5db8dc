"""Deadline elevator: sector-sorted batches with per-op expiry FIFOs.

Follows the Linux deadline scheduler's structure: two sorted queues (reads
and writes), two FIFO queues carrying deadlines (reads 500 ms, writes 5 s),
batched dispatch from the sorted order (``fifo_batch`` units per batch),
jumping to the FIFO head when its deadline has expired, and a bias toward
reads (writes are serviced after ``writes_starved`` read batches).
"""

from __future__ import annotations

from collections import deque

from repro.iosched.base import DEFAULT_MAX_SECTORS, IoScheduler, SchedDecision
from repro.iosched.request import BlockRequest, IoUnit
from repro.iosched.squeue import SortedUnitQueue

__all__ = ["DeadlineScheduler"]


class DeadlineScheduler(IoScheduler):
    """Linux deadline elevator: sector-sorted batches, per-op expiry
    FIFOs, reads preferred with bounded write starvation."""

    def __init__(
        self,
        max_sectors: int = DEFAULT_MAX_SECTORS,
        read_expire_s: float = 0.5,
        write_expire_s: float = 5.0,
        fifo_batch: int = 16,
        writes_starved: int = 2,
    ):
        super().__init__(max_sectors)
        self.read_expire_s = read_expire_s
        self.write_expire_s = write_expire_s
        self.fifo_batch = fifo_batch
        self.writes_starved = writes_starved
        self._sorted = {"R": SortedUnitQueue(max_sectors), "W": SortedUnitQueue(max_sectors)}
        # FIFO of (deadline, unit).  Entries whose unit is no longer queued
        # (dispatched, or absorbed by a merge) are skipped lazily.
        self._fifo: dict[str, deque[tuple[float, IoUnit]]] = {"R": deque(), "W": deque()}  # simlint: ignore[SL006] bounded by queued units (nr_requests analogue upstream)
        self._batch_left = 0
        self._batch_op = "R"
        self._starved = 0

    def add(self, req: BlockRequest, now: float) -> None:
        unit = self._sorted[req.op].add(req)
        if unit is not None:
            # Genuinely new unit: give it a deadline entry.
            expire = self.read_expire_s if req.op == "R" else self.write_expire_s
            self._fifo[req.op].append((now + expire, unit))
        self.n_merges = self._sorted["R"].n_merges + self._sorted["W"].n_merges

    def decide(self, now: float, head_lbn: int) -> SchedDecision:
        nr, nw = len(self._sorted["R"]), len(self._sorted["W"])
        if nr == 0 and nw == 0:
            return SchedDecision.empty()

        # Continue the current batch while quota and requests remain.
        if self._batch_left > 0 and len(self._sorted[self._batch_op]) > 0:
            unit = self._sorted[self._batch_op].pop_next(head_lbn)
            self._batch_left -= 1
            return SchedDecision.serve(unit)

        # Pick the op for the next batch: reads preferred unless writes starve.
        if nr > 0 and (nw == 0 or self._starved < self.writes_starved):
            op = "R"
            if nw > 0:
                self._starved += 1
        else:
            op = "W"
            self._starved = 0
        if len(self._sorted[op]) == 0:
            op = "R" if op == "W" else "W"

        # Drop stale FIFO heads; an expired live head pre-empts sorted order.
        fifo = self._fifo[op]
        while fifo and not fifo[0][1].queued:
            fifo.popleft()
        self._batch_op = op
        self._batch_left = self.fifo_batch - 1
        if fifo and fifo[0][0] <= now:
            _deadline, unit = fifo.popleft()
            self._sorted[op].remove(unit)
            return SchedDecision.serve(unit)

        return SchedDecision.serve(self._sorted[op].pop_next(head_lbn))

    def __len__(self) -> int:
        return len(self._sorted["R"]) + len(self._sorted["W"])
