"""Server-side page cache with Linux-style sequential readahead.

The paper's baseline relies on it implicitly: "Without system-level
prefetching triggered by fully sequential data access, a process issues
its synchronous read requests one at a time" -- i.e. when accesses ARE
sequential at a data server, the kernel's readahead turns them into large
disk reads and absorbs rotational latency.  Without this mechanism every
16 KB request would pay ~half a revolution and vanilla MPI-IO would be
absurdly slow, which it is not (115 MB/s in Fig 3).

Model (per served file object):

- a *readahead state*: the end offset of the last read and the current
  window; a read starting within ``slack`` of the last end is sequential
  and doubles the window (``ra_start`` up to ``ra_max``), anything else
  resets it;
- a *cached-extent* map: byte intervals already resident; fully-cached
  reads skip the disk.

Capacity is a FIFO over inserted extents (real page reclaim is LRU over
pages; at our granularity FIFO-over-extents is equivalent in effect).
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

__all__ = ["ServerPageCache"]


@dataclass
class _RaState:
    last_end: int = -1
    window: int = 0


class ServerPageCache:
    """Per-server page cache: resident-extent map plus per-(file, context)
    readahead state with hit-triggered async windows."""

    def __init__(
        self,
        capacity_bytes: int = 256 * 1024 * 1024,
        ra_start: int = 32 * 1024,
        ra_max: int = 128 * 1024,
        slack: int = 48 * 1024,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.ra_start = ra_start
        self.ra_max = ra_max
        self.slack = slack
        #: file -> sorted, disjoint [start, end) extents
        self._extents: dict[str, list[tuple[int, int]]] = {}
        #: readahead state is per (file, io context) -- the kernel keeps it
        #: per struct file, i.e. per server I/O thread, so interleaved
        #: access from many contexts thrashes detection exactly as it does
        #: on a real data server.
        self._ra: dict[tuple[str, int], _RaState] = {}
        self._fifo: deque[tuple[str, int, int]] = deque()  # simlint: ignore[SL006] eviction order over resident pages; bounded by capacity_bytes
        self.resident_bytes = 0
        self.n_hits = 0
        self.n_misses = 0

    # --------------------------------------------------------------- lookup

    def contains(self, file_name: str, offset: int, length: int) -> bool:
        """Is [offset, offset+length) fully resident?"""
        if length <= 0:
            return True
        ivs = self._extents.get(file_name)
        if not ivs:
            return False
        idx = bisect.bisect_right(ivs, (offset, float("inf"))) - 1
        if idx < 0:
            return False
        s, e = ivs[idx]
        return s <= offset and offset + length <= e

    def record_access(
        self, file_name: str, offset: int, length: int, context: int = 0
    ) -> int:
        """Update readahead state; return extra bytes to read ahead.

        Call on a cache MISS before issuing the disk read.  The caller
        should read ``[offset, offset+length+extra)`` (clipped to the
        object) and then :meth:`insert` what it read.
        """
        ra_key = (file_name, context)
        st = self._ra.get(ra_key)
        if st is None:
            st = _RaState()
            self._ra[ra_key] = st
        gap = offset - st.last_end if st.last_end >= 0 else None
        if gap is not None and -self.slack <= gap <= self.slack:
            st.window = min(max(st.window * 2, self.ra_start), self.ra_max)
        else:
            st.window = 0
        st.last_end = offset + length + st.window
        return st.window

    def on_hit(self, file_name: str, offset: int, length: int, context: int = 0):
        """Hit-path readahead trigger (Linux's PG_readahead marker).

        When a sequential reader consumes into the trailing part of the
        scheduled window, schedule the next window asynchronously so the
        stream never stalls on a miss.  Returns (start, length) of the
        region to read in the background, or None.
        """
        st = self._ra.get((file_name, context))
        if st is None or st.window <= 0 or st.last_end < 0:
            return None
        end = offset + length
        if end < st.last_end - st.window:
            # Not yet into the final scheduled window (the PG_readahead
            # marker page sits at the start of the last window).
            return None
        if end > st.last_end + self.slack:
            return None  # not this stream (random far access)
        st.window = min(max(st.window * 2, self.ra_start), self.ra_max)
        start = st.last_end
        st.last_end = start + st.window
        return (start, st.window)

    # --------------------------------------------------------------- insert

    def insert(self, file_name: str, offset: int, length: int) -> None:
        if length <= 0:
            return
        ivs = self._extents.setdefault(file_name, [])
        s, e = offset, offset + length
        # Merge with overlapping/adjacent neighbours.
        idx = bisect.bisect_left(ivs, (s, s))
        lo = idx
        while lo > 0 and ivs[lo - 1][1] >= s:
            lo -= 1
        hi = idx
        while hi < len(ivs) and ivs[hi][0] <= e:
            hi += 1
        removed = 0
        for i in range(lo, hi):
            removed += ivs[i][1] - ivs[i][0]
            s = min(s, ivs[i][0])
            e = max(e, ivs[i][1])
        ivs[lo:hi] = [(s, e)]
        self.resident_bytes += (e - s) - removed
        self._fifo.append((file_name, s, e))
        self._evict()

    def invalidate(self, file_name: str, offset: int, length: int) -> None:
        """Drop any cached bytes overlapping a written range."""
        ivs = self._extents.get(file_name)
        if not ivs or length <= 0:
            return
        s, e = offset, offset + length
        out = []
        for a, b in ivs:
            if b <= s or a >= e:
                out.append((a, b))
                continue
            self.resident_bytes -= min(b, e) - max(a, s)
            if a < s:
                out.append((a, s))
            if b > e:
                out.append((e, b))
        self._extents[file_name] = out

    def _evict(self) -> None:
        while self.resident_bytes > self.capacity_bytes and self._fifo:
            fname, s, e = self._fifo.popleft()
            ivs = self._extents.get(fname)
            if not ivs:
                continue
            # The recorded extent may have been merged/split since; drop
            # whatever of it is still resident.
            before = self.resident_bytes
            self.invalidate(fname, s, e - s)
            if self.resident_bytes == before:
                continue  # already gone; keep evicting
