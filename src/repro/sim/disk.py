"""Disk timing model.

The prototype's servers used one Quantum Viking II SCSI disk dedicated
to log fragments; the paper reports that the server writes fragment-
sized (1 MB) blocks at 10.3 MB/s, which it calls the upper bound on
server performance. A late-90s 7200 RPM SCSI disk had roughly:

* average seek ~8 ms, single-track seek ~1 ms,
* rotational latency ~4.17 ms average (7200 RPM),
* media transfer rate just above 10 MB/s on outer tracks.

The model charges seek + rotation per *positioning* operation and
per-byte transfer time, with sequential accesses paying only the
transfer. The default parameters are calibrated so a sequential 1 MB
write costs ~97 µs/KB ⇒ 10.3 MB/s, matching the paper's stated bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.sim.core import Event, Simulator
from repro.sim.resources import Resource


@dataclass(frozen=True)
class DiskParams:
    """Mechanical characteristics of the simulated disk."""

    media_bandwidth_bytes_per_s: float = 10.6e6
    average_seek_s: float = 0.008
    track_to_track_seek_s: float = 0.001
    average_rotation_s: float = 0.00417  # half a revolution at 7200 RPM
    per_request_overhead_s: float = 0.0003  # controller + SCSI command


class DiskModel:
    """Pure timing arithmetic for one disk (no simulator required)."""

    def __init__(self, params: DiskParams = DiskParams()) -> None:
        self.params = params

    def access_time(self, size_bytes: int, sequential: bool = True,
                    nearby: bool = False) -> float:
        """Seconds to service one request.

        ``sequential`` requests pay no positioning cost (the head is
        already there); ``nearby`` requests pay a track-to-track seek
        plus rotation; everything else pays an average seek plus
        rotation. All requests pay controller overhead and transfer time.
        """
        p = self.params
        time = p.per_request_overhead_s
        if not sequential:
            seek = p.track_to_track_seek_s if nearby else p.average_seek_s
            time += seek + p.average_rotation_s
        time += size_bytes / p.media_bandwidth_bytes_per_s
        return time

    def sequential_bandwidth(self, request_bytes: int) -> float:
        """Steady-state bytes/second for back-to-back sequential requests."""
        return request_bytes / self.access_time(request_bytes, sequential=True)


class SimDisk:
    """A disk attached to the simulator: one arm, FIFO service.

    Tracks the last accessed position so that consecutive accesses to
    adjacent slots are charged as sequential.
    """

    def __init__(self, sim: Simulator, name: str = "disk",
                 params: DiskParams = DiskParams()) -> None:
        self.sim = sim
        self.name = name
        self.model = DiskModel(params)
        self.arm = Resource(sim, 1, name="%s.arm" % name)
        self._last_position: float = -1.0
        self.bytes_written = 0
        self.bytes_read = 0
        self.requests = 0

    def access(self, size_bytes: int, position: float, write: bool = True,
               ) -> Generator[Event, Any, None]:
        """Process generator: perform one disk request.

        ``position`` is an abstract linear disk coordinate (slot index
        works fine); it exists only to decide whether the request is
        sequential with its predecessor.
        """
        yield self.arm.request()
        try:
            # Small forward skips (metadata interleaved with blocks)
            # still count as sequential: track-buffer read-ahead and the
            # drive's write coalescing absorb them.
            sequential = (self._last_position >= 0
                          and -1e-9 <= position - self._last_position < 0.05)
            nearby = (self._last_position >= 0
                      and abs(position - self._last_position) <= 1.0)
            service = self.model.access_time(size_bytes, sequential=sequential,
                                             nearby=nearby)
            yield self.sim.timeout(service)
            self._last_position = position + size_bytes / (1 << 20)
            self.requests += 1
            if write:
                self.bytes_written += size_bytes
            else:
                self.bytes_read += size_bytes
        finally:
            self.arm.release()
