"""CPU cost model for 200 MHz Pentium Pro-class machines.

The paper's single-client raw write bandwidth is 6.1 MB/s — well under
both the 12.5 MB/s network and the 10.3 MB/s disk — so the client CPU
is the first bottleneck, exactly as the authors state ("this nearly
saturates the client"). Reproducing the figures' shape therefore
requires charging realistic CPU time for the work a Swarm client does
per byte and per operation:

* copying data into log fragments (memcpy on a ~528 MB/s memory bus,
  but with user-level TCP/IP protocol work the effective per-byte cost
  is far higher),
* XOR parity accumulation (read-modify-write over two streams),
* per-block log bookkeeping and per-RPC protocol overhead.

The default constants were fitted so a single client writing 4 KB
blocks through the full log layer sustains ≈6 MB/s raw, and the
server-side per-fragment handling lets one server sustain ≈7.7 MB/s
under offered load from several clients; the Figure 3 tests
(``benchmarks/test_fig3_raw_bandwidth.py``) hold both fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.sim.core import Event, Simulator
from repro.sim.resources import Resource


@dataclass(frozen=True)
class CpuParams:
    """Per-byte and per-operation CPU costs, in seconds.

    ``copy_per_byte`` covers moving application data into the log
    (memcpy + cache misses); ``xor_per_byte`` covers parity
    accumulation; ``network_per_byte`` covers TCP/IP protocol
    processing, paid for every byte sent or received; the per-op
    constants cover fixed log bookkeeping and RPC dispatch. The log
    work (copy, XOR, per-block) is priced from these fields by the
    simulated client driver's ``CostLedger``; :class:`CpuModel` prices
    the RPC path.
    """

    copy_per_byte: float = 15e-9
    xor_per_byte: float = 12e-9
    network_per_byte: float = 130e-9
    per_block_overhead_s: float = 25e-6
    per_rpc_overhead_s: float = 300e-6
    server_per_request_s: float = 400e-6
    server_per_byte: float = 28e-9


class CpuModel:
    """Pure cost arithmetic (usable without a simulator)."""

    def __init__(self, params: CpuParams = CpuParams()) -> None:
        self.params = params

    def send_cost(self, nbytes: int) -> float:
        """Client protocol cost of transmitting ``nbytes``."""
        return self.params.per_rpc_overhead_s + nbytes * self.params.network_per_byte

    def receive_cost(self, nbytes: int) -> float:
        """Client protocol cost of receiving ``nbytes``."""
        return self.params.per_rpc_overhead_s + nbytes * self.params.network_per_byte

    def server_request_cost(self, nbytes: int) -> float:
        """Server-side cost of handling a request carrying ``nbytes``."""
        return self.params.server_per_request_s + nbytes * self.params.server_per_byte


class SimCpu:
    """A single simulated CPU: one core, FIFO.

    Simulated node code charges computation with::

        yield from cpu.compute(model.send_cost(size_bytes))
    """

    def __init__(self, sim: Simulator, name: str = "cpu") -> None:
        self.core = Resource(sim, 1, name="%s.core" % name)

    def compute(self, seconds: float) -> Generator[Event, Any, None]:
        """Process generator: occupy the CPU for ``seconds``."""
        if seconds > 0:
            yield from self.core.use(seconds)
