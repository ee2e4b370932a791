"""Discrete-event simulation substrate.

The paper's evaluation ran on a 1999 testbed: 200 MHz Pentium Pro
machines with 128 MB of RAM, 100 Mb/s switched Ethernet, and Quantum
Viking II SCSI disks that write 1 MB fragments at 10.3 MB/s. That
hardware is not available, so benchmarks run the *functional* Swarm code
inside a discrete-event simulation whose network, disk, and CPU models
are calibrated to those rates. The figures' shapes — which resource
saturates first, and where — are reproduced by construction.

The kernel is a small SimPy-style engine: processes are Python
generators that ``yield`` events; resources serialize access to NICs,
disks, and CPUs.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource
from repro.sim.network import NetworkParams, Nic, Switch
from repro.sim.disk import DiskModel, DiskParams, SimDisk
from repro.sim.cpu import CpuModel, CpuParams, SimCpu

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "Resource",
    "NetworkParams",
    "Nic",
    "Switch",
    "DiskModel",
    "DiskParams",
    "SimDisk",
    "CpuModel",
    "CpuParams",
    "SimCpu",
]
