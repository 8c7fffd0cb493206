"""A deterministic discrete-event simulator of a shared-nothing cluster.

This is the substitute for the paper's 8-workstation PVM cluster (see
DESIGN.md).  Node programs are Python generators that *really execute* the
algorithms — real tuples, real hash tables, real spills, real adaptive
switching — while yielding cost requests (CPU seconds, page I/O, message
sends/receives) that the engine prices with the Table 1 parameters.  Two
network models are provided, matching Section 2: a latency-only network
(IBM SP-2-like) and a shared-bus limited-bandwidth network (10 Mbit
Ethernet-like) where transfers serialize globally.

The simulation is deterministic: ties are broken by a global sequence
number, so a given (workload, parameters, algorithm) triple always yields
the same timings, message orders, and metrics.

The cluster is the paper's: no node fails and no message is lost.
Straggling hardware is ``node_speed_factors`` (see docs/simulator.md).
"""

from repro.sim.cluster import Cluster, RunResult
from repro.sim.engine import DeadlockError, Engine
from repro.sim.events import (
    Compute,
    Message,
    ReadPages,
    Recv,
    Send,
    TryRecv,
    WritePages,
)
from repro.sim.metrics import ClusterMetrics, NodeMetrics
from repro.sim.network import LatencyNetwork, SharedBusNetwork, make_network
from repro.sim.node import NodeContext

__all__ = [
    "Cluster",
    "ClusterMetrics",
    "Compute",
    "DeadlockError",
    "Engine",
    "LatencyNetwork",
    "Message",
    "NodeContext",
    "NodeMetrics",
    "ReadPages",
    "Recv",
    "RunResult",
    "Send",
    "SharedBusNetwork",
    "TryRecv",
    "WritePages",
    "make_network",
]
