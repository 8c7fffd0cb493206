"""Per-node and cluster-wide accounting of a simulated run."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NodeMetrics:
    """What one node did during a run (all times in simulated seconds)."""

    node_id: int
    cpu_seconds: float = 0.0
    io_read_seconds: float = 0.0
    io_write_seconds: float = 0.0
    pages_read: float = 0.0
    pages_written: float = 0.0
    spill_pages: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    blocks_sent: int = 0
    bytes_sent: int = 0
    tuples_scanned: int = 0
    tuples_aggregated: int = 0
    groups_output: int = 0
    peak_table_entries: int = 0
    finish_time: float = 0.0
    tagged_seconds: dict[str, float] = field(default_factory=dict)

    def add_tagged(self, tag: str, seconds: float) -> None:
        self.tagged_seconds[tag] = self.tagged_seconds.get(tag, 0.0) + seconds

    @property
    def busy_seconds(self) -> float:
        return self.cpu_seconds + self.io_read_seconds + self.io_write_seconds


@dataclass
class ClusterMetrics:
    """The whole run: per-node metrics plus network totals."""

    nodes: list[NodeMetrics]
    network_busy_seconds: float = 0.0
    network_blocks: int = 0

    def node(self, node_id: int) -> NodeMetrics:
        return self.nodes[node_id]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_cpu_seconds(self) -> float:
        return sum(n.cpu_seconds for n in self.nodes)

    @property
    def total_io_seconds(self) -> float:
        return sum(n.io_read_seconds + n.io_write_seconds for n in self.nodes)

    @property
    def total_spill_pages(self) -> float:
        return sum(n.spill_pages for n in self.nodes)

    @property
    def total_messages(self) -> int:
        return sum(n.messages_sent for n in self.nodes)

    @property
    def total_peak_table_entries(self) -> int:
        """Cluster-wide memory demand: sum of per-node table peaks.

        This is the quantity behind the paper's Section 2.2 argument:
        Two Phase accumulates each group on potentially all N nodes
        (total ≈ N·|G|) while Repartitioning stores it once (≈ |G|).
        """
        return sum(n.peak_table_entries for n in self.nodes)

    @property
    def total_bytes_sent(self) -> int:
        return sum(n.bytes_sent for n in self.nodes)

    @property
    def total_groups_output(self) -> int:
        """The true result group count (every body reports its merge output).

        This is the ground truth the decision ledger compares sampling
        estimates against — available without a second aggregation pass.
        """
        return sum(n.groups_output for n in self.nodes)

    @property
    def makespan(self) -> float:
        return max((n.finish_time for n in self.nodes), default=0.0)

    def skew_ratio(self) -> float:
        """Max over mean node busy time — 1.0 means perfectly balanced."""
        busy = [n.busy_seconds for n in self.nodes]
        mean = sum(busy) / len(busy)
        if mean == 0:
            return 1.0
        return max(busy) / mean

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of the whole run's accounting."""
        return {
            "makespan": self.makespan,
            "network_busy_seconds": self.network_busy_seconds,
            "network_blocks": self.network_blocks,
            "total_cpu_seconds": self.total_cpu_seconds,
            "total_io_seconds": self.total_io_seconds,
            "total_spill_pages": self.total_spill_pages,
            "total_messages": self.total_messages,
            "total_bytes_sent": self.total_bytes_sent,
            "total_groups_output": self.total_groups_output,
            "total_peak_table_entries": self.total_peak_table_entries,
            "skew_ratio": self.skew_ratio(),
            "nodes": [
                {
                    "node_id": n.node_id,
                    "cpu_seconds": n.cpu_seconds,
                    "io_read_seconds": n.io_read_seconds,
                    "io_write_seconds": n.io_write_seconds,
                    "pages_read": n.pages_read,
                    "pages_written": n.pages_written,
                    "spill_pages": n.spill_pages,
                    "messages_sent": n.messages_sent,
                    "messages_received": n.messages_received,
                    "blocks_sent": n.blocks_sent,
                    "bytes_sent": n.bytes_sent,
                    "peak_table_entries": n.peak_table_entries,
                    "finish_time": n.finish_time,
                    "tuples_scanned": n.tuples_scanned,
                    "groups_output": n.groups_output,
                    "tagged_seconds": dict(n.tagged_seconds),
                }
                for n in self.nodes
            ],
        }
