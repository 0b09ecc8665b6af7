"""Distributed hash cluster: coordinator + shard nodes.

One process serialises its store's writers, so this package scales
the alpha-hash store across *processes and hosts*, partitioned by the
paper's own invariant -- alpha-hashes are canonical and uniform:

* **Shard nodes** are ordinary ``repro serve`` servers started with
  ``--shard-id i --shard-count n``.  Each owns the equivalence classes
  whose root alpha-hash satisfies ``hash % n == i`` and rejects intern
  requests for foreign keys (409), so no class can end up split
  between nodes.

* The **coordinator** (:class:`ClusterCoordinator`, ``repro cluster
  serve``) speaks the same ``/v1`` protocol and routes: hashing fans
  out to any live shard (stateless, bit-identical), interning goes to
  the owner (two-phase: hash, then route by the result), stats fold
  into conserved sums, snapshots merge into one flat store.

* **Replicas** catch up incrementally from a node's
  ``/v1/snapshot/delta?since=V`` (see
  :func:`repro.store.delta_to_bytes`) -- only the classes interned
  after version ``V`` travel, not the whole store.
"""

from repro.cluster.coordinator import ClusterCoordinator, cluster
from repro.cluster.topology import ClusterTopology, TopologyError

__all__ = [
    "ClusterCoordinator",
    "ClusterTopology",
    "TopologyError",
    "cluster",
]
