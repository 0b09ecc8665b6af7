"""Cluster shape: which shard owns which alpha-hash.

The cluster partitions the *class space*, not the corpus: an
equivalence class belongs to exactly one shard, decided by its root
alpha-hash modulo the shard count.  Because alpha-hashes are uniform by construction
(that is the paper's point), the modulus balances shards without any
placement metadata: ownership is a pure function of the hash, so every
coordinator, node and replica computes the same answer independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ClusterTopology", "TopologyError"]


class TopologyError(ValueError):
    """An unusable cluster description (no shards, duplicate URLs...)."""


@dataclass(frozen=True)
class ClusterTopology:
    """An ordered, fixed set of shard node URLs, plus optional replicas.

    The position of a URL *is* its shard id: node ``i`` owns every
    class whose root alpha-hash satisfies ``hash % num_shards == i``.
    Order therefore matters and must match the ``--shard-id`` each node
    was started with.

    ``replicas`` describes the read replicas of each shard -- either a
    sequence of URL sequences aligned with ``shard_urls``, or a mapping
    ``{shard_id: [urls...]}``.  Replicas are nodes started with
    ``--follow <primary-url>``: same shard identity, asynchronously
    tailing the primary's delta feed.  Replica membership never changes
    hash ownership -- ``owner_of`` is a function of the shard *count*
    alone, so adding or removing replicas is always safe.
    """

    shard_urls: tuple[str, ...] = field(default_factory=tuple)
    replica_urls: tuple[tuple[str, ...], ...] = field(default_factory=tuple)

    def __init__(self, shard_urls, replicas=None):
        urls = tuple(str(u).rstrip("/") for u in shard_urls)
        if not urls:
            raise TopologyError("a cluster needs at least one shard URL")
        if replicas is None:
            groups: tuple[tuple[str, ...], ...] = tuple(() for _ in urls)
        elif isinstance(replicas, dict):
            for shard_id in replicas:
                if not 0 <= int(shard_id) < len(urls):
                    raise TopologyError(
                        f"replica for shard {shard_id}, but the cluster "
                        f"has {len(urls)} shard(s)"
                    )
            groups = tuple(
                tuple(str(u).rstrip("/") for u in replicas.get(i, ()))
                for i in range(len(urls))
            )
        else:
            groups = tuple(
                tuple(str(u).rstrip("/") for u in group) for group in replicas
            )
            if len(groups) != len(urls):
                raise TopologyError(
                    f"{len(groups)} replica group(s) for {len(urls)} "
                    f"shard(s); pass one (possibly empty) group per shard"
                )
        seen = set()
        for url in urls + tuple(u for group in groups for u in group):
            if not url.startswith(("http://", "https://")):
                raise TopologyError(f"shard URL must be http(s): {url!r}")
            if url in seen:
                raise TopologyError(f"duplicate shard URL {url!r}")
            seen.add(url)
        object.__setattr__(self, "shard_urls", urls)
        object.__setattr__(self, "replica_urls", groups)

    @property
    def num_shards(self) -> int:
        return len(self.shard_urls)

    @property
    def num_replicas(self) -> int:
        return sum(len(group) for group in self.replica_urls)

    def owner_of(self, digest: int) -> int:
        """The shard id owning the class with root alpha-hash ``digest``."""
        return digest % self.num_shards

    def url_of(self, shard_id: int) -> str:
        return self.shard_urls[shard_id]

    def replicas_of(self, shard_id: int) -> tuple[str, ...]:
        """The replica URLs of one shard (empty tuple when unreplicated)."""
        return self.replica_urls[shard_id]

    def nodes_of(self, shard_id: int) -> tuple[str, ...]:
        """Every URL serving one shard's classes, primary first."""
        return (self.shard_urls[shard_id],) + self.replica_urls[shard_id]

    def __len__(self) -> int:
        return self.num_shards

    def __iter__(self):
        return iter(self.shard_urls)
