"""The repository benchmark: seeded workloads through the public entry
points, checked against ``alpha_hash_all``.  See ``DESIGN.md``."""
