"""Ablations: how much each design choice of the algorithm buys.

Three load-bearing choices from DESIGN.md, each ablated:

* **Smaller-subtree merge (Section 4.8).**
  :func:`~repro.baselines.ablated.alpha_hash_all_always_left` always
  folds the argument/body map into the function/bound map, regardless
  of size.  On unbalanced trees the merge work goes quadratic --
  exactly the problem Section 4.8 fixes.

* **XOR-maintained map hash (Section 5.2).**
  :func:`~repro.baselines.ablated.alpha_hash_all_recompute_vm` keeps
  the same maps but recomputes the variable-map hash from scratch at
  every node, "prohibitively (indeed asymptotically) slow" per the
  paper: O(n * avg-map-size) instead of O(1) per update.

* **StructureTag vs Appendix C.**  The tagged algorithm and the
  lazy-linear-transform variant have the same asymptotics; the ablation
  times both to show the constant-factor trade.

The variant implementations live in :mod:`repro.baselines.ablated` and
are resolved -- like every other hashing algorithm -- through the
unified :mod:`repro.api.backends` registry; this module only times
them.

The harness times all variants on the unbalanced family (where the
differences are starkest) and prints fitted slopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.complexity import loglog_slope
from repro.analysis.timing import time_call
from repro.api.backends import ABLATION_ORDER, get_backend
from repro.evalharness.config import current_profile
from repro.evalharness.format import format_seconds, format_table
from repro.gen.random_exprs import random_expr

__all__ = [
    "AblationResult",
    "run_ablations",
    "sweep_label",
    "main",
]


#: The sweep's historical display labels, which predate the unified
#: registry ("ours" is labelled "Ours" there, from Table 1).  Keeping
#: them stable keeps regenerated ablation tables byte-compatible with
#: previously published output.
_SWEEP_LABELS = {"ours": "Ours (full)", "lazy": "Appendix C variant"}


def sweep_label(key: str) -> str:
    """The historical display label of one ablation-sweep variant."""
    return _SWEEP_LABELS.get(key, get_backend(key).label)


@dataclass
class AblationResult:
    """Timing series per variant on one family."""

    shape: str
    sizes: list[int]
    seconds: dict[str, list[float]]

    def format(self) -> str:
        headers = ["n"] + [sweep_label(k) for k in self.seconds]
        rows: list[list[object]] = []
        for i, n in enumerate(self.sizes):
            rows.append(
                [n] + [format_seconds(self.seconds[k][i]) for k in self.seconds]
            )
        slope_row: list[object] = ["slope"]
        for k in self.seconds:
            slope_row.append(f"{loglog_slope(self.sizes, self.seconds[k]):.2f}")
        rows.append(slope_row)
        title = f"Ablations ({self.shape} trees): wall-clock per variant"
        return format_table(headers, rows, title=title)


def run_ablations(
    sizes: Optional[Sequence[int]] = None,
    shape: str = "unbalanced",
    variants: Sequence[str] = ABLATION_ORDER,
    scale: str | None = None,
    seed: int = 0,
) -> AblationResult:
    """Time every ablation variant across sizes."""
    profile = current_profile(scale)
    if sizes is None:
        # The quadratic ablations need smaller caps than the full sweep.
        sizes = tuple(n for n in profile.fig2_sizes if n <= 16384)
    backends = {key: get_backend(key) for key in variants}
    result = AblationResult(shape, list(sizes), {k: [] for k in variants})
    for n in sizes:
        expr = random_expr(n, seed=seed ^ n, shape=shape)
        for key, backend in backends.items():
            timing = time_call(
                lambda: backend.hash_all(expr), repeats=profile.repeats
            )
            result.seconds[key].append(timing.best)
    return result


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default=None, help="ci | small | paper")
    parser.add_argument(
        "--shape", choices=("balanced", "unbalanced"), default="unbalanced"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(run_ablations(shape=args.shape, scale=args.scale, seed=args.seed).format())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
