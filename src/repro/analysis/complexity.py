"""Fitting measured runtimes to asymptotic models.

Figure 2/3 of the paper overlay guide lines (O(n), O(n log^2 n),
O(n^2 log n)) on log-log plots; since we render tables rather than
plots, this module quantifies the same comparison:

* :func:`loglog_slope` -- the least-squares slope of log(t) vs log(n),
  the standard empirical-order estimator (≈1 linear, ≈2 quadratic);
* :func:`best_model` -- relative-error least-squares against the named
  model shapes, returning the best-fitting one.

Both use only large-n samples by default (small sizes are dominated by
constant overheads), and only the standard library: the harnesses and
their tests run where NumPy is not installed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["loglog_slope", "best_model", "ModelFit", "MODELS"]

#: name -> shape function of n (constants factored out by the fit).
MODELS: dict[str, Callable[[float], float]] = {
    "n": lambda n: n,
    "n log n": lambda n: n * math.log2(n),
    "n log^2 n": lambda n: n * math.log2(n) ** 2,
    "n^2": lambda n: n * n,
    "n^2 log n": lambda n: n * n * math.log2(n),
}


def loglog_slope(
    sizes: Sequence[int], times: Sequence[float], tail: int | None = None
) -> float:
    """Least-squares slope of ``log t`` against ``log n``.

    ``tail`` restricts the fit to the last ``tail`` points (defaults to
    all points with n >= 256, or everything if too few).
    """
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need >= 2 matching (size, time) samples")
    pairs = [(n, t) for n, t in zip(sizes, times) if t > 0]
    if tail is not None:
        pairs = pairs[-tail:]
    else:
        big = [(n, t) for n, t in pairs if n >= 256]
        if len(big) >= 2:
            pairs = big
    xs = [math.log(n) for n, _ in pairs]
    ys = [math.log(t) for _, t in pairs]
    slope, _intercept = statistics.linear_regression(xs, ys)
    return slope


@dataclass(frozen=True)
class ModelFit:
    """One model's fit quality: scale constant and relative RMS error."""

    name: str
    scale: float
    rel_rms_error: float


def best_model(
    sizes: Sequence[int],
    times: Sequence[float],
    candidates: Sequence[str] = ("n", "n log n", "n log^2 n", "n^2", "n^2 log n"),
) -> ModelFit:
    """The candidate model minimising relative RMS error.

    For each model ``m`` the scale ``c`` minimising
    ``sum ((t_i - c*m(n_i)) / t_i)^2`` is closed-form; the winner is the
    model with the smallest residual.  Ties in shape at small n are why
    callers should pass a decade or more of sizes.
    """
    fits = [_fit_one(name, sizes, times) for name in candidates]
    return min(fits, key=lambda f: f.rel_rms_error)


def _fit_one(name: str, sizes: Sequence[int], times: Sequence[float]) -> ModelFit:
    shape = MODELS[name]
    # Relative-error weighting (weight 1/t): with r = m(n)/t the scale
    # is sum(r) / sum(r^2) and each residual (t - c*m(n))/t is 1 - c*r.
    ratios = [shape(n) / t for n, t in zip(sizes, times)]
    numerator = math.fsum(ratios)
    denominator = math.fsum(r * r for r in ratios)
    scale = numerator / denominator if denominator else 0.0
    rel_rms = math.sqrt(statistics.fmean((1.0 - scale * r) ** 2 for r in ratios))
    return ModelFit(name, scale, rel_rms)
