"""Jenks natural-breaks classification (Fisher-Jenks dynamic program).

Partitions a 1-D numeric distribution into ``k`` intervals minimizing the
within-interval variance — the second tabular encoding of Algorithm 3,
suited to attributes whose distribution consists of smooth intervals
(trends, time-series-like columns).
"""

from __future__ import annotations

import numpy as np

__all__ = ["JenksBreaks", "jenks_breaks"]


def jenks_breaks(values, n_classes):
    """Compute Jenks natural-break boundaries.

    Returns an ascending array of ``n_classes + 1`` boundaries
    ``[min, b1, ..., b_{k-1}, max]``; interval ``i`` is
    ``[boundaries[i], boundaries[i+1]]`` (right-closed on the last).

    The exact O(k * n^2) Fisher-Jenks dynamic program is run on sorted,
    de-duplicated values; preprocessing subsamples its input, keeping the
    cost bounded.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot compute breaks of empty data")
    sorted_vals = np.sort(values)
    unique_vals = np.unique(sorted_vals)
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if unique_vals.size <= n_classes:
        # Degenerate: every distinct value gets its own interval.
        bounds = np.concatenate([unique_vals, [unique_vals[-1]]])
        return bounds

    data = sorted_vals
    n = data.size

    # Prefix sums for O(1) within-class sum of squared deviations.
    prefix = np.concatenate([[0.0], np.cumsum(data)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(data ** 2)])
    # counts_down[n - j:] is the size j - i of data[i:j] for i = 0 .. j-1.
    counts_down = np.arange(n, 0, -1)

    # cost[c][j]: minimal SSD partitioning data[:j] into c classes, over the
    # split i of the last class data[i:j]: cost[c-1][i] + ssd(i, j).  The
    # ssd vector over i is shared by every c, an unreachable cost[c-1][i]
    # (i < c-1) is inf and never the minimum, and argmin keeps the first
    # (lowest i) of equal candidates — so one (n_classes, j) argmin per j
    # fills column j of every row, c > j included (all-inf: cost stays
    # inf, split stays 0).
    cost = np.full((n_classes + 1, n + 1), np.inf)
    split = np.zeros((n_classes + 1, n + 1), dtype=np.int64)
    cost[0][0] = 0.0
    for j in range(1, n + 1):
        total = prefix[j] - prefix[:j]
        total_sq = prefix_sq[j] - prefix_sq[:j]
        ssd = total_sq - total * total / counts_down[n - j:]
        candidates = cost[:n_classes, :j] + ssd
        cost[1:, j] = candidates.min(axis=1)
        split[1:, j] = candidates.argmin(axis=1)

    # Backtrack boundaries.
    bounds = np.empty(n_classes + 1)
    bounds[-1] = data[-1]
    bounds[0] = data[0]
    j = n
    for c in range(n_classes, 1, -1):
        i = split[c][j]
        bounds[c - 1] = data[i]
        j = i
    return bounds


class JenksBreaks:
    """Fitted natural-breaks classifier with interval lookup.

    Parameters
    ----------
    n_classes:
        Number of JKC intervals ``|b|``.
    max_samples:
        The DP is quadratic in sample count; larger inputs are uniformly
        subsampled to this size before fitting (order statistics of a
        uniform subsample converge to the population's).
    """

    def __init__(self, n_classes, max_samples=1000, seed=None):
        self.n_classes = n_classes
        self.max_samples = max_samples
        self.seed = seed
        self.bounds_ = None

    def fit(self, values):
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size > self.max_samples:
            rng = np.random.default_rng(self.seed)
            values = rng.choice(values, size=self.max_samples, replace=False)
        self.bounds_ = jenks_breaks(values, self.n_classes)
        return self

    @property
    def n_intervals(self):
        """Actual number of intervals (may be < n_classes on degenerate data)."""
        self._check_fitted()
        return len(self.bounds_) - 1

    def predict(self, values):
        """Map each value to its JKC interval index (clipped at the ends)."""
        self._check_fitted()
        values = np.asarray(values, dtype=np.float64).ravel()
        # searchsorted against the inner boundaries.
        idx = np.searchsorted(self.bounds_[1:-1], values, side="right")
        return np.clip(idx, 0, self.n_intervals - 1)

    def interval(self, index):
        """Return ``(lo, hi)`` of interval ``index``."""
        self._check_fitted()
        if not 0 <= index < self.n_intervals:
            raise IndexError("interval index out of range")
        return float(self.bounds_[index]), float(self.bounds_[index + 1])

    def _check_fitted(self):
        if self.bounds_ is None:
            raise RuntimeError("JenksBreaks used before fit")
