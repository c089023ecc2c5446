"""Information-theoretic metrics over a nonnegative flow matrix.

Total system throughput scales the mutual information of the flow
distribution into ascendency and its entropy into development capacity;
their ratio drives the robustness curve -a*ln(a), which peaks at 1/e.
Robustness is base-independent: the log-2 factors cancel in the ratio.
Each matrix is scanned once for its nonzero entries, and every metric is
computed from those entries and the matrix's dense total and row sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative slack allowed before asc > dc is treated as an upstream bug
_RATIO_SLACK = 1e-9


@dataclass(frozen=True)
class EcoMetrics:
    tstp: float
    asc: float
    dc: float
    ratio: float
    robustness: float


def _entries(T):
    """T as a C-ordered matrix and its nonzero entries, row-major; NaN, inf and
    negative entries are nonzero, so checking the entries checks all of T."""
    values = np.asarray(T.values if hasattr(T, "values") else T, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"flow matrix must be square, got shape {values.shape}")
    values = np.ascontiguousarray(values)
    i, j = np.nonzero(values != 0)
    t = values[i, j]
    if not np.all(np.isfinite(t)):
        raise ValueError("flow matrix contains non-finite entries")
    if np.any(t < 0):
        raise ValueError("flow matrix contains negative entries")
    return values, i, j, t


def robustness(asc: float, dc: float) -> float:
    """-a*ln(a) for a = asc/dc; a := 1 when dc = 0. Lies in [0, 1/e]."""
    if dc < 0:
        raise ValueError(f"development capacity must be >= 0, got {dc}")
    if asc < -_RATIO_SLACK * max(dc, 1.0):
        raise ValueError(f"ascendency must be >= 0, got {asc}")
    if dc == 0:
        return 0.0  # degenerate single-event matrix: a = 1
    if asc > dc * (1.0 + _RATIO_SLACK):
        raise ValueError(f"ascendency {asc} exceeds development capacity {dc}")
    a = min(max(asc / dc, 0.0), 1.0)
    if a == 0.0 or a == 1.0:
        return 0.0
    return -a * math.log(a)


def metrics(T) -> EcoMetrics:
    """All metrics for one matrix from one scan of T; raises on an all-zero matrix."""
    values, i, j, t = _entries(T)
    total = values.sum()
    if total <= 0:
        raise ValueError("metrics undefined for an all-zero matrix (TSTp = 0)")
    # dense total and row sums (pairwise); bincount adds columns in row order, as axis=0 does
    row = values.sum(axis=1)
    col = np.bincount(j, weights=t, minlength=len(values))
    asc = float(np.sum(t * np.log2(t * total / (row[i] * col[j]))))
    dc = float(-np.sum(t * np.log2(t / total)))
    ratio = 1.0 if dc == 0 else min(max(asc / dc, 0.0), 1.0)
    return EcoMetrics(tstp=float(total), asc=asc, dc=dc, ratio=ratio,
                      robustness=robustness(asc, dc))
