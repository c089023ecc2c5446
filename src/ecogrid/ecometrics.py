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


def surprisal(p: float, k: float = 1.0) -> float:
    """-k*ln(p): surprisal of an event with probability p."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {p}")
    if k <= 0:
        raise ValueError(f"scale must be positive, got {k}")
    return -k * math.log(p)


def indeterminacy(p: float, k: float = 1.0) -> float:
    """-k*p*ln(p), with the 0*ln(0) := 0 convention at both endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if k <= 0:
        raise ValueError(f"scale must be positive, got {k}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -k * p * math.log(p)


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


def _scores(T, name: str):
    """(TSTp, ASC, DC) from one scan of T; `name` labels the all-zero error."""
    values, i, j, t = _entries(T)
    total = values.sum()
    if total <= 0:
        raise ValueError(f"{name} undefined for an all-zero matrix (TSTp = 0)")
    # dense total and row sums (pairwise); bincount adds columns in row order, as axis=0 does
    row = values.sum(axis=1)
    col = np.bincount(j, weights=t, minlength=len(values))
    asc = float(np.sum(t * np.log2(t * total / (row[i] * col[j]))))
    dc = float(-np.sum(t * np.log2(t / total)))
    return float(total), asc, dc


def tstp(T) -> float:
    """Total system throughput: the sum of all flows."""
    return float(_entries(T)[0].sum())


def ascendency(T) -> float:
    """TSTp-scaled mutual information of the flow distribution (flow*bits)."""
    return _scores(T, "ascendency")[1]


def development_capacity(T) -> float:
    """TSTp-scaled entropy of the flow distribution; upper bound of ascendency."""
    return _scores(T, "development capacity")[2]


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
    """All metrics for one matrix; raises on an all-zero matrix."""
    total, asc, dc = _scores(T, "metrics")
    if dc == 0:
        ratio = 1.0
    else:
        ratio = min(max(asc / dc, 0.0), 1.0)
    return EcoMetrics(tstp=total, asc=asc, dc=dc, ratio=ratio, robustness=robustness(asc, dc))
