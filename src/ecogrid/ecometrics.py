"""Information-theoretic metrics over a nonnegative flow matrix.

Total system throughput scales the mutual information of the flow
distribution into ascendency and its entropy into development capacity;
their ratio drives the robustness curve -a*ln(a), which peaks at 1/e.
Robustness is base-independent: the log-2 factors cancel in the ratio.
Every metric is computed from the matrix's nonzero entries alone; the total
and row sums reproduce numpy's dense pairwise sums bit for bit.
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


def pairwise_sums(group, pos, val, length: int, ngroups: int) -> np.ndarray:
    """numpy's add.reduce over `length` positions per group from the nonzero
    entries alone, sorted by (group, pos). numpy splits a run of more than 128
    at n2 = n//2 - (n//2)%8; a leaf sums 8 lanes in position order, combines
    them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the tail in order.
    An all-zero subtree sums to exactly 0.0, so only nodes holding an entry
    are visited: top-down one numpy pass per level, then siblings bottom-up."""
    lo = np.zeros_like(pos)
    size = np.full_like(pos, length)
    path = np.zeros_like(pos)  # one bit per level, 1 = right; a leaf reached early appends 0s
    depth = 0
    while np.any(big := size > 128):
        half = size // 2
        n2 = half - half % 8
        right = big & (pos - lo >= n2)
        lo += np.where(right, n2, 0)
        size = np.where(big, np.where(right, size - n2, n2), size)
        path = 2 * path + right
        depth += 1
    offset = pos - lo
    lane = np.where(offset < size - size % 8, offset % 8, 8)  # lane 8 is the tail
    node = (group << depth) | path  # nondecreasing in entry order
    starts = np.diff(node, prepend=-1) != 0
    leaf = np.cumsum(starts) - 1
    r = np.bincount(leaf * 9 + lane, val, 9 * np.count_nonzero(starts)).reshape(-1, 9).T
    sums = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    tail = lane == 8
    np.add.at(sums, leaf[tail], val[tail])
    node = node[starts]
    for _ in range(depth):
        node >>= 1
        starts = np.diff(node, prepend=-1) != 0
        sums = np.bincount(np.cumsum(starts) - 1, sums)  # 0.0 + left + right
        node = node[starts]
    out = np.zeros(ngroups)
    out[node] = sums  # at depth 0 a node is its group
    return out


def _entries(T):
    """n and the nonzero entries i, j, t of T, row-major. An EcoFlowMatrix gives
    its stored entries and a dense matrix is scanned; NaN, inf and negative
    entries are nonzero, so checking the entries checks all of T."""
    if hasattr(T, "entries"):
        n, (i, j, t) = T.n_actors + 3, T.entries
    else:
        values = np.asarray(T, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"flow matrix must be square, got shape {values.shape}")
        n = len(values)
        i, j = np.nonzero(values)
        t = values[i, j]
    if not np.all(np.isfinite(t)):
        raise ValueError("flow matrix contains non-finite entries")
    if np.any(t < 0):
        raise ValueError("flow matrix contains negative entries")
    return n, i, j, t


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
    """All metrics for one matrix from its nonzero entries; raises on an all-zero matrix."""
    n, i, j, t = _entries(T)
    total = pairwise_sums(np.zeros_like(i), i * n + j, t, n * n, 1)[0]
    if total <= 0:
        raise ValueError("metrics undefined for an all-zero matrix (TSTp = 0)")
    # the dense total and row sums; bincount adds columns in row order, as axis=0 does
    row = pairwise_sums(i, j, t, n, n)
    col = np.bincount(j, weights=t, minlength=n)
    asc = float(np.sum(t * np.log2(t * total / (row[i] * col[j]))))
    dc = float(-np.sum(t * np.log2(t / total)))
    ratio = 1.0 if dc == 0 else min(max(asc / dc, 0.0), 1.0)
    return EcoMetrics(tstp=float(total), asc=asc, dc=dc, ratio=ratio,
                      robustness=robustness(asc, dc))
