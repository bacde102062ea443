"""Grid-graph distance oracle for the unrolled annulus.

Validates the closed-form kernel by an independent route: build a graph on
grid nodes (t, r), with rows geometrically spaced in r (spacing h in log r,
which keeps cells metrically square) and columns every h in t.  Edges are
the 8 neighbors; horizontal and diagonal edges are weighted by the exact
chord between their endpoints (the exact boundary arc on the r = 1 row),
vertical edges by the exact radial gap.  Every edge is a genuine path in
the space, so the graph distance always overestimates the true one and
converges as h -> 0.

Two facts about this geometry keep the search cheap: geodesics are
monotone in t and never exceed the larger endpoint radius.  The oracle
therefore only relaxes t-forward moves (a column-sweep dynamic program)
and finishes with a chord-shortcut pass over the witness path, which
removes the staircase quantization bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .annulus import chord_valid, develop_pair
from .errors import DomainError
from .points import AnnulusPoint


def _chord_len(a: tuple[float, float], b: tuple[float, float]) -> float:
    ax, ay, bx, by = develop_pair(a, b)
    return math.hypot(bx - ax, by - ay)


@dataclass(frozen=True)
class GridSpec:
    """Row radii and step weights for one (h, r_max) discretization."""

    h: float
    rows: np.ndarray        # radii, rows[0] == 1.0
    horiz: np.ndarray       # weight of (t, r_j) -> (t+h, r_j)
    diag: np.ndarray        # weight of (t, r_j) -> (t+h, r_{j+1})
    vstep: np.ndarray       # rows[j+1] - rows[j]


def _weights_for_step(rows: np.ndarray, a: float):
    """Horizontal and diagonal chord weights for an angle step a."""
    horiz = 2.0 * rows * math.sin(a / 2.0)
    horiz[0] = a  # boundary row moves along the circle arc, chord would dip
    r0, r1 = rows[:-1], rows[1:]
    diag = np.sqrt(np.maximum(r0 * r0 + r1 * r1 - 2.0 * r0 * r1 * math.cos(a), 0.0))
    return horiz, diag


def build_grid(h: float, r_max: float) -> GridSpec:
    """Rows and standard-step weights up to radius r_max."""
    n_rows = max(1, math.ceil(math.log(max(r_max, 1.0)) / h)) + 1
    rows = np.exp(h * np.arange(n_rows))
    rows[0] = 1.0
    horiz, diag = _weights_for_step(rows, h)
    return GridSpec(h, rows, horiz, diag, np.diff(rows))


def _vertical_relax(base: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Allow a single radial run within the column (both directions)."""
    up = np.minimum.accumulate(base - rows) + rows
    down = (np.minimum.accumulate((base + rows)[::-1]) - rows[::-1])[::-1]
    return np.minimum(up, down)


def _piece_length(a, b) -> Optional[float]:
    """Length of a genuine path piece from a to b, or None if unavailable."""
    if a == b:
        return 0.0
    if a[1] == 1.0 and b[1] == 1.0:
        return abs(a[0] - b[0])
    if chord_valid(a, b):
        return _chord_len(a, b)
    return None


def _shortcut(points: list[tuple[float, float]]) -> float:
    """Taut length of the witness corridor via maximal valid chords."""
    total = 0.0
    k = 0
    last = len(points) - 1
    while k < last:
        step = 1
        while k + step * 2 <= last and _piece_length(points[k], points[k + step * 2]) is not None:
            step *= 2
        lo, hi = step, min(step * 2, last - k)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _piece_length(points[k], points[k + mid]) is not None:
                lo = mid
            else:
                hi = mid - 1
        total += _piece_length(points[k], points[k + lo])
        k += lo
    return total


def mesh_oracle_distance(
    p: AnnulusPoint,
    q: AnnulusPoint,
    h: float = 0.01,
    window: Optional[tuple[float, float, float]] = None,
) -> float:
    """Shortest grid-path distance between two annulus points.

    The step ``h`` must be finite and positive.  ``window`` is (t_min,
    t_max, r_max); both query points must lie inside it and it must leave
    room for a witness path, otherwise the call is rejected.  Without a
    window the pair's own bounding box is used, which always contains the
    geodesic.
    """
    if not 0 < h < math.inf:
        raise DomainError(f"the grid step h must be positive and finite, got {h}")
    pc, qc = (p.t, p.r), (q.t, q.r)
    if window is not None:
        t_min, t_max, r_max = window
        for c in (pc, qc):
            if not (t_min <= c[0] <= t_max) or c[1] > r_max:
                raise DomainError(f"query point {c} outside declared window")
        if r_max < max(pc[1], qc[1]):
            raise DomainError("window too small to contain a witness path")
    if pc[0] > qc[0]:
        pc, qc = qc, pc
    if pc == qc:
        return 0.0

    spec = build_grid(h, max(pc[1], qc[1]))
    rows = spec.rows
    n_rows = len(rows)

    dt = qc[0] - pc[0]
    n_cols = max(1, math.ceil(dt / h)) + 1
    # all interior steps have width h; the final one is squeezed to land on q
    last_step = dt - (n_cols - 2) * h if n_cols > 1 else 0.0

    dist = np.empty((n_cols, n_rows))
    dist[0] = _vertical_relax(np.abs(rows - pc[1]), rows)
    for i in range(1, n_cols):
        if i == n_cols - 1 and abs(last_step - h) > 1e-15:
            horiz, diag = _weights_for_step(rows, max(last_step, 0.0))
        else:
            horiz, diag = spec.horiz, spec.diag
        prev = dist[i - 1]
        base = prev + horiz
        base[1:] = np.minimum(base[1:], prev[:-1] + diag)
        base[:-1] = np.minimum(base[:-1], prev[1:] + diag)
        dist[i] = _vertical_relax(base, rows)

    j_end = int(np.argmin(dist[-1] + np.abs(rows - qc[1])))
    grid_value = dist[-1][j_end] + abs(rows[j_end] - qc[1])

    path = _backtrack(dist, rows, spec, pc, dt, h, last_step, j_end)
    taut = _shortcut([pc] + path + [qc])

    direct = _piece_length(pc, qc)
    best = min(grid_value, taut)
    if direct is not None:
        best = min(best, direct)
    return best


def _backtrack(dist, rows, spec, pc, dt, h, last_step, j_end):
    """Greedy descent through the value table; any descent is a valid path."""
    n_cols, n_rows = dist.shape
    col_t = [pc[0] + i * h for i in range(n_cols - 1)]
    col_t.append(pc[0] + dt)
    i, j = n_cols - 1, j_end
    path = [(col_t[i], rows[j])]
    guard = 0
    while i > 0 and guard < 4 * n_cols * (n_rows + 1):
        guard += 1
        if i == n_cols - 1 and abs(last_step - h) > 1e-15:
            horiz, diag = _weights_for_step(rows, max(last_step, 0.0))
        else:
            horiz, diag = spec.horiz, spec.diag
        cands = []
        if j > 0:
            cands.append((dist[i][j - 1] + spec.vstep[j - 1], i, j - 1))
            cands.append((dist[i - 1][j - 1] + diag[j - 1], i - 1, j - 1))
        if j < n_rows - 1:
            cands.append((dist[i][j + 1] + spec.vstep[j], i, j + 1))
            cands.append((dist[i - 1][j + 1] + diag[j], i - 1, j + 1))
        cands.append((dist[i - 1][j] + horiz[j], i - 1, j))
        tol = 1e-9 * (1.0 + dist[i][j])
        good = [c for c in cands if c[0] <= dist[i][j] + tol and dist[c[1]][c[2]] < dist[i][j] + tol]
        if not good:
            good = [min(c for c in cands if c[1] == i - 1)]
        _, i, j = min(good)
        path.append((col_t[i], rows[j]))
    path.reverse()
    return path
