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

The sweep writes each column in place into one table with an inf border
column on each side: the diagonal predecessors are fixed views of that
table, and the diagonal weights carry a 0.0 pad in the border slot, so
``inf + 0.0`` drops out of the minimum with no per-column slicing.  The
radial run within a column is one ``minimum.accumulate`` over a two-row
buffer (up runs in row 0, down runs reversed in row 1).  Each value goes
through the same IEEE operations as the plain three-shift form: ``x +
(-y)`` is exactly ``x - y``, a minimum is exact and independent of order
without NaN, and ``min(v, inf) == v``.  So the answers are bit-identical
to it (``tests/oracles.py`` keeps that form as the reference).  The
greedy backtrack reads single cells as Python floats.

A query is rejected before anything is allocated when its grid would
have more than ``MAX_CELLS`` cells or a top row radius above
``points.MAX_RADIUS``, the bound of every annulus point: the squared radii
in the chord weights would overflow, and from a step h of about 710 the
radius ``exp(h * (n_rows - 1))`` itself is not finite.  Within these
limits no value is NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .annulus import chord_length, chord_valid
from .errors import DomainError
from .points import MAX_RADIUS, AnnulusPoint, RayComplexPoint

# About 40x the largest grid that the acceptance suite or the benchmark
# queries (3001 x 393 cells); its value table is 400 MB of float64.
MAX_CELLS = 50_000_000


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


def _piece_length(a, b) -> Optional[float]:
    """Length of a genuine path piece from a to b, or None if unavailable."""
    if a == b:
        return 0.0
    if a[1] == 1.0 and b[1] == 1.0:
        return abs(a[0] - b[0])
    if chord_valid(a, b):
        return chord_length(a, b)
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


def _grid_shape(h: float, r_max: float, dt: float) -> tuple[int, int]:
    """(n_rows, n_cols) of the value table, checked before anything is made."""
    too_many = f"a grid at h = {h:g} over this pair has more than {MAX_CELLS} cells"
    row_steps, col_steps = math.log(max(r_max, 1.0)) / h, dt / h
    # a step count of MAX_CELLS or more already means too many cells (and
    # would hand math.ceil an inf at a tiny h)
    if not (row_steps < MAX_CELLS and col_steps < MAX_CELLS):
        raise DomainError(too_many)
    n_rows = max(1, math.ceil(row_steps)) + 1
    n_cols = max(1, math.ceil(col_steps)) + 1
    if n_rows * n_cols > MAX_CELLS:
        raise DomainError(too_many)
    if h * (n_rows - 1) > math.log(MAX_RADIUS):
        raise DomainError(
            f"the top grid row radius exp({h * (n_rows - 1):g}) is above "
            f"MAX_RADIUS = {MAX_RADIUS:g}, where the chord weights overflow"
        )
    return n_rows, n_cols


def mesh_oracle_distance(p: AnnulusPoint, q: AnnulusPoint, h: float = 0.01) -> float:
    """Shortest grid-path distance between two annulus points.

    The step ``h`` must be finite and positive, and the grid it makes must
    have at most ``MAX_CELLS`` cells and a top row radius of at most
    ``MAX_RADIUS``.  The grid spans the pair's own bounding box, which
    contains the geodesic.
    """
    for x in (p, q):
        if isinstance(x, RayComplexPoint):
            raise DomainError("the mesh oracle runs on annulus spaces")
        if not isinstance(x, AnnulusPoint):
            raise DomainError("the mesh oracle compares annulus points")
    if not 0 < h < math.inf:
        raise DomainError(f"the grid step h must be positive and finite, got {h}")
    pc, qc = (p.t, p.r), (q.t, q.r)
    if pc[0] > qc[0]:
        pc, qc = qc, pc
    if pc == qc:
        return 0.0

    grid_value, path = _grid_path(pc, qc, h)
    taut = _shortcut([pc] + path + [qc])

    direct = _piece_length(pc, qc)
    best = min(grid_value, taut)
    if direct is not None:
        best = min(best, direct)
    return best


def _grid_path(pc, qc, h):
    """(grid distance, witness path) from pc to qc, with pc[0] <= qc[0]."""
    dt, r_max = qc[0] - pc[0], max(pc[1], qc[1])
    _, n_cols = _grid_shape(h, r_max, dt)
    spec = build_grid(h, r_max)
    rows = spec.rows

    # all interior steps have width h; the final one is squeezed to land on q
    last_step = dt - (n_cols - 2) * h
    step = spec.horiz, spec.diag
    last = step
    if abs(last_step - h) > 1e-15:
        last = _weights_for_step(rows, max(last_step, 0.0))
    dist = _sweep(rows, np.abs(rows - pc[1]), n_cols, step, last)

    j_end = int(np.argmin(dist[-1] + np.abs(rows - qc[1])))
    grid_value = dist[-1][j_end] + abs(rows[j_end] - qc[1])
    col_t = [pc[0] + i * h for i in range(n_cols - 1)]
    col_t.append(pc[0] + dt)
    return grid_value, _backtrack(dist, rows, spec.vstep, col_t, step, last, j_end)


def _sweep(rows, first, n_cols, step, last):
    """Value table of the t-forward sweep (see the module docstring).

    Column 0 is ``first`` relaxed along the column; the last column is
    reached with the ``last`` (horizontal, diagonal) weights, every other
    one with ``step``.
    """
    n = len(rows)
    table = np.empty((n_cols, n + 2))
    table[:, 0] = table[:, -1] = np.inf
    dist = table[:, 1:-1]
    # weights from the same row, from the row below, from the row above
    into = [
        (horiz, np.concatenate(([0.0], diag)), np.concatenate((diag, [0.0])))
        for horiz, diag in (step, last)
    ]
    rows_rev = rows[::-1]
    shift = np.stack((rows, -rows_rev))
    base, cand = np.empty(n), np.empty(n)
    runs, acc = np.empty((2, n)), np.empty((2, n))
    (up, down), (acc_up, acc_down) = runs, acc
    base_rev, acc_down_rev = base[::-1], acc_down[::-1]
    # ufuncs take their output positionally, as the out= keyword costs about
    # 10% of a column (numpy deprecates a positional output for minimum)
    add, subtract, minimum = np.add, np.subtract, np.minimum
    base[:] = first
    columns = zip(dist, table[:, :-2], table[:, 2:])
    for i, (col, below, above) in enumerate(columns, 1):
        # a single radial run within the column: row 0 of runs goes up,
        # row 1 goes down (reversed); each undoes its shift, the better wins
        subtract(base, rows, up)
        add(base_rev, rows_rev, down)
        minimum.accumulate(runs, 1, None, acc)  # along axis 1, into acc
        add(acc, shift, acc)
        minimum(acc_up, acc_down_rev, out=col)
        if i < n_cols:  # the step into column i
            horiz, from_below, from_above = into[i == n_cols - 1]
            add(col, horiz, base)
            add(below, from_below, cand)
            minimum(base, cand, out=base)
            add(above, from_above, cand)
            minimum(base, cand, out=base)
    return dist


def _backtrack(dist, rows, vstep, col_t, step, last, j_end):
    """Greedy descent through the value table; any descent is a valid path.

    Each move goes to the candidate of least (cell + step weight, i, j)
    that does not climb by more than 1e-9 relative, else to the least one
    in the previous column.
    """
    n_cols, n_rows = dist.shape
    value = dist.item
    vstep = vstep.tolist()
    weights = [(horiz.tolist(), diag.tolist()) for horiz, diag in (step, last)]
    radii = list(rows)  # numpy scalars, so the path keeps its radius type
    i, j = n_cols - 1, j_end
    d = value(i, j)
    path = [(col_t[i], radii[j])]
    guard = 0
    while i > 0 and guard < 4 * n_cols * (n_rows + 1):
        guard += 1
        horiz, diag = weights[i == n_cols - 1]
        k = i - 1
        c = value(k, j)
        cands = [(c + horiz[j], k, j, c)]  # (cell + weight, i, j, cell)
        if j > 0:
            a, b = value(i, j - 1), value(k, j - 1)
            cands += ((a + vstep[j - 1], i, j - 1, a), (b + diag[j - 1], k, j - 1, b))
        if j < n_rows - 1:
            a, b = value(i, j + 1), value(k, j + 1)
            cands += ((a + vstep[j], i, j + 1, a), (b + diag[j], k, j + 1, b))
        bound = d + 1e-9 * (1.0 + d)
        best = min(cands)  # the least good candidate, when it is good
        if not (best[0] <= bound and best[3] < bound):
            good = [t for t in cands if t[0] <= bound and t[3] < bound]
            best = min(good) if good else min(t for t in cands if t[1] == k)
        _, i, j, d = best
        path.append((col_t[i], radii[j]))
    path.reverse()
    return path
