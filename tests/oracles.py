"""Independent oracles used to pin expected values in the tests.

The vertex-graph builder below is the reference for the engine's
integer-keyed construction: it runs union-find on ``(edge, Fraction)``
locations, as the engine once did.  The route enumerator below builds its
own ``Fraction`` graph from the engine's public vertex classes and marks
and finds shortest paths by exhaustive depth-first search over simple
vertex routes, so on small complexes it certifies the Dijkstra engine
exactly.  The golden-section search below is the reference for the
closed-form chord projection of the annulus, and the five-candidate loop
below is the reference for its candidate evaluation: it evaluates every
clamped candidate, repeats included.  The per-leg annulus projection below
is the reference for ``ray_distance`` on the annulus: it dispatches each
leg by its class and runs ``ann_distance_coords`` on raw coordinates, so
the engine's prepared kernel terms must reproduce it bit for bit.  The
per-candidate ray-complex projection below is the reference for
``ray_distance`` on ray complexes: it builds a point at every candidate
parameter and asks ``RayComplex.distance`` for each, one ``Fraction`` per
candidate.  The doubling walk below is the reference for the
boundary-product schedule: it queries every window, evaluating every point
afresh, one ``metric.gromov_product`` per grid point.  The mesh-oracle reference
below is the plain three-shift column sweep and the numpy-indexed greedy
backtrack; the engine's in-place sweep must match it bit for bit.  The
escape sweep below is the reference for ``t_first_escape``: it evaluates
d(beta(t), alpha) with scalar ``ray_distance`` at every point of
``np.linspace(0, H, n + 1)`` and bisects after the last one inside 2C.
"""

import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from boundary_lab.annulus import ann_distance_coords
from boundary_lab.contraction import EscapeTime, ray_distance
from boundary_lab.errors import DomainError, HorizonError
from boundary_lab.mesh_oracle import (
    _piece_length,
    _shortcut,
    _weights_for_step,
    build_grid,
)
from boundary_lab.metric import gromov_product
from boundary_lab.points import AttachedRayPoint, RayComplexPoint
from boundary_lab.ray_complex import RayComplex
from boundary_lab.rays import AttachedLeg, BoundaryArcLeg, ChordLeg, EdgeLeg

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fraction_vertex_graph(edges, gluings, basepoint):
    """The vertex graph of a complex built on ``(edge, Fraction)`` keys.

    Returns ``(classes, marks, scale, canonical)``: the gluing classes in
    root order, each a sorted tuple of locations; the sorted marked
    parameters per edge; the LCM of the edge-weight denominators; and the
    canonical text, formed as ``RayComplex.describe`` specifies it.
    """
    edges = list(edges)
    gluings = [tuple((eid, Fraction(par)) for eid, par in g) for g in gluings]
    base = (basepoint[0], Fraction(basepoint[1]))
    parent = {}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for e in edges:
        parent.setdefault((e.edge_id, Fraction(0)), (e.edge_id, Fraction(0)))
        if e.length is not None:
            parent.setdefault((e.edge_id, e.length), (e.edge_id, e.length))
    for g in gluings:
        for loc in g[1:]:
            union(g[0], loc)
    parent.setdefault(base, base)

    members = {}
    for loc in parent:
        members.setdefault(find(loc), []).append(loc)
    classes = [tuple(sorted(members[root])) for root in sorted(members)]
    marks = {e.edge_id: sorted({par for eid, par in parent if eid == e.edge_id})
             for e in edges}
    weights = [b - a for ms in marks.values() for a, b in zip(ms, ms[1:])]
    scale = math.lcm(*(w.denominator for w in weights))

    lines = ["# boundary-lab space 1"]
    for e in sorted(edges, key=lambda e: e.edge_id):
        lines.append(f"ray {e.edge_id}" if e.length is None
                     else f"seg {e.edge_id} {e.length}")
    for locs in sorted(c for c in classes if len(c) > 1):
        for eid, par in locs[1:]:
            lines.append(f"glue {locs[0][0]}:{locs[0][1]} {eid}:{par}")
    head = next(c for c in classes if base in c)[0]
    lines.append(f"base {head[0]}:{head[1]}")
    return classes, marks, scale, "\n".join(lines) + "\n"


def _fraction_graph(space):
    """Adjacency lists {vertex: [(vertex, Fraction weight)]} between
    consecutive marks, from the public vertex classes and marks only."""
    vertex_at = {loc: v for v, locs in enumerate(space.vertex_locs) for loc in locs}
    graph = {v: [] for v in range(len(space.vertex_locs))}
    for eid in space.edges:
        marks = space.marks_on(eid)
        for a, b in zip(marks, marks[1:]):
            u, v = vertex_at[(eid, a)], vertex_at[(eid, b)]
            graph[u].append((v, b - a))
            graph[v].append((u, b - a))
    return vertex_at, graph


def _brackets(space, vertex_at, p):
    if (p.edge_id, p.offset) in vertex_at:
        return [(vertex_at[(p.edge_id, p.offset)], Fraction(0))]
    marks = space.marks_on(p.edge_id)
    i = bisect_left(marks, p.offset)
    out = []
    if i > 0:
        out.append((vertex_at[(p.edge_id, marks[i - 1])], p.offset - marks[i - 1]))
    if i < len(marks):
        out.append((vertex_at[(p.edge_id, marks[i])], marks[i] - p.offset))
    return out


def brute_rc_distance(space, p, q):
    """Shortest simple vertex route, by exhaustive search."""
    vertex_at, graph = _fraction_graph(space)
    best = [None]
    if p.edge_id == q.edge_id:
        best[0] = abs(p.offset - q.offset)
    targets = dict()
    for v, off in _brackets(space, vertex_at, q):
        targets[v] = min(targets.get(v, off), off)

    def push(cand):
        if best[0] is None or cand < best[0]:
            best[0] = cand

    def dfs(v, cost, visited):
        if v in targets:
            push(cost + targets[v])
        for w, weight in graph[v]:
            if w not in visited:
                dfs(w, cost + weight, visited | {w})

    for v, off in _brackets(space, vertex_at, p):
        dfs(v, off, {v})
    return best[0]


def golden_chord_distance(leg, cx):
    """(distance, local argmin) from cover coordinates cx to a chord leg, by a
    64-step golden-section search of the convex distance profile."""

    def g(s):
        tc, rc = leg.coords_at(s)
        return ann_distance_coords(*cx, tc, max(rc, 1.0))

    lo, hi = 0.0, leg.length
    for _ in range(64):
        m1 = hi - GOLDEN * (hi - lo)
        m2 = lo + GOLDEN * (hi - lo)
        if g(m1) <= g(m2):
            hi = m2
        else:
            lo = m1
    s = 0.5 * (lo + hi)
    return g(s), s


def chord_candidates(leg, cx):
    """The five chord parameters (0, length, the foot, u0 - 1, u0 + 1) for
    cover coordinates cx, in that order, each clamped to [0, length]."""
    ell = leg.length
    ax, ay, bx, by = leg._developed
    ux, uy = (bx - ax) / ell, (by - ay) / ell
    tx, rx = cx
    dt = tx - leg.a[0]
    foot = (rx * math.cos(dt) - ax) * ux + (rx * math.sin(dt) - ay) * uy
    u0 = -(ax * ux + ay * uy)
    return [min(max(c, 0.0), ell) for c in (0.0, ell, foot, u0 - 1.0, u0 + 1.0)]


def five_candidate_chord_distance(leg, cx):
    """(distance, local argmin) from cover coordinates cx to a chord leg: the
    kernel at every one of the five clamped candidates, in order, keeping
    the first strict minimum."""
    if leg.length == 0.0:
        return ann_distance_coords(*cx, *leg.a), 0.0
    best = (math.inf, 0.0)
    for s in chord_candidates(leg, cx):
        tc, rc = leg.coords_at(s)
        d = ann_distance_coords(*cx, tc, max(rc, 1.0))
        if d < best[0]:
            best = (d, s)
    return best


def reference_annulus_ray_distance(x, ray):
    """(distance, global argmin parameters) from a point of an annulus space
    to a ray of it: the kernel on raw coordinates at each leg's candidates,
    every chord candidate included, with minimizers within 1e-12 of the
    least distance kept."""
    space = ray.space
    offsets = ray.leg_offsets
    if isinstance(x, AttachedRayPoint):
        for leg, g0 in zip(ray.legs, offsets):
            if isinstance(leg, AttachedLeg) and leg.ray_id == x.ray_id:
                return 0.0, [g0 + x.s]
        cx, wedge = space.attached[x.ray_id], x.s
    else:
        cx, wedge = (x.t, x.r), 0.0
    best = math.inf
    hits = []
    for leg, g0 in zip(ray.legs, offsets):
        if isinstance(leg, BoundaryArcLeg):
            lo, hi = leg.angle_interval()
            foot = min(max(cx[0], lo), hi)
            d, s = ann_distance_coords(*cx, foot, 1.0), abs(foot - leg.t0)
        elif isinstance(leg, ChordLeg):
            d, s = five_candidate_chord_distance(leg, cx)
        else:
            d, s = ann_distance_coords(*cx, *space.attached[leg.ray_id]), 0.0
        d = wedge + d
        g = g0 + s
        if d < best - 1e-12:
            best, hits = d, [g]
        elif d <= best + 1e-12:
            hits.append(g)
    return best, sorted(set(hits))


def reference_rc_ray_distance(x, ray):
    """(distance, global argmin parameters) from a point of a ray complex to
    a ray of it: the exact distance to every candidate of each leg (its
    ends, the marks inside it, and x's own offset when x lies on it), with
    every exact minimizer kept."""
    space = ray.space
    best = None
    hits = []
    for leg, g0 in zip(ray.legs, ray.leg_offsets):
        if not isinstance(leg, EdgeLeg):
            raise DomainError("ray-complex rays must consist of edge legs")
        if leg.end is None:
            lo, hi = leg.start, None
        else:
            lo, hi = min(leg.start, leg.end), max(leg.start, leg.end)
        cands = {leg.start}
        if leg.end is not None:
            cands.add(leg.end)
        for m in space.marks_on(leg.edge_id):
            if m >= lo and (hi is None or m <= hi):
                cands.add(m)
        if x.edge_id == leg.edge_id and x.offset >= lo and (hi is None or x.offset <= hi):
            cands.add(x.offset)
        for par in cands:
            pt = RayComplexPoint(space.space_id, leg.edge_id, par)
            d = space.distance(x, pt)
            g = g0 + abs(par - leg.start)
            if best is None or d < best:
                best, hits = d, [g]
            elif d == best:
                hits.append(g)
    return best, sorted(set(hits))


def full_doubling_walk(a, b, max_horizon, min_horizon):
    """(status, horizons S, window minima E(S)) of the doubling walk for rays
    a and b, with E(S) the least product over the grid {S, 3S/2, 2S}^2 and
    the stop rule of the boundary-product estimate."""
    space = a.space
    o = space.basepoint
    S = Fraction(1) if isinstance(space, RayComplex) else 1.0
    schedule, minima = [], []
    while True:
        params = (S, S + S / 2, 2 * S)
        schedule.append(S)
        minima.append(min(
            gromov_product(a.eval(s), b.eval(t), o, space)
            for s in params
            for t in params
        ))
        if len(minima) >= 3 and S >= min_horizon:
            steps = (abs(minima[-1] - minima[-2]), abs(minima[-2] - minima[-3]))
            if max(steps) <= space.TOL:
                return "converged", schedule, minima
        if 2 * S > max_horizon:
            return "inconclusive", schedule, minima
        S = 2 * S


def _vertical_relax(base, rows):
    """Allow a single radial run within the column (both directions)."""
    up = np.minimum.accumulate(base - rows) + rows
    down = (np.minimum.accumulate((base + rows)[::-1]) - rows[::-1])[::-1]
    return np.minimum(up, down)


def reference_mesh_oracle(p, q, h=0.01):
    """(distance, witness path) of the mesh oracle, by the plain sweep: each
    column is three shifted adds and a fresh vertical relax, and the
    backtrack indexes the numpy table cell by cell.  The path is the
    backtracked grid path from the endpoint with the smaller t, or None when
    the points coincide."""
    if not 0 < h < math.inf:
        raise DomainError(f"the grid step h must be positive and finite, got {h}")
    pc, qc = (p.t, p.r), (q.t, q.r)
    if pc[0] > qc[0]:
        pc, qc = qc, pc
    if pc == qc:
        return 0.0, None

    spec = build_grid(h, max(pc[1], qc[1]))
    rows = spec.rows
    n_rows = len(rows)

    dt = qc[0] - pc[0]
    n_cols = max(1, math.ceil(dt / h)) + 1
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

    path = _reference_backtrack(dist, rows, spec, pc, dt, h, last_step, j_end)
    taut = _shortcut([pc] + path + [qc])

    direct = _piece_length(pc, qc)
    best = min(grid_value, taut)
    if direct is not None:
        best = min(best, direct)
    return best, path


def _reference_backtrack(dist, rows, spec, pc, dt, h, last_step, j_end):
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


def sweep_escape(alpha, beta, C, horizon):
    """max{t : d(beta(t), alpha) = 2C} by a full sweep plus bisection.

    The grid has max(8, ceil(4 horizon / C)) + 1 points, at most C/4
    apart; the last one with d <= 2C starts an 80-step bisection to 1e-9.
    """
    level = 2.0 * float(C)
    n = max(8, math.ceil(float(horizon) / (float(C) / 4.0)))
    ts = np.linspace(0.0, float(horizon), n + 1)

    def dist(t):
        return float(ray_distance(beta.eval(t), alpha, None)[0])

    ds = [dist(float(t)) for t in ts]
    if max(ds) < level:
        if ds[-1] >= 0.95 * max(ds) and ds[-1] > ds[len(ds) // 2]:
            raise HorizonError("distance still rising at the horizon without reaching 2C")
        raise DomainError(f"ray never reaches distance 2C = {level} (max {max(ds):.6g})")
    if ds[-1] <= level:
        raise HorizonError("still inside the 2C-neighborhood at the horizon")
    below = [k for k, d in enumerate(ds) if d <= level]
    if not below:
        raise DomainError("ray starts outside the 2C-neighborhood")
    lo, hi = float(ts[below[-1]]), float(ts[below[-1] + 1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dist(mid) <= level:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    return EscapeTime(0.5 * (lo + hi), float(C), (lo, hi))
