"""Independent oracles used to pin expected values in the tests.

The vertex-graph builder below is the reference for the engine's
integer-keyed construction: it checks the locations, runs union-find and
prints the canonical text on ``(edge, Fraction)`` locations, as the engine
once did, so the engine's build errors, lints and ``describe``, and the
``Fraction`` views of its vertex classes and marks (``vertex_locs``,
``marks_on``, below), must match it.  The route enumerator below builds its
own ``Fraction`` graph from those views and finds shortest paths by exhaustive depth-first search over simple
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
candidate.  The leg walk below is the reference for evaluating a ray of
edge legs (``UnitSpeedRay.edge_location``, which ``eval`` shares): it finds
the leg by ``Fraction`` offsets and steps along it from the leg's start, as
the engine once did.  The doubling walk below is the reference for the
boundary-product schedule: it queries every window, evaluating every point
afresh, one ``metric.gromov_product`` per grid point.  The mesh-oracle reference
below is the plain three-shift column sweep and the numpy-indexed greedy
backtrack; the engine's in-place sweep must match it bit for bit.  The
escape sweep below is the reference for ``t_first_escape``: it evaluates
d(beta(t), alpha) with scalar ``ray_distance`` at every point of
``np.linspace(0, H, n + 1)`` and bisects after the last one inside 2C.
The escape cuts below are the reference for ``RayComplex._escape_cuts``:
they filter every ``Fraction`` mark of beta's edges, and every end of
alpha's legs, into each leg of beta, as the engine once did.  The claim
check below is the reference for ``claim_check``'s products: it evaluates
every grid point afresh and takes one ``metric.gromov_product`` per point,
so the engine's seeded points must reproduce it, bit for bit on the
annulus and exactly on ray complexes.  The pair sampler below is the
reference for ``profile_pair_sampler``'s annulus proposals: it makes each
anchor as a point (``gamma.eval``) and reads its coordinates back, and it
takes the logs of the offset scales on every proposal, so the sampler's
anchors read from the ray's legs must reproduce its stream bit for bit.
The ray-complex samplers below are the references for ``rc_point_sampler``
and ``profile_pair_sampler``'s ray-complex proposals: they draw each offset
as ``Fraction`` arithmetic on the edge's top and make each point with
``RayComplex.point``, as the engine once did, so the integer marks must
reproduce their draws by ``repr`` and leave the generator in the same state.
The leg walk and the development at the end are the references for an
annulus ray's one table (``UnitSpeedRay.locate``) and for ``develop_pair``:
the walk tests each leg but the last against its offset plus length and
the last against its length, as the engine once did.
"""

import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from boundary_lab.annulus import AttachedLeg, BoundaryArcLeg, ChordLeg, ann_distance_coords
from boundary_lab.boundary import boundary_gromov_product
from boundary_lab.contraction import (
    RESIDUAL_BOUNDS,
    ClaimReport,
    EscapeTime,
    ray_distance,
    t_first_escape,
)
from boundary_lab.errors import BoundaryLabError, BuildError, DomainError, HorizonError
from boundary_lab.mesh_oracle import (
    _piece_length,
    _shortcut,
    _weights_for_step,
    build_grid,
)
from boundary_lab.metric import gromov_product
from boundary_lab.points import AttachedRayPoint, RayComplexPoint
from boundary_lab.ray_complex import RayComplex
from boundary_lab.rays import EdgeLeg
from boundary_lab.samplers import DENOM

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fraction_vertex_graph(edges, gluings, basepoint):
    """The vertex graph of a complex built on ``(edge, Fraction)`` keys.

    Returns ``(classes, marks, scale, canonical, lints)``: the gluing
    classes in root order, each a sorted tuple of locations; the sorted
    marked parameters per edge; the LCM of the edge-weight denominators;
    the canonical text, formed as ``RayComplex.describe`` specifies it from
    ``Fraction`` parameters; and the free segment endpoints.  A complex the
    engine refuses raises the ``BuildError`` it raises, checked here on
    ``Fraction``s in the engine's order.
    """
    edges = list(edges)
    by_id = {}
    for e in edges:
        if e.edge_id in by_id:
            raise BuildError(f"duplicate edge id {e.edge_id}")
        by_id[e.edge_id] = e
    if not by_id:
        raise BuildError("a complex needs at least one edge")
    gluings = [tuple((eid, Fraction(par)) for eid, par in g) for g in gluings]
    base = (basepoint[0], Fraction(basepoint[1]))

    def check(eid, par):
        if eid not in by_id:
            raise BuildError(f"location on undeclared edge {eid}")
        top = by_id[eid].length
        if par < 0 or (top is not None and par > top):
            raise BuildError(f"parameter {par} outside edge {eid}")

    for g in gluings:
        if len(g) < 2:
            raise BuildError("a gluing must identify at least two locations")
        for loc in g:
            check(*loc)
    check(*base)

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

    # connected: every class reached from the basepoint's along the edges
    reached, todo = {find(base)}, [find(base)]
    while todo:
        root = todo.pop()
        for eid, par in members[root]:
            ms = marks[eid]
            i = ms.index(par)
            for nb in ms[max(i - 1, 0):i + 2]:
                r = find((eid, nb))
                if r not in reached:
                    reached.add(r)
                    todo.append(r)
    if len(reached) < len(classes):
        raise BuildError("complex is not connected")

    glued = {loc for g in gluings for loc in g}
    lints = [
        f"free segment endpoint {e.edge_id}:{par}"
        for e in edges if e.length is not None
        for par in (Fraction(0), e.length) if (e.edge_id, par) not in glued
    ]

    lines = ["# boundary-lab space 1"]
    for e in sorted(edges, key=lambda e: e.edge_id):
        lines.append(f"ray {e.edge_id}" if e.length is None
                     else f"seg {e.edge_id} {e.length}")
    for locs in sorted(c for c in classes if len(c) > 1):
        for eid, par in locs[1:]:
            lines.append(f"glue {locs[0][0]}:{locs[0][1]} {eid}:{par}")
    head = next(c for c in classes if base in c)[0]
    lines.append(f"base {head[0]}:{head[1]}")
    return classes, marks, scale, "\n".join(lines) + "\n", lints


def vertex_locs(space):
    """Each vertex's locations of a ray complex, sorted, with ``Fraction``
    parameters: a view of its integer classes (``_members``)."""
    return [
        tuple((eid, Fraction(k, space._scale)) for eid, k in members)
        for members in space._members
    ]


def marks_on(space, edge_id):
    """The marked parameters of an edge of a ray complex, sorted, as
    ``Fraction``s: a view of its integer marks (``_int_marks``)."""
    return [Fraction(k, space._scale) for k in space._int_marks[edge_id]]


def _fraction_graph(space):
    """Adjacency lists {vertex: [(vertex, Fraction weight)]} between
    consecutive marks, from the public vertex classes and marks only."""
    classes = vertex_locs(space)
    vertex_at = {loc: v for v, locs in enumerate(classes) for loc in locs}
    graph = {v: [] for v in range(len(classes))}
    for eid in space.edges:
        marks = marks_on(space, eid)
        for a, b in zip(marks, marks[1:]):
            u, v = vertex_at[(eid, a)], vertex_at[(eid, b)]
            graph[u].append((v, b - a))
            graph[v].append((u, b - a))
    return vertex_at, graph


def _brackets(space, vertex_at, p):
    if (p.edge_id, p.offset) in vertex_at:
        return [(vertex_at[(p.edge_id, p.offset)], Fraction(0))]
    marks = marks_on(space, p.edge_id)
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
        for m in marks_on(space, leg.edge_id):
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


def reference_edge_point(ray, t):
    """The point at global parameter t >= 0 of a ray of edge legs, by
    ``Fraction`` arithmetic: the first leg whose [offset, offset + length]
    holds t, then |t - offset| from the leg's start toward its end.  A
    float t is converted exactly first."""
    t = Fraction(t)
    if t < 0:
        raise DomainError(f"ray parameter must be nonnegative, got {t}")
    offs = ray.leg_offsets
    for leg, off in zip(ray.legs, offs):
        if leg.length is None or t <= off + leg.length:
            break
    else:
        raise DomainError(f"parameter {t} beyond end of finite ray")
    s = t - off
    par = leg.start + s if leg.end is None or leg.end >= leg.start else leg.start - s
    return RayComplexPoint(ray.space.space_id, leg.edge_id, par)


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


def reference_escape_cuts(alpha, beta):
    """0, beta's leg ends, and beta's parameters at the ``Fraction`` marks of
    its edges and at the ends of alpha's legs on those edges, sorted."""
    space = alpha.space
    ends = [(leg.edge_id, p) for leg in alpha.legs for p in (leg.start, leg.end)]
    cuts = {Fraction(0)}
    for leg, g0 in zip(beta.legs, beta.leg_offsets):
        lo, hi = (leg.start, None) if leg.end is None else sorted((leg.start, leg.end))
        on_edge = [p for e, p in ends if e == leg.edge_id and p is not None]
        for p in (*marks_on(space, leg.edge_id), *on_edge):
            if lo <= p and (hi is None or p <= hi):
                cuts.add(g0 + abs(p - leg.start))
        if hi is not None:
            cuts.add(g0 + leg.length)
    return sorted(cuts)


def reference_claim_check(reps_eta, reps_zeta, C_eta, C_zeta, horizon):
    """(report, products) of the claim check: escape times from
    ``t_first_escape``, and each pair's nine products at (f T, f' T), f and
    f' in 4, 6, 8, from ``gromov_product`` on points made by ``eval``, as
    a list per pair in escape-time order (unconverted: ``Fraction``s on a
    ray complex)."""
    space = reps_eta[0].space
    o = space.basepoint
    C = float(C_eta)
    T = {
        (i, j): float(t_first_escape(a, b, C_eta, horizon).value)
        for i, a in enumerate(reps_eta) for j, b in enumerate(reps_zeta)
    }
    products = []
    r2 = 0.0
    for (i, j), t_ij in T.items():
        a, b = reps_eta[i], reps_zeta[j]
        vals = []
        for fs in (4.0, 6.0, 8.0):
            for ft in (4.0, 6.0, 8.0):
                gp = gromov_product(a.eval(fs * t_ij), b.eval(ft * t_ij), o, space)
                vals.append(gp)
                r2 = max(r2, abs(float(gp) - t_ij))
        products.append(vals)
    r3 = max(abs(T[i, j] - T[k, j]) for i, j in T for k in range(len(reps_eta)))
    r4 = max(abs(T[i, j] - T[i, k]) for i, j in T for k in range(len(reps_zeta)))
    flat = [float(v) for vals in products for v in vals]
    est = boundary_gromov_product(
        reps_eta[0], reps_zeta[0], max_horizon=16 * float(horizon)
    )
    r5 = max(abs(t - est.value) for t in T.values())
    residuals = dict(zip(RESIDUAL_BOUNDS, (r2, r3, r4, max(flat) - min(flat), r5)))
    violations = tuple(
        (name, residuals[name], k * C)
        for name, k in RESIDUAL_BOUNDS.items() if residuals[name] > k * C
    )
    report = ClaimReport(
        C, {f"{i},{j}": v for (i, j), v in T.items()}, *residuals.values(),
        est.value, violations,
    )
    return report, products


def reference_profile_pair_sampler(space, gamma, horizon, r_min=0.05, r_max=64.0):
    """The annulus proposal (x, y, (d(x, gamma), feet)) of
    ``profile_pair_sampler``, or None, with the anchor gamma(u) made by
    ``eval``: an attached-ray anchor hangs off its base."""

    def sample(rng):
        scale = math.exp(rng.uniform(math.log(r_min), math.log(r_max)))
        u = rng.uniform(0.0, float(horizon) * 0.8)
        anchor = gamma.eval(u)
        if not hasattr(anchor, "r"):
            anchor_t, anchor_r = space.attached[anchor.ray_id]
        else:
            anchor_t, anchor_r = anchor.t, anchor.r
        style = rng.random()
        if style < 0.5:
            x = space.pt(anchor_t, anchor_r + scale)
        elif style < 0.8:
            x = space.pt(anchor_t + scale / max(anchor_r, 1.0), anchor_r)
        else:
            x = space.pt(anchor_t - scale / max(anchor_r, 1.0), max(1.0, anchor_r))
        try:
            dxg, feet = ray_distance(x, gamma, None)
        except BoundaryLabError:
            return None
        if dxg <= 0:
            return None
        rho = rng.uniform(0.0, float(dxg))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        y = space.pt(
            x.t + rho * math.cos(ang) / max(x.r, 1.0),
            max(1.0, x.r + rho * math.sin(ang)),
        )
        return x, y, (dxg, feet)

    return sample


def reference_rc_point_sampler(space, horizon):
    """``rc_point_sampler`` on ``Fraction``s: per draw, a uniform edge, its
    top min(length, horizon), and a dyadic offset k / DENOM with k uniform
    in [0, int(top * DENOM)], clamped to the top, made by ``space.point``."""
    edge_ids = sorted(space.edges)
    if not 0 <= horizon < math.inf:
        raise DomainError(f"the horizon must be finite and >= 0, got {horizon}")
    hor = Fraction(horizon)

    def sample(rng):
        eid = edge_ids[rng.randrange(len(edge_ids))]
        edge = space.edges[eid]
        top = hor if edge.length is None else min(edge.length, hor)
        steps = int(top * DENOM)
        off = Fraction(rng.randint(0, max(steps, 0)), DENOM)
        return space.point(eid, min(off, top))

    return sample


def reference_rc_pair_sampler(space, horizon):
    """``profile_pair_sampler``'s ray-complex proposals on ``Fraction``s: x
    from the reference point sampler, then with probability 0.7 y on x's
    edge, shifted by j / (4 DENOM) of the edge's length (the horizon on a
    ray), j uniform in [-DENOM, DENOM], and clamped into the edge; else a
    second point of the sampler."""
    point_sampler = reference_rc_point_sampler(space, horizon)

    def sample(rng):
        x = point_sampler(rng)
        if rng.random() < 0.7:
            edge = space.edges[x.edge_id]
            top = Fraction(horizon if edge.length is None else edge.length)
            shift = (top * rng.randint(-DENOM, DENOM)) / (4 * DENOM)
            off = min(max(x.offset + shift, 0), top)
            return x, space.point(x.edge_id, off)
        return x, point_sampler(rng)

    return sample


def reference_locate(ray, t):
    """(leg, local arc length) at global parameter t of an annulus ray: a
    walk over each leg but the last, which ends at offset + length, then
    the last leg, which ends where t - offset exceeds its length."""
    legs, offs = ray.legs, ray.leg_offsets
    if t < 0:
        raise DomainError(f"ray parameter must be nonnegative, got {t}")
    for leg, off in zip(legs[:-1], offs[:-1]):
        if t <= off + leg.length:
            return leg, t - off
    s = t - offs[-1]
    if legs[-1].length is not None and s > legs[-1].length:
        raise DomainError(f"parameter {t} beyond end of finite ray")
    return legs[-1], s


def reference_develop_pair(a, b):
    """Cartesian development of two cover points with `a` on the x-axis."""
    dt = b[0] - a[0]
    return a[1], 0.0, b[1] * math.cos(dt), b[1] * math.sin(dt)
