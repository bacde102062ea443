"""Independent oracles used to pin expected values in the tests.

The route enumerator below shares only the derived vertex graph with the
engine; it finds shortest paths by exhaustive depth-first search over
simple vertex routes, so on small complexes it certifies the Dijkstra
engine exactly.  The golden-section search below is the reference for the
closed-form chord projection of the annulus.  The doubling walk below is
the reference for the boundary-product schedule: it queries every window,
one ``metric.gromov_product`` per grid point.
"""

import math
from bisect import bisect_left
from fractions import Fraction

from boundary_lab.annulus import ann_distance_coords
from boundary_lab.metric import gromov_product
from boundary_lab.ray_complex import RayComplex

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _brackets(space, p):
    marks = space.marks_on(p.edge_id)
    exact = [
        (v, Fraction(0))
        for v, locs in enumerate(space.vertex_locs)
        if (p.edge_id, p.offset) in locs
    ]
    if exact:
        return exact
    i = bisect_left(marks, p.offset)
    out = []
    if i > 0:
        lo = marks[i - 1]
        out.append((_vertex_at(space, p.edge_id, lo), p.offset - lo))
    if i < len(marks):
        hi = marks[i]
        out.append((_vertex_at(space, p.edge_id, hi), hi - p.offset))
    return out


def _vertex_at(space, edge_id, par):
    for v, locs in enumerate(space.vertex_locs):
        if (edge_id, par) in locs:
            return v
    raise AssertionError(f"no vertex at {edge_id}:{par}")


def brute_rc_distance(space, p, q):
    """Shortest simple vertex route, by exhaustive search."""
    best = [None]
    if p.edge_id == q.edge_id:
        best[0] = abs(p.offset - q.offset)
    targets = dict()
    for v, off in _brackets(space, q):
        targets[v] = min(targets.get(v, off), off)

    def push(cand):
        if best[0] is None or cand < best[0]:
            best[0] = cand

    def dfs(v, cost, visited):
        if v in targets:
            push(cost + targets[v])
        for w, weight, _ in space.adjacency[v]:
            if w not in visited:
                dfs(w, cost + weight, visited | {w})

    for v, off in _brackets(space, p):
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
