"""Independent oracles used to pin expected values in the tests.

The route enumerator below shares only the derived vertex graph with the
engine; it finds shortest paths by exhaustive depth-first search over
simple vertex routes, so on small complexes it certifies the Dijkstra
engine exactly.  The golden-section search below is the reference for the
closed-form chord projection of the annulus.
"""

import math
from bisect import bisect_left
from fractions import Fraction

from boundary_lab.annulus import ann_distance_coords

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
