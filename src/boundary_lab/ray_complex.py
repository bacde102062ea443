"""Exact distance engine for spaces glued from rays and segments.

A complex is a finite list of edges (infinite rays or finite segments, with
positive rational lengths) plus gluings identifying finitely many edge
locations.  Distances are computed in the quotient path metric via a derived
vertex graph: vertices are gluing classes, segment endpoints, and ray
origins; consecutive marked locations along an edge contribute a weighted
graph edge.  Dijkstra runs on integer weights from each vertex at most once,
when a query first needs that vertex's row; a point distance is the least
offset-plus-row sum over the vertices bracketing the two points.

Construction checks every edge and location and, by union-find over the
vertices that the build joins along each edge, that the complex is connected
(``DisconnectedError``): no query is unreachable.  It runs no Dijkstra.

The build runs on integer marks.  ``_scale`` is the LCM of the denominators
of every location (segment ends, gluing parameters, the basepoint; origins
are 0).  Marks are sums of edge weights from 0 and weights are differences
of marks, so this is also the LCM of the weight denominators.  Union-find,
vertex order, adjacency, Dijkstra and the canonical text (``describe``, and
so ``space_id``) see the integers ``parameter * _scale``; the build makes no
``Fraction`` beyond the basepoint's.  Segment lengths and gluing
parameters may be given as ints, which the build takes as they are, and at
scale 1 they stay ints throughout.  Queries run on integers too: a
point enters, checked, as (edge, num, den) (``_seed``) and a distance leaves
as an unreduced integer ratio (``_seeded_distance``, the one copy of the
integer distance formula).  An edge ray seeds its leg ends and the marks it
passes once (``UnitSpeedRay._stops``) and its leg junctions once, to check
that they meet (``_same_point``).  ``Fraction``s exist only at the point and
distance API (``point``, ``distance``), once per stop when a ray's stop
table is built, once per projection (the distance ``_ray_distance``
returns, and x's parameter when x lies on the ray), and once per window
minimum of ``boundary._window_min``, whose products share one denominator
(``_doubled``).  The complex owns its rays' exact geometry: point distance,
projection feet and escape (``_ray_distance``, ``_feet``, ``_escape``).

A shortest path never travels out and back along an unbranched ray tail,
so ray edges contribute no vertex beyond their last marked location.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import weakref
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import BuildError, DisconnectedError, DomainError, HorizonError
from .points import Point, RayComplexPoint, require_same_space

RationalLike = Union[int, str, Fraction]
Rational = Union[int, Fraction]

RAY = "ray"
SEGMENT = "segment"


class Edge(NamedTuple):
    """A ray (length None) or a segment of positive rational length, int or
    ``Fraction``; ``RayComplex`` checks it."""

    edge_id: str
    kind: str  # RAY or SEGMENT
    length: Optional[Rational]  # None for rays (infinite)


Location = tuple[str, Fraction]  # (edge_id, parameter)
IntLocation = tuple[str, int]  # (edge_id, parameter * _scale)


def _find(a: int, parent: list[int]) -> int:
    """The root of a in the union-find forest ``parent``, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _rational(x: RationalLike) -> Rational:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


class RayComplex:
    """Immutable glued-edge space with exact distances."""

    TOL = 0  # exact: projections, product stability and U-sets compare sharply

    def __init__(
        self,
        edges: Iterable[Edge],
        gluings: Iterable[Sequence[Location]],
        basepoint: Location,
    ):
        self.edges: dict[str, Edge] = {}
        for e in edges:
            eid, kind, length = e
            if eid in self.edges:
                raise BuildError(f"duplicate edge id {eid}")
            if kind == SEGMENT:
                if length is None or length <= 0:
                    raise BuildError(f"segment {eid} needs a positive length, got {length}")
            elif kind != RAY:
                raise BuildError(f"unknown edge kind {kind!r}")
            elif length is not None:
                raise BuildError(f"ray {eid} cannot carry a finite length")
            self.edges[eid] = e
        if not self.edges:
            raise BuildError("a complex needs at least one edge")

        gluings = [[(eid, _rational(par)) for eid, par in g] for g in gluings]
        self._basepoint_loc = (basepoint[0], _frac(basepoint[1]))
        # every location is a multiple of 1 / _scale, so the build and the
        # shortest paths run on integer marks
        self._scale = math.lcm(
            self._basepoint_loc[1].denominator,
            *{par.denominator for g in gluings for _, par in g},
            *{e.length.denominator for e in self.edges.values() if e.length is not None},
        )
        self._int_lengths = {
            eid: None if e.length is None else self._int(e.length)
            for eid, e in self.edges.items()
        }
        int_gluings = []
        for g in gluings:
            if len(g) < 2:
                raise BuildError("a gluing must identify at least two locations")
            int_gluings.append(self._checked(g))
        (base,) = self._checked([self._basepoint_loc])
        glued = {loc for g in int_gluings for loc in g}
        self._build_vertex_graph(int_gluings, glued, base)
        self.lints: list[str] = self._lint(glued)
        # label -> its edge ray; weak, so that the rays' references back to
        # the complex make no cycle that keeps it alive
        self._edge_rays = weakref.WeakValueDictionary()

        self.space_id = "rc:" + hashlib.sha256(
            self.describe().encode()
        ).hexdigest()[:12]

    # -- construction ---------------------------------------------------

    def _int(self, par: Rational) -> int:
        if type(par) is int:
            return par * self._scale
        return par.numerator * (self._scale // par.denominator)

    def _checked(self, locs: Sequence[tuple[str, Rational]]) -> list[IntLocation]:
        """The locations as integer marks, each checked to lie on a declared
        edge, inside it."""
        lengths, out = self._int_lengths, []
        for eid, par in locs:
            if eid not in lengths:
                raise BuildError(f"location on undeclared edge {eid}")
            k, top = self._int(par), lengths[eid]
            if k < 0 or (top is not None and k > top):
                raise BuildError(f"parameter {par} outside edge {eid}")
            out.append((eid, k))
        return out

    def _build_vertex_graph(
        self, gluings: list[list[IntLocation]], glued: set, base: IntLocation
    ) -> None:
        """Vertex classes, marks and integer adjacency from integer marks.

        A location (edge_id, k) is at parameter k / _scale.  Every location
        gets its index in sorted (edge_id, k) order, and union-find on the
        indices makes the least member of each class its root.  So counting
        roots in index order numbers the vertices in the order of their
        least members, and each vertex's members come out sorted: scaling
        is monotone, so this is the order of the parameters themselves.
        """
        locs = set(glued)
        locs.update((eid, 0) for eid in self._int_lengths)
        locs.update(
            (eid, top) for eid, top in self._int_lengths.items() if top is not None
        )
        locs.add(base)
        locs = sorted(locs)
        index = {loc: i for i, loc in enumerate(locs)}
        parent = list(range(len(locs)))
        for g in gluings:
            root = _find(index[g[0]], parent)
            for loc in g[1:]:
                other = _find(index[loc], parent)
                if other < root:
                    root, other = other, root
                parent[other] = root

        # One walk in index order.  A parent never has a greater index, so
        # its vertex is known when a location is reached; an edge's marks
        # come in order, each joined to the one before it.  The joins also
        # run a union-find over the vertices (``joined``); the complex is
        # connected when they leave one piece.
        joined: list[int] = []
        pieces = 0
        vertex: list[int] = []
        members: list[list[IntLocation]] = []
        adjacency: list[list[tuple[int, int]]] = []
        self._members, self._int_adjacency = members, adjacency
        self._int_marks: dict[str, list[int]] = {}
        self._mark_vertices: dict[str, list[int]] = {}
        last = None
        for i, (eid, k) in enumerate(locs):
            up = parent[i]
            if up == i:
                v = len(members)
                members.append([(eid, k)])
                adjacency.append([])
                joined.append(v)
                pieces += 1
            else:
                v = vertex[up]
                members[v].append((eid, k))
            vertex.append(v)
            if eid != last:
                ks = self._int_marks[eid] = [k]
                vs = self._mark_vertices[eid] = [v]
                last = eid
            else:
                u, w = vs[-1], k - ks[-1]
                adjacency[u].append((v, w))
                adjacency[v].append((u, w))
                ks.append(k)
                vs.append(v)
                ru, rv = _find(u, joined), _find(v, joined)
                if ru != rv:
                    joined[ru] = rv
                    pieces -= 1
        if pieces > 1:
            raise DisconnectedError("complex is not connected")
        self._base_vertex = vertex[index[base]]
        # per-vertex distance rows, filled by _row on first use
        self._rows: list[Optional[list]] = [None] * len(members)

    def _lint(self, glued: set) -> list[str]:
        """A note per segment end that no gluing names."""
        notes = []
        for eid, e in self.edges.items():
            if e.kind == SEGMENT:
                for k, par in ((0, 0), (self._int_lengths[eid], e.length)):
                    if (eid, k) not in glued:
                        notes.append(f"free segment endpoint {eid}:{par}")
        return notes

    # -- points ----------------------------------------------------------

    @property
    def basepoint(self) -> RayComplexPoint:
        return RayComplexPoint(self.space_id, *self._basepoint_loc)

    def point(self, edge_id: str, offset: RationalLike) -> RayComplexPoint:
        try:
            off = _frac(offset)
        except (ValueError, OverflowError, ZeroDivisionError):
            raise DomainError(f"offset {offset!r} is not a finite number") from None
        if edge_id not in self.edges:
            raise DomainError(f"unknown edge {edge_id}")
        e = self.edges[edge_id]
        if off < 0 or (e.length is not None and off > e.length):
            raise DomainError(f"offset {off} outside edge {edge_id}")
        return RayComplexPoint(self.space_id, edge_id, off)

    def _seed(self, p: Point) -> tuple:
        """The one check of a caller's point (of this space, on a declared
        edge, within it: compared on integers), seeded (``_seeds``)."""
        require_same_space(self.space_id, p)
        if not isinstance(p, RayComplexPoint):
            raise DomainError("ray-complex distance needs ray-complex points")
        if p.edge_id not in self.edges:
            raise DomainError(f"unknown edge {p.edge_id}")
        num, den = p.offset.as_integer_ratio()
        top = self._int_lengths[p.edge_id]
        if top is not None and num * self._scale > top * den:
            raise DomainError(f"offset {p.offset} outside edge {p.edge_id}")
        return self._seeds(p.edge_id, num, den)

    def _seed_at(self, ray, s) -> tuple:
        """Seeded ray(s), unchecked: ``_edge_plan`` checked the legs."""
        return self._seeds(*ray.edge_location(s))

    def _seeds(self, edge_id: str, num: int, den: int) -> tuple:
        """The seeded point (edge_id, num, den, [(vertex, a)]) at parameter
        num / den of edge_id (den > 0, not necessarily reduced): the vertices
        bracketing it on its edge, each at along-edge distance
        a / (den * _scale) from it."""
        x = num * self._scale
        marks = self._int_marks[edge_id]
        verts = self._mark_vertices[edge_id]
        k, r = divmod(x, den)
        # every edge is marked at its origin, so 1 <= i
        i = bisect_right(marks, k)
        if r == 0 and marks[i - 1] == k:
            return edge_id, num, den, [(verts[i - 1], 0)]
        seeds = [(verts[i - 1], x - marks[i - 1] * den)]
        if i < len(marks):
            seeds.append((verts[i], marks[i] * den - x))
        return edge_id, num, den, seeds

    def _same_point(self, p: tuple, q: tuple) -> bool:
        """Whether p and q, each (edge_id, num, den), are one point: the same
        parameter of one edge, or marks of one vertex (``_seeds``, no Dijkstra)."""
        if p[0] == q[0] and p[1] * q[2] == q[1] * p[2]:
            return True
        ps, qs = self._seeds(*p)[3], self._seeds(*q)[3]
        return ps[0][1] == 0 and ps == qs

    # -- shortest paths ---------------------------------------------------

    def vertex_distances(self, source: int) -> list:
        """Distances from vertex ``source`` to every vertex, as integers in
        units of 1 / _scale (None where unreachable)."""
        n = len(self._members)
        dist: list[Optional[int]] = [None] * n
        dist[source] = 0
        heap = [(0, 0, source)]
        seq = 1
        while heap:
            d, _, u = heapq.heappop(heap)
            if d > dist[u]:  # stale entry
                continue
            for v, w in self._int_adjacency[u]:
                nd = d + w
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, seq, v))
                    seq += 1
        return dist

    def _row(self, v: int) -> list:
        """vertex_distances(v), computed at most once per vertex."""
        if self._rows[v] is None:
            self._rows[v] = self.vertex_distances(v)
        return self._rows[v]

    def _seeded_distance(self, p: tuple, q: tuple) -> tuple[int, int]:
        """d(p, q) for two seeded points (``_seed``), unchecked, as an
        unreduced integer ratio: the least offset-plus-row sum over the
        vertices bracketing p and q, or the along-edge distance when they
        share an edge.  The one copy of the integer distance formula.

        Candidates are compared as numerators over the common denominator
        dp * dq * _scale, which is the denominator returned.  The rows of
        p's seeds (at most two) are read from ``_rows``, and Dijkstra runs
        from a seed of p only when its row is missing (``_row``).  Callers
        that keep seeded points work each point's out once: a product window
        (``boundary._window_min``), and a projection, which seeds its point
        once and reads each ray's seeded stops (``UnitSpeedRay._stops``).
        """
        p_edge, p_num, dp, p_seeds = p
        q_edge, q_num, dq, q_seeds = q
        best = abs(p_num * dq - q_num * dp) * self._scale if p_edge == q_edge else None
        rows = self._rows
        for u, a in p_seeds:
            dist = rows[u] or self._row(u)  # a row is never empty
            for v, b in q_seeds:
                cand = a * dq + dist[v] * dp * dq + b * dp
                if best is None or cand < best:
                    best = cand
        return best, dp * dq * self._scale

    def distance(self, p: Point, q: Point) -> Fraction:
        """Exact d(p, q): the integer core ``_seeded_distance`` as a Fraction."""
        return Fraction(*self._seeded_distance(self._seed(p), self._seed(q)))

    @staticmethod
    def _doubled(xo: list, yo: list, xy: list) -> tuple[list, int]:
        """A window's doubled products dx + dy - dxy, row-major like ``xy``,
        as integer numerators over one common denominator, the LCM of the
        set of their denominators: (numerators, den)."""
        den = math.lcm(*{d for _, d in xo + yo + xy})
        yo = [m * (den // d) for m, d in yo]
        sums = [m * (den // d) + dy for m, d in xo for dy in yo]
        return [s - m * (den // d) for s, (m, d) in zip(sums, xy)], den

    @classmethod
    def _least_product(cls, xo: list, yo: list, xy: list) -> Fraction:
        """A window's least product, compared on the integers: its one ``Fraction``."""
        doubled, den = cls._doubled(xo, yo, xy)
        return Fraction(min(doubled), 2 * den)

    @classmethod
    def _products(cls, xo: list, yo: list, xy: list) -> list:
        """A window's products, row-major like ``xy``, as exact ``Fraction``s."""
        doubled, den = cls._doubled(xo, yo, xy)
        return [Fraction(d, 2 * den) for d in doubled]

    # -- rays -------------------------------------------------------------

    def edge_ray(self, label: str):
        """Unit-speed ray along an unbounded edge, from its origin; a label
        gives the same ray object on every call while that ray is in use."""
        from .rays import EdgeLeg, UnitSpeedRay

        ray = self._edge_rays.get(label)
        if ray is None:
            if label not in self.edges:
                raise DomainError(f"unknown edge {label}")
            if self.edges[label].kind != RAY:
                raise DomainError(f"edge {label} is not unbounded")
            ray = UnitSpeedRay(self, label, (EdgeLeg(label, Fraction(0), None),))
            self._edge_rays[label] = ray
        return ray

    def _ray_distance(self, x: Point, ray) -> tuple:
        """(exact distance, sorted minimizing parameters) from x to the ray.

        The candidates are the ray's stops (``UnitSpeedRay._stops``: each leg's
        two ends and the marks inside it) and x's own offset when x lies on a
        leg; these are enough.  Between two consecutive marks of an edge, d(x, .)
        is the minimum of two linear functions (the routes through either mark),
        so on any interval there it is least at an end of the interval.  On x's
        own edge the along-edge term makes it V-shaped around x, where it is 0.

        x is checked and seeded once per query (``_seed``) and every stop once
        per ray, so a candidate costs one ``_seeded_distance``, which reads
        the rows of x's seeds from ``_rows``.  One pass over the stops keeps
        the least distance, compared by cross-multiplying, and the parameters
        that reach it; the distance is one ``Fraction``.
        """
        seeded = self._seed(x)
        dist = self._seeded_distance
        num, den, hits = None, 1, []
        for eid, lo, hi, g0, start, stops in ray._stops:
            for g, stop in stops:
                n, d = dist(seeded, stop)
                if num is None or n * den < num * d:
                    num, den, hits = n, d, [g]
                elif n * den == num * d:
                    hits.append(g)
            # x on this leg is a candidate at distance 0 (every leg has a
            # stop at lo, so num is set)
            if x.edge_id == eid and lo <= x.offset and (hi is None or x.offset <= hi):
                g = g0 + abs(x.offset - start)
                if num > 0:
                    num, den, hits = 0, 1, [g]
                else:
                    hits.append(g)
        return Fraction(num, den), sorted(set(hits))

    @staticmethod
    def _feet(x: Point, horizon):
        """The feet of a projection of x, as a function (ray, minimizers,
        level) -> intervals: the exact minimizers, as points."""
        return lambda ray, params, level: [(g, g) for g in params]

    def _escape_cuts(self, alpha, beta) -> list:
        """The parameters where f(t) = d(beta(t), alpha) may bend, for edge
        rays, sorted: beta's stops (its leg ends and the marks inside its
        legs) and beta's parameters at the ends of alpha's legs on beta's
        edges.  Each ray's plan has checked that its legs meet."""
        require_same_space(self.space_id, beta.basepoint)
        ends = [(e, p) for e, lo, hi, *_ in alpha._stops for p in (lo, hi) if p is not None]
        cuts = set()
        for eid, lo, hi, g0, start, stops in beta._stops:
            here = [p for e, p in ends if e == eid and lo <= p and (hi is None or p <= hi)]
            cuts.update((g for g, _ in stops), (g0 + abs(p - start) for p in here))
        return sorted(cuts)

    def _escape(self, alpha, beta, C, horizon, f) -> tuple:
        """(escape time, (time, time)): the last t <= H with f(t) = d(beta(t),
        alpha) = 2C, exact, as one ``Fraction``.

        Between two consecutive ``_escape_cuts`` p < q, every candidate of
        ``_ray_distance`` moves at slope +1 or -1 (a route through the mark
        behind beta(t) or ahead of it, or along the edge to an end of an alpha
        leg), or beta runs on alpha and f = 0.  So f is either 0 there or the
        tent min(f(p) + t - p, f(q) + q - t), and at the last cut p <= H with
        f(p) <= 2C < f on every later cut and at H, T = p + 2C - f(p).  The
        cuts are read from H down, one exact f each.

        Past the last cut L, f rises at slope 1 or beta runs on alpha.  When
        f(H) <= 2C, the first is a HorizonError (a larger horizon gives an
        answer) and the second a DomainError (beta never leaves alpha for good).
        """
        cuts = self._escape_cuts(alpha, beta)
        H, level = Fraction(horizon), 2 * Fraction(C)
        if f(H) <= level:
            last = cuts[-1]
            if f(last + 1) == 0:
                raise DomainError(f"rays run together past {last}: beta never leaves for good")
            raise HorizonError("still inside the 2C-neighborhood at the horizon")
        for p in reversed([c for c in cuts if c < H]):
            d = f(p)
            if d <= level:
                T = p + level - d
                return T, (T, T)
        raise DomainError("ray starts outside the 2C-neighborhood")

    # -- canonical form -----------------------------------------------------

    def describe(self) -> str:
        """Canonical flat description (valid `.space` text).

        Gluing classes and edge declarations are sorted, so two complexes
        built from different declaration orders print identically.  A
        parameter k / _scale prints from the integers, reduced, as
        ``str(Fraction(k, _scale))`` prints it.
        """
        scale = self._scale

        def reduced(k: int) -> str:
            g = math.gcd(k, scale)
            return str(k // g) if g == scale else f"{k // g}/{scale // g}"
        par = str if scale == 1 else reduced
        lines = ["# boundary-lab space 1"]
        for eid in sorted(self.edges):
            top = self._int_lengths[eid]
            lines.append(f"ray {eid}" if top is None else f"seg {eid} {par(top)}")
        # vertices are in the order of their least members, so already sorted
        for (head, at), *others in self._members:
            for eid, k in others:
                lines.append(f"glue {head}:{par(at)} {eid}:{par(k)}")
        eid, k = self._members[self._base_vertex][0]
        lines.append(f"base {eid}:{par(k)}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"RayComplex({len(self.edges)} edges, id={self.space_id})"
