"""Exact distance and geodesic engine for spaces glued from rays and segments.

A complex is a finite list of edges (infinite rays or finite segments, with
positive rational lengths) plus gluings identifying finitely many edge
locations.  Distances are computed in the quotient path metric via a derived
vertex graph: vertices are gluing classes, segment endpoints, and ray
origins; consecutive marked locations along an edge contribute a weighted
graph edge.  Query points are seeded into Dijkstra as virtual sources, so
all arithmetic stays in exact rationals.

A shortest path never travels out and back along an unbranched ray tail,
so ray edges contribute no vertex beyond their last marked location.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import BuildError, DomainError, UnreachableError
from .points import PathPolyline, Point, RayComplexPoint, require_same_space

RationalLike = Union[int, str, Fraction]

RAY = "ray"
SEGMENT = "segment"


@dataclass(frozen=True)
class Edge:
    edge_id: str
    kind: str  # RAY or SEGMENT
    length: Optional[Fraction]  # None for rays (infinite)

    def __post_init__(self):
        if self.kind not in (RAY, SEGMENT):
            raise BuildError(f"unknown edge kind {self.kind!r}")
        if self.kind == SEGMENT:
            if self.length is None or self.length <= 0:
                raise BuildError(
                    f"segment {self.edge_id} needs a positive length, got {self.length}"
                )
        elif self.length is not None:
            raise BuildError(f"ray {self.edge_id} cannot carry a finite length")


Location = tuple[str, Fraction]  # (edge_id, parameter)


@dataclass(frozen=True)
class GeodesicResult:
    distance: Fraction
    witness: PathPolyline


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RayComplex:
    """Immutable glued-edge space with exact shortest paths."""

    def __init__(
        self,
        edges: Iterable[Edge],
        gluings: Iterable[Sequence[Location]],
        basepoint: Location,
        check_connected: bool = True,
    ):
        self.edges: dict[str, Edge] = {}
        for e in edges:
            if e.edge_id in self.edges:
                raise BuildError(f"duplicate edge id {e.edge_id}")
            self.edges[e.edge_id] = e
        if not self.edges:
            raise BuildError("a complex needs at least one edge")

        self._gluings = [
            tuple((eid, _frac(par)) for eid, par in g) for g in gluings
        ]
        for g in self._gluings:
            if len(g) < 2:
                raise BuildError("a gluing must identify at least two locations")
            for eid, par in g:
                self._check_location(eid, par)
        self._basepoint_loc = (basepoint[0], _frac(basepoint[1]))
        self._check_location(*self._basepoint_loc)

        self._build_vertex_graph()
        self.lints: list[str] = self._lint()
        if check_connected and not self.is_connected():
            raise BuildError("complex is not connected")

        self.space_id = "rc:" + hashlib.sha256(
            self.describe().encode()
        ).hexdigest()[:12]

    # -- construction ---------------------------------------------------

    def _check_location(self, edge_id: str, par: Fraction) -> None:
        if edge_id not in self.edges:
            raise BuildError(f"location on undeclared edge {edge_id}")
        e = self.edges[edge_id]
        if par < 0 or (e.length is not None and par > e.length):
            raise BuildError(f"parameter {par} outside edge {edge_id}")

    def _build_vertex_graph(self) -> None:
        # union-find over locations named in gluings / endpoints / origins
        parent: dict[Location, Location] = {}

        def find(a: Location) -> Location:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def add(a: Location) -> None:
            parent.setdefault(a, a)

        def union(a: Location, b: Location) -> None:
            add(a)
            add(b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for eid, e in self.edges.items():
            add((eid, Fraction(0)))
            if e.length is not None:
                add((eid, e.length))
        for g in self._gluings:
            for loc in g[1:]:
                union(g[0], loc)
        add(self._basepoint_loc)

        classes: dict[Location, list[Location]] = {}
        for loc in parent:
            classes.setdefault(find(loc), []).append(loc)

        self._vertex_of: dict[Location, int] = {}
        self.vertex_locs: list[tuple[Location, ...]] = []
        for root in sorted(classes):
            idx = len(self.vertex_locs)
            members = tuple(sorted(classes[root]))
            self.vertex_locs.append(members)
            for loc in members:
                self._vertex_of[loc] = idx

        # per-edge sorted marked parameters
        self._marks: dict[str, list[Fraction]] = {eid: [] for eid in self.edges}
        for loc in parent:
            self._marks[loc[0]].append(loc[1])
        for eid in self._marks:
            self._marks[eid] = sorted(set(self._marks[eid]))

        self.adjacency: list[list[tuple[int, Fraction, str]]] = [
            [] for _ in self.vertex_locs
        ]
        for eid, marks in self._marks.items():
            for a, b in zip(marks, marks[1:]):
                u, v = self._vertex_of[(eid, a)], self._vertex_of[(eid, b)]
                w = b - a
                self.adjacency[u].append((v, w, eid))
                self.adjacency[v].append((u, w, eid))

    def _lint(self) -> list[str]:
        notes = []
        glued = {loc for g in self._gluings for loc in g}
        for eid, e in self.edges.items():
            if e.kind == SEGMENT:
                for par in (Fraction(0), e.length):
                    if (eid, par) not in glued:
                        notes.append(f"free segment endpoint {eid}:{par}")
        return notes

    def is_connected(self) -> bool:
        n = len(self.vertex_locs)
        seen = [False] * n
        stack = [self._vertex_of[self._basepoint_loc]]
        seen[stack[0]] = True
        while stack:
            u = stack.pop()
            for v, _, _ in self.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)

    # -- points ----------------------------------------------------------

    @property
    def basepoint(self) -> RayComplexPoint:
        return RayComplexPoint(self.space_id, *self._basepoint_loc)

    def point(self, edge_id: str, offset: RationalLike) -> RayComplexPoint:
        off = _frac(offset)
        if edge_id not in self.edges:
            raise DomainError(f"unknown edge {edge_id}")
        e = self.edges[edge_id]
        if off < 0 or (e.length is not None and off > e.length):
            raise DomainError(f"offset {off} outside edge {edge_id}")
        return RayComplexPoint(self.space_id, edge_id, off)

    def same_point(self, p: RayComplexPoint, q: RayComplexPoint) -> bool:
        require_same_space(self.space_id, p, q)
        if p.edge_id == q.edge_id and p.offset == q.offset:
            return True
        a = self._vertex_of.get((p.edge_id, p.offset))
        b = self._vertex_of.get((q.edge_id, q.offset))
        return a is not None and a == b

    def vertex_point(self, v: int) -> RayComplexPoint:
        eid, par = self.vertex_locs[v][0]
        return RayComplexPoint(self.space_id, eid, par)

    def _seeds(self, p: RayComplexPoint) -> list[tuple[int, Fraction]]:
        """Bracketing vertices of p with along-edge offsets."""
        marks = self._marks[p.edge_id]
        exact = self._vertex_of.get((p.edge_id, p.offset))
        if exact is not None:
            return [(exact, Fraction(0))]
        i = bisect_left(marks, p.offset)
        seeds = []
        if i > 0:
            lo = marks[i - 1]
            seeds.append((self._vertex_of[(p.edge_id, lo)], p.offset - lo))
        if i < len(marks):
            hi = marks[i]
            seeds.append((self._vertex_of[(p.edge_id, hi)], hi - p.offset))
        if not seeds:
            raise UnreachableError(f"edge {p.edge_id} has no marked location")
        return seeds

    # -- shortest paths ---------------------------------------------------

    def vertex_distances(
        self, p: RayComplexPoint, with_pred: bool = False
    ) -> Union[list[Optional[Fraction]], tuple[list, list]]:
        """Exact single-source distances from p to every graph vertex."""
        require_same_space(self.space_id, p)
        n = len(self.vertex_locs)
        dist: list[Optional[Fraction]] = [None] * n
        pred: list[Optional[int]] = [None] * n
        heap: list[tuple[Fraction, int, int]] = []
        seq = 0
        for v, off in self._seeds(p):
            if dist[v] is None or off < dist[v]:
                dist[v] = off
                heapq.heappush(heap, (off, seq, v))
                seq += 1
        done = [False] * n
        while heap:
            d, _, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w, _ in self.adjacency[u]:
                nd = d + w
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, seq, v))
                    seq += 1
        if with_pred:
            return dist, pred
        return dist

    def point_distance_from_table(
        self, dist: list[Optional[Fraction]], p_source: RayComplexPoint,
        q: RayComplexPoint,
    ) -> Fraction:
        """d(source, q) given the source's vertex-distance table."""
        best: Optional[Fraction] = None
        if p_source.edge_id == q.edge_id:
            best = abs(p_source.offset - q.offset)
        for v, off in self._seeds(q):
            if dist[v] is None:
                continue
            cand = dist[v] + off
            if best is None or cand < best:
                best = cand
        if best is None:
            raise UnreachableError("query pair not connected")
        return best

    def distance(self, p: Point, q: Point) -> Fraction:
        require_same_space(self.space_id, p, q)
        if not isinstance(p, RayComplexPoint) or not isinstance(q, RayComplexPoint):
            raise DomainError("ray-complex distance needs ray-complex points")
        dist = self.vertex_distances(p)
        return self.point_distance_from_table(dist, p, q)

    def base_distance(self, q: RayComplexPoint) -> Fraction:
        """d(basepoint, q) through a cached single-source table."""
        if not hasattr(self, "_base_table"):
            self._base_table = self.vertex_distances(self.basepoint)
        return self.point_distance_from_table(self._base_table, self.basepoint, q)

    def geodesic(self, p: RayComplexPoint, q: RayComplexPoint) -> GeodesicResult:
        """Distance plus a witness polyline through the vertex sequence."""
        require_same_space(self.space_id, p, q)
        if p.edge_id == q.edge_id and p.offset == q.offset:
            pl = PathPolyline((p,), (Fraction(0),))
            return GeodesicResult(Fraction(0), pl)
        dist, pred = self.vertex_distances(p, with_pred=True)

        best: Optional[Fraction] = None
        best_entry: Optional[int] = None
        if p.edge_id == q.edge_id:
            best = abs(p.offset - q.offset)
        for v, off in self._seeds(q):
            if dist[v] is None:
                continue
            cand = dist[v] + off
            if best is None or cand < best:
                best = cand
                best_entry = v
        if best is None:
            raise UnreachableError("query pair not connected")

        chain: list[RayComplexPoint] = [p]
        if best_entry is not None:
            vchain: list[int] = []
            v: Optional[int] = best_entry
            while v is not None:
                vchain.append(v)
                v = pred[v]
            vchain.reverse()
            chain += [self.vertex_point(v) for v in vchain]
        chain.append(q)
        chain = self._compress(chain)
        cum = [Fraction(0)]
        for a, b in zip(chain, chain[1:]):
            cum.append(cum[-1] + self.distance(a, b))
        # drop stray zero hops introduced by seed vertices equal to p or q
        pts, cms = [chain[0]], [cum[0]]
        for pt, c in zip(chain[1:], cum[1:]):
            if c == cms[-1] and self.same_point(pts[-1], pt):
                continue
            pts.append(pt)
            cms.append(c)
        return GeodesicResult(best, PathPolyline(tuple(pts), tuple(cms)))

    def _compress(self, chain: list[RayComplexPoint]) -> list[RayComplexPoint]:
        """Drop interior points lying on the same edge run as their neighbors."""
        out = list(chain)
        changed = True
        while changed:
            changed = False
            for i in range(1, len(out) - 1):
                a, b, c = out[i - 1], out[i], out[i + 1]
                for eid in self.edges:
                    pa = self._param_on_edge(a, eid)
                    pb = self._param_on_edge(b, eid)
                    pc = self._param_on_edge(c, eid)
                    if pa is None or pb is None or pc is None:
                        continue
                    if min(pa, pc) <= pb <= max(pa, pc):
                        del out[i]
                        changed = True
                        break
                if changed:
                    break
        return out

    def _param_on_edge(self, p: RayComplexPoint, eid: str) -> Optional[Fraction]:
        if p.edge_id == eid:
            return p.offset
        v = self._vertex_of.get((p.edge_id, p.offset))
        if v is None:
            return None
        for loc_eid, par in self.vertex_locs[v]:
            if loc_eid == eid:
                return par
        return None

    # -- rays -------------------------------------------------------------

    def edge_ray(self, label: str):
        """Unit-speed ray along an unbounded edge, from its origin."""
        from .rays import EdgeLeg, UnitSpeedRay

        if label not in self.edges:
            raise DomainError(f"unknown edge {label}")
        if self.edges[label].kind != RAY:
            raise DomainError(f"edge {label} is not unbounded")
        return UnitSpeedRay(self, label, (EdgeLeg(label, Fraction(0), None),))

    def marks_on(self, edge_id: str) -> list[Fraction]:
        return list(self._marks[edge_id])

    # -- canonical form -----------------------------------------------------

    def describe(self) -> str:
        """Canonical flat description (valid `.space` text).

        Gluing classes and edge declarations are sorted, so two complexes
        built from different declaration orders print identically.
        """
        lines = ["# boundary-lab space 1"]
        for eid in sorted(self.edges):
            e = self.edges[eid]
            if e.kind == RAY:
                lines.append(f"ray {eid}")
            else:
                lines.append(f"seg {eid} {e.length}")
        classes = [locs for locs in self.vertex_locs if len(locs) > 1]
        for locs in sorted(classes):
            head = locs[0]
            for other in locs[1:]:
                lines.append(
                    f"glue {head[0]}:{head[1]} {other[0]}:{other[1]}"
                )
        base_v = self._vertex_of[self._basepoint_loc]
        base = self.vertex_locs[base_v][0]
        lines.append(f"base {base[0]}:{base[1]}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"RayComplex({len(self.edges)} edges, id={self.space_id})"
