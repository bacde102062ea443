"""Unit-speed rays assembled from legs.

A ray is a concatenation of legs.  Legs come in four kinds: an interval on
a ray-complex edge (``EdgeLeg``), and the annulus legs, which live with
their geometry in ``annulus``: an arc along the r = 1 boundary circle, a
straight disk-avoiding chord between two cover points, and an attached ray.
Construction checks only that every leg but the last is bounded, that the
legs are all edge legs, on a ray complex, or all other legs, elsewhere,
that an arc leg's direction is +1 or -1, and that an attached leg names a
ray of its annulus.  An edge leg is bounded exactly when it has an ``end``,
so these checks do no leg arithmetic.  Leg lengths and offsets are
computed, edge legs checked to lie inside declared edges and to meet
(``_edge_plan``, with the ray's hair), annulus legs to meet and chords to
clear the open disk (``_annulus_plan``, the one table that ``locate``,
``_is_geodesic`` and ``AnnulusSpace._ray_distance`` read), on first use:
no other module reads a ray's legs.
Each annulus leg gives its own point at arc length (``at``), which
``_annulus_at`` reads off the leg ``locate`` finds for ``eval`` and, with
``eval``'s checks (``_checked_annulus_at``), ``AnnulusSpace._seed_at``,
which seeds a ray's point without making it, and the pair sampler's anchors.
A ray is unit-speed by the way its legs are parametrized, but nothing here
checks that it is a geodesic, and rays with corners can be built.  The
run-time check is ``annulus._is_geodesic``, on annulus rays, where the
escape-time search relies on it; each ray runs it once and keeps the
answer (``_geodesic``).

An edge ray is evaluated on integers only (``edge_location``): its plan
holds every leg offset, start and end in units of 1/m, m the LCM of their
denominators, so a parameter p/q lands on edge parameter num / (m q) with
integer arithmetic.  ``eval`` turns that into a ``RayComplexPoint``, the one
``Fraction`` of an evaluation.  Projections and escape cuts read its stop
table (``_stops``): the leg ends and the marks inside each leg, seeded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Union

from .annulus import AttachedLeg, BoundaryArcLeg, ChordLeg, _is_geodesic, chord_valid
from .errors import DomainError
from .points import (
    AnnulusPoint,
    AttachedRayPoint,
    Point,
    RayComplexPoint,
    check_annulus_coords,
    check_arc_length,
)
from .ray_complex import RayComplex


@dataclass(frozen=True)
class EdgeLeg:
    """Parameter interval [start, end] on a ray-complex edge (end=None: to infinity)."""

    edge_id: str
    start: Fraction
    end: Optional[Fraction]

    @cached_property
    def length(self) -> Optional[Fraction]:
        return None if self.end is None else abs(self.end - self.start)


Leg = Union[EdgeLeg, BoundaryArcLeg, ChordLeg, AttachedLeg]


@dataclass(frozen=True, eq=False)
class UnitSpeedRay:
    """Unit-speed ray in a host space, with a label for reports."""

    space: object
    label: str
    legs: tuple[Leg, ...]

    def __post_init__(self):
        for leg in self.legs[:-1]:
            if (leg.end if isinstance(leg, EdgeLeg) else leg.length) is None:
                raise DomainError("only the final leg of a ray may be unbounded")
        if len({isinstance(leg, EdgeLeg) for leg in self.legs}) != 1:
            raise DomainError("a ray's legs must be all edge legs or none")
        if isinstance(self.legs[0], EdgeLeg) != isinstance(self.space, RayComplex):
            raise DomainError("edge legs run on ray complexes, and no other legs do")
        for leg in self.legs:
            if isinstance(leg, BoundaryArcLeg) and leg.direction not in (1, -1):
                raise DomainError(f"an arc leg's direction is +1 or -1, not {leg.direction}")
            if isinstance(leg, AttachedLeg) and leg.ray_id not in self.space.attached:
                raise DomainError(f"unknown attached ray {leg.ray_id}")

    @cached_property
    def leg_offsets(self) -> tuple:
        """Global arc-length offset at which each leg starts."""
        offs = [0]
        for leg in self.legs[:-1]:
            offs.append(offs[-1] + leg.length)
        return tuple(offs)

    @cached_property
    def _annulus_plan(self) -> tuple:
        """The one table of an annulus ray, compiled on first use: per leg,
        (kind, offset, end, leg, data).  kind is the leg's class, end the
        offset plus the length (``math.inf`` on an unbounded final leg), and
        data what ``AnnulusSpace._ray_distance`` reads: an arc's angle
        interval and t0, an attached ray's id and its base's kernel terms,
        as the space made them, or None on a chord.  The one check that the
        legs meet: each starts where the one before ends, to 1e-12 relative,
        and none follows an attached leg; and that each chord clears the
        open disk (``annulus.chord_valid``)."""
        if isinstance(self.legs[0], EdgeLeg):
            raise DomainError(f"locate takes an annulus ray; {self.label!r} is not one")
        plan, end = [], None
        for leg, g0 in zip(self.legs, self.leg_offsets):
            if isinstance(leg, BoundaryArcLeg):
                data = (*leg.angle_interval(), leg.t0)
                start, stop = (leg.t0, 1.0), (leg.angle_at(leg.length or 0.0), 1.0)
            elif isinstance(leg, ChordLeg):
                if not chord_valid(leg.a, leg.b):
                    raise DomainError(
                        f"the chord of {self.label!r} at {g0} enters the open disk"
                    )
                data, start, stop = None, leg.a, leg.b
            else:  # an attached leg
                data = (leg.ray_id, self.space._base_terms[leg.ray_id])
                start, stop = self.space.attached[leg.ray_id], (math.nan, math.nan)
            if end is not None and not all(
                abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)) for a, b in zip(end, start)
            ):
                raise DomainError(f"the legs of {self.label!r} do not meet at {g0}")
            end = stop
            top = math.inf if leg.length is None else g0 + leg.length
            plan.append((type(leg), g0, top, leg, data))
        return tuple(plan)

    @cached_property
    def _edge_plan(self) -> Optional[tuple]:
        """(m, legs, hair) for a ray of edge legs, else None.  m is the LCM
        of the denominators of the leg offsets, starts and ends; each leg is
        (edge_id, top, offset, start, direction) with top the global
        parameter of its end (None: unbounded), all in units of 1/m, and
        direction +1 or -1 along the edge.  hair (None if the ray ends) is
        (edge_id, s*): the ray runs past the edge's last mark from s* =
        offset + max(0, last mark - start) on.  The one check of the legs:
        each lies inside a declared edge, is unbounded only on a ray edge,
        and starts where the one before ends (``RayComplex._same_point``)."""
        if not isinstance(self.legs[0], EdgeLeg):
            return None
        for leg in self.legs:
            edge = self.space.edges.get(leg.edge_id)
            if edge is None:
                raise DomainError(f"unknown edge {leg.edge_id}")
            ends = (leg.start, math.inf if leg.end is None else leg.end)
            if min(ends) < 0 or max(ends) > (edge.length or math.inf):
                raise DomainError(f"leg {leg.start}..{leg.end} outside edge {leg.edge_id}")
        legs = list(zip(self.legs, self.leg_offsets))
        m = math.lcm(*(
            x.denominator
            for leg, off in legs
            for x in (off, leg.start, leg.end)
            if x is not None
        ))
        plan = []
        for leg, off in legs:
            top = None if leg.end is None else int((off + leg.length) * m)
            direction = -1 if leg.end is not None and leg.end < leg.start else 1
            plan.append((leg.edge_id, top, int(off * m), int(leg.start * m), direction))
        for (eid, top, g0, a, way), (nid, _, g1, b, _) in zip(plan, plan[1:]):
            if not self.space._same_point((eid, a + way * (top - g0), m), (nid, b, m)):
                raise DomainError(f"the legs of {self.label!r} do not meet at {Fraction(g1, m)}")
        last = Fraction(self.space._int_marks[leg.edge_id][-1], self.space._scale)
        hair = None if leg.end is not None else (leg.edge_id, off + max(0, last - leg.start))
        return m, tuple(plan), hair

    @cached_property
    def _stops(self) -> tuple:
        """Per leg of an edge ray, (edge_id, lo, hi, offset, start, stops):
        [lo, hi] is the leg's edge interval (hi None: unbounded), and stops
        the (global parameter, seeded point) of lo, of each mark strictly
        between lo and hi, and of hi.  Built on first use."""
        self._edge_plan  # checks the legs first
        space, table = self.space, []
        m = space._scale
        for leg, off in zip(self.legs, self.leg_offsets):
            eid, start = leg.edge_id, leg.start
            lo, hi = (start, None) if leg.end is None else sorted((start, leg.end))
            # the marks k / m strictly between lo and hi
            a, b = math.floor(lo * m), math.inf if hi is None else math.ceil(hi * m)
            inner = [Fraction(k, m) for k in space._int_marks[eid] if a < k < b]
            stops = tuple(
                (off + abs(p - start), space._seeds(eid, *p.as_integer_ratio()))
                for p in (lo, *inner, hi) if p is not None
            )
            table.append((eid, lo, hi, off, start, stops))
        return tuple(table)

    def edge_location(self, t) -> tuple[str, int, int]:
        """(edge_id, num, den) of the point at global parameter t on a ray
        of edge legs: it lies at parameter num / den of edge_id, with den =
        m * (t's denominator), not reduced.  t is an int or a ``Fraction``;
        anything else (a float) is converted exactly.  A point where two
        legs meet belongs to the earlier leg."""
        plan = self._edge_plan
        if plan is None:
            raise DomainError(f"edge_location takes an edge ray; {self.label!r} is not one")
        if not isinstance(t, (int, Fraction)):
            try:
                t = Fraction(t)
            except (ValueError, OverflowError):
                raise DomainError(f"ray parameter must be finite, got {t}") from None
        p, q = t.numerator, t.denominator
        if p < 0:
            raise DomainError(f"ray parameter must be nonnegative, got {t}")
        m, legs, _ = plan
        x = p * m  # t in units of 1 / (m q)
        for eid, top, off, start, direction in legs:
            if top is None or x <= top * q:
                return eid, start * q + direction * (x - off * q), m * q
        raise DomainError(f"parameter {t} beyond end of finite ray")

    def locate(self, t):
        """(leg, local arc length) containing global parameter t >= 0, on a
        ray of annulus legs (an edge ray is a DomainError): the first leg of
        the plan that ends at or after t.  A NaN falls through to the last
        leg, whose point check names it."""
        plan = self._annulus_plan
        if t < 0:
            raise DomainError(f"ray parameter must be nonnegative, got {t}")
        for _, off, end, leg, _ in plan:
            if t <= end:
                return leg, t - off
        if t != t:
            return leg, t - off
        raise DomainError(f"parameter {t} beyond end of finite ray")

    def _annulus_at(self, t) -> tuple:
        """(None, angle, radius) of the point at global parameter t of an
        annulus ray, or (attached ray id, s, None) up an attached ray,
        unchecked: the located leg's ``at``, for ``eval`` and
        ``_checked_annulus_at``, which check the coordinates."""
        leg, s = self.locate(t)
        return leg.at(float(s))

    def _checked_annulus_at(self, t) -> tuple:
        """``_annulus_at`` with the checks ``eval``'s point makes, and the
        same errors, but no point: the one checked read of an annulus
        ray's point (``AnnulusSpace._seed_at``, the annulus pair sampler's
        anchors)."""
        rid, a, b = self._annulus_at(t)
        if rid is None:
            check_annulus_coords("annulus point", a, b)
        else:
            check_arc_length(a)
        return rid, a, b

    def eval(self, t) -> Point:
        sid = self.space.space_id
        if self._edge_plan is not None:
            eid, num, den = self.edge_location(t)
            return RayComplexPoint(sid, eid, Fraction(num, den))
        rid, a, b = self._annulus_at(t)
        if rid is None:
            return AnnulusPoint(sid, a, b)
        return AttachedRayPoint(sid, rid, a)

    @cached_property
    def _geodesic(self) -> bool:
        """``annulus._is_geodesic`` of this annulus ray, run on first use and
        kept, like the plan: every escape time asks it of both its rays."""
        return _is_geodesic(self)

    @property
    def basepoint(self) -> Point:
        return self.eval(0)

    def __repr__(self):
        return f"UnitSpeedRay({self.label!r}, {len(self.legs)} legs)"
