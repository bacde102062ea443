"""Geometry kernel for the unrolled plane-minus-unit-disk.

The space is parameterized by (t, r) in R x [1, inf) with the flat metric
ds^2 = dr^2 + r^2 dt^2 away from the removed disk; the angle coordinate is
unbounded (universal cover, no mod-2pi reduction anywhere).  The distance
between two points is realized either by the straight chord between them
(when the chord clears the disk) or by a tangent segment, an arc along the
boundary circle, and a second tangent segment.  Writing D = |t_p - t_q| and
phi = arccos(1/r) for the tangent angle of a point at radius r, the chord
applies exactly when D < phi_p + phi_q and the two formulas agree on the
boundary case, so the kernel is continuous.

Attached rays meet the annulus only at their base point, so distances
through them decompose through the base (wedge metric).
The legs of annulus rays (arcs on r = 1, chords and attached tails, each
with its point at arc length ``at``) live here with the chord geometry;
``rays`` assembles them into rays and this module imports nothing of it.
Every distance, projection, product window and claim product reads seeded
points (``AnnulusSpace._seed``) on the prepared kernel; a ray's point is
seeded from its leg (``_seed_at``) with no point object made, and
``_products`` forms a window's products.  ``ann_distance_coords`` is the
reference.  The space owns its rays' float geometry: point distance,
projection feet and escape (``_ray_distance``, ``_feet``, ``_escape``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .errors import DomainError, HorizonError
from .points import (
    AnnulusPoint,
    AttachedRayPoint,
    Point,
    check_annulus_coords,
    require_same_space,
)

Coords = tuple[float, float]
Terms = tuple[float, float, float, float]


# -- scalar kernel ---------------------------------------------------------

def ann_distance_coords(t1: float, r1: float, t2: float, r2: float) -> float:
    """Distance between cover coordinates; r1, r2 >= 1."""
    if r1 < 1.0 or r2 < 1.0:
        raise DomainError(f"annulus coordinates need r >= 1, got {r1}, {r2}")
    delta = abs(t1 - t2)
    phi1 = math.acos(min(1.0, 1.0 / r1))
    phi2 = math.acos(min(1.0, 1.0 / r2))
    if delta >= phi1 + phi2:
        return (
            math.sqrt(max(r1 * r1 - 1.0, 0.0))
            + math.sqrt(max(r2 * r2 - 1.0, 0.0))
            + (delta - phi1 - phi2)
        )
    return math.hypot(r1 - r2, 2.0 * math.sqrt(r1 * r2) * math.sin(0.5 * delta))


def kernel_terms(t: float, r: float) -> Terms:
    """Prepared kernel terms (t, r, phi, T) of cover coordinates: the
    tangent angle phi = arccos(1/r) and the tangent length T = sqrt(r^2 - 1),
    once per seeded point (``AnnulusSpace._seed``) or attached base.

    r >= 1 is required and not checked: every caller passes checked
    coordinates or clamps with ``max(rc, 1.0)``.  For r >= 1 the rounded
    1/r is at most 1 and the rounded r*r at least 1, so the clamps of
    ``ann_distance_coords`` (``min(1, 1/r)``, ``max(r*r - 1, 0)``) change
    nothing and are left out; the terms equal its values bit for bit."""
    return t, r, math.acos(1.0 / r), math.sqrt(r * r - 1.0)


def ann_distance_terms(p: Terms, q: Terms) -> float:
    """``ann_distance_coords`` on prepared terms, bit for bit: the same IEEE
    operations in the same order, with phi and T read instead of computed."""
    t1, r1, phi1, T1 = p
    t2, r2, phi2, T2 = q
    delta = abs(t1 - t2)
    if delta >= phi1 + phi2:
        return T1 + T2 + (delta - phi1 - phi2)
    return math.hypot(r1 - r2, 2.0 * math.sqrt(r1 * r2) * math.sin(0.5 * delta))


def ann_distance_arrays(t1, r1, t2, r2):
    """Vectorized kernel over numpy arrays (broadcasting allowed)."""
    t1, r1, t2, r2 = (np.asarray(a, dtype=float) for a in (t1, r1, t2, r2))
    delta = np.abs(t1 - t2)
    phi1 = np.arccos(np.minimum(1.0, 1.0 / r1))
    phi2 = np.arccos(np.minimum(1.0, 1.0 / r2))
    tangent = (
        np.sqrt(np.maximum(r1 * r1 - 1.0, 0.0))
        + np.sqrt(np.maximum(r2 * r2 - 1.0, 0.0))
        + (delta - phi1 - phi2)
    )
    chord = np.hypot(r1 - r2, 2.0 * np.sqrt(r1 * r2) * np.sin(0.5 * delta))
    return np.where(delta >= phi1 + phi2, tangent, chord)


# -- legs: arcs, chords and attached rays -----------------------------------

def develop_pair(a: Coords, b: Coords) -> tuple[float, float, float, float]:
    """Cartesian development (ax, ay, bx, by) of two cover points with `a`
    on the positive x-axis; only meaningful when |t_a - t_b| < pi."""
    dt = b[0] - a[0]
    return a[1], 0.0, b[1] * math.cos(dt), b[1] * math.sin(dt)


def chord_length(a: Coords, b: Coords) -> float:
    """Length of the straight segment ab of the development."""
    ax, ay, bx, by = develop_pair(a, b)
    return math.hypot(bx - ax, by - ay)


@dataclass(frozen=True)
class BoundaryArcLeg:
    """Arc along the boundary circle r = 1, from angle t0, signed direction."""

    t0: float
    direction: int  # +1 or -1
    length: Optional[float]  # None: unbounded

    def angle_at(self, s: float) -> float:
        return self.t0 + self.direction * s

    def angle_interval(self) -> tuple[float, float]:
        if self.length is None:
            if self.direction > 0:
                return (self.t0, math.inf)
            return (-math.inf, self.t0)
        t1 = self.angle_at(self.length)
        return (min(self.t0, t1), max(self.t0, t1))

    def at(self, s: float) -> tuple:
        """(None, angle, radius) at local arc length s, unchecked."""
        return None, self.angle_at(s), 1.0


@dataclass(frozen=True)
class ChordLeg:
    """Straight segment between cover points (t, r); must avoid the open
    disk, which a ray checks when it compiles its plan (``_annulus_plan``)."""

    a: Coords
    b: Coords

    def __post_init__(self):
        for t, r in (self.a, self.b):
            check_annulus_coords("chord endpoints", t, r)
        if abs(self.b[0] - self.a[0]) >= math.pi:
            raise DomainError("chord legs must span less than a half turn")

    @cached_property
    def _developed(self) -> tuple[float, float, float, float]:
        return develop_pair(self.a, self.b)

    @cached_property
    def length(self) -> float:
        return chord_length(self.a, self.b)

    def coords_at(self, s: float) -> tuple[float, float]:
        ax, ay, bx, by = self._developed
        ell = self.length
        f = 0.0 if ell == 0 else s / ell
        x, y = ax + f * (bx - ax), ay + f * (by - ay)
        return self.a[0] + math.atan2(y, x), math.hypot(x, y)

    def at(self, s: float) -> tuple:
        """(None, angle, radius) at local arc length s, r clamped to >= 1."""
        tt, rr = self.coords_at(s)
        return None, tt, max(rr, 1.0)

    @cached_property
    def _candidates(self) -> tuple:
        """(t_a, ax, ay, ux, uy, head, tail): what ``_chord_distance``
        needs of a chord of positive length that does not depend on the
        query point.  (ax, ay) is the developed start, (ux, uy) the unit
        direction.  head and tail are (parameter, kernel terms) pairs of the
        fixed candidates, each clamped to [0, length]: head holds 0 and the
        length, tail u0 - 1 and u0 + 1 (u0 the foot of the disk center)
        without repeats of earlier ones."""
        ell = self.length
        ax, ay, bx, by = self._developed
        ux, uy = (bx - ax) / ell, (by - ay) / ell
        u0 = -(ax * ux + ay * uy)
        fixed: list = []
        for c in (0.0, ell, u0 - 1.0, u0 + 1.0):
            s = min(max(c, 0.0), ell)
            if all(s != f for f, _ in fixed):
                fixed.append((s, kernel_terms(*self.at(s)[1:])))
        return self.a[0], ax, ay, ux, uy, tuple(fixed[:2]), tuple(fixed[2:])


@dataclass(frozen=True)
class AttachedLeg:
    """Tail running up an attached ray from its base (s = 0)."""

    ray_id: str
    length: Optional[float] = None  # None in practice

    def at(self, s: float) -> tuple:
        """(attached ray id, s, None): the point s up the attached ray."""
        return self.ray_id, s, None


def segment_origin_distance(a: Coords, b: Coords) -> float:
    """Distance from the disk center to the developed segment ab."""
    ax, ay, bx, by = develop_pair(a, b)
    vx, vy = bx - ax, by - ay
    vv = vx * vx + vy * vy
    if vv == 0:
        return math.hypot(ax, ay)
    u = max(0.0, min(1.0, -(ax * vx + ay * vy) / vv))
    return math.hypot(ax + u * vx, ay + u * vy)


def chord_valid(a: Coords, b: Coords) -> bool:
    """True when the straight segment ab stays out of the open unit disk."""
    if abs(b[0] - a[0]) >= math.pi:
        return False
    return segment_origin_distance(a, b) >= 1.0 - 1e-12


def geodesic_legs(pc: Coords, qc: Coords):
    """Legs realizing the geodesic between two annulus coordinate pairs."""
    (tp, rp), (tq, rq) = pc, qc
    if tq < tp:
        legs = geodesic_legs(qc, pc)
        return tuple(_reverse_leg(leg) for leg in reversed(legs))
    delta = tq - tp
    phip = math.acos(min(1.0, 1.0 / rp))
    phiq = math.acos(min(1.0, 1.0 / rq))
    if delta < phip + phiq:
        if pc == qc:
            return ()
        return (ChordLeg(pc, qc),)
    psi_p = tp + phip
    psi_q = tq - phiq
    legs: list = []
    if rp > 1.0:
        legs.append(ChordLeg(pc, (psi_p, 1.0)))
    if psi_q > psi_p:
        legs.append(BoundaryArcLeg(psi_p, +1, psi_q - psi_p))
    if rq > 1.0:
        legs.append(ChordLeg((psi_q, 1.0), qc))
    return tuple(legs)


def _reverse_leg(leg):
    if isinstance(leg, ChordLeg):
        return ChordLeg(leg.b, leg.a)
    if isinstance(leg, BoundaryArcLeg):
        return BoundaryArcLeg(leg.angle_at(leg.length), -leg.direction, leg.length)
    raise DomainError("cannot reverse unbounded leg")


# -- rays: point distance, projection feet, escape -------------------------

def _chord_distance(leg: ChordLeg, xt: Terms) -> tuple[float, float]:
    """(distance, local argmin) from a point with kernel terms xt to a chord
    leg.

    Exact, with no search: the annulus cover is CAT(0), so s -> d(x, c(s))
    is convex along the chord c (Bridson-Haefliger II.2.2), and it is C^1
    across the kernel's split between its chord and tangent branches.  Its
    minimizer is therefore an endpoint or a critical point of the active
    branch.  On the chord branch that is the Euclidean foot of dev x, where
    x is developed at angle t_x - t_a (the developing map (r cos t,
    r sin t) is a local isometry of the cover, so |t_x - t_a| may exceed
    pi).  On the tangent branch d = const + T(c) - phi(c) +- t(c), with
    T = sqrt(r^2 - 1) and phi = arccos(1/r); writing u for the chord
    parameter measured from u0, the foot of the perpendicular from the disk
    center at distance p, its derivative is (u T +- p) / r^2, which
    vanishes exactly at u = -+1.  The kernel is evaluated at these
    candidates (0, length, the foot, u0 - 1, u0 + 1), each clamped to the
    chord, and the least value is returned.  Only the foot depends on x:
    the other four, and the kernel terms of the chord points there, are
    per-leg constants computed on first use (``ChordLeg._candidates``).
    A clamped candidate equal to an earlier one is not evaluated again: its
    value could not win the strict comparison, so the result is the same.

    The kernel runs on prepared terms (``ann_distance_terms``), so its
    formula exists twice in this module; a test pins the two bit for bit.
    """
    ell = leg.length
    if ell == 0.0:
        return ann_distance_terms(xt, kernel_terms(*leg.a)), 0.0
    ta, ax, ay, ux, uy, head, tail = leg._candidates
    tx, rx = xt[0], xt[1]
    dt = tx - ta
    foot = (rx * math.cos(dt) - ax) * ux + (rx * math.sin(dt) - ay) * uy
    foot = min(max(foot, 0.0), ell)
    best = (math.inf, 0.0)
    for s, terms in head:
        d = ann_distance_terms(xt, terms)
        if d < best[0]:
            best = (d, s)
    if foot != 0.0 and foot != ell:
        d = ann_distance_terms(xt, kernel_terms(*leg.at(foot)[1:]))
        if d < best[0]:
            best = (d, foot)
    for s, terms in tail:
        if s != foot:
            d = ann_distance_terms(xt, terms)
            if d < best[0]:
                best = (d, s)
    return best


def _level_edge(f, start, toward, threshold, horizon):
    """Last parameter in direction `toward` still inside {f <= threshold}."""
    step = max(1e-9, horizon * 1e-7)
    cur = start
    while cur != toward:
        trial = min(cur + step, toward) if toward > cur else max(cur - step, toward)
        if f(trial) <= threshold:
            cur = trial
            step *= 2
        else:
            # bisect the crossing between cur (inside) and trial (outside)
            a, b = cur, trial
            for _ in range(60):
                m = 0.5 * (a + b)
                if f(m) <= threshold:
                    a = m
                else:
                    b = m
            return a
    return cur


def _is_geodesic(ray) -> bool:
    """Whether an annulus ray passes the run-time geodesic check:
    d(ray(0), ray(L)) = L to 1e-12 relative, so the ray is a geodesic on
    [0, L].  L is the end of the last finite leg, or one unit past the start
    of a final unbounded r = 1 arc, so that a corner where the arc begins
    lies inside [0, L].  Past L the ray runs up an attached ray, which meets
    the rest of the space only at its base, or along r = 1, a local geodesic;
    in a CAT(0) space a local geodesic is a geodesic (Bridson-Haefliger, B-H,
    II.1.4).  Annulus escape times require it of both rays; L is read from
    the last entry of the ray's plan (``UnitSpeedRay._annulus_plan``).
    """
    kind, g0, end, _, _ = ray._annulus_plan[-1]
    if end == math.inf:
        end = g0 + 1.0 if kind is BoundaryArcLeg else g0
    return abs(ray.space.distance(ray.eval(0.0), ray.eval(end)) - end) <= 1e-12 * end


# A grid of more than 2^53 points is rejected: k (H / n) indexes no more.
_MAX_GRID_POINTS = 2 ** 53


def _last_inside_convex(f, n: int, level: float, tol: float, d0: float) -> int:
    """Last grid index k < n with f(k) <= level < f(n), for a convex f on
    0..n with f(0) = d0.

    From d0 <= level: {f <= level} is an interval from 0, and when f(n) <=
    level too, f at 0, n // 2 and n decides the error.  From d0 > level:
    "f(k) <= level or f(k + 1) < f(k)" holds on a prefix of the grid (once
    f is above the level and not falling it stays so), and the last k of
    that prefix is the answer if f(k) <= level; if not, f falls strictly up
    to k + 1 and stays above the level: no grid point is inside.
    """
    if d0 > level:
        g = cache(f)
        if g(n) <= level:
            raise HorizonError("still inside the 2C-neighborhood at the horizon")
        lo, hi = -1, n
        while hi - lo > 1:
            k = (lo + hi) // 2
            if g(k) <= level or g(k + 1) < g(k):
                lo = k
            else:
                hi = k
        if lo < 0 or g(lo) > level:
            raise DomainError("ray starts outside the 2C-neighborhood")
        return lo
    mid = (n + 1) // 2
    d_mid, d_end = f(mid), f(n)
    if d_end <= level:
        top = max(d0, d_mid, d_end)
        if top >= level:
            raise HorizonError("still inside the 2C-neighborhood at the horizon")
        if d_end > d_mid + tol:
            raise HorizonError("distance still rising at the horizon without reaching 2C")
        raise DomainError(f"ray never reaches distance 2C = {level} (max {top:.6g})")
    lo, hi = (mid, n) if d_mid <= level else (0, mid)
    while hi - lo > 1:
        k = (lo + hi) // 2
        if f(k) <= level:
            lo = k
        else:
            hi = k
    return lo


# -- the space -------------------------------------------------------------

class AnnulusSpace:
    """The unrolled annulus with finitely many attached rays.

    The basepoint is fixed at (0, 1).  Attached rays are named and meet the
    annulus only at their (pairwise distinct) base points.
    """

    TOL = 1e-6  # float tolerance of projections, product stability and U-sets

    def __init__(self, attached: Optional[dict[str, Coords]] = None):
        self.attached: dict[str, Coords] = dict(attached or {})
        seen = set()
        for rid, (t, r) in self.attached.items():
            check_annulus_coords(f"attached base of {rid}", t, r)
            if (t, r) in seen:
                raise DomainError("attached-ray bases must be distinct")
            seen.add((t, r))
        self._base_terms = {rid: kernel_terms(*c) for rid, c in self.attached.items()}
        digest = hashlib.sha256(
            repr(sorted(self.attached.items())).encode()
        ).hexdigest()[:12]
        self.space_id = f"ann:{digest}"

    # construction helpers
    @property
    def basepoint(self) -> AnnulusPoint:
        return AnnulusPoint(self.space_id, 0.0, 1.0)

    def pt(self, t: float, r: float) -> AnnulusPoint:
        return AnnulusPoint(self.space_id, float(t), float(r))

    def ray_pt(self, ray_id: str, s: float) -> AttachedRayPoint:
        if ray_id not in self.attached:
            raise DomainError(f"unknown attached ray {ray_id}")
        return AttachedRayPoint(self.space_id, ray_id, float(s))

    # metric
    def _seed(self, p: Point) -> tuple:
        """The one check of a caller's point, as (kernel terms, wedge
        length, attached ray id or None); an attached point reads its base's."""
        if p.space_id != self.space_id:
            raise DomainError(f"point {p!r} belongs to space {p.space_id}, not {self.space_id}")
        if type(p) is AnnulusPoint:
            return kernel_terms(p.t, p.r), 0.0, None
        if isinstance(p, AttachedRayPoint):
            if p.ray_id not in self.attached:
                raise DomainError(f"unknown attached ray {p.ray_id}")
            return self._base_terms[p.ray_id], p.s, p.ray_id
        raise DomainError(f"not a point of this space: {p!r}")

    def _seed_at(self, ray, s) -> tuple:
        """``_seed(ray.eval(s))``, bit for bit and with the same errors, from
        the ray's leg (``UnitSpeedRay._checked_annulus_at``): no point is
        made.  A ray of another space object goes through ``eval``."""
        if ray.space is not self:
            return self._seed(ray.eval(s))
        rid, a, b = ray._checked_annulus_at(s)
        if rid is None:
            return kernel_terms(a, b), 0.0, None
        return self._base_terms[rid], a, rid

    @staticmethod
    def _seeded_distance(a: tuple, b: tuple) -> float:
        """d(a, b) for seeded points: along a shared attached ray, else via the bases."""
        if a[2] is not None and a[2] == b[2]:
            return abs(a[1] - b[1])
        return a[1] + b[1] + ann_distance_terms(a[0], b[0])

    def distance(self, p: Point, q: Point) -> float:
        return self._seeded_distance(self._seed(p), self._seed(q))

    @staticmethod
    def _products(xo: list, yo: list, xy: list) -> list:
        """A window's products (dx + dy - dxy) / 2, row-major like ``xy``,
        in ``gromov_product``'s operand order: bit for bit its values."""
        n = len(yo)
        return [(dx + dy - xy[i * n + j]) / 2
                for i, dx in enumerate(xo) for j, dy in enumerate(yo)]

    @classmethod
    def _least_product(cls, xo: list, yo: list, xy: list) -> float:
        """A window's least product."""
        return min(cls._products(xo, yo, xy))

    # rays
    def _ray_distance(self, x: Point, ray) -> tuple:
        """(distance from x to the ray, sorted minimizing parameters, each
        once): the least of a closed form per leg (``_chord_distance`` on a
        chord).  A lone minimizer is returned as it is."""
        xt, wedge, on_ray = self._seed(x)
        best = math.inf
        hits: list = []
        for kind, g0, _, leg, data in ray._annulus_plan:
            if kind is ChordLeg:
                d, s = _chord_distance(leg, xt)
            elif kind is BoundaryArcLeg:
                lo, hi, t0 = data
                foot = min(max(xt[0], lo), hi)
                # the terms of (foot, 1): phi = arccos(1) and T = sqrt(0) are 0
                d, s = ann_distance_terms(xt, (foot, 1.0, 0.0, 0.0)), abs(foot - t0)
            elif data[0] == on_ray:  # x lies on this attached leg
                return 0.0, [g0 + wedge]
            else:
                d, s = ann_distance_terms(xt, data[1]), 0.0
            d = wedge + d
            g = g0 + s
            if d < best - 1e-12:
                best, hits = d, [g]
            elif d <= best + 1e-12:
                hits.append(g)
        return best, hits if len(hits) == 1 else sorted(set(hits))

    def _feet(self, x: Point, horizon):
        """The feet of a projection of x, as a function (ray, minimizers,
        level) -> intervals: each minimizer g widens to the largest interval
        around it where d(x, ray(t)) <= level, walked no further than the
        horizon (so it may not be None), and the intervals merge within 1e-9."""
        if horizon is None:
            raise DomainError("an annulus projection needs a finite horizon, got None")

        def feet(ray, params, level):
            sx, dist, at = self._seed(x), self._seeded_distance, self._seed_at

            def f(t):
                return dist(sx, at(ray, t))

            merged: list = []
            for lo, hi in sorted((min(_level_edge(f, g, 0.0, level, horizon), g),
                                  max(_level_edge(f, g, horizon, level, horizon), g))
                                 for g in params):
                if merged and lo <= merged[-1][1] + 1e-9:
                    merged[-1][1] = max(merged[-1][1], hi)
                else:
                    merged.append([lo, hi])
            return merged

        return feet

    def _escape(self, alpha, beta, C, horizon, f) -> tuple:
        """(escape time, bracket): the last crossing of 2C by f(t) = d(beta(t),
        alpha) before the horizon H, bracketed to 1e-9.

        Both rays must pass ``_is_geodesic``, which each ray runs once and
        keeps (``UnitSpeedRay._geodesic``); a DomainError otherwise.  The
        annulus cover with rays attached at single points is CAT(0) (B-H
        II.11.1), the geodesic ray alpha has a closed convex image, and the
        distance to a closed convex set is convex along the geodesic beta
        (B-H II.2.5).  So ``_last_inside_convex`` finds the last point of the
        grid ts[k] = k (H / n), ts[n] = H, n = max(8, ceil(4 H / C)), with
        f <= 2C in about log2(n) queries; a grid of more than 2^53 points is
        a DomainError.  The crossing after that grid point is bisected.
        """
        if not (alpha._geodesic and beta._geodesic):
            raise DomainError("annulus escape times need geodesic rays")
        H, level, step = float(horizon), 2.0 * float(C), float(C) / 4.0
        d0 = f(0.0)
        span = H / step if step > 0.0 else math.inf
        if not span <= _MAX_GRID_POINTS - 1:
            raise DomainError(
                f"an escape grid to horizon {horizon} at step C/4 = {step:.6g} needs "
                f"more than {_MAX_GRID_POINTS} samples"
            )
        n = max(8, math.ceil(span))

        def at(k: int) -> float:
            return H if k == n else k * (H / n)

        k = _last_inside_convex(lambda k: f(at(k)), n, level, self.TOL, d0)
        lo, hi = at(k), at(k + 1)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) <= level:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-9:
                break
        return 0.5 * (lo + hi), (lo, hi)

    def geodesic_polyline(
        self, p: AnnulusPoint, q: AnnulusPoint, samples: int = 33
    ) -> tuple[AnnulusPoint, ...]:
        """Points tracking the geodesic from p to q, starting at p."""
        require_same_space(self.space_id, p, q)
        legs = geodesic_legs((p.t, p.r), (q.t, q.r))
        pts = [p]
        for leg in legs:
            n = max(2, samples // max(1, len(legs)))
            pts += (AnnulusPoint(self.space_id, *leg.at(leg.length * k / n)[1:])
                    for k in range(1, n + 1))
        if not legs:
            pts.append(q)
        return tuple(pts)

    def __repr__(self):
        return f"AnnulusSpace({len(self.attached)} attached rays, id={self.space_id})"


# -- the coordinate-shear quasi-isometry ------------------------------------

def spiral_coords(t: float, r: float, direction: str = "forward") -> Coords:
    """(t, r) -> (t - log2 r, r), or the algebraic inverse."""
    if direction == "forward":
        return (t - math.log2(r), r)
    if direction == "inverse":
        return (t + math.log2(r), r)
    raise DomainError(f"direction must be forward or inverse, got {direction!r}")


@dataclass(frozen=True)
class SpiralMap:
    """Point-level shear map between two annulus spaces.

    Attached rays map isometrically by matching ray ids; bases must agree
    with the coordinate formula (checked at construction).
    """

    source: AnnulusSpace
    target: AnnulusSpace

    def __post_init__(self):
        if not (isinstance(self.source, AnnulusSpace) and isinstance(self.target, AnnulusSpace)):
            raise DomainError("the shear map runs between annulus spaces")
        for rid, (t, r) in self.source.attached.items():
            if rid not in self.target.attached:
                raise DomainError(f"target space lacks attached ray {rid}")
            tt, rr = self.target.attached[rid]
            ft, fr = spiral_coords(t, r)
            if abs(ft - tt) > 1e-9 or abs(fr - rr) > 1e-9:
                raise DomainError(f"attached ray {rid} bases do not correspond")

    def map_point(self, p: Point, direction: str = "forward") -> Point:
        if direction not in ("forward", "inverse"):
            raise DomainError(f"direction must be forward or inverse, got {direction!r}")
        src = self.source if direction == "forward" else self.target
        dst = self.target if direction == "forward" else self.source
        require_same_space(src.space_id, p)
        if isinstance(p, AttachedRayPoint):
            return AttachedRayPoint(dst.space_id, p.ray_id, p.s)
        t, r = spiral_coords(p.t, p.r, direction)
        return AnnulusPoint(dst.space_id, t, r)
