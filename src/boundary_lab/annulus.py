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
Every distance, projection and product window reads seeded points
(``AnnulusSpace._seed``) on the prepared kernel; ``ann_distance_coords`` is
the reference.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .points import (
    AnnulusPoint,
    AttachedRayPoint,
    Point,
    check_annulus_coords,
    require_same_space,
)
from .rays import BoundaryArcLeg, ChordLeg

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
    """Prepared kernel terms (t, r, phi, T) of cover coordinates, r >= 1:
    the tangent angle phi = arccos(1/r) and the tangent length
    T = sqrt(r^2 - 1), computed as ``ann_distance_coords`` computes them,
    once per seeded point (``AnnulusSpace._seed``) or attached base."""
    return t, r, math.acos(min(1.0, 1.0 / r)), math.sqrt(max(r * r - 1.0, 0.0))


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


def develop_pair(a: Coords, b: Coords) -> tuple[float, float, float, float]:
    """Cartesian development of two cover points with `a` on the x-axis.

    Only meaningful when |t_a - t_b| < pi.
    """
    dt = b[0] - a[0]
    return a[1], 0.0, b[1] * math.cos(dt), b[1] * math.sin(dt)


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
        require_same_space(self.space_id, p)
        if isinstance(p, AnnulusPoint):
            return kernel_terms(p.t, p.r), 0.0, None
        if isinstance(p, AttachedRayPoint):
            if p.ray_id not in self.attached:
                raise DomainError(f"unknown attached ray {p.ray_id}")
            return self._base_terms[p.ray_id], p.s, p.ray_id
        raise DomainError(f"not a point of this space: {p!r}")

    def _seed_at(self, ray, s) -> tuple:
        return self._seed(ray.eval(s))

    @staticmethod
    def _seeded_distance(a: tuple, b: tuple) -> float:
        """d(a, b) for seeded points: along a shared attached ray, else via the bases."""
        if a[2] is not None and a[2] == b[2]:
            return abs(a[1] - b[1])
        return a[1] + b[1] + ann_distance_terms(a[0], b[0])

    def distance(self, p: Point, q: Point) -> float:
        return self._seeded_distance(self._seed(p), self._seed(q))

    @staticmethod
    def _least_product(xo: list, yo: list, xy: list) -> float:
        """A window's least product, in ``gromov_product``'s operand order."""
        n = len(yo)
        return min((dx + dy - xy[i * n + j]) / 2
                   for i, dx in enumerate(xo) for j, dy in enumerate(yo))

    def geodesic_polyline(
        self, p: AnnulusPoint, q: AnnulusPoint, samples: int = 33
    ) -> tuple[AnnulusPoint, ...]:
        """Points tracking the geodesic from p to q, starting at p."""
        require_same_space(self.space_id, p, q)
        legs = geodesic_legs((p.t, p.r), (q.t, q.r))
        pts = [p]
        for leg in legs:
            n = max(2, samples // max(1, len(legs)))
            for k in range(1, n + 1):
                s = leg.length * k / n
                if isinstance(leg, ChordLeg):
                    tt, rr = leg.coords_at(s)
                    pts.append(AnnulusPoint(self.space_id, tt, max(1.0, rr)))
                else:
                    pts.append(AnnulusPoint(self.space_id, leg.angle_at(s), 1.0))
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
        for rid, (t, r) in self.source.attached.items():
            if rid not in self.target.attached:
                raise DomainError(f"target space lacks attached ray {rid}")
            tt, rr = self.target.attached[rid]
            ft, fr = spiral_coords(t, r)
            if abs(ft - tt) > 1e-9 or abs(fr - rr) > 1e-9:
                raise DomainError(f"attached ray {rid} bases do not correspond")

    def map_point(self, p: Point, direction: str = "forward") -> Point:
        src = self.source if direction == "forward" else self.target
        dst = self.target if direction == "forward" else self.source
        require_same_space(src.space_id, p)
        if isinstance(p, AttachedRayPoint):
            return AttachedRayPoint(dst.space_id, p.ray_id, p.s)
        t, r = spiral_coords(p.t, p.r, direction)
        return AnnulusPoint(dst.space_id, t, r)
