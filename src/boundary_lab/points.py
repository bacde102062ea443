"""Point variants.

Every point carries the identity (``space_id``) of the space it lives in;
operations mixing points from different spaces are rejected rather than
coerced.  Ray-complex coordinates are exact rationals, annulus coordinates
are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError

MAX_RADIUS = 1e150  # of annulus |t| and r: r * r overflows from about 1.3e154
_EXACT = (int, Fraction)  # offset types that are always finite


@dataclass(frozen=True)
class RayComplexPoint:
    """A location on one edge of a ray complex: 0 <= offset <= edge length."""

    space_id: str
    edge_id: str
    offset: Fraction

    def __post_init__(self):
        offset = self.offset
        # an int or Fraction is finite and has its numerator's sign; only
        # another type (a float) needs the comparison with math.inf
        if not (
            offset.numerator >= 0 if type(offset) in _EXACT else 0 <= offset < math.inf
        ):
            raise DomainError(f"offset {self.offset} on {self.edge_id} must be finite and >= 0")

    def __repr__(self):
        return f"{self.edge_id}:{self.offset}"


@dataclass(frozen=True)
class AnnulusPoint:
    """A location (t, r) on the unrolled plane-minus-disk: |t|, r <= MAX_RADIUS, r >= 1.

    The angle coordinate t takes any real value: the space is the universal
    cover, no mod-2pi reduction is ever applied.
    """

    space_id: str
    t: float
    r: float

    def __post_init__(self):
        check_annulus_coords("annulus point", self.t, self.r)

    def __repr__(self):
        return f"({self.t:.6g},{self.r:.6g})"


@dataclass(frozen=True)
class AttachedRayPoint:
    """A location at finite arc length s >= 0 along an attached ray."""

    space_id: str
    ray_id: str
    s: float

    def __post_init__(self):
        check_arc_length(self.s)

    def __repr__(self):
        return f"{self.ray_id}+{self.s:.6g}"


Point = Union[RayComplexPoint, AnnulusPoint, AttachedRayPoint]


def check_annulus_coords(subject: str, t: float, r: float) -> None:
    """Reject annulus coordinates other than |t| <= MAX_RADIUS and 1 <= r <=
    MAX_RADIUS (so NaN and infinities too); the message names ``subject``.
    Annulus points, attached bases and chord endpoints all pass through here."""
    if not (-MAX_RADIUS <= t <= MAX_RADIUS and 1.0 <= r <= MAX_RADIUS):
        raise DomainError(f"{subject} needs |t|, r <= MAX_RADIUS and r >= 1: {t}, {r}")


def check_arc_length(s: float) -> None:
    """Reject an arc length up an attached ray other than finite s >= 0:
    attached-ray points and seeded ray points pass through here."""
    if not 0.0 <= s < math.inf:
        raise DomainError(f"attached-ray point needs finite s >= 0, got s={s}")


def require_same_space(space_id: str, *points: Point) -> None:
    for p in points:
        if p.space_id != space_id:
            raise DomainError(
                f"point {p!r} belongs to space {p.space_id}, not {space_id}"
            )
