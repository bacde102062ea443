"""Seeded point and pair samplers for the example spaces.

Every sampler is a closure over its space taking a ``random.Random``; all
randomness flows through that generator, so runs are deterministic given
(seed, parameters).  Rational parameters are drawn on a dyadic grid so the
exact engines stay exact: a ray-complex point is an integer mark k on its
edge, at parameter k / DENOM, drawn from a table of each edge's step count
built with the sampler, and a nearby proposal's offset is one integer
numerator over 4 * DENOM * (the denominator of the edge's top).  A point
costs one ``Fraction``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from .annulus import AnnulusSpace
from .contraction import ray_distance
from .errors import BoundaryLabError, DomainError
from .points import Point, RayComplexPoint
from .ray_complex import RayComplex
from .rays import UnitSpeedRay

DENOM = 16  # dyadic denominator for rational sampling


def _rc_draw(space: RayComplex, horizon) -> Callable:
    """rng -> (point, k, top numerator, top denominator): a uniform edge,
    then a uniform integer mark 0 <= k <= steps, the point at k / DENOM.
    The table built here holds, per edge in id order, steps (the whole
    1 / DENOM steps in min(length, horizon)) and the edge's top (its length,
    or the horizon on a ray) as an integer ratio.  The horizon must be
    finite and >= 0, checked here.  k <= steps keeps the point on its edge,
    so it is made without ``RayComplex.point``'s checks."""
    if not 0 <= horizon < math.inf:
        raise DomainError(f"the horizon must be finite and >= 0, got {horizon}")
    hor, sid = Fraction(horizon), space.space_id
    table = []
    for eid in sorted(space.edges):
        top = space.edges[eid].length
        top = hor if top is None else top
        reach = min(top, hor)
        steps = reach.numerator * DENOM // reach.denominator
        table.append((eid, steps, top.numerator, top.denominator))
    n = len(table)

    def draw(rng: random.Random) -> tuple:
        eid, steps, top_num, top_den = table[rng.randrange(n)]
        k = rng.randint(0, steps)
        return RayComplexPoint(sid, eid, Fraction(k, DENOM)), k, top_num, top_den

    return draw


def rc_point_sampler(space: RayComplex, horizon) -> Callable:
    """Uniform edge choice, dyadic-rational parameter k / DENOM up to a
    horizon that is finite and >= 0, checked when the sampler is built."""
    draw = _rc_draw(space, horizon)

    def sample(rng: random.Random) -> Point:
        return draw(rng)[0]

    return sample


def annulus_point_sampler(
    space: AnnulusSpace, t_lo: float, t_hi: float, r_max: float
) -> Callable:
    """Uniform angle in [t_lo, t_hi] (both finite), log-uniform radius up
    to r_max (finite, >= 1), checked when the sampler is built; with
    probability 0.15 a point on an attached ray instead, at arc length
    uniform in [0, 20]."""
    if not (-math.inf < t_lo < math.inf and -math.inf < t_hi < math.inf):
        raise DomainError(f"the angle range must be finite, got {t_lo}, {t_hi}")
    if not 1.0 <= r_max < math.inf:
        raise DomainError(f"r_max must be finite and >= 1, got {r_max}")
    ray_ids = sorted(space.attached)

    def sample(rng: random.Random) -> Point:
        if ray_ids and rng.random() < 0.15:
            rid = ray_ids[rng.randrange(len(ray_ids))]
            return space.ray_pt(rid, rng.uniform(0.0, 20.0))
        t = rng.uniform(t_lo, t_hi)
        r = math.exp(rng.uniform(0.0, math.log(r_max)))
        return space.pt(t, max(1.0, r))

    return sample


def profile_pair_sampler(
    space,
    gamma: UnitSpeedRay,
    horizon,
    r_min: float = 0.05,
    r_max: float = 64.0,
) -> Callable:
    """Propose (x, y) pairs for contraction profiles.

    x is placed near the ray at a log-uniform offset scale, y inside a ball
    around x of radius roughly d(x, gamma); inadmissible proposals are
    filtered by the profiler, so this only has to be a decent proposal
    distribution, not an exact one.  Annulus proposals come as
    (x, y, (d(x, gamma), feet)): the projection of x is computed here to
    size the ball, and ``contraction_profile`` reuses it.  Their anchors
    gamma(u), u uniform in [0, 0.8 horizon], are read from gamma's legs
    with ``eval``'s checks and no point made (``_checked_annulus_at``).
    Every sampler needs a finite horizon >= 0, and an annulus sampler
    0 < r_min <= r_max < inf, checked when it is built.
    """
    if isinstance(space, RayComplex):
        draw, sid = _rc_draw(space, horizon), space.space_id

        def sample_rc(rng: random.Random):
            x, k, top_num, top_den = draw(rng)
            if rng.random() < 0.7:
                # nearby proposal on the same edge: far pairs rarely pass
                # the admissibility filter, so bias toward local ones.  x
                # moves by j / (4 DENOM) of the edge's top, clamped into
                # [0, top], on numerators over 4 DENOM top_den
                num = 4 * k * top_den + top_num * rng.randint(-DENOM, DENOM)
                num = min(max(num, 0), 4 * DENOM * top_num)
                return x, RayComplexPoint(sid, x.edge_id, Fraction(num, 4 * DENOM * top_den))
            return x, draw(rng)[0]

        return sample_rc

    if not 0 <= horizon < math.inf:
        raise DomainError(f"the horizon must be finite and >= 0, got {horizon}")
    if not 0 < r_min <= r_max < math.inf:
        raise DomainError(
            f"the offset scales need 0 < r_min <= r_max < inf, got {r_min}, {r_max}"
        )
    log_lo, log_hi, u_hi = math.log(r_min), math.log(r_max), float(horizon) * 0.8

    def sample(rng: random.Random):
        scale = math.exp(rng.uniform(log_lo, log_hi))
        u = rng.uniform(0.0, u_hi)
        rid, anchor_t, anchor_r = gamma._checked_annulus_at(u)
        if rid is not None:  # attached-ray anchor: hang off the base
            anchor_t, anchor_r = space.attached[rid]
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
