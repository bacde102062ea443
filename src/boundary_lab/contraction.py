"""Closest-point projections onto rays and everything built on them:
contraction profiles, the geodesic-image property check, escape times,
residual checks for the product-vs-escape-time comparison, and the
neighborhood-basis condition.

Projections are set-valued and returned as maximal parameter intervals;
ties (a point projecting to two far-apart feet) are reported as separate
intervals, never collapsed.  A projection keeps every parameter within a
tolerance of the distance: by default the space's ``TOL``, which is 0 on
ray complexes (exact arithmetic) and 1e-6 on the annulus (floats).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence, Union

# ann_distance_arrays and ann_distance_coords are unused here: bench/spans.py
# patches these names
from .annulus import (  # noqa: F401
    AnnulusSpace,
    Terms,
    ann_distance_arrays,
    ann_distance_coords,
    ann_distance_terms,
    kernel_terms,
)
from .boundary import shared_products
from .errors import DomainError, HorizonError
from .metric import gromov_product
from .points import Point, RayComplexPoint, require_same_space
from .ray_complex import RayComplex
from .rays import BoundaryArcLeg, ChordLeg, UnitSpeedRay


# -- distance from a point to a ray -----------------------------------------

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
    formula exists twice in ``annulus``; a test pins the two bit for bit.
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
        tc, rc = leg.coords_at(foot)
        d = ann_distance_terms(xt, kernel_terms(tc, max(rc, 1.0)))
        if d < best[0]:
            best = (d, foot)
    for s, terms in tail:
        if s != foot:
            d = ann_distance_terms(xt, terms)
            if d < best[0]:
                best = (d, s)
    return best


def ray_distance(x: Point, ray: UnitSpeedRay, horizon=None):
    """(distance from x to the ray, global argmin parameters).

    Exact in ray complexes; closed form in the annulus (chords: see
    ``_chord_distance``).
    Raises DomainError when x is not a point of the ray's space, and
    HorizonError when every minimizer sits at or beyond the horizon.
    """
    space = ray.space
    if isinstance(space, RayComplex):
        d, params = _rc_ray_distance(space, x, ray)
    else:
        d, params = _annulus_ray_distance(space, x, ray)
    _check_horizon(params, horizon)
    return d, params


def _check_horizon(params, horizon) -> None:
    """Raise DomainError for a NaN or infinite horizon, and HorizonError
    when every minimizer sits at or beyond the horizon (None: no horizon)."""
    if horizon is None:
        return
    if not -math.inf < horizon < math.inf:
        raise DomainError(f"the horizon must be finite, got {horizon}")
    if all(p >= horizon for p in params):
        raise HorizonError(
            f"projection minimizer at parameter {min(params)} >= horizon {horizon}"
        )


def _rc_ray_distance(space: RayComplex, x: RayComplexPoint, ray: UnitSpeedRay):
    """(exact distance, sorted minimizing parameters) from x to the ray.

    The candidates are the ray's stops (``UnitSpeedRay._stops``: each leg's
    two ends and the marks inside it) and x's own offset when x lies on a
    leg; these are enough.  Between two consecutive marks of an edge, d(x, .)
    is the minimum of two linear functions (the routes through either mark),
    so on any interval there it is least at an end of the interval.  On x's
    own edge the along-edge term makes it V-shaped around x, where it is 0.

    x is checked and seeded once per query (``RayComplex._seed``) and every
    stop once per ray, so a candidate costs one ``_seeded_distance``.
    Candidates compare by cross-multiplying; the distance is one ``Fraction``.
    """
    seeded = space._seed(x)
    dist = space._seeded_distance
    cands = []  # (numerator, denominator, global parameter)
    for eid, lo, hi, g0, start, stops in ray._stops:
        cands += [(*dist(seeded, stop), g) for g, stop in stops]
        if x.edge_id == eid and lo <= x.offset and (hi is None or x.offset <= hi):
            cands.append((0, 1, g0 + abs(x.offset - start)))
    num, den = cands[0][:2]
    for n, d, _ in cands:
        if n * den < num * d:
            num, den = n, d
    hits = {g for n, d, g in cands if n * den == num * d}
    return Fraction(num, den), sorted(hits)


def _annulus_ray_distance(space: AnnulusSpace, x: Point, ray: UnitSpeedRay):
    xt, wedge, on_ray = space._seed(x)
    best = math.inf
    hits: list = []
    for kind, g0, data in ray._annulus_plan:
        if kind is ChordLeg:
            d, s = _chord_distance(data, xt)
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
    return best, sorted(set(hits))


# -- set-valued projection ---------------------------------------------------

@dataclass(frozen=True)
class ProjectionResult:
    """Projection of a point onto target rays, as parameter intervals."""

    distance: Union[Fraction, float]
    intervals: tuple  # of (ray, lo, hi), global ray parameters, lo <= hi

    def points(self) -> list[Point]:
        pts = []
        for ray, lo, hi in self.intervals:
            pts.append(ray.eval(lo))
            if hi != lo:
                pts.append(ray.eval(hi))
        return pts

    def diameter(self, space):
        pts = self.points()
        worst = 0 * self.distance  # a zero of the distance's own type
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                worst = max(worst, space.distance(a, b))
        return worst


def project(
    x: Point,
    target: Union[UnitSpeedRay, Sequence[UnitSpeedRay]],
    horizon,
    tol=None,
) -> ProjectionResult:
    """All parameters realizing the distance from x to the target rays,
    within tol (the space's ``TOL`` by default, finite and >= 0), as maximal
    intervals per ray.  On the annulus the level-set walk ends at the
    horizon, so it may not be None there."""
    rays = [target] if isinstance(target, UnitSpeedRay) else list(target)
    if not rays:
        raise DomainError("projection needs at least one target ray")
    space = rays[0].space
    exact = isinstance(space, RayComplex)
    if horizon is None and not exact:
        raise DomainError("an annulus projection needs a finite horizon, got None")
    if tol is None:
        tol = space.TOL
    if not 0 <= tol < math.inf:
        raise DomainError(f"the tolerance must be finite and >= 0, got {tol}")

    per_ray = [ray_distance(x, ray, horizon) for ray in rays]
    dmin = min(d for d, _ in per_ray)

    intervals = []
    for ray, (d, params) in zip(rays, per_ray):
        if d > dmin + tol:
            continue
        if exact:
            intervals += [(ray, g, g) for g in params]
        else:
            for g in params:
                lo, hi = _expand_level_set(space, x, ray, g, dmin + tol, horizon)
                intervals.append((ray, lo, hi))
    intervals = _merge_intervals(intervals, 0 if exact else 1e-9)
    return ProjectionResult(dmin, tuple(intervals))


def _expand_level_set(space, x, ray, g, threshold, horizon):
    """Maximal parameter interval around g where d(x, ray(t)) <= threshold."""

    def f(t):
        return space.distance(x, ray.eval(t))

    lo = _level_edge(f, g, 0.0, threshold, horizon)
    hi = _level_edge(f, g, horizon, threshold, horizon)
    return min(lo, g), max(hi, g)


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


def _merge_intervals(intervals, gap):
    by_ray: dict = {}
    for ray, lo, hi in intervals:
        by_ray.setdefault(id(ray), (ray, []))[1].append((lo, hi))
    out = []
    for ray, ivs in by_ray.values():
        ivs.sort()
        merged = [list(ivs[0])]
        for lo, hi in ivs[1:]:
            if lo <= merged[-1][1] + gap:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out += [(ray, lo, hi) for lo, hi in merged]
    return out


# -- contraction profiles -----------------------------------------------------

@dataclass
class ContractionProfile:
    """Empirical map (radius bucket -> max joint projection diameter).

    Buckets are dyadic: bucket k covers distances in [2^k, 2^(k+1)).
    Classification ``bounded`` means the monotone envelope gained nothing
    over the last two occupied buckets; ``sublinear`` means the envelope
    to radius ratio decays along the occupied buckets; anything else is
    ``violated`` (or unstabilized, reported separately).
    """

    BOUNDED_DECAY = 0.55  # trailing/peak increment-window ratio: below saturates

    bins: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    samples: int = 0
    classification: str = "inconclusive"
    constant: Optional[float] = None
    growth_per_doubling: Optional[float] = None
    stabilized: bool = False

    def record(self, radius, diam, witness) -> None:
        if radius <= 0:
            return
        self.samples += 1
        k = math.floor(math.log2(radius))
        if k not in self.bins or diam > self.bins[k]:
            self.bins[k] = diam
            self.witnesses[k] = witness

    def merge(self, other: "ContractionProfile") -> "ContractionProfile":
        out = ContractionProfile()
        out.samples = self.samples + other.samples
        for src in (self, other):
            for k, v in src.bins.items():
                if k not in out.bins or v > out.bins[k]:
                    out.bins[k] = v
                    out.witnesses[k] = src.witnesses[k]
        out.classify()
        return out

    def envelope(self) -> list[tuple[int, float]]:
        """Monotone upper envelope over sorted buckets."""
        env = []
        running = 0
        for k in sorted(self.bins):
            running = max(running, self.bins[k])
            env.append((k, running))
        return env

    def classify(self) -> str:
        """Bounded gauges saturate (per-doubling envelope increments decay),
        sublinear unbounded ones keep gaining while the value/radius ratio
        dies off; anything still gaining proportionally is violated."""
        env = self.envelope()
        if len(env) < 4:
            self.classification = "inconclusive"
            self.stabilized = False
            return self.classification
        values = [float(v) for _, v in env]
        incr = [b - a for a, b in zip(values, values[1:])]
        w = min(3, len(incr))
        means = [
            sum(incr[i:i + w]) / w for i in range(len(incr) - w + 1)
        ]
        peak, trail = max(means), means[-1]
        if peak <= 1e-12 or trail <= self.BOUNDED_DECAY * peak + 1e-12:
            self.classification = "bounded"
            self.constant = float(values[-1])
            self.stabilized = True
            return self.classification
        ratios = [v / (2.0 ** k) for k, v in env]
        if ratios[-1] < ratios[-2] < ratios[-3]:
            self.classification = "sublinear"
            ks = [k for k, _ in env[-4:]]
            vs = [v for _, v in env[-4:]]
            if ks[-1] != ks[0]:
                self.growth_per_doubling = float(vs[-1] - vs[0]) / (ks[-1] - ks[0])
            self.stabilized = True
            return self.classification
        self.classification = "violated"
        self.stabilized = False
        return self.classification

    def to_rows(self) -> list[dict]:
        rows = []
        for k in sorted(self.bins):
            x, y, diam = self.witnesses[k]
            rows.append(
                {
                    "bucket_log2": k,
                    "radius_lo": float(2.0 ** k),
                    "max_diam": float(self.bins[k]),
                    "witness_x": repr(x),
                    "witness_y": repr(y),
                }
            )
        return rows


def contraction_profile(
    gamma: UnitSpeedRay,
    space,
    sampler: Callable,
    n: int,
    horizon,
    seed: int = 0,
    extra_pairs: Sequence[tuple[Point, Point]] = (),
) -> ContractionProfile:
    """Sample admissible pairs and build the projection-diameter profile.

    The sampler proposes (x, y) candidates; pairs violating the admissibility
    condition d(x, y) <= d(x, gamma) are discarded, so the profile only ever
    reflects pairs the contraction condition quantifies over.  Explicitly
    constructed witness pairs can be injected through ``extra_pairs``.
    A sampler that has already projected x onto gamma may return
    (x, y, (d(x, gamma), feet)) instead of (x, y); the profile then applies
    the horizon test to those feet rather than projecting x again.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = random.Random(seed)
    profile = ContractionProfile()
    recorded = 0
    attempts = 0
    queue = list(extra_pairs)
    while recorded < n + len(extra_pairs) and attempts < 40 * (n + 1):
        attempts += 1
        if queue:
            x, y = queue.pop(0)
            known, forced = (), True
        else:
            pair = sampler(rng)
            if pair is None:
                continue
            x, y, *known = pair
            forced = False
        if known:
            dxg, px = known[0]
            _check_horizon(px, horizon)
        else:
            dxg, px = ray_distance(x, gamma, horizon)
        if space.distance(x, y) > dxg:
            if forced:
                raise DomainError("injected witness pair is not admissible")
            continue
        dyg, py = ray_distance(y, gamma, horizon)
        params = list(px) + list(py)
        diam = max(params) - min(params)
        profile.record(dxg, diam, (x, y, diam))
        recorded += 1
    profile.classify()
    return profile


# -- geodesic image property ---------------------------------------------------

@dataclass(frozen=True)
class GitResult:
    passed: bool
    diameter: float
    min_gap: float
    constant: float


def git_check(gamma: UnitSpeedRay, segment: Sequence[Point], C, horizon) -> GitResult:
    """Project a far segment, given by points sampled along it, onto the ray
    and measure the image diameter.

    Precondition (rejected, not failed): every sampled point of the segment
    stays at least 2C from the ray.  Passes when the projection image has
    diameter at most 4C.  An empty segment is a DomainError.
    """
    if not 0 < C < math.inf:
        raise DomainError(f"the constant C must be positive and finite, got {C}")
    if not segment:
        raise DomainError("a segment needs at least one sampled point")
    feet = []
    min_gap = math.inf
    for p in segment:
        d, params = ray_distance(p, gamma, horizon)
        min_gap = min(min_gap, d)
        feet += list(params)
    if min_gap < 2 * C:
        raise DomainError(
            f"segment comes within {min_gap} < 2C = {2 * C} of the ray"
        )
    diam = float(max(feet) - min(feet))
    return GitResult(diam <= 4 * C, diam, float(min_gap), float(C))


def far_segment_suite(gamma: UnitSpeedRay, C, n: int, seed: int):
    """``git_check`` on seeded random geodesic segments of an annulus space.

    Proposals that come within 2C of the ray are rejected (git_check's
    precondition), not failed; sampling stops after n accepted segments or
    40n rejections.  Returns (segments checked, worst image diameter,
    rejected proposals).
    """
    if not 0 < C < math.inf:
        raise DomainError(f"the constant C must be positive and finite, got {C}")
    if n < 1:
        raise DomainError(f"the segment count n must be >= 1, got {n}")
    space = gamma.space
    rng = random.Random(seed)
    worst, done, rejected = 0.0, 0, 0
    while done < n and rejected < 40 * n:
        th1 = rng.uniform(-30.0, 30.0)
        th2 = th1 + rng.uniform(-8.0, 8.0)
        r1 = 1.0 + math.exp(rng.uniform(math.log(0.2), math.log(50.0)))
        r2 = 1.0 + math.exp(rng.uniform(math.log(0.2), math.log(50.0)))
        seg = space.geodesic_polyline(space.pt(th1, r1), space.pt(th2, r2), 48)
        try:
            res = git_check(gamma, seg, C, horizon=200.0)
        except DomainError:
            rejected += 1
            continue
        done += 1
        worst = max(worst, res.diameter)
    return done, worst, rejected


# -- escape times --------------------------------------------------------------

@dataclass(frozen=True)
class EscapeTime:
    """Last parameter at which one ray sits on the 2C-sphere around another:
    exact ``Fraction``s on ray complexes, where the bracket is (value,
    value), and floats bracketing the crossing to 1e-9 on the annulus."""

    value: Union[Fraction, float]
    constant: float
    bracket: tuple

    @property
    def level(self) -> float:
        return 2.0 * self.constant


# A grid of more than 2^53 points is rejected: k (H / n) indexes no more.
_MAX_GRID_POINTS = 2 ** 53


def claim_horizon(C) -> float:
    """The default horizon of a claim check with constant C: 50 C + 100."""
    return 50.0 * float(C) + 100.0


def _is_geodesic(ray: UnitSpeedRay) -> bool:
    """Whether an annulus ray passes the run-time geodesic check:
    d(ray(0), ray(L)) = L to 1e-12 relative, so the ray is a geodesic on
    [0, L].  L is the end of the last finite leg, or one unit past the start
    of a final unbounded r = 1 arc, so that a corner where the arc begins
    lies inside [0, L].  Past L the ray runs up an attached ray, which meets
    the rest of the space only at its base, or along r = 1, a local geodesic;
    in a CAT(0) space a local geodesic is a geodesic (Bridson-Haefliger, B-H,
    II.1.4).  Annulus escape times require it of both rays.
    """
    space = ray.space
    last, end = ray.legs[-1], ray.leg_offsets[-1]
    if last.length is not None:
        end += last.length
    elif isinstance(last, BoundaryArcLeg):
        end += 1.0
    return abs(space.distance(ray.eval(0.0), ray.eval(end)) - end) <= 1e-12 * end


def t_first_escape(alpha: UnitSpeedRay, beta: UnitSpeedRay, C, horizon) -> EscapeTime:
    """max{t <= H : d(beta(t), alpha) = 2C}, with f(t) = d(beta(t), alpha)
    and H the horizon, where f(H) > 2C.  Exact on ray complexes (``_rc_escape``).

    Annulus: both rays must pass ``_is_geodesic`` (a DomainError otherwise).
    The annulus cover with rays attached at single points is CAT(0) (B-H
    II.11.1), the geodesic ray alpha has a closed convex image, and the
    distance to a closed convex set is convex along the geodesic beta (B-H
    II.2.5).  So ``_last_inside_convex`` finds the last point of the grid
    ts[k] = k (H / n), ts[n] = H, n = max(8, ceil(4 H / C)), with f <= 2C in
    about log2(n) queries; a grid of more than 2^53 points is a DomainError.
    The crossing after that grid point is bisected to 1e-9.
    """
    if not 0 < float(C) < math.inf:
        raise DomainError(f"the constant C must be positive and finite, got {C}")
    if not 0 < float(horizon) < math.inf:
        raise DomainError(f"the horizon must be positive and finite, got {horizon}")
    if isinstance(alpha.space, RayComplex):
        return _rc_escape(alpha, beta, C, horizon)
    if not (_is_geodesic(alpha) and _is_geodesic(beta)):
        raise DomainError("annulus escape times need geodesic rays")
    H, level, step = float(horizon), 2.0 * float(C), float(C) / 4.0

    def dist(t: float) -> float:
        return float(ray_distance(beta.eval(t), alpha, None)[0])

    d0 = dist(0.0)
    span = H / step if step > 0.0 else math.inf
    if not span <= _MAX_GRID_POINTS - 1:
        raise DomainError(
            f"an escape grid to horizon {horizon} at step C/4 = {step:.6g} needs "
            f"more than {_MAX_GRID_POINTS} samples"
        )
    n = max(8, math.ceil(span))

    def at(k: int) -> float:
        return H if k == n else k * (H / n)

    k = _last_inside_convex(lambda k: dist(at(k)), n, level, alpha.space.TOL, d0)
    lo, hi = at(k), at(k + 1)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dist(mid) <= level:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    return EscapeTime(0.5 * (lo + hi), float(C), (lo, hi))


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


def _escape_cuts(alpha: UnitSpeedRay, beta: UnitSpeedRay) -> list:
    """The parameters where f(t) = d(beta(t), alpha) may bend, for edge rays
    of a ray complex, sorted: beta's stops (its leg ends and the marks
    inside its legs) and beta's parameters at the ends of alpha's legs on
    beta's edges."""
    space = alpha.space
    require_same_space(space.space_id, beta.basepoint)
    for leg, g0 in zip(beta.legs[1:], beta.leg_offsets[1:]):
        if space.distance(beta.eval(g0), space.point(leg.edge_id, leg.start)):
            raise DomainError(f"the legs of {beta.label!r} do not meet at {g0}")
    ends = [(e, p) for e, lo, hi, *_ in alpha._stops for p in (lo, hi) if p is not None]
    cuts = set()
    for eid, lo, hi, g0, start, stops in beta._stops:
        here = [p for e, p in ends if e == eid and lo <= p and (hi is None or p <= hi)]
        cuts.update((g for g, _ in stops), (g0 + abs(p - start) for p in here))
    return sorted(cuts)


def _rc_escape(alpha: UnitSpeedRay, beta: UnitSpeedRay, C, horizon) -> EscapeTime:
    """The exact escape time on a ray complex, as one ``Fraction``.

    Between two consecutive ``_escape_cuts`` p < q, every candidate of
    ``_rc_ray_distance`` moves at slope +1 or -1 (a route through the mark
    behind beta(t) or ahead of it, or along the edge to an end of an alpha
    leg), or beta runs on alpha and f = 0.  So f is either 0 there or the
    tent min(f(p) + t - p, f(q) + q - t), and at the last cut p <= H with
    f(p) <= 2C < f on every later cut and at H, T = p + 2C - f(p).  The
    cuts are read from H down, one exact ``ray_distance`` each.

    Past the last cut L, f rises at slope 1 or beta runs on alpha.  When
    f(H) <= 2C, the first is a HorizonError (a larger horizon gives an
    answer) and the second a DomainError (beta never leaves alpha for good).
    """
    cuts = _escape_cuts(alpha, beta)
    H, level = Fraction(horizon), 2 * Fraction(C)

    def f(t: Fraction) -> Fraction:
        return ray_distance(beta.eval(t), alpha)[0]

    if f(H) <= level:
        last = cuts[-1]
        if f(last + 1) == 0:
            raise DomainError(f"rays run together past {last}: beta never leaves for good")
        raise HorizonError("still inside the 2C-neighborhood at the horizon")
    for p in reversed([c for c in cuts if c < H]):
        d = f(p)
        if d <= level:
            T = p + level - d
            return EscapeTime(T, float(C), (T, T))
    raise DomainError("ray starts outside the 2C-neighborhood")


# -- residual checks for the escape-time/product comparison --------------------

# residual name -> bound, in units of the contraction constant C
RESIDUAL_BOUNDS = {
    "product_vs_t": 12,
    "t_under_eta_change": 13,
    "t_under_zeta_change": 13,
    "product_spread": 50,
    "t_vs_boundary_product": 62,
}


@dataclass(frozen=True)
class ClaimReport:
    constant: float
    escape_times: dict
    residual_product_vs_t: float       # bound 12C
    residual_t_under_eta_change: float  # bound 13C
    residual_t_under_zeta_change: float  # bound 13C
    residual_product_spread: float     # bound 50C
    residual_t_vs_boundary_product: float  # bound 62C
    boundary_product: float
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def claim_check(
    reps_eta: Sequence[UnitSpeedRay],
    reps_zeta: Sequence[UnitSpeedRay],
    C_eta,
    C_zeta,
    horizon,
) -> ClaimReport:
    """Escape times and finite-scale products for two boundary classes,
    checked against the 12C/13C/13C/50C/62C residual bounds.  The products
    are taken at (f T, f' T) for f, f' in 4, 6, 8 and each escape time T."""
    if len(reps_eta) < 2 or len(reps_zeta) < 2:
        raise DomainError("need at least two representatives per class")
    space = reps_eta[0].space
    o = space.basepoint
    C = float(C_eta)

    T = {
        (i, j): float(t_first_escape(a, b, C_eta, horizon).value)
        for i, a in enumerate(reps_eta) for j, b in enumerate(reps_zeta)
    }

    products: dict[tuple[int, int], list[float]] = {}
    r2 = 0.0
    scales = (4.0, 6.0, 8.0)
    for (i, j), t_ij in T.items():
        a, b = reps_eta[i], reps_zeta[j]
        vals = []
        for fs in scales:
            for ft in scales:
                gp = float(
                    gromov_product(a.eval(fs * t_ij), b.eval(ft * t_ij), o, space)
                )
                vals.append(gp)
                r2 = max(r2, abs(gp - t_ij))
        products[(i, j)] = vals

    # the spread of T as eta's representative changes, then zeta's
    r3 = max(abs(T[i, j] - T[k, j]) for i, j in T for k in range(len(reps_eta)))
    r4 = max(abs(T[i, j] - T[i, k]) for i, j in T for k in range(len(reps_zeta)))
    all_products = [v for vals in products.values() for v in vals]
    r_spread = max(all_products) - min(all_products)

    from .boundary import boundary_gromov_product

    est = boundary_gromov_product(
        reps_eta[0], reps_zeta[0], max_horizon=16 * float(horizon)
    )
    r_vs_product = max(abs(t - est.value) for t in T.values())

    residuals = dict(zip(RESIDUAL_BOUNDS, (r2, r3, r4, r_spread, r_vs_product)))
    violations = [
        (name, residuals[name], k * C)
        for name, k in RESIDUAL_BOUNDS.items()
        if residuals[name] > k * C
    ]
    return ClaimReport(
        C, {f"{i},{j}": v for (i, j), v in T.items()},
        r2, r3, r4, r_spread, r_vs_product, est.value, tuple(violations),
    )


# -- neighborhood-basis condition ----------------------------------------------

@dataclass(frozen=True)
class BasisReport:
    eta: str
    r: float
    R_eta: float
    rows: tuple  # (zeta, product(eta,zeta), R_zeta, members of U(zeta,R_zeta))
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


@shared_products()
def neighborhood_basis_check(
    eta,
    r: float,
    boundary: Sequence,
    c_table: dict,
) -> BasisReport:
    """Instantiate the refinement-radius formulas and exhaustively verify
    U(zeta, R_zeta) is contained in U(eta, r) over a finite boundary.

    R_eta = r + 2*K_eta + 13*C_eta and
    R_zeta = (zeta.eta) + K_eta + K_zeta + 6*C_eta + 4*C_zeta, with K = 62C.
    Products run on the horizons the classes carry (see
    ``boundary_gromov_product``).
    """
    from .boundary import boundary_gromov_product

    labels = [bp.label for bp in boundary]
    for lab in labels:
        if lab not in c_table:
            raise DomainError(f"missing contraction constant for {lab}")
    if eta.label not in labels:
        raise DomainError("eta must belong to the supplied boundary")

    def prod(a, b) -> float:
        # label order makes each unordered pair one product, whoever asks first
        lo, hi = sorted((a, b), key=lambda bp: bp.label)
        return boundary_gromov_product(lo, hi).value

    C_eta = float(c_table[eta.label])
    K_eta = 62.0 * C_eta
    R_eta = r + 2.0 * K_eta + 13.0 * C_eta

    rows = []
    violations = []
    for zeta in boundary:
        p_ez = prod(eta, zeta)
        if p_ez < R_eta:
            continue
        C_zeta = float(c_table[zeta.label])
        K_zeta = 62.0 * C_zeta
        R_zeta = (
            math.inf
            if math.isinf(p_ez)
            else p_ez + K_eta + K_zeta + 6.0 * C_eta + 4.0 * C_zeta
        )
        members = [xi.label for xi in boundary if prod(zeta, xi) >= R_zeta]
        for xi in boundary:
            if prod(zeta, xi) >= R_zeta and prod(eta, xi) < r:
                violations.append((zeta.label, xi.label))
        rows.append((zeta.label, p_ez, R_zeta, tuple(members)))
    return BasisReport(eta.label, float(r), R_eta, tuple(rows), tuple(violations))
