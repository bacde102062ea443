"""Closest-point projections onto rays and everything built on them:
contraction profiles, the geodesic-image property check, escape times,
residual checks for the product-vs-escape-time comparison, and the
neighborhood-basis condition.

Projections are set-valued and returned as maximal parameter intervals;
ties (a point projecting to two far-apart feet) are reported as separate
intervals, never collapsed.  A projection keeps every parameter within a
tolerance of the distance: by default the space's ``TOL``, which is 0 on
ray complexes (exact arithmetic) and 1e-6 on the annulus (floats).  The
geometry that differs by space kind is the ray's space's own (``_ray_distance``,
``_feet``, ``_escape``), so this module tests no space kind.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

# ann_distance_arrays and ann_distance_coords are unused here: bench/spans.py
# patches these names
from .annulus import ann_distance_arrays, ann_distance_coords  # noqa: F401
from .boundary import shared_products
from .errors import DomainError, HorizonError
from .metric import gromov_product  # noqa: F401  (bench/spans.py patches this name)
from .points import Point
from .rays import UnitSpeedRay


# -- distance from a point to a ray -----------------------------------------

def ray_distance(x: Point, ray: UnitSpeedRay, horizon=None):
    """(distance from x to the ray, global argmin parameters), computed by
    the ray's space (``_ray_distance``): exact in ray complexes, closed form
    in the annulus.  On both space kinds the minimizers come back as a
    list, sorted and without repeats.
    Raises DomainError when x is not a point of the ray's space, and
    HorizonError when every minimizer sits at or beyond the horizon.
    """
    d, params = ray.space._ray_distance(x, ray)
    _check_horizon(params, horizon)
    return d, params


def _check_horizon(params, horizon) -> None:
    """Raise DomainError for a NaN or infinite horizon, and HorizonError
    when every minimizer sits at or beyond the horizon (None: no horizon):
    when the least of the nonempty ``params`` does."""
    if horizon is None:
        return
    if not -math.inf < horizon < math.inf:
        raise DomainError(f"the horizon must be finite, got {horizon}")
    if min(params) >= horizon:
        raise HorizonError(
            f"projection minimizer at parameter {min(params)} >= horizon {horizon}"
        )


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
    intervals per ray (a ray given twice counts once) around each minimizer,
    as the space gives them (``_feet``).  On the annulus the level-set walk
    ends at the horizon, so it may not be None there."""
    rays = [target] if isinstance(target, UnitSpeedRay) else list(target)
    if not rays:
        raise DomainError("projection needs at least one target ray")
    rays = list({id(ray): ray for ray in rays}.values())
    space = rays[0].space
    feet = space._feet(x, horizon)
    if tol is None:
        tol = space.TOL
    if not 0 <= tol < math.inf:
        raise DomainError(f"the tolerance must be finite and >= 0, got {tol}")

    per_ray = [ray_distance(x, ray, horizon) for ray in rays]
    dmin = min(d for d, _ in per_ray)
    intervals = tuple(
        (ray, lo, hi)
        for ray, (d, params) in zip(rays, per_ray) if d <= dmin + tol
        for lo, hi in feet(ray, params, dmin + tol)
    )
    return ProjectionResult(dmin, intervals)


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

    @property
    def stabilized(self) -> bool:
        """Whether the classification settled: bounded or sublinear."""
        return self.classification in ("bounded", "sublinear")

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
            return self.classification
        ratios = [v / (2.0 ** k) for k, v in env]
        if ratios[-1] < ratios[-2] < ratios[-3]:
            self.classification = "sublinear"
            ks = [k for k, _ in env[-4:]]
            vs = [v for _, v in env[-4:]]
            if ks[-1] != ks[0]:
                self.growth_per_doubling = float(vs[-1] - vs[0]) / (ks[-1] - ks[0])
            return self.classification
        self.classification = "violated"
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
    the horizon test to those feet rather than projecting x again.  The
    feet must be sorted, as ``ray_distance`` gives them: a pair's diameter
    is read from the ends of its two sorted minimizer lists.
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
        diam = max(px[-1], py[-1]) - min(px[0], py[0])
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
    """``git_check`` on seeded random geodesic segments of an annulus space
    (one that samples its geodesics: a DomainError elsewhere).

    Proposals that come within 2C of the ray are rejected (git_check's
    precondition), not failed; sampling stops after n accepted segments or
    40n rejections.  Returns (segments checked, worst image diameter,
    rejected proposals).
    """
    space = gamma.space
    if not hasattr(space, "geodesic_polyline"):
        raise DomainError("the far-segment suite runs on annulus spaces")
    if not 0 < C < math.inf:
        raise DomainError(f"the constant C must be positive and finite, got {C}")
    if n < 1:
        raise DomainError(f"the segment count n must be >= 1, got {n}")
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


def claim_horizon(C) -> float:
    """The default horizon of a claim check with constant C: 50 C + 100."""
    return 50.0 * float(C) + 100.0


def t_first_escape(alpha: UnitSpeedRay, beta: UnitSpeedRay, C, horizon) -> EscapeTime:
    """max{t <= H : d(beta(t), alpha) = 2C}, with f(t) = d(beta(t), alpha)
    and H the horizon, where f(H) > 2C: alpha's space searches f
    (``_escape``), and each value of f is one ``ray_distance`` query."""
    if not 0 < float(C) < math.inf:
        raise DomainError(f"the constant C must be positive and finite, got {C}")
    if not 0 < float(horizon) < math.inf:
        raise DomainError(f"the horizon must be positive and finite, got {horizon}")

    def f(t):
        return ray_distance(beta.eval(t), alpha)[0]

    value, bracket = alpha.space._escape(alpha, beta, C, horizon, f)
    return EscapeTime(value, float(C), bracket)


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
    are taken at (f T, f' T) for f, f' in 4, 6, 8 and each escape time T,
    as ``metric.gromov_product(x, y, o)`` gives them, on seeded points: o
    is seeded once per call and each of the six points of a pair once
    (``space._seed_at``), with their distances d(x, o), d(y, o) and d(x, y)
    in that operand order (``space._seeded_distance``), and the space forms
    the nine products (dx + dy - dxy) / 2 (``space._products``): floats bit
    for bit on the annulus, exact on a ray complex."""
    if len(reps_eta) < 2 or len(reps_zeta) < 2:
        raise DomainError("need at least two representatives per class")
    space = reps_eta[0].space
    C = float(C_eta)

    T = {
        (i, j): float(t_first_escape(a, b, C_eta, horizon).value)
        for i, a in enumerate(reps_eta) for j, b in enumerate(reps_zeta)
    }

    o, dist = space._seed(space.basepoint), space._seeded_distance
    products: dict[tuple[int, int], list[float]] = {}
    r2 = 0.0
    scales = (4.0, 6.0, 8.0)
    for (i, j), t_ij in T.items():
        xs = [space._seed_at(reps_eta[i], f * t_ij) for f in scales]
        ys = [space._seed_at(reps_zeta[j], f * t_ij) for f in scales]
        xy = [dist(x, y) for x in xs for y in ys]
        vals = [float(gp) for gp in space._products(
            [dist(x, o) for x in xs], [dist(y, o) for y in ys], xy
        )]
        for gp in vals:
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
