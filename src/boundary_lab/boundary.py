"""Boundary points, extended Gromov products, U(eta, r) membership,
convergence diagnostics, and continuity tests for induced boundary maps.

The extended product of two boundary classes is estimated from their
canonical representatives: E(S) is the minimum finite-scale product over a
3 x 3 grid in [S, 2S]^2, and S, the int 2^k on both space kinds, doubles
until the last two increments fall within the space's tolerance (``TOL``:
0 on ray complexes, 1e-6 on the annulus).  One window body reads each
space's seeded points (``_seed_at``, ``_seeded_distance``, ``_least_product``);
on the annulus the least product is the ``min`` of the window's products
(``_products``), which ``contraction.claim_check`` reads as well.
On ray complexes the products are eventually constant, so the doubling
terminates with the exact value.  There a window's nine products are
formed as integers over one common denominator, and windows are queried
only until the value is certified final: when each ray's plan records a
hair (``UnitSpeedRay._edge_plan``), on two different edges, the rays run on
those hairs from s* = leg offset + max(0, last mark - leg start) on, and
every window with S >= max(s*) has the same minimum, which the later
windows repeat.  Schedules, minima, status and value are those of the full walk.
The schedule runs up to ``max_horizon`` and stability counts only past
``min_horizon``.  A class registered by a ``spacezoo.ZooSpace`` carries that
zoo's ``(product_horizon, product_min_horizon)`` as ``horizons``, and every
product entry point below takes a horizon it is not given from its class
arguments; an explicit argument wins.  Raw rays carry none: with them
``max_horizon`` is required and ``min_horizon`` defaults to 0.
The supremum over other representatives is not searched; when a
contraction constant is known the 50C bound is attached as the error bar
instead, and the self-product is +infinity by convention (so eta always
belongs to U(eta, r)).

Queries that ask for the same product many times (convergence tables, the
basis check) run inside ``shared_products()``: there every finite estimate
is memoized, keyed by the ordered pair of canonical rays (by identity) plus
the resolved ``max_horizon`` and ``min_horizon`` (given or carried) and
``c_eta``, and a repeat returns the same frozen estimate.
The memo is dropped when the query returns, so a query costs the same
whatever ran before it; outside a query every call estimates afresh.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DomainError
from .metric import gromov_product  # noqa: F401  (bench/spans.py patches this name)
from .rays import UnitSpeedRay


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A labeled asymptoty class with a canonical o-based representative,
    and the (max, min) product horizons of the zoo that registered it."""

    label: str
    canonical: UnitSpeedRay
    auxiliaries: tuple[UnitSpeedRay, ...] = ()
    horizons: Optional[tuple] = None

    def representatives(self) -> tuple[UnitSpeedRay, ...]:
        return (self.canonical,) + self.auxiliaries

    def __repr__(self):
        return f"BoundaryPoint({self.label!r})"


@dataclass(frozen=True)
class BoundaryProductEstimate:
    value: float
    schedule: tuple  # horizons S tried
    window_minima: tuple  # E(S) per horizon
    status: str  # "converged" | "inconclusive"
    error_bar: Optional[float] = None  # 50C when the constant is known

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _canonical(x: Union[BoundaryPoint, UnitSpeedRay]) -> UnitSpeedRay:
    return x.canonical if isinstance(x, BoundaryPoint) else x


def boundary_gromov_product(
    eta: Union[BoundaryPoint, UnitSpeedRay],
    zeta: Union[BoundaryPoint, UnitSpeedRay],
    max_horizon=None,
    min_horizon=None,
    c_eta=None,
) -> BoundaryProductEstimate:
    """Window-minimum estimate of the extended Gromov product.

    Stability of the window minima only counts once the schedule has passed
    ``min_horizon``: finite-scale products can sit on a long plateau below
    the construction scale before reaching their limiting value, so
    min_horizon should be at or above the largest scale of the space, as
    the horizons zoo classes carry are.  A horizon not given is taken from
    the first argument that carries horizons.
    """
    a, b = _canonical(eta), _canonical(zeta)
    if a.space.space_id != b.space.space_id:
        raise DomainError("boundary points live in different spaces")
    carried = next(
        (x.horizons for x in (eta, zeta) if getattr(x, "horizons", None)), (None, 0)
    )
    if max_horizon is None:
        max_horizon = carried[0]
    if min_horizon is None:
        min_horizon = carried[1]
    if max_horizon is None:
        raise DomainError("max_horizon is a required argument")
    # comparisons, not math.isfinite: a huge Fraction horizon is finite
    if not 0 < max_horizon < math.inf:
        raise DomainError(f"max_horizon must be finite and > 0, got {max_horizon}")
    if not 0 <= min_horizon < math.inf:
        raise DomainError(f"min_horizon must be finite and >= 0, got {min_horizon}")
    label_a = eta.label if isinstance(eta, BoundaryPoint) else a.label
    label_b = zeta.label if isinstance(zeta, BoundaryPoint) else b.label
    error_bar = None if c_eta is None else 50.0 * float(c_eta)
    if a is b or label_a == label_b:
        return BoundaryProductEstimate(math.inf, (), (), "converged", error_bar)
    memo = _memo.get()
    key = (a, b, max_horizon, min_horizon, c_eta)
    if memo is not None and key in memo:
        return memo[key]
    status, schedule, minima = _doubling_schedule(a, b, max_horizon, min_horizon)
    est = BoundaryProductEstimate(
        float(minima[-1]),
        tuple(float(s) for s in schedule),
        tuple(float(m) for m in minima),
        status,
        error_bar,
    )
    if memo is not None:
        memo[key] = est
    return est


# the memo of the open shared_products() block, if any
_memo: ContextVar[Optional[dict]] = ContextVar("product_memo", default=None)


@contextmanager
def shared_products():
    """Estimate each (ordered pair, arguments) at most once inside the block.

    A nested block joins the outermost one, whose exit drops the memo.  Also
    usable as a decorator, ``@shared_products()``.
    """
    if _memo.get() is not None:
        yield
        return
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _doubling_schedule(a, b, max_horizon, min_horizon):
    """(status, horizons S, window minima E(S)) for one ordered ray pair.

    S is the int 2^k, and the window {S, 3S/2, 2S} is integer but for
    S = 1 (3/2); the stop rule compares ints with the horizons exactly.  An
    annulus ray converts them with ``float``, exact below 2^53.

    Once both rays run on their hairs (``_settles_at``) every later window
    minimum equals the first one computed with S >= S* = max(s_a*, s_b*):
    for s >= s_a* and t >= s_b*, d(a(s), o), d(b(t), o) and d(a(s), b(t))
    grow by exactly s - s_a*, t - s_b* and their sum, which cancel in the
    product.  So that value is appended for the later windows without
    querying; the schedule, the minima and the stop rule are those of the
    full walk.
    """
    space = a.space
    o = space.basepoint
    settles_at = _settles_at(a, b)
    S = 1
    schedule = []
    minima = []
    final = None  # E(S) of the first window with S >= settles_at
    carry = {}  # what each window leaves to the next; dropped with the walk
    while True:
        schedule.append(S)
        if final is None:
            mid = 3 * S // 2 if S > 1 else Fraction(3, 2)
            minima.append(_window_min(space, a, b, [S, mid, 2 * S], o, carry))
            if settles_at is not None and S >= settles_at:
                final = minima[-1]
        else:
            minima.append(final)
        if len(minima) >= 3 and S >= min_horizon:
            d1 = abs(minima[-1] - minima[-2])
            d2 = abs(minima[-2] - minima[-3])
            if d1 <= space.TOL and d2 <= space.TOL:
                return "converged", schedule, minima
        if 2 * S > max_horizon:
            return "inconclusive", schedule, minima
        S = 2 * S


def _settles_at(a, b):
    """S* = max(s_a*, s_b*) when both rays end on hairs of different edges,
    else None: each ray's plan holds its hair, attached to the rest of the
    complex only at its edge's last mark, and the s* from which the ray runs
    on it (``UnitSpeedRay._edge_plan``).  Annulus rays have no edge plan."""
    ha, hb = (ray._edge_plan and ray._edge_plan[2] for ray in (a, b))
    if ha is None or hb is None or ha[0] == hb[0]:
        return None
    return max(ha[1], hb[1])


def _window_min(space, a, b, params, o, carry=None):
    """Min of finite-scale products over the window grid.

    The window points and o are seeded once each (``space._seed_at``,
    ``space._seed``), so an n x n window costs 2n ray evaluations, 2n
    distances to o and n^2 cross distances (``space._seeded_distance``);
    ``space._least_product`` gives the least ``metric.gromov_product``
    value, exactly on a ray complex and bit for bit on the annulus.

    ``carry`` is a dict that one doubling schedule hands to each of its
    windows in turn.  A window leaves in it o's seeded form and its last
    grid point on each ray, with their distances to o and the cross
    distance between the two.  When the next window starts at that
    parameter (S doubles, so {S, 3S/2, 2S} is followed by {2S, 3S, 4S}), it
    takes them over: 4 ray evaluations, 4 distances to o and 8 cross
    distances in place of 6, 6 and 9.  The values are those computed
    afresh, so the minimum is unchanged, bit for bit on the annulus.
    """
    if carry is None:
        carry = {}
    if "o" not in carry:
        carry["o"] = space._seed(o)
    o, dist = carry["o"], space._seeded_distance
    last = carry.get("last")  # (parameter, x, y, d(x, o), d(y, o), d(x, y))
    reuse = last is not None and last[0] == params[0]
    fresh = params[1:] if reuse else params
    xs = [space._seed_at(a, s) for s in fresh]
    ys = [space._seed_at(b, t) for t in fresh]
    xo = [dist(x, o) for x in xs]
    yo = [dist(y, o) for y in ys]
    if reuse:
        xs, ys = [last[1]] + xs, [last[2]] + ys
        xo, yo = [last[3]] + xo, [last[4]] + yo
    xy = [
        last[5] if reuse and i == j == 0 else dist(x, y)
        for i, x in enumerate(xs)
        for j, y in enumerate(ys)
    ]
    carry["last"] = (params[-1], xs[-1], ys[-1], xo[-1], yo[-1], xy[-1])
    return space._least_product(xo, yo, xy)


def _check_radius(r) -> None:
    # comparisons, not math.isfinite: a huge Fraction radius is finite
    if not -math.inf < r < math.inf:
        raise DomainError(f"radius must be finite, got {r}")


@dataclass(frozen=True)
class MembershipVerdict:
    state: str  # "in" | "out" | "boundary-inconclusive"
    estimate: BoundaryProductEstimate

    def __bool__(self):
        return self.state == "in"


def u_set_membership(
    zeta: BoundaryPoint,
    eta: BoundaryPoint,
    r: float,
    max_horizon=None,
    min_horizon=None,
) -> MembershipVerdict:
    """Is zeta in U(eta, r) = {xi : (eta.xi) >= r}?

    Values within the space's ``TOL`` of the threshold come back
    boundary-inconclusive; on ray complexes TOL is 0, so the comparison is
    sharp.  A radius that is not finite is a DomainError.
    """
    _check_radius(r)
    estimate = boundary_gromov_product(
        eta, zeta, max_horizon=max_horizon, min_horizon=min_horizon
    )
    tol = _canonical(eta).space.TOL
    if not estimate.converged:
        return MembershipVerdict("boundary-inconclusive", estimate)
    if estimate.value >= r + tol:
        return MembershipVerdict("in", estimate)
    if estimate.value < r - tol:
        return MembershipVerdict("out", estimate)
    return MembershipVerdict("boundary-inconclusive", estimate)


@dataclass(frozen=True)
class ConvergenceReport:
    eta: str
    sequence: tuple  # labels in order
    rows: tuple  # (r, first_stable_index or None, memberships per term)
    converges: bool  # at every tested radius


@shared_products()
def converges_in_gp(
    sequence: Sequence[BoundaryPoint],
    eta: BoundaryPoint,
    r_schedule: Sequence[float],
    max_horizon=None,
    min_horizon=None,
) -> ConvergenceReport:
    """For each r, the first index past which every tested term is in
    U(eta, r); the verdict only speaks for the tested radii and indices.
    A radius that is not finite is a DomainError, before any estimate."""
    for r in r_schedule:
        _check_radius(r)
    rows = []
    all_ok = True
    for r in r_schedule:
        states = [
            u_set_membership(
                term, eta, r, max_horizon=max_horizon, min_horizon=min_horizon
            ).state
            for term in sequence
        ]
        first = None
        for i in range(len(states)):
            if all(s == "in" for s in states[i:]):
                first = i + 1  # 1-based index into the sequence
                break
        rows.append((float(r), first, tuple(states)))
        if first is None:
            all_ok = False
    return ConvergenceReport(
        eta.label, tuple(bp.label for bp in sequence), tuple(rows), all_ok
    )


def hausdorff_violation_witness(
    boundary: Sequence[BoundaryPoint],
    sequence: Sequence[BoundaryPoint],
    r_schedule: Sequence[float],
    max_horizon=None,
    min_horizon=None,
) -> Optional[tuple[BoundaryPoint, BoundaryPoint]]:
    """Two distinct limits of the same sequence, if the topology offers them."""
    limits = []
    for eta in boundary:
        rep = converges_in_gp(sequence, eta, r_schedule, max_horizon, min_horizon)
        if rep.converges:
            limits.append(eta)
    if len(limits) >= 2:
        return limits[0], limits[1]
    return None


@dataclass(frozen=True)
class ContinuityCertificate:
    eta: str
    image_eta: str
    r: float
    verdict: str  # "discontinuous" | "continuous-at-tested-data" | "inconclusive"
    upstream: ConvergenceReport
    image_products: tuple  # (label, product value) per sequence term
    outside_indices: tuple
    space_from: str
    space_to: str
    upstream_schedule: tuple

    @property
    def discontinuous(self) -> bool:
        return self.verdict == "discontinuous"


# the radii at which the upstream sequence must converge to eta
UPSTREAM_SCHEDULE = (1.0, 2.0, 4.0)


def boundary_map_continuity_test(
    correspondence: Optional[dict],
    bundle_from,
    bundle_to,
    sequence_labels: Sequence[str],
    eta_label: str,
    r: float,
    max_horizon_from=None,
    max_horizon_to=None,
    min_horizon_from=None,
    min_horizon_to=None,
) -> ContinuityCertificate:
    """Test continuity of a label bijection at one boundary point.

    Discontinuity certificate: the sequence converges to eta upstream (at
    the radii ``UPSTREAM_SCHEDULE``), yet arbitrarily late tested image terms
    stay outside U(image(eta), r).  Horizons not given are those the classes
    of each bundle carry.
    """
    pairing = correspondence or {}

    def image(label: str) -> str:
        return pairing.get(label, label)

    eta_from = bundle_from.boundary[eta_label]
    eta_to = bundle_to.boundary[image(eta_label)]
    seq_from = [bundle_from.boundary[lab] for lab in sequence_labels]
    seq_to = [bundle_to.boundary[image(lab)] for lab in sequence_labels]

    upstream = converges_in_gp(
        seq_from, eta_from, UPSTREAM_SCHEDULE,
        max_horizon=max_horizon_from, min_horizon=min_horizon_from,
    )
    image_products = []
    outside = []
    inconclusive = False
    for i, term in enumerate(seq_to):
        verdict = u_set_membership(
            term, eta_to, r, max_horizon=max_horizon_to, min_horizon=min_horizon_to
        )
        image_products.append((term.label, verdict.estimate.value))
        if verdict.state == "boundary-inconclusive":
            inconclusive = True
        elif verdict.state == "out":
            outside.append(i + 1)

    if not upstream.converges or inconclusive:
        verdict_str = "inconclusive"
    else:
        # outside terms keep appearing among the latest tested indices
        tail = len(seq_to) // 2
        if outside and any(i > tail for i in outside):
            verdict_str = "discontinuous"
        else:
            verdict_str = "continuous-at-tested-data"
    return ContinuityCertificate(
        eta_label,
        image(eta_label),
        float(r),
        verdict_str,
        upstream,
        tuple(image_products),
        tuple(outside),
        bundle_from.space.space_id,
        bundle_to.space.space_id,
        UPSTREAM_SCHEDULE,
    )
