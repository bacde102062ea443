import math
import random
from fractions import Fraction

import numpy as np
import pytest

import boundary_lab as bl
from boundary_lab import annulus, contraction, samplers
from boundary_lab.annulus import (
    AnnulusSpace,
    AttachedLeg,
    BoundaryArcLeg,
    ChordLeg,
    _chord_distance,
    _is_geodesic,
    chord_valid,
    geodesic_legs,
    kernel_terms,
)
from boundary_lab.contraction import (
    ProjectionResult,
    claim_check,
    contraction_profile,
    far_segment_suite,
    git_check,
    neighborhood_basis_check,
    project,
    ray_distance,
    t_first_escape,
)
from boundary_lab.rays import EdgeLeg, UnitSpeedRay
from boundary_lab.samplers import DENOM, profile_pair_sampler, rc_point_sampler
from boundary_lab.suite import alpha_extremal_pairs, class_constants
from oracles import (
    chord_candidates,
    five_candidate_chord_distance,
    golden_chord_distance,
    reference_annulus_ray_distance,
    reference_claim_check,
    reference_escape_cuts,
    reference_profile_pair_sampler,
    reference_rc_pair_sampler,
    reference_rc_point_sampler,
    sweep_escape,
    vertex_locs,
)
from test_ray_complex import _rational_complexes


# -- projections --------------------------------------------------------------

def test_project_point_on_ray(zoo_x8):
    X = zoo_x8.space
    alpha = X.edge_ray("alpha")
    res = project(X.point("alpha", 5), alpha, horizon=300)
    assert res.distance == 0
    assert res.intervals == ((alpha, 5, 5),)


def test_project_branch_tie_two_intervals(zoo_x8):
    X = zoo_x8.space
    rays = [X.edge_ray("alpha"), X.edge_ray("beta")]
    res = project(X.point("g3", 0), rays, horizon=300)
    assert res.distance == 8
    feet = {(ray.label, lo) for ray, lo, hi in res.intervals}
    assert feet == {("alpha", 3), ("beta", 3)}
    assert res.diameter(X) == 6


def test_single_point_projection_diameter_is_the_space_zero(zoo_x8, zoo_xcat8):
    # a zero diameter has the type of the space's distances
    X = zoo_x8.space
    res = ProjectionResult(Fraction(0), ((X.edge_ray("alpha"), Fraction(5), Fraction(5)),))
    assert type(res.diameter(X)) is Fraction and res.diameter(X) == 0
    alpha = zoo_xcat8.boundary["alpha"].canonical
    res = ProjectionResult(0.0, ((alpha, 5.0, 5.0),))
    assert type(res.diameter(zoo_xcat8.space)) is float


def test_project_annulus_radial_foot(zoo_xcat12):
    A = zoo_xcat12.space
    alpha = zoo_xcat12.boundary["alpha"].canonical
    res = project(A.pt(5.0, 32.0), alpha, horizon=100.0)
    assert float(res.distance) == pytest.approx(31.0, abs=1e-9)
    (ray, lo, hi), = res.intervals
    assert lo <= 5.0 <= hi and hi - lo < 0.01


def test_project_horizon_error(zoo_x8):
    X = zoo_x8.space
    with pytest.raises(bl.HorizonError):
        project(X.point("g3", 0), X.edge_ray("alpha"), horizon=2)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("horizon", NON_FINITE)
def test_project_rejects_non_finite_horizons(zoo_x8, horizon):
    # a NaN horizon cut this annulus level set short at 1.0, and an infinite
    # one failed on an annulus point at t = inf
    z = bl.get_space("Xcat0:4")
    A, alpha = z.space, z.boundary["alpha"].canonical
    (_, lo, hi), = project(A.pt(1, 3), alpha, 200).intervals
    assert lo == pytest.approx(0.99885, abs=1e-5) and hi == pytest.approx(1.00115, abs=1e-5)
    X = zoo_x8.space
    assert project(X.point("g3", 0), X.edge_ray("alpha"), None).distance == 8
    for x, ray in ((A.pt(1, 3), alpha), (X.point("g3", 0), X.edge_ray("alpha"))):
        with pytest.raises(bl.DomainError, match="horizon"):
            project(x, ray, horizon)


def test_project_counts_a_ray_given_twice_once(zoo_x8, zoo_xcat8):
    for zoo, x in ((zoo_x8, zoo_x8.space.point("g3", 0)),
                   (zoo_xcat8, zoo_xcat8.space.pt(1.0, 3.0))):
        alpha, beta = zoo.boundary["alpha"].canonical, zoo.boundary["beta"].canonical
        once = project(x, [alpha, beta], 50.0)
        assert project(x, [alpha, beta, alpha], 50.0) == once
        assert len({id(ray) for ray, _, _ in once.intervals}) == len(once.intervals)


def test_annulus_projection_needs_a_horizon(zoo_x8, monkeypatch):
    # the annulus level-set walk ends at the horizon, where None raised a
    # bare TypeError after the distances were computed; on X:8 None means
    # no horizon
    X = zoo_x8.space
    assert project(X.point("g3", 0), X.edge_ray("alpha"), None).distance == 8
    z = bl.get_space("Xcat0:4")
    calls = []
    monkeypatch.setattr(contraction, "ray_distance", lambda *args: calls.append(args))
    with pytest.raises(bl.DomainError, match="horizon"):
        project(z.space.pt(1, 3), z.boundary["alpha"].canonical, None)
    assert not calls


@pytest.mark.parametrize("horizon", NON_FINITE)
def test_ray_distance_rejects_non_finite_horizons(zoo_x8, zoo_xcat8, horizon):
    # a NaN horizon used to be ignored, as if there were none
    X, A = zoo_x8.space, zoo_xcat8.space
    for x, ray in ((X.point("g3", 0), X.edge_ray("alpha")),
                   (A.pt(5.0, 32.0), zoo_xcat8.boundary["alpha"].canonical)):
        assert ray_distance(x, ray, None) == ray_distance(x, ray)
        with pytest.raises(bl.DomainError, match="horizon"):
            ray_distance(x, ray, horizon)


@pytest.mark.parametrize("horizon", NON_FINITE)
def test_profile_rejects_non_finite_horizons(zoo_x8, zoo_xcat8, horizon):
    # on both paths: projecting x here, and the feet an annulus sampler
    # hands over
    X = zoo_x8.space
    alpha = X.edge_ray("alpha")
    near = (X.point("alpha", 5), X.point("alpha", 6))
    with pytest.raises(bl.DomainError, match="horizon"):
        contraction_profile(alpha, X, lambda rng: near, 1, horizon)
    A = zoo_xcat8.space
    g5 = zoo_xcat8.boundary["g5"].canonical
    sample = profile_pair_sampler(A, g5, horizon=100.0)
    rng = random.Random(4)
    pair = None
    while pair is None:
        pair = sample(rng)
    with pytest.raises(bl.DomainError, match="horizon"):
        contraction_profile(g5, A, lambda rng: pair, 1, horizon)


@pytest.mark.parametrize("horizon", NON_FINITE)
def test_rc_samplers_reject_non_finite_horizons(zoo_x8, horizon):
    # they raised a bare ValueError or OverflowError from Fraction(horizon)
    X = zoo_x8.space
    with pytest.raises(bl.DomainError, match="horizon"):
        rc_point_sampler(X, horizon)
    with pytest.raises(bl.DomainError, match="horizon"):
        profile_pair_sampler(X, X.edge_ray("alpha"), horizon)


@pytest.mark.parametrize("horizon", [-1, -0.5, Fraction(-1, 16)])
def test_rc_samplers_reject_negative_horizons_when_built(horizon):
    # they were built, and every draw failed with a point's message
    # (offset -1 outside edge g4)
    X = bl.get_space("X:4").space
    for make in (lambda: rc_point_sampler(X, horizon),
                 lambda: profile_pair_sampler(X, X.edge_ray("alpha"), horizon)):
        with pytest.raises(bl.DomainError,
                           match="^the horizon must be finite and >= 0, got "):
            make()


@pytest.mark.parametrize("t_lo, t_hi", [
    (math.nan, 1.0), (-20.0, math.nan), (-math.inf, 20.0), (-20.0, math.inf),
])
def test_annulus_point_sampler_rejects_non_finite_angles_when_built(zoo_xcat8, t_lo, t_hi):
    # a NaN angle was built, and a draw failed with a point's message or,
    # when it picked an attached ray, succeeded
    with pytest.raises(bl.DomainError, match="^the angle range must be finite, got "):
        samplers.annulus_point_sampler(zoo_xcat8.space, t_lo, t_hi, 50.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"r_min": 0.0}, "r_min"),
    ({"r_max": -1.0}, "r_min"),
    ({"r_min": math.nan}, "r_min"),
    ({"r_max": math.inf}, "r_min"),
    ({"r_min": 8.0, "r_max": 4.0}, "r_min"),
    ({"horizon": math.nan}, "the horizon must be finite"),
    ({"horizon": math.inf}, "the horizon must be finite"),
    ({"horizon": -1.0}, "the horizon must be finite"),
])
def test_annulus_pair_sampler_rejects_bad_inputs_when_built(zoo_xcat8, kwargs, message):
    # a bare ValueError from math.log, or a point's message on the first draw
    g5 = zoo_xcat8.boundary["g5"].canonical
    with pytest.raises(bl.DomainError, match=message):
        profile_pair_sampler(zoo_xcat8.space, g5, **{"horizon": 100.0, **kwargs})


@pytest.mark.parametrize("r_max", [math.nan, math.inf, 0.5, -1.0])
def test_annulus_point_sampler_rejects_bad_radii_when_built(zoo_xcat8, r_max):
    with pytest.raises(bl.DomainError, match="r_max"):
        samplers.annulus_point_sampler(zoo_xcat8.space, -20.0, 20.0, r_max)


def _hex_proposal(pair):
    if pair is None:
        return None
    x, y, (dxg, feet) = pair
    return (x.t.hex(), x.r.hex(), y.t.hex(), y.r.hex(), dxg.hex(),
            [g.hex() for g in feet])


def test_annulus_proposals_match_the_point_based_reference(zoo_xcat8, monkeypatch):
    # anchors on arc, chord and attached legs: 0.8 H reaches twice as far
    # as the last leg's start
    kinds = set()
    annulus_at = UnitSpeedRay._annulus_at

    def recording(ray, t):
        kinds.add(type(ray.locate(t)[0]))
        return annulus_at(ray, t)

    monkeypatch.setattr(UnitSpeedRay, "_annulus_at", recording)
    for zoo in (zoo_xcat8, bl.build_Ycat0(12)):
        space = zoo.space
        for bp in zoo.boundary.values():
            for rep in bp.representatives():
                horizon = 2.5 * float(rep.leg_offsets[-1]) + 10.0
                new = profile_pair_sampler(space, rep, horizon, r_min=0.02, r_max=512.0)
                ref = reference_profile_pair_sampler(
                    space, rep, horizon, r_min=0.02, r_max=512.0
                )
                for seed in range(3):
                    rng_new, rng_ref = random.Random(seed), random.Random(seed)
                    for _ in range(200):
                        got = _hex_proposal(new(rng_new))
                        assert got == _hex_proposal(ref(rng_ref))
                    assert rng_new.getstate() == rng_ref.getstate()
    assert kinds == {BoundaryArcLeg, ChordLeg, AttachedLeg}


def test_check_horizon_matches_the_all_form():
    # min(params) >= horizon in place of all(p >= horizon for p in params),
    # on unsorted lists, ties and exact parameters
    def all_form(params, horizon):
        if all(p >= horizon for p in params):
            raise bl.HorizonError(
                f"projection minimizer at parameter {min(params)} >= horizon {horizon}"
            )

    def outcome(check, params, horizon):
        try:
            check(params, horizon)
        except bl.HorizonError as err:
            return str(err)
        return None

    rng = random.Random(6)
    cases = [([3.0], 3.0), ([3.0, 3.0], 3.0), ([5.0, 2.0, 5.0], 2.0),
             ([5.0, 2.0, 5.0], 2.5), ([Fraction(7, 2), 4], Fraction(7, 2)),
             ([Fraction(7, 2), 3], Fraction(7, 2)), ([-0.0, 0.0], 0.0)]
    for _ in range(2000):
        params = [rng.choice((1.0, 2.5, 4.0)) + rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        cases.append((params, rng.choice(params + [0.5, 3.0, 9.0])))
    raised = 0
    for params, horizon in cases:
        want = outcome(all_form, params, horizon)
        assert outcome(contraction._check_horizon, params, horizon) == want
        raised += want is not None
    assert 0 < raised < len(cases)


def _rc_draws(draw):
    if isinstance(draw, tuple):
        return tuple(_rc_draws(p) for p in draw)
    return repr((type(draw), draw.space_id, draw.edge_id, draw.offset))


@pytest.mark.parametrize("spec, horizons", [
    ("X:14", [2 ** 14, 300.5, 0.1, Fraction(1001, 3), 0]),
    ("Y:16", [2 ** 16, 1e-3, Fraction(7, 2), 0, 0.0]),
    # cb_i of Y:60 is 2^i - 2i, longer than a float's 53 bits
    ("Y:60", [2 ** 62, 2.0 ** 61 + 2.0 ** 9, Fraction(2 ** 61 + 1, 3), 0]),
])
def test_rc_samplers_draw_the_fraction_reference_stream(spec, horizons):
    # integer marks in place of Fraction offsets: the same points by repr,
    # from the same rng calls
    space = bl.get_space(spec).space
    alpha = space.edge_ray("alpha")
    for horizon in horizons:
        for new, ref in ((rc_point_sampler(space, horizon),
                          reference_rc_point_sampler(space, horizon)),
                         (profile_pair_sampler(space, alpha, horizon),
                          reference_rc_pair_sampler(space, horizon))):
            for seed in range(3):
                rng_new, rng_ref = random.Random(seed), random.Random(seed)
                for _ in range(300):
                    assert _rc_draws(new(rng_new)) == _rc_draws(ref(rng_ref))
                assert rng_new.getstate() == rng_ref.getstate()


def test_nearby_rc_proposals_stay_exact_on_int_lengths():
    # zoo segment lengths are ints; a nearby proposal moves x by an exact
    # multiple of length / (4 DENOM), also where the length needs more bits
    # than a float has (cb_i of Y:60 is 2^i - 2i)
    Y = bl.build_Y(60).space
    sample = profile_pair_sampler(Y, Y.edge_ray("beta"), horizon=2 ** 62)
    rng = random.Random(3)
    checked = 0
    for _ in range(1500):
        x, y = sample(rng)
        length = Y.edges[x.edge_id].length
        if y.edge_id != x.edge_id or length is None or length < 2 ** 53:
            continue
        assert type(length) is int
        if 0 < y.offset < length:
            assert ((y.offset - x.offset) * 4 * DENOM / length).denominator == 1
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_project_rejects_bad_tolerance(zoo_x8, zoo_xcat8, tol):
    # a negative tolerance used to return no intervals at all
    X, A = zoo_x8.space, zoo_xcat8.space
    for x, ray in ((X.point("g3", 0), X.edge_ray("alpha")),
                   (A.pt(5.0, 32.0), zoo_xcat8.boundary["alpha"].canonical)):
        with pytest.raises(bl.DomainError):
            project(x, ray, horizon=300, tol=tol)


def test_projection_clamps_to_ray_origin(zoo_xcat12):
    A = zoo_xcat12.space
    beta_side = A.pt(-4.0, 3.0)
    alpha = zoo_xcat12.boundary["alpha"].canonical
    res = project(beta_side, alpha, horizon=50.0)
    (ray, lo, hi), = res.intervals
    assert lo == 0.0
    assert float(res.distance) == pytest.approx(A.distance(beta_side, A.basepoint), abs=1e-9)


def test_leg_junction_minimizer_reported_once(zoo_xcat8):
    # g3's chord and attached legs meet at its base, so a point above the
    # base is nearest to both legs at one parameter: it is reported once
    A = zoo_xcat8.space
    g3 = zoo_xcat8.boundary["g3"].canonical
    t, r = A.attached["g3"]
    x = A.pt(t, r + 5)
    d, params = ray_distance(x, g3, 100.0)
    assert d == pytest.approx(5.0, abs=1e-12)
    assert params == [g3.leg_offsets[2]]
    (ray, lo, hi), = project(x, g3, horizon=100.0).intervals
    assert (lo, hi) == pytest.approx((9.491784429661681, 9.49178643756694), abs=1e-12)


def _signs(values):
    return [math.copysign(1.0, v) for v in values]


def _projection_queries(zoo, ray, rng):
    """Seeded points for projections onto one ray: scattered annulus points,
    points on r = 1, the bases of attached rays, points up their rays, leg
    junctions and points radially above them, and points on the ray's own
    chords and arcs."""
    A = zoo.space
    t_max = 2.0 + max(t for t, _ in A.attached.values())
    r_max = 2.0 * max(r for _, r in A.attached.values())
    pts = [A.pt(rng.uniform(-t_max, t_max), math.exp(rng.uniform(0.0, math.log(r_max))))
           for _ in range(12)]
    pts += [A.pt(rng.uniform(-t_max, t_max), 1.0) for _ in range(4)]
    pts += [A.pt(t, r) for t, r in A.attached.values()]
    pts += [A.ray_pt(rid, s) for rid in A.attached for s in (0.0, rng.uniform(0.0, 50.0))]
    for g0 in ray.leg_offsets:
        pt = ray.eval(g0)
        pts.append(pt)
        if not isinstance(pt, bl.AttachedRayPoint):
            pts.append(A.pt(pt.t, pt.r + rng.uniform(0.0, 5.0)))
    for leg, g0 in zip(ray.legs, ray.leg_offsets):
        if leg.length is not None:
            pts += [ray.eval(g0 + rng.uniform(0.0, leg.length)) for _ in range(3)]
    return pts


@pytest.mark.parametrize("family,n", [("Xcat0", 8), ("Xcat0", 12), ("Ycat0", 8),
                                      ("Ycat0", 12)])
def test_ray_distance_equals_the_per_leg_reference_bit_for_bit(family, n):
    zoo = getattr(bl, f"build_{family}")(n)
    rng = random.Random(n)
    for bp in zoo.boundary.values():
        for ray in bp.representatives():
            for x in _projection_queries(zoo, ray, rng):
                d, params = ray_distance(x, ray)
                ref_d, ref_params = reference_annulus_ray_distance(x, ray)
                assert (d, params) == (ref_d, ref_params), (bp.label, x)
                assert _signs([d, *params]) == _signs([ref_d, *ref_params])


def test_ray_distance_rejects_points_of_other_spaces(zoo_xcat8):
    X8 = zoo_xcat8
    Y8, Y12, X4 = bl.build_Ycat0(8), bl.build_Ycat0(12), bl.build_X(4)
    g5, alpha = X8.boundary["g5"].canonical, X8.boundary["alpha"].canonical
    # each used to return a distance measured through X8's own bases or to
    # raise something other than DomainError
    cases = [
        (Y8.space.ray_pt("g5", 3.0), g5),  # X8 has a g5 too: was (0.0, [38.44])
        (Y8.space.ray_pt("g7", 1.0), alpha),  # through X8's g7 base: was 128.0
        (Y12.space.ray_pt("g10", 1.0), alpha),  # X8 has no g10: KeyError
        (Y8.space.pt(0.0, 2.0), X4.boundary["alpha"].canonical),  # AttributeError
        (X4.space.point("alpha", 1), alpha),
        (bl.AttachedRayPoint(X8.space.space_id, "g99", 1.0), alpha),  # KeyError
    ]
    for x, ray in cases:
        with pytest.raises(bl.DomainError):
            ray_distance(x, ray)


# -- closed-form chord projection ----------------------------------------------

def _log_radius(rng):
    return math.exp(rng.uniform(0.0, math.log(256.0)))


def _chord_cases(zoo, seed):
    """Seeded chords and query coordinates: tangent legs from r = 1, direct
    chords spanning less than pi, the zoo's own chords and a zero-length one;
    points with |t - t_a| up to 12, the bases of attached rays, points on the
    chord and points within 1e-9..1e-5 of it, all at r <= 256."""
    rng = random.Random(seed)
    chords = [leg for bp in zoo.boundary.values() for rep in bp.representatives()
              for leg in rep.legs if isinstance(leg, ChordLeg)]
    while len(chords) < 120:
        ta, ra = rng.uniform(-10.0, 10.0), _log_radius(rng)
        tb, rb = ta + rng.uniform(-12.0, 12.0), _log_radius(rng)
        chords += [leg for leg in geodesic_legs((ta, ra), (tb, rb))
                   if isinstance(leg, ChordLeg)]
        tb = ta + rng.uniform(-3.1, 3.1)
        if chord_valid((ta, ra), (tb, rb)):
            chords.append(ChordLeg((ta, ra), (tb, rb)))
    chords.append(ChordLeg((2.0, 5.0), (2.0, 5.0)))
    bases = list(zoo.space.attached.values())
    for leg in chords:
        pts = [(leg.a[0] + rng.uniform(-12.0, 12.0), _log_radius(rng))
               for _ in range(6)]
        pts += rng.sample(bases, 2)
        for _ in range(3):
            t, r = leg.coords_at(rng.uniform(0.0, leg.length))
            eps = 10.0 ** rng.uniform(-9.0, -5.0)
            pts += [(t, max(r, 1.0)), (t + eps / r, max(r, 1.0) + eps)]
        yield leg, pts


def test_chord_closed_form_matches_golden_search(zoo_xcat8):
    worst_above = worst = 0.0
    for leg, pts in _chord_cases(zoo_xcat8, seed=11):
        for cx in pts:
            d, s = _chord_distance(leg, kernel_terms(*cx))
            ref, _ = golden_chord_distance(leg, cx)
            assert 0.0 <= s <= leg.length
            worst = max(worst, abs(d - ref))
            worst_above = max(worst_above, d - ref)
    assert worst <= AnnulusSpace.TOL
    assert worst_above <= 1e-7


def test_chord_evaluates_each_distinct_candidate_once(monkeypatch, zoo_xcat8):
    # counts evaluations of the prepared kernel, the one the chord runs
    calls = []
    kernel = annulus.ann_distance_terms

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(annulus, "ann_distance_terms", counting)
    for leg, pts in _chord_cases(zoo_xcat8, seed=13):
        for cx in pts:
            ref = five_candidate_chord_distance(leg, cx)
            xt = kernel_terms(*cx)
            calls.clear()
            got = _chord_distance(leg, xt)
            assert got == ref and math.copysign(1.0, got[1]) == math.copysign(1.0, ref[1])
            distinct = 1 if leg.length == 0.0 else len(set(chord_candidates(leg, cx)))
            assert len(calls) == distinct


# -- profiles -------------------------------------------------------------------

# class_constants(Xcat0:8, seed 7) as computed with a per-sample escape
# sweep, all five chord candidates and a second projection of each proposal
XCAT8_SEED7_CONSTANTS = {
    "alpha": 1.6591136647754972, "alpha__bounded": True,
    "beta": 1.0197140456807436, "beta__bounded": True,
    "g1": 0.9231686482466771, "g1__bounded": True,
    "g2": 2.0319282264815173, "g2__bounded": True,
    "g3": 4.535145992108353, "g3__bounded": False,
    "g4": 7.221842425636349, "g4__bounded": False,
    "g5": 25.398120560131584, "g5__bounded": True,
    "g6": 39.33857308678907, "g6__bounded": True,
    "g7": 70.36040857901453, "g7__bounded": True,
    "g8": 136.32595274445146, "g8__bounded": True,
}


def test_class_constants_golden(zoo_xcat8):
    assert class_constants(zoo_xcat8, 7) == XCAT8_SEED7_CONSTANTS


def test_annulus_profile_projects_each_proposal_once(monkeypatch, zoo_xcat8):
    A = zoo_xcat8.space
    g5 = zoo_xcat8.boundary["g5"].canonical
    projected = []

    def counting(x, ray, horizon=None):
        projected.append(x)
        return ray_distance(x, ray, horizon)

    monkeypatch.setattr(contraction, "ray_distance", counting)
    monkeypatch.setattr(samplers, "ray_distance", counting)
    inner = profile_pair_sampler(A, g5, horizon=100.0, r_max=256.0)
    proposals = []

    def sampler(rng):
        pair = inner(rng)
        if pair is not None:
            proposals.append(pair[0])
        return pair

    contraction_profile(g5, A, sampler, 60, horizon=4096.0, seed=3)
    assert len(proposals) >= 60
    for x in proposals:
        assert sum(p is x for p in projected) == 1


def test_annulus_profile_keeps_the_horizon_test(zoo_xcat8):
    A = zoo_xcat8.space
    g5 = zoo_xcat8.boundary["g5"].canonical
    inner = profile_pair_sampler(A, g5, horizon=100.0, r_max=256.0)
    rng = random.Random(4)
    pair = None
    while pair is None:
        pair = inner(rng)
    x, _, (dxg, feet) = pair
    assert (dxg, feet) == ray_distance(x, g5)
    # y is inadmissible, so only the horizon test on x's feet can raise
    far = (x, A.pt(x.t, x.r + 2.0 * dxg + 1.0), (dxg, feet))
    for horizon in (min(feet), 0.5 * min(feet)):
        with pytest.raises(bl.HorizonError):
            contraction_profile(g5, A, lambda rng: far, 1, horizon=horizon)
        with pytest.raises(bl.HorizonError):
            ray_distance(x, g5, horizon)


def test_profile_classifications(zoo_x8, zoo_xcat12):
    X = zoo_x8.space
    g5 = X.edge_ray("g5")
    prof = contraction_profile(
        g5, X, profile_pair_sampler(X, g5, horizon=2 ** 8), 150,
        horizon=2 ** 10, seed=5,
    )
    assert prof.classification == "bounded"

    A = zoo_xcat12.space
    alpha = zoo_xcat12.boundary["alpha"].canonical
    prof2 = contraction_profile(
        alpha, A, profile_pair_sampler(A, alpha, horizon=60.0, r_min=0.02, r_max=512.0),
        3000, horizon=2048.0, seed=11, extra_pairs=alpha_extremal_pairs(A),
    )
    assert prof2.classification == "bounded"
    assert prof2.constant <= math.pi + 0.01


def test_profile_log_growth_with_witnesses(zoo_x16):
    X = zoo_x16.space
    alpha = X.edge_ray("alpha")
    witnesses = [(X.point(f"g{i}", 0), X.point("beta", i)) for i in range(4, 15)]
    prof = contraction_profile(
        alpha, X, profile_pair_sampler(X, alpha, horizon=2 ** 14), 200,
        horizon=2 ** 17, seed=3, extra_pairs=witnesses,
    )
    assert prof.classification == "sublinear"
    for i in range(4, 15):
        assert prof.bins[i] >= i
        assert 0.5 <= float(prof.bins[i]) / i <= 2.5


def test_profile_bounded_witness_inequality(zoo_xcat12):
    # every recorded witness of a bounded profile satisfies diam <= C
    A = zoo_xcat12.space
    alpha = zoo_xcat12.boundary["alpha"].canonical
    prof = contraction_profile(
        alpha, A, profile_pair_sampler(A, alpha, horizon=40.0, r_max=128.0),
        800, horizon=600.0, seed=1, extra_pairs=alpha_extremal_pairs(A, 7),
    )
    assert prof.classification == "bounded"
    for _, (_, _, diam) in prof.witnesses.items():
        assert diam <= prof.constant + 1e-12


def test_profile_rejects_bad_witness(zoo_x8):
    X = zoo_x8.space
    alpha = X.edge_ray("alpha")
    far = (X.point("g3", 0), X.point("g3", 100))  # d(x,y) >> d(x, alpha)
    with pytest.raises(bl.DomainError):
        contraction_profile(
            alpha, X, profile_pair_sampler(X, alpha, horizon=2 ** 6), 5,
            horizon=2 ** 9, seed=0, extra_pairs=[far],
        )


def test_strong_contraction_results(zoo_x16, zoo_xcat12):
    X = zoo_x16.space
    alpha = X.edge_ray("alpha")
    witnesses = [(X.point(f"g{i}", 0), X.point("beta", i)) for i in range(4, 15)]
    prof = contraction_profile(
        alpha, X, profile_pair_sampler(X, alpha, horizon=2 ** 14), 200,
        horizon=2 ** 17, seed=3, extra_pairs=witnesses,
    )
    assert prof.classification == "sublinear" and prof.stabilized
    assert prof.constant is None
    top = max(prof.bins, key=lambda k: (prof.bins[k], k))
    assert prof.bins[top] >= 10 and top >= 3  # large diameter at large radius

    g4 = zoo_xcat12.boundary["g4"].canonical
    A = zoo_xcat12.space
    prof2 = contraction_profile(
        g4, A, profile_pair_sampler(A, g4, horizon=100.0, r_max=512.0), 600,
        horizon=4096.0, seed=2,
    )
    assert prof2.classification == "bounded" and prof2.constant > 0


# -- geodesic image property ------------------------------------------------------

def test_git_far_segment_passes(zoo_xcat12):
    A = zoo_xcat12.space
    alpha = zoo_xcat12.boundary["alpha"].canonical
    seg = A.geodesic_polyline(A.pt(-20, 2.0), A.pt(-9, 4.0), 64)
    res = git_check(alpha, seg, math.pi, horizon=100.0)
    assert res.passed and res.min_gap >= 2 * math.pi


def test_git_rejects_close_segments(zoo_xcat12):
    A = zoo_xcat12.space
    alpha = zoo_xcat12.boundary["alpha"].canonical
    seg = A.geodesic_polyline(A.pt(1.0, 1.0), A.pt(3.0, 1.0), 8)
    with pytest.raises(bl.DomainError):
        git_check(alpha, seg, math.pi, horizon=50.0)


def test_git_rejects_an_empty_segment(zoo_x8, zoo_xcat12):
    # max() of no feet used to raise a bare ValueError
    for zoo in (zoo_x8, zoo_xcat12):
        with pytest.raises(bl.DomainError, match="at least one"):
            git_check(zoo.boundary["alpha"].canonical, [], 1.0, 50.0)


@pytest.mark.parametrize("horizon", NON_FINITE)
def test_git_rejects_non_finite_horizons(zoo_xcat12, horizon):
    # a NaN or infinite horizon used to pass as no horizon
    A = zoo_xcat12.space
    alpha = zoo_xcat12.boundary["alpha"].canonical
    seg = A.geodesic_polyline(A.pt(-20, 2.0), A.pt(-9, 4.0), 8)
    with pytest.raises(bl.DomainError, match="horizon"):
        git_check(alpha, seg, math.pi, horizon)


@pytest.mark.parametrize("C", [0, -1.0, math.nan, math.inf])
def test_git_rejects_a_constant_that_is_not_positive_and_finite(zoo_xcat12, C):
    # C = 0 passed, -1 and NaN failed, and inf blamed the segment's distance
    A = zoo_xcat12.space
    alpha = zoo_xcat12.boundary["alpha"].canonical
    seg = A.geodesic_polyline(A.pt(-20, 2.0), A.pt(-9, 4.0), 8)
    with pytest.raises(bl.DomainError, match="constant C"):
        git_check(alpha, seg, C, 100.0)


def test_far_segment_suite_rejects_empty_count(zoo_xcat12):
    # n = 0 used to "pass" with no segment checked
    alpha = zoo_xcat12.boundary["alpha"].canonical
    for n in (0, -3):
        with pytest.raises(bl.DomainError):
            far_segment_suite(alpha, math.pi, n, seed=1)


def test_git_random_suite(zoo_xcat12):
    A = zoo_xcat12.space
    alpha = zoo_xcat12.boundary["alpha"].canonical
    rng = random.Random(12)
    C = math.pi
    done = 0
    while done < 60:
        th1 = rng.uniform(-30, 30)
        th2 = th1 + rng.uniform(-8, 8)
        r1 = 1.0 + math.exp(rng.uniform(math.log(0.2), math.log(50)))
        r2 = 1.0 + math.exp(rng.uniform(math.log(0.2), math.log(50)))
        seg = A.geodesic_polyline(A.pt(th1, r1), A.pt(th2, r2), 48)
        try:
            res = git_check(alpha, seg, C, horizon=200.0)
        except bl.DomainError:
            continue
        assert res.passed
        done += 1


# -- asymptoty ----------------------------------------------------------------------

def test_asymptotic_same_ray(zoo_x8, zoo_xcat12):
    # a ray lies on itself: each of its points projects to its own parameter
    for zoo, ts in ((zoo_x8, (Fraction(0), Fraction(7, 3), Fraction(300))),
                    (zoo_xcat12, (0.0, 2.5, 300.0))):
        alpha = zoo.boundary["alpha"].canonical
        for t in ts:
            assert ray_distance(alpha.eval(t), alpha) == (0, [t])


def test_alpha_beta_divergent(zoo_x8):
    # alpha and beta meet only at o: d(beta(T), alpha) = T, exactly
    alpha = zoo_x8.boundary["alpha"].canonical
    beta = zoo_x8.boundary["beta"].canonical
    for T in (Fraction(1, 3), Fraction(200), Fraction(zoo_x8.product_horizon)):
        assert ray_distance(beta.eval(T), alpha)[0] == T


def test_same_class_reps_asymptotic(zoo_x8, zoo_xcat12):
    # past both bases the two representatives run on the same edge or ray
    for bp, T in ((zoo_x8.boundary["g3"], Fraction(200)),
                  (zoo_xcat12.boundary["g5"], 400.0)):
        aux = bp.auxiliaries[0]
        assert ray_distance(aux.eval(T), bp.canonical)[0] == 0
        assert ray_distance(bp.canonical.eval(T), aux)[0] == 0


def test_alpha_vs_branch_divergent(zoo_xcat12):
    # far out, alpha(T) moves straight away from the ray to g6, and back
    alpha = zoo_xcat12.boundary["alpha"].canonical
    g6 = zoo_xcat12.boundary["g6"].canonical
    for a, b in ((alpha, g6), (g6, alpha)):
        d = [ray_distance(b.eval(T), a)[0] for T in (800.0, 801.0)]
        assert abs(d[1] - d[0] - 1) <= 1e-9


# -- escape times ----------------------------------------------------------------------

def test_escape_beta_vs_alpha_closed_form(zoo_xcat12):
    # d(beta(t), alpha) = t, so the 2C level is crossed exactly once at 2C
    alpha = zoo_xcat12.boundary["alpha"].canonical
    beta = zoo_xcat12.boundary["beta"].canonical
    et = t_first_escape(alpha, beta, math.pi, horizon=100.0)
    assert et.value == pytest.approx(2 * math.pi, abs=1e-6)
    assert et.bracket[0] <= et.value <= et.bracket[1]


def test_escape_invariants(zoo_xcat12):
    A = zoo_xcat12.space
    alpha = zoo_xcat12.boundary["alpha"].canonical
    g6 = zoo_xcat12.boundary["g6"].canonical
    C = math.pi
    et = t_first_escape(alpha, g6, C, horizon=400.0)
    d_at_T = ray_distance(g6.eval(et.value), alpha, None)[0]
    assert d_at_T == pytest.approx(2 * C, abs=1e-6)
    for t in np.linspace(et.value + 0.5, 400.0, 40):
        assert ray_distance(g6.eval(float(t)), alpha, None)[0] > 2 * C


def test_escape_monotone_in_constant(zoo_xcat12):
    # the level sets of an eventually increasing distance move outward, so
    # a larger constant gives a later (or equal) last crossing
    alpha = zoo_xcat12.boundary["alpha"].canonical
    beta = zoo_xcat12.boundary["beta"].canonical
    values = [
        t_first_escape(alpha, beta, c, horizon=200.0).value
        for c in (1.0, 2.0, math.pi, 5.0)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_escape_errors(zoo_xcat12):
    alpha = zoo_xcat12.boundary["alpha"].canonical
    beta = zoo_xcat12.boundary["beta"].canonical
    with pytest.raises(bl.DomainError):
        t_first_escape(alpha, alpha, math.pi, horizon=100.0)
    with pytest.raises(bl.HorizonError):
        t_first_escape(alpha, beta, math.pi, horizon=3.0)  # still inside at horizon
    for horizon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(bl.DomainError, match="horizon"):
            t_first_escape(alpha, beta, math.pi, horizon=horizon)


def _reps(zoo):
    return [ray for bp in zoo.boundary.values() for ray in bp.representatives()]


def _outcome(escape, *args):
    """An EscapeTime, or the type and message of the error raised."""
    try:
        return escape(*args)
    except bl.BoundaryLabError as err:
        return type(err), str(err)


def _tent_rays(rc):
    """Continuous rays of a rational complex that start off its marks: the
    tail of each ray edge from 1/7 on, and, when e1 is glued to e0 at its
    start, from inside e1 back to that gluing and out along e0."""
    rays = [UnitSpeedRay(rc, f"{eid}+1/7", (EdgeLeg(eid, Fraction(1, 7), None),))
            for eid, e in rc.edges.items() if e.kind == "ray"]
    for locs in vertex_locs(rc):
        at = dict(locs)
        if at.get("e1") == 0 and "e0" in at:
            back = EdgeLeg("e1", rc.edges["e1"].length * Fraction(5, 7), Fraction(0))
            rays.append(UnitSpeedRay(rc, "e1-e0", (back, EdgeLeg("e0", at["e0"], None))))
    return rays


def test_rc_escape_cuts_leave_tents_between_them():
    # between consecutive cuts, f(t) = d(beta(t), alpha) is 0 or exactly the
    # tent min(f(p) + t - p, f(q) + q - t): checked at sixths of every
    # interval, and past the last cut, on the zoo and on rational complexes.
    # The cuts are those of the Fraction-mark reference, as a list, so the
    # escape search queries the same parameters in the same order
    pairs = []
    for zoo in (bl.build_X(8), bl.build_Y(8)):
        pairs += [(a, b) for a in _reps(zoo) for b in _reps(zoo)]
    for rc, _, _ in _rational_complexes():
        rays = [rc.edge_ray(eid) for eid, e in rc.edges.items() if e.kind == "ray"]
        rays += _tent_rays(rc)
        pairs += [(a, b) for a in rays for b in rays]
    intervals = 0
    for alpha, beta in pairs:
        cuts = alpha.space._escape_cuts(alpha, beta)
        assert cuts == reference_escape_cuts(alpha, beta), (alpha, beta)
        cuts.append(cuts[-1] + 2)

        def f(t):
            return ray_distance(beta.eval(t), alpha)[0]

        for p, q in zip(cuts, cuts[1:]):
            fp, fq = f(p), f(q)
            ts = [p + (q - p) * Fraction(k, 6) for k in range(1, 6)]
            got = [f(t) for t in ts]
            if any(got):
                assert got == [min(fp + t - p, fq + q - t) for t in ts], (alpha, beta, p)
            intervals += 1
    assert intervals > 3500


@pytest.mark.parametrize("spec", ["X:8", "Y:8", "X:16"])
def test_rc_escape_lies_in_the_sweep_bracket(spec):
    # 2C is never an integer here, so no local minimum of f (an integer at
    # a cut) touches the level, where the sweep can miss the last contact
    zoo = bl.get_space(spec)
    reps = _reps(zoo)
    rng = random.Random(5)
    returned = 0
    for C in (0.3, 1.25, math.pi):
        for _ in range(60):
            alpha, beta = rng.choice(reps), rng.choice(reps)
            horizon = rng.uniform(2.0 * C, 2.0 * C + 20.0)
            try:
                ref = sweep_escape(alpha, beta, C, horizon)
            except bl.BoundaryLabError:
                continue
            et = t_first_escape(alpha, beta, C, horizon)
            assert type(et.value) is Fraction and et.bracket == (et.value, et.value)
            assert ref.bracket[0] <= et.value <= ref.bracket[1]
            assert ray_distance(beta.eval(et.value), alpha)[0] == 2 * Fraction(C)
            returned += 1
    assert returned > 75


def test_rc_escape_sees_dips_and_touches_the_sweep_misses(zoo_x16):
    # f = min(t, |102 - t| + 39): above 2C = 40 from t = 40 on, but for a
    # dip to 39 at t = 102 that no grid point (step 5) lands on
    rc = bl.compile_space(bl.parse_space(
        "ray a\nray b\nseg c 39\nglue a:0 b:0\nglue c:0 b:102\nglue c:39 a:500\nbase a:0\n"
    ))
    a, b = rc.edge_ray("a"), rc.edge_ray("b")
    assert t_first_escape(a, b, 20, 400).value == 103
    assert sweep_escape(a, b, 20, 400).value == 40.00000000029104
    # g1~beta is min(t, 5 - t) from g5 on [0, 3], then 2 + (t - 3): it
    # touches 2C = 2 at t = 3, between grid points at this horizon
    g5, g1b = zoo_x16.boundary["g5"].canonical, zoo_x16.boundary["g1"].auxiliaries[0]
    assert t_first_escape(g5, g1b, 1.0, 34.0139).value == 3
    assert sweep_escape(g5, g1b, 1.0, 34.0139).value == pytest.approx(2.0, abs=1e-9)


def test_rc_escape_makes_one_query_per_cut(monkeypatch, zoo_x8):
    # no grid: a tiny constant at a huge horizon costs one exact distance
    # per cut, plus f(H) and one look past the last cut
    calls = []

    def counted(*args):
        calls.append(args)
        return ray_distance(*args)

    monkeypatch.setattr(contraction, "ray_distance", counted)
    reps = _reps(zoo_x8)
    outcomes = set()
    for alpha in reps:
        for beta in reps:
            calls.clear()
            res = _outcome(t_first_escape, alpha, beta, 1e-300, 1e300)
            outcomes.add(res[0] if isinstance(res, tuple) else type(res.value))
            assert 1 <= len(calls) <= len(alpha.space._escape_cuts(alpha, beta)) + 2
    assert outcomes == {Fraction, bl.DomainError}


@pytest.mark.parametrize("C, horizon", [(1e-300, 100.0), (5e-324, 100.0), (1.0, 1e300)])
def test_escape_checks_the_sweep_before_allocating(monkeypatch, zoo_x8, C, horizon):
    # no sweep to allocate: g2 leaves alpha at t = 2, so the escape is
    # 2 + 2C exactly, found with at most one distance per cut plus two
    calls = []

    def counted(*args):
        calls.append(args)
        return ray_distance(*args)

    alpha = zoo_x8.boundary["alpha"].canonical
    g2 = zoo_x8.boundary["g2"].canonical
    monkeypatch.setattr(contraction, "ray_distance", counted)
    et = t_first_escape(alpha, g2, C, horizon)
    assert et.value == 2 + 2 * Fraction(C) and et.bracket == (et.value, et.value)
    assert 1 <= len(calls) <= len(alpha.space._escape_cuts(alpha, g2)) + 2


def test_annulus_escape_queries_go_through_ray_distance(monkeypatch, zoo_xcat8):
    # every value of f(t) = d(beta(t), alpha) is one counted query: the
    # convex grid takes about log2(n) of them and the bisection about 30
    calls = []

    def counted(*args):
        calls.append(args)
        return ray_distance(*args)

    alpha = zoo_xcat8.boundary["alpha"].canonical
    beta = zoo_xcat8.boundary["beta"].canonical
    monkeypatch.setattr(contraction, "ray_distance", counted)
    et = t_first_escape(alpha, beta, 1.0, 100.0)
    assert et.value == pytest.approx(2.0, abs=1e-6)
    assert 30 <= len(calls) <= 60 and all(args[1] is alpha for args in calls)


def test_rc_escape_is_exact_at_any_horizon(zoo_x8):
    # d(beta(t), alpha) = t: the crossing at 2C = 8, whatever the horizon
    alpha = zoo_x8.boundary["alpha"].canonical
    beta = zoo_x8.boundary["beta"].canonical
    for horizon in (64.0, 64.5, Fraction(201, 7)):
        et = t_first_escape(alpha, beta, 4.0, horizon)
        assert et.value == Fraction(8) and et.bracket == (8, 8)
    with pytest.raises(bl.HorizonError, match="still inside"):
        t_first_escape(alpha, beta, 4.0, 8.0)
    g3 = zoo_x8.boundary["g3"]
    with pytest.raises(bl.DomainError, match="never leaves"):
        t_first_escape(g3.canonical, g3.auxiliaries[0], 4.0, 2.0)


def test_rc_escape_rejects_rays_whose_legs_do_not_meet():
    rc = bl.compile_space(bl.parse_space("ray a\nray b\nglue a:0 b:0\nbase a:0\n"))
    legs = (EdgeLeg("a", Fraction(0), Fraction(2)), EdgeLeg("b", Fraction(1), None))
    jump = UnitSpeedRay(rc, "jump", legs)  # from a:2 to b:1, 3 apart
    with pytest.raises(bl.DomainError, match="do not meet at 2"):
        t_first_escape(rc.edge_ray("a"), jump, 1.0, 10.0)


@pytest.mark.parametrize("build", [bl.build_Xcat0, bl.build_Ycat0])
def test_certified_escape_equals_the_sweep(build):
    # seeded horizons put the grid points at irregular steps; the small
    # constants start many pairs outside 2C
    zoo = build(8)
    rng = random.Random(17)
    returned = 0
    for C in (0.1, 0.2, 0.45, 0.5, math.pi, 10.0):
        for alpha in _reps(zoo):
            for beta in _reps(zoo):
                horizon = rng.uniform(2.0 * C, 2.0 * C + 20.0)
                ref = _outcome(sweep_escape, alpha, beta, C, horizon)
                if isinstance(ref, tuple) and ("rising" in ref[1] or "never" in ref[1]):
                    continue  # the sweep's own guess between these two
                # the same floats, or the same error
                assert _outcome(t_first_escape, alpha, beta, C, horizon) == ref
                returned += isinstance(ref, contraction.EscapeTime)
    assert returned > 1400  # of 2,400 cases


@pytest.mark.parametrize("n", [4, 8, 12, 16])
@pytest.mark.parametrize("build", [bl.build_Xcat0, bl.build_Ycat0])
def test_zoo_representatives_pass_the_geodesic_check(build, n):
    assert all(_is_geodesic(ray) for ray in _reps(build(n)))


def test_rays_with_corners_are_rejected(zoo_xcat8):
    A = zoo_xcat8.space
    phi = math.acos(1.0 / 3.0)  # (phi, 1) is where a tangent from (0, 3) meets r = 1
    out_and_back = UnitSpeedRay(
        A, "out-and-back", (BoundaryArcLeg(0.0, 1, 1.0), BoundaryArcLeg(1.0, -1, None))
    )
    out_and_down = UnitSpeedRay(A, "out-and-down", (
        ChordLeg((0.0, 1.0), (0.0, 3.0)),
        ChordLeg((0.0, 3.0), (phi, 1.0)),
        BoundaryArcLeg(phi, 1, None),
    ))
    # the out-and-back arc moves 1 away from beta and comes back, so its
    # distance is not convex: escape times would rest on a false premise
    cornered = [out_and_back, out_and_down]
    rays = [zoo_xcat8.boundary[label].canonical for label in ("alpha", "beta", "g3")]
    for ray in cornered:
        assert not _is_geodesic(ray)
        for other in rays + cornered:
            for alpha, beta in ((ray, other), (other, ray)):
                with pytest.raises(bl.DomainError, match="geodesic rays"):
                    t_first_escape(alpha, beta, 1.0, 30.0)


@pytest.mark.parametrize("build", [bl.build_Xcat0, bl.build_Ycat0])
def test_same_class_escapes_never_reach(build):
    # same-class representatives are asymptotic, and a convex distance that
    # stays bounded never rises: float noise at 1e-14 is not "still rising"
    zoo = build(8)
    for C in (0.5, math.pi, 10.0):
        for bp in zoo.boundary.values():
            for alpha in bp.representatives():
                for beta in bp.representatives():
                    with pytest.raises(bl.DomainError, match="never reaches"):
                        t_first_escape(alpha, beta, C, 50.0 * C + 100.0)


# -- residual checks ----------------------------------------------------------------------

def test_claim_same_ray_reps_zero_eta_residual(zoo_xcat12):
    alpha = zoo_xcat12.boundary["alpha"].canonical
    g5 = zoo_xcat12.boundary["g5"]
    rep = claim_check(
        [alpha, alpha], g5.representatives(), math.pi, math.pi, horizon=400.0
    )
    assert rep.residual_t_under_eta_change == 0.0
    assert rep.passed


def test_claim_alpha_vs_branch(zoo_xcat12):
    table = class_constants(zoo_xcat12, seed=7)
    rep = claim_check(
        zoo_xcat12.boundary["alpha"].representatives(),
        zoo_xcat12.boundary["g5"].representatives(),
        table["alpha"], table["g5"], horizon=50.0 * table["alpha"] + 100.0,
    )
    assert rep.passed
    assert rep.boundary_product == pytest.approx(5.0, abs=0.01)


def test_claim_needs_two_reps(zoo_xcat12):
    alpha = zoo_xcat12.boundary["alpha"]
    with pytest.raises(bl.DomainError):
        claim_check([alpha.canonical], alpha.representatives(), 1.0, 1.0, 100.0)


def _bits(x):
    """x with every float replaced by its hex text, so that == compares bits."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    return x


def _claim_cases(spec):
    """(eta, zeta, C_eta, C_zeta) of claim checks on a zoo space: the
    sampled class constants on the annulus, fixed ones on a ray complex."""
    zoo = bl.get_space(spec)
    if isinstance(zoo.space, bl.RayComplex):
        labels = ["g1", "g2", "g4", "g7"]
        return [(e, f, C, C) for e in labels for f in labels if e != f for C in (1.0, 3.0)]
    table = class_constants(zoo, seed=7)
    labels = ["alpha", "beta", "g1", "g3", "g8"]
    return [(e, f, table[e], table[f]) for e in labels for f in labels if e != f]


@pytest.mark.parametrize("spec", ["Xcat0:8", "Ycat0:8", "X:8"])
def test_claim_check_matches_its_point_reference(spec, monkeypatch):
    # the products come from seeded points (space._products): the same
    # escape times, residuals, products and boundary product as one
    # gromov_product per grid point, bit for bit on the annulus
    zoo = bl.get_space(spec)
    space = zoo.space
    seen = []

    def products(xo, yo, xy):
        seen.append(type(space)._products(xo, yo, xy))
        return seen[-1]

    monkeypatch.setattr(space, "_products", products, raising=False)
    checked = 0
    for eta, zeta, c_eta, c_zeta in _claim_cases(spec):
        args = (zoo.boundary[eta].representatives(), zoo.boundary[zeta].representatives(),
                c_eta, c_zeta, 50.0 * c_eta + 100.0)
        seen.clear()
        want = _outcome(reference_claim_check, *args)
        got = _outcome(claim_check, *args)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want, (eta, zeta)  # the same error
            continue
        report, want_products = want
        assert _bits(got.__dict__) == _bits(report.__dict__), (eta, zeta)
        assert _bits(seen) == _bits(want_products), (eta, zeta)
        checked += 1
    assert checked >= 16


def test_claim_check_runs_the_geodesic_check_once_per_ray(monkeypatch):
    zoo = bl.build_Xcat0(8)  # a fresh build: its rays have run no check yet
    calls = []

    def counted(ray):
        calls.append(ray.label)
        return _is_geodesic(ray)

    monkeypatch.setattr("boundary_lab.rays._is_geodesic", counted)
    table = class_constants(zoo, seed=7)
    for eta, zeta in (("alpha", "g3"), ("g3", "alpha"), ("alpha", "g8")):
        claim_check(zoo.boundary[eta].representatives(),
                    zoo.boundary[zeta].representatives(),
                    table[eta], table[zeta], 50.0 * table[eta] + 100.0)
    # six rays, every one of them in 2 x 2 escapes per claim check
    assert sorted(calls) == ["alpha", "alpha~1", "g3", "g3~1", "g8", "g8~1"]


def test_basis_single_point_boundary_vacuous(zoo_xcat12):
    alpha = zoo_xcat12.boundary["alpha"]
    rep = neighborhood_basis_check(alpha, 3.0, [alpha], {"alpha": math.pi})
    assert rep.passed
    assert rep.rows[0][3] == ("alpha",)


def test_basis_requires_constants(zoo_xcat12):
    pts = [zoo_xcat12.boundary["alpha"], zoo_xcat12.boundary["g3"]]
    with pytest.raises(bl.DomainError):
        neighborhood_basis_check(pts[0], 1.0, pts, {"alpha": 1.0})
