import math
import random
from fractions import Fraction

import numpy as np
import pytest

import boundary_lab as bl
from boundary_lab import contraction, samplers
from boundary_lab.annulus import AnnulusSpace, chord_valid, geodesic_legs, kernel_terms
from boundary_lab.contraction import (
    ProjectionResult,
    _chord_distance,
    _is_geodesic,
    claim_check,
    contraction_profile,
    far_segment_suite,
    git_check,
    neighborhood_basis_check,
    project,
    ray_distance,
    t_first_escape,
)
from boundary_lab.rays import BoundaryArcLeg, ChordLeg, UnitSpeedRay
from boundary_lab.samplers import profile_pair_sampler
from boundary_lab.suite import alpha_extremal_pairs, class_constants
from oracles import (
    chord_candidates,
    five_candidate_chord_distance,
    golden_chord_distance,
    reference_annulus_ray_distance,
    sweep_escape,
)


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
    kernel = contraction.ann_distance_terms

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(contraction, "ann_distance_terms", counting)
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


@pytest.mark.parametrize("C, horizon", [(1e-300, 100.0), (5e-324, 100.0), (1.0, 1e300)])
def test_escape_checks_the_sweep_before_allocating(monkeypatch, zoo_x8, C, horizon):
    # ray complexes take the sweep, whose cap is checked before any distance
    def no_distance(*args):
        raise AssertionError("a distance was evaluated before the sweep check")

    alpha = zoo_x8.boundary["alpha"].canonical
    g2 = zoo_x8.boundary["g2"].canonical
    monkeypatch.setattr(contraction, "ray_distance", no_distance)
    with pytest.raises(bl.DomainError, match=f"more than {contraction.MAX_SWEEP_SAMPLES}"):
        t_first_escape(alpha, g2, C, horizon)


def test_escape_sample_limit_is_inclusive(monkeypatch, zoo_x8):
    # C = 4: samples at t = 0, 1, ..., horizon
    alpha = zoo_x8.boundary["alpha"].canonical
    beta = zoo_x8.boundary["beta"].canonical
    monkeypatch.setattr(contraction, "MAX_SWEEP_SAMPLES", 65)
    assert t_first_escape(alpha, beta, 4.0, 64.0).value == pytest.approx(8.0, abs=1e-6)
    with pytest.raises(bl.DomainError, match="more than 65 samples"):
        t_first_escape(alpha, beta, 4.0, 64.5)


def _reps(zoo):
    return [ray for bp in zoo.boundary.values() for ray in bp.representatives()]


def _outcome(escape, *args):
    """An EscapeTime, or the type and message of the error raised."""
    try:
        return escape(*args)
    except bl.BoundaryLabError as err:
        return type(err), str(err)


@pytest.mark.parametrize("build", [bl.build_Xcat0, bl.build_Ycat0])
def test_certified_escape_equals_the_sweep(build):
    # seeded horizons put the grid points at irregular steps
    zoo = build(8)
    rng = random.Random(17)
    returned = 0
    for C in (0.5, math.pi, 10.0):
        for alpha in _reps(zoo):
            for beta in _reps(zoo):
                horizon = rng.uniform(2.0 * C, 2.0 * C + 20.0)
                try:
                    ref = sweep_escape(alpha, beta, C, horizon)
                except bl.BoundaryLabError:
                    continue
                assert t_first_escape(alpha, beta, C, horizon) == ref  # same floats
                returned += 1
    assert returned > 700  # of 1,200 cases


@pytest.mark.parametrize("n", [4, 8, 12, 16])
@pytest.mark.parametrize("build", [bl.build_Xcat0, bl.build_Ycat0])
def test_zoo_representatives_pass_the_geodesic_check(build, n):
    assert all(_is_geodesic(ray) for ray in _reps(build(n)))


def test_rays_with_corners_fail_the_check_and_take_the_sweep(monkeypatch, zoo_xcat8):
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
    assert not _is_geodesic(out_and_back) and not _is_geodesic(out_and_down)

    def no_search(*args):
        raise AssertionError("a ray with a corner took the certified search")

    monkeypatch.setattr(contraction, "_last_inside_convex", no_search)
    cornered = [out_and_back, out_and_down]
    rays = [zoo_xcat8.boundary[label].canonical for label in ("alpha", "beta", "g3")]
    outcomes = []
    for alpha in rays + cornered:
        for beta in cornered + (rays if alpha in cornered else []):
            for C in (0.25, 1.0, 3.0):
                ref = _outcome(sweep_escape, alpha, beta, C, 30.0)
                assert _outcome(t_first_escape, alpha, beta, C, 30.0) == ref
                outcomes.append(ref)
    # the out-and-back arc moves 1 away from beta and comes back: the sweep
    # finds it inside 2C at the horizon, where trusting convexity would
    # conclude that it never reaches 2C
    assert (bl.HorizonError, "still inside the 2C-neighborhood at the horizon") in outcomes
    assert any(isinstance(o, contraction.EscapeTime) for o in outcomes)


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


def test_basis_single_point_boundary_vacuous(zoo_xcat12):
    alpha = zoo_xcat12.boundary["alpha"]
    rep = neighborhood_basis_check(
        alpha, 3.0, [alpha], {"alpha": math.pi}, horizon=1000.0
    )
    assert rep.passed
    assert rep.rows[0][3] == ("alpha",)


def test_basis_requires_constants(zoo_xcat12):
    pts = [zoo_xcat12.boundary["alpha"], zoo_xcat12.boundary["g3"]]
    with pytest.raises(bl.DomainError):
        neighborhood_basis_check(pts[0], 1.0, pts, {"alpha": 1.0}, horizon=100.0)
