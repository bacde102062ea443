import functools
import gc
import hashlib
import itertools
import math
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import boundary_lab as bl
from boundary_lab import boundary, dsl, spacezoo
from boundary_lab.annulus import AttachedLeg, BoundaryArcLeg, ChordLeg
from boundary_lab.boundary import boundary_gromov_product
from boundary_lab.contraction import contraction_profile, project, ray_distance
from boundary_lab.metric import gromov_product
from boundary_lab.ray_complex import RAY, SEGMENT, Edge, RayComplex
from boundary_lab.rays import EdgeLeg, UnitSpeedRay
from oracles import (
    brute_rc_distance,
    fraction_vertex_graph,
    marks_on,
    reference_edge_point,
    reference_rc_ray_distance,
    vertex_locs,
)


def test_distance_examples_from_construction(zoo_x8, zoo_x16):
    X = zoo_x8.space
    assert X.distance(X.point("g3", 0), X.point("alpha", 3)) == 8
    assert X.distance(X.basepoint, X.point("g3", 1)) == 12
    X16 = zoo_x16.space
    assert X16.distance(X16.point("alpha", 5), X16.point("beta", 5)) == 10


def test_distance_alpha_beta_is_additive(zoo_x16):
    X = zoo_x16.space
    rng = random.Random(0)
    for _ in range(25):
        s = Fraction(rng.randint(0, 2 ** 14 * 4), 4)
        t = Fraction(rng.randint(0, 2 ** 14 * 4), 4)
        assert X.distance(X.point("alpha", s), X.point("beta", t)) == s + t


def test_y_short_route(tmp_path):
    Y = bl.build_Y(5).space
    assert Y.distance(Y.basepoint, Y.point("g3", 0)) == 5  # min(3+8, 3+2)


def test_brute_force_oracle_agreement(zoo_x8):
    # small complex (11 edges) plus irregular hand-built one
    zx3 = bl.build_X(3)
    X = zx3.space
    rng = random.Random(3)
    edges = sorted(X.edges)
    for _ in range(40):
        e1, e2 = rng.choice(edges), rng.choice(edges)
        lim1 = X.edges[e1].length or 20
        lim2 = X.edges[e2].length or 20
        p = X.point(e1, Fraction(rng.randint(0, int(lim1) * 2), 2))
        q = X.point(e2, Fraction(rng.randint(0, int(lim2) * 2), 2))
        assert X.distance(p, q) == brute_rc_distance(X, p, q)


def test_brute_force_oracle_on_looped_complex():
    # one ray with a self-gluing and a chord segment: cycles + midpoints
    rc = RayComplex(
        [Edge("r", RAY, None), Edge("s", SEGMENT, Fraction(3))],
        [
            (("r", Fraction(2)), ("s", Fraction(0))),
            (("r", Fraction(9)), ("s", Fraction(3))),
        ],
        ("r", Fraction(0)),
    )
    rng = random.Random(1)
    for _ in range(40):
        p = rc.point("r", Fraction(rng.randint(0, 24), 2))
        q = rc.point(
            rng.choice(["r", "s"]),
            Fraction(rng.randint(0, 6), 2),
        )
        assert rc.distance(p, q) == brute_rc_distance(rc, p, q)


def _route_length(S, route):
    return sum(S.distance(a, b) for a, b in zip(route, route[1:]))


def test_geodesic_witness_route(zoo_x16):
    X = zoo_x16.space
    p, q = X.basepoint, X.point("g3", 1)
    assert X.distance(p, q) == 12
    route = [p, X.point("alpha", 3), X.point("g3", 0), q]
    assert _route_length(X, route) == 12


def _random_rational_complex(rng):
    """A connected complex of 2-5 edges with lengths and gluing parameters
    in thirds and fifths, possibly with cycles; the first segment's length
    is not an integer."""
    edges = [Edge("e0", RAY, None)]
    gluings = [(("e1", Fraction(0)), ("e0", Fraction(rng.randint(0, 9), 3)))]
    edges.append(Edge("e1", SEGMENT, Fraction(rng.choice([1, 2, 4, 5, 7]), 3)))

    def location():
        e = rng.choice(edges)
        top = e.length if e.length is not None else Fraction(6)
        return e.edge_id, top * Fraction(rng.randint(0, 15), 15)

    for k in range(2, rng.randint(2, 5)):
        eid = f"e{k}"
        if rng.random() < 0.6:
            edge = Edge(eid, SEGMENT, Fraction(rng.randint(1, 12), rng.choice([3, 5])))
        else:
            edge = Edge(eid, RAY, None)
        gluings.append(((eid, Fraction(0)), location()))
        if edge.length is not None and rng.random() < 0.5:
            gluings.append(((eid, edge.length), location()))
        edges.append(edge)
    return RayComplex(edges, gluings, ("e0", Fraction(0)))


def _test_points(rng, rc):
    """Points at marks, inside edges between marks, and on ray tails past
    the last mark."""
    pts = []
    for eid, edge in rc.edges.items():
        marks = marks_on(rc, eid)
        pts += [rc.point(eid, m) for m in marks]
        for lo, hi in zip(marks, marks[1:]):
            pts.append(rc.point(eid, lo + (hi - lo) * Fraction(rng.randint(1, 6), 7)))
        if edge.length is None:
            pts.append(rc.point(eid, marks[-1] + Fraction(rng.randint(1, 20), 7)))
    return pts


def _rational_complexes():
    """The 25 seeded complexes, each with its test points and 30 random pairs
    of them, all drawn from one stream."""
    rng = random.Random(11)
    for _ in range(25):
        rc = _random_rational_complex(rng)
        pts = _test_points(rng, rc)
        yield rc, pts, [(rng.choice(pts), rng.choice(pts)) for _ in range(30)]


def test_distance_matches_oracle_on_rational_complexes():
    for rc, pts, random_pairs in _rational_complexes():
        marks = [m for eid in rc.edges for m in marks_on(rc, eid)]
        assert math.lcm(*(m.denominator for m in marks)) > 1
        pairs = [(p, q) for p in pts for q in pts if p.edge_id == q.edge_id]
        pairs += random_pairs
        for p, q in pairs:
            d = rc.distance(p, q)
            assert isinstance(d, Fraction)
            assert d == brute_rc_distance(rc, p, q)


def _dyadic_points(rc):
    """Points at every mark, at one of the quarters 1/4, 1/2, 3/4 (in turn)
    between consecutive marks, and on ray tails past the last mark."""
    pts = []
    quarters = itertools.cycle((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
    for eid, edge in rc.edges.items():
        marks = marks_on(rc, eid)
        pts += [rc.point(eid, m) for m in marks]
        for lo, hi in zip(marks, marks[1:]):
            pts.append(rc.point(eid, lo + (hi - lo) * next(quarters)))
        if edge.length is None:
            pts += [rc.point(eid, marks[-1] + off) for off in (Fraction(1, 2), 77)]
    return pts


def _off_mark_rays(rc):
    """Rays whose legs start and end off the marks, on each ray edge: from
    5/7 back to 1/7, then out from 1/7, meeting off the marks; and that
    last leg alone."""
    rays = []
    for eid, edge in rc.edges.items():
        if edge.kind == RAY:
            tail = EdgeLeg(eid, Fraction(1, 7), None)
            rays.append(UnitSpeedRay(rc, f"{eid}+1/7", (tail,)))
            back = EdgeLeg(eid, Fraction(5, 7), Fraction(1, 7))
            rays.append(UnitSpeedRay(rc, f"{eid}-back", (back, tail)))
    return rays


def _edge_ray_parameters(ray):
    """Integers, halves, sevenths and floats, large ones too, and around
    every leg end: the end itself, as a float, and a half and a seventh
    either side."""
    pars = list(range(12)) + [Fraction(k, 2) for k in range(1, 24, 2)]
    pars += [Fraction(k, 7) for k in (1, 5, 16, 50)]
    pars += [0.1, 2.5, 3.75, 1e-9, 10.3, 2.0 ** 40 + 0.5]
    pars += [2 ** 20, Fraction(2 ** 20 + 1, 3)]
    ends = set(ray.leg_offsets)
    ends |= {off + leg.length for leg, off in zip(ray.legs, ray.leg_offsets)
             if leg.length is not None}
    for e in sorted(ends):
        pars += [e, float(e), e + Fraction(1, 2), e + Fraction(1, 7)]
        pars += [e - d for d in (Fraction(1, 2), Fraction(1, 7)) if e >= d]
    return pars


def _assert_edge_location_matches_reference(ray):
    for t in _edge_ray_parameters(ray):
        want = reference_edge_point(ray, t)
        got = ray.eval(t)
        assert got == want and type(got.offset) is Fraction, (ray.label, t)
        eid, num, den = ray.edge_location(t)
        assert (eid, Fraction(num, den)) == (want.edge_id, want.offset), (ray.label, t)


@pytest.mark.parametrize("spec", ["X:8", "Y:8", "X:16"])
def test_edge_location_matches_the_fraction_reference_on_the_zoo(spec):
    # every representative, auxiliaries included: three legs each, joined
    # at the branch point and at the connector's end
    z = bl.get_space(spec)
    for bp in z.boundary.values():
        for ray in bp.representatives():
            _assert_edge_location_matches_reference(ray)


def test_edge_location_matches_the_fraction_reference_on_rational_complexes():
    # the edge rays, plus rays whose legs start and end in sevenths, some of
    # them running backwards along a ray edge
    for rc, _, _ in _rational_complexes():
        rays = [rc.edge_ray(eid) for eid, e in rc.edges.items() if e.kind == RAY]
        for ray in rays + _off_mark_rays(rc):
            _assert_edge_location_matches_reference(ray)


def test_edge_location_rejects_negative_and_overrun_parameters():
    rc, _, _ = next(_rational_complexes())
    top = rc.edges["e1"].length
    finite = [
        UnitSpeedRay(rc, "e1", (EdgeLeg("e1", Fraction(0), top),)),
        UnitSpeedRay(rc, "e1-back", (EdgeLeg("e1", top, Fraction(0)),)),
    ]

    def evaluators(ray):
        return ray.eval, ray.edge_location, functools.partial(reference_edge_point, ray)

    for ray in finite + [rc.edge_ray("e0")] + _off_mark_rays(rc):
        for t in (-1, Fraction(-1, 3), -0.5, -1e-300):
            for evaluate in evaluators(ray):
                with pytest.raises(bl.DomainError, match="nonnegative"):
                    evaluate(t)
    for ray in finite:
        assert ray.eval(top) == reference_edge_point(ray, top)
        for t in (top + Fraction(1, 7), float(top) + 1e-9, top + 1):
            for evaluate in evaluators(ray):
                with pytest.raises(bl.DomainError, match="beyond end"):
                    evaluate(t)


def test_non_finite_ray_parameters_and_offsets_are_domain_errors(zoo_x8):
    X = zoo_x8.space
    rays = [X.edge_ray("alpha"), zoo_x8.boundary["g3"].auxiliaries[0]]
    for bad in (math.nan, math.inf, -math.inf):
        for ray in rays:
            with pytest.raises(bl.DomainError):
                ray.eval(bad)
            with pytest.raises(bl.DomainError):
                ray.edge_location(bad)
        for offset in (bad, str(bad), "1/0"):
            with pytest.raises(bl.DomainError):
                X.point("alpha", offset)
    with pytest.raises(bl.DomainError, match="all edge legs or none"):
        UnitSpeedRay(X, "mixed", (EdgeLeg("alpha", Fraction(0), Fraction(1)),
                                  BoundaryArcLeg(0.0, 1, None)))


def test_ray_construction_checks_legs_without_their_lengths(zoo_x8, zoo_xcat8):
    # an edge leg is bounded exactly when it has an end, so construction
    # reads no leg length; a bounded leg may run backwards
    X = zoo_x8.space
    ann = zoo_xcat8.space
    unbounded_first = [
        (X, (EdgeLeg("alpha", Fraction(0), None), EdgeLeg("beta", Fraction(0), None))),
        (X, (EdgeLeg("alpha", Fraction(1, 2), None), EdgeLeg("ca1", 0, None))),
        (ann, (BoundaryArcLeg(0.0, 1, None), BoundaryArcLeg(1.0, -1, 2.0))),
        (ann, (AttachedLeg("g1"), BoundaryArcLeg(0.0, 1, None))),
    ]
    for space, legs in unbounded_first:
        with pytest.raises(bl.DomainError, match="only the final leg"):
            UnitSpeedRay(space, "bad", legs)
    mixed = [
        (EdgeLeg("alpha", Fraction(0), Fraction(1)), BoundaryArcLeg(0.0, 1, None)),
        (BoundaryArcLeg(0.0, 1, 1.0), EdgeLeg("alpha", Fraction(0), None)),
        (ChordLeg((0.0, 2.0), (1.0, 2.0)), EdgeLeg("alpha", Fraction(0), None)),
    ]
    for legs in mixed:
        with pytest.raises(bl.DomainError, match="all edge legs or none"):
            UnitSpeedRay(X, "mixed", legs)
    legs = (
        EdgeLeg("alpha", Fraction(0), Fraction(3)),
        EdgeLeg("ca3", Fraction(8), Fraction(0)),
        EdgeLeg("g3", Fraction(0), None),
    )
    ray = UnitSpeedRay(X, "g3", legs)
    assert not any("length" in vars(leg) for leg in legs)
    assert ray.leg_offsets == (0, 3, 11)
    assert ray.eval(12) == X.point("g3", 1)


def _assert_projection_matches_reference(x, ray):
    d, hits = ray_distance(x, ray)
    ref_d, ref_hits = reference_rc_ray_distance(x, ray)
    assert type(d) is Fraction and d == ref_d, (ray.label, x)
    assert hits == ref_hits, (ray.label, x)
    assert [type(h) for h in hits] == [type(h) for h in ref_hits], (ray.label, x)
    return hits


@pytest.mark.parametrize("spec", ["X:8", "Y:8", "X:16"])
def test_projection_matches_the_per_candidate_reference_on_the_zoo(spec):
    # every representative, auxiliaries included, against points at marks,
    # between them and past them, some on a ray's own edge outside its leg
    z = bl.get_space(spec)
    rc = z.space
    pts = _dyadic_points(rc)
    outside = 0
    for bp in z.boundary.values():
        for ray in bp.representatives():
            for x in pts:
                _assert_projection_matches_reference(x, ray)
                for leg in ray.legs:
                    if x.edge_id == leg.edge_id and leg.end is not None:
                        outside += not (
                            min(leg.start, leg.end) <= x.offset <= max(leg.start, leg.end)
                        )
    assert outside > 0


def test_projection_matches_the_per_candidate_reference_on_rational_complexes():
    # plus the looped complex, where the midpoint of the chord s is 3/2 from
    # both of its ends on r: a tie of two feet
    looped = RayComplex(
        [Edge("r", RAY, None), Edge("s", SEGMENT, Fraction(3))],
        [(("r", Fraction(2)), ("s", Fraction(0))), (("r", Fraction(9)), ("s", Fraction(3)))],
        ("r", Fraction(0)),
    )
    tie = _assert_projection_matches_reference(
        looped.point("s", Fraction(3, 2)), looped.edge_ray("r")
    )
    assert tie == [2, 9]
    for rc, pts, _ in _rational_complexes():
        rays = [rc.edge_ray(eid) for eid, e in rc.edges.items() if e.kind == RAY]
        off_mark = _off_mark_rays(rc)
        assert all(leg.start not in marks_on(rc, leg.edge_id)
                   for ray in off_mark for leg in ray.legs)
        for ray in rays + off_mark:
            for x in pts:
                _assert_projection_matches_reference(x, ray)


def test_a_second_projection_onto_a_ray_builds_none_of_its_stops_again(monkeypatch):
    # the first projection seeds the point and every stop of the ray (its
    # leg ends and the marks inside its legs); the ray keeps them, so a
    # second projection seeds its own point only
    seeded = []
    original = RayComplex._seeds

    def counted(self, *args):
        seeded.append(args)
        return original(self, *args)

    z = bl.build_X(8)
    X, ray = z.space, z.boundary["g3"].canonical
    ray.eval(0)  # compiles the plan, whose junction check seeds the junctions
    monkeypatch.setattr(RayComplex, "_seeds", counted)
    assert project(X.point("alpha", 2), ray, 300).distance == 0
    stops = sum(len(leg[-1]) for leg in ray._stops)
    assert len(ray.legs) == 3 and stops > 6 and len(seeded) == 1 + stops
    seeded.clear()
    assert project(X.point("beta", Fraction(7, 2)), ray, 300).distance > 0
    assert seeded == [("beta", 7, 2)]


def _hair_start(ray):
    """Where a ray runs onto its hair, from the ``Fraction`` marks: its last
    leg's offset plus how far that leg starts before its edge's last mark;
    None unless the last leg is unbounded on a ray edge."""
    leg, space = ray.legs[-1], ray.space
    if leg.end is not None or space.edges[leg.edge_id].kind != RAY:
        return None
    return ray.leg_offsets[-1] + max(0, marks_on(space, leg.edge_id)[-1] - leg.start)


def test_settles_at_matches_the_fraction_marks():
    # the later hair start of two rays on hairs of different edges, else None
    groups = [
        [ray for bp in bl.get_space(spec).boundary.values() for ray in bp.representatives()]
        for spec in ("X:8", "Y:8", "X:16")
    ]
    groups += [_off_mark_rays(rc) for rc, _, _ in _rational_complexes()]
    settled = 0
    for rays in groups:
        for a in rays:
            for b in rays:
                want = None
                starts = (_hair_start(a), _hair_start(b))
                if None not in starts and a.legs[-1].edge_id != b.legs[-1].edge_id:
                    want = max(starts)
                got = boundary._settles_at(a, b)
                assert got == want and type(got) is type(want), (a.label, b.label)
                settled += got is not None
    assert settled > 1000


def test_legs_that_do_not_meet_are_refused_on_first_use(zoo_x8):
    # alpha runs to 1 and g3 starts at its own origin, 10 away: the plan's
    # junction check refuses the ray wherever it is first used, with the
    # same message as an annulus ray's
    X, g3 = zoo_x8.space, zoo_x8.boundary["g3"]
    o = X.basepoint
    uses = [
        lambda bad: bad.eval(0),
        lambda bad: ray_distance(o, bad),
        lambda bad: project(X.point("alpha", 2), bad, 300),
        lambda bad: boundary_gromov_product(bad, g3, max_horizon=64),
        lambda bad: boundary_gromov_product(g3, bad, max_horizon=64),
        lambda bad: contraction_profile(bad, X, lambda rng: (o, o), 1, 300),
    ]
    for use in uses:
        bad = UnitSpeedRay(X, "bad", (EdgeLeg("alpha", 0, 1), EdgeLeg("g3", 0, None)))
        with pytest.raises(bl.DomainError, match="^the legs of 'bad' do not meet at 1$"):
            use(bad)


def test_legs_meet_at_one_vertex_or_one_point_off_the_marks(zoo_x8):
    # the zoo's three-leg rays meet through gluings, the off-mark rays at a
    # point of one edge; a jump along one edge, or to the same place on a
    # parallel edge (whose seeds are the same), is refused
    three_legs = [ray for bp in zoo_x8.boundary.values()
                  for ray in bp.representatives() if len(ray.legs) == 3]
    off_mark = [ray for rc, _, _ in _rational_complexes() for ray in _off_mark_rays(rc)]
    assert len(three_legs) > 10 and any(len(ray.legs) == 2 for ray in off_mark)
    for ray in three_legs + off_mark:
        assert ray._edge_plan is not None
    X = zoo_x8.space
    parallel = RayComplex(
        [Edge("r", RAY, None), Edge("s1", SEGMENT, 2), Edge("s2", SEGMENT, 2)],
        [(("r", 0), ("s1", 0), ("s2", 0)), (("s1", 2), ("s2", 2))],
        ("r", 0),
    )
    jumps = [
        (X, (EdgeLeg("alpha", 0, 1), EdgeLeg("alpha", 2, None)), "1"),
        (X, (EdgeLeg("alpha", 0, 3), EdgeLeg("ca3", 0, 8), EdgeLeg("g3", 0, None)), "3"),
        (parallel, (EdgeLeg("s1", 0, 1), EdgeLeg("s2", 1, 2)), "1"),
    ]
    for space, legs, at in jumps:
        with pytest.raises(bl.DomainError, match=f"^the legs of 'jump' do not meet at {at}$"):
            UnitSpeedRay(space, "jump", legs).eval(0)


def test_projection_from_a_segment_onto_rays_through_its_gluing():
    # s runs from b:2 to a:0, so s:1 reaches b through s:0 = b:2; the second
    # ray starts off the marks, inside s, and turns onto b at s:0
    rc = RayComplex(
        [Edge("a", RAY, None), Edge("b", RAY, None), Edge("s", SEGMENT, Fraction(3))],
        [(("s", Fraction(0)), ("b", Fraction(2))), (("s", Fraction(3)), ("a", Fraction(0)))],
        ("a", Fraction(0)),
    )
    legs = (EdgeLeg("s", Fraction(1, 2), Fraction(0)), EdgeLeg("b", Fraction(2), None))
    assert ray_distance(rc.point("s", 1), rc.edge_ray("b")) == (1, [2])
    assert ray_distance(rc.point("s", 1), UnitSpeedRay(rc, "s-b", legs)) == (
        Fraction(1, 2), [0])


OFF_THE_COMPLEX = {
    "undeclared-edge": (EdgeLeg("nope", Fraction(0), None),),
    "past-a-segment-end": (
        EdgeLeg("ca1", Fraction(0), Fraction(50)), EdgeLeg("g1", Fraction(0), None)),
    "unbounded-on-a-segment": (EdgeLeg("ca1", Fraction(0), None),),
    "before-an-edge-origin": (
        EdgeLeg("alpha", Fraction(-1), Fraction(2)), EdgeLeg("alpha", 2, None)),
}


@pytest.mark.parametrize("legs", OFF_THE_COMPLEX.values(), ids=OFF_THE_COMPLEX)
def test_rays_off_their_complex_are_rejected_on_first_use(zoo_x8, legs):
    # on X:8, where ca1 is a segment of length 2: these gave a bare KeyError,
    # or points off the complex and a wrong distance
    X = zoo_x8.space
    for use in (
        lambda ray: ray.eval(1),
        lambda ray: ray.edge_location(40),
        lambda ray: ray_distance(X.point("alpha", 1), ray),
        lambda ray: bl.t_first_escape(X.edge_ray("alpha"), ray, 1.0, 10.0),
        lambda ray: bl.t_first_escape(ray, X.edge_ray("beta"), 1.0, 10.0),
    ):
        with pytest.raises(bl.DomainError, match="unknown edge|outside edge"):
            use(UnitSpeedRay(X, "bad", legs))


@pytest.mark.parametrize("spec, legs", [
    ("X:8", (BoundaryArcLeg(0.0, 1, None),)),
    ("X:8", (AttachedLeg("g1"),)),
    ("Xcat0:4", (EdgeLeg("alpha", Fraction(0), None),)),
], ids=["arc-on-X:8", "attached-on-X:8", "edge-on-Xcat0:4"])
def test_rays_of_the_wrong_kind_for_their_space_are_rejected(spec, legs):
    with pytest.raises(bl.DomainError, match="edge legs run on ray complexes"):
        UnitSpeedRay(bl.get_space(spec).space, "bad", legs)


def test_a_ray_without_legs_is_rejected(zoo_x8):
    with pytest.raises(bl.DomainError):
        UnitSpeedRay(zoo_x8.space, "empty", ())


@pytest.mark.parametrize("edge, offset, message", [
    ("ca3", 100, "offset 100 outside edge ca3"),
    ("ca3", Fraction(81, 10), "offset 81/10 outside edge ca3"),
    ("zzz", 1, "unknown edge zzz"),
], ids=["far-past-a-segment-end", "just-past-a-segment-end", "undeclared-edge"])
def test_raw_points_off_their_complex_are_rejected(edge, offset, message):
    # points built without RayComplex.point; on X:4, ca3 is a segment of
    # length 8.  These answered distance(p, o) = 95 and ray_distance(p,
    # alpha) = (92, [3]), or raised a bare KeyError
    z = bl.build_X(4)
    X, alpha, o = z.space, z.boundary["alpha"].canonical, z.space.basepoint
    p = bl.RayComplexPoint(X.space_id, edge, offset)
    for use in (
        lambda: X.distance(p, o),
        lambda: X.distance(o, p),
        lambda: ray_distance(p, alpha),
        lambda: project(p, alpha, 100),
        lambda: gromov_product(o, o, p, X),
    ):
        with pytest.raises(bl.DomainError, match=message):
            use()
    # the ends of the segment and raw offsets (ints too) inside it are points
    for off in (0, 8, Fraction(79, 10), Fraction(8)):
        raw = bl.RayComplexPoint(X.space_id, "ca3", off)
        assert X.distance(raw, o) == X.distance(X.point("ca3", off), o)
        assert ray_distance(raw, alpha) == ray_distance(X.point("ca3", off), alpha)


class _Recorded(RayComplex):
    """A RayComplex that keeps its constructor arguments."""

    def __init__(self, edges, gluings, basepoint, **kw):
        self.inputs = (list(edges), list(gluings), basepoint)
        super().__init__(*self.inputs, **kw)


def _denominator_complexes():
    """Seeded connected complexes whose segment lengths, gluing parameters
    and basepoint have denominators among 2, 3, 5 and 7, with multiway
    gluings and cycles; in the last ones only the basepoint is not an
    integer."""
    rng = random.Random(23)
    for dens in [(2,), (3,), (5,), (7,), (2, 3, 5, 7)] * 4:
        def q():
            return Fraction(rng.randint(1, 40), rng.choice(dens))

        def location():
            e = rng.choice(edges)
            return e.edge_id, q() if e.length is None else min(q(), e.length)

        edges = [Edge("e0", RAY, None)]
        gluings = []
        for k in range(1, rng.randint(3, 8)):
            if rng.random() < 0.6:
                edge = Edge(f"e{k}", SEGMENT, q())
            else:
                edge = Edge(f"e{k}", RAY, None)
            glue = [(edge.edge_id, Fraction(0)), location()]
            if rng.random() < 0.3:
                glue.append(location())
            gluings.append(tuple(glue))
            edges.append(edge)
            if edge.length is not None and rng.random() < 0.4:
                gluings.append(((edge.edge_id, edge.length), location()))
        yield edges, gluings, location()
    for top in (3, 8):
        edges = [Edge("e0", RAY, None), Edge("e1", SEGMENT, Fraction(top))]
        yield edges, [(("e1", 0), ("e0", 2))], ("e1", Fraction(1, 7))


def test_integer_build_matches_fraction_build(monkeypatch):
    # the engine builds on integer marks and makes its Fraction views on
    # first read; vertex classes, marks, scale, lints and the canonical form
    # must be those of the Fraction-keyed reference
    for module in (spacezoo, dsl, sys.modules[__name__]):
        monkeypatch.setattr(module, "RayComplex", _Recorded)
    shipped = Path(bl.__file__).parent / "spaces"
    complexes = [bl.build_X(n).space for n in range(1, 30)]
    complexes += [bl.build_Y(n).space for n in range(3, 30)]
    complexes += [dsl.load_space(shipped / name) for name in ("X.space", "Y.space")]
    complexes += [rc for rc, _, _ in _rational_complexes()]
    complexes += [_Recorded(*inputs) for inputs in _denominator_complexes()]
    assert len(complexes) == 29 + 27 + 2 + 25 + 22
    scales = set()
    for rc in complexes:
        classes, marks, scale, canonical, lints = fraction_vertex_graph(*rc.inputs)
        assert rc.describe() == canonical
        digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
        assert rc.space_id == "rc:" + digest
        assert rc.lints == lints
        assert rc._scale == scale
        assert vertex_locs(rc) == classes
        assert all(type(par) is Fraction for locs in vertex_locs(rc) for _, par in locs)
        for eid in rc.edges:
            assert marks_on(rc, eid) == marks[eid]
            assert all(type(m) is Fraction for m in marks_on(rc, eid))
        scales.add(scale)
    assert all(any(s % d == 0 for s in scales) for d in (2, 3, 5, 7))
    assert 7 in scales  # a basepoint alone sets the scale


def test_build_errors_match_the_fraction_reference():
    a, b = Edge("a", RAY, None), Edge("b", RAY, None)
    s = Edge("s", SEGMENT, Fraction(2))
    cases = [
        (([a, b, Edge("a", RAY, None)], [], ("a", 0)), "duplicate edge id a"),
        (([], [], ("a", 0)), "a complex needs at least one edge"),
        (([a, s], [(("a", 1), ("zz", 0))], ("a", 0)), "location on undeclared edge zz"),
        (([a, s], [(("a", 1), ("s", "5/2"))], ("a", 0)),
         "parameter 5/2 outside edge s"),
        (([a, s], [(("a", Fraction(-1, 3)), ("s", 0))], ("a", 0)),
         "parameter -1/3 outside edge a"),
        (([a, s], [(("a", 1), ("s", 0))], ("s", 3)), "parameter 3 outside edge s"),
        (([a, s], [(("a", 1), ("s", 0))], ("t", 0)), "location on undeclared edge t"),
        (([a, s], [(("a", 1),)], ("a", 0)),
         "a gluing must identify at least two locations"),
        (([a, b], [], ("a", 0)), "complex is not connected"),
        (([a, b, s], [(("a", 0), ("s", 0)), (("b", 1),)], ("a", 0)),
         "a gluing must identify at least two locations"),
    ]
    for inputs, message in cases:
        for build in (RayComplex, fraction_vertex_graph):
            with pytest.raises(bl.BuildError) as err:
                build(*inputs)
            assert str(err.value) == message


def test_edge_build_errors():
    # an Edge is checked where its complex is built, once per edge
    a = Edge("a", RAY, None)
    cases = [
        (Edge("l", "loop", None), "unknown edge kind 'loop'"),
        (Edge("l", "loop", 2), "unknown edge kind 'loop'"),
        (Edge("s", SEGMENT, None), "segment s needs a positive length, got None"),
        (Edge("s", SEGMENT, 0), "segment s needs a positive length, got 0"),
        (Edge("s", SEGMENT, Fraction(-1, 2)), "segment s needs a positive length, got -1/2"),
        (Edge("r", RAY, 3), "ray r cannot carry a finite length"),
        (Edge("r", RAY, Fraction(1, 3)), "ray r cannot carry a finite length"),
    ]
    for edge, message in cases:
        with pytest.raises(bl.BuildError) as err:
            RayComplex([a, edge], [(("a", 0), (edge.edge_id, 0))], ("a", 0))
        assert str(err.value) == message


def test_int_and_fraction_lengths_build_the_same_complex():
    for n in (1, 5, 9):
        z = bl.build_X(n).space
        edges = [Edge(eid, kind, None if length is None else Fraction(length))
                 for eid, kind, length in z.edges.values()]
        assert any(type(e.length) is int for e in z.edges.values())
        glue = [members for members in vertex_locs(z) if len(members) > 1]
        rc = RayComplex(edges, glue, z._basepoint_loc)
        assert rc.describe() == z.describe() and rc.space_id == z.space_id


def _maybe_disconnected_complexes():
    """Seeded complexes of 2-6 edges in which an edge may be left unglued or
    glued only to edges that are, so that segment and ray islands occur,
    with the basepoint on any edge; then a segment island and an unglued
    ray, named."""
    rng = random.Random(31)
    for _ in range(80):
        edges = [Edge("e0", RAY, None)]
        gluings = []

        def location(es):
            e = rng.choice(es)
            top = e.length if e.length is not None else Fraction(6)
            return e.edge_id, top * Fraction(rng.randint(0, 6), 6)

        for k in range(1, rng.randint(2, 6)):
            if rng.random() < 0.6:
                edge = Edge(f"e{k}", SEGMENT, Fraction(rng.randint(1, 9), rng.choice([1, 3])))
            else:
                edge = Edge(f"e{k}", RAY, None)
            if rng.random() < 0.7:
                gluings.append(((edge.edge_id, 0), location(edges)))
            edges.append(edge)
            if edge.length is not None and rng.random() < 0.3:
                gluings.append(((edge.edge_id, edge.length), location(edges)))
        yield edges, gluings, location(edges)
    a, b = Edge("a", RAY, None), Edge("b", RAY, None)
    s, t = Edge("s", SEGMENT, Fraction(2)), Edge("t", SEGMENT, 3)
    yield [a, b, s, t], [(("a", 0), ("b", 0)), (("s", 2), ("t", 0))], ("a", 1)
    yield [a, s, b], [(("a", 0), ("s", 0))], ("s", 1)


def test_connectivity_verdict_matches_the_reference():
    # the build's union-find over the vertices it joins along each edge
    # gives the verdict of the reference's walk from the basepoint
    verdicts = []
    for edges, gluings, base in _maybe_disconnected_complexes():
        try:
            fraction_vertex_graph(edges, gluings, base)
            want = None
        except bl.BuildError as err:
            want = str(err)
        try:
            RayComplex(edges, gluings, base)
            got = None
        except bl.DisconnectedError as err:
            got = str(err)
        assert got == want
        verdicts.append(got)
    assert verdicts[-2:] == ["complex is not connected"] * 2
    assert 10 <= verdicts.count(None) <= len(verdicts) - 10


def test_a_build_runs_no_dijkstra(monkeypatch):
    runs = []
    original = RayComplex.vertex_distances

    def counted(self, source):
        runs.append(source)
        return original(self, source)

    monkeypatch.setattr(RayComplex, "vertex_distances", counted)
    spaces = [bl.build_X(16).space, bl.build_Y(16).space]
    x_space = Path(bl.__file__).parent / "spaces" / "X.space"
    spaces.append(dsl.compile_space(dsl.parse_space(x_space.read_text())))
    assert [len(rc.edges) for rc in spaces] == [50, 44, 50]
    assert runs == []
    assert all(row is None for rc in spaces for row in rc._rows)


def test_integer_window_min_matches_gromov_products():
    # the window minimum is formed from integer doubled products over one
    # common denominator; it must be the least gromov_product of the window,
    # exactly, also for windows (S = 1: params 1, 3/2, 2) off the integers
    denominators = set()
    for rc, pts, _ in _rational_complexes():
        rays = [rc.edge_ray(eid) for eid, e in rc.edges.items() if e.kind == RAY]
        finest = max(pts, key=lambda p: p.offset.denominator)
        for o in (rc.basepoint, finest):
            for S in (Fraction(1), Fraction(7, 5), Fraction(4)):
                params = [S, S + S / 2, 2 * S]
                for a, b in itertools.product(rays, repeat=2):
                    got = boundary._window_min(rc, a, b, params, o)
                    want = min(
                        gromov_product(a.eval(s), b.eval(t), o, rc)
                        for s in params
                        for t in params
                    )
                    assert isinstance(got, Fraction) and got == want
                    denominators.add(got.denominator)
    assert max(denominators) > 2


def test_products_compute_each_vertex_row_once(monkeypatch):
    z = bl.build_X(16)
    runs = []
    original = RayComplex.vertex_distances

    def counted(self, source):
        runs.append(source)
        return original(self, source)

    monkeypatch.setattr(RayComplex, "vertex_distances", counted)
    mh, mnh = z.product_horizon, z.product_min_horizon
    pairs = [(side, f"g{i}") for i in range(1, 17) for side in ("alpha", "beta")]
    for eta, zeta in pairs + [("alpha", "beta")]:
        est = boundary_gromov_product(
            z.boundary[eta], z.boundary[zeta], max_horizon=mh, min_horizon=mnh
        )
        assert est.converged and est.value == (0.0 if zeta == "beta" else float(zeta[1:]))
    assert len(vertex_locs(z.space)) == 49
    assert 1 <= len(runs) <= 49
    assert len(set(runs)) == len(runs)


def test_geodesic_witness_routes_from_edge_interiors(zoo_x16):
    X, Y = zoo_x16.space, bl.build_Y(8).space
    cases = [
        (X, ("ca3", 1), ("beta", 5), 11, [("ca3", 0), ("beta", 3)]),
        (X, ("alpha", Fraction(7, 2)), ("g5", 2), Fraction(71, 2),
         [("alpha", 5), ("g5", 0)]),
        (X, ("g4", 3), ("g6", Fraction(1, 2)), Fraction(171, 2),
         [("g4", 0), ("alpha", 4), ("alpha", 6), ("g6", 0)]),
        (Y, ("ca5", Fraction(5, 2)), ("beta", 1), Fraction(57, 2),
         [("g5", 0), ("beta", 5)]),
        (X, ("cb2", 1), ("ca2", 3), 4, [("g2", 0)]),
    ]
    for S, a, b, dist, via in cases:
        p, q = S.point(*a), S.point(*b)
        assert S.distance(p, q) == dist == S.distance(q, p)
        route = [p] + [S.point(*loc) for loc in via] + [q]
        assert _route_length(S, route) == dist


def test_geodesic_zero_length(zoo_x8):
    X = zoo_x8.space
    assert X.distance(X.point("alpha", 2), X.point("alpha", 2)) == 0


def test_geodesic_through_basepoint(zoo_x16):
    X = zoo_x16.space
    p, q = X.point("alpha", 5), X.point("beta", 5)
    assert X.distance(p, q) == 10
    assert _route_length(X, [p, X.basepoint, q]) == 10


def test_edge_rays_unit_speed(zoo_x8):
    X = zoo_x8.space
    gamma = X.edge_ray("g3")
    assert gamma.eval(Fraction(5)) == X.point("g3", 5)
    for s, t in [(0, 7), (2, 11), (Fraction(1, 2), Fraction(9, 2))]:
        assert X.distance(gamma.eval(s), gamma.eval(t)) == t - s
    # distance from the basepoint grows with the connector offset
    assert X.distance(X.basepoint, gamma.eval(Fraction(4))) == 3 + 8 + 4


def test_composite_reps_unit_speed(zoo_x16, zoo_y16):
    for zoo in (zoo_x16, zoo_y16):
        X = zoo.space
        for label in ("g3", "g9"):
            rep = zoo.boundary[label].canonical
            params = [Fraction(0), Fraction(2), Fraction(7, 2), Fraction(600)]
            for i, s in enumerate(params):
                assert X.distance(X.basepoint, rep.eval(s)) == s
                for t in params[i + 1:]:
                    assert X.distance(rep.eval(s), rep.eval(t)) == t - s


def test_edge_ray_is_one_ray_per_label(zoo_x8):
    X = zoo_x8.space
    alpha = X.edge_ray("alpha")
    assert X.edge_ray("alpha") is alpha is zoo_x8.boundary["alpha"].canonical
    # a target named twice is one target: one interval, not one per call
    res = project(X.point("g1", 0), [X.edge_ray("alpha"), X.edge_ray("alpha")], 10)
    assert res.intervals == ((alpha, 1, 1),)


def test_a_dropped_complex_is_freed_without_the_cycle_collector():
    # edge rays refer to their complex, so the complex holds them weakly
    gc.disable()
    try:
        zoo = bl.build_X(4)
        ref = weakref.ref(zoo.space)
        zoo.space.edge_ray("g2")
        del zoo
        assert ref() is None
    finally:
        gc.enable()


def test_edge_ray_rejects_segments(zoo_x8):
    X = zoo_x8.space
    with pytest.raises(bl.DomainError):
        X.edge_ray("ca3")
    with pytest.raises(bl.DomainError):
        X.edge_ray("nope")


def test_cross_space_rejected(zoo_x8, zoo_x16):
    with pytest.raises(bl.DomainError):
        zoo_x8.space.distance(zoo_x8.space.basepoint, zoo_x16.space.basepoint)


def test_disconnected_complex_rejected():
    with pytest.raises(bl.DisconnectedError, match="complex is not connected"):
        RayComplex(
            [Edge("a", RAY, None), Edge("b", RAY, None)],
            [],
            ("a", Fraction(0)),
        )


def test_free_endpoint_lint():
    rc = RayComplex(
        [Edge("a", RAY, None), Edge("s", SEGMENT, Fraction(2))],
        [(("a", Fraction(1)), ("s", Fraction(0)))],
        ("a", Fraction(0)),
    )
    assert any("free segment endpoint" in note for note in rc.lints)


def test_vertex_graph_symmetry(zoo_x8):
    X = zoo_x8.space
    rng = random.Random(5)
    classes = vertex_locs(X)
    n = len(classes)
    for _ in range(30):
        u, v = rng.randrange(n), rng.randrange(n)
        pu, pv = X.point(*classes[u][0]), X.point(*classes[v][0])
        assert X.distance(pu, pv) == X.distance(pv, pu)
        assert (X.distance(pu, pv) == 0) == (u == v)


def test_describe_is_stable_under_declaration_order():
    edges = [Edge("a", RAY, None), Edge("b", RAY, None), Edge("s", SEGMENT, Fraction(4))]
    glue = [
        (("a", Fraction(0)), ("b", Fraction(0))),
        (("s", Fraction(0)), ("a", Fraction(1))),
        (("s", Fraction(4)), ("b", Fraction(1))),
    ]
    rc1 = RayComplex(edges, glue, ("a", Fraction(0)))
    rc2 = RayComplex(list(reversed(edges)), list(reversed(glue)), ("b", Fraction(0)))
    assert rc1.describe() == rc2.describe()
    assert rc1.space_id == rc2.space_id


def test_multiway_gluing():
    # a single gluing may identify more than two locations
    rc = RayComplex(
        [Edge("a", RAY, None), Edge("b", RAY, None), Edge("c", RAY, None)],
        [(("a", Fraction(0)), ("b", Fraction(0)), ("c", Fraction(0)))],
        ("a", Fraction(0)),
    )
    assert rc.distance(rc.point("b", 2), rc.point("c", 3)) == 5
    assert rc.distance(rc.point("a", 0), rc.point("c", 0)) == 0
