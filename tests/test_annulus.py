import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import boundary_lab as bl
from boundary_lab import mesh_oracle, rays
from boundary_lab.annulus import (
    AnnulusSpace,
    AttachedLeg,
    BoundaryArcLeg,
    ChordLeg,
    SpiralMap,
    ann_distance_arrays,
    ann_distance_coords,
    ann_distance_terms,
    chord_length,
    chord_valid,
    develop_pair,
    kernel_terms,
    spiral_coords,
)
from boundary_lab.contraction import far_segment_suite, ray_distance
from boundary_lab.mesh_oracle import mesh_oracle_distance
from boundary_lab.rays import UnitSpeedRay
from oracles import (
    marks_on,
    reference_develop_pair,
    reference_locate,
    reference_mesh_oracle,
)


# frozen closed-form values, cross-checked against the mesh oracle
ARC_5 = 5.0
RADIAL_3 = 2.0
TWO_TWO_FIVE = 2.0 * math.sqrt(3.0) + 5.0 - 2.0 * math.acos(0.5)  # 6.3697065...
O_TO_G3_BASE = math.sqrt(63.0) + 3.0 - math.acos(1.0 / 8.0)  # 9.4917854...


def test_kernel_examples():
    S = AnnulusSpace()
    assert S.distance(S.pt(0, 1), S.pt(5, 1)) == pytest.approx(ARC_5, abs=1e-12)
    assert S.distance(S.pt(0, 1), S.pt(0, 3)) == pytest.approx(RADIAL_3, abs=1e-12)
    assert S.distance(S.pt(0, 2), S.pt(5, 2)) == pytest.approx(TWO_TWO_FIVE, abs=1e-12)


def test_kernel_rejects_inner_radius():
    with pytest.raises(bl.DomainError):
        ann_distance_coords(0.0, 0.5, 1.0, 2.0)


def test_kernel_terms_equal_the_clamped_form_bit_for_bit():
    # for r >= 1 the rounded 1/r is <= 1 and the rounded r*r >= 1, so the
    # clamps min(1, 1/r) and max(r*r - 1, 0) that kernel_terms leaves out
    # are exact no-ops
    rng = random.Random(8)
    radii = [1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-12, mesh_oracle.MAX_RADIUS]
    radii += [2.0 ** k for k in range(61)]
    top = math.log(mesh_oracle.MAX_RADIUS)
    radii += [math.exp(rng.uniform(0.0, top)) for _ in range(5000)]
    for r in radii:
        t = rng.uniform(-20.0, 20.0)
        want = (t, r, math.acos(min(1.0, 1.0 / r)), math.sqrt(max(r * r - 1.0, 0.0)))
        assert [v.hex() for v in kernel_terms(t, r)] == [v.hex() for v in want]


def test_prepared_kernel_matches_kernel_bit_for_bit():
    rng = random.Random(4)

    def radius():
        return 1.0 if rng.random() < 0.2 else math.exp(rng.uniform(0.0, math.log(1e4)))

    cases = []
    for _ in range(3000):
        t1, r1, r2 = rng.uniform(-20.0, 20.0), radius(), radius()
        t2 = t1 if rng.random() < 0.1 else t1 + rng.uniform(-8.0, 8.0)
        cases.append((t1, r1, t2, r2))
        # delta exactly at phi1 + phi2, where the two branches meet
        delta = math.acos(min(1.0, 1.0 / r1)) + math.acos(min(1.0, 1.0 / r2))
        cases.append((0.0, r1, delta, r2))
        cases.append((-0.0, r1, -delta, r2))
    cases += [(0.0, 1.0, 0.0, 1.0), (3.0, 1.0, 3.0, 7.0), (0.0, 1.0, math.pi, 1.0)]
    for t1, r1, t2, r2 in cases:
        want = ann_distance_coords(t1, r1, t2, r2)
        got = ann_distance_terms(kernel_terms(t1, r1), kernel_terms(t2, r2))
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    # the space's distance reads seeded points: against the reference on
    # raw coordinates, the wedge lengths plus ann_distance_coords, or the
    # difference of arc lengths along one attached ray
    def reference(A, p, q):
        if isinstance(p, bl.AttachedRayPoint) and isinstance(q, bl.AttachedRayPoint):
            if p.ray_id == q.ray_id:
                return abs(p.s - q.s)
        (cp, sp), (cq, sq) = (
            ((x.t, x.r), 0.0) if isinstance(x, bl.AnnulusPoint)
            else (A.attached[x.ray_id], x.s)
            for x in (p, q)
        )
        return sp + sq + ann_distance_coords(*cp, *cq)

    for spec in ("Xcat0:8", "Ycat0:8"):
        A = bl.get_space(spec).space
        rids = sorted(A.attached)

        def point():
            if rng.random() < 0.5:
                return A.pt(rng.uniform(-20.0, 20.0), radius())
            return A.ray_pt(rng.choice(rids), rng.choice([0.0, rng.uniform(0.0, 50.0)]))

        pairs = [(point(), point()) for _ in range(1500)]
        pairs += [(A.ray_pt(rid, rng.uniform(0.0, 50.0)), A.ray_pt(rid, s))
                  for rid in rids for s in (0.0, rng.uniform(0.0, 50.0))]
        pairs += [(A.ray_pt(rid, 0.0), A.pt(*A.attached[rid])) for rid in rids]
        pairs += [(A.basepoint, point()) for _ in range(100)]
        kinds = {(type(p), type(q), getattr(p, "ray_id", 0) == getattr(q, "ray_id", 1))
                 for p, q in pairs}
        assert len(kinds) == 5  # annulus, mixed both ways, attached on two rays, on one
        for p, q in pairs:
            want, got = reference(A, p, q), A.distance(p, q)
            assert got.hex() == want.hex(), (spec, p, q)


@pytest.mark.parametrize("legs, message", [
    ((AttachedLeg("g9"),), "unknown attached ray g9"),
    ((BoundaryArcLeg(0.0, 1, 1.0), AttachedLeg("g9")), "unknown attached ray g9"),
    ((BoundaryArcLeg(0.0, 3, None),), "direction"),
    ((BoundaryArcLeg(0.0, 0, 2.0), AttachedLeg("g1")), "direction"),
], ids=["unknown-attached", "unknown-attached-after-an-arc", "arc-at-speed-3",
        "arc-standing-still"])
def test_annulus_rays_off_their_space_are_rejected(legs, message):
    # on Xcat0:4 these built: eval(1.0) gave the point g9+1 on an attached
    # ray the space does not have, or the point at angle 3 on a "unit-speed"
    # ray
    A = bl.get_space("Xcat0:4").space
    with pytest.raises(bl.DomainError, match=message):
        UnitSpeedRay(A, "bad", legs)


@pytest.mark.parametrize("legs", [
    (BoundaryArcLeg(0.0, 1, 0.5), AttachedLeg("g3")),
    (ChordLeg((0.0, 2.0), (0.5, 2.0)), ChordLeg((0.5, 2.1), (1.0, 3.0))),
    (BoundaryArcLeg(0.0, 1, 0.5), BoundaryArcLeg(0.5 + 1e-9, 1, None)),
], ids=["arc-then-far-attached", "chord-jumps-up", "arc-gap-of-1e-9"])
def test_annulus_rays_whose_legs_do_not_meet_are_rejected(legs):
    # the first built, jumped 9.09 from (0.5, 1) to g3's base over 0.1 of
    # parameter, and put a point at angle 0.25 on the ray, at distance 0
    A = bl.get_space("Xcat0:4").space
    ray = UnitSpeedRay(A, "bad", legs)
    for use in (lambda: ray.eval(0.25), lambda: ray.locate(0.25),
                lambda: A._seed_at(ray, 0.25),
                lambda: ray_distance(A.pt(0.25, 1.0), ray, 100.0)):
        with pytest.raises(bl.DomainError, match="legs of 'bad' do not meet at"):
            use()


@pytest.mark.parametrize("legs, at", [
    ((ChordLeg((0.0, 2.0), (2.5, 2.0)),), "0"),
    ((BoundaryArcLeg(0.0, 1, 0.5), ChordLeg((0.5, 1.0), (1.0, 1.0))), "0.5"),
], ids=["through-the-disk", "arc-then-dipping-chord"])
def test_chord_legs_that_enter_the_open_disk_are_rejected(legs, at):
    # the first was accepted: eval(L/2) was clamped onto r = 1 at (1.25, 1),
    # the ray's distance to that point read 2.2e-16, and only an escape,
    # through the geodesic check, rejected the ray
    A = AnnulusSpace()
    ray = UnitSpeedRay(A, "thru", legs)
    for use in (lambda: ray.eval(0.0), lambda: ray.locate(0.0),
                lambda: A._seed_at(ray, 0.0), lambda: ray._geodesic,
                lambda: ray_distance(A.pt(1.25, 1.0), ray, 100.0)):
        with pytest.raises(bl.DomainError,
                           match=f"^the chord of 'thru' at {at} enters the open disk$"):
            use()


def test_every_zoo_chord_clears_the_open_disk():
    # the least disk-center distance of these chords is exactly 1.0
    chords = 0
    for build in (bl.build_Xcat0, bl.build_Ycat0):
        for n in (1, 2, 4, 8, 12, 16, 32, 64):
            for bp in build(n).boundary.values():
                for ray in bp.representatives():
                    chords += sum(kind is ChordLeg for kind, *_ in ray._annulus_plan)
    assert chords == 556


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("build", [bl.build_Xcat0, bl.build_Ycat0])
def test_locate_matches_the_leg_walk(build, n):
    # the same leg by identity and the same local length bit for bit, at 0,
    # at every leg end and one ulp either side, and at seeded parameters up
    # to the zoo's product horizon
    zoo = build(n)
    rng = random.Random(n)
    for bp in zoo.boundary.values():
        for ray in bp.representatives():
            params = [0.0]
            for off, leg in zip(ray.leg_offsets, ray.legs):
                if leg.length is not None:
                    end = off + leg.length
                    params += [math.nextafter(end, -math.inf), end,
                               math.nextafter(end, math.inf)]
            params += [rng.uniform(0.0, zoo.product_horizon) for _ in range(200)]
            for t in params:
                leg, s = ray.locate(t)
                want_leg, want_s = reference_locate(ray, t)
                assert leg is want_leg and float(s).hex() == float(want_s).hex(), (ray, t)


def test_a_finite_final_leg_ends_at_its_offset_plus_length():
    # as every other leg does; the leg walk tested t - offset <= length on
    # the last leg, which on the arc-then-chord ray still took the ulp after
    # 0.1 + 0.30000000000000004 = 0.4
    A = AnnulusSpace()
    finite = [
        (ChordLeg((0.0, 2.0), (0.5, 3.0)),),
        (BoundaryArcLeg(0.0, 1, 0.1), ChordLeg((0.1, 1.0), (0.1, 1.3))),
    ]
    for legs in finite:
        ray = UnitSpeedRay(A, "finite", legs)
        end = ray.leg_offsets[-1] + legs[-1].length
        t = end
        for _ in range(4):
            t = math.nextafter(t, -math.inf)
        for _ in range(9):
            if t <= end:
                leg, s = ray.locate(t)
                assert leg is legs[-1] and s == t - ray.leg_offsets[-1]
            else:
                with pytest.raises(bl.DomainError, match="beyond end of finite ray"):
                    ray.locate(t)
            t = math.nextafter(t, math.inf)
    past = math.nextafter(0.4, math.inf)
    assert reference_locate(UnitSpeedRay(A, "finite", finite[1]), past)[0] is finite[1][1]


def test_develop_pair_is_the_one_chord_development():
    # one definition in annulus, beside the chord legs, and none in rays;
    # bit for bit the copy annulus used to keep, and what a chord leg
    # develops; chord_length, the one chord length, is the hypot of it
    assert develop_pair.__module__ == ChordLeg.__module__ == "boundary_lab.annulus"
    assert not hasattr(rays, "develop_pair")
    rng = random.Random(3)
    for _ in range(2000):
        a = (rng.uniform(-50.0, 50.0), math.exp(rng.uniform(0.0, math.log(1e6))))
        b = (a[0] + rng.uniform(-3.14, 3.14), math.exp(rng.uniform(0.0, math.log(1e6))))
        ref = reference_develop_pair(a, b)
        want = [x.hex() for x in ref]
        assert [x.hex() for x in develop_pair(a, b)] == want
        assert [x.hex() for x in ChordLeg(a, b)._developed] == want
        ax, ay, bx, by = ref
        assert chord_length(a, b).hex() == math.hypot(bx - ax, by - ay).hex()


def _imports(path):
    """(module, inside a function) of every import statement in a file; a
    ``from . import x`` names x."""
    found = []

    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, in_function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                names = [child.module] if child.module else [a.name for a in child.names]
                found.extend((name, in_function) for name in names)
            walk(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    walk(ast.parse(path.read_text()), False)
    return found


def test_annulus_imports_nothing_from_rays_and_rays_imports_at_module_level():
    # the annulus legs live in annulus, so the pair has no import cycle:
    # annulus reaches rays nowhere, and rays imports everything at the top
    src = Path(bl.__file__).parent
    assert [name for name, _ in _imports(src / "annulus.py")
            if name.split(".")[-1] == "rays"] == []
    assert [name for name, inside in _imports(src / "rays.py") if inside] == []


def _seed_bits(seed):
    """A seeded annulus point with its floats as hex text: == compares bits."""
    terms, wedge, rid = seed
    return [x.hex() for x in (*terms, wedge)], rid


@pytest.mark.parametrize("spec", ["Xcat0:8", "Ycat0:8"])
def test_seeding_a_ray_point_matches_seeding_its_eval(spec):
    # _seed_at seeds from the ray's leg and makes no point: bit for bit
    # _seed(ray.eval(s)) on arc, chord and attached legs and at their
    # junctions, and through eval for a ray of another space object
    zoo = bl.get_space(spec)
    A, twin = zoo.space, getattr(bl, f"build_{spec.split(':')[0]}")(8).space
    rng = random.Random(5)
    kinds = set()
    for bp in zoo.boundary.values():
        for ray in bp.representatives():
            params = [0, Fraction(3, 2), 7]
            for off, leg in zip(ray.leg_offsets, ray.legs):
                kinds.add(type(leg))
                params += [off, math.nextafter(off, math.inf), math.nextafter(off, -1.0)]
                span = 50.0 if leg.length is None else leg.length
                params += [off + rng.uniform(0.0, span) for _ in range(20)]
            for s in params:
                if s < 0:
                    continue
                want = _seed_bits(A._seed(ray.eval(s)))
                assert _seed_bits(A._seed_at(ray, s)) == want, (ray, s)
                assert _seed_bits(twin._seed_at(ray, s)) == want, (ray, s)
    assert kinds == {BoundaryArcLeg, ChordLeg, AttachedLeg}


def test_seeding_a_ray_point_rejects_what_eval_rejects():
    zoo = bl.get_space("Xcat0:8")
    A = zoo.space
    alpha, g3 = zoo.boundary["alpha"].canonical, zoo.boundary["g3"].canonical
    arc = UnitSpeedRay(A, "arc", (BoundaryArcLeg(0.0, 1, 2.0),))
    chord = UnitSpeedRay(A, "chord", (ChordLeg((0.0, 2.0), (0.5, 3.0)),))
    other = bl.get_space("Ycat0:8").boundary["alpha"].canonical
    cases = [
        (alpha, -1.0), (g3, -1e-300), (g3, Fraction(-1, 3)),  # negative
        (arc, 2.5), (chord, 4.0), (arc, math.inf),  # past a finite ray's end
        (alpha, math.inf), (alpha, math.nan), (chord, math.nan),  # not finite
        (g3, math.inf), (g3, math.nan),  # up an attached ray
        (other, 1.0),  # a ray of another space
    ]
    for ray, s in cases:
        with pytest.raises(bl.DomainError) as want:
            A._seed(ray.eval(s))
        with pytest.raises(bl.DomainError) as got:
            A._seed_at(ray, s)
        assert str(got.value) == str(want.value), (ray, s)


def test_annulus_legs_meet_to_1e_12_relative():
    # float noise where two legs meet is not a gap, and every zoo ray meets
    A = bl.get_space("Xcat0:4").space
    arcs = (BoundaryArcLeg(0.0, 1, 0.3), BoundaryArcLeg(0.1 + 0.2, 1, None))
    assert UnitSpeedRay(A, "noisy", arcs).eval(1.0) == A.pt(1.0, 1.0)
    far = (ChordLeg((0.0, 1e6), (0.5, 1e6)), ChordLeg((0.5, 1e6 * (1 + 1e-13)), (1.0, 1e6)))
    UnitSpeedRay(A, "far", far).eval(0.0)
    for build in (bl.build_Xcat0, bl.build_Ycat0):
        for n in range(1, 21):
            for bp in build(n).boundary.values():
                for ray in bp.representatives():
                    ray.eval(0.0)


def test_annulus_only_calls_reject_other_inputs_where_they_enter():
    # each of these raised a bare AttributeError
    X, A = bl.get_space("X:4").space, bl.get_space("Xcat0:4").space
    with pytest.raises(bl.DomainError, match="the far-segment suite runs on annulus spaces"):
        far_segment_suite(X.edge_ray("alpha"), 1.0, 3, 1)
    with pytest.raises(bl.DomainError, match="the mesh oracle runs on annulus spaces"):
        mesh_oracle_distance(X.basepoint, X.point("alpha", 1))
    for p, q in ((A.pt(0.0, 2.0), A.ray_pt("g1", 1.0)), (A.ray_pt("g1", 1.0), A.basepoint)):
        with pytest.raises(bl.DomainError, match="the mesh oracle compares annulus points"):
            mesh_oracle_distance(p, q)
    Y = bl.get_space("Ycat0:4").space
    for source, target in ((X, Y), (A, X)):
        with pytest.raises(bl.DomainError, match="the shear map runs between annulus spaces"):
            SpiralMap(source, target)


def test_spiral_map_rejects_a_bad_direction_on_every_point_kind():
    # an attached-ray point used to map as if the direction were "inverse"
    A, Y = bl.get_space("Xcat0:4").space, bl.get_space("Ycat0:4").space
    m = SpiralMap(A, Y)
    for p in (Y.ray_pt("g1", 2.0), Y.pt(1.0, 2.0), A.ray_pt("g1", 2.0)):
        with pytest.raises(bl.DomainError, match="direction must be forward or inverse"):
            m.map_point(p, "sideways")


def test_each_ray_evaluator_rejects_the_other_ray_kind():
    # edge_location raised a bare TypeError on an annulus ray, locate a bare
    # AttributeError on an edge ray
    xcat, x = bl.get_space("Xcat0:4"), bl.get_space("X:4")
    for ray in (xcat.boundary["alpha"].canonical, xcat.boundary["g2"].canonical):
        with pytest.raises(bl.DomainError, match=f"^edge_location takes an edge ray; "
                                                 f"'{ray.label}' is not one$"):
            ray.edge_location(1)
    for ray in (x.space.edge_ray("alpha"), x.boundary["g2"].canonical):
        with pytest.raises(bl.DomainError, match=f"^locate takes an annulus ray; "
                                                 f"'{ray.label}' is not one$"):
            ray.locate(1)


@pytest.mark.parametrize("base", [(math.nan, 2.0), (math.inf, 2.0), (0.0, math.inf),
                                  (0.0, math.nan), (0.0, 0.5)])
def test_attached_bases_must_be_finite_with_r_at_least_one(base):
    # a NaN t or an infinite r used to be accepted
    with pytest.raises(bl.DomainError):
        AnnulusSpace({"g1": base})


@pytest.mark.parametrize("a,b", [((0.0, 0.5), (1.0, 2.0)), ((0.0, 2.0), (1.0, 0.9)),
                                 ((math.nan, 2.0), (1.0, 2.0)),
                                 ((0.0, 2.0), (1.0, math.inf)),
                                 ((0.0, math.nan), (1.0, 2.0)),
                                 ((-math.inf, 2.0), (1.0, 2.0))])
def test_chord_endpoints_must_be_finite_with_r_at_least_one(a, b):
    # ChordLeg((0, 0.5), (1, 2)) used to be accepted
    with pytest.raises(bl.DomainError):
        ChordLeg(a, b)


def test_attached_ray_distances(zoo_xcat8, zoo_ycat14):
    A = zoo_xcat8.space
    o = A.basepoint
    assert A.distance(o, A.ray_pt("g3", 0)) == pytest.approx(O_TO_G3_BASE, abs=1e-12)
    Y = zoo_ycat14.space
    assert Y.distance(Y.basepoint, Y.ray_pt("g3", 0)) == pytest.approx(7.0, abs=1e-12)
    assert Y.distance(Y.ray_pt("g2", 0), Y.ray_pt("g3", 0)) == pytest.approx(4.0, abs=1e-12)
    # wedge decomposition through the bases
    d = Y.distance(Y.ray_pt("g2", 1.5), Y.ray_pt("g3", 2.5))
    assert d == pytest.approx(1.5 + 4.0 + 2.5, abs=1e-12)
    with pytest.raises(bl.DomainError):
        A.ray_pt("g99", 1.0)


def test_case_boundary_continuity():
    rng = random.Random(1)
    for _ in range(200):
        rp = math.exp(rng.uniform(0, math.log(50)))
        rq = math.exp(rng.uniform(0, math.log(50)))
        rp, rq = max(1.0, rp), max(1.0, rq)
        delta = math.acos(1.0 / rp) + math.acos(1.0 / rq)
        tangent = math.sqrt(rp * rp - 1) + math.sqrt(rq * rq - 1)
        chord = math.sqrt(rp * rp + rq * rq - 2 * rp * rq * math.cos(delta))
        assert abs(tangent - chord) <= 1e-9


def test_vectorized_kernel_matches_scalar():
    rng = np.random.default_rng(0)
    t1, t2 = rng.uniform(-30, 30, 64), rng.uniform(-30, 30, 64)
    r1 = np.maximum(1.0, np.exp(rng.uniform(0, 4, 64)))
    r2 = np.maximum(1.0, np.exp(rng.uniform(0, 4, 64)))
    vec = ann_distance_arrays(t1, r1, t2, r2)
    for k in range(64):
        assert vec[k] == pytest.approx(
            ann_distance_coords(t1[k], r1[k], t2[k], r2[k]), abs=1e-12
        )


def test_kernel_accurate_at_small_distances():
    # the chord branch has no cancellation: its old form
    # sqrt(r1^2 + r2^2 - 2 r1 r2 cos(delta)) lost all digits of a distance
    # below about 1e-8 r (5e-6 at r = 256)
    for r in (2.0, 16.0, 256.0, 4096.0):
        for eps in (1e-9, 1e-7, 1e-5):
            t2, r2 = 3.0 + eps / r, r + eps
            angular = 2.0 * r * math.sin(0.5 * (t2 - 3.0))
            for kernel in (ann_distance_coords, ann_distance_arrays):
                assert kernel(3.0, r, t2, r) == pytest.approx(angular, rel=1e-12)
                assert kernel(3.0, r, 3.0, r2) == r2 - r


def test_mesh_oracle_examples():
    S = AnnulusSpace()
    p = S.pt(0.3, 2.2)
    assert mesh_oracle_distance(p, p, h=0.01) == 0.0
    d1 = mesh_oracle_distance(S.pt(0, 1), S.pt(math.pi, 1), h=0.01)
    assert abs(d1 - math.pi) / math.pi <= 0.02
    d2 = mesh_oracle_distance(S.pt(0, 2), S.pt(5, 2), h=0.01)
    assert abs(d2 - TWO_TWO_FIVE) / TWO_TWO_FIVE <= 0.02


def test_mesh_oracle_overestimates():
    S = AnnulusSpace()
    rng = np.random.default_rng(3)
    for _ in range(20):
        ta, tb = rng.uniform(-15, 15, 2)
        ra, rb = np.maximum(1.0, np.exp(rng.uniform(0, math.log(40), 2)))
        p, q = S.pt(ta, ra), S.pt(tb, rb)
        exact = S.distance(p, q)
        oracle = mesh_oracle_distance(p, q, h=0.02)
        assert oracle >= exact - 1e-9
        if exact > 0.5:
            assert (oracle - exact) / exact <= 0.02


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_mesh_oracle_rejects_bad_step(h):
    # h = -1 used to return an underestimate, h = 0 a ZeroDivisionError
    S = AnnulusSpace()
    with pytest.raises(bl.DomainError):
        mesh_oracle_distance(S.pt(0, 2), S.pt(5, 2), h=h)


def _oracle_cases():
    """(p, q, h): seeded pairs, then the edge cases of the sweep."""
    S = AnnulusSpace()
    rng = random.Random(9)
    cases = []
    for k in range(40):
        h = 0.01 if k % 10 == 0 else 0.05
        span = 6.0 if h == 0.01 else 16.0
        ta, tb = (rng.uniform(-span / 2, span / 2) for _ in range(2))
        ra, rb = (math.exp(rng.uniform(0.0, math.log(30.0))) for _ in range(2))
        cases.append((S.pt(ta, ra), S.pt(tb, rb), h))
    cases += [
        (S.pt(0.7, 1.5), S.pt(0.7, 6.0), 0.05),  # equal t: a zero last step
        (S.pt(0.7, 6.0), S.pt(0.7, 1.5), 0.05),
        (S.pt(-1.0, 1.0), S.pt(2.3, 1.0), 0.05),  # both on the circle
        (S.pt(3.0, 1.0), S.pt(-0.4, 1.0), 0.01),
        (S.pt(0.0, 2.0), S.pt(1.234, 3.0), 0.05),  # a squeezed last step
        (S.pt(0.0, 2.0), S.pt(1.0, 3.0), 0.05),  # a whole number of steps
        (S.pt(0.0, 2.0), S.pt(0.03, 2.5), 0.05),  # a one-step span
        (S.pt(0.0, 1.0), S.pt(0.02, 1.0), 0.05),
        (S.pt(0.0, 5.0), S.pt(2.0, 5.5), 0.05),
    ]
    return cases


def test_mesh_oracle_matches_the_plain_sweep_bit_for_bit():
    for p, q, h in _oracle_cases():
        want, want_path = reference_mesh_oracle(p, q, h=h)
        got = mesh_oracle_distance(p, q, h=h)
        assert got == want and type(got) is type(want), (p, q, h)
        a, b = ((p.t, p.r), (q.t, q.r))
        if a[0] > b[0]:
            a, b = b, a
        _, path = mesh_oracle._grid_path(a, b, h)
        assert path == want_path, (p, q, h)
        assert [type(r) for _, r in path] == [type(r) for _, r in want_path]


@pytest.mark.parametrize("h", [1e-7, 800.0, 1e9])
def test_mesh_oracle_checks_the_grid_before_allocating(monkeypatch, h):
    # 1e-7: 7e13 cells; 800 and 1e9: the top row radius overflows
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} reached before the grid check")

    S = AnnulusSpace()
    monkeypatch.setattr(mesh_oracle, "np", NoNumpy())
    limits = f"more than {mesh_oracle.MAX_CELLS} cells|MAX_RADIUS"
    with pytest.raises(bl.DomainError, match=limits):
        mesh_oracle_distance(S.pt(0, 2), S.pt(1, 2), h=h)


def test_mesh_oracle_cell_limit_is_inclusive(monkeypatch):
    S = AnnulusSpace()
    p, q = S.pt(0, 2), S.pt(1, 3)
    n_rows, n_cols = mesh_oracle._grid_shape(0.05, 3.0, 1.0)
    monkeypatch.setattr(mesh_oracle, "MAX_CELLS", n_rows * n_cols)
    assert mesh_oracle_distance(p, q, h=0.05) == pytest.approx(S.distance(p, q), rel=0.02)
    monkeypatch.setattr(mesh_oracle, "MAX_CELLS", n_rows * n_cols - 1)
    with pytest.raises(bl.DomainError, match="cells"):
        mesh_oracle_distance(p, q, h=0.05)


def test_mesh_oracle_rejects_radii_whose_squares_overflow():
    S = AnnulusSpace()
    far = 1e149
    assert mesh_oracle_distance(S.pt(0, far), S.pt(0.02, far)) > 0
    with pytest.raises(bl.DomainError, match="MAX_RADIUS"):
        mesh_oracle_distance(S.pt(0, 1e155), S.pt(0.02, 1e155))


def test_chord_validity():
    assert chord_valid((0.0, 2.0), (0.1, 3.0))
    assert not chord_valid((0.0, 1.0), (0.5, 1.0))  # boundary chord dips
    assert not chord_valid((0.0, 5.0), (4.0, 5.0))  # wide span


def test_spiral_map_examples(zoo_xcat12):
    assert spiral_coords(3.0, 8.0) == pytest.approx((0.0, 8.0))
    assert spiral_coords(2.5, 1.0) == (2.5, 1.0)
    zy = bl.build_Ycat0(12)
    m = SpiralMap(zoo_xcat12.space, zy.space)
    q = m.map_point(zoo_xcat12.space.pt(3.0, 8.0))
    assert (q.t, q.r) == pytest.approx((0.0, 8.0), abs=1e-12)
    att = m.map_point(zoo_xcat12.space.ray_pt("g4", 2.5))
    assert att.ray_id == "g4" and att.s == 2.5 and att.space_id == zy.space_id


def test_spiral_roundtrip_identity():
    rng = random.Random(4)
    for _ in range(1000):
        t = rng.uniform(-100, 100)
        r = math.exp(rng.uniform(0, 10))
        ft, fr = spiral_coords(t, max(1.0, r))
        bt, br = spiral_coords(ft, fr, "inverse")
        assert abs(bt - t) <= 1e-12 * max(1.0, abs(t)) + 1e-12
        assert br == max(1.0, r)


def test_radial_foot_projection_sweep(zoo_xcat8):
    # the closest boundary point to (theta, r) with theta >= 0 is (theta, 1)
    A = zoo_xcat8.space
    rng = random.Random(9)
    for _ in range(40):
        th = rng.uniform(0.0, 25.0)
        r = 1.0 + math.exp(rng.uniform(-2, 3))
        base = ann_distance_coords(th, r, th, 1.0)
        assert base == pytest.approx(r - 1.0, abs=1e-12)
        for ds in (-2.0, -0.5, -1e-3, 1e-3, 0.5, 2.0):
            s = th + ds
            if s < 0:
                continue
            assert ann_distance_coords(th, r, s, 1.0) >= base - 1e-12


def test_geodesic_polyline_length(zoo_xcat8):
    A = zoo_xcat8.space
    for pc, qc in [((0, 2), (5, 2)), ((-3, 4), (-2.5, 1.5)), ((0, 1), (4, 1))]:
        p, q = A.pt(*pc), A.pt(*qc)
        pts = A.geodesic_polyline(p, q, 64)
        assert pts[0] == p
        assert A.distance(pts[-1], q) < 1e-9
        length = sum(A.distance(a, b) for a, b in zip(pts, pts[1:]))
        assert length == pytest.approx(A.distance(p, q), rel=1e-3)


def _label_identity(src, dst):
    """Each shared edge of two ray complexes onto itself, affine where the
    lengths differ."""

    def f(p):
        a, b = src.edges[p.edge_id].length, dst.edges[p.edge_id].length
        return dst.point(p.edge_id, p.offset if a == b else p.offset * b / a)

    return f


def _shared_pairs(src, dst, n, seed):
    """Every pair of marks on the edges shared by src and dst, then n seeded
    pairs at dyadic offsets (k/64) on them, out to 2^18 on rays."""
    shared = sorted(set(src.edges) & set(dst.edges))
    marks = [src.point(e, m) for e in shared for m in marks_on(src, e)]
    rng = random.Random(seed)

    def one():
        eid = rng.choice(shared)
        top = src.edges[eid].length or 1 << 18
        return src.point(eid, Fraction(rng.randrange(64 * int(top) + 1), 64))

    return list(itertools.combinations(marks, 2)) + [(one(), one()) for _ in range(n)]


def test_qi_identity_is_isometry(zoo_x8, zoo_x16):
    # X:8 sits in X:16 isometrically: the branches g9..g16 join alpha:i to
    # beta:i by 2^(i+1), never less than the 2i through o
    X8, X16 = zoo_x8.space, zoo_x16.space
    f = _label_identity(X8, X16)
    for p, q in _shared_pairs(X8, X16, 500, seed=4):
        assert X16.distance(f(p), f(q)) == X8.distance(p, q), (p, q)


QI_XY_LOWER = Fraction(1, 4)  # cb3 is 2^3 - 2*3 = 2 long in Y, 8 in X


def test_qi_identity_x_to_y_finite(zoo_x16, zoo_y16):
    # Y only shortens the connectors cb_i, by (2^i - 2i) / 2^i >= 1/4, and the
    # edges X has beyond Y (g1, g2 and their connectors) shorten no path, so
    # the label identity X:16 -> Y:16 has d/4 <= d' <= d, exactly; the ratio
    # 1/4 is reached across cb3 and the ratio 1 along alpha
    X, Y = zoo_x16.space, zoo_y16.space
    f = _label_identity(X, Y)

    def ratio(p, q):
        return Y.distance(f(p), f(q)) / X.distance(p, q)

    ratios = set()
    for p, q in _shared_pairs(X, Y, 2000, seed=4):
        d, d_image = X.distance(p, q), Y.distance(f(p), f(q))
        assert QI_XY_LOWER * d <= d_image <= d, (p, q)
        if d:
            ratios.add(d_image / d)
    assert min(ratios) == QI_XY_LOWER and max(ratios) == 1
    assert ratio(X.point("cb3", 0), X.point("cb3", 8)) == QI_XY_LOWER
    assert ratio(X.point("alpha", 0), X.point("alpha", 16)) == 1


SHEAR = 1 / math.log(2)  # d(log2 r) = SHEAR dr / r
SHEAR_LAMBDA = (SHEAR + math.sqrt(SHEAR ** 2 + 4)) / 2  # 1.954369...


def test_qi_spiral_is_lambda_bi_lipschitz(zoo_xcat8):
    # in the orthonormal frame (r dt, dr) the shear (t, r) -> (t - log2 r, r)
    # has the differential [[1, -SHEAR], [0, 1]] everywhere, with singular
    # values lambda and 1/lambda: the map and its inverse stretch path
    # lengths, hence distances, by at most lambda.  Attached rays map
    # isometrically onto rays with corresponding bases.  Short steps in
    # every direction reach lambda both ways.
    X, Y = zoo_xcat8.space, bl.build_Ycat0(8).space
    m = SpiralMap(X, Y)
    rng = random.Random(11)

    def one():
        if rng.random() < 0.3:
            return X.ray_pt(f"g{rng.randint(1, 8)}", rng.uniform(0, 50))
        return X.pt(rng.uniform(-20, 20), math.exp(rng.uniform(0, math.log(300))))

    pairs = [(one(), one()) for _ in range(2000)]
    for t, r in ((0.3, 2.0), (-4.0, 40.0)):
        for k in range(720):
            theta = math.pi * k / 720
            du, dr = 1e-5 * math.cos(theta), 1e-5 * math.sin(theta)
            pairs.append((X.pt(t, r), X.pt(t + du / r, r + dr)))
    worst = [0.0, 0.0]
    for p, q in pairs:
        d, d_image = X.distance(p, q), Y.distance(m.map_point(p), m.map_point(q))
        assert d_image <= SHEAR_LAMBDA * d * (1 + 1e-9), (p, q)
        assert d <= SHEAR_LAMBDA * d_image * (1 + 1e-9), (p, q)
        worst = [max(worst[0], d_image / d), max(worst[1], d / d_image)]
    assert min(worst) >= SHEAR_LAMBDA * (1 - 1e-4)
