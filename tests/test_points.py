import math
import random
from fractions import Fraction

import pytest

import boundary_lab as bl
from boundary_lab.contraction import ContractionProfile, project
from boundary_lab.points import MAX_RADIUS, AnnulusPoint, RayComplexPoint


def test_point_validation(zoo_xcat8):
    with pytest.raises(bl.DomainError):
        AnnulusPoint("s", 0.0, 0.5)
    with pytest.raises(bl.DomainError):
        RayComplexPoint("s", "e", Fraction(-1))
    with pytest.raises(bl.DomainError):
        zoo_xcat8.space.ray_pt("g1", -0.5)


@pytest.mark.parametrize("offset", [math.nan, math.inf, Fraction(-1)])
def test_ray_complex_points_need_a_finite_offset_at_least_0(zoo_x8, offset):
    # NaN and inf offsets built, and X.distance(p, X.basepoint) then raised
    # a bare ValueError or OverflowError
    with pytest.raises(bl.DomainError, match="must be finite and >= 0"):
        RayComplexPoint(zoo_x8.space.space_id, "ca3", offset)


@pytest.mark.parametrize("p, q", [((0.0, 1e200), (0.0, 1e199)),
                                  ((0.0, 1e200), (1e-10, 1e200)),
                                  ((1e151, 2.0), (0.0, 2.0))])
def test_annulus_coordinates_above_max_radius_are_refused(p, q):
    # the first pair's distance was nan and the second's inf: the kernel
    # squares radii, which overflows from about 1.3e154
    S = bl.AnnulusSpace()
    with pytest.raises(bl.DomainError, match="MAX_RADIUS"):
        S.distance(S.pt(*p), S.pt(*q))


def test_annulus_distances_within_max_radius_are_finite():
    # r log-uniform up to 1e155: a pair with a radius above MAX_RADIUS is
    # refused, and every other distance is finite and at least |r1 - r2|
    S, rng, refused = bl.AnnulusSpace(), random.Random(34), 0
    for _ in range(20000):
        (t1, r1), (t2, r2) = (
            (rng.uniform(-4.0, 4.0), math.exp(rng.uniform(0.0, math.log(1e155))))
            for _ in range(2)
        )
        if max(r1, r2) > MAX_RADIUS:
            with pytest.raises(bl.DomainError, match="MAX_RADIUS"):
                S.distance(S.pt(t1, r1), S.pt(t2, r2))
            refused += 1
            continue
        d = S.distance(S.pt(t1, r1), S.pt(t2, r2))
        assert math.isfinite(d) and d >= abs(r1 - r2), (t1, r1, t2, r2, d)
    assert 1000 < refused < 2000


@pytest.mark.parametrize("family", ["Xcat0", "Ycat0"])
def test_the_largest_annulus_zoo_spaces_stay_within_max_radius(family):
    # their product horizon 32 * 2^493 = 2^498 and their bases, up to
    # 2^493, are below MAX_RADIUS: every ray's legs compile and the ray
    # runs a geodesic.  One size up is refused when it is built.
    z = bl.get_space(f"{family}:493")
    assert z.product_horizon == 2.0 ** 498 <= MAX_RADIUS
    for bp in z.boundary_points():
        for ray in bp.representatives():
            assert ray._geodesic, ray.label
    with pytest.raises(bl.DomainError, match=r"product horizon 32 \* 2\^n exceeds"):
        bl.get_space(f"{family}:494")


def test_offset_bounds_checked(zoo_x8):
    X = zoo_x8.space
    with pytest.raises(bl.DomainError):
        X.point("ca3", 9)  # connector has length 8


def test_ray_locate_errors(zoo_xcat8):
    alpha = zoo_xcat8.boundary["alpha"].canonical
    with pytest.raises(bl.DomainError):
        alpha.eval(-1.0)


def test_profile_merge_is_associative_max():
    a, b = ContractionProfile(), ContractionProfile()
    a.record(4.0, 1.0, ("x", "y", 1.0))
    a.record(9.0, 2.0, ("x", "y", 2.0))
    b.record(4.5, 3.0, ("p", "q", 3.0))
    merged = a.merge(b)
    assert merged.bins[2] == 3.0  # bucket [4, 8): max survives the merge
    assert merged.bins[3] == 2.0
    assert merged.samples == 3
    again = b.merge(a)
    assert again.bins == merged.bins


def test_annulus_projection_horizon_error(zoo_xcat8):
    A = zoo_xcat8.space
    alpha = zoo_xcat8.boundary["alpha"].canonical
    with pytest.raises(bl.HorizonError):
        project(A.pt(500.0, 2.0), alpha, horizon=100.0)
