import math
from fractions import Fraction

import pytest

import boundary_lab as bl
from boundary_lab.contraction import ContractionProfile, project
from boundary_lab.points import AnnulusPoint, RayComplexPoint


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
