import math
import random

import numpy as np
import pytest

import boundary_lab as bl
from boundary_lab import mesh_oracle
from boundary_lab.annulus import (
    AnnulusSpace,
    SpiralMap,
    ann_distance_arrays,
    ann_distance_coords,
    ann_distance_terms,
    chord_valid,
    kernel_terms,
    spiral_coords,
)
from boundary_lab.distortion import (
    label_identity_map,
    qi_distortion_estimate,
    shared_edge_pair_sampler,
)
from boundary_lab.mesh_oracle import mesh_oracle_distance
from boundary_lab.rays import ChordLeg
from oracles import reference_mesh_oracle


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


def test_mesh_oracle_window_flag():
    S = AnnulusSpace()
    with pytest.raises(bl.DomainError):
        mesh_oracle_distance(S.pt(0, 5), S.pt(2, 8), h=0.05, window=(-1, 3, 6))
    with pytest.raises(bl.DomainError):
        mesh_oracle_distance(S.pt(0, 5), S.pt(10, 5), h=0.05, window=(-1, 3, 50))


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_mesh_oracle_rejects_bad_step(h):
    # h = -1 used to return an underestimate, h = 0 a ZeroDivisionError
    S = AnnulusSpace()
    with pytest.raises(bl.DomainError):
        mesh_oracle_distance(S.pt(0, 2), S.pt(5, 2), h=h)


def _oracle_cases():
    """(p, q, h, window): seeded pairs, then the edge cases of the sweep."""
    S = AnnulusSpace()
    rng = random.Random(9)
    cases = []
    for k in range(40):
        h = 0.01 if k % 10 == 0 else 0.05
        span = 6.0 if h == 0.01 else 16.0
        ta, tb = (rng.uniform(-span / 2, span / 2) for _ in range(2))
        ra, rb = (math.exp(rng.uniform(0.0, math.log(30.0))) for _ in range(2))
        cases.append((S.pt(ta, ra), S.pt(tb, rb), h, None))
    cases += [
        (S.pt(0.7, 1.5), S.pt(0.7, 6.0), 0.05, None),  # equal t: a zero last step
        (S.pt(0.7, 6.0), S.pt(0.7, 1.5), 0.05, None),
        (S.pt(-1.0, 1.0), S.pt(2.3, 1.0), 0.05, None),  # both on the circle
        (S.pt(3.0, 1.0), S.pt(-0.4, 1.0), 0.01, None),
        (S.pt(0.0, 2.0), S.pt(1.234, 3.0), 0.05, None),  # a squeezed last step
        (S.pt(0.0, 2.0), S.pt(1.0, 3.0), 0.05, None),  # a whole number of steps
        (S.pt(0.0, 2.0), S.pt(0.03, 2.5), 0.05, None),  # a one-step span
        (S.pt(0.0, 1.0), S.pt(0.02, 1.0), 0.05, None),
        (S.pt(0.0, 5.0), S.pt(2.0, 5.5), 0.05, (-1.0, 3.0, 6.0)),  # a window
    ]
    return cases


def test_mesh_oracle_matches_the_plain_sweep_bit_for_bit():
    for p, q, h, window in _oracle_cases():
        want, want_path = reference_mesh_oracle(p, q, h=h, window=window)
        got = mesh_oracle_distance(p, q, h=h, window=window)
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


def test_qi_identity_is_isometry(zoo_x8):
    X = zoo_x8.space
    rep = qi_distortion_estimate(
        label_identity_map(X, X), X, X,
        shared_edge_pair_sampler(X, X, 2 ** 8), 150, seed=4,
    )
    assert rep.lam == 1.0 and rep.eps == 0.0


def test_qi_identity_x_to_y_finite(zoo_x16, zoo_y16):
    m = label_identity_map(zoo_x16.space, zoo_y16.space)
    rep = qi_distortion_estimate(
        m, zoo_x16.space, zoo_y16.space,
        shared_edge_pair_sampler(zoo_x16.space, zoo_y16.space, 2 ** 14),
        300, seed=4,
    )
    assert 1.0 <= rep.lam < 10.0
    assert 0.0 <= rep.eps < 200.0


def test_qi_spiral_window_stability():
    S1, S2 = AnnulusSpace(), AnnulusSpace()

    def spiral_map(p):
        t, r = spiral_coords(p.t, p.r)
        return S2.pt(t, r)

    def sampler(window_t, window_logr):
        def sample(rng):
            t1, t2 = rng.uniform(-window_t, window_t), rng.uniform(-window_t, window_t)
            r1 = math.exp(rng.uniform(0, window_logr))
            r2 = math.exp(rng.uniform(0, window_logr))
            return S1.pt(t1, max(1, r1)), S1.pt(t2, max(1, r2))
        return sample

    rep1 = qi_distortion_estimate(
        spiral_map, S1, S2, sampler(50, math.log(2 ** 12)), 400, seed=9
    )
    rep2 = qi_distortion_estimate(
        spiral_map, S1, S2, sampler(100, math.log(2 ** 13)), 400, seed=9
    )
    assert rep1.lam < 4.0 and rep2.lam < 4.0
    assert rep2.lam <= 2.0 * rep1.lam  # ratio scale stays put under doubling
    # large-scale ratios stay within a uniform multiplicative band
    for rep in (rep1, rep2):
        for _, ratio in rep.per_scale[len(rep.per_scale) // 2:]:
            assert ratio <= 4.0
