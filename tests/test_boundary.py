import itertools
import math
from fractions import Fraction

import pytest

import boundary_lab as bl
from boundary_lab import boundary
from boundary_lab.boundary import (
    BoundaryProductEstimate,
    boundary_gromov_product,
    boundary_map_continuity_test,
    converges_in_gp,
    hausdorff_violation_witness,
    shared_products,
    u_set_membership,
)
from boundary_lab.contraction import ray_distance
from boundary_lab.rays import UnitSpeedRay
from oracles import full_doubling_walk


def test_products_exact_in_X(zoo_x16):
    z = zoo_x16
    mh, mn = z.product_horizon, z.product_min_horizon
    for i in (1, 4, 9, 16):
        est = boundary_gromov_product(
            z.boundary["alpha"], z.boundary[f"g{i}"], max_horizon=mh, min_horizon=mn
        )
        assert est.converged and est.value == float(i)
    est = boundary_gromov_product(
        z.boundary["alpha"], z.boundary["beta"], max_horizon=mh, min_horizon=mn
    )
    assert est.converged and est.value == 0.0


def test_products_in_Y(zoo_y16):
    z = zoo_y16
    mh, mn = z.product_horizon, z.product_min_horizon
    for i in (3, 7, 16):
        ea = boundary_gromov_product(
            z.boundary["alpha"], z.boundary[f"g{i}"], max_horizon=mh, min_horizon=mn
        )
        eb = boundary_gromov_product(
            z.boundary["beta"], z.boundary[f"g{i}"], max_horizon=mh, min_horizon=mn
        )
        assert ea.value == 0.0 and eb.value == float(i)


def test_product_symmetry_and_monotone_consistency(zoo_x16):
    z = zoo_x16
    mh, mn = z.product_horizon, z.product_min_horizon
    ab = boundary_gromov_product(
        z.boundary["alpha"], z.boundary["g7"], max_horizon=mh, min_horizon=mn
    )
    ba = boundary_gromov_product(
        z.boundary["g7"], z.boundary["alpha"], max_horizon=mh, min_horizon=mn
    )
    assert ab.value == ba.value
    # converged value equals the final two window minima
    assert ab.window_minima[-1] == ab.window_minima[-2] == ab.value
    # outside a query every call estimates afresh
    again = boundary_gromov_product(
        z.boundary["alpha"], z.boundary["g7"], max_horizon=mh, min_horizon=mn
    )
    assert again is not ab and again.value == ab.value
    # inside one, a repeat returns the same estimate; the reversed pair and
    # other arguments are entries of their own; the memo ends with the block
    with shared_products():
        first = boundary_gromov_product(
            z.boundary["alpha"], z.boundary["g7"], max_horizon=mh, min_horizon=mn
        )
        with shared_products():
            nested = boundary_gromov_product(
                z.boundary["alpha"], z.boundary["g7"], max_horizon=mh,
                min_horizon=mn,
            )
        reversed_ = boundary_gromov_product(
            z.boundary["g7"], z.boundary["alpha"], max_horizon=mh, min_horizon=mn
        )
        wider = boundary_gromov_product(
            z.boundary["alpha"], z.boundary["g7"], max_horizon=2 * mh,
            min_horizon=mn,
        )
    assert nested is first and first is not ab and first.value == ab.value
    assert reversed_ is not first and abs(reversed_.value - first.value) <= 1e-9
    assert wider is not first and wider.value == first.value
    after = boundary_gromov_product(
        z.boundary["alpha"], z.boundary["g7"], max_horizon=mh, min_horizon=mn
    )
    assert after is not first and after.value == first.value


def test_self_product_is_infinite(zoo_x16):
    est = boundary_gromov_product(
        zoo_x16.boundary["alpha"], zoo_x16.boundary["alpha"],
        max_horizon=zoo_x16.product_horizon,
    )
    assert math.isinf(est.value) and est.converged


def test_error_bar_attached_when_constant_known(zoo_xcat12):
    est = boundary_gromov_product(
        zoo_xcat12.boundary["alpha"], zoo_xcat12.boundary["g4"],
        max_horizon=zoo_xcat12.product_horizon,
        min_horizon=zoo_xcat12.product_min_horizon, c_eta=math.pi,
    )
    assert est.error_bar == pytest.approx(50 * math.pi)


def test_membership_examples(zoo_x16, zoo_ycat14):
    z = zoo_x16
    mh, mn = z.product_horizon, z.product_min_horizon
    assert u_set_membership(
        z.boundary["g5"], z.boundary["alpha"], 5, max_horizon=mh, min_horizon=mn
    ).state == "in"
    assert u_set_membership(
        z.boundary["g5"], z.boundary["alpha"], 6, max_horizon=mh, min_horizon=mn
    ).state == "out"
    assert u_set_membership(
        z.boundary["alpha"], z.boundary["alpha"], 10 ** 9, max_horizon=mh
    ).state == "in"
    zy = zoo_ycat14
    assert u_set_membership(
        zy.boundary["g5"], zy.boundary["alpha"], 1.0,
        max_horizon=zy.product_horizon, min_horizon=zy.product_min_horizon,
    ).state == "out"


def test_membership_near_threshold_flag(zoo_ycat14):
    zy = zoo_ycat14
    # (g5 . g9) = 31 exactly; r = 31 sits inside the float tolerance band
    v = u_set_membership(
        zy.boundary["g5"], zy.boundary["g9"], 31.0,
        max_horizon=zy.product_horizon, min_horizon=zy.product_min_horizon,
    )
    assert v.state == "boundary-inconclusive"


def test_convergence_first_indices(zoo_x16):
    z = zoo_x16
    seq = [z.boundary[f"g{i}"] for i in range(1, 17)]
    rep = converges_in_gp(
        seq, z.boundary["alpha"], [1, 2, 2.5, 7, 15],
        max_horizon=z.product_horizon, min_horizon=z.product_min_horizon,
    )
    assert rep.converges
    first = {r: idx for r, idx, _ in rep.rows}
    assert first == {1: 1, 2: 2, 2.5: 3, 7: 7, 15: 15}


def test_convergence_constant_sequence(zoo_x16):
    z = zoo_x16
    seq = [z.boundary["alpha"]] * 4
    rep = converges_in_gp(
        seq, z.boundary["alpha"], [1, 100], max_horizon=z.product_horizon
    )
    assert rep.converges and all(first == 1 for _, first, _ in rep.rows)


def test_convergence_fails_in_Y(zoo_y16):
    z = zoo_y16
    seq = [z.boundary[f"g{i}"] for i in range(3, 17)]
    rep = converges_in_gp(
        seq, z.boundary["alpha"], [1.0],
        max_horizon=z.product_horizon, min_horizon=z.product_min_horizon,
    )
    assert not rep.converges
    assert [(r, idx) for r, idx, _ in rep.rows] == [(1.0, None)]


def test_hausdorff_witness_in_X(zoo_x16):
    z = zoo_x16
    seq = [z.boundary[f"g{i}"] for i in range(1, 17)]
    wit = hausdorff_violation_witness(
        [z.boundary["alpha"], z.boundary["beta"]], seq, [1, 2, 4, 8],
        max_horizon=z.product_horizon, min_horizon=z.product_min_horizon,
    )
    assert wit is not None
    assert {wit[0].label, wit[1].label} == {"alpha", "beta"}


def test_no_witness_in_Y(zoo_y16):
    z = zoo_y16
    seq = [z.boundary[f"g{i}"] for i in range(3, 17)]
    wit = hausdorff_violation_witness(
        [z.boundary["alpha"], z.boundary["beta"]], seq, [1, 2, 4],
        max_horizon=z.product_horizon, min_horizon=z.product_min_horizon,
    )
    assert wit is None  # only beta is a limit, alpha fails at r=1


def test_single_point_boundary_no_witness(zoo_x16):
    z = zoo_x16
    seq = [z.boundary[f"g{i}"] for i in range(1, 6)]
    wit = hausdorff_violation_witness(
        [z.boundary["alpha"]], seq, [1, 2],
        max_horizon=z.product_horizon, min_horizon=z.product_min_horizon,
    )
    assert wit is None


def test_continuity_certificates(zoo_x16, zoo_y16):
    cert = boundary_map_continuity_test(
        None, zoo_x16, zoo_y16, [f"g{i}" for i in range(3, 17)], "alpha", 1.0,
        max_horizon_from=zoo_x16.product_horizon,
        max_horizon_to=zoo_y16.product_horizon,
        min_horizon_from=zoo_x16.product_min_horizon,
        min_horizon_to=zoo_y16.product_min_horizon,
    )
    assert cert.discontinuous
    assert all(v == 0.0 for _, v in cert.image_products)
    assert cert.space_from == zoo_x16.space_id
    cert2 = boundary_map_continuity_test(
        None, zoo_x16, zoo_x16, [f"g{i}" for i in range(3, 17)], "alpha", 1.0,
        max_horizon_from=zoo_x16.product_horizon,
        max_horizon_to=zoo_x16.product_horizon,
        min_horizon_from=zoo_x16.product_min_horizon,
        min_horizon_to=zoo_x16.product_min_horizon,
    )
    assert cert2.verdict == "continuous-at-tested-data"


def test_continuity_spiral_pairing(zoo_xcat12):
    zy = bl.build_Ycat0(12)
    cert = boundary_map_continuity_test(
        None, zoo_xcat12, zy, [f"g{i}" for i in range(1, 13)], "alpha", 1.0,
        max_horizon_from=zoo_xcat12.product_horizon,
        max_horizon_to=zy.product_horizon,
        min_horizon_from=zoo_xcat12.product_min_horizon,
        min_horizon_to=zy.product_min_horizon,
    )
    assert cert.discontinuous
    assert max(v for _, v in cert.image_products) <= 0.5


def test_reps_equivalence_over_zoo():
    # at T = product_horizon each auxiliary representative runs on its
    # canonical ray and the canonical one on it, while the canonical rays of
    # two classes diverge at slope 1: d(b(T + 1), a) - d(b(T), a) = 1,
    # exactly on ray complexes
    for spec in ("X:8", "Y:8", "Xcat0:8", "Ycat0:8"):
        zoo = bl.get_space(spec)
        exact = isinstance(zoo.space, bl.RayComplex)
        T = Fraction(zoo.product_horizon) if exact else zoo.product_horizon
        for bp in zoo.boundary_points():
            for aux in bp.auxiliaries:
                assert ray_distance(aux.eval(T), bp.canonical)[0] == 0, aux
                assert ray_distance(bp.canonical.eval(T), aux)[0] == 0, aux
        for eta, zeta in itertools.permutations(zoo.boundary_points(), 2):
            a, b = eta.canonical, zeta.canonical
            slope = ray_distance(b.eval(T + 1), a)[0] - ray_distance(b.eval(T), a)[0]
            if exact:
                assert slope == 1, (spec, eta, zeta)
            else:
                assert abs(slope - 1) <= 1e-9, (spec, eta, zeta)


def test_product_requires_same_space(zoo_x16, zoo_y16):
    with pytest.raises(bl.DomainError):
        boundary_gromov_product(
            zoo_x16.boundary["alpha"], zoo_y16.boundary["alpha"], max_horizon=100
        )


def _count_windows(monkeypatch):
    """The horizons S of the windows queried from now on, in call order."""
    horizons = []
    original = boundary._window_min

    def counted(space, a, b, params, o, *rest):
        horizons.append(params[0])
        return original(space, a, b, params, o, *rest)

    monkeypatch.setattr(boundary, "_window_min", counted)
    return horizons


@pytest.mark.parametrize("spec", ["X:8", "Y:8", "X:16"])
def test_finality_skip_equals_the_full_walk(spec):
    # once both rays run on their hairs the later windows are appended, not
    # queried: schedule, minima, status and value are those of the full walk
    z = bl.get_space(spec)
    mh, mn = z.product_horizon, z.product_min_horizon
    for eta, zeta in itertools.permutations(sorted(z.boundary), 2):
        a, b = z.boundary[eta].canonical, z.boundary[zeta].canonical
        status, schedule, minima = full_doubling_walk(a, b, mh, mn)
        assert boundary._doubling_schedule(a, b, mh, mn) == (
            status, schedule, minima
        ), (eta, zeta)
        est = boundary_gromov_product(
            z.boundary[eta], z.boundary[zeta], max_horizon=mh, min_horizon=mn
        )
        assert est == BoundaryProductEstimate(
            float(minima[-1]),
            tuple(float(S) for S in schedule),
            tuple(float(m) for m in minima),
            status,
        ), (eta, zeta)


def test_finality_skips_the_plateau_of_alpha_g_on_X16(zoo_x16, monkeypatch):
    # g_i runs on its hair from s* = i + 2^i, alpha from its last mark, 16;
    # the windows up to the first S >= i + 2^i are queried, 171 of 304
    z = zoo_x16
    horizons = _count_windows(monkeypatch)
    for i in range(1, 17):
        est = boundary_gromov_product(
            z.boundary["alpha"], z.boundary[f"g{i}"],
            max_horizon=z.product_horizon, min_horizon=z.product_min_horizon,
        )
        assert est.converged and est.value == i
        assert len(est.schedule) == 19
    assert len(horizons) == 171


def test_finality_needs_two_distinct_hairs(zoo_x8, zoo_xcat8, monkeypatch):
    # a class's canonical rep and its ~beta auxiliary end on the same hair,
    # and annulus rays end on no hair at all: every window is queried
    g3 = zoo_x8.boundary["g3"]
    cases = [
        (zoo_x8, g3.canonical, g3.auxiliaries[0]),
        (zoo_xcat8, zoo_xcat8.boundary["alpha"].canonical,
         zoo_xcat8.boundary["g3"].canonical),
    ]
    horizons = _count_windows(monkeypatch)
    for z, a, b in cases:
        horizons.clear()
        mh, mn = z.product_horizon, z.product_min_horizon
        est = boundary_gromov_product(a, b, max_horizon=mh, min_horizon=mn)
        status, schedule, minima = full_doubling_walk(a, b, mh, mn)
        assert horizons == schedule
        assert est.status == status
        assert est.window_minima == tuple(float(m) for m in minima)


@pytest.mark.parametrize("spec", ["Xcat0:8", "Ycat0:8"])
def test_annulus_windows_reuse_their_shared_point_bit_for_bit(spec):
    # each window takes over the last window's 2S points, their distances to
    # o and the cross distance; the floats are those computed afresh
    z = bl.get_space(spec)
    mh, mn = z.product_horizon, z.product_min_horizon
    for eta, zeta in itertools.permutations(sorted(z.boundary), 2):
        a, b = z.boundary[eta].canonical, z.boundary[zeta].canonical
        status, schedule, minima = boundary._doubling_schedule(a, b, mh, mn)
        want = full_doubling_walk(a, b, mh, mn)
        assert (status, schedule) == want[:2], (eta, zeta)
        assert [m.hex() for m in minima] == [m.hex() for m in want[2]], (eta, zeta)


@pytest.mark.parametrize("spec,eta,zeta", [
    ("X:8", "alpha", "g3"),
    ("X:8", "g2", "beta"),
    ("Xcat0:8", "alpha", "g3"),
])
def test_k_windows_evaluate_each_ray_3_plus_2_k_minus_1_times(spec, eta, zeta, monkeypatch):
    z = bl.get_space(spec)
    a, b = z.boundary[eta].canonical, z.boundary[zeta].canonical
    evals = {id(a): 0, id(b): 0}
    original = UnitSpeedRay.eval

    def counted(self, t):
        evals[id(self)] += 1
        return original(self, t)

    monkeypatch.setattr(UnitSpeedRay, "eval", counted)
    horizons = _count_windows(monkeypatch)
    boundary._doubling_schedule(a, b, z.product_horizon, z.product_min_horizon)
    k = len(horizons)
    assert k >= 2
    assert evals == {id(a): 3 + 2 * (k - 1), id(b): 3 + 2 * (k - 1)}
