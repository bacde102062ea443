import gc
import itertools
import math
import weakref
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


def _count_schedules(monkeypatch):
    """The labels of the ray pairs whose doubling schedules are walked from
    now on (labels, not rays: a ray would keep its space alive)."""
    walked = []
    original = boundary._doubling_schedule

    def counted(a, b, *rest):
        walked.append((a.label, b.label))
        return original(a, b, *rest)

    monkeypatch.setattr(boundary, "_doubling_schedule", counted)
    return walked


def test_product_symmetry_and_monotone_consistency(monkeypatch):
    # a space of its own, whose product table no other test has filled
    z = bl.build_X(16)
    mh, mn = z.product_horizon, z.product_min_horizon
    alpha, g7 = z.boundary["alpha"], z.boundary["g7"]
    walked = _count_schedules(monkeypatch)
    ab = boundary_gromov_product(alpha, g7, max_horizon=mh, min_horizon=mn)
    ba = boundary_gromov_product(g7, alpha, max_horizon=mh, min_horizon=mn)
    assert ab.value == ba.value
    # converged value equals the final two window minima
    assert ab.window_minima[-1] == ab.window_minima[-2] == ab.value
    # outside shared_products() every call estimates afresh and enters nothing
    again = boundary_gromov_product(alpha, g7, max_horizon=mh, min_horizon=mn)
    assert again is not ab and again == ab
    assert len(walked) == 3 and not z.space._product_table
    # inside, the first call enters its estimate in the space's table and a
    # repeat, also with the horizons the classes carry, returns it and walks
    # nothing; the reversed pair is an entry of its own
    with shared_products():
        first = boundary_gromov_product(alpha, g7, max_horizon=mh, min_horizon=mn)
        assert first is not ab and first == ab and len(walked) == 4
        assert boundary_gromov_product(alpha, g7) is first
        with shared_products():
            assert boundary_gromov_product(alpha, g7, max_horizon=mh) is first
        reversed_ = boundary_gromov_product(g7, alpha)
        assert reversed_ is not first and reversed_ == ba and len(walked) == 5
    # the table lives with the space, not with the block
    with shared_products():
        assert boundary_gromov_product(alpha, g7) is first
        assert boundary_gromov_product(g7, alpha) is reversed_
        assert len(walked) == 5
        # a wider horizon and another c_eta are entries of their own
        wider = boundary_gromov_product(alpha, g7, max_horizon=2 * mh, min_horizon=mn)
        barred = boundary_gromov_product(
            alpha, g7, max_horizon=mh, min_horizon=mn, c_eta=1.0
        )
        assert len(walked) == 7
        assert wider is not first and wider.value == first.value
        assert barred is not first and barred.value == first.value
        assert barred.error_bar == 50.0
        assert boundary_gromov_product(alpha, g7, max_horizon=2 * mh) is wider
        assert boundary_gromov_product(alpha, g7, c_eta=1.0) is barred
    assert len(walked) == 7 and len(z.space._product_table) == 4
    # after the block a call estimates afresh again
    assert boundary_gromov_product(alpha, g7) is not first and len(walked) == 8
    # a fresh build computes again, and gets the same estimate
    fresh = bl.build_X(16)
    with shared_products():
        other = boundary_gromov_product(fresh.boundary["alpha"], fresh.boundary["g7"])
    assert other is not first and other == first and len(walked) == 9


def test_a_space_keeps_its_products_for_its_lifetime(monkeypatch):
    walked = _count_schedules(monkeypatch)
    # the table holds its rays weakly, so that their references back to the
    # space make no cycle: a dropped space is freed by refcount alone
    gc.disable()
    try:
        for build in (bl.build_X, bl.build_Xcat0):
            zoo = build(4)
            ref = weakref.ref(zoo.space)
            with shared_products():
                for eta, zeta in (("alpha", "g2"), ("g2", "alpha")):
                    boundary_gromov_product(zoo.boundary[eta], zoo.boundary[zeta])
            assert len(zoo.space._product_table) == 2
            del zoo
            assert ref() is None
    finally:
        gc.enable()
    # a ray dropped and made again, even at the address of the old one,
    # never meets the old one's entry: each made ray is walked afresh
    z = bl.build_X(4)
    alpha = z.boundary["alpha"]
    legs = {i: z.boundary[f"g{i}"].canonical.legs for i in range(1, 5)}
    addresses = []
    walked.clear()
    with shared_products():
        for _ in range(5):
            for i in range(1, 5):
                ray = UnitSpeedRay(z.space, "copy", legs[i])
                addresses.append(id(ray))
                assert boundary_gromov_product(alpha, ray).value == i
                del ray
    assert len(set(addresses)) < len(addresses)
    assert len(walked) == 20 and len(z.space._product_table) == 20
    # on a fresh X:16 the Hausdorff witness reads the 32 products alpha.g_i
    # and beta.g_i that an earlier block estimated, and walks no schedule of
    # its own; a convergence table and a certificate after it walk none
    # either, while a direct product walks afresh
    z = bl.build_X(16)
    alpha, beta = z.boundary["alpha"], z.boundary["beta"]
    seq = [z.boundary[f"g{i}"] for i in range(1, 17)]
    walked.clear()
    with shared_products():
        for eta in (alpha, beta):
            for term in seq:
                boundary_gromov_product(eta, term)
    assert len(walked) == 32
    assert hausdorff_violation_witness([alpha, beta], seq, [1, 2, 4, 8]) == (alpha, beta)
    assert converges_in_gp(seq, alpha, [1.5, 3]).converges
    labels = [f"g{i}" for i in range(3, 17)]
    cert = boundary_map_continuity_test(None, z, z, labels, "alpha", 1.0)
    assert cert.verdict == "continuous-at-tested-data"
    assert len(walked) == 32
    assert boundary_gromov_product(alpha, seq[6]).value == 7 and len(walked) == 33


def test_products_outside_a_query_cost_the_same_whatever_ran_before(monkeypatch):
    # a direct product or membership walks its schedule even when a query
    # on its space estimated the same product before it
    z = bl.build_X(8)
    alpha = z.boundary["alpha"]
    seq = [z.boundary[f"g{i}"] for i in range(1, 9)]
    walked = _count_schedules(monkeypatch)
    converges_in_gp(seq, alpha, [1, 2])
    assert len(walked) == 8
    for term in seq:
        boundary_gromov_product(alpha, term)
        u_set_membership(term, alpha, 1)
    assert len(walked) == 24 and len(z.space._product_table) == 8


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


def test_horizons_must_be_finite_and_in_range(zoo_xcat8):
    # an infinite or NaN max_horizon doubled S forever; a NaN min_horizon
    # never let stability count; the annulus failed deep inside on inf
    z = bl.build_X(4)
    g2 = z.boundary["g2"]
    pairs = [(g2.canonical, g2.auxiliaries[0]),
             (zoo_xcat8.boundary["alpha"].canonical, zoo_xcat8.boundary["g3"].canonical)]
    for a, b in pairs:
        for bad in (math.inf, math.nan, 0, -1.0, -math.inf):
            with pytest.raises(bl.DomainError, match="max_horizon"):
                boundary_gromov_product(a, b, max_horizon=bad)
        for bad in (math.nan, math.inf, -1, -math.inf):
            with pytest.raises(bl.DomainError, match="min_horizon"):
                boundary_gromov_product(a, b, max_horizon=64, min_horizon=bad)
    # the carried horizons pass the same check; an explicit one still wins
    with pytest.raises(bl.DomainError, match="max_horizon"):
        u_set_membership(g2, z.boundary["alpha"], 1.0, max_horizon=math.inf)
    assert boundary_gromov_product(
        z.boundary["alpha"], g2, max_horizon=Fraction(10 ** 400), min_horizon=0
    ).value == 2


def test_radii_must_be_finite(zoo_xcat8, monkeypatch):
    # a NaN radius made membership "boundary-inconclusive" and gave a
    # convergence row with no first index; it is refused where it enters,
    # before any product is estimated
    estimated = _count_schedules(monkeypatch)
    for z in (bl.build_X(4), zoo_xcat8):
        seq = [z.boundary[f"g{i}"] for i in range(1, 5)]
        alpha = z.boundary["alpha"]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(bl.DomainError, match="radius"):
                u_set_membership(seq[1], alpha, bad)
            for radii in ([bad, 1.0], [1.0, bad]):
                with pytest.raises(bl.DomainError, match="radius"):
                    converges_in_gp(seq, alpha, radii)
    assert estimated == []
    # a huge exact radius is finite
    z = bl.build_X(4)
    assert u_set_membership(
        z.boundary["g2"], z.boundary["alpha"], Fraction(10 ** 400)
    ).state == "out"


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


def test_finality_skips_the_plateau_of_alpha_g_on_X16(monkeypatch):
    # g_i runs on its hair from s* = i + 2^i, alpha from its last mark, 16;
    # the windows up to the first S >= i + 2^i are queried, 171 of 304
    # (on a space of its own: a shared one may hold these products already)
    z = bl.build_X(16)
    horizons = _count_windows(monkeypatch)
    for i in range(1, 17):
        est = boundary_gromov_product(
            z.boundary["alpha"], z.boundary[f"g{i}"],
            max_horizon=z.product_horizon, min_horizon=z.product_min_horizon,
        )
        assert est.converged and est.value == i
        assert len(est.schedule) == 19
    assert len(horizons) == 171


def test_finality_needs_two_distinct_hairs(monkeypatch):
    # a class's canonical rep and its ~beta auxiliary end on the same hair,
    # and annulus rays end on no hair at all: every window is queried
    # (on spaces of their own: a shared one may hold these products already)
    zoo_x8, zoo_xcat8 = bl.build_X(8), bl.build_Xcat0(8)
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
    # ray-complex windows evaluate through the integer edge_location, which
    # eval shares; annulus windows seed from the ray's legs through locate,
    # which eval shares too
    z = bl.get_space(spec)
    a, b = z.boundary[eta].canonical, z.boundary[zeta].canonical
    evals = {id(a): 0, id(b): 0}
    name = "edge_location" if isinstance(z.space, bl.RayComplex) else "locate"
    original = getattr(UnitSpeedRay, name)

    def counted(self, t):
        evals[id(self)] += 1
        return original(self, t)

    monkeypatch.setattr(UnitSpeedRay, name, counted)
    horizons = _count_windows(monkeypatch)
    boundary._doubling_schedule(a, b, z.product_horizon, z.product_min_horizon)
    k = len(horizons)
    assert k >= 2
    assert evals == {id(a): 3 + 2 * (k - 1), id(b): 3 + 2 * (k - 1)}


def _hexed(est):
    return (
        est.value.hex(), [s.hex() for s in est.schedule],
        [m.hex() for m in est.window_minima], est.status,
    )


@pytest.mark.parametrize("spec", ["X:8", "Y:8", "Xcat0:8", "Ycat0:8"])
def test_default_horizons_are_the_zoos(spec):
    z = bl.get_space(spec)
    for eta, zeta in itertools.product(z.boundary_points(), repeat=2):
        default = boundary_gromov_product(eta, zeta)
        explicit = boundary_gromov_product(
            eta, zeta, max_horizon=z.product_horizon,
            min_horizon=z.product_min_horizon,
        )
        assert _hexed(default) == _hexed(explicit), (eta, zeta)
    # an explicit horizon wins over the carried one
    a, b = z.boundary["alpha"], z.boundary["g3"]
    assert boundary_gromov_product(a, b, min_horizon=0).schedule != (
        boundary_gromov_product(a, b).schedule
    )
    # raw rays carry no horizons: max_horizon is required, min_horizon is 0
    ra, rb = a.canonical, b.canonical
    with pytest.raises(bl.DomainError):
        boundary_gromov_product(ra, rb)
    assert _hexed(boundary_gromov_product(ra, rb, max_horizon=z.product_horizon)) == (
        _hexed(boundary_gromov_product(ra, rb, z.product_horizon, min_horizon=0))
    )
