import pytest

import boundary_lab as bl


def test_build_X_edge_count():
    z = bl.build_X(3)
    assert len(z.space.edges) == 11  # 2 boundary rays + 3 branch rays + 6 connectors


def test_build_X_small_distances():
    z = bl.build_X(1)
    X = z.space
    assert X.distance(X.point("g1", 0), X.point("alpha", 1)) == 2


def test_build_X_rejects_degenerate():
    with pytest.raises(bl.DomainError):
        bl.build_X(0)


def test_build_Y_default_family():
    with pytest.raises(bl.DomainError):
        bl.build_Y(2)  # indices 1 and 2 would have zero-length connectors
    z = bl.build_Y(5)
    assert sorted(z.boundary) == ["alpha", "beta", "g3", "g4", "g5"]
    Y = z.space
    assert Y.edges["cb3"].length == 2  # 2^3 - 2*3
    assert Y.distance(Y.basepoint, Y.point("g3", 0)) == 5


def test_build_X_monotone_in_n():
    small, large = bl.build_X(3), bl.build_X(5)
    small_lines = set(small.space.describe().splitlines())
    large_lines = set(large.space.describe().splitlines())
    assert small_lines <= large_lines  # construction only adds edges and gluings


def test_cat0_bases(zoo_xcat12, zoo_ycat14):
    assert zoo_xcat12.space.attached["g3"] == (3.0, 8.0)
    assert zoo_ycat14.space.attached["g3"] == (0.0, 8.0)
    assert zoo_xcat12.space.basepoint.t == 0.0
    assert zoo_xcat12.space.basepoint.r == 1.0


def test_spiral_pairs_bases(zoo_xcat12):
    zy = bl.build_Ycat0(12)
    from boundary_lab.annulus import spiral_coords

    for i in range(1, 13):
        ft, fr = spiral_coords(*zoo_xcat12.space.attached[f"g{i}"])
        tt, tr = zy.space.attached[f"g{i}"]
        assert ft == pytest.approx(tt, abs=1e-12)
        assert fr == tr


def test_boundary_registry_complete(zoo_xcat12, zoo_x16):
    assert set(zoo_xcat12.boundary) == {"alpha", "beta"} | {
        f"g{i}" for i in range(1, 13)
    }
    assert set(zoo_x16.boundary) == {"alpha", "beta"} | {
        f"g{i}" for i in range(1, 17)
    }


def test_canonical_reps_based_at_o(zoo_x16, zoo_xcat12, zoo_ycat14):
    for zoo in (zoo_x16, zoo_xcat12, zoo_ycat14):
        o = zoo.space.basepoint
        for bp in zoo.boundary.values():
            assert zoo.space.distance(bp.canonical.eval(0), o) == 0


def test_annulus_reps_unit_speed(zoo_xcat12, zoo_ycat14):
    for zoo in (zoo_xcat12, zoo_ycat14):
        space = zoo.space
        for label in ("alpha", "g1", "g2", "g7"):
            for rep in zoo.boundary[label].representatives():
                params = [0.0, 0.7, 3.1, 48.0, 300.0]
                for i, s in enumerate(params):
                    for t in params[i + 1:]:
                        d = space.distance(rep.eval(s), rep.eval(t))
                        assert d == pytest.approx(t - s, abs=1e-9), (
                            zoo.name, label, rep.label, s, t,
                        )


def test_zoo_metric_axioms(zoo_x8, zoo_xcat8):
    from boundary_lab.metric import metric_axiom_check
    from boundary_lab.samplers import annulus_point_sampler, rc_point_sampler

    rep = metric_axiom_check(zoo_x8.space, rc_point_sampler(zoo_x8.space, 300), 400, 1)
    assert rep.passed(0)
    rep2 = metric_axiom_check(
        zoo_xcat8.space, annulus_point_sampler(zoo_xcat8.space, -10, 10, 40), 400, 1
    )
    assert rep2.passed(1e-9)


def test_get_space_specs(tmp_path):
    z = bl.get_space("X:4")
    assert z.name == "X:4" and len(z.space.edges) == 14
    with pytest.raises(bl.DomainError):
        bl.get_space("Nope:3")
    path = tmp_path / "tiny.space"
    path.write_text("ray a\nseg s 2\nglue s:0 a:1\nglue s:2 a:3\nbase a:0\n")
    zt = bl.get_space(str(path))
    assert set(zt.space.edges) == {"a", "s"}
