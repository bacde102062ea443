import pytest

import boundary_lab as bl
from boundary_lab import spacezoo
from boundary_lab.cli import main


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
    assert len(zt.boundary) == 0 and list(zt.boundary) == [] and zt.boundary_points() == []
    with pytest.raises(bl.DomainError, match="^unknown boundary label 'a'$"):
        zt.boundary["a"]


@pytest.fixture
def classes_made(monkeypatch):
    """The labels of the boundary classes the zoo makes, in order."""
    made, real = [], spacezoo.BoundaryPoint

    def counted(label, *args):
        made.append(label)
        return real(label, *args)

    monkeypatch.setattr(spacezoo, "BoundaryPoint", counted)
    return made


@pytest.mark.parametrize("argv, labels", [
    (["dist", "--space", "X:16", "--from", "alpha:5", "--to", "g3:1/2"], []),
    (["gromov", "--space", "X:16", "--x", "alpha:5", "--y", "g3:1", "--z", "base"], []),
    (["project", "--space", "X:16", "--point", "ca3:1", "--target", "alpha,beta"], []),
    (["project", "--space", "X:16", "--point", "ca3:1", "--target", "g5"], []),
    (["dist", "--space", "Xcat0:8", "--from", "ann:1.5,3", "--to", "g3:2"], []),
    (["spiral", "--from-space", "Xcat0:8", "--to-space", "Ycat0:8", "--point", "g3:2"], []),
    (["bproduct", "--space", "X:8", "--eta", "alpha", "--zeta", "g3"], ["alpha", "g3"]),
], ids=["dist-X", "gromov-X", "project-X-two", "project-X-one", "dist-Xcat0", "spiral",
        "bproduct-X"])
def test_a_cold_command_makes_only_the_classes_it_reads(argv, labels, classes_made, capsys):
    assert main(argv) == 0
    capsys.readouterr()
    assert classes_made == labels


@pytest.mark.parametrize("build, first, n", [
    (bl.build_X, 1, 5), (bl.build_Y, 3, 6), (bl.build_Xcat0, 1, 4), (bl.build_Ycat0, 1, 3),
])
def test_each_class_is_made_once_on_its_first_read(build, first, n, classes_made):
    z = build(n)
    order = ["alpha", "beta"] + [f"g{i}" for i in range(first, n + 1)]
    assert len(z.boundary) == len(order)
    assert "g3" in z.boundary and "g0" not in z.boundary and "zz" not in z.boundary
    assert list(z.boundary) == list(z.boundary.keys()) == order
    assert classes_made == []
    g3 = z.boundary["g3"]
    assert z.boundary["g3"] is g3 and classes_made == ["g3"]
    assert [bp.label for bp in z.boundary.values()] == order
    assert [(lab, bp.label) for lab, bp in z.boundary.items()] == list(zip(order, order))
    assert [bp.label for bp in z.boundary_points()] == order
    assert z.boundary["g3"] is g3 and z.boundary_points()[order.index("g3")] is g3
    assert sorted(classes_made) == sorted(order)  # each class made once
    with pytest.raises(bl.DomainError, match="^unknown boundary label 'zz'$"):
        z.boundary["zz"]


@pytest.mark.parametrize("build", [bl.build_X, bl.build_Xcat0])
def test_get_of_an_unknown_label_gives_the_default(build, classes_made):
    # the Mapping contract: get gives its default where [] has no item, and
    # makes no class; [] still names the label
    z = build(4)
    default = object()
    assert z.boundary.get("nope", default) is default
    assert z.boundary.get("nope") is None and z.boundary.get("") is None
    assert classes_made == []
    assert z.boundary.get("g3", default) is z.boundary["g3"]
    assert classes_made == ["g3"]
    with pytest.raises(bl.DomainError, match="^unknown boundary label 'nope'$"):
        z.boundary["nope"]


@pytest.mark.parametrize("spec", ["X:1", "X:1019", "Y:3", "Y:1019", "Xcat0:1", "Xcat0:493",
                                  "Ycat0:1", "Ycat0:493"])
def test_every_class_of_the_least_and_largest_spec_is_made(spec):
    # the rays' construction checks run on a class's first read, not when its
    # space is built: every accepted spec still makes all of its classes
    name, n = spec.split(":")
    z = bl.get_space(spec)
    points = z.boundary_points()
    assert len(points) == 2 + int(n) - (2 if name == "Y" else 0)
    assert all(bp.canonical.space is z.space for bp in points)


@pytest.mark.parametrize("spec, why", [
    pytest.param(spec, why, id=spec) for spec, why in [
        ("X:1020", "its horizons overflow); use n <= 1019"),
        ("Y:1020", "its horizons overflow); use n <= 1019"),
        ("Xcat0:494", "its product horizon 32 * 2^n exceeds 1e+150); use n <= 493"),
        ("Ycat0:494", "its product horizon 32 * 2^n exceeds 1e+150); use n <= 493"),
    ]
])
def test_one_size_past_the_largest_spec_is_refused_when_built(spec, why):
    with pytest.raises(bl.DomainError) as err:
        bl.get_space(spec)
    assert str(err.value) == f"{spec} is too large ({why}"
