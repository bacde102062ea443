"""The traced benchmark patches package attributes by name; these checks
fail fast when one of them disappears or is not put back."""

import importlib.util
from pathlib import Path

from boundary_lab import boundary, cli, contraction, spacezoo, suite

_SPEC = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def test_tracer_install_and_uninstall_restore_originals():
    product = boundary.boundary_gromov_product
    escape = cli.t_first_escape
    builders = dict(spacezoo._BUILDERS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        saved = list(tracer._saved)
        assert saved
        for owner, key, original in saved:
            assert _current(owner, key) is not original
        assert suite.boundary_gromov_product.__wrapped__ is product
        # the basis check imports the product lazily, so the tracer sees it
        z = spacezoo.build_X(4)
        pts = z.boundary_points()
        table = {bp.label: 1.0 for bp in pts}
        contraction.neighborhood_basis_check(z.boundary["alpha"], 1.0, pts, table)
        assert tracer.calls["spacezoo.build"] == 1
        assert tracer.calls["boundary.product"] > 0
    finally:
        tracer.uninstall()
    for owner, key, original in saved:
        assert _current(owner, key) is original
    assert boundary.boundary_gromov_product is product
    assert cli.t_first_escape is escape
    assert spacezoo._BUILDERS == builders


def test_tracer_counts_dijkstra_runs_not_row_lookups():
    tracer = spans.Tracer()
    tracer.install()
    try:
        X = spacezoo.build_X(4).space
        built = tracer.calls["ray_complex.dijkstra"]  # the connectivity check
        p, q = X.point("g2", 3), X.point("beta", 1)
        X.distance(p, q)
        runs = tracer.calls["ray_complex.dijkstra"]
        assert runs > built
        X.distance(p, q)
        assert tracer.calls["ray_complex.dijkstra"] == runs
    finally:
        tracer.uninstall()
