"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces the public entry point of each layer with a
wrapper that opens a span (name, start, end, parent) around the call.  Every
module that imported the function by name gets the wrapper too, so calls
between layers are seen wherever they come from.  ``uninstall()`` puts the
originals back.

Spans are folded into per-name aggregates as they close instead of being
kept one by one: the scalar annulus kernel alone is entered millions of
times in one pass of ``annulus-claims``, and a list of that many span
records would cost more memory than the workload itself.  A frame stack
gives each closing span its self time (its duration minus the spans it
opened) and its parent, which is all the per-layer metrics need.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from boundary_lab import (
    annulus,
    boundary,
    cli,
    contraction,
    dsl,
    mesh_oracle,
    metric,
    ray_complex,
    samplers,
    spacezoo,
    suite,
)
from boundary_lab.rays import ChordLeg, EdgeLeg

RAY_KINDS = ("edge", "arc", "chord")

# (span name, calls metric, self-time metric) for every timed layer.  The
# mean self time per call is reported next to each, as ``*_ms_per_call``.
TIMED_LAYERS = (
    ("ray_complex.dijkstra", "ray_complex.dijkstra_runs",
     "ray_complex.dijkstra_self_s"),
    ("ray_complex.distance", "ray_complex.distance_calls",
     "ray_complex.distance_self_s"),
    ("spacezoo.build", "spacezoo.build_calls", "spacezoo.build_self_s"),
    ("dsl.parse_compile", "dsl.parse_compile_calls", "dsl.parse_compile_self_s"),
    ("annulus.kernel_scalar", "annulus.kernel_scalar_calls",
     "annulus.kernel_scalar_self_s"),
    ("annulus.kernel_vec", "annulus.kernel_vec_calls", "annulus.kernel_vec_self_s"),
    *(
        (f"contraction.ray_distance.{kind}",
         f"contraction.ray_distance.{kind}.calls",
         f"contraction.ray_distance.{kind}.self_s")
        for kind in RAY_KINDS
    ),
    ("contraction.escape", "contraction.escape_calls", "contraction.escape_self_s"),
    ("contraction.profile", "contraction.profile_calls",
     "contraction.profile_self_s"),
    ("boundary.product", "boundary.product_calls", "boundary.product_self_s"),
    ("mesh_oracle.query", "mesh_oracle.query_calls", "mesh_oracle.query_self_s"),
    ("metric.gromov", "metric.gromov_calls", "metric.gromov_self_s"),
    ("suite.class_constants", "suite.class_constants_calls",
     "suite.class_constants_self_s"),
    ("cli.command", "cli.command_calls", "cli.command_self_s"),
)


def per_call_name(self_metric: str) -> str:
    return self_metric[: -len("self_s")] + "self_ms_per_call"


def _ray_kind(ray) -> str:
    """Class a target ray by its legs: glued edges, chords, or arcs only."""
    kinds = {type(leg) for leg in ray.legs}
    if EdgeLeg in kinds:
        return "edge"
    if ChordLeg in kinds:
        return "chord"
    return "arc"


def _grid_cells(p, q, h) -> int:
    """Cells of the oracle's value table for one query (from its inputs)."""
    if (p.t, p.r) == (q.t, q.r):
        return 0
    n_rows = max(1, math.ceil(math.log(max(p.r, q.r, 1.0)) / h)) + 1
    n_cols = max(1, math.ceil(abs(q.t - p.t) / h)) + 1
    return n_rows * n_cols


class Tracer:
    """Span aggregates for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.children: Counter = Counter()  # (parent name, child name) -> calls
        self.work: Counter = Counter()  # computed work counts per layer
        self.product_pairs: set = set()
        self._stack: list = []  # open frames: [name, seconds spent in children]
        self._saved: list = []

    # -- span bookkeeping ----------------------------------------------------

    def _wrap(self, name, fn, after=None):
        """Wrapper opening span ``name`` (a string, or a callable of the call
        arguments returning one) around ``fn``; ``after`` sees the result."""
        stack, calls, self_s, total_s, children = (
            self._stack, self.calls, self.self_s, self.total_s, self.children,
        )
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            span = fixed or name(args, kwargs)
            frame = [span, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                calls[span] += 1
                self_s[span] += duration - frame[1]
                total_s[span] += duration
                if parent is not None:
                    parent[1] += duration
                    children[(parent[0], span)] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, key, wrapper) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._saved.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, wrapper)

    def _layer(self, name, targets, after=None) -> None:
        """Wrap the function found at the first target and patch every
        target (all hold the same function) with that one wrapper."""
        owner, key = targets[0]
        original = owner[key] if isinstance(owner, dict) else owner.__dict__[key]
        wrapper = self._wrap(name, original, after)
        for owner, key in targets:
            self._patch(owner, key, wrapper)

    # -- per-layer hooks -------------------------------------------------------

    def _after_vec(self, result, args, kwargs) -> None:
        self.work["annulus.kernel_vec_elems"] += int(np.size(result))

    def _after_product(self, est, args, kwargs) -> None:
        a, b = args[0], args[1]
        space_id = (a.canonical if hasattr(a, "canonical") else a).space.space_id
        la, lb = a.label, b.label
        self.product_pairs.add((space_id, min(la, lb), max(la, lb)))
        self.work["boundary.product_doublings"] += len(est.schedule)

    def _after_oracle(self, result, args, kwargs) -> None:
        p, q = args[0], args[1]
        h = args[2] if len(args) > 2 else kwargs.get("h", 0.01)
        self.work["mesh_oracle.grid_cells"] += _grid_cells(p, q, h)

    def _profile_layer(self) -> None:
        original = contraction.contraction_profile
        signature = inspect.signature(original)
        work = self.work

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            inner = bound.arguments["sampler"]

            def sampler(rng):
                work["contraction.profile_proposals"] += 1
                return inner(rng)

            bound.arguments["sampler"] = sampler
            work["contraction.profile_proposals"] += len(
                bound.arguments.get("extra_pairs", ())
            )
            prof = original(*bound.args, **bound.kwargs)
            work["contraction.profile_accepted"] += prof.samples
            return prof

        wrapper = self._wrap("contraction.profile", counted)
        for owner in (contraction, suite, cli):
            self._patch(owner, "contraction_profile", wrapper)

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        rc = ray_complex.RayComplex
        self._layer("ray_complex.dijkstra", [(rc, "vertex_distances")])
        self._layer("ray_complex.distance", [(rc, "distance")])
        for fam in ("X", "Y", "Xcat0", "Ycat0"):
            self._layer(
                "spacezoo.build",
                [(spacezoo, f"build_{fam}"), (spacezoo._BUILDERS, fam)],
            )
        for fn in ("parse_space", "compile_space"):
            self._layer("dsl.parse_compile", [(dsl, fn), (cli, fn), (suite, fn)])
        self._layer(
            "annulus.kernel_scalar",
            [(annulus, "ann_distance_coords"), (contraction, "ann_distance_coords")],
        )
        self._layer(
            "annulus.kernel_vec",
            [(annulus, "ann_distance_arrays"), (contraction, "ann_distance_arrays")],
            self._after_vec,
        )

        def ray_distance_span(args, kwargs):
            ray = args[1] if len(args) > 1 else kwargs["ray"]
            return f"contraction.ray_distance.{_ray_kind(ray)}"

        self._layer(
            ray_distance_span,
            [(contraction, "ray_distance"), (samplers, "ray_distance")],
        )
        self._layer(
            "contraction.escape",
            [(contraction, "t_first_escape"), (cli, "t_first_escape")],
        )
        self._profile_layer()
        self._layer(
            "boundary.product",
            [(boundary, "boundary_gromov_product"), (suite, "boundary_gromov_product"),
             (cli, "boundary_gromov_product")],
            self._after_product,
        )
        self._layer(
            "mesh_oracle.query",
            [(mesh_oracle, "mesh_oracle_distance"), (suite, "mesh_oracle_distance")],
            self._after_oracle,
        )
        self._layer(
            "metric.gromov",
            [(metric, "gromov_product"), (boundary, "gromov_product"),
             (contraction, "gromov_product"), (cli, "gromov_product")],
        )
        self._layer(
            "suite.class_constants",
            [(suite, "class_constants"), (cli, "class_constants")],
        )
        self._layer("cli.command", [(cli, "main")])

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        calls, self_s, total_s, work = self.calls, self.self_s, self.total_s, self.work

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict = {}
        for span, calls_name, self_name in TIMED_LAYERS:
            out[calls_name] = (calls[span], "count")
            out[self_name] = (self_s[span], "s")
            out[per_call_name(self_name)] = (1e3 * ratio(self_s[span], calls[span]), "ms")
        # whole-call means, comparable with single-query baselines
        for span in ("ray_complex.distance", "mesh_oracle.query", "boundary.product"):
            out[f"{span}_ms_per_call"] = (1e3 * ratio(total_s[span], calls[span]), "ms")

        chord = "contraction.ray_distance.chord"
        out["contraction.kernel_per_chord_query"] = (
            ratio(self.children[(chord, "annulus.kernel_scalar")], calls[chord]),
            "count",
        )
        out["contraction.escape_refine_queries"] = (
            sum(
                self.children[("contraction.escape", f"contraction.ray_distance.{kind}")]
                for kind in RAY_KINDS
            ),
            "count",
        )
        out["contraction.profile_proposals"] = (
            work["contraction.profile_proposals"], "count",
        )
        out["contraction.profile_accept_ratio"] = (
            ratio(work["contraction.profile_accepted"],
                  work["contraction.profile_proposals"]),
            "ratio",
        )
        out["ray_complex.dijkstra_per_product"] = (
            ratio(calls["ray_complex.dijkstra"], calls["boundary.product"]), "count",
        )
        out["boundary.product_doublings"] = (work["boundary.product_doublings"], "count")
        out["boundary.product_unique_ratio"] = (
            ratio(len(self.product_pairs), calls["boundary.product"]), "ratio",
        )
        out["annulus.kernel_vec_elems"] = (work["annulus.kernel_vec_elems"], "count")
        out["mesh_oracle.grid_cells"] = (work["mesh_oracle.grid_cells"], "count")
        return out
