"""Constructors for the four example spaces, with boundary registries.

Each builder returns a ZooSpace bundle: the space itself, a labeled
boundary registry whose canonical representatives are unit-speed geodesic
rays based at the basepoint o, auxiliary representatives where the space
offers them (a second route in the glued complexes, a slightly offset base
in the annulus), and recommended horizons derived from the construction
scale (never less than twice the largest scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .annulus import AnnulusSpace, geodesic_legs
from .boundary import BoundaryPoint
from .errors import DomainError
from .mesh_oracle import MAX_RADIUS
from .ray_complex import RAY, SEGMENT, Edge, RayComplex
from .rays import AttachedLeg, BoundaryArcLeg, EdgeLeg, UnitSpeedRay


class Labels(dict):
    """Boundary points by label; an unknown label is a DomainError."""

    def __missing__(self, label):
        raise DomainError(f"unknown boundary label {label!r}")


@dataclass(eq=False)
class ZooSpace:
    name: str
    space: Union[RayComplex, AnnulusSpace]
    boundary: dict[str, BoundaryPoint]
    scale: float
    product_horizon: float
    sweep_horizon: float

    def __post_init__(self):
        self.boundary = Labels(self.boundary)

    @property
    def space_id(self) -> str:
        return self.space.space_id

    @property
    def product_min_horizon(self) -> float:
        """Window minima below the construction scale can sit on plateaus,
        so product schedules must pass this before stability counts."""
        return 4 * self.scale

    def boundary_points(self) -> list[BoundaryPoint]:
        return list(self.boundary.values())


_ZERO = Fraction(0)


def _two(i: int) -> Fraction:
    return Fraction(1 << i)


def _scale(name: str, n: int, horizon_factor: int, max_radius=None) -> float:
    """2^n, the construction scale of ``name:n``, once n is small enough:
    the product horizon horizon_factor * 2^n must be a finite float, and
    the radii 2^i (i <= n), when bounded, at most ``max_radius``.  Checked
    before anything is built."""
    n_max, why = 1024 - horizon_factor.bit_length(), "its horizons overflow"
    if max_radius is not None and int(math.log2(max_radius)) < n_max:
        n_max, why = int(math.log2(max_radius)), f"its radii exceed {max_radius:g}"
    if n > n_max:
        raise DomainError(f"{name}:{n} is too large ({why}); use n <= {n_max}")
    return float(1 << n)


def build_X(n: int) -> ZooSpace:
    """Two boundary rays glued at o, plus n branch rays hung off both by
    connectors of length 2^i."""
    if n < 1:
        raise DomainError("n must be >= 1")
    scale = _scale("X", n, 16)
    edges = [Edge("alpha", RAY, None), Edge("beta", RAY, None)]
    gluings = [(("alpha", _ZERO), ("beta", _ZERO))]
    for i in range(1, n + 1):
        two, at = _two(i), Fraction(i)
        edges.append(Edge(f"g{i}", RAY, None))
        edges.append(Edge(f"ca{i}", SEGMENT, two))
        edges.append(Edge(f"cb{i}", SEGMENT, two))
        gluings += [
            ((f"ca{i}", _ZERO), (f"g{i}", _ZERO)),
            ((f"ca{i}", two), ("alpha", at)),
            ((f"cb{i}", _ZERO), (f"g{i}", _ZERO)),
            ((f"cb{i}", two), ("beta", at)),
        ]
    rc = RayComplex(edges, gluings, ("alpha", _ZERO))
    boundary = {
        "alpha": BoundaryPoint("alpha", rc.edge_ray("alpha")),
        "beta": BoundaryPoint("beta", rc.edge_ray("beta")),
    }
    for i in range(1, n + 1):
        two, at = _two(i), Fraction(i)
        via_a = UnitSpeedRay(
            rc,
            f"g{i}",
            (
                EdgeLeg("alpha", _ZERO, at),
                EdgeLeg(f"ca{i}", two, _ZERO),
                EdgeLeg(f"g{i}", _ZERO, None),
            ),
        )
        via_b = UnitSpeedRay(
            rc,
            f"g{i}~beta",
            (
                EdgeLeg("beta", _ZERO, at),
                EdgeLeg(f"cb{i}", two, _ZERO),
                EdgeLeg(f"g{i}", _ZERO, None),
            ),
        )
        boundary[f"g{i}"] = BoundaryPoint(f"g{i}", via_a, (via_b,))
    return ZooSpace(f"X:{n}", rc, boundary, scale, 16 * scale, 8 * scale)


def build_Y(n: int) -> ZooSpace:
    """The re-metrized complex: the connector to the second boundary ray is
    shortened to 2^i - 2i.  The family starts at index 3, the first whose
    shortened length is positive (2^1 - 2 = 2^2 - 4 = 0)."""
    if n < 3:
        raise DomainError("n must be >= 3")
    scale = _scale("Y", n, 16)
    edges = [Edge("alpha", RAY, None), Edge("beta", RAY, None)]
    gluings = [(("alpha", _ZERO), ("beta", _ZERO))]
    for i in range(3, n + 1):
        two, short, at = _two(i), Fraction((1 << i) - 2 * i), Fraction(i)
        edges.append(Edge(f"g{i}", RAY, None))
        edges.append(Edge(f"ca{i}", SEGMENT, two))
        edges.append(Edge(f"cb{i}", SEGMENT, short))
        gluings += [
            ((f"ca{i}", _ZERO), (f"g{i}", _ZERO)),
            ((f"ca{i}", two), ("alpha", at)),
            ((f"cb{i}", _ZERO), (f"g{i}", _ZERO)),
            ((f"cb{i}", short), ("beta", at)),
        ]
    rc = RayComplex(edges, gluings, ("alpha", _ZERO))
    boundary = {
        "alpha": BoundaryPoint("alpha", rc.edge_ray("alpha")),
        "beta": BoundaryPoint("beta", rc.edge_ray("beta")),
    }
    for i in range(3, n + 1):
        short = Fraction((1 << i) - 2 * i)
        via_b = UnitSpeedRay(
            rc,
            f"g{i}",
            (
                EdgeLeg("beta", _ZERO, Fraction(i)),
                EdgeLeg(f"cb{i}", short, _ZERO),
                EdgeLeg(f"g{i}", _ZERO, None),
            ),
        )
        boundary[f"g{i}"] = BoundaryPoint(f"g{i}", via_b)
    return ZooSpace(f"Y:{n}", rc, boundary, scale, 16 * scale, 8 * scale)


def _attached_class(
    space: AnnulusSpace, label: str, ray_id: str, bases: list[tuple[float, float]]
) -> BoundaryPoint:
    reps = []
    for k, start in enumerate(bases):
        legs = tuple(geodesic_legs(start, space.attached[ray_id])) + (
            AttachedLeg(ray_id),
        )
        reps.append(UnitSpeedRay(space, label if k == 0 else f"{label}~{k}", legs))
    return BoundaryPoint(label, reps[0], tuple(reps[1:]))


def _boundary_class(
    space: AnnulusSpace, label: str, direction: int, offset: float
) -> BoundaryPoint:
    canonical = UnitSpeedRay(
        space, label, (BoundaryArcLeg(0.0, direction, None),)
    )
    perturbed = UnitSpeedRay(
        space,
        f"{label}~1",
        (BoundaryArcLeg(direction * offset, direction, None),),
    )
    return BoundaryPoint(label, canonical, (perturbed,))


_PERTURB = 0.5  # base offset of auxiliary annulus representatives


def build_Xcat0(n: int) -> ZooSpace:
    """Annulus with rays attached along the spiral of bases (i, 2^i)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    scale = _scale("Xcat0", n, 32, MAX_RADIUS)
    space = AnnulusSpace({f"g{i}": (float(i), float(2 ** i)) for i in range(1, n + 1)})
    boundary = {
        "alpha": _boundary_class(space, "alpha", +1, _PERTURB),
        "beta": _boundary_class(space, "beta", -1, _PERTURB),
    }
    for i in range(1, n + 1):
        boundary[f"g{i}"] = _attached_class(
            space, f"g{i}", f"g{i}", [(0.0, 1.0), (_PERTURB, 1.0)]
        )
    return ZooSpace(f"Xcat0:{n}", space, boundary, scale, 32 * scale, 8 * scale)


def build_Ycat0(n: int) -> ZooSpace:
    """Annulus with rays attached along the vertical of bases (0, 2^i)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    scale = _scale("Ycat0", n, 32, MAX_RADIUS)
    space = AnnulusSpace({f"g{i}": (0.0, float(2 ** i)) for i in range(1, n + 1)})
    boundary = {
        "alpha": _boundary_class(space, "alpha", +1, _PERTURB),
        "beta": _boundary_class(space, "beta", -1, _PERTURB),
    }
    for i in range(1, n + 1):
        boundary[f"g{i}"] = _attached_class(
            space, f"g{i}", f"g{i}", [(0.0, 1.0), (_PERTURB, 1.0)]
        )
    return ZooSpace(f"Ycat0:{n}", space, boundary, scale, 32 * scale, 8 * scale)


_BUILDERS = {
    "X": build_X,
    "Y": build_Y,
    "Xcat0": build_Xcat0,
    "Ycat0": build_Ycat0,
}


def get_space(spec: str) -> ZooSpace:
    """Resolve a builtin spec like ``X:16`` or a path to a .space file."""
    if spec.endswith(".space"):
        from .dsl import load_space

        rc = load_space(spec)
        return ZooSpace(spec, rc, {}, 1.0, 1024.0, 512.0)
    if ":" in spec:
        name, _, num = spec.partition(":")
        if name in _BUILDERS and num.isdecimal():
            return _BUILDERS[name](int(num))
    raise DomainError(
        f"unknown space spec {spec!r} (use X:<n>, Y:<n>, Xcat0:<n>, Ycat0:<n>,"
        " or a .space path)"
    )
