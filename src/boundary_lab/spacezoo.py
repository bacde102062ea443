"""Constructors for the four example spaces, with boundary registries.

Each builder returns a ZooSpace bundle: the space itself, a labeled
boundary registry whose canonical representatives are unit-speed geodesic
rays based at the basepoint o, auxiliary representatives where the space
offers them (a second route in the glued complexes, a slightly offset base
in the annulus), and recommended horizons derived from the construction
scale (never less than twice the largest scale).  Each registered class
carries the product horizons of its bundle, which the product entry points
of ``boundary`` use when the caller gives none.  A builder hands the
registry one maker per label, and a class's rays and ``BoundaryPoint`` are
made on its first read, so a command that reads no class makes none.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Union

from .annulus import AnnulusSpace, AttachedLeg, BoundaryArcLeg, geodesic_legs
from .boundary import BoundaryPoint
from .errors import DomainError
from .points import MAX_RADIUS
from .ray_complex import RAY, SEGMENT, Edge, RayComplex
from .rays import EdgeLeg, UnitSpeedRay


Makers = dict[str, Callable[[], list[UnitSpeedRay]]]


class Labels(Mapping):
    """Boundary points by label, in label order, from one zero-argument maker
    of its rays (canonical first) per label.  A class is made on its first
    read and kept: the product memo keys on canonical rays by identity.
    ``len`` and ``in`` make nothing.  ``[]`` of an unknown label is a
    DomainError; ``get`` gives the default, as a ``Mapping`` does."""

    def __init__(self, makers: Makers, horizons):
        self._makers, self._horizons, self._made = makers, horizons, {}

    def __getitem__(self, label) -> BoundaryPoint:
        try:
            return self._made[label]
        except KeyError:
            if label not in self._makers:
                raise DomainError(f"unknown boundary label {label!r}") from None
        reps = self._makers[label]()
        bp = self._made[label] = BoundaryPoint(label, reps[0], tuple(reps[1:]), self._horizons)
        return bp

    def __contains__(self, label) -> bool:
        return label in self._makers

    def get(self, label, default=None):
        return self[label] if label in self._makers else default

    def __iter__(self):
        return iter(self._makers)

    def __len__(self) -> int:
        return len(self._makers)


@dataclass(eq=False)
class ZooSpace:
    """A space with its boundary registry.  ``makers`` maps each label to a
    maker of its rays, canonical first; ``boundary`` makes their classes on
    first read, and they carry the zoo's product horizons."""

    name: str
    space: Union[RayComplex, AnnulusSpace]
    makers: InitVar[Makers]
    scale: float
    product_horizon: float
    default_horizon: float
    boundary: Labels = field(init=False)

    def __post_init__(self, makers):
        self.boundary = Labels(makers, (self.product_horizon, self.product_min_horizon))

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


def _scale(name: str, n: int, horizon_factor: int, max_radius=None) -> float:
    """2^n, the construction scale of ``name:n``, once n is small enough:
    the product horizon horizon_factor * 2^n must be a finite float and,
    when bounded, at most ``max_radius``, and so must every smaller horizon
    and the radii 2^i (i <= n).  Checked before anything is built."""
    n_max, why = 1024 - horizon_factor.bit_length(), "its horizons overflow"
    bound = n_max if max_radius is None else int(math.log2(max_radius / horizon_factor))
    if bound < n_max:
        n_max, why = bound, f"its product horizon {horizon_factor} * 2^n exceeds {max_radius:g}"
    if n > n_max:
        raise DomainError(f"{name}:{n} is too large ({why}); use n <= {n_max}")
    return float(1 << n)


def _glued(name: str, n: int, first: int, cb_length, routes: tuple) -> ZooSpace:
    """The glued family ``name:n``: boundary rays alpha and beta glued at o,
    and for i = first..n a branch ray g_i hung off alpha at i by a
    connector ca_i of length 2^i and off beta at i by a connector cb_i of
    length ``cb_length(i)``.  Class g_i has one representative per ray in
    ``routes``, running along that ray to i, across its connector and up
    g_i; the first is canonical, labeled ``g{i}``, the others ``g{i}~<ray>``."""
    if n < first:
        raise DomainError(f"n must be >= {first}")
    scale = _scale(name, n, 16)
    # per branch: i, and the connector (edge id, length) from g_i to each
    # boundary ray; the complex is given its locations as ints
    branches = [
        (i, {"alpha": (f"ca{i}", 1 << i), "beta": (f"cb{i}", cb_length(i))})
        for i in range(first, n + 1)
    ]
    edges = [Edge("alpha", RAY, None), Edge("beta", RAY, None)]
    gluings = [(("alpha", 0), ("beta", 0))]
    for i, connectors in branches:
        edges.append(Edge(f"g{i}", RAY, None))
        for ray, (eid, length) in connectors.items():
            edges.append(Edge(eid, SEGMENT, length))
            gluings += [((eid, 0), (f"g{i}", 0)), ((eid, length), (ray, i))]
    rc = RayComplex(edges, gluings, ("alpha", 0))

    def edge(label):
        return [rc.edge_ray(label)]

    def branch(i, connectors):
        at, rays = Fraction(i), []
        for ray in routes:
            eid = connectors[ray][0]
            legs = (
                EdgeLeg(ray, _ZERO, at),
                EdgeLeg(eid, Fraction(rc.edges[eid].length), _ZERO),
                EdgeLeg(f"g{i}", _ZERO, None),
            )
            rays.append(UnitSpeedRay(rc, f"g{i}~{ray}" if rays else f"g{i}", legs))
        return rays

    makers = {"alpha": partial(edge, "alpha"), "beta": partial(edge, "beta")}
    makers.update((f"g{i}", partial(branch, i, connectors)) for i, connectors in branches)
    return ZooSpace(f"{name}:{n}", rc, makers, scale, 16 * scale, 8 * scale)


def build_X(n: int) -> ZooSpace:
    """Two boundary rays glued at o, plus n branch rays hung off both by
    connectors of length 2^i.  The canonical ray of g_i runs via alpha, an
    auxiliary one via beta."""
    return _glued("X", n, 1, lambda i: 1 << i, ("alpha", "beta"))


def build_Y(n: int) -> ZooSpace:
    """The re-metrized complex: the connector to the second boundary ray is
    shortened to 2^i - 2i, and g_i has one ray, via beta.  The family starts
    at index 3, the first whose shortened length is positive
    (2^1 - 2 = 2^2 - 4 = 0)."""
    return _glued("Y", n, 3, lambda i: (1 << i) - 2 * i, ("beta",))


_PERTURB = 0.5  # base offset of auxiliary annulus representatives


def _annulus(name: str, n: int, base_angle) -> ZooSpace:
    """The annulus family ``name:n``: rays g_1..g_n attached at the bases
    (base_angle(i), 2^i), and the classes of the arcs alpha (increasing t)
    and beta (decreasing t) along r = 1.  Each class has one auxiliary
    representative, ``<label>~1``, whose base on r = 1 is moved by
    ``_PERTURB`` in angle (toward decreasing t for beta)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    scale = _scale(name, n, 32, MAX_RADIUS)
    space = AnnulusSpace(
        {f"g{i}": (float(base_angle(i)), float(2 ** i)) for i in range(1, n + 1)}
    )

    def arc(label, direction):
        return [
            UnitSpeedRay(space, lab, (BoundaryArcLeg(t0, direction, None),))
            for lab, t0 in ((label, 0.0), (f"{label}~1", direction * _PERTURB))
        ]

    def attached(label):
        base = space.attached[label]
        return [
            UnitSpeedRay(space, lab, (*geodesic_legs((t0, 1.0), base), AttachedLeg(label)))
            for lab, t0 in ((label, 0.0), (f"{label}~1", _PERTURB))
        ]

    makers = {"alpha": partial(arc, "alpha", +1), "beta": partial(arc, "beta", -1)}
    makers.update((f"g{i}", partial(attached, f"g{i}")) for i in range(1, n + 1))
    return ZooSpace(f"{name}:{n}", space, makers, scale, 32 * scale, 8 * scale)


def build_Xcat0(n: int) -> ZooSpace:
    """Annulus with rays attached along the spiral of bases (i, 2^i)."""
    return _annulus("Xcat0", n, lambda i: i)


def build_Ycat0(n: int) -> ZooSpace:
    """Annulus with rays attached along the vertical of bases (0, 2^i)."""
    return _annulus("Ycat0", n, lambda i: 0)


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
