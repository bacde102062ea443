"""Space-agnostic metric primitives: Gromov products and axiom spot checks."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import DomainError
from .points import Point

Number = Union[Fraction, float]


def gromov_product(x: Point, y: Point, z: Point, space) -> Number:
    """Half of d(x,z) + d(y,z) - d(x,y); exact rational in ray complexes.
    Each ``distance`` checks its points."""
    return (space.distance(x, z) + space.distance(y, z) - space.distance(x, y)) / 2


@dataclass
class AxiomReport:
    """Worst observed violations over sampled triples."""

    triples: int = 0
    max_symmetry_violation: Number = 0
    max_triangle_violation: Number = 0
    identity_failures: int = 0
    worst_witness: Optional[tuple] = None
    max_product_excess: Number = 0  # gromov product above min(d(x,z), d(y,z))

    def passed(self, tol) -> bool:
        return (
            self.max_symmetry_violation <= tol
            and self.max_triangle_violation <= tol
            and self.identity_failures == 0
            and self.max_product_excess <= tol
        )

    def to_dict(self) -> dict:
        return {
            "triples": self.triples,
            "max_symmetry_violation": float(self.max_symmetry_violation),
            "max_triangle_violation": float(self.max_triangle_violation),
            "identity_failures": self.identity_failures,
            "max_product_excess": float(self.max_product_excess),
            "worst_witness": repr(self.worst_witness),
        }


def metric_axiom_check(
    space,
    sampler: Callable[[random.Random], Point],
    n: int,
    seed: int = 0,
) -> AxiomReport:
    """Check symmetry, identity at coincident points, the triangle
    inequality, and the Gromov-product bound over n sampled triples."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = random.Random(seed)
    rep = AxiomReport()
    for _ in range(n):
        x, y, z = sampler(rng), sampler(rng), sampler(rng)
        dxy, dyx = space.distance(x, y), space.distance(y, x)
        dxz, dzy = space.distance(x, z), space.distance(z, y)
        rep.triples += 1
        sym = abs(dxy - dyx)
        if sym > rep.max_symmetry_violation:
            rep.max_symmetry_violation = sym
            rep.worst_witness = (x, y)
        if space.distance(x, x) != 0:
            rep.identity_failures += 1
        tri = dxz - (dxy + space.distance(y, z))
        if tri > rep.max_triangle_violation:
            rep.max_triangle_violation = tri
            rep.worst_witness = (x, y, z)
        gp = gromov_product(x, y, z, space)
        excess = gp - min(dxz, dzy)
        if excess > rep.max_product_excess:
            rep.max_product_excess = excess
    return rep
