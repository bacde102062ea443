"""Quasi-isometry distortion estimation from sampled pairs.

The fit is deliberately simple and documented: the multiplicative constant
is the worst two-sided ratio over pairs at or above the median separation
(small separations are absorbed by the additive constant), and the additive
constant is then the smallest eps making both inequalities hold on every
sample.  Per-scale worst ratios are reported so window-stability can be
judged against doubled windows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError
from .points import Point, RayComplexPoint
from .ray_complex import RayComplex


@dataclass(frozen=True)
class DistortionReport:
    lam: float
    eps: float
    per_scale: tuple  # (bucket_log2, worst ratio in bucket)
    pairs: int

    def to_dict(self) -> dict:
        return {
            "schema": "distortion_report@1",
            "lambda": self.lam,
            "eps": self.eps,
            "per_scale": [list(row) for row in self.per_scale],
            "pairs": self.pairs,
        }


def qi_distortion_estimate(
    map_fn: Callable[[Point], Point],
    space_from,
    space_to,
    pair_sampler: Callable[[random.Random], tuple[Point, Point]],
    n: int,
    seed: int = 0,
) -> DistortionReport:
    """Fit (lambda, eps) covering d/lam - eps <= d' <= lam*d + eps on the sample."""
    if n < 2:
        raise DomainError("need at least two sampled pairs")
    rng = random.Random(seed)
    d_from: list[float] = []
    d_to: list[float] = []
    while len(d_from) < n:
        p, q = pair_sampler(rng)
        a = float(space_from.distance(p, q))
        if a == 0.0:
            continue
        b = float(space_to.distance(map_fn(p), map_fn(q)))
        d_from.append(a)
        d_to.append(b)

    med = sorted(d_from)[len(d_from) // 2]
    lam = 1.0
    for a, b in zip(d_from, d_to):
        if a >= med and b > 0:
            lam = max(lam, b / a, a / b)
    eps = 0.0
    for a, b in zip(d_from, d_to):
        eps = max(eps, b - lam * a, a / lam - b)
    eps = max(0.0, eps)

    buckets: dict[int, float] = {}
    for a, b in zip(d_from, d_to):
        if b <= 0:
            continue
        k = math.floor(math.log2(a))
        ratio = max(b / a, a / b)
        buckets[k] = max(buckets.get(k, 1.0), ratio)
    per_scale = tuple(sorted(buckets.items()))
    return DistortionReport(lam, eps, per_scale, n)


def label_identity_map(space_from: RayComplex, space_to: RayComplex) -> Callable:
    """Identity on edge labels with parameter rescaling on re-metrized edges.

    Points on edges absent from the target are rejected, so samplers should
    stick to the shared family.
    """

    def map_point(p: Point) -> Point:
        if not isinstance(p, RayComplexPoint):
            raise DomainError("label identity map works on ray-complex points")
        if p.edge_id not in space_to.edges:
            raise DomainError(f"edge {p.edge_id} does not exist in the target")
        src = space_from.edges[p.edge_id]
        dst = space_to.edges[p.edge_id]
        off = p.offset
        if src.length is not None and dst.length is not None and src.length != dst.length:
            off = p.offset * dst.length / src.length
        return space_to.point(p.edge_id, off)

    return map_point


def shared_edge_pair_sampler(
    space_from: RayComplex, space_to: RayComplex, horizon
) -> Callable:
    """Random pairs on edges present in both complexes."""
    shared = sorted(set(space_from.edges) & set(space_to.edges))
    if not shared:
        raise DomainError("no shared edges to sample")
    hor = Fraction(horizon)

    def one(rng: random.Random) -> Point:
        eid = shared[rng.randrange(len(shared))]
        edge = space_from.edges[eid]
        top = hor if edge.length is None else min(edge.length, hor)
        off = top * Fraction(rng.randint(0, 64), 64)
        return space_from.point(eid, off)

    def sample(rng: random.Random):
        return one(rng), one(rng)

    return sample
