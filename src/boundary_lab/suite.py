"""Acceptance suite: every shipped quantitative claim as a runnable check.

Each criterion is a check taking a shared context (built spaces, seed,
cached constants) and returning (passed, details); ``@criterion`` times it,
applies its wall-clock gate and registers it, so that calling it gives a
CriterionResult.  ``run_suite`` executes the requested subset in the order
of definition and reports one line per criterion.  Each criterion runs
inside ``shared_products()``, so criteria that share a space
(``SuiteContext.zoo``) share its product table: a product that an earlier
criterion estimated on that space is read, not walked again.  The pytest
acceptance module drives exactly these functions, so the CLI and the test
suite cannot drift apart.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass, field
from importlib.resources import files
from typing import Callable, Optional

import numpy as np

from . import spacezoo
from .annulus import AnnulusSpace
from .boundary import (
    boundary_gromov_product,
    boundary_map_continuity_test,
    converges_in_gp,
    hausdorff_violation_witness,
    shared_products,
    u_set_membership,
)
from .contraction import (
    claim_check,
    claim_horizon,
    contraction_profile,
    far_segment_suite,
    neighborhood_basis_check,
    project,
)
from .dsl import compile_space, parse_space, serialize_space
from .errors import DomainError, SpaceParseError
from .mesh_oracle import mesh_oracle_distance
from .metric import metric_axiom_check
from .samplers import annulus_point_sampler, profile_pair_sampler, rc_point_sampler


@dataclass
class CriterionResult:
    key: str
    title: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.key:<22} {self.title} ({self.elapsed:.1f}s)"


@dataclass
class SuiteContext:
    seed: int = 7
    spaces: dict = field(default_factory=dict)
    c_tables: dict = field(default_factory=dict)

    def zoo(self, name: str):
        if name not in self.spaces:
            self.spaces[name] = spacezoo.get_space(name)
        return self.spaces[name]

    def constants(self, name: str) -> dict:
        """``class_constants`` of one space at the suite seed, once per run."""
        if name not in self.c_tables:
            self.c_tables[name] = class_constants(self.zoo(name), self.seed)
        return self.c_tables[name]


# -- contraction constants for boundary classes --------------------------------

def alpha_extremal_pairs(space: AnnulusSpace, k_max: int = 9):
    """Admissible pairs pushing the joint-projection spread toward its sup."""
    pairs = []
    for k in range(1, k_max + 1):
        r = float(2 ** k)
        th = math.asin((r - 1.0) / r) - 1e-6
        pairs.append((space.pt(th, r), space.pt(0.0, r * math.cos(th))))
    return pairs


def class_constants(zoo: spacezoo.ZooSpace, seed: int) -> dict:
    """Strong-contraction constants per boundary class: max over stored
    representatives of the bounded profile constant (500 sampled pairs
    each), padded by 10%."""
    space = zoo.space
    if not isinstance(space, AnnulusSpace):
        raise DomainError("class constants are sampled on annulus spaces")
    table: dict[str, float] = {}
    for label, bp in zoo.boundary.items():
        if label in ("alpha", "beta"):
            scale, r_max = 1.0, 256.0
            extra = alpha_extremal_pairs(space) if label == "alpha" else ()
        else:
            scale = float(2 ** int(label[1:]))
            r_max = 8.0 * max(scale, 32.0)
            extra = ()
        best = 0.0
        ok = True
        for rep in bp.representatives():
            sampler = profile_pair_sampler(
                space, rep, horizon=40.0 + 4.0 * scale, r_min=0.02, r_max=r_max
            )
            prof = contraction_profile(
                rep, space, sampler, 500, horizon=16.0 * r_max, seed=seed,
                extra_pairs=extra,
            )
            if prof.classification == "bounded":
                best = max(best, prof.constant)
            else:
                ok = False
        table[label] = 1.1 * max(best, 0.25)
        table[f"{label}__bounded"] = ok
    return table


# -- criteria -------------------------------------------------------------------

# (key, criterion) in the order of definition
CRITERIA: list[tuple[str, Callable[[SuiteContext], CriterionResult]]] = []


def criterion(key: str, title: str, gate_s: Optional[float] = None):
    """Register a check returning (passed, details) as a criterion, which
    times it with ``time.perf_counter`` and fails it past gate_s seconds."""

    def register(check):
        @functools.wraps(check)
        def run(ctx: SuiteContext) -> CriterionResult:
            t0 = time.perf_counter()
            with shared_products():
                passed, details = check(ctx)
            elapsed = time.perf_counter() - t0
            ok = bool(passed) and (gate_s is None or elapsed < gate_s)
            return CriterionResult(key, title, ok, elapsed, details)

        CRITERIA.append((key, run))
        return run

    return register


@criterion("products-X", "exact boundary products in X:16 (values i and 0)", 5.0)
def criterion_products_X(ctx: SuiteContext):
    z = ctx.zoo("X:16")
    failures = []
    for i in range(1, 17):
        for side in ("alpha", "beta"):
            est = boundary_gromov_product(z.boundary[side], z.boundary[f"g{i}"])
            if not est.converged or est.value != float(i):
                failures.append((side, i, est.value))
    est = boundary_gromov_product(z.boundary["alpha"], z.boundary["beta"])
    if not est.converged or est.value != 0.0:
        failures.append(("alpha", "beta", est.value))
    return not failures, {"failures": failures}


@criterion("products-Y", "exact boundary products in Y:16 (alpha 0, beta i)")
def criterion_products_Y(ctx: SuiteContext):
    z = ctx.zoo("Y:16")
    failures = []
    for i in range(3, 17):
        ea = boundary_gromov_product(z.boundary["alpha"], z.boundary[f"g{i}"])
        eb = boundary_gromov_product(z.boundary["beta"], z.boundary[f"g{i}"])
        if not ea.converged or ea.value != 0.0:
            failures.append(("alpha", i, ea.value))
        if not eb.converged or eb.value != float(i):
            failures.append(("beta", i, eb.value))
    return not failures, {"failures": failures}


@criterion("nonhausdorff-X", "sequence converges to both points; I(r) = ceil(r)")
def criterion_nonhausdorff_X(ctx: SuiteContext):
    z = ctx.zoo("X:16")
    seq = [z.boundary[f"g{i}"] for i in range(1, 17)]
    wit = hausdorff_violation_witness(
        [z.boundary["alpha"], z.boundary["beta"]], seq, [1, 2, 4, 8]
    )
    ok = wit is not None and {wit[0].label, wit[1].label} == {"alpha", "beta"}
    radii = list(range(1, 16)) + [2.5, 7.5]
    rep = converges_in_gp(seq, z.boundary["alpha"], radii)
    table = {}
    for r, first, _ in rep.rows:
        table[r] = first
        if first != math.ceil(r):
            ok = False
    return ok, {"witness": wit and (wit[0].label, wit[1].label),
                "first_indices": table}


@criterion(
    "discontinuity", "identity and shear pairings discontinuous at alpha, r=1", 30.0
)
def criterion_discontinuity(ctx: SuiteContext):
    zx, zy = ctx.zoo("X:16"), ctx.zoo("Y:16")
    cert1 = boundary_map_continuity_test(
        None, zx, zy, [f"g{i}" for i in range(3, 17)], "alpha", 1.0
    )
    zc, zyc = ctx.zoo("Xcat0:12"), ctx.zoo("Ycat0:12")
    cert2 = boundary_map_continuity_test(
        None, zc, zyc, [f"g{i}" for i in range(1, 13)], "alpha", 1.0
    )
    top = max(v for cert in (cert1, cert2) for _, v in cert.image_products)
    ok = cert1.discontinuous and cert2.discontinuous and top <= 0.5
    return ok, {"glued": cert1.verdict, "annulus": cert2.verdict, "max_image_product": top}


@criterion(
    "kernel-vs-oracle", "closed form within 2% of mesh oracle; branch continuity", 60.0
)
def criterion_kernel_vs_oracle(ctx: SuiteContext):
    space = AnnulusSpace()
    rng = np.random.default_rng(ctx.seed)
    worst = undershoot = 0.0
    for _ in range(100):
        ta, tb = rng.uniform(-20.0, 20.0, 2)
        ra, rb = np.exp(rng.uniform(0.0, math.log(50.0), 2))
        p, q = space.pt(ta, max(1.0, ra)), space.pt(tb, max(1.0, rb))
        exact = space.distance(p, q)
        if exact < 1e-9:
            continue
        oracle = mesh_oracle_distance(p, q, h=0.01)
        rel = (oracle - exact) / exact
        worst = max(worst, rel)
        undershoot = min(undershoot, rel)
    # continuity of the two branch formulas across the case boundary
    max_gap = 0.0
    for _ in range(100):
        rp, rq = np.exp(rng.uniform(0.0, math.log(50.0), 2))
        rp, rq = max(1.0, rp), max(1.0, rq)
        delta = math.acos(min(1.0, 1.0 / rp)) + math.acos(min(1.0, 1.0 / rq))
        tangent = (
            math.sqrt(max(rp * rp - 1.0, 0.0))
            + math.sqrt(max(rq * rq - 1.0, 0.0))
        )
        chord = math.hypot(rp - rq, 2.0 * math.sqrt(rp * rq) * math.sin(0.5 * delta))
        max_gap = max(max_gap, abs(tangent - chord))
    ok = worst <= 0.02 and undershoot >= -1e-9 and max_gap <= 1e-9
    return ok, {"worst_rel": worst, "min_rel": undershoot, "case_boundary_gap": max_gap}


@criterion("alpha-strong-annulus", "max joint projection diameter <= pi + 0.01")
def criterion_strong_contraction_alpha(ctx: SuiteContext):
    z = ctx.zoo("Xcat0:12")
    space = z.space
    alpha = z.boundary["alpha"].canonical
    sampler = profile_pair_sampler(space, alpha, horizon=60.0, r_min=0.02, r_max=512.0)
    prof = contraction_profile(
        alpha, space, sampler, 10_000, horizon=2048.0, seed=ctx.seed,
        extra_pairs=alpha_extremal_pairs(space),
    )
    worst = max(float(v) for v in prof.bins.values())
    ok = worst <= math.pi + 0.01 and prof.classification == "bounded"
    return ok, {"max_diam": worst, "classification": prof.classification,
                "constant": prof.constant}


@criterion("products-Xcat0", "annulus products within 0.5 of the branch index")
def criterion_products_Xcat0(ctx: SuiteContext):
    z = ctx.zoo("Xcat0:12")
    failures = []
    for i in range(2, 13):
        est = boundary_gromov_product(z.boundary["alpha"], z.boundary[f"g{i}"])
        if not est.converged or not (i - 0.5 <= est.value <= i + 0.5):
            failures.append((i, est.value, est.status))
    return not failures, {"failures": failures}


@criterion("isolation-Ycat0", "vertical-family products and isolation radii")
def criterion_isolation_Ycat0(ctx: SuiteContext):
    z = ctx.zoo("Ycat0:14")
    failures = []
    estimates: dict = {}
    labels = ["alpha", "beta"] + [f"g{i}" for i in range(1, 15)]
    for i in range(1, 15):
        est = boundary_gromov_product(z.boundary["alpha"], z.boundary[f"g{i}"])
        estimates[("alpha", f"g{i}")] = est
        if not est.converged or est.value > 0.3:
            failures.append(("alpha", i, est.value))
    for i in range(1, 15):
        for j in range(i + 1, 15):
            est = boundary_gromov_product(z.boundary[f"g{i}"], z.boundary[f"g{j}"])
            estimates[(f"g{i}", f"g{j}")] = est
            want = 2.0 ** min(i, j) - 1.0
            if not est.converged or abs(est.value - want) > 1e-6:
                failures.append((i, j, est.value))
    # isolation: U(g_i, 2^i) contains exactly g_i within the built boundary
    for i in range(1, 15):
        members = []
        for lab in labels:
            verdict = u_set_membership(z.boundary[lab], z.boundary[f"g{i}"], 2.0 ** i)
            if verdict.state == "in":
                members.append(lab)
        if members != [f"g{i}"]:
            failures.append(("isolation", i, members))
    return not failures, {"failures": failures[:5]}


@criterion("claim-residuals", "escape-time residual bounds (12C/13C/13C/50C/62C)")
def criterion_claim_residuals(ctx: SuiteContext):
    z = ctx.zoo("Xcat0:12")
    table = ctx.constants("Xcat0:12")
    labels = ["alpha", "beta"] + [f"g{i}" for i in range(1, 13)]
    violations = []
    checked = 0
    for e_lab in labels:
        for z_lab in labels:
            if e_lab == z_lab:
                continue
            C_eta, C_zeta = table[e_lab], table[z_lab]
            rep = claim_check(
                z.boundary[e_lab].representatives(),
                z.boundary[z_lab].representatives(),
                C_eta, C_zeta, claim_horizon(C_eta),
            )
            checked += 1
            if not rep.passed:
                violations.append((e_lab, z_lab, rep.violations))
    return not violations, {
        "pairs_checked": checked, "violations": violations[:5],
        "all_classes_bounded": all(table[f"{lab}__bounded"] for lab in labels),
    }


@criterion("basis-condition", "refinement radii give nested product neighborhoods")
def criterion_basis_condition(ctx: SuiteContext):
    failures = []
    for name in ("Xcat0:12", "Ycat0:12"):
        z = ctx.zoo(name)
        table = ctx.constants(name)
        pts = z.boundary_points()
        for eta in pts:
            for r in (1.0, 2.0, 4.0, 8.0):
                rep = neighborhood_basis_check(eta, r, pts, table)
                if not rep.passed:
                    failures.append((name, eta.label, r, rep.violations))
    return not failures, {"failures": failures[:5]}


@criterion("git-suite", "far segments project to diameter <= 4C")
def criterion_git_suite(ctx: SuiteContext):
    alpha = ctx.zoo("Xcat0:12").boundary["alpha"].canonical
    C = math.pi
    passed, worst, rejected = far_segment_suite(alpha, C, 1000, ctx.seed)
    return passed == 1000 and worst <= 4 * C, {
        "segments": passed, "worst_diam": worst, "bound": 4 * C,
        "rejected_proposals": rejected,
    }


@criterion("log-profile-X", "gauge of the glued boundary ray grows logarithmically")
def criterion_log_profile(ctx: SuiteContext):
    z = ctx.zoo("X:14")
    space = z.space
    alpha = space.edge_ray("alpha")
    witnesses = [
        (space.point(f"g{i}", 0), space.point("beta", i)) for i in range(4, 15)
    ]
    sampler = profile_pair_sampler(space, alpha, horizon=2 ** 14)
    prof = contraction_profile(
        alpha, space, sampler, 300, horizon=2 ** 16, seed=ctx.seed,
        extra_pairs=witnesses,
    )
    failures = []
    for i in range(4, 15):
        val = prof.bins.get(i)
        if val is None or val < i:
            failures.append((i, val))
        elif not (0.5 <= float(val) / i <= 2.5):
            failures.append((i, float(val)))
    ok = not failures and prof.classification == "sublinear"
    return ok, {"classification": prof.classification,
                "per_doubling": prof.growth_per_doubling, "failures": failures}


@criterion("parser", "shipped descriptions, round-trips, and diagnostics")
def criterion_parser(ctx: SuiteContext):
    details: dict = {}
    ok = True
    for name, builder in (("X.space", "X:16"), ("Y.space", "Y:16")):
        text = files("boundary_lab").joinpath(f"spaces/{name}").read_text()
        compiled = compile_space(parse_space(text))
        built = ctx.zoo(builder).space
        same = compiled.describe() == built.describe()
        details[name] = same
        ok = ok and same
    rng = random.Random(ctx.seed)
    roundtrips = 0
    for _ in range(50):
        desc = _random_description(rng)
        try:
            rc = compile_space(parse_space(desc))
        except SpaceParseError:
            continue
        again = compile_space(parse_space(serialize_space(rc)))
        if again.describe() != rc.describe():
            ok = False
            details["roundtrip_failure"] = desc
            break
        roundtrips += 1
    details["roundtrips"] = roundtrips
    codes = {}
    fixtures = {
        "E_SYNTAX": "ray\n",
        "E_UNDECLARED": "ray a\nglue a:0 b:0\nbase a:0\n",
        "E_LENGTH_NONPOSITIVE": "ray a\nseg s -3\nglue a:0 s:0\nbase a:0\n",
        "E_NO_BASEPOINT": "ray a\nray b\nglue a:0 b:0\n",
        "E_DISCONNECTED": "ray a\nray b\nbase a:0\n",
    }
    for want, text in fixtures.items():
        try:
            compile_space(parse_space(text))
            codes[want] = "no error"
            ok = False
        except SpaceParseError as err:
            codes[want] = err.code
            ok = ok and err.code == want
    details["codes"] = codes
    return ok and roundtrips >= 40, details


def _random_description(rng: random.Random) -> str:
    lines = ["ray r0"]
    n_seg = rng.randint(1, 4)
    for k in range(n_seg):
        lines.append(f"seg s{k} {rng.randint(1, 9)}")
    lines.append("base r0:0")
    anchors = ["r0:0"]
    for k in range(n_seg):
        lines.append(f"glue s{k}:0 {anchors[rng.randrange(len(anchors))]}")
        anchors.append(f"s{k}:{rng.randint(1, 1)}")
    if rng.random() < 0.5:
        lines.append("repeat j=1..2 {")
        lines.append("  ray t{j}")
        lines.append("  glue t{j}:0 r0:j")
        lines.append("}")
    return "\n".join(lines) + "\n"


@criterion("property-suites", "axioms, idempotence, symmetry, determinism", 120.0)
def criterion_property_suites(ctx: SuiteContext):
    zx = ctx.zoo("X:8")
    zc = ctx.zoo("Xcat0:8")
    details: dict = {}
    ok = True

    rep = metric_axiom_check(zx.space, rc_point_sampler(zx.space, 2 ** 9), 1000, ctx.seed)
    details["rc_axioms"] = rep.to_dict()
    ok &= rep.passed(0)

    rep2 = metric_axiom_check(
        zc.space, annulus_point_sampler(zc.space, -20.0, 20.0, 50.0), 1000, ctx.seed
    )
    details["annulus_axioms"] = rep2.to_dict()
    ok &= rep2.passed(1e-9)

    # projection idempotence over both engines
    rng = random.Random(ctx.seed)
    alpha_rc = zx.space.edge_ray("alpha")
    sample_rc = rc_point_sampler(zx.space, 2 ** 9)
    alpha_ann = zc.boundary["alpha"].canonical
    sample_ann = annulus_point_sampler(zc.space, -20.0, 20.0, 50.0)
    worst_idem = 0.0
    for _ in range(60):
        x = sample_rc(rng)
        for ray, lo, hi in project(x, alpha_rc, horizon=2 ** 10).intervals:
            for par in (lo, hi):
                again = project(ray.eval(par), ray, horizon=2 ** 10)
                worst_idem = max(worst_idem, float(again.distance))
        y = sample_ann(rng)
        for ray, lo, hi in project(y, alpha_ann, horizon=200.0).intervals:
            for par in (lo, hi):
                again = project(ray.eval(par), ray, horizon=200.0)
                worst_idem = max(worst_idem, float(again.distance))
    details["projection_idempotence"] = worst_idem
    ok &= worst_idem <= 1e-6

    # product symmetry
    sym_exact = True
    for i in (2, 5, 8):
        ab = boundary_gromov_product(zx.boundary["alpha"], zx.boundary[f"g{i}"])
        ba = boundary_gromov_product(zx.boundary[f"g{i}"], zx.boundary["alpha"])
        sym_exact &= ab.value == ba.value
    sym_float = True
    for i in (2, 5, 8):
        ab = boundary_gromov_product(zc.boundary["alpha"], zc.boundary[f"g{i}"])
        ba = boundary_gromov_product(zc.boundary[f"g{i}"], zc.boundary["alpha"])
        sym_float &= abs(ab.value - ba.value) <= 1e-9
    details["product_symmetry"] = {"exact": sym_exact, "annulus": sym_float}
    ok &= sym_exact and sym_float

    # determinism: same seed, same profile twice
    sampler = profile_pair_sampler(zc.space, alpha_ann, horizon=40.0, r_max=64.0)
    p1 = contraction_profile(alpha_ann, zc.space, sampler, 400, 300.0, seed=ctx.seed)
    p2 = contraction_profile(alpha_ann, zc.space, sampler, 400, 300.0, seed=ctx.seed)
    det = json.dumps(p1.to_rows(), sort_keys=True) == json.dumps(
        p2.to_rows(), sort_keys=True
    )
    details["determinism"] = det
    ok &= det

    return ok, details


def run_suite(seed: int = 7, keys: Optional[list[str]] = None, echo=print):
    wanted = set(keys) if keys else None
    unknown = sorted(wanted - {key for key, _ in CRITERIA}) if wanted else []
    if unknown:
        raise DomainError(f"unknown criteria {', '.join(map(repr, unknown))}")
    ctx = SuiteContext(seed=seed)
    results = []
    for key, fn in CRITERIA:
        if wanted and key not in wanted:
            continue
        res = fn(ctx)
        results.append(res)
        if echo:
            echo(res.line())
    return results
