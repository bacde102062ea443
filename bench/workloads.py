"""The four workloads: seeded op lists over the public API, with answer checks.

An op is one top-level call the workload makes (one product estimate, one
``claim_check``, one oracle query, one CLI command).  ``run`` makes the call
and is timed; ``check`` inspects the result afterwards, untimed, and returns
a canonical text of the exact output (hashed into the pass digest) or raises
``WrongAnswer``.  ``build`` makes every zoo space a pass uses, fresh, so no
cache on a space (``ZooSpace.c_table_cache``, ``RayComplex._base_table``)
survives into the next pass.

Inputs come only from the seed.  The seed picks points, radii, constants and
op order; op counts and problem sizes are fixed, so the amount of work in a
pass hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Layers are called through their modules, so that the traced run's wrappers
# (installed as module attributes) see the workload's own calls too.
from boundary_lab import boundary, cli, contraction, mesh_oracle, spacezoo, suite
from boundary_lab.annulus import AnnulusSpace
from boundary_lab.samplers import profile_pair_sampler


class WrongAnswer(Exception):
    """A call returned, but not the answer the paper's claims require."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[dict], object]
    check: Callable[[object], str]


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]  # what the workload imports, timed in set-up
    build: Callable[[], dict]
    ops: Callable[[int], list[Op]]


def _zoo(*specs: str) -> Callable[[], dict]:
    def build() -> dict:
        out = {}
        for spec in specs:
            fam, n = spec.split(":")
            out[spec] = getattr(spacezoo, f"build_{fam}")(int(n))
        return out

    return build


def _horizons(z) -> dict:
    return {"max_horizon": z.product_horizon, "min_horizon": z.product_min_horizon}


def _product_op(spec: str, eta: str, zeta: str, accept, want: str) -> Op:
    def run(s):
        z = s[spec]
        return boundary.boundary_gromov_product(
            z.boundary[eta], z.boundary[zeta], **_horizons(z)
        )

    def check(est):
        expect(
            est.converged and accept(est.value),
            f"{spec} ({eta}.{zeta}) = {est.value} ({est.status}), want {want}",
        )
        return f"{est.value!r} {est.schedule!r}"

    return Op("product", run, check)


def _exact(spec: str, eta: str, zeta: str, value: int) -> Op:
    return _product_op(
        spec, eta, zeta, lambda v: Fraction(v) == Fraction(value), str(value)
    )


# -- glued-topology --------------------------------------------------------------

def glued_topology_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [_exact("X:16", side, f"g{i}", i)
           for i in range(1, 17) for side in ("alpha", "beta")]
    ops.append(_exact("X:16", "alpha", "beta", 0))
    for i in range(3, 17):
        ops.append(_exact("Y:16", "alpha", f"g{i}", 0))
        ops.append(_exact("Y:16", "beta", f"g{i}", i))

    def seq(z):
        return [z.boundary[f"g{i}"] for i in range(1, 17)]

    def witness(s):
        z = s["X:16"]
        return boundary.hausdorff_violation_witness(
            [z.boundary["alpha"], z.boundary["beta"]], seq(z), [1, 2, 4, 8],
            **_horizons(z),
        )

    def check_witness(wit):
        labels = None if wit is None else {wit[0].label, wit[1].label}
        expect(labels == {"alpha", "beta"}, f"witness {labels}")
        return repr(sorted(labels))

    radii = list(range(1, 16)) + [round(rng.uniform(0.5, 15.5), 3) for _ in range(2)]

    def converge(s):
        z = s["X:16"]
        return boundary.converges_in_gp(
            seq(z), z.boundary["alpha"], radii, **_horizons(z)
        )

    def check_converge(rep):
        firsts = [(r, first) for r, first, _ in rep.rows]
        for r, first in firsts:
            expect(first == math.ceil(r), f"I({r}) = {first}, want {math.ceil(r)}")
        return repr(firsts)

    def continuity(s):
        zx, zy = s["X:16"], s["Y:16"]
        return boundary.boundary_map_continuity_test(
            None, zx, zy, [f"g{i}" for i in range(3, 17)], "alpha", 1.0,
            max_horizon_from=zx.product_horizon, max_horizon_to=zy.product_horizon,
            min_horizon_from=zx.product_min_horizon,
            min_horizon_to=zy.product_min_horizon,
        )

    def check_continuity(cert):
        expect(cert.verdict == "discontinuous", f"verdict {cert.verdict}")
        expect(all(v <= 0.5 for _, v in cert.image_products), "image product > 0.5")
        return repr((cert.verdict, cert.image_products, cert.outside_indices))

    def profile(s):
        space = s["X:14"].space
        alpha = space.edge_ray("alpha")
        witnesses = [
            (space.point(f"g{i}", 0), space.point("beta", i)) for i in range(4, 15)
        ]
        sampler = profile_pair_sampler(space, alpha, horizon=2 ** 14)
        return contraction.contraction_profile(
            alpha, space, sampler, 300, horizon=2 ** 16, seed=seed,
            extra_pairs=witnesses,
        )

    def check_profile(prof):
        # The witnesses pin the gauge between i and 2.5 i at radius 2^i.  The
        # sublinear/bounded label is not checked: on the seed code it depends
        # on the sampling seed at this size (bounded for seeds 4, 5, 6, 9).
        for i in range(4, 15):
            val = prof.bins.get(i)
            expect(val is not None and i <= val <= 2.5 * i, f"gauge at 2^{i} is {val}")
        return repr((prof.classification, sorted(prof.bins.items())))

    ops += [
        Op("witness", witness, check_witness),
        Op("converge", converge, check_converge),
        Op("continuity", continuity, check_continuity),
        Op("profile", profile, check_profile),
    ]
    rng.shuffle(ops)
    return ops


# -- annulus-claims --------------------------------------------------------------

CLAIM_SPACE = "Xcat0:8"
CLAIM_LABELS = ["alpha", "beta"] + [f"g{i}" for i in range(1, 9)]
CLAIM_ESCAPES = 10  # standalone escape queries on top of the 90 claim checks
# Sampling seed of the class constants: the default of `boundary-lab claim`
# and of the acceptance suite.  Not the workload seed: on the seed code some
# seeds (4 among 1..5) certify neither representative of a class as bounded,
# the constant falls to its 0.275 floor, and claim_check rejects that class's
# pairs with DomainError because the rays start more than 2C apart.
CONSTANTS_SEED = 7


def annulus_claims_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)

    def constants(s):
        s["c_table"] = suite.class_constants(s[CLAIM_SPACE], CONSTANTS_SEED)
        return s["c_table"]

    def check_constants(table):
        for lab in CLAIM_LABELS:
            c = table[lab]
            expect(math.isfinite(c) and c > 0, f"C({lab}) = {c}")
        return repr(sorted(table.items()))

    def claim(eta, zeta):
        def run(s):
            z, table = s[CLAIM_SPACE], s["c_table"]
            return contraction.claim_check(
                z.boundary[eta].representatives(), z.boundary[zeta].representatives(),
                table[eta], table[zeta], 50.0 * table[eta] + 100.0,
            )

        def check(rep):
            expect(rep.passed, f"({eta}, {zeta}) residuals over bound: {rep.violations}")
            return repr((
                rep.residual_product_vs_t, rep.residual_t_under_eta_change,
                rep.residual_t_under_zeta_change, rep.residual_product_spread,
                rep.residual_t_vs_boundary_product, sorted(rep.escape_times.items()),
            ))

        return Op("claim", run, check)

    def escape(eta, zeta, i, j):
        def run(s):
            z, C = s[CLAIM_SPACE], s["c_table"][eta]
            a = z.boundary[eta].representatives()[i]
            b = z.boundary[zeta].representatives()[j]
            return a, b, contraction.t_first_escape(a, b, C, 50.0 * C + 100.0)

        def check(result):
            a, b, et = result
            d = contraction.ray_distance(b.eval(et.value), a)[0]
            expect(abs(d - et.level) <= 1e-6, f"d(beta(T), alpha) = {d}, not {et.level}")
            return repr((et.value, et.bracket))

        return Op("escape", run, check)

    pairs = [(e, z) for e in CLAIM_LABELS for z in CLAIM_LABELS if e != z]
    ops = [claim(e, z) for e, z in pairs]
    for e, z in rng.sample(pairs, CLAIM_ESCAPES):
        ops.append(escape(e, z, rng.randrange(2), rng.randrange(2)))
    rng.shuffle(ops)
    # every other op reads the constants table
    return [Op("class_constants", constants, check_constants)] + ops


# -- annulus-metric --------------------------------------------------------------

ORACLE_QUERIES = 100
ORACLE_H = 0.01


def _oracle_pairs(rng: random.Random) -> list[tuple[float, float, float, float]]:
    """Query endpoints (t_a, r_a, t_b, r_b).  The angle spans and the larger
    radii are fixed strata, since the oracle's cost grows with both; the seed
    places and orients each pair and draws the smaller radius."""
    out = []
    for k in range(ORACLE_QUERIES):
        span = 0.4 + 29.6 * (k + 0.5) / ORACLE_QUERIES
        stratum = ((k * 37) % ORACLE_QUERIES + 0.5) / ORACLE_QUERIES
        r_hi = math.exp(math.log(50.0) * stratum)
        r_lo = math.exp(rng.uniform(0.0, math.log(r_hi)))
        ta = rng.uniform(-20.0, 20.0)
        tb = ta + span * rng.choice((-1.0, 1.0))
        ra, rb = (r_hi, r_lo) if rng.random() < 0.5 else (r_lo, r_hi)
        out.append((ta, ra, tb, rb))
    rng.shuffle(out)
    return out


def annulus_metric_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    n = 14
    spec = f"Ycat0:{n}"
    for i in range(1, n + 1):
        ops.append(_product_op(spec, "alpha", f"g{i}", lambda v: v <= 0.3, "<= 0.3"))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            want = 2.0 ** min(i, j) - 1.0
            ops.append(_product_op(
                spec, f"g{i}", f"g{j}", lambda v, w=want: abs(v - w) <= 1e-6,
                f"{want} +- 1e-6",
            ))
    labels = ["alpha", "beta"] + [f"g{i}" for i in range(1, n + 1)]

    def membership(lab, i):
        def run(s):
            z = s[spec]
            return boundary.u_set_membership(
                z.boundary[lab], z.boundary[f"g{i}"], 2.0 ** i, **_horizons(z)
            )

        def check(verdict):
            inside = verdict.state == "in"
            expect(inside == (lab == f"g{i}"),
                   f"{lab} in U(g{i}, 2^{i}): {verdict.state}")
            return f"{verdict.state} {verdict.estimate.value!r}"

        return Op("membership", run, check)

    ops += [membership(lab, i) for i in range(1, n + 1) for lab in labels]
    for i in range(2, 13):
        ops.append(_product_op(
            "Xcat0:12", "alpha", f"g{i}", lambda v, i=i: abs(v - i) <= 0.5,
            f"{i} +- 0.5",
        ))

    def certificate(s):
        zc, zy = s["Xcat0:12"], s["Ycat0:12"]
        return boundary.boundary_map_continuity_test(
            None, zc, zy, [f"g{i}" for i in range(1, 13)], "alpha", 1.0,
            max_horizon_from=zc.product_horizon, max_horizon_to=zy.product_horizon,
            min_horizon_from=zc.product_min_horizon,
            min_horizon_to=zy.product_min_horizon,
        )

    def check_certificate(cert):
        expect(cert.verdict == "discontinuous", f"verdict {cert.verdict}")
        expect(all(v <= 0.5 for _, v in cert.image_products), "image product > 0.5")
        return repr((cert.verdict, cert.image_products, cert.outside_indices))

    ops.append(Op("certificate", certificate, check_certificate))

    def oracle(ta, ra, tb, rb):
        def run(s):
            space = s["annulus"]
            p, q = space.pt(ta, ra), space.pt(tb, rb)
            approx = mesh_oracle.mesh_oracle_distance(p, q, h=ORACLE_H)
            return space.distance(p, q), approx

        def check(result):
            exact, approx = result
            gap = (approx - exact) / exact
            expect(-1e-9 <= gap <= 0.02, f"oracle gap {gap} at {(ta, ra, tb, rb)}")
            return repr(result)

        return Op("oracle", run, check)

    ops += [oracle(*pair) for pair in _oracle_pairs(rng)]
    rng.shuffle(ops)
    return ops


def _annulus_metric_build() -> dict:
    spaces = _zoo("Ycat0:14", "Xcat0:12", "Ycat0:12")()
    spaces["annulus"] = AnnulusSpace()
    return spaces


# -- cli-cold --------------------------------------------------------------------

SPACE_FILES = ("src/boundary_lab/spaces/X.space", "src/boundary_lab/spaces/Y.space")


def _rational(rng: random.Random, top: int) -> str:
    return str(Fraction(rng.randint(0, 4 * top), 4))


def _glued_point(rng: random.Random, fam: str, n: int) -> str:
    """A point literal on an edge that exists in X:n / Y:n."""
    lo = 1 if fam == "X" else 3
    i = rng.randint(lo, n)
    kind = rng.choice(("alpha", "beta", "g", "ca", "cb", "base"))
    if kind == "base":
        return "base"
    if kind in ("alpha", "beta"):
        return f"{kind}:{_rational(rng, 2 * n)}"
    if kind == "g":
        return f"g{i}:{_rational(rng, 64)}"
    length = 2 ** i if (kind == "ca" or fam == "X") else 2 ** i - 2 * i
    return f"{kind}{i}:{_rational(rng, min(length, 1 << 20))}"


def _annulus_point(rng: random.Random, n: int) -> str:
    kind = rng.choice(("ann", "alpha", "beta", "g"))
    if kind == "ann":
        return f"ann:{rng.uniform(-30, 30):.4f},{math.exp(rng.uniform(0, 6)):.4f}"
    if kind == "g":
        return f"g{rng.randint(1, n)}:{rng.uniform(0, 50):.4f}"
    return f"{kind}:{rng.uniform(0, 30):.4f}"


def _cli_op(argv: list[str], expected=None) -> Op:
    def run(s):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        expect(code == 0, f"exit {code}: {' '.join(argv)}: {text[:200]}")
        try:
            doc = json.loads(text)
        except ValueError as err:
            raise WrongAnswer(f"not JSON ({err}): {' '.join(argv)}") from None
        if expected is not None:
            expected(doc)
        return text

    return Op(f"cli.{argv[0]}", run, check)


def _want(key: str, value, tol: float = 0.0):
    def check(doc):
        got = doc[key]
        expect(abs(got - value) <= tol, f"{key} = {got}, want {value}")

    return check


def cli_cold_ops(seed: int) -> list[Op]:
    """A fixed count of each command per space; the seed draws the points,
    labels and constants.  Choices that would change a call's cost (one or
    two projection targets, the escape constant) are fixed per slot."""
    rng = random.Random(seed)
    ops = []
    for fam in ("X", "Y"):
        lo = 1 if fam == "X" else 3
        for n in (8, 16, 32, 64):
            space = f"{fam}:{n}"
            for _ in range(4):
                ops.append(_cli_op(["dist", "--space", space,
                                    "--from", _glued_point(rng, fam, n),
                                    "--to", _glued_point(rng, fam, n)]))
            for _ in range(3):
                ops.append(_cli_op(["gromov", "--space", space,
                                    "--x", _glued_point(rng, fam, n),
                                    "--y", _glued_point(rng, fam, n),
                                    "--z", _glued_point(rng, fam, n)]))
            single = rng.choice(("alpha", "beta", f"g{rng.randint(lo, n)}"))
            for target in ("alpha,beta", single):
                ops.append(_cli_op(["project", "--space", space,
                                    "--point", _glued_point(rng, fam, n),
                                    "--target", target]))
            if n > 16:
                continue
            for eta in ("alpha", "alpha", "beta", "beta"):
                k = rng.randint(lo, n)
                value = 0 if (fam, eta) == ("Y", "alpha") else k
                ops.append(_cli_op(
                    ["bproduct", "--space", space, "--eta", eta, "--zeta", f"g{k}"],
                    _want("value", value),
                ))
    for n in (8, 12, 16):
        for fam in ("Xcat0", "Ycat0"):
            space = f"{fam}:{n}"
            for _ in range(5):
                ops.append(_cli_op(["dist", "--space", space,
                                    "--from", _annulus_point(rng, n),
                                    "--to", _annulus_point(rng, n)]))
            g = f"g{rng.randint(1, n)}"
            for a, b, c in (("alpha", "beta", 1.0), ("alpha", g, 2.0), (g, "alpha", 3.0)):
                c = round(c * rng.uniform(0.95, 1.05), 4)
                check = _want("value", 2 * c, 1e-6) if b == "beta" else None
                ops.append(_cli_op(["escape", "--space", space, "--alpha", a,
                                    "--beta", b, "--c", str(c), "--horizon", "100"],
                                   check))
        for _ in range(4):
            ops.append(_cli_op(["spiral", "--from-space", f"Xcat0:{n}",
                                "--to-space", f"Ycat0:{n}",
                                "--point", _annulus_point(rng, n)]))
    for path, edges in zip(SPACE_FILES, (50, 44)):
        for canonical in (True, False, True):
            argv = ["parse", "--file", path] + (["--emit-canonical"] if canonical else [])
            ops.append(_cli_op(argv, _want("edges", edges)))
    rng.shuffle(ops)
    return ops


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("glued-topology", ("boundary_lab", "boundary_lab.samplers"),
                 _zoo("X:16", "Y:16", "X:14"), glued_topology_ops),
        Workload("annulus-claims", ("boundary_lab.suite",),
                 _zoo(CLAIM_SPACE), annulus_claims_ops),
        Workload("annulus-metric", ("boundary_lab",),
                 _annulus_metric_build, annulus_metric_ops),
        Workload("cli-cold", ("boundary_lab.cli",), dict, cli_cold_ops),
    )
}
