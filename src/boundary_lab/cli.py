"""Command-line front end.

Every command prints one deterministic JSON document (or CSV with
--format csv where row output makes sense) and exits 0 on success/pass,
1 when a checked property fails (the failure artifact is still printed),
and 2 on usage or build errors.  --help writes its text to stderr and a
``help@1`` JSON stub to stdout.  Sampling commands require --seed and are
reproducible from (argv, seed); --jobs only parallelizes trial chunks,
the merged output is identical for any job count.  A call parses with the
subparser of its command only (see ``build_parser``).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from fractions import Fraction

from . import spacezoo
from .annulus import SpiralMap
from .boundary import (
    boundary_gromov_product,
    boundary_map_continuity_test,
    converges_in_gp,
)
from .contraction import (
    RESIDUAL_BOUNDS,
    claim_check,
    contraction_profile,
    far_segment_suite,
    neighborhood_basis_check,
    project,
    t_first_escape,
)
from .dsl import compile_space, parse_space, serialize_space
from .errors import BoundaryLabError, DomainError, SpaceParseError
from .mesh_oracle import MAX_RADIUS
from .metric import gromov_product
from .points import AnnulusPoint, Point
from .ray_complex import RayComplex
from .reports import write_csv, write_json
from .samplers import profile_pair_sampler
from .suite import class_constants, run_suite

PROFILE_CHUNK = 250
# options that fall back to a default when absent and must be > 0 when given
POSITIVE_OPTIONS = ("horizon", "c_eta", "c_zeta", "jobs")


def _number(conv, text: str, literal: str):
    """conv(text), finite, or a syntax error naming the literal it came from."""
    try:
        value = conv(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(text)
    except (ValueError, ZeroDivisionError):
        raise SpaceParseError("E_SYNTAX", f"bad number {text!r} in {literal!r}") from None
    return value


def _coordinate(text: str, literal: str) -> float:
    """An annulus coordinate of at most ``MAX_RADIUS`` in absolute value:
    above it, the kernel's squared radii and summed lengths overflow."""
    value = _number(float, text, literal)
    if abs(value) > MAX_RADIUS:
        raise DomainError(
            f"coordinate {text!r} in {literal!r} is above MAX_RADIUS = {MAX_RADIUS:g}"
        )
    return value


def parse_point(space, text: str) -> Point:
    """Point literals: `base`, `<edge>:<param>` (rationals as p/q), or
    `ann:<t>,<r>` for raw annulus coordinates."""
    if text == "base":
        return space.basepoint
    name, colon, par = text.partition(":")
    if not colon:
        raise SpaceParseError("E_SYNTAX", f"bad point literal {text!r}")
    if isinstance(space, RayComplex):
        return space.point(name, _number(Fraction, par, text))
    if name == "ann":
        t, _, r = par.partition(",")
        return space.pt(_coordinate(t, text), _coordinate(r, text))
    s = _coordinate(par, text)
    if name == "alpha":
        return space.pt(s, 1.0)
    if name == "beta":
        return space.pt(-s, 1.0)
    return space.ray_pt(name, s)


def resolve_ray(zoo, label: str):
    if isinstance(zoo.space, RayComplex):
        return zoo.space.edge_ray(label)
    return zoo.boundary[label].canonical


def _estimate_payload(est) -> dict:
    return {
        "value": est.value,
        "status": est.status,
        "schedule": list(est.schedule),
        "window_minima": list(est.window_minima),
        "error_bar": est.error_bar,
    }


def cmd_dist(args) -> tuple[int, dict]:
    zoo = spacezoo.get_space(args.space)
    p = parse_point(zoo.space, getattr(args, "from"))
    q = parse_point(zoo.space, args.to)
    return 0, {"schema": "distance@1", "distance": zoo.space.distance(p, q)}


def cmd_gromov(args) -> tuple[int, dict]:
    zoo = spacezoo.get_space(args.space)
    x = parse_point(zoo.space, args.x)
    y = parse_point(zoo.space, args.y)
    z = parse_point(zoo.space, args.z)
    value = gromov_product(x, y, z, zoo.space)
    return 0, {"schema": "gromov_product@1", "value": value}


def cmd_project(args) -> tuple[int, dict]:
    zoo = spacezoo.get_space(args.space)
    x = parse_point(zoo.space, args.point)
    # each label once: ray-complex labels resolve to a new ray each time
    labels = dict.fromkeys(args.target.split(","))
    rays = [resolve_ray(zoo, lab) for lab in labels]
    horizon = zoo.sweep_horizon if args.horizon is None else args.horizon
    res = project(x, rays, horizon, tol=args.tol)
    return 0, {
        "schema": "projection@1",
        "space": zoo.space_id,
        "distance": res.distance,
        "intervals": [
            {"ray": ray.label, "lo": lo, "hi": hi} for ray, lo, hi in res.intervals
        ],
        "diameter": res.diameter(zoo.space),
    }


def _profile_chunk(payload):
    zoo_spec, label, n, horizon, seed, chunk = payload
    zoo = spacezoo.get_space(zoo_spec)
    gamma = resolve_ray(zoo, label)
    sampler = profile_pair_sampler(zoo.space, gamma, horizon=horizon / 4)
    return contraction_profile(
        gamma, zoo.space, sampler, n, horizon, seed=seed * 7919 + chunk
    )


def cmd_profile(args) -> tuple[int, dict]:
    if args.n < 1:
        raise DomainError(f"--n must be >= 1, got {args.n}")
    zoo = spacezoo.get_space(args.space)
    horizon = zoo.sweep_horizon if args.horizon is None else args.horizon
    chunks = []
    remaining, idx = args.n, 0
    while remaining > 0:
        take = min(PROFILE_CHUNK, remaining)
        chunks.append((args.space, args.ray, take, horizon, args.seed, idx))
        remaining -= take
        idx += 1
    workers = min(args.jobs, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_profile_chunk, chunks))
    else:
        parts = [_profile_chunk(c) for c in chunks]
    profile = parts[0]
    for part in parts[1:]:
        profile = profile.merge(part)
    payload = {
        "schema": "contraction_profile@1",
        "space": zoo.space_id,
        "ray": args.ray,
        "samples": profile.samples,
        "classification": profile.classification,
        "constant": profile.constant,
        "growth_per_doubling": profile.growth_per_doubling,
        "rows": profile.to_rows(),
    }
    return 0, payload


def cmd_git(args) -> tuple[int, dict]:
    zoo = spacezoo.get_space(args.space)
    if isinstance(zoo.space, RayComplex):
        raise BoundaryLabError("the far-segment suite runs on annulus spaces")
    C = args.c
    gamma = resolve_ray(zoo, args.ray)
    done, worst, _ = far_segment_suite(gamma, C, args.n, args.seed)
    passed = done == args.n and worst <= 4 * C
    return (0 if passed else 1), {
        "schema": "git_suite@1",
        "space": zoo.space_id,
        "segments": done,
        "worst_diameter": worst,
        "bound": 4 * C,
        "passed": passed,
        "replay": {"seed": args.seed, "n": args.n, "c": C},
    }


def cmd_escape(args) -> tuple[int, dict]:
    zoo = spacezoo.get_space(args.space)
    alpha = resolve_ray(zoo, args.alpha)
    beta = resolve_ray(zoo, args.beta)
    horizon = zoo.sweep_horizon if args.horizon is None else args.horizon
    et = t_first_escape(alpha, beta, args.c, horizon)
    return 0, {
        "schema": "escape_time@1",
        "space": zoo.space_id,
        "value": et.value,
        "constant": et.constant,
        "bracket": list(et.bracket),
    }


def cmd_claim(args) -> tuple[int, dict]:
    zoo = spacezoo.get_space(args.space)
    eta, zeta = zoo.boundary[args.eta], zoo.boundary[args.zeta]
    C_eta, C_zeta = args.c_eta, args.c_zeta
    if C_eta is None or C_zeta is None:
        table = class_constants(zoo, args.seed)
        C_eta = table[args.eta] if C_eta is None else C_eta
        C_zeta = table[args.zeta] if C_zeta is None else C_zeta
    horizon = 50.0 * C_eta + 100.0 if args.horizon is None else args.horizon
    rep = claim_check(
        eta.representatives(),
        zeta.representatives(),
        C_eta, C_zeta, horizon,
    )
    rows = [
        {"residual": name, "value": getattr(rep, f"residual_{name}"),
         "bound": k * rep.constant}
        for name, k in RESIDUAL_BOUNDS.items()
    ]
    payload = {
        "schema": "claim_report@1",
        "space": zoo.space_id,
        "rows": rows,
        "replay": {
            "space": args.space, "eta": args.eta, "zeta": args.zeta,
            "c_eta": C_eta, "c_zeta": C_zeta, "horizon": horizon,
            "seed": args.seed,
        },
        **asdict(rep),
    }
    return (0 if rep.passed else 1), payload


def cmd_basis(args) -> tuple[int, dict]:
    zoo = spacezoo.get_space(args.space)
    table = class_constants(zoo, args.seed)
    rep = neighborhood_basis_check(
        zoo.boundary[args.eta], args.r, zoo.boundary_points(), table,
        zoo.product_horizon, min_horizon=zoo.product_min_horizon,
    )
    payload = {
        "schema": "basis_report@1",
        "space": zoo.space_id,
        "replay": {"space": args.space, "eta": args.eta, "r": args.r,
                   "seed": args.seed},
        **asdict(rep),
    }
    return (0 if rep.passed else 1), payload


def cmd_bproduct(args) -> tuple[int, dict]:
    zoo = spacezoo.get_space(args.space)
    zetas = sorted(zoo.boundary) if args.zeta == "all" else [args.zeta]
    rows = []
    last = None
    for zeta in zetas:
        last = boundary_gromov_product(
            zoo.boundary[args.eta], zoo.boundary[zeta],
            max_horizon=zoo.product_horizon, min_horizon=zoo.product_min_horizon,
        )
        rows.append({"eta": args.eta, "zeta": zeta, "value": last.value,
                     "status": last.status})
    if args.zeta != "all":
        return 0, {
            "schema": "product_estimate@1",
            "space": zoo.space_id,
            "eta": args.eta,
            "zeta": args.zeta,
            "rows": rows,
            **_estimate_payload(last),
        }
    return 0, {
        "schema": "product_matrix@1",
        "space": zoo.space_id,
        "eta": args.eta,
        "rows": rows,
    }


def cmd_oracle(args) -> tuple[int, dict]:
    from .mesh_oracle import mesh_oracle_distance

    zoo = spacezoo.get_space(args.space)
    if isinstance(zoo.space, RayComplex):
        raise BoundaryLabError("the mesh oracle runs on annulus spaces")
    p = parse_point(zoo.space, getattr(args, "from"))
    q = parse_point(zoo.space, args.to)
    if not isinstance(p, AnnulusPoint) or not isinstance(q, AnnulusPoint):
        raise BoundaryLabError("the mesh oracle compares annulus points")
    oracle = mesh_oracle_distance(p, q, h=args.h)
    exact = zoo.space.distance(p, q)
    rel = (oracle - exact) / exact if exact else 0.0
    return 0, {
        "schema": "oracle_check@1",
        "space": zoo.space_id,
        "h": args.h,
        "closed_form": exact,
        "oracle": oracle,
        "relative_gap": rel,
    }


def cmd_converge(args) -> tuple[int, dict]:
    zoo = spacezoo.get_space(args.space)
    seq = [zoo.boundary[lab] for lab in args.sequence.split(",")]
    radii = [_number(float, r, args.radii) for r in args.radii.split(",")]
    rep = converges_in_gp(
        seq, zoo.boundary[args.eta], radii,
        max_horizon=zoo.product_horizon, min_horizon=zoo.product_min_horizon,
    )
    return 0, {
        "schema": "convergence_report@1",
        "space": zoo.space_id,
        "eta": rep.eta,
        "sequence": list(rep.sequence),
        "rows": [
            {"r": r, "first_index": first, "states": list(states)}
            for r, first, states in rep.rows
        ],
        "converges": rep.converges,
    }


def cmd_continuity(args) -> tuple[int, dict]:
    zf = spacezoo.get_space(args.from_space)
    zt = spacezoo.get_space(args.to_space)
    cert = boundary_map_continuity_test(
        None, zf, zt, args.sequence.split(","), args.eta, args.r,
        max_horizon_from=zf.product_horizon, max_horizon_to=zt.product_horizon,
        min_horizon_from=zf.product_min_horizon,
        min_horizon_to=zt.product_min_horizon,
    )
    payload = {
        "schema": "continuity_certificate@1",
        "verdict": cert.verdict,
        "eta": cert.eta,
        "image_eta": cert.image_eta,
        "r": cert.r,
        "space_from": cert.space_from,
        "space_to": cert.space_to,
        "upstream_first_indices": [
            {"r": r, "first_index": first} for r, first, _ in cert.upstream.rows
        ],
        "image_products": [
            {"label": lab, "value": val} for lab, val in cert.image_products
        ],
        "outside_indices": list(cert.outside_indices),
        "upstream_schedule": list(cert.upstream_schedule),
    }
    return 0, payload


def cmd_spiral(args) -> tuple[int, dict]:
    zf = spacezoo.get_space(args.from_space)
    zt = spacezoo.get_space(args.to_space)
    if isinstance(zf.space, RayComplex) or isinstance(zt.space, RayComplex):
        raise BoundaryLabError("the shear map runs between annulus spaces")
    m = SpiralMap(zf.space, zt.space)
    p = parse_point(zf.space if args.direction == "forward" else zt.space, args.point)
    q = m.map_point(p, args.direction)
    if isinstance(q, AnnulusPoint):
        image = {"kind": "annulus", "t": q.t, "r": q.r}
    else:
        image = {"kind": "attached", "ray": q.ray_id, "s": q.s}
    return 0, {
        "schema": "spiral_map@1",
        "direction": args.direction,
        "image": image,
    }


def cmd_parse(args) -> tuple[int, dict]:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    rc = compile_space(parse_space(text))
    return 0, {
        "schema": "parse_report@1",
        "space": rc.space_id,
        "edges": len(rc.edges),
        "lints": rc.lints,
        "canonical": serialize_space(rc) if args.emit_canonical else None,
    }


def cmd_paper_suite(args) -> tuple[int, dict]:
    keys = None if args.criteria == "all" else args.criteria.split(",")
    results = run_suite(seed=args.seed, keys=keys, echo=_eprint)
    payload = {
        "schema": "suite_report@1",
        "seed": args.seed,
        "results": [
            {
                "key": r.key,
                "title": r.title,
                "passed": r.passed,
                "elapsed_s": round(r.elapsed, 2),
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return (0 if payload["passed"] else 1), payload


def _eprint(*a):
    print(*a, file=sys.stderr)


class _Help(Exception):
    """--help was given; args[0] is the prog whose help went to stderr."""


# Options whose value is a comma-separated list of numbers.  argparse takes
# a value like "-1,3" for an option string, so the parser glues it to its
# flag ("--radii=-1,3") first.
LIST_OPTIONS = ("--radii",)
_NEGATIVE = re.compile(r"-[\d.]")


def _glue_lists(argv):
    out = []
    for arg in argv:
        if out and out[-1] in LIST_OPTIONS and _NEGATIVE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of exiting, so ``main`` reports them on
    stdout as JSON like any other rejected input (usage still goes to
    stderr).  Help also goes to stderr, and ``main`` prints a JSON stub.
    A negative list value may follow its flag (see ``LIST_OPTIONS``)."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        return super().parse_known_args(_glue_lists(args), namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        super().print_help(file or sys.stderr)

    def exit(self, status=0, message=None):  # reached only after --help
        raise _Help(self.prog)


REQUIRED = {"required": True}
FLOAT = {"type": float}
SEED = ("--seed", {"type": int, "required": True})

# name -> (handler, help, options); an option is (flag, add_argument keywords)
COMMANDS = {
    "dist": (cmd_dist, "distance between two points", (
        ("--space", REQUIRED), ("--from", REQUIRED), ("--to", REQUIRED),
    )),
    "gromov": (cmd_gromov, "three-point product at a basepoint", (
        ("--space", REQUIRED), ("--x", REQUIRED), ("--y", REQUIRED),
        ("--z", REQUIRED),
    )),
    "project": (cmd_project, "set-valued closest-point projection", (
        ("--space", REQUIRED), ("--point", REQUIRED),
        ("--target", {"required": True, "help": "comma-separated ray labels"}),
        ("--horizon", FLOAT), ("--tol", FLOAT),
    )),
    "profile": (cmd_profile, "contraction profile of a ray", (
        ("--space", REQUIRED), ("--ray", REQUIRED),
        ("--n", {"type": int, "default": 1000}), ("--horizon", FLOAT), SEED,
        ("--jobs", {"type": int, "default": 1}),
    )),
    "git": (cmd_git, "far-segment projection-diameter suite", (
        ("--space", REQUIRED), ("--ray", {"default": "alpha"}),
        ("--c", {"type": float, "default": math.pi}),
        ("--n", {"type": int, "default": 1000}), SEED,
    )),
    "escape": (cmd_escape, "last 2C-contact parameter of a ray pair", (
        ("--space", REQUIRED), ("--alpha", REQUIRED), ("--beta", REQUIRED),
        ("--c", {"type": float, "required": True}), ("--horizon", FLOAT),
    )),
    "claim": (cmd_claim, "escape-time residual bounds for two classes", (
        ("--space", REQUIRED), ("--eta", REQUIRED), ("--zeta", REQUIRED),
        ("--c-eta", FLOAT), ("--c-zeta", FLOAT), ("--horizon", FLOAT),
        ("--seed", {"type": int, "default": 7}),
    )),
    "basis": (cmd_basis, "neighborhood-basis refinement check", (
        ("--space", REQUIRED), ("--eta", REQUIRED),
        ("--r", {"type": float, "required": True}),
        ("--seed", {"type": int, "default": 7}),
    )),
    "bproduct": (cmd_bproduct, "extended product of two classes", (
        ("--space", REQUIRED), ("--eta", REQUIRED),
        ("--zeta", {"required": True, "help": "a label, or `all` for a matrix row"}),
    )),
    "oracle": (cmd_oracle, "mesh-oracle cross-check of the kernel", (
        ("--space", REQUIRED), ("--from", REQUIRED), ("--to", REQUIRED),
        ("--h", {"type": float, "default": 0.01}),
    )),
    "converge": (cmd_converge, "first stable index per radius", (
        ("--space", REQUIRED), ("--eta", REQUIRED), ("--sequence", REQUIRED),
        ("--radii", REQUIRED),
    )),
    "continuity": (cmd_continuity, "boundary-map continuity test", (
        ("--from-space", REQUIRED), ("--to-space", REQUIRED), ("--eta", REQUIRED),
        ("--sequence", REQUIRED), ("--r", {"type": float, "default": 1.0}),
    )),
    "spiral": (cmd_spiral, "shear quasi-isometry on a point", (
        ("--from-space", REQUIRED), ("--to-space", REQUIRED), ("--point", REQUIRED),
        ("--direction", {"choices": ("forward", "inverse"), "default": "forward"}),
    )),
    "parse": (cmd_parse, "parse and compile a .space file", (
        ("--file", REQUIRED), ("--emit-canonical", {"action": "store_true"}),
    )),
    "paper-suite": (cmd_paper_suite, "run the acceptance suite", (
        ("--criteria", {"default": "all"}),
        ("--seed", {"type": int, "default": 7}),
    )),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The argument parser; given a known command name, with that command's
    subparser only.  Without one (no argv, an unknown name, a top-level
    --help), every command is added, so errors and help list them all."""
    ap = _Parser(
        prog="boundary-lab",
        description="exact and numerical lab for contracting rays, Gromov "
        "products, and boundary topology on two families of geodesic spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, help_, options) in COMMANDS.items():
        if command in COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON/CSV artifact here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, kw in options:
            p.add_argument(flag, **kw)
    return ap


_CSV_ROWS = {
    "contraction_profile@1": "rows",
    "convergence_report@1": "rows",
    "suite_report@1": "results",
    "continuity_certificate@1": "image_products",
    "claim_report@1": "rows",
    "product_matrix@1": "rows",
    "product_estimate@1": "rows",
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        for name, value in vars(args).items():  # float options accept nan, inf
            flag = f"--{name.replace('_', '-')}"
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{flag} must be finite, got {value}")
            if name in POSITIVE_OPTIONS and value is not None and value <= 0:
                raise DomainError(f"{flag} must be > 0, got {value}")
        code, payload = args.fn(args)
        if args.format == "csv":
            schema = payload.get("schema")
            key = _CSV_ROWS.get(schema)
            if key is None:
                raise DomainError(f"no CSV form for {schema}")
            text = write_csv(payload[key], args.out)
        else:
            text = write_json(payload, args.out) + "\n"
    except _Help as help_:
        code = 0
        text = write_json({"prog": help_.args[0], "schema": "help@1"}, None) + "\n"
    except (BoundaryLabError, OSError, UnicodeDecodeError) as err:
        print(write_json({"error": str(err)}, None))
        return 2
    print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
