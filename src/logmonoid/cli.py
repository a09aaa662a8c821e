"""Command-line front end.

Exit codes: 0 ok, 1 selftest failure, 2 parse error, 3 failed self-check of
a computed result (a fault of the program; the message names the check),
4 violated algorithm hypothesis (the message names the hypothesis).
All numeric output is exact rationals.

Each subcommand imports the engine modules it runs, a connection
subcommand once its document is read, so start-up loads only `errors` and
`documents` and a document the JSON alone rejects exits before the engine.
"""

from __future__ import annotations

import argparse
import itertools as it
import json
import sys
from fractions import Fraction

from .documents import (
    MonoidContext,
    load_json,
    parse_connection,
    parse_monoid,
    parse_radius,
    parse_sigma,
    render_rational,
)
from .errors import CertificationFailed, HypothesisError, ParseError


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """n prime, for n < _MR_EXACT_BELOW: n >= 2 and a strong probable prime
    to every base of _MR_BASES."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    """ValueError naming --prime unless p is a prime whose primality
    _is_prime decides exactly."""
    if p >= _MR_EXACT_BELOW:
        raise ValueError(f"--prime must be below {_MR_EXACT_BELOW}, where its primality is decided exactly, "
                         f"got {p}")
    if not _is_prime(p):
        raise ValueError(f"--prime must be a prime number, got {p}")


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    lines: list[str] = []

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(report, 0)
    return "\n".join(lines)


def _describe_vector(v) -> list[str]:
    return [render_rational(x) for x in v]


def cmd_monoid_analyze(path: str) -> dict:
    from . import monoid_core as mc

    ctx = parse_monoid(load_json(path))
    m = ctx.monoid
    faces = mc.faces(m)
    facets = mc.facets(m)
    sharp = mc.is_sharp(m)
    report = {
        "gp": {
            "free_rank": m.gp.free_rank,
            "torsion": list(m.gp.torsion_invariants),
        },
        "generators": [ctx.render_element(g) for g in m.generators],
        "weighting": list(ctx.weighting.values),
        "units": [ctx.render_element(u) for u in mc.units(m)],
        "sharp": sharp,
        "faces": [sorted(f.generator_indices) for f in faces],
        "facets": [sorted(f.generator_indices) for f in facets],
        "semi_saturated": mc.is_semi_saturated(m),
    }
    if sharp:
        report["saturated"] = mc.is_saturated_bounded(m)
    else:
        report["saturated"] = "not-applicable (monoid has units)"
    return report


def _load_sigma(ctx: MonoidContext, path):
    if path is None:
        raise ParseError("this subcommand needs --sigma")
    return parse_sigma(ctx, load_json(path))


def cmd_connection(args) -> dict:
    ctx, module = parse_connection(load_json(args.input))
    from . import log_connection as lc, monoid_core as mc

    sub = args.subcommand
    if sub == "exponents":
        dec = lc.exponents(module)
        return {
            "integrable": lc.validate_integrability(module),
            "exponents": [_describe_vector(xi) for xi in dec.exponents],
            "phi_eigentuples": [_describe_vector(t) for t in dec.eigentuples],
            "multiplicities": list(dec.multiplicities),
        }
    if sub == "shear":
        from .coefficient_maps import coefficient

        result = lc.shear(module, p=args.prime)
        gauge_terms = [
            {
                "m": ctx.render_element(key),
                "entries": [[render_rational(x) for x in row]
                            for row in coefficient(result.gauge_map, key, module.rank)],
            }
            for key, _ in result.gauge_map[0]
        ]
        bounds = [
            {
                "m": ctx.render_element(r.key),
                "weight": r.weight,
                "log_norm": "-inf" if r.actual is None else render_rational(r.actual),
                "log_bound": render_rational(r.bound),
                "ok": r.ok,
            }
            for r in result.bound_report
        ]
        return {
            "constant_model": [
                [[render_rational(x) for x in row] for row in a]
                for a in result.constant_model
            ],
            "gauge_terms": gauge_terms,
            "bound_report": bounds,
            "bound_violations": sum(0 if r.ok else 1 for r in result.bound_report),
            "log_C": render_rational(result.norm_constant_log),
            "nilpotency_e": result.nilpotency_exponent,
        }
    if sub == "unipotent":
        sigma = _load_sigma(ctx, args.sigma)
        faces = mc.faces(ctx.monoid)
        chosen: list
        if args.all_faces:
            chosen = list(faces)
        else:
            if args.face is None or not 0 <= args.face < len(faces):
                raise ParseError(
                    f"--face must be an index into the {len(faces)} faces (or use --all-faces)"
                )
            chosen = [faces[args.face]]
        table = []
        for f in chosen:
            rep = lc.is_sigma_unipotent(module, sigma, f)
            table.append(
                {
                    "face": sorted(f.generator_indices),
                    "verdict": rep.verdict,
                    "exponent_images": [_describe_vector(v) for v in rep.face_images],
                    "filtration_ranks": list(rep.filtration_ranks),
                }
            )
        return {
            "sigma": [_describe_vector(s) for s in sigma.elements],
            "faces": table,
            "all_unipotent": all(row["verdict"] for row in table),
        }
    if sub == "dl":
        from .constant_models import default_projection_polynomials, dl_limit
        from .weighted_series import constant_series

        polys = default_projection_polynomials(module)
        n, m, w, t = module.rank, module.monoid, module.weighting, module.truncation
        witnesses = [
            _describe_vector(dl_limit(module, tuple(constant_series(m, w, int(j == comp), t) for j in range(n))))
            for comp in range(n)
        ]
        return {
            "projection_polynomials": [[render_rational(c) for c in q] for q in polys],
            "h0_witnesses": witnesses,
            "l": args.l,
        }
    if sub == "homotopy":
        from .constant_models import homotopy_check

        sigma = _load_sigma(ctx, args.sigma)
        if len(sigma.elements) < 2:
            raise ParseError("homotopy needs a --sigma document with two elements (xi, xi')")
        xi, xi_p = sigma.elements[0], sigma.elements[1]
        emb = module.embedding
        ball = module.monoid.index.weighted(module.weighting.values).upto(4)
        forms = []
        for key in sorted(ball):
            for size in range(0, min(emb.r, 2) + 1):
                for wedge in it.combinations(range(emb.r), size):
                    forms.append({(key, wedge): Fraction(1)})
        rep = homotopy_check(emb, xi, xi_p, forms)
        return {
            "xi": _describe_vector(xi),
            "xi_prime": _describe_vector(xi_p),
            "forms_checked": len(forms),
            "residuals_zero": rep.all_zero,
        }
    if sub == "logconv":
        from .coefficient_maps import Radius

        radius = parse_radius(args.radius) if args.radius else Radius.p_power(1)
        eta = parse_radius(args.eta) if args.eta else Radius.p_power(Fraction(1, 2))
        if radius.is_zero:
            raise ParseError("--radius must be a rational exponent q (radius p^-q), not zero")
        if eta.is_zero or eta.value_exponent() <= 0:
            raise ParseError("--eta must be a positive rational exponent q (eta = p^-q in (0,1))")
        if args.depth < 1:
            raise ParseError(f"--depth must be at least 1, got {args.depth}")
        verdict = lc.log_convergence_check(module, radius, eta, args.depth, args.prime)
        return {
            "radius_log": render_rational(radius.value_exponent()),
            "eta_log": render_rational(eta.value_exponent()),
            "depth": args.depth,
            "log_convergent": verdict,
        }
    raise ParseError(f"unknown connection subcommand {sub!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logmonoid",
        description="Exact computations with fine monoids, polyannulus series and log connections.",
    )
    parser.add_argument("--prime", type=int, default=5, help="prime for p-adic norms (default 5)")
    parser.add_argument("--format", choices=("json", "text"), default="text", dest="output_format")
    sub = parser.add_subparsers(dest="command", required=True)

    p_monoid = sub.add_parser("monoid-analyze", help="faces, units, semi-saturatedness report")
    p_monoid.add_argument("input", help="monoid document (json)")

    p_conn = sub.add_parser("connection", help="log connection computations")
    p_conn.add_argument(
        "subcommand",
        choices=("exponents", "shear", "unipotent", "dl", "homotopy", "logconv"),
    )
    p_conn.add_argument("input", help="connection document (json)")
    p_conn.add_argument("--sigma", help="exponent-set document (json)")
    p_conn.add_argument("--face", type=int, help="face index for the unipotence verdict")
    p_conn.add_argument("--all-faces", action="store_true", help="verdict table over every face")
    p_conn.add_argument("--l", type=int, default=4, help="D_l order, only echoed in the dl report: dl checks "
                        "that the projection stabilises past every tracked coordinate")
    p_conn.add_argument("--radius", help="radius exponent q (radius p^-q) for logconv")
    p_conn.add_argument("--eta", help="eta exponent q (eta = p^-q) for logconv")
    p_conn.add_argument("--depth", type=int, default=6, help="logconv depth")

    sub.add_parser("selftest", help="run the oracle-equivalence and invariant suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_prime(args.prime)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "monoid-analyze":
            report = cmd_monoid_analyze(args.input)
        elif args.command == "connection":
            report = cmd_connection(args)
        elif args.command == "selftest":
            from . import selftest

            return selftest.main(args.prime)
        else:  # pragma: no cover
            parser.error("unknown command")
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 4
    except CertificationFailed as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 3
    print(_render(report, args.output_format))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
