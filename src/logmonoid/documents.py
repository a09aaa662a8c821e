"""Parsing and serialization of the structured input/output documents.

Monoids come in two forms: a presentation {"generators": n, "relations":
[[[u...],[v...]], ...]} whose gp elements are written in the normalized
coordinates, or {"embedded_generators": [[int,...], ...], "torsion":
[d1,...]} whose elements are written in the ambient coordinates and
converted on the way in (reports carry both coordinate systems).
Rationals are "a/b" strings, ints, or [num, den] pairs; never floats.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Callable, NamedTuple, Optional

from .abelian import Elt
from .errors import ParseError
from .log_connection import Embedding, ExponentSet, LogNablaModule, coefficient_map, facet_embedding
from .monoid_core import FineMonoid, from_embedded, from_presentation
from .qlin import over_lcm, qmat_mul, solve_map
from .weighted_series import Radius, Weighting, default_weighting


def parse_rational(obj) -> Fraction:
    try:
        if isinstance(obj, bool):
            raise ParseError(f"not a rational: {obj!r}")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            return Fraction(obj)
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            return Fraction(int(obj[0]), int(obj[1]))
        if isinstance(obj, dict) and "num" in obj:
            return Fraction(int(obj["num"]), int(obj.get("den", 1)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {obj!r}") from exc
    raise ParseError(f"not a rational: {obj!r}")


def render_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class MonoidContext(NamedTuple):
    monoid: FineMonoid
    weighting: Weighting
    ambient_generators: Optional[tuple[tuple[int, ...], ...]]
    # (free, torsion) as written in the document -> gp element; for embedded
    # monoids the converter of `from_embedded`, one Smith form for them all
    convert: Callable[[tuple], Elt]
    # for embedded monoids, ambient -> M^gp tensor Q as integer (rows, d,
    # checks): v lies in the span of the generators iff every check row is
    # orthogonal to it, and then maps to rows * v / d; one solve for them
    # all, on the first call
    exponent_map: Optional[Callable[[], tuple[list[list[int]], int, list[list[int]]]]] = None

    def parse_element(self, obj) -> Elt:
        if not isinstance(obj, dict) or "free" not in obj:
            raise ParseError(f"gp element must be {{'free': [...], 'torsion': [...]}}: {obj!r}")
        free = tuple(int(x) for x in obj["free"])
        torsion = tuple(int(x) for x in obj.get("torsion", []))
        try:
            return self.convert((free, torsion))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def render_element(self, g: Elt) -> dict:
        out = {"free": list(g[0]), "torsion": list(g[1])}
        if self.ambient_generators is not None:
            coeffs = self.monoid.index.span.coefficients(g)
            if coeffs is not None:
                dim = len(self.ambient_generators[0])
                amb = [0] * dim
                for c, v in zip(coeffs, self.ambient_generators):
                    for i in range(dim):
                        amb[i] += c * v[i]
                out["ambient"] = amb
        return out

    def parse_exponent_vector(self, obj) -> tuple[Fraction, ...]:
        """A rational vector in M^gp tensor Q; ambient coordinates for
        embedded monoids (torsion dies after tensoring)."""
        vals = [parse_rational(x) for x in obj]
        d = self.monoid.gp.free_rank
        if self.ambient_generators is None:
            if len(vals) != d:
                raise ParseError(f"exponent vector must have length {d}")
            return tuple(vals)
        dim = len(self.ambient_generators[0])
        if len(vals) != dim:
            raise ParseError(f"exponent vector must have ambient length {dim}")
        rows, den, checks = self.exponent_map()
        (vec,), dv = over_lcm([vals])
        if any(sum(map(mul, row, vec)) for row in checks):
            raise ParseError("exponent vector outside M^gp tensor Q")
        return tuple(Fraction(sum(map(mul, row, vec)), den * dv) for row in rows)


def parse_monoid(doc: dict) -> MonoidContext:
    if not isinstance(doc, dict):
        raise ParseError("monoid document must be an object")
    if "generators" in doc:
        try:
            n = int(doc["generators"])
            relations = [
                (tuple(int(x) for x in u), tuple(int(x) for x in v))
                for u, v in doc.get("relations", [])
            ]
            monoid = from_presentation(n, relations)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad presentation: {exc}") from exc
        ambient = exponent_map = None
        convert = lambda x: monoid.gp.element(*x)
    elif "embedded_generators" in doc:
        try:
            vectors = [tuple(int(x) for x in v) for v in doc["embedded_generators"]]
            torsion = tuple(int(d) for d in doc.get("torsion", []))
            monoid, convert = from_embedded(vectors, torsion)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad embedded generators: {exc}") from exc
        ambient = tuple(vectors)

        @cache
        def exponent_map():
            # solve for the generator coefficients, then sum the generators' gp coordinates
            to_coeffs, checks = solve_map([[v[i] for v in vectors] for i in range(len(vectors[0]))])
            gens = [[g[0][i] for g in monoid.generators] for i in range(monoid.gp.free_rank)]
            return (*over_lcm(qmat_mul(gens, to_coeffs)), checks)
    else:
        raise ParseError("monoid document needs 'generators' or 'embedded_generators'")
    if "weighting" in doc:
        try:
            w = Weighting(monoid, tuple(int(x) for x in doc["weighting"]))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad weighting: {exc}") from exc
    else:
        w = default_weighting(monoid)
    return MonoidContext(monoid, w, ambient, convert, exponent_map)


def parse_radius(obj) -> Radius:
    if obj in ("zero", 0):
        return Radius.zero()
    if isinstance(obj, dict):
        if obj.get("zero"):
            return Radius.zero()
        return Radius(Fraction(int(obj["q_num"]), int(obj.get("q_den", 1))))
    return Radius(parse_rational(obj))


def _embedding_from_rows(ctx: MonoidContext, rows) -> Embedding:
    d = ctx.monoid.gp.free_rank
    out_rows = []
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError(f"bad embedding: rows must be lists of integers, got {rows!r}")
    for row in rows:
        try:
            ints = [int(x) for x in row]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad embedding: {exc}") from exc
        if any(v != x for v, x in zip(ints, row) if not isinstance(x, str)):
            raise ParseError(f"bad embedding: entries must be integers, got {row!r}")
        row = ints
        if ctx.ambient_generators is None:
            if len(row) != d:
                raise ParseError(f"embedding rows must have length {d}")
            out_rows.append(tuple(row))
        else:
            dim = len(ctx.ambient_generators[0])
            if len(row) != dim:
                raise ParseError(f"embedding rows must have ambient length {dim}")
            # functional in ambient coordinates -> gp coordinates via the
            # ambient vectors of the gp basis
            gp = ctx.monoid.gp
            new_row = []
            for k in range(d):
                e = gp.element(tuple(1 if i == k else 0 for i in range(d)))
                coeffs = ctx.monoid.index.span.coefficients(e)
                amb = [0] * dim
                for c, v in zip(coeffs, ctx.ambient_generators):
                    for i in range(dim):
                        amb[i] += c * v[i]
                new_row.append(sum(row[i] * amb[i] for i in range(dim)))
            out_rows.append(tuple(new_row))
    try:
        return Embedding(ctx.monoid, tuple(out_rows))
    except ValueError as exc:
        raise ParseError(f"bad embedding: {exc}") from exc


def parse_connection(doc: dict) -> tuple[MonoidContext, LogNablaModule]:
    if not isinstance(doc, dict):
        raise ParseError("connection document must be an object")
    try:
        ctx = parse_monoid(doc["monoid"])
        rank = int(doc["rank"])
        truncation = int(doc["truncation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad connection document: {exc}") from exc
    if rank < 1:
        raise ParseError(f"rank must be at least 1, got {rank}")
    if truncation < 0:
        raise ParseError(f"truncation must be non-negative, got {truncation}")
    interval_kind = doc.get("interval_kind", "disk")
    if interval_kind not in ("disk", "annulus", "point"):
        raise ParseError("interval_kind must be disk, annulus or point")
    annulus = interval_kind == "annulus"
    if "embedding" in doc:
        emb = _embedding_from_rows(ctx, doc["embedding"])
    else:
        emb = facet_embedding(ctx.monoid)

    def parse_matrix_list(name: str, count: int) -> tuple:
        per_index: dict[int, dict[Elt, list[Fraction]]] = {}
        for item in doc.get(name, []):
            i = int(item["i"])
            if not 0 <= i < count:
                raise ParseError(f"matrix index {i} out of range")
            terms = per_index.setdefault(i, {})
            for term in item.get("terms", []):
                key = ctx.parse_element(term["m"])
                if key in terms:
                    raise ParseError(f"{name}: index {i} lists the monomial {json.dumps(term['m'])} twice")
                entries = term["entries"]
                if len(entries) != rank or any(len(r) != rank for r in entries):
                    raise ParseError("matrix entries must be rank x rank")
                terms[key] = [parse_rational(x) for r in entries for x in r]
        return tuple(coefficient_map(ctx.weighting, truncation, per_index.get(i, {}), annulus) for i in range(count))

    try:
        matrices = parse_matrix_list("matrices", emb.r)
        base = None
        if "base_matrices" in doc:
            base = parse_matrix_list("base_matrices", len(doc["base_matrices"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad connection matrices: {exc}") from exc
    try:
        module = LogNablaModule(rank, emb, ctx.weighting, truncation, matrices, base, interval_kind)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return ctx, module


def parse_sigma(ctx: MonoidContext, doc: dict) -> ExponentSet:
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ParseError("sigma document needs 'elements'")
    return ExponentSet(
        ctx.monoid, tuple(ctx.parse_exponent_vector(v) for v in doc["elements"])
    )


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
