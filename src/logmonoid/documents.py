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
from typing import Callable, NamedTuple, Optional

from .abelian import Elt
from .errors import ParseError
from .log_connection import Embedding, ExponentSet, LogNablaModule, facet_embedding
from .monoid_core import FineMonoid, from_embedded, from_presentation
from .qlin import qmat, qsolve, qvec
from .weighted_series import Radius, TruncatedSeries, Weighting, default_weighting, series


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
        cols = qmat(
            [[Fraction(self.ambient_generators[j][i]) for j in range(len(self.ambient_generators))]
             for i in range(dim)]
        )
        coeffs = qsolve(cols, qvec(vals))
        if coeffs is None:
            raise ParseError("exponent vector outside M^gp tensor Q")
        acc = [Fraction(0)] * d
        for c, g in zip(coeffs, self.monoid.generators):
            for i in range(d):
                acc[i] += c * Fraction(g[0][i])
        return tuple(acc)


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
        ambient = None
        convert = lambda x: monoid.gp.element(*x)
    elif "embedded_generators" in doc:
        try:
            vectors = [tuple(int(x) for x in v) for v in doc["embedded_generators"]]
            torsion = tuple(int(d) for d in doc.get("torsion", []))
            monoid, convert = from_embedded(vectors, torsion)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad embedded generators: {exc}") from exc
        ambient = tuple(vectors)
    else:
        raise ParseError("monoid document needs 'generators' or 'embedded_generators'")
    if "weighting" in doc:
        try:
            w = Weighting(monoid, tuple(int(x) for x in doc["weighting"]))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad weighting: {exc}") from exc
    else:
        w = default_weighting(monoid)
    return MonoidContext(monoid, w, ambient, convert)


def parse_hom_images(ctx_target: MonoidContext, doc: dict) -> tuple[Elt, ...]:
    if "images" not in doc:
        raise ParseError("homomorphism document needs 'images'")
    return tuple(ctx_target.parse_element(x) for x in doc["images"])


def parse_radius(obj) -> Radius:
    if obj in ("zero", 0):
        return Radius.zero()
    if isinstance(obj, dict):
        if obj.get("zero"):
            return Radius.zero()
        return Radius(Fraction(int(obj["q_num"]), int(obj.get("q_den", 1))))
    return Radius(parse_rational(obj))


def parse_series(ctx: MonoidContext, doc: dict, annulus: bool = False) -> TruncatedSeries:
    try:
        truncation = int(doc["truncation"])
        coeffs = {}
        for term in doc.get("terms", []):
            key = ctx.parse_element(term["m"])
            c = Fraction(int(term["num"]), int(term.get("den", 1)))
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad series document: {exc}") from exc
    return series(ctx.monoid, ctx.weighting, coeffs, truncation, annulus=annulus)


def _embedding_from_rows(ctx: MonoidContext, rows) -> Embedding:
    d = ctx.monoid.gp.free_rank
    out_rows = []
    for row in rows:
        row = [int(x) for x in row]
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

    def parse_matrix_list(items, count) -> tuple:
        per_index: dict[int, dict[Elt, tuple[tuple[Fraction, ...], ...]]] = {}
        for item in items:
            i = int(item["i"])
            if not 0 <= i < count:
                raise ParseError(f"matrix index {i} out of range")
            terms = per_index.setdefault(i, {})
            for term in item.get("terms", []):
                key = ctx.parse_element(term["m"])
                entries = term["entries"]
                if len(entries) != rank or any(len(r) != rank for r in entries):
                    raise ParseError("matrix entries must be rank x rank")
                terms[key] = tuple(tuple(parse_rational(x) for x in r) for r in entries)
        mats = []
        for i in range(count):
            terms = per_index.get(i, {})
            rows = []
            for a in range(rank):
                row = []
                for b in range(rank):
                    coeffs = {k: mat[a][b] for k, mat in terms.items() if mat[a][b] != 0}
                    row.append(series(ctx.monoid, ctx.weighting, coeffs, truncation, annulus=annulus))
                rows.append(tuple(row))
            mats.append(tuple(rows))
        return tuple(mats)

    try:
        matrices = parse_matrix_list(doc.get("matrices", []), emb.r)
        base = None
        if "base_matrices" in doc:
            base = parse_matrix_list(doc["base_matrices"], len(doc["base_matrices"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad connection matrices: {exc}") from exc
    try:
        module = LogNablaModule(rank, emb, matrices, base, interval_kind)
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
