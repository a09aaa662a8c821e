"""Parsing and serialization of the structured input/output documents.

Monoids come in two forms: a presentation {"generators": n, "relations":
[[[u...],[v...]], ...]} whose gp elements are written in the normalized
coordinates, or {"embedded_generators": [[int,...], ...]} whose elements
are written in the ambient coordinates Z^k and read through the section's
`snf.LatticeMap` that `monoid_core.from_embedded` computes with the monoid
(reports carry both coordinate systems).  An embedded monoid has a
torsion-free group, so its "torsion" field, if given, is empty; torsion
needs a presentation.
Every rational goes through one reader, `_rational_parts`, onto an integer
numerator over a positive denominator: ints, [num, den] pairs, and strings
of one pattern, `_RATIONAL`, Fraction(str)'s grammar less exponent
notation; never floats.  The CLI reads `--radius` and `--eta` with it too.
A connection matrix is read straight onto integer numerators over their
lcm, the form `coefficient_map` stores, without a Fraction per entry.

Equal monoid sections share one analysed monoid (`_monoid_section`, a
bounded cache of the SECTION_CACHE_SIZE most recently used sections); an
embedded section's map reads a distinct monomial once (`_converted`, a
memo of the MONOMIAL_CACHE_SIZE most recent).
Every entry of a monoid's index is a function of the monoid alone, so no
answer depends on what the caches hold or on the order documents come in.

A document is read before the engine loads: everything the JSON alone
decides (fields, integers, shapes, each entry's rank x rank shape and its
rationals) is checked first, then the engine converts the monomials and
builds the monoid section, the embedding, the maps and the module.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import ParseError

if TYPE_CHECKING:
    from .abelian import Elt
    from .log_connection import Embedding, ExponentSet, LogNablaModule
    from .monoid_core import FineMonoid, Weighting
    from .snf import LatticeMap


# How many analysed monoid sections stay cached.
SECTION_CACHE_SIZE = 16
# How many converted monomials stay cached, over every section.
MONOMIAL_CACHE_SIZE = 4096


def _integer(x, field: str) -> int:
    """An integer field of a document: an int, or a string int() reads.
    Anything else, bool and float included, is a ParseError naming the field."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    raise ParseError(f"{field}: expected an integer, got {x!r}")


def _integers(xs, field: str, depth: int = 1) -> tuple:
    """A list of integer fields; with depth d > 1, a list of such lists nested d deep.
    A list of plain ints is taken in one pass; `_integer` reads the rest."""
    if not isinstance(xs, (list, tuple)):
        raise ParseError(f"{field}: expected a list{' of lists' * (depth - 1)} of integers, got {xs!r}")
    if depth == 1 and all(type(x) is int for x in xs):
        return tuple(xs)
    return tuple(_integers(x, field, depth - 1) if depth > 1 else _integer(x, field) for x in xs)


# Fraction(str)'s grammar less exponent notation; groups: sign, whole digits, denominator, decimals
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL = re.compile(rf"\s*([+-]?)(?=\.?\d)({_DIGITS})?(?:/({_DIGITS})|\.({_DIGITS})?)?\s*")


def _rational_parts(obj) -> tuple[int, int]:
    """(num, den) with den > 0, not reduced, of a rational entry: an int,
    integer fields as [num, den] or {"num": .., "den": ..}, or a string
    `_RATIONAL` matches: optional spaces at either end, a sign, then digits
    (single "_" between them) over "/" and a denominator ("-3/4",
    "1_000/3"), or with a decimal part ("0.5", ".5", "5.").  Anything else,
    bool and float included, a zero denominator, or a part past int's digit
    limit, is a ParseError naming the entry."""
    if isinstance(obj, str):
        match = _RATIONAL.fullmatch(obj)
        try:
            if match is None:
                raise ValueError("no rational string")
            sign, whole, den, frac = match.groups()
            scale = 10 ** len(frac.replace("_", "")) if frac else 1
            num, den = int(whole or 0) * scale + int(frac or 0), int(den or scale)
        except ValueError as exc:
            raise ParseError(f"not a rational: {obj!r} (expected an integer, a/b or a decimal, without "
                             f"exponent notation, each part of at most {sys.get_int_max_str_digits()} digits)") from exc
        num = -num if sign == "-" else num
    elif isinstance(obj, int) and not isinstance(obj, bool):
        return obj, 1
    elif isinstance(obj, (list, tuple)) and len(obj) == 2:
        num, den = _integer(obj[0], "rational numerator"), _integer(obj[1], "rational denominator")
    elif isinstance(obj, dict) and "num" in obj:
        num, den = _integer(obj["num"], "num"), _integer(obj.get("den", 1), "den")
    else:
        raise ParseError(f"not a rational: {obj!r}")
    if den == 0:
        raise ParseError(f"not a rational: {obj!r} (zero denominator)")
    return (num, den) if den > 0 else (-num, -den)


def _numerators(parts: list[list[tuple[int, int]]]) -> tuple[list[list[int]], int]:
    """Rows of (num, den) parts as integer rows over the lcm of every den."""
    den = math.lcm(*(d for row in parts for _, d in row))
    return [[n * (den // d) for n, d in row] for row in parts], den


def parse_rational(obj) -> Fraction:
    return Fraction(*_rational_parts(obj))


def render_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class MonoidContext(NamedTuple):
    monoid: FineMonoid
    weighting: Weighting
    ambient_generators: Optional[tuple[tuple[int, ...], ...]]
    # for embedded monoids, ambient -> gp computed with the monoid (its
    # inverse is the lift gp -> ambient); None for presented monoids
    ambient: Optional[LatticeMap]

    def parse_element(self, obj) -> Elt:
        return self.element(_read_element(obj, self.ambient is not None))

    def element(self, x: tuple) -> Elt:
        """The gp element of read (free, torsion) fields (`_read_element`);
        an embedded monoid's through `_converted`."""
        try:
            if self.ambient is None:
                return self.monoid.gp.element(*x)
            if len(x[0]) != len(self.ambient_generators[0]):
                raise ValueError("element has wrong shape for this group")
            return _converted(self.ambient, x[0])
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def render_element(self, g: Elt) -> dict:
        out = {"free": list(g[0]), "torsion": list(g[1])}
        if self.ambient is not None:
            out["ambient"] = list(self.ambient.inverse(g[0]))
        return out

    def parse_exponent_vector(self, obj) -> tuple[Fraction, ...]:
        """A rational vector in M^gp tensor Q; ambient coordinates for
        embedded monoids (torsion dies after tensoring), read by the
        ambient map's `rational`."""
        parts = [_rational_parts(x) for x in obj]
        d = self.monoid.gp.free_rank
        if self.ambient is None:
            if len(parts) != d:
                raise ParseError(f"exponent vector must have length {d}")
            return tuple(Fraction(*x) for x in parts)
        dim = len(self.ambient_generators[0])
        if len(parts) != dim:
            raise ParseError(f"exponent vector must have ambient length {dim}")
        (vec,), dv = _numerators([parts])
        image = self.ambient.rational(vec, dv)
        if image is None:
            raise ParseError("exponent vector outside M^gp tensor Q")
        return tuple(Fraction(x, image[1]) for x in image[0])


def _read_element(obj, embedded: bool) -> tuple:
    """The validated (free, torsion) fields of a gp element, of an embedded monoid if embedded."""
    if not isinstance(obj, dict) or "free" not in obj:
        raise ParseError(f"gp element must be {{'free': [...], 'torsion': [...]}}: {obj!r}")
    free = _integers(obj["free"], "free")
    torsion = _integers(obj.get("torsion", []), "torsion")
    if torsion and embedded:
        raise ParseError(f"torsion: an element of an embedded monoid has no torsion part, got {list(torsion)}")
    return free, torsion


def parse_monoid(doc: dict) -> MonoidContext:
    """The monoid section of a document.  Equal sections, however written,
    share one analysed monoid (`_monoid_section`); the weighting is checked
    against it per document."""
    return _build_monoid(*_read_monoid(doc))


def _read_monoid(doc) -> tuple[tuple, Optional[tuple]]:
    """The validated fields of a monoid section: the arguments of
    `_monoid_section`, and the weighting or None for the default."""
    if not isinstance(doc, dict):
        raise ParseError("monoid document must be an object")
    if "generators" in doc:
        n = _integer(doc["generators"], "generators")
        if n > 0 and n * n > sys.maxsize:
            raise ParseError(f"generators: {n} unit vectors of length {n} have more entries than a list holds "
                             f"({sys.maxsize})")
        section = (n, _integers(doc.get("relations", []), "relations", 3), None)
    elif "embedded_generators" in doc:
        vectors = _integers(doc["embedded_generators"], "embedded_generators", 2)
        if _integers(doc.get("torsion", []), "torsion"):
            raise ParseError("torsion: embedded generators lie in Z^k; a group with torsion needs a presentation "
                             "('generators' and 'relations')")
        section = (None, (), vectors)
    else:
        raise ParseError("monoid document needs 'generators' or 'embedded_generators'")
    return section, _integers(doc["weighting"], "weighting") if "weighting" in doc else None


def _build_monoid(section: tuple, weights: Optional[tuple]) -> MonoidContext:
    """The context of a read monoid section (`_read_monoid`)."""
    from .monoid_core import Weighting, default_weighting

    monoid, ambient = _monoid_section(*section)
    if weights is None:
        w = Weighting(monoid, default_weighting(monoid))
    else:
        try:
            w = Weighting(monoid, weights)
        except ValueError as exc:
            raise ParseError(f"bad weighting: {exc}") from exc
    return MonoidContext(monoid, w, section[2], ambient)


@lru_cache(maxsize=SECTION_CACHE_SIZE)
def _monoid_section(n: Optional[int], relations: tuple, vectors: Optional[tuple]) -> tuple:
    """The analysed monoid of validated fields, a presentation (n, relations)
    or embedded generators (vectors), with its ambient map, or None for a
    presentation.  Every entry of the monoid's index is a function of the
    monoid alone, so documents sharing it get the answers a fresh one would
    give; a section that fails is not cached."""
    from .monoid_core import from_embedded, from_presentation

    if vectors is None:
        try:
            return from_presentation(n, relations), None
        except ValueError as exc:
            raise ParseError(f"bad presentation: {exc}") from exc
    try:
        return from_embedded(vectors)
    except ValueError as exc:
        raise ParseError(f"bad embedded generators: {exc}") from exc


@lru_cache(maxsize=MONOMIAL_CACHE_SIZE)
def _converted(ambient: LatticeMap, free: tuple) -> Elt:
    """The gp element of validated ambient coordinates under an embedded
    section's map: each distinct monomial is converted once.  Keyed by the
    map, a value, so equal sections share their entries however often
    they are rebuilt."""
    image = ambient(free)
    if image is None:
        raise ValueError("element lies outside the group generated by the monoid")
    return image, ()


def clear_caches() -> None:
    """Forget every cached monoid section and converted monomial, so the
    next parse analyses its monoid afresh, as in a new process."""
    _monoid_section.cache_clear()
    _converted.cache_clear()


def _embedding(ctx: MonoidContext, rows: Optional[tuple]) -> Embedding:
    """The embedding with these validated rows, or the facet embedding when
    rows is None."""
    from .log_connection import Embedding, facet_embedding
    from .snf import identity

    if rows is None:
        return facet_embedding(ctx.monoid)
    d = ctx.monoid.gp.free_rank
    if ctx.ambient is None:
        if any(len(row) != d for row in rows):
            raise ParseError(f"embedding rows must have length {d}")
        out_rows = rows
    else:
        dim = len(ctx.ambient_generators[0])
        if any(len(row) != dim for row in rows):
            raise ParseError(f"embedding rows must have ambient length {dim}")
        # a functional on the ambient coordinates, read on gp through gp -> ambient
        basis = [ctx.ambient.inverse(e) for e in identity(d)]
        out_rows = [tuple(sum(map(mul, row, amb)) for amb in basis) for row in rows]
    try:
        return Embedding(ctx.monoid, tuple(out_rows))
    except ValueError as exc:
        raise ParseError(f"bad embedding: {exc}") from exc


def parse_connection(doc: dict) -> tuple[MonoidContext, LogNablaModule]:
    """The context and module of a connection document, read before they are built."""
    if not isinstance(doc, dict):
        raise ParseError("connection document must be an object")
    for field in ("monoid", "rank", "truncation"):
        if field not in doc:
            raise ParseError(f"connection document needs '{field}'")
    section, weights = _read_monoid(doc["monoid"])
    rank = _integer(doc["rank"], "rank")
    truncation = _integer(doc["truncation"], "truncation")
    if rank < 1:
        raise ParseError(f"rank must be at least 1, got {rank}")
    if rank * rank > sys.maxsize:
        raise ParseError(f"rank: a {rank} x {rank} matrix has more entries than a list holds ({sys.maxsize})")
    if truncation < 0:
        raise ParseError(f"truncation must be non-negative, got {truncation}")
    interval_kind = doc.get("interval_kind", "disk")
    if interval_kind not in ("disk", "annulus", "point"):
        raise ParseError("interval_kind must be disk, annulus or point")
    rows = _integers(doc["embedding"], "embedding", 2) if "embedding" in doc else None
    embedded = section[2] is not None  # embedded generators, not a presentation
    matrices = _read_matrix_list(doc, "matrices", rank, embedded)
    base = _read_matrix_list(doc, "base_matrices", rank, embedded) if "base_matrices" in doc else None

    from .coefficient_maps import coefficient_map
    from .log_connection import LogNablaModule

    ctx = _build_monoid(section, weights)
    emb = _embedding(ctx, rows)

    annulus = interval_kind == "annulus"

    def build(name: str, items: list, count: int) -> tuple:
        """The coefficient maps of read items, one per index below count."""
        per_index: dict[int, dict[Elt, list[tuple[int, int]]]] = {}
        for i, terms in items:
            if not 0 <= i < count:
                raise ParseError(f"{name}: matrix index {i} out of range")
            keyed = per_index.setdefault(i, {})
            for m, fields, parts in terms:
                key = ctx.element(fields)
                if key in keyed:
                    raise ParseError(f"{name}: index {i} lists the monomial {json.dumps(m)} twice")
                keyed[key] = parts
        maps = []
        for i in range(count):
            keyed = per_index.get(i, {})
            num_rows, den = _numerators(list(keyed.values()))
            try:
                maps.append(coefficient_map(ctx.weighting, truncation, dict(zip(keyed, num_rows)), annulus, den))
            except ValueError as exc:  # a disk matrix with a term off M
                raise ParseError(f"{name}: index {i}: {exc}") from exc
        return tuple(maps)

    maps = build("matrices", matrices, emb.r)
    base_maps = build("base_matrices", base, len(base)) if base is not None else None
    try:
        module = LogNablaModule(rank, emb, ctx.weighting, truncation, maps, base_maps, interval_kind)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return ctx, module


def _read_matrix_list(doc: dict, name: str, rank: int, embedded: bool) -> list:
    """The items of doc[name] read: (i, [(m as written, its read fields,
    the rank x rank entries as (num, den) parts), ...]) per item."""
    items = doc.get(name, [])
    if not isinstance(items, list):
        raise ParseError(f"{name}: expected a list of {{'i': .., 'terms': [..]}} objects, got {items!r}")
    out = []
    for item in items:
        if not isinstance(item, dict) or "i" not in item:
            raise ParseError(f"{name}: expected an object with 'i' and 'terms', got {item!r}")
        i = _integer(item["i"], "i")
        listed = item.get("terms", [])
        if not isinstance(listed, list):
            raise ParseError(f"{name}: index {i}: terms: expected a list, got {listed!r}")
        terms = []
        for term in listed:
            if not isinstance(term, dict) or "m" not in term or "entries" not in term:
                raise ParseError(f"{name}: index {i}: terms: expected an object with 'm' and 'entries', "
                                 f"got {term!r}")
            fields = _read_element(term["m"], embedded)
            entries = term["entries"]
            if not (isinstance(entries, list) and len(entries) == rank
                    and all(isinstance(r, list) and len(r) == rank for r in entries)):
                raise ParseError(f"{name}: index {i}: entries: matrix entries must be rank x rank "
                                 f"({rank} x {rank}), got {entries!r}")
            terms.append((term["m"], fields, [_rational_parts(x) for r in entries for x in r]))
        out.append((i, terms))
    return out


def parse_sigma(ctx: MonoidContext, doc: dict) -> ExponentSet:
    from .log_connection import ExponentSet

    if not isinstance(doc, dict) or "elements" not in doc:
        raise ParseError("sigma document needs 'elements'")
    elements = doc["elements"]
    if not isinstance(elements, list) or not all(isinstance(v, list) for v in elements):
        raise ParseError(f"elements: expected a list of exponent vectors, got {elements!r}")
    return ExponentSet(ctx.monoid, tuple(ctx.parse_exponent_vector(v) for v in elements))


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ParseError(f"cannot read {path}: {exc}") from exc
