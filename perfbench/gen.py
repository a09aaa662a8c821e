"""Seeded input generator for the logmonoid benchmark (stdlib only).

Every input is a JSON document in a format `logmonoid.documents` parses,
paired with the answer planted in it, so results can be checked without
trusting the code under test.  Each job draws from its own
`random.Random("seed:round:cell")`, so the same seed gives the same
documents, and a round's jobs do not depend on how many rounds run.

Connections are built as G^-1 (A0 G + dG) over a commuting, NI-safe
constant model A0 (eigenvalues in [0, 1), so no two differ by a nonzero
integer) and a planted gauge G = I + (a few monomial terms).  The shear
of such a connection must return gauge G^-1 and constant model A0.  The
series arithmetic here is independent of `logmonoid.weighted_series`.

Monoids are cones whose face lattice is known from the construction:
lattice k-gons at height 1 (2k + 2 faces), pyramids over k-gons in rank 4
(4k + 4 faces), cones with a line of units, and presented monoids with a
relation a*x_i = a*x_j (torsion Z/a).
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction as F

# Connection monoids in the ambient coordinates of the embedded-generator
# form: generators, the pinned weighting, and the weight functional lam on
# Z^d with lam . g_i = weighting[i].  The embedding is the identity.
CONNECTION_MONOIDS = {
    "N1": ([[1]], [1], (F(1),)),
    "N2": ([[1, 0], [0, 1]], [1, 1], (F(1), F(1))),
    "N3": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1], (F(1), F(1), F(1))),
    "m_even": ([[2, 0], [1, 1], [0, 2]], [1, 1, 1], (F(1, 2), F(1, 2))),
}

EIGENVALUES = [F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5), F(2, 5)]
GAUGE_ENTRIES = [F(1), F(-1), F(1, 2), F(2), F(-1, 3), F(3, 2)]


def rat(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# small exact matrix helpers (lists of lists of Fractions)
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(m)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def identity(n):
    return [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]


def zeros(n):
    return [[F(0)] * n for _ in range(n)]


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def rank(rows) -> int:
    """Rank over Q by Gaussian elimination."""
    m = [[F(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def in_span(vec, spanning) -> bool:
    if all(x == 0 for x in vec):
        return True
    if not spanning:
        return False
    return rank(list(spanning)) == rank(list(spanning) + [list(vec)])


# ---------------------------------------------------------------------------
# planted connections
# ---------------------------------------------------------------------------

def monoid_ball(gens, lam, bound):
    """Elements of the monoid generated by gens with weight <= bound, by weight."""
    zero = tuple([0] * len(gens[0]))
    weight = {zero: 0}
    frontier = [zero]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                cand = tuple(a + b for a, b in zip(e, g))
                w = sum((l * c for l, c in zip(lam, cand)), F(0))
                if w <= bound and cand not in weight:
                    weight[cand] = int(w)
                    new.append(cand)
        frontier = new
    return weight


def constant_model(rng: random.Random, n: int, r: int, jordan: bool):
    """r commuting n x n matrices P (D_i + c_i J) P^-1 with eigenvalues in [0, 1).

    Returns (matrices, eigentuples) with one eigentuple (length r) per
    Jordan block, in block order."""
    blocks = []
    size = n
    if jordan and n >= 2:
        blocks.append(2)
        size -= 2
    blocks += [1] * size
    tuples = []
    while len(tuples) < len(blocks):
        cand = tuple(rng.choice(EIGENVALUES) for _ in range(r))
        if cand not in tuples:
            tuples.append(cand)
    p = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            p[i][j] = F(rng.choice([-1, 0, 1, 2]))
    # inverse of a unipotent upper-triangular matrix by back substitution
    p_inv = identity(n)
    for j in range(n):
        for i in range(j - 1, -1, -1):
            p_inv[i][j] = -sum((p[i][k] * p_inv[k][j] for k in range(i + 1, j + 1)), F(0))
    mats = []
    for d in range(r):
        core = zeros(n)
        pos = 0
        for size_b, eig in zip(blocks, tuples):
            for k in range(size_b):
                core[pos + k][pos + k] = eig[d]
            if size_b == 2:
                core[pos][pos + 1] = F(rng.choice([1, 2, 3])) if d == 0 else F(rng.choice([0, 1, 2]))
            pos += size_b
        mats.append(mat_mul(mat_mul(p, core), p_inv))
    return mats, tuples


def gauge_support(monoid: str, keys, ball):
    """The planted gauge's monomials: every generator plus the first weight-2 element."""
    gens = [tuple(g) for g in CONNECTION_MONOIDS[monoid][0]]
    second = [k for k in keys if ball[k] == 2][:1]
    return [g for g in gens if g in ball] + second


def planted_connection(rng: random.Random, monoid: str, n: int, t: int, jordan: bool,
                       constant: bool = False):
    """A connection document, its Sigma document and its planted answer.

    The gauge is G = I + (one dense random matrix on each monomial of
    `gauge_support`); the document holds G^-1 (A0 G + d_i G) up to weight t
    in every direction i.  The support is fixed per monoid so that the cost
    of a job depends on (monoid, rank, T) and not on the seed."""
    gens, weights, lam = CONNECTION_MONOIDS[monoid]
    d = len(gens[0])
    ball = monoid_ball(gens, lam, t)
    keys = sorted(ball, key=lambda k: (ball[k], k))
    zero = keys[0]
    a0, eigentuples = constant_model(rng, n, d, jordan)

    gauge = {zero: identity(n)}
    if not constant:
        for key in gauge_support(monoid, keys, ball):
            gauge[key] = [[rng.choice(GAUGE_ENTRIES) for _ in range(n)] for _ in range(n)]

    # G^-1 by the convolution recursion, in order of weight
    g_inv = {zero: identity(n)}
    for key in keys[1:]:
        acc = zeros(n)
        for b, gb in gauge.items():
            if b == zero:
                continue
            rest = tuple(x - y for x, y in zip(key, b))
            if rest in g_inv:
                acc = mat_add(acc, mat_mul(g_inv[rest], gb))
        if not is_zero(acc):
            g_inv[key] = mat_scale(-1, acc)

    matrices = []
    for i in range(d):
        inner = {b: mat_add(mat_mul(a0[i], gb), mat_scale(b[i], gb)) for b, gb in gauge.items()}
        coeffs = {}
        for key in keys:
            acc = zeros(n)
            for b, hb in inner.items():
                rest = tuple(x - y for x, y in zip(key, b))
                if rest in g_inv:
                    acc = mat_add(acc, mat_mul(g_inv[rest], hb))
            if not is_zero(acc):
                coeffs[key] = acc
        matrices.append(
            {"i": i, "terms": [
                {"m": {"free": list(k)}, "entries": [[rat(x) for x in row] for row in mat]}
                for k, mat in coeffs.items()
            ]}
        )
    doc = {
        "monoid": {"embedded_generators": gens, "weighting": weights},
        "embedding": [[1 if i == j else 0 for j in range(d)] for i in range(d)],
        "rank": n,
        "truncation": t,
        "interval_kind": "disk",
        "matrices": matrices,
    }
    # Sigma: zero, a random subset of the planted exponents, one random point;
    # every coordinate lies in [0, 1), so Sigma is NI on the coordinate facets.
    exps = [list(e) for e in eigentuples]
    sigma = [[F(0)] * d]
    for e in exps:
        if rng.random() < 0.5 and e not in sigma:
            sigma.append(e)
    extra = [rng.choice(EIGENVALUES) for _ in range(d)]
    if extra not in sigma:
        sigma.append(extra)
    expect = {
        "gens": gens,
        "constant_model": [[[rat(x) for x in row] for row in a] for a in a0],
        "gauge_inverse": [
            [list(k), [[rat(x) for x in row] for row in mat]] for k, mat in g_inv.items()
        ],
        "exponents": [[rat(x) for x in e] for e in exps],
        "sigma": [[rat(x) for x in s] for s in sigma],
        "face_count": 4 if monoid == "m_even" else 2 ** d,
    }
    return doc, {"elements": expect["sigma"]}, expect


def unipotence_expected(gens, face_indices, exponents, sigma) -> bool:
    """Disk verdict: every planted exponent agrees with some Sigma element
    modulo the Q-span of the face generators (ambient coordinates)."""
    span = [[F(x) for x in gens[i]] for i in sorted(face_indices)]
    for xi in exponents:
        if not any(in_span([a - b for a, b in zip(xi, s)], span) for s in sigma):
            return False
    return True


# ---------------------------------------------------------------------------
# monoids with a known face lattice
# ---------------------------------------------------------------------------

# Lattice k-gons in cyclic order with no affine symmetry, and lattice
# points strictly inside them.  The package normalizes a monoid by its
# relation lattice, so a linear change of coordinates gives back the same
# (cached) monoid; a relabelling of an asymmetric polygon, or another
# interior point, does not.  Variant v takes labelling v mod 2k and the
# interior points from index v // 2k on, so no two of the first 2k variants
# (4k with one interior point) share a monoid, and a run of up to four
# rounds never meets a cached one.  The cost of a job depends on the
# labelling (the simplex pivots by index), so variants follow the round,
# not the seed: every seed measures the same cones, and the seed varies the
# queries and the torsion relations.
POLYGONS = {
    4: [(-1, -2), (0, -1), (3, 3), (2, 3)],
    5: [(-1, 3), (0, 1), (1, 0), (2, 0), (0, 3)],
    6: [(0, 1), (1, 0), (2, 1), (2, 2), (1, 3), (0, 3)],
    7: [(0, 0), (1, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2)],
}
INTERIOR = {4: [(1, 1), (2, 2)], 5: [(0, 2), (1, 1)], 6: [(1, 1), (1, 2)], 7: [(1, 1), (1, 2)]}


def labelled_polygon(k: int, labelling: int):
    """The k-gon rotated by labelling mod k, reversed when (labelling // k) is odd."""
    r = labelling % k
    vertices = POLYGONS[k][r:] + POLYGONS[k][:r]
    return vertices[::-1] if (labelling // k) % 2 else vertices


def polygon_cone(k: int, interior: int, variant: int):
    """Rank-3 cone over a lattice k-gon at height 1, plus interior generators:
    2k + 2 faces whatever the interior generators."""
    first = (variant // (2 * k)) % (len(INTERIOR[k]) - interior + 1)
    pts = labelled_polygon(k, variant) + INTERIOR[k][first:first + interior]
    gens = [[x, y, 1] for x, y in pts]
    faces = [[], list(range(len(gens)))]
    faces += [[i] for i in range(k)]
    faces += [sorted([i, (i + 1) % k]) for i in range(k)]
    return {"embedded_generators": gens}, {"kind": "polygon", "vertices": k, "rays": len(gens),
                                           "sharp": True, "faces": sorted(faces), "torsion": 0}


def pyramid_cone(k: int, labelling: int):
    """Rank-4 cone over a pyramid on a lattice k-gon: 4k + 4 faces."""
    gens = [[x, y, 0, 1] for x, y in labelled_polygon(k, labelling)] + [[1, 1, 1, 1]]
    faces = [[], list(range(k + 1)), list(range(k))]
    faces += [[i] for i in range(k + 1)]
    for i in range(k):
        j = (i + 1) % k
        faces += [sorted([i, j]), [i, k], sorted([i, j, k])]
    return {"embedded_generators": gens}, {"kind": "pyramid", "rays": k + 1, "sharp": True,
                                           "faces": sorted(faces), "torsion": 0}


def units_cone(c: int):
    """Rank-3 cone whose units are the line Z e3, over the quadrant spanned
    by e1 and e2, plus the generator e1 + e2 - c e3 inside it: 4 faces.  The
    relation e1 + e2 - (e1 + e2 - c e3) = c e3 makes monoids with distinct c
    distinct."""
    gens = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [1, 1, -c]]
    faces = sorted([[0, 1], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3, 4]])
    return {"embedded_generators": gens}, {"kind": "units", "rays": 5, "sharp": False,
                                           "faces": faces, "torsion": 0}


def torsion_monoid(rng: random.Random, n: int, a: int):
    """N^n / (a x_i = a x_j): free rank n - 1, torsion Z/a, simplicial cone,
    so every set of ray classes spans a face."""
    i, j = rng.sample(range(n), 2)
    u = [a if x == i else 0 for x in range(n)]
    v = [a if x == j else 0 for x in range(n)]
    classes = [[x] for x in range(n) if x not in (i, j)] + [sorted([i, j])]
    faces = []
    for size in range(len(classes) + 1):
        for combo in itertools.combinations(classes, size):
            faces.append(sorted(x for c in combo for x in c))
    return {"generators": n, "relations": [[u, v]]}, {"kind": "torsion", "rays": n - 1,
                                                       "sharp": True, "faces": sorted(faces),
                                                       "torsion": a}


def group_queries(rng: random.Random, ngens: int):
    """Integer combinations of the generators, some outside the monoid.  Each
    kind of query has a fixed pattern of coefficients placed at random
    generators, so its cost depends little on the seed."""
    def combo(pattern):
        coeffs = list(pattern) + [0] * (ngens - len(pattern))
        rng.shuffle(coeffs)
        return coeffs

    return {
        "membership": [combo([2, 1, -1]) for _ in range(3)] + [combo([1, 1, 1]) for _ in range(3)],
        "divides": [[combo([1]), combo([1, 1, 1])] for _ in range(3)],
        "h_plus": [combo([1, 1, -1]) for _ in range(3)],
    }


# ---------------------------------------------------------------------------
# workloads: one round is a fixed list of cells; a run repeats whole rounds
# ---------------------------------------------------------------------------

# connection-ladder: (monoid, rank, T, jordan).  The ladder T = 3..6 runs
# in full on N^1 and N^2 (the scaling curve is read on N^2); the dearer
# cells (m_even, N^3, whose jobs shear once per face) stay at the low
# rungs so that a round takes seconds, not minutes.  m_even rank 1 at T = 4
# runs three times and N^2 rank 2 at T = 5 twice (other values each time),
# so that the median and the 90th percentile fall inside a block of like
# jobs, not on the step between two kinds.
LADDER = (3, 4, 5, 6)
CONNECTION_CELLS = (
    [("N1", 3, t, True) for t in LADDER]
    + [("N2", 1, t, False) for t in LADDER]
    + [("N2", 2, t, t % 2 == 0) for t in LADDER]
    + [("N2", 2, 5, False)]
    + [("m_even", 1, t, False) for t in LADDER[:3]]
    + [("m_even", 1, 4, False)] * 2
    + [("m_even", 2, 3, True)]
    + [("N3", 1, 3, False)]
)

# monoid-analysis: (kind, size, extra): polygon (vertices, interior
# generators), pyramid (base vertices), units, torsion (generators).  Cells
# are listed from cheap to dear.  A round mixes kinds whose times differ by
# steps, so the middle and the top repeat one cell (each copy another
# variant): the median and the 90th percentile then fall inside a block of
# like jobs, not on the step between two kinds.
MONOID_CELLS = (
    [("torsion", 3, 0), ("torsion", 4, 0), ("units", 0, 0)]
    + [("polygon", 4, 0), ("pyramid", 4, 0), ("polygon", 4, 1), ("polygon", 5, 0)]
    + [("pyramid", 5, 0)]
    + [("polygon", 5, 1)] * 5
    + [("polygon", 6, 0), ("pyramid", 6, 0), ("polygon", 6, 1)]
    + [("polygon", 7, 1)] * 2
    + [("polygon", 7, 2)]
)

# cli-batch: (subcommand, variant).  Variants other than "ok" are documents
# that are malformed or break a hypothesis; their documented exit codes are
# 2 (parse error) and 4 (violated hypothesis).
CLI_CELLS = (
    ("monoid-analyze", "polygon"), ("monoid-analyze", "torsion"), ("monoid-analyze", "units"),
    ("exponents", "ok"), ("shear", "ok"), ("shear", "ok-rank2"), ("unipotent", "ok"),
    ("homotopy", "ok"), ("logconv", "ok"), ("dl", "constant"),
    ("shear", "malformed-json"), ("shear", "missing-rank"), ("exponents", "bad-rational"),
    ("shear", "bad-shape"), ("exponents", "non-commuting"), ("shear", "ni-violated"),
    ("shear", "non-integrable"), ("dl", "non-constant"),
)


def job_rng(seed: int, round_index: int, cell_index: int) -> random.Random:
    return random.Random(f"{seed}:{round_index}:{cell_index}")


def connection_round(seed: int, r: int) -> list[dict]:
    jobs = []
    for c, (monoid, n, t, jordan) in enumerate(CONNECTION_CELLS):
        doc, sigma, expect = planted_connection(job_rng(seed, r, c), monoid, n, t, jordan)
        jobs.append({"cell": f"{monoid}/r{n}/T{t}", "T": t, "doc": doc, "sigma": sigma,
                     "expect": expect})
    return jobs


def monoid_round(seed: int, r: int) -> list[dict]:
    jobs = []
    for c, cell in enumerate(MONOID_CELLS):
        kind, size, extra = cell
        variant = r * MONOID_CELLS.count(cell) + MONOID_CELLS[:c].count(cell)
        rng = job_rng(seed, r, c)
        if kind == "polygon":
            doc, expect = polygon_cone(size, extra, variant)
        elif kind == "pyramid":
            doc, expect = pyramid_cone(size, variant)
        elif kind == "units":
            doc, expect = units_cone(variant + 1)
        else:
            doc, expect = torsion_monoid(rng, size, variant + 2)
        ngens = len(doc.get("embedded_generators", [])) or doc.get("generators")
        jobs.append({"cell": f"{kind}/{size}/{extra}", "doc": doc, "expect": expect,
                     "queries": group_queries(rng, ngens)})
    return jobs


def _cli_connection(rng, variant):
    """(files, expected exit code, planted answer) for one connection job."""
    if variant == "ok-rank2":
        doc, sigma, expect = planted_connection(rng, "N2", 2, 3, jordan=False)
    elif variant == "constant":
        doc, sigma, expect = planted_connection(rng, "N1", 2, 4, jordan=True, constant=True)
    else:
        doc, sigma, expect = planted_connection(rng, "N1", rng.choice([1, 2]), 4, jordan=True)
    code = 0
    if variant == "malformed-json":
        return {"input.json": json_text(doc)[: rng.randint(10, 60)]}, 2, expect
    if variant == "missing-rank":
        del doc["rank"]
        code = 2
    elif variant == "bad-rational":
        doc["matrices"][0]["terms"][0]["entries"][0][0] = rng.choice(["1/0", "one", "2/x"])
        code = 2
    elif variant == "bad-shape":
        doc["matrices"][0]["terms"][0]["entries"].append(["0"] * (doc["rank"] + 1))
        code = 2
    elif variant == "non-commuting":
        doc = {"monoid": {"generators": 2, "relations": []}, "rank": 2, "truncation": 3,
               "matrices": [
                   {"i": 0, "terms": [{"m": {"free": [0, 0]}, "entries": [["0", "1"], ["0", "0"]]}]},
                   {"i": 1, "terms": [{"m": {"free": [0, 0]}, "entries": [["0", "0"], ["1", "0"]]}]},
               ]}
        code = 4
    elif variant == "ni-violated":
        lam = rat(rng.choice(EIGENVALUES))
        doc = {"monoid": {"generators": 1, "relations": []}, "rank": 2, "truncation": 4,
               "matrices": [{"i": 0, "terms": [
                   {"m": {"free": [0]}, "entries": [[lam, "0"], ["0", rat(F(lam) + 1)]]},
                   {"m": {"free": [1]}, "entries": [["0", "1"], ["0", "0"]]},
               ]}]}
        code = 4
    elif variant == "non-integrable":
        doc = {"monoid": {"generators": 2, "relations": []}, "embedding": [[1, 0], [0, 1]],
               "rank": 2, "truncation": 3,
               "matrices": [
                   {"i": 0, "terms": [{"m": {"free": [0, 1]}, "entries": [["0", "1"], ["0", "0"]]}]},
                   {"i": 1, "terms": []},
               ]}
        code = 4
    elif variant == "non-constant":
        code = 4
    return {"input.json": json_text(doc), "sigma.json": json_text(sigma)}, code, expect


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def cli_round(seed: int, r: int) -> list[dict]:
    jobs = []
    for c, (sub, variant) in enumerate(CLI_CELLS):
        rng = job_rng(seed, r, c)
        if sub == "monoid-analyze":
            if variant == "polygon":
                doc, expect = polygon_cone(5, 1, r)
            elif variant == "torsion":
                doc, expect = torsion_monoid(rng, 3, rng.choice([2, 3]))
            else:
                doc, expect = units_cone(rng.randint(1, 3))
            files, argv, code = {"input.json": json_text(doc)}, ["monoid-analyze", "input.json"], 0
        else:
            files, code, expect = _cli_connection(rng, variant)
            argv = ["connection", sub, "input.json"]
            if sub == "unipotent":
                argv += ["--sigma", "sigma.json", "--all-faces"]
            elif sub == "homotopy":
                pair = [expect["exponents"][0], expect["sigma"][-1]]
                files["sigma.json"] = json_text({"elements": pair})
                argv += ["--sigma", "sigma.json"]
            elif sub == "logconv":
                argv += ["--depth", "2"]
            elif sub == "dl":
                argv += ["--l", "4"]
        jobs.append({"cell": f"{sub}/{variant}", "subcommand": sub, "files": files,
                     "argv": argv, "expect_code": code, "expect": expect})
    return jobs


ROUNDS = {
    "connection-ladder": connection_round,
    "monoid-analysis": monoid_round,
    "cli-batch": cli_round,
}
