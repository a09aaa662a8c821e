"""The shear certifies integrability itself: a seeded differential test of
`shear` against `integrability_defect`, the product comparison that
`validate_integrability` runs, on planted modules with and without one
overwritten entry."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from logmonoid import coefficient_maps as cmaps
from logmonoid import log_connection as lc
from logmonoid import monoid_core as mc
from logmonoid import selftest
from logmonoid import weighted_series as ws
from logmonoid.errors import HypothesisError, IrrationalExponent, NIViolated, NonCommutingResidues, NotIntegrable

F = Fraction
# rational eigenvalues; 1/2 and 3/2 differ by an integer, so a few models break NI
EIGENVALUES = (0, F(1, 2), F(1, 3), F(-1, 4), F(2, 5), F(1, 3), F(-1, 4), F(2, 5), F(3, 2))
ENTRIES = (F(-1), F(1), F(2), F(1, 2), F(-1, 3), F(3, 5))


def _outcome(call):
    """None, or the class of the hypothesis error the call raises."""
    try:
        call()
    except HypothesisError as exc:
        return type(exc)
    return None


def _commuting_model(rng, n, count):
    """count matrices that commute: equal entries on the diagonal classes of
    one partition of range(n), and a multiple of E_01 when 0 and 1 share a
    class."""
    classes = [rng.randrange(2) for _ in range(n)]
    jordan = classes[0] == classes[1]
    out = []
    for _ in range(count):
        eig = [rng.choice(EIGENVALUES) for _ in range(2)]
        nil = rng.choice((0, 1, F(1, 2))) if jordan else 0
        out.append(tuple(tuple(eig[classes[a]] if a == b else nil if (a, b) == (0, 1) else F(0) for b in range(n))
                         for a in range(n)))
    return out


def _overwritten(w, t, a, key, entry, delta, n):
    """The coefficient map a with its entry (row-major index) at key moved by delta."""
    terms, den = a
    coeffs = {k: [F(x, den) for x in flat] for k, flat in terms}
    flat = coeffs.setdefault(key, [F(0)] * (n * n))
    flat[entry] += delta
    return cmaps.coefficient_map(w, t, coeffs)


def _planted(rng, case, monoids):
    """A gauge-built module (`selftest.gauge_built_module`) over N^2, N^3 or
    M_even with n = 2..3 and T = 3..5, half of them with a base matrix; in
    three cases of four one entry is overwritten: of a connection matrix or
    a base matrix of the module, or of the base model before the gauge."""
    m, n, t = monoids[case % 3], rng.choice((2, 3)), rng.choice((3, 4, 5))
    r = m.gp.free_rank
    *model, last = _commuting_model(rng, n, r + 1)
    base = [last] if rng.random() < 0.5 else None
    ball = m.index.weighted(ws.default_weighting(m).values).upto(t)
    gauge = {rng.choice(ball[1:]): tuple(tuple(rng.choice((0, 0) + ENTRIES) for _ in range(n)) for _ in range(n))
             for _ in range(rng.randint(1, 3))}
    where = rng.choice(("matrices", "base_matrices", "base_model")[: 1 + 2 * (base is not None)])
    if case % 4 and where == "base_model":
        a, b = rng.randrange(n), rng.randrange(n)
        base = [tuple(tuple(x + (rng.choice(ENTRIES) if (i, j) == (a, b) else 0) for j, x in enumerate(row))
                      for i, row in enumerate(base[0]))]
    e = selftest.gauge_built_module(m, model, gauge, n, t, base_model=base)[0]
    if case % 4 and where != "base_model":
        maps = list(getattr(e, where))
        k = rng.randrange(len(maps))
        maps[k] = _overwritten(e.weighting, t, maps[k], rng.choice(ball), rng.randrange(n * n),
                               rng.choice(ENTRIES), n)
        e = e._replace(**{where: tuple(maps)})
    return e, where if case % 4 else "planted"


def _cut(e, t):
    """The module at truncation t: every map cut to its keys with |h| <= t."""
    cut = lambda maps: maps and tuple(cmaps._restricted(e.weighting, t, a) for a in maps)  # noqa: E731
    return e._replace(truncation=t, matrices=cut(e.matrices), base_matrices=cut(e.base_matrices))


def test_the_shear_succeeds_iff_the_module_is_integrable():
    """200 seeded planted modules, cut at every T' <= T: past its
    hypotheses (sharp, commuting residues, rational eigenvalues, NI) the
    shear succeeds iff `integrability_defect` is None, and raises
    `NotIntegrable` otherwise, a base-bracket defect included; unipotence
    raises what the shear raises, on constant modules too, where
    non-commuting residues stay `NonCommutingResidues`."""
    rng = random.Random(41)
    monoids = [mc.free_monoid(2), mc.free_monoid(3), selftest._m_even()]
    seen: Counter = Counter()
    constants: Counter = Counter()  # (defect kind, unipotence outcome) of the constant modules
    for case in range(200):
        full, how = _planted(rng, case, monoids)
        for t in range(1, full.truncation + 1):
            e = _cut(full, t)
            defect, raised = e.integrability_defect, _outcome(lambda: lc.shear(e))
            # a connection defect at key 0 is a pair of non-commuting residues
            kind = defect and ("residues" if defect[0] == "connection" and e.monoid.gp.is_zero(defect[3])
                               else defect[0])
            seen[how, kind, raised and raised.__name__] += 1
            if raised in (NIViolated, IrrationalExponent):  # a hypothesis before integrability
                continue
            assert raised is (None if defect is None else NotIntegrable), (case, t, defect)
            zero = tuple(F(0) for _ in range(e.monoid.gp.free_rank))
            face = mc.faces(e.monoid)[-1]
            unipotent = _outcome(lambda: lc.is_sigma_unipotent(e, lc.ExponentSet(e.monoid, (zero,)), face))
            constant = lc.smat_is_constant_all(e)
            # a constant module's residue analysis runs first and keeps its own class
            assert unipotent is (NonCommutingResidues if constant and kind == "residues" else raised), (case, t)
            if constant:
                constants[kind, unipotent and unipotent.__name__] += 1
    count = lambda pred: sum(v for k, v in seen.items() if pred(*k))  # noqa: E731
    assert count(lambda how, d, r: d == "connection" and r == "NotIntegrable") >= 100
    assert count(lambda how, d, r: d == "residues" and r == "NotIntegrable") >= 5
    assert count(lambda how, d, r: how == "base_model" and d == "base" and r == "NotIntegrable") >= 20
    assert count(lambda how, d, r: how == "base_matrices" and d == "base" and r == "NotIntegrable") >= 20
    assert count(lambda how, d, r: d is None and r is None) >= 200
    assert count(lambda how, d, r: r == "NIViolated") >= 1
    assert constants["base", "NotIntegrable"] >= 20 and constants[None, None] >= 100, constants


def test_the_shear_runs_no_composition(monkeypatch):
    """No product comparison is left on the shear path: with
    `LogNablaModule.composition` raising, an integrable module without base
    matrices still shears."""
    def refuse(self, i, j):
        raise AssertionError("the shear compared map products")

    e = next(e for name, e, _ in selftest._shear_fixtures(6) if name == "rank2-N2-planted")
    monkeypatch.setattr(lc.LogNablaModule, "composition", refuse)
    assert e.base_matrices is None
    assert lc.shear(e).gauge_map[1] > 0
    with pytest.raises(AssertionError, match="compared"):
        lc.validate_integrability(e)


def test_a_constant_module_with_a_base_defect_is_not_sigma_unipotent():
    """Rank 2 over N, residue diag(0, 1/2), base matrix E_12, T = 3: the
    base bracket [d + A, D] = [A, D] = -1/2 E_12 is nonzero, so unipotence,
    along every face and against the module's own exponents, raises the
    `NotIntegrable` the shear raises."""
    n1 = mc.free_monoid(1)
    e = selftest.build_module(n1, [{(0,): ((0, 0), (0, F(1, 2)))}], 2, 3, base_terms=[{(0,): ((0, 1), (0, 0))}])
    assert lc.smat_is_constant_all(e) and e.integrability_defect == ("base", 0, 0, ((0,), ()))
    with pytest.raises(NotIntegrable):
        lc.shear(e)
    own = lc.ExponentSet(n1, ((F(0),), (F(1, 2),)))
    for face in mc.faces(n1):
        with pytest.raises(NotIntegrable):
            lc.is_sigma_unipotent(e, own, face)
