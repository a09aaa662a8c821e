"""Structure theory of fine monoids: presentations, faces, units,
sections, semi-saturatedness."""

import random
import sys

import pytest

from logmonoid import cone
from logmonoid import monoid_core as mc
from logmonoid import selftest
from logmonoid import snf
from logmonoid.abelian import AbelianGroup
from logmonoid.errors import CertificationFailed, NotSubmonoid, NotSurjective, TorsionTarget

from conftest import quotient_hom


# -- constructors -----------------------------------------------------------

def test_free_monoid_is_n():
    n = mc.free_monoid(1)
    assert n.gp.free_rank == 1 and not n.gp.torsion_invariants
    assert n.generators == (((1,), ()),)


def test_torsion_presentation_2x_eq_2y(torsion_monoid):
    m = torsion_monoid
    assert m.gp.free_rank == 1
    assert m.gp.torsion_invariants == (2,)
    assert mc.is_sharp(m)
    # generators are (1, 0bar) and (1, 1bar) in some order
    assert sorted(m.generators) == [((1,), (0,)), ((1,), (1,))]


def _ref_add(g, x, y):
    return (
        tuple(a + b for a, b in zip(x[0], y[0])),
        tuple((a + b) % d for a, b, d in zip(x[1], y[1], g.torsion_invariants)),
    )


def _ref_neg(g, x):
    return (tuple(-a for a in x[0]), tuple((-a) % d for a, d in zip(x[1], g.torsion_invariants)))


def test_group_arithmetic_matches_the_tuple_definitions():
    """add, neg and sub against the generic comprehensions, sub as x + (-y),
    on seeded elements of Z^2, Z x Z/2 and Z/2 x Z/6."""
    rng = random.Random(11)
    for g in (AbelianGroup(2), AbelianGroup(1, (2,)), AbelianGroup(0, (2, 6))):
        elts = [
            g.element([rng.randint(-9, 9) for _ in range(g.free_rank)],
                      [rng.randint(-9, 9) for _ in g.torsion_invariants])
            for _ in range(12)
        ]
        for x in elts:
            assert g.neg(x) == _ref_neg(g, x)
            for y in elts:
                assert g.add(x, y) == _ref_add(g, x, y)
                assert g.sub(x, y) == _ref_add(g, x, _ref_neg(g, y))


def test_m_even_presentation_matches_embedding(m_even):
    embedded, conv = mc.from_embedded([[2, 0], [1, 1], [0, 2]])
    assert embedded.gp == m_even.gp
    assert embedded.generators == m_even.generators
    # the defining relation g1 + g3 = 2 g2 survives normalization
    g1, g2, g3 = m_even.generators
    assert m_even.gp.add(g1, g3) == m_even.gp.scale(2, g2)


# -- membership and divisibility -------------------------------------------

def test_membership_n_minus_one(nm1):
    m, conv = nm1
    one = m.gp.element(conv((1,)))
    seven = m.gp.element(conv((7,)))
    assert not mc.membership(m, one)
    assert mc.membership(m, seven)  # 7 = 2 + 2 + 3
    assert mc.membership(m, m.gp.zero())


def test_membership_negative(n2):
    assert not mc.membership(n2, n2.element((-1, 2)))


def test_divides_examples(n2, m_even):
    assert mc.divides(n2, n2.element((1, 0)), n2.element((2, 3)))
    g1, g2, g3 = m_even.generators  # ambient (2,0), (1,1), (0,2)
    # (1,1) <= (2,0) would need ambient (1,-1), not in M_even
    assert not mc.divides(m_even, g2, g1)
    assert mc.divides(m_even, g2, g2)


# -- units and sharp quotients ----------------------------------------------

def test_units_sharp_cases(n2, z_monoid):
    assert mc.units(n2) == []
    q, _ = n2.index.sharp
    assert q.generators == n2.generators
    assert mc.units(z_monoid) != []
    qz, _ = z_monoid.index.sharp
    assert qz.gp.free_rank == 0 and all(qz.gp.is_zero(g) for g in qz.generators)


# -- faces -------------------------------------------------------------------

def test_faces_n2(n2):
    all_faces = mc.faces(n2)
    assert [sorted(f.generator_indices) for f in all_faces] == [[], [0], [1], [0, 1]]
    assert [sorted(f.generator_indices) for f in mc.facets(n2)] == [[0], [1]]


def test_faces_m_even(m_even):
    assert len(mc.faces(m_even)) == 4
    assert len(mc.facets(m_even)) == 2
    # the interior generator (1,1) lies in no proper face
    for f in mc.facets(m_even):
        assert 1 not in f.generator_indices


def test_faces_n_minus_one(nm1):
    m, _ = nm1
    found = mc.faces(m)
    assert [sorted(f.generator_indices) for f in found] == [[], [0, 1]]


def test_faces_contain_units(z_monoid):
    for f in mc.faces(z_monoid):
        assert f.generator_indices == frozenset(range(len(z_monoid.generators)))


def test_faces_square_cone():
    """A non-simplicial rank-3 cone: 1 + 4 + 4 + 1 faces."""
    sq, _ = mc.from_embedded([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    assert len(mc.faces(sq)) == 10
    assert len(mc.facets(sq)) == 4
    assert mc.is_semi_saturated(sq)
    assert mc.is_saturated_bounded(sq) is True


def test_faces_collinear_generators():
    """Generators 2 e1 and 3 e1 share every face; the octant lattice survives."""
    m, conv = mc.from_embedded([[2, 0, 0], [3, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert len(mc.faces(m)) == 8
    for f in mc.faces(m):
        assert (0 in f.generator_indices) == (1 in f.generator_indices)
    assert mc.is_saturated_bounded(m) is False
    sat = mc.saturation(m)
    witness = m.gp.element(conv((1, 0, 0)))
    assert not mc.membership(m, witness)
    assert mc.membership(sat, witness)


# -- semi-saturatedness --------------------------------------------------------

def test_semi_saturated_suite(n1, nm1, m_even, torsion_monoid):
    assert mc.is_semi_saturated(n1)
    assert mc.is_semi_saturated(nm1[0])
    assert mc.is_semi_saturated(m_even)
    assert not mc.is_semi_saturated(torsion_monoid)


def test_prop_1_2_properties(n1, n2, nm1, m_even, torsion_monoid):
    monoids = [n1, n2, nm1[0], m_even, torsion_monoid]
    for m in monoids:
        sat = mc.is_saturated_bounded(m)
        if sat is True:
            assert mc.is_semi_saturated(m)  # saturated implies semi-saturated
        if mc.is_sharp(m) and mc.is_semi_saturated(m):
            assert not m.gp.torsion_invariants  # sharp semi-saturated: torsion-free gp
        if mc.is_semi_saturated(m):
            for f in mc.faces(m):
                q = quotient_hom(m, f.generators()).target
                assert mc.is_semi_saturated(q)  # quotients stay semi-saturated


# -- saturation ------------------------------------------------------------------

def test_saturation_n_minus_one(nm1):
    m, conv = nm1
    sat = mc.saturation(m)
    one = m.gp.element(conv((1,)))
    assert mc.membership(sat, one)  # saturation is all of N
    assert mc.is_saturated_bounded(m) is False
    # witness: g = 1 with 2g = 2 in M
    assert mc.membership(m, m.gp.scale(2, one))


def test_saturation_free_and_even(n2, m_even):
    assert mc.is_saturated_bounded(n2) is True
    assert mc.is_saturated_bounded(m_even) is True
    sat = mc.saturation(m_even)
    assert set(sat.generators) == set(m_even.generators)


def test_saturation_torsion_monoid(torsion_monoid):
    assert mc.is_saturated_bounded(torsion_monoid) is False


# -- sections ----------------------------------------------------------------------

def test_section_sum_map(n1, n2):
    f = mc.MonoidHom(n2, n1, (n1.element((1,)), n1.element((1,))))
    sd = mc.section(f)
    assert sd.kernel.free_rank == 1 and not sd.kernel.torsion_invariants
    nt = sd.ntilde
    assert mc.membership(nt, nt.element((2, -1)))
    assert not mc.membership(nt, nt.element((-1, -1)))
    # f o s = id on the target generator
    s_img = sd.section.images[0]
    assert f.gp_apply(s_img) == n1.element((1,))


def test_section_identity(n1):
    f = mc.MonoidHom(n1, n1, (n1.element((1,)),))
    sd = mc.section(f)
    assert sd.kernel.free_rank == 0
    assert sd.section.images == (n1.element((1,)),)


def test_section_onto_m_even(n3, m_even):
    f = mc.MonoidHom(n3, m_even, m_even.generators)
    sd = mc.section(f)
    assert sd.kernel.free_rank == 1
    assert sd.ntilde.gp.free_rank == 3


def test_section_requires_surjectivity(n1, n2, nm1):
    # image <2, 3> misses the generator 1 of N
    f = mc.MonoidHom(n2, n1, (n1.element((2,)), n1.element((3,))))
    with pytest.raises(NotSurjective):
        mc.section(f)


def test_section_onto_the_trivial_monoid(n2):
    # f^gp maps onto the zero group, so its kernel is all of N^gp
    trivial = mc.FineMonoid(AbelianGroup(0, ()), ())
    f = mc.MonoidHom(n2, trivial, (trivial.gp.zero(),) * 2)
    sd = mc.section(f)
    assert sd.kernel.free_rank == 2 and sd.ntilde.gp == n2.gp


def test_section_takes_one_smith_form_per_matrix(monkeypatch, n2, n3, m_even):
    """section builds one Smith form of f^gp's free matrix (every lift and
    the kernel) and _verify_section one of the splitting matrix, through
    group_quotient; the other Smith forms of a section belong to the monoid
    indices."""
    calls = []
    smith_normal_form = snf.smith_normal_form

    def counted(a):
        frame = sys._getframe(2)  # the caller of SmithForm, or of a quotient that builds it
        while frame.f_code.co_name in ("quotient_presented", "group_quotient"):
            frame = frame.f_back
        calls.append((frame.f_code.co_name, a))
        return smith_normal_form(a)

    monkeypatch.setattr(snf, "smith_normal_form", counted)
    for f in (mc.MonoidHom(n3, n2, (n2.element((1, 0)), n2.element((0, 1)), n2.element((1, 1)))),
              mc.MonoidHom(n3, m_even, m_even.generators)):
        calls.clear()
        sd = mc.section(f)
        n, d_m = f.source, f.target.gp.free_rank
        images = [f.gp_apply(n.element(v))[0] for v in snf.identity(n.gp.free_rank)]
        fgp = snf.as_matrix(list(zip(*images)))
        cols = [n.gp.lift(sd.section.gp_apply(f.target.gp.element(v))) for v in snf.identity(d_m)]
        cols += [n.gp.lift(v) for v in sd.kernel_basis] + n.gp.cover_relations()
        splitting = snf.as_matrix(list(zip(*cols)))
        own = [call for call in calls if call[0] in ("section", "_verify_section")]
        assert own == [("section", fgp), ("_verify_section", splitting)]
        assert [a for _, a in calls].count(splitting) == 1


def test_a_warm_section_criterion_solves_no_lp(monkeypatch):
    """The section criterion's five surjections are built once per process,
    and each keeps its image monoid f(N), so a second run of the criterion
    finds every weighting it needs: no simplex solve."""
    assert selftest.CHECKS["03_section_invariants"](5)[0]
    assert selftest._surjections() is selftest._surjections()
    calls = []
    feasible = cone.simplex_feasible
    monkeypatch.setattr(cone, "simplex_feasible", lambda *args: calls.append(1) or feasible(*args))
    assert selftest.CHECKS["03_section_invariants"](5)[0]
    assert calls == []
    f = selftest._surjections()[0]
    assert f.image is f.image and f.image == mc.FineMonoid(f.target.gp, f.images)


def test_the_section_check_rejects_a_splitting_that_leaves_a_quotient(n2, n3):
    """_verify_section requires N^gp modulo s(M^gp) and the kernel basis to
    be 0: a kernel basis scaled by 2 leaves Z/2 (free rank 0), and one
    dropped leaves Z."""
    f = mc.MonoidHom(n3, n2, (n2.element((1, 0)), n2.element((0, 1)), n2.element((1, 1))))
    data = mc.section(f)
    (k,) = data.kernel_basis
    for basis in ((n3.gp.scale(2, k),), ()):
        with pytest.raises(CertificationFailed, match="section splitting"):
            mc._verify_section(data._replace(kernel_basis=basis))


def _sums_of_at_most_four(gens, gp):
    """Every sum of at most 4 generators (with repetition): the 4-ball on
    which section once tested the sharp-case kernel identity."""
    ball = {gp.zero()}
    for _ in range(4):
        ball |= {gp.add(e, g) for e in ball for g in gens}
    return ball


def test_the_sharp_case_identity_only_ever_tested_zero_pairs():
    """The deleted self-check tested s(a) + b in N for the a, b of the
    4-balls of M and N with f(s(a)) + f(b) = 0.  On the five selftest
    surjections every such pair has a = 0 and f(b) = 0, so the element was
    b, in N by construction: what f(N) in M and a sharp M force."""
    for f in selftest._surjections():
        data = mc.section(f)
        m, n, s = f.target, f.source, data.section
        assert mc.is_sharp(m)
        n_images = [f.gp_apply(b) for b in _sums_of_at_most_four(n.generators, n.gp)]
        pairs = [(a, fb) for a in _sums_of_at_most_four(m.generators, m.gp)
                 for fb in n_images if m.gp.is_zero(m.gp.add(f.gp_apply(s.gp_apply(a)), fb))]
        assert pairs and all(m.gp.is_zero(a) and m.gp.is_zero(fb) for a, fb in pairs)


def test_section_rejects_an_image_outside_the_target(n1, n2):
    # -1 is not in N: f(N) is no submonoid of N, though f^gp is onto
    f = mc.MonoidHom(n2, n1, (n1.element((1,)), n1.element((-1,))))
    with pytest.raises(NotSubmonoid, match=r"image \(\(-1,\), \(\)\) is not an element"):
        mc.section(f)


def test_section_rejects_torsion_target(torsion_monoid, n2):
    f = mc.MonoidHom(n2, torsion_monoid, torsion_monoid.generators)
    with pytest.raises(TorsionTarget):
        mc.section(f)

