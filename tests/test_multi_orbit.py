"""Two-orbit instances: the product of two rank-one groups.

Everything else in the suite runs on single-orbit groups; these tests
exercise the multi-parameter paths (t, c1, c2) end to end.
"""

import pytest

from srak import centralizer as C
from srak import cherednik as CH
from srak import completion as CP
from srak import groups as G
from srak import sra as S
from srak.coeffs import ParamPoly, R0, R1, rat
from srak.selftest import associativity_suite

from conftest import PRODUCT_SPEC, pairwise_gram


@pytest.fixture(scope="module")
def chp():
    return CH.build_cherednik(PRODUCT_SPEC)


def test_two_orbits(chp):
    assert chp.group.order == 4
    assert chp.rdata.num_orbits == 2
    assert chp.nparams == 3
    # the minus-identity element is a rank-four element, not a reflection
    assert len(chp.rdata.reflections) == 2


def test_product_relations(chp):
    # [y1, x1] = t - 2 c(orbit of s1) s1, [y2, x1] = 0
    alg = chp.algebra
    com = chp.y(0) * chp.x(0) - chp.x(0) * chp.y(0)
    s1_gid = chp.reflections[0].gid
    orbit1 = chp.reflections[0].orbit
    expect = alg.param(0) + alg.group_elt(s1_gid).scale(ParamPoly.var(3, orbit1 + 1, coeff=rat(-2)))
    assert com == expect
    assert chp.y(1) * chp.x(0) == chp.x(0) * chp.y(1)


def test_product_associativity(chp):
    alg_eq1 = S.SRAlgebra.omega_form(chp.group, chp.rdata)
    assert associativity_suite(alg_eq1, 60) == 0
    assert associativity_suite(chp.algebra, 60, seed=404) == 0


def test_product_convention_factor(chp):
    assert CH.convention_solve(chp) == rat(-2)


def test_product_euler(chp):
    h = CH.euler_element(chp)
    for i in range(2):
        assert h.commutator(chp.x(i)).specialize(t=R1) == chp.x(i).specialize(t=R1)
        assert h.commutator(chp.y(i)).specialize(t=R1) == (-chp.y(i)).specialize(t=R1)


def test_product_module_relations(chp):
    rels = CH.module_relation_report(chp, 3)
    assert all(rels.values()), rels


def test_product_center_degree_two(chp):
    cb = S.center_basis(chp.algebra, 2)
    # invariants of degree two: x1^2, y1^2, x2^2, y2^2 and the two coupled
    # elements x_i y_i - c_(i) s_i
    assert cb.graded_dims == [1, 0, 6]
    for z in cb.elements:
        assert S.recheck_central(chp.algebra, z)
    coupled = 0
    for z in cb.elements:
        gids = {g for (_m, g) in z.coefficients()}
        if gids != {0}:
            coupled += 1
    assert coupled == 2


@pytest.mark.parametrize("c_values", [None, [rat(1, 2)], [rat(1, 3), rat(-2, 5)]])
def test_gram_tower_two_orbits(chp, c_values):
    # one packed key field per orbit; c_values may fix the first orbit only
    d8 = CH.build_cherednik(DIHEDRAL8_SPEC)
    for ch in (chp, d8):
        for d in range(5):
            assert CH.contravariant_gram(ch, d, c_values=c_values) == pairwise_gram(ch, d, c_values=c_values), d


def test_product_weights_undefined(chp):
    # the product action is symplectically reducible: orbit weights are
    # undefined and the lattice machinery refuses them
    for i in range(2):
        with pytest.raises(G.GroupError, match="reducible"):
            G.reflection_weight(chp.group, chp.rdata, i)


DIHEDRAL8_SPEC = {
    "dim_h": 2,
    "generators_on_h": [[["0", "1"], ["1", "0"]], [["1", "0"], ["0", "-1"]]],
    "gen_names": ["r1", "r2"],
}


def test_dihedral_trace_lattice():
    # the order-8 dihedral group: irreducible on h, two reflection orbits
    grp = G.group_from_spec(DIHEDRAL8_SPEC)
    assert grp.order == 8
    rdata = G.symplectic_reflections(grp)
    assert rdata.num_orbits == 2
    assert [len(o) for o in rdata.orbits] == [2, 2]
    m = [G.reflection_weight(grp, rdata, i) for i in range(2)]
    assert m == [R1, R1]
    # characters of the dihedral group of order 8: four linear, one planar;
    # traces on the two reflection classes
    irr = [
        (1, (R1, R1)),
        (1, (R1, -R1)),
        (1, (-R1, R1)),
        (1, (-R1, -R1)),
        (2, (R0, R0)),
    ]
    lat = S.simplicity_lattice(m, irr)
    assert lat == [(-R1, -R1), (-R1, R1), (R1, -R1), (R1, R1)]
    gate = S.lattice_gate(lat, [rat(1, 3), rat(2, 3)])
    assert gate["candidate_nonsimple"]  # c1 + c2 = 1
    gate = S.lattice_gate(lat, [rat(1, 3), rat(1, 5)])
    assert not gate["candidate_nonsimple"]


def test_dihedral_kernel_refuses_unspecialized_orbit():
    # the degree-1 pairing is (1 - 2 c1 - 2 c2) times the identity; with
    # c2 left free it is -2 c2 times the identity at c1 = 1/2, which has
    # no kernel, so its constant terms must not be read as the matrix
    ch = CH.build_cherednik(DIHEDRAL8_SPEC)
    with pytest.raises(CH.CherednikError):
        CH.gram_kernel_vectors(ch, 1, [rat(1, 2)])
    assert len(CH.gram_kernel_vectors(ch, 1, [rat(1, 2), R0])) == 2
    assert CH.gram_kernel_vectors(ch, 1, [rat(1, 2), rat(1, 2)]) == []


def test_dihedral_associativity_and_relations():
    ch = CH.build_cherednik(DIHEDRAL8_SPEC)
    assert ch.nparams == 3
    alg_eq1 = S.SRAlgebra.omega_form(ch.group, ch.rdata)
    assert associativity_suite(alg_eq1, 40, seed=9) == 0
    rels = CH.module_relation_report(ch, 3)
    assert all(rels.values()), rels
    # conversion factor stays consistent across both orbits
    assert CH.convention_solve(ch) == rat(-2)


def test_product_completion_iso(chp):
    # base point moved by both reflections: trivial stabilizer, 4 cosets
    iso = CP.completion_iso(chp, [rat(1), rat(2)], 4)
    assert iso.ctx.k == 4
    rep = CP.verify_homomorphism(iso)
    assert rep["all_pass"], rep
    assert CP.mod_param_baseline(iso)["pass"]
    assert CP.equivariance_check(iso)["pass"]
    # base point on one wall: stabilizer of order two, 2 cosets
    iso2 = CP.completion_iso(chp, [R0, rat(2)], 4)
    assert iso2.ctx.k == 2
    rep2 = CP.verify_homomorphism(iso2)
    assert rep2["all_pass"], rep2


def test_dihedral_wall_completion():
    # a wall point of the dihedral group: the stabilizer keeps one
    # reflection of one orbit; the off-stabilizer sum mixes both parameters
    ch = CH.build_cherednik(DIHEDRAL8_SPEC)
    b = [R0, rat(1)]  # fixed by the sign flip of the first coordinate
    sub = G.stabilizer(ch.group, tuple(b) + (R0, R0))
    assert len(sub) == 2
    iso = CP.completion_iso(ch, b, 3)
    assert iso.ctx.k == 4
    outside = [r for r in ch.reflections if r.gid not in set(iso.sub_ids)]
    assert len(outside) == 3
    assert {r.orbit for r in outside} == {0, 1}
    rep = CP.verify_homomorphism(iso)
    assert rep["all_pass"], rep
    assert CP.mod_param_baseline(iso)["pass"]
    assert CP.equivariance_check(iso)["pass"]


def test_rank2_trivial_stabilizer_completion(ch3):
    # six cosets over the scalar slice: the largest instance in the suite
    iso = CP.completion_iso(ch3, [rat(1), rat(5)], 3)
    assert iso.ctx.k == 6
    assert len(iso.sub_ids) == 1
    rep = CP.verify_homomorphism(iso)
    assert rep["all_pass"], rep
    assert CP.mod_param_baseline(iso)["pass"]
    assert CP.equivariance_check(iso)["pass"]
