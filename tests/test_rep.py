from __future__ import annotations

import random

import numpy as np
import pytest

from tbk import example as ex
from tbk import grp
from tbk import rep as rp
from tbk.cyclo import CycloMatrix, CycloNumber, Subspace, kernel
from tbk.errors import (
    NonInvertibleGeneratorError,
    OrderBoundExceededError,
)


def test_matrix_closure_sigma_x():
    g, rep = rp.matrix_closure([CycloMatrix([[0, 1], [1, 0]])])
    assert g.order == 2
    assert rep.matrices[0].is_identity()


def test_matrix_closure_literal_pauli_pair():
    p, q, n = ex.clock_and_shift(2, "literal")
    g, rep = rp.matrix_closure([p, q], order=n)
    assert g.order == 8
    minus = CycloMatrix.scalar(2, -1)
    ip = next(i for i in range(8) if rep.matrices[i] == p)
    iq = next(i for i in range(8) if rep.matrices[i] == q)
    assert rep.matrices[g.mul(ip, ip)] == minus
    assert rep.matrices[g.mul(iq, iq)] == minus


def test_matrix_closure_is_multiplicative():
    p, q, n = ex.clock_and_shift(3)
    g, rep = rp.matrix_closure([p, q], order=n)
    assert g.order <= 64
    assert rep.matrices[0].is_identity()
    for a in range(g.order):
        for b in range(g.order):
            assert rep.matrices[a] * rep.matrices[b] == rep.matrices[g.mul(a, b)]


def test_matrix_closure_rejects_singular():
    with pytest.raises(NonInvertibleGeneratorError):
        rp.matrix_closure([CycloMatrix([[1, 0], [0, 0]])])


def test_matrix_closure_bound(monkeypatch):
    p, q, _ = ex.clock_and_shift(3)
    monkeypatch.setenv("TBK_MAX_ORDER", "10")
    with pytest.raises(OrderBoundExceededError):
        rp.matrix_closure([p, q])


def test_odd_p_commutator_is_primitive_scalar():
    p, q, _ = ex.clock_and_shift(3)
    comm = p * q * p.inverse() * q.inverse()
    assert comm.is_scalar()
    val = comm.entries[0][0]
    assert not val.is_one()
    assert (val * val * val).is_one()


def test_fixed_space_identity_is_everything():
    g, rep = rp.matrix_closure([CycloMatrix([[0, 1], [1, 0]])])
    assert rep.fixed_space(0).dim == 2


@pytest.mark.parametrize("sign_first", [True, False])
def test_fixed_spaces_are_kept_per_representation(sign_first):
    # the sign representation of Z_2 and a trivial one on the same group
    g, sign = rp.matrix_closure([CycloMatrix([[-1]])])
    one = CycloMatrix.identity(1, sign.order)
    trivial = rp.MatrixRep(g, 1, sign.order, (one, one),
                           sign.generator_indices)
    reps = [(sign, 0), (trivial, 1)]
    for rep, dim in reps if sign_first else reversed(reps):
        assert rep.fixed_space(1).dim == dim


def test_fixed_spaces_of_central_elements_p2(bundle_p2):
    bundle = bundle_p2
    rep = bundle.rep
    a, b, c = bundle.central
    assert rep.degree - rep.fixed_space(a).dim == 4
    # V^b and V^c have codimension p = 2 and are the two coordinate blocks
    vb = rep.fixed_space(b)
    vc = rep.fixed_space(c)
    assert {rep.degree - vb.dim, rep.degree - vc.dim} == {2}

    def coords(idxs):
        return Subspace.from_vectors(
            8, [[1 if j == i else 0 for j in range(8)] for i in idxs])

    tensor_plus_first = coords([0, 1, 2, 3, 4, 5])
    tensor_plus_second = coords([0, 1, 2, 3, 6, 7])
    assert (vb == tensor_plus_first and vc == tensor_plus_second) or \
        (vb == tensor_plus_second and vc == tensor_plus_first)


def test_eigen_survey_p2_heisenberg_like():
    p, q, n = ex.clock_and_shift(2, "literal")
    g, rep = rp.matrix_closure([p, q], order=n)
    whole = grp.subgroup_generated(g, list(g.generators))
    lines = rp.eigen_survey(rep, whole)
    for line in lines:
        if line.scalar:
            assert line.eigenvalues[0][1] == rep.degree
        else:
            assert len(line.eigenvalues) == 2
            assert all(dim == 1 for _, dim in line.eigenvalues)


def test_pointwise_and_line_stabilizers():
    p = 3
    pm, qm, n = ex.clock_and_shift(p)
    g, rep = rp.matrix_closure([pm, qm], order=n)
    assert g.order == 27
    # eigenvector of the diagonal generator: a coordinate line
    iq = next(i for i in range(27) if rep.matrices[i] == qm)
    vec = [CycloNumber.rational(1 if i == 0 else 0, n) for i in range(p)]
    stab = rp.pointwise_stabilizer(g, rep, Subspace.from_vectors(p, [vec], n))
    st = grp.abelian_structure(stab)
    assert st.invariant_factors == (3,)
    assert iq in stab.elements
    # the whole space is stabilized pointwise only by the identity
    whole = Subspace.full(p, n)
    assert rp.pointwise_stabilizer(g, rep, whole).elements == (0,)
    # zero subspace is stabilized by everything
    assert rp.pointwise_stabilizer(g, rep, Subspace.zero(p, n)).order == 27


def test_contained_and_meets_complement():
    e1 = Subspace.from_vectors(2, [[1, 0]])
    e2 = Subspace.from_vectors(2, [[0, 1]])
    diag = Subspace.from_vectors(2, [[1, 1]])
    assert e1.contains(e1)
    assert rp.meets_complement(diag, [e1, e2])
    assert not rp.meets_complement(e1, [e1, e2])


def reference_meets_complement(w, arrangement) -> bool:
    """The definition: w lies in no single member of the arrangement."""
    return not any(z.contains(w) for z in arrangement)


def _random_subspace(rng: random.Random, ambient: int, dim: int) -> Subspace:
    while True:
        vecs = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(dim)]
        w = Subspace.from_vectors(ambient, vecs)
        if w.dim == dim:
            return w


def _assert_decides_like_reference(w, arrangement, model=None):
    want = reference_meets_complement(w, arrangement)
    assert rp.meets_complement(w, arrangement) == want
    if model is not None:
        assert rp.meets_complement(w, model) == want


def test_meets_complement_on_every_fixed_space_p2(bundle_p2):
    b = bundle_p2
    model = rp.LinearActionModel(b.rep, b.model.arrangement,
                                 b.model.codim_threshold)
    for g in range(b.group.order):
        w = b.rep.fixed_space(g)
        _assert_decides_like_reference(w, model.arrangement, model)
        # threshold model: open exactly below the threshold codimension
        assert rp.meets_complement(w, model) == (
            w.codim < model.codim_threshold)


def test_meets_complement_on_fixed_spaces_of_subgroups_p2(bundle_p2):
    b = bundle_p2
    model = b.model
    members = {z.key() for z in model.arrangement}
    rng = random.Random(5)
    outside = 0
    for _ in range(40):
        pair = [rng.randrange(b.group.order) for _ in range(2)]
        w = rp.joint_fixed_space(b.rep, pair)
        outside += w.key() not in members
        _assert_decides_like_reference(w, model.arrangement, model)
    assert outside  # some V^K is no member and takes the containment path


def test_meets_complement_on_mixed_dimension_arrangements():
    rng = random.Random(7)
    for _ in range(60):
        ambient = rng.randint(2, 5)
        arrangement = [_random_subspace(rng, ambient, rng.randint(0, ambient - 1))
                       for _ in range(rng.randint(1, 5))]
        queries = [_random_subspace(rng, ambient, rng.randint(0, ambient))
                   for _ in range(4)]
        # members, and subspaces of members, which no dimension count decides
        for z in arrangement:
            queries.append(z)
            if z.dim:
                queries.append(Subspace.from_vectors(ambient, z.basis[:-1]))
        for w in queries:
            _assert_decides_like_reference(w, arrangement)


def test_meets_complement_on_a_member_and_on_equal_spaces_of_other_order():
    line = Subspace.from_vectors(3, [[1, 1, 0]])
    plane = Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]])
    assert not rp.meets_complement(line, [plane, line])
    # the same line over Q(zeta_4): equal, though its (order, key) differs
    wide = Subspace.from_vectors(3, [[1, 1, 0]], order=4)
    assert wide == line and wide.order != line.order
    for w, arrangement in ((wide, [plane, line]), (line, [plane, wide])):
        assert not reference_meets_complement(w, arrangement)
        assert not rp.meets_complement(w, arrangement)


def test_meets_complement_separates_equal_keys_of_different_orders():
    w3 = Subspace.from_vectors(2, [[1, CycloNumber.zeta(3)]])
    w4 = Subspace.from_vectors(2, [[1, CycloNumber.zeta(4)]])
    assert w3.key() == w4.key() and w3 != w4
    for w, other in ((w3, w4), (w4, w3)):
        assert reference_meets_complement(w, [other])
        assert rp.meets_complement(w, [other])
        assert not rp.meets_complement(w, [other, w])


def test_meets_complement_with_empty_arrangement():
    g, rep = rp.matrix_closure([CycloMatrix([[0, 1], [1, 0]])])
    model = rp.build_model(rep, 3)
    assert model.arrangement == ()
    for w in (Subspace.zero(2), Subspace.full(2), rep.fixed_space(1)):
        _assert_decides_like_reference(w, (), model)
        assert rp.meets_complement(w, model)


def test_build_model_extremes():
    g, rep = rp.matrix_closure([CycloMatrix([[0, 1], [1, 0]])])
    empty = rp.build_model(rep, 3)
    assert empty.arrangement == ()
    everything = rp.build_model(rep, 1)
    assert len(everything.arrangement) == 1  # the reflection's fixed line


def test_fixed_locus_survey_trivial_group():
    g, rep = rp.matrix_closure([CycloMatrix.identity(2)])
    assert g.order == 1
    model = rp.build_model(rep, 1)
    survey = rp.fixed_locus_survey(model)
    assert len(survey.records) == 1
    assert survey.records[0].meets_open_set


def test_codim_is_conjugation_invariant(bundle_p2):
    g, rep, bundle = bundle_p2.group, bundle_p2.rep, bundle_p2
    for x in (bundle.x[0], bundle.central[0]):
        base = rep.degree - rep.fixed_space(x).dim
        for t in list(g.generators):
            y = g.conj(t, x)
            assert rep.degree - rep.fixed_space(y).dim == base
        inv_codim = rep.degree - rep.fixed_space(g.inv(x)).dim
        assert inv_codim == base


# --- the monomial path against the CycloMatrix path ---------------------------


def reference_closure(generators, order):
    """The matrix closure on CycloMatrix products and keys."""
    return grp.closure([m.embed(order) for m in generators],
                       lambda a, b: a * b, lambda m: m.key())


def reference_pointwise_fixed_space(rep, members):
    """V^K as the exact kernel of the stacked M_s - I (all of V if no s)."""
    eye = CycloMatrix.identity(rep.degree, rep.order)
    rows = []
    for s in members:
        rows.extend(list(r) for r in (rep.matrices[s] - eye).entries)
    if not rows:
        rows = [list(r) for r in (rep.matrices[0] - eye).entries]
    return kernel(CycloMatrix(rows))


def _assert_same_subspace(w, ref):
    assert w == ref
    assert (w.order, w.key()) == (ref.order, ref.key())


def _assert_closes_like_matrices(generators, order):
    g, rep = rp.matrix_closure(generators, order=order)
    ref_g, ref_els = reference_closure(generators, order)
    assert np.array_equal(g.mul_table(), ref_g.mul_table())
    assert g.generators == ref_g.generators
    eye = CycloMatrix.identity(rep.degree, rep.order)
    for i, m in enumerate(ref_els):
        assert rep.matrices[i].key() == m.key()
        assert rep.matrices[i] == m
        _assert_same_subspace(rep.fixed_space(i), kernel(m - eye))
    keys = [m.key() for m in ref_els]
    assert rep.generator_indices == tuple(
        keys.index(m.embed(rep.order).key()) for m in generators)
    return g, rep


@pytest.mark.parametrize("convention", ex.CONVENTIONS)
def test_monomial_closure_matches_matrix_closure_p2(convention):
    gens, n = ex.block_generators(2, convention)
    g, rep = _assert_closes_like_matrices(gens, n)
    assert isinstance(rep.matrices, rp.MonomialMatrices)
    assert g.order == 128


def test_monomial_path_p3_on_class_representatives_and_members(bundle_p3):
    b = bundle_p3
    rep, g = b.rep, b.group
    assert isinstance(rep.matrices, rp.MonomialMatrices)
    eye = CycloMatrix.identity(rep.degree, rep.order)
    for x in grp.class_representatives(g):
        m = rep.matrices[x]
        for s in g.generators:
            assert m * rep.matrices[s] == rep.matrices[g.mul(x, s)]
        _assert_same_subspace(rep.fixed_space(x), kernel(m - eye))
    producer = {}
    for x in range(g.order - 1, 0, -1):
        w = rep.fixed_space(x)
        producer[(w.order, w.key())] = x
    assert len(b.model.arrangement) == 1016
    for z in b.model.arrangement:
        m = rep.matrices[producer[(z.order, z.key())]]
        _assert_same_subspace(z, kernel(m - eye))


def test_joint_fixed_spaces_match_stacked_kernel(bundle_p2, bundle_p2_literal):
    rng = random.Random(11)
    for b in (bundle_p2, bundle_p2_literal):
        n = b.group.order
        sets = [[], [0], list(b.x), list(b.central)]
        sets += [[rng.randrange(n) for _ in range(rng.randint(0, 3))]
                 for _ in range(150)]
        for members in sets:
            want = reference_pointwise_fixed_space(b.rep, members)
            _assert_same_subspace(rp.joint_fixed_space(b.rep, members), want)


def test_non_monomial_s3_closes_and_surveys_as_matrices():
    gens = [CycloMatrix([[0, -1], [1, -1]]), CycloMatrix([[0, 1], [1, 0]])]
    g, rep = _assert_closes_like_matrices(gens, 1)
    assert isinstance(rep.matrices, tuple)
    assert g.generators == (1, 2) and rep.generator_indices == (1, 2)
    assert g.mul_table().tolist() == [
        [0, 1, 2, 3, 4, 5], [1, 4, 3, 5, 0, 2], [2, 5, 0, 4, 3, 1],
        [3, 2, 1, 0, 5, 4], [4, 0, 5, 2, 1, 3], [5, 3, 4, 1, 2, 0]]
    model = rp.build_model(rep, 1)
    assert [z.key() for z in model.arrangement] == [
        (2, 1, (((0, 1),), ((1, 1),))), (2, 1, (((1, 1),), ((0, 1),))),
        (2, 1, (((1, 1),), ((1, 1),))), (2, 0, ())]
    survey = rp.fixed_locus_survey(model)
    assert [(r.representative, r.class_size, r.codim, r.meets_open_set)
            for r in survey.records] == [
        (0, 1, 0, True), (1, 2, 2, False), (2, 3, 1, False)]
    whole = grp.subgroup_generated(g, list(g.generators))
    spectra = {(line.scalar, tuple((ev.modulus, ev.exponent, dim)
                                   for ev, dim in line.eigenvalues))
               for line in rp.eigen_survey(rep, whole)}
    assert spectra == {(True, ((1, 0, 2),)),
                       (False, ((3, 1, 1), (3, 2, 1))),
                       (False, ((2, 0, 1), (2, 1, 1)))}


def test_monomial_closure_over_odd_orders_matches_matrix_closure():
    # -1 is a root of unity of Q(zeta_3) that is no power of zeta_3; the
    # 3-cycles make the keys depend on which way each permutation is read
    rotation = CycloMatrix([[0, -1], [1, 0]], order=3)
    phase = CycloMatrix.diagonal([CycloNumber.zeta(3), 1])
    signed_cycle = CycloMatrix([[0, 0, -1], [1, 0, 0], [0, 1, 0]], order=3)
    flip = CycloMatrix.diagonal([-1, 1, 1])
    shift, clock, _n = ex.clock_and_shift(3)
    cases = [([rotation, phase], 36), ([rotation], 4), ([phase], 3),
             ([signed_cycle, flip], 24), ([shift, clock], 27)]
    for gens, order in cases:
        g, rep = _assert_closes_like_matrices(gens, 3)
        assert isinstance(rep.matrices, rp.MonomialMatrices)
        assert g.order == order
        for members in ([], [1], list(g.generators), list(range(g.order))):
            _assert_same_subspace(
                rp.joint_fixed_space(rep, members),
                reference_pointwise_fixed_space(rep, members))
