from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from tbk import brauer as br
from tbk import cocycle as cx
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
        assert rp.meets_complement(w, b.model) == rp.meets_complement(w, model)
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
    def batch(items):
        return np.fromiter(items, object)

    return grp.closure(batch(m.embed(order) for m in generators),
                       lambda xs, ys: batch(x * y for x in xs for y in ys),
                       lambda ms: [m.key() for m in ms])


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


# --- the batched closure and threshold models against their references ------


def string_monomial_key(roots, degree: int, order: int):
    """``CycloMatrix.key`` of a (perm, phase) pair, character for character:
    the closure's key before it ranked the rows' texts."""
    def text(x: CycloNumber) -> str:
        return ",".join(f"{c.numerator}/{c.denominator}" for c in x.coeffs)

    zero = text(CycloNumber.rational(0, order))

    def key(element) -> str:
        perm, phase = element
        source = [0] * degree
        for j, i in enumerate(perm):
            source[i] = j
        rows = []
        for j in source:
            cells = [zero] * degree
            cells[j] = text(roots[phase[j]])
            rows.append(";".join(cells))
        return f"{degree}x{degree}@{order}|" + "|".join(rows)
    return key


def reference_monomial_closure(generators, order: int):
    """The monomial closure one product at a time, as it was before levels
    were batched: BFS over x*s, each level sorted by ``string_monomial_key``,
    the table filled by g(ys) = (gy)s, the identity moved to index 0.
    Returns the table, the group's generators, the elements as
    (perm, phase) tuples and the index of each given generator."""
    roots, given = rp._monomial_elements(
        [m.embed(order) for m in generators], order)
    degree = generators[0].rows
    modulus = len(roots)
    key = string_monomial_key(roots, degree, order)

    def multiply(a, b):
        return (tuple(a[0][k] for k in b[0]),
                tuple((e + a[1][k]) % modulus for e, k in zip(b[1], b[0])))

    given = [(tuple(p), tuple(e)) for p, e in given.tolist()]
    keyed = sorted({key(x): x for x in given}.items())
    elements = [x for _, x in keyed]
    index = {k: i for i, (k, _) in enumerate(keyed)}
    m = len(elements)
    right, parent = {}, {}
    level = list(range(m))
    while level:
        fresh = {}
        for x in level:
            for s in range(m):
                p = multiply(elements[x], elements[s])
                k = right[x, s] = key(p)
                if k not in index:
                    fresh.setdefault(k, (p, (x, s)))
        level = []
        for k in sorted(fresh):
            index[k] = len(elements)
            elements.append(fresh[k][0])
            parent[index[k]] = fresh[k][1]
            level.append(index[k])
    n = len(elements)
    mul = np.full((n, n), -1, dtype=np.int64)
    for s in range(m):
        mul[:, s] = [index[right[x, s]] for x in range(n)]
    for h in range(m, n):
        y, s = parent[h]
        mul[:, h] = mul[mul[:, y], s]
    e = elements.index((tuple(range(degree)), (0,) * degree))
    order_ = [e] + [i for i in range(n) if i != e]
    pos = np.argsort(order_)
    table = pos[mul[np.ix_(order_, order_)]]
    gens = sorted({int(pos[s]) for s in range(m)} - {0}) or [0]
    return (table, tuple(gens), [elements[i] for i in order_],
            tuple(int(pos[index[key(x)]]) for x in given))


@pytest.mark.parametrize("p, convention", [
    (2, "involution"), (2, "literal"), (3, "involution")])
def test_batched_closure_matches_the_string_keyed_closure(p, convention):
    gens, n = ex.block_generators(p, convention)
    g, rep = rp.matrix_closure(gens, order=n)
    table, ref_gens, elements, indices = reference_monomial_closure(gens, n)
    assert np.array_equal(g.mul_table(), table)
    assert g.generators == ref_gens
    assert rep.generator_indices == indices
    assert [(tuple(perm), tuple(phase)) for perm, phase
            in rep.matrices.elements.tolist()] == elements


def test_rank_keys_sort_as_string_keys():
    # random (perm, phase) pairs of degree 12 over Q(zeta_6), in neighbours
    # that share their permutation
    rng = np.random.default_rng(3)
    roots, _ = rp._monomial_elements([CycloMatrix.identity(12, 6)], 6)
    ranks = rp._monomial_key(roots, 12, 6)
    strings = string_monomial_key(roots, 12, 6)
    batch = np.stack([np.stack((rng.permutation(12), rng.integers(0, 6, 12)))
                      for _ in range(300)])
    batch[1::2, 0] = batch[0::2, 0]  # pairs that differ in phases only
    by_rank = sorted(range(300), key=ranks(batch).__getitem__)
    by_string = sorted(range(300), key=lambda i: strings(batch[i].tolist()))
    assert by_rank == by_string


@pytest.mark.parametrize("bundle", ["bundle_p2", "bundle_p2_literal",
                                    "bundle_p3"])
def test_element_codimensions_equal_the_fixed_spaces(bundle, request):
    rep = request.getfixturevalue(bundle).rep
    codims, keys = rp._fixed_keys(rep)
    mats = rep.matrices
    for g in range(rep.group.order):
        code = rp._orbit_code(mats, [g])
        assert keys[g] == tuple(code)
        assert codims[g] == rep.degree - len(
            {c // len(mats.roots) for c in code if c >= 0})
        if rep.group.order <= 128:
            eye = CycloMatrix.identity(rep.degree, rep.order)
            assert codims[g] == kernel(rep.matrices[g] - eye).codim
        else:
            assert codims[g] == rep.fixed_space(g).codim


def _scan_decisions(monkeypatch, model):
    """Every (members, meets, codim) the bicyclic scan asks of a fresh model,
    over all bicyclic subgroups (the zero class fails on none)."""
    seen = []
    decide = rp.joint_fixed_space_meets

    def recording(m, members):
        out = decide(m, members)
        seen.append((tuple(members), *out))
        return out

    monkeypatch.setattr(rp, "joint_fixed_space_meets", recording)
    assert br.in_BG_bicyclic(cx.Cocycle2.zero(model.group, 2), model).member
    monkeypatch.undo()
    return seen


def _assert_scan_decides_like_per_member_contains(monkeypatch, rep, model):
    """The scan's decisions against ``Subspace.contains`` on the members of
    the materialized arrangement, per distinct V^K. A member contains itself,
    and a member whose vectors' supports miss a coordinate of V^K's cannot
    contain it, so only the others go through ``contains``."""
    def support(w):
        return {j for v in w.basis for j, x in enumerate(v) if not x.is_zero()}

    arrangement = rp.build_model(rep, model.codim_threshold).arrangement
    members = {(z.order, z.key()) for z in arrangement}
    supports = [(z, support(z)) for z in arrangement]
    decided = {}
    for members_k, meets, codim in _scan_decisions(monkeypatch, model):
        code = tuple(rp._orbit_code(rep.matrices, members_k))
        assert decided.setdefault(code, (members_k, meets, codim))[1:] \
            == (meets, codim)
    spaces = {}
    for members_k, meets, codim in decided.values():
        w = rp.joint_fixed_space(rep, members_k)
        assert w.codim == codim
        spaces[(w.order, w.key())] = (w, meets)
    assert len(spaces) == len(decided)
    for key, (w, meets) in spaces.items():
        if key in members:
            assert not meets
            continue
        inside = support(w)
        assert meets == reference_meets_complement(
            w, [z for z, zs in supports if z.dim >= w.dim and inside <= zs])
    return spaces


def test_integer_meets_test_on_every_fixed_space_of_the_p2_scans(
        bundle_p2, monkeypatch):
    b = bundle_p2
    for threshold in (b.model.codim_threshold, b.rep.degree + 1):
        model = rp.build_model(b.rep, threshold)
        decided = _assert_scan_decides_like_per_member_contains(
            monkeypatch, b.rep, model)
        assert len(decided) > 1


def test_integer_meets_test_on_every_fixed_space_of_the_p3_scan(
        bundle_p3, monkeypatch):
    b = bundle_p3
    model = rp.build_model(b.rep, b.model.codim_threshold)
    decided = _assert_scan_decides_like_per_member_contains(
        monkeypatch, b.rep, model)
    assert len(decided) == 1586
    assert {meets for _, meets in decided.values()} == {True, False}


def test_threshold_model_on_matrices_decides_like_contains():
    gens = [CycloMatrix([[0, -1], [1, -1]]), CycloMatrix([[0, 1], [1, 0]])]
    g, rep = rp.matrix_closure(gens)
    for threshold in (1, 2):
        model = rp.build_model(rep, threshold)
        assert model.arrangement_size == len(model.arrangement)
        for members in itertools.chain.from_iterable(
                itertools.combinations(range(g.order), k) for k in range(3)):
            w = rp.joint_fixed_space(rep, members)
            _assert_decides_like_reference(w, model.arrangement, model)


def test_p3_threshold_model_builds_its_members_only_when_read(monkeypatch):
    built = []
    joint = rp.joint_fixed_space

    def counting(rep, members):
        built.append(tuple(members))
        return joint(rep, members)

    monkeypatch.setattr(rp, "joint_fixed_space", counting)
    b = ex.bogomolov_example(3)
    assert built == []
    assert b.model.arrangement_size == 1016
    assert built == []
    assert len(b.model.arrangement) == 1016
    assert len(built) == 1016


def test_arrangement_size_is_the_materialized_arrangement_p2(bundle_p2):
    model = rp.build_model(bundle_p2.rep, bundle_p2.model.codim_threshold)
    assert model.arrangement_size == 73
    assert len(model.arrangement) == 73
    assert model.arrangement == bundle_p2.model.arrangement


def test_cross_check_leaves_the_threshold_arrangement_unbuilt(bundle_p2):
    b = bundle_p2
    model = rp.build_model(b.rep, b.model.codim_threshold)
    assert not br.bg_cross_check(b.cocycle("e13"), model).member
    assert br.in_BG(b.cocycle("e12"), model).member
    assert "arrangement" not in model._cache
