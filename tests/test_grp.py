from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from tbk import grp
from tbk.errors import (
    InfeasibleError,
    MalformedError,
    NonCentralSubgroupError,
    NotAbelianError,
    NotAGroupError,
    OrderBoundExceededError,
)


def s3_group() -> grp.FiniteGroup:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    ]
    return grp.build_from_cayley(table)


def quaternion_table() -> list[list[int]]:
    # elements 1, -1, i, -i, j, -j, k, -k encoded as (axis, sign)
    names = [(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)]
    index = {v: i for i, v in enumerate(names)}

    def mul(a, b):
        (ax, sa), (bx, sb) = a, b
        s = sa * sb
        if ax == 0:
            return (bx, s)
        if bx == 0:
            return (ax, s)
        if ax == bx:
            return (0, -s)
        # i*j=k, j*k=i, k*i=j and anticommutation
        table = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
                 (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1)}
        cx, cs = table[(ax, bx)]
        return (cx, s * cs)

    return [[index[mul(a, b)] for b in names] for a in names]


def q8_group() -> grp.FiniteGroup:
    return grp.build_from_cayley(
        quaternion_table(),
        labels=["1", "-1", "i", "-i", "j", "-j", "k", "-k"],
    )


def test_build_cyclic_table():
    g = grp.build_from_cayley([[(a + b) % 4 for b in range(4)] for a in range(4)])
    assert g.order == 4
    assert g.is_abelian()
    assert len(g.generators) == 1


def test_build_s3():
    g = s3_group()
    assert g.order == 6
    assert not g.is_abelian()
    # full brute-force associativity on all 216 triples
    for a in range(6):
        for b in range(6):
            for c in range(6):
                assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_corrupted_table_rejected():
    table = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    table[3][4] = 1  # break it
    with pytest.raises(NotAGroupError):
        grp.build_from_cayley(table)


def test_nonassociative_latin_table_above_order_256_rejected():
    # Z_2048 with one intercalate swapped stays a Latin square with identity
    # and right inverses, so only associativity fails, and on few triples
    n = 2048
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    for a, b, c in ((3, 5, 1029), (1027, 1029, 5)):
        table[a, b], table[a, c] = table[a, c], table[a, b]
    with pytest.raises(NotAGroupError) as info:
        grp.build_from_cayley(table, generators=[1])
    x, y, z = info.value.witness
    assert table[table[x, y], z] != table[x, table[y, z]]


def test_identity_search_among_idempotents():
    # x * y = x: every element is idempotent and none is an identity
    left_zero = [[a] * 4 for a in range(4)]
    with pytest.raises(NotAGroupError,
                       match="expected exactly one identity, found 0"):
        grp.build_from_cayley(left_zero)
    # Z_3 with the labels 0 and 2 swapped: the one idempotent, 2, is the
    # identity and moves to index 0
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    swap = {0: 2, 1: 1, 2: 0}
    moved = [[swap[table[swap[a]][swap[b]]] for b in range(3)]
             for a in range(3)]
    g = grp.build_from_cayley(moved)
    assert g.mul(0, 1) == 1 and g.mul(1, 1) == 2


def test_identity_relocation():
    # shift the identity away from index 0 and expect relocation
    base = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    perm = [2, 0, 1]  # old -> position
    inv = [perm.index(i) for i in range(3)]
    tab = [[perm[base[inv[i]][inv[j]]] for j in range(3)] for i in range(3)]
    g = grp.build_from_cayley(tab)
    assert g.mul(0, 1) == 1 and g.mul(1, 0) == 1


def test_closure_trivial_and_involutions():
    one = (1,)
    g, els = grp.closure([one], lambda a, b: a, lambda x: x)
    assert g.order == 1

    # two anticommuting 2x2 involutions generate a group of order 8
    import tbk.cyclo as cyclo

    P = cyclo.CycloMatrix([[0, 1], [1, 0]])
    Q = cyclo.CycloMatrix([[1, 0], [0, -1]])
    g, els = grp.closure([P, Q], lambda a, b: a * b, lambda m: m.key())
    assert g.order == 8
    assert els[0].is_identity()


def test_closure_bound(monkeypatch):
    import tbk.cyclo as cyclo

    P = cyclo.CycloMatrix([[0, 1], [1, 0]])
    Q = cyclo.CycloMatrix([[1, 0], [0, -1]])
    monkeypatch.setenv("TBK_MAX_ORDER", "5")
    with pytest.raises(OrderBoundExceededError,
                       match="^closure exceeded bound 5$"):
        grp.closure([P, Q], lambda a, b: a * b, lambda m: m.key())
    monkeypatch.setenv("TBK_MAX_ORDER", "8")
    assert grp.closure([P, Q], lambda a, b: a * b,
                       lambda m: m.key())[0].order == 8


def test_order_cap_reads_the_environment(monkeypatch):
    monkeypatch.delenv("TBK_MAX_ORDER", raising=False)
    assert grp.order_cap() == grp.DEFAULT_ORDER_CAP == 10_000
    monkeypatch.setenv("TBK_MAX_ORDER", "")
    assert grp.order_cap() == grp.DEFAULT_ORDER_CAP
    monkeypatch.setenv("TBK_MAX_ORDER", "0")
    assert grp.order_cap() == 1
    monkeypatch.setenv("TBK_MAX_ORDER", "many")
    with pytest.raises(MalformedError,
                       match="TBK_MAX_ORDER must be an integer, got 'many'"):
        grp.closure([1], lambda a, b: (a + b) % 2, lambda x: x)


def test_closure_predicts_its_table_against_the_memory_budget(monkeypatch):
    def z_mod(n):
        return grp.closure([1], lambda a, b: (a + b) % n, lambda x: x)

    # Z_12: a 12 x 12 table of 4-byte entries takes 576 bytes
    monkeypatch.setattr(grp, "_memory_budget", lambda: 576)
    assert z_mod(12)[0].order == 12
    with pytest.raises(InfeasibleError) as info:
        z_mod(13)
    assert info.value.exit_code == 4
    assert "13 elements" in str(info.value)


def test_closure_is_deterministic():
    import tbk.cyclo as cyclo

    P = cyclo.CycloMatrix([[0, 1], [1, 0]])
    Q = cyclo.CycloMatrix([[1, 0], [0, -1]])
    g1, els1 = grp.closure([P, Q], lambda a, b: a * b, lambda m: m.key())
    g2, els2 = grp.closure([Q, P], lambda a, b: a * b, lambda m: m.key())
    assert np.array_equal(g1.mul_table(), g2.mul_table())
    assert [m.key() for m in els1] == [m.key() for m in els2]


def test_conjugacy_classes():
    z4 = grp.cyclic(4)
    assert [len(c) for c in grp.conjugacy_classes(z4)] == [1, 1, 1, 1]

    s3 = s3_group()
    assert sorted(len(c) for c in grp.conjugacy_classes(s3)) == [1, 2, 3]

    q8 = q8_group()
    classes = grp.conjugacy_classes(q8)
    assert len(classes) == 5
    # classes partition the group and sizes divide the order
    all_els = sorted(int(x) for c in classes for x in c)
    assert all_els == list(range(8))
    assert all(8 % len(c) == 0 for c in classes)


def _orbit_classes(g: grp.FiniteGroup) -> list[np.ndarray]:
    """Classes by definition: the orbit {t x t^-1 : t in G} of each element
    not yet seen, in element order."""
    mul, inv = g.mul_table(), g.inv_table()
    t = np.arange(g.order)
    seen = np.zeros(g.order, dtype=bool)
    out = []
    for x in range(g.order):
        if not seen[x]:
            orbit = np.unique(mul[mul[t, x], inv[t]])
            seen[orbit] = True
            out.append(orbit)
    return out


def _relabelled(g: grp.FiniteGroup, seed: int) -> grp.FiniteGroup:
    """g with its non-identity elements shuffled, generators following."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
    back = np.argsort(perm)
    mul = perm[g.mul_table()[np.ix_(back, back)]]
    return grp.FiniteGroup(mul, [int(perm[s]) for s in g.generators])


def test_conjugacy_classes_match_the_orbit_definition(bundle_p2):
    from tests.test_cocycle import alternating4, dihedral8

    c, dp = grp.cyclic, grp.direct_product
    groups = [c(1), c(9), s3_group(), q8_group(), dihedral8(), alternating4(),
              dp(s3_group(), q8_group()), dp(dihedral8(), c(3)),
              bundle_p2.group]
    groups += [_relabelled(g, seed) for seed, g in enumerate(groups[2:])]
    for g in groups:
        got, want = grp.conjugacy_classes(g), _orbit_classes(g)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        orders = {g.order_of(x) for x in range(g.order)}
        assert g.exponent() == math.lcm(*orders)


def test_centralizer_and_class_equation():
    for g in (s3_group(), q8_group()):
        for cls in grp.conjugacy_classes(g):
            z = grp.centralizer(g, int(cls[0]))
            assert z.order * len(cls) == g.order
    s3 = s3_group()
    transposition = next(
        x for x in range(6) if s3.order_of(x) == 2
    )
    assert grp.centralizer(s3, transposition).order == 2


def test_center_and_generated():
    q8 = q8_group()
    assert grp.center(q8).elements == (0, 1)  # {1, -1}
    s3 = s3_group()
    three_cycle = next(x for x in range(6) if s3.order_of(x) == 3)
    assert grp.subgroup_generated(s3, [three_cycle]).order == 3
    assert grp.centralizer(q8, 2).order == 4  # <i>


def heisenberg_group(p: int) -> grp.FiniteGroup:
    """Unitriangular 3 x 3 matrices over Z_p: (a, b, c) is a*p^2 + b*p + c,
    and (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a*b')."""
    els = list(itertools.product(range(p), repeat=3))
    index = {x: i for i, x in enumerate(els)}
    return grp.build_from_cayley([
        [index[(a + x) % p, (b + y) % p, (c + z + a * y) % p]
         for x, y, z in els] for a, b, c in els])


def test_center_and_is_abelian_match_the_whole_table(bundle_p2):
    q8 = q8_group()
    groups = [q8, heisenberg_group(2), heisenberg_group(3), s3_group(),
              grp.direct_product(q8, grp.cyclic(3)),
              grp.direct_product(s3_group(), heisenberg_group(2)),
              grp.direct_product(grp.cyclic(4), grp.cyclic(6)),
              grp.cyclic(1), bundle_p2.group]
    for g in groups:
        mul = g.mul_table()
        zc = grp.center(g)
        assert zc.elements == tuple(
            int(x) for x in np.flatnonzero((mul == mul.T).all(axis=1)))
        assert grp.subgroup_generated(g, zc.witness_generators).elements \
            == zc.elements
        assert g.is_abelian() == np.array_equal(mul, mul.T)
    assert [grp.center(g).order for g in groups] == [
        2, 2, 3, 1, 6, 2, 24, 1, 8]


def _check_generators(h: grp.Subgroup) -> None:
    g = h.parent
    assert h.witness_generators == grp._greedy_subgroup_generators(
        g.mul_table(), h.elements)
    assert grp.subgroup_generated(g, h.witness_generators).elements \
        == h.elements


def test_lazily_built_generators_are_the_greedy_ones(bundle_p2, bundle_p3):
    g2 = bundle_p2.group
    for x in range(g2.order):
        _check_generators(grp.centralizer(g2, x))
    g3 = bundle_p3.group
    for r in grp.class_representatives(g3)[:20]:
        _check_generators(grp.centralizer(g3, r))
    for g in (g2, g3, q8_group(), grp.cyclic(1)):
        _check_generators(grp.center(g))


def test_a_b0_member_scan_builds_no_generators(bundle_p2, monkeypatch):
    from tbk import brauer
    from tbk.cocycle import Cocycle2

    calls = []
    greedy = grp._greedy_subgroup_generators

    def counted(mul, elements):
        calls.append(len(elements))
        return greedy(mul, elements)

    monkeypatch.setattr(grp, "_greedy_subgroup_generators", counted)
    c = bundle_p2.cocycle("e12")
    g = grp.FiniteGroup(c.group.mul_table(), c.group.generators,
                        _validated=True)
    assert brauer.in_B0(Cocycle2(g, c.modulus, c.table)).member
    pairs = g._cache["class_pairs"]
    assert len(pairs.starts) == len(grp.class_representatives(g))
    assert calls == []
    grp.centralizer(g, 1).witness_generators
    assert calls == [grp.centralizer(g, 1).order]


def test_a_group_file_walks_its_cayley_graph_once(bundle_p2, monkeypatch,
                                                  tmp_path):
    import json

    from tbk import brauer, fileio
    from tbk import cocycle as cx

    path = tmp_path / "group.json"
    path.write_text(fileio.dump_json(fileio.encode_group(bundle_p2.group)))
    walks = []
    tree, closure = grp.CayleyTree, grp._closure_in_table

    def counted_tree(levels, parent, letter):
        walks.append(("tree", len(parent)))
        return tree(levels, parent, letter)

    def counted_closure(mul, seed):
        out = closure(mul, seed)
        if len(out) == len(mul):  # a closure that walks the whole graph
            walks.append(("closure", len(out)))
        return out

    monkeypatch.setattr(grp, "CayleyTree", counted_tree)
    monkeypatch.setattr(grp, "_closure_in_table", counted_closure)
    g = fileio.decode_group(json.loads(path.read_text()))
    assert walks == [("tree", 128)]
    forms = [cx.Cocycle2(g, 2, bundle_p2.cocycle(f"e{ij}").table)
             for ij in ("12", "13", "14", "23", "24", "34")]
    for c in forms:
        for sense in ("torus", "mod-m"):
            cx.is_coboundary(c, sense=sense)
    assert brauer.span_analysis(forms).invariant_factors == (2,)
    assert walks == [("tree", 128)]


def test_cayley_tree_is_the_bfs_over_declared_generators():
    g = grp.direct_product(grp.cyclic(3), grp.cyclic(4))
    gens = g.generators
    queue, parent, letter = [0], {}, {}
    for x in queue:  # appending while iterating walks breadth first
        for j, s in enumerate(gens):
            y = g.mul(x, s)
            if y != 0 and y not in parent:
                parent[y], letter[y] = x, j
                queue.append(y)
    tree = grp.cayley_tree(g)
    assert np.concatenate(tree.levels).tolist() == queue
    assert all(tree.parent[y] == x for y, x in parent.items())
    assert all(tree.letter[y] == j for y, j in letter.items())
    # a group built without validation walks it on first use, once
    assert grp.cayley_tree(g) is tree
    with pytest.raises(NotAGroupError, match="do not generate"):
        grp.FiniteGroup(g.mul_table(), [gens[0]])


def test_commuting_pairs_klein():
    v4 = grp.direct_product(grp.cyclic(2), grp.cyclic(2))
    pairs = list(grp.commuting_pairs(v4))
    assert len(pairs) == 10
    assert pairs == sorted(pairs)


def test_abelian_structure():
    z6 = grp.cyclic(6)
    s = grp.abelian_structure(z6)
    assert s.invariant_factors == (6,)

    z2z4 = grp.direct_product(grp.cyclic(2), grp.cyclic(4))
    s = grp.abelian_structure(z2z4)
    assert s.invariant_factors == (4, 2)

    # dlog is additive
    g = z2z4
    for a in range(8):
        for b in range(8):
            ab = g.mul(a, b)
            expect = tuple(
                (x + y) % d
                for x, y, d in zip(s.dlog[a], s.dlog[b], s.invariant_factors)
            )
            assert s.dlog[ab] == expect


def test_abelian_structure_klein_in_d4():
    # dihedral group of order 8 as permutation matrices of the square
    import tbk.cyclo as cyclo

    rot = cyclo.CycloMatrix([[0, -1], [1, 0]])
    ref = cyclo.CycloMatrix([[1, 0], [0, -1]])
    d4, _ = grp.closure([rot, ref], lambda a, b: a * b, lambda m: m.key())
    assert d4.order == 8
    # find a Klein four subgroup
    invs = [x for x in range(8) if d4.order_of(x) <= 2]
    klein = None
    for a, b in itertools.combinations([x for x in invs if x], 2):
        h = grp.subgroup_generated(d4, [a, b])
        if h.order == 4:
            klein = h
            break
    assert klein is not None
    s = grp.abelian_structure(klein)
    assert s.invariant_factors == (2, 2)


def test_abelian_structure_rejects_nonabelian():
    with pytest.raises(NotAbelianError):
        grp.abelian_structure(s3_group())


def test_quotients():
    z4 = grp.cyclic(4)
    ext = grp.quotient_by_central(z4, grp.subgroup_generated(z4, [2]))
    assert ext.quotient.order == 2

    q8 = q8_group()
    ext = grp.quotient_by_central(q8, grp.center(q8))
    assert ext.quotient.order == 4
    assert grp.abelian_structure(ext.quotient).invariant_factors == (2, 2)
    # projection(section(q)) == q and fibers have kernel size
    for q in range(ext.quotient.order):
        assert ext.projection[ext.section[q]] == q
    sizes = np.bincount(ext.projection)
    assert (sizes == ext.kernel.order).all()
    assert ext.section[0] == 0


def test_quotient_requires_central():
    s3 = s3_group()
    three = next(x for x in range(6) if s3.order_of(x) == 3)
    h = grp.subgroup_generated(s3, [three])
    with pytest.raises(NonCentralSubgroupError):
        grp.quotient_by_central(s3, h)


def test_quotient_by_central_witness_matches_a_center_sweep():
    s3 = s3_group()
    for g in (s3, q8_group(), grp.direct_product(s3, grp.cyclic(2))):
        zs = grp.center(g).element_set()
        for seed in itertools.combinations(range(g.order), 2):
            n = grp.subgroup_generated(g, seed)
            want = next((x for x in n.elements if x not in zs), None)
            if want is None:
                ext = grp.quotient_by_central(g, n)
                assert ext.quotient.order * n.order == g.order
                continue
            with pytest.raises(NonCentralSubgroupError) as info:
                grp.quotient_by_central(g, n)
            assert info.value.witness == want


def test_quotient_by_central_rejects_an_unclosed_element_set():
    z4 = grp.cyclic(4)
    with pytest.raises(NotAGroupError):
        grp.quotient_by_central(z4, grp.Subgroup(z4, (0, 1), (1,)))


def test_quotient_by_normal_against_element_loop():
    s3 = s3_group()
    three = next(x for x in range(6) if s3.order_of(x) == 3)
    quot, proj, section = grp.quotient_by_normal(
        s3, grp.subgroup_generated(s3, [three]))
    assert quot.order == 2
    least = [min(s3.mul(x, y) for y in (0, three, s3.mul(three, three)))
             for x in range(6)]
    cosets = sorted(set(least))
    assert list(section) == cosets
    assert list(proj) == [cosets.index(m) for m in least]
    # a non-normal subgroup: the witness is the first escaping (t, x)
    for two in (x for x in range(6) if s3.order_of(x) == 2):
        h = grp.subgroup_generated(s3, [two])
        expected = next((t, x) for x in h.elements for t in range(6)
                        if s3.conj(t, x) not in h.element_set())
        with pytest.raises(NonCentralSubgroupError) as info:
            grp.quotient_by_normal(s3, h)
        assert info.value.witness == expected


def test_subgroup_as_group_roundtrip():
    q8 = q8_group()
    h = grp.centralizer(q8, 2)
    sub, pos = h.as_group()
    assert sub.order == 4
    for a in h.elements:
        for b in h.elements:
            assert sub.mul(pos[a], pos[b]) == pos[q8.mul(a, b)]


def test_exponent():
    assert grp.cyclic(6).exponent() == 6
    assert q8_group().exponent() == 4
    v4 = grp.direct_product(grp.cyclic(2), grp.cyclic(2))
    assert v4.exponent() == 2


def test_abelian_structure_round_trip():
    # the dlog map is an isomorphism onto the product of cyclic factors
    for g in (grp.cyclic(12),
              grp.direct_product(grp.cyclic(2), grp.cyclic(4)),
              grp.direct_product(grp.cyclic(6), grp.cyclic(4))):
        s = grp.abelian_structure(g)
        product = grp.cyclic(s.invariant_factors[0])
        for d in s.invariant_factors[1:]:
            product = grp.direct_product(product, grp.cyclic(d))
        # index of an exponent vector inside the reconstructed product
        def pack(vec):
            idx = 0
            for e, d in zip(vec, s.invariant_factors):
                idx = idx * d + e
            return idx
        for a in range(g.order):
            for b in range(g.order):
                left = pack(s.dlog[g.mul(a, b)])
                right = product.mul(pack(s.dlog[a]), pack(s.dlog[b]))
                assert left == right


def test_relabelling_the_identity_peaks_near_two_int32_tables():
    import tracemalloc

    # Z_n written with its identity at index e: a + b - e (mod n)
    n, e = 1024, 517
    a = np.arange(n)
    table = (a[:, None] + a[None, :] - e) % n
    tracemalloc.start()
    try:
        g = grp.build_from_cayley(table, generators=[e + 1])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g._mul.dtype == np.int32
    # e moves to index 0 and the elements before it move up by one
    new = np.where(a < e, a + 1, a)
    new[e] = 0
    assert np.array_equal(g.mul_table()[new[:, None], new[None, :]], new[table])
    assert peak <= 2.5 * n * n * 4


def _whole(g: grp.FiniteGroup) -> grp.Subgroup:
    return grp.Subgroup(g, tuple(range(g.order)), g.generators)


def _cyclic_quotient_subgroups_by_search(g: grp.FiniteGroup) -> set:
    """Every K generated by two elements with g = <K, a> for some a."""
    subgroups = {grp.subgroup_generated(g, [x, y]).elements
                 for x in range(g.order) for y in range(g.order)}
    return {k for k in subgroups
            if any(len(grp.subgroup_generated(g, list(k) + [a]).elements)
                   == g.order for a in range(g.order))}


@pytest.mark.parametrize("factors", [(4, 2), (3, 3), (8,)])
def test_cyclic_quotient_kernels_match_a_search(factors):
    g = grp.cyclic(factors[0])
    for d in factors[1:]:
        g = grp.direct_product(g, grp.cyclic(d))
    kernels = grp.cyclic_quotient_kernels(_whole(g))
    found = [k.elements for k in kernels]
    assert len(found) == len(set(found))
    assert set(found) == _cyclic_quotient_subgroups_by_search(g)
    for k in kernels:
        assert k.elements == tuple(sorted(k.elements))
        assert grp.subgroup_generated(
            g, k.witness_generators).elements == k.elements


def test_index_p_kernels_come_in_normalised_functional_order():
    # Z_3^3: the hyperplanes, each at its functional with leading coefficient 1
    p = 3
    g = grp.direct_product(grp.direct_product(grp.cyclic(p), grp.cyclic(p)),
                           grp.cyclic(p))
    whole = _whole(g)
    st = grp.abelian_structure(whole)
    expected = []
    for phi in itertools.product(range(p), repeat=3):
        if any(phi) and phi[next(i for i, v in enumerate(phi) if v)] == 1:
            expected.append(tuple(sorted(
                x for x in range(g.order)
                if sum(a * b for a, b in zip(st.dlog[x], phi)) % p == 0)))
    got = [k.elements for k in grp.cyclic_quotient_kernels(whole)
           if k.order * p == g.order]
    assert got == expected


def first_light_failure(mul: np.ndarray, gens) -> tuple[int, int, int] | None:
    """The first (x, s, y) with (xs)y != x(sy), generators in order, then
    rows, then columns: the witness one loop over Light's test gives."""
    for s in gens:
        bad = np.argwhere(mul[mul[:, s]] != mul[:, mul[s]])
        if len(bad):
            return int(bad[0][0]), int(s), int(bad[0][1])
    return None


def group_outcome(table, gens):
    try:
        grp.build_from_cayley(table, generators=gens)
    except NotAGroupError as exc:
        return str(exc), exc.witness
    return None


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_light_witness_is_the_same_inline_and_pooled(monkeypatch, pooled,
                                                     cpus):
    # 4-row blocks: a table of order 30 is 8 blocks per generator, and the
    # swaps break associativity in several of them, for several generators
    monkeypatch.setattr(grp, "LIGHT_BLOCK_ROWS", 4)
    monkeypatch.setattr(pooled, "cpus", lambda: cpus)
    rng = np.random.default_rng(5)
    n, gens = 30, [1, 7, 2]
    failing = 0
    for trial in range(60):
        table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        # swaps inside rows keep every row a permutation with 0 in it, and
        # leave the identity's row and column alone
        for _ in range(rng.integers(1, 6)):
            x = rng.integers(1, n)
            b, c = rng.integers(1, n, size=2)
            table[x, b], table[x, c] = table[x, c], table[x, b]
        got = group_outcome(table, gens)
        want = first_light_failure(table, gens)
        if got is not None and got[0].startswith("associativity"):
            failing += 1
            assert got == (f"associativity fails at {want}", want)
        elif got is None:
            assert want is None
    assert failing > 30
    assert (pooled._pool is not None) == (cpus > 1)


@pytest.mark.parametrize("table", [
    np.array([[0, 1], [1, 2**32]]),
    [[0, 1], [1, 2**32]],
    np.array([[0, 1], [1, 2**32 + 1]], dtype=np.uint64),
    np.array([[0, 1], [1, -2**32]]),
], ids=["int64", "python-int", "uint64", "negative"])
def test_an_entry_that_wraps_into_range_is_rejected(table):
    # each of these tables narrows to Z2's table in int32
    with pytest.raises(NotAGroupError, match="out of range"):
        grp.FiniteGroup(table, [1])
    with pytest.raises(NotAGroupError, match="out of range"):
        grp.build_from_cayley(table)


def test_a_group_table_is_range_checked_once(monkeypatch):
    checked = []
    table32 = grp._int32_table

    def counted(table):
        checked.append(np.asarray(table).dtype)
        return table32(table)

    monkeypatch.setattr(grp, "_int32_table", counted)
    g = grp.build_from_cayley([[(a + b) % 6 for b in range(6)] for a in range(6)])
    assert g.order == 6 and len(checked) == 1
