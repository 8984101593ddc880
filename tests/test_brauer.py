from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from tbk import brauer as br
from tbk import cocycle as cx
from tbk import grp, zmlin
from tbk import rep as rp
from tbk.cyclo import CycloMatrix, CycloNumber
from tbk.errors import ModulusMismatchError, NonIntegralDimensionError

from tests.test_cocycle import klein, pairing_cocycle


def klein_model() -> tuple[grp.FiniteGroup, rp.LinearActionModel]:
    """Faithful diagonal model of Z_2 x Z_2 with U = V."""
    g, rep = rp.matrix_closure([
        CycloMatrix.diagonal([-1, 1]),
        CycloMatrix.diagonal([1, -1]),
    ])
    assert g.order == 4
    return g, rp.build_model(rep, 3)  # threshold > dim: empty arrangement


def z3z3_model() -> tuple[grp.FiniteGroup, rp.LinearActionModel]:
    z = CycloNumber.zeta(3)
    g, rep = rp.matrix_closure([
        CycloMatrix.diagonal([z, CycloNumber.rational(1, 3)]),
        CycloMatrix.diagonal([CycloNumber.rational(1, 3), z]),
    ])
    assert g.order == 9
    return g, rp.build_model(rep, 3)


def test_l_character_of_coboundary_is_trivial():
    g, model = klein_model()
    rng = random.Random(0)
    for _ in range(5):
        lam = cx.Cochain1(g, 2, [0] + [rng.randrange(2) for _ in range(3)])
        rows = br.orbifold_dims(model, cx.coboundary_of(lam)).rows
        assert sorted(r.representative for r in rows) == [0, 1, 2, 3]
        assert all(r.l_trivial for r in rows)


def test_l_character_of_pairing():
    g, model = klein_model()
    c = pairing_cocycle(g)
    e1, e2 = g.generators
    rows = {r.representative: r for r in br.orbifold_dims(model, c).rows}
    assert not rows[e1].l_trivial
    assert c.beta(e1, e2) == 1
    assert rows[0].l_trivial


def test_in_b0_zero_cocycle():
    g = klein()
    assert br.in_B0(cx.Cocycle2.zero(g, 2)).member


def test_in_b0_pairing_fails_with_witness():
    c = pairing_cocycle(klein())
    verdict = br.in_B0(c)
    assert not verdict.member
    a, b = verdict.witness_pair
    assert cx.antisym(c, a, b) != 0


def test_empty_arrangement_makes_bg_equal_b0():
    g, model = klein_model()
    structure = grp.abelian_structure(g)
    mat = [[0, 1], [0, 0]]
    c = cx.from_bilinear_form(
        cx.BilinearForm(g, structure, 2, tuple(map(tuple, mat))))
    assert model.arrangement == ()
    assert br.in_B0(c).member == br.in_BG(c, model).member
    assert not br.in_BG(c, model).member
    zero = cx.Cocycle2.zero(g, 2)
    assert br.in_BG(zero, model).member


def test_b0_implies_bg_on_any_model(bundle_p2):
    b = bundle_p2
    for name in b.catalog_names:
        c = b.cocycle(name)
        if br.in_B0(c).member:
            assert br.in_BG(c, b.model).member


def test_in_b0_does_not_copy_the_table(bundle_p2):
    # the scan gathers rows and columns in the table's dtype: one call stays
    # below an int64 copy of the n x n table
    c = bundle_p2.cocycle("e12")
    cx.ensure_cocycle(c)
    n = c.group.order
    tracemalloc.start()
    try:
        verdict = br.in_B0(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.member
    assert peak < 8 * n * n


def test_bicyclic_agrees_with_pair_scan_small():
    g, model = klein_model()
    structure = grp.abelian_structure(g)
    for mat in ([[0, 1], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 0]]):
        c = cx.from_bilinear_form(
            cx.BilinearForm(g, structure, 2, tuple(map(tuple, mat))))
        v = br.bg_cross_check(c, model)
        assert v.member == br.in_BG(c, model).member


def test_bicyclic_witness_structure(bundle_p2):
    b = bundle_p2
    verdict = br.in_BG_bicyclic(b.cocycle("e13"), b.model)
    assert not verdict.member
    w = verdict.witness
    assert w.subgroup.order <= 16
    sub_set = set(w.subgroup.elements)
    assert set(w.kernel.elements) <= sub_set
    assert w.fixed_space_codim <= b.model.codim_threshold - 1
    x, y = w.pair
    assert b.cocycle("e13").value(x, y) != b.cocycle("e13").value(y, x)


def test_trivial_group_vacuously_in_bg():
    g, rep = rp.matrix_closure([CycloMatrix.identity(2)])
    model = rp.build_model(rep, 1)
    c = cx.Cocycle2.zero(g, 1)
    assert br.in_BG(c, model).member
    assert br.in_BG_bicyclic(c, model).member


def test_open_flags_are_surveyed_once_per_model(bundle_p2, monkeypatch):
    b = bundle_p2
    model = rp.LinearActionModel(b.rep, b.model.arrangement,
                                 b.model.codim_threshold)
    calls = []
    survey = rp.fixed_locus_survey

    def counting(m):
        calls.append(m)
        return survey(m)

    monkeypatch.setattr(rp, "fixed_locus_survey", counting)
    c = b.cocycle("e12")
    forms = [b.cocycle(x) for x in b.catalog_names if x[1].isdigit()]
    br.in_BG(c, model)
    br.orbifold_dims(model, c)
    br.verify_cor53(model, c)
    br.span_analysis(forms, model)
    assert calls == [model]
    flags = br._open_flags(model)
    assert not all(flags.values())
    # a second model on the same group keeps its own flags
    open_model = rp.build_model(b.rep, b.rep.degree + 1)
    br.in_BG(c, open_model)
    assert calls == [model, open_model]
    assert all(br._open_flags(open_model).values())
    assert br._open_flags(model) == flags


def test_span_analysis_empty():
    report = br.span_analysis([])
    assert report.invariant_factors == ()


def test_span_analysis_klein_single_class():
    g, model = klein_model()
    structure = grp.abelian_structure(g)
    c = cx.from_bilinear_form(
        cx.BilinearForm(g, structure, 2, ((0, 1), (0, 0))))
    report = br.span_analysis([c])
    # the pairing class is not in B0 (all pairs commute), so the kernel is 0
    assert report.invariant_factors == ()
    assert report.kernel_generators in ((), ((0,),))


# Reference for span_analysis: the set-enumeration algorithm it replaced.
# Exponential in the catalog size, so only for small catalogs.


def reference_span_analysis(basis, model=None) -> br.SpanReport:
    """Brute-force span analysis: enumerate the kernel sublattice as a set,
    grow the trivial subgroup by torus coboundary solves on coset minima,
    and split the quotient by repeated cyclic-summand extraction.
    """
    if not basis:
        return br.SpanReport(0, 0, 0, (), (), (), None)
    g = basis[0].group
    m = basis[0].modulus
    for c in basis:
        if c.group is not g or c.modulus != m:
            raise ModulusMismatchError("catalog entries are not compatible")
        cx.ensure_cocycle(c)
    if model is not None and model.group is not g:
        raise ModulusMismatchError("model group does not match the catalog")

    flags = br._open_flags(model) if model is not None else None
    pair_list: list[tuple[int, int]] = []
    for rep_ in grp.class_representatives(g):
        if flags is not None and not flags[rep_]:
            continue
        z = grp.centralizer(g, rep_)
        pair_list.extend((rep_, int(h)) for h in z.elements)
    pairs = np.array(pair_list, dtype=np.int64).reshape(-1, 2)

    mat = np.array([c.beta(pairs[:, 0], pairs[:, 1]) for c in basis], dtype=np.int64)
    kernel_rows = zmlin.left_kernel(mat, m)

    def combo(vec) -> cx.Cocycle2:
        out = cx.Cocycle2.zero(g, m)
        for t, c in zip(vec, basis):
            if t % m:
                out = out + c.scale(int(t) % m)
        return out

    def trivial(vec) -> bool:
        return cx.is_coboundary(combo(vec), sense="torus") is not None

    gen_rows = [tuple(int(x) for x in row) for row in kernel_rows]
    verdicts = [trivial(row) for row in kernel_rows]

    # enumerate the (small) kernel sublattice and grow the trivial subgroup
    k = len(basis)
    elements: set[tuple[int, ...]] = {tuple([0] * k)}
    frontier = list(elements)
    while frontier:
        nxt = []
        for v in frontier:
            for row in gen_rows:
                w = tuple((a + b) % m for a, b in zip(v, row))
                if w not in elements:
                    elements.add(w)
                    nxt.append(w)
        frontier = nxt

    trivial_set: set[tuple[int, ...]] = {tuple([0] * k)}
    for row, verdict in zip(gen_rows, verdicts):
        if verdict:
            trivial_set.add(row)
    trivial_set = _close_subgroup(trivial_set, m)
    changed = True
    verdict_cache: dict[tuple[int, ...], bool] = {v: True for v in trivial_set}
    while changed:
        changed = False
        cosets = _cosets(elements, trivial_set, m)
        for rep_vec in cosets:
            if rep_vec in trivial_set or not any(rep_vec):
                continue
            if rep_vec not in verdict_cache:
                verdict_cache[rep_vec] = trivial(rep_vec)
            if verdict_cache[rep_vec]:
                trivial_set.add(rep_vec)
                trivial_set = _close_subgroup(trivial_set, m)
                changed = True
                break

    factors, example = _quotient_invariants(elements, trivial_set, m)
    return br.SpanReport(m, k, len(pairs), tuple(gen_rows), tuple(verdicts),
                         factors, example)


def _close_subgroup(gens: set, m: int) -> set:
    out = set(gens)
    frontier = list(out)
    while frontier:
        nxt = []
        for v in frontier:
            for w in list(gens):
                u = tuple((a + b) % m for a, b in zip(v, w))
                if u not in out:
                    out.add(u)
                    nxt.append(u)
        frontier = nxt
    return out


def _cosets(elements: set, sub: set, m: int) -> list:
    reps = {}
    for v in sorted(elements):
        key = min(tuple((a - b) % m for a, b in zip(v, w)) for w in sub)
        reps.setdefault(key, v)
    return [reps[k] for k in sorted(reps)]


def _quotient_invariants(elements: set, sub: set, m: int
                         ) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """Invariant factors of elements/sub, with a generator of a top factor."""
    k = len(next(iter(elements)))
    zero = tuple([0] * k)

    def coset(v):
        return min(tuple((a - b) % m for a, b in zip(v, w)) for w in sub)

    quotient = {coset(v) for v in elements}
    if quotient == {zero}:
        return (), None

    def q_add(u, v):
        return coset(tuple((a + b) % m for a, b in zip(u, v)))

    def q_order(v):
        o, w = 1, v
        while w != zero:
            w = q_add(w, v)
            o += 1
        return o

    factors = []
    example = None
    remaining = set(quotient)
    while len(remaining) > 1:
        cand = max(sorted(remaining - {zero}), key=q_order)
        o = q_order(cand)
        factors.append(o)
        if example is None:
            example = cand
        cyc = set()
        w = zero
        for _ in range(o):
            cyc.add(w)
            w = q_add(w, cand)
        comp = {zero}
        for v in sorted(remaining):
            trial = _close_quotient(comp | {v}, q_add)
            if trial & cyc == {zero}:
                comp = trial
        if len(comp) * o != len(remaining):
            raise AssertionError("quotient basis extraction failed")
        remaining = comp
    return tuple(factors), example


def _close_quotient(gens: set, add) -> set:
    out = set(gens)
    frontier = list(out)
    while frontier:
        nxt = []
        for v in frontier:
            for w in list(gens):
                u = add(v, w)
                if u not in out:
                    out.add(u)
                    nxt.append(u)
        frontier = nxt
    return out


def _diagonal_model(diagonals, order: int, threshold: int):
    g, rep = rp.matrix_closure(
        [CycloMatrix.diagonal(d) for d in diagonals], order=order)
    return g, rp.build_model(rep, threshold)


def _random_catalog(g: grp.FiniteGroup, m: int, forms, size: int,
                    rng: random.Random) -> list[cx.Cocycle2]:
    """Random combinations of the given classes, each shifted by a random
    coboundary, with plain coboundaries mixed in."""
    out = []
    for _ in range(size):
        c = cx.coboundary_of(cx.Cochain1(
            g, m, [0] + [rng.randrange(m) for _ in range(g.order - 1)]))
        if rng.random() < 0.8:
            for f in forms:
                c = c + f.scale(rng.randrange(m))
        out.append(c)
    return out


def _pairing_forms(g: grp.FiniteGroup, m: int) -> list[cx.Cocycle2]:
    """One bilinear form per coordinate pair i < j, scaled to be well defined."""
    st = grp.abelian_structure(g)
    r = len(st.invariant_factors)
    out = []
    for i in range(r):
        for j in range(i + 1, r):
            mat = np.zeros((r, r), dtype=np.int64)
            d = np.gcd(np.gcd(st.invariant_factors[i], st.invariant_factors[j]), m)
            mat[i, j] = m // d
            out.append(cx.from_bilinear_form(
                cx.BilinearForm(g, st, m, tuple(map(tuple, mat)))))
    return out


def test_span_analysis_matches_reference_on_random_abelian_catalogs():
    # Threshold 1 puts every nontrivial fixed space in the arrangement, so
    # B(U) is the whole span and K / T is the span of the pairings; larger
    # thresholds and B0 cut it down. Z4 x Z4 x Z2 gives the factors (4, 2, 2).
    i4 = CycloNumber.zeta(4)
    one = CycloNumber.rational(1)
    cases = [
        ([[-1, 1], [1, -1]], 2, 2),
        ([[-1, 1, 1], [1, -1, 1], [1, 1, -1]], 2, 2),
        ([[i4, one], [one, -1]], 4, 4),
        ([[i4, one, one], [one, i4, one], [one, one, -1]], 4, 4),
    ]
    rng = random.Random(43)
    seen = set()
    for diagonals, order, m in cases:
        for threshold in (1, 2, len(diagonals[0]) + 1):
            g, model = _diagonal_model(diagonals, order, threshold)
            forms = _pairing_forms(g, m)
            catalogs = [[f + c for f, c in zip(
                forms, _random_catalog(g, m, [], len(forms), rng))]]
            for size in (2, 3, 4):
                catalogs.append(_random_catalog(g, m, forms, size, rng))
            catalogs[-1][-1] = catalogs[-1][0] + catalogs[-1][1].scale(m - 1)
            for catalog in catalogs:
                for mdl in (None, model):
                    got = br.span_analysis(catalog, mdl)
                    assert got == reference_span_analysis(catalog, mdl)
                    seen.add(got.invariant_factors)
    assert {(), (2,), (2, 2), (2, 2, 2), (4, 2, 2)} <= seen, seen


def test_span_analysis_matches_reference_on_nonabelian_catalogs():
    d4, rep = rp.matrix_closure(
        [CycloMatrix([[0, -1], [1, 0]]), CycloMatrix([[1, 0], [0, -1]])])
    _, reps = cx.h2_small(d4)
    rng = random.Random(47)
    for threshold in (1, 2, 3):
        model = rp.build_model(rep, threshold)
        for size in (1, 2, 3):
            catalog = _random_catalog(d4, 8, reps, size, rng)
            for mdl in (None, model):
                assert br.span_analysis(catalog, mdl) == \
                    reference_span_analysis(catalog, mdl)


def test_orbifold_scalar_mode_untwisted_counts_classes():
    g, model = klein_model()
    c = cx.Cocycle2.zero(g, 2)
    report = br.orbifold_dims(model, c)
    assert report.twisted_total == report.untwisted_total == 4


def test_orbifold_z3z3_nondegenerate_pairing():
    g, model = z3z3_model()
    structure = grp.abelian_structure(g)
    c = cx.from_bilinear_form(
        cx.BilinearForm(g, structure, 3, ((0, 1), (0, 0))))
    report = br.orbifold_dims(model, c)
    assert report.untwisted_total == 9
    assert report.twisted_total == 1
    for row in report.rows:
        if row.representative == 0:
            assert row.contribution == 1
        else:
            assert row.contribution == 0


def test_orbifold_explicit_character_input():
    g, model = klein_model()
    c = cx.Cocycle2.zero(g, 2)
    # trace of a 2-dimensional trivial module on every centralizer
    chi = {int(cls[0]): {int(h): CycloNumber.rational(2)
                         for h in grp.centralizer(g, int(cls[0])).elements}
           for cls in grp.conjugacy_classes(g)}
    report = br.orbifold_dims(model, c, homology_input=chi)
    assert report.twisted_total == report.untwisted_total == 8

    # trace of trivial + sign of the first coordinate: invariants have dim 1
    st = grp.abelian_structure(g)
    signed = {int(cls[0]): {int(h): CycloNumber.rational(
        1 + (-1) ** st.dlog[int(h)][0]) for h in range(4)}
        for cls in grp.conjugacy_classes(g)}
    report = br.orbifold_dims(model, c, homology_input=signed)
    assert report.twisted_total == 4  # one invariant line per class

    bad = {int(cls[0]): {int(h): CycloNumber.rational(3 if h else 1)
                         for h in range(4)}
           for cls in grp.conjugacy_classes(g)}
    with pytest.raises(NonIntegralDimensionError):
        br.orbifold_dims(model, c, homology_input=bad)


def test_verify_cor53_trivial_class():
    g, model = klein_model()
    verdict = br.verify_cor53(model, cx.Cocycle2.zero(g, 2))
    assert verdict.in_obstruction_group
    assert verdict.termwise_equal
    assert verdict.failing_class is None


def test_verify_cor53_nonmember_reports_witness():
    g, model = klein_model()
    structure = grp.abelian_structure(g)
    c = cx.from_bilinear_form(
        cx.BilinearForm(g, structure, 2, ((0, 1), (0, 0))))
    verdict = br.verify_cor53(model, c)
    assert not verdict.in_obstruction_group
    assert verdict.failing_class is not None


def test_membership_is_class_invariant(bundle_p2):
    b = bundle_p2
    g = b.group
    rng = random.Random(3)
    for name in ("e12", "e13"):
        c = b.cocycle(name)
        base_b0 = br.in_B0(c).member
        base_bg = br.in_BG(c, b.model).member
        for _ in range(5):
            lam = cx.Cochain1(
                g, c.modulus,
                [0] + [rng.randrange(c.modulus) for _ in range(g.order - 1)])
            shifted = c + cx.coboundary_of(lam)
            assert br.in_B0(shifted).member == base_b0
            assert br.in_BG(shifted, b.model).member == base_bg


def test_memberships_closed_under_sum_and_negation(bundle_p2):
    b = bundle_p2
    members = [b.cocycle(n) for n in b.catalog_names
               if br.in_B0(b.cocycle(n)).member]
    assert members
    for c in members:
        assert br.in_B0(-c).member
    total = members[0]
    for c in members[1:]:
        total = total + c
    assert br.in_B0(total).member


# ---------------------------------------------------------------------------
# the pair-index scans against a per-representative loop


def _reference_scan(c: cx.Cocycle2, flags=None) -> tuple[int, int] | None:
    """The first (r, h), r an active class representative and h in its
    centralizer in ascending order, with beta(r, h) != 0."""
    g = c.group
    for r in grp.class_representatives(g):
        if flags is not None and not flags[r]:
            continue
        els = np.array(grp.centralizer(g, r).elements)
        bad = np.flatnonzero(c.beta(r, els))
        if len(bad):
            return r, int(els[bad[0]])
    return None


def _reference_flags(model: rp.LinearActionModel) -> dict[int, bool]:
    return {rec.representative: rec.meets_open_set
            for rec in rp.fixed_locus_survey(model).records}


def _reference_orbifold_rows(c: cx.Cocycle2, flags) -> tuple:
    g = c.group
    rows = []
    for cls in grp.conjugacy_classes(g):
        r = int(cls[0])
        els = np.array(grp.centralizer(g, r).elements)
        trivial = not c.beta(r, els).any()
        rows.append(br.OrbifoldRow(r, len(cls), flags[r], trivial,
                                   int(flags[r] and trivial), int(flags[r])))
    return tuple(rows)


def _assert_scans_match(c: cx.Cocycle2, models) -> set[bool]:
    """in_B0, in_BG and orbifold_dims against the references; returns the
    memberships seen."""
    expected = _reference_scan(c)
    verdict = br.in_B0(c)
    assert verdict == br.MembershipVerdict(expected is None, expected)
    seen = {verdict.member}
    for model in models:
        flags = _reference_flags(model)
        expected = _reference_scan(c, flags)
        verdict = br.in_BG(c, model)
        assert verdict == br.MembershipVerdict(expected is None, expected)
        assert br.orbifold_dims(model, c).rows == \
            _reference_orbifold_rows(c, flags)
        seen.add(verdict.member)
    return seen


def test_scans_match_the_per_representative_loop_at_p2(bundle_p2):
    b = bundle_p2
    models = (b.model, rp.build_model(b.rep, b.rep.degree + 1))
    rng = random.Random(21)
    classes = [b.cocycle(x) for x in b.catalog_names]
    seen = set()
    for c in classes:
        seen |= _assert_scans_match(c, models)
    for _ in range(20):
        picked = [c for c in classes if rng.random() < 0.5] or classes[:1]
        total = picked[0]
        for c in picked[1:]:
            total = total + c
        lam = cx.Cochain1(b.group, 2,
                          [0] + [rng.randrange(2) for _ in range(b.group.order - 1)])
        seen |= _assert_scans_match(total + cx.coboundary_of(lam), models)
    assert seen == {True, False}


def test_scans_match_the_per_representative_loop_at_p3(bundle_p3):
    b = bundle_p3
    models = (b.model, rp.build_model(b.rep, b.rep.degree + 1))
    seen = set()
    for name in b.catalog_names:
        seen |= _assert_scans_match(b.cocycle(name), models)
    assert seen == {True, False}


def test_a_mutated_entry_changes_the_scans(bundle_p2):
    b = bundle_p2
    c = b.cocycle("e12")
    assert br.in_B0(c).member and br.in_BG(c, b.model).member
    g = c.group
    flags = _reference_flags(b.model)
    # the last commuting pair of the last open representative
    r = [x for x in grp.class_representatives(g) if flags[x]][-1]
    h = grp.centralizer(g, r).elements[-1]
    assert r != h
    t = c.table.astype(np.int64)
    t[r, h] = (t[r, h] + 1) % 2
    bad = cx.Cocycle2(g, 2, t, _verified=True)
    assert br.in_B0(bad) == br.MembershipVerdict(False, _reference_scan(bad))
    assert br.in_BG(bad, b.model).witness_pair == (r, h)
    rows = br.orbifold_dims(b.model, bad).rows
    assert rows == _reference_orbifold_rows(bad, flags)
    assert [row.representative for row in rows if not row.l_trivial] == [r]
