"""Acceptance suite: one test per top-level claim, at its stated budget.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-v``); budgets are asserted, exactness is asserted, nothing is sampled
where the claim says exhaustive.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from tbk import brauer as br
from tbk import cocycle as cx
from tbk import example as ex
from tbk import grp
from tbk import rep as rp
from tbk.cyclo import CycloMatrix, CycloNumber, Subspace, eigenspace

_CACHE: dict = {}


def _bundle(p: int, convention: str = "involution") -> ex.ExampleBundle:
    key = (p, convention)
    if key not in _CACHE:
        _CACHE[key] = ex.bogomolov_example(p, convention=convention)
    return _CACHE[key]


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    t0 = perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:>2}: FAIL - {description}")
        raise
    dt = perf_counter() - t0
    print(f"ACCEPTANCE {num:>2}: PASS in {dt:.1f}s "
          f"(budget {budget_s:.0f}s) - {description}")
    assert dt < budget_s, \
        f"criterion {num} exceeded its {budget_s}s budget: {dt:.1f}s"


def _klein() -> grp.FiniteGroup:
    return grp.direct_product(grp.cyclic(2), grp.cyclic(2))


def _all_mod2_cocycles_on_klein() -> list[cx.Cocycle2]:
    g = _klein()
    pairs = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    out = []
    for bits in itertools.product((0, 1), repeat=9):
        tab = np.zeros((4, 4), dtype=np.int64)
        for (a, b), v in zip(pairs, bits):
            tab[a, b] = v
        c = cx.Cocycle2(g, 2, tab)
        ok, _ = cx.is_cocycle(c)
        if ok:
            out.append(c)
    return out


def test_criterion_01_symmetry_oracle_equivalence():
    with criterion(1, "coboundary solver == symmetry on Z2xZ2, exhaustive", 5):
        cocycles = _all_mod2_cocycles_on_klein()
        assert len(cocycles) == 16
        for c in cocycles:
            symmetric = bool(np.array_equal(c.table, c.table.T))
            witness = cx.is_coboundary(c, sense="torus")
            assert (witness is not None) == symmetric


def test_criterion_02_bicyclic_gcd_formula():
    with criterion(2, "H^2 of bicyclic groups is Z_gcd; cyclic vanish", 60):
        for (d1, d2), want in [((2, 2), (2,)), ((2, 4), (2,)),
                               ((3, 3), (3,)), ((4, 6), (2,))]:
            g = grp.direct_product(grp.cyclic(d1), grp.cyclic(d2))
            structure, _ = cx.h2_small(g)
            assert structure.invariant_factors == want, (d1, d2)
        for n in range(1, 13):
            structure, _ = cx.h2_small(grp.cyclic(n))
            assert structure.invariant_factors == ()


def test_criterion_03_elementary_cube_and_quaternions():
    with criterion(3, "H^2(Z_2^3) = Z_2^3, H^2(Q8) = 0, beta-signature count", 60):
        cube = grp.direct_product(
            grp.direct_product(grp.cyclic(2), grp.cyclic(2)), grp.cyclic(2))
        structure, reps = cx.h2_small(cube)
        assert structure.invariant_factors == (2, 2, 2)

        # independent count: the 8 alternating pairings realize 8 distinct
        # beta signatures, and beta is a class invariant
        st = grp.abelian_structure(cube)
        signatures = set()
        pairs = list(grp.commuting_pairs(cube))
        for bits in itertools.product((0, 1), repeat=3):
            mat = np.zeros((3, 3), dtype=np.int64)
            mat[0, 1], mat[0, 2], mat[1, 2] = bits
            c = cx.from_bilinear_form(
                cx.BilinearForm(cube, st, 2, tuple(map(tuple, mat))))
            signatures.add(tuple(cx.antisym(c, a, b) for a, b in pairs))
        assert len(signatures) == 8 == structure.group_order

        from tests.test_grp import q8_group

        q8 = q8_group()
        structure_q8, reps_q8 = cx.h2_small(q8)
        assert structure_q8.invariant_factors == () and reps_q8 == []
        # cross-check: every commuting pair sits in a cyclic subgroup whose
        # restricted cocycles the solver kills, so the only signature is zero
        for a, b in grp.commuting_pairs(q8):
            joint = next((x for x in range(8)
                          if {a, b} <= set(grp.subgroup_generated(q8, [x]).elements)),
                         None)
            assert joint is not None, (a, b)
        for x in (2, 4, 6):
            cyc = grp.subgroup_generated(q8, [x])
            sub, _ = cyc.as_group()
            h2_cyc, _ = cx.h2_small(sub)
            assert h2_cyc.invariant_factors == ()


def test_criterion_04_twisted_associativity():
    with criterion(4, "twisted monomial audit == cocycle identity, "
                      "50 perturbations", 10):
        from tests.test_cocycle import KLEIN_SWAP, twisted_assoc_audit

        g = _klein()
        cocycles = _all_mod2_cocycles_on_klein()
        for c in cocycles:
            rebased = cx.Cocycle2(g, 2, c.table)
            assert twisted_assoc_audit(rebased, KLEIN_SWAP) == \
                cx.is_cocycle(rebased) == (True, None)
        rng = random.Random(2024)
        broken_seen = 0
        while broken_seen < 50:
            base = cocycles[rng.randrange(len(cocycles))]
            tab = base.table.astype(np.int64).copy()
            a, b = rng.randrange(1, 4), rng.randrange(1, 4)
            tab[a, b] = (tab[a, b] + 1) % 2
            broken = cx.Cocycle2(g, 2, tab)
            verdict = twisted_assoc_audit(broken, KLEIN_SWAP)
            assert verdict == cx.is_cocycle(broken)
            broken_seen += not verdict[0]


def test_criterion_04_fails_when_is_cocycle_accepts_every_table(monkeypatch):
    monkeypatch.setattr(cx, "is_cocycle", lambda c: (True, None))
    with pytest.raises(AssertionError):
        test_criterion_04_twisted_associativity()


def test_criterion_05_order_p7_construction():
    with criterion(5, "closure to order p^7 with exact relation identities", 660):
        t_p2 = perf_counter()
        for convention in ("involution", "literal"):
            b = _bundle(2, convention)
            _assert_construction(b, 2)
        dt_p2 = perf_counter() - t_p2
        assert dt_p2 < 60, f"p=2 construction pair took {dt_p2:.1f}s (> 2x30s)"
        t_p3 = perf_counter()
        b3 = _bundle(3)
        _assert_construction(b3, 3)
        dt_p3 = perf_counter() - t_p3
        assert dt_p3 < 600, f"p=3 construction took {dt_p3:.1f}s"


def _assert_construction(b: ex.ExampleBundle, p: int):
    assert b.group.order == p ** 7
    rep = b.rep
    x1, x2, x3, x4 = (rep.matrices[i] for i in b.x)
    a_m, b_m, c_m = (rep.matrices[i] for i in b.central)

    def comm(u, v):
        return u * v * u.inverse() * v.inverse()

    assert comm(x1, x2) == a_m
    assert comm(x3, x4) == a_m
    assert comm(x1, x3).is_identity()
    assert comm(x1, x4).is_identity()
    assert comm(x2, x4) == b_m
    assert comm(x2, x3) == c_m
    # [P, Q] is a scalar of multiplicative order exactly p
    pm, qm, _ = ex.clock_and_shift(p, b.convention)
    s = comm(pm, qm)
    assert s.is_scalar()
    acc = s
    for _ in range(p - 1):
        assert not acc.is_identity()
        acc = acc * s
    assert acc.is_identity()


def _coordinate_subspace(dim: int, idxs, order: int = 1) -> Subspace:
    return Subspace.from_vectors(
        dim, [[1 if j == i else 0 for j in range(dim)] for i in idxs], order)


def test_criterion_06_fixed_locus_survey():
    with criterion(6, "codims >= p; codim-p fixed spaces exactly as expected", 660):
        for p in (2, 3):
            b = _bundle(p)
            rep = b.rep
            d = rep.degree
            codims = [d - rep.fixed_space(g).dim for g in range(1, b.group.order)]
            assert min(codims) >= p
            survey = rp.fixed_locus_survey(b.model)
            got = set()
            for w in survey.spaces_by_codim[p]:
                got.add(w.key())
            tensor = list(range(p * p))
            first = _coordinate_subspace(d, tensor + list(range(p * p, p * p + p)),
                                         rep.order)
            second = _coordinate_subspace(
                d, tensor + list(range(p * p + p, p * p + 2 * p)), rep.order)
            expected = {first.key(), second.key()}
            if p == 2:
                pm, _, _ = ex.clock_and_shift(2, "involution")
                vprime = eigenspace(pm.tensor(CycloMatrix.identity(2)), 1)
                vecs = [list(v) + [0, 0, 0, 0] for v in vprime.basis]
                vecs += [[0] * 4 + [1 if j == i else 0 for j in range(4)]
                         for i in range(4)]
                extra = Subspace.from_vectors(8, vecs, rep.order)
                expected.add(extra.key())
            assert got == expected, f"codim-{p} fixed spaces differ at p={p}"
            # nonemptiness of the open fixed set == codimension at most p
            for rec in survey.records:
                assert rec.meets_open_set == (rec.codim <= p)


def test_criterion_07_eigen_and_stabilizers_p3():
    with criterion(7, "spectra of H1 and H2 with Z_3 eigenvector stabilizers", 60):
        p = 3
        pm, qm, n = ex.clock_and_shift(p)
        h1, rep1 = rp.matrix_closure([pm, qm], order=n)
        assert h1.order == 27
        whole1 = grp.subgroup_generated(h1, list(h1.generators))
        for line in rp.eigen_survey(rep1, whole1):
            if line.scalar:
                continue
            assert len(line.eigenvalues) == 3
            assert all(dim == 1 for _, dim in line.eigenvalues)
            m = rep1.matrices[line.element]
            for ev, _dim in line.eigenvalues:
                spc = eigenspace(m, ev)
                stab = rp.pointwise_stabilizer(h1, rep1, spc)
                assert grp.abelian_structure(stab).invariant_factors == (3,)
        eye = CycloMatrix.identity(p, n)
        h2, rep2 = rp.matrix_closure(
            [pm.tensor(eye), qm.tensor(eye), eye.tensor(pm), eye.tensor(qm)],
            order=n)
        assert h2.order == 243
        whole2 = grp.subgroup_generated(h2, list(h2.generators))
        for line in rp.eigen_survey(rep2, whole2):
            if line.scalar:
                continue
            assert len(line.eigenvalues) == 3
            assert all(dim == 3 for _, dim in line.eigenvalues)


def _six_forms(b: ex.ExampleBundle) -> list[cx.Cocycle2]:
    return [b.cocycle(n) for n in ("e12", "e13", "e14", "e23", "e24", "e34")]


def test_criterion_08_b0_lower_bound():
    with criterion(8, "B0 lower bound Z_p via span analysis, both primes", 960):
        t_p2 = perf_counter()
        _assert_b0_lower_bound(_bundle(2))
        dt_p2 = perf_counter() - t_p2
        assert dt_p2 < 60, f"p=2 section took {dt_p2:.1f}s"
        t_p3 = perf_counter()
        _assert_b0_lower_bound(_bundle(3))
        dt_p3 = perf_counter() - t_p3
        assert dt_p3 < 900, f"p=3 section took {dt_p3:.1f}s"


def _assert_b0_lower_bound(b: ex.ExampleBundle):
    p = b.p
    e12 = b.cocycle("e12")
    ok, _ = cx.is_cocycle(e12)
    assert ok
    assert cx.is_coboundary(e12, sense="torus") is None
    assert br.in_B0(e12).member
    report = br.span_analysis(_six_forms(b))
    assert report.invariant_factors == (p,)
    diag = e12 + b.cocycle("e34")
    assert cx.is_coboundary(diag, sense="torus") is not None


def test_criterion_09_bicyclic_cross_validation():
    with criterion(9, "pair scan == bicyclic scan on the p=2 catalog", 300):
        b = _bundle(2)
        open_model = rp.build_model(b.rep, b.rep.degree + 1)
        assert open_model.arrangement == ()
        for c in _six_forms(b):
            for model in (b.model, open_model):
                verdict = br.bg_cross_check(c, model)  # raises on mismatch
                assert verdict.member in (True, False)
        for name in b.catalog_names:
            c = b.cocycle(name)
            assert br.in_BG(c, open_model).member == br.in_B0(c).member, name


def test_criterion_09_bicyclic_cross_validation_p3():
    with criterion(9, "pair scan == bicyclic scan on the p=3 six forms", 90):
        b = _bundle(3)
        open_model = rp.build_model(b.rep, b.rep.degree + 1)
        assert open_model.arrangement == ()
        verdicts = {(model is open_model, name): br.bg_cross_check(
                        b.cocycle(name), model).member
                    for model in (b.model, open_model)
                    for name in ("e12", "e13", "e14", "e23", "e24", "e34")}
        non_members = {key for key, member in verdicts.items() if not member}
        assert non_members == {(True, "e13"), (True, "e14")}


def test_criterion_10_cor53_termwise():
    with criterion(10, "termwise twisted == untwisted for members; witness else", 300):
        b = _bundle(2)
        e12 = b.cocycle("e12")
        assert br.in_BG(e12, b.model).member
        report = br.orbifold_dims(b.model, e12)
        for row in report.rows:
            if row.open_nonempty:
                assert row.l_trivial
            assert row.contribution == row.untwisted_contribution
        assert report.twisted_total == report.untwisted_total
        verdict = br.verify_cor53(b.model, e12)
        assert verdict.termwise_equal and verdict.failing_class is None

        e13 = b.cocycle("e13")
        verdict = br.verify_cor53(b.model, e13)
        assert not verdict.in_obstruction_group
        assert verdict.failing_class is not None
        flags = {r.representative: r.open_nonempty
                 for r in br.orbifold_dims(b.model, e13).rows}
        assert flags[verdict.failing_class]


def test_criterion_10_cor53_termwise_p3():
    with criterion(10, "termwise twisted == untwisted on the p=3 catalog", 60):
        b = _bundle(3)
        for name in b.catalog_names:
            verdict = br.verify_cor53(b.model, b.cocycle(name))
            assert verdict.in_obstruction_group == (
                verdict.failing_class is None), name
            if verdict.in_obstruction_group:
                assert verdict.termwise_equal, name
                assert verdict.twisted_total == verdict.untwisted_total


def _assert_verdicts_stable(b: ex.ExampleBundle, cocycles, shifts: int,
                            rng: random.Random) -> None:
    """B0, B_G(U) and L-character verdicts survive random coboundary shifts."""
    g = b.group
    for c in cocycles:
        base_b0 = br.in_B0(c).member
        base_bg = br.in_BG(c, b.model).member
        base_report = br.orbifold_dims(b.model, c)
        base_pattern = tuple(r.l_trivial for r in base_report.rows)
        for _ in range(shifts):
            lam = cx.Cochain1(
                g, c.modulus,
                [0] + [rng.randrange(c.modulus)
                       for _ in range(g.order - 1)])
            shifted = c + cx.coboundary_of(lam)
            assert br.in_B0(shifted).member == base_b0
            assert br.in_BG(shifted, b.model).member == base_bg
            report = br.orbifold_dims(b.model, shifted)
            assert tuple(r.l_trivial for r in report.rows) == base_pattern
            assert report.twisted_total == base_report.twisted_total
            assert report.untwisted_total == base_report.untwisted_total


def test_criterion_11_class_invariance():
    with criterion(11, "verdicts stable under 20 random coboundary shifts", 120):
        b = _bundle(2)
        _assert_verdicts_stable(b, [b.cocycle(n) for n in b.catalog_names],
                                20, random.Random(11))


def test_criterion_11_class_invariance_p3():
    with criterion(11, "p=3 six-form verdicts stable under coboundary shifts",
                   60):
        b = _bundle(3)
        _assert_verdicts_stable(b, _six_forms(b), 2, random.Random(311))


def test_criterion_12_small_twisted_dimension():
    with criterion(12, "Z_3 x Z_3 pairing: twisted total 1 vs untwisted 9", 1):
        z = CycloNumber.zeta(3)
        g, rep = rp.matrix_closure([
            CycloMatrix.diagonal([z, CycloNumber.rational(1, 3)]),
            CycloMatrix.diagonal([CycloNumber.rational(1, 3), z]),
        ])
        assert g.order == 9
        model = rp.build_model(rep, 3)
        st = grp.abelian_structure(g)
        c = cx.from_bilinear_form(
            cx.BilinearForm(g, st, 3, ((0, 1), (0, 0))))
        report = br.orbifold_dims(model, c)
        assert report.twisted_total == 1
        assert report.untwisted_total == 9


def test_criterion_13_full_catalog_span_p2():
    from tests.test_brauer import reference_span_analysis

    b = _bundle(2)
    catalog = [b.cocycle(n) for n in b.catalog_names]
    assert len(catalog) == 13
    with criterion(13, "13-class p=2 span == set-enumeration reference", 120):
        for model in (None, b.model):
            report = br.span_analysis(catalog, model)
            assert report == reference_span_analysis(catalog, model)
            assert report.invariant_factors == (2,)


def test_criterion_14_full_catalog_span_p3():
    b = _bundle(3)
    catalog = [b.cocycle(n) for n in b.catalog_names]
    assert len(catalog) == 32
    with criterion(14, "32-class p=3 span is Z_3 modulo trivial classes", 60):
        report = br.span_analysis(catalog)
        assert report.invariant_factors == (3,)
        assert len(report.kernel_generators) == 30


def test_criterion_15_open_flags_p3():
    b = _bundle(3)
    catalog = [b.cocycle(n) for n in b.catalog_names]
    # a model of its own, so that no earlier criterion has cached its flags
    model = rp.LinearActionModel(b.rep, b.model.arrangement,
                                 b.model.codim_threshold)
    with criterion(15, "p=3 open-set flags by dimension; B_G(U) span", 20):
        survey = rp.fixed_locus_survey(model)
        assert len(survey.records) == 171
        open_classes = [r for r in survey.records if r.meets_open_set]
        assert open_classes == [r for r in survey.records if r.codim <= 3]
        assert len(open_classes) == 5
        assert br.in_BG(b.cocycle("e12"), model).member
        report = br.span_analysis(catalog, model)
        assert report.invariant_factors == (3, 3, 3)
