from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from tbk import cocycle as cx
from tbk import grp, zmlin
from tbk.brauer import span_analysis
from tbk.errors import (
    DefectOutsideKernelError,
    IllDefinedFormError,
    InfeasibleError,
    ModulusMismatchError,
    NonCommutingPairError,
    NotAHomomorphismError,
    NotNormalizedError,
)


def klein() -> grp.FiniteGroup:
    return grp.direct_product(grp.cyclic(2), grp.cyclic(2))


def pairing_cocycle(g: grp.FiniteGroup, m: int = 2) -> cx.Cocycle2:
    """c(x, y) = x1 * y2 on a two-generator abelian group."""
    structure = grp.abelian_structure(g)
    r = len(structure.invariant_factors)
    mat = np.zeros((r, r), dtype=np.int64)
    mat[0, 1] = 1
    form = cx.BilinearForm(g, structure, m, tuple(map(tuple, mat)))
    return cx.from_bilinear_form(form)


def heisenberg_cocycle(p: int) -> cx.Cocycle2:
    """c((a1,a2),(b1,b2)) = a2*b1 mod p on Z_p x Z_p."""
    g = grp.direct_product(grp.cyclic(p), grp.cyclic(p))
    n = g.order
    tab = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            a1, a2 = divmod(a, p)
            b1, b2 = divmod(b, p)
            tab[a, b] = (a2 * b1) % p
    return cx.Cocycle2(g, p, tab)


def test_coboundaries_are_cocycles():
    for g in (grp.cyclic(4), klein(), grp.cyclic(6)):
        for m in (2, 3, 4):
            rng = random.Random(g.order * m)
            for _ in range(5):
                lam = cx.Cochain1(
                    g, m, [0] + [rng.randrange(m) for _ in range(g.order - 1)])
                ok, _ = cx.is_cocycle(cx.coboundary_of(lam))
                assert ok


def test_heisenberg_cocycle_valid_and_perturbation_detected():
    c = heisenberg_cocycle(2)
    ok, _ = cx.is_cocycle(c)
    assert ok
    tab = c.table.astype(np.int64).copy()
    tab[3, 2] = (tab[3, 2] + 1) % 2
    broken = cx.Cocycle2(c.group, 2, tab)
    ok, witness = cx.is_cocycle(broken)
    assert not ok and witness is not None
    g, h, k = witness
    mul = c.group.mul_table()
    lhs = (broken.value(g, h) + broken.value(int(mul[g, h]), k)) % 2
    rhs = (broken.value(h, k) + broken.value(g, int(mul[h, k]))) % 2
    assert lhs != rhs


def _first_failing_triple_by_sweep(c: cx.Cocycle2):
    """Reference: the full n^3 sweep in lexicographic (g, h, k) order."""
    mul = c.group.mul_table().astype(np.int64)
    t = c.table.astype(np.int64)
    for g in range(c.group.order):
        diff = (t[g][:, None] + t[mul[g]] - t - t[g][mul]) % c.modulus
        if diff.any():
            h, k = map(int, np.argwhere(diff)[0])
            return False, (g, h, k)
    return True, None


def _relabelled_z4_z4() -> grp.FiniteGroup:
    """Z_4 x Z_4 with the labels reversed, so its generators are 12 and 15."""
    base = grp.direct_product(grp.cyclic(4), grp.cyclic(4))
    n = base.order
    perm = np.array([0] + [n - x for x in range(1, n)])  # an involution
    table = perm[base.mul_table()[np.ix_(perm, perm)]]
    return grp.build_from_cayley(
        table, generators=[int(perm[s]) for s in base.generators])


def test_is_cocycle_matches_full_sweep_on_corruptions():
    relabelled = _relabelled_z4_z4()
    assert min(relabelled.generators) > relabelled.order // 2
    rng = np.random.default_rng(31)
    for c in (heisenberg_cocycle(3), pairing_cocycle(relabelled, 4)):
        g, m = c.group, c.modulus
        n = g.order
        mul = g.mul_table().astype(np.int64)
        assert cx.is_cocycle(c) == (True, None)
        for trial in range(60):
            lam = rng.integers(0, m, size=n)
            lam[0] = 0
            tab = (c.table + lam[:, None] + lam[None, :] - lam[mul]) % m
            for _ in range(1 + trial % 4):
                h, k = rng.integers(1, n, size=2)
                tab[h, k] += rng.integers(1, m)
            broken = cx.Cocycle2(g, m, tab)
            assert cx.is_cocycle(broken) == _first_failing_triple_by_sweep(broken)


def spread_product(orders, placed) -> tuple[grp.FiniteGroup, np.ndarray]:
    """Z_orders[0] x ... with generators labelled 1, 3, 9, 27, ...

    The unit vectors get the labels 3^i, ``placed`` maps further labels to
    coordinate tuples, and the other elements take the free labels in
    mixed-radix order. Returns the group and the coordinates of each label.
    """
    r = len(orders)
    fixed = {0: (0,) * r}
    fixed.update({3 ** i: tuple(int(i == j) for j in range(r))
                  for i in range(r)})
    fixed.update(placed)
    rest = iter(v for v in itertools.product(*map(range, reversed(orders)))
                if v[::-1] not in fixed.values())
    coords = np.array([fixed[x] if x in fixed else next(rest)[::-1]
                       for x in range(int(np.prod(orders)))])
    radix = np.cumprod([1] + list(orders[:-1]))
    label_of = np.empty(len(coords), dtype=np.int64)
    label_of[coords @ radix] = np.arange(len(coords))
    sums = (coords[:, None, :] + coords[None, :, :]) % np.array(orders)
    g = grp.build_from_cayley(label_of[sums @ radix],
                              generators=[3 ** i for i in range(r)])
    return g, coords


def _row_defect(cu: np.ndarray) -> np.ndarray:
    """F(cu[g], cu[h]) for one Z_3 coordinate cu, where F(x, y) is 1 at
    (1, 1) and 0 elsewhere. Since dF(x, ., .) != 0 exactly when x != 0, a
    table plus this defect fails on the rows g with cu[g] != 0 alone."""
    return ((cu[:, None] == 1) & (cu[None, :] == 1)).astype(np.int64)


def _valid_table(g: grp.FiniteGroup, coords: np.ndarray, m: int,
                 rng) -> np.ndarray:
    """A coboundary plus, when 3 | m, the pairing x1 * y2 scaled into Z_m."""
    n = g.order
    lam = rng.integers(0, m, size=n)
    lam[0] = 0
    mul = g.mul_table().astype(np.int64)
    tab = lam[:, None] + lam[None, :] - lam[mul]
    if m % 3 == 0:
        tab += (m // 3) * (coords[:, None, 0] % 3) * (coords[None, :, 1] % 3)
    return tab % m


# rows in int8, int16, int64; at 127 and 32767 a row's sums pass the range
# of the table's own dtype
@pytest.mark.parametrize("m", [3, 64, 127, 9000, 32767])
def test_is_cocycle_first_triple_with_spread_out_generators(m):
    # (1, 0, 1, 0) = e1 + e3 takes the label 2, below the generator 9 = e3
    g, coords = spread_product((3, 3, 3, 3), {2: (1, 0, 1, 0)})
    assert g.generators == (1, 3, 9, 27)
    rng = np.random.default_rng(m)
    tab = _valid_table(g, coords, m, rng)
    assert cx.is_cocycle(cx.Cocycle2(g, m, tab)) == (True, None)
    # along e3 the rows 2 and 9 fail and the generators 1, 3, 27 pass: the
    # first failing row is the non-generator 2
    broken = cx.Cocycle2(g, m, (tab + _row_defect(coords[:, 2])) % m)
    expected = _first_failing_triple_by_sweep(broken)
    assert expected[1][0] == 2
    assert cx.is_cocycle(broken) == expected
    # along e4 only the generator 27 fails, and every label below it lies in
    # the subgroup the other generators make
    broken = cx.Cocycle2(g, m, (tab + _row_defect(coords[:, 3])) % m)
    expected = _first_failing_triple_by_sweep(broken)
    assert expected[1][0] == 27
    assert cx.is_cocycle(broken) == expected
    # single cells, which fail on the generator 1 or before it
    for _ in range(10):
        bad = tab.copy()
        h, k = rng.integers(1, g.order, size=2)
        bad[h, k] = (bad[h, k] + rng.integers(1, m)) % m
        broken = cx.Cocycle2(g, m, bad)
        assert cx.is_cocycle(broken) == _first_failing_triple_by_sweep(broken)


def test_is_cocycle_predicts_its_memory(monkeypatch):
    g, coords = spread_product((3, 3), {})
    c = cx.Cocycle2(g, 9000, _valid_table(g, coords, 9000,
                                          np.random.default_rng(0)))
    # 81 entries, one block: an int64 copy of the int16 table (8 bytes an
    # entry), two int64 gathers, take's intp indices and two masks (26)
    monkeypatch.setattr(grp, "_memory_budget", lambda: 81 * 34 - 1)
    with pytest.raises(InfeasibleError, match="would take 2754 bytes"):
        cx.is_cocycle(c)
    monkeypatch.setattr(grp, "_memory_budget", lambda: 81 * 34)
    assert cx.is_cocycle(c) == (True, None)
    # blocks of rows bound the temporaries: here 3 rows of 9 at a time
    monkeypatch.setattr(cx, "ROW_BLOCK_ENTRIES", 27)
    monkeypatch.setattr(grp, "_memory_budget", lambda: 81 * 8 + 27 * 26)
    assert cx.is_cocycle(c) == (True, None)
    tab = c.table.astype(np.int64)
    tab[7, 5] = (tab[7, 5] + 1) % 9000
    broken = cx.Cocycle2(g, 9000, tab)
    assert cx.is_cocycle(broken) == _first_failing_triple_by_sweep(broken)


def test_coboundary_of_formula():
    z4 = grp.cyclic(4)
    lam = cx.Cochain1(z4, 4, [0, 1, 2, 3])  # the discrete log itself
    c = cx.coboundary_of(lam)
    for g in range(4):
        for h in range(4):
            assert c.value(g, h) == (g + h - ((g + h) % 4)) % 4


def test_zero_cochain_gives_zero_cocycle():
    z2 = grp.cyclic(2)
    lam = cx.Cochain1(z2, 2, [0, 0])
    assert not cx.coboundary_of(lam).table.any()


def test_square_cocycle_on_z2_torus_vs_modm():
    z2 = grp.cyclic(2)
    c = cx.Cocycle2(z2, 2, [[0, 0], [0, 1]])  # c(g,g) = -1
    # not a coboundary with mu_2 coefficients: both candidate cochains fail
    assert cx.is_coboundary(c, sense="mod-m") is None
    # but i * i = -1 trivializes it over the circle
    witness = cx.is_coboundary(c, sense="torus")
    assert witness is not None
    assert witness.modulus == 4
    assert witness.value(1) in (1, 3)


def test_pairing_on_klein_is_not_torus_coboundary():
    c = pairing_cocycle(klein())
    assert cx.is_coboundary(c, sense="torus") is None
    # and it is asymmetric on a commuting pair
    g = c.group
    asym = [(a, b) for a in range(4) for b in range(4)
            if c.value(a, b) != c.value(b, a)]
    assert asym


def test_symmetric_form_is_torus_coboundary():
    g = klein()
    structure = grp.abelian_structure(g)
    mat = np.zeros((2, 2), dtype=np.int64)
    mat[0, 0] = 1
    form = cx.BilinearForm(g, structure, 2, tuple(map(tuple, mat)))
    c = cx.from_bilinear_form(form)
    assert cx.is_coboundary(c, sense="torus") is not None


def test_from_bilinear_form_is_exact_or_refuses_the_modulus():
    # Z4 x Z6, factors (12, 2): with every entry 2^60 + 1 mod 2 (2^60 + 1),
    # an int64 d B d^T wrapped and 465 of the 576 entries differed from
    # BilinearForm.value
    g = grp.direct_product(grp.cyclic(4), grp.cyclic(6))
    structure = grp.abelian_structure(g)
    assert structure.invariant_factors == (12, 2)
    big = 2 ** 60 + 1
    form = cx.BilinearForm(g, structure, 2 * big, ((big, big), (big, big)))
    with pytest.raises(InfeasibleError) as info:
        cx.from_bilinear_form(form)
    assert info.value.exit_code == 4
    # the largest modulus below the limit that the factors allow entries in
    m = zmlin.MODULUS_LIMIT - zmlin.MODULUS_LIMIT % 12
    half, twelfth = m // 2, m // 12
    form = cx.BilinearForm(g, structure, m,
                           ((11 * twelfth, half), (half, half)))
    c = cx.from_bilinear_form(form)
    assert [[c.value(x, y) for y in range(g.order)] for x in range(g.order)] \
        == [[form.value(x, y) for y in range(g.order)]
            for x in range(g.order)]
    assert cx.is_cocycle(c)[0]


def test_coboundary_solver_agrees_with_symmetry_on_klein():
    # exhaustive: every normalized 2-cochain over Z_2, filtered to cocycles
    g = klein()
    n = g.order
    pairs = [(a, b) for a in range(1, n) for b in range(1, n)]
    found = 0
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        tab = np.zeros((n, n), dtype=np.int64)
        for (a, b), v in zip(pairs, bits):
            tab[a, b] = v
        c = cx.Cocycle2(g, 2, tab)
        ok, _ = cx.is_cocycle(c)
        if not ok:
            continue
        found += 1
        symmetric = np.array_equal(c.table, c.table.T)
        assert (cx.is_coboundary(c, sense="torus") is not None) == symmetric
    assert found >= 16


def symmetric_on(c: cx.Cocycle2, a: grp.Subgroup) -> bool:
    """Whether c(x, y) = c(y, x) on every pair of elements of a."""
    els = np.array(a.elements)
    return not c.beta(els[:, None], els).any()


def test_restrict_to_cyclic_is_always_trivial():
    c = pairing_cocycle(klein())
    g = c.group
    for x in range(1, 4):
        h = grp.subgroup_generated(g, [x])
        res = cx.restrict(c, h)
        assert symmetric_on(c, h)
        assert cx.is_coboundary(res, sense="torus") is not None


def test_bicyclic_triviality_matches_thm_criterion():
    # on a bicyclic group, torus triviality is symmetry of the table
    g = klein()
    whole = grp.subgroup_generated(g, [1, 2])
    anti = pairing_cocycle(g)
    assert not symmetric_on(anti, whole)
    assert cx.is_coboundary(anti, sense="torus") is None
    structure = grp.abelian_structure(g)
    mat = np.array([[1, 0], [0, 0]], dtype=np.int64)
    sym = cx.from_bilinear_form(cx.BilinearForm(g, structure, 2,
                                                tuple(map(tuple, mat))))
    assert symmetric_on(sym, whole)
    assert cx.is_coboundary(sym, sense="torus") is not None


def test_inflate_identity_and_collapse():
    g = klein()
    c = pairing_cocycle(g)
    ident = cx.inflate(c, group=g, projection=np.arange(4))
    assert np.array_equal(ident.table, c.table)

    one = grp.cyclic(1)
    zero = cx.Cocycle2.zero(one, 2)
    collapsed = cx.inflate(zero, group=g, projection=np.zeros(4, dtype=int))
    assert not collapsed.table.any()


def test_inflate_rejects_non_homomorphism():
    g = klein()
    c = pairing_cocycle(g)
    bad = np.array([0, 1, 2, 2])
    with pytest.raises(NotAHomomorphismError):
        cx.inflate(c, group=g, projection=bad)


def _first_non_homomorphic_pair_by_sweep(g, q, proj):
    """Reference: the full n^2 sweep of pi(ab) = pi(a)pi(b), row-major."""
    gmul = g.mul_table().astype(np.int64)
    qmul = q.mul_table().astype(np.int64)
    bad = np.argwhere(proj[gmul] != qmul[np.ix_(proj, proj)])
    return tuple(map(int, bad[0])) if len(bad) else None


def test_inflate_homomorphism_check_matches_full_sweep():
    from tbk import example as ex

    relabelled = _relabelled_z4_z4()
    rng = np.random.default_rng(37)
    for ext in (grp.quotient_by_central(relabelled, grp.subgroup_generated(
                    relabelled, relabelled.generators[:1])),
                ex.bogomolov_example(2).quotient_extension):
        g, q = ext.total, ext.quotient
        c = cx.Cocycle2.zero(q, 3)
        assert cx.inflate(c, ext).group is g
        failures = 0
        for trial in range(80):
            proj = np.array(ext.projection, dtype=np.int64)
            for _ in range(1 + trial % 3):
                proj[rng.integers(1, g.order)] = rng.integers(0, q.order)
            expected = _first_non_homomorphic_pair_by_sweep(g, q, proj)
            if expected is None:
                assert cx.inflate(c, group=g, projection=proj).group is g
                continue
            failures += 1
            with pytest.raises(NotAHomomorphismError) as info:
                cx.inflate(c, group=g, projection=proj)
            assert info.value.witness == expected
            assert str(expected) in str(info.value)
        assert failures > 60
    # rows 0 and 1 of Z_2 x Z_2 (generators 2, 1) are good here, so only
    # the row of the last generator, 2, shows the failure
    k, z3 = klein(), grp.cyclic(3)
    assert max(k.generators) == 2
    proj = np.array([0, 0, 1, 1])
    assert _first_non_homomorphic_pair_by_sweep(k, z3, proj) == (2, 2)
    with pytest.raises(NotAHomomorphismError) as info:
        cx.inflate(cx.Cocycle2.zero(z3, 3), group=k, projection=proj)
    assert info.value.witness == (2, 2)


def test_from_central_extension_z4_over_z2():
    z4 = grp.cyclic(4)
    ext = grp.quotient_by_central(z4, grp.subgroup_generated(z4, [2]))
    psi = grp.Character(2, {0: 0, 2: 1})
    c = cx.from_central_extension(ext, psi)
    assert c.group.order == 2
    assert c.value(1, 1) == 1
    # cyclic groups have trivial H^2 over the circle
    assert cx.is_coboundary(c, sense="torus") is not None
    # trivial character gives the zero cocycle
    zero = cx.from_central_extension(ext, grp.Character(2, {0: 0, 2: 0}))
    assert not zero.table.any()


def test_from_central_extension_heisenberg():
    # Heisenberg group of order p^3 as a central extension of Z_p x Z_p
    p = 2
    c0 = heisenberg_cocycle(p)
    q = c0.group
    n = q.order * p
    # build the extension group explicitly from the cocycle
    def enc(z, a):
        return z * q.order + a

    tab = np.zeros((n, n), dtype=np.int64)
    for z1 in range(p):
        for a in range(q.order):
            for z2 in range(p):
                for b in range(q.order):
                    z = (z1 + z2 + c0.value(a, b)) % p
                    tab[enc(z1, a), enc(z2, b)] = enc(z, int(q.mul_table()[a, b]))
    heis = grp.build_from_cayley(tab)
    assert heis.order == p ** 3
    zc = grp.center(heis)
    assert zc.order == p
    ext = grp.quotient_by_central(heis, zc)
    psi = grp.Character(p, {x: i for i, x in enumerate(zc.elements)})
    c = cx.from_central_extension(ext, psi)
    ok, _ = cx.is_cocycle(c)
    assert ok
    assert cx.is_coboundary(c, sense="torus") is None
    # asymmetric on a commuting pair
    g2 = c.group
    assert any(c.value(a, b) != c.value(b, a)
               for a, b in grp.commuting_pairs(g2))


def test_section_defect_detection():
    z4 = grp.cyclic(4)
    ext = grp.quotient_by_central(z4, grp.subgroup_generated(z4, [2]))
    broken = grp.CentralExtension(
        ext.total, grp.subgroup_generated(z4, [0]), ext.quotient,
        ext.projection, ext.section)
    with pytest.raises(DefectOutsideKernelError):
        cx.from_central_extension(broken, grp.Character(2, {0: 0}))


def test_bilinear_form_validation():
    g = klein()
    structure = grp.abelian_structure(g)
    with pytest.raises(IllDefinedFormError):
        cx.BilinearForm(g, structure, 4, ((0, 1), (0, 0)))  # 1*2 != 0 mod 4


def test_antisym():
    g = klein()
    c = pairing_cocycle(g)
    for x in range(4):
        assert cx.antisym(c, x, x) == 0
    # coboundaries vanish under antisymmetrization
    lam = cx.Cochain1(g, 2, [0, 1, 1, 0])
    cb = cx.coboundary_of(lam)
    for a, b in grp.commuting_pairs(g):
        assert cx.antisym(cb, a, b) == 0
    # the pairing class detects (e1, e2)
    e1, e2 = g.generators
    assert cx.antisym(c, e1, e2) == 1


def test_antisym_requires_commuting():
    import tests.test_grp as tg

    s3 = tg.s3_group()
    c = cx.Cocycle2.zero(s3, 2)
    a, b = next((a, b) for a in range(6) for b in range(6)
                if s3.mul(a, b) != s3.mul(b, a))
    with pytest.raises(NonCommutingPairError):
        cx.antisym(c, a, b)


def test_h2_small_cyclic_trivial():
    for n in range(1, 13):
        structure, reps = cx.h2_small(grp.cyclic(n))
        assert structure.invariant_factors == (), f"H2(Z_{n}) should vanish"
        assert reps == []


def test_h2_small_bicyclic_cases():
    for (d1, d2), want in [((2, 2), (2,)), ((2, 4), (2,)),
                           ((3, 3), (3,)), ((4, 6), (2,))]:
        g = grp.direct_product(grp.cyclic(d1), grp.cyclic(d2))
        structure, reps = cx.h2_small(g)
        assert structure.invariant_factors == want
        for rep in reps:
            assert cx.is_coboundary(rep, sense="torus") is None


def test_h2_small_elementary_2cube():
    g = grp.direct_product(grp.direct_product(grp.cyclic(2), grp.cyclic(2)),
                           grp.cyclic(2))
    structure, reps = cx.h2_small(g)
    assert structure.invariant_factors == (2, 2, 2)
    assert len(reps) == 3


def test_h2_small_quaternion_trivial():
    import tests.test_grp as tg

    q8 = tg.q8_group()
    structure, reps = cx.h2_small(q8)
    assert structure.invariant_factors == ()
    assert reps == []


def test_h2_small_cap():
    with pytest.raises(InfeasibleError):
        cx.h2_small(grp.cyclic(33), cap=32)


def test_h2_small_matches_schur_for_small_bicyclic():
    for d1 in range(2, 17):
        for d2 in range(d1, 17):
            if d1 * d2 > 32:
                continue
            g = grp.direct_product(grp.cyclic(d1), grp.cyclic(d2))
            structure, _ = cx.h2_small(g)
            d = math.gcd(d1, d2)
            assert structure.invariant_factors == ((d,) if d > 1 else ())


def twisted_monomial_product(c: cx.Cocycle2, perm):
    """Product of twisted monomials (r, a) over the G-set perm[a][s] = a s.

    (r1 a)(r2 b) = zeta^c(a,b) r1 (a r2) ab with (a r)(s) = r(a^-1 s), read
    from the raw table of a mod-2 cocycle, so zeta = -1.
    """
    assert c.modulus == 2
    inv, perm = c.group.inv_table(), np.asarray(perm)

    def mul(u, v):
        (r1, a), (r2, b) = u, v
        return (-1) ** int(c.table[a, b]) * r1 * r2[perm[inv[a]]], c.group.mul(a, b)
    return mul


def twisted_assoc_audit(c: cx.Cocycle2, perm):
    """Multiply every triple of monomials; the first (a, b, x) to fail."""
    mul = twisted_monomial_product(c, perm)
    n, points = c.group.order, len(perm[0])
    # coefficient functions that vanish nowhere and tell the points apart
    mono = [(np.arange(2, 2 + points) + a, a) for a in range(n)]
    for a, b, x in itertools.product(range(n), repeat=3):
        (left, gl), (right, gr) = (mul(mul(mono[a], mono[b]), mono[x]),
                                   mul(mono[a], mul(mono[b], mono[x])))
        if gl != gr or not np.array_equal(left, right):
            return False, (a, b, x)
    return True, None


# the quotient to the first Z_2 swaps two of the three points
KLEIN_SWAP = [[0, 1, 2], [0, 2, 1], [0, 1, 2], [0, 2, 1]]


def test_twisted_unity_and_square():
    c = cx.Cocycle2(grp.cyclic(2), 2, [[0, 0], [0, 1]])
    mul = twisted_monomial_product(c, [[0], [0]])
    one, xg = (np.array([1]), 0), (np.array([1]), 1)
    assert mul(one, xg) == xg and mul(xg, one) == xg
    # (1*g)(1*g) = -1 * identity
    assert mul(xg, xg) == (np.array([-1]), 0)


def test_twisted_assoc_detects_each_perturbation():
    g = klein()
    c = pairing_cocycle(g)
    assert twisted_assoc_audit(c, KLEIN_SWAP) == cx.is_cocycle(c) == (True, None)
    rng = random.Random(9)
    broken_seen = 0
    for _ in range(50):
        tab = c.table.astype(np.int64).copy()
        a = rng.randrange(1, 4)
        b = rng.randrange(1, 4)
        tab[a, b] = (tab[a, b] + 1) % 2
        broken = cx.Cocycle2(g, 2, tab)
        verdict = twisted_assoc_audit(broken, KLEIN_SWAP)
        assert verdict == cx.is_cocycle(broken)
        broken_seen += not verdict[0]
    assert broken_seen > 25


def test_assoc_check_equivalent_to_cocycle_property():
    g = klein()
    trivial = [[0, 1, 2]] * 4
    n = g.order
    pairs = [(a, b) for a in range(1, n) for b in range(1, n)]
    rng = random.Random(5)
    for _ in range(40):
        tab = np.zeros((n, n), dtype=np.int64)
        for a, b in pairs:
            tab[a, b] = rng.randrange(2)
        c = cx.Cocycle2(g, 2, tab)
        assert twisted_assoc_audit(c, trivial) == cx.is_cocycle(c)


def test_beta_properties_random_classes():
    g = klein()
    c = pairing_cocycle(g)
    rng = random.Random(1)
    pairs = list(grp.commuting_pairs(g))
    for _ in range(20):
        lam = cx.Cochain1(g, 2, [0] + [rng.randrange(2) for _ in range(3)])
        shifted = c + cx.coboundary_of(lam)
        for a, b in pairs:
            assert cx.antisym(shifted, a, b) == cx.antisym(c, a, b)
    # bilinearity over a fully commuting triple set
    for a in range(4):
        for b in range(4):
            for x in range(4):
                ab = g.mul(a, b)
                lhs = cx.antisym(c, ab, x)
                rhs = (cx.antisym(c, a, x) + cx.antisym(c, b, x)) % 2
                assert lhs == rhs


def test_zmlin_howell_and_solve():
    assert np.array_equal(zmlin.howell_form([[2, 0], [0, 2]], 4),
                          zmlin.howell_form([[2, 2], [0, 2]], 4))
    sol = zmlin.solve([[2]], [2], 4)
    assert sol is not None and (2 * sol[0][0]) % 4 == 2
    assert zmlin.solve([[2]], [1], 4) is None


def test_d_squared_zero_exhaustive_mod2():
    # every 1-cochain's coboundary is a cocycle, exhaustively for m = 2
    for g in (grp.cyclic(4), klein(), grp.cyclic(8),
              grp.direct_product(grp.cyclic(2), grp.cyclic(4))):
        n = g.order
        for bits in itertools.product((0, 1), repeat=n - 1):
            lam = cx.Cochain1(g, 2, [0, *bits])
            ok, _ = cx.is_cocycle(cx.coboundary_of(lam))
            assert ok


def test_beta_additive_in_the_class():
    g = klein()
    c1 = pairing_cocycle(g)
    structure = grp.abelian_structure(g)
    c2 = cx.from_bilinear_form(
        cx.BilinearForm(g, structure, 2, ((1, 0), (0, 1))))
    total = c1 + c2
    for a, b in grp.commuting_pairs(g):
        assert cx.antisym(total, a, b) == \
            (cx.antisym(c1, a, b) + cx.antisym(c2, a, b)) % 2


def test_extension_cocycle_independent_of_section():
    import tests.test_grp as tg

    q8 = tg.q8_group()
    zc = grp.center(q8)
    ext = grp.quotient_by_central(q8, zc)
    psi = grp.Character(2, {x: i for i, x in enumerate(zc.elements)})
    c1 = cx.from_central_extension(ext, psi)
    # perturb the section: multiply non-identity coset representatives by
    # central elements
    import numpy as np

    section = np.array(ext.section, dtype=np.int64).copy()
    for q in range(1, ext.quotient.order):
        section[q] = q8.mul(int(section[q]), zc.elements[q % zc.order])
    perturbed = grp.CentralExtension(ext.total, ext.kernel, ext.quotient,
                                     ext.projection, section)
    c2 = cx.from_central_extension(perturbed, psi)
    diff = c1 - c2
    assert cx.is_coboundary(diff, sense="torus") is not None


def dihedral8() -> grp.FiniteGroup:
    from tbk.cyclo import CycloMatrix
    import tbk.rep as rp

    d4, _ = rp.matrix_closure(
        [CycloMatrix([[0, -1], [1, 0]]), CycloMatrix([[1, 0], [0, -1]])])
    return d4


def alternating4() -> grp.FiniteGroup:
    perms = sorted(
        p for p in itertools.permutations(range(4))
        if sum(1 for i in range(4) for j in range(i) if p[j] > p[i]) % 2 == 0)
    index = {p: i for i, p in enumerate(perms)}
    return grp.build_from_cayley(
        [[index[tuple(p[q[i]] for i in range(4))] for q in perms]
         for p in perms])


def test_h2_small_known_nonabelian_multipliers():
    # dihedral group of order 8 and the alternating group on 4 letters both
    # have multiplier Z_2; the triple product picks up one Z_2 per pair
    structure, _ = cx.h2_small(dihedral8())
    assert structure.invariant_factors == (2,)

    triple = grp.direct_product(
        grp.direct_product(grp.cyclic(2), grp.cyclic(2)), grp.cyclic(4))
    structure, _ = cx.h2_small(triple)
    assert structure.invariant_factors == (2, 2, 2)

    structure, reps = cx.h2_small(alternating4())
    assert structure.invariant_factors == (2,)
    assert cx.is_coboundary(reps[0], sense="torus") is None


def _h2_test_groups():
    """Every group the h2_small tests above take, by name."""
    import tests.test_grp as tg

    c, dp = grp.cyclic, grp.direct_product
    out = {f"Z{n}": c(n) for n in range(1, 13)}
    out.update({f"Z{a}xZ{b}": dp(c(a), c(b))
                for a in range(2, 17) for b in range(a, 17) if a * b <= 32})
    out.update({"Z2^3": dp(dp(c(2), c(2)), c(2)),
                "Z2xZ2xZ4": dp(dp(c(2), c(2)), c(4)),
                "Q8": tg.q8_group(), "D4": dihedral8(), "A4": alternating4()})
    return out


@pytest.mark.parametrize("name", sorted(_h2_test_groups()))
def test_h2_small_representatives_have_the_order_of_their_factor(name):
    g = _h2_test_groups()[name]
    structure, reps = cx.h2_small(g)
    assert len(reps) == len(structure.invariant_factors)
    for d, rep in zip(structure.invariant_factors, reps):
        for k in range(1, d):
            assert cx.is_coboundary(rep.scale(k), sense="torus") is None, (d, k)
        assert cx.is_coboundary(rep.scale(d), sense="torus") is not None


def test_b0_vanishes_on_small_groups_with_nonzero_h2():
    # B0 = 0 for abelian groups and for every group of order <= 32
    # (Chu-Hu-Kang-Prokhorov 2008): the H^2 representatives span H^2, and
    # none of their nontrivial combinations vanishes on all commuting pairs
    import tests.test_grp as tg

    c, dp = grp.cyclic, grp.direct_product
    groups = [dp(dp(c(2), c(2)), c(2)), dp(c(4), c(4)),
              dp(dp(c(2), c(4)), c(4)), alternating4(),
              dp(tg.q8_group(), c(2)), dp(dihedral8(), c(2))]
    for g in groups:
        structure, reps = cx.h2_small(g)
        assert structure.invariant_factors != ()
        assert span_analysis(reps).invariant_factors == ()


def test_table_rows_rebuild_a_cocycle_from_its_generator_columns():
    # a normalized cocycle is fixed by its edge values c(x, gen_j)
    rng = np.random.default_rng(29)
    for g in (dihedral8(), alternating4(), grp.cyclic(6)):
        n, gens = g.order, list(g.generators)
        _, reps = cx.h2_small(g)
        lam = rng.integers(0, n, size=n)
        lam[0] = 0
        c = cx.coboundary_of(cx.Cochain1(g, n, lam))
        for r in reps:
            c = c + r.scale(int(rng.integers(1, n)))
        edges = c.table[:, gens].astype(np.int64)
        assert np.array_equal(cx._table_rows(g, edges, range(n)) % n, c.table)
        stacked = cx._table_rows(g, np.stack([edges, 2 * edges], axis=-1),
                                 gens[::-1]) % n
        assert np.array_equal(stacked[..., 0], c.table[gens[::-1]])
        assert np.array_equal(stacked[..., 1], 2 * c.table[gens[::-1]] % n)


def test_h2_small_with_identity_repeated_and_redundant_generators():
    c, dp = grp.cyclic, grp.direct_product
    for g in (dihedral8(), alternating4(), dp(c(2), c(4)), dp(c(3), c(3))):
        want = cx.h2_small(g)[0].invariant_factors
        gens = list(g.generators)
        for listed in ([0] + gens, gens + gens, list(range(1, g.order))):
            h = grp.build_from_cayley(g.mul_table().tolist(), generators=listed)
            structure, reps = cx.h2_small(h)
            assert structure.invariant_factors == want, listed
            for d, rep in zip(want, reps):
                assert cx.is_coboundary(rep.scale(d), sense="torus") is not None


def test_h2_small_gives_all_of_b0_at_p2():
    # H^2 of the order-128 group, and B0 and B_G(U) inside it: the catalog
    # spans all of both. The generator-row system keeps the run small. A
    # bundle of its own keeps the shared one's edge plans as they were.
    import tracemalloc

    from tbk import example as ex

    bundle = ex.bogomolov_example(2)
    catalog = [bundle.cocycle(x) for x in bundle.catalog_names]
    tracemalloc.start()
    try:
        structure, reps = cx.h2_small(bundle.group, cap=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert structure.invariant_factors == (4, 2, 2, 2, 2, 2)
    assert peak < 300 << 20
    for model in (None, bundle.model):
        spans = span_analysis(reps, model).invariant_factors
        assert spans == span_analysis(catalog, model).invariant_factors == (2,)


def _old_stored_table(table, modulus: int) -> np.ndarray:
    """The reference: reduce in int64, then narrow to the stored dtype."""
    return (np.asarray(table, dtype=np.int64) % modulus).astype(
        cx._dtype_for(modulus))


def test_cocycle2_stores_the_same_table_from_any_integer_input():
    g = klein()
    raw = [[0, 0, 0, 0], [0, 1, -1, 5], [0, 7, 2, -3], [0, 0, 9, 127]]
    for m in (1, 2, 3, 127, 128, 200, 32_767, 40_000):
        want = _old_stored_table(raw, m)
        inputs = [raw, *(np.array(raw, dtype=dt)
                         for dt in (np.int8, np.int16, np.int64))]
        for table in inputs:
            before = np.array(table, copy=True)
            got = cx.Cocycle2(g, m, table).table
            assert got.dtype == want.dtype and np.array_equal(got, want), \
                (m, getattr(table, "dtype", "list"))
            assert np.array_equal(np.asarray(table), before)
            assert not np.shares_memory(got, np.asarray(table))


def test_cocycle2_rejects_alike_whatever_the_input_dtype():
    g = klein()
    unnormalized = [[0, 0, 0, 0], [0, 1, 0, 0], [3, 0, 0, 0], [0, 0, 0, 0]]
    wrapped = [[0, 0, 0, 3], [0, 1, 0, 0], [-3, 0, 0, 0], [0, 0, 0, 0]]
    for dt in (None, np.int8, np.int16, np.int64):
        def arr(t):
            return t if dt is None else np.array(t, dtype=dt)
        with pytest.raises(NotNormalizedError,
                           match=r"table shape \(3, 3\) != \(4, 4\)"):
            cx.Cocycle2(g, 3, arr([[0] * 3] * 3))
        with pytest.raises(NotNormalizedError, match="not normalized"):
            cx.Cocycle2(g, 5, arr(unnormalized))
        with pytest.raises(ModulusMismatchError, match="must be positive"):
            cx.Cocycle2(g, 0, arr(unnormalized))
        # entries that reduce to 0 mod m normalize the table
        assert np.array_equal(cx.Cocycle2(g, 3, arr(wrapped)).table,
                              _old_stored_table(wrapped, 3))


def test_cocycle2_keeps_a_reduced_input_without_sharing_it():
    g = klein()
    raw = [[0, 0, 0, 0], [0, 1, 2, 0], [0, 2, 1, 1], [0, 0, 2, 2]]
    for m in (3, 127, 40_000):
        want = _old_stored_table(raw, m)
        big = np.zeros((8, 8), dtype=np.int64)
        big[2:6, 3:7] = raw
        for table in (raw, np.array(raw, dtype=np.int8),
                      np.array(raw, dtype=cx._dtype_for(m)), big[2:6, 3:7]):
            got = cx.Cocycle2(g, m, table).table
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not np.shares_memory(got, np.asarray(table))


ARITHMETIC_MODULI = (1, 2, 3, 64, 65, 127, 128, 255, 256, 40_000)


@pytest.mark.parametrize("m", ARITHMETIC_MODULI)
def test_cocycle_arithmetic_matches_the_int64_reference(m):
    g = grp.build_from_cayley(
        [[(a + b) % 9 for b in range(9)] for a in range(9)])
    rng = np.random.default_rng(m)

    def random_class():
        t = rng.integers(0, m, size=(9, 9))
        t[0] = t[:, 0] = 0
        # the extremes of [0, m) meet in the sums and products
        t[1, 1:3] = (0, m - 1)
        t[2, 1:3] = (m - 1, m - 1)
        return cx.Cocycle2(g, m, t, _verified=True)

    def stored(t):
        return (t % m).astype(cx._dtype_for(m))

    for _ in range(4):
        a, b = random_class(), random_class()
        a64, b64 = a.table.astype(np.int64), b.table.astype(np.int64)
        for got, want in ((a + b, stored(a64 + b64)), (-a, stored(-a64)),
                          (a - b, stored(a64 - b64))):
            assert got.table.dtype == want.dtype
            assert np.array_equal(got.table, want), m
        for k in (-7, -1, 0, 1, 2, 3, m - 1, m, m + 1, 1_000_003):
            want = stored(a64 * k)
            got = a.scale(k).table
            assert got.dtype == want.dtype and np.array_equal(got, want), (m, k)
    # a factor past int64 is reduced first, so the product stays exact
    k = 10 ** 30 + 7
    assert np.array_equal(a.scale(k).table, stored(a64 * (k % m)))


# ---------------------------------------------------------------------------
# the coboundary solver against a per-call reference


def _reference_coboundary(c: cx.Cocycle2, sense: str) -> np.ndarray | None:
    """The witness table by a fresh edge system, deduplicated with the
    right-hand side and solved by ``zmlin.solve``, or None."""
    g = c.group
    f = g.exponent() if sense == "torus" else 1
    big = c.modulus * f
    gens = list(g.generators)
    mul = g.mul_table()
    tree = grp.cayley_tree(g)
    counts = np.zeros((g.order, len(gens)), dtype=np.int64)
    for lvl in tree.levels[1:]:
        counts[lvl] = counts[tree.parent[lvl]]
        counts[lvl, tree.letter[lvl]] += 1
    edges = c.table[:, gens].astype(np.int64) * f
    off = np.zeros(g.order, dtype=np.int64)
    for lvl in tree.levels[1:]:
        par = tree.parent[lvl]
        off[lvl] = (off[par] - edges[par, tree.letter[lvl]]) % big
    prod = mul[:, gens]
    coef = ((counts[:, None] + counts[gens] - counts[prod]) % big).reshape(
        -1, len(gens))
    rhs = ((edges - off[:, None] - off[gens] + off[prod]) % big).reshape(-1)
    system = np.unique(np.column_stack([coef, rhs]), axis=0)
    sol = zmlin.solve(system[:, :-1], system[:, -1], big)
    if sol is None:
        return None
    lam = (off + counts @ sol[0]) % big
    assert np.array_equal(cx.coboundary_of(cx.Cochain1(g, big, lam)).table,
                          c.table.astype(np.int64) * f % big)
    return lam


def _assert_matches_reference(c: cx.Cocycle2, senses=("torus", "mod-m")
                              ) -> set[bool]:
    """Check each sense against the reference; return the verdicts seen."""
    seen = set()
    for sense in senses:
        witness = cx.is_coboundary(c, sense=sense)
        expected = _reference_coboundary(c, sense)
        if expected is None:
            assert witness is None, sense
        else:
            assert witness is not None, sense
            assert np.array_equal(witness.table, expected), sense
        seen.add(witness is not None)
    return seen


def _seeded_shift(c: cx.Cocycle2, rng) -> cx.Cocycle2:
    lam = rng.integers(0, c.modulus, size=c.group.order)
    lam[0] = 0
    return c + cx.coboundary_of(cx.Cochain1(c.group, c.modulus, lam))


def test_is_coboundary_matches_the_reference_on_the_p2_catalog(bundle_p2):
    rng = np.random.default_rng(21)
    classes = [bundle_p2.cocycle(x) for x in bundle_p2.catalog_names]
    combos = []
    for _ in range(20):
        coeffs = rng.integers(0, 2, size=len(classes))
        total = cx.Cocycle2.zero(bundle_p2.group, 2)
        for k, c in zip(coeffs, classes):
            if k:
                total = total + c
        combos.append(total)
    seen = set()
    for c in classes + combos:
        for shifted in (c, _seeded_shift(c, rng)):
            seen |= _assert_matches_reference(shifted)
    assert seen == {True, False}


def test_is_coboundary_matches_the_reference_on_p3_classes(bundle_p3):
    rng = np.random.default_rng(22)
    for name in ("e12", "e23", "e34"):
        c = bundle_p3.cocycle(name)
        _assert_matches_reference(c)
        _assert_matches_reference(_seeded_shift(c, rng), ("torus",))
    both = bundle_p3.cocycle("e12") + bundle_p3.cocycle("e34")
    _assert_matches_reference(both, ("torus",))


def _q8() -> grp.FiniteGroup:
    from tests.test_grp import q8_group

    return q8_group()


def _z2z4() -> grp.FiniteGroup:
    return grp.direct_product(grp.cyclic(2), grp.cyclic(4))


@pytest.mark.parametrize("make", [dihedral8, _q8, _z2z4],
                         ids=["dihedral8", "q8", "z2z4"])
def test_is_coboundary_matches_the_reference_on_small_groups(make):
    g = make()
    rng = np.random.default_rng(23)
    _, reps = cx.h2_small(g)
    n = g.order
    seen = set()
    for _ in range(12):
        c = cx.Cocycle2.zero(g, n)
        for r in reps:
            c = c + r.scale(int(rng.integers(0, n)))
        seen |= _assert_matches_reference(_seeded_shift(c, rng))
        # a Z_n-cocycle read mod m | n is a Z_m-cocycle
        for m in (2, 4):
            small = cx.Cocycle2(g, m, c.table % m)
            seen |= _assert_matches_reference(_seeded_shift(small, rng))
    assert seen == ({True} if make is _q8 else {True, False})


def test_the_edge_plan_is_kept_per_modulus(bundle_p2):
    g = bundle_p2.group
    c = bundle_p2.cocycle("e12") + bundle_p2.cocycle("e34")
    rng = np.random.default_rng(24)
    c = _seeded_shift(c, rng)
    for sense in ("torus", "mod-m", "torus", "mod-m"):
        _assert_matches_reference(c, (sense,))
    assert set(g._cache["edge_plans"]) == {2, 2 * g.exponent()}


def test_the_witness_check_reads_every_row_block(monkeypatch):
    # a table that agrees with a coboundary on every edge (a, gen) but not
    # in one entry of its last row block: the edge system finds a witness,
    # and the whole-table check refuses it
    monkeypatch.setattr(cx, "ROW_BLOCK_ENTRIES", 16)
    g = dihedral8()
    rng = np.random.default_rng(25)
    c = _seeded_shift(cx.Cocycle2.zero(g, 4), rng)
    gens = set(g.generators)
    b = next(x for x in range(1, g.order) if x not in gens)
    t = c.table.astype(np.int64)
    t[g.order - 1, b] = (t[g.order - 1, b] + 1) % 4
    bad = cx.Cocycle2(g, 4, t, _verified=True)
    with pytest.raises(AssertionError):
        cx.is_coboundary(bad, sense="mod-m")
    assert cx.is_coboundary(c, sense="mod-m") is not None


# Reference for trivial_combinations: the homogeneous edge system in
# (lambda_gens, t) over Z_M, deduplicated, solved by a right kernel and
# projected onto t.
def reference_trivial_combinations(g: grp.FiniteGroup, edges, modulus: int
                                   ) -> np.ndarray:
    f = g.exponent()
    big = modulus * f
    _, rhs = cx.edge_system(g, np.asarray(edges, dtype=np.int64) * f, big)
    plan = cx.edge_plan(g, big)
    coef = plan.rows[plan.distinct]
    k = coef.shape[1]
    system = np.unique(np.column_stack([coef, -rhs.T]) % big, axis=0)
    solutions = zmlin.right_kernel(system, big)
    return zmlin.howell_form(solutions[:, k:] % modulus, modulus)


def _catalog_edges(bundle) -> np.ndarray:
    gens = list(bundle.group.generators)
    return np.array([bundle.cocycle(x).table[:, gens]
                     for x in bundle.catalog_names])


@pytest.mark.parametrize("fixture", ["bundle_p2", "bundle_p2_literal",
                                     "bundle_p3"])
def test_trivial_combinations_match_the_reference_on_the_catalogs(
        fixture, request):
    bundle = request.getfixturevalue(fixture)
    g, m = bundle.group, bundle.cocycle(bundle.catalog_names[0]).modulus
    edges = _catalog_edges(bundle)
    rng = np.random.default_rng(26)
    subsets = [np.arange(len(edges))] + [
        rng.permutation(len(edges))[:rng.integers(1, len(edges) + 1)]
        for _ in range(3)]
    for pick in subsets:
        got = cx.trivial_combinations(g, edges[pick], m)
        assert np.array_equal(
            got, reference_trivial_combinations(g, edges[pick], m))
    assert len(got)


def test_trivial_combinations_match_the_reference_in_h2_small(monkeypatch):
    real = cx.trivial_combinations
    checked = []

    def compared(g, edges, m):
        got = real(g, edges, m)
        assert np.array_equal(
            got, reference_trivial_combinations(g, edges, m)), g
        checked.append(g.order)
        return got

    monkeypatch.setattr(cx, "trivial_combinations", compared)
    groups = _h2_test_groups()
    for name in sorted(groups):
        cx.h2_small(groups[name])
    assert len(checked) == len(groups) - 1      # Z1 has nothing to solve


def test_trivial_combinations_match_the_reference_on_arbitrary_edge_data():
    # on cocycles the rows that agree on shared coefficient rows already
    # decide every case the tests reach; arbitrary edge columns make the
    # cycle-space condition bind as well, and both sides solve the same
    # edge system
    import tests.test_grp as tg

    rng = np.random.default_rng(28)
    groups = [dihedral8(), tg.q8_group(), alternating4(), tg.s3_group(),
              grp.direct_product(grp.cyclic(2), grp.cyclic(4))]
    for g in groups:
        for m in (2, 3, 4, 6):
            edges = rng.integers(0, m, size=(5, g.order, len(g.generators)))
            edges[:, 0] = 0
            assert np.array_equal(
                cx.trivial_combinations(g, edges, m),
                reference_trivial_combinations(g, edges, m))


def test_the_cycle_space_kills_exactly_the_column_span(bundle_p2):
    # Y @ b == 0 iff b lies in the column span of the distinct edge rows
    g = bundle_p2.group
    big = 2 * g.exponent()
    plan = cx.edge_plan(g, big)
    rows = plan.rows
    assert plan.cycles is plan.cycles
    assert not zmlin.matmul_mod(plan.cycles, rows, big).any()
    rng = np.random.default_rng(27)
    for _ in range(40):
        b = rng.integers(0, big, size=len(rows))
        if rng.integers(2):
            b = zmlin.matmul_mod(rows, rng.integers(0, big, size=rows.shape[1]),
                                 big)
        _, feasible = zmlin.solve_against(plan.span, b)
        assert feasible[0] == (not zmlin.matmul_mod(plan.cycles, b, big).any())
