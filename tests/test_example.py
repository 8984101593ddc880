from __future__ import annotations

import pytest

from tbk import brauer as br
from tbk import cocycle as cx
from tbk import example as ex
from tbk import grp
from tbk.errors import MalformedError, OrderBoundExceededError


def test_clock_and_shift_commutator_scalar():
    for p, conv in ((2, "involution"), (2, "literal"), (3, "involution"),
                    (5, "involution")):
        pm, qm, n = ex.clock_and_shift(p, conv)
        comm = pm * qm * pm.inverse() * qm.inverse()
        assert comm.is_scalar()
        val = comm.entries[0][0]
        acc = val
        for _ in range(p - 1):
            assert not acc.is_one()
            acc = acc * val
        assert acc.is_one()


def test_resource_guard(monkeypatch):
    with pytest.raises(OrderBoundExceededError):
        ex.bogomolov_example(5)
    monkeypatch.setenv("TBK_MAX_ORDER", "100")
    with pytest.raises(OrderBoundExceededError):
        ex.bogomolov_example(2)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9])
def test_p_must_be_a_prime(p, monkeypatch):
    monkeypatch.setenv("TBK_MAX_ORDER", str(10 ** 7))  # above every p^7 here
    with pytest.raises(MalformedError, match=f"^p = {p} is not a prime$"):
        ex.bogomolov_example(p)


def test_bundle_p2_structure(bundle_p2):
    b = bundle_p2
    assert b.group.order == 128
    assert b.rep.degree == 8
    assert b.model.codim_threshold == 3
    assert len(b.catalog) == 6 + 7  # six pairings, seven hyperplane extensions
    assert b.commutator_exponent == 1  # [P, Q] = -1 for the involution pair


def test_bundle_p2_literal_matches_order(bundle_p2_literal):
    b = bundle_p2_literal
    assert b.group.order == 128
    assert b.convention == "literal"
    # quotient by the center image is still Z_2^4
    st = grp.abelian_structure(b.quotient_extension.quotient)
    assert st.invariant_factors == (2, 2, 2, 2)


def test_bundle_relations(bundle_p2):
    b = bundle_p2
    g = b.group
    x1, x2, x3, x4 = b.x
    a, bb, cc = b.central
    assert g.commutator(x1, x2) == a
    assert g.commutator(x3, x4) == a
    assert g.commutator(x1, x3) == 0
    assert g.commutator(x1, x4) == 0
    assert g.commutator(x2, x4) == bb
    assert g.commutator(x2, x3) == cc
    zc = grp.center(g)
    assert set((a, bb, cc)) <= set(zc.elements)


def test_bundle_quotient_structure(bundle_p2):
    b = bundle_p2
    assert b.center_subgroup.order == 8
    st = grp.abelian_structure(b.quotient_extension.quotient)
    assert st.invariant_factors == (2, 2, 2, 2)
    # the recorded basis really is the image of x1..x4
    for i, x in enumerate(b.x):
        img = int(b.quotient_extension.projection[x])
        assert b.quotient_structure.dlog[img][i] == 1


def test_catalog_cocycles_are_cocycles(bundle_p2):
    b = bundle_p2
    for name, c in b.catalog:
        ok, _ = cx.is_cocycle(c)
        assert ok, name


def test_extension_classes_restrict_to_zero_on_quotient_kernel(bundle_p2):
    # extension classes inflate from the central quotient, so they vanish
    # after restriction to the center
    b = bundle_p2
    c = b.cocycle("ext0-psi1")
    res = cx.restrict(c, b.center_subgroup)
    assert cx.is_coboundary(res, sense="torus") is not None


def test_extension_classes_span_transgression(bundle_p2):
    # each extension class must be beta-trivial on all commuting pairs
    b = bundle_p2
    for name in b.catalog_names:
        if name.startswith("ext"):
            assert br.in_B0(b.cocycle(name)).member, name


def test_notes_present(bundle_p2):
    assert any("involution" in note for note in bundle_p2.notes)
    assert any("unordered" in note for note in bundle_p2.notes)


def test_bundle_regenerates_identically(bundle_p2):
    import numpy as np

    again = ex.bogomolov_example(2)
    assert np.array_equal(again.group.mul_table(), bundle_p2.group.mul_table())
    assert again.catalog_names == bundle_p2.catalog_names
    for (n1, c1), (n2, c2) in zip(again.catalog, bundle_p2.catalog):
        assert n1 == n2 and np.array_equal(c1.table, c2.table)
    assert [s.key() for s in again.model.arrangement] == \
        [s.key() for s in bundle_p2.model.arrangement]
