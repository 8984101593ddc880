from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tbk.cyclo import (
    CycloMatrix,
    CycloNumber,
    RootOfUnity,
    Subspace,
    cyclotomic_poly,
    eigenspace,
    kernel,
)
from tbk.errors import (
    DivisionByZeroError,
    IncompatibleOrdersError,
    SingularMatrixError,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_factor_x_n_minus_1():
    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_poly(d)
                assert all(type(c) is int for c in phi) and phi[-1] == 1
                prod = _int_poly_mul(prod, phi)
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_basic_identities():
    z4 = CycloNumber.zeta(4)
    assert z4 * z4 == -1
    z3 = CycloNumber.zeta(3)
    assert (1 + z3 + z3 * z3).is_zero()
    z8 = CycloNumber.zeta(8)
    prod = (1 + z8) * (1 + CycloNumber.zeta(8, -1))
    assert prod == 2 + z8 + CycloNumber.zeta(8, -1)
    assert prod.conjugate() == prod


def test_zeta_has_exact_order():
    for n in (2, 3, 4, 5, 6, 8, 12):
        z = CycloNumber.zeta(n)
        p = CycloNumber.rational(1, n)
        for k in range(1, n):
            p = p * z
            assert not p.is_one()
        assert (p * z).is_one()


def _random_value(rng: random.Random, order: int) -> CycloNumber:
    return CycloNumber.from_raw(
        order, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(order)]
    )


def _power_table(n: int) -> list[list[Fraction]]:
    """x^k mod Phi_n for k = 0 .. 2*deg - 2, by repeated multiplication by x."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    rows = []
    cur = [Fraction(1)] + [Fraction(0)] * (d - 1)
    top = [Fraction(-c) for c in phi[:d]]  # x^d = -(lower part), Phi monic
    for _ in range(max(2 * d - 1, 1)):
        rows.append(list(cur))
        carry = cur[d - 1]
        cur = [Fraction(0)] + cur[: d - 1]
        if carry:
            cur = [a + carry * b for a, b in zip(cur, top)]
    return rows


def _reference_product(a: CycloNumber, b: CycloNumber) -> tuple[Fraction, ...]:
    """Schoolbook product reduced through the power table of x."""
    n = a.order
    d = len(a.coeffs)
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    out = [Fraction(0)] * d
    for k, row in enumerate(_power_table(n)):
        for i in range(d):
            out[i] += prod[k] * row[i]
    return tuple(out)


def test_product_matches_power_table_reduction():
    # at these orders 2 * phi(n) - 2 >= n, so the product's top powers wrap
    # past x^n and the reduction must use zeta^(k mod n)
    rng = random.Random(4)
    for n in (5, 7, 9, 21):
        d = len(cyclotomic_poly(n)) - 1
        assert 2 * d - 2 >= n
        for _ in range(60):
            a, b = _random_value(rng, n), _random_value(rng, n)
            assert (a * b).coeffs == _reference_product(a, b)


def test_canonical_form_under_rebracketing():
    # equal values built through different expression trees have identical
    # coefficient vectors
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.choice([3, 4, 6, 8])
        a, b, c = (_random_value(rng, n) for _ in range(3))
        left = (a + b) * c
        right = a * c + c * b
        assert left.coeffs == right.coeffs
        assert left.order == right.order


def test_field_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.choice([3, 4, 5, 8])
        a, b, c = (_random_value(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inverse()).is_one()


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        CycloNumber.rational(1) / CycloNumber.rational(0)


def test_embedding_is_homomorphism():
    rng = random.Random(2)
    for _ in range(50):
        a = _random_value(rng, 4)
        b = _random_value(rng, 4)
        assert (a * b).embed(12) == a.embed(12) * b.embed(12)
        assert (a + b).embed(12) == a.embed(12) + b.embed(12)


def test_order_bound_enforced():
    a = CycloNumber.zeta(97)
    b = CycloNumber.zeta(89)
    with pytest.raises(IncompatibleOrdersError):
        _ = a * b


def same_value(r: RootOfUnity, s: RootOfUnity) -> bool:
    """Whether two roots of unity are the same complex number."""
    return Fraction(r.exponent, r.modulus) == Fraction(s.exponent, s.modulus)


def test_root_of_unity_group_law():
    r = RootOfUnity(4, 1)
    s = RootOfUnity(6, 1)
    t = r * s
    assert t.modulus == 12 and t.exponent == (3 + 2) % 12
    assert same_value(r * r.inverse(), RootOfUnity(1, 0))
    # embedding into a cyclotomic field is a homomorphism
    assert (r * s).to_cyclo(12) == r.to_cyclo(12) * s.to_cyclo(12)


def test_kernel_examples():
    m = CycloMatrix.diagonal([1, -1]) - CycloMatrix.identity(2)
    k = kernel(m)
    assert k.dim == 1 and k.contains_vector([1, 0])

    rot = CycloMatrix([[0, 1], [-1, 0]])
    assert kernel(rot - CycloMatrix.identity(2)).dim == 0

    shift = CycloMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    k = kernel(shift - CycloMatrix.identity(3))
    assert k.dim == 1 and k.contains_vector([1, 1, 1])


def test_kernel_rank_nullity_and_exactness():
    rng = random.Random(3)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = CycloMatrix(
            [[_random_value(rng, 4) for _ in range(cols)] for _ in range(rows)]
        )
        k = kernel(m)
        for v in k.basis:
            assert all(x.is_zero() for x in m.matvec(v))
        # rank + nullity
        img = Subspace.from_vectors(rows, [list(c) for c in zip(*m.entries)])
        assert img.dim + k.dim == cols


def test_matrix_inverse_random():
    rng = random.Random(5)
    for n in (1, 3, 4, 12):
        done = 0
        while done < 6:
            size = rng.randint(1, 4)
            m = CycloMatrix(
                [[_random_value(rng, n) for _ in range(size)] for _ in range(size)],
                n)
            try:
                inv = m.inverse()
            except SingularMatrixError:
                continue
            assert (m * inv).is_identity() and (inv * m).is_identity()
            done += 1


def test_singular_matrix_raises():
    z3 = CycloNumber.zeta(3)
    cases = [
        CycloMatrix([[0]]),
        CycloMatrix([[1, 2], [2, 4]]),
        CycloMatrix([[1, z3], [z3, z3 * z3]]),  # second row = zeta_3 * first
        CycloMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]]),
    ]
    for m in cases:
        with pytest.raises(SingularMatrixError):
            m.inverse()


def test_eigenspace_examples():
    eps = RootOfUnity(3, 1)
    d = CycloMatrix.diagonal(
        [CycloNumber.rational(1, 3), CycloNumber.zeta(3), CycloNumber.zeta(3, 2)]
    )
    e = eigenspace(d, eps)
    assert e.dim == 1 and e.contains_vector([0, 1, 0])

    sx = CycloMatrix([[0, 1], [1, 0]])
    t = sx.tensor(CycloMatrix.identity(2))
    assert eigenspace(t, 1).dim == 2
    assert eigenspace(t, -1).dim == 2

    shift = CycloMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert shift.inverse() == shift ** 2


def test_eigenspaces_of_finite_order_matrix_fill_space():
    # finite-order matrices are diagonalizable: eigenspace dims sum to ambient
    cases = [
        (CycloMatrix([[0, 1], [1, 0]]), 2),
        (CycloMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), 3),
        (CycloMatrix([[0, 1], [-1, 0]]), 4),
        (CycloMatrix.diagonal([CycloNumber.zeta(6), CycloNumber.zeta(6, 5)]), 6),
    ]
    for m, order in cases:
        assert (m ** order).is_identity()
        total = 0
        for k in range(order):
            total += eigenspace(m, RootOfUnity(order, k)).dim
        assert total == m.rows


def test_subspace_canonical_and_containment():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace.from_vectors(3, [[1, 1, 1], [2, 2, 0]])
    assert a == b
    assert a.contains(Subspace.from_vectors(3, [[3, 3, 2]]))
    assert not a.contains(Subspace.from_vectors(3, [[1, 0, 0]]))


def test_subspace_key_is_computed_once_and_matches_a_fresh_one():
    a = Subspace.from_vectors(3, [[1, CycloNumber.zeta(4), 0], [0, 0, 1]])
    first = a.key()
    assert a.key() is first
    again = Subspace.from_vectors(3, [[2, 2 * CycloNumber.zeta(4), 0],
                                      [0, 0, 5]])
    assert again.key() == first and again == a
    assert first == (3, 2, tuple(x.key() for row in a.basis for x in row))


def test_direct_sum_and_tensor_shapes():
    a = CycloMatrix([[0, 1], [1, 0]])
    b = CycloMatrix.identity(3)
    d = a.direct_sum(b)
    assert (d.rows, d.cols) == (5, 5)
    t = a.tensor(b)
    assert (t.rows, t.cols) == (6, 6)
    # tensor is multiplicative
    c = CycloMatrix([[1, 1], [0, 1]])
    assert (a * c).tensor(b) == a.tensor(b) * c.tensor(b)
