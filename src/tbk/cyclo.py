"""Exact arithmetic in cyclotomic fields Q(zeta_n) and exact linear algebra.

Numbers are residues modulo the n-th cyclotomic polynomial with rational
coefficients, so equality is literal coefficient comparison and nothing is
ever rounded. Matrices, kernels and eigenspaces stay exact as well; the
echelon forms are canonical, which lets subspaces be deduplicated and
compared by their basis alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (
    DimensionMismatchError,
    DivisionByZeroError,
    IncompatibleOrdersError,
    SingularMatrixError,
)

# Largest cyclotomic order produced implicitly by mixed-order arithmetic.
DEFAULT_ORDER_BOUND = 1000


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("order must be positive")
    rem = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            rem, r = _poly_divmod_frac(rem, cyclotomic_poly(d))
            assert not r
    assert all(c.denominator == 1 for c in rem)
    return tuple(int(c) for c in rem)


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _zeta_all_powers(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_n^k mod Phi_n for k = 0 .. n-1."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    top = [Fraction(-c) for c in phi[:d]]
    cur = [Fraction(0)] * d
    cur[0] = Fraction(1)
    rows = []
    for _ in range(n):
        rows.append(tuple(cur))
        carry = cur[d - 1]
        cur = [Fraction(0)] + cur[: d - 1]
        if carry:
            cur = [a + carry * b for a, b in zip(cur, top)]
    return tuple(rows)


def _reduce(n: int, terms) -> list[Fraction]:
    """Canonical coefficients of sum c * zeta_n^k over the (k, c) pairs.

    Any k is allowed: x^k = zeta_n^(k mod n) modulo Phi_n, because Phi_n
    divides x^n - 1.
    """
    powers = _zeta_all_powers(n)
    out = [Fraction(0)] * _phi_degree(n)
    for k, c in terms:
        if c:
            for i, r in enumerate(powers[k % n]):
                if r:
                    out[i] += c * r
    return out


class CycloNumber:
    """An element of Q(zeta_n), reduced modulo the n-th cyclotomic polynomial."""

    __slots__ = ("order", "coeffs")
    __hash__ = None  # equality crosses field orders; use key() when hashing

    def __init__(self, order: int, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != _phi_degree(order):
            raise ValueError(f"need {_phi_degree(order)} coefficients for "
                             f"order {order}, got {len(cs)}")
        self.order = order
        self.coeffs = cs

    # construction -------------------------------------------------------

    @classmethod
    def rational(cls, value, order: int = 1) -> "CycloNumber":
        q = Fraction(value)
        d = _phi_degree(order)
        return cls(order, (q,) + (Fraction(0),) * (d - 1))

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycloNumber":
        return cls(order, _zeta_all_powers(order)[power % order])

    @classmethod
    def from_raw(cls, order: int, raw_coeffs) -> "CycloNumber":
        """Reduce a length-``order`` coefficient list of 1, z, ..., z^(n-1)."""
        return cls(order, _reduce(order, enumerate(map(Fraction, raw_coeffs))))

    # basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def key(self):
        """Hashable, lexicographically sortable canonical key."""
        return tuple(map(Fraction.as_integer_ratio, self.coeffs))

    # field structure ----------------------------------------------------

    def embed(self, order: int) -> "CycloNumber":
        if order == self.order:
            return self
        if order % self.order:
            raise IncompatibleOrdersError(
                f"cannot embed order {self.order} into {order}")
        step = order // self.order
        return CycloNumber(order, _reduce(
            order, ((j * step, c) for j, c in enumerate(self.coeffs))))

    @staticmethod
    def _common(a: "CycloNumber", b) -> tuple["CycloNumber", "CycloNumber"]:
        if not isinstance(b, CycloNumber):
            b = CycloNumber.rational(b)
        if a.order == b.order:
            return a, b
        n = lcm(a.order, b.order)
        if n > DEFAULT_ORDER_BOUND:
            raise IncompatibleOrdersError(
                f"lcm of orders {a.order}, {b.order} exceeds bound {DEFAULT_ORDER_BOUND}")
        return a.embed(n), b.embed(n)

    def __add__(self, other):
        a, b = CycloNumber._common(self, other)
        return CycloNumber(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = CycloNumber._common(self, other)
        return CycloNumber(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = CycloNumber._common(self, other)
        prod = _poly_mul(a.coeffs, b.coeffs)
        return CycloNumber(a.order, _reduce(a.order, enumerate(prod)))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        if self.is_zero():
            raise DivisionByZeroError("inverse of zero")
        n = self.order
        phi = [Fraction(c) for c in cyclotomic_poly(n)]
        # extended Euclid in Q[x]: s*self + t*Phi = gcd = constant
        r0, r1 = phi, _poly_trim([Fraction(c) for c in self.coeffs])
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        c = r1[0]
        inv = [x / c for x in s1]
        d = _phi_degree(n)
        inv = (inv + [Fraction(0)] * d)[:d]
        out = CycloNumber(n, inv)
        assert (out * self).is_one()
        return out

    def __truediv__(self, other):
        a, b = CycloNumber._common(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CycloNumber.rational(other).embed(self.order) / self

    def conjugate(self) -> "CycloNumber":
        return CycloNumber(self.order, _reduce(
            self.order, ((-j, c) for j, c in enumerate(self.coeffs))))

    def __eq__(self, other):
        if self is other:
            return True
        if other is None:
            return NotImplemented
        try:
            a, b = CycloNumber._common(self, other)
        except (TypeError, ValueError):
            return NotImplemented
        return a.coeffs == b.coeffs

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.order}" + (f"^{i}" if i > 1 else "")
                terms.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"


def _poly_divmod_frac(num, den):
    num = list(num)
    dq = len(num) - len(den)
    q = [Fraction(0)] * (dq + 1 if dq >= 0 else 0)
    for k in range(dq, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        q[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return q, _poly_trim(num)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


@dataclass(frozen=True)
class RootOfUnity:
    """zeta_modulus^exponent, kept as exact exponent data."""

    modulus: int
    exponent: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "exponent", self.exponent % self.modulus)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        m = lcm(self.modulus, other.modulus)
        k = self.exponent * (m // self.modulus) + other.exponent * (m // other.modulus)
        return RootOfUnity(m, k % m)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.modulus, -self.exponent)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.modulus, self.exponent * k)

    def to_cyclo(self, order: int | None = None) -> CycloNumber:
        order = order or self.modulus
        if order % self.modulus:
            raise IncompatibleOrdersError(
                f"root of order {self.modulus} does not embed in Q(zeta_{order})")
        return CycloNumber.zeta(order, self.exponent * (order // self.modulus))


class CycloMatrix:
    """Dense matrix over one cyclotomic field, with exact operations."""

    __slots__ = ("rows", "cols", "order", "entries")
    __hash__ = None

    def __init__(self, entries, order: int | None = None):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatchError("ragged rows")
        n = order or 1
        for r in rows:
            for x in r:
                if isinstance(x, CycloNumber):
                    n = lcm(n, x.order)
        out = []
        for r in rows:
            row = []
            for x in r:
                if not isinstance(x, CycloNumber):
                    x = CycloNumber.rational(x)
                row.append(x.embed(n))
            out.append(tuple(row))
        self.entries = tuple(out)
        self.rows = len(out)
        self.cols = width
        self.order = n

    # constructors -------------------------------------------------------

    @classmethod
    def identity(cls, size: int, order: int = 1) -> "CycloMatrix":
        one, zero = CycloNumber.rational(1, order), CycloNumber.rational(0, order)
        return cls([[one if i == j else zero for j in range(size)] for i in range(size)])

    @classmethod
    def diagonal(cls, values, order: int = 1) -> "CycloMatrix":
        vals = [v if isinstance(v, CycloNumber) else CycloNumber.rational(v, order)
                for v in values]
        zero = CycloNumber.rational(0, order)
        size = len(vals)
        return cls([[vals[i] if i == j else zero for j in range(size)]
                    for i in range(size)])

    @classmethod
    def scalar(cls, size: int, value) -> "CycloMatrix":
        if not isinstance(value, CycloNumber):
            value = CycloNumber.rational(value)
        return cls.identity(size, value.order) * value

    # structure ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        n = lcm(self.order, other.order)
        return all(
            a.embed(n) == b.embed(n)
            for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb)
        )

    def key(self) -> str:
        """Compact canonical key: hashable, and sorts deterministically."""
        rows = []
        for row in self.entries:
            rows.append(";".join(
                ",".join(f"{c.numerator}/{c.denominator}" for c in x.coeffs)
                for x in row))
        return f"{self.rows}x{self.cols}@{self.order}|" + "|".join(rows)

    def embed(self, order: int) -> "CycloMatrix":
        if order == self.order:
            return self
        return CycloMatrix(
            [[x.embed(order) for x in row] for row in self.entries])

    @staticmethod
    def _aligned(a: "CycloMatrix", b: "CycloMatrix"):
        n = lcm(a.order, b.order)
        return a.embed(n), b.embed(n)

    def __add__(self, other: "CycloMatrix") -> "CycloMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shape mismatch in add")
        a, b = CycloMatrix._aligned(self, other)
        return CycloMatrix([[x + y for x, y in zip(ra, rb)]
                            for ra, rb in zip(a.entries, b.entries)])

    def __sub__(self, other: "CycloMatrix") -> "CycloMatrix":
        return self + (-other)

    def __neg__(self) -> "CycloMatrix":
        return CycloMatrix([[-x for x in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, CycloMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            a, b = CycloMatrix._aligned(self, other)
            zero = CycloNumber.rational(0, a.order)
            out = [[zero] * b.cols for _ in range(a.rows)]
            for i, row in enumerate(a.entries):
                acc = out[i]
                for k, x in enumerate(row):
                    if x.is_zero():
                        continue
                    brow = b.entries[k]
                    for j, y in enumerate(brow):
                        if not y.is_zero():
                            acc[j] = acc[j] + x * y
            return CycloMatrix(out)
        # scalar
        if not isinstance(other, CycloNumber):
            other = CycloNumber.rational(other)
        return CycloMatrix([[x * other for x in row] for row in self.entries])

    __rmul__ = __mul__

    def matvec(self, vec) -> tuple[CycloNumber, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatchError("vector length mismatch")
        out = []
        for row in self.entries:
            acc = CycloNumber.rational(0, self.order)
            for x, v in zip(row, vec):
                if not x.is_zero():
                    acc = acc + x * v
            out.append(acc)
        return tuple(out)

    def tensor(self, other: "CycloMatrix") -> "CycloMatrix":
        a, b = CycloMatrix._aligned(self, other)
        out = []
        for ra in a.entries:
            for rb in b.entries:
                out.append([x * y for x in ra for y in rb])
        return CycloMatrix(out)

    def direct_sum(self, other: "CycloMatrix") -> "CycloMatrix":
        a, b = CycloMatrix._aligned(self, other)
        zero = CycloNumber.rational(0, a.order)
        out = []
        for row in a.entries:
            out.append(list(row) + [zero] * b.cols)
        for row in b.entries:
            out.append([zero] * a.cols + list(row))
        return CycloMatrix(out)

    def is_scalar(self) -> bool:
        if self.rows != self.cols:
            return False
        lead = self.entries[0][0]
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                if i == j:
                    if x != lead:
                        return False
                elif not x.is_zero():
                    return False
        return True

    def is_identity(self) -> bool:
        return self.is_scalar() and self.entries[0][0].is_one()

    def inverse(self) -> "CycloMatrix":
        if self.rows != self.cols:
            raise DimensionMismatchError("inverse of non-square matrix")
        size = self.rows
        eye = CycloMatrix.identity(size, self.order).entries
        rows, pivots = _rref([row + e for row, e in zip(self.entries, eye)])
        if pivots != list(range(size)):
            raise SingularMatrixError("matrix is singular")
        return CycloMatrix([row[size:] for row in rows])

    def __pow__(self, k: int) -> "CycloMatrix":
        if self.rows != self.cols:
            raise DimensionMismatchError("power of non-square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloMatrix.identity(self.rows, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __repr__(self):
        return f"CycloMatrix({self.rows}x{self.cols} over Q(z{self.order}))"


def _rref(rows: list[list[CycloNumber]]):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    width = len(rows[0])
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q(zeta_n)^ambient with canonical echelon basis."""

    ambient: int
    order: int
    basis: tuple[tuple[CycloNumber, ...], ...]

    @classmethod
    def from_vectors(cls, ambient: int, vectors, order: int = 1) -> "Subspace":
        vecs = []
        n = order
        for v in vectors:
            row = [x if isinstance(x, CycloNumber) else CycloNumber.rational(x)
                   for x in v]
            if len(row) != ambient:
                raise DimensionMismatchError("vector length != ambient dimension")
            for x in row:
                n = lcm(n, x.order)
            vecs.append(row)
        vecs = [[x.embed(n) for x in row] for row in vecs]
        rows, _ = _rref(vecs)
        return cls(ambient, n, tuple(tuple(r) for r in rows))

    @classmethod
    def zero(cls, ambient: int, order: int = 1) -> "Subspace":
        return cls(ambient, order, ())

    @classmethod
    def full(cls, ambient: int, order: int = 1) -> "Subspace":
        return cls.from_vectors(
            ambient,
            [[1 if i == j else 0 for j in range(ambient)] for i in range(ambient)],
            order,
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient - self.dim

    def key(self):
        """The hashable form of the basis, computed once per instance and
        kept in its ``__dict__`` (the dataclass is frozen)."""
        key = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = (
                self.ambient, self.dim,
                tuple(x.key() for row in self.basis for x in row))
        return key

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient or self.dim != other.dim:
            return False
        n = lcm(self.order, other.order)
        return [[x.embed(n).coeffs for x in row] for row in self.basis] == \
            [[x.embed(n).coeffs for x in row] for row in other.basis]

    def contains_vector(self, vec) -> bool:
        n = self.order
        row = []
        for x in vec:
            if not isinstance(x, CycloNumber):
                x = CycloNumber.rational(x)
            n = lcm(n, x.order)
            row.append(x)
        row = [x.embed(n) for x in row]
        basis = [[x.embed(n) for x in b] for b in self.basis]
        for b in basis:
            lead = next(i for i, x in enumerate(b) if not x.is_zero())
            if not row[lead].is_zero():
                f = row[lead]
                row = [x - f * y for x, y in zip(row, b)]
        return all(x.is_zero() for x in row)

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise DimensionMismatchError("ambient dimensions differ")
        return all(self.contains_vector(b) for b in other.basis)

    def apply(self, mat: CycloMatrix) -> "Subspace":
        """Image of this subspace under the linear map ``mat``."""
        if mat.cols != self.ambient:
            raise DimensionMismatchError("matrix does not act on this space")
        vecs = [mat.matvec(b) for b in self.basis]
        return Subspace.from_vectors(mat.rows, vecs, lcm(self.order, mat.order))


def kernel(mat: CycloMatrix) -> Subspace:
    """Canonical basis of the right null space, exactly."""
    rows, pivots = _rref([list(r) for r in mat.entries])
    n = mat.order
    zero, one = CycloNumber.rational(0, n), CycloNumber.rational(1, n)
    free = [j for j in range(mat.cols) if j not in pivots]
    vecs = []
    for j in free:
        v = [zero] * mat.cols
        v[j] = one
        for r, pc in zip(rows, pivots):
            v[pc] = -r[j]
        vecs.append(v)
    return Subspace.from_vectors(mat.cols, vecs, n)


def eigenspace(mat: CycloMatrix, value) -> Subspace:
    """Eigenspace for an exact eigenvalue (RootOfUnity or CycloNumber)."""
    if mat.rows != mat.cols:
        raise DimensionMismatchError("eigenspace of non-square matrix")
    if isinstance(value, RootOfUnity):
        n = lcm(mat.order, value.modulus)
        if n > DEFAULT_ORDER_BOUND:
            raise IncompatibleOrdersError("eigenvalue order exceeds bound")
        value = value.to_cyclo(n)
    elif not isinstance(value, CycloNumber):
        value = CycloNumber.rational(value)
    m = mat.embed(lcm(mat.order, value.order))
    return kernel(m - CycloMatrix.scalar(m.rows, value.embed(m.order)))
