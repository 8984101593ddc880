"""2-cocycle calculus with root-of-unity values.

Cocycles carry additive exponent tables: the table entry t at (g, h) means
the scalar zeta_modulus^t. All the calculus (coboundaries, restriction,
inflation) happens on exponents, which keeps every computation exact
integer arithmetic.

Two distinct coboundary senses are exposed. "mod-m" asks for a witness
cochain with values in the same Z_m; "torus" asks for triviality with
circle-group coefficients, decided after lifting to Z_{m*e} with e the
group exponent (any circle-valued witness can be normalized into that
finite subgroup, so the lift loses nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grp as _grp
from . import zmlin
from .errors import (
    DefectOutsideKernelError,
    IllDefinedFormError,
    InfeasibleError,
    ModulusMismatchError,
    NonCommutingPairError,
    NotACocycleError,
    NotAGroupError,
    NotAHomomorphismError,
    NotNormalizedError,
)
from .grp import AbelianStructure, CentralExtension, Character, FiniteGroup, Subgroup

H2_DEFAULT_CAP = 32
# entries of a cocycle-identity row computed at once (see _failing_pair)
ROW_BLOCK_ENTRIES = 1 << 16


def _dtype_for(modulus: int):
    if modulus <= 127:
        return np.int8
    if modulus <= 32_767:
        return np.int16
    return np.int64


def _unsigned_holding(top: int):
    """The narrowest unsigned integer dtype that holds 0..top, or object."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if top <= np.iinfo(dtype).max:
            return dtype
    return object


class Cocycle2:
    """Normalized 2-cocycle exponent table on a finite group."""

    __slots__ = ("group", "modulus", "table", "_verified")

    def __init__(self, group: FiniteGroup, modulus: int, table,
                 _verified: bool = False):
        if modulus < 1:
            raise ModulusMismatchError("modulus must be positive")
        n = group.order
        t = table
        # work in the input's integer dtype when it holds the modulus
        if not (isinstance(t, np.ndarray) and t.dtype.kind in "iu"
                and np.iinfo(t.dtype).max >= modulus):
            t = np.asarray(t, dtype=np.int64)
        # most tables arrive reduced: only one with an entry outside [0, m)
        # pays for the remainder
        if t.size and (t.min() < 0 or t.max() >= modulus):
            t = t % modulus
        if t.shape != (n, n):
            raise NotNormalizedError(f"table shape {t.shape} != ({n}, {n})")
        if t[0].any() or t[:, 0].any():
            raise NotNormalizedError("table is not normalized: c(1,g) = c(g,1) = 0")
        self.group = group
        self.modulus = modulus
        # never the caller's array
        self.table = t.astype(_dtype_for(modulus), copy=isinstance(
            table, np.ndarray) and np.may_share_memory(t, table))
        self._verified = _verified

    @classmethod
    def zero(cls, group: FiniteGroup, modulus: int) -> "Cocycle2":
        return cls(group, modulus,
                   np.zeros((group.order, group.order), dtype=np.int64),
                   _verified=True)

    def value(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def beta(self, g, h):
        """c(g,h) - c(h,g) mod m, elementwise over index arrays; meaningful
        on commuting pairs."""
        return (self.table[g, h].astype(np.int64) - self.table[h, g]) % self.modulus

    def _check_compatible(self, other: "Cocycle2"):
        if self.group is not other.group:
            raise ModulusMismatchError("cocycles live on different groups")
        if self.modulus != other.modulus:
            raise ModulusMismatchError(
                f"moduli differ: {self.modulus} vs {other.modulus}")

    # Sums, negatives and multiples are computed in the narrowest unsigned
    # dtype that holds their unreduced values. There m - 1 + 1 wraps
    # nowhere, and for s < m the difference s - m wraps above s, so
    # minimum(s, s - m) is s reduced from [0, 2m) to [0, m).

    def __add__(self, other: "Cocycle2") -> "Cocycle2":
        self._check_compatible(other)
        m = self.modulus
        dtype = _unsigned_holding(2 * (m - 1))
        t = self.table.astype(dtype)
        t += other.table.astype(dtype, copy=False)
        np.minimum(t, t - dtype(m), out=t)
        return Cocycle2(self.group, m, t, self._verified and other._verified)

    def __sub__(self, other: "Cocycle2") -> "Cocycle2":
        return self + (-other)

    def __neg__(self) -> "Cocycle2":
        m = self.modulus
        dtype = _unsigned_holding(m)
        t = self.table.astype(dtype)
        np.minimum(dtype(m) - t, np.negative(t, out=t), out=t)
        return Cocycle2(self.group, m, t, self._verified)

    def scale(self, k: int) -> "Cocycle2":
        m = self.modulus
        t = self.table.astype(_unsigned_holding((m - 1) ** 2))
        t *= k % m
        t %= m
        return Cocycle2(self.group, m, t, self._verified)

    def __eq__(self, other):
        if not isinstance(other, Cocycle2):
            return NotImplemented
        return (self.group is other.group and self.modulus == other.modulus
                and np.array_equal(self.table, other.table))

    def __repr__(self):
        return f"Cocycle2(order={self.group.order}, modulus={self.modulus})"


class Cochain1:
    """Normalized 1-cochain: one exponent per group element, zero at 1."""

    __slots__ = ("group", "modulus", "table")

    def __init__(self, group: FiniteGroup, modulus: int, table):
        t = np.asarray(table, dtype=np.int64) % modulus
        if t.shape != (group.order,):
            raise NotNormalizedError(f"cochain shape {t.shape} != ({group.order},)")
        if t[0]:
            raise NotNormalizedError("cochain is not normalized at the identity")
        self.group = group
        self.modulus = modulus
        self.table = t

    def value(self, g: int) -> int:
        return int(self.table[g])


def _failing_pair(t: np.ndarray, mul: np.ndarray, m: int, g: int
                  ) -> tuple[int, int] | None:
    """The first (h, k) in row-major order with dc(g, h, k) != 0, or None.

    c(g, h) + c(gh, k) and c(h, k) + c(g, hk) each lie in [0, 2(m - 1)], so
    their difference is a multiple of m exactly when it is 0, m or -m. The
    row is computed in blocks of ``_block_rows(n)`` values of h.
    """
    n = t.shape[0]
    tg, mg = t[g], mul[g]
    step = _block_rows(n)
    for lo in range(0, n, step):
        hi = lo + step
        d = t.take(mg[lo:hi], axis=0)
        d += tg[lo:hi, None]
        d -= t[lo:hi]
        d -= tg.take(mul[lo:hi])
        np.abs(d, out=d)
        bad = d != 0
        bad &= d != m
        if bad.any():
            h, k = divmod(int(bad.argmax()), n)
            return lo + h, k
    return None


def _block_rows(n: int) -> int:
    return min(n, max(1, ROW_BLOCK_ENTRIES // n))


def is_cocycle(c: Cocycle2) -> tuple[bool, tuple[int, int, int] | None]:
    """Exact check of the cocycle identity; returns the first failing triple.

    The identity dc(g, h, k) = 0 says the twisted monomials zeta^a u_g
    multiply associatively, and by Light's test the elements g with
    (u_g u_h) u_k = u_g (u_h u_k) for all h, k form a submagma. So when the
    identity holds on the row of every generator it holds everywhere, and
    only the generator rows are computed (row 0 of a normalized table is
    zero). If generator s is the first to fail, the lexicographically first
    failing triple (g, h, k) of the full n^3 sweep has g <= s, and the rows
    1..s are swept in order to find it.

    The rows run in the narrowest integer dtype their sums allow, since the
    gathers are memory-bound. The table's copy in that dtype and a block's
    temporaries are predicted first: past ``grp._memory_budget()`` the check
    raises ``InfeasibleError`` before any of them is allocated.
    """
    m, n = c.modulus, c.group.order
    mul = c.group.mul_table()
    if 4 * (m - 1) <= 127:
        dt = np.dtype(np.int8)
    elif 4 * (m - 1) <= 32_767:
        dt = np.dtype(np.int16)
    else:
        dt = np.dtype(np.int64)
    # the table's copy (none if its dtype is dt already); a block's two
    # gathers, the intp copy of the indices take makes and two bool masks
    copy = 0 if c.table.dtype == dt else dt.itemsize
    need = n * n * copy + _block_rows(n) * n * (2 * dt.itemsize + 10)
    budget = _grp._memory_budget()
    if need > budget:
        raise InfeasibleError(
            f"the cocycle check on order {n} would take {need} bytes, more "
            f"than the {budget} bytes of memory available")
    t = c.table.astype(dt, copy=False)
    for s in sorted(set(c.group.generators) - {0}):
        if _failing_pair(t, mul, m, s) is not None:
            for g in range(1, s + 1):
                pair = _failing_pair(t, mul, m, g)
                if pair is not None:
                    return False, (g, *pair)
    return True, None


def ensure_cocycle(c: Cocycle2) -> None:
    if c._verified:
        return
    ok, witness = is_cocycle(c)
    if not ok:
        raise NotACocycleError(f"cocycle identity fails at {witness}",
                               witness=witness)
    c._verified = True


def coboundary_of(lam: Cochain1) -> Cocycle2:
    """d(lambda)(g,h) = lambda(g) + lambda(h) - lambda(gh)."""
    g = lam.group
    t = lam.table
    tab = (t[:, None] + t[None, :] - t[g.mul_table()]) % lam.modulus
    return Cocycle2(g, lam.modulus, tab, _verified=True)


# ---------------------------------------------------------------------------
# coboundary decision procedure


def _word_counts(g: FiniteGroup) -> np.ndarray:
    """counts[x, j]: how often gen_j occurs in x's word along the BFS tree."""
    if "word_counts" not in g._cache:
        tree = _grp.cayley_tree(g)
        counts = np.zeros((g.order, len(g.generators)), dtype=np.int64)
        for lvl in tree.levels[1:]:
            counts[lvl] = counts[tree.parent[lvl]]
            counts[lvl, tree.letter[lvl]] += 1
        g._cache["word_counts"] = counts
    return g._cache["word_counts"]


@dataclass(frozen=True)
class EdgePlan:
    """The part of the edge system over Z_modulus that depends on the group.

    ``rows`` are the distinct rows of the coefficient block of
    ``edge_system``, which has one row per edge (a, gen_j): edge e has the
    row rows[distinct[e]], which appears first at edge first[distinct[e]].
    ``span`` factors the distinct rows for ``zmlin.solve_against``.
    """

    prod: np.ndarray
    rows: np.ndarray
    distinct: np.ndarray
    first: np.ndarray
    span: zmlin.ColumnSpan

    @cached_property
    def cycles(self) -> np.ndarray:
        """The cycle space Y: the left kernel of the distinct rows, built
        on first use and kept.

        Z/M is quasi-Frobenius, so a column b lies in the column span of
        the distinct rows exactly when Y @ b == 0.
        """
        return zmlin.left_kernel(self.rows, self.span.modulus)


def edge_plan(g: FiniteGroup, modulus: int) -> EdgePlan:
    """The group's edge plan over Z_modulus, built on first use and kept."""
    plans = g._cache.setdefault("edge_plans", {})
    if modulus not in plans:
        counts = _word_counts(g)
        k = counts.shape[1]
        gens = list(g.generators)
        prod = g.mul_table()[:, gens]
        coef = ((counts[:, None] + counts[gens] - counts[prod])
                % modulus).reshape(g.order * k, k)
        rows, first, distinct = np.unique(coef, axis=0, return_index=True,
                                          return_inverse=True)
        plans[modulus] = EdgePlan(prod, rows, distinct.reshape(-1), first,
                                  zmlin.ColumnSpan(rows, modulus))
    return plans[modulus]


def edge_system(g: FiniteGroup, edges: np.ndarray, modulus: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The edge constraints d(lambda) = c over Z_modulus.

    ``edges`` holds the generator columns of c, edges[a, j] = c(a, gen_j),
    or a stack of them with leading axes. Along the group's BFS tree
    lambda(x) = off[x] + counts[x] . lambda_gens, and d(lambda) agrees with
    c on the n*k edges (a, gen_j) exactly when coef @ lambda_gens == rhs,
    where coef, the plan's rows[distinct], does not depend on c. Returns
    (off, rhs) with the leading axes of ``edges`` on both; rhs is linear
    in c.
    """
    n = g.order
    tree = _grp.cayley_tree(g)
    plan = edge_plan(g, modulus)
    gens = list(g.generators)
    prod = plan.prod
    off = np.zeros(edges.shape[:-1], dtype=np.int64)
    for lvl in tree.levels[1:]:
        par = tree.parent[lvl]
        off[..., lvl] = (off[..., par] - edges[..., par, tree.letter[lvl]]) % modulus
    rhs = (edges - off[..., :, None] - off[..., None, gens] + off[..., prod]) % modulus
    return off, rhs.reshape(*edges.shape[:-2], n * len(gens))


def trivial_combinations(g: FiniteGroup, edges: np.ndarray, modulus: int
                         ) -> np.ndarray:
    """Howell form over Z_m of the t with sum t_i c_i a torus coboundary.

    ``edges[i]`` holds the generator columns of the Z_m-cocycle c_i. With
    M = m * exp(G) the torus lift of sum t_i c_i is sum t_i (exp(G) c_i)
    mod M, so its edge right-hand side b(t) is linear in t. The edge system
    coef @ lambda_gens == b(t) is solvable exactly when b(t) agrees on
    edges that share a coefficient row, and its values on the distinct
    rows lie in their column span, that is, are killed by the edge plan's
    cycle space Y. Both conditions are linear in t, so the trivial t are
    one left kernel over Z_M, read mod m.
    """
    f = g.exponent()
    big = modulus * f
    _, rhs = edge_system(g, np.asarray(edges, dtype=np.int64) * f, big)
    plan = edge_plan(g, big)
    b = rhs[:, plan.first]
    conditions = np.hstack([zmlin.matmul_mod(b, plan.cycles.T, big),
                            rhs - b[:, plan.distinct]])
    return zmlin.howell_form(zmlin.left_kernel(conditions, big) % modulus,
                             modulus)


def is_coboundary(c: Cocycle2, sense: str = "torus") -> Cochain1 | None:
    """Definitive coboundary test; returns a witness cochain or None.

    The witness lambda satisfies d(lambda) = c (after the torus lift for the
    torus sense). Along a BFS spanning tree every lambda value is an affine
    function of the generator values, so the constraints become a small
    linear system over Z_M in one unknown per generator. c and d(lambda) are
    both normalized cocycles, and such a cocycle is fixed by its values on
    the n*k edges (a, s) with s a generator, so the edge constraints imply
    all n^2. The group's ``edge_plan`` over Z_M holds the distinct
    coefficient rows of those constraints and their factored column span:
    edges with one row but two right-hand sides make the system infeasible
    at once, and otherwise one right-hand side per distinct row is reduced
    against the span. Infeasibility of that reduction is a proof that no
    witness exists. The generator values are the lexicographically least
    solution, so the witness depends only on c. It is checked against the
    whole table, one row block at a time.
    """
    ensure_cocycle(c)
    if sense not in ("torus", "mod-m"):
        raise ValueError(f"unknown sense {sense!r}")
    g = c.group
    f = g.exponent() if sense == "torus" else 1
    big = c.modulus * f
    # exponents in [0, m) times f stay below M = m * f: no reduction needed
    edges = c.table[:, list(g.generators)].astype(np.int64) * f
    off, rhs = edge_system(g, edges, big)
    plan = edge_plan(g, big)
    b = rhs[plan.first]
    if (rhs != b[plan.distinct]).any():
        return None
    xs, feasible = zmlin.solve_against(plan.span, b)
    if not feasible[0]:
        return None
    witness = Cochain1(g, big, off + _word_counts(g) @ xs[0])
    assert _lifts_to(witness, c, f)
    return witness


def _lifts_to(lam: Cochain1, c: Cocycle2, f: int) -> bool:
    """Whether d(lam) == f * c entry for entry, one row block at a time.

    d(lam)(a, b) = lam(a) + lam(b) - lam(ab) lies in (-M, 2M) for M the
    cochain's modulus, so each block runs in the narrowest dtype holding
    2M, as does the block of f * c it is compared with.
    """
    big, n = lam.modulus, c.group.order
    dt = _dtype_for(2 * big)
    t = lam.table.astype(dt)
    mul = c.group.mul_table()
    step = _block_rows(n)
    for lo in range(0, n, step):
        d = t.take(mul[lo:lo + step])
        np.subtract(t[lo:lo + step, None], d, out=d)
        d += t
        d %= big
        want = c.table[lo:lo + step].astype(dt)
        want *= f
        if not np.array_equal(d, want):
            return False
    return True


# ---------------------------------------------------------------------------
# restriction / inflation / constructions


def restrict(c: Cocycle2, h: Subgroup) -> Cocycle2:
    """Restriction re-indexed by the subgroup's element order."""
    if h.parent is not c.group:
        raise ValueError("subgroup belongs to a different group")
    sub, _pos = h.as_group()
    els = list(h.elements)
    tab = c.table[np.ix_(els, els)]
    return Cocycle2(sub, c.modulus, tab, _verified=c._verified)


def inflate(c: Cocycle2, extension: CentralExtension | None = None, *,
            group: FiniteGroup | None = None,
            projection=None) -> Cocycle2:
    """Pull back along a quotient map: table[g][h] = c[pi(g)][pi(h)]."""
    if extension is not None:
        group = extension.total
        projection = extension.projection
        target_q = extension.quotient
    else:
        target_q = c.group
    if group is None or projection is None:
        raise ValueError("need an extension or an explicit (group, projection)")
    proj = np.asarray(projection, dtype=np.int64)
    if proj.shape != (group.order,):
        raise NotAHomomorphismError("projection has the wrong length")
    if target_q is not c.group:
        raise ModulusMismatchError("cocycle does not live on the quotient")
    if proj[0] != 0:
        raise NotAHomomorphismError("projection does not send 1 to 1")
    # the rows a with pi(ab) = pi(a)pi(b) for all b are closed under
    # products, so if any row fails, one up to the last generator does
    rows = max(group.generators, default=0) + 1
    lhs = proj[group.mul_table()[:rows]]
    rhs = c.group.mul_table()[np.ix_(proj[:rows], proj)]
    if not np.array_equal(lhs, rhs):
        a, b = map(int, np.argwhere(lhs != rhs)[0])
        raise NotAHomomorphismError(
            f"projection is not a homomorphism at ({a}, {b})", witness=(a, b))
    ensure_cocycle(c)
    tab = c.table[np.ix_(proj, proj)]
    return Cocycle2(group, c.modulus, tab, _verified=True)


def _validate_character(domain_pairs, mul, psi: Character) -> None:
    for a in domain_pairs:
        for b in domain_pairs:
            ab = int(mul[a, b])
            if (psi.table[a] + psi.table[b] - psi.table[ab]) % psi.modulus:
                raise NotAGroupError(
                    f"character is not a homomorphism at ({a}, {b})",
                    witness=(a, b))


def from_central_extension(extension: CentralExtension, psi: Character) -> Cocycle2:
    """alpha(q1, q2) = psi(section(q1) section(q2) section(q1 q2)^{-1})."""
    if psi.modulus < 1:
        raise ModulusMismatchError("modulus must be positive")
    total, quot = extension.total, extension.quotient
    kern = extension.kernel.elements
    missing = [x for x in kern if x not in psi.table]
    if missing:
        raise NotAGroupError(f"character undefined on kernel elements {missing}")
    _validate_character(kern, total.mul_table(), psi)
    sec = np.asarray(extension.section, dtype=np.int64)
    tmul = total.mul_table().astype(np.int64)
    tinv = total.inv_table().astype(np.int64)
    qmul = quot.mul_table().astype(np.int64)
    prod = tmul[sec[:, None], sec[None, :]]
    defect = tmul[prod, tinv[sec[qmul]]]
    kern_set = frozenset(kern)
    flat = {int(x) for x in np.unique(defect)}
    outside = sorted(flat - kern_set)
    if outside:
        raise DefectOutsideKernelError(
            f"section defect {outside[0]} lies outside the kernel",
            witness=outside[0])
    lut = np.zeros(total.order, dtype=np.int64)
    for x in kern:
        lut[x] = psi.table[x] % psi.modulus
    tab = lut[defect]
    out = Cocycle2(quot, psi.modulus, tab)
    ensure_cocycle(out)
    return out


@dataclass(frozen=True)
class BilinearForm:
    """Pairing on an abelian group via its invariant-factor coordinates."""

    group: FiniteGroup
    structure: AbelianStructure
    modulus: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ModulusMismatchError("modulus must be positive")
        r = len(self.structure.invariant_factors)
        mat = np.asarray(self.matrix, dtype=np.int64)
        if mat.shape != (r, r):
            raise IllDefinedFormError(f"matrix must be {r}x{r}")
        if self.structure.dlog is None or len(self.structure.dlog) != self.group.order:
            raise IllDefinedFormError("structure does not cover the group")
        for i, di in enumerate(self.structure.invariant_factors):
            for j, dj in enumerate(self.structure.invariant_factors):
                b = int(mat[i, j])
                if (b * di) % self.modulus or (b * dj) % self.modulus:
                    raise IllDefinedFormError(
                        f"entry B[{i}][{j}] = {b} is not killed by the factor orders",
                        witness=(i, j))
        object.__setattr__(self, "matrix",
                           tuple(tuple(int(x) % self.modulus for x in row)
                                 for row in mat))

    def value(self, x: int, y: int) -> int:
        dx = self.structure.dlog[x]
        dy = self.structure.dlog[y]
        mat = self.matrix
        acc = 0
        for i, a in enumerate(dx):
            if a:
                row = mat[i]
                for j, b in enumerate(dy):
                    acc += a * row[j] * b
        return acc % self.modulus


def from_bilinear_form(form: BilinearForm) -> Cocycle2:
    """Bilinear pairings are always cocycles on abelian groups.

    The table d B d^T is reduced mod m after each product
    (``zmlin.matmul_mod``), so it is exact for every modulus below
    ``zmlin.MODULUS_LIMIT``; a larger one raises ``InfeasibleError``.
    """
    n = form.group.order
    d = np.array([form.structure.dlog[g] for g in range(n)], dtype=np.int64)
    m = form.modulus
    tab = zmlin.matmul_mod(zmlin.matmul_mod(d, form.matrix, m), d.T, m)
    return Cocycle2(form.group, m, tab, _verified=True)


def antisym(c: Cocycle2, g: int, h: int) -> int:
    """beta(g, h) = c(g,h) - c(h,g), defined on commuting pairs."""
    grp_ = c.group
    if grp_.mul(g, h) != grp_.mul(h, g):
        raise NonCommutingPairError(f"elements {g}, {h} do not commute",
                                    witness=(g, h))
    return int(c.beta(g, h))


# ---------------------------------------------------------------------------
# brute-force H^2 for small groups


def _table_rows(g: FiniteGroup, edges: np.ndarray, xs) -> np.ndarray:
    """Rows xs of the normalized table whose generator columns are ``edges``.

    edges[y, j] = c(y, gen_j), with trailing axes for a stack of edge
    vectors. Along the BFS tree c(x, 1) = 0 and c(x, h gen_j) = c(x, h) +
    c(xh, gen_j) - c(h, gen_j); returns out[i, h] = c(xs[i], h), unreduced,
    with the trailing axes of ``edges``.
    """
    tree = _grp.cayley_tree(g)
    mul = g.mul_table()
    out = np.zeros((len(xs), g.order) + edges.shape[2:], dtype=edges.dtype)
    for lvl in tree.levels[1:]:
        h, j = tree.parent[lvl], tree.letter[lvl]
        out[:, lvl] = out[:, h] + edges[mul[np.ix_(xs, h)], j] - edges[h, j]
    return out


def h2_small(g: FiniteGroup, cap: int = H2_DEFAULT_CAP
             ) -> tuple[AbelianStructure, list[Cocycle2]]:
    """Schur multiplier of a small group by brute force over Z_|G|.

    Solves the degree-2 cocycle identity as a linear system over Z_m with
    m = |G| (the multiplier's exponent divides |G|, so mu_m sees every
    class), then quotients by the cocycles that die with circle
    coefficients, found by ``trivial_combinations``, so the result is
    H^2(G, C^*). The unknowns are the edge values e[x, j] = c(x, gen_j),
    pinned by e[1, j] = 0 and extended to c by ``_table_rows``. The system
    asks c(x, h gen_j) = c(x, h) + e[xh, j] - e[h, j] on every edge (h, j)
    for x a generator only: k^2 n rows. That is enough. Row x says that
    every closed walk of the Cayley graph has the same e-holonomy from xh
    as from h, for every h. So the x whose rows hold are closed under
    products: for two of them, x and y, a walk from xyh has the holonomy
    of the walk from yh, and so of the walk from h. They are all of G once
    they hold the generators, and dc(x, h, gen_j) = 0 for all x, h gives
    the identity on all triples by induction on the length of the third
    argument. ``zmlin.quotient`` presents cocycles / trivial ones by a
    Smith form. Returns the invariant factors (largest first) and one
    representative per factor. The system's memory is predicted first:
    past ``grp._memory_budget()`` it raises ``InfeasibleError`` unbuilt.
    """
    n = g.order
    if n > cap:
        raise InfeasibleError(f"group order {n} exceeds cap {cap}")
    m = n
    if n == 1 or m == 1:
        return AbelianStructure((), ()), []
    gens = list(g.generators)
    k = len(gens)
    width = n * k
    # int64: the system, k * (width + 1) rows of width entries, and the
    # Howell form's reduced and compacted copies of it, which bound the
    # arrays that build it; then the kernels and the quotient, whose
    # [a | I] blocks have at most width x 2 * width entries. With their
    # copies these peaked at 15 * width^2 (cyclic groups of order 128 to
    # 512, under tracemalloc), taken here as 16 * width^2.
    need = 8 * (3 * k * width * (width + 1) + 16 * width * width)
    budget = _grp._memory_budget()
    if need > budget:
        raise InfeasibleError(
            f"the H^2 system on order {n} would take {need} bytes, more "
            f"than the {budget} bytes of memory available")
    mul = g.mul_table()
    # unit[y, j] is the edge vector of the unknown e[y, j]
    unit = np.eye(width, dtype=np.int64).reshape(n, k, width)
    sym = _table_rows(g, unit, gens)
    rows = sym[:, :, None] - sym[:, mul[:, gens]]
    rows += unit[mul[gens]]
    rows -= unit
    system = np.vstack([rows.reshape(-1, width), unit[0]])
    del unit, sym, rows
    k_rows = zmlin.right_kernel(system, m)
    # row x * k + j of a cocycle's edge vector is c(x, gen_j)
    trivial = trivial_combinations(g, k_rows.reshape(-1, n, k), m)
    killers = zmlin.howell_form(trivial @ k_rows, m)

    factors, sols = zmlin.quotient(k_rows, killers, m)
    reps = []
    for sol in sols:
        rep = Cocycle2(g, m, _table_rows(g, sol.reshape(n, k), range(n)) % m)
        ensure_cocycle(rep)
        reps.append(rep)
    return AbelianStructure(factors, tuple(range(len(reps)))), reps
