"""Exact linear algebra over Z/mZ: Howell normal form, solving, Smith form.

The Howell form is the canonical echelon form for row spans over Z/mZ:
two matrices have the same row span iff their Howell forms are identical.
That property (which plain echelon forms lack over a ring with zero
divisors) is what makes membership tests and kernels decidable here.
Kernels, solving and quotients all run on ``howell_form`` and the one
reduction against it, ``howell_reduce``.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    g, s, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {m}")
    return s % m


def unit_for(a: int, m: int) -> int:
    """A unit u mod m with u*a == gcd(a, m) mod m."""
    a %= m
    if a == 0:
        return 1
    g = gcd(a, m)
    b = a // g
    step = m // g
    t = 0
    while gcd(b + t * step, m) != 1:
        t += 1
    return modinv(b + t * step, m)


def howell_form(mat, modulus: int) -> np.ndarray:
    """Canonical Howell normal form of the row span of ``mat``.

    Column-at-a-time elimination over the whole block: pivots are built by
    unimodular 2x2 combines until their leading entry divides every other
    entry in the column, the column is cleared in one vectorized update,
    and an annihilator multiple of the pivot keeps the span saturated.

    The live rows never exceed the input rows, so the elimination runs in
    the reduced copy of ``mat``: each pivot takes its row out before it
    puts back at most one annihilator row, and the combines work in place.
    """
    m = modulus
    buf = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % m
    rows, width = buf.shape
    if m == 1 or rows == 0:
        return np.zeros((0, width), dtype=np.int64)
    count = rows
    pivots: list[tuple[int, np.ndarray]] = []
    for j in range(width):
        col = buf[:count, j]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        i0 = int(nz[0])
        piv = buf[i0].copy()
        count -= 1
        buf[i0] = buf[count]
        while True:
            d = gcd(int(piv[j]), m)
            col = buf[:count, j]
            bad = np.nonzero(col % d)[0]
            if len(bad) == 0:
                break
            i = int(bad[0])
            av, bv = int(piv[j]), int(buf[i, j])
            g, s, t = egcd(av, bv)
            new_piv = (s * piv + t * buf[i]) % m
            buf[i] = ((av // g) * buf[i] - (bv // g) * piv) % m
            piv = new_piv
        piv = (piv * unit_for(int(piv[j]), m)) % m
        d = int(piv[j])
        col = buf[:count, j]
        sel = np.nonzero(col)[0]
        if len(sel):
            q = col[sel] // d
            buf[sel] = (buf[sel] - np.outer(q, piv)) % m
        if m // d > 1:
            buf[count] = (piv * (m // d)) % m
            count += 1
        pivots.append((j, piv))
        if count > 64 and j % 32 == 31:
            live = buf[:count].any(axis=1)
            kept = int(live.sum())
            buf[:kept] = buf[:count][live]
            count = kept
    if not pivots:
        return np.zeros((0, width), dtype=np.int64)
    out = np.array([p for _, p in pivots], dtype=np.int64)
    for i in range(len(out) - 2, -1, -1):
        out[i] = howell_reduce(out[i], out[i + 1:], m)
    return out


def howell_reduce(vecs, howell: np.ndarray, modulus: int) -> np.ndarray:
    """Remainder of each row of ``vecs`` modulo the row span of ``howell``.

    ``howell`` is a Howell form. Walking its pivots in order and bringing
    each pivot entry into [0, d) gives the lexicographically least element
    of the coset vec + span: by the Howell property, the span elements that
    vanish before a pivot column are spanned by the rows from that pivot
    on. The remainder is zero exactly when vec lies in the span. A 1-D
    ``vecs`` gives a 1-D remainder.
    """
    m = modulus
    r = np.asarray(vecs, dtype=np.int64) % m
    out = np.atleast_2d(r).copy()
    for row in howell:
        j = int(np.flatnonzero(row)[0])
        q = out[:, j] // row[j]
        if q.any():
            out = (out - np.outer(q, row)) % m
    return out.reshape(r.shape)


def left_kernel(mat, modulus: int) -> np.ndarray:
    """Generators of {y : y @ mat == 0 mod modulus}, as Howell-form rows."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    k, n = a.shape
    if modulus == 1:
        return np.eye(k, dtype=np.int64) * 0
    aug = np.hstack([a % modulus, np.eye(k, dtype=np.int64)])
    h = howell_form(aug, modulus)
    mask = ~h[:, :n].any(axis=1) if len(h) else np.zeros(0, dtype=bool)
    return h[mask][:, n:] if len(h) else np.zeros((0, k), dtype=np.int64)


def right_kernel(mat, modulus: int) -> np.ndarray:
    """Generators of {x : mat @ x == 0 mod modulus}, one per row."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    # Reduce the row count first: the right kernel only depends on the row span.
    h = howell_form(a, modulus)
    if len(h) == 0:
        n = a.shape[1]
        return np.eye(n, dtype=np.int64) if modulus > 1 else np.zeros((0, n), np.int64)
    return left_kernel(h.T, modulus)


class ColumnSpan:
    """The factor of mat that ``solve_against`` solves mat @ x == b with.

    ``howell`` is the Howell form of [mat^T | I]: row i of that matrix
    pairs column i of mat with the unit coefficient vector e_i, so its span
    holds (mat @ x, x) for every x. ``null`` holds its rows whose first
    part vanishes, the Howell-form rows of the null space (the left kernel
    of mat^T). The factor depends on mat and the modulus only, so one
    factor serves any number of right-hand sides.
    """

    __slots__ = ("howell", "rows", "null", "modulus")

    def __init__(self, mat, modulus: int):
        a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
        rows, cols = a.shape
        h = howell_form(np.hstack([a.T % modulus, np.eye(cols, dtype=np.int64)]),
                        modulus)
        self.howell = h
        self.rows = rows
        self.null = h[~h[:, :rows].any(axis=1)][:, rows:]
        self.modulus = modulus


def solve_against(span: ColumnSpan, rhs_rows) -> tuple[np.ndarray, np.ndarray]:
    """mat @ x == b for every row b of ``rhs_rows``, mat factored in ``span``.

    Returns (xs, feasible): xs[i] is the lexicographically least solution
    for row i when feasible[i] holds. (b, 0) is reduced against the Howell
    form of [mat^T | I]; b lies in the column span exactly when the first
    part of the remainder (b - mat @ y, -y) vanishes, and then -(-y) = y
    is a solution, which the null space brings to its least coset element.
    """
    m, rows = span.modulus, span.rows
    b = np.asarray(rhs_rows, dtype=np.int64).reshape(-1, rows)
    cols = span.howell.shape[1] - rows
    r = howell_reduce(np.hstack([b, np.zeros((len(b), cols), dtype=np.int64)]),
                      span.howell, m)
    return howell_reduce(-r[:, rows:], span.null, m), ~r[:, :rows].any(axis=1)


def solve(mat, rhs, modulus: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve mat @ x == rhs mod modulus.

    Returns (x, null): x is the lexicographically least solution and null
    holds the Howell-form rows of the null space; or None when the system
    is infeasible. Both depend only on the solution set, not on the order
    of the rows or on redundant ones. Infeasibility is definitive: rhs is
    reduced against the Howell form of the column span (``ColumnSpan``),
    where membership is decidable.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    b = np.asarray(rhs, dtype=np.int64)
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs has shape {b.shape}, expected ({a.shape[0]},)")
    span = ColumnSpan(a, modulus)
    xs, feasible = solve_against(span, b)
    return (xs[0], span.null) if feasible[0] else None


def smith_form(mat, modulus: int, track_vinv: bool = False):
    """Smith normal form over the ring Z/mZ.

    Returns (diag, vinv) where diag[i] (a divisor of m) is the i-th diagonal
    invariant, padded with gcd(0, m) = m-equivalent zeros up to the column
    count, and vinv (if tracked) satisfies: row i of vinv, pushed through the
    accumulated column operations, maps to the i-th coordinate vector. The
    cokernel (Z/m)^cols / rowspan(mat) is the direct sum of Z/diag[i].
    """
    m = modulus
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % m
    a = a.copy()
    rows, cols = a.shape
    vinv = np.eye(cols, dtype=np.int64) if track_vinv else None

    def col_addmul(dst, src, t):
        # column op: col_dst += t * col_src; inverse op applied to vinv rows
        a[:, dst] = (a[:, dst] + t * a[:, src]) % m
        if vinv is not None:
            vinv[src] = (vinv[src] - t * vinv[dst]) % m

    def col_swap(i, j):
        a[:, [i, j]] = a[:, [j, i]]
        if vinv is not None:
            vinv[[i, j]] = vinv[[j, i]]

    def col_unit(j, u):
        a[:, j] = (a[:, j] * u) % m
        if vinv is not None:
            vinv[j] = (vinv[j] * modinv(u, m)) % m

    if m == 1:
        return [1] * cols, vinv

    t = 0
    limit = min(rows, cols)
    while t < limit:
        sub = a[t:, t:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        # pick the entry with the smallest gcd with m (deterministic tie-break)
        gcds = np.gcd(sub[nz], m)
        best = None
        for i, j, g in zip(nz[0], nz[1], gcds):
            key = (int(g), int(i), int(j))
            if best is None or key < best:
                best = key
        _, bi, bj = best
        if bi + t != t:
            a[[t, bi + t]] = a[[bi + t, t]]
        if bj + t != t:
            col_swap(t, bj + t)
        while True:
            # clear column t below the pivot
            for i in range(t + 1, rows):
                v = int(a[i, t])
                if v == 0:
                    continue
                d = int(a[t, t])
                if v % d == 0:
                    a[i] = (a[i] - (v // d) * a[t]) % m
                else:
                    g, s, u = egcd(d, v)
                    top = (s * a[t] + u * a[i]) % m
                    a[i] = ((d // g) * a[i] - (v // g) * a[t]) % m
                    a[t] = top
            # clear row t right of the pivot
            row_clear = True
            for j in range(t + 1, cols):
                v = int(a[t, j])
                if v == 0:
                    continue
                d = int(a[t, t])
                if v % d == 0:
                    col_addmul(j, t, -(v // d))
                else:
                    g, s, u = egcd(d, v)
                    # mix columns t and j so the pivot becomes g; the mixing
                    # matrix E = [[s, -(v//g)], [u, d//g]] has determinant 1
                    old_t = a[:, t].copy()
                    a[:, t] = (s * a[:, t] + u * a[:, j]) % m
                    a[:, j] = ((d // g) * a[:, j] - (v // g) * old_t) % m
                    if vinv is not None:
                        rt, rj = vinv[t].copy(), vinv[j].copy()
                        vinv[t] = ((d // g) * rt + (v // g) * rj) % m
                        vinv[j] = (-u * rt + s * rj) % m
                    row_clear = False
            if row_clear and not a[t + 1:, t].any():
                break
        # normalize the pivot to its canonical divisor of m
        d = int(a[t, t])
        u = unit_for(d, m)
        if u != 1:
            col_unit(t, u)
        d = int(a[t, t])
        # enforce divisibility of everything that remains
        fixed = True
        if d > 1:
            rest = a[t + 1:, t + 1:]
            bad = np.nonzero(np.gcd(rest, m) % gcd(d, m))
            if len(bad[0]):
                i = int(bad[0][0]) + t + 1
                a[t] = (a[t] + a[i]) % m
                fixed = False
        if fixed:
            t += 1
    diag = []
    for i in range(cols):
        v = int(a[i, i]) if i < limit else 0
        diag.append(gcd(v, m) if v else m)
    return diag, vinv


def quotient(gens, sub, modulus: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Invariant factors of span(gens) / span(sub) over Z/mZ.

    ``sub`` must lie in span(gens). The presentation has one generator per
    row of ``gens``; its relations are the left kernel of ``gens`` plus the
    coefficients that express each row of ``sub`` through ``gens``, and
    ``smith_form`` diagonalizes them. Returns the nontrivial invariant
    factors, largest first, and one vector of span(gens) per factor whose
    class generates that cyclic summand.
    """
    m = modulus
    g = np.atleast_2d(np.asarray(gens, dtype=np.int64)) % m
    span = ColumnSpan(g.T, m)
    coeffs, feasible = solve_against(span, sub)
    relations = span.null
    if not feasible.all():
        raise ValueError("sub is not contained in span(gens)")
    pres = np.vstack([relations, coeffs])
    if len(pres) == 0:
        pres = np.zeros((1, len(g)), dtype=np.int64)
    diag, vinv = smith_form(pres, m, track_vinv=True)
    order = sorted((i for i, d in enumerate(diag) if d > 1),
                   key=lambda i: -diag[i])
    return tuple(int(diag[i]) for i in order), (vinv[order] @ g) % m
