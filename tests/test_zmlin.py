from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np

from tbk.zmlin import (
    egcd,
    howell_form,
    howell_reduce,
    left_kernel,
    quotient,
    right_kernel,
    smith_form,
    solve,
    unit_for,
)


# Reference oracle: an incremental Howell basis, built one row at a time
# with its own reduction loop, independent of ``howell_form``.
class HowellBasis:
    """Incrementally built Howell basis of a row span in (Z/m)^width.

    Rows are inserted one at a time and reduced against the current pivot
    rows; pivot replacements and annihilator rows keep the span saturated,
    so ``rows()`` is the canonical Howell normal form of everything
    inserted so far.
    """

    def __init__(self, modulus: int, width: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = modulus
        self.width = width
        self.pivots: dict[int, np.ndarray] = {}

    def insert(self, row) -> None:
        m = self.modulus
        if m == 1:
            return
        stack = [np.asarray(row, dtype=np.int64) % m]
        tmp = np.empty(self.width, dtype=np.int64)
        while stack:
            r = stack.pop()
            if not r.flags.owndata or not r.flags.writeable:
                r = r.copy()
            start = 0
            while True:
                nz = np.nonzero(r[start:])[0]
                if len(nz) == 0:
                    break
                j = start + int(nz[0])
                v = int(r[j])
                p = self.pivots.get(j)
                if p is None:
                    r = (r * unit_for(v, m)) % m
                    self.pivots[j] = r
                    g = int(r[j])
                    if m // g > 1:
                        stack.append((r * (m // g)) % m)
                    break
                d = int(p[j])
                if v % d == 0:
                    np.multiply(p, v // d, out=tmp)
                    np.subtract(r, tmp, out=r)
                    np.mod(r, m, out=r)
                    start = j + 1
                    continue
                # gcd-combine the incoming row with the pivot row
                g, s, t = egcd(d, v)
                new = ((s * p + t * r) * unit_for((s * d + t * v) % m, m)) % m
                self.pivots[j] = new
                if m // g > 1:
                    stack.append((new * (m // g)) % m)
                stack.append((p - (d // g) * new) % m)
                np.multiply(new, v // g, out=tmp)
                np.subtract(r, tmp, out=r)
                np.mod(r, m, out=r)
                start = j + 1

    def rows(self) -> np.ndarray:
        """The canonical Howell form (pivot order, entries reduced above)."""
        cols = sorted(self.pivots)
        out = [self.pivots[j].copy() for j in cols]
        for idx, j in enumerate(cols):
            d = int(out[idx][j])
            for prev in range(idx):
                q = int(out[prev][j]) // d
                if q:
                    out[prev] = (out[prev] - q * out[idx]) % self.modulus
        if not out:
            return np.zeros((0, self.width), dtype=np.int64)
        return np.array(out, dtype=np.int64)

    def reduce(self, vec) -> np.ndarray:
        """Reduce vec against the basis (no insertion); zero iff in the span."""
        m = self.modulus
        r = np.asarray(vec, dtype=np.int64) % m
        if m == 1:
            return r * 0
        start = 0
        while True:
            nz = np.nonzero(r[start:])[0]
            if len(nz) == 0:
                return r
            j = start + int(nz[0])
            p = self.pivots.get(j)
            if p is None:
                return r
            d = int(p[j])
            v = int(r[j])
            if v % d:
                return r
            r = (r - (v // d) * p) % m
            start = j + 1


def _random_row_mix(a: np.ndarray, m: int, rng: random.Random) -> np.ndarray:
    out = a.copy()
    for _ in range(12):
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        if i != j:
            out[i] = (out[i] + rng.randrange(m) * out[j]) % m
    perm = list(range(len(out)))
    rng.shuffle(perm)
    return out[perm]


def test_howell_is_canonical_under_row_mixes():
    rng = random.Random(7)
    for m in (2, 4, 6, 12):
        for _ in range(15):
            a = np.array(
                [[rng.randrange(m) for _ in range(5)] for _ in range(4)],
                dtype=np.int64,
            )
            h1 = howell_form(a, m)
            h2 = howell_form(_random_row_mix(a, m, rng), m)
            assert np.array_equal(h1, h2)


def test_howell_form_matches_incremental_basis_on_wide_matrices():
    # Composite moduli put annihilator rows back into the slots that pivots
    # free, so agreement here pins the row bound the elimination relies on.
    rng = random.Random(23)
    for m in (4, 6, 8, 12, 36):
        for _ in range(360):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 61)
            a = np.array(
                [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)],
                dtype=np.int64,
            )
            basis = HowellBasis(m, cols)
            for row in a:
                basis.insert(row)
            assert np.array_equal(howell_form(a, m), basis.rows())


def test_left_kernel_of_wide_matrix_runs_in_bounded_memory():
    m = 3
    rng = np.random.default_rng(17)
    a = rng.integers(0, m, size=(3, 200_000), dtype=np.int64)
    a[2] = (a[0] + a[1]) % m
    tracemalloc.start()
    try:
        k = left_kernel(a, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(k, np.array([[1, 1, 2]], dtype=np.int64))
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_howell_spans_detect_membership():
    m = 8
    h = howell_form(np.array([[2, 0, 4], [0, 4, 0]], dtype=np.int64), m)
    assert not howell_reduce([2, 4, 4], h, m).any()
    assert howell_reduce([1, 0, 0], h, m).any()


def _span(rows: np.ndarray, m: int, width: int) -> set[tuple[int, ...]]:
    out = {tuple([0] * width)}
    for row in rows:
        out = {tuple((np.array(v) + t * row) % m) for v in out for t in range(m)}
    return out


def test_howell_reduce_gives_least_coset_element():
    rng = random.Random(29)
    for m in (4, 6, 8, 9):
        for _ in range(40):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
            a = np.array(
                [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)],
                dtype=np.int64,
            )
            h = howell_form(a, m)
            span = _span(a, m, cols)
            vecs = np.array(
                [[rng.randrange(m) for _ in range(cols)] for _ in range(5)],
                dtype=np.int64,
            )
            got = howell_reduce(vecs, h, m)
            oracle = HowellBasis(m, cols)
            for row in a:
                oracle.insert(row)
            for v, r in zip(vecs, got):
                least = min(tuple(int(x) for x in (v - s) % m) for s in span)
                assert tuple(int(x) for x in r) == least
                assert (not r.any()) == (not oracle.reduce(v).any())


def test_solve_identity_unique():
    x, null = solve(np.eye(3, dtype=np.int64), [1, 2, 3], 5)
    assert list(x) == [1, 2, 3]
    assert null.shape[0] == 0


def test_solve_parity_infeasible():
    assert solve([[2]], [1], 4) is None


def test_solve_parity_two_solutions():
    res = solve([[2]], [2], 4)
    assert res is not None
    x, null = res
    sols = {int(x[0])}
    for gen in null:
        for t in range(4):
            sols.add(int((x[0] + t * gen[0]) % 4))
    # keep only actual solutions
    sols = {s for s in sols if (2 * s) % 4 == 2}
    assert sols == {1, 3}


def test_solve_random_consistency():
    rng = random.Random(3)
    for m in (2, 4, 9, 12):
        for _ in range(25):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            a = np.array(
                [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)],
                dtype=np.int64,
            )
            x0 = np.array([rng.randrange(m) for _ in range(cols)], dtype=np.int64)
            b = (a @ x0) % m
            res = solve(a, b, m)
            assert res is not None
            x, null = res
            assert not ((a @ x - b) % m).any()
            for gen in null:
                assert not ((a @ gen) % m).any()


def test_solve_infeasible_is_definitive():
    # brute force cross-check on small systems
    rng = random.Random(11)
    for m in (2, 4, 6):
        for _ in range(20):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 3)
            a = np.array(
                [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)],
                dtype=np.int64,
            )
            b = np.array([rng.randrange(m) for _ in range(rows)], dtype=np.int64)
            brute = any(
                not ((a @ np.array(v) - b) % m).any()
                for v in itertools.product(range(m), repeat=cols)
            )
            assert (solve(a, b, m) is not None) == brute


def test_kernels():
    m = 6
    a = np.array([[2, 3], [0, 3]], dtype=np.int64)
    for gen in right_kernel(a, m):
        assert not ((a @ gen) % m).any()
    for gen in left_kernel(a, m):
        assert not ((gen @ a) % m).any()
    # kernel generators span everything: brute force count
    gens = right_kernel(a, m)
    span = set()
    for coeffs in itertools.product(range(m), repeat=len(gens)):
        v = np.zeros(2, dtype=np.int64)
        for c, g in zip(coeffs, gens):
            v = (v + c * g) % m
        span.add(tuple(int(t) for t in v))
    brute = {
        (x, y)
        for x in range(m)
        for y in range(m)
        if not ((a @ np.array([x, y])) % m).any()
    }
    assert span == brute


def test_smith_cokernel_structure():
    m = 4
    mat = np.array([[2, 0]], dtype=np.int64)
    diag, _ = smith_form(mat, m)
    assert sorted(diag) == [2, 4]

    m = 6
    mat = np.array([[2, 0], [0, 3]], dtype=np.int64)
    diag, _ = smith_form(mat, m)
    # cokernel = Z2 + Z3 = Z6, so the invariant chain is 1 | 6
    assert sorted(diag) == [1, 6]


def test_smith_generators_have_claimed_orders():
    rng = random.Random(5)
    for m in (4, 6, 8):
        for _ in range(15):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
            mat = np.array(
                [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)],
                dtype=np.int64,
            )
            diag, vinv = smith_form(mat, m, track_vinv=True)
            h = howell_form(mat, m)
            total = 1
            for d, gen in zip(diag, vinv):
                # order of gen in the quotient is exactly d
                for k in range(1, d):
                    if not howell_reduce((k * gen) % m, h, m).any():
                        raise AssertionError(f"generator killed early: {k} < {d}")
                assert not howell_reduce((d * gen) % m, h, m).any()
                total *= d
            # |quotient| = m^cols / |span|; |span| from the Howell form
            span_size = 1
            for i in range(len(h)):
                lead = int(h[i][np.nonzero(h[i])[0][0]])
                span_size *= m // lead
            assert total == m**cols // span_size


def _random_system(m: int, rng: random.Random, rows: int, cols: int):
    a = np.array(
        [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )
    x0 = np.array([rng.randrange(m) for _ in range(cols)], dtype=np.int64)
    return a, (a @ x0) % m


def test_solve_returns_least_solution():
    rng = random.Random(31)
    for m in (2, 4, 6, 8, 9, 12):
        for _ in range(40):
            a, b = _random_system(m, rng, rng.randrange(1, 5), rng.randrange(1, 4))
            x, _ = solve(a, b, m)
            least = next(
                v for v in itertools.product(range(m), repeat=a.shape[1])
                if not ((a @ np.array(v) - b) % m).any()
            )
            assert tuple(int(t) for t in x) == least


def test_solve_ignores_row_order_and_redundant_rows():
    rng = random.Random(37)
    for m in (4, 6, 8, 12):
        for _ in range(40):
            a, b = _random_system(m, rng, rng.randrange(2, 6), rng.randrange(2, 5))
            x, null = solve(a, b, m)
            mixed = np.hstack([a, b[:, None]])
            extra = [sum(rng.randrange(m) * row for row in mixed) % m
                     for _ in range(3)]
            mixed = np.vstack([mixed] + extra)
            perm = list(range(len(mixed)))
            rng.shuffle(perm)
            mixed = mixed[perm]
            x2, null2 = solve(mixed[:, :-1], mixed[:, -1], m)
            assert np.array_equal(x, x2)
            assert np.array_equal(null, null2)


def test_quotient_matches_enumeration():
    rng = random.Random(41)
    for m in (4, 6, 8, 12):
        for _ in range(12):
            cols = rng.randrange(2, 4)
            gens = np.array(
                [[rng.randrange(m) for _ in range(cols)] for _ in range(3)],
                dtype=np.int64,
            )
            sub = np.array(
                [sum(rng.randrange(m) * g for g in gens) % m for _ in range(2)],
                dtype=np.int64,
            )
            factors, reps = quotient(gens, sub, m)
            assert list(factors) == sorted(factors, reverse=True)
            whole, small = _span(gens, m, cols), _span(sub, m, cols)
            total = 1
            for d in factors:
                total *= d
            assert total * len(small) == len(whole)
            h = howell_form(sub, m)
            for d, rep in zip(factors, reps):
                assert tuple(int(t) for t in rep) in whole
                orders = [k for k in range(1, d + 1)
                          if not howell_reduce(k * rep, h, m).any()]
                assert orders[0] == d
            # the summands are independent: every combination is its own coset
            cosets = {
                tuple(int(t) for t in howell_reduce(np.array(c) @ reps, h, m))
                for c in itertools.product(*(range(d) for d in factors))
            }
            assert len(cosets) == total
