"""Independent numpy constructions and checks for the benchmark.

Nothing here calls tbk: the groups are built from a normal form, and every
verdict tbk returns is re-derived from raw tables, so a wrong answer cannot
be confirmed by the code that produced it.
"""

from __future__ import annotations

import numpy as np

# Commutator pattern of the order-p^7 example: moving x_j past x_i (j > i)
# produces the central generator listed here (0 = a, 1 = b, 2 = c).
_COMMUTATORS = {(1, 0): 0, (3, 2): 0, (3, 1): 1, (2, 1): 2}


def nilpotent_group(p: int, central: tuple[int, ...] = (0, 1, 2)):
    """Cayley table of <x1..x4> with x_i^p = 1 and the commutators above.

    Elements are x1^u1 x2^u2 x3^u3 x4^u4 z^v with v over the kept central
    generators ``central``; the identity is index 0 and x_i is index p^i.
    Returns (table, u) with u the quotient coordinates of every element.
    """
    n = p ** (4 + len(central))
    digits = (np.arange(n)[:, None] // p ** np.arange(4 + len(central))) % p
    u = digits[:, :4]
    table = np.zeros((n, n), dtype=np.int32)
    for k in range(digits.shape[1]):
        col = digits[:, k].astype(np.int32)
        s = col[:, None] + col[None, :]
        if k >= 4:
            for (j, i), z in _COMMUTATORS.items():
                if z == central[k - 4]:
                    s += np.outer(u[:, j], u[:, i]).astype(np.int32)
        table += (s % p) * p ** k
    return table, u


def form_table(u: np.ndarray, coeffs: dict[tuple[int, int], int],
               p: int) -> np.ndarray:
    """Inflated bilinear form sum t_ij u_i(g) u_j(h), the class e_ij basis."""
    out = np.zeros((len(u), len(u)), dtype=np.int64)
    for (i, j), t in coeffs.items():
        out += t * np.outer(u[:, i], u[:, j])
    return out % p


def coboundary(lam: np.ndarray, table: np.ndarray, m: int) -> np.ndarray:
    """d(lambda)(g, h) = lambda(g) + lambda(h) - lambda(gh) mod m."""
    lam = np.asarray(lam, dtype=np.int64)
    return (lam[:, None] + lam[None, :] - lam[table]) % m


def seeded_cochain(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    lam = rng.integers(0, m, size=n)
    lam[0] = 0
    return lam


def commuting(table: np.ndarray) -> np.ndarray:
    return table == table.T


def b0_member(c: np.ndarray, comm: np.ndarray) -> bool:
    """beta(g, h) = c(g,h) - c(h,g) vanishes on every commuting pair.

    Entries are reduced mod m, so beta vanishes exactly where c is symmetric.
    """
    return not ((c != c.T) & comm).any()


def bg_member(c: np.ndarray, comm: np.ndarray, open_rows: np.ndarray) -> bool:
    """beta vanishes on commuting pairs whose first leg has an open fixed set."""
    return not ((c != c.T) & comm)[open_rows].any()


def cocycle_defect(c: np.ndarray, table: np.ndarray, m: int,
                   triple: tuple[int, int, int]) -> int:
    """c(g,h) + c(gh,k) - c(h,k) - c(g,hk) mod m at one triple."""
    g, h, k = triple
    return int(c[g, h] + c[table[g, h], k] - c[h, k] - c[g, table[h, k]]) % m


def class_data(table: np.ndarray):
    """Class sizes and representatives, centre order, exponent; brute force."""
    n = len(table)
    inv = np.argmax(table == 0, axis=1)
    seen = np.zeros(n, dtype=bool)
    sizes, reps = [], []
    everyone = np.arange(n)
    for x in range(n):
        if not seen[x]:
            orbit = np.unique(table[table[everyone, x], inv])
            seen[orbit] = True
            sizes.append(len(orbit))
            reps.append(x)
    power = everyone.copy()
    exponent = 1
    while (power != 0).any():
        power = table[power, everyone]
        exponent += 1
    centre = int((table == table.T).all(axis=1).sum())
    return sizes, reps, centre, exponent


def fixed_codims(matrices) -> np.ndarray:
    """codim of V^g = rank(M_g - I), from a complex embedding of the entries.

    Used only where the entries are small integers or roots of unity of low
    order, so floating-point rank is exact at these sizes.
    """
    out = []
    for mat in matrices:
        arr = np.array([[_to_complex(x) for x in row] for row in mat.entries])
        out.append(np.linalg.matrix_rank(arr - np.eye(len(arr)), tol=1e-8))
    return np.array(out)


def _to_complex(x) -> complex:
    zeta = np.exp(2j * np.pi / x.order)
    return complex(sum(float(c) * zeta ** k for k, c in enumerate(x.coeffs)))
