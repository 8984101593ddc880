"""Finite group engine on dense element indices with Cayley tables.

Elements are 0..n-1 with the identity fixed at index 0; every downstream
table (cocycles, representations) indexes by these. Element order is BFS
from the generators with lexicographic tie-breaks, so identical inputs
reproduce identical indexings across runs and platforms.
"""

from __future__ import annotations

import itertools
import os
import resource
from dataclasses import dataclass, field
from math import lcm
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _jobs
from .errors import (
    InfeasibleError,
    MalformedError,
    NonCentralSubgroupError,
    NotAbelianError,
    NotAGroupError,
    OrderBoundExceededError,
)

DEFAULT_ORDER_CAP = 10_000
LIGHT_BLOCK_ROWS = 256
RELABEL_BLOCK_ENTRIES = 1 << 16


class FiniteGroup:
    """Immutable finite group given by its multiplication table."""

    __slots__ = ("order", "_mul", "_inv", "generators", "labels", "_cache")

    def __init__(self, mul: np.ndarray, generators: Sequence[int],
                 labels: Sequence[str] | None = None, _validated: bool = False):
        mul = np.ascontiguousarray(mul, dtype=np.int32) if _validated \
            else _int32_table(mul)
        n = mul.shape[0]
        self.order = n
        self._mul = mul
        self._inv = _inverse_table(mul)
        self.generators = tuple(int(g) for g in generators)
        self.labels = tuple(labels) if labels is not None else None
        self._cache: dict = {}
        if not _validated:
            _validate_group(self)

    # table access ---------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[a, b])

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def mul_table(self) -> np.ndarray:
        view = self._mul.view()
        view.flags.writeable = False
        return view

    def inv_table(self) -> np.ndarray:
        view = self._inv.view()
        view.flags.writeable = False
        return view

    def conj(self, t: int, g: int) -> int:
        """t g t^-1."""
        return int(self._mul[self._mul[t, g], self._inv[t]])

    def commutator(self, g: int, h: int) -> int:
        """g h g^-1 h^-1."""
        gh = self._mul[g, h]
        hg = self._mul[h, g]
        return int(self._mul[gh, self._inv[hg]])

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(g), -k)
        out, base = 0, g
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def order_of(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

    def exponent(self) -> int:
        """The lcm of the element orders, found for all elements at once:
        the k-th step multiplies every power by its element once more, and
        the elements whose power is back at 1 have order k."""
        if "exponent" not in self._cache:
            e, k = 1, 1
            els = np.arange(1, self.order)
            power = els
            while len(els):
                k += 1
                power = self._mul[power, els]
                if not power.all():
                    e = lcm(e, k)
                    live = power != 0
                    els, power = els[live], power[live]
            self._cache["exponent"] = e
        return self._cache["exponent"]

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, which decides it, as
        they generate the group."""
        gens = list(self.generators)
        block = self._mul[np.ix_(gens, gens)]
        return bool(np.array_equal(block, block.T))

    def label(self, g: int) -> str:
        if self.labels is not None:
            return self.labels[g]
        return f"g{g}"

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, generators={list(self.generators)})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup recorded as a sorted index set inside its parent.

    Without generators given, ``witness_generators`` is the ascending greedy
    generating set, built on first read: most scans read only ``elements``.
    """

    parent: FiniteGroup
    elements: tuple[int, ...]
    _generators: tuple[int, ...] | None = field(default=None, compare=False,
                                                repr=False)

    def __post_init__(self):
        if 0 not in self.elements:
            raise NotAGroupError("subgroup must contain the identity")

    @property
    def witness_generators(self) -> tuple[int, ...]:
        if self._generators is None:
            object.__setattr__(self, "_generators",
                               _greedy_subgroup_generators(self.parent._mul,
                                                           self.elements))
        return self._generators

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, g: int) -> bool:
        return g in self.element_set()

    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def as_group(self) -> tuple[FiniteGroup, dict[int, int]]:
        """Re-indexed FiniteGroup plus the parent-index -> local-index map."""
        els = self.elements
        pos = {g: i for i, g in enumerate(els)}
        sub = self.parent._mul[np.ix_(els, els)]
        if not np.isin(sub, np.array(els)).all():
            raise NotAGroupError("subgroup element set is not closed")
        remap = np.zeros(self.parent.order, dtype=np.int32)
        for g, i in pos.items():
            remap[g] = i
        table = remap[sub]
        gens = [pos[g] for g in self.witness_generators if g != 0]
        labels = None
        if self.parent.labels is not None:
            labels = [self.parent.labels[g] for g in els]
        grp = FiniteGroup(
            table, gens or _greedy_subgroup_generators(table, range(len(els))),
            labels, _validated=True)
        return grp, pos


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant-factor decomposition d1 >= d2 >= ... (each dividing the previous).

    For concrete subgroups, ``basis`` holds parent element indices whose
    orders are the factors and ``dlog`` maps every subgroup element to its
    exponent vector. Abstract results (e.g. cohomology groups) carry
    positions into an accompanying list instead, with ``dlog=None``.
    """

    invariant_factors: tuple[int, ...]
    basis: tuple[int, ...]
    dlog: dict[int, tuple[int, ...]] | None = None

    @property
    def group_order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


@dataclass(frozen=True)
class CentralExtension:
    """1 -> kernel -> total -> quotient -> 1 with a chosen section."""

    total: FiniteGroup
    kernel: Subgroup
    quotient: FiniteGroup
    projection: np.ndarray  # total index -> quotient index
    section: np.ndarray     # quotient index -> total index, section[0] == 0


@dataclass(frozen=True)
class Character:
    """Homomorphism from an abelian (sub)group into Z_modulus exponents."""

    modulus: int
    table: dict[int, int]  # element index (in the domain's indexing) -> exponent

    def __post_init__(self):
        if self.table.get(0, 0) != 0:
            raise NotAGroupError("character must send the identity to 0")

    def value(self, g: int) -> int:
        return self.table[g] % self.modulus


# ---------------------------------------------------------------------------
# construction and validation


def _inverse_table(mul: np.ndarray) -> np.ndarray:
    n = mul.shape[0]
    inv = np.argmax(mul == 0, axis=1).astype(np.int32)
    if (mul[np.arange(n), inv] != 0).any():
        raise NotAGroupError("some element has no right inverse")
    return inv


def _int32_table(table) -> np.ndarray:
    """A square table as a contiguous int32 array, its entries checked to
    lie in [0, n) in the input's own integer dtype, before the cast can
    wrap one into range."""
    mul = np.asarray(table)
    if mul.dtype.kind not in "iu":
        mul = mul.astype(np.int64)
    n = len(mul) if mul.ndim else 0
    if mul.ndim != 2 or mul.shape != (n, n):
        raise NotAGroupError(f"table must be square, got {mul.shape}")
    if mul.size and (mul.min() < 0 or mul.max() >= n):
        raise NotAGroupError("table entry out of range")
    return np.ascontiguousarray(mul, dtype=np.int32)


def _validate_group(g: FiniteGroup) -> None:
    """Decide the group axioms for a table whose rows have right inverses.

    The table's entries lie in [0, n) (``_int32_table``), and
    ``_inverse_table`` has found a right inverse for every element; an
    associative table with a two-sided identity and right inverses is a
    group. Associativity is decided by Light's test: the elements a with
    (xa)y = x(ay) for all x, y form a submagma, so once the declared
    generators are known to generate, checking them in the middle decides
    every triple at k * n^2 cost. Whether they generate is read off the walk
    of ``cayley_tree``, which the group keeps. The test's gathers run on
    the worker threads (see ``_jobs.run_in_order``), one job per generator
    and row block of a table of several blocks; the witness is the first
    failure in generator order, then row order, as for one loop.
    """
    mul = g._mul
    n = g.order
    if (mul[0] != np.arange(n)).any() or (mul[:, 0] != np.arange(n)).any():
        raise NotAGroupError("index 0 is not a two-sided identity")
    cayley_tree(g)
    # row blocks keep the gathered arrays at block x n entries; a table of
    # one block is one job, as its gathers take less than a hand-off
    pairs = [(s, lo) for s in g.generators
             for lo in range(0, n, LIGHT_BLOCK_ROWS)]
    jobs = [(mul, pairs)] if n <= LIGHT_BLOCK_ROWS else [
        (mul, [pair]) for pair in pairs]
    _jobs.run_in_order(_light, jobs)


def _light(mul: np.ndarray, pairs: list[tuple[int, int]]) -> None:
    """Light's test of each generator s on LIGHT_BLOCK_ROWS rows from lo."""
    for s, lo in pairs:
        left = mul.take(mul[lo:lo + LIGHT_BLOCK_ROWS, s], axis=0)
        right = mul[lo:lo + LIGHT_BLOCK_ROWS].take(mul[s], axis=1)
        if not np.array_equal(left, right):
            x, y = np.argwhere(left != right)[0]
            witness = (lo + int(x), int(s), int(y))
            raise NotAGroupError(f"associativity fails at {witness}",
                                 witness=witness)


@dataclass(frozen=True)
class CayleyTree:
    """Breadth-first spanning tree of the Cayley graph, rooted at the identity.

    ``levels`` holds the elements by word length, each level in the order the
    walk found them; every x != 0 is parent[x] * generators[letter[x]].
    """

    levels: tuple[np.ndarray, ...]
    parent: np.ndarray
    letter: np.ndarray


def cayley_tree(g: FiniteGroup) -> CayleyTree:
    """The group's BFS tree over its declared generators, walked once.

    The walk takes each level's elements in order and each element's
    generators in declared order. It raises ``NotAGroupError`` when the
    generators do not generate; a validated group has walked it already.
    """
    if "tree" in g._cache:
        return g._cache["tree"]
    n = g.order
    rows = g._mul[:, list(g.generators)].tolist()
    parent = [-1] * n
    letter = [-1] * n
    parent[0] = 0
    level, levels = [0], []
    while level:
        levels.append(np.array(level))
        nxt = []
        for x in level:
            for j, y in enumerate(rows[x]):
                if parent[y] < 0:
                    parent[y] = x
                    letter[y] = j
                    nxt.append(y)
        level = nxt
    if sum(map(len, levels)) != n:
        raise NotAGroupError("declared generators do not generate the group")
    tree = CayleyTree(tuple(levels), np.array(parent), np.array(letter))
    g._cache["tree"] = tree
    return tree


def _closure_in_table(mul: np.ndarray, seed: Sequence[int]) -> list[int]:
    seen = {0}
    seen.update(int(s) for s in seed)
    frontier = sorted(seen)
    gens = sorted({int(s) for s in seed} - {0}) or [0]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = int(mul[x, s])
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return sorted(seen)


def _identity_first(mul: np.ndarray, e: int
                    ) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Relabel the table so that e becomes index 0, the rest kept in order.

    Returns the relabelled table, the old index of each new one, and the
    new index of each old one. Beside ``mul`` the only n x n array made is
    the result: the relabelling rewrites it in row blocks.
    """
    n = mul.shape[0]
    order = [e] + [i for i in range(n) if i != e]
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n)
    out = mul[np.ix_(order, order)]
    step = max(1, RELABEL_BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        out[lo:lo + step] = pos.take(out[lo:lo + step])
    return out, order, pos


def build_from_cayley(table, labels: Sequence[str] | None = None,
                      generators: Sequence[int] | None = None) -> FiniteGroup:
    """Validate a raw multiplication table and relocate the identity to 0.

    The entries are range-checked once, before the relabelling indexes by
    them; the group is then built unchecked and validated as it stands.
    """
    mul = _int32_table(table)
    n = mul.shape[0]
    # every identity is idempotent: only the e with e * e = e are candidates
    ar = np.arange(n)
    ident = [int(e) for e in np.flatnonzero(np.diagonal(mul) == ar)
             if (mul[e] == ar).all() and (mul[:, e] == ar).all()]
    if len(ident) != 1:
        raise NotAGroupError(f"expected exactly one identity, found {len(ident)}")
    e = ident[0]
    if e != 0:
        mul, order, pos = _identity_first(mul, e)
        if labels is not None:
            labels = [labels[i] for i in order]
        if generators is not None:
            generators = [int(pos[g]) for g in generators]
    gens = list(generators) if generators is not None else \
        _greedy_subgroup_generators(mul, range(n))
    g = FiniteGroup(mul, gens, labels, _validated=True)
    _validate_group(g)
    return g


def _memory_budget() -> int:
    """Bytes of memory available: the smaller of RLIMIT_AS and physical RAM."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return ram if soft == resource.RLIM_INFINITY else min(soft, ram)


def order_cap() -> int:
    """The most elements a closure may reach: ``TBK_MAX_ORDER`` if set."""
    raw = os.environ.get("TBK_MAX_ORDER")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise MalformedError(f"TBK_MAX_ORDER must be an integer, got {raw!r}")
    return DEFAULT_ORDER_CAP


def closure(seed: np.ndarray, multiply: Callable, canonical_key: Callable
            ) -> tuple[FiniteGroup, np.ndarray]:
    """Close a finite set of abstract elements under an associative product.

    Elements travel in batches: numpy arrays whose first axis runs over the
    elements (an object array holds elements that are no arrays).
    ``multiply(xs, ys)`` returns the batch of all products x*y, x-major,
    and ``canonical_key(batch)`` one hashable, sortable key per element.
    Breadth-first search by word length, one level at a time (the products
    of the seeds with a level in one call), with ``canonical_key``
    tie-breaks inside each level, so the element order is deterministic.
    Returns the group (identity relocated to index 0, the other elements
    kept in order) and the elements in the group's index order, as one
    batch. A closure that would pass ``order_cap()`` elements raises
    ``OrderBoundExceededError`` at the level that finds the next one.

    The table is completed without extra oracle calls: every BFS element
    is s*y with s a seed and y in the level before, so row h = s*y is
    (s*y)*k = s*(y*k), row y read through row s. It is then validated as
    ``build_from_cayley``'s is, so a product or key that gives no group
    table raises ``NotAGroupError``. That n x n table of 4-byte entries is
    predicted as the elements are found: once it would exceed
    ``_memory_budget()`` the closure raises ``InfeasibleError`` before
    anything of that size is allocated.
    """
    if not len(seed):
        raise NotAGroupError("closure needs at least one seed element")
    bound = order_cap()
    budget = _memory_budget()
    first: dict = {}
    for pos, k in enumerate(canonical_key(seed)):
        first.setdefault(k, pos)
    index = {k: i for i, k in enumerate(sorted(first))}
    seeds = seed[[first[k] for k in index]]
    m = len(index)
    batches = [seeds]
    seed_rows = []  # per level, the index of each product s*x, s-major
    parents = []    # (y, s) of every non-seed element, in index order
    level, start = seeds, 0
    while len(level):
        prods = multiply(seeds, level)
        pkeys = canonical_key(prods)
        fresh: dict = {}
        for pos, k in enumerate(pkeys):
            if k not in index and k not in fresh:
                fresh[k] = pos
        base = len(index)
        for i in range(base, base + len(fresh)):
            if i >= bound:
                raise OrderBoundExceededError(f"closure exceeded bound {bound}")
            if (i + 1) ** 2 * 4 > budget:
                raise InfeasibleError(
                    f"closure reached {i + 1} elements; their multiplication "
                    f"table would take {(i + 1) ** 2 * 4} bytes, more than "
                    f"the {budget} bytes of memory available")
        found = []
        for k in sorted(fresh):
            index[k] = len(index)
            found.append(fresh[k])
        seed_rows.append(np.reshape([index[k] for k in pkeys], (m, -1)))
        parents.extend((start + pos % len(level), pos // len(level))
                       for pos in found)
        level, start = prods[found], base
        batches.append(level)

    # the identity e is the one element with s*e = s for every seed; it
    # takes index 0 and the others keep their order
    n = len(index)
    left = np.concatenate(seed_rows, axis=1)
    ident = np.flatnonzero((left == np.arange(m)[:, None]).all(axis=0))
    if len(ident) != 1:
        raise NotAGroupError("closure did not produce a unique identity")
    ar = np.arange(n)
    order = np.concatenate((ident, np.delete(ar, ident)))
    pos = np.empty(n, dtype=np.intp)
    pos[order] = ar
    mul = np.empty((n, n), dtype=np.int32)
    mul[pos[:m]] = pos[left[:, order]]
    parent = np.array(parents, dtype=np.intp).reshape(-1, 2)
    lo = m
    for batch in batches[1:]:
        hi = lo + len(batch)
        h, (y, s) = pos[lo:hi], parent[lo - m:hi - m].T
        for t in range(m):
            pick = s == t
            mul[h[pick]] = mul[pos[t]].take(mul[pos[y[pick]]])
        lo = hi
    gens = sorted(set(pos[:m].tolist()) - {0}) or [0]
    return FiniteGroup(mul, gens), np.concatenate(batches)[order]


# ---------------------------------------------------------------------------
# standard computations


def conjugacy_classes(g: FiniteGroup) -> list[np.ndarray]:
    """Classes sorted by smallest member; the representative is class[0].

    The classes are the components of the graph x -> s x s^-1 over the
    generators s, since the generators generate every conjugation. Each
    element's label starts as itself and takes the least label across its
    edges, in both directions, and then the label of its label, until
    nothing changes: then every label is the least member of its class.
    """
    if "classes" in g._cache:
        return g._cache["classes"]
    mul, inv = g._mul, g._inv
    steps = []
    for s in sorted(set(g.generators) - {0}):
        steps.append(mul[mul[s], inv[s]])
        steps.append(mul[mul[inv[s]], s])
    label = np.arange(g.order, dtype=mul.dtype)
    while True:
        new = label
        for step in steps:
            new = np.minimum(new, new[step])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    classes = np.split(order.astype(mul.dtype), starts[1:])
    g._cache["classes"] = classes
    return classes


def class_representatives(g: FiniteGroup) -> list[int]:
    return [int(c[0]) for c in conjugacy_classes(g)]


@dataclass(frozen=True)
class ClassPairs:
    """The commuting pairs (r, h) with r a class representative.

    Pair i is (first[i], second[i]): representatives in class order, and
    for each the members h of its centralizer in ascending order. The pairs
    of class j start at starts[j].
    """

    first: np.ndarray
    second: np.ndarray
    starts: np.ndarray


def class_pairs(g: FiniteGroup) -> ClassPairs:
    """The group's representative commuting pairs, from one table compare,
    built once per group: every commuting-pair scan reads them."""
    if "class_pairs" not in g._cache:
        reps = np.array(class_representatives(g), dtype=np.intp)
        comm = g._mul[reps] == g._mul[:, reps].T
        rows, hs = np.nonzero(comm)
        starts = np.zeros(len(reps), dtype=np.intp)
        np.cumsum(comm.sum(axis=1)[:-1], out=starts[1:])
        g._cache["class_pairs"] = ClassPairs(reps[rows], hs, starts)
    return g._cache["class_pairs"]


def centralizer(g: FiniteGroup, x: int) -> Subgroup:
    """The centralizer of x, kept per group: every scan asks for it again."""
    cache = g._cache.setdefault("centralizers", {})
    if x not in cache:
        members = np.nonzero(g._mul[:, x] == g._mul[x, :])[0]
        cache[x] = Subgroup(g, tuple(members.tolist()))
    return cache[x]


def center(g: FiniteGroup) -> Subgroup:
    """x is central iff it commutes with every generator, as the generators
    generate g: the generator columns are compared, not the whole table."""
    gens = list(g.generators)
    members = np.flatnonzero((g._mul[:, gens] == g._mul[gens].T).all(axis=1))
    return Subgroup(g, tuple(members.tolist()))


def _greedy_subgroup_generators(mul: np.ndarray, elements: Sequence[int]
                                ) -> tuple[int, ...]:
    """Ascending greedy generators: each element not yet generated is added."""
    have = {0}
    gens: list[int] = []
    for x in elements:
        if x in have:
            continue
        gens.append(x)
        have = set(_closure_in_table(mul, gens))
        if len(have) == len(elements):
            break
    return tuple(gens)


def subgroup_generated(g: FiniteGroup, seed: Sequence[int]) -> Subgroup:
    els = tuple(_closure_in_table(g._mul, list(seed)))
    return Subgroup(g, els, tuple(sorted({int(s) for s in seed} - {0})))


def commuting_pairs(g: FiniteGroup) -> Iterator[tuple[int, int]]:
    """All pairs (a, b) with a <= b and ab = ba, in lexicographic order."""
    mul = g._mul
    for a in range(g.order):
        row = mul[a, a:]
        col = mul[a:, a]
        for off in np.nonzero(row == col)[0]:
            yield (a, a + int(off))


def abelian_structure(h: Subgroup | FiniteGroup) -> AbelianStructure:
    """Invariant factors, basis and discrete logs of an abelian (sub)group."""
    if isinstance(h, FiniteGroup):
        h = Subgroup(h, tuple(range(h.order)), h.generators)
    g = h.parent
    els = list(h.elements)
    eset = h.element_set()
    for a in els:
        for b in els:
            ab = g.mul(a, b)
            if ab != g.mul(b, a):
                raise NotAbelianError(f"elements {a}, {b} do not commute",
                                      witness=(a, b))
            if ab not in eset:
                raise NotAGroupError("element set is not closed under products")

    basis: list[int] = []
    remaining = set(els)

    def cyclic_of(x: int) -> set[int]:
        out, y = {0}, x
        while y != 0:
            out.add(y)
            y = g.mul(y, x)
        return out

    while len(remaining) > 1:
        cand = max(remaining - {0}, key=lambda x: (g.order_of(x), -x))
        basis.append(cand)
        cyc = cyclic_of(cand)
        comp = {0}
        for x in sorted(remaining):
            trial = set(_closure_in_table(g._mul, sorted((comp | {x}) - {0})))
            if trial & cyc == {0}:
                comp = trial
        if len(comp) * len(cyc) != len(remaining):
            raise NotAGroupError("abelian basis extraction failed")
        remaining = comp

    factors = tuple(g.order_of(b) for b in basis)
    dlog = _discrete_logs(g, basis, factors)
    if len(dlog) != len(els):
        raise NotAGroupError("discrete log enumeration does not cover the subgroup")
    return AbelianStructure(factors, tuple(basis), dlog)


def _discrete_logs(g: FiniteGroup, basis: Sequence[int],
                   factors: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Map prod b_i^e_i to e, for each e with 0 <= e_i < factors[i].

    Vectors run in ``itertools.product`` order and a repeated product keeps
    its first one, so the basis is free exactly when every vector gives an
    entry; each caller checks that count.
    """
    dlog: dict[int, tuple[int, ...]] = {}
    for exps in itertools.product(*(range(d) for d in factors)):
        x = 0
        for b, e in zip(basis, exps):
            x = g.mul(x, g.power(b, e))
        dlog.setdefault(x, exps)
    return dlog


def cyclic_quotient_kernels(h: Subgroup) -> list[Subgroup]:
    """The subgroups K of an abelian subgroup h with h/K cyclic.

    h/K is cyclic iff it embeds in Q/Z, so these are the kernels of the
    characters x -> sum_i u_i dlog_i(x) e/d_i mod e, with d_i the invariant
    factors and e the exponent. Each kernel is listed once, at its first u
    in ``itertools.product`` order.
    """
    st = abelian_structure(h)
    factors = st.invariant_factors
    e = factors[0] if factors else 1
    kernels: dict[tuple[int, ...], Subgroup] = {}
    for u in itertools.product(*(range(d) for d in factors)):
        w = [ui * (e // d) for ui, d in zip(u, factors)]
        els = tuple(sorted(x for x, v in st.dlog.items()
                           if sum(a * b for a, b in zip(w, v)) % e == 0))
        if els not in kernels:
            kernels[els] = Subgroup(h.parent, els)
    return list(kernels.values())


def quotient_by_normal(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, np.ndarray, np.ndarray]:
    """Quotient by a normal subgroup: (quotient, projection, min-member section)."""
    nels = np.array(n.elements, dtype=np.int64)
    inside = np.zeros(g.order, dtype=bool)
    inside[nels] = True
    for x in n.elements:
        # t x t^-1 for every t at once
        escapes = np.flatnonzero(~inside[g._mul[g._mul[:, x], g._inv]])
        if escapes.size:
            t = int(escapes[0])
            raise NonCentralSubgroupError(
                f"subgroup is not normal: conj({t}, {x}) escapes",
                witness=(t, x))
    return _quotient(g, nels)


def _quotient(g: FiniteGroup, nels: np.ndarray
              ) -> tuple[FiniteGroup, np.ndarray, np.ndarray]:
    """Quotient by a subgroup already known to be normal.

    The quotient table is still validated as a group, which rejects an
    element set that is not closed.
    """
    rep = g._mul[:, nels].min(axis=1)
    reps = np.unique(rep)
    proj = np.searchsorted(reps, rep).astype(np.int32)
    q = len(reps)
    qmul = np.empty((q, q), dtype=np.int32)
    for i, r in enumerate(reps):
        qmul[i] = proj[g._mul[int(r), reps]]
    gens = sorted({int(proj[s]) for s in g.generators} - {0}) or [0]
    labels = None
    if g.labels is not None:
        labels = [g.labels[int(r)] + "N" for r in reps]
    quot = FiniteGroup(qmul, gens, labels)
    section = reps.astype(np.int32)
    return quot, proj, section


def quotient_by_central(g: FiniteGroup, n: Subgroup) -> CentralExtension:
    """Central quotient packaged with projection and section data.

    x is central iff it commutes with every generator, and a subgroup of
    central elements is normal, so no sweep over the whole group is made.
    """
    nels = np.array(n.elements, dtype=np.int64)
    gens = np.array(g.generators, dtype=np.int64)
    moved = (g._mul[np.ix_(nels, gens)]
             != g._mul[np.ix_(gens, nels)].T).any(axis=1)
    if moved.any():
        x = int(nels[moved.argmax()])
        raise NonCentralSubgroupError(f"element {x} is not central", witness=x)
    quot, proj, section = _quotient(g, nels)
    return CentralExtension(g, n, quot, proj, section)


# ---------------------------------------------------------------------------
# stock constructions (mostly for tests and the CLI)


def cyclic(n: int) -> FiniteGroup:
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(t, [1] if n > 1 else [0],
                       labels=[f"r{k}" for k in range(n)], _validated=True)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    idx = lambda x, y: x * nb + y
    n = na * nb
    t = np.empty((n, n), dtype=np.int32)
    for x1 in range(na):
        for y1 in range(nb):
            row = a._mul[x1][:, None] * nb + b._mul[y1][None, :]
            t[idx(x1, y1)] = row.reshape(-1)
    gens = [idx(s, 0) for s in a.generators if s] + [idx(0, s) for s in b.generators if s]
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = [f"({a.labels[x]},{b.labels[y]})" for x in range(na) for y in range(nb)]
    return FiniteGroup(t, gens or [0], labels, _validated=True)
