"""Matrix representations over cyclotomic fields and linear action models.

A representation holds one exact matrix per group element, produced by
closing a generator set; fixed-point subspaces, eigenspaces, stabilizers
and the arrangement Z (the locus removed to form U = V minus Z) are all
computed from those matrices with no rounding anywhere. When every
generator is monomial (one root of unity per column) the group is closed,
its fixed spaces are read and the open set is decided on integer
(permutation, phase) arrays, and each matrix is built only when it is
asked for.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import lcm

import numpy as np

from . import grp as _grp
from .cyclo import CycloMatrix, CycloNumber, RootOfUnity, Subspace, kernel
from .errors import (
    DimensionMismatchError,
    NonInvertibleGeneratorError,
    SingularMatrixError,
)
from .grp import FiniteGroup, Subgroup


class MonomialMatrices(Sequence):
    """Monomial matrices as (permutation, phase) pairs, built on demand.

    Element g is ``elements[g] = (perm, phase)``, an integer array of shape
    (2, degree): the matrix M with M e_j = w^phase[j] e_perm[j], where
    ``roots[k]`` is w^k for a primitive root of unity w of order
    ``len(roots)`` in Q(zeta_order): zeta_order itself for even orders,
    -zeta_order^((order + 1) / 2) for odd ones, since -1 is a root of unity
    of every Q(zeta_n). Indexing builds the CycloMatrix of g from that one
    table of roots and keeps it.
    """

    def __init__(self, elements: np.ndarray, roots: tuple[CycloNumber, ...],
                 degree: int, order: int):
        self.elements = elements
        self.roots = roots
        self.degree = degree
        self.order = order
        self._built: list[CycloMatrix | None] = [None] * len(elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, g):
        if isinstance(g, slice):
            return tuple(self[i] for i in range(len(self))[g])
        m = self._built[g]
        if m is None:
            zero = CycloNumber.rational(0, self.order)
            rows = [[zero] * self.degree for _ in range(self.degree)]
            perm, phase = self.elements[g].tolist()
            for j, (i, k) in enumerate(zip(perm, phase)):
                rows[i][j] = self.roots[k]
            m = self._built[g] = CycloMatrix(rows, self.order)
        return m


@dataclass(frozen=True)
class MatrixRep:
    """Faithful matrix model of a finite group: one matrix per element index.

    ``generator_indices`` holds the element index of each generator the
    representation was closed from, in the order they were given. Fixed
    spaces, and every element's codimension and fixed-space key
    (``_fixed_keys``), are kept in ``_cache``, per representation: two
    representations of one group have different ones.
    """

    group: FiniteGroup
    degree: int
    order: int  # cyclotomic order of the matrix entries
    matrices: Sequence[CycloMatrix]
    generator_indices: tuple[int, ...]
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def matrix(self, g: int) -> CycloMatrix:
        return self.matrices[g]

    def fixed_space(self, g: int) -> Subspace:
        cache = self._cache.setdefault("fixed_spaces", {})
        if g not in cache:
            cache[g] = joint_fixed_space(self, (g,))
        return cache[g]


def joint_fixed_space(rep: MatrixRep, members) -> Subspace:
    """V^K: the vectors that every element of ``members`` fixes.

    For a monomial representation this is read off ``_orbit_code``: the
    vectors of the consistent orbits have disjoint supports, so in order of
    their smallest index they are already the canonical reduced echelon
    basis that ``kernel`` returns. Otherwise it is the exact kernel of the
    stacked matrices M_s - I (the whole space for no members).
    """
    mats = rep.matrices
    if not isinstance(mats, MonomialMatrices):
        eye = CycloMatrix.identity(rep.degree, rep.order)
        rows = [list(r) for s in members or (0,)
                for r in (mats[s] - eye).entries]
        return kernel(CycloMatrix(rows))
    modulus = len(mats.roots)
    zero = CycloNumber.rational(0, rep.order)
    basis: dict[int, list] = {}  # filled in order of the orbits' starts
    for j, c in enumerate(_orbit_code(mats, members)):
        if c >= 0:
            basis.setdefault(c // modulus, [zero] * rep.degree)[j] = \
                mats.roots[c % modulus]
    return Subspace(rep.degree, rep.order, tuple(map(tuple, basis.values())))


def _orbit_code(mats: MonomialMatrices, members) -> list[int]:
    """V^K on integers: per coordinate j, start * K + e, or -1.

    On an orbit of <members>, a fixed vector satisfies
    c_perm_s(j) = w^phase_s[j] c_j, so it is determined by its value at the
    orbit's smallest index, its start. An orbit whose phases conflict
    carries only zero, and its coordinates get -1; every other orbit gives
    the vector with 1 at its start and w^e at each of its coordinates j.
    K = ``len(mats.roots)``.
    """
    gens = mats.elements[list(members)].tolist()
    modulus = len(mats.roots)
    phase_of: list[int | None] = [None] * mats.degree
    code = [-1] * mats.degree
    for start in range(mats.degree):
        if phase_of[start] is not None:
            continue
        phase_of[start] = 0
        orbit = [start]
        consistent = True
        for j in orbit:  # grows while it is walked
            for perm, phase in gens:
                t, want = perm[j], (phase_of[j] + phase[j]) % modulus
                if phase_of[t] is None:
                    phase_of[t] = want
                    orbit.append(t)
                elif phase_of[t] != want:
                    consistent = False
        if consistent:
            for j in orbit:
                code[j] = start * modulus + phase_of[j]
    return code


def _element_codes(mats: MonomialMatrices) -> np.ndarray:
    """``_orbit_code`` of every element at once, as an n x degree array.

    The orbits of one element are the cycles of its permutation. Every
    coordinate j walks its cycle for degree steps and keeps the smallest
    index it meets (the cycle's start), the phase sum from j to that start,
    and the phase sum once around the cycle, taken when the walk first
    returns to j. A cycle is consistent iff its sum is 0 mod K, and then
    its vector has w^e at j for e minus the sum from j to the start.
    """
    perm, phase = mats.elements[:, 0], mats.elements[:, 1]
    modulus = len(mats.roots)
    here = np.broadcast_to(np.arange(mats.degree), perm.shape)
    pos, low = here.copy(), here.copy()
    acc, to_low = np.zeros_like(pos), np.zeros_like(pos)
    around = np.full_like(pos, -1)
    for _ in range(mats.degree):
        acc = (acc + np.take_along_axis(phase, pos, axis=1)) % modulus
        pos = np.take_along_axis(perm, pos, axis=1)
        lower = pos < low
        low[lower] = pos[lower]
        to_low[lower] = acc[lower]
        back = (pos == here) & (around < 0)
        around[back] = acc[back]
    return np.where(around == 0, low * modulus + -to_low % modulus, -1)


def _fixed_by_any(elements: np.ndarray, code: list[int], modulus: int) -> bool:
    """Whether some (perm, phase) pair fixes every vector of a coded space:
    maps each coordinate j of a vector into that vector (coordinates off
    every support hold -1), with the phase there the phase at j plus
    phase[j]."""
    code = np.array(code, dtype=np.intp)
    support = np.flatnonzero(code >= 0)
    have = code[support]
    perm, phase = elements[:, 0, support], elements[:, 1, support]
    want = have - have % modulus + (have + phase) % modulus
    return bool((code[perm] == want).all(axis=1).any())


def _fixed_keys(rep: MatrixRep) -> tuple[np.ndarray, list]:
    """Codimension and fixed-space key of every element, kept per rep.

    On a monomial representation both come from ``_element_codes``, and a
    key is a code as a tuple. Otherwise they come from the exact fixed
    spaces, and a key is (order, ``Subspace.key()``).
    """
    cache = rep._cache
    if "fixed_keys" not in cache:
        mats = rep.matrices
        if isinstance(mats, MonomialMatrices):
            codes = _element_codes(mats)
            starts = np.arange(rep.degree) * len(mats.roots)
            dims = (codes == starts).sum(axis=1)
            keys = list(map(tuple, codes.tolist()))
        else:
            spaces = [rep.fixed_space(g) for g in range(rep.group.order)]
            dims = np.array([w.dim for w in spaces])
            keys = [(w.order, w.key()) for w in spaces]
        cache["fixed_keys"] = (rep.degree - dims, keys)
    return cache["fixed_keys"]


class LinearActionModel:
    """Representation plus a stable arrangement of proper subspaces.

    An explicit model is given its members, as a model file lists them. A
    threshold model (``build_model``, no members given) is the arrangement
    of all fixed spaces of codimension at least ``codim_threshold``: it
    reads the codimension and fixed-space key of every element
    (``_fixed_keys``) and builds its members only when ``arrangement`` is
    read.

    What depends only on the arrangement is computed once per model and
    kept in ``_cache``: the members grouped by dimension and the open-set
    decisions of ``joint_fixed_space_meets`` here; in ``brauer``, the
    open-set flags and, per bicyclic subgroup A of the bicyclic scan, its
    first admissible kernel K.
    """

    def __init__(self, rep: MatrixRep, arrangement=None,
                 codim_threshold: int | None = None):
        if arrangement is None and codim_threshold is None:
            raise ValueError("a model needs members or a threshold")
        self.rep = rep
        self.codim_threshold = codim_threshold
        self.explicit = arrangement is not None
        self._cache: dict = {}
        if self.explicit:
            self._cache["arrangement"] = tuple(arrangement)

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group

    @property
    def arrangement(self) -> tuple[Subspace, ...]:
        if "arrangement" not in self._cache:
            spaces = map(self.rep.fixed_space, self._members().values())
            self._cache["arrangement"] = tuple(
                sorted(spaces, key=lambda w: (w.codim, w.key())))
        return self._cache["arrangement"]

    @property
    def arrangement_size(self) -> int:
        return len(self.arrangement) if self.explicit else len(self._members())

    def members_by_dim(self) -> dict[int, dict[tuple, Subspace]]:
        if "members_by_dim" not in self._cache:
            self._cache["members_by_dim"] = _members_by_dim(self.arrangement)
        return self._cache["members_by_dim"]

    def _members(self) -> dict:
        """Threshold model: each member's key -> the first g with V^g on it."""
        if "members" not in self._cache:
            codims, keys = _fixed_keys(self.rep)
            members: dict = {}
            for g in np.flatnonzero(codims >= self.codim_threshold).tolist():
                members.setdefault(keys[g], g)
            self._cache["members"] = members
        return self._cache["members"]


@dataclass(frozen=True)
class FixedLocusRecord:
    representative: int
    class_size: int
    codim: int
    subspace: Subspace
    meets_open_set: bool


@dataclass(frozen=True)
class FixedLocusSurvey:
    records: tuple[FixedLocusRecord, ...]
    spaces_by_codim: dict[int, tuple[Subspace, ...]]


def _monomial_elements(mats, order: int):
    """Roots of unity and (perm, phase) pairs, or None unless all monomial.

    A generator qualifies when each column holds exactly one nonzero entry,
    no two columns put theirs in the same row, and each is a root of unity
    of Q(zeta_order); see ``MonomialMatrices`` for the encoding.
    """
    perms = []
    for m in mats:
        perm = []
        for j in range(m.cols):
            rows = [i for i, row in enumerate(m.entries) if not row[j].is_zero()]
            if len(rows) != 1:
                return None
            perm.append(rows[0])
        if len(set(perm)) != len(perm):
            return None
        perms.append(tuple(perm))
    if order % 2:  # w = -zeta^((order + 1) / 2) has order 2 * order
        roots = []
        for k in range(2 * order):
            z = CycloNumber.zeta(order, k * (order + 1) // 2)
            roots.append(-z if k % 2 else z)
    else:
        roots = [CycloNumber.zeta(order, k) for k in range(order)]
    exponent = {r.key(): k for k, r in enumerate(roots)}
    elements = []
    for m, perm in zip(mats, perms):
        keys = [m.entries[i][j].key() for j, i in enumerate(perm)]
        if not all(k in exponent for k in keys):
            return None
        elements.append((perm, tuple(exponent[k] for k in keys)))
    return tuple(roots), np.array(elements, dtype=np.intp)


def _monomial_product(modulus: int):
    """All products of two batches of (perm, phase) pairs, x-major.

    (perm_a, phase_a)(perm_b, phase_b) = (perm_a o perm_b,
    phase_b + phase_a o perm_b): column j of M_b is w^phase_b[j] in row
    perm_b[j], which M_a sends to row perm_a[perm_b[j]] times
    w^phase_a[perm_b[j]]. Phases are taken mod ``modulus``.
    """
    def multiply(xs, ys):
        perm_b, phase_b = ys[:, 0], ys[:, 1]
        perm = xs[:, 0][:, perm_b]
        phase = (xs[:, 1][:, perm_b] + phase_b) % modulus
        return np.stack((perm, phase), axis=2).reshape(-1, *ys.shape[1:])
    return multiply


def _monomial_key(roots: tuple[CycloNumber, ...], degree: int, order: int):
    """Keys that sort (perm, phase) pairs as ``CycloMatrix.key`` sorts
    their matrices.

    Row i of the matrix holds one nonzero entry, w^phase[j] in column
    j = perm^-1(i), so its text in the key depends on (j, phase[j]) alone.
    Every row's text but the last is followed by "|", which no text holds,
    so two keys compare as their rows' texts do one by one, each with its
    "|". A key is therefore each row's rank among the degree * len(roots)
    row texts (with "|", or without it in the last row), as fixed-width
    big-endian bytes, which sort as the tuples of ranks do.
    """
    def text(x: CycloNumber) -> str:
        return ",".join(f"{c.numerator}/{c.denominator}" for c in x.coeffs)

    modulus = len(roots)
    zero = text(CycloNumber.rational(0, order))
    texts = [";".join(text(root) if i == j else zero for i in range(degree))
             for j in range(degree) for root in roots]  # (j, k) at j * K + k
    inner = np.argsort(np.argsort([t + "|" for t in texts])).astype(">u4")
    last = np.argsort(np.argsort(texts)).astype(">u4")
    width = 4 * degree

    def key(batch) -> list[bytes]:
        source = np.argsort(batch[:, 0], axis=1)
        phase = np.take_along_axis(batch[:, 1], source, axis=1)
        code = source * modulus + phase
        rank = inner[code]
        rank[:, -1] = last[code[:, -1]]
        buf = rank.tobytes()
        return [buf[i:i + width] for i in range(0, len(buf), width)]
    return key


def matrix_closure(generators, order: int | None = None
                   ) -> tuple[FiniteGroup, MatrixRep]:
    """Close invertible generator matrices into a finite matrix group.

    The representation is multiplicative by construction: ``grp.closure``
    fills the generator rows of the table from exact products looked up by
    their canonical keys, and every other row from those by associativity
    of matrix multiplication. The identity element is the one e with
    s * e = s for every generator s, which for invertible matrices is the
    identity matrix.

    Monomial generators (see ``_monomial_elements``) are invertible as they
    stand and are closed as integer arrays of (perm, phase) pairs, one
    level of products in one gather, under keys that sort as the matrices'
    own (``_monomial_key``), so the element order and the table are those
    of the matrix closure; their matrices are built on demand. Other
    generators are checked for invertibility and closed as matrices.
    """
    mats = []
    for raw in generators:
        m = raw if isinstance(raw, CycloMatrix) else CycloMatrix(raw, order)
        if m.rows != m.cols:
            raise DimensionMismatchError("generators must be square")
        mats.append(m)
    if not mats:
        raise NonInvertibleGeneratorError("need at least one generator")
    degree = mats[0].rows
    if any(m.rows != degree for m in mats):
        raise DimensionMismatchError("generators have mixed sizes")
    n = order or 1
    for m in mats:
        n = lcm(n, m.order)
    mats = [m.embed(n) for m in mats]
    monomial = _monomial_elements(mats, n)
    if monomial is None:
        for i, m in enumerate(mats):
            try:
                m.inverse()
            except SingularMatrixError as exc:
                raise NonInvertibleGeneratorError(
                    f"generator {i} is singular") from exc
        seeds, multiply, key = (
            np.fromiter(mats, object),
            lambda xs, ys: np.fromiter((x * y for x in xs for y in ys), object),
            lambda ms: [m.key() for m in ms])
    else:
        roots, seeds = monomial
        multiply = _monomial_product(len(roots))
        key = _monomial_key(roots, degree, n)
    group, elements = _grp.closure(seeds, multiply, key)
    picks = [0, *group.generators]
    index = dict(zip(key(elements[picks]), picks))
    generator_indices = tuple(index[k] for k in key(seeds))
    matrices = (tuple(elements) if monomial is None
                else MonomialMatrices(elements, roots, degree, n))
    return group, MatrixRep(group, degree, n, matrices, generator_indices)


@dataclass(frozen=True)
class SpectrumLine:
    element: int
    scalar: bool
    eigenvalues: tuple[tuple[RootOfUnity, int], ...]  # (eigenvalue, dimension)


def eigen_survey(rep: MatrixRep, h: Subgroup) -> list[SpectrumLine]:
    """Distinct eigenvalues with eigenspace dimensions, per non-scalar element."""
    from .cyclo import eigenspace

    g = rep.group
    out = []
    for x in h.elements:
        m = rep.matrices[x]
        if m.is_scalar():
            k = g.order_of(x)
            val = m.entries[0][0]
            target = lcm(k, val.order)
            ev = next(RootOfUnity(k, j) for j in range(k)
                      if RootOfUnity(k, j).to_cyclo(target) == val)
            out.append(SpectrumLine(x, True, ((ev, rep.degree),)))
            continue
        k = g.order_of(x)
        found = []
        total = 0
        for j in range(k):
            ev = RootOfUnity(k, j)
            dim = eigenspace(m, ev).dim
            if dim:
                found.append((ev, dim))
                total += dim
        assert total == rep.degree, "finite-order matrix must be diagonalizable"
        out.append(SpectrumLine(x, False, tuple(found)))
    return out


def pointwise_stabilizer(group: FiniteGroup, rep: MatrixRep,
                         w: Subspace) -> Subgroup:
    """Elements fixing the subspace vector-by-vector."""
    members = []
    for g in range(group.order):
        m = rep.matrices[g]
        if all(m.matvec(v) == tuple(v) for v in w.basis):
            members.append(g)
    els = tuple(sorted(members))
    return Subgroup(group, els)


def _members_by_dim(arrangement) -> dict[int, dict[tuple, Subspace]]:
    """Members by dimension, each under its (order, key).

    ``Subspace.key`` leaves out the cyclotomic order, and equal keys over
    different orders (a line over Q(zeta_3) and one over Q(zeta_4)) can be
    different spaces, so the order is part of the identity.
    """
    out: dict[int, dict[tuple, Subspace]] = {}
    for z in arrangement:
        out.setdefault(z.dim, {})[(z.order, z.key())] = z
    return out


def meets_complement(w: Subspace, arrangement) -> bool:
    """True iff w is not contained in any single member of the arrangement.

    Over an infinite field a subspace lies in a finite union of subspaces
    iff it lies in one of them, so this decides whether w meets the open
    complement of the union.

    The decision goes by dimension first, since w inside Z forces
    dim w <= dim Z. With no member of dimension at least dim w, w meets
    the complement; for a threshold model that is exactly codim w < t.
    When w is itself a member it does not; for a threshold model every
    fixed space of codimension at least t is one. Only otherwise do the
    members of dimension at least dim w go through ``Subspace.contains``.
    ``arrangement`` is a sequence of subspaces, or a model, which groups
    its members by dimension once instead of on every call.
    """
    by_dim = (arrangement.members_by_dim()
              if isinstance(arrangement, LinearActionModel)
              else _members_by_dim(arrangement))
    candidates = [z for dim, members in by_dim.items() if dim >= w.dim
                  for z in members.values()]
    if not candidates:
        return True
    if (w.order, w.key()) in by_dim.get(w.dim, {}):
        return False
    return not any(z.contains(w) for z in candidates)


def joint_fixed_space_meets(model: LinearActionModel, members
                            ) -> tuple[bool, int]:
    """Whether V^K meets the open set, and codim V^K, for K = <members>.

    A threshold model on a monomial representation decides from the
    ``_orbit_code`` of V^K, without building the subspace, and keeps the
    decision per model under that code: V^K meets U iff codim V^K < t, or
    else no g with codim V^g >= t fixes it pointwise.
    """
    rep = model.rep
    mats = rep.matrices
    if model.explicit or not isinstance(mats, MonomialMatrices):
        w = joint_fixed_space(rep, members)
        return meets_complement(w, model), w.codim
    modulus = len(mats.roots)
    code = _orbit_code(mats, members)
    codim = rep.degree - sum(c == j * modulus for j, c in enumerate(code))
    if codim < model.codim_threshold:
        return True, codim
    memo = model._cache.setdefault("meets", {})
    key = tuple(code)
    if key not in memo:
        codims, _ = _fixed_keys(rep)
        big = np.flatnonzero(codims >= model.codim_threshold)
        memo[key] = not _fixed_by_any(mats.elements[big], code, modulus)
    return memo[key], codim


def build_model(rep: MatrixRep, threshold: int) -> LinearActionModel:
    """The threshold model: all fixed spaces of codimension >= threshold.

    It is stable by construction: s V^h = V^(s h s^-1), which has the same
    codimension, so nothing is re-checked. Its members are built only when
    ``arrangement`` is read.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    _fixed_keys(rep)
    return LinearActionModel(rep, None, threshold)


def _assert_stable(rep: MatrixRep, arrangement) -> None:
    """Raise unless every generator maps every member onto a member.

    Threshold models are stable by construction; this checks arrangements
    read from files. An image is looked up under its (order, key), as in
    ``_members_by_dim``; one that equals a member stored over another order
    is found by ``==``.
    """
    members = {(z.order, z.key()) for z in arrangement}
    for s in rep.group.generators:
        m = rep.matrices[s]
        for z in arrangement:
            w = z.apply(m)
            if (w.order, w.key()) not in members and w not in arrangement:
                raise DimensionMismatchError(
                    "arrangement is not stable under the group")


def fixed_locus_survey(model: LinearActionModel) -> FixedLocusSurvey:
    """Per-class fixed space, codimension and openness flags.

    For a threshold model a flag is codim < t: a fixed space larger than
    every member meets the open set, and one of codimension at least t is a
    member. Otherwise it is ``meets_complement`` of the class's fixed space.
    """
    rep = model.rep
    g = rep.group
    degree = rep.degree
    records = []
    by_codim: dict[int, dict] = {}
    for cls in _grp.conjugacy_classes(g):
        x = int(cls[0])
        w = rep.fixed_space(x)
        codim = degree - w.dim
        flag = (meets_complement(w, model) if model.explicit
                else codim < model.codim_threshold)
        records.append(FixedLocusRecord(x, len(cls), codim, w, flag))
        if x != 0:
            by_codim.setdefault(codim, {})[w.key()] = w
    spaces = {c: tuple(sorted(d.values(), key=lambda s: s.key()))
              for c, d in sorted(by_codim.items())}
    return FixedLocusSurvey(tuple(records), spaces)
