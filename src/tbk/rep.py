"""Matrix representations over cyclotomic fields and linear action models.

A representation holds one exact matrix per group element, produced by
closing a generator set; fixed-point subspaces, eigenspaces, stabilizers
and the arrangement Z (the locus removed to form U = V minus Z) are all
computed from those matrices with no rounding anywhere. When every
generator is monomial (one root of unity per column) the group is closed
and its fixed spaces are read on integer (permutation, phase) arrays, and
each matrix is built only when it is asked for.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import lcm

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

    Element g is ``elements[g] = (perm, phase)``, the matrix M with
    M e_j = w^phase[j] e_perm[j], where ``roots[k]`` is w^k for a primitive
    root of unity w of order ``len(roots)`` in Q(zeta_order): zeta_order
    itself for even orders, -zeta_order^((order + 1) / 2) for odd ones,
    since -1 is a root of unity of every Q(zeta_n). Indexing builds the
    CycloMatrix of g from that one table of roots and keeps it.
    """

    def __init__(self, elements, roots: tuple[CycloNumber, ...],
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
            perm, phase = self.elements[g]
            for j, (i, k) in enumerate(zip(perm, phase)):
                rows[i][j] = self.roots[k]
            m = self._built[g] = CycloMatrix(rows, self.order)
        return m


@dataclass(frozen=True)
class MatrixRep:
    """Faithful matrix model of a finite group: one matrix per element index.

    ``generator_indices`` holds the element index of each generator the
    representation was closed from, in the order they were given. Fixed
    spaces are kept in ``_cache``, per representation: two representations
    of one group have different ones.
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

    For a monomial representation this is an orbit walk on coordinates: on
    an orbit of <members>, a fixed vector satisfies
    c_perm_s(j) = w^phase_s[j] c_j, so it is determined by its value at the
    orbit's smallest index. An orbit whose phases conflict carries only
    zero; every other orbit gives one vector with 1 at its smallest index.
    These vectors have disjoint supports, so in order of their smallest
    index they are already the canonical reduced echelon basis that
    ``kernel`` returns. Otherwise it is the exact kernel of the stacked
    matrices M_s - I (the whole space for no members).
    """
    mats = rep.matrices
    if not isinstance(mats, MonomialMatrices):
        eye = CycloMatrix.identity(rep.degree, rep.order)
        rows = [list(r) for s in members or (0,)
                for r in (mats[s] - eye).entries]
        return kernel(CycloMatrix(rows))
    gens = [mats.elements[s] for s in members]
    modulus = len(mats.roots)
    zero = CycloNumber.rational(0, rep.order)
    phase_of: list[int | None] = [None] * rep.degree
    basis = []
    for start in range(rep.degree):
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
            row = [zero] * rep.degree
            for j in orbit:
                row[j] = mats.roots[phase_of[j]]
            basis.append(tuple(row))
    return Subspace(rep.degree, rep.order, tuple(basis))


@dataclass(frozen=True)
class LinearActionModel:
    """Representation plus a stable arrangement of proper subspaces.

    What depends only on the arrangement is computed once per model and
    kept in ``_cache``: the members grouped by dimension here; in
    ``brauer``, the open-set flags and, per bicyclic subgroup A of the
    bicyclic scan, its first admissible kernel K.
    """

    rep: MatrixRep
    arrangement: tuple[Subspace, ...]
    codim_threshold: int | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group

    def members_by_dim(self) -> dict[int, dict[tuple, Subspace]]:
        if "members_by_dim" not in self._cache:
            self._cache["members_by_dim"] = _members_by_dim(self.arrangement)
        return self._cache["members_by_dim"]


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
    return tuple(roots), elements


def _monomial_product(modulus: int):
    """Product of (perm, phase) pairs, with phases taken mod ``modulus``.

    (perm_a, phase_a)(perm_b, phase_b) = (perm_a o perm_b,
    phase_b + phase_a o perm_b): column j of M_b is w^phase_b[j] in row
    perm_b[j], which M_a sends to row perm_a[perm_b[j]] times
    w^phase_a[perm_b[j]].
    """
    def multiply(a, b):
        perm_a, phase_a = a
        perm_b, phase_b = b
        return (tuple(perm_a[k] for k in perm_b),
                tuple((e + phase_a[k]) % modulus
                      for e, k in zip(phase_b, perm_b)))
    return multiply


def _monomial_key(roots: tuple[CycloNumber, ...], degree: int, order: int):
    """``CycloMatrix.key`` of a (perm, phase) pair, character for character.

    The closure therefore orders the pairs exactly as it would order their
    matrices. Row i holds one nonzero entry, in column perm^-1(i); the text
    of each (column, phase) row is written once.
    """
    def text(x: CycloNumber) -> str:
        return ",".join(f"{c.numerator}/{c.denominator}" for c in x.coeffs)

    zero = text(CycloNumber.rational(0, order))
    head = f"{degree}x{degree}@{order}|"
    row_text: dict[tuple[int, int], str] = {}

    def key(element) -> str:
        perm, phase = element
        source = [0] * degree
        for j, i in enumerate(perm):
            source[i] = j
        parts = []
        for j in source:
            part = row_text.get((j, phase[j]))
            if part is None:
                cells = [zero] * degree
                cells[j] = text(roots[phase[j]])
                part = row_text[(j, phase[j])] = ";".join(cells)
            parts.append(part)
        return head + "|".join(parts)
    return key


def matrix_closure(generators, order: int | None = None
                   ) -> tuple[FiniteGroup, MatrixRep]:
    """Close invertible generator matrices into a finite matrix group.

    The representation is multiplicative by construction, so nothing is
    re-checked: ``grp.closure`` fills the generator columns of the table
    from exact products looked up by their canonical keys, and every other
    column from those by associativity of matrix multiplication. The
    identity element is the one matrix whose column is the identity
    permutation, which for invertible matrices is the identity matrix.

    Monomial generators (see ``_monomial_elements``) are invertible as they
    stand and are closed as (perm, phase) pairs under keys equal to the
    matrices' own, so the element order and the table are those of the
    matrix closure; their matrices are built on demand. Other generators
    are checked for invertibility and closed as matrices.
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
        seeds, multiply, key = mats, (lambda a, b: a * b), (lambda m: m.key())
    else:
        roots, seeds = monomial
        multiply = _monomial_product(len(roots))
        key = _monomial_key(roots, degree, n)
    group, elements = _grp.closure(seeds, multiply, key)
    index = {key(elements[g]): g for g in (0, *group.generators)}
    generator_indices = tuple(index[key(s)] for s in seeds)
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


def build_model(rep: MatrixRep, threshold: int) -> LinearActionModel:
    """Arrangement of all fixed spaces with codimension >= threshold.

    It is stable by construction: s V^h = V^(s h s^-1), which has the same
    codimension, so nothing is re-checked.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    degree = rep.degree
    seen = {}
    for g in range(1, rep.group.order):
        w = rep.fixed_space(g)
        if degree - w.dim >= threshold:
            seen.setdefault(w.key(), w)
    arrangement = tuple(w for _, w in sorted(
        seen.items(), key=lambda kw: (degree - kw[1].dim, kw[0])))
    return LinearActionModel(rep, arrangement, threshold)


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

    A flag is ``meets_complement`` of the class's fixed space, which
    decides by dimension before it tests any containment: a fixed space
    larger than every member meets the open set, and one that is a member
    does not. For a threshold model that leaves no containment test at all.
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
        flag = meets_complement(w, model)
        records.append(FixedLocusRecord(x, len(cls), codim, w, flag))
        if x != 0:
            by_codim.setdefault(codim, {})[w.key()] = w
    spaces = {c: tuple(sorted(d.values(), key=lambda s: s.key()))
              for c, d in sorted(by_codim.items())}
    return FixedLocusSurvey(tuple(records), spaces)
