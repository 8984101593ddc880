"""Matrix representations over cyclotomic fields and linear action models.

A representation is stored as one exact matrix per group element, produced
by closing a generator set; fixed-point subspaces, eigenspaces, stabilizers
and the arrangement Z (the locus removed to form U = V minus Z) are all
computed from those matrices with no rounding anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from . import grp as _grp
from .cyclo import CycloMatrix, CycloNumber, RootOfUnity, Subspace, kernel
from .errors import (
    DimensionMismatchError,
    NonInvertibleGeneratorError,
    SingularMatrixError,
    ZeroVectorError,
)
from .grp import FiniteGroup, Subgroup


@dataclass(frozen=True)
class MatrixRep:
    """Faithful matrix model of a finite group: one matrix per element index."""

    group: FiniteGroup
    degree: int
    order: int  # cyclotomic order of the matrix entries
    matrices: tuple[CycloMatrix, ...]

    def matrix(self, g: int) -> CycloMatrix:
        return self.matrices[g]

    def fixed_space(self, g: int) -> Subspace:
        cache = self.group._cache.setdefault("fixed_spaces", {})
        if g not in cache:
            m = self.matrices[g]
            cache[g] = kernel(m - CycloMatrix.identity(self.degree, m.order))
        return cache[g]


@dataclass(frozen=True)
class LinearActionModel:
    """Representation plus a stable arrangement of proper subspaces.

    What depends only on the arrangement is computed once per model and
    kept in ``_cache``: the members grouped by dimension here, the open-set
    flags in ``brauer``.
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

    def record_for(self, g: int) -> FixedLocusRecord:
        for r in self.records:
            if r.representative == g:
                return r
        raise KeyError(f"{g} is not a class representative")


def matrix_closure(generators, order: int | None = None,
                   bound: int = _grp.DEFAULT_ORDER_CAP
                   ) -> tuple[FiniteGroup, MatrixRep]:
    """Close invertible generator matrices into a finite matrix group.

    The representation is multiplicative by construction, so nothing is
    re-checked: ``grp.closure`` fills the generator columns of the table
    from exact matrix products looked up by their canonical keys, and every
    other column from those by associativity of matrix multiplication. The
    identity element is the one matrix whose column is the identity
    permutation, which for invertible matrices is the identity matrix.
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
    for i, m in enumerate(mats):
        try:
            m.inverse()
        except SingularMatrixError as exc:
            raise NonInvertibleGeneratorError(
                f"generator {i} is singular") from exc
    group, elements = _grp.closure(
        mats, lambda a, b: a * b, lambda m: m.key(), bound=bound)
    return group, MatrixRep(group, degree, n, tuple(elements))


def fixed_space(rep: MatrixRep, g: int) -> Subspace:
    return rep.fixed_space(g)


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
        if all(_vec_eq(m.matvec(v), v) for v in w.basis):
            members.append(g)
    els = tuple(sorted(members))
    return Subgroup(group, els,
                    _grp._greedy_subgroup_generators(group.mul_table(), els))


def _vec_eq(a, b) -> bool:
    return all(x == y for x, y in zip(a, b))


def line_stabilizer(group: FiniteGroup, rep: MatrixRep, vec) -> Subgroup:
    """Elements mapping the line spanned by vec to itself."""
    v = [x if isinstance(x, CycloNumber) else CycloNumber.rational(x)
         for x in vec]
    if all(x.is_zero() for x in v):
        raise ZeroVectorError("line stabilizer of the zero vector")
    lead = next(i for i, x in enumerate(v) if not x.is_zero())
    members = []
    for g in range(group.order):
        w = rep.matrices[g].matvec(v)
        ratio = w[lead] / v[lead]
        if _vec_eq(w, [ratio * x for x in v]):
            members.append(g)
    els = tuple(sorted(members))
    return Subgroup(group, els,
                    _grp._greedy_subgroup_generators(group.mul_table(), els))


def contained(w1: Subspace, w2: Subspace) -> bool:
    return w2.contains(w1)


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
    arrangement = tuple(sorted(seen.values(),
                               key=lambda s: (degree - s.dim, s.key())))
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
