"""Obstruction subgroups and twisted orbifold bookkeeping.

Membership in B0 (classes restricting trivially to every abelian subgroup)
and in the open-set variant B(U) is decided through the antisymmetrization
beta(g, h) = c(g,h) - c(h,g) on commuting pairs. Scans run over conjugacy
class representatives: beta on commuting pairs and emptiness of the fixed
open set are both conjugation-invariant, so nothing is lost and the large
example stays at class scale. A second, independent algorithm goes through
bicyclic subgroups acting cyclically, and the two must agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cocycle as _cx
from . import grp as _grp
from . import rep as _rep
from . import zmlin
from .cyclo import CycloNumber
from .errors import (
    InternalDisagreementError,
    ModulusMismatchError,
    NonIntegralDimensionError,
)
from .grp import Subgroup
from .rep import LinearActionModel


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    witness_pair: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.member


def in_B0(c: _cx.Cocycle2) -> MembershipVerdict:
    """beta must vanish on every commuting pair (scanned over class reps)."""
    _cx.ensure_cocycle(c)
    return _beta_scan(c, None)


def _scan_pairs(g: _grp.FiniteGroup, model: LinearActionModel | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The commuting pairs (r, h) the scans read, in ``grp.class_pairs`` order.

    All of the group's for B0; with a model, those whose representative's
    fixed space meets the open set, selected once per model.
    """
    pairs = _grp.class_pairs(g)
    if model is None:
        return pairs.first, pairs.second
    if "open_pairs" not in model._cache:
        flags = _open_flags(model)
        keep = np.array([flags[int(r)] for r in pairs.first[pairs.starts]],
                        dtype=bool)
        live = np.repeat(keep, np.diff(pairs.starts, append=len(pairs.first)))
        model._cache["open_pairs"] = (pairs.first[live], pairs.second[live])
    return model._cache["open_pairs"]


def _beta_scan(c: _cx.Cocycle2, model: LinearActionModel | None
               ) -> MembershipVerdict:
    """First commuting pair (r, h) with beta(r, h) != 0, r an active rep."""
    first, second = _scan_pairs(c.group, model)
    bad = np.flatnonzero(c.beta(first, second))
    if len(bad):
        i = bad[0]
        return MembershipVerdict(False, (int(first[i]), int(second[i])))
    return MembershipVerdict(True, None)


def _open_flags(model: LinearActionModel) -> dict[int, bool]:
    """Open-set flag per class representative, surveyed once per model."""
    if "open_flags" not in model._cache:
        survey = _rep.fixed_locus_survey(model)
        model._cache["open_flags"] = {
            r.representative: r.meets_open_set for r in survey.records}
    return model._cache["open_flags"]


def in_BG(c: _cx.Cocycle2, model: LinearActionModel) -> MembershipVerdict:
    """beta must vanish on commuting pairs whose first leg keeps a fixed point."""
    _cx.ensure_cocycle(c)
    g = c.group
    if model.group is not g:
        raise ModulusMismatchError("model group does not match the cocycle")
    return _beta_scan(c, model)


@dataclass(frozen=True)
class BicyclicWitness:
    subgroup: Subgroup            # the bicyclic A
    kernel: Subgroup              # K <= A with A/K cyclic
    fixed_space_codim: int        # codim of V^K
    pair: tuple[int, int]         # generators of A with asymmetric values


@dataclass(frozen=True)
class BicyclicVerdict:
    member: bool
    witness: BicyclicWitness | None

    def __bool__(self) -> bool:
        return self.member


def _cyclic_quotient_exists_with_open_fixed_space(
        a: Subgroup, model: LinearActionModel) -> tuple[bool, Subgroup | None, int]:
    """First K <= A by (order, elements) with A/K cyclic and V^K meeting U."""
    rep = model.rep
    for k_sub in sorted(_grp.cyclic_quotient_kernels(a),
                        key=lambda s: (s.order, s.elements)):
        w = _rep.joint_fixed_space(rep, k_sub.witness_generators)
        if _rep.meets_complement(w, model):
            return True, k_sub, rep.degree - w.dim
    return False, None, -1


def in_BG_bicyclic(c: _cx.Cocycle2, model: LinearActionModel) -> BicyclicVerdict:
    """Independent membership algorithm via bicyclic subgroups acting cyclically.

    Enumerates A = <g, h> over commuting pairs with g a class representative
    (every bicyclic subgroup is conjugate to one of these, and all the
    conditions are conjugation-covariant). Whenever some K <= A has cyclic
    quotient and V^K meets the open set, the restriction of c to A must be
    symmetric. Whether such a K exists depends on the model only, so it is
    decided once per A and model.
    """
    _cx.ensure_cocycle(c)
    g = c.group
    if model.group is not g:
        raise ModulusMismatchError("model group does not match the cocycle")
    admissible = model._cache.setdefault("bicyclic", {})
    seen: set[frozenset] = set()
    pairs = _grp.class_pairs(g)
    for rep_, h in zip(pairs.first.tolist(), pairs.second.tolist()):
        a_sub = _grp.subgroup_generated(g, [rep_, h])
        key = frozenset(a_sub.elements)
        if key in seen:
            continue
        seen.add(key)
        if key not in admissible:
            admissible[key] = \
                _cyclic_quotient_exists_with_open_fixed_space(a_sub, model)
        ok, k_sub, codim = admissible[key]
        if not ok:
            continue
        els = np.array(a_sub.elements)
        asym = np.argwhere(c.beta(els[:, None], els))
        if len(asym):  # the first asymmetric pair in row-major order
            pair = tuple(int(x) for x in els[asym[0]])
            return BicyclicVerdict(
                False, BicyclicWitness(a_sub, k_sub, codim, pair))
    return BicyclicVerdict(True, None)


def bg_cross_check(c: _cx.Cocycle2, model: LinearActionModel
                   ) -> MembershipVerdict:
    """Run both membership algorithms and fail loudly if they disagree."""
    direct = in_BG(c, model)
    indirect = in_BG_bicyclic(c, model)
    if direct.member != indirect.member:
        raise InternalDisagreementError(
            f"pair scan says {direct.member}, bicyclic scan says "
            f"{indirect.member}")
    return direct


# ---------------------------------------------------------------------------
# span analysis of a class catalog


@dataclass(frozen=True)
class SpanReport:
    modulus: int
    basis_size: int
    active_pairs: int
    kernel_generators: tuple[tuple[int, ...], ...]
    generator_trivial: tuple[bool, ...]
    invariant_factors: tuple[int, ...]
    nontrivial_example: tuple[int, ...] | None


def span_analysis(basis: list[_cx.Cocycle2],
                  model: LinearActionModel | None = None) -> SpanReport:
    """Locate the obstruction subgroup inside the span of a class catalog.

    Builds the beta matrix of the catalog over the active commuting pairs
    (all pairs for B0, open-set-filtered pairs when a model is supplied)
    and takes its kernel K = span intersect B0 (or B(U)). The torus-trivial
    combinations T, a subgroup of K, come from one linear solve. A kernel
    generator is trivial when it reduces to zero against the Howell form of
    T, and the Smith form of K / T gives the invariant factors, largest
    first. ``nontrivial_example`` is the lexicographically least coefficient
    vector whose class has maximal order in K / T: Howell reduction against
    T gives each coset's least element, so only the quotient is enumerated.
    """
    if not basis:
        return SpanReport(0, 0, 0, (), (), (), None)
    g = basis[0].group
    m = basis[0].modulus
    for c in basis:
        if c.group is not g or c.modulus != m:
            raise ModulusMismatchError("catalog entries are not compatible")
        _cx.ensure_cocycle(c)
    if model is not None and model.group is not g:
        raise ModulusMismatchError("model group does not match the catalog")

    first, second = _scan_pairs(g, model)
    mat = np.array([c.beta(first, second) for c in basis])
    kernel_rows = zmlin.left_kernel(mat, m)
    trivial = _cx.trivial_combinations(
        g, np.array([c.table[:, list(g.generators)] for c in basis]), m)
    live = zmlin.howell_reduce(kernel_rows, trivial, m).any(axis=1)
    factors, gens = zmlin.quotient(kernel_rows, trivial, m)
    example = _least_of_maximal_order(factors, gens, trivial, m) \
        if factors else None
    return SpanReport(m, len(basis), len(first),
                      tuple(tuple(int(x) for x in row) for row in kernel_rows),
                      tuple(not v for v in live), factors, example)


def _least_of_maximal_order(factors: tuple[int, ...], gens: np.ndarray,
                            trivial: np.ndarray, m: int) -> tuple[int, ...]:
    """Least coset element over the classes of maximal order in K / T.

    ``gens`` generate the cyclic summands Z/factors[i] of K / T; a class
    sum a_i gens_i has maximal order factors[0] exactly when the lcm of
    factors[i] / gcd(a_i, factors[i]) reaches it.
    """
    coords = np.array(list(itertools.product(*(range(d) for d in factors))),
                      dtype=np.int64)
    d = np.array(factors, dtype=np.int64)
    orders = d // np.gcd(coords, d)
    top = np.lcm.reduce(orders, axis=1) == factors[0]
    reps = zmlin.howell_reduce(zmlin.matmul_mod(coords[top], gens, m),
                               trivial, m)
    return min(tuple(int(x) for x in row) for row in reps)


# ---------------------------------------------------------------------------
# twisted orbifold dimensions


@dataclass(frozen=True)
class OrbifoldRow:
    representative: int
    class_size: int
    open_nonempty: bool
    l_trivial: bool
    contribution: int
    untwisted_contribution: int


@dataclass(frozen=True)
class OrbifoldReport:
    rows: tuple[OrbifoldRow, ...]
    twisted_total: int
    untwisted_total: int

    def termwise_equal(self) -> bool:
        return all(r.contribution == r.untwisted_contribution for r in self.rows)


def _invariant_dimension(elements: list[int], chi: dict[int, CycloNumber],
                         beta: list[int], m: int) -> int:
    """dim of the invariants: average of chi(h) * zeta^beta(h) over the
    centralizer ``elements``, with beta listed in their order."""
    total = CycloNumber.rational(0)
    for h, b in zip(elements, beta):
        term = chi[h] * CycloNumber.zeta(m, b) if m > 1 else chi[h]
        total = total + term
    value = total * Fraction(1, len(elements))
    if not value.is_rational():
        raise NonIntegralDimensionError(f"non-rational dimension {value!r}")
    q = value.as_rational()
    if q.denominator != 1 or q < 0:
        raise NonIntegralDimensionError(f"dimension {q} is not a nonneg integer")
    return int(q)


def orbifold_dims(model: LinearActionModel, c: _cx.Cocycle2,
                  homology_input: dict[int, dict[int, CycloNumber]] | None = None
                  ) -> OrbifoldReport:
    """Per-class contributions dim (H(U^g) tensor L_g)^{Z_g} and totals.

    In the default scalar mode each nonempty class carries a 1-dimensional
    trivial module, so the contribution is 1 exactly when the L-character is
    trivial; explicit character tables (traces of the centralizer action on
    H(U^g)) may be supplied per class representative instead. beta is read
    on the group's ``grp.class_pairs`` at once, and each class's L-character
    is trivial when beta vanishes on its run of pairs.
    """
    _cx.ensure_cocycle(c)
    g = c.group
    if model.group is not g:
        raise ModulusMismatchError("model group does not match the cocycle")
    m = c.modulus
    flags = _open_flags(model)
    classes = _grp.conjugacy_classes(g)
    pairs = _grp.class_pairs(g)
    beta = c.beta(pairs.first, pairs.second)
    live = np.logical_or.reduceat(beta != 0, pairs.starts).tolist()
    ends = [*pairs.starts[1:].tolist(), len(beta)]
    rows = []
    twisted = untwisted = 0
    for cls, lo, hi, lchar_live in zip(classes, pairs.starts.tolist(), ends,
                                       live):
        rep_ = int(cls[0])
        lchar_trivial = not lchar_live
        if not flags[rep_]:
            rows.append(OrbifoldRow(rep_, len(cls), False, lchar_trivial, 0, 0))
            continue
        if homology_input is not None and rep_ in homology_input:
            chi = {int(h): v if isinstance(v, CycloNumber)
                   else CycloNumber.rational(v)
                   for h, v in homology_input[rep_].items()}
            members = pairs.second[lo:hi].tolist()
            missing = [h for h in members if h not in chi]
            if missing:
                raise NonIntegralDimensionError(
                    f"character table missing centralizer elements {missing}")
            contribution = _invariant_dimension(members, chi,
                                                beta[lo:hi].tolist(), m)
            untw = _invariant_dimension(members, chi, [0] * len(members), m)
        else:
            contribution = 1 if lchar_trivial else 0
            untw = 1
        rows.append(OrbifoldRow(rep_, len(cls), True, lchar_trivial,
                                contribution, untw))
        twisted += contribution
        untwisted += untw
    return OrbifoldReport(tuple(rows), twisted, untwisted)


@dataclass(frozen=True)
class Cor53Verdict:
    in_obstruction_group: bool
    all_nonempty_classes_trivial: bool
    termwise_equal: bool
    twisted_total: int
    untwisted_total: int
    failing_class: int | None


def verify_cor53(model: LinearActionModel, c: _cx.Cocycle2) -> Cor53Verdict:
    """Termwise comparison of twisted and untwisted dimensions.

    For members of the obstruction group every class with a nonempty fixed
    open set must carry a trivial L-character, making the twisted and
    untwisted orbifold dimensions agree term by term; for non-members the
    witness class is reported.
    """
    member = in_BG(c, model)
    report = orbifold_dims(model, c)
    failing = None
    for row in report.rows:
        if row.open_nonempty and not row.l_trivial:
            failing = row.representative
            break
    all_trivial = failing is None
    if member.member:
        assert all_trivial, "member of the obstruction group with live character"
        assert report.termwise_equal()
    else:
        assert not all_trivial, "non-member must exhibit a witness class"
    return Cor53Verdict(member.member, all_trivial, report.termwise_equal(),
                        report.twisted_total, report.untwisted_total, failing)
