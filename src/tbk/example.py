"""The order-p^7 linear action example: generators, model and class catalog.

For a prime p this builds the two-step nilpotent group with center Z_p^3
and elementary abelian quotient Z_p^4, acting on C^(p^2+2p) as a tensor
block plus two p-dimensional blocks. The catalog carries the six inflated
elementary pairing classes on the quotient together with the extension
classes obtained from each index-p central subgroup and faithful kernel
character; these feed the obstruction-group scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import cocycle as _cx
from . import grp as _grp
from . import rep as _rep
from .cyclo import CycloMatrix, CycloNumber
from .errors import MalformedError, NotAGroupError, OrderBoundExceededError
from .grp import AbelianStructure, FiniteGroup, Subgroup
from .rep import LinearActionModel, MatrixRep

CONVENTIONS = ("involution", "literal")

P2_CONVENTION_NOTE = (
    "p=2 uses the real involution pair P=[[0,1],[1,0]], Q=[[1,0],[0,-1]] by "
    "default; the quaternion-style pair P=[[0,1],[-1,0]], Q=[[0,i],[i,0]] is "
    "available as convention='literal'. Both close to the same order-128 "
    "group up to relabeling of central elements, but only the involution "
    "pair gives P a +1 eigenspace, hence a codimension-2 fixed space for the "
    "first generator."
)
LABEL_NOTE = (
    "The two codimension-p fixed subspaces are reported as an unordered set: "
    "which of the central elements b, c fixes (C^p tensor C^p) + C^p + 0 "
    "depends on a labeling convention, not on the geometry."
)


def clock_and_shift(p: int, convention: str = "involution"
                    ) -> tuple[CycloMatrix, CycloMatrix, int]:
    """The basic pair P, Q with [P, Q] a primitive p-th root of unity."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if p == 2:
        n = 4  # host i even when the involution pair does not need it
        if convention == "involution":
            pm = CycloMatrix([[0, 1], [1, 0]], order=n)
            qm = CycloMatrix([[1, 0], [0, -1]], order=n)
        else:
            i = CycloNumber.zeta(4)
            pm = CycloMatrix([[0, 1], [-1, 0]], order=n)
            qm = CycloMatrix([[0, i], [i, 0]])
        return pm, qm, n
    if convention != "involution":
        raise ValueError("conventions only differ at p = 2")
    n = p
    shift = [[0] * p for _ in range(p)]
    for i in range(p):
        shift[(i + 1) % p][i] = 1
    pm = CycloMatrix(shift, order=n)
    qm = CycloMatrix.diagonal([CycloNumber.zeta(p, k) for k in range(p)])
    return pm, qm, n


def block_generators(p: int, convention: str = "involution"
                     ) -> tuple[list[CycloMatrix], int]:
    """The four generators acting on (C^p tensor C^p) + C^p + C^p."""
    pm, qm, n = clock_and_shift(p, convention)
    eye = CycloMatrix.identity(p, n)
    x1 = pm.tensor(eye).direct_sum(eye).direct_sum(eye)
    x2 = qm.tensor(eye).direct_sum(pm).direct_sum(pm)
    x3 = eye.tensor(pm).direct_sum(eye).direct_sum(qm)
    x4 = eye.tensor(qm).direct_sum(qm).direct_sum(eye)
    return [x1, x2, x3, x4], n


@dataclass(frozen=True)
class ExampleBundle:
    p: int
    convention: str
    group: FiniteGroup
    rep: MatrixRep
    model: LinearActionModel
    catalog: tuple[tuple[str, _cx.Cocycle2], ...]
    x: tuple[int, int, int, int]      # indices of the four generators
    central: tuple[int, int, int]     # indices of a = [x1,x2], b = [x2,x4], c = [x2,x3]
    center_subgroup: Subgroup
    quotient_extension: _grp.CentralExtension
    quotient_structure: AbelianStructure
    commutator_exponent: int          # [P,Q] = zeta_p^this
    notes: tuple[str, ...]

    def cocycle(self, name: str) -> _cx.Cocycle2:
        for key, c in self.catalog:
            if key == name:
                return c
        raise KeyError(name)

    @property
    def catalog_names(self) -> list[str]:
        return [name for name, _ in self.catalog]


def _scalar_exponent(mat: CycloMatrix, p: int) -> int:
    """Exponent e with mat = zeta_p^e * I, for scalar matrices of order p."""
    if not mat.is_scalar():
        raise NotAGroupError("expected a scalar matrix")
    val = mat.entries[0][0]
    for e in range(p):
        if CycloNumber.zeta(p, e).embed(val.order if val.order % p == 0
                                        else p * val.order) == val:
            return e
    raise NotAGroupError("scalar is not a p-th root of unity")


def _quotient_structure_on_x_basis(ext: _grp.CentralExtension,
                                   x_idx: tuple[int, ...], p: int
                                   ) -> AbelianStructure:
    """Discrete logs of the quotient w.r.t. the images of x1..x4."""
    q = ext.quotient
    basis = tuple(int(ext.projection[x]) for x in x_idx)
    factors = (p,) * len(basis)
    dlog = _grp._discrete_logs(q, basis, factors)
    if len(dlog) != p ** len(basis) or len(dlog) != q.order:
        raise NotAGroupError("generator images do not form a basis")
    return AbelianStructure(factors, basis, dlog)


def bogomolov_example(p: int, convention: str = "involution") -> ExampleBundle:
    """Assemble the order-p^7 example: group, representation, model, catalog.

    p^7 is held against the order cap of every closure, ``grp.order_cap()``,
    before anything is built: the generators are square matrices of size
    p^2 + 2p, and a p under the cap is small enough to test for primality
    by trial division.
    """
    cap = _grp.order_cap()
    if p ** 7 > cap:
        raise OrderBoundExceededError(
            f"closure would exceed bound {cap}: p^7 = {p ** 7}")
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise MalformedError(f"p = {p} is not a prime")
    gens, n = block_generators(p, convention)
    group, rep = _rep.matrix_closure(gens, order=n)
    if group.order != p ** 7:
        raise NotAGroupError(
            f"closure produced order {group.order}, expected p^7 = {p ** 7}")
    x_idx = rep.generator_indices
    x1, x2, x3, x4 = x_idx

    a = group.commutator(x1, x2)
    b = group.commutator(x2, x4)
    c = group.commutator(x2, x3)
    relations = (
        group.commutator(x3, x4) == a,
        group.commutator(x1, x3) == 0,
        group.commutator(x1, x4) == 0,
    )
    if not all(relations) or 0 in (a, b, c):
        raise NotAGroupError("presentation relations fail in the closed group")

    pmat, qmat, _ = clock_and_shift(p, convention)
    comm = pmat * qmat * pmat.inverse() * qmat.inverse()
    eps_exp = _scalar_exponent(comm, p)

    zsub = _grp.subgroup_generated(group, [a, b, c])
    if zsub.order != p ** 3:
        raise NotAGroupError(f"central subgroup has order {zsub.order}")

    ext = _grp.quotient_by_central(group, zsub)
    qst = _quotient_structure_on_x_basis(ext, x_idx, p)

    catalog: list[tuple[str, _cx.Cocycle2]] = []
    for i in range(4):
        for j in range(i + 1, 4):
            mat = [[0] * 4 for _ in range(4)]
            mat[i][j] = 1
            form = _cx.BilinearForm(ext.quotient, qst, p,
                                    tuple(map(tuple, mat)))
            on_quotient = _cx.from_bilinear_form(form)
            catalog.append((f"e{i + 1}{j + 1}",
                            _cx.inflate(on_quotient, ext)))

    # index-p subgroups of the center, numbered by their first functional
    hyperplanes = [k for k in _grp.cyclic_quotient_kernels(zsub)
                   if k.order * p == zsub.order]
    for idx, nsub in enumerate(hyperplanes):
        ext_n = _grp.quotient_by_central(group, nsub)
        gq = ext_n.quotient
        k_img = _grp.subgroup_generated(
            gq, sorted({int(ext_n.projection[z]) for z in zsub.elements}))
        if k_img.order != p:
            raise NotAGroupError("central image does not have order p")
        ext2 = _grp.quotient_by_central(gq, k_img)
        kst = _grp.abelian_structure(k_img)
        composite = ext2.projection[ext_n.projection]
        for t in range(1, p):
            psi = _grp.Character(p, {
                el: (t * kst.dlog[el][0]) % p for el in k_img.elements})
            on_quotient = _cx.from_central_extension(ext2, psi)
            infl = _cx.inflate(on_quotient, group=group, projection=composite)
            catalog.append((f"ext{idx}-psi{t}", infl))

    model = _rep.build_model(rep, p + 1)
    notes = [LABEL_NOTE]
    if p == 2:
        notes.insert(0, P2_CONVENTION_NOTE)
    return ExampleBundle(
        p=p, convention=convention if p == 2 else "involution",
        group=group, rep=rep, model=model, catalog=tuple(catalog),
        x=x_idx, central=(a, b, c), center_subgroup=zsub,
        quotient_extension=ext, quotient_structure=qst,
        commutator_exponent=eps_exp, notes=tuple(notes))
