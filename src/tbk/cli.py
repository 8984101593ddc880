"""Command-line surface: file-driven access to every pipeline stage.

Every command prints a deterministic JSON report to stdout (or --out) and a
short human summary to stderr. Wall-clock timings go into the report's
"timings" field, which is excluded from the determinism contract. Exit
codes: 0 ok, 2 parse error, 3 precondition, 4 resource guard, 5 internal
disagreement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import brauer as _br
from . import cocycle as _cx
from . import example as _ex
from . import fileio
from . import grp as _grp
from . import rep as _rep
from .errors import (InfeasibleError, MalformedError, ModulusMismatchError,
                     TbkError)


class _Run:
    """Collects inputs, results and timings for the final report."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command_path
        self.inputs: dict[str, str] = {}
        self.results: dict = {}
        self.timings: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def load(self, name: str, path: str):
        """Parse an input file and record the sha256 of the bytes parsed."""
        digest = hashlib.sha256()
        raw = fileio.load_json(path, digest)
        self.inputs[name] = f"sha256:{digest.hexdigest()[:16]}"
        return raw

    def loader(self, name: str) -> fileio.Loader:
        """A fileio ``load`` for the files that the file ``name`` references.

        Each is recorded under ``name`` plus the reference's JSON pointer,
        "/" read as ".": a cocycle file's group file is "cocycle.group". A
        group file may itself be a reference to one, recorded one ".group"
        further on.
        """
        def load(path: str, pointer: str):
            key = name + pointer.replace("/", ".")
            while key in self.inputs:
                key += ".group"
            return self.load(key, path)
        return load

    def mark(self, label: str):
        self.timings[label] = round(time.perf_counter() - self._t0, 6)

    def report(self) -> dict:
        self.mark("total")
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "timings": self.timings,
        }


def _emit(run: _Run, args, summary: str) -> int:
    payload = fileio.dump_json(run.report())
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(summary, file=sys.stderr)
    return 0


def _load_group(path: str, run: _Run, name: str = "group") -> _grp.FiniteGroup:
    return fileio.decode_group(run.load(name, path),
                               base_dir=os.path.dirname(path) or ".",
                               load=run.loader(name))


def _load_cocycle(path: str, run: _Run, name: str = "cocycle") -> _cx.Cocycle2:
    return fileio.decode_cocycle(run.load(name, path),
                                 base_dir=os.path.dirname(path) or ".",
                                 load=run.loader(name))


def _load_model(path: str, run: _Run):
    return fileio.decode_model(run.load("model", path),
                               base_dir=os.path.dirname(path) or ".",
                               load=run.loader("model"))


def _match_group(c: _cx.Cocycle2, group: _grp.FiniteGroup) -> _cx.Cocycle2:
    """Rebind a file cocycle onto an equal group built elsewhere."""
    if c.group is group:
        return c
    if c.group.order != group.order or not np.array_equal(
            c.group.mul_table(), group.mul_table()):
        raise ModulusMismatchError(
            "cocycle group and model group have different Cayley tables")
    return _cx.Cocycle2(group, c.modulus, c.table, _verified=c._verified)


def _witness_labels(g: _grp.FiniteGroup, pair):
    if pair is None:
        return None
    return [g.label(pair[0]), g.label(pair[1])]


# --- command handlers -------------------------------------------------------


def cmd_group_closure(args) -> int:
    run = _Run(args)
    group, rep = fileio.decode_generator_file(
        run.load("generators", args.infile))
    run.results = {
        "order": group.order,
        "degree": rep.degree,
        "cyclotomic_order": rep.order,
        "generators": list(group.generators),
        "num_conjugacy_classes": len(_grp.conjugacy_classes(group)),
    }
    if args.emit_group:
        run.results["group"] = fileio.encode_group(group)
    return _emit(run, args, f"closure: order {group.order}")


def cmd_group_info(args) -> int:
    run = _Run(args)
    group = _load_group(args.infile, run)
    classes = _grp.conjugacy_classes(group)
    zc = _grp.center(group)
    run.results = {
        "order": group.order,
        "abelian": zc.order == group.order,
        "exponent": group.exponent(),
        "center_order": zc.order,
        "num_conjugacy_classes": len(classes),
        "class_sizes": sorted(len(c) for c in classes),
    }
    return _emit(run, args, f"group of order {group.order}")


def cmd_h2(args) -> int:
    run = _Run(args)
    group = _load_group(args.infile, run)
    structure, reps = _cx.h2_small(group, cap=args.cap)
    run.results = {
        "invariant_factors": list(structure.invariant_factors),
        "num_generators": len(reps),
        "modulus": group.order,
    }
    if args.emit_cocycles:
        run.results["representatives"] = [
            fileio.encode_cocycle(c, inline_group=False) for c in reps]
    return _emit(run, args,
                 f"H^2 invariant factors: {list(structure.invariant_factors)}")


def cmd_cocycle_check(args) -> int:
    run = _Run(args)
    c = _load_cocycle(args.cocycle, run)
    ok, witness = _cx.is_cocycle(c)
    run.results = {"is_cocycle": ok,
                   "witness_triple": list(witness) if witness else None}
    return _emit(run, args, "cocycle" if ok else f"not a cocycle at {witness}")


def cmd_cocycle_coboundary(args) -> int:
    run = _Run(args)
    c = _load_cocycle(args.cocycle, run)
    witness = _cx.is_coboundary(c, sense=args.sense)
    run.results = {
        "sense": args.sense,
        "is_coboundary": witness is not None,
        "witness_modulus": witness.modulus if witness else None,
        "witness": [int(x) for x in witness.table] if witness else None,
    }
    verdict = "coboundary" if witness else "not a coboundary"
    return _emit(run, args, f"{verdict} ({args.sense} sense)")


def cmd_cocycle_restrict(args) -> int:
    run = _Run(args)
    c = _load_cocycle(args.cocycle, run)
    seed = [int(x) for x in args.elements.split(",") if x != ""]
    sub = _grp.subgroup_generated(c.group, seed)
    res = _cx.restrict(c, sub)
    run.results = {
        "subgroup_order": sub.order,
        "subgroup_elements": list(sub.elements),
        "cocycle": fileio.encode_cocycle(res),
    }
    return _emit(run, args, f"restricted to subgroup of order {sub.order}")


def cmd_cocycle_inflate(args) -> int:
    run = _Run(args)
    c = _load_cocycle(args.cocycle, run)
    group = _load_group(args.group, run, "total_group")
    seed = [int(x) for x in args.central.split(",") if x != ""]
    ext = _grp.quotient_by_central(group, _grp.subgroup_generated(group, seed))
    if ext.quotient.order != c.group.order or not np.array_equal(
            ext.quotient.mul_table(), c.group.mul_table()):
        raise ModulusMismatchError(
            "cocycle group does not match the central quotient's Cayley table")
    rebased = _cx.Cocycle2(ext.quotient, c.modulus, c.table, c._verified)
    infl = _cx.inflate(rebased, ext)
    run.results = {
        "total_order": group.order,
        "quotient_order": ext.quotient.order,
        "cocycle": fileio.encode_cocycle(infl, inline_group=args.emit_group),
    }
    return _emit(run, args, f"inflated to group of order {group.order}")


def cmd_cocycle_from_extension(args) -> int:
    run = _Run(args)
    group = _load_group(args.group, run)
    seed = [int(x) for x in args.central.split(",") if x != ""]
    ext = _grp.quotient_by_central(group, _grp.subgroup_generated(group, seed))
    table = {}
    for item in args.psi.split(","):
        key, _, val = item.partition(":")
        table[int(key)] = int(val)
    psi = _grp.Character(args.modulus, table)
    c = _cx.from_central_extension(ext, psi)
    run.results = {
        "quotient_order": ext.quotient.order,
        "cocycle": fileio.encode_cocycle(c),
    }
    return _emit(run, args, f"extension cocycle on quotient of order "
                 f"{ext.quotient.order}")


def cmd_cocycle_from_bilinear(args) -> int:
    run = _Run(args)
    group = _load_group(args.group, run)
    structure = _grp.abelian_structure(group)
    mat = json.loads(args.matrix)
    form = _cx.BilinearForm(group, structure, args.modulus,
                            tuple(tuple(int(x) for x in row) for row in mat))
    c = _cx.from_bilinear_form(form)
    run.results = {
        "invariant_factors": list(structure.invariant_factors),
        "cocycle": fileio.encode_cocycle(c),
    }
    return _emit(run, args, "bilinear-form cocycle built")


def cmd_b0_test(args) -> int:
    run = _Run(args)
    c = _load_cocycle(args.cocycle, run)
    verdict = _br.in_B0(c)
    run.results = {
        "member": verdict.member,
        "witness_pair": list(verdict.witness_pair) if verdict.witness_pair else None,
        "witness_labels": _witness_labels(c.group, verdict.witness_pair),
    }
    return _emit(run, args, "member of B0" if verdict.member
                 else f"not in B0, witness {verdict.witness_pair}")


def cmd_bg_test(args) -> int:
    run = _Run(args)
    c = _load_cocycle(args.cocycle, run)
    group, rep, model = _load_model(args.model, run)
    c = _match_group(c, group)
    results: dict = {"method": args.method,
                     "threshold": model.codim_threshold,
                     "arrangement_size": len(model.arrangement)}
    if args.method == "pairs":
        v = _br.in_BG(c, model)
        results.update(
            member=v.member,
            witness_pair=list(v.witness_pair) if v.witness_pair else None,
            witness_labels=_witness_labels(group, v.witness_pair))
    elif args.method == "bicyclic":
        v = _br.in_BG_bicyclic(c, model)
        results.update(member=v.member)
        if v.witness:
            results["witness"] = {
                "subgroup": [group.label(x) for x in v.witness.subgroup.elements],
                "kernel": [group.label(x) for x in v.witness.kernel.elements],
                "fixed_space_codim": v.witness.fixed_space_codim,
                "pair": _witness_labels(group, v.witness.pair),
            }
    else:
        v = _br.bg_cross_check(c, model)  # raises on disagreement (exit 5)
        results.update(member=v.member, agreement=True)
    run.results = results
    member = results["member"]
    return _emit(run, args, "member of B_G(U)" if member else "not in B_G(U)")


def cmd_span_analyze(args) -> int:
    run = _Run(args)
    cocycles = []
    group = None
    model = None
    if args.model:
        group, _rep_, model = _load_model(args.model, run)
    for i, path in enumerate(args.cocycles):
        c = _load_cocycle(path, run, name=f"cocycle{i}")
        if group is not None:
            c = _match_group(c, group)
        elif cocycles:
            c = _match_group(c, cocycles[0].group)
        cocycles.append(c)
    report = _br.span_analysis(cocycles, model)
    run.results = {
        "modulus": report.modulus,
        "basis_size": report.basis_size,
        "active_pairs": report.active_pairs,
        "kernel_generators": [list(r) for r in report.kernel_generators],
        "generator_trivial": list(report.generator_trivial),
        "invariant_factors": list(report.invariant_factors),
        "nontrivial_example": list(report.nontrivial_example)
        if report.nontrivial_example else None,
    }
    return _emit(run, args,
                 f"span modulo trivial classes: {list(report.invariant_factors)}")


def cmd_orbifold_dims(args) -> int:
    run = _Run(args)
    c = _load_cocycle(args.cocycle, run)
    group, rep, model = _load_model(args.model, run)
    c = _match_group(c, group)
    report = _br.orbifold_dims(model, c)
    run.results = {
        "twisted_total": report.twisted_total,
        "untwisted_total": report.untwisted_total,
        "rows": [{
            "representative": r.representative,
            "label": group.label(r.representative),
            "class_size": r.class_size,
            "open_nonempty": r.open_nonempty,
            "l_trivial": r.l_trivial,
            "contribution": r.contribution,
            "untwisted_contribution": r.untwisted_contribution,
        } for r in report.rows],
    }
    return _emit(run, args, f"twisted total {report.twisted_total}, "
                 f"untwisted {report.untwisted_total}")


def cmd_orbifold_verify(args) -> int:
    run = _Run(args)
    c = _load_cocycle(args.cocycle, run)
    group, rep, model = _load_model(args.model, run)
    c = _match_group(c, group)
    verdict = _br.verify_cor53(model, c)
    run.results = {
        "in_obstruction_group": verdict.in_obstruction_group,
        "all_nonempty_classes_trivial": verdict.all_nonempty_classes_trivial,
        "termwise_equal": verdict.termwise_equal,
        "twisted_total": verdict.twisted_total,
        "untwisted_total": verdict.untwisted_total,
        "failing_class": verdict.failing_class,
    }
    return _emit(run, args, "termwise equality holds"
                 if verdict.termwise_equal else
                 f"witness class {verdict.failing_class}")


def cmd_twisted_assoc(args) -> int:
    run = _Run(args)
    c = _load_cocycle(args.cocycle, run)
    action = _cx.GroupAction.trivial(c.group)
    ok, witness = _cx.twisted_assoc_check(c, action)
    run.results = {"associative": ok,
                   "witness_triple": list(witness) if witness else None}
    return _emit(run, args, "associative" if ok else f"fails at {witness}")


def _emit_bundle_files(bundle, directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    written = []

    def write(name: str, payload):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fileio.dump_json(payload))
        written.append(name)

    write("group.json", fileio.encode_group(bundle.group))
    write("model.json", fileio.encode_model(bundle.model, bundle.x))
    for name, c in bundle.catalog:
        payload = fileio.encode_cocycle(c, inline_group=False)
        payload["group"] = "group.json"
        write(f"cocycle-{name}.json", payload)
    return written


def cmd_example(args) -> int:
    run = _Run(args)
    bundle = _ex.bogomolov_example(args.p, convention=args.convention)
    survey = _rep.fixed_locus_survey(bundle.model)
    # the six pairing forms e12 ... e34, not the ext* extension classes
    elementary = [bundle.cocycle(n) for n in bundle.catalog_names
                  if n[1].isdigit()]
    span = _br.span_analysis(elementary)
    min_codim = min(r.codim for r in survey.records if r.representative != 0)
    run.results = {
        "p": bundle.p,
        "convention": bundle.convention,
        "order": bundle.group.order,
        "degree": bundle.rep.degree,
        "commutator_exponent": bundle.commutator_exponent,
        "relations_hold": True,
        "catalog": bundle.catalog_names,
        "threshold": bundle.model.codim_threshold,
        "arrangement_size": len(bundle.model.arrangement),
        "min_nonidentity_codim": min_codim,
        "codim_survey": {str(c): len(s)
                         for c, s in survey.spaces_by_codim.items()},
        "span_b0_invariant_factors": list(span.invariant_factors),
        "notes": list(bundle.notes),
    }
    if args.emit_files:
        run.results["files"] = _emit_bundle_files(bundle, args.emit_files)
    return _emit(run, args, f"order {bundle.group.order} example assembled; "
                 f"span factors {list(span.invariant_factors)}")


# --- argument wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tbk",
        description="exact cocycle calculus and obstruction-group scans")
    sub = top.add_subparsers(dest="cmd", required=True)

    def with_out(p):
        p.add_argument("--out", help="write the JSON report to this file")
        return p

    grp_p = sub.add_parser("group", help="group construction and info")
    grp_sub = grp_p.add_subparsers(dest="sub", required=True)
    p = with_out(grp_sub.add_parser("closure"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--emit-group", action="store_true")
    p.set_defaults(func=cmd_group_closure, command_path="group closure")
    p = with_out(grp_sub.add_parser("info"))
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_group_info, command_path="group info")

    p = with_out(sub.add_parser("h2", help="brute-force Schur multiplier"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cap", type=int, default=_cx.H2_DEFAULT_CAP)
    p.add_argument("--emit-cocycles", action="store_true")
    p.set_defaults(func=cmd_h2, command_path="h2")

    coc = sub.add_parser("cocycle", help="cocycle calculus")
    coc_sub = coc.add_subparsers(dest="sub", required=True)
    p = with_out(coc_sub.add_parser("check"))
    p.add_argument("--cocycle", required=True)
    p.set_defaults(func=cmd_cocycle_check, command_path="cocycle check")
    p = with_out(coc_sub.add_parser("coboundary"))
    p.add_argument("--cocycle", required=True)
    p.add_argument("--sense", choices=["torus", "mod-m"], default="torus")
    p.set_defaults(func=cmd_cocycle_coboundary, command_path="cocycle coboundary")
    p = with_out(coc_sub.add_parser("restrict"))
    p.add_argument("--cocycle", required=True)
    p.add_argument("--elements", required=True,
                   help="comma-separated generator indices of the subgroup")
    p.set_defaults(func=cmd_cocycle_restrict, command_path="cocycle restrict")
    p = with_out(coc_sub.add_parser("inflate"))
    p.add_argument("--cocycle", required=True)
    p.add_argument("--group", required=True, help="total group file")
    p.add_argument("--central", required=True,
                   help="comma-separated generators of the central kernel")
    p.add_argument("--emit-group", action="store_true")
    p.set_defaults(func=cmd_cocycle_inflate, command_path="cocycle inflate")
    p = with_out(coc_sub.add_parser("from-extension"))
    p.add_argument("--group", required=True)
    p.add_argument("--central", required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--psi", required=True,
                   help="kernel character as idx:exp,idx:exp,...")
    p.set_defaults(func=cmd_cocycle_from_extension,
                   command_path="cocycle from-extension")
    p = with_out(coc_sub.add_parser("from-bilinear"))
    p.add_argument("--group", required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--matrix", required=True, help="JSON matrix of integers")
    p.set_defaults(func=cmd_cocycle_from_bilinear,
                   command_path="cocycle from-bilinear")

    b0 = sub.add_parser("b0", help="unramified-class membership")
    b0_sub = b0.add_subparsers(dest="sub", required=True)
    p = with_out(b0_sub.add_parser("test"))
    p.add_argument("--cocycle", required=True)
    p.set_defaults(func=cmd_b0_test, command_path="b0 test")

    bg = sub.add_parser("bg", help="open-set obstruction membership")
    bg_sub = bg.add_subparsers(dest="sub", required=True)
    p = with_out(bg_sub.add_parser("test"))
    p.add_argument("--cocycle", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=["pairs", "bicyclic", "both"],
                   default="pairs")
    p.set_defaults(func=cmd_bg_test, command_path="bg test")

    span = sub.add_parser("span", help="catalog span analysis")
    span_sub = span.add_subparsers(dest="sub", required=True)
    p = with_out(span_sub.add_parser("analyze"))
    p.add_argument("--cocycles", nargs="+", required=True)
    p.add_argument("--model", help="optional model file for the open-set variant")
    p.set_defaults(func=cmd_span_analyze, command_path="span analyze")

    orb = sub.add_parser("orbifold", help="twisted dimension bookkeeping")
    orb_sub = orb.add_subparsers(dest="sub", required=True)
    p = with_out(orb_sub.add_parser("dims"))
    p.add_argument("--cocycle", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_orbifold_dims, command_path="orbifold dims")
    p = with_out(orb_sub.add_parser("verify-cor53"))
    p.add_argument("--cocycle", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_orbifold_verify, command_path="orbifold verify-cor53")

    tw = sub.add_parser("twisted", help="twisted group algebra checks")
    tw_sub = tw.add_subparsers(dest="sub", required=True)
    p = with_out(tw_sub.add_parser("assoc-check"))
    p.add_argument("--cocycle", required=True)
    p.set_defaults(func=cmd_twisted_assoc, command_path="twisted assoc-check")

    exm = sub.add_parser("example", help="built-in example pipelines")
    exm_sub = exm.add_subparsers(dest="sub", required=True)
    p = with_out(exm_sub.add_parser("bogomolov"))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--convention", choices=list(_ex.CONVENTIONS),
                   default="involution")
    p.add_argument("--emit-files", metavar="DIR",
                   help="write group.json, model.json and the catalog "
                        "cocycles into DIR for the file-driven commands")
    p.set_defaults(func=cmd_example, command_path="example bogomolov")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedError as exc:
        print(f"error: {exc}" + (f" at {exc.pointer}" if exc.pointer else ""),
              file=sys.stderr)
        return exc.exit_code
    except TbkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("error: out of memory: the input is too large for this machine",
              file=sys.stderr)
        return InfeasibleError.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
