"""Command-line surface: file-driven access to every pipeline stage.

Every command prints a deterministic JSON report to stdout (or --out) and a
short human summary to stderr. Wall-clock timings go into the report's
"timings" field, which is excluded from the determinism contract. Exit
codes: 0 ok, 2 parse error, 3 precondition, 4 resource guard, 5 internal
disagreement.

The command table, ``COMMANDS``, is the one description of each command's
path, handler and arguments. ``main`` builds the parser of the invoked
command alone; ``build_parser`` builds the whole tree from the same table,
for ``-h`` and for argv that names no command.
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


def _match_group(c: _cx.Cocycle2, group: _grp.FiniteGroup,
                 message: str = "cocycle group and model group have "
                                "different Cayley tables") -> _cx.Cocycle2:
    """Rebind a file cocycle onto an equal group built elsewhere."""
    if c.group is group:
        return c
    if c.group.order != group.order or not np.array_equal(
            c.group.mul_table(), group.mul_table()):
        raise ModulusMismatchError(message)
    return _cx.Cocycle2(group, c.modulus, c.table, _verified=c._verified)


def _in_group(g: _grp.FiniteGroup, elements: list[int], option: str
              ) -> list[int]:
    bad = next((x for x in elements if not 0 <= x < g.order), None)
    if bad is not None:
        raise MalformedError(
            f"{option}: element {bad} is not in [0, {g.order})")
    return elements


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
    sub = _grp.subgroup_generated(
        c.group, _in_group(c.group, args.elements, "--elements"))
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
    ext = _grp.quotient_by_central(group, _grp.subgroup_generated(
        group, _in_group(group, args.central, "--central")))
    infl = _cx.inflate(_match_group(
        c, ext.quotient,
        "cocycle group does not match the central quotient's Cayley table"), ext)
    run.results = {
        "total_order": group.order,
        "quotient_order": ext.quotient.order,
        "cocycle": fileio.encode_cocycle(infl, inline_group=args.emit_group),
    }
    return _emit(run, args, f"inflated to group of order {group.order}")


def cmd_cocycle_from_extension(args) -> int:
    run = _Run(args)
    group = _load_group(args.group, run)
    ext = _grp.quotient_by_central(group, _grp.subgroup_generated(
        group, _in_group(group, args.central, "--central")))
    psi = _grp.Character(args.modulus, args.psi)
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
    form = _cx.BilinearForm(group, structure, args.modulus, args.matrix)
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
                     "arrangement_size": model.arrangement_size}
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
    ok, witness = _cx.is_cocycle(c)
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
        "arrangement_size": bundle.model.arrangement_size,
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


# --- the command table -------------------------------------------------------


def indices(text: str) -> list[int]:
    """Comma-separated element indices."""
    return [int(x) for x in text.split(",") if x != ""]


def character(text: str) -> dict[int, int]:
    """idx:exp,idx:exp,... as {idx: exp}."""
    table = {}
    for item in text.split(","):
        key, _, val = item.partition(":")
        table[int(key)] = int(val)
    return table


def int_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    """A JSON matrix of integers, as a tuple of rows."""
    try:
        return tuple(tuple(int(x) for x in row) for row in json.loads(text))
    except OverflowError as exc:
        raise ValueError(text) from exc


def _opt(*flags, **kwargs):
    return flags, kwargs


_COCYCLE = _opt("--cocycle", required=True)
_MODEL = _opt("--model", required=True)
_INFILE = _opt("--in", dest="infile", required=True)

# Every command once: path -> (handler, arguments after --out). A handler
# is named, and looked up when a parser is built, so that a handler
# replaced on the module is the one called.
COMMANDS = {
    "group closure": ("cmd_group_closure", [
        _INFILE, _opt("--emit-group", action="store_true")]),
    "group info": ("cmd_group_info", [_INFILE]),
    "h2": ("cmd_h2", [
        _INFILE, _opt("--cap", type=int, default=_cx.H2_DEFAULT_CAP),
        _opt("--emit-cocycles", action="store_true")]),
    "cocycle check": ("cmd_cocycle_check", [_COCYCLE]),
    "cocycle coboundary": ("cmd_cocycle_coboundary", [
        _COCYCLE,
        _opt("--sense", choices=["torus", "mod-m"], default="torus")]),
    "cocycle restrict": ("cmd_cocycle_restrict", [
        _COCYCLE,
        _opt("--elements", type=indices, required=True,
             help="comma-separated generator indices of the subgroup")]),
    "cocycle inflate": ("cmd_cocycle_inflate", [
        _COCYCLE, _opt("--group", required=True, help="total group file"),
        _opt("--central", type=indices, required=True,
             help="comma-separated generators of the central kernel"),
        _opt("--emit-group", action="store_true")]),
    "cocycle from-extension": ("cmd_cocycle_from_extension", [
        _opt("--group", required=True),
        _opt("--central", type=indices, required=True),
        _opt("--modulus", type=int, required=True),
        _opt("--psi", type=character, required=True,
             help="kernel character as idx:exp,idx:exp,...")]),
    "cocycle from-bilinear": ("cmd_cocycle_from_bilinear", [
        _opt("--group", required=True),
        _opt("--modulus", type=int, required=True),
        _opt("--matrix", type=int_matrix, required=True,
             help="JSON matrix of integers")]),
    "b0 test": ("cmd_b0_test", [_COCYCLE]),
    "bg test": ("cmd_bg_test", [
        _COCYCLE, _MODEL,
        _opt("--method", choices=["pairs", "bicyclic", "both"],
             default="pairs")]),
    "span analyze": ("cmd_span_analyze", [
        _opt("--cocycles", nargs="+", required=True),
        _opt("--model", help="optional model file for the open-set variant")]),
    "orbifold dims": ("cmd_orbifold_dims", [_COCYCLE, _MODEL]),
    "orbifold verify-cor53": ("cmd_orbifold_verify", [_COCYCLE, _MODEL]),
    "twisted assoc-check": ("cmd_twisted_assoc", [_COCYCLE]),
    "example bogomolov": ("cmd_example", [
        _opt("--p", type=int, required=True),
        _opt("--convention", choices=list(_ex.CONVENTIONS),
             default="involution"),
        _opt("--emit-files", metavar="DIR",
             help="write group.json, model.json and the catalog "
                  "cocycles into DIR for the file-driven commands")]),
}

# The line `tbk -h` shows for the first word of each path.
TOPICS = {
    "group": "group construction and info",
    "h2": "brute-force Schur multiplier",
    "cocycle": "cocycle calculus",
    "b0": "unramified-class membership",
    "bg": "open-set obstruction membership",
    "span": "catalog span analysis",
    "orbifold": "twisted dimension bookkeeping",
    "twisted": "twisted group algebra checks",
    "example": "built-in example pipelines",
}


def _command_parser(parser: argparse.ArgumentParser, path: str
                    ) -> argparse.ArgumentParser:
    handler, options = COMMANDS[path]
    parser.add_argument("--out", help="write the JSON report to this file")
    for flags, kwargs in options:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(func=globals()[handler], command_path=path)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole tree, for -h and for argv that names no command."""
    top = argparse.ArgumentParser(
        prog="tbk",
        description="exact cocycle calculus and obstruction-group scans")
    sub = top.add_subparsers(dest="cmd", required=True)
    groups = {}
    for path in COMMANDS:
        head, _, name = path.partition(" ")
        if not name:
            _command_parser(sub.add_parser(head, help=TOPICS[head]), path)
            continue
        if head not in groups:
            groups[head] = sub.add_parser(head, help=TOPICS[head]) \
                .add_subparsers(dest="sub", required=True)
        _command_parser(groups[head].add_parser(name), path)
    return top


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the invoked command's parser alone.

    That parser is the one the whole tree holds for the command, so its
    messages and help are the tree's. The tree parses argv that does not
    start with a command path, and argv that the command's parser leaves
    arguments over from, as the tree reports those at its top level.
    """
    for k in (2, 1):
        words = argv[:k]
        path = " ".join(words)
        if path in COMMANDS and path.split(" ") == words:
            args, extra = _command_parser(
                argparse.ArgumentParser(prog=f"tbk {path}"), path
            ).parse_known_args(argv[len(words):])
            if not extra:
                return args
            break
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
