"""The benchmark's workloads: seeded inputs, one session each, exact checks.

catalog-p2   Library session on the order-128 example. The build is mostly
             the exhaustive homomorphism check of the closure; between
             builds, brauer and grp do the work: warm verdicts, the
             pair-scan vs bicyclic-scan cross-check and span analysis.
files-p3     CLI session on files, through tbk.cli.main in-process. fileio and
             cli dominate (a 2187-element Cayley table in JSON), with
             cocycle's exhaustive identity sweep on a 729-element group file;
             rep and cyclo do nothing.

A run is a fixed number of cycles spread evenly over --seconds (see
``run.Session.run_cycles``): each cycle repeats the workload's fixed steps,
and warm rounds fill the rest of it. Every seeded class is a catalog (or
form) combination plus a seeded coboundary d(lambda), so each verdict is also
checked for invariance under the shift. Non-members always carry the same
non-member base class, and the classes of the coboundary queries go through
all eight (t12, t34, t13) patterns in turn, so which verdicts a run asks
for, and with it the latency, does not depend on the seed. Verdicts are
re-derived by the numpy oracle in ``oracle.py``.
"""

from __future__ import annotations

import itertools
import json
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
from tbk import brauer, cli, cocycle, example, rep

import oracle

DRAWS = 48   # seeded coefficient vectors drawn per run
SHIFTS = 8   # seeded coboundaries d(lambda) drawn per run
# (t12, t34, t13) of the classes t12 e12 + t34 e34 + t13 e13 the coboundary
# queries take in turn; criterion 08 decides their torus verdicts
PATTERNS = list(itertools.product((0, 1), repeat=3))


@dataclass(frozen=True)
class Workload:
    setup: Callable      # (rng, workdir) -> inputs
    run: Callable        # (session, inputs, rng) -> None
    setup_repeats: int
    min_rounds: int
    cleanup: Callable = lambda workdir: None


# --- library sessions ------------------------------------------------------


def _draws(rng: np.random.Generator, p: int, pool: int):
    return (rng.integers(0, p, size=(DRAWS, pool)),
            [oracle.seeded_cochain(rng, p ** 7, p) for _ in range(SHIFTS)])


class Library:
    """A built example, its oracle verdicts, and seeded classes over it."""

    def __init__(self, bundle, draws, rng, open_rows=None):
        self.bundle = bundle
        self.rng = rng
        self.group = bundle.group
        self.m = bundle.p
        self.mul = np.asarray(self.group.mul_table())
        self.comm = oracle.commuting(self.mul)
        self.open_rows = open_rows
        self.draws = draws
        self.next_draw = 0
        self._made: dict = {}

    def b0(self, table) -> bool:
        return oracle.b0_member(table, self.comm)

    def bg(self, table) -> bool:
        return oracle.bg_member(table, self.comm, self.open_rows)

    def seeded(self, base: list[str], pool: list[str]):
        """base + a seeded Z_p combination of pool + a seeded coboundary.

        Combinations and coboundaries are kept once made, so each class costs
        one addition: at order 2187 every table operation takes a tenth of a
        second.
        """
        coeffs = self.coeffs()
        shift = self.next_draw % SHIFTS
        self.next_draw += 1
        key = (tuple(base), tuple((n, int(t)) for n, t in zip(pool, coeffs) if t))
        if key not in self._made:
            c = cocycle.Cocycle2.zero(self.group, self.m)
            for n in base:
                c = c + self.bundle.cocycle(n)
            for n, t in key[1]:
                c = c + self.bundle.cocycle(n).scale(t)
            self._made[key] = c
        if shift not in self._made:
            self._made[shift] = cocycle.coboundary_of(
                cocycle.Cochain1(self.group, self.m, self.draws[1][shift]))
        return self._made[key] + self._made[shift]

    def coeffs(self) -> np.ndarray:
        """The coefficient vector the next seeded class will use."""
        return self.draws[0][self.next_draw % DRAWS]

    def split(self, names: list[str], member) -> tuple[list[str], str]:
        """Members of a subgroup among names, and the first non-member."""
        tables = {n: self.bundle.cocycle(n).table for n in names}
        members = [n for n in names if member(tables[n])]
        return members, next(n for n in names if n not in members)

    def witness_ok(self, c, pair, open_only: bool = False) -> bool:
        x, y = pair
        t = c.table.astype(np.int64)
        return (bool(self.comm[x, y]) and (t[x, y] - t[y, x]) % self.m != 0
                and (not open_only or bool(self.open_rows[x])))

    def check_b0(self, c, expected: bool):
        def check(v) -> bool:
            if v.member != expected or self.b0(c.table) != expected:
                return False
            return expected or self.witness_ok(c, v.witness_pair)
        return check

    def check_bg(self, c, expected: bool):
        def check(v) -> bool:
            if v.member != expected or self.bg(c.table) != expected:
                return False
            return expected or self.witness_ok(c, v.witness_pair, True)
        return check

    def corrupted(self, c):
        """A copy of c with one seeded off-axis cell changed: not a cocycle."""
        rng = self.rng
        n = self.group.order
        t = c.table.astype(np.int64)
        h, k = int(rng.integers(2, n)), int(rng.integers(1, n))
        t[h, k] = (t[h, k] + int(rng.integers(1, self.m))) % self.m
        return cocycle.Cocycle2(self.group, self.m, t)

    def check_reject(self, c):
        t = c.table.astype(np.int64)

        def check(result) -> bool:
            ok, triple = result
            return (not ok and triple is not None
                    and oracle.cocycle_defect(t, self.mul, self.m, triple) != 0)
        return check


def _check_coboundary(c, expected: bool | None):
    """Witness d(w) must equal c lifted to w's modulus; verdict as expected."""
    def check(w) -> bool:
        if expected is not None and (w is not None) != expected:
            return False
        if w is None:
            return True
        big = w.modulus
        lam = np.asarray(w.table, dtype=np.int64)
        lifted = c.table.astype(np.int64) * (big // c.modulus) % big
        mul = np.asarray(c.group.mul_table())
        return np.array_equal(oracle.coboundary(lam, mul, big), lifted)
    return check


def _library_setup(p: int, pool: int):
    def setup(rng, workdir):
        return _draws(rng, p, pool)
    return setup


def _torus_trivial(key) -> bool:
    t12, t34, t13 = key
    return not t13 and t12 == t34


def _pattern(key) -> str:
    return "".join(map(str, key))


def run_catalog_p2(s, draws, rng) -> None:
    b = s.op("build", "bogomolov_example(2)", lambda: example.bogomolov_example(2),
             lambda b: (b.group.order == 128 and len(b.catalog) == 13
                        and len(b.model.arrangement) == 73))
    if b is None:
        return
    codims = oracle.fixed_codims(b.rep.matrices)
    lib = Library(b, draws, rng, open_rows=codims <= 2)   # criterion 06
    names = b.catalog_names
    b0_pool, b0_out = lib.split(names, lib.b0)
    bg_pool, bg_out = lib.split(names, lib.bg)
    if "e12" not in bg_pool or bg_out != "e13":       # criterion 10
        raise RuntimeError("oracle disagrees with the acceptance criteria")
    sizes, reps, _, _ = oracle.class_data(lib.mul)
    n = b.group.order
    all_pairs = sum(n // k for k in sizes)
    open_pairs = sum(n // k for k, r in zip(sizes, reps) if lib.open_rows[r])
    forms = [b.cocycle(x) for x in names if x[1].isdigit()]
    start = int(rng.integers(0, len(PATTERNS)))
    # mod-m verdicts must not change with the coboundary shift
    modm_seen: dict[tuple, bool] = {}

    def one_round(r: int) -> None:
        for _ in range(3):
            bad = lib.corrupted(lib.seeded([], b0_pool))
            s.op("reject", "is_cocycle corrupted",
                 lambda bad=bad: cocycle.is_cocycle(bad), lib.check_reject(bad))
        for base, member in (([], True), ([b0_out], False)):
            c = lib.seeded(base, b0_pool)
            s.op("warm", f"in_B0 [{member}]", lambda c=c: brauer.in_B0(c),
                 lib.check_b0(c, member))
        for base, member in (([], True), ([bg_out], False)):
            c = lib.seeded(base, bg_pool)
            s.op("warm", f"in_BG [{member}]",
                 lambda c=c: brauer.in_BG(c, b.model), lib.check_bg(c, member))
        member = r % 2 == 0
        c = lib.seeded([] if member else [bg_out], bg_pool)
        s.op("warm", f"verify_cor53 [{member}]",
             lambda: brauer.verify_cor53(b.model, c),
             lambda v: _cor53_ok(lib, c, v, member))
        # torus verdicts on <e12, e34, e13>: e13 is outside B0, e12 is not
        # torus trivial and e12 + e34 is (criterion 08)
        key = PATTERNS[(start + r) % len(PATTERNS)]
        t12, t34, t13 = key
        torus = _torus_trivial(key)
        c = lib.seeded(["e12"] * t12 + ["e34"] * t34 + ["e13"] * t13, [])
        s.op("warm", f"is_coboundary torus [{_pattern(key)}]",
             lambda: cocycle.is_coboundary(c, sense="torus"),
             _check_coboundary(c, torus))
        # a mod-m witness is a torus witness
        modm = _check_coboundary(c, modm_seen.get(key))
        w = s.op("warm", f"is_coboundary mod-m [{_pattern(key)}]",
                 lambda: cocycle.is_coboundary(c, sense="mod-m"),
                 lambda w: modm(w) and (w is None or torus))
        modm_seen.setdefault(key, w is not None)

    def fixed(k: int) -> None:
        if k:
            s.op("build", "bogomolov_example(2) again",
                 lambda: example.bogomolov_example(2),
                 lambda b2: np.array_equal(b2.group.mul_table(), lib.mul))
        else:
            c = lib.seeded([], bg_pool)
            s.op("first_verdict", "in_BG cold",
                 lambda: brauer.in_BG(c, b.model), lib.check_bg(c, True))
        s.op("step", "fixed_locus_survey",
             lambda: rep.fixed_locus_survey(b.model),
             lambda sv: all(r.codim == codims[r.representative]
                            and r.meets_open_set == (r.codim <= 2)
                            for r in sv.records)
             and len(sv.records) == len(reps))
        for model, pairs in ((None, all_pairs), (b.model, open_pairs)):
            s.op("step", "span_analysis six forms",
                 lambda model=model: brauer.span_analysis(forms, model),
                 lambda r, pairs=pairs: (r.invariant_factors == (2,)
                                         and r.active_pairs == pairs))
        if k % 2:
            # a non-member only: the member's full bicyclic scan (8-9 s)
            # does not fit the run budget
            c = lib.seeded([bg_out], bg_pool)
            s.op("step", "bg_cross_check",
                 lambda: brauer.bg_cross_check(c, b.model),
                 lib.check_bg(c, False))

    s.run_cycles(CATALOG_CYCLES, fixed, one_round)


def _cor53_ok(lib: Library, c, v, member: bool) -> bool:
    if v.in_obstruction_group != member or lib.bg(c.table) != member:
        return False
    if member:
        return v.termwise_equal and v.failing_class is None
    x = v.failing_class
    t = c.table.astype(np.int64)
    live = ((t[x] - t[:, x]) % lib.m != 0) & lib.comm[x]
    return (not v.termwise_equal and bool(lib.open_rows[x]) and live.any()
            and v.twisted_total < v.untwisted_total)


# --- CLI session on files --------------------------------------------------


def _write(path, head: dict, key: str, table: np.ndarray) -> None:
    """JSON object head plus key: table, written one row at a time.

    Streaming keeps the set-up's memory peak far below tbk's own when it
    loads the file, so peak_rss_mb measures tbk.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, separators=(",", ":"))[:-1] + f',"{key}":[')
        for i, row in enumerate(table):
            fh.write(("," if i else "") + json.dumps(row.tolist()))
        fh.write("]}")


def _group_file(path, table, p: int) -> None:
    _write(path, {"order": len(table), "generators": [p ** i for i in range(4)]},
           "cayley", table)


def _random_form(rng, p: int) -> dict:
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return dict(zip(pairs, (int(x) for x in rng.integers(0, p, size=6))))


def setup_files(rng, workdir):
    d = workdir / "files"
    d.mkdir(exist_ok=True)
    out = {"dir": d}
    # order 2187: the group file
    t3, _ = oracle.nilpotent_group(3)
    _group_file(d / "g2187.json", t3, 3)
    out.update(t3=t3)
    # order 729 (the quotient by b = [x2, x4]): one valid class and a copy
    # with one seeded off-axis cell corrupted
    t729, u729 = oracle.nilpotent_group(3, central=(0, 2))
    _group_file(d / "g729.json", t729, 3)
    c = (oracle.form_table(u729, _random_form(rng, 3), 3)
         + oracle.coboundary(oracle.seeded_cochain(rng, len(t729), 3), t729, 3)) % 3
    _write(d / "c729.json", {"modulus": 3, "group": "g729.json"}, "table", c)
    bad = c.copy()
    h, k = int(rng.integers(2, len(t729))), int(rng.integers(1, len(t729)))
    bad[h, k] = (bad[h, k] + int(rng.integers(1, 3))) % 3
    _write(d / "bad729.json", {"modulus": 3, "group": "g729.json"}, "table", bad)
    out.update(t729=t729, c729=c, bad729=bad)
    # order 128: one class t12 e12 + t34 e34 + t13 e13 + d(lambda) for each
    # pattern, for the warm rounds; their torus verdicts follow from
    # criterion 08
    t2, u2 = oracle.nilpotent_group(2)
    _group_file(d / "g128.json", t2, 2)
    classes = []
    for i, key in enumerate(PATTERNS):
        t12, t34, t13 = key
        c = (oracle.form_table(u2, {(0, 1): t12, (2, 3): t34, (0, 2): t13}, 2)
             + oracle.coboundary(oracle.seeded_cochain(rng, 128, 2), t2, 2)) % 2
        _write(d / f"c128-{i}.json", {"modulus": 2, "group": "g128.json"},
               "table", c)
        classes.append((c, key))
    out.update(t2=t2, classes=classes, start=int(rng.integers(0, len(PATTERNS))))
    return out


def _command(s, kind: str, d, argv: list[str], ok, tag: str = ""):
    """Time one tbk command in-process; ok(results) checks its report.

    argv ends with the file option; tag names the variant of a warm query.
    """
    report = d / "report.json"

    def check(code) -> bool:
        with open(report, encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        report.unlink()
        return code == 0 and ok(results)

    label = "tbk " + " ".join(argv[:-2]) + (f" {tag}" if tag else "")
    return s.op(kind, label,
                lambda: cli.main(argv + ["--out", str(report)]), check)


def run_files_p3(s, inp, rng) -> None:
    d = inp["dir"]
    sizes, _, centre, exponent = oracle.class_data(inp["t3"])
    info = {"order": 2187, "abelian": False, "exponent": exponent,
            "center_order": centre, "num_conjugacy_classes": len(sizes),
            "class_sizes": sorted(sizes)}
    comm729 = oracle.commuting(inp["t729"])
    member729 = oracle.b0_member(inp["c729"], comm729)
    t2 = inp["t2"]
    comm2 = oracle.commuting(t2)
    modm_seen: dict[tuple, bool] = {}

    def one_round(r: int) -> None:
        i = (inp["start"] + r) % len(inp["classes"])
        table, key = inp["classes"][i]
        path = str(d / f"c128-{i}.json")
        torus = _torus_trivial(key)
        member = oracle.b0_member(table, comm2)
        tag = f"[{_pattern(key)}]"
        _command(s, "warm", d, ["b0", "test", "--cocycle", path],
                 lambda res: member == (key[2] == 0)
                 and _b0_report_ok(res, table, comm2, 2, member), tag)
        _command(s, "warm", d, ["cocycle", "coboundary", "--sense", "torus",
                                "--cocycle", path],
                 lambda res: _cob_report_ok(res, table, t2, 2, torus), tag)

        def modm_ok(res) -> bool:
            verdict = modm_seen.setdefault(key, res["is_coboundary"])
            return (_cob_report_ok(res, table, t2, 2, verdict)
                    and (torus or not verdict))
        _command(s, "warm", d, ["cocycle", "coboundary", "--sense", "mod-m",
                                "--cocycle", path], modm_ok, tag)

    # every command re-reads its files, so each call is as cold as the first
    def fixed(k: int) -> None:
        _command(s, "build", d, ["group", "info", "--in", str(d / "g2187.json")],
                 lambda res: res == info)
        _command(s, "reject", d,
                 ["cocycle", "check", "--cocycle", str(d / "bad729.json")],
                 lambda res: res["is_cocycle"] is False
                 and oracle.cocycle_defect(inp["bad729"], inp["t729"], 3,
                                           tuple(res["witness_triple"])) != 0)
        if k % 4 == 1:
            _command(s, "first_verdict", d,
                     ["b0", "test", "--cocycle", str(d / "c729.json")],
                     lambda res: _b0_report_ok(res, inp["c729"], comm729, 3,
                                               member729))

    s.run_cycles(FILES_CYCLES, fixed, one_round)


def _b0_report_ok(r, table, comm, m: int, member: bool) -> bool:
    if r["member"] != member or (r["witness_pair"] is None) != member:
        return False
    if member:
        return True
    x, y = r["witness_pair"]
    t = np.asarray(table, dtype=np.int64)
    return bool(comm[x, y]) and (t[x, y] - t[y, x]) % m != 0


def _cob_report_ok(r, table, mul, m: int, expected: bool) -> bool:
    """Verdict as expected; a witness must satisfy d(lambda) = lifted table."""
    if r["is_coboundary"] != expected:
        return False
    if not expected:
        return r["witness"] is None
    big = r["witness_modulus"]
    lifted = np.asarray(table, dtype=np.int64) * (big // m) % big
    return np.array_equal(oracle.coboundary(np.array(r["witness"]), mul, big),
                          lifted)


def cleanup_files(workdir) -> None:
    shutil.rmtree(workdir / "files", ignore_errors=True)


CATALOG_CYCLES = 5   # builds per catalog-p2 run
FILES_CYCLES = 10    # group info and reject calls per files-p3 run

WORKLOADS = {
    "catalog-p2": Workload(_library_setup(2, 13), run_catalog_p2,
                           setup_repeats=3, min_rounds=2),
    "files-p3": Workload(setup_files, run_files_p3, setup_repeats=2,
                         min_rounds=1, cleanup=cleanup_files),
}
