"""Run the benchmark on two commits in alternating pairs and summarize it.

    python3 tools/bench_pairs.py --parent REV --change REV \
        --workload catalog-p2:2301-2310 --workload files-p3:2311-2320 \
        [--claim catalog-p2:build_s] --out BENCH_N.json

For every seed of a workload it runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once on each side, T being BENCHMARK.json's
``run_seconds``. The side that runs first alternates from pair to pair: the
change in the first pair of the first workload, and each further workload
starts with the side that did not start the one before. Each run
gets a fresh ``git archive`` of its commit, and ``__pycache__`` and
``.perfbench`` are removed from it before the run, so every run compiles and
generates its inputs anew, as a fresh checkout does. The result is
the last stdout line of each run.

The output holds, per workload, metric and side, the median and quartiles
(``statistics.quantiles``, n = 4) over the pairs and every run's value, and
the number of pairs in which the change read lower (every benchmark metric is
better lower), and the machine: CPUs, physical memory, architecture, and the
Python and numpy versions. It also prints one line per metric.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _checkout(rev: str, where: Path) -> Path:
    """A fresh copy of rev's committed files under where."""
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(where, filter="data")
    for junk in [*where.rglob("__pycache__"), where / ".perfbench"]:
        shutil.rmtree(junk, ignore_errors=True)
    return where


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=30 * seconds)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} printed "
                           f"nothing (exit {out.returncode}):\n{out.stderr}")
    return json.loads(lines[-1])


def _side(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:FIRST-LAST, the seeds of one pair each")
    parser.add_argument("--claim", help="WORKLOAD:METRIC claimed to improve")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30

    revs = {side: subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", rev],
        capture_output=True, text=True, check=True).stdout.strip()
        for side, rev in (("parent", args.parent), ("change", args.change))}
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    first = "change"
    record = {
        "description": (
            f"perfbench/run.py --trace 0 --seconds {seconds:g}, parent "
            f"commit {revs['parent']} against the change (commit "
            f"{revs['change']}), in alternating pairs run by "
            f"tools/bench_pairs.py: each run from a fresh git archive of its "
            f"commit with __pycache__ and .perfbench removed; medians and "
            f"quartiles (statistics.quantiles, n=4) per side over the pairs, "
            f"and the number of pairs in which the change read lower (every "
            f"metric here is better lower)"),
        "machine": (
            f"{os.cpu_count()} CPUs, {ram:.1f} GiB RAM, "
            f"{platform.machine()}, Python "
            f"{platform.python_version()}, numpy "
            f"{importlib.metadata.version('numpy')}"),
        "workloads": {},
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        record["claimed"] = {"workload": workload, "metric": metric}
    try:
        for spec in args.workload:
            workload, _, seeds = spec.partition(":")
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            order = []
            for i, seed in enumerate(_seeds(seeds)):
                sides = [first, "change" if first == "parent" else "parent"]
                if i % 2:
                    sides.reverse()
                order.append(sides[0])
                for side in sides:
                    tree = _checkout(revs[side], work / side)
                    runs[side].append(_run(tree, workload, seed, seconds))
                    print(f"{workload} seed {seed} {side} done", flush=True)
            first = "change" if first == "parent" else "parent"
            metrics = {}
            for name in runs["parent"][0]["metrics"]:
                per = {side: [r["metrics"][name]["value"] for r in runs[side]]
                       for side in runs}
                lower = sum(c < p for p, c in zip(per["parent"], per["change"]))
                metrics[name] = {
                    "unit": runs["parent"][0]["metrics"][name]["unit"],
                    "parent": _side(per["parent"]),
                    "change": _side(per["change"]),
                    "change_lower_in_pairs": f"{lower}/{len(per['parent'])}"}
                parent, change = metrics[name]["parent"], metrics[name]["change"]
                p, c = parent["median"], change["median"]
                print(f"{workload} {name}: {p:.4g} -> {c:.4g} "
                      f"({100 * (c - p) / p:+.1f}%), lower in {lower}/"
                      f"{len(per['parent'])}, parent spread "
                      f"{parent['q3'] - parent['q1']:.3g}")
            record["workloads"][workload] = {
                "seeds": _seeds(seeds), "first_in_pair": order,
                "all_correct": all(r["correct"] for s in runs.values()
                                   for r in s),
                "failed_operations": {side: sum(r["failed"] for r in runs[side])
                                      for side in runs},
                "attempted_operations": {
                    side: sum(r["attempted"] for r in runs[side])
                    for side in runs},
                "metrics": metrics}
            # written after every workload, so a cut run keeps what it has
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
