"""tbk benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload catalog-p2 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; tbk is imported from ``src/`` there. The
workload's inputs are generated from ``--seed``, every answer is checked
exactly (see ``workloads.py``), and the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
program's layer functions are wrapped and the per-layer metrics are printed
instead, and the spans are written to ``.perfbench/``.

Each workload runs its fixed steps (builds, rejects, long commands) several
times, spread evenly over ``--seconds``, with rounds of warm queries filling
the time between them (at least a fixed number of rounds per cycle). Fixed
steps longer than their share of ``--seconds`` overrun it. The process runs single-threaded under an
address-space limit, so an oversized allocation is a counted MemoryError
rather than an OOM kill. See NOTES.md for the workloads and metrics.
Exit status: 0 when every operation succeeded with a correct answer, 1 when
one failed or answered wrongly, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE_CAP = 4 << 30

# The end-to-end metrics. The cold first verdict and the warm tail are
# printed but not among them: they come from few samples, or from one query
# kind, and where the CPU speed drifts (by about +-20% over tens of seconds
# on a shared 2-vCPU virtual machine) their run-to-run spread exceeds any
# bound the benchmark may set.
UNITS = {"setup_s": "s", "build_s": "s", "verdict_s": "s", "reject_s": "s",
         "steps_s": "s", "peak_rss_mb": "MB"}
INFORMATIONAL = ("first_verdict_s", "verdict_tail_s")


class Session:
    """Timed, checked operations of one run and the counts behind them.

    On a shared machine the CPU speed drifts over tens of seconds, so an
    operation timed once, or only in one part of the run, is mostly noise.
    A run is therefore a number of equal cycles: each runs the workload's
    fixed steps, then warm rounds until the cycle's share of --seconds has
    passed. Every metric is a median (or a sum) over samples spread evenly
    over the whole run. The garbage collector runs, untimed, before every
    fixed step and every warm round, so that no sample pays for a
    collection of garbage that earlier operations left.
    """

    def __init__(self, seconds: float, min_rounds: int, setup_probe):
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.setup_probe = setup_probe
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.samples: dict[str, list[float]] = {}
        self.warm: dict[str, list[float]] = {}
        self.steps_s = 0.0
        self.rounds_done = 0
        self.t0 = time.perf_counter()

    def op(self, kind: str, label: str, fn, check):
        """Run fn once; its time counts only if check(result) holds.

        kind is "build", "first_verdict", "reject", "warm" or "step" (a fixed
        step with no metric of its own). Warm samples are kept per label,
        "<query> [<variant>]", a variant being one expected verdict or one
        input pattern. Returns the result, or None when the call raised or
        answered wrongly.
        """
        self.attempted += 1
        if kind != "warm":
            gc.collect()
        t = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            print(f"failed: {label}", file=sys.stderr)
            self.failed += 1
            return None
        dt = time.perf_counter() - t
        try:
            ok = bool(check(result))
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"wrong answer: {label}", file=sys.stderr)
            self.wrong += 1
            self.failed += 1
            return None
        if kind == "warm":
            self.warm.setdefault(label, []).append(dt)
        elif kind in ("step", "first_verdict"):
            self.steps_s += dt
        self.samples.setdefault(kind, []).append(dt)
        return result

    def run_cycles(self, cycles: int, fixed, warm_round) -> None:
        """fixed(k), then warm_round(r) until the k-th deadline, per cycle.

        A cycle runs min_rounds warm rounds at least, so a slow fixed step
        overruns its deadline rather than leaving a cycle without samples.
        Each cycle first takes one untimed sample of setup_probe, so that
        setup_s too is a median over the whole run.
        """
        for k in range(cycles):
            self.setup_samples.append(self.setup_probe())
            fixed(k)
            deadline = self.t0 + self.seconds * (k + 1) / cycles
            done = 0
            while done < self.min_rounds or time.perf_counter() < deadline:
                gc.collect()
                warm_round(self.rounds_done)
                self.rounds_done += 1
                done += 1

    def timings(self, gen_s: float) -> dict[str, float]:
        out = {"setup_s": statistics.median(self.setup_samples) + gen_s}
        for kind in ("build", "first_verdict", "reject"):
            if kind in self.samples:
                out[f"{kind}_s"] = statistics.median(self.samples[kind])
        if self.warm:
            # a kind's median is steady, a median over a mix of kinds is
            # not: it jumps between kinds when their counts shift. Labels
            # are "<query> [<variant>]"; variants are averaged first, so
            # each query weighs the same
            by_query: dict[str, list[float]] = {}
            for label, v in self.warm.items():
                by_query.setdefault(label.split(" [")[0], []).append(
                    statistics.median(v))
            out["verdict_s"] = statistics.geometric_mean(
                statistics.geometric_mean(m) for m in by_query.values())
            warm = sorted(self.samples["warm"])
            if len(warm) > 10:
                # highest percentile with at least ten samples beyond it
                out["verdict_tail_s"] = warm[-11]
            print(f"warm verdicts: {len(warm)} samples of {len(self.warm)} "
                  f"kinds in {self.rounds_done} rounds"
                  + (f", tail is the p{100 * (len(warm) - 10) / len(warm):.1f}"
                     " value" if len(warm) > 10 else ""))
        out["steps_s"] = self.steps_s
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        return out


def _limit_resources() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    cap = min(ADDRESS_SPACE_CAP, ram // 2)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _import_seconds(src: Path) -> float:
    """Time a fresh interpreter takes to import numpy and tbk."""
    code = ("import sys, time; t = time.perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); import numpy, tbk, tbk.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("run without -O: the program's asserts are part of the checks",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "tbk" / "__init__.py").is_file():
        print(f"no tbk sources under {src}", file=sys.stderr)
        return 2

    _limit_resources()
    sys.path.insert(0, str(src))
    import numpy as np
    import tbk
    import tbk.cli  # noqa: F401  (load every module before tracing)
    if Path(tbk.__file__).resolve().parent != src / "tbk":
        print(f"imported tbk from {tbk.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    # Set-up is repeated and its median reported, so that work moved into
    # set-up shows in setup_s rather than vanishing from the other metrics.
    # A module's import runs once per process, so it is timed in fresh ones:
    # once here and once per cycle of the run.
    gen_times = []
    for _ in range(spec.setup_repeats):
        t = time.perf_counter()
        inputs = spec.setup(np.random.default_rng(args.seed), workdir)
        gen_times.append(time.perf_counter() - t)
    first_import_s = _import_seconds(src)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(f"{args.workload}-{args.seed}")
        tracer.install()
    session = Session(args.seconds, spec.min_rounds,
                      lambda: _import_seconds(src))
    session.setup_samples.append(first_import_s)
    try:
        spec.run(session, inputs, np.random.default_rng(args.seed + 1))
    finally:
        spec.cleanup(workdir)
    timings = session.timings(statistics.median(gen_times))
    pool = len(getattr(tbk.cyclo, "_POOL", ()))
    print(f"cyclo pool size at run end: {pool}")
    print("informational: " + ", ".join(
        f"{name} {timings[name]:.6g} s" for name in INFORMATIONAL
        if name in timings))

    if tracer is None:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in timings.items() if name in UNITS}
    else:
        tracer.write(str(workdir / f"trace-{args.workload}.json"))
        layer = tracer.metrics()
        layer["cyclo.pool_size"] = (pool, "count")
        for name, value in timings.items():
            if name != "peak_rss_mb":
                layer[f"traced.{name}"] = (value, "s")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
    ok = session.failed == 0
    print(json.dumps({"correct": session.wrong == 0,
                      "attempted": session.attempted,
                      "failed": session.failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
