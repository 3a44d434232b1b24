"""Benchmark of the cvverify library: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py                                  # all three workloads
    python3 perfbench/run.py --workload full-budget --seed 3 --seconds 25 --trace 0
    python3 perfbench/compare.py BASE_DIR CHANGE_DIR          # compare two sets of runs

Each run imports the library from ``src/`` of the checkout (never an installed
copy), builds its inputs from ``--seed``, runs whole rounds of the workload's
fixed operation list until ``--seconds`` have passed, checks every output, and
prints each metric by name with its unit.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A stamped result file goes to ``.bench_results/``.

BLAS and OpenMP pools run one thread, so a run never uses more threads than
``nproc``; the run checks its OS thread count at the end.  See README.md in this directory for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
WORKLOADS = ("full-budget", "capped-sweep", "fock-oracle")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread: an idle OpenBLAS worker spins on a core after every call, which
# on a two-core machine made full-budget slower and its run-to-run spread wider.
BLAS_THREADS = 1
SETUP_REPEATS = 5  # set-ups per run (this process plus fresh interpreters); setup_s is their median


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def os_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def end_to_end_spec() -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="timed wall time; whole rounds run until it passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------------ set-up


def set_up(name: str, seed: int, workdir: Path):
    """Import the library, build the inputs and scenario files, run one warm-up op.

    Returns (workload, warm-up failure or None, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads  # imports numpy, scipy and cvverify

    import cvverify

    if Path(cvverify.__file__).resolve().parent != SRC / "cvverify":
        raise SystemExit(f"error: imported cvverify from {cvverify.__file__}, not from {SRC}")
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.BUILDERS[name](seed, workdir)
    op = wl.warmup
    try:
        why = op.check(op.call())
    except Exception as exc:  # a failing warm-up is reported, not raised
        why = f"{type(exc).__name__}: {exc}"
    return wl, why, time.perf_counter() - t0


def probe_setups(args, n: int) -> list[float]:
    """Set-up times of ``n`` fresh interpreters, run one after another."""
    times = []
    for _ in range(n):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        lines = out.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"set-up probe exited with {out.returncode}: {out.stderr.strip()}")
        times.append(json.loads(lines[-1])["setup_s"])
    return times


# ----------------------------------------------------------------- rounds


def run_op(op, tracer=None, index=0) -> dict:
    rec = {"kind": op.kind, "ok": False, "shots": op.shots}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.operation(index, op.kind):
                result = op.call()
        rec["s"] = time.perf_counter() - t0
        why = op.check(result)
    except (Exception, SystemExit) as exc:  # count the failure and keep going
        rec.setdefault("s", time.perf_counter() - t0)
        why = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}"
    rec["ok"] = why is None
    if why is not None:
        rec["why"] = why
    return rec


def run_rounds(wl, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` pass.  ``wall`` holds each round's wall time.

    With ``trace``, every input set runs once untraced and once traced, in
    alternating order so that neither side always pays for the first, cold
    round; only the untraced rounds feed the end-to-end figures."""
    untraced, traced = [], []
    wall = {"untraced": [], "traced": []}
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()

    def plain_round(ops):
        t0 = time.perf_counter()
        untraced.extend(run_op(op) for op in ops)
        wall["untraced"].append(time.perf_counter() - t0)

    def traced_round(ops):
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced.extend(run_op(op, tracer, len(traced)) for op in ops)
            wall["traced"].append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    k = 0
    while True:
        ops = wl.rounds[k % len(wl.rounds)]
        order = (plain_round, traced_round) if trace else (plain_round,)
        for run in order[:: -1 if k % 2 else 1]:
            run(ops)
        k += 1
        if time.perf_counter() - start >= seconds:
            return untraced, traced, wall, k, tracer


# ---------------------------------------------------------------- metrics


def end_to_end(records, round_walls, setup_s) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, informational extras).

    The listed figures are means over the whole timed run.  A shared machine
    changes speed in spells of seconds, and a median over a run's rounds or
    operations picks one spell's speed, so it jumps between runs where a mean
    moves smoothly with the share of the run each spell covered.
    ``op_gmean_ms`` is the geometric mean of the operations' latencies: every
    operation counts the same however long it is, as in a median, but no
    single operation decides it.  ``op_p50_ms`` is an order statistic of a
    mix of operation kinds that differ up to a thousandfold; which kind sits
    in the middle changes from run to run, so it is printed but not listed."""
    lat = [r["s"] for r in records]
    n = len(records)
    failed = sum(not r["ok"] for r in records)
    shots = sum(r["shots"] for r in records)
    wall = sum(round_walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / wall, "1/s"),
        "op_gmean_ms": (1e3 * math.exp(statistics.fmean(math.log(x) for x in lat)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extras = {"op_p50_ms": (1e3 * statistics.median(lat), "ms"), "error_rate": (failed / n, "ratio")}
    if n >= 100:  # a 90th percentile needs ten samples beyond it
        extras["op_p90_ms"] = (1e3 * statistics.quantiles(lat, n=10)[-1], "ms")
    if shots:
        extras["shots_per_s"] = (shots / wall, "1/s")
    return metrics, extras


def stamp(args, threads) -> dict:
    import numpy
    import scipy

    commit = "unknown"  # not a git checkout
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "os_threads": threads,
        "machine": platform.machine(),
    }


def print_metric(name, value, unit, note=""):
    print(f"  {name:30s} {value:14.6g} {unit:6s} {note}")


# ------------------------------------------------------------------- main


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; a table of every end-to-end metric."""
    rows, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        rows[name] = json.loads(lines[-1])
        code = code or (0 if rows[name]["correct"] else 1)
    names = [m for r in rows.values() for m in r["metrics"]]
    names = list(dict.fromkeys(names))
    print("\nworkload".ljust(16) + "".join(f"{n:>24s}" for n in names) + f"{'failed/attempted':>20s}")
    for wl, r in rows.items():
        cells = "".join(f"{r['metrics'][n]['value']:>18.6g} {r['metrics'][n]['unit']:5s}" for n in names)
        print(f"{wl:15s}{cells}{r['failed']:>12d}/{r['attempted']}")
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvverify" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'cvverify'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    n = nproc()
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    warnings.simplefilter("ignore")  # library warnings would be printed once per op
    workdir = WORK / str(os.getpid())
    try:
        wl, warmup_failure, own_setup = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup, "warmup_failure": warmup_failure}))
            return 0 if warmup_failure is None else 1
        setups = [own_setup] + probe_setups(args, SETUP_REPEATS - 1)
        records, traced, wall, rounds, tracer = run_rounds(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    threads = os_threads()

    metrics, extras = end_to_end(records, wall["untraced"], statistics.median(setups))
    failures = [r for r in records + traced if not r["ok"]]
    problems = [f"warm-up op failed: {warmup_failure}"] if warmup_failure else []
    if threads is not None and threads > n:
        problems.append(f"{threads} OS threads exceed nproc = {n}")
    layer = {}
    if args.trace:
        import tracing

        # the same rounds traced and not; the median pair keeps one slow spell out
        overhead = statistics.median(t / u for t, u in zip(wall["traced"], wall["untraced"])) - 1.0
        units = {name: unit for name, unit, _ in tracing.METRICS}
        layer = {k: {"value": v, "unit": units[k]}
                 for k, v in tracing.layer_metrics(tracer, len(wall["traced"]), overhead).items()}
        gap = tracing.accounting_gap_ns(tracer)
        if gap:
            problems.append(f"span self times miss an operation's wall time by {gap} ns")

    print(f"{args.workload}  seed={args.seed}  {len(records)} ops in {rounds} rounds, "
          f"{sum(wall['untraced']):.2f} s timed, {len(failures)} failed")
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit, f"(n={len(setups)} set-ups)" if name == "setup_s" else f"(n={len(records)} ops)")
    for name, (value, unit) in extras.items():
        print_metric(name, value, unit, "(info)")
    if layer:
        print(f"  per layer, per round ({len(wall['traced'])} traced rounds; traced ops_per_s "
              f"{len(traced) / sum(wall['traced']):.6g} against {len(records) / sum(wall['untraced']):.6g} untraced)")
        for name, m in layer.items():
            print_metric(name, m["value"], m["unit"])
    for r in failures[:10]:
        print(f"  FAILED {r['kind']}: {r['why'].splitlines()[0]}")
    for p in problems:
        print(f"  PROBLEM {p}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "stamp": stamp(args, threads),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extras}.items()},
        "per_layer": layer,
        "setups_s": setups,
        "rounds": rounds,
        "attempted": len(records) + len(traced),
        "failed": len(failures),
        "failures": [{"kind": r["kind"], "why": r["why"]} for r in failures],
        "problems": problems,
        "ops": _per_kind(records),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl.gz")
        out = layer
    else:
        listed = {m["name"] for m in end_to_end_spec()}
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in listed}
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(records) + len(traced),
        "failed": len(failures),
        "metrics": out,
    }))
    return 0


def _per_kind(records) -> dict:
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["s"])
    return {k: {"n": len(v), "median_ms": 1e3 * statistics.median(v)} for k, v in kinds.items()}


if __name__ == "__main__":
    sys.exit(main())
