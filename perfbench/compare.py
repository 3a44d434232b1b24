"""Compare two sets of benchmark result files: the parent commit against a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*.json`` result files that ``run.py`` writes (run
the same seeds on both sides, alternating which side runs first).  For every
workload and metric it prints each side's median and quartiles, the share of
seed-matched pairs the change wins, and a verdict:

* improved -- the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's own
  spread (the distance between its quartiles);
* regressed -- the same rule in the other direction, or the change's median
  is worse than the parent's by more than the metric's bound in
  BENCHMARK.json while the parent's spread is within that bound;
* unresolved -- anything else.

It warns when the environment stamps of the two sides differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Informational end-to-end figures that BENCHMARK.json does not list.
EXTRAS = {"shots_per_s": "higher", "op_p50_ms": "lower", "op_p90_ms": "lower", "error_rate": "lower"}
STAMP_KEYS = ("python", "numpy", "scipy", "nproc", "blas_threads", "machine", "seconds")


def load(directory: str) -> list[dict]:
    files = sorted(Path(directory).glob("*.json"))
    runs = [json.loads(f.read_text()) for f in files]
    return [r for r in runs if "stamp" in r]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: dict, change: dict, better: str, bound: float | None) -> tuple[str, float]:
    """``base``/``change`` map seed -> value.  Returns (verdict, share of pairs the change wins)."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(base) & set(change))
    if seeds:
        pairs = [(base[s], change[s]) for s in seeds]
    else:  # no common seeds: pair the runs in sorted order
        pairs = list(zip(sorted(base.values()), sorted(change.values())))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(list(base.values()))
    _, cmed, _ = quartiles(list(change.values()))
    spread = bq3 - bq1
    gain = sign * (cmed - bmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", share
    if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
        return "regressed", share
    if bound is not None and bmed and spread <= bound * abs(bmed) and -gain > bound * abs(bmed):
        return "regressed", share
    return "unresolved", share


def collect(runs: list[dict]) -> dict:
    """(workload, metric) -> {seed: value}, from the end-to-end and per-layer sections."""
    out: dict = {}
    for r in runs:
        st = r["stamp"]
        for section in ("end_to_end", "per_layer"):
            for name, m in r.get(section, {}).items():
                if section == "end_to_end" and st["trace"]:
                    continue  # end-to-end figures come from untraced runs only
                out.setdefault((st["workload"], name), {})[st["seed"]] = m["value"]
    return out


def stamp_differences(base: list[dict], change: list[dict]) -> list[str]:
    notes = []
    for key in STAMP_KEYS:
        b = {json.dumps(r["stamp"].get(key), sort_keys=True) for r in base}
        c = {json.dumps(r["stamp"].get(key), sort_keys=True) for r in change}
        if b != c:
            notes.append(f"warning: stamp {key!r} differs: parent {sorted(b)} vs change {sorted(c)}")
    return notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare parent and change benchmark result files.")
    p.add_argument("base", help="directory of the parent commit's result files")
    p.add_argument("change", help="directory of the change's result files")
    args = p.parse_args(argv)
    base, change = load(args.base), load(args.change)
    if not base or not change:
        print("error: each directory needs at least one result file", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    rules.update({k: (v, None) for k, v in EXTRAS.items()})
    for note in stamp_differences(base, change):
        print(note)
    b, c = collect(base), collect(change)
    print(f"{'workload':14s} {'metric':30s} {'parent q1/median/q3':>36s} {'change q1/median/q3':>36s}"
          f" {'wins':>6s}  verdict")
    for key in sorted(set(b) & set(c)):
        better, bound = rules.get(key[1], ("lower", None))
        v, share = verdict(b[key], c[key], better, bound)
        fb = "/".join(f"{x:.4g}" for x in quartiles(list(b[key].values())))
        fc = "/".join(f"{x:.4g}" for x in quartiles(list(c[key].values())))
        print(f"{key[0]:14s} {key[1]:30s} {fb:>36s} {fc:>36s} {share:6.0%}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
