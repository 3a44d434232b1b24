"""Command-line front end.

Subcommands: verify (run a scenario), oracle (true fidelity vs analytic
witness), plan (print the m+5 measurement plan), lemmas (Fock-oracle
operator-inequality suites), budget (sample-count table), sweep (accept rate
vs additive noise).  Scenario/config files are JSON documents; reports are
JSON (schema in cvverify/schemas/report.schema.json) or CSV.

Exit codes: 0 success, 1 file/parse error or a reader that closed stdout
early, 2 invalid value (any ValueError).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fock, protocols, symplectic
from .channels import ProverChannel, elementary_factors
from .gaussian import GaussianState
from .measurement import build_measurement_plan
from .protocols import VerificationConfig
from .symplectic import _as_int, _as_str, _read_object

MALFORMED = (KeyError, TypeError, OverflowError)  # OverflowError: a JSON integer past the float range


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read scenario {path!r}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"error: scenario {path!r} is not a JSON object")
    return data


# The reader of each scenario key; "config" is read first, so the game's errors come before the run's.
RUN = {"name": _as_str, "prover": ProverChannel.from_dict, "state": GaussianState.from_dict,
       "repetitions": _as_int, "seed": _as_int, "shot_cap": _as_int}


def _parse_scenario(data: dict) -> dict:
    try:
        cfg = VerificationConfig.from_dict(data["config"])
        read = _read_object(data, "scenario", {"config": lambda value, key: cfg, **RUN})
    except MALFORMED as exc:
        raise SystemExit(f"error: malformed scenario: {exc}")
    return {"prover": None, "state": None, "repetitions": 1, "seed": 0, "shot_cap": None, **read}


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.command}.json").write_text(text + "\n")
    print(text)


def cmd_verify(args) -> int:
    run = _parse_scenario(_load_json(args.config))
    cfg, prover, state = run["config"], run["prover"], run["state"]
    seed = args.seed if args.seed is not None else run["seed"]
    reps = args.reps if args.reps is not None else run["repetitions"]
    if cfg.protocol == "state":
        if state is None:
            raise ValueError('the state game verifies the scenario\'s "state", which is missing')
    elif prover is None:
        raise SystemExit("error: verify requires a prover in the scenario")
    else:
        state = protocols.output_state(prover, cfg)
    verdicts = protocols._verdicts(state, cfg, range(seed, seed + reps), run["shot_cap"])
    report = {
        "name": run.get("name", Path(args.config).stem),
        "accept_rate": sum(v.accepted for v in verdicts) / reps,
        "repetitions": reps,
        "seed": seed,
        "verdicts": [v.to_dict() for v in verdicts],
    }
    _emit(report, args)
    return 0


def cmd_oracle(args) -> int:
    run = _parse_scenario(_load_json(args.config))
    cfg, prover = run["config"], run["prover"]
    if cfg.protocol == "state":
        raise ValueError("oracle checks a prover channel's witness, and the state game has no prover channel")
    if prover is None:
        raise SystemExit("error: oracle requires a prover in the scenario")
    # every refusal comes before any Fock build: the cutoff's first, then the plan's
    # (a gain or a target whose plan leaves the float range), which the report reads
    if cfg.m == 1:  # the Fock cross-check runs on one mode only
        cutoff = fock.default_cutoff(cfg.lam) if args.cutoff is None else args.cutoff
        fock.check_cutoff(cutoff)
    elif args.cutoff is not None:
        raise ValueError(
            f"--cutoff sets the Fock cross-check, which runs at m = 1 only; this scenario has m = {cfg.m}"
        )
    report = protocols.oracle_report(prover, cfg)
    if cfg.m == 1:
        # t2: tanh^2 of the witness squeezer's angle
        if cfg.protocol == "amplification":
            W = fock.witness_fock_amp(cfg.g, cfg.lam, cutoff)
            t2 = (cfg.lam + 1.0) / cfg.g**2
        else:
            W = fock.witness_fock_unitary(cfg.target, cfg.lam, cutoff)
            t2 = 1.0 / (cfg.lam + 1.0)
        state = fock.entangled_output_fock(elementary_factors(prover), cfg.lam, cutoff)
        report["fock_omega"] = fock.expectation(W, state)
        if not np.isfinite(report["fock_omega"]):
            raise ValueError(f"Fock witness {report['fock_omega']} is not finite")
        report["fock_cutoff"] = cutoff
        report["fock_state_leakage"] = state.leakage
        report["fock_squeezer_leakage"] = t2**cutoff
    _emit(report, args)
    return 0


def cmd_plan(args) -> int:
    settings = [{"id": j, "label": s.label,
                 "angles": [None if a is None else float(a) for a in s.angles]}
                for j, s in enumerate(build_measurement_plan(args.m))]
    for s in settings:
        angles = ", ".join("-" if a is None else f"{a:.3f}" for a in s["angles"])
        print(f"setting {s['id']:2d}  [{angles}]  {s['label']}")
    _emit({"m": args.m, "n_settings": len(settings), "settings": settings}, args)
    return 0


def cmd_lemmas(args) -> int:
    cutoff = args.cutoff
    thetas = [float(t) for t in args.thetas.split(",")]
    damping = [(theta, fock.g_theta(theta, cutoff)) for theta in thetas]  # fock refuses the cutoff first
    results = []
    ok = True

    # damping-operator inequality: G^(x)m >= 1 - sum n_i / cosh^2(theta); both
    # sides are diagonal, so the least diagonal entry is the least eigenvalue
    n = np.arange(cutoff, dtype=float)
    for theta, g in damping:
        for m in (1, 2):
            if m == 1:
                lhs = g - (1.0 - n / np.cosh(theta) ** 2)
            else:
                lhs = np.outer(g, g) - (1.0 - np.add.outer(n, n) / np.cosh(theta) ** 2)
            min_eig = float(lhs.min())
            passed = min_eig >= -1e-10
            ok &= passed
            results.append({
                "suite": "damping-inequality", "theta": theta, "m": m,
                "min_eigenvalue": min_eig, "passed": passed,
            })

    # canonical observable vs closed forms at lam = 1, block by block
    lam = 1.0
    small = min(cutoff, 14)
    for g in (1.0, 2.0):
        diff = fock.canonical_observable(g, lam, small) - fock.canonical_observable_closed_form(g, lam, small)
        dev = float(np.max(np.abs(diff.sectors)))
        passed = dev <= 1e-3
        ok &= passed
        results.append({
            "suite": "closed-form", "g": g, "lam": lam, "cutoff": small,
            "max_deviation": dev, "passed": passed,
        })

    # witness below observable (same-cutoff squeezer on both sides, so the
    # operator inequality holds exactly, not just up to truncation); both
    # sides conserve n1 - n2, so the spectrum is read block by block
    for g, builder in ((1.0, None), (2.0, "amp")):
        small2 = min(cutoff, 16)
        O = fock.canonical_observable_closed_form(g, lam, small2, embed_cutoff=small2)
        if builder == "amp":
            W = fock.witness_fock_amp(g, lam, small2)
        else:
            W = fock.witness_fock_unitary(symplectic.identity(1), lam, small2)
        max_eig = fock.max_eigenvalue(W - O)
        passed = max_eig <= 1e-10
        ok &= passed
        results.append({
            "suite": "witness-below-observable", "g": g, "cutoff": small2,
            "max_eigenvalue": max_eig, "passed": passed,
        })

    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        detail = {k: v for k, v in r.items() if k not in ("suite", "passed")}
        print(f"{status}  {r['suite']}  {detail}")
    _emit({"results": results, "all_passed": ok}, args)
    return 0 if ok else 1


def cmd_budget(args) -> int:
    cfg = _parse_scenario(_load_json(args.config))["config"]
    budget = protocols.sample_budget(cfg)
    report = {"config": cfg.to_dict(), "budget": budget.to_dict()}
    for name, count in sorted(budget.counts.items()):
        print(f"{name}: {count}")
    print(f"channel uses: {budget.channel_uses}")
    print(f"entangled-pair copies: {budget.tmsv_copies}")
    _emit(report, args)
    return 0


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    for flag, v in (("--v-min", args.v_min), ("--v-max", args.v_max)):
        if not (math.isfinite(v) and v >= 0):  # refused before the first row is printed
            raise ValueError(f"{flag} must be finite and nonnegative, got {v}")
    if args.format == "csv" and not args.out:
        raise ValueError("--format csv writes sweep.csv into the --out directory, and no --out is given")
    run = _parse_scenario(_load_json(args.config))
    cfg, shot_cap = run["config"], run["shot_cap"]
    seed = args.seed if args.seed is not None else run["seed"]
    reps = args.reps if args.reps is not None else run["repetitions"]
    variances = np.linspace(args.v_min, args.v_max, args.points)
    rows = []
    for v in variances:
        prover = ProverChannel("AdditiveNoise", variance=float(v), n_modes=cfg.m)
        omega = protocols.witness_analytic(prover, cfg)  # before sampling: it says why a state game fails
        rate, _ = protocols.accept_rate(prover, cfg, reps, seed, shot_cap)
        rows.append({"variance": float(v), "accept_rate": rate, "analytic_omega": omega})
        print(f"v={v:.4f}  omega={omega:+.4f}  accept_rate={rate:.3f}")
    report = {"sweep": rows, "repetitions": reps, "seed": seed}
    if args.format == "csv":
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["variance,accept_rate,analytic_omega"]
        lines += [f"{r['variance']},{r['accept_rate']},{r['analytic_omega']}" for r in rows]
        (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    else:
        _emit(report, args)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse's set-up
    costs about as much as a small command."""
    parser = argparse.ArgumentParser(
        prog="cvverify",
        description="Verification of bosonic Gaussian channels via average-fidelity witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("verify", help="run the verification protocol")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)

    p = sub.add_parser("oracle", help="true fidelity vs analytic witness")
    common(p)
    p.add_argument("--cutoff", type=int, default=None, help="Fock cutoff for m=1 cross-check")

    p = sub.add_parser("plan", help="print the m+5 homodyne settings")
    p.add_argument("m", type=int)
    common(p, needs_config=False)

    p = sub.add_parser("lemmas", help="Fock-oracle operator-inequality suites")
    p.add_argument("--cutoff", type=int, default=30, help="Fock cutoff of the damping suite; the closed-form "
                   "suite runs at min(cutoff, 14) and the witness suite at min(cutoff, 16)")
    p.add_argument("--thetas", default="0.1,0.5,1.0,2.0")
    common(p, needs_config=False)

    p = sub.add_parser("budget", help="sample-count table for a config")
    common(p)

    p = sub.add_parser("sweep", help="accept rate vs additive-noise variance")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--v-min", type=float, default=0.0)
    p.add_argument("--v-max", type=float, default=0.5)
    p.add_argument("--points", type=int, default=6)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # read at call time, so a command replaced on the module is the one that runs
    commands = {"verify": cmd_verify, "oracle": cmd_oracle, "plan": cmd_plan,
                "lemmas": cmd_lemmas, "budget": cmd_budget, "sweep": cmd_sweep}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:  # the reader closed stdout: what is left unwritten goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
