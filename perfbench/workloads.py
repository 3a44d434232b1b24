"""The three benchmark workloads: which operations a round runs, and how each output is checked.

A workload is built from a seed into a list of rounds.  Every round holds the
same operations in the same order (only the drawn targets, prover parameters
and verdict seeds differ between rounds), so a run that completes whole rounds
does the same mix of work on every seed.  Operations call the library through
module attributes (``protocols.run_verification``, not a bound name) so that
the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cvverify import channels, cli, fock, gaussian, protocols, symplectic

LAM = 1.0
DELTA = 0.25
SHOT_CAP = 10_000  # the cap of the README scenario and of acceptance test 6
FOCK_TOL = 1e-3  # dual-path and closed-form tolerance of the test suite
INPUT_SETS = 4  # distinct round inputs; rounds cycle through them

@dataclass
class Op:
    """One checked operation: ``call`` is timed, ``check`` is not.

    ``check`` returns None when the output is right and a reason otherwise.
    ``shots`` counts the homodyne shots the operation simulates.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    shots: int = 0


@dataclass
class Workload:
    rounds: list  # list[list[Op]], one list per input set
    warmup: Op


# ---------------------------------------------------------------- helpers


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _target(rng: np.random.Generator, m: int, r_max: float, d_norm: float):
    """Random target from ``random_symplectic`` with |d| fixed, so the budget
    (which grows with |d|) does not vary from seed to seed."""
    spec = symplectic.random_symplectic(m, r_max=r_max, d_scale=1.0, rng=rng)
    d = spec.d * (d_norm / np.linalg.norm(spec.d)) if d_norm else np.zeros(2 * m)
    return symplectic.SymplecticSpec(spec.S, d)


def _label(omega: float, threshold: float, margin: float):
    """True (clearly honest), False (clearly dishonest) or None (too close to call)."""
    if omega >= threshold + margin:
        return True
    if omega <= threshold - margin:
        return False
    return None


def _shots(cfg, cap: int | None) -> int:
    """Homodyne shots one verdict simulates, from the public budget counts after the cap."""
    c = {k: v if cap is None else min(v, cap) for k, v in protocols.sample_budget(cfg).counts.items()}
    m = cfg.m
    if cfg.protocol == "unitary":
        return 2 * m * c["c3"] + m * (2 * m + 1) * c["c4"] + 4 * m * m * c["c5"]
    if cfg.protocol == "amplification":
        return 2 * c["c6"] + 2 * c["c7"]
    # state game: two mean batches (when d != 0) and 3 + m second-moment batches
    return (2 * c["c1"] if c["c1"] else 0) + (3 + m) * c["c2"]


def _check_verdict(v, expect, threshold: float, counts: dict) -> str | None:
    if not math.isfinite(v.omega_star):
        return "omega* is not finite"
    if v.accepted != (v.omega_star >= threshold):
        return "verdict disagrees with omega* against the threshold"
    if dict(v.budget.counts) != counts:
        return f"budget {v.budget.counts} differs from sample_budget {counts}"
    if expect is not None and v.accepted != expect:
        who = "honest prover rejected" if expect else "dishonest prover accepted"
        return f"{who}: omega*={v.omega_star:.4f}, threshold {threshold:.4f}"
    return None


def _verdict_op(kind, prover, cfg, seed, cap, margin) -> Op:
    threshold = cfg.F_t + cfg.epsilon
    expect = _label(protocols.witness_analytic(prover, cfg), threshold, margin)
    counts = dict(protocols.sample_budget(cfg).counts)
    return Op(
        kind,
        lambda: protocols.run_verification(prover, cfg, seed, cap),
        lambda v: _check_verdict(v, expect, threshold, counts),
        _shots(cfg, cap),
    )


def _state_op(kind, state, cfg, seed, cap, margin) -> Op:
    threshold = cfg.F_t + cfg.epsilon
    exact = protocols.witness_estimate_state(
        state.mean, state.cov + np.outer(state.mean, state.mean), cfg
    )
    expect = _label(exact, threshold, margin)
    counts = dict(protocols.sample_budget(cfg).counts)
    return Op(
        kind,
        lambda: protocols.run_state_verification(state, cfg, seed, cap),
        lambda v: _check_verdict(v, expect, threshold, counts),
        _shots(cfg, cap),
    )


def _pure_state(spec) -> gaussian.GaussianState:
    """U_{S,d}|0>^m, the state the state game's target describes."""
    return gaussian.GaussianState(spec.d, 0.5 * spec.S @ spec.S.T)


def _noisy_state(spec, v: float) -> gaussian.GaussianState:
    return gaussian.GaussianState(spec.d, 0.5 * spec.S @ spec.S.T + v * np.eye(spec.S.shape[0]))


def _cli_report(argv: list[str]):
    """Run ``cvverify <argv>`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(kind, argv, check_report, shots=0) -> Op:
    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        start = text.find("{\n")  # the indented JSON report ends stdout
        if start < 0:
            return "no JSON report on stdout"
        return check_report(json.loads(text[start:]))

    return Op(kind, lambda: _cli_report(argv), check, shots)


def _write_scenario(path: Path, cfg, prover=None, **run) -> str:
    data = {"name": path.stem, "config": cfg.to_dict(), **run}
    if prover is not None:
        data["prover"] = prover.to_dict()
    path.write_text(json.dumps(data))
    return str(path)


def _unitary_cfg(spec, F_t, epsilon):
    return protocols.VerificationConfig("unitary", lam=LAM, F_t=F_t, delta=DELTA, epsilon=epsilon, target=spec)


def _state_cfg(spec, F_t, epsilon):
    return protocols.VerificationConfig("state", lam=LAM, F_t=F_t, delta=DELTA, epsilon=epsilon, target=spec)


def _amp_cfg(g, F_t, epsilon):
    return protocols.VerificationConfig("amplification", lam=LAM, F_t=F_t, delta=DELTA, epsilon=epsilon, g=g)


def _six_provers(rng, m: int, spec) -> list:
    """One prover of each of the six kinds, parameters drawn from ``rng``."""
    P = channels.ProverChannel
    return [
        channels.exact_unitary(spec),
        P("NoisyUnitary", spec=spec, excess=float(rng.uniform(0.02, 0.3))),
        P("QuantumLimitedAmplifier", g=float(rng.uniform(1.05, 1.5)), n_modes=m),
        P("NoisyAmplifier", g=float(rng.uniform(1.05, 1.5)), excess=float(rng.uniform(0.02, 0.2)), n_modes=m),
        P("Attenuator", eta=float(rng.uniform(0.5, 0.95)), excess=float(rng.uniform(0.0, 0.1)), n_modes=m),
        P("AdditiveNoise", variance=float(rng.uniform(0.02, 1.0)), n_modes=m),
    ]


# ----------------------------------------------------------- full-budget

# Threshold and accuracy of the uncapped games.  Each game gets its own epsilon
# so that every verdict samples between one and twenty million shots and takes
# 0.1-2 s on one core: a verdict that short is dominated by the machine's
# momentary speed, not by its own work, and widens the run-to-run spread.
# epsilon = 0.06 keeps an m=2 verdict near two seconds while its cross-moment
# batches still hold about a million shots; full budgets at m >= 3 are left
# out (README.md).
FULL_F_T = 0.8
FULL_EPSILON = {"unitary-m1": 0.03, "unitary-m2": 0.06, "state": 0.01}
FULL_AMP = dict(F_t=0.15, epsilon=0.003)
FULL_MARGIN = 0.05  # full budgets estimate omega to ~1e-2; honest/dishonest sit >= 0.1 away


def _full_budget_round(seed: int, k: int) -> list[Op]:
    """10 verdicts, an honest and a dishonest prover for each of five games.
    Squeezing stays below r = 0.01 because the budget grows as |S|^4."""
    rng = _rng(seed, 0, k)
    ops: list[Op] = []
    vseed = 1000 * k
    P = channels.ProverChannel

    def game(m, spec, tag):
        cfg = _unitary_cfg(spec, FULL_F_T, FULL_EPSILON[f"unitary-m{m}"])
        noisy = P("AdditiveNoise", variance=float(rng.uniform(0.8, 1.2)), n_modes=m)
        ops.append(_verdict_op(f"unitary-m{m}-honest", channels.exact_unitary(spec), cfg, vseed + tag, None,
                               FULL_MARGIN))
        ops.append(_verdict_op(f"unitary-m{m}-dishonest", noisy, cfg, vseed + tag + 1, None, FULL_MARGIN))

    def state_game(m, spec, tag):
        cfg = _state_cfg(spec, FULL_F_T, FULL_EPSILON["state"])
        ops.append(_state_op(f"state-m{m}-honest", _pure_state(spec), cfg, vseed + tag, None, FULL_MARGIN))
        ops.append(_state_op(f"state-m{m}-dishonest", _noisy_state(spec, float(rng.uniform(0.4, 0.6))),
                             cfg, vseed + tag + 1, None, FULL_MARGIN))

    # unitary game: m=1 with a displacement (c3, c4, c5 all run), m=2 with d=0
    m1_target = _target(rng, 1, 0.01, 0.5)
    m2_target = _target(rng, 2, 0.01, 0.0)
    game(1, m1_target, 0)
    game(2, m2_target, 30)
    state_game(1, m1_target, 40)
    state_game(2, m2_target, 50)
    g = float(rng.uniform(2.3, 2.7))
    acfg = _amp_cfg(g, **FULL_AMP)
    ops.append(_verdict_op("amplification-honest", channels.optimal_amplifier(g, LAM), acfg, vseed + 60, None,
                           FULL_MARGIN))
    ops.append(_verdict_op("amplification-dishonest", P("Attenuator", eta=float(rng.uniform(0.5, 0.9))),
                           acfg, vseed + 61, None, FULL_MARGIN))
    return ops


def full_budget(seed: int, workdir: Path) -> Workload:
    rounds = [_full_budget_round(seed, k) for k in range(INPUT_SETS)]
    return Workload(rounds, _full_budget_round(seed, INPUT_SETS)[0])


# ---------------------------------------------------------- capped-sweep

CAPPED_UNITARY = dict(F_t=0.9, epsilon=0.04)  # the README / acceptance-test-6 game
CAPPED_AMP = dict(F_t=0.15, epsilon=0.04)
# Half-width of the "too close to call" band around the threshold at shot_cap,
# about eight standard deviations of omega* - omega: the unitary estimate sums
# O(m^2) moments of 1e4 shots each (std 0.027, 0.046, 0.055, 0.059 at m=1..4),
# the state and amplification estimates have std <= 0.015.
CAPPED_MARGIN = {1: 0.25, 2: 0.4, 3: 0.5, 4: 0.55}
SMALL_MARGIN = 0.1


def _capped_round(seed: int, k: int, workdir: Path) -> list[Op]:
    """43 operations.  The 21 cheapest (amplification, state, m=1 verdicts and
    ``cli budget``) sort below the six m=2 verdicts, so the median latency
    falls inside the m=2 class."""
    rng = _rng(seed, 1, k)
    ops: list[Op] = []
    vseed = 1000 * k
    cap = SHOT_CAP
    for m in (1, 2, 3, 4):
        spec = _target(rng, m, 0.3, 0.5)
        cfg = _unitary_cfg(spec, **CAPPED_UNITARY)
        for i, prover in enumerate(_six_provers(rng, m, spec)):
            ops.append(_verdict_op(f"unitary-m{m}-{prover.kind}", prover, cfg, vseed + i, cap, CAPPED_MARGIN[m]))
        scfg = _state_cfg(spec, **CAPPED_UNITARY)
        ops.append(_state_op(f"state-m{m}-honest", _pure_state(spec), scfg, vseed + 7, cap, SMALL_MARGIN))
        ops.append(_state_op(f"state-m{m}-thermal", _noisy_state(spec, float(rng.uniform(0.05, 0.5))),
                             scfg, vseed + 8, cap, SMALL_MARGIN))
        vseed += 10

    g = float(rng.uniform(2.3, 2.7))
    acfg = _amp_cfg(g, **CAPPED_AMP)
    amp_provers = _six_provers(rng, 1, _target(rng, 1, 0.3, 0.5))
    amp_provers[2] = channels.optimal_amplifier(g, LAM)  # the honest amplifier
    for i, prover in enumerate(amp_provers):
        ops.append(_verdict_op(f"amplification-{prover.kind}", prover, acfg, vseed + i, cap, SMALL_MARGIN))

    # true fidelity (channels Monte Carlo) against the analytic witness
    spec2, spec3 = _target(rng, 2, 0.3, 0.5), _target(rng, 3, 0.3, 0.5)
    for kind, prover, cfg in (
        ("oracle-unitary-m2", channels.ProverChannel("NoisyUnitary", spec=spec2, excess=0.1),
         _unitary_cfg(spec2, **CAPPED_UNITARY)),
        ("oracle-unitary-m3", channels.ProverChannel("Attenuator", eta=0.9, excess=0.02, n_modes=3),
         _unitary_cfg(spec3, **CAPPED_UNITARY)),
    ):
        ops.append(Op(kind, lambda p=prover, c=cfg, s=vseed: protocols.oracle_report(p, c, s), _check_oracle))

    # the CLI on scenario files: verify, sweep and budget
    spec_v = _target(rng, 2, 0.3, 0.5)
    vcfg = _unitary_cfg(spec_v, **CAPPED_UNITARY)
    vprover = channels.ProverChannel("AdditiveNoise", variance=float(rng.uniform(0.5, 1.0)), n_modes=2)
    reps = 2
    path = _write_scenario(workdir / f"verify-{k}.json", vcfg, vprover,
                           repetitions=reps, seed=vseed, shot_cap=cap)
    expect = _label(protocols.witness_analytic(vprover, vcfg), vcfg.F_t + vcfg.epsilon, CAPPED_MARGIN[2])
    ops.append(_cli_op("cli-verify", ["verify", "--config", path],
                       lambda r, e=expect: _check_cli_verify(r, reps, e), reps * _shots(vcfg, cap)))

    spec_s = _target(rng, 1, 0.3, 0.0)
    sweep_cfg = _unitary_cfg(spec_s, **CAPPED_UNITARY)
    path = _write_scenario(workdir / f"sweep-{k}.json", sweep_cfg, repetitions=reps, seed=vseed, shot_cap=cap)
    points = 4
    ops.append(_cli_op("cli-sweep", ["sweep", "--config", path, "--points", str(points), "--v-max", "1.0"],
                       lambda r, c=sweep_cfg: _check_cli_sweep(r, c, points, reps),
                       points * reps * _shots(sweep_cfg, cap)))

    bcfg = _unitary_cfg(_target(rng, 3, 0.3, 0.5), **CAPPED_UNITARY)
    path = _write_scenario(workdir / f"budget-{k}.json", bcfg)
    counts = dict(protocols.sample_budget(bcfg).counts)
    ops.append(_cli_op("cli-budget", ["budget", "--config", path],
                       lambda r, c=counts: None if r["budget"]["counts"] == c else f"counts {r['budget']['counts']} != {c}"))
    return ops


def _check_oracle(report: dict) -> str | None:
    if not all(math.isfinite(report[k]) for k in ("true_fidelity", "analytic_omega")):
        return "non-finite oracle value"
    if not report["witness_below_fidelity"]:
        return f"witness {report['analytic_omega']:.4f} above true fidelity {report['true_fidelity']:.4f}"
    return None


def _check_cli_verify(report: dict, reps: int, expect) -> str | None:
    verdicts = report["verdicts"]
    if len(verdicts) != reps:
        return f"{len(verdicts)} verdicts, expected {reps}"
    if not all(math.isfinite(v["omega_star"]) for v in verdicts):
        return "omega* is not finite"
    rate = sum(v["accepted"] for v in verdicts) / reps
    if rate != report["accept_rate"]:
        return "accept_rate disagrees with the verdicts"
    if expect is not None and rate != float(expect):
        return f"accept rate {rate} for a prover labelled {'honest' if expect else 'dishonest'}"
    return None


def _check_cli_sweep(report: dict, cfg, points: int, reps: int) -> str | None:
    rows = report["sweep"]
    if len(rows) != points:
        return f"{len(rows)} sweep rows, expected {points}"
    threshold = cfg.F_t + cfg.epsilon
    for row in rows:
        prover = channels.ProverChannel("AdditiveNoise", variance=row["variance"], n_modes=cfg.m)
        if abs(row["analytic_omega"] - protocols.witness_analytic(prover, cfg)) > 1e-12:
            return "analytic omega differs from witness_analytic"
        expect = _label(row["analytic_omega"], threshold, CAPPED_MARGIN[cfg.m])
        if expect is not None and row["accept_rate"] != float(expect):
            return f"accept rate {row['accept_rate']} at variance {row['variance']:.3f}"
    return None


def capped_sweep(seed: int, workdir: Path) -> Workload:
    rounds = [_capped_round(seed, k, workdir) for k in range(INPUT_SETS)]
    return Workload(rounds, _capped_round(seed, INPUT_SETS, workdir)[0])


# ------------------------------------------------------------ fock-oracle

FOCK_AMP_G = 2.0  # the amplification witness of acceptance test 5


def _dual_path_op(kind, prover, cfg, cutoff) -> Op:
    """entangled_output_fock -> witness_fock_* -> expectation, against witness_analytic."""

    def call():
        state = fock.entangled_output_fock(channels.elementary_factors(prover), LAM, cutoff)
        if cfg.protocol == "amplification":
            W = fock.witness_fock_amp(cfg.g, LAM, cutoff)
        else:
            W = fock.witness_fock_unitary(cfg.target, LAM, cutoff)
        return fock.expectation(W, state), protocols.witness_analytic(prover, cfg)

    def check(result):
        fock_omega, analytic = result
        dev = abs(fock_omega - analytic)
        return None if dev <= FOCK_TOL else f"dual-path deviation {dev:.2e} > {FOCK_TOL:.0e}"

    return Op(f"{kind}-c{cutoff}", call, check)


def _closed_form_op(g: float) -> Op:
    def call():
        O = fock.canonical_observable(g, LAM, 14, check_convergence=True).matrix
        C = fock.canonical_observable_closed_form(g, LAM, 14).matrix
        return float(np.max(np.abs(O - C)))

    return Op(f"closed-form-g{g:g}", call,
              lambda dev: None if dev <= FOCK_TOL else f"closed-form deviation {dev:.2e} > {FOCK_TOL:.0e}")


def _fock_round(seed: int, k: int, workdir: Path) -> list[Op]:
    rng = _rng(seed, 2, k)
    P = channels.ProverChannel
    identity = symplectic.identity(1)
    acfg = _amp_cfg(FOCK_AMP_G, F_t=0.3, epsilon=0.04)  # g = lam + 1 warns; the runner ignores warnings
    spec = _target(rng, 1, 0.25, 0.4)
    noisy_spec = _target(rng, 1, 0.25, 0.0)
    cases = [
        ("ExactUnitary", channels.exact_unitary(spec), _unitary_cfg(spec, 0.5, 0.02)),
        ("NoisyUnitary", P("NoisyUnitary", spec=noisy_spec, excess=float(rng.uniform(0.05, 0.15))),
         _unitary_cfg(noisy_spec, 0.5, 0.02)),
        ("AdditiveNoise", P("AdditiveNoise", variance=float(rng.uniform(0.1, 0.3))), _unitary_cfg(identity, 0.5, 0.02)),
        ("Attenuator", P("Attenuator", eta=float(rng.uniform(0.7, 0.9)), excess=float(rng.uniform(0.02, 0.08))),
         _unitary_cfg(identity, 0.5, 0.02)),
        # g <= 1.2 as in acceptance test 5: at g = 1.3 the cutoff-20 truncation error alone is 1.6e-3
        ("QuantumLimitedAmplifier", P("QuantumLimitedAmplifier", g=float(rng.uniform(1.05, 1.2))),
         _unitary_cfg(identity, 0.5, 0.02)),
        ("amp-QuantumLimitedAmplifier", P("QuantumLimitedAmplifier", g=float(rng.uniform(1.2, 1.4))), acfg),
        ("amp-NoisyAmplifier", P("NoisyAmplifier", g=float(rng.uniform(1.05, 1.2)), excess=float(rng.uniform(0.05, 0.15))),
         acfg),
    ]
    # The parameter ranges keep the cutoff-20 truncation error below half the
    # 1e-3 tolerance at their corners; it falls about fivefold at cutoff 24.
    ops = [_dual_path_op(kind, p, cfg, cutoff) for cutoff in (fock.default_cutoff(LAM), 24) for kind, p, cfg in cases]
    ops += [_closed_form_op(1.0), _closed_form_op(2.0)]

    oprover = P("NoisyUnitary", spec=spec, excess=float(rng.uniform(0.02, 0.08)))
    ocfg = _unitary_cfg(spec, 0.5, 0.02)
    path = _write_scenario(workdir / f"oracle-{k}.json", ocfg, oprover, seed=1000 * k)
    ops.append(_cli_op("cli-oracle-m1", ["oracle", "--config", path], _check_cli_oracle))
    ops.append(_cli_op("cli-lemmas-c30", ["lemmas", "--cutoff", "30"],
                       lambda r: None if r["all_passed"] else "an operator-inequality suite failed"))
    return ops


def _check_cli_oracle(report: dict) -> str | None:
    dev = abs(report["fock_omega"] - report["analytic_omega"])
    if dev > FOCK_TOL:
        return f"oracle Fock/analytic deviation {dev:.2e} > {FOCK_TOL:.0e}"
    return _check_oracle(report)


def fock_oracle(seed: int, workdir: Path) -> Workload:
    rounds = [_fock_round(seed, k, workdir) for k in range(INPUT_SETS)]
    return Workload(rounds, _fock_round(seed, INPUT_SETS, workdir)[0])


BUILDERS = {"full-budget": full_budget, "capped-sweep": capped_sweep, "fock-oracle": fock_oracle}
