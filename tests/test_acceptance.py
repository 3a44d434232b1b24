"""Acceptance suite: one pass/fail line per criterion, printed on the fly.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import numpy as np
import pytest

from builders import random_prover
from cvverify import fock, gaussian as ga, measurement as ms, symplectic as sp
from cvverify.channels import (
    AmplificationTarget,
    ProverChannel,
    average_fidelity,
    elementary_factors,
    exact_unitary,
    optimal_amplifier,
)
from cvverify.protocols import (
    VerificationConfig,
    kappa_for,
    plan_unitary,
    run_verification,
    sample_budget,
    witness_analytic,
)
from test_measurement import sample_quadratures


def rounding_slack(lam: float) -> float:
    """How far rounding may lift the analytic witness above the exact
    fidelity: omega's moments grow like the TMSV quadrature variance
    (lam + 2)/(2 lam), so its rounding grows like eps (1 + 1/lam)^2."""
    return 64.0 * np.finfo(float).eps * (1.0 + 1.0 / lam) ** 2


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE [{criterion}]: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_1_damping_operator_inequality():
    """G_theta^(x)m dominates 1 - sum n_i / cosh^2 theta, with equality on
    total photon numbers 0 and 1."""
    worst = np.inf
    equality_ok = True
    for theta in (0.1, 0.5, 1.0, 2.0):
        sech2 = 1.0 / np.cosh(theta) ** 2
        for m in (1, 2):
            cutoff = 30
            g = fock.g_theta(theta, cutoff)
            n = np.arange(cutoff)
            if m == 1:
                diag = g - (1.0 - n * sech2)
                total = n
            else:
                diag = np.add.outer(np.log(g), np.log(g))
                diag = np.exp(diag).ravel() - (1.0 - np.add.outer(n, n).ravel() * sech2)
                total = np.add.outer(n, n).ravel()
            worst = min(worst, float(diag.min()))
            low = diag[total <= 1]
            high = diag[total >= 2]
            equality_ok &= bool(np.max(np.abs(low)) <= 1e-12 and high.min() > 0)
    ok = worst >= -1e-10 and equality_ok
    report("1 damping-operator inequality", ok,
           f"min eigenvalue {worst:.2e}, equality on photon sectors 0-1: {equality_ok}")
    assert ok


def test_2_canonical_observable_closed_forms():
    """Integrated canonical observable matches both closed-form branches."""
    lam, cutoff = 1.0, 14
    devs = {}
    for g in (1.0, 2.0):
        O = fock.canonical_observable(g, lam, cutoff).matrix
        C = fock.canonical_observable_closed_form(g, lam, cutoff).matrix
        devs[g] = float(np.max(np.abs(O - C)))
    ok = all(d <= 1e-3 for d in devs.values())
    report("2 closed-form observables", ok,
           ", ".join(f"g={g}: dev {d:.2e}" for g, d in devs.items()))
    assert ok


def test_3_honest_prover_identities():
    """Analytic witness values at the optimal channels, plus the exact
    average fidelity at the amplification maximum."""
    rng = np.random.default_rng(0)
    dev_u = 0.0
    for m in (1, 2):
        spec = sp.random_symplectic(m, r_max=0.8, d_scale=0.6, rng=rng)
        cfg = VerificationConfig("unitary", lam=1.2, F_t=0.5, delta=0.25,
                                 epsilon=0.02, target=spec)
        dev_u = max(dev_u, abs(witness_analytic(exact_unitary(spec), cfg) - 1.0))

    g, lam = 2.0, 1.0
    with pytest.warns(UserWarning):
        cfg_a = VerificationConfig("amplification", lam=lam, F_t=0.3, delta=0.25,
                                   epsilon=0.04, g=g)
    omega_a = witness_analytic(optimal_amplifier(g, lam), cfg_a)
    dev_a = abs(omega_a - 0.5)
    dev_f = abs(average_fidelity(optimal_amplifier(g, lam), AmplificationTarget(g), lam) - 0.5)
    ok = dev_u <= 1e-12 and dev_a <= 1e-10 and dev_f <= 1e-12
    report("3 honest-prover identities", ok,
           f"unitary dev {dev_u:.1e}, amp dev {dev_a:.1e}, fidelity dev {dev_f:.1e}")
    assert ok


def test_4_witness_lower_bound():
    """Analytic witness never exceeds the true average fidelity."""
    rng = np.random.default_rng(42)
    violations = 0
    n_cases = 50
    for _ in range(n_cases):
        m = int(rng.integers(1, 3))
        p = random_prover(rng, n_modes=m)
        spec = (
            p.spec if p.spec is not None
            else sp.random_symplectic(m, r_max=1.0, d_scale=0.5, rng=rng)
        )
        assert sp.spectral_norm(spec) <= np.e
        lam = float(rng.uniform(0.7, 1.6))
        cfg = VerificationConfig("unitary", lam=lam, F_t=0.5, delta=0.25,
                                 epsilon=0.02, target=spec)
        omega = witness_analytic(p, cfg)
        rng.integers(1 << 31)  # a spare draw that keeps the later cases fixed
        violations += omega > average_fidelity(p, spec, lam) + rounding_slack(lam)
    ok = violations == 0
    report("4 witness lower bound", ok, f"{violations}/{n_cases} violations")
    assert ok


def test_5_dual_path_equality():
    """Analytic witness equals the Fock-oracle witness expectation at m = 1."""
    lam, cutoff = 1.0, 24
    provers_unitary = [
        exact_unitary(sp.identity(1)),
        exact_unitary(sp.SymplecticSpec(np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]]),
                                        np.zeros(2))),
        ProverChannel("NoisyUnitary", spec=sp.SymplecticSpec(np.diag([np.exp(0.25), np.exp(-0.25)]), np.zeros(2)),
                      excess=0.15),
        ProverChannel("AdditiveNoise", variance=0.2),
        ProverChannel("Attenuator", eta=0.8, excess=0.05),
        ProverChannel("QuantumLimitedAmplifier", g=1.2),
        exact_unitary(sp.SymplecticSpec(np.eye(2), np.array([0.4, -0.2]))),
    ]
    provers_amp = [
        optimal_amplifier(2.0, lam),  # identity at lam=1, g=2: IS the optimum
        ProverChannel("QuantumLimitedAmplifier", g=1.3),
        ProverChannel("NoisyAmplifier", g=1.1, excess=0.1),
    ]
    worst = 0.0
    with pytest.warns(UserWarning):
        cfg_a = VerificationConfig("amplification", lam=lam, F_t=0.3, delta=0.25,
                                   epsilon=0.04, g=2.0)
    W_amp = fock.witness_fock_amp(2.0, lam, cutoff)
    for p in provers_unitary:
        target = p.spec if p.spec is not None else sp.identity(1)
        cfg = VerificationConfig("unitary", lam=lam, F_t=0.5, delta=0.25,
                                 epsilon=0.02, target=target)
        W = fock.witness_fock_unitary(target, lam, cutoff)
        st = fock.entangled_output_fock(elementary_factors(p), lam, cutoff)
        worst = max(worst, abs(witness_analytic(p, cfg) - fock.expectation(W, st)))
    for p in provers_amp:
        st = fock.entangled_output_fock(elementary_factors(p), lam, cutoff)
        worst = max(worst, abs(witness_analytic(p, cfg_a) - fock.expectation(W_amp, st)))
    ok = worst <= 1e-3
    report("5 dual-path equality", ok, f"10 provers, worst deviation {worst:.2e}")
    assert ok


@pytest.mark.parametrize("gain, cutoff", [(1.6, 64), (2.0, 96)])
def test_5_dual_path_at_the_papers_gains(gain, cutoff):
    """Dual-path equality for quantum-limited amplifiers of gain >= 1.6 under
    the g = 2 witness, at cutoffs where the truncation error falls below the
    tolerance (at cutoff 24 it is 3.7e-3 for g = 1.6 and 8.7e-2 for g = 2)."""
    lam = 1.0
    with pytest.warns(UserWarning):
        cfg = VerificationConfig("amplification", lam=lam, F_t=0.3, delta=0.25, epsilon=0.04, g=2.0)
    prover = ProverChannel("QuantumLimitedAmplifier", g=gain)
    st = fock.entangled_output_fock(elementary_factors(prover), lam, cutoff)
    dev = abs(witness_analytic(prover, cfg) - fock.expectation(fock.witness_fock_amp(2.0, lam, cutoff), st))
    ok = dev <= 1e-3
    report(f"5 dual-path equality at g = {gain}", ok, f"cutoff {cutoff}, deviation {dev:.2e}")
    assert ok


@pytest.mark.parametrize("r, excess, cutoff", [(0.8, None, 96), (1.0, None, 128), (0.8, 0.1, 64)])
def test_5_dual_path_on_strong_squeezers(r, excess, cutoff):
    """Dual-path equality for squeezed targets of r >= 0.8, at cutoffs above
    the 64 that a dense c^2 x c^2 witness allowed: the honest ExactUnitary
    prover and one rotated by 0.1 and displaced by 0.1 (at r = 1.0 its
    truncation error is 9e-4 at cutoff 96 and 7e-5 at 128), or NoisyUnitary
    with excess 0.1 (at cutoff 24 its error is 7e-2)."""
    lam = 1.0
    target = sp.SymplecticSpec(np.diag([np.exp(r), np.exp(-r)]), np.zeros(2))
    cfg = VerificationConfig("unitary", lam=lam, F_t=0.5, delta=0.25, epsilon=0.02, target=target)
    if excess is None:
        rotation = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
        off = sp.SymplecticSpec(rotation @ target.S, np.array([0.1, 0.0]))
        provers = [exact_unitary(target), exact_unitary(off)]
    else:
        provers = [ProverChannel("NoisyUnitary", spec=target, excess=excess)]
    W = fock.witness_fock_unitary(target, lam, cutoff)
    dev = max(abs(witness_analytic(p, cfg) - fock.expectation(W, fock.entangled_output_fock(
        elementary_factors(p), lam, cutoff))) for p in provers)
    ok = dev <= 1e-3
    report(f"5 dual-path equality at r = {r}", ok, f"cutoff {cutoff}, deviation {dev:.2e}")
    assert ok


def test_6_completeness_soundness_rates():
    """Accept/reject rates at capped budgets over 200 repetitions each."""
    cfg = VerificationConfig("unitary", lam=1.0, F_t=0.9, delta=0.25,
                             epsilon=0.04, target=sp.identity(1))
    cap, reps = 10_000, 200
    honest = exact_unitary(sp.identity(1))
    accepts = sum(
        run_verification(honest, cfg, seed=s, shot_cap=cap).accepted
        for s in range(reps)
    )
    accept_rate = accepts / reps

    # additive noise with variance 1/9 has true average fidelity exactly 0.9
    sound = ProverChannel("AdditiveNoise", variance=1.0 / 9.0)
    assert average_fidelity(sound, sp.identity(1), 1.0) == pytest.approx(0.9, abs=1e-12)
    rejects = sum(
        not run_verification(sound, cfg, seed=10_000 + s, shot_cap=cap).accepted
        for s in range(reps)
    )
    reject_rate = rejects / reps
    ok = accept_rate >= 0.75 and reject_rate >= 0.75
    report("6 completeness/soundness", ok,
           f"accept {accept_rate:.3f}, reject {reject_rate:.3f} over {reps} reps")
    assert ok


def test_7_budget_scaling():
    """Exact scaling laws of the implemented (un-ceiled) budget formulas."""

    def unitary_budget(scale, dlen):
        S = np.diag([scale, 1.0 / scale])
        spec = sp.SymplecticSpec(S, np.array([dlen, 0.0]))
        cfg = VerificationConfig("unitary", lam=1.0, F_t=0.5, delta=0.25,
                                 epsilon=0.02, target=spec)
        return sample_budget(cfg)

    b0, bS, bd = unitary_budget(1.2, 0.5), unitary_budget(2.4, 0.5), unitary_budget(1.2, 1.0)
    checks = {
        "c3 ~ |S|^4 |d|^2 (S)": bS.raw["c3"] / b0.raw["c3"] == pytest.approx(16.0, rel=1e-12),
        "c3 ~ |S|^4 |d|^2 (d)": bd.raw["c3"] / b0.raw["c3"] == pytest.approx(4.0, rel=1e-12),
        "c4 ~ |S|^4": bS.raw["c4"] / b0.raw["c4"] == pytest.approx(16.0, rel=1e-12),
        "c5 ~ |S|^2": bS.raw["c5"] / b0.raw["c5"] == pytest.approx(4.0, rel=1e-12),
    }
    for g, lam in ((2.2, 1.0), (3.0, 1.5)):
        f_max = (lam + 1.0) / g**2
        cfg = VerificationConfig("amplification", lam=lam, F_t=0.5 * f_max,
                                 delta=0.25, epsilon=0.1 * f_max, g=g)
        b = sample_budget(cfg)
        checks[f"c7/c6 = g^2 (g={g})"] = (
            b.raw["c7"] / b.raw["c6"] == pytest.approx(g**2, rel=1e-12)
        )
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    report("7 budget scaling", ok, "all exact" if ok else f"failed: {failed}")
    assert ok


def test_8_measurement_plan():
    """For m = 1..6 the unitary plan reads m+5 settings (five at m = 1, where
    no q p pair spans two A' modes), one batch per estimated moment, each term
    on columns its setting measures; on generic symmetric moments the
    config's affine form, its exact path, is the closed-form witness
    -1/2 tr[S^-T S^-1 (Gamma1 - 2 gamma d^T + d d^T)] + tr(Z S^-1 Gamma2)/sqrt(lam+1)
    + 1 + m (lam-2)/(2 lam)."""
    rng = np.random.default_rng(8)
    ok, worst = True, 0.0
    for m in range(1, 7):
        settings = ms.build_measurement_plan(m)
        ok &= len(settings) == m + 5
        spec = sp.random_symplectic(m, r_max=0.7, d_scale=0.5, rng=rng)
        lam = float(rng.uniform(0.5, 2.0))
        cfg = VerificationConfig("unitary", lam=lam, F_t=0.5, delta=0.25, epsilon=0.02,
                                 target=spec)
        batches = plan_unitary(cfg)[0]
        used = {b.setting for b in batches}
        ok &= used <= set(settings) and len(used) == (5 if m == 1 else m + 5)
        # 2m means, m(2m+1) A' second moments (the same-mode q p ones through
        # the 45-degree setting), 4m^2 cross moments
        ok &= len(batches) == 2 * m + m * (2 * m + 1) + 4 * m * m
        ok &= all(max(i, -1 if j is None else j) < len(b.setting.measured_modes)
                  for b in batches for i, j, _ in b.terms)

        mean = rng.normal(size=4 * m)
        X = rng.normal(size=(4 * m, 4 * m))
        second = X + X.T
        a, r = slice(0, 2 * m), slice(2 * m, 4 * m)
        S_inv, d = sp.inverse(spec).S, spec.d
        Z = np.kron(np.eye(m), np.diag([1.0, -1.0]))
        M = second[a, a] - 2.0 * np.outer(mean[a], d) + np.outer(d, d)
        ref = (-0.5 * np.trace(S_inv.T @ S_inv @ M)
               + np.trace(Z @ S_inv @ second[a, r]) / np.sqrt(lam + 1.0)
               + 1.0 + m * (lam - 2.0) / (2.0 * lam))
        got = cfg.witness_form.value(mean, second)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    ok &= worst <= 1e-12
    report("8 measurement plan", ok,
           f"m+5 settings, one batch per moment, closed form to {worst:.1e}, m = 1..6")
    assert ok


def test_9_sampler_calibration():
    """Fixed-seed homodyne moments on the TMSV within 4 sigma of analytics."""
    lam = 1.0
    st = ga.tmsv_pairs(kappa_for(lam), 1)
    shots = 100_000
    settings = [
        ms.HomodyneSetting((0.0, 0.0)),
        ms.HomodyneSetting((np.pi / 2, np.pi / 2)),
        ms.HomodyneSetting((0.0, np.pi / 2)),
        ms.HomodyneSetting((np.pi / 4, None)),
    ]
    worst_sigma = 0.0
    for idx, setting in enumerate(settings):
        P = ms.rotated_quadrature_projector(setting, 2)
        mean_true = P @ st.mean
        cov_true = P @ st.cov @ P.T
        x = sample_quadratures(st, setting, seed=idx, shots=shots)
        # first moments
        for j in range(x.shape[1]):
            sd = np.sqrt(cov_true[j, j] / shots)
            worst_sigma = max(worst_sigma, abs(x[:, j].mean() - mean_true[j]) / sd)
        # second moments
        for j in range(x.shape[1]):
            for k in range(j, x.shape[1]):
                prod = x[:, j] * x[:, k]
                sd = prod.std(ddof=1) / np.sqrt(shots)
                expected = cov_true[j, k] + mean_true[j] * mean_true[k]
                worst_sigma = max(worst_sigma, abs(prod.mean() - expected) / sd)
    ok = worst_sigma <= 4.0
    report("9 sampler calibration", ok, f"worst deviation {worst_sigma:.2f} sigma")
    assert ok


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_10_uncapped_completeness_soundness(m):
    """No shot cap: the full Lemma-3 budgets (about 1e10 channel uses at
    m = 4).  The honest prover of a random displaced target is accepted, and
    an additive-noise prover whose true fidelity is below F_t is rejected,
    each at a rate of at least 1 - delta over 40 repetitions."""
    F_t, eps, delta, reps = 0.7, 0.05, 0.25, 40
    rng = np.random.default_rng(100 + m)
    target = sp.random_symplectic(m, r_max=0.3, d_scale=0.3, rng=rng)
    cfg = VerificationConfig("unitary", lam=1.0, F_t=F_t, delta=delta, epsilon=eps,
                             target=target)
    honest = exact_unitary(target)
    accept = np.mean([run_verification(honest, cfg, seed=s).accepted for s in range(reps)])

    # against the identity, additive noise of variance v has fidelity (1+v)^-m
    cfg_id = VerificationConfig("unitary", lam=1.0, F_t=F_t, delta=delta, epsilon=eps,
                                target=sp.identity(m))
    v = (F_t - 0.005) ** (-1.0 / m) - 1.0
    noisy = ProverChannel("AdditiveNoise", variance=v, n_modes=m)
    assert average_fidelity(noisy, sp.identity(m), 1.0) == pytest.approx(F_t - 0.005, abs=1e-12)
    reject = np.mean([not run_verification(noisy, cfg_id, seed=1000 + s).accepted
                      for s in range(reps)])
    uses = max(sample_budget(c).channel_uses for c in (cfg, cfg_id))
    ok = accept >= 1 - delta and reject >= 1 - delta
    report(f"10 uncapped completeness/soundness m={m}", ok,
           f"accept {accept:.3f}, reject {reject:.3f} over {reps} reps, "
           f"up to {uses:.2e} channel uses")
    assert ok
