import numpy as np
import pytest

from cvverify import fock, gaussian as ga, protocols, symplectic as sp
from cvverify.channels import (
    ProverChannel,
    elementary_factors,
    exact_unitary,
    optimal_amplifier,
    random_prover,
    true_average_fidelity,
)
from cvverify.measurement import build_measurement_plan, sample_moment_sums, sample_quadratures
from cvverify.protocols import (
    Batch,
    VerificationConfig,
    estimate_terms,
    exact_terms,
    accept_rate,
    lemma3_sample_count,
    output_state,
    plan_state,
    plan_unitary,
    run_state_verification,
    run_verification,
    sample_budget,
    sample_budget_amplification,
    sample_budget_state,
    sample_budget_unitary,
    witness_analytic,
    witness_estimate_state,
    witness_plan,
)


def cfg_unitary(spec, lam=1.0, F_t=0.9, eps=0.04, delta=0.25, **kw):
    return VerificationConfig("unitary", lam=lam, F_t=F_t, delta=delta, epsilon=eps,
                              target=spec, **kw)


def cfg_amp(g, lam=1.0, F_t=0.25, eps=0.03, delta=0.25):
    return VerificationConfig("amplification", lam=lam, F_t=F_t, delta=delta,
                              epsilon=eps, g=g)


# ---------------------------------------------------------------- budgets

def test_lemma3_worked_example():
    assert lemma3_sample_count(1.0, 1, 0.1, 0.5) == 289


def test_lemma3_quadratic_scaling():
    assert lemma3_sample_count(1.0, 1, 0.05, 0.5) == 1155  # ceil(4 * 288.54)
    # exact quadrupling on the raw values
    from cvverify.protocols import _lemma3_raw

    assert _lemma3_raw(1.0, 1, 0.05, 0.5) == pytest.approx(4 * _lemma3_raw(1.0, 1, 0.1, 0.5))


def test_lemma3_diverges_as_delta_vanishes():
    counts = [lemma3_sample_count(1.0, 1, 0.1, d) for d in (0.5, 0.1, 0.01, 0.001)]
    assert counts == sorted(counts)
    assert counts[-1] > 100 * counts[0]


def test_budget_unitary_zero_displacement_skips_means():
    cfg = cfg_unitary(sp.identity(1))
    b = sample_budget_unitary(cfg)
    assert b.counts["c3"] == 0
    assert b.counts["c4"] > 0 and b.counts["c5"] > 0


def test_budget_unitary_totals_formula():
    rng = np.random.default_rng(0)
    spec = sp.random_symplectic(2, r_max=0.5, d_scale=0.4, rng=rng)
    cfg = cfg_unitary(spec, lam=1.5, F_t=0.8, eps=0.05)
    b = sample_budget_unitary(cfg)
    m = 2
    expected = 2 * m * b.counts["c3"] + m * (2 * m + 1) * b.counts["c4"] + 4 * m * m * b.counts["c5"]
    assert b.channel_uses == expected
    assert b.tmsv_copies == m * expected


def test_budget_amplification_totals():
    b = sample_budget_amplification(cfg_amp(2.5))
    assert b.channel_uses == 2 * b.counts["c6"] + 2 * b.counts["c7"]


def test_budget_scaling_laws():
    def budget_for(S_scale, d_scale):
        S = np.diag([S_scale, 1.0 / S_scale, S_scale, 1.0 / S_scale])
        spec = sp.SymplecticSpec(S, d_scale * np.ones(4))
        return sample_budget_unitary(cfg_unitary(spec, F_t=0.5, eps=0.02))

    b1, b2 = budget_for(1.5, 0.5), budget_for(3.0, 0.5)
    assert b2.raw["c4"] / b1.raw["c4"] == pytest.approx(16.0, rel=1e-12)
    assert b2.raw["c5"] / b1.raw["c5"] == pytest.approx(4.0, rel=1e-12)
    assert b2.raw["c3"] / b1.raw["c3"] == pytest.approx(16.0, rel=1e-12)

    b3 = budget_for(1.5, 1.0)
    assert b3.raw["c3"] / b1.raw["c3"] == pytest.approx(4.0, rel=1e-12)


def test_budget_amplification_exact_ratio():
    for g, lam in ((2.2, 1.0), (3.0, 1.5), (2.6, 0.8)):
        f_max = (lam + 1.0) / g**2
        cfg = VerificationConfig("amplification", lam=lam, F_t=0.5 * f_max,
                                 delta=0.25, epsilon=0.1 * f_max, g=g)
        b = sample_budget_amplification(cfg)
        assert b.raw["c7"] / b.raw["c6"] == pytest.approx(g**2, rel=1e-12)


def test_budget_state_totals():
    spec = sp.SymplecticSpec(np.eye(4), np.array([0.2, 0.0, 0.1, 0.0]))
    cfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                             target=spec, k=3)
    b = sample_budget_state(cfg)
    nu = 2 * min(9, 2)
    assert b.channel_uses == 2 * 2 * b.counts["c1"] + 2 * nu * 2 * b.counts["c2"]


# ---------------------------------------------------------------- config invariants

def test_config_epsilon_range_unitary():
    with pytest.raises(ValueError):
        cfg_unitary(sp.identity(1), F_t=0.9, eps=0.06)


def test_config_threshold_range_amp():
    with pytest.raises(ValueError):
        cfg_amp(2.5, F_t=0.4)


def test_config_gain_below_witness_domain():
    with pytest.raises(ValueError):
        cfg_amp(1.2, lam=1.0, F_t=0.5, eps=0.01)


def test_config_gain_gap_warns():
    with pytest.warns(UserWarning, match="sample-complexity"):
        cfg_amp(1.8, lam=1.0, F_t=0.3, eps=0.03)


def test_config_delta_range():
    with pytest.raises(ValueError):
        cfg_unitary(sp.identity(1), delta=0.7)


@pytest.mark.parametrize("field", ["lam", "sigma1", "sigma2", "F_t", "epsilon", "delta"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        cfg_unitary(sp.identity(1), **{"eps" if field == "epsilon" else field: value})


def test_config_rejects_non_finite_target_and_gain():
    for S, d in ((np.diag([np.nan, 1.0]), np.zeros(2)), (np.eye(2), np.array([np.inf, 0.0]))):
        with pytest.raises(ValueError, match="target S and d must be finite"):
            cfg_unitary(sp.SymplecticSpec(S, d))
    with pytest.raises(ValueError, match="finite"):
        cfg_amp(np.inf)


def test_budget_out_of_float_range_is_value_error():
    # sigma^2 overflows, or epsilon^2 underflows to 0: both used to escape as
    # OverflowError / ZeroDivisionError
    state = dict(lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04, target=sp.identity(2))
    amp = dict(lam=1.0, F_t=0.25, delta=0.25, epsilon=0.03, g=2.5)
    for cfg in (cfg_unitary(sp.displacement([0.3, 0.0]), sigma1=1e200),
                cfg_unitary(sp.identity(1), sigma2=1e200),
                cfg_unitary(sp.identity(1), eps=1e-170),
                VerificationConfig("amplification", sigma2=1e200, **amp),
                VerificationConfig("state", sigma2=1e200, **state)):
        with pytest.raises(ValueError, match="out of range"):
            sample_budget(cfg)


def test_prover_mode_mismatch_names_both_counts():
    cfg = cfg_unitary(sp.identity(2))
    with pytest.raises(ValueError, match="prover acts on 1 modes .* target has 2"):
        output_state(exact_unitary(sp.identity(1)), cfg)
    with pytest.raises(ValueError, match="prover acts on 2 modes .* target has 1"):
        witness_analytic(ProverChannel("AdditiveNoise", variance=0.1, n_modes=2), cfg_amp(2.5))


def test_accept_rate_needs_a_repetition():
    with pytest.raises(ValueError, match="repetitions"):
        accept_rate(exact_unitary(sp.identity(1)), cfg_unitary(sp.identity(1)), 0, seed=0)


def test_state_plan_batches_all_have_terms():
    # a single mode has no q_j p_k pair, so the m = 1 plan has no mixed batch
    for m in (1, 2, 3):
        cfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                                 target=sp.identity(m))
        batches, _ = plan_state(cfg)
        assert all(b.terms for b in batches)
        assert len(batches) == 5 + (m if m > 1 else 0)


def test_config_serialization_roundtrip():
    cfg = cfg_unitary(sp.rotation(0.2), lam=1.3)
    back = VerificationConfig.from_dict(cfg.to_dict())
    assert back.lam == cfg.lam
    np.testing.assert_array_equal(back.target.S, cfg.target.S)


# ---------------------------------------------------------------- estimators

def test_honest_prover_analytic_omega_is_one():
    rng = np.random.default_rng(1)
    for m in (1, 2):
        for lam in (0.7, 1.0, 2.3):
            spec = sp.random_symplectic(m, r_max=0.8, d_scale=0.6, rng=rng)
            cfg = cfg_unitary(spec, lam=lam, F_t=0.5, eps=0.02)
            assert witness_analytic(exact_unitary(spec), cfg) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_optimal_amplifier_analytic_omega():
    for g, lam in ((2.0, 1.0), (2.5, 1.4)):
        cfg = VerificationConfig("amplification", lam=lam, F_t=0.2, delta=0.25,
                                 epsilon=0.02, g=g)
        got = witness_analytic(optimal_amplifier(g, lam), cfg)
        assert got == pytest.approx((lam + 1.0) / g**2, abs=1e-12)


def test_additive_noise_analytic_omega_linear():
    cfg = cfg_unitary(sp.identity(1))
    for v in (0.05, 0.1, 0.2):
        got = witness_analytic(ProverChannel("AdditiveNoise", variance=v), cfg)
        assert got == pytest.approx(1.0 - v, abs=1e-12)


def test_wrong_displacement_lowers_omega():
    target = sp.displacement(np.array([0.5, 0.0]))
    cfg = cfg_unitary(target, F_t=0.5, eps=0.02)
    dishonest = exact_unitary(sp.identity(1))  # omits the displacement
    omega = witness_analytic(dishonest, cfg)
    assert omega < 1.0
    # dual path at m = 1
    cutoff = 24
    W = fock.witness_fock_unitary(target, cfg.lam, cutoff)
    st = fock.entangled_output_fock(elementary_factors(dishonest), cfg.lam, cutoff)
    assert omega == pytest.approx(fock.expectation(W, st), abs=1e-3)


def unit_weights(batches):
    """The same batches with every weight 1, so each term is a raw moment."""
    return [Batch(b.setting, b.key, tuple((i, j, 1.0) for i, j, _ in b.terms)) for b in batches]


def raw_moments(state):
    return state.mean, state.cov + np.outer(state.mean, state.mean)


def test_sampled_moments_converge_to_analytic():
    rng = np.random.default_rng(3)
    spec = sp.random_symplectic(1, r_max=0.4, d_scale=0.5, rng=rng)
    cfg = cfg_unitary(spec, F_t=0.5, eps=0.02)
    p = ProverChannel("NoisyUnitary", spec=spec, excess=0.1)
    counts = {k: min(c, 40_000) for k, c in sample_budget_unitary(cfg).counts.items()}
    batches = unit_weights(plan_unitary(cfg)[0])
    state = output_state(p, cfg)
    got = np.array(estimate_terms(state, batches, counts, seed=0))
    ref = np.array(exact_terms(*raw_moments(state), batches))
    means = np.array([j is None for b in batches for _, j, _ in b.terms])
    np.testing.assert_allclose(got[means], ref[means], atol=0.05)
    np.testing.assert_allclose(got[~means], ref[~means], atol=0.1)


def test_moment_sums_match_per_shot_sampler_in_distribution():
    # every batch term of the m = 2 unitary plan at N = 50 shots, over 1000
    # seeds per sampler (one draw per setting and seed serves all batches of
    # that setting): term means agree within 4 standard errors of their
    # difference and lie within 4 standard errors of the exact moment, and
    # term variances agree within 25%
    spec = sp.random_symplectic(2, r_max=0.4, d_scale=0.5, rng=np.random.default_rng(5))
    cfg = cfg_unitary(spec, F_t=0.5, eps=0.02)
    state = output_state(ProverChannel("NoisyUnitary", spec=spec, excess=0.1), cfg)
    batches = unit_weights(plan_unitary(cfg)[0])
    settings = list(dict.fromkeys(b.setting for b in batches))
    shots, reps = 50, 1000

    def per_shot_sums(setting, rng):
        x = sample_quadratures(state, setting, rng, shots)
        return x.sum(0), x.T @ x

    def moment_sums(setting, rng):
        return sample_moment_sums(state, setting, rng, shots)

    def terms(draw, first_seed):
        out = np.empty((reps, len(batches)))
        for r in range(reps):
            sums = {s: draw(s, np.random.default_rng([first_seed + r, n]))
                    for n, s in enumerate(settings)}
            for col, b in enumerate(batches):
                (i, j, _), = b.terms
                s1, s2 = sums[b.setting]
                out[r, col] = (s1[i] if j is None else s2[i, j]) / shots
        return out

    new, ref = terms(moment_sums, 0), terms(per_shot_sums, reps)
    exact = np.array(exact_terms(*raw_moments(state), batches))
    se_new, se_ref = new.std(0, ddof=1) / np.sqrt(reps), ref.std(0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(new.mean(0) - ref.mean(0)) <= 4.0 * np.hypot(se_new, se_ref))
    assert np.all(np.abs(new.mean(0) - exact) <= 4.0 * se_new)
    assert np.all(np.abs(ref.mean(0) - exact) <= 4.0 * se_ref)
    np.testing.assert_allclose(new.var(0, ddof=1) / ref.var(0, ddof=1), 1.0, atol=0.25)


def test_uncapped_verdict_determinism():
    # full Lemma-3 budgets (about 4e8 channel uses at m = 2): same seed, same omega*
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(2))
    cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
    p = ProverChannel("NoisyUnitary", spec=spec, excess=0.05)
    v1, v2, v3 = (run_verification(p, cfg, seed=s) for s in (4, 4, 5))
    assert v1.omega_star == v2.omega_star and v1.diagnostics == v2.diagnostics
    assert v1.omega_star != v3.omega_star
    assert v1.diagnostics["shots"] == [v1.budget.counts[b.key] for b in plan_unitary(cfg)[0]]


def test_estimate_moments_honest_cross_block_sign():
    cfg = cfg_unitary(sp.identity(1))
    p = exact_unitary(sp.identity(1))
    plan = build_measurement_plan(1)
    # <q_A' q_R> from the all-q setting, <p_A' p_R> from the all-p setting
    batches = [Batch(plan.settings[0], "c5", ((0, 1, 1.0),)),
               Batch(plan.settings[1], "c5", ((0, 1, 1.0),))]
    qq, pp = estimate_terms(output_state(p, cfg), batches, {"c5": 30_000}, seed=1)
    s = np.sqrt(2.0)  # sinh(2 kappa)/2 at lam = 1
    assert qq == pytest.approx(s, abs=0.05)
    assert pp == pytest.approx(-s, abs=0.05)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_zero_budget_rejected():
    cfg = cfg_unitary(sp.identity(1))
    with pytest.raises(ValueError):
        run_verification(exact_unitary(sp.identity(1)), cfg, seed=0, shot_cap=0)
    with pytest.raises(ValueError):
        run_verification(optimal_amplifier(2.5, 1.0), cfg_amp(2.5), seed=0, shot_cap=0)
    scfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                              target=sp.identity(1))
    with pytest.raises(ValueError):
        run_state_verification(ga.vacuum(1), scfg, seed=0, shot_cap=0)


def _quadrature(setting, col):
    """Phase-space index (or "45:mode") measured by column ``col`` of a setting."""
    mode = setting.measured_modes[col]
    phi = setting.angles[mode]
    return f"45:{mode}" if phi == np.pi / 4 else 2 * mode + int(phi == np.pi / 2)


def test_gamma1_symmetric_by_construction():
    # each unordered A' pair <x_u x_v> is one estimate from one batch, so the
    # second-moment matrix the witness reads is symmetric by construction
    cfg = cfg_unitary(sp.identity(2).__class__(np.eye(4), np.zeros(4)))
    batches, _ = plan_unitary(cfg)
    pairs = []
    for b in batches:
        for i, j, _ in b.terms:
            u, v = _quadrature(b.setting, i), None if j is None else _quadrature(b.setting, j)
            if b.key == "c4":
                pairs.append((u, v))
    assert len(pairs) == len(set(pairs))
    assert all(isinstance(u, str) or u <= v for u, v in pairs)
    expected = {(u, v) for u in range(4) for v in range(u, 4) if not (u % 2 == 0 and v == u + 1)}
    assert set(pairs) == expected | {("45:0", "45:0"), ("45:1", "45:1")}
    p = ProverChannel("AdditiveNoise", variance=0.2, n_modes=2)
    v = run_verification(p, cfg, seed=2, shot_cap=2000)
    assert np.isfinite(v.omega_star)


def test_estimator_consistency_at_budget():
    # sampled omega* stays within epsilon of the analytic omega with
    # empirical frequency at least 1 - delta
    cfg = cfg_unitary(sp.identity(1), F_t=0.9, eps=0.045, delta=0.5)
    p = ProverChannel("AdditiveNoise", variance=0.05)
    omega = witness_analytic(p, cfg)
    reps = 200
    hits = 0
    for s in range(reps):
        v = run_verification(p, cfg, seed=s)
        hits += abs(v.omega_star - omega) <= cfg.epsilon
    assert hits / reps >= 1.0 - cfg.delta


def test_witness_lower_bound_random_provers():
    rng = np.random.default_rng(11)
    for _ in range(12):
        m = int(rng.integers(1, 3))
        p = random_prover(rng, n_modes=m)
        spec = (
            p.spec if p.spec is not None
            else sp.random_symplectic(m, r_max=0.5, d_scale=0.3, rng=rng)
        )
        cfg = cfg_unitary(spec, lam=float(rng.uniform(0.8, 1.5)), F_t=0.5, eps=0.02)
        omega = witness_analytic(p, cfg)
        fbar, se = true_average_fidelity(p, spec, cfg.lam, mc_samples=20_000,
                                         seed=int(rng.integers(1 << 31)))
        assert omega <= fbar + 3.0 * se + 1e-9


def test_verdict_determinism_and_serialization():
    cfg = cfg_unitary(sp.identity(1))
    p = ProverChannel("AdditiveNoise", variance=0.02)
    v1 = run_verification(p, cfg, seed=5, shot_cap=2000)
    v2 = run_verification(p, cfg, seed=5, shot_cap=2000)
    assert v1.omega_star == v2.omega_star
    assert v1.accepted == v2.accepted
    report = v1.to_dict()
    assert report["accepted"] == v1.accepted
    assert report["threshold"] == pytest.approx(cfg.F_t + cfg.epsilon)


def test_tie_at_threshold_accepts():
    from cvverify.protocols import _decide

    cfg = cfg_unitary(sp.identity(1))
    assert _decide(cfg.F_t + cfg.epsilon, cfg)
    assert not _decide(cfg.F_t + cfg.epsilon - 1e-12, cfg)


def test_amplification_run_accepts_optimal():
    cfg = cfg_amp(2.5)
    v = run_verification(optimal_amplifier(2.5, 1.0), cfg, seed=0, shot_cap=20_000)
    assert v.accepted
    assert v.omega_star == pytest.approx(0.32, abs=0.02)


def test_state_protocol_honest_accepts():
    spec = sp.SymplecticSpec(sp.single_mode_squeezer(0.3).S, np.array([0.4, 0.1]))
    cfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                             target=spec, k=1)
    st = ga.apply_unitary(ga.vacuum(1), spec)
    v = run_state_verification(st, cfg, seed=3, shot_cap=20_000)
    assert v.omega_star == pytest.approx(1.0, abs=0.05)
    assert v.accepted


def test_state_protocol_rejects_thermal_impostor():
    spec = sp.identity(1)
    cfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                             target=spec, k=1)
    v = run_state_verification(ga.thermal(0.5), cfg, seed=4, shot_cap=20_000)
    assert not v.accepted


def test_witness_estimate_requires_complete_moments():
    cfg = cfg_unitary(sp.identity(1))
    batches, c0 = plan_unitary(cfg)
    # the plan reads A' and R quadratures: the A' moments alone do not cover it
    with pytest.raises(ValueError):
        exact_terms(np.zeros(2), np.eye(2), batches)
    assert np.isfinite(c0 + sum(exact_terms(np.zeros(4), np.eye(4), batches)))


# ------------------------------------------------ closed-form references

def ref_unitary(state, cfg):
    """-1/2 tr[S^-T S^-1 (Gamma1 - 2 gamma d^T + d d^T)] + tr(Z S^-1 Gamma2)/sqrt(lam+1)
    + 1 + m (lam-2)/(2 lam)."""
    m, lam = cfg.m, cfg.lam
    mu, V = state.mean, state.cov
    a, r = slice(0, 2 * m), slice(2 * m, 4 * m)
    gamma = mu[a]
    Gamma1 = V[a, a] + np.outer(gamma, gamma)
    Gamma2 = V[a, r] + np.outer(mu[a], mu[r])
    S_inv, d = sp.inverse(cfg.target).S, cfg.target.d
    M = Gamma1 - 2.0 * np.outer(gamma, d) + np.outer(d, d)
    Z = np.kron(np.eye(m), np.diag([1.0, -1.0]))
    return (-0.5 * np.trace(S_inv.T @ S_inv @ M) + np.trace(Z @ S_inv @ Gamma2) / np.sqrt(lam + 1.0)
            + 1.0 + m * (lam - 2.0) / (2.0 * lam))


def ref_amplification(state, cfg):
    """(lam+1)/g^2 [K - (lam+1)/(2 g^2) (<q^2> + <p^2>) + sqrt(lam+1)/g (<q q_R> - <p p_R>)]."""
    g, lam = cfg.g, cfg.lam
    mu, V = state.mean, state.cov
    qq, pp = V[0, 0] + mu[0] ** 2, V[1, 1] + mu[1] ** 2
    qc, pc = V[0, 2] + mu[0] * mu[2], V[1, 3] + mu[1] * mu[3]
    K = 1.0 + (g**2 - lam - 1.0) / (2.0 * g**2) - (lam + 2.0) / (2.0 * lam)
    return (lam + 1.0) / g**2 * (K - (lam + 1.0) / (2.0 * g**2) * (qq + pp)
                                 + np.sqrt(lam + 1.0) / g * (qc - pc))


def ref_state(mean, M, cfg):
    """1 + m/2 - 1/2 tr[S^-T S^-1 (M - 2 x d^T + d d^T)]."""
    S_inv, d = sp.inverse(cfg.target).S, cfg.target.d
    X = M - 2.0 * np.outer(mean, d) + np.outer(d, d)
    return 1.0 + 0.5 * cfg.m - 0.5 * np.trace(S_inv.T @ S_inv @ X)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_exact_path_matches_closed_forms():
    rng = np.random.default_rng(17)
    for m in (1, 2, 3):
        for _ in range(4):
            p = random_prover(rng, n_modes=m)
            spec = sp.random_symplectic(m, r_max=0.7, d_scale=0.5, rng=rng)
            cfg = cfg_unitary(spec, lam=float(rng.uniform(0.6, 2.0)), F_t=0.5, eps=0.02)
            for prover in (p, exact_unitary(spec)):
                ref = ref_unitary(output_state(prover, cfg), cfg)
                assert abs(witness_analytic(prover, cfg) - ref) <= 1e-12

            scfg = VerificationConfig("state", lam=1.0, F_t=0.5, delta=0.25, epsilon=0.02,
                                      target=spec)
            mean = spec.d + rng.normal(scale=0.3, size=2 * m)
            X = rng.normal(size=(2 * m, 2 * m))
            M = 0.5 * spec.S @ spec.S.T + 0.1 * X @ X.T + np.outer(mean, mean)
            assert abs(witness_estimate_state(mean, M, scfg) - ref_state(mean, M, scfg)) <= 1e-12

    for g, lam in ((2.0, 1.0), (2.5, 1.4)):
        cfg = VerificationConfig("amplification", lam=lam, F_t=0.2, delta=0.25, epsilon=0.02, g=g)
        provers = [
            optimal_amplifier(g, lam),
            ProverChannel("QuantumLimitedAmplifier", g=float(rng.uniform(1.1, 2.5))),
            ProverChannel("NoisyAmplifier", g=float(rng.uniform(1.1, 2.5)), excess=0.2),
            ProverChannel("Attenuator", eta=0.7, excess=0.05),
        ]
        for prover in provers:
            ref = ref_amplification(output_state(prover, cfg), cfg)
            assert abs(witness_analytic(prover, cfg) - ref) <= 1e-12


def test_verdict_terms_sum_to_omega_star():
    spec = sp.SymplecticSpec(sp.single_mode_squeezer(0.3).S, np.array([0.4, 0.1]))
    scfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04, target=spec)
    verdicts = [
        run_verification(exact_unitary(spec), cfg_unitary(spec, F_t=0.5, eps=0.02), seed=1,
                         shot_cap=1000),
        run_verification(optimal_amplifier(2.5, 1.0), cfg_amp(2.5), seed=1, shot_cap=1000),
        run_state_verification(ga.apply_unitary(ga.vacuum(1), spec), scfg, seed=1, shot_cap=1000),
    ]
    for v in verdicts:
        diag = v.diagnostics
        assert set(diag) == {"shot_cap", "c0", "shots", "terms"}
        assert len(diag["shots"]) == len(diag["terms"])
        assert diag["c0"] + sum(diag["terms"]) == v.omega_star


# ------------------------------------------------ one verdict core

def per_batch_terms(state, batches, counts, seed):
    """The estimator as one public ``sample_moment_sums`` call per batch, each
    factoring its own marginal: the reference ``estimate_terms`` must equal."""
    out = []
    for b, stream in zip(batches, np.random.SeedSequence(seed).spawn(len(batches))):
        n, total = counts[b.key], 0.0
        if n > 0:
            s1, s2 = sample_moment_sums(state, b.setting, np.random.default_rng(stream), n)
            for i, j, w in b.terms:
                total += w * (s1[i] if j is None else s2[i, j])
            total /= n
        out.append(float(total))
    return out


def _games():
    """(cfg, measured state, verdict at (seed, cap)) for the unitary and state
    games at m = 1..4 and amplification at m = 1."""
    for m in (1, 2, 3, 4):
        spec = sp.random_symplectic(m, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(m))
        prover = ProverChannel("NoisyUnitary", spec=spec, excess=0.05)
        cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
        yield cfg, output_state(prover, cfg), lambda s, c, p=prover, g=cfg: run_verification(p, g, s, c)
        scfg = VerificationConfig("state", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03,
                                  target=spec, k=2)
        st = ga.GaussianState(spec.d, 0.5 * spec.S @ spec.S.T + 0.02 * np.eye(2 * m))
        yield scfg, st, lambda s, c, x=st, g=scfg: run_state_verification(x, g, s, c)
    acfg = cfg_amp(2.5)
    amp = optimal_amplifier(2.5, 1.0)
    yield acfg, output_state(amp, acfg), lambda s, c: run_verification(amp, acfg, s, c)


@pytest.mark.parametrize("shot_cap", [None, 10_000])
def test_estimate_terms_bit_identical_to_per_batch_sampling(shot_cap):
    for cfg, state, verdict in _games():
        batches, c0 = witness_plan(cfg)
        counts = {k: c if shot_cap is None else min(c, shot_cap)
                  for k, c in sample_budget(cfg).counts.items()}
        for seed in (0, 7):
            ref = per_batch_terms(state, batches, counts, seed)
            assert estimate_terms(state, batches, counts, seed) == ref
            v = verdict(seed, shot_cap)
            assert v.diagnostics["terms"] == ref and v.omega_star == c0 + sum(ref)


@pytest.mark.parametrize("shot_cap", [None, 2000])
def test_accept_rate_verdicts_equal_single_runs(shot_cap):
    for m in (1, 3):
        spec = sp.random_symplectic(m, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(m))
        cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
        prover = ProverChannel("NoisyUnitary", spec=spec, excess=0.05)
        rate, verdicts = accept_rate(prover, cfg, 3, seed=11, shot_cap=shot_cap)
        assert [v.to_dict() for v in verdicts] == [
            run_verification(prover, cfg, s, shot_cap).to_dict() for s in (11, 12, 13)]
        assert rate == sum(v.accepted for v in verdicts) / 3


def test_verdict_factors_each_setting_once(monkeypatch):
    calls = {"marginal": 0, "output_state": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(protocols, "_marginal", counting("marginal", protocols._marginal))
    monkeypatch.setattr(protocols, "output_state", counting("output_state", protocols.output_state))
    m = 4
    spec = sp.random_symplectic(m, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(0))
    cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
    assert len(plan_unitary(cfg)[0]) == 108
    run_verification(exact_unitary(spec), cfg, seed=0, shot_cap=1000)
    assert calls["marginal"] <= m + 5
    calls["output_state"] = 0
    accept_rate(exact_unitary(spec), cfg, 5, seed=0, shot_cap=1000)
    assert calls["output_state"] == 1


def test_state_mode_count_checked_against_the_game():
    scfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                              target=sp.identity(1))
    with pytest.raises(ValueError, match="state has 2 modes, the state game measures 1"):
        run_state_verification(ga.vacuum(2), scfg, seed=0, shot_cap=100)
    with pytest.raises(ValueError, match="state has 1 modes, the unitary game measures 2"):
        run_state_verification(ga.vacuum(1), cfg_unitary(sp.identity(1)), seed=0, shot_cap=100)
    # a prover's output is 2m modes, so the state game never runs on one
    with pytest.raises(ValueError, match="the state game measures 1"):
        run_verification(exact_unitary(sp.identity(1)), scfg, seed=0, shot_cap=100)
