import contextlib
import copy
import dataclasses
import io
import json
import pickle
import re
import sys

import numpy as np
import pytest

from builders import exact_terms, inverse, random_prover
from cvverify import fock, gaussian as ga, protocols, symplectic as sp
from cvverify.cli import main
from cvverify.channels import (
    KINDS,
    ProverChannel,
    average_fidelity,
    elementary_factors,
    exact_unitary,
    optimal_amplifier,
)
from cvverify.measurement import build_measurement_plan, marginals, moment_sums, rotated_quadrature_projector
from cvverify.protocols import (
    Batch,
    Verdict,
    VerificationConfig,
    estimate_terms,
    accept_rate,
    lemma3_sample_count,
    oracle_report,
    output_state,
    plan_state,
    plan_unitary,
    run_state_verification,
    run_verification,
    sample_budget,
    witness_analytic,
    witness_estimate_state,
    witness_plan,
)
from test_acceptance import rounding_slack
from test_measurement import sample_quadratures


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


@pytest.mark.parametrize("args, message", [
    ((1.0, 1.5, 0.1, 0.5), "l must be an integer, got 1.5"),
    ((1.0, True, 0.1, 0.5), "l must be an integer, got True"),
    ((1.0, -1, 0.1, 0.5), "l must be at least 0, got -1"),
    ((np.nan, 1, 0.1, 0.5), "sigma must be positive and finite, got nan"),
    ((np.inf, 1, 0.1, 0.5), "sigma must be positive and finite, got inf"),
    ((0.0, 1, 0.1, 0.5), "sigma must be positive and finite, got 0.0"),
    ((1.0, 1, np.nan, 0.5), "epsilon must be positive and finite, got nan"),
    ((1.0, 1, np.inf, 0.5), "epsilon must be positive and finite, got inf"),
    ((1.0, 1, 0.1, np.nan), "delta must lie in"),
])
def test_lemma3_refuses_each_bad_argument_by_name(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        lemma3_sample_count(*args)
    assert lemma3_sample_count(1.0, np.int64(1), 0.1, 0.5) == 289


def test_lemma3_diverges_as_delta_vanishes():
    counts = [lemma3_sample_count(1.0, 1, 0.1, d) for d in (0.5, 0.1, 0.01, 0.001)]
    assert counts == sorted(counts)
    assert counts[-1] > 100 * counts[0]


def test_budget_unitary_zero_displacement_skips_means():
    cfg = cfg_unitary(sp.identity(1))
    b = sample_budget(cfg)
    assert b.counts["c3"] == 0
    assert b.counts["c4"] > 0 and b.counts["c5"] > 0


def test_budget_unitary_totals_formula():
    rng = np.random.default_rng(0)
    spec = sp.random_symplectic(2, r_max=0.5, d_scale=0.4, rng=rng)
    cfg = cfg_unitary(spec, lam=1.5, F_t=0.8, eps=0.05)
    b = sample_budget(cfg)
    m = 2
    expected = 2 * m * b.counts["c3"] + m * (2 * m + 1) * b.counts["c4"] + 4 * m * m * b.counts["c5"]
    assert b.channel_uses == expected
    assert b.tmsv_copies == m * expected


def test_budget_amplification_totals():
    b = sample_budget(cfg_amp(2.5))
    assert b.channel_uses == 2 * b.counts["c6"] + 2 * b.counts["c7"]


def test_budget_scaling_laws():
    def budget_for(S_scale, d_scale):
        S = np.diag([S_scale, 1.0 / S_scale, S_scale, 1.0 / S_scale])
        spec = sp.SymplecticSpec(S, d_scale * np.ones(4))
        return sample_budget(cfg_unitary(spec, F_t=0.5, eps=0.02))

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
        b = sample_budget(cfg)
        assert b.raw["c7"] / b.raw["c6"] == pytest.approx(g**2, rel=1e-12)


def test_budget_state_totals():
    # c1 shots for the all-q and all-p means; c2 for the all-q, all-p and
    # 45-degree second moments and, at m > 1, for each of the m mixed settings
    for m, second_moment_batches in ((1, 3), (2, 5)):
        spec = sp.SymplecticSpec(np.eye(2 * m), np.array([0.2, 0.0, 0.1, 0.0][:2 * m]))
        cfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                                 target=spec)
        b = sample_budget(cfg)
        assert b.counts["c1"] > 0
        expected = 2 * b.counts["c1"] + second_moment_batches * b.counts["c2"]
        assert b.channel_uses == expected
        assert b.tmsv_copies == 0  # the prover supplies the state; the verifier prepares no TMSV


def _lemma3_raw_reference(sigma, l, eps, delta_g):
    return sigma**2 * (l + 1) / (eps**2 * np.log(1.0 / (1.0 - delta_g)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("protocol", ["unitary", "state"])
@pytest.mark.parametrize("d_scale", [0.0, 0.4])
def test_lemma3_groups_of_the_target_games(m, protocol, d_scale):
    # groups (key, sigma, l, error bound per unit of its epsilon share): means,
    # A' second moments and, in the unitary game, the A'-R cross moments
    spec = sp.random_symplectic(m, r_max=0.6, d_scale=d_scale, rng=np.random.default_rng(m))
    lam, eps, delta, s1, s2 = 1.3, 0.03, 0.2, 1.7, 0.6
    cfg = VerificationConfig(protocol, lam=lam, F_t=0.8, delta=delta, epsilon=eps,
                             sigma1=s1, sigma2=s2, target=spec)
    norm_s, norm_d = np.linalg.norm(spec.S, 2), np.linalg.norm(spec.d)
    unitary = protocol == "unitary"
    groups = [("c3" if unitary else "c1", s1, 2 * m, (2 * m) ** 1.5 * norm_s**2 * norm_d),
              ("c4" if unitary else "c2", s2, m * (2 * m + 1), m * norm_s**2)]
    if unitary:
        groups.append(("c5", s2, 4 * m * m, 2 * m * norm_s / np.sqrt(lam + 1.0)))
    budget = sample_budget(cfg)
    assert list(budget.raw) == [key for key, *_ in groups]
    if d_scale == 0.0:  # no mean to estimate: the mean key draws no shots
        mean_key = groups.pop(0)[0]
        assert budget.raw[mean_key] == 0.0 and budget.counts[mean_key] == 0
    delta_g = 1.0 - (1.0 - delta) ** (1.0 / len(groups))
    for key, sigma, l, bound in groups:
        expected = _lemma3_raw_reference(sigma, l, eps / len(groups) / bound, delta_g)
        assert budget.raw[key] == pytest.approx(expected, rel=1e-12), key


def test_lemma3_groups_of_the_amplification_game():
    g, lam, eps, delta = 2.7, 1.2, 0.02, 0.3
    f = (lam + 1.0) / g**2
    cfg = VerificationConfig("amplification", lam=lam, F_t=0.5 * f, delta=delta, epsilon=eps,
                             sigma1=1.7, sigma2=0.6, g=g)
    a = np.sqrt(lam + 1.0) / (np.sqrt(lam + 1.0) + 2.0)
    delta_g = 1.0 - (1.0 - delta) ** 0.5
    raw = sample_budget(cfg).raw
    assert raw["c6"] == pytest.approx(_lemma3_raw_reference(0.6, 2, a * eps / f**2, delta_g), rel=1e-12)
    assert raw["c7"] == pytest.approx(
        _lemma3_raw_reference(0.6, 2, (1.0 - a) * eps / (2.0 * f**1.5), delta_g), rel=1e-12)


def test_budget_reports_the_shots_a_verdict_draws():
    for d_scale in (0.0, 0.3):
        for cfg, _, verdict in _games(d_scale):
            v = verdict(0, None)
            b = v.budget
            assert b == sample_budget(cfg)
            assert b.channel_uses == sum(v.diagnostics["shots"])
            copies = {"unitary": cfg.m, "amplification": 1, "state": 0}[cfg.protocol]
            assert b.tmsv_copies == copies * b.channel_uses


# ---------------------------------------------------------------- config invariants

def test_config_epsilon_range_unitary():
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 0.05\), half the gap from F_t to 1$"):
        cfg_unitary(sp.identity(1), F_t=0.9, eps=0.06)


def test_config_threshold_range_amp():
    with pytest.raises(ValueError, match=r"threshold must lie in \(0, \(lam\+1\)/g\^2 = 0.3200\)"):
        cfg_amp(2.5, F_t=0.4)


def test_config_epsilon_range_amp():
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 0.035\), half the gap from F_t to \(lam"):
        cfg_amp(2.5, eps=0.04)


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


def test_config_rejects_infinite_squeezing():
    # lam + 1 rounds so close to 1 that arctanh(1/sqrt(lam+1)) is infinite
    data = cfg_unitary(sp.identity(1)).to_dict()
    for lam in (1e-16, 2.2e-16):
        with pytest.raises(ValueError, match=f"lam = {lam:g} is too small"):
            VerificationConfig.from_dict({**data, "lam": lam})
    assert VerificationConfig.from_dict({**data, "lam": 1e-14}).lam == 1e-14


def test_near_singular_marginals_give_a_verdict():
    # at lam = 1e-14 the q_A q_R marginal of the identity channel's output has
    # eigenvalues of about 1e14 and 1e-14; its exact root gives a verdict
    cfg = cfg_unitary(sp.identity(1), lam=1e-14)
    v = run_verification(exact_unitary(sp.identity(1)), cfg, seed=0, shot_cap=1000)
    assert np.isfinite(v.omega_star) and len(v.diagnostics["terms"]) == 9


def test_indefinite_measured_covariance_names_the_setting():
    state = ga.GaussianState(np.zeros(4), np.diag([0.5, 0.5, -0.5, 0.5]))
    with pytest.raises(ValueError, match=r"setting q\(A'\)\+q\(R\) is not positive semidefinite"):
        run_state_verification(state, cfg_unitary(sp.identity(1)), seed=0, shot_cap=100)


def test_config_rejects_non_finite_target_and_gain():
    for S, d, name in ((np.diag([np.nan, 1.0]), np.zeros(2), "S"), (np.eye(2), np.array([np.inf, 0.0]), "d")):
        with pytest.raises(ValueError, match=f"target {name} has an entry that is not finite"):
            cfg_unitary(sp.SymplecticSpec(S, d))
    with pytest.raises(ValueError, match="finite"):
        cfg_amp(np.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_huge_target_or_gain_is_a_value_error_in_every_plan():
    # |S|^2 and g^4 in the epsilon shares once escaped as a bare OverflowError,
    # the first after RuntimeWarnings from S^-T S^-1
    huge = sp.SymplecticSpec(np.diag([1e155, 1e-155]), np.zeros(2))
    vacuum = ga.GaussianState(np.zeros(2), 0.5 * np.eye(2))
    cases = [(cfg, r"target S, of norm 1e\+155, is too large: an epsilon share of its plan leaves the float range")
             for cfg in (cfg_unitary(huge), dataclasses.replace(cfg_unitary(huge), protocol="state"))]
    cases.append((cfg_amp(1e150, F_t=1e-300, eps=1e-301), r"gain g = 1e\+150 is too large: an epsilon share"))
    for cfg, message in cases:
        runs = [lambda: cfg.witness_form, lambda: sample_budget(cfg)]
        if cfg.protocol == "state":
            runs.append(lambda: run_state_verification(vacuum, cfg, seed=0, shot_cap=10))
        for run in runs:
            with pytest.raises(ValueError, match=message):
                run()


def test_config_rejects_the_other_games_field():
    # an amplification config's m used to come from a target it does not read
    amp, unitary = cfg_amp(2.5), cfg_unitary(sp.identity(1))
    with pytest.raises(ValueError, match="amplification protocol takes no 'target'"):
        dataclasses.replace(amp, target=sp.identity(2))
    with pytest.raises(ValueError, match="amplification protocol takes no 'target'"):
        VerificationConfig.from_dict({**amp.to_dict(), "target": sp.identity(2).to_dict()})
    for protocol in ("unitary", "state"):
        with pytest.raises(ValueError, match=f"{protocol} protocol takes no 'g'"):
            dataclasses.replace(unitary, protocol=protocol, g=2.5)
        with pytest.raises(ValueError, match=f"{protocol} protocol takes no 'g'"):
            VerificationConfig.from_dict({**unitary.to_dict(), "protocol": protocol, "g": 2.5})


def test_budget_out_of_float_range_is_value_error():
    # sigma^2 overflows, or epsilon^2 underflows to 0: both used to escape as
    # OverflowError / ZeroDivisionError
    state = dict(lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04, target=sp.identity(2))
    amp = dict(lam=1.0, F_t=0.25, delta=0.25, epsilon=0.03, g=2.5)
    for cfg in (cfg_unitary(sp.SymplecticSpec(np.eye(2), np.array([0.3, 0.0])), sigma1=1e200),
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


@pytest.mark.parametrize("call, message", [
    (lambda p, c: run_verification(p, c, seed=0, shot_cap=True), "shot_cap must be an integer, got True"),
    (lambda p, c: run_verification(p, c, seed=0, shot_cap=2.5), "shot_cap must be an integer, got 2.5"),
    (lambda p, c: run_verification(p, c, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda p, c: run_verification(p, c, seed=-1), "seed must be at least 0, got -1"),
    (lambda p, c: run_verification(p, c, seed=True), "seed must be an integer, got True"),
    (lambda p, c: accept_rate(p, c, 2.0, seed=0), "repetitions must be an integer, got 2.0"),
    (lambda p, c: accept_rate(p, c, 2, seed=-1), "seed must be at least 0, got -1"),
    (lambda p, c: accept_rate(p, c, 2, seed=1.5), "seed must be an integer, got 1.5"),
])
def test_malformed_seed_shot_cap_and_repetitions_are_named(call, message):
    # a bool cap drew one shot per observable and a bool seed ran as seed 1;
    # fractions ended in TypeError and a negative seed in numpy's message
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(exact_unitary(sp.identity(1)), cfg_unitary(sp.identity(1)))


def test_integer_seed_and_cap_of_any_int_type_run():
    cfg = cfg_unitary(sp.identity(1))
    v = run_verification(exact_unitary(sp.identity(1)), cfg, seed=np.int64(3), shot_cap=np.int64(100))
    assert v.diagnostics["shot_cap"] == 100 and type(v.diagnostics["shot_cap"]) is int
    assert v.to_dict() == run_verification(exact_unitary(sp.identity(1)), cfg, seed=3, shot_cap=100).to_dict()


def test_estimate_terms_reads_each_group_count():
    # a missing key ended in KeyError: 'c3'; a key without shots is an error
    # only where a weight of its group is nonzero (d != 0 gives mean weights);
    # a state of the wrong mode count is named before any draw
    for d_scale in (0.0, 0.3):
        spec = sp.random_symplectic(1, r_max=0.3, d_scale=d_scale, rng=np.random.default_rng(0))
        cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
        state, batches = output_state(exact_unitary(spec), cfg), plan_unitary(cfg)[0]
        with pytest.raises(ValueError, match="counts has no shot count for key 'c3'"):
            estimate_terms(state, batches, {"c4": 10, "c5": 10}, [0])
        one_mode = ga.GaussianState(np.zeros(2), 0.5 * np.eye(2))
        with pytest.raises(ValueError, match="the projections cover 2 modes, the state has 1"):
            estimate_terms(one_mode, batches, dict.fromkeys(("c3", "c4", "c5"), 10), [0])
        counts = {"c3": 0, "c4": 10, "c5": 10}
        if d_scale:
            with pytest.raises(ValueError, match="shot budget c3 must be positive"):
                estimate_terms(state, batches, counts, [0])
        else:
            assert estimate_terms(state, batches, counts, [0])[0][:2] == [0.0, 0.0]


def test_state_plan_batches_all_have_terms():
    # a single mode has no q_j p_k pair, so the m = 1 plan has no mixed batch
    for m in (1, 2, 3):
        cfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                                 target=sp.identity(m))
        batches, _, _ = plan_state(cfg)
        assert all(b.terms for b in batches)
        assert len(batches) == 5 + (m if m > 1 else 0)


def test_config_serialization_roundtrip():
    rotation = np.array([[np.cos(0.2), -np.sin(0.2)], [np.sin(0.2), np.cos(0.2)]])
    cfg = cfg_unitary(sp.SymplecticSpec(rotation, np.zeros(2)), lam=1.3)
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
    target = sp.SymplecticSpec(np.eye(2), np.array([0.5, 0.0]))
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
    counts = {k: min(c, 40_000) for k, c in sample_budget(cfg).counts.items()}
    batches = unit_weights(plan_unitary(cfg)[0])
    state = output_state(p, cfg)
    got = np.array(estimate_terms(state, batches, counts, [0])[0])
    ref = np.array(exact_terms(*raw_moments(state), batches))
    means = np.array([j is None for b in batches for _, j, _ in b.terms])
    np.testing.assert_allclose(got[means], ref[means], atol=0.05)
    np.testing.assert_allclose(got[~means], ref[~means], atol=0.1)


def per_shot_terms(state, batches, counts, reps, seed):
    """(reps, batches) terms from individual shots of the per-shot reference:
    each batch draws reps x N fresh shots of its setting in one call, so
    batches and repetitions are independent, as in a verdict."""
    rng = np.random.default_rng(seed)
    out = np.zeros((reps, len(batches)))
    for col, b in enumerate(batches):
        n = counts[b.key]
        x = sample_quadratures(state, b.setting, rng, reps * n).reshape(reps, n, -1)
        s1, s2 = x.sum(1), np.einsum("rni,rnj->rij", x, x)
        out[:, col] = sum(w * (s1[:, i] if j is None else s2[:, i, j]) for i, j, w in b.terms) / n
    return out


def test_moment_sums_match_per_shot_sampler_in_distribution():
    # every batch term of the m = 2 unitary plan at N = 50 shots, over 1000
    # seeds of the compiled plan and 1000 per-shot repetitions: term means
    # agree within 4 standard errors of their difference and lie within 4
    # standard errors of the exact moment, and term variances agree within 25%
    spec = sp.random_symplectic(2, r_max=0.4, d_scale=0.5, rng=np.random.default_rng(5))
    cfg = cfg_unitary(spec, F_t=0.5, eps=0.02)
    state = output_state(ProverChannel("NoisyUnitary", spec=spec, excess=0.1), cfg)
    batches = unit_weights(plan_unitary(cfg)[0])
    counts, reps = dict.fromkeys(("c3", "c4", "c5"), 50), 1000
    new = np.array(estimate_terms(state, batches, counts, range(reps)))
    ref = per_shot_terms(state, batches, counts, reps, 0)
    exact = np.array(exact_terms(*raw_moments(state), batches))
    se_new, se_ref = new.std(0, ddof=1) / np.sqrt(reps), ref.std(0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(new.mean(0) - ref.mean(0)) <= 4.0 * np.hypot(se_new, se_ref))
    assert np.all(np.abs(new.mean(0) - exact) <= 4.0 * se_new)
    assert np.all(np.abs(ref.mean(0) - exact) <= 4.0 * se_ref)
    np.testing.assert_allclose(new.var(0, ddof=1) / ref.var(0, ddof=1), 1.0, atol=0.25)


def _law_games():
    """(cfg, measured state) of the unitary game at m = 2, the state game at
    m = 3 and the amplification game, each with an imperfect prover."""
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.4, rng=np.random.default_rng(8))
    cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
    yield cfg, output_state(ProverChannel("NoisyUnitary", spec=spec, excess=0.1), cfg)
    spec = sp.random_symplectic(3, r_max=0.3, d_scale=0.4, rng=np.random.default_rng(9))
    scfg = VerificationConfig("state", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03, target=spec)
    yield scfg, ga.GaussianState(spec.d, 0.5 * spec.S @ spec.S.T + 0.05 * np.eye(6))
    acfg = cfg_amp(2.5)
    yield acfg, output_state(ProverChannel("NoisyAmplifier", g=1.5, excess=0.1), acfg)


@pytest.mark.parametrize("shots", [1, 2, 50])
def test_omega_star_law_matches_per_shot_reference(shots):
    # omega* of verdicts capped at N shots per observable, over 2000 seeds,
    # against 2000 per-shot repetitions of the same plan: N = 1 has no
    # scatter, N = 2 draws the normal-block Wishart for every group that
    # reads two or more columns (all three state groups) and a chi-square
    # for one-column groups, N = 50 the Bartlett factors.  Means and
    # variances agree within 4 standard errors of their difference (the
    # variance's from the fourth moments), both means lie within 4 standard
    # errors of the exact witness, and a two-sample KS test does not reject.
    from scipy.stats import ks_2samp

    reps = 2000
    for cfg, state in _law_games():
        batches, c0, _ = witness_plan(cfg)
        new = np.array([v.omega_star for v in protocols._verdicts(state, cfg, range(reps), shots)])
        ref = c0 + per_shot_terms(state, batches, dict.fromkeys(sample_budget(cfg).counts, shots),
                                  reps, 1).sum(1)
        exact = c0 + sum(exact_terms(*raw_moments(state), batches))
        se = [x.std(ddof=1) / np.sqrt(reps) for x in (new, ref)]
        assert abs(new.mean() - ref.mean()) <= 4.0 * np.hypot(*se)
        assert abs(new.mean() - exact) <= 4.0 * se[0] and abs(ref.mean() - exact) <= 4.0 * se[1]
        var_se = [np.sqrt((((x - x.mean()) ** 2).var(ddof=1)) / reps) for x in (new, ref)]
        assert abs(new.var(ddof=1) - ref.var(ddof=1)) <= 4.0 * np.hypot(*var_se)
        assert ks_2samp(new, ref).pvalue > 1e-3


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
    all_q, all_p = build_measurement_plan(1)[:2]
    # <q_A' q_R> from the all-q setting, <p_A' p_R> from the all-p setting
    batches = [Batch(all_q, "c5", ((0, 1, 1.0),)), Batch(all_p, "c5", ((0, 1, 1.0),))]
    (qq, pp), = estimate_terms(output_state(p, cfg), batches, {"c5": 30_000}, [1])
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
        run_state_verification(ga.GaussianState(np.zeros(2), 0.5 * np.eye(2)), scfg, seed=0, shot_cap=0)


def _quadrature(setting, col):
    """Phase-space index (or "45:mode") measured by column ``col`` of a setting."""
    mode = setting.measured_modes[col]
    phi = setting.angles[mode]
    return f"45:{mode}" if phi == np.pi / 4 else 2 * mode + int(phi == np.pi / 2)


def test_gamma1_symmetric_by_construction():
    # each unordered A' pair <x_u x_v> is one estimate from one batch, so the
    # second-moment matrix the witness reads is symmetric by construction
    cfg = cfg_unitary(sp.identity(2).__class__(np.eye(4), np.zeros(4)))
    batches, _, _ = plan_unitary(cfg)
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
        rng.integers(1 << 31)  # a spare draw that keeps the later cases fixed
        assert omega <= average_fidelity(p, spec, cfg.lam) + rounding_slack(cfg.lam)


@pytest.mark.parametrize("lam", [1.0, 0.01, 1e-4])
def test_oracle_flags_optimal_provers_below_fidelity(lam):
    # at small lam the honest witness rounds above 1 by up to 1.2e-7 (lam = 1e-4)
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 4):
        spec = sp.random_symplectic(m, r_max=0.8, d_scale=0.5, rng=rng)
        report = oracle_report(exact_unitary(spec), cfg_unitary(spec, lam=lam, F_t=0.5, eps=0.02))
        assert report["witness_below_fidelity"], (m, report)
    g = 2.5
    f = (lam + 1.0) / g**2
    report = oracle_report(optimal_amplifier(g, lam), cfg_amp(g, lam=lam, F_t=0.5 * f, eps=0.05 * f))
    assert report["witness_below_fidelity"], report


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
    # a verdict holds what its run produced; acceptance is read through its config
    assert [f.name for f in dataclasses.fields(Verdict)] == ["omega_star", "cfg", "seed", "diagnostics"]
    cfg = cfg_unitary(sp.identity(1))
    threshold = cfg.F_t + cfg.epsilon
    assert Verdict(threshold, cfg, 0).accepted and Verdict(threshold, cfg, 0).to_dict()["threshold"] == threshold
    assert not Verdict(threshold - 1e-12, cfg, 0).accepted


def test_amplification_run_accepts_optimal():
    cfg = cfg_amp(2.5)
    v = run_verification(optimal_amplifier(2.5, 1.0), cfg, seed=0, shot_cap=20_000)
    assert v.accepted
    assert v.omega_star == pytest.approx(0.32, abs=0.02)


def test_state_protocol_honest_accepts():
    spec = sp.SymplecticSpec(np.diag([np.exp(0.3), np.exp(-0.3)]), np.array([0.4, 0.1]))
    cfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                             target=spec)
    st = ga.apply_channel(ga.GaussianState(np.zeros(2), 0.5 * np.eye(2)), exact_unitary(spec).realize())
    v = run_state_verification(st, cfg, seed=3, shot_cap=20_000)
    assert v.omega_star == pytest.approx(1.0, abs=0.05)
    assert v.accepted


def test_state_protocol_rejects_thermal_impostor():
    spec = sp.identity(1)
    cfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                             target=spec)
    v = run_state_verification(ga.GaussianState(np.zeros(2), np.eye(2)), cfg, seed=4, shot_cap=20_000)  # nbar = 0.5
    assert not v.accepted


def test_witness_estimate_requires_complete_moments():
    form = cfg_unitary(sp.identity(1)).witness_form
    # the plan reads A' and R quadratures: its form spans both, and the A'
    # moments alone do not cover it
    assert form.a.shape == (4,) and form.C.shape == (4, 4) and np.any(form.C[:2, 2:])
    with pytest.raises(ValueError):
        form.value(np.zeros(2), np.eye(2))
    assert np.isfinite(form.value(np.zeros(4), np.eye(4)))


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
    S_inv, d = inverse(cfg.target).S, cfg.target.d
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
    S_inv, d = inverse(cfg.target).S, cfg.target.d
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


_STATE_CFG = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04, target=sp.identity(1))
_VACUUM_MOMENTS = (np.zeros(2), 0.5 * np.eye(2))


@pytest.mark.parametrize("cfg, mean, second, match", [
    # an AttributeError on cfg.target
    (cfg_amp(2.5), *_VACUUM_MOMENTS, "scores the state game, not the amplification game"),
    # the state game's witness, 1.0 for the vacuum
    (cfg_unitary(sp.identity(1)), *_VACUUM_MOMENTS, "scores the state game, not the unitary game"),
    (_STATE_CFG, np.array([np.nan, 0.0]), _VACUUM_MOMENTS[1], "state witness nan is not finite"),
    (_STATE_CFG, _VACUUM_MOMENTS[0], np.array([[0.5, 0.1], [0.0, 0.5]]), "must be symmetric"),
    (_STATE_CFG, np.zeros(4), _VACUUM_MOMENTS[1], r"means of shape \(2,\) .* got \(4,\) and \(2, 2\)"),
    (_STATE_CFG, _VACUUM_MOMENTS[0], 0.5 * np.eye(4), r"second moments of shape \(2, 2\), got \(2,\) and \(4, 4\)"),
], ids=["amplification", "unitary", "nan", "asymmetric", "mean-length", "second-shape"])
def test_witness_estimate_state_refuses_malformed_input(cfg, mean, second, match):
    assert witness_estimate_state(*_VACUUM_MOMENTS, _STATE_CFG) == 1.0
    with pytest.raises(ValueError, match=match):
        witness_estimate_state(mean, second, cfg)


def test_verdict_terms_sum_to_omega_star():
    spec = sp.SymplecticSpec(np.diag([np.exp(0.3), np.exp(-0.3)]), np.array([0.4, 0.1]))
    scfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04, target=spec)
    verdicts = [
        run_verification(exact_unitary(spec), cfg_unitary(spec, F_t=0.5, eps=0.02), seed=1,
                         shot_cap=1000),
        run_verification(optimal_amplifier(2.5, 1.0), cfg_amp(2.5), seed=1, shot_cap=1000),
        run_state_verification(ga.apply_channel(ga.GaussianState(np.zeros(2), 0.5 * np.eye(2)),
                                                exact_unitary(spec).realize()), scfg, seed=1, shot_cap=1000),
    ]
    for v in verdicts:
        diag = v.diagnostics
        assert set(diag) == {"shot_cap", "c0", "shots", "terms"}
        assert len(diag["shots"]) == len(diag["terms"])
        assert diag["c0"] + sum(diag["terms"]) == v.omega_star


# ------------------------------------------------ one verdict core

def group_layout_terms(state, batches, counts, seed):
    """The documented stream layout, written out batch by batch: the batches
    with shots are grouped by (count key, number of columns their terms
    read) in order of first appearance; one default_rng(seed) draws each
    group with one ``marginals`` + ``moment_sums`` call, in that order; a
    batch's term is its weighted sums, added in term order, over N."""
    groups = {}
    for pos, b in enumerate(batches):
        cols = sorted({c for i, j, _ in b.terms for c in (i, j) if c is not None})
        if counts[b.key] > 0:
            groups.setdefault((b.key, len(cols)), []).append((pos, b, cols))
    rng = np.random.default_rng(seed)
    out = [0.0] * len(batches)
    for (key, _), members in groups.items():
        n = counts[key]
        P = np.array([rotated_quadrature_projector(b.setting, state.n_modes)[cols] for _, b, cols in members])
        mean, root = marginals(state, P, [b.setting for _, b, _ in members])
        s1, s2 = moment_sums(mean, root, rng, n)
        for g, (pos, b, cols) in enumerate(members):
            total = 0.0
            for i, j, w in b.terms:
                i = cols.index(i)
                total += w * (s1[g, i] if j is None else s2[g, i, cols.index(j)])
            out[pos] = float(total / n)
    return out


def _games(d_scale=0.3):
    """(cfg, measured state, verdict at (seed, cap)) for the unitary and state
    games at m = 1..4 and amplification at m = 1."""
    for m in (1, 2, 3, 4):
        spec = sp.random_symplectic(m, r_max=0.3, d_scale=d_scale, rng=np.random.default_rng(m))
        prover = ProverChannel("NoisyUnitary", spec=spec, excess=0.05)
        cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
        yield cfg, output_state(prover, cfg), lambda s, c, p=prover, g=cfg: run_verification(p, g, s, c)
        scfg = VerificationConfig("state", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03,
                                  target=spec)
        st = ga.GaussianState(spec.d, 0.5 * spec.S @ spec.S.T + 0.02 * np.eye(2 * m))
        yield scfg, st, lambda s, c, x=st, g=scfg: run_state_verification(x, g, s, c)
    acfg = cfg_amp(2.5)
    amp = optimal_amplifier(2.5, 1.0)
    yield acfg, output_state(amp, acfg), lambda s, c: run_verification(amp, acfg, s, c)


@pytest.mark.parametrize("shot_cap", [None, 10_000])
def test_verdict_terms_bit_identical_to_group_layout(shot_cap):
    for cfg, state, verdict in _games():
        batches, c0, _ = witness_plan(cfg)
        counts = {k: c if shot_cap is None else min(c, shot_cap)
                  for k, c in sample_budget(cfg).counts.items()}
        refs = [group_layout_terms(state, batches, counts, seed) for seed in (0, 7)]
        assert estimate_terms(state, batches, counts, (0, 7)) == refs
        for seed, ref in zip((0, 7), refs):
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


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's arguments."""
    calls, fn = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_one_verdict_call_compiles_once(monkeypatch):
    compiles = _count_calls(monkeypatch, protocols, "_compile")
    states = _count_calls(monkeypatch, protocols, "output_state")
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(0))
    cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
    run_verification(exact_unitary(spec), cfg, seed=0, shot_cap=1000)
    assert len(compiles) == 1
    compiles.clear()
    accept_rate(exact_unitary(spec), cfg, 5, seed=0, shot_cap=1000)
    assert len(compiles) == 1 and len(states) == 2


def test_m4_unitary_verdict_draws_once_per_group(monkeypatch):
    # 108 batches in four groups: c3 means and c4 diagonal and 45-degree
    # moments read one column, the other c4 moments and the c5 cross
    # moments two; a per-batch loop would draw and factor 108 times
    draws = _count_calls(monkeypatch, protocols, "moment_sums")
    factors = _count_calls(monkeypatch, protocols, "marginals")
    spec = sp.random_symplectic(4, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(0))
    cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
    batches = plan_unitary(cfg)[0]
    assert len(batches) == 108
    v = run_verification(exact_unitary(spec), cfg, seed=0, shot_cap=1000)
    assert len(draws) == len(factors) == 4
    assert sum(len(mean) for mean, *_ in draws) == len(v.diagnostics["terms"]) == 108
    assert [mean.shape[1] for mean, *_ in draws] == [1, 1, 2, 2]


def test_m4_unitary_verdict_without_displacement_builds_no_mean_marginal(monkeypatch):
    # d = 0: the c3 mean key draws no shots, so its group is skipped before
    # a marginal is built, and the three second-moment groups are drawn
    draws = _count_calls(monkeypatch, protocols, "moment_sums")
    factors = _count_calls(monkeypatch, protocols, "marginals")
    spec = sp.random_symplectic(4, r_max=0.3, d_scale=0.0, rng=np.random.default_rng(0))
    cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
    v = run_verification(exact_unitary(spec), cfg, seed=0, shot_cap=1000)
    assert len(draws) == len(factors) == 3
    assert [P.shape[:2] for _, P, _ in factors] == [(12, 1), (24, 2), (64, 2)]
    assert v.diagnostics["terms"][:8] == [0.0] * 8 and v.diagnostics["shots"][:8] == [0] * 8


def test_sample_budget_projects_no_setting(monkeypatch):
    def refuse(*args):
        raise AssertionError("the budget projected a setting")

    monkeypatch.setattr(protocols, "rotated_quadrature_projector", refuse)
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(0))
    for cfg in (cfg_unitary(spec, F_t=0.8, eps=0.03), cfg_amp(2.5),
                VerificationConfig("state", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03, target=spec)):
        assert sample_budget(cfg).channel_uses > 0


def _plan_entries(spec):
    """Each library entry that reads a config's plan, as (game, call on a
    config); a call returns a list of what it made."""
    honest, amp = exact_unitary(spec), optimal_amplifier(2.5, 1.0)
    state = ga.GaussianState(spec.d, 0.5 * spec.S @ spec.S.T + 0.02 * np.eye(2 * spec.n_modes))
    second = state.cov + np.outer(state.mean, state.mean)
    return [("unitary", lambda c: [c.budget]), ("unitary", lambda c: [c.witness_form]),
            ("unitary", lambda c: [run_verification(honest, c, seed=0)]),
            ("unitary", lambda c: [run_state_verification(output_state(honest, c), c, seed=0)]),
            ("unitary", lambda c: accept_rate(honest, c, 3, seed=0, shot_cap=1000)[1]),
            ("unitary", lambda c: [oracle_report(honest, c)]),
            ("state", lambda c: [sample_budget(c)]), ("state", lambda c: [run_state_verification(state, c, seed=0)]),
            ("state", lambda c: protocols._verdicts(state, c, [0, 1], None)),
            ("state", lambda c: [witness_estimate_state(state.mean, second, c)]),
            ("amplification", lambda c: accept_rate(amp, c, 3, seed=0)[1]),
            ("amplification", lambda c: [run_verification(amp, c, seed=0, shot_cap=1000)]),
            ("amplification", lambda c: [witness_analytic(amp, c)])]


def test_a_config_builds_one_plan_through_any_entry(monkeypatch):
    """A fresh config builds its plan once, on first use, whichever entry
    comes first: its budget, its exact witness or a verdict entry.  It builds
    none after that, through any entry, and every verdict reads ``cfg.plan``:
    a c0 moved on the kept plan is the c0 of every later verdict."""
    plans = _count_calls(monkeypatch, protocols, "witness_plan")
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(0))
    fresh = {"unitary": lambda: cfg_unitary(spec, F_t=0.8, eps=0.03), "amplification": lambda: cfg_amp(2.5),
             "state": lambda: VerificationConfig("state", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03, target=spec)}
    entries = _plan_entries(spec)
    for game, first in entries:
        cfg = fresh[game]()
        plans.clear()
        first(cfg)
        assert plans == [(cfg,)]
        batches, c0, shares = cfg.plan
        vars(cfg)["plan"] = moved = (batches, c0 + 1.0, shares)
        for verdict in (v for other, call in entries if other == game for v in call(cfg) if isinstance(v, Verdict)):
            assert verdict.diagnostics["c0"] == c0 + 1.0 and len(verdict.diagnostics["shots"]) == len(batches)
        assert plans == [(cfg,)] and cfg.plan is moved


def _unkept_reference(state, cfg, seeds, shot_cap):
    """Each verdict's (omega*, shots, terms), the budget's dict and the exact
    form, each from a plan of its own through ``witness_plan`` and
    ``_compile``, as they were built before the config kept its plan."""
    batches, c0, shares = witness_plan(cfg)
    budget = protocols._budget(cfg, batches, shares)
    counts = {k: c if shot_cap is None else min(c, shot_cap) for k, c in budget.counts.items()}
    verdicts = [(c0 + sum(terms), [counts[b.key] for b in batches], terms)
                for terms in estimate_terms(state, batches, counts, seeds)]
    batches, c0, _ = witness_plan(cfg)
    L, R, w, j = map(np.concatenate, zip(*((g.P[g.rows, g.i], g.P[g.rows, g.j], g.weights, g.j)
                                           for g in protocols._compile(batches))))
    L *= w[:, None]
    return verdicts, budget.to_dict(), (c0, L[j < 0].sum(0), L[j >= 0].T @ R[j >= 0])


def _random_games(rng):
    """(cfg, measured state) for random configs of all three games: unitary
    and state at m = 1..3, amplification on its one mode."""
    for m in (1, 2, 3):
        for _ in range(2):
            spec = sp.random_symplectic(m, r_max=0.4, d_scale=0.5, rng=rng)
            cfg = cfg_unitary(spec, lam=float(rng.uniform(0.3, 3.0)), F_t=0.5, eps=0.03)
            yield cfg, output_state(random_prover(rng, m), cfg)
            scfg = VerificationConfig("state", lam=1.0, F_t=0.5, delta=0.25, epsilon=0.03, target=spec)
            X = rng.normal(size=(2 * m, 2 * m))
            yield scfg, ga.GaussianState(spec.d + rng.normal(scale=0.3, size=2 * m),
                                         0.5 * spec.S @ spec.S.T + 0.1 * X @ X.T)
    for _ in range(3):
        lam = float(rng.uniform(0.3, 2.0))
        g = float(rng.uniform(1.1, 2.0)) * (lam + 1.0)
        f = (lam + 1.0) / g**2
        acfg = VerificationConfig("amplification", lam=lam, F_t=0.5 * f, delta=0.25, epsilon=0.1 * f, g=g)
        yield acfg, output_state(random_prover(rng, 1), acfg)


def test_kept_plan_verdicts_budget_and_form_are_bit_identical():
    """Verdicts (seeds 0..4, capped and uncapped), the budget and the exact
    form are the same bit for bit on a warm config, on a fresh copy of it and
    from plans built apart from the config."""
    games = set()
    for cfg, state in _random_games(np.random.default_rng(38)):
        refs = {cap: _unkept_reference(state, cfg, range(5), cap) for cap in (None, 1000)}
        assert cfg.budget.channel_uses > 0 and cfg.witness_form.C.any()  # warm: kept before any verdict
        for c in (cfg, dataclasses.replace(cfg)):
            for cap, (verdicts, budget, (c0, a, C)) in refs.items():
                got = protocols._verdicts(state, c, range(5), cap)
                assert [(v.omega_star, v.diagnostics["shots"], v.diagnostics["terms"]) for v in got] == verdicts
                assert c.budget.to_dict() == budget and c.witness_form.c0 == c0
                np.testing.assert_array_equal(c.witness_form.a, a)
                np.testing.assert_array_equal(c.witness_form.C, C)
        games.add((cfg.protocol, cfg.m))
    assert games == {("unitary", 1), ("unitary", 2), ("unitary", 3), ("state", 1), ("state", 2), ("state", 3),
                     ("amplification", 1)}


def test_each_cli_command_builds_one_plan(monkeypatch, tmp_path):
    """Each command parses a fresh config and builds its plan once, also
    when it runs several verdicts or witnesses on it (``sweep``)."""
    plans = _count_calls(monkeypatch, protocols, "witness_plan")
    spec = sp.random_symplectic(1, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(0))
    cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"config": cfg.to_dict(), "prover": exact_unitary(spec).to_dict(),
                                "repetitions": 2, "shot_cap": 1000}))
    for argv in (["verify"], ["budget"], ["sweep", "--points", "3", "--reps", "2"], ["oracle"]):
        plans.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--config", str(path)]) == 0
        assert len(plans) == 1 and plans[0][0] == cfg and plans[0][0] is not cfg


def test_state_mode_count_checked_against_the_game():
    scfg = VerificationConfig("state", lam=1.0, F_t=0.9, delta=0.25, epsilon=0.04,
                              target=sp.identity(1))
    with pytest.raises(ValueError, match="state has 2 modes, the state game measures 1"):
        run_state_verification(ga.GaussianState(np.zeros(4), 0.5 * np.eye(4)), scfg, seed=0, shot_cap=100)
    with pytest.raises(ValueError, match="state has 1 modes, the unitary game measures 2"):
        run_state_verification(ga.GaussianState(np.zeros(2), 0.5 * np.eye(2)), cfg_unitary(sp.identity(1)), seed=0,
                               shot_cap=100)
    # a prover's output is 2m modes, so the state game never runs on one
    with pytest.raises(ValueError, match="the state game measures 1"):
        run_verification(exact_unitary(sp.identity(1)), scfg, seed=0, shot_cap=100)


# ------------------------------------------------ one affine form per config

def _channel_games(rng):
    """(cfg, prover) for random unitary configs at m = 1..4 and random
    amplification configs, each with every prover kind."""
    for m in (1, 2, 3, 4):
        for _ in range(3):
            spec = sp.random_symplectic(m, r_max=0.6, d_scale=0.5, rng=rng)
            cfg = cfg_unitary(spec, lam=float(rng.uniform(0.2, 3.0)), F_t=0.5, eps=0.02)
            yield from ((cfg, random_prover(rng, m, kind)) for kind in KINDS)
    for _ in range(4):
        lam = float(rng.uniform(0.2, 2.0))
        g = float(rng.uniform(1.1, 2.0)) * (lam + 1.0)
        f = (lam + 1.0) / g**2
        cfg = VerificationConfig("amplification", lam=lam, F_t=0.5 * f, delta=0.25, epsilon=0.1 * f, g=g)
        yield from ((cfg, random_prover(rng, 1, kind)) for kind in KINDS)


def test_witness_form_equals_the_plan_batch_by_batch():
    # the config's one affine form against c0 plus each batch's exact share,
    # projected batch by batch, on the moments of output_state
    kinds = set()
    for cfg, prover in _channel_games(np.random.default_rng(28)):
        batches, c0, _ = witness_plan(cfg)
        ref = c0 + sum(exact_terms(*raw_moments(output_state(prover, cfg)), batches))
        assert abs(witness_analytic(prover, cfg) - ref) <= 1e-13
        kinds.add((cfg.protocol, prover.kind))
    assert kinds == {(game, kind) for game in ("unitary", "amplification") for kind in KINDS}


def test_state_form_equals_the_plan_batch_by_batch():
    rng = np.random.default_rng(29)
    for m in (1, 2, 3):
        for _ in range(10):
            spec = sp.random_symplectic(m, r_max=0.6, d_scale=0.5, rng=rng)
            cfg = VerificationConfig("state", lam=1.0, F_t=0.5, delta=0.25, epsilon=0.02, target=spec)
            X = rng.normal(size=(2 * m, 2 * m))
            state = ga.GaussianState(spec.d + rng.normal(scale=0.3, size=2 * m),
                                     0.5 * spec.S @ spec.S.T + 0.2 * X @ X.T)  # a mixed state
            batches, c0, _ = plan_state(cfg)
            mean, second = raw_moments(state)
            ref = c0 + sum(exact_terms(mean, second, batches))
            assert abs(witness_estimate_state(mean, second, cfg) - ref) <= 1e-13


def test_witness_form_and_tmsv_are_built_once_per_config(monkeypatch):
    plans = _count_calls(monkeypatch, protocols, "witness_plan")
    vacua = _count_calls(monkeypatch, protocols, "tmsv_pairs")
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(0))
    cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
    prover = ProverChannel("NoisyUnitary", spec=spec, excess=0.05)
    omega = witness_analytic(prover, cfg)
    assert witness_analytic(prover, cfg) == omega and len(plans) == len(vacua) == 1
    assert vacua == [(protocols.kappa_for(cfg.lam), 2)]
    fresh = dataclasses.replace(cfg)
    assert fresh == cfg and not {"witness_form", "tmsv", "plan"} & set(vars(fresh))
    assert witness_analytic(prover, fresh) == omega and len(plans) == len(vacua) == 2
    assert fresh.witness_form is not cfg.witness_form and fresh.tmsv is not cfg.tmsv
    assert plans == [(cfg,), (fresh,)] and fresh.plan is not cfg.plan


def test_configs_compare_and_hash_by_value_after_a_round_trip():
    """A unitary or state config read back from its dict or its pickle holds
    a new target object, equal to the first by value, with the same hash."""
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(4))
    state = VerificationConfig("state", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03, target=spec)
    for cfg in (cfg_unitary(spec, F_t=0.8, eps=0.03), state, cfg_amp(2.5)):
        for back in (VerificationConfig.from_dict(cfg.to_dict()), pickle.loads(pickle.dumps(cfg))):
            assert back == cfg and hash(back) == hash(cfg) and len({back, cfg}) == 1
    nudged = spec.S.copy()
    nudged[0, 1] = np.nextafter(nudged[0, 1], 1.0)
    other = cfg_unitary(sp.SymplecticSpec(nudged, spec.d), F_t=0.8, eps=0.03)
    assert other != cfg_unitary(spec, F_t=0.8, eps=0.03) and other != state


def test_built_form_leaves_the_config_unchanged():
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(1))
    for cfg in (cfg_unitary(spec, F_t=0.8, eps=0.03), cfg_amp(2.5),
                VerificationConfig("state", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03, target=spec)):
        twin, data, pickled, digest = dataclasses.replace(cfg), cfg.to_dict(), pickle.dumps(cfg), hash(cfg)
        plan, form, tmsv, budget = cfg.plan, cfg.witness_form, cfg.tmsv, cfg.budget
        assert cfg == twin and cfg.to_dict() == data and pickle.dumps(cfg) == pickled and hash(cfg) == digest
        back = pickle.loads(pickled)
        assert back.to_dict() == data and not {"plan", "witness_form", "tmsv", "budget"} & set(vars(back))
        assert back.budget == budget and back.budget is not budget
        assert back.plan == plan and back.plan is not plan and "plan" not in vars(twin)
        batches, c0, shares = plan
        assert type(batches) is tuple and type(c0) is float and type(shares) is protocols._ReadOnlyDict
        with pytest.raises(TypeError, match="read-only"):
            shares[next(iter(shares))] = 1.0
        with pytest.raises(TypeError, match="does not support item assignment"):
            batches[0] = batches[1]
        np.testing.assert_array_equal(back.witness_form.C, form.C)
        for array in (form.a, form.C, tmsv.mean, tmsv.cov):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            form.C[0, 0] = 1.0
        assert back == cfg and hash(back) == hash(cfg)


def _games_of(spec):
    """A unitary, a state and an amplification config, with the state each measures."""
    cfg = cfg_unitary(spec, F_t=0.8, eps=0.03)
    scfg = VerificationConfig("state", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03, target=spec)
    acfg = cfg_amp(2.5)
    return [(cfg, output_state(ProverChannel("NoisyUnitary", spec=spec, excess=0.05), cfg)),
            (scfg, ga.GaussianState(spec.d, 0.5 * spec.S @ spec.S.T + 0.02 * np.eye(2 * spec.n_modes))),
            (acfg, output_state(optimal_amplifier(2.5, 1.0), acfg))]


def test_budget_is_built_once_per_config_and_shared(monkeypatch):
    """The config's ``budget`` is the one builder of its budget, and every
    verdict reads that one object through ``cfg``.  The budget reads the
    config's one plan, which a cold config's first verdict call builds."""
    budgets, build = [], protocols._budget

    def builder(cfg, *args):  # records the config and the caller's name
        budgets.append((cfg, sys._getframe(1).f_code.co_name))
        return build(cfg, *args)

    monkeypatch.setattr(protocols, "_budget", builder)
    plans = _count_calls(monkeypatch, protocols, "witness_plan")
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(2))
    honest = exact_unitary(spec)
    for cfg, state in _games_of(spec):
        budgets.clear()
        plans.clear()
        first = run_state_verification(state, cfg, seed=0, shot_cap=1000)
        assert budgets == [(cfg, "budget")] and plans == [(cfg,)]
        assert first.budget is cfg.budget is sample_budget(cfg) is vars(cfg)["budget"]
        verdicts = [run_state_verification(state, cfg, seed=1)] + protocols._verdicts(state, cfg, [2, 3], 100)
        assert len(budgets) == 1 and len(plans) == 1
        if cfg.protocol == "unitary":
            verdicts += [run_verification(honest, cfg, seed=4)] + accept_rate(honest, cfg, 5, seed=0, shot_cap=1000)[1]
            assert len(budgets) == 1 and len(plans) == 1
        assert all(v.budget is first.budget for v in verdicts)
        # a cold config builds the same budget, bit for bit, and its verdicts read it
        fresh = dataclasses.replace(cfg)
        assert "budget" not in vars(fresh)
        late = run_state_verification(state, fresh, seed=0, shot_cap=1000)
        assert late.budget is fresh.budget is not first.budget and budgets == [(cfg, "budget"), (fresh, "budget")]
        assert plans == [(cfg,), (fresh,)]
        assert late.to_dict() == first.to_dict()
        assert [r.hex() for r in late.budget.raw.values()] == [r.hex() for r in first.budget.raw.values()]


def test_kept_budget_is_read_only_but_serialisable():
    spec = sp.random_symplectic(2, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(3))
    cfg, state = _games_of(spec)[0]
    v = run_state_verification(state, cfg, seed=0, shot_cap=1000)
    before = v.budget.to_dict()
    for change in (lambda d: d.__setitem__("c3", 1), lambda d: d.__delitem__("c3"), lambda d: d.update(c3=1),
                   lambda d: d.pop("c3"), lambda d: d.popitem(), lambda d: d.clear(),
                   lambda d: d.setdefault("c9", 1), lambda d: d.__ior__({"c3": 1})):
        for d in (v.budget.counts, v.budget.raw):
            with pytest.raises(TypeError, match="read-only"):
                change(d)
    with pytest.raises(TypeError, match="read-only"):
        v.budget.counts["c3"] += 1
    assert cfg.budget.to_dict() == before and sample_budget(cfg) is v.budget
    plain = v.budget.to_dict()
    assert type(plain["counts"]) is dict and type(plain["raw"]) is dict
    assert v.budget.counts == plain["counts"] and plain["counts"] == v.budget.counts
    assert json.loads(json.dumps(v.budget.counts)) == plain["counts"]
    for back in (pickle.loads(pickle.dumps(v.budget)), copy.deepcopy(v.budget)):
        assert back == v.budget and back.to_dict() == before
        with pytest.raises(TypeError, match="read-only"):
            back.counts["c3"] = 1
    assert pickle.loads(pickle.dumps(v)).to_dict() == v.to_dict()
