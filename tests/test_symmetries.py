"""Exact symmetries of the unitary game's witness: an oracle at every m that
needs no Fock code.  omega(E, U) is the config's ``witness_form`` on the
moments of ``gaussian.apply_channel(cfg.tmsv, E)`` for a prover channel E
and a target U.  The average fidelity is unitarily invariant and the
coherent prior is isotropic, and the witness shares both symmetries:
omega is unchanged when a Gaussian unitary V follows both E and U, or a
passive (orthogonal symplectic) W precedes both.  It is also additive over
products, omega(E1 (x) E2, U1 (+) U2) = omega1 + omega2 - 1.  The random
channels are any CP (X, Y, d), with a noise Y that is not isotropic."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from cvverify import gaussian as ga, protocols, symplectic as sp
from cvverify.measurement import build_measurement_plan

TOL = 1e-10


def random_channel(rng: np.random.Generator, m: int) -> ga.GaussianChannel:
    """A random CP Gaussian channel on m modes: X near the identity, and
    Y = R R^T + y 1 with y above the spectral norm of A = (Omega - X Omega
    X^T) / 2, so Y + i A >= 0, which is complete positivity."""
    n = 2 * m
    omega = sp.symplectic_form(m)
    X = np.eye(n) + rng.normal(scale=0.4, size=(n, n))
    R = rng.normal(scale=0.4, size=(n, n))
    y = np.linalg.norm(0.5 * (omega - X @ omega @ X.T), 2) + 0.01
    return ga.GaussianChannel(X, R @ R.T + y * np.eye(n), rng.normal(scale=0.5, size=n))


def omega(E: ga.GaussianChannel, target: sp.SymplecticSpec, lam: float) -> float:
    cfg = protocols.VerificationConfig("unitary", lam=lam, F_t=0.5, delta=0.25, epsilon=0.1, target=target)
    state = ga.apply_channel(cfg.tmsv, E)
    return cfg.witness_form.value(state.mean, state.cov + np.outer(state.mean, state.mean))


def left(V: sp.SymplecticSpec, E: ga.GaussianChannel, U: sp.SymplecticSpec) -> tuple:
    """V after the prover E and after the target U."""
    return (ga.GaussianChannel(V.S @ E.X, V.S @ E.Y @ V.S.T, V.S @ E.d + V.d),
            sp.SymplecticSpec(V.S @ U.S, V.S @ U.d + V.d))


def right(O: np.ndarray, E: ga.GaussianChannel, U: sp.SymplecticSpec) -> tuple:
    """The passive O before the prover E and before the target U."""
    return ga.GaussianChannel(E.X @ O, E.Y, E.d), sp.SymplecticSpec(U.S @ O, U.d)


def _case(seed: int, m: int) -> tuple:
    rng = np.random.default_rng(seed)
    return rng, random_channel(rng, m), sp.random_symplectic(m, r_max=0.5, d_scale=0.5, rng=rng)


CASES = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), lam=st.floats(0.1, 3.2))


@settings(max_examples=25, deadline=None)
@given(**CASES)
def test_witness_is_invariant_under_a_gaussian_unitary_after_both(seed, m, lam):
    rng, E, U = _case(seed, m)
    V = sp.random_symplectic(m, r_max=0.5, d_scale=0.5, rng=rng)
    assert abs(omega(*left(V, E, U), lam) - omega(E, U, lam)) <= TOL


@settings(max_examples=25, deadline=None)
@given(**CASES)
def test_witness_is_invariant_under_a_passive_unitary_before_both(seed, m, lam):
    rng, E, U = _case(seed, m)
    assert abs(omega(*right(sp.orthogonal_symplectic(m, rng), E, U), lam) - omega(E, U, lam)) <= TOL


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m1=st.integers(1, 3), m2=st.integers(1, 3), lam=st.floats(0.1, 3.2))
def test_witness_is_additive_over_products(seed, m1, m2, lam):
    assume(m1 + m2 <= 4)
    rng, E1, U1 = _case(seed, m1)
    E2, U2 = random_channel(rng, m2), sp.random_symplectic(m2, r_max=0.5, d_scale=0.5, rng=rng)
    E = ga.GaussianChannel(block_diag(E1.X, E2.X), block_diag(E1.Y, E2.Y), np.concatenate((E1.d, E2.d)))
    U = sp.SymplecticSpec(block_diag(U1.S, U2.S), np.concatenate((U1.d, U2.d)))
    assert abs(omega(E, U, lam) - (omega(E1, U1, lam) + omega(E2, U2, lam) - 1.0)) <= TOL


def test_a_wrong_mixed_setting_weight_breaks_left_invariance(monkeypatch):
    """The relations reach the plan's weights: at m = 3, the first
    mixed-setting q_j p_k weight scaled by 1.01 moves omega under a unitary
    after both by 5e-5 to 5e-3 over these five cases, far above the
    tolerance (the exact witness meets it to 1e-13)."""
    plan = protocols.witness_plan

    def skewed(cfg):
        batches, c0, shares = plan(cfg)
        mixed = build_measurement_plan(cfg.m)[5:]
        k = next(n for n, b in enumerate(batches) if b.setting in mixed)
        [(i, j, w)] = batches[k].terms
        batches[k] = batches[k]._replace(terms=((i, j, 1.01 * w),))
        return batches, c0, shares

    monkeypatch.setattr(protocols, "witness_plan", skewed)
    worst = 0.0
    for seed in range(5):
        rng, E, U = _case(seed, 3)
        V = sp.random_symplectic(3, r_max=0.5, d_scale=0.5, rng=rng)
        worst = max(worst, abs(omega(*left(V, E, U), 1.0) - omega(E, U, 1.0)))
    assert worst > 1e-3
