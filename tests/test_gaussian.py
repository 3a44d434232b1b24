import numpy as np
import pytest

from cvverify import fock, gaussian as ga, symplectic as sp


def test_thermal_zero_is_vacuum():
    t = ga.thermal(0.0)
    v = ga.vacuum(1)
    np.testing.assert_array_equal(t.mean, v.mean)
    np.testing.assert_array_equal(t.cov, v.cov)


def test_coherent_mean():
    st = ga.coherent(1.0 + 0.0j)
    np.testing.assert_allclose(st.mean, [np.sqrt(2.0), 0.0])


def test_thermal_cov_lambda_one():
    # prior inverse variance lam = 1 corresponds to nbar = 1/lam = 1
    np.testing.assert_allclose(ga.thermal(1.0).cov, 1.5 * np.eye(2))


def test_thermal_rejects_negative():
    with pytest.raises(ValueError):
        ga.thermal(-0.1)


def test_tmsv_zero_is_vacuum():
    np.testing.assert_array_equal(ga.tmsv(0.0).cov, ga.vacuum(2).cov)


def test_tmsv_reduced_is_thermal():
    r = 0.8
    reduced_cov = ga.tmsv(r).cov[:2, :2]  # mode 0 alone
    np.testing.assert_allclose(reduced_cov, ga.thermal(np.sinh(r) ** 2).cov, atol=1e-12)


def test_tmsv_purifies_thermal_prior():
    # kappa = arctanh(1/sqrt(lam+1)) gives reduced nbar = 1/lam
    lam = 1.7
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    assert np.sinh(kappa) ** 2 == pytest.approx(1.0 / lam, rel=1e-12)


def test_tmsv_reduced_matches_fock_oracle():
    r, cutoff = 0.6, 30
    rho = fock.tmsv_fock(r, cutoff).rho.reshape(cutoff, cutoff, cutoff, cutoff)
    reduced = np.einsum("ikjk->ij", rho)
    expected = fock.thermal_fock(np.sinh(r) ** 2, cutoff).rho
    np.testing.assert_allclose(reduced, expected, atol=1e-10)


def test_apply_unitary_identity():
    st = ga.tmsv(0.5)
    out = ga.apply_unitary(st, sp.identity(2))
    np.testing.assert_array_equal(out.cov, st.cov)


def test_two_mode_squeezer_makes_tmsv():
    r = 0.5
    out = ga.apply_unitary(ga.vacuum(2), sp.two_mode_squeezer(r))
    np.testing.assert_allclose(out.cov, ga.tmsv(r).cov, atol=1e-12)


def test_displacement_shifts_coherent():
    d = np.array([0.3, -0.4])
    out = ga.apply_unitary(ga.coherent(1.0 + 0.5j), sp.displacement(d))
    alpha = 1.0 + 0.5j + (d[0] + 1j * d[1]) / np.sqrt(2.0)
    np.testing.assert_allclose(out.mean, ga.coherent(alpha).mean, atol=1e-12)


def test_identity_channel():
    ch = ga.GaussianChannel(np.eye(2), np.zeros((2, 2)), np.zeros(2))
    st = ga.coherent(0.7j)
    out = ga.apply_channel(st, ch)
    np.testing.assert_array_equal(out.mean, st.mean)


def test_quantum_limited_amplifier_on_vacuum():
    g = 1.5
    ch = ga.GaussianChannel(g * np.eye(2), 0.5 * (g**2 - 1) * np.eye(2), np.zeros(2))
    out = ga.apply_channel(ga.vacuum(1), ch)
    np.testing.assert_allclose(out.cov, (g**2 - 0.5) * np.eye(2))


def test_pure_loss_on_coherent():
    eta = 0.6
    ch = ga.GaussianChannel(
        np.sqrt(eta) * np.eye(2), 0.5 * (1 - eta) * np.eye(2), np.zeros(2)
    )
    out = ga.apply_channel(ga.coherent(1.0 - 0.5j), ch)
    exp = ga.coherent(np.sqrt(eta) * (1.0 - 0.5j))
    np.testing.assert_allclose(out.mean, exp.mean, atol=1e-12)
    np.testing.assert_allclose(out.cov, exp.cov, atol=1e-12)


def test_cp_violation_rejected():
    # amplifier with added noise below the quantum limit
    g = 2.0
    with pytest.raises(ValueError):
        ga.GaussianChannel(g * np.eye(2), 0.1 * np.eye(2), np.zeros(2))


def test_channel_on_subset_propagates_correlations():
    # attenuating one half of a TMSV scales the cross block by sqrt(eta)
    eta = 0.49
    st = ga.tmsv(0.7)
    ch = ga.GaussianChannel(
        np.sqrt(eta) * np.eye(2), 0.5 * (1 - eta) * np.eye(2), np.zeros(2)
    )
    out = ga.apply_channel(st, ch, modes=[0])
    np.testing.assert_allclose(out.cov[:2, 2:], np.sqrt(eta) * st.cov[:2, 2:], atol=1e-12)
    np.testing.assert_array_equal(out.cov[2:, 2:], st.cov[2:, 2:])


def test_physicality_check():
    assert ga.vacuum(2).is_physical()
    bad = ga.GaussianState(np.zeros(2), 0.1 * np.eye(2))
    assert not bad.is_physical()


def test_state_serialization_roundtrip():
    st = ga.tmsv(0.4)
    back = ga.GaussianState.from_dict(st.to_dict())
    np.testing.assert_array_equal(st.cov, back.cov)


def test_zero_mode_state_rejected():
    with pytest.raises(ValueError, match="state mean must have positive even length"):
        ga.GaussianState(np.zeros(0), np.zeros((0, 0)))
    with pytest.raises(ValueError, match="state mean"):
        ga.GaussianState.from_dict({"modes": 0, "mean": [], "cov": []})
