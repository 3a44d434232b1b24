import math

import numpy as np
import pytest

from builders import coherent, tmsv_block_cov
from cvverify import fock, gaussian as ga, symplectic as sp
from cvverify.channels import exact_unitary
from cvverify.protocols import kappa_for
from test_fock import thermal_rho


def test_coherent_mean():
    st = coherent(1.0 + 0.0j)
    np.testing.assert_allclose(st.mean, [np.sqrt(2.0), 0.0])


def test_thermal_cov_lambda_one():
    # prior inverse variance lam = 1 corresponds to nbar = 1/lam = 1: the
    # reduced TMSV probe is thermal with covariance (nbar + 1/2) 1
    np.testing.assert_allclose(ga.tmsv_pairs(kappa_for(1.0), 1).cov[:2, :2], 1.5 * np.eye(2), atol=1e-12)


def test_tmsv_zero_is_vacuum():
    np.testing.assert_array_equal(ga.tmsv_pairs(0.0, 1).cov, 0.5 * np.eye(4))


@pytest.mark.parametrize("r", [0.0, 5e-324, 1e-160, 0.3, kappa_for(1.0), kappa_for(1e-6), 2.0, 20.0])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_tmsv_matches_the_block_construction_bit_for_bit(r, m):
    # the signed zeros of Z's p-p entries included: bytes, not values, compared
    cov = ga.tmsv_pairs(r, m).cov
    assert cov.tobytes() == tmsv_block_cov(r, m).tobytes() and cov.shape == (4 * m, 4 * m)


def test_tmsv_rejects_negative_squeezing():
    with pytest.raises(ValueError):
        ga.tmsv_pairs(-0.1, 1)


def test_tmsv_reduced_is_thermal():
    r = 0.8
    reduced_cov = ga.tmsv_pairs(r, 1).cov[:2, :2]  # mode 0 alone
    np.testing.assert_allclose(reduced_cov, (np.sinh(r) ** 2 + 0.5) * np.eye(2), atol=1e-12)


def test_tmsv_purifies_thermal_prior():
    # kappa = arctanh(1/sqrt(lam+1)) gives reduced nbar = 1/lam
    lam = 1.7
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    assert np.sinh(kappa) ** 2 == pytest.approx(1.0 / lam, rel=1e-12)


def test_tmsv_reduced_matches_fock_oracle():
    # the oracle's TMSV probe at lam = 1/sinh^2(r) has kappa = r
    r, cutoff = 0.6, 30
    st = fock.entangled_output_fock([], 1.0 / np.sinh(r) ** 2, cutoff)
    rho = fock._assemble(st.sectors).reshape(cutoff, cutoff, cutoff, cutoff)
    reduced = np.einsum("ikjk->ij", rho)
    expected = thermal_rho(np.sinh(r) ** 2, cutoff)
    np.testing.assert_allclose(reduced, expected, atol=1e-10)


def test_apply_unitary_identity():
    st = ga.tmsv_pairs(0.5, 1)
    out = ga.apply_channel(st, exact_unitary(sp.identity(2)).realize())
    np.testing.assert_array_equal(out.cov, st.cov)


def test_two_mode_squeezer_makes_tmsv():
    # S = [[cosh r, sinh r Z], [sinh r Z, cosh r]] takes the vacuum to the TMSV
    r = 0.5
    c, s = np.cosh(r), np.sinh(r)
    Z = np.diag([1.0, -1.0])
    squeezer = sp.SymplecticSpec(np.block([[c * np.eye(2), s * Z], [s * Z, c * np.eye(2)]]), np.zeros(4))
    vacuum = ga.GaussianState(np.zeros(4), 0.5 * np.eye(4))
    out = ga.apply_channel(vacuum, exact_unitary(squeezer).realize())
    np.testing.assert_allclose(out.cov, ga.tmsv_pairs(r, 1).cov, atol=1e-12)


def test_displacement_shifts_coherent():
    d = np.array([0.3, -0.4])
    out = ga.apply_channel(coherent(1.0 + 0.5j), exact_unitary(sp.SymplecticSpec(np.eye(2), d)).realize())
    alpha = 1.0 + 0.5j + (d[0] + 1j * d[1]) / np.sqrt(2.0)
    np.testing.assert_allclose(out.mean, coherent(alpha).mean, atol=1e-12)


def test_identity_channel():
    ch = ga.GaussianChannel(np.eye(2), np.zeros((2, 2)), np.zeros(2))
    st = coherent(0.7j)
    out = ga.apply_channel(st, ch)
    np.testing.assert_array_equal(out.mean, st.mean)


def test_quantum_limited_amplifier_on_vacuum():
    g = 1.5
    ch = ga.GaussianChannel(g * np.eye(2), 0.5 * (g**2 - 1) * np.eye(2), np.zeros(2))
    out = ga.apply_channel(ga.GaussianState(np.zeros(2), 0.5 * np.eye(2)), ch)
    np.testing.assert_allclose(out.cov, (g**2 - 0.5) * np.eye(2))


def test_pure_loss_on_coherent():
    eta = 0.6
    ch = ga.GaussianChannel(
        np.sqrt(eta) * np.eye(2), 0.5 * (1 - eta) * np.eye(2), np.zeros(2)
    )
    out = ga.apply_channel(coherent(1.0 - 0.5j), ch)
    exp = coherent(np.sqrt(eta) * (1.0 - 0.5j))
    np.testing.assert_allclose(out.mean, exp.mean, atol=1e-12)
    np.testing.assert_allclose(out.cov, exp.cov, atol=1e-12)


def test_cp_violation_rejected():
    # amplifier with added noise below the quantum limit
    g = 2.0
    with pytest.raises(ValueError):
        ga.GaussianChannel(g * np.eye(2), 0.1 * np.eye(2), np.zeros(2))


def test_channel_maps_n_modes_to_n_modes():
    """A channel acts on one set of N modes: a 2N_out x 2N_in X with
    N_out != N_in is refused, whatever Y and d."""
    for X, Y, d in ((np.ones((2, 4)), np.eye(2), np.zeros(2)), (np.ones((4, 2)), np.eye(4), np.zeros(4))):
        with pytest.raises(ValueError, match=r"X must be 2N x 2N, got shape"):
            ga.GaussianChannel(X, Y, d)
    assert ga.GaussianChannel(np.eye(4), np.zeros((4, 4)), np.zeros(4)).n_modes == 2


def test_channel_on_subset_propagates_correlations():
    # attenuating the leading half of a TMSV scales the cross block by sqrt(eta)
    eta = 0.49
    st = ga.tmsv_pairs(0.7, 1)
    ch = ga.GaussianChannel(
        np.sqrt(eta) * np.eye(2), 0.5 * (1 - eta) * np.eye(2), np.zeros(2)
    )
    out = ga.apply_channel(st, ch)
    np.testing.assert_allclose(out.cov[:2, 2:], np.sqrt(eta) * st.cov[:2, 2:], atol=1e-12)
    np.testing.assert_array_equal(out.cov[2:, 2:], st.cov[2:, 2:])


def test_channel_on_more_modes_than_the_state_rejected():
    vacuum = ga.GaussianState(np.zeros(2), 0.5 * np.eye(2))
    wide = ga.GaussianChannel(np.eye(4), np.zeros((4, 4)), np.zeros(4))
    with pytest.raises(ValueError, match="^a 2-mode channel cannot act on a 1-mode state$"):
        ga.apply_channel(vacuum, wide)


def test_physicality_check():
    assert ga.GaussianState(np.zeros(4), 0.5 * np.eye(4)).is_physical()
    bad = ga.GaussianState(np.zeros(2), 0.1 * np.eye(2))
    assert not bad.is_physical()


def test_state_serialization_roundtrip():
    # the scenario form: the mode count, the mean and the row-major covariance
    st = ga.tmsv_pairs(0.4, 1)
    back = ga.GaussianState.from_dict({"modes": 2, "mean": st.mean.tolist(), "cov": st.cov.ravel().tolist()})
    np.testing.assert_array_equal(st.mean, back.mean)
    np.testing.assert_array_equal(st.cov, back.cov)


def test_zero_mode_state_rejected():
    with pytest.raises(ValueError, match="state mean must have positive even length"):
        ga.GaussianState(np.zeros(0), np.zeros((0, 0)))
    with pytest.raises(ValueError, match="state mean"):
        ga.GaussianState.from_dict({"modes": 0, "mean": [], "cov": []})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_state_and_channel_entries_rejected(bad):
    # NaN slipped past the symmetry check; inf became "violates the uncertainty
    # relation" after a RuntimeWarning, or failed only once a verdict had run
    eye = 0.5 * np.eye(2)
    with pytest.raises(ValueError, match="state mean has an entry that is not finite"):
        ga.GaussianState(np.array([0.0, bad]), eye)
    with pytest.raises(ValueError, match="state cov has an entry that is not finite"):
        ga.GaussianState(np.zeros(2), np.diag([bad, 0.5]))
    with pytest.raises(ValueError, match="state cov has an entry that is not finite"):
        ga.GaussianState.from_dict({"modes": 1, "mean": [0, 0], "cov": [0.5, bad, bad, 0.5]})
    for name, (X, Y, d) in {"X": (np.diag([bad, 1.0]), eye, np.zeros(2)),
                            "Y": (np.eye(2), np.diag([0.5, bad]), np.zeros(2)),
                            "d": (np.eye(2), eye, np.array([bad, 0.0]))}.items():
        with pytest.raises(ValueError, match=f"channel {name} has an entry that is not finite"):
            ga.GaussianChannel(X, Y, d)
