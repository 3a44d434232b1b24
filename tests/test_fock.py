import numpy as np
import pytest

from cvverify import fock, gaussian as ga, symplectic as sp


def test_g_theta_vacuum_entry():
    assert fock.g_theta(1.3, 8).matrix[0, 0] == pytest.approx(1.0)


def test_g_theta_first_entry():
    theta = np.arctanh(1.0 / np.sqrt(2.0))
    assert fock.g_theta(theta, 8).matrix[1, 1].real == pytest.approx(0.5, rel=1e-12)


def test_thermal_fock_trace():
    st = fock.thermal_fock(1.0, 40)
    assert st.leakage == pytest.approx(0.0, abs=1e-6)


def test_squeeze2_identity_at_zero():
    np.testing.assert_allclose(fock.squeeze2_fock(0.0, 6).matrix, np.eye(36), atol=1e-14)


def test_squeeze2_vacuum_amplitude_is_sech():
    theta, cutoff = 0.7, 30
    S = fock.squeeze2_fock(theta, cutoff).matrix
    assert S[0, 0].real == pytest.approx(1.0 / np.cosh(theta), rel=1e-8)


def test_squeeze2_makes_tmsv():
    theta, cutoff = 0.6, 30
    S = fock.squeeze2_fock(theta, cutoff).matrix
    psi = S[:, 0]
    np.testing.assert_allclose(psi, fock.tmsv_vector(theta, cutoff), atol=1e-8)


def test_squeeze2_unitary_on_interior():
    theta, cutoff = 0.5, 24
    S = fock.squeeze2_fock(theta, cutoff).matrix
    prod = (S @ S.conj().T).reshape(cutoff, cutoff, cutoff, cutoff)
    half = cutoff // 2
    interior = prod[:half, :half, :half, :half].reshape(half * half, half * half)
    eye = np.eye(cutoff * cutoff).reshape(cutoff, cutoff, cutoff, cutoff)
    eye_int = eye[:half, :half, :half, :half].reshape(half * half, half * half)
    np.testing.assert_allclose(interior, eye_int, atol=1e-8)


def test_squeeze2_leakage_warning():
    with pytest.warns(UserWarning, match="leakage"):
        fock.squeeze2_fock(2.0, 6)


def test_performance_operator_trace_is_one():
    om = fock.performance_operator_avg_fidelity(1.0, 1.0, 12, check_convergence=False)
    assert np.real(np.trace(om.matrix)) == pytest.approx(1.0, abs=1e-3)


def test_performance_operator_vacuum_entry_radial_oracle():
    g, lam = 2.0, 1.0
    om = fock.performance_operator_avg_fidelity(g, lam, 10, check_convergence=False)
    assert om.matrix[0, 0].real == pytest.approx(lam / (lam + g**2 + 1.0), rel=1e-8)


def test_performance_operator_phase_symmetry():
    # phase averaging makes the operator commute with n_out - n_ref
    cutoff = 12
    om = fock.performance_operator_avg_fidelity(1.0, 1.0, cutoff, check_convergence=False)
    n = fock.number_op(cutoff).matrix
    diff = np.kron(n, np.eye(cutoff)) - np.kron(np.eye(cutoff), n)
    comm = om.matrix @ diff - diff @ om.matrix
    assert np.max(np.abs(comm)) < 1e-10


def test_performance_operator_convergence_check_passes():
    fock.performance_operator_avg_fidelity(1.0, 1.0, 10, check_convergence=True)


def test_canonical_observable_ill_conditioning_guard():
    with pytest.raises(ValueError, match="ill-conditioned"):
        fock.canonical_observable(1.0, 1.0, 80, check_convergence=False)


def test_canonical_observable_identity_channel_fidelity():
    # tr[O (I (x) I)(TMSV)] = 1 for the identity channel at g = 1
    lam, cutoff = 1.0, 16
    O = fock.canonical_observable(1.0, lam, cutoff, check_convergence=False)
    st = fock.entangled_output_fock([], lam, cutoff)
    assert fock.expectation(O, st) == pytest.approx(1.0, abs=1e-3)


def test_canonical_observable_large_lam_limit():
    # lam -> large at g = 1: theta -> 0 and G_theta -> vacuum projector,
    # so the observable approaches a rank-ish-1 vacuum test
    lam, cutoff = 40.0, 8
    O = fock.canonical_observable(1.0, lam, cutoff, check_convergence=False).matrix
    C = fock.canonical_observable_closed_form(1.0, lam, cutoff).matrix
    np.testing.assert_allclose(O, C, atol=1e-4)
    theta = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    assert fock.g_theta(theta, cutoff).matrix[1, 1].real < 0.03


def test_closed_form_rejects_transition_point():
    with pytest.raises(ValueError):
        fock.canonical_observable_closed_form(np.sqrt(2.0), 1.0, 10)


def test_closed_form_branches_continuous_near_transition():
    # just below vs just above g = sqrt(lam+1): the two branches approach
    # each other on the low-photon block
    lam, cutoff = 1.0, 10
    root = np.sqrt(lam + 1.0)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        below = fock.canonical_observable_closed_form(root * 0.995, lam, cutoff).matrix
        above = fock.canonical_observable_closed_form(root * 1.005, lam, cutoff).matrix
    low = [i * cutoff + j for i in range(2) for j in range(2)]
    assert np.max(np.abs(below[np.ix_(low, low)] - above[np.ix_(low, low)])) < 0.05


def test_damping_inequality_small():
    theta, cutoff = 0.5, 20
    G = fock.g_theta(theta, cutoff).matrix
    n = np.diag(fock.number_op(cutoff).matrix).real
    lhs = np.diag(G).real - (1.0 - n / np.cosh(theta) ** 2)
    assert lhs.min() >= -1e-12
    # equality exactly at photon numbers 0 and 1
    np.testing.assert_allclose(lhs[:2], 0.0, atol=1e-12)
    assert lhs[2:].min() > 0


def test_gaussian_unitary_fock_matches_phase_space_moments():
    # push a coherent state through a random Gaussian unitary in both
    # representations and compare the output quadrature means
    rng = np.random.default_rng(4)
    spec = sp.random_symplectic(1, r_max=0.5, d_scale=0.5, rng=rng)
    cutoff = 40
    alpha = 0.4 - 0.3j
    U = fock.gaussian_unitary_fock(spec, cutoff).matrix
    psi = U @ fock.coherent_vector(alpha, cutoff)

    a = fock.destroy(cutoff)
    q = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    mean_fock = np.array([np.vdot(psi, q @ psi).real, np.vdot(psi, p @ psi).real])

    out = ga.apply_unitary(ga.coherent(alpha), spec)
    np.testing.assert_allclose(mean_fock, out.mean, atol=1e-6)


def test_gaussian_unitary_fock_rotation_and_squeezer():
    cutoff = 30
    U = fock.gaussian_unitary_fock(sp.rotation(0.9), cutoff).matrix
    np.testing.assert_allclose(U, fock.rotate_fock(0.9, cutoff), atol=1e-10)
    U2 = fock.gaussian_unitary_fock(sp.single_mode_squeezer(0.4), cutoff).matrix
    np.testing.assert_allclose(U2, fock.squeeze1_fock(0.4, cutoff), atol=1e-8)


def test_attenuator_kraus_trace_preserving():
    cutoff = 16
    ks = fock.attenuator_kraus(0.7, cutoff)
    total = sum(K.conj().T @ K for K in ks)
    half = cutoff // 2
    np.testing.assert_allclose(total[:half, :half], np.eye(half), atol=1e-8)


def test_amplifier_kraus_attenuates_trace_only_by_truncation():
    cutoff = 20
    ks = fock.amplifier_kraus(1.2, cutoff)
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    rho[0, 0] = 1.0
    out = sum(K @ rho @ K.conj().T for K in ks)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-6)
    # vacuum through a gain-g amplifier is thermal with nbar = g^2 - 1
    expected = fock.thermal_fock(1.2**2 - 1.0, cutoff).rho
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_choi_performance_operator_consistency():
    # s_E = tr(Omega C_E): equals 1 for the identity channel at g = 1 and the
    # directly integrated fidelity for an attenuator
    lam, cutoff = 1.0, 12
    om = fock.performance_operator_avg_fidelity(1.0, lam, cutoff, check_convergence=False)
    c_id = fock.choi_fock([], cutoff)
    assert np.real(np.trace(om.matrix @ c_id)) == pytest.approx(1.0, abs=1e-3)

    eta = 0.8
    c_att = fock.choi_fock([("attenuator", eta)], cutoff)
    got = np.real(np.trace(om.matrix @ c_att))
    # direct integral: F(alpha) = exp(-(1-sqrt(eta))^2 |alpha|^2), averaged
    # over the prior lam exp(-lam |a|^2)/pi gives lam/(lam+(1-sqrt(eta))^2)
    expected = lam / (lam + (1.0 - np.sqrt(eta)) ** 2)
    assert got == pytest.approx(expected, abs=1e-3)


def test_entangled_output_identity_is_tmsv():
    lam, cutoff = 1.0, 20
    st = fock.entangled_output_fock([], lam, cutoff)
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    np.testing.assert_allclose(st.rho, fock.tmsv_fock(kappa, cutoff).rho, atol=1e-7)


def test_default_cutoff_policy():
    c = fock.default_cutoff(1.0, leakage=1e-6)
    nbar = 1.0
    tail = (nbar / (nbar + 1.0)) ** c
    assert tail <= 1e-6 < (nbar / (nbar + 1.0)) ** (c - 1)


def test_hermiticity_flags():
    assert fock.number_op(6).is_hermitian()
    assert not fock.FockOperator(4, 1, np.diag([1j, 0, 0, 0])).is_hermitian()


# Dense references: the one-mode operators as explicit products with the
# identity, as the oracle wrote them before it contracted single slots.

def _dense_kraus(rho, kraus, cutoff):
    out = np.zeros_like(rho)
    for K in kraus:
        KI = np.kron(K, np.eye(cutoff))
        out += KI @ rho @ KI.conj().T
    return out


def _dense_witness_unitary(spec, lam, cutoff):
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    S = fock.squeeze2_fock(kappa, cutoff).matrix
    U = np.kron(fock.gaussian_unitary_fock(spec, cutoff).matrix, np.eye(cutoff))
    core = np.kron(fock.number_op(cutoff).matrix, np.eye(cutoff))
    W = np.eye(cutoff**2) - (lam / (lam + 1.0)) * (U @ S @ core @ S.conj().T @ U.conj().T)
    return 0.5 * (W + W.conj().T)


def _dense_witness_amp(g, lam, cutoff):
    theta_p = np.arctanh(np.sqrt(lam + 1.0) / g)
    S = fock.squeeze2_fock(theta_p, cutoff).matrix
    core = np.kron(np.eye(cutoff), fock.number_op(cutoff).matrix)
    W = ((lam + 1.0) / g**2) * (
        np.eye(cutoff**2) - ((g**2 - lam - 1.0) / g**2) * (S @ core @ S.conj().T)
    )
    return 0.5 * (W + W.conj().T)


def _dense_closed_form(g, lam, cutoff):
    root = np.sqrt(lam + 1.0)
    if g < root:
        theta, scale = np.arctanh(g / root), 1.0
        core = np.kron(fock.g_theta(theta, cutoff).matrix, np.eye(cutoff))
    else:
        theta = np.arctanh(root / g)
        scale = np.tanh(theta) ** 2
        core = np.kron(np.eye(cutoff), fock.g_theta(theta, cutoff).matrix)
    S = fock.squeeze2_fock(theta, cutoff).matrix
    return scale * (S @ core @ S.conj().T)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_structured_kraus_matches_dense():
    cutoff = 10
    rng = np.random.default_rng(11)
    rho = rng.normal(size=(cutoff**2, cutoff**2)) + 1j * rng.normal(size=(cutoff**2, cutoff**2))
    spec = sp.random_symplectic(1, r_max=0.4, d_scale=0.4, rng=rng)
    families = {
        "unitary": [fock.gaussian_unitary_fock(spec, cutoff).matrix],
        "attenuator": fock.attenuator_kraus(0.7, cutoff),
        "amplifier": fock.amplifier_kraus(1.3, cutoff),
    }
    for name, kraus in families.items():
        got = fock.apply_kraus_first_mode(rho, kraus, cutoff)
        dev = np.max(np.abs(got - _dense_kraus(rho, kraus, cutoff)))
        assert dev <= 1e-12, (name, dev)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_structured_witnesses_match_dense():
    cutoff = 12
    spec = sp.random_symplectic(1, r_max=0.4, d_scale=0.4, rng=np.random.default_rng(3))
    for lam in (0.8, 1.0):
        W = fock.witness_fock_unitary(spec, lam, cutoff).matrix
        assert np.max(np.abs(W - _dense_witness_unitary(spec, lam, cutoff))) <= 1e-12
        for g in (2.0, 2.5):
            W = fock.witness_fock_amp(g, lam, cutoff).matrix
            assert np.max(np.abs(W - _dense_witness_amp(g, lam, cutoff))) <= 1e-12


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_structured_closed_form_matches_dense():
    cutoff = 10
    for g in (1.0, 2.0):
        C = fock.canonical_observable_closed_form(g, 1.0, cutoff, embed_cutoff=cutoff).matrix
        assert np.max(np.abs(C - _dense_closed_form(g, 1.0, cutoff))) <= 1e-12
