import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from scipy.linalg import expm
from scipy.special import gammaln

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
    om = fock.performance_operator_avg_fidelity(1.0, 1.0, 12)
    assert np.real(np.trace(om.matrix)) == pytest.approx(1.0, abs=1e-3)


def test_performance_operator_vacuum_entry_radial_oracle():
    g, lam = 2.0, 1.0
    om = fock.performance_operator_avg_fidelity(g, lam, 10)
    assert om.matrix[0, 0].real == pytest.approx(lam / (lam + g**2 + 1.0), rel=1e-8)


def test_performance_operator_phase_symmetry():
    # phase averaging makes the operator commute with n_out - n_ref
    cutoff = 12
    om = fock.performance_operator_avg_fidelity(1.0, 1.0, cutoff)
    n = fock.number_op(cutoff).matrix
    diff = np.kron(n, np.eye(cutoff)) - np.kron(np.eye(cutoff), n)
    comm = om.matrix @ diff - diff @ om.matrix
    assert np.max(np.abs(comm)) < 1e-10


def _quadrature_performance_operator(g, lam, cutoff, radial_points):
    """Omega by quadrature over the coherent prior: Gauss-Laguerre in radius
    against lam e^{-lam|a|^2}, uniform in angle (exact for the angle average,
    as |m - n - m' + n'| < 4 cutoff)."""
    u, wu = laggauss(radial_points)
    n_angles = max(4 * cutoff, 8)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    alpha = np.outer(np.sqrt(u / lam), np.exp(1j * angles)).ravel()
    w = np.repeat(wu / n_angles, n_angles)
    n = np.arange(cutoff)
    inv_sqrt_fact = np.exp(-0.5 * gammaln(n + 1.0))

    def coherent_rows(beta):  # <n|beta> for every node at once
        return np.exp(-0.5 * np.abs(beta[:, None]) ** 2) * beta[:, None] ** n * inv_sqrt_fact

    out, ref = coherent_rows(g * alpha), coherent_rows(np.conj(alpha))
    vec = (out[:, :, None] * ref[:, None, :]).reshape(alpha.size, cutoff * cutoff)
    return (vec.T * w) @ vec.conj()


@pytest.mark.parametrize("cutoff", [10, 14])
def test_performance_operator_matches_quadrature(cutoff):
    for g in (0.7, 1.0, 2.0):
        om = fock.performance_operator_avg_fidelity(g, 1.0, cutoff).matrix
        ref = _quadrature_performance_operator(g, 1.0, cutoff, 80)
        assert np.max(np.abs(om - ref)) <= 1e-12, g
    # the 40-point rule is short of convergence at g = 2; the closed form is not
    coarse = _quadrature_performance_operator(2.0, 1.0, cutoff, 40)
    assert np.max(np.abs(om - coarse)) > 1e-9


def test_canonical_observable_ill_conditioning_guard():
    with pytest.raises(ValueError, match="ill-conditioned"):
        fock.canonical_observable(1.0, 1.0, 80)


def test_canonical_observable_identity_channel_fidelity():
    # tr[O (I (x) I)(TMSV)] = 1 for the identity channel at g = 1
    lam, cutoff = 1.0, 16
    O = fock.canonical_observable(1.0, lam, cutoff)
    st = fock.entangled_output_fock([], lam, cutoff)
    assert fock.expectation(O, st) == pytest.approx(1.0, abs=1e-3)


def test_canonical_observable_large_lam_limit():
    # lam -> large at g = 1: theta -> 0 and G_theta -> vacuum projector,
    # so the observable approaches a rank-ish-1 vacuum test
    lam, cutoff = 40.0, 8
    O = fock.canonical_observable(1.0, lam, cutoff).matrix
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


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated Fock amplitudes of the coherent state |alpha>."""
    n = np.arange(cutoff, dtype=float)
    return np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * gammaln(n + 1.0)) * alpha**n


def test_gaussian_unitary_fock_matches_phase_space_moments():
    # push a coherent state through a random Gaussian unitary in both
    # representations and compare the output quadrature means
    rng = np.random.default_rng(4)
    spec = sp.random_symplectic(1, r_max=0.5, d_scale=0.5, rng=rng)
    cutoff = 40
    alpha = 0.4 - 0.3j
    U = fock.gaussian_unitary_fock(spec, cutoff).matrix
    psi = U @ coherent_vector(alpha, cutoff)

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
    om = fock.performance_operator_avg_fidelity(1.0, lam, cutoff)
    # unnormalized Choi-type operator sum_ij E(|i><j|) (x) |i><j|
    psi = np.zeros(cutoff * cutoff, dtype=complex)
    psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = 1.0
    c_id = np.outer(psi, psi.conj())
    assert np.real(np.trace(om.matrix @ c_id)) == pytest.approx(1.0, abs=1e-3)

    eta = 0.8
    c_att = fock.apply_elementary_first_mode(c_id, [("attenuator", eta)], cutoff)
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
    c = fock.default_cutoff(1.0)
    nbar = 1.0
    tail = (nbar / (nbar + 1.0)) ** c
    assert tail <= 1e-6 < (nbar / (nbar + 1.0)) ** (c - 1)


def test_hermiticity_flags():
    assert fock.number_op(6).is_hermitian()
    assert not fock.FockOperator(4, 1, np.diag([1j, 0, 0, 0])).is_hermitian()


# Dense references: the two-mode generators as kron products exponentiated
# whole, and the one-mode operators as explicit products with the identity,
# as the oracle wrote them before it used photon-number sectors and
# single-slot contractions.

def _dense_squeeze2(theta, cutoff):
    a = fock.destroy(cutoff).real
    return expm(theta * (np.kron(a.conj().T, a.conj().T) - np.kron(a, a)))


def _dense_beamsplitter(transmissivity, cutoff):
    a = fock.destroy(cutoff).real
    t = np.arccos(np.sqrt(transmissivity))
    return expm(t * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T)))


def _contract_kraus(rho, kraus, cutoff):
    """Every K as a full matrix product on the first slot of the (c, c, c, c) view."""
    R = rho.reshape(cutoff, cutoff, cutoff, cutoff)
    out = sum(K.conj() @ (K @ R.reshape(cutoff, -1)).reshape(R.shape) for K in kraus)
    return out.reshape(cutoff**2, cutoff**2)


def _dense_kraus(rho, kraus, cutoff):
    out = np.zeros_like(rho)
    for K in kraus:
        KI = np.kron(K, np.eye(cutoff))
        out += KI @ rho @ KI.conj().T
    return out


def _dense_witness_unitary(spec, lam, cutoff):
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    S = _dense_squeeze2(kappa, cutoff)
    U = np.kron(fock.gaussian_unitary_fock(spec, cutoff).matrix, np.eye(cutoff))
    core = np.kron(fock.number_op(cutoff).matrix, np.eye(cutoff))
    W = np.eye(cutoff**2) - (lam / (lam + 1.0)) * (U @ S @ core @ S.conj().T @ U.conj().T)
    return 0.5 * (W + W.conj().T)


def _dense_witness_amp(g, lam, cutoff):
    theta_p = np.arctanh(np.sqrt(lam + 1.0) / g)
    S = _dense_squeeze2(theta_p, cutoff)
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
    S = _dense_squeeze2(theta, cutoff)
    return scale * (S @ core @ S.conj().T)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [6, 20, 32])
def test_sector_generators_match_dense_expm(cutoff):
    S = fock.squeeze2_fock(0.6, cutoff).matrix
    assert np.max(np.abs(S - _dense_squeeze2(0.6, cutoff))) <= 1e-12
    B = fock.beamsplitter_fock(0.7, cutoff).matrix
    assert np.max(np.abs(B - _dense_beamsplitter(0.7, cutoff))) <= 1e-12


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_shifted_kraus_matches_dense_contraction():
    cutoff = 12
    rng = np.random.default_rng(5)
    rho = rng.normal(size=(cutoff**2, cutoff**2)) + 1j * rng.normal(size=(cutoff**2, cutoff**2))
    spec = sp.random_symplectic(1, r_max=0.4, d_scale=0.4, rng=rng)
    chains = {
        "attenuator": [("attenuator", 0.7)],
        "amplifier": [("amplifier", 1.3)],
        "mixed": [("attenuator", 0.8), ("unitary", spec), ("amplifier", 1.2), ("attenuator", 0.9)],
    }
    kraus = {
        "attenuator": lambda eta: fock.attenuator_kraus(eta, cutoff),
        "amplifier": lambda g: fock.amplifier_kraus(g, cutoff),
        "unitary": lambda s: [fock.gaussian_unitary_fock(s, cutoff).matrix],
    }
    for name, chain in chains.items():
        ref = rho
        for kind, param in chain:
            ref = _contract_kraus(ref, kraus[kind](param), cutoff)
        got = fock.apply_elementary_first_mode(rho, chain, cutoff)
        assert np.max(np.abs(got - ref)) <= 1e-12, name


@pytest.mark.parametrize("call, match", [
    (lambda: fock.beamsplitter_fock(1.5, 6), "transmissivity"),
    (lambda: fock.beamsplitter_fock(-0.2, 6), "transmissivity"),
    (lambda: fock.beamsplitter_fock(np.nan, 6), "transmissivity"),
    (lambda: fock.squeeze2_fock(np.nan, 6), "theta must be finite"),
    (lambda: fock.squeeze2_fock(np.inf, 6), "theta must be finite"),
    (lambda: fock.tmsv_fock(np.nan, 6), "r must be finite"),
    (lambda: fock.tmsv_fock(-np.inf, 6), "r must be finite"),
    (lambda: fock.g_theta(np.nan, 6), "theta must be finite"),
    (lambda: fock.g_theta(np.inf, 6), "theta must be finite"),
    (lambda: fock.performance_operator_avg_fidelity(np.nan, 1.0, 6), "g and lam"),
    (lambda: fock.performance_operator_avg_fidelity(1.0, np.nan, 6), "g and lam"),
    (lambda: fock.performance_operator_avg_fidelity(np.inf, 1.0, 6), "g and lam"),
    (lambda: fock.thermal_fock(np.nan, 6), "mean photon number"),
    (lambda: fock.thermal_fock(np.inf, 6), "mean photon number"),
    (lambda: fock.default_cutoff(0.0), "lam must be positive"),
    (lambda: fock.default_cutoff(np.nan), "lam must be positive"),
    (lambda: fock.default_cutoff(-1.0), "lam must be positive"),
], ids=[
    "bs-above-1", "bs-negative", "bs-nan", "sq-nan", "sq-inf", "tmsv-nan", "tmsv-inf",
    "g-theta-nan", "g-theta-inf", "omega-g-nan", "omega-lam-nan", "omega-g-inf",
    "thermal-nan", "thermal-inf", "cutoff-lam-0", "cutoff-lam-nan", "cutoff-lam-negative",
])
def test_fock_builders_reject_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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
