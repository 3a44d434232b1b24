import functools
import inspect
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from scipy.linalg import expm, polar
from scipy.special import gammaln

from builders import coherent, dense_matrix
from cvverify import fock, gaussian as ga, symplectic as sp
from cvverify.channels import ProverChannel, elementary_factors, exact_unitary


def test_g_theta_vacuum_entry():
    assert fock.g_theta(1.3, 8)[0] == pytest.approx(1.0)


def test_g_theta_first_entry():
    theta = np.arctanh(1.0 / np.sqrt(2.0))
    assert fock.g_theta(theta, 8)[1] == pytest.approx(0.5, rel=1e-12)


# Test-side builders: the TMSV, the thermal state and the library's
# one-diagonal Kraus operators as full matrices.

def tmsv_vector(r, cutoff):
    """sech(r) sum_n tanh^n(r) |nn>, the two-mode squeezed vacuum."""
    psi = np.zeros(cutoff * cutoff, dtype=complex)
    psi[np.arange(cutoff) * (cutoff + 1)] = np.tanh(r) ** np.arange(cutoff) / np.cosh(r)
    return psi


def tmsv_rho(r, cutoff):
    psi = tmsv_vector(r, cutoff)
    return np.outer(psi, psi.conj())


def thermal_rho(nbar, cutoff):
    n = np.arange(cutoff, dtype=float)
    return np.diag(nbar**n / (nbar + 1.0) ** (n + 1.0)).astype(complex)


def density(state):
    """The dense rho of a FockState: its sector blocks assembled, or, for the
    amplitude form, sum vec(X) vec(X)+ over its terms X = A[m] @ B[n]."""
    if state.sectors is not None:
        return fock._assemble(state.sectors, state.cutoff)
    A, B = fock._term_stacks(state.form)
    X = (A[:, None] @ B[None]).reshape(-1, state.cutoff**2)
    return X.T @ X.conj()


def kraus_matrices(kind, param, cutoff):
    """The Kraus operators of an attenuator or amplifier factor, as full matrices."""
    return [np.diag(d.astype(complex), s) for s, d in fock._kraus_diagonals(kind, param, cutoff)]


# The two-mode squeezer S_theta = exp(theta (a1+ a2+ - a1 a2)) as the oracle
# holds it: the stacked chain blocks of fock._chain_exps, and the amplifier's
# Kraus operators K_k = <k|_E S |0>_E read off their first columns.

def test_squeeze2_identity_at_zero():
    for _, E in fock._chain_exps(0.0, 6, 6):
        np.testing.assert_allclose(E, np.broadcast_to(np.eye(E.shape[-1]), E.shape), atol=1e-14)
    diagonals = fock._kraus_diagonals("amplifier", 1.0, 6)
    assert np.array_equal(diagonals[0][1], np.ones(6)) and not any(np.any(d) for _, d in diagonals[1:])


def test_squeeze2_vacuum_amplitude_is_sech():
    theta, cutoff = 0.7, 30
    K0 = fock._kraus_diagonals("amplifier", np.cosh(theta), cutoff)[0][1]  # K_0[q, q] = <q, 0|S|q, 0>
    assert K0[0] == pytest.approx(1.0 / np.cosh(theta), rel=1e-8)


def test_squeeze2_makes_tmsv():
    # S |00> = TMSV: K_k[k, 0] = <k, k|S|0, 0>
    theta, cutoff = 0.6, 30
    column = [d[0] for _, d in fock._kraus_diagonals("amplifier", np.cosh(theta), cutoff)]
    np.testing.assert_allclose(column, np.tanh(theta) ** np.arange(cutoff) / np.cosh(theta), atol=1e-8)


def test_squeeze2_unitary_on_interior():
    """The truncated squeezer is orthogonal on the whole truncated space, not
    only its interior: every stacked block, padding included, and so the
    amplifier's Kraus operators keep the trace."""
    theta, cutoff = 0.5, 24
    for _, E in fock._chain_exps(theta, cutoff, cutoff):
        eye = np.broadcast_to(np.eye(E.shape[-1]), E.shape)
        assert np.max(np.abs(E @ E.swapaxes(-1, -2) - eye)) <= 1e-12
    total = sum(K.conj().T @ K for K in kraus_matrices("amplifier", np.cosh(theta), cutoff))
    assert np.max(np.abs(total - np.eye(cutoff))) <= 1e-12


def test_squeeze2_leakage_warning():
    with pytest.warns(UserWarning, match="leakage"):
        fock.entangled_output_fock([("amplifier", np.cosh(2.0))], 1.0, 6)
    fock._CORES.clear()
    for _ in range(2):  # the second build reads the cached core, and warns all the same
        with pytest.warns(UserWarning, match="leakage"):
            fock.witness_fock_amp(1.5, 1.0, 6)  # theta' = arctanh(sqrt(2) / 1.5)
    assert len(fock._CORES) == 1


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
    n = np.diag(np.arange(cutoff, dtype=float))
    diff = np.kron(n, np.eye(cutoff)) - np.kron(np.eye(cutoff), n)
    comm = om.matrix @ diff - diff @ om.matrix
    assert np.max(np.abs(comm)) < 1e-10


def _dense_performance_operator(g, lam, cutoff):
    """<m n|Omega|m' n'> over the whole c^4 grid, zero off m - n = m' - n':
    the closed form as the oracle evaluated it before it built sector blocks."""
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 2 * cutoff - 1)))))
    m, n, m2, n2 = np.ogrid[:cutoff, :cutoff, :cutoff, :cutoff]
    s = m + n2
    log_omega = (
        np.log(lam) + (m + m2) * np.log(g) + log_fact[s] - (s + 1) * np.log(lam + 1.0 + g * g)
        - 0.5 * (log_fact[m] + log_fact[n] + log_fact[m2] + log_fact[n2])
    )
    omega = np.where(m - n == m2 - n2, np.exp(log_omega), 0.0)
    return omega.reshape(cutoff * cutoff, cutoff * cutoff)


def _dense_canonical_observable(g, lam, cutoff):
    """(1 (x) rho_R^(-1/2)) Omega (1 (x) rho_R^(-1/2)), symmetrized, in full."""
    rho_r = (lam / (1.0 + lam)) * (1.0 / (1.0 + lam)) ** np.arange(cutoff, dtype=float)
    inv_sqrt = np.tile(1.0 / np.sqrt(rho_r), cutoff)
    O = inv_sqrt[:, None] * _dense_performance_operator(g, lam, cutoff) * inv_sqrt
    return 0.5 * (O + O.conj().T)


@pytest.mark.parametrize("cutoff", [6, 14, 30])
def test_sector_performance_operator_matches_dense_formula(cutoff):
    for g in (1.0, 2.0):
        for got, ref in ((fock.performance_operator_avg_fidelity(g, 1.0, cutoff), _dense_performance_operator),
                         (fock.canonical_observable(g, 1.0, cutoff), _dense_canonical_observable)):
            ref = ref(g, 1.0, cutoff)
            assert got.sectors is not None and "matrix" not in vars(got)
            assert np.max(np.abs(got.matrix - ref)) <= 1e-15 * np.max(np.abs(ref)), (g, cutoff)


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
    assert fock.g_theta(theta, cutoff)[1] < 0.03


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


@pytest.mark.parametrize("cutoff", [14, 20, 30, 39])
def test_closed_form_at_its_default_embedding_matches_the_observable(cutoff):
    """Both branches at lam = 1 within 1e-10 of the canonical observable, at
    small angles (g = 0.1 and 10), where the path term sets the embedding,
    and at larger ones, where the tail does.  At g = 1 the embedding
    cutoff + 18 missed by 9.8e-5 at cutoff 14 and by 4.1e-2 at 39."""
    for g in (0.1, 0.5, 1.0, 2.0, 3.0, 10.0):
        diff = fock.canonical_observable(g, 1.0, cutoff) - fock.canonical_observable_closed_form(g, 1.0, cutoff)
        assert max(np.max(np.abs(B)) for _, _, B in diff.sectors) <= 1e-10, g


def test_default_embedding_grows_with_the_angle_up_to_the_cutoff_bound():
    """The embedding grows with tanh(theta) and the cutoff, and stops at
    MAX_CUTOFF: near the transition, and at a cutoff of 250 on a g = 2 branch
    (where cutoff + 18 was refused)."""
    embeddings = [fock._embedding(np.arctanh(t), 14) for t in (0.35, 0.5, 0.71, 0.9, 0.995)]
    assert embeddings == sorted(embeddings) and 14 < embeddings[0] and embeddings[-1] == fock.MAX_CUTOFF
    assert fock._embedding(np.arctanh(0.71), 20) > embeddings[2]
    assert fock._embedding(np.arctanh(1.0 / np.sqrt(2.0)), 250) == fock.MAX_CUTOFF


def test_damping_inequality_small():
    theta, cutoff = 0.5, 20
    n = np.arange(cutoff, dtype=float)
    lhs = fock.g_theta(theta, cutoff) - (1.0 - n / np.cosh(theta) ** 2)
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
    U = fock.gaussian_unitary_fock(spec, cutoff)
    psi = U @ coherent_vector(alpha, cutoff)

    a = fock.destroy(cutoff)
    q = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    mean_fock = np.array([np.vdot(psi, q @ psi).real, np.vdot(psi, p @ psi).real])

    out = ga.apply_channel(coherent(alpha), exact_unitary(spec).realize())
    np.testing.assert_allclose(mean_fock, out.mean, atol=1e-6)


def test_gaussian_unitary_fock_rotation_and_squeezer():
    cutoff = 30
    c, s = np.cos(0.9), np.sin(0.9)
    U = fock.gaussian_unitary_fock(sp.SymplecticSpec(np.array([[c, -s], [s, c]]), np.zeros(2)), cutoff)
    np.testing.assert_allclose(U, fock.rotate_fock(0.9, cutoff), atol=1e-10)
    U2 = fock.gaussian_unitary_fock(sp.SymplecticSpec(np.diag([np.exp(0.4), np.exp(-0.4)]), np.zeros(2)), cutoff)
    np.testing.assert_allclose(U2, fock.squeeze1_fock(0.4, cutoff), atol=1e-8)


def test_attenuator_kraus_trace_preserving():
    """The closed-form Kraus operators keep the trace on the whole truncated
    space: K_k+ K_k is diag over n of C(n, k) eta^(n - k) (1 - eta)^k, and
    every n < c sums all of its k <= n."""
    total = sum(K.conj().T @ K for K in kraus_matrices("attenuator", 0.7, 20))
    assert np.max(np.abs(total - np.eye(20))) <= 1e-12
    for cutoff in (2, 3, 20, 64, 96, 200):
        for eta in (1e-6, 0.3, 0.7, 0.999):
            total = np.zeros(cutoff)
            for shift, d in fock._kraus_diagonals("attenuator", eta, cutoff):
                total[shift:] += np.abs(d) ** 2  # d[m] = K[m, m + shift]
            assert np.max(np.abs(total - 1.0)) <= 1e-12, (cutoff, eta)


def test_attenuator_kraus_at_the_edges_of_the_transmissivity():
    diagonals = fock._kraus_diagonals("attenuator", 1.0, 8)
    assert np.array_equal(diagonals[0][1], np.ones(8)) and not any(np.any(d) for _, d in diagonals[1:])
    lossless = fock.entangled_output_fock([("attenuator", 1.0)], 1.0, 8)
    assert np.array_equal(density(lossless), density(fock.entangled_output_fock([], 1.0, 8)))
    for eta in (0.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="transmissivity must lie in"):
            fock._kraus_diagonals("attenuator", eta, 8)


def test_amplifier_kraus_attenuates_trace_only_by_truncation():
    cutoff = 20
    ks = kraus_matrices("amplifier", 1.2, cutoff)
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    rho[0, 0] = 1.0
    out = sum(K @ rho @ K.conj().T for K in ks)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-6)
    # vacuum through a gain-g amplifier is thermal with nbar = g^2 - 1
    expected = thermal_rho(1.2**2 - 1.0, cutoff)
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
    c_att = _contract_kraus(c_id, kraus_matrices("attenuator", eta, cutoff), cutoff)
    got = np.real(np.trace(om.matrix @ c_att))
    # direct integral: F(alpha) = exp(-(1-sqrt(eta))^2 |alpha|^2), averaged
    # over the prior lam exp(-lam |a|^2)/pi gives lam/(lam+(1-sqrt(eta))^2)
    expected = lam / (lam + (1.0 - np.sqrt(eta)) ** 2)
    assert got == pytest.approx(expected, abs=1e-3)


def test_entangled_output_identity_is_tmsv():
    lam, cutoff = 1.0, 20
    st = fock.entangled_output_fock([], lam, cutoff)
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    np.testing.assert_allclose(density(st), tmsv_rho(kappa, cutoff), atol=1e-7)


def test_default_cutoff_policy():
    c = fock.default_cutoff(1.0)
    nbar = 1.0
    tail = (nbar / (nbar + 1.0)) ** c
    assert tail <= 1e-6 < (nbar / (nbar + 1.0)) ** (c - 1)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_builders_hold_no_dense_matrix_until_it_is_read():
    """Every public builder that returns a FockOperator or FockState returns
    one that holds sector blocks or a form and no dense matrix; the matrix of
    an operator held in sectors is assembled on first read, kept, and
    read-only, a framed operator's is a ValueError, and a state has none."""
    spec = sp.random_symplectic(1, r_max=0.3, d_scale=0.3, rng=np.random.default_rng(2))
    W = fock.witness_fock_unitary(sp.identity(1), 1.0, 6)
    O = fock.canonical_observable_closed_form(1.0, 1.0, 6)
    objects = [
        ("performance_operator_avg_fidelity", fock.performance_operator_avg_fidelity(2.0, 1.0, 6)),
        ("canonical_observable", fock.canonical_observable(2.0, 1.0, 6)),
        ("canonical_observable_closed_form", O),
        ("witness_fock_unitary", W),
        ("witness_fock_unitary", fock.witness_fock_unitary(spec, 1.0, 6)),  # in a frame
        ("witness_fock_amp", fock.witness_fock_amp(2.0, 1.0, 6)),
        ("entangled_output_fock", fock.entangled_output_fock([("attenuator", 0.9)], 1.0, 6)),
        ("entangled_output_fock", fock.entangled_output_fock([("unitary", spec)], 1.0, 6)),  # amplitude form
        ("__sub__", W - O),
    ]
    builders = {name for name, f in vars(fock).items() if inspect.isfunction(f) and not name.startswith("_")
                and inspect.signature(f).return_annotation in ("FockOperator", "FockState")}
    assert builders == {name for name, _ in objects} - {"__sub__"}
    for name, obj in objects:
        assert (obj.sectors is None) != (obj.form is None), name
        if isinstance(obj, fock.FockState):
            assert not hasattr(obj, "matrix") and not hasattr(obj, "rho"), name
            continue
        assert "matrix" not in vars(obj), name
        if obj.form is not None:
            with pytest.raises(ValueError, match="only from an operator held in sectors"):
                obj.matrix
            continue
        M = obj.matrix
        assert M.shape == (36, 36) and not M.flags.writeable, name
        assert obj.matrix is M, name
    with pytest.raises(ValueError, match="either its sector blocks or a form"):
        fock.FockOperator(6)


# Dense references: the two-mode generators as kron products exponentiated
# whole, and the one-mode operators as explicit products with the identity,
# as the oracle wrote them before it used photon-number sectors and
# single-slot contractions.  Above cutoff 16 the two-mode squeezer is
# assembled from per-chain blocks (_sector_squeeze2, below) instead.

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


@functools.lru_cache(maxsize=4)
def _dense_squeezed_number(lam, cutoff):
    """S_kappa (n (x) 1) S_kappa+ as dense products, shared by every target.

    Above cutoff 16, S is assembled from per-chain polar(expm) blocks instead
    of the dense expm: at kappa = arctanh(1/sqrt(2)) the expm is itself off
    orthogonality by 7.6e-13 at cutoff 24 (the per-chain squeezer by
    1.3e-15), and test_sector_generators_match_dense_expm ties the two together.
    """
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    S = _dense_squeeze2(kappa, cutoff) if cutoff <= 16 else _sector_squeeze2(kappa, cutoff)
    return (S * np.repeat(np.arange(cutoff, dtype=float), cutoff)) @ S.T  # S (n (x) 1) S^T


def _dense_witness_unitary(spec, lam, cutoff):
    U = fock.gaussian_unitary_fock(spec, cutoff)
    core = _contract_kraus(_dense_squeezed_number(lam, cutoff), [U], cutoff)
    W = np.eye(cutoff**2) - (lam / (lam + 1.0)) * core
    return 0.5 * (W + W.conj().T)


def _dense_witness_amp(g, lam, cutoff):
    theta_p = np.arctanh(np.sqrt(lam + 1.0) / g)
    S = _dense_squeeze2(theta_p, cutoff)
    core = np.kron(np.eye(cutoff), np.diag(np.arange(cutoff, dtype=float)))
    W = ((lam + 1.0) / g**2) * (
        np.eye(cutoff**2) - ((g**2 - lam - 1.0) / g**2) * (S @ core @ S.conj().T)
    )
    return 0.5 * (W + W.conj().T)


def _dense_closed_form(g, lam, cutoff):
    root = np.sqrt(lam + 1.0)
    if g < root:
        theta, scale = np.arctanh(g / root), 1.0
        core = np.kron(np.diag(fock.g_theta(theta, cutoff)), np.eye(cutoff))
    else:
        theta = np.arctanh(root / g)
        scale = np.tanh(theta) ** 2
        core = np.kron(np.eye(cutoff), np.diag(fock.g_theta(theta, cutoff)))
    S = _dense_squeeze2(theta, cutoff)
    return scale * (S @ core @ S.conj().T)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [6, 20, 32])
def test_sector_generators_match_dense_expm(cutoff):
    """The per-chain squeezer reference against the dense expm, and the
    attenuator's and amplifier's Kraus operators against those sliced from
    the dense beamsplitter and squeezer dilations."""
    S = _dense_squeeze2(0.6, cutoff)
    assert np.max(np.abs(_sector_squeeze2(0.6, cutoff) - S)) <= 1e-12
    for got, ref in ((kraus_matrices("attenuator", 0.7, cutoff), _dense_beamsplitter(0.7, cutoff)),
                     (kraus_matrices("amplifier", np.cosh(0.6), cutoff), S)):
        assert max(np.max(np.abs(K - R)) for K, R in zip(got, _dilation_kraus(ref, cutoff))) <= 1e-12


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_shifted_kraus_matches_dense_contraction():
    """Each factor order's output, held in sectors or amplitude form, against
    every factor contracted in full into the dense TMSV: its dense read, its
    leakage and a framed witness's expectation on it."""
    cutoff, lam = 12, 1.0
    rng = np.random.default_rng(5)
    spec = sp.random_symplectic(1, r_max=0.4, d_scale=0.4, rng=rng)
    chains = {
        "attenuator": [("attenuator", 0.7)],
        "amplifier": [("amplifier", 1.3)],
        "mixed": [("attenuator", 0.8), ("unitary", spec), ("amplifier", 1.2), ("attenuator", 0.9)],
    }
    kraus = {
        "attenuator": lambda eta: kraus_matrices("attenuator", eta, cutoff),
        "amplifier": lambda g: kraus_matrices("amplifier", g, cutoff),
        "unitary": lambda s: [fock.gaussian_unitary_fock(s, cutoff)],
    }
    rho0 = tmsv_rho(np.arctanh(1.0 / np.sqrt(lam + 1.0)), cutoff)
    W = fock.witness_fock_unitary(spec, lam, cutoff)
    W_ref = _dense_witness_unitary(spec, lam, cutoff)
    for name, chain in chains.items():
        ref = rho0
        for kind, param in chain:
            ref = _contract_kraus(ref, kraus[kind](param), cutoff)
        st = fock.entangled_output_fock(chain, lam, cutoff)
        assert np.max(np.abs(density(st) - ref)) <= 1e-12, name
        assert abs(st.leakage - (1.0 - np.trace(ref).real)) <= 1e-12, name
        assert abs(fock.expectation(W, st) - np.vdot(ref, W_ref).real) <= 1e-12, name


@pytest.mark.parametrize("call, match", [
    (lambda: fock.entangled_output_fock([("attenuator", 1.5)], 1.0, 6), "transmissivity"),
    (lambda: fock.entangled_output_fock([("attenuator", -0.2)], 1.0, 6), "transmissivity"),
    (lambda: fock.entangled_output_fock([("attenuator", np.nan)], 1.0, 6), "transmissivity"),
    (lambda: fock.entangled_output_fock([("amplifier", np.nan)], 1.0, 6), "theta must be finite"),
    (lambda: fock.entangled_output_fock([("amplifier", np.inf)], 1.0, 6), "theta must be finite"),
    (lambda: fock.entangled_output_fock([], 1e-20, 10), "lam = 1e-20 is too small"),
    (lambda: fock.witness_fock_unitary(sp.identity(1), 1e-20, 10), "lam = 1e-20 is too small"),
    (lambda: fock.g_theta(np.nan, 6), "theta must be finite"),
    (lambda: fock.g_theta(np.inf, 6), "theta must be finite"),
    (lambda: fock.performance_operator_avg_fidelity(np.nan, 1.0, 6), "g and lam"),
    (lambda: fock.performance_operator_avg_fidelity(1.0, np.nan, 6), "g and lam"),
    (lambda: fock.performance_operator_avg_fidelity(np.inf, 1.0, 6), "g and lam"),
    (lambda: fock.default_cutoff(0.0), "lam must be positive"),
    (lambda: fock.default_cutoff(np.nan), "lam must be positive"),
    (lambda: fock.default_cutoff(-1.0), "lam must be positive"),
    (lambda: fock.witness_fock_unitary(sp.identity(1), np.inf, 10), "lam must be positive"),
    (lambda: fock.witness_fock_unitary(sp.identity(1), 1.0, 0), r"^cutoff must lie in \[2, 256\], got 0$"),
    (lambda: fock.witness_fock_amp(np.inf, 1.0, 10), "requires finite g"),
    (lambda: fock.witness_fock_amp(np.nan, 1.0, 10), "requires finite g"),
    (lambda: fock.witness_fock_amp(2.0, -0.5, 10), "lam must be positive"),
    (lambda: fock.entangled_output_fock([], 1.0, 0), r"^cutoff must lie in \[2, 256\], got 0$"),
    (lambda: fock.entangled_output_fock([], np.nan, 10), "lam must be positive"),
    # lam = -1 once gave an operator, and g = NaN the message for g = sqrt(lam+1)
    (lambda: fock.canonical_observable_closed_form(2.0, -1.0, 6), "lam must be positive"),
    (lambda: fock.canonical_observable_closed_form(np.nan, 1.0, 6), "g must be positive and finite, got nan"),
    (lambda: fock.canonical_observable_closed_form(-2.0, 1.0, 6), "g must be positive and finite"),
    (lambda: fock.canonical_observable_closed_form(2.0, 1.0, 250, 257),
     r"^embed_cutoff must lie in \[2, 256\], got 257$"),
    (lambda: fock.canonical_observable_closed_form(2.0, 1.0, 6, 8.5), r"^embed_cutoff must be an integer, got 8.5$"),
], ids=[
    "bs-above-1", "bs-negative", "bs-nan", "sq-nan", "sq-inf", "tmsv-inf", "w-unitary-lam-tiny",
    "g-theta-nan", "g-theta-inf", "omega-g-nan", "omega-lam-nan", "omega-g-inf", "cutoff-lam-0", "cutoff-lam-nan", "cutoff-lam-negative",
    "w-unitary-lam-inf", "w-unitary-cutoff-0", "w-amp-g-inf", "w-amp-g-nan", "w-amp-lam-negative",
    "output-cutoff-0", "output-lam-nan", "closed-form-lam-negative", "closed-form-g-nan",
    "closed-form-g-negative", "closed-form-embed-257-plus", "closed-form-embed-not-integral",
])
def test_fock_builders_reject_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# Valid values of the other arguments of each public fock function with a
# cutoff; a new one fails the test below until it has an entry here.
CUTOFF_ARGS = {
    "destroy": {},
    "g_theta": {"theta": 0.5},
    "displace_fock": {"beta": 0.3 - 0.1j},
    "squeeze1_fock": {"r": 0.2},
    "rotate_fock": {"phi": 0.4},
    "gaussian_unitary_fock": {"spec": sp.SymplecticSpec(np.diag([np.exp(0.2), np.exp(-0.2)]), np.zeros(2))},
    "performance_operator_avg_fidelity": {"g": 1.5, "lam": 1.0},
    "canonical_observable": {"g": 1.0, "lam": 1.0},
    "canonical_observable_closed_form": {"g": 2.0, "lam": 1.0},
    "witness_fock_unitary": {"spec": sp.SymplecticSpec(np.diag([np.exp(0.2), np.exp(-0.2)]), np.zeros(2)), "lam": 1.0},
    "witness_fock_amp": {"g": 2.0, "lam": 1.0},
    "entangled_output_fock": {"ops": [("attenuator", 0.8), ("amplifier", 1.2)], "lam": 1.0},
}


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} ran before the cutoff check")


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_every_cutoff_builder_holds_the_one_cutoff_rule(monkeypatch):
    """Every public function with a ``cutoff`` accepts 2 and an integral numpy
    3, and refuses 1 and 257 with one message and 2.5 with another, on entry:
    numpy is not touched before the refusal.  A non-integral cutoff once
    passed (g_theta(0.5, 2.5) had three entries) or ended in numpy's TypeError."""
    builders = {name: f for name, f in vars(fock).items()
                if inspect.isfunction(f) and f.__module__ == fock.__name__ and not name.startswith("_")
                and "cutoff" in inspect.signature(f).parameters}
    assert sorted(builders) == sorted(CUTOFF_ARGS)
    for name, f in builders.items():
        for cutoff in (2, np.int64(3)):
            f(**CUTOFF_ARGS[name], cutoff=cutoff)
    monkeypatch.setattr(fock, "np", _NoNumpy())
    refusals = [(1, r"must lie in \[2, 256\], got 1"), (257, r"must lie in \[2, 256\], got 257"),
                (2.5, r"must be an integer, got 2.5")]
    for name, f in builders.items():
        for cutoff, message in refusals:
            with pytest.raises(ValueError, match=rf"^cutoff {message}$"):
                f(**CUTOFF_ARGS[name], cutoff=cutoff)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_amplification_witness_needs_no_tmsv_squeezing():
    """At a lam too small for the TMSV, the amplification witness, whose
    squeezer is arctanh(sqrt(lam+1) / g), is still built."""
    W = fock.witness_fock_amp(1.5, 1e-20, 10)
    assert all(np.all(np.isfinite(B)) for _, _, B in W.sectors)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_structured_kraus_matches_dense():
    """Each family's Kraus operators as shifts of the amplitude matrix's rows,
    against K (x) 1 formed in full on the dense output of a unitary."""
    cutoff, lam = 10, 1.0
    rng = np.random.default_rng(11)
    spec = sp.random_symplectic(1, r_max=0.4, d_scale=0.4, rng=rng)
    U = fock.gaussian_unitary_fock(spec, cutoff)
    rho_u = _dense_kraus(tmsv_rho(np.arctanh(1.0 / np.sqrt(lam + 1.0)), cutoff), [U], cutoff)
    families = {
        "unitary": ([], None),
        "attenuator": ([("attenuator", 0.7)], kraus_matrices("attenuator", 0.7, cutoff)),
        "amplifier": ([("amplifier", 1.3)], kraus_matrices("amplifier", 1.3, cutoff)),
    }
    for name, (ops, kraus) in families.items():
        st = fock.entangled_output_fock([("unitary", spec)] + ops, lam, cutoff)
        ref = rho_u if kraus is None else _dense_kraus(rho_u, kraus, cutoff)
        dev = np.max(np.abs(density(st) - ref))
        assert dev <= 1e-12, (name, dev)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_structured_witnesses_match_dense():
    cutoff = 12
    spec = sp.random_symplectic(1, r_max=0.4, d_scale=0.4, rng=np.random.default_rng(3))
    for lam in (0.8, 1.0):
        W = dense_matrix(fock.witness_fock_unitary(spec, lam, cutoff))
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


# The dense path as the oracle ran it before the sector form: the TMSV as a
# dense matrix, Kraus operators sliced from the assembled dilation unitary
# (or read off its per-chain blocks), and each diagonal block summed from all
# of them.

def _dilation_kraus(U, cutoff):
    U4 = U.reshape(cutoff, cutoff, cutoff, cutoff)
    return [U4[:, k, :, 0] for k in range(cutoff)]


def _slab_kraus(rho, kraus, cutoff):
    c = cutoff
    T = rho.reshape(c, c, c, c).transpose(0, 2, 1, 3).reshape(c, c, c * c)
    Ks = np.stack(kraus)
    out = np.empty(T.shape, dtype=complex)
    for delta in range(1 - c, c):
        i = np.arange(max(0, -delta), min(c, c - delta))
        k = i + delta
        S = np.einsum("nab,nab->ab", Ks[:, i[:, None], i], Ks[:, k[:, None], k].conj())
        out[i, k] = S @ T[i, k]
    return out.reshape(c, c, c, c).transpose(0, 2, 1, 3).reshape(c * c, c * c)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [6, 20, 40])
def test_sector_path_matches_dense_path(cutoff):
    c, lam, eta, gain = cutoff, 1.0, 0.8, 1.3
    kraus = {
        "attenuator": _beamsplitter_kraus(eta, c),
        "amplifier": _dilation_kraus(_sector_squeeze2(np.arccosh(gain), c), c),
    }
    params = {"attenuator": eta, "amplifier": gain}
    for kind, ref in kraus.items():
        got = kraus_matrices(kind, params[kind], c)
        assert max(np.max(np.abs(K - R)) for K, R in zip(got, ref)) <= 1e-12, kind

    theta_p = np.arctanh(np.sqrt(lam + 1.0) / 2.0)
    S = _sector_squeeze2(theta_p, c)
    core = (S * np.tile(np.arange(c, dtype=float), c)) @ S.T  # S (1 (x) n) S^T
    amp_ref = (lam + 1.0) / 4.0 * (np.eye(c * c) - (3.0 - lam) / 4.0 * core)
    amp_ref = 0.5 * (amp_ref + amp_ref.T)
    W_amp = fock.witness_fock_amp(2.0, lam, c)
    assert W_amp.sectors is not None
    assert np.max(np.abs(W_amp.matrix - amp_ref)) <= 1e-12
    W_unitary = fock.witness_fock_unitary(sp.identity(1), lam, c)

    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    rho0 = tmsv_rho(kappa, c)
    refs = {(): rho0}
    for kinds in [("attenuator",), ("amplifier",), ("attenuator", "amplifier"),
                  ("amplifier", "attenuator"), ("amplifier", "attenuator", "amplifier")]:
        refs[kinds] = _slab_kraus(refs[kinds[:-1]], kraus[kinds[-1]], c)
    assert W_unitary.sectors is not None
    witnesses = [(W_amp, amp_ref), (W_unitary, W_unitary.matrix)]  # (as built, dense)
    for kinds, ref in refs.items():
        st = fock.entangled_output_fock([(kind, params[kind]) for kind in kinds], lam, c)
        assert st.sectors is not None, kinds
        assert abs(st.leakage - (1.0 - np.trace(ref).real)) <= 1e-12, kinds
        for W, W_dense in witnesses:
            want = np.vdot(ref, W_dense).real  # tr(W rho) for Hermitian rho
            assert abs(fock.expectation(W, st) - want) <= 1e-12, kinds
        assert np.max(np.abs(density(st) - ref)) <= 1e-12, kinds


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [6, 12, 24, 40])
def test_unitary_witness_matches_dense(cutoff):
    c, lam = cutoff, 1.0
    rng = np.random.default_rng(cutoff)
    targets = {
        "identity": sp.identity(1),
        # d = 0, and diagonal U when its Euler squeeze is exactly 0
        "rotation": sp.SymplecticSpec(np.array([[np.cos(0.9), -np.sin(0.9)], [np.sin(0.9), np.cos(0.9)]]),
                                      np.zeros(2)),
        "squeezer": sp.SymplecticSpec(np.diag([np.exp(0.3), np.exp(-0.3)]), np.zeros(2)),
        "random-1": sp.random_symplectic(1, r_max=0.4, d_scale=0.4, rng=rng),
        "random-2": sp.random_symplectic(1, r_max=0.4, d_scale=0.4, rng=rng),
    }
    sector_state = fock.entangled_output_fock([("attenuator", 0.8), ("amplifier", 1.2)], lam, c)
    dense_state = fock.entangled_output_fock([("unitary", targets["random-1"])], lam, c)
    assert sector_state.sectors is not None and dense_state.sectors is None
    for name, spec in targets.items():
        assert name.startswith("random") == bool(np.any(spec.d))
        W = fock.witness_fock_unitary(spec, lam, c)
        U = fock.gaussian_unitary_fock(spec, c)
        diagonal = not np.count_nonzero(U - np.diag(np.diagonal(U)))
        assert (W.sectors is not None) == diagonal, name
        assert (W.form is not None) != diagonal and "matrix" not in vars(W), name  # a frame, never dense
        assert diagonal == (name == "identity") or name == "rotation", name
        ref = _dense_witness_unitary(spec, lam, c)
        assert np.max(np.abs(dense_matrix(W) - ref)) <= 1e-12, name
        for st in (sector_state, dense_state):
            want = np.vdot(density(st), ref).real  # tr(W rho) for Hermitian rho
            assert abs(fock.expectation(W, st) - want) <= 1e-12, name


def _dense_channel(rho, ops, cutoff):
    """The factors applied one by one to a dense two-mode rho: a unitary
    contracted in full, an attenuator or amplifier summed from its Kraus
    operators diagonal block by diagonal block."""
    for kind, param in ops:
        if kind == "unitary":
            rho = _contract_kraus(rho, [fock.gaussian_unitary_fock(param, cutoff)], cutoff)
        else:
            rho = _slab_kraus(rho, kraus_matrices(kind, param, cutoff), cutoff)
    return rho


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [6, 24, 40])
def test_leading_unitary_state_matches_dense_path(cutoff):
    """Outputs with a unitary factor, held in amplitude form: the dense read
    and each witness's expectation against the dense state and witness."""
    c, lam = cutoff, 1.0
    rng = np.random.default_rng(7)
    spec, spec2 = (sp.random_symplectic(1, r_max=0.4, d_scale=0.4, rng=rng) for _ in range(2))
    rho0 = tmsv_rho(np.arctanh(1.0 / np.sqrt(lam + 1.0)), c)
    witnesses = [(fock.witness_fock_unitary(t, lam, c), _dense_witness_unitary(t, lam, c))
                 for t in (sp.identity(1), spec, spec2)]
    W_amp = fock.witness_fock_amp(2.0, lam, c)  # its dense read is tied to the expm reference at cutoff 12
    witnesses.append((W_amp, W_amp.matrix))
    for ops in ([("unitary", spec)],
                [("unitary", spec), ("attenuator", 0.8), ("amplifier", 1.2)],
                [("unitary", spec), ("unitary", spec2), ("attenuator", 0.9)],
                [("attenuator", 0.8), ("unitary", spec)]):  # the unitary is not first
        st = fock.entangled_output_fock(ops, lam, c)
        assert st.sectors is None, ops
        for W, W_ref in witnesses:
            assert abs(fock.expectation(W, st) - np.vdot(density(st), W_ref).real) <= 1e-12, ops
        ref = _dense_channel(rho0, ops, c)
        assert np.max(np.abs(density(st) - ref)) <= 1e-12, ops
        assert abs(st.leakage - (1.0 - np.trace(ref).real)) <= 1e-12, ops


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [6, 16])
def test_max_eigenvalue_by_blocks_matches_dense(cutoff):
    lam = 1.0
    for g in (1.0, 2.0):
        O = fock.canonical_observable_closed_form(g, lam, cutoff, embed_cutoff=cutoff)
        if g > np.sqrt(lam + 1.0):
            W = fock.witness_fock_amp(g, lam, cutoff)
        else:
            W = fock.witness_fock_unitary(sp.identity(1), lam, cutoff)
        diff = W - O
        assert diff.sectors is not None
        dense = np.max(np.linalg.eigvalsh(W.matrix - O.matrix))
        assert abs(fock.max_eigenvalue(diff) - dense) <= 1e-12, g
    # a framed operator has no blocks to subtract, and neither has a state
    squeezer = sp.SymplecticSpec(np.diag([np.exp(0.3), np.exp(-0.3)]), np.zeros(2))
    framed = fock.witness_fock_unitary(squeezer, lam, cutoff)
    for other in (framed, fock.entangled_output_fock([], lam, cutoff)):
        with pytest.raises(ValueError, match="held in sectors"):
            O - other


# The eigh kernel against SciPy's expm, chain by chain: each chain's block is
# exponentiated on its own, with the generator written from the ladder
# matrix elements <i+1, j+1|a1+ a2+|i, j> = sqrt((i+1)(j+1)) of the squeezer
# and <i+1, j-1|a1+ a2|i, j> = sqrt((i+1) j) of the beamsplitter, whose
# chains of total N = i + j are the attenuator's reference.  The generator
# is antisymmetric, so the exact block is orthogonal, and the reference is
# the orthogonal polar factor of expm: on the short beamsplitter chains of
# large weight (norm ~130 at cutoff 64, theta = arccosh 2) expm's scaling
# and squaring is itself off orthogonality by 3e-12 and off a 40-digit
# exponential by 1.5e-12, while its polar factor is within 1e-14 of it.

KERNEL_THETAS = [0.0, 0.3, np.arctanh(1.0 / np.sqrt(2.0)), np.arccosh(2.0)]


def _chain_expm(theta, i, j, step):
    w = theta * np.sqrt((i[:-1] + 1.0) * (j[:-1] + 1.0 if step > 0 else j[:-1]))
    return polar(expm(np.diag(w, -1) - np.diag(w, 1)))[0]


def _sector_squeeze2(theta, cutoff):
    """The two-mode squeezer, each chain of fock._chains a polar(expm) block."""
    c = cutoff
    S = np.zeros((c * c, c * c))
    for i, j in fock._chains(c):
        S[np.ix_(i * c + j, i * c + j)] = _chain_expm(theta, i, j, 1)
    return S


def _beamsplitter_kraus(eta, cutoff):
    """K_k[i, i + k] = <i, k|U|i + k, 0> of the beamsplitter dilation U of
    angle arccos(sqrt(eta)): entry i of the last column of the chain of
    total N = i + k, which runs from |0, N> to |N, 0>."""
    theta = np.arccos(np.sqrt(eta))
    last = [_chain_expm(theta, np.arange(N + 1), N - np.arange(N + 1), -1)[:, -1] for N in range(cutoff)]
    return [np.diag([last[i + k][i] for i in range(cutoff - k)], k) for k in range(cutoff)]


@pytest.mark.parametrize("cutoff", [2, 3, 20, 33, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_stacked_chain_blocks_match_per_chain_expm(cutoff, sign):
    """The stacked, zero-padded squeezer blocks of fock._chain_exps at
    +-theta, in full and as first columns, against per-chain expm.  They are
    exponentiated on the chains from |0, j>, and the library reads each also
    on its mirror from |j, 0>, whose generator is the same."""
    c = cutoff
    chains = fock._chains(c)
    states = np.concatenate([i * c + j for i, j in chains])
    assert len(chains) == 2 * c - 1 and np.array_equal(np.sort(states), np.arange(c * c))
    assert all(np.array_equal(i, b) and np.array_equal(j, a) for (i, j), (a, b) in zip(chains[c:], chains[1:c]))
    for theta in sign * np.array(KERNEL_THETAS):
        refs = [_chain_expm(theta, i, j, 1) for i, j in chains]
        assert all(np.array_equal(refs[c - 1 + k], refs[k]) for k in range(1, c))
        seen = []
        for (members, E), (same, X) in zip(fock._chain_exps(theta, c, c), fock._chain_exps(theta, c, c, first_column=True)):
            assert np.array_equal(members, same)
            seen += list(members)
            for r, k in enumerate(members):
                n = refs[k].shape[0]
                padded = np.eye(E.shape[-1])
                padded[:n, :n] = refs[k]
                assert np.max(np.abs(E[r] - padded)) <= 1e-12, (theta, k)
                assert np.max(np.abs(X[r] - padded[:, 0])) <= 1e-12, (theta, k)
        assert sorted(seen) == list(range(c))


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [2, 3, 20, 33, 64])
def test_kraus_diagonals_match_per_chain_expm(cutoff):
    """The attenuator's closed form against the last column of each
    beamsplitter chain from |0, N>, and the amplifier's Kraus operators
    against the first column of each squeezer chain from |q, 0>."""
    c = cutoff
    chains = fock._chains(c)
    for theta in KERNEL_THETAS:
        att = kraus_matrices("attenuator", np.cos(theta) ** 2, c)
        dev = max(np.max(np.abs(K - R)) for K, R in zip(att, _beamsplitter_kraus(np.cos(theta) ** 2, c)))
        assert dev <= 1e-12, (theta, dev)
        amp = dict(fock._kraus_diagonals("amplifier", np.cosh(theta), c))
        first = [_chain_expm(theta, i, j, 1)[:, 0] for i, j in chains[:1] + chains[c:]]
        for k in range(c):
            # K_k[q + k, q] = <q + k, k|U|q, 0>, position k of the chain from |q, 0>
            want = np.array([first[q][k] for q in range(c - k)])
            assert np.max(np.abs(amp[-k] - want)) <= 1e-12, (theta, k)


@pytest.mark.parametrize("cutoff", [2, 5, 20, 48])
def test_single_mode_exponentials_match_expm(cutoff):
    a = fock.destroy(cutoff)
    ad = a.conj().T
    for beta in (0.3 - 0.2j, 1.5j, 2.0, -0.7 + 1.1j):
        ref = expm(beta * ad - np.conj(beta) * a)
        assert np.max(np.abs(fock.displace_fock(beta, cutoff) - ref)) <= 1e-12, beta
    for r in (-0.5, 0.3, 1.0):
        ref = expm(0.5 * r * (ad @ ad - a @ a))
        assert np.max(np.abs(fock.squeeze1_fock(r, cutoff) - ref)) <= 1e-12, r


def test_exponential_without_a_significant_digit_is_an_error():
    """At |beta| ~ 7e149 the generator's eigenvalues exceed 1/eps, so
    e^{-i lambda} has no significant digit: an error, not a finite matrix."""
    with pytest.raises(ValueError, match="is not finite"):
        fock.displace_fock(1e150 / np.sqrt(2.0), 6)
    with pytest.raises(ValueError, match="is not finite"):
        fock.gaussian_unitary_fock(sp.SymplecticSpec(np.eye(2), np.array([1e150, 0.0])), 6)
    assert np.all(np.isfinite(fock.displace_fock(1e3, 6)))


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [6, 20, 40])
def test_pure_state_transfer_matches_dense_channel(cutoff):
    """Attenuators and amplifiers after a leading unitary act on the rows of
    the amplitude matrix, and so do those between later unitaries: the
    expectation under a framed witness and the dense read match the dense
    channel."""
    c, lam = cutoff, 1.0
    rng = np.random.default_rng(17)
    spec, spec2 = (sp.random_symplectic(1, r_max=0.3, d_scale=0.4, rng=rng) for _ in range(2))
    psi = tmsv_vector(np.arctanh(1.0 / np.sqrt(lam + 1.0)), c)
    W = fock.witness_fock_unitary(spec2, lam, c)
    assert W.sectors is None and "matrix" not in vars(W)
    for ops in ([("unitary", spec), ("attenuator", 0.8), ("amplifier", 1.2)],
                [("unitary", spec), ("amplifier", 1.2), ("unitary", spec2), ("attenuator", 0.9)]):
        st = fock.entangled_output_fock(ops, lam, c)
        ref = _dense_channel(np.outer(psi, psi.conj()), ops, c)
        assert abs(fock.expectation(W, st) - np.vdot(ref, dense_matrix(W)).real) <= 1e-12, ops
        assert np.max(np.abs(density(st) - ref)) <= 1e-12, ops


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_unitary_dual_path_holds_no_dense_two_mode_array():
    """The unitary dual path at cutoff 64 (witness, output, expectation and
    leakage) peaks below 64 MB under tracemalloc for a noisy unitary's
    amplitude form and for an additive-noise output in sectors under the
    framed witness; one complex c^4 array would take 268 MB."""
    c, target = 64, sp.SymplecticSpec(np.diag([np.exp(0.8), np.exp(-0.8)]), np.array([0.3, -0.2]))
    for prover in (ProverChannel("NoisyUnitary", spec=target, excess=0.1),
                   ProverChannel("AdditiveNoise", variance=0.1)):
        tracemalloc.start()
        try:
            st = fock.entangled_output_fock(elementary_factors(prover), 1.0, c)
            omega = fock.expectation(fock.witness_fock_unitary(target, 1.0, c), st)
            leakage = st.leakage
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(omega) and abs(leakage) < 1e-10, prover.kind
        assert peak < 64 * 2**20, (prover.kind, peak)


# The squeezed-core cache of fock._squeezed_sectors: the config-side cores
# (the unitary witness's, the amplification witness, the closed-form
# branches) are built once per key; prover-side data is built per call.

def _count_chain_exps(monkeypatch):
    """Count the calls of fock._chain_exps, the squeezer's exponentials."""
    calls = []
    chain_exps = fock._chain_exps

    def counted(*args, **kwargs):
        calls.append(args)
        return chain_exps(*args, **kwargs)

    monkeypatch.setattr(fock, "_chain_exps", counted)
    return calls


def _core_blocks(op):
    return op.sectors if op.sectors is not None else op.form[1]


_FRAMED_SPEC = sp.SymplecticSpec(np.diag([np.exp(0.3), np.exp(-0.3)]), np.array([0.2, -0.1]))
CORE_BUILDS = {
    "unitary-framed": lambda: fock.witness_fock_unitary(_FRAMED_SPEC, 0.8, 12),
    "unitary-folded": lambda: fock.witness_fock_unitary(sp.identity(1), 0.8, 12),
    "amplification": lambda: fock.witness_fock_amp(2.0, 1.0, 12),
    "closed-form-below": lambda: fock.canonical_observable_closed_form(1.0, 1.0, 10),
    "closed-form-above": lambda: fock.canonical_observable_closed_form(2.0, 1.0, 10),
    "closed-form-below-embed": lambda: fock.canonical_observable_closed_form(1.0, 1.0, 10, embed_cutoff=10),
    "closed-form-above-embed": lambda: fock.canonical_observable_closed_form(2.0, 1.0, 10, embed_cutoff=10),
}


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("name", sorted(CORE_BUILDS))
def test_cached_core_matches_a_cold_build(name):
    build = CORE_BUILDS[name]
    fock._CORES.clear()
    cold = build()
    assert len(fock._CORES) == 1
    hit = build()
    assert len(_core_blocks(cold)) == len(_core_blocks(hit))
    for x, y in zip(_core_blocks(cold), _core_blocks(hit)):
        assert all(np.array_equal(a, b) for a, b in zip(x, y))
    if cold.form is not None:
        assert np.array_equal(cold.form[0], hit.form[0])
    assert np.array_equal(dense_matrix(cold), dense_matrix(hit))


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_cached_core_is_read_only_and_each_call_gets_its_own_list():
    fock._CORES.clear()
    for _ in range(2):  # the list of a miss, then of a hit
        W = fock.witness_fock_amp(2.0, 1.0, 8)
        assert not any(x.flags.writeable for block in W.sectors for x in block)
        with pytest.raises(ValueError, match="read-only"):
            W.sectors[0][2][0, 0] = 1.0
        W.sectors.append(W.sectors[0])
        W.sectors.pop(1)
    again = fock.witness_fock_amp(2.0, 1.0, 8)
    assert len(again.sectors) == 2 * 8 - 1
    assert all(s[2] is t[2] for s, t in zip(again.sectors, fock.witness_fock_amp(2.0, 1.0, 8).sectors))
    assert again.sectors[1][2].shape == (7, 7)  # the chain from |0, 1>, not the one popped above


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_a_different_core_misses_the_cache(monkeypatch):
    """One ulp of theta, of D or of lam, the other slot or another kept cutoff
    is another core; only the same key is a hit."""
    calls = _count_chain_exps(monkeypatch)
    fock._CORES.clear()
    theta, v = 0.4, fock.g_theta(0.4, 10)
    nudged = v.copy()
    nudged[3] = np.nextafter(v[3], 1.0)
    lam = np.nextafter(1.0, 2.0)  # kappa rounds to the same angle, k = lam / (lam + 1) does not
    for build in (lambda: fock._squeezed_sectors(theta, v, 0, 10),
                  lambda: fock._squeezed_sectors(np.nextafter(theta, 1.0), v, 0, 10),
                  lambda: fock._squeezed_sectors(theta, nudged, 0, 10),
                  lambda: fock._squeezed_sectors(theta, v, 1, 10),
                  lambda: fock._squeezed_sectors(theta, v, 0, 10, keep=8),
                  lambda: fock.witness_fock_unitary(sp.identity(1), 1.0, 10),
                  lambda: fock.witness_fock_unitary(sp.identity(1), lam, 10)):
        before = len(calls)
        build()
        assert len(calls) == before + 1
        build()
        assert len(calls) == before + 1
    assert len(fock._CORES) == 7


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_core_cache_keeps_its_entry_bound_in_lru_order(monkeypatch):
    """The cached block entries never exceed the bound; a core above it is
    never kept, and a hit moves its core to the back of the eviction order."""
    bound = 5000  # the core at cutoff c holds c^2 + 2 sum_{n<c} n^2 entries: 4579 at 19, 5340 at 20
    monkeypatch.setattr(fock, "_CORE_ENTRIES", bound)
    fock._CORES.clear()

    def core(c):
        return fock._squeezed_sectors(0.3, fock.g_theta(0.3, c), 0, c)

    def held():
        return {key[3] for key in fock._CORES}

    for c in list(range(2, 24)) + [8, 4, 20, 6]:
        core(c)
        assert sum(size for _, size in fock._CORES.values()) <= bound
        assert c in held() or c >= 20
    assert held() == {8, 4, 6}  # 19's 4579 entries made way for 6; 20 was never kept
    core(18)  # 3894 entries
    core(4)  # a hit: 4 becomes the most recently used
    core(15)  # 2255 entries: 8, 6 and 18 go, oldest use first, and 4 stays
    assert held() == {4, 15}
    assert sum(size for _, size in fock._CORES.values()) == 44 + 2255


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_repeated_config_side_builds_exponentiate_nothing(monkeypatch):
    """A repeated witness or closed form makes no call of fock._chain_exps;
    the prover's Kraus operators are built on every call."""
    calls = _count_chain_exps(monkeypatch)
    for build in (lambda: fock.witness_fock_unitary(_FRAMED_SPEC, 1.0, 20),
                  lambda: fock.canonical_observable_closed_form(2.0, 1.0, 14),
                  lambda: fock.canonical_observable_closed_form(1.0, 1.0, 16, embed_cutoff=16)):
        build()
        before = len(calls)
        build()
        assert len(calls) == before
    before = len(calls)
    fock._kraus_diagonals("amplifier", 1.2, 20)
    fock._kraus_diagonals("amplifier", 1.2, 20)
    assert len(calls) == before + 2
