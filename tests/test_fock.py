import functools
import inspect
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from scipy.linalg import expm, polar
from scipy.special import gammaln

from builders import chain_blocks, chains, coherent, dense_matrix
from cvverify import fock, gaussian as ga, symplectic as sp
from cvverify.channels import ProverChannel, elementary_factors, exact_unitary


def test_g_theta_vacuum_entry():
    assert fock.g_theta(1.3, 8)[0] == pytest.approx(1.0)


def test_g_theta_first_entry():
    theta = np.arctanh(1.0 / np.sqrt(2.0))
    assert fock.g_theta(theta, 8)[1] == pytest.approx(0.5, rel=1e-12)


# Test-side builders: the TMSV, the thermal state and the library's
# one-diagonal Kraus operators as diagonals and as full matrices.

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
    """The dense rho of a FockState: its wrapped stack assembled, or, for the
    amplitude form, sum vec(X) vec(X)+ over its terms X = A[m] @ B[n]."""
    if state.sectors is not None:
        return fock._assemble(state.sectors)
    A, B = fock._later_stack(state.form), fock._first_stack(state.form)
    X = (A[:, None] @ B[None]).reshape(-1, state.cutoff**2)
    return X.T @ X.conj()


def kraus_diagonals(kind, param, cutoff):
    """(offset, np.diagonal(K_k, offset)) of each Kraus operator of an
    attenuator or amplifier factor, read off the library's table (sign, T):
    row k of T up to its end, at offset sign k."""
    sign, T = fock._kraus_diagonals(kind, param, cutoff)
    return [(sign * k, T[k, : cutoff - k]) for k in range(cutoff)]


def kraus_matrices(kind, param, cutoff):
    """The Kraus operators of an attenuator or amplifier factor, as full matrices."""
    return [np.diag(d.astype(complex), s) for s, d in kraus_diagonals(kind, param, cutoff)]


# The two-mode squeezer S_theta = exp(theta (a1+ a2+ - a1 a2)) as the oracle
# holds it: the stacked chain blocks of fock._chain_exps, and the amplifier's
# Kraus operators K_k = <k|_E S |0>_E read off their first columns.

def test_squeeze2_identity_at_zero():
    for _, E in fock._chain_exps(0.0, 6, 6):
        np.testing.assert_allclose(E, np.broadcast_to(np.eye(E.shape[-1]), E.shape), atol=1e-14)
    sign, T = fock._kraus_diagonals("amplifier", 1.0, 6)
    assert sign == -1 and np.array_equal(T[0], np.ones(6)) and not np.any(T[1:])


def test_squeeze2_vacuum_amplitude_is_sech():
    theta, cutoff = 0.7, 30
    K0 = fock._kraus_diagonals("amplifier", np.cosh(theta), cutoff)[1][0]  # K_0[q, q] = <q, 0|S|q, 0>
    assert K0[0] == pytest.approx(1.0 / np.cosh(theta), rel=1e-8)


def test_squeeze2_makes_tmsv():
    # S |00> = TMSV: K_k[k, 0] = <k, k|S|0, 0>
    theta, cutoff = 0.6, 30
    column = fock._kraus_diagonals("amplifier", np.cosh(theta), cutoff)[1][:, 0]
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
    fock._MEMO.clear()
    for _ in range(2):  # the second build reads the kept core, and warns all the same
        with pytest.warns(UserWarning, match="leakage"):
            fock.witness_fock_amp(1.5, 1.0, 6)  # theta' = arctanh(sqrt(2) / 1.5)
    assert len(_held(fock._squeezed_core)) == 1


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


@pytest.mark.parametrize("cutoff, band", [(10, (0.93, 1.08)), (39, (0.85, 1.17))], ids=["c10", "c39"])
def test_closed_form_matches_the_observable_outside_the_transition_band_and_refuses_inside(cutoff, band):
    """At lam = 1 each branch just outside the band of g / sqrt(2) that no
    embedding up to MAX_CUTOFF serves matches the canonical observable within
    1e-10; inside the band, where an embedding of 256 missed by 0.55 at
    c = 10, the closed form is a ValueError naming g, lam and the cutoff."""
    root = np.sqrt(2.0)
    for x in (band[0] - 0.01, band[1] + 0.01):
        diff = fock.canonical_observable(x * root, 1.0, cutoff) - fock.canonical_observable_closed_form(
            x * root, 1.0, cutoff)
        assert np.max(np.abs(diff.sectors)) <= 1e-10, x
    for x in (*band, 0.995, 1.005):
        message = f"no embedding up to 256 gives the closed form at g = {x * root}, lam = 1.0, cutoff {cutoff}:"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            fock.canonical_observable_closed_form(x * root, 1.0, cutoff)


@pytest.mark.parametrize("cutoff", [14, 20, 30, 39])
def test_closed_form_at_its_default_embedding_matches_the_observable(cutoff):
    """Both branches at lam = 1 within 1e-10 of the canonical observable, at
    small angles (g = 0.1 and 10), where the path term sets the embedding,
    and at larger ones, where the tail does.  At g = 1 the embedding
    cutoff + 18 missed by 9.8e-5 at cutoff 14 and by 4.1e-2 at 39."""
    for g in (0.1, 0.5, 1.0, 2.0, 3.0, 10.0):
        diff = fock.canonical_observable(g, 1.0, cutoff) - fock.canonical_observable_closed_form(g, 1.0, cutoff)
        assert np.max(np.abs(diff.sectors)) <= 1e-10, g


def test_default_embedding_grows_with_the_angle_up_to_the_cutoff_bound():
    """The embedding grows with tanh(theta) and the cutoff up to MAX_CUTOFF,
    and past it there is none: near the transition, and at a cutoff of 250
    on a g = 2 branch (where cutoff + 18 was refused)."""
    embeddings = [fock._embedding(np.arctanh(t), 14) for t in (0.35, 0.5, 0.71, 0.9)]
    assert embeddings == sorted(embeddings) and 14 < embeddings[0] and embeddings[-1] <= fock.MAX_CUTOFF
    assert fock._embedding(np.arctanh(0.71), 20) > embeddings[2]
    assert fock._embedding(np.arctanh(0.995), 14) is None
    assert fock._embedding(np.arctanh(1.0 / np.sqrt(2.0)), 250) is None
    with pytest.raises(ValueError, match="^no embedding up to 256 gives the closed form at g = 2.0, lam = 1.0, cutoff 250"):
        fock.canonical_observable_closed_form(2.0, 1.0, 250)


@pytest.mark.parametrize("cutoff", [16, 24, 30])
def test_witness_below_observable_at_the_operator_tolerance(cutoff):
    """W <= O within 1e-10 for the unitary (g = 1) and amplification (g = 2)
    witnesses at lam = 1, with O the closed form at the same cutoff, the
    suite ``cvverify lemmas`` runs.  The bound is tight (the top eigenvalue
    of W - O reads below 3e-15 in size), so an O shifted up fails as well."""
    for g, W in ((1.0, fock.witness_fock_unitary(sp.identity(1), 1.0, cutoff)),
                 (2.0, fock.witness_fock_amp(2.0, 1.0, cutoff))):
        O = fock.canonical_observable_closed_form(g, 1.0, cutoff, embed_cutoff=cutoff)
        assert abs(fock.max_eigenvalue(W - O)) <= 1e-10, g


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
    np.testing.assert_allclose(U, np.diag(np.exp(0.9j * np.arange(cutoff))), atol=1e-10)
    U2 = fock.gaussian_unitary_fock(sp.SymplecticSpec(np.diag([np.exp(0.4), np.exp(-0.4)]), np.zeros(2)), cutoff)
    np.testing.assert_allclose(U2, fock.squeeze1_fock(0.4, cutoff), atol=1e-8)


def _four_factor_unitary(spec, cutoff):
    """D R(phi1) S(r) R(phi2) as three dense matrix products, with the Euler
    angles read off the SVD of spec.S as the library reads them."""
    W, sig, Vh = np.linalg.svd(spec.S)
    if np.linalg.det(W) < 0:
        F = np.diag([1.0, -1.0])
        W, Vh = W @ F, F @ Vh
    n = np.arange(cutoff)
    R1, R2 = (np.diag(np.exp(1j * np.arctan2(X[1, 0], X[0, 0]) * n)) for X in (W, Vh))
    D = fock.displace_fock((spec.d[0] + 1j * spec.d[1]) / np.sqrt(2.0), cutoff)
    return D @ R1 @ fock.squeeze1_fock(np.log(sig[0]), cutoff) @ R2


@pytest.mark.parametrize("cutoff", [2, 20, 33])
def test_gaussian_unitary_matches_the_four_factor_product(cutoff):
    """The rotations as row and column scalings, and no displacement product
    at beta = 0, against D R S R in full, on specs with and without the SVD's
    reflection fold; the identity target's unitary is np.eye exactly."""
    rotation = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    specs = {
        "identity": sp.identity(1),
        "squeezer": sp.SymplecticSpec(np.diag([np.exp(0.3), np.exp(-0.3)]), np.zeros(2)),
        "rotated-squeezer": sp.SymplecticSpec(rotation @ np.diag([np.exp(0.3), np.exp(-0.3)]), np.zeros(2)),
        "displaced": sp.SymplecticSpec(rotation @ np.diag([np.exp(-0.2), np.exp(0.2)]), np.array([0.3, -0.5])),
        "random": sp.random_symplectic(1, r_max=0.5, d_scale=0.4, rng=np.random.default_rng(0)),
    }
    folds = {name for name, spec in specs.items() if np.linalg.det(np.linalg.svd(spec.S)[0]) < 0}
    assert {"rotated-squeezer", "random"} <= folds and "identity" not in folds
    for name, spec in specs.items():
        dev = np.max(np.abs(fock.gaussian_unitary_fock(spec, cutoff) - _four_factor_unitary(spec, cutoff)))
        assert dev <= 1e-13, (name, dev)
    assert np.array_equal(fock.gaussian_unitary_fock(sp.identity(1), cutoff), np.eye(cutoff))


def test_attenuator_kraus_trace_preserving():
    """The closed-form Kraus operators keep the trace on the whole truncated
    space: K_k+ K_k is diag over n of C(n, k) eta^(n - k) (1 - eta)^k, and
    every n < c sums all of its k <= n."""
    total = sum(K.conj().T @ K for K in kraus_matrices("attenuator", 0.7, 20))
    assert np.max(np.abs(total - np.eye(20))) <= 1e-12
    for cutoff in (2, 3, 20, 64, 96, 200):
        for eta in (1e-6, 0.3, 0.7, 0.999):
            total = np.zeros(cutoff)
            for shift, d in kraus_diagonals("attenuator", eta, cutoff):
                total[shift:] += np.abs(d) ** 2  # d[m] = K[m, m + shift]
            assert np.max(np.abs(total - 1.0)) <= 1e-12, (cutoff, eta)


def test_attenuator_kraus_at_the_edges_of_the_transmissivity():
    sign, T = fock._kraus_diagonals("attenuator", 1.0, 8)
    assert sign == 1 and np.array_equal(T[0], np.ones(8)) and not np.any(T[1:])
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


@pytest.mark.parametrize("lam, needed", [(0.05, 284), (0.01, 1389)])
def test_default_cutoff_above_the_bound_is_refused(lam, needed):
    """A lam whose default cutoff exceeds MAX_CUTOFF is a ValueError that
    names lam, the cutoff it needs and the bound, never a cutoff outside it."""
    with pytest.raises(ValueError, match=rf"lam = {lam:g} needs cutoff {needed} .* 256; pass --cutoff"):
        fock.default_cutoff(lam)
    assert fock.default_cutoff(0.056) == 254


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_builders_hold_no_dense_matrix_until_it_is_read():
    """Every public builder that returns a FockOperator or FockState returns
    one that holds a wrapped stack or a form and no dense matrix; the matrix of
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
    with pytest.raises(ValueError, match="either its sector stack or a form"):
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
    # NaN and infinite angles once ended in LinAlgError from eigh
    (lambda: fock.displace_fock(np.nan, 6), "eigenvalue nan is not finite"),
    (lambda: fock.squeeze1_fock(np.inf, 6), "eigenvalue inf is not finite"),
], ids=[
    "bs-above-1", "bs-negative", "bs-nan", "sq-nan", "sq-inf", "tmsv-inf", "w-unitary-lam-tiny",
    "g-theta-nan", "g-theta-inf", "omega-g-nan", "omega-lam-nan", "omega-g-inf", "cutoff-lam-0", "cutoff-lam-nan", "cutoff-lam-negative",
    "w-unitary-lam-inf", "w-unitary-cutoff-0", "w-amp-g-inf", "w-amp-g-nan", "w-amp-lam-negative",
    "output-cutoff-0", "output-lam-nan", "closed-form-lam-negative", "closed-form-g-nan",
    "closed-form-g-negative", "closed-form-embed-257-plus", "closed-form-embed-not-integral",
    "displace-nan", "squeeze1-inf",
])
def test_fock_builders_reject_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# Valid values of the other arguments of each public fock function with a
# cutoff; a new one fails the test below until it has an entry here.
CUTOFF_ARGS = {
    "check_cutoff": {},
    "destroy": {},
    "g_theta": {"theta": 0.5},
    "displace_fock": {"beta": 0.3 - 0.1j},
    "squeeze1_fock": {"r": 0.2},
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
    assert np.all(np.isfinite(W.sectors))


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
@pytest.mark.parametrize("cutoff", [2, 3, 6, 16])
def test_max_eigenvalue_by_blocks_matches_dense(cutoff):
    """One stacked eigvalsh over the wrapped diagonals, each with its two
    chain blocks, against the dense spectrum: a witness minus a closed form,
    real and complex stacks, and a framed witness."""
    lam = 1.0
    rng = np.random.default_rng(cutoff)
    for op in [fock.FockOperator(cutoff, random_stack(rng, cutoff, real) - 2.0 * np.eye(cutoff)) for real in (True, False)
               ] + [fock.witness_fock_unitary(_FRAMED_SPEC, lam, cutoff)]:
        dense = np.linalg.eigvalsh(dense_matrix(op))[-1]
        assert abs(fock.max_eigenvalue(op) - dense) <= 1e-12 * max(1.0, abs(dense)), op.form is None
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
    framed = fock.witness_fock_unitary(_FRAMED_SPEC, lam, cutoff)
    assert framed.form is not None
    for other in (framed, fock.entangled_output_fock([], lam, cutoff)):
        with pytest.raises(ValueError, match="held in sectors"):
            O - other


# The wrapped stacks: row x of diagonal s is the state |x, (x + s) mod c>,
# and an operator that conserves n1 - n2 links only rows of one chain.

def off_chain(cutoff):
    """off[s, x, y]: rows x and y of wrapped diagonal s differ in n1 - n2."""
    x = np.arange(cutoff)
    d = x - (x + x[:, None]) % cutoff  # n1 - n2 of row x of diagonal s
    return d[:, :, None] != d[:, None, :]


def random_stack(rng, cutoff, real):
    """A positive semidefinite wrapped stack G G+, G zero off the chains."""
    G = rng.normal(size=(cutoff,) * 3) + (0 if real else 1j * rng.normal(size=(cutoff,) * 3))
    G[off_chain(cutoff)] = 0
    return G @ G.conj().swapaxes(1, 2)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [2, 3, 12])
def test_every_stack_is_exactly_zero_off_its_chains(cutoff):
    c, lam = cutoff, 1.0
    rotation = sp.SymplecticSpec(np.array([[np.cos(0.9), -np.sin(0.9)], [np.sin(0.9), np.cos(0.9)]]), np.zeros(2))
    W = fock.witness_fock_unitary(sp.identity(1), lam, c)
    O = fock.canonical_observable_closed_form(1.0, lam, c, embed_cutoff=c)
    stacks = {
        "performance-operator": fock.performance_operator_avg_fidelity(2.0, lam, c).sectors,
        "canonical-observable": fock.canonical_observable(1.0, lam, c).sectors,
        "closed-form-below": O.sectors,
        "closed-form-above": fock.canonical_observable_closed_form(2.0, lam, c).sectors,
        "witness-identity": W.sectors,
        "witness-rotation": fock.witness_fock_unitary(rotation, lam, c).sectors,
        "witness-framed-core": fock.witness_fock_unitary(_FRAMED_SPEC, lam, c).form[1],
        "witness-amp": fock.witness_fock_amp(2.0, lam, c).sectors,
        "difference": (W - O).sectors,
    }
    for ops in ([], [("attenuator", 0.7)], [("amplifier", 1.3)], [("amplifier", 1.2), ("attenuator", 0.8)]):
        stacks[f"output-{ops}"] = fock.entangled_output_fock(ops, lam, c).sectors
    off = off_chain(c)
    for name, stack in stacks.items():
        assert stack.shape == (c, c, c) and not np.any(stack[off]), name
        assert np.any(stack[~off]), name


@pytest.mark.parametrize("cutoff", [2, 3, 12])
def test_assemble_matches_the_per_chain_scatter(cutoff):
    c = cutoff
    W = random_stack(np.random.default_rng(c), c, real=False)
    ref = np.zeros((c * c, c * c), dtype=complex)
    for i, j, B in chain_blocks(W):
        ref[np.ix_(i * c + j, i * c + j)] = B
    assert np.array_equal(fock._assemble(W), ref)


def _term_trace_per_chain(A, B, W):
    """fock._term_trace as it ran before the wrapped stacks: one product per
    chain of builders.chain_blocks, f+ O f with f the terms' entries at the
    chain's states, over all terms X = A[m] @ B[n] at once."""
    X = np.einsum("mil,nlj->imjn", A, B)  # [i, m, j, n]
    total = 0.0
    for i, j, O in chain_blocks(W):
        F = X[i, :, j].reshape(i.size, -1)
        if np.isrealobj(O):  # Re f+ O f = Re(f) O Re(f) + Im(f) O Im(f)
            F = F.view(float)
        total += np.vdot(F, O @ F).real
    return total


@pytest.mark.parametrize("cutoff", [2, 3, 20, 33])
def test_term_trace_matches_the_per_chain_loop(cutoff):
    """One product per wrapped diagonal against one per chain, for one term
    and for c^2 (in chunks of _TERM_ENTRIES at c = 33), on real and complex
    positive stacks."""
    c = cutoff
    rng = np.random.default_rng(c)
    for real in (True, False):
        W = random_stack(rng, c, real)
        for terms in (1, c):
            A, B = (rng.normal(size=(terms, c, c)) + 1j * rng.normal(size=(terms, c, c)) for _ in range(2))
            got, ref = fock._term_trace(A, B, W, np.ones((terms, terms), bool)), _term_trace_per_chain(A, B, W)
            assert abs(got - ref) <= 1e-12 * ref, (real, terms)


# A noisy unitary's dual path contracts only the terms that carry weight.  The
# target is squeezed, rotated and displaced, so its witness is held in a frame.
PRUNED_TARGET = sp.SymplecticSpec(
    np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]]) @ np.diag([np.exp(0.3), np.exp(-0.3)]),
    np.array([0.2, -0.1]))


def _noisy_unitary(cutoff, excess):
    """A noisy unitary's output at PRUNED_TARGET, and the target's witness."""
    state = fock.entangled_output_fock(
        elementary_factors(ProverChannel("NoisyUnitary", spec=PRUNED_TARGET, excess=excess)), 1.0, cutoff)
    return state, fock.witness_fock_unitary(PRUNED_TARGET, 1.0, cutoff)


def _term_traces(A, B, W):
    """(<X|O|X>, ||X||^2) of each term X = A[m] @ B[n], each of shape
    (M, N), one product per chain as in _term_trace_per_chain."""
    X = A[:, None] @ B[None]  # [m, n, i, j]
    q = 0.0
    for i, j, O in chain_blocks(W):
        F = X[:, :, i, j]  # [m, n, chain state]
        q = q + np.einsum("mnl,mnl->mn", F.conj(), F @ O.T).real
    return q, np.einsum("mnij,mnij->mn", X, X.conj()).real


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("excess", [0.05, 0.15, 0.3])
@pytest.mark.parametrize("cutoff", [20, 24, 40])
def test_pruned_dual_path_matches_every_term(cutoff, excess):
    """The expectation over the kept terms against every term, one product
    per chain: within 1e-13, and within the bound the weights state, which
    the left-out terms' own traces meet; each weight is its term's squared
    norm, and bounds its trace by the stack's largest absolute row sum."""
    state, op = _noisy_unitary(cutoff, excess)
    (frame, W), w = op.form, state._terms[1]
    A, B = fock._later_stack(state.form, frame), fock._first_stack(state.form)
    got, ref = fock.expectation(op, state), _term_trace_per_chain(A, B, W)
    assert abs(got - ref) <= 1e-13, (got, ref)

    (q, norms), keep = _term_traces(A, B, W), fock._kept_terms(w, W)
    assert np.allclose(w, norms, rtol=1e-13, atol=0)
    norm = np.abs(W).sum(2).max()
    bound = norm * w[~keep].sum()
    assert abs(q.sum() - ref) <= 1e-13
    assert np.all(np.abs(q) <= norm * w * (1 + 1e-12))
    assert 0 < (~keep).sum() and abs(q[~keep].sum()) <= bound <= fock._DROP
    assert np.all(np.count_nonzero(np.diff(keep, axis=0), axis=0) <= 2)  # each n keeps one run of m
    assert abs(fock._term_trace(A, B, W, keep) - q[keep].sum()) <= 1e-13


def test_kept_terms_are_one_run_of_m_for_each_n():
    """A light term between two heavy ones of the same n is kept, so that
    _term_trace takes each n's A[m] as one slice; a light last term is not."""
    W = np.zeros((2, 2, 2))
    W[0] = np.eye(2)
    w = np.array([[1.0, 1.0], [1e-30, 1.0], [1.0, 1e-30]])
    assert fock._kept_terms(w, W).tolist() == [[True, True], [True, True], [True, False]]


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [20, 24, 40])
def test_leakage_read_off_the_weights_matches_the_dense_trace(cutoff):
    state, _ = _noisy_unitary(cutoff, 0.15)
    assert abs(state.leakage - (1.0 - np.trace(density(state)).real)) <= 1e-13


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_noisy_unitary_keeps_under_a_quarter_of_its_terms_at_cutoff_64():
    state, op = _noisy_unitary(64, 0.05)
    keep = fock._kept_terms(state._terms[1], op.form[1])
    assert keep.shape == (64, 64) and keep.sum() < 4096 // 4, keep.sum()


# The scaled-spectrum kernel against SciPy's expm, chain by chain: each chain's block is
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
    """The two-mode squeezer, each chain of builders.chains a polar(expm) block."""
    c = cutoff
    S = np.zeros((c * c, c * c))
    for i, j in chains(c):
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
    grid = chains(c)
    states = np.concatenate([i * c + j for i, j in grid])
    assert len(grid) == 2 * c - 1 and np.array_equal(np.sort(states), np.arange(c * c))
    assert all(np.array_equal(i, b) and np.array_equal(j, a) for (i, j), (a, b) in zip(grid[c:], grid[1:c]))
    for theta in sign * np.array(KERNEL_THETAS):
        refs = [_chain_expm(theta, i, j, 1) for i, j in grid]
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
    against the first column of each squeezer chain from |q, 0>.  Both
    tables are exactly zero past each diagonal's end."""
    c = cutoff
    grid = chains(c)
    past = np.add.outer(np.arange(c), np.arange(c)) >= c  # T[k, m] with m >= c - k
    for theta in KERNEL_THETAS:
        for kind, param in (("attenuator", np.cos(theta) ** 2), ("amplifier", np.cosh(theta))):
            assert not np.any(fock._kraus_diagonals(kind, param, c)[1][past]), (kind, theta)
        att = kraus_matrices("attenuator", np.cos(theta) ** 2, c)
        dev = max(np.max(np.abs(K - R)) for K, R in zip(att, _beamsplitter_kraus(np.cos(theta) ** 2, c)))
        assert dev <= 1e-12, (theta, dev)
        amp = dict(kraus_diagonals("amplifier", np.cosh(theta), c))
        first = [_chain_expm(theta, i, j, 1)[:, 0] for i, j in grid[:1] + grid[c:]]
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


@pytest.mark.parametrize("cutoff", [2, 3, 20])
def test_single_mode_exponentials_at_zero_are_the_identity_exactly(cutoff):
    """A scaled spectrum at zero angle would give V V^T, the identity only to
    rounding; the identity target's unitary must stay exactly diagonal, so
    that the unitary witness folds its frame into the blocks."""
    for U in (fock.displace_fock(0, cutoff), fock.displace_fock(-0.0j, cutoff),
              fock.squeeze1_fock(0.0, cutoff), fock.squeeze1_fock(-0.0, cutoff),
              fock.gaussian_unitary_fock(sp.identity(1), cutoff)):
        assert np.array_equal(U, np.eye(cutoff))


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


def _transfer_loop(kraus):
    """fock._transfer's blocks, one Kraus diagonal at a time: each adds
    d[m] conj(d[m + delta]) along its own diagonal."""
    sign, T = kraus
    c = T.shape[1]
    S = np.zeros((c, c, c), dtype=T.dtype)
    delta = np.arange(c)[:, None]
    for k in range(T.shape[0]):
        shift, d = sign * k, T[k, : c - k]
        m = np.arange(d.size)
        p = m + max(0, -shift)
        S[:, p, p + shift] += d * np.concatenate([d, np.zeros(c)])[delta + m].conj()
    return S


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [2, 3, 20, 33])
def test_transfer_matches_the_per_diagonal_loop(cutoff):
    """The one-assignment transfer blocks equal the per-diagonal loop, on the
    attenuator's and the amplifier's Kraus tables, the unit channel, and an
    attenuator table with complex phases, which the conjugation must see."""
    sign, T = fock._kraus_diagonals("attenuator", 0.7, cutoff)
    for kraus in ((sign, T), fock._kraus_diagonals("amplifier", 1.3, cutoff), (1, np.ones((1, cutoff))),
                  (sign, T * np.exp(0.4j * np.arange(cutoff)))):
        got, ref = fock._transfer(kraus), _transfer_loop(kraus)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)  # the same products, each written once


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


# The one memo of fock._memo: the config-side data (the squeezed cores of the
# witnesses and closed forms, a spec's Fock unitary), the squeezer's chain
# spectra and the per-cutoff gather tables are built once per key;
# prover-side data is built per call.

def _held(builder):
    """The memo's entries of one memoized builder, least recently used
    first: {the keys of its arguments: (value, its words)}."""
    return {key[1:]: held for key, held in fock._MEMO.items() if key[0] is builder.__wrapped__}


def _arrays(value) -> list:
    """Every array of a memo value, an array or a tuple of values."""
    return [x for v in value for x in _arrays(v)] if isinstance(value, tuple) else [value]


def _count_chain_exps(monkeypatch):
    """Count the calls of fock._chain_exps, the squeezer's exponentials."""
    calls = []
    chain_exps = fock._chain_exps

    def counted(*args, **kwargs):
        calls.append(args)
        return chain_exps(*args, **kwargs)

    monkeypatch.setattr(fock, "_chain_exps", counted)
    return calls


def _core(op):
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
    fock._MEMO.clear()
    cold = build()
    assert len(_held(fock._squeezed_core)) == 1
    hit = build()
    assert np.array_equal(_core(cold), _core(hit))
    if cold.form is not None:
        assert np.array_equal(cold.form[0], hit.form[0])
    assert np.array_equal(dense_matrix(cold), dense_matrix(hit))


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_cached_core_is_one_read_only_array_and_every_use_makes_a_new_one():
    """A kept core is one read-only (c, c, c) array, the same object on a
    miss and on every hit, and a write to it raises; the diagonal frame's
    fold, the closed form's scale and a difference each return a new,
    writeable array, so nothing built from a core writes into it."""
    fock._MEMO.clear()
    cores = []
    for _ in range(2):  # a miss, then a hit
        W = fock.witness_fock_amp(2.0, 1.0, 8)
        assert isinstance(W.sectors, np.ndarray) and W.sectors.shape == (8, 8, 8)
        assert not W.sectors.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            W.sectors[0, 0, 0] = 1.0
        cores.append(W.sectors)
    assert cores[0] is cores[1]
    held = fock.witness_fock_amp(2.0, 1.0, 8).sectors
    folded = fock.witness_fock_unitary(sp.identity(1), 1.0, 8)  # the identity frame folds in
    framed = fock.witness_fock_unitary(_FRAMED_SPEC, 1.0, 8)  # the same core, in a frame
    assert framed.form[1] is fock._squeezed_sectors(np.arctanh(1.0 / np.sqrt(2.0)), 1.0 - 0.5 * np.arange(8), 0, 8)
    scaled = fock.canonical_observable_closed_form(2.0, 1.0, 8, embed_cutoff=8)  # tanh^2 times its core
    for made, core in ((folded.sectors, framed.form[1]), (scaled.sectors, None),
                       ((fock.witness_fock_amp(2.0, 1.0, 8) - scaled).sectors, held)):
        assert made.flags.writeable and made is not core and not np.shares_memory(made, held), made.shape
        assert core is None or not np.shares_memory(made, core)
    assert not held.flags.writeable and np.array_equal(held, cores[0])


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_a_different_core_misses_the_cache(monkeypatch):
    """One ulp of theta, of D or of lam, the other slot or another kept cutoff
    is another core; only the same key is a hit."""
    calls = _count_chain_exps(monkeypatch)
    fock._MEMO.clear()
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
    assert len(_held(fock._squeezed_core)) == 7


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_core_cache_keeps_its_entry_bound_in_lru_order(monkeypatch):
    """The memo's words never exceed its bound, a value above the value
    bound is never kept, and a hit moves its value to the back of the
    eviction order: shown on stand-ins of a core's size, one c^3 stack,
    then on the cores themselves, each kept with its c^3 words."""
    bound = 5000  # a core at cutoff c is c^3 words: 4913 at 17, 5832 at 18
    monkeypatch.setattr(fock, "_MEMO_VALUE_WORDS", bound)
    monkeypatch.setattr(fock, "_MEMO_WORDS", bound)
    fock._MEMO.clear()
    stand_in = fock._memo(lambda c: np.zeros((c,) * 3))

    def held():
        return {c for (c,) in _held(stand_in)}

    for c in list(range(2, 20)) + [8, 4, 18, 6]:
        stand_in(c)
        assert sum(words for _, words in fock._MEMO.values()) <= bound
        assert c in held() or c >= 18
    assert held() == {8, 4, 6}  # 17's 4913 words made way for 8; 18 was never kept
    stand_in(16)  # 4096 words
    stand_in(4)  # a hit: 4 becomes the most recently used
    stand_in(12)  # 1728 words: 8, 6 and 16 go, oldest use first, and 4 stays
    assert held() == {4, 12}
    assert sum(words for _, words in fock._MEMO.values()) == 64 + 1728

    monkeypatch.setattr(fock, "_MEMO_WORDS", 1 << 24)
    calls = _count_chain_exps(monkeypatch)
    for c in (17, 18):
        for _ in range(2):
            fock._squeezed_sectors(0.3, fock.g_theta(0.3, c), 0, c)
    assert [words for _, words in _held(fock._squeezed_core).values()] == [17**3]
    assert len(calls) == 1 + 2  # 17 once, 18 on both calls


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


# The squeezer's chain spectra: each of its exponentials is an angle times
# a fixed generator, diagonalised once per (cutoff, chain count) and kept by
# the memo.  The displacement's and the single-mode squeezer's spectra are
# built on every call: each spec's whole unitary is kept instead.

def _count_eigh(monkeypatch):
    """Count the calls of np.linalg.eigh."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [5, 20])
def test_repeated_prover_side_builds_diagonalise_nothing(monkeypatch, cutoff):
    """After one build per cutoff, the amplifier's Kraus operators at new
    gains, and a repeated spec's unitary, call np.linalg.eigh zero times:
    they scale the kept chain spectra, which are read-only, or read the kept
    unitary, and match a cold build.  A displacement (at a complex beta too)
    or a single-mode squeezer runs its one stacked eigh on every call."""
    calls = _count_eigh(monkeypatch)
    fock._MEMO.clear()

    def amplifier(g):
        return fock._kraus_diagonals("amplifier", g, cutoff)[1]

    amplifier(1.2)
    built = len(calls)
    assert built > 0 and list(_held(fock._chain_spectra)) == [(cutoff, cutoff)]
    hits = [(g, amplifier(g)) for g in (1.5, 2.0)]
    assert len(calls) == built
    assert not any(x.flags.writeable for value, _ in fock._MEMO.values() for x in _arrays(value))
    for g, hit in hits:
        fock._MEMO.clear()
        assert np.array_equal(hit, amplifier(g))
    for build, params in ((fock.displace_fock, (0.3, -0.4 + 0.9j, 1.5j)), (fock.squeeze1_fock, (0.2, -0.5, 0.8))):
        for x in params:
            before = len(calls)
            build(x, cutoff)
            assert len(calls) == before + 1, build.__name__
    before = len(calls)
    fock.gaussian_unitary_fock(_FRAMED_SPEC, cutoff)
    assert len(calls) == before + 2  # a new spec: its squeezer's and its displacement's
    fock.gaussian_unitary_fock(_FRAMED_SPEC, cutoff)
    assert len(calls) == before + 2


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_spectrum_cache_keeps_its_entry_bound(monkeypatch):
    """A spectrum above the value bound is rebuilt on every call and never
    kept.  The squeezer's chain spectra at cutoff c count every array of
    their padded stacks, the members, eigenvalues and eigenvectors:
    (12 + 12^2 + 12^3) + (8 + 8 * 20 + 8 * 20^2) = 5252 at c = 20 and
    (12 + 12^2 + 12^3) + (9 + 9 * 21 + 9 * 21^2) = 6051 at 21 (and about
    5.7e6 at c = 256, above the real bound of 2^22)."""
    monkeypatch.setattr(fock, "_MEMO_VALUE_WORDS", 5500)
    calls = _count_eigh(monkeypatch)
    fock._MEMO.clear()
    for c in (20, 21):
        for g in (1.2, 1.3):
            fock._kraus_diagonals("amplifier", g, c)
    assert [(key, words) for key, (_, words) in _held(fock._chain_spectra).items()] == [((20, 20), 5252)]
    assert len(fock._MEMO) == 1
    assert len(calls) == 2 + 2 * 2  # two stacks each: once at c = 20, on both calls at c = 21


# The Gaussian unitaries of the specs and the per-cutoff gather tables, kept
# by the same memo as the cores and the spectra, and the real fold of a real
# diagonal frame.

UNITARY_SPECS = {
    "identity": sp.identity(1),
    "squeezed-displaced": _FRAMED_SPEC,
    "random": sp.random_symplectic(1, r_max=0.5, d_scale=0.4, rng=np.random.default_rng(5)),
}


def _count_unitary_builds(monkeypatch):
    """Count the builds of a spec's Fock unitary: each runs one single-mode
    squeezer, fock.squeeze1_fock."""
    calls = []
    squeeze1 = fock.squeeze1_fock

    def counted(*args):
        calls.append(args)
        return squeeze1(*args)

    monkeypatch.setattr(fock, "squeeze1_fock", counted)
    return calls


@pytest.mark.parametrize("name", sorted(UNITARY_SPECS))
def test_cached_unitary_matches_a_cold_build_and_returns_a_copy(name):
    """A hit is the cold build bit for bit; the kept matrix is read-only, and
    every call returns a writeable copy, so a write to one reaches no other."""
    spec = UNITARY_SPECS[name]
    fock._MEMO.clear()
    cold = fock.gaussian_unitary_fock(spec, 12)
    [(kept, words)] = _held(fock._euler_unitary).values()
    hit = fock.gaussian_unitary_fock(spec, 12)
    assert hit.tobytes() == cold.tobytes() == fock._euler_unitary.__wrapped__(spec, 12).tobytes()
    assert hit.dtype == cold.dtype == complex and words == 2 * 12**2
    assert not kept.flags.writeable and hit.flags.writeable and cold.flags.writeable
    assert not np.shares_memory(hit, kept) and not np.shares_memory(cold, kept)
    hit[0, 0] = 7.0
    assert fock.gaussian_unitary_fock(spec, 12).tobytes() == cold.tobytes() == kept.tobytes()


def test_a_different_spec_or_cutoff_misses_the_unitary_cache(monkeypatch):
    """One ulp of S or of d, or another cutoff, is another unitary; an equal
    spec made of other arrays is a hit."""
    calls = _count_unitary_builds(monkeypatch)
    fock._MEMO.clear()
    spec = UNITARY_SPECS["random"]
    S, d = spec.S.copy(), spec.d.copy()
    S[0, 1] = np.nextafter(S[0, 1], np.inf)
    d[1] = np.nextafter(d[1], np.inf)
    for args in ((spec, 12), (sp.SymplecticSpec(S, spec.d), 12), (sp.SymplecticSpec(spec.S, d), 12), (spec, 13)):
        before = len(calls)
        fock.gaussian_unitary_fock(*args)
        assert len(calls) == before + 1
        fock.gaussian_unitary_fock(*args)
        assert len(calls) == before + 1
    fock.gaussian_unitary_fock(sp.SymplecticSpec(spec.S.copy(), spec.d.copy()), 12)
    assert len(calls) == 4 and len(_held(fock._euler_unitary)) == 4


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_one_dual_path_check_builds_its_unitary_once(monkeypatch):
    """The unitary witness's frame and an exact prover's leading unitary are
    one spec, so a dual-path check builds its Fock unitary once."""
    calls = _count_unitary_builds(monkeypatch)
    fock._MEMO.clear()
    spec = UNITARY_SPECS["random"]
    W = fock.witness_fock_unitary(spec, 1.0, 12)
    state = fock.entangled_output_fock(elementary_factors(exact_unitary(spec)), 1.0, 12)
    assert abs(fock.expectation(W, state) - 1.0) < 1e-3 and len(calls) == 1


TABLES = (fock._grid_tables, fock._transfer_tables, fock._output_gather, fock._log_binomials)


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("cutoff", [2, 3, 20])
def test_kept_tables_equal_a_fresh_build(cutoff):
    """Each per-cutoff table a dual path reads is kept once, read-only, and
    equals a fresh build bit for bit; its words count all its arrays."""
    fock._MEMO.clear()
    ops = [("unitary", _FRAMED_SPEC), ("attenuator", 0.8), ("amplifier", 1.2)]
    W = fock.witness_fock_unitary(_FRAMED_SPEC, 1.0, cutoff)
    for _ in range(2):  # a miss, then a hit
        fock.expectation(W, fock.entangled_output_fock(ops, 1.0, cutoff))
        fock.expectation(fock.witness_fock_amp(2.0, 1.0, cutoff), fock.entangled_output_fock(ops[1:], 1.0, cutoff))
        assert fock.witness_fock_amp(2.0, 1.0, cutoff).matrix.shape == (cutoff**2,) * 2
    for build in TABLES:
        name = build.__name__
        [(key, (kept, words))] = _held(build).items()
        fresh = _arrays(build.__wrapped__(cutoff))
        assert key == (cutoff,) and words == sum(x.nbytes for x in fresh) // 8, name
        assert len(_arrays(kept)) == len(fresh), name
        for x, y in zip(_arrays(kept), fresh):
            assert not x.flags.writeable and x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


def test_cache_counts_every_array_of_a_value(monkeypatch):
    """A value's words are every array it holds, in 8-byte words (two per
    complex entry): a value above the value bound is never kept, though its
    last array alone would fit, and a new value evicts the oldest once the
    store is over its bound."""
    monkeypatch.setattr(fock, "_MEMO_VALUE_WORDS", 100)
    monkeypatch.setattr(fock, "_MEMO_WORDS", 100)
    fock._MEMO.clear()
    calls = []

    def over():
        calls.append(1)
        return np.zeros(60), np.zeros(50)

    for _ in range(2):
        fock._memo(over)()
    assert len(calls) == 2 and not fock._MEMO
    complex_ = fock._memo(lambda: (np.zeros(30, dtype=complex), np.zeros(30)))
    complex_()
    assert [words for _, words in fock._MEMO.values()] == [90]
    two = fock._memo(lambda: ((np.zeros(5, dtype=np.int64),), np.zeros(6)))
    two()
    assert list(_held(two).values())[0][1] == 11 and len(fock._MEMO) == 1
    # the transfer tables at c = 20 hold 400 + 400 + 20^3 = 8800 words: above a value
    # bound of 8500 that their largest array alone meets, so they are rebuilt on every call
    monkeypatch.setattr(fock, "_MEMO_VALUE_WORDS", 8500)
    monkeypatch.setattr(fock, "_MEMO_WORDS", 1 << 24)
    fock._MEMO.clear()
    for _ in range(2):
        fock._transfer(fock._kraus_diagonals("attenuator", 0.7, 20))
    assert [key for key in fock._MEMO] == [(fock._log_binomials.__wrapped__, 20)]


def test_memo_keys_an_array_by_dtype_shape_and_bytes():
    """Arrays with the same bytes but another dtype or shape are other keys;
    an equal array made anew is a hit."""
    fock._MEMO.clear()
    calls = []

    def build(x):
        calls.append(x)
        return np.zeros(1)

    kept = fock._memo(build)
    for x in (np.zeros(4), np.zeros(4), np.zeros(8, dtype=np.int32), np.zeros((2, 2)), np.zeros(4, dtype=np.int64)):
        kept(x)
    assert len(calls) == 4 and len(_held(kept)) == 4


def test_memo_keeps_its_bound_under_threads(monkeypatch):
    """Threads that miss, hit and evict at once, switching every
    microsecond, leave the store within its bound, each entry counted at
    its value's words, and every caller with the value a build gives."""
    monkeypatch.setattr(fock, "_MEMO_WORDS", 300)
    fock._MEMO.clear()
    kept = fock._memo(lambda n: np.arange(float(n)))
    wrong = []

    def work(seed):
        for n in np.random.default_rng(seed).integers(1, 60, size=300):
            if not np.array_equal(kept(int(n)), np.arange(float(n))):
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong
    assert all(words == value.size for value, words in fock._MEMO.values())
    assert sum(words for _, words in fock._MEMO.values()) <= 300


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_every_kept_value_is_read_only_owned_and_counted():
    """After dual paths and closed forms at several cutoffs, every kept array is read-only and owns its data (a view would
    keep its base alive uncounted), each value's words are its arrays',
    none above 2^22, and the store is within 2^24."""
    fock._MEMO.clear()
    for cutoff in (6, 20, 24):
        state = fock.entangled_output_fock([("unitary", _FRAMED_SPEC), ("attenuator", 0.8), ("amplifier", 1.2)],
                                           1.0, cutoff)
        fock.expectation(fock.witness_fock_unitary(_FRAMED_SPEC, 1.0, cutoff), state)
        fock.expectation(fock.witness_fock_amp(2.0, 1.0, cutoff), fock.entangled_output_fock([], 1.0, cutoff))
        fock.canonical_observable_closed_form(2.0, 1.0, min(cutoff, 14))
    assert {key[0].__name__ for key in fock._MEMO} == {
        "_grid_tables", "_transfer_tables", "_output_gather", "_log_binomials", "_chain_spectra", "_euler_unitary",
        "_squeezed_core"}
    for value, words in fock._MEMO.values():
        arrays = _arrays(value)
        assert all(not x.flags.writeable and x.base is None for x in arrays)
        assert words == sum(x.nbytes for x in arrays) // 8 <= fock._MEMO_VALUE_WORDS == 1 << 22
    assert sum(words for _, words in fock._MEMO.values()) <= fock._MEMO_WORDS == 1 << 24


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("lam, cutoff", [(1.0, 12), (0.8, 20)])
def test_identity_witness_is_a_float_stack_equal_to_its_core(lam, cutoff):
    """The identity target's frame is real and diagonal, so it folds into a
    float stack equal to the core, a new writeable array; a rotation's
    diagonal frame has phases and folds into a complex one."""
    W = fock.witness_fock_unitary(sp.identity(1), lam, cutoff)
    core = fock._squeezed_sectors(fock._kappa(lam), 1.0 - lam / (lam + 1.0) * np.arange(cutoff, dtype=float), 0,
                                  cutoff)
    assert W.sectors.dtype == np.float64 and np.array_equal(W.sectors, core)
    assert W.sectors.flags.writeable and not np.shares_memory(W.sectors, core)
    rotation = sp.SymplecticSpec(np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]), np.zeros(2))
    rotated = fock.witness_fock_unitary(rotation, lam, cutoff)
    assert rotated.sectors is not None and np.iscomplexobj(rotated.sectors)
