import numpy as np
import pytest

from builders import coherent
from cvverify import gaussian as ga, measurement as ms
from cvverify import symplectic as sp
from cvverify.channels import exact_unitary
from cvverify.protocols import VerificationConfig, plan_unitary


def _unitary_moment_keys(m):
    """The moment each batch of the unitary plan reads, as ("gamma", u),
    ("Gamma1", u, v) with u <= v, or ("Gamma2", u, v): u, v index the
    quadratures q_0, p_0, q_1, ... of A' (and of R for the second index of
    Gamma2).  The 45-degree setting reads the same-mode q p moment."""
    cfg = VerificationConfig("unitary", lam=1.0, F_t=0.5, delta=0.25, epsilon=0.02,
                             target=sp.identity(m))
    keys = []
    for b in plan_unitary(cfg)[0]:
        for i, j, _ in b.terms:
            angles = b.setting.angles

            def quad(k):
                if np.isclose(angles[k], np.pi / 4):
                    return None
                return 2 * (k % m) + int(np.isclose(angles[k], np.pi / 2))

            if j is None:
                keys.append(("gamma", quad(i)))
            elif j >= m:
                keys.append(("Gamma2", quad(i), quad(j)))
            elif quad(i) is None:
                keys.append(("Gamma1", 2 * i, 2 * i + 1))
            else:
                keys.append(("Gamma1",) + tuple(sorted((quad(i), quad(j)))))
    return keys


def test_plan_sizes():
    for m in range(1, 7):
        assert len(ms.build_measurement_plan(m)) == m + 5


def test_plan_coverage_complete_and_unique():
    for m in (1, 2, 3):
        n = 2 * m
        required = ([("gamma", u) for u in range(n)]
                    + [("Gamma1", u, v) for u in range(n) for v in range(u, n)]
                    + [("Gamma2", u, v) for u in range(n) for v in range(n)])
        keys = _unitary_moment_keys(m)
        assert set(keys) == set(required)
        assert len(keys) == len(required)


def test_plan_m2_moment_counts():
    keys = _unitary_moment_keys(2)
    g1 = [k for k in keys if k[0] == "Gamma1"]
    g2 = [k for k in keys if k[0] == "Gamma2"]
    assert len(g1) == 10  # distinct entries of a symmetric 4x4 matrix
    assert len(g2) == 16


def test_setting_angle_validation():
    with pytest.raises(ValueError):
        ms.HomodyneSetting((np.pi,))


# ------------------------------------------------- per-shot reference


def sample_quadratures(state, setting, seed, shots):
    """Joint homodyne shots, shape (shots, n_measured), drawn one by one from
    the Cholesky factor of the measured marginal: the reference for the
    sufficient-statistic sampler.  ``seed`` may be an int or a Generator."""
    P = ms.rotated_quadrature_projector(setting, state.n_modes)
    L = np.linalg.cholesky(P @ state.cov @ P.T)
    z = np.random.default_rng(seed).standard_normal((shots, len(L)))
    return P @ state.mean + z @ L.T


def test_sampler_vacuum_mean():
    st = ga.GaussianState(np.zeros(2), 0.5 * np.eye(2))
    setting = ms.HomodyneSetting((0.0,))
    x = sample_quadratures(st, setting, seed=0, shots=100_000)
    tol = 3.0 * np.sqrt(0.5) / np.sqrt(100_000)
    assert abs(x.mean()) < tol


def test_sampler_coherent_mean():
    st = coherent(1.0 + 0.0j)
    x = sample_quadratures(st, ms.HomodyneSetting((0.0,)), seed=1, shots=100_000)
    tol = 3.0 * np.sqrt(0.5) / np.sqrt(100_000)
    assert abs(x.mean() - np.sqrt(2.0)) < tol


def test_sampler_tmsv_correlation():
    r = 0.6
    st = ga.tmsv_pairs(r, 1)
    setting = ms.HomodyneSetting((0.0, 0.0))
    x = sample_quadratures(st, setting, seed=2, shots=100_000)
    corr = (x[:, 0] * x[:, 1]).mean()
    expected = 0.5 * np.sinh(2 * r)
    sd = (x[:, 0] * x[:, 1]).std(ddof=1) / np.sqrt(100_000)
    assert abs(corr - expected) < 4.0 * sd


def test_sampler_rotated_quadrature_variance():
    # 45-degree quadrature of a squeezed vacuum mixes both variances
    r = 0.5
    squeezer = sp.SymplecticSpec(np.diag([np.exp(r), np.exp(-r)]), np.zeros(2))
    st = ga.apply_channel(ga.GaussianState(np.zeros(2), 0.5 * np.eye(2)), exact_unitary(squeezer).realize())
    x = sample_quadratures(st, ms.HomodyneSetting((np.pi / 4,)), seed=3, shots=100_000)
    expected = 0.25 * (np.exp(2 * r) + np.exp(-2 * r))
    sd = (x[:, 0] ** 2).std(ddof=1) / np.sqrt(100_000)
    assert abs((x[:, 0] ** 2).mean() - expected) < 4.0 * sd


def test_joint_equals_marginal_with_cross_covariance():
    # sampling two modes jointly must reproduce the cross covariance that
    # marginal sampling alone cannot
    r = 0.7
    st = ga.tmsv_pairs(r, 1)
    setting = ms.HomodyneSetting((0.0, np.pi / 2))
    x = sample_quadratures(st, setting, seed=4, shots=200_000)
    # q_A p_R covariance of the TMSV is zero; variances match the marginals
    assert abs((x[:, 0] * x[:, 1]).mean()) < 0.02
    assert (x[:, 0] ** 2).mean() == pytest.approx(0.5 * np.cosh(2 * r), rel=0.02)


def test_sampler_seed_determinism():
    st = ga.tmsv_pairs(0.4, 1)
    setting = ms.HomodyneSetting((0.0, 0.0))
    a = sample_quadratures(st, setting, seed=5, shots=100)
    b = sample_quadratures(st, setting, seed=5, shots=100)
    np.testing.assert_array_equal(a, b)


def test_unmeasured_modes_are_skipped():
    st = ga.tmsv_pairs(0.3, 1)
    setting = ms.HomodyneSetting((0.0, None))
    x = sample_quadratures(st, setting, seed=6, shots=10)
    assert x.shape == (10, 1)


# ------------------------------------------- sufficient-statistic sampler


def _displaced_pairs():
    """Two correlated pairs with a displacement; the setting reads all four
    modes at mixed angles, so the measured covariance is dense."""
    spec = sp.random_symplectic(2, r_max=0.4, d_scale=0.5, rng=np.random.default_rng(7))
    st = ga.apply_channel(ga.tmsv_pairs(0.6, 2), exact_unitary(spec).realize())
    setting = ms.HomodyneSetting((0.0, np.pi / 4, np.pi / 2, 0.0))
    P = ms.rotated_quadrature_projector(setting, 4)
    return st, setting, P @ st.mean, P @ st.cov @ P.T


def _moment_sums(shots, reps, seed):
    """``reps`` independent draws of the shot and scatter sums of the dense
    four-column marginal, as one stacked ``moment_sums`` call."""
    st, setting, _, _ = _displaced_pairs()
    P = ms.rotated_quadrature_projector(setting, 4)
    mean, root = ms.marginals(st, np.array([P] * reps), [setting] * reps)
    return ms.moment_sums(mean, root, np.random.default_rng(seed), shots)


def test_moment_sums_single_shot_is_one_draw():
    # N = 1: no scatter, so the second sum is the outer product of the one shot,
    # and that shot is distributed as N(mu, Sigma)
    st, setting, mu, cov = _displaced_pairs()
    reps = 4000
    s1, s2 = _moment_sums(1, reps, 0)
    np.testing.assert_allclose(s2, s1[:, :, None] * s1[:, None, :], rtol=1e-12, atol=1e-12)
    assert np.all(np.abs(s1.mean(0) - mu) <= 4.0 * np.sqrt(np.diag(cov) / reps))
    np.testing.assert_allclose(np.cov(s1.T), cov, atol=0.1 * np.max(np.abs(cov)))


@pytest.mark.parametrize("shots", [2, 3, 4, 5, 6])
def test_moment_sums_scatter_is_wishart(shots):
    # k = 4 measured modes: N <= k draws a k x (N-1) normal block, N = k+1 is the
    # Bartlett path with a chi^2(1) corner, N = 6 the Bartlett path in general.
    # Mean sums to 4 sigma, the scatter W = s2 - s1 s1^T / N to the Wishart
    # mean (N-1) Sigma (4 sigma) and variance (N-1)(S_ii S_jj + S_ij^2)
    # (ratio within 25%), and W has rank min(N-1, k).
    st, setting, mu, cov = _displaced_pairs()
    k, reps = mu.size, 3000
    s1, s2 = _moment_sums(shots, reps, shots)
    W = s2 - s1[:, :, None] * s1[:, None, :] / shots
    dof = shots - 1
    w_var = dof * (np.outer(np.diag(cov), np.diag(cov)) + cov**2)
    assert np.all(np.abs(s1.mean(0) / shots - mu) <= 4.0 * np.sqrt(np.diag(cov) / (shots * reps)))
    assert np.all(np.abs(W.mean(0) - dof * cov) <= 4.0 * np.sqrt(w_var / reps))
    np.testing.assert_allclose(W.var(0, ddof=1) / w_var, 1.0, atol=0.25)
    assert {np.linalg.matrix_rank(w, tol=1e-9) for w in W[:20]} == {min(dof, k)}


def test_moment_sums_edge_counts_and_determinism():
    st, setting, _, _ = _displaced_pairs()
    mean, root = ms.marginals(st, ms.rotated_quadrature_projector(setting, 4)[None], [setting])
    for shots in (0, -1):
        with pytest.raises(ValueError, match="shots must be positive"):
            ms.moment_sums(mean, root, np.random.default_rng(0), shots)
    a = ms.moment_sums(mean, root, np.random.default_rng(3), 10**9)
    b = ms.moment_sums(mean, root, np.random.default_rng(3), 10**9)
    assert a[0].shape == (1, 4) and a[1].shape == (1, 4, 4)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_allclose(a[1], a[1].transpose(0, 2, 1), rtol=1e-12)


def test_marginal_roots_are_exact_for_singular_covariances():
    # a TMSV so squeezed (lam = 1e-14) that its q_A q_R covariance has
    # eigenvalues of about 1e14 and 1e-14: a Cholesky factor fails, the
    # eigen root reproduces the covariance to rounding, column by column too
    from cvverify.protocols import kappa_for

    st = ga.tmsv_pairs(kappa_for(1e-14), 1)
    setting = ms.HomodyneSetting((0.0, 0.0))
    P = ms.rotated_quadrature_projector(setting, 2)
    cov = P @ st.cov @ P.T
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    mean, root = ms.marginals(st, P[None], [setting])
    np.testing.assert_allclose(root[0] @ root[0].T, cov, rtol=1e-12)
    np.testing.assert_array_equal(mean, [[0.0, 0.0]])
    _, root = ms.marginals(st, P[:, None], [setting, setting])
    np.testing.assert_allclose(root[:, 0, 0] ** 2, np.diag(cov), rtol=1e-12)

