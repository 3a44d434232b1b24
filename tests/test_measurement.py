import numpy as np
import pytest

from cvverify import gaussian as ga, measurement as ms


def test_plan_sizes():
    for m in range(1, 7):
        plan = ms.build_measurement_plan(m)
        assert len(plan.settings) == m + 5


def test_plan_coverage_complete_and_unique():
    for m in (1, 2, 3):
        plan = ms.build_measurement_plan(m)
        required = ms.required_moments(m)
        assert set(plan.coverage) == set(required)
        assert len(plan.coverage) == len(required)


def test_plan_m2_moment_counts():
    plan = ms.build_measurement_plan(2)
    g1 = [k for k in plan.coverage if k[0] == "Gamma1"]
    g2 = [k for k in plan.coverage if k[0] == "Gamma2"]
    assert len(g1) == 10  # distinct entries of a symmetric 4x4 matrix
    assert len(g2) == 16


def test_setting_angle_validation():
    with pytest.raises(ValueError):
        ms.HomodyneSetting((np.pi,))


def test_sampler_vacuum_mean():
    st = ga.vacuum(1)
    setting = ms.HomodyneSetting((0.0,))
    x = ms.sample_quadratures(st, setting, seed=0, shots=100_000)
    tol = 3.0 * np.sqrt(0.5) / np.sqrt(100_000)
    assert abs(x.mean()) < tol


def test_sampler_coherent_mean():
    st = ga.coherent(1.0 + 0.0j)
    x = ms.sample_quadratures(st, ms.HomodyneSetting((0.0,)), seed=1, shots=100_000)
    tol = 3.0 * np.sqrt(0.5) / np.sqrt(100_000)
    assert abs(x.mean() - np.sqrt(2.0)) < tol


def test_sampler_tmsv_correlation():
    r = 0.6
    st = ga.tmsv(r)
    setting = ms.HomodyneSetting((0.0, 0.0))
    x = ms.sample_quadratures(st, setting, seed=2, shots=100_000)
    corr = (x[:, 0] * x[:, 1]).mean()
    expected = 0.5 * np.sinh(2 * r)
    sd = (x[:, 0] * x[:, 1]).std(ddof=1) / np.sqrt(100_000)
    assert abs(corr - expected) < 4.0 * sd


def test_sampler_rotated_quadrature_variance():
    # 45-degree quadrature of a squeezed vacuum mixes both variances
    from cvverify import symplectic as sp

    r = 0.5
    st = ga.apply_unitary(ga.vacuum(1), sp.single_mode_squeezer(r))
    x = ms.sample_quadratures(st, ms.HomodyneSetting((np.pi / 4,)), seed=3, shots=100_000)
    expected = 0.25 * (np.exp(2 * r) + np.exp(-2 * r))
    sd = (x[:, 0] ** 2).std(ddof=1) / np.sqrt(100_000)
    assert abs((x[:, 0] ** 2).mean() - expected) < 4.0 * sd


def test_joint_equals_marginal_with_cross_covariance():
    # sampling two modes jointly must reproduce the cross covariance that
    # marginal sampling alone cannot
    r = 0.7
    st = ga.tmsv(r)
    setting = ms.HomodyneSetting((0.0, np.pi / 2))
    x = ms.sample_quadratures(st, setting, seed=4, shots=200_000)
    # q_A p_R covariance of the TMSV is zero; variances match the marginals
    assert abs((x[:, 0] * x[:, 1]).mean()) < 0.02
    assert (x[:, 0] ** 2).mean() == pytest.approx(0.5 * np.cosh(2 * r), rel=0.02)


def test_sampler_seed_determinism():
    st = ga.tmsv(0.4)
    setting = ms.HomodyneSetting((0.0, 0.0))
    a = ms.sample_quadratures(st, setting, seed=5, shots=100)
    b = ms.sample_quadratures(st, setting, seed=5, shots=100)
    np.testing.assert_array_equal(a, b)


def test_unmeasured_modes_are_skipped():
    st = ga.tmsv(0.3)
    setting = ms.HomodyneSetting((0.0, None))
    x = ms.sample_quadratures(st, setting, seed=6, shots=10)
    assert x.shape == (10, 1)


# ------------------------------------------- sufficient-statistic sampler


def _displaced_pairs():
    """Two correlated pairs with a displacement; the setting reads all four
    modes at mixed angles, so the measured covariance is dense."""
    from cvverify import symplectic as sp

    spec = sp.random_symplectic(2, r_max=0.4, d_scale=0.5, rng=np.random.default_rng(7))
    st = ga.apply_unitary(ga.tmsv_pairs(0.6, 2), spec, modes=(0, 1))
    setting = ms.HomodyneSetting((0.0, np.pi / 4, np.pi / 2, 0.0))
    P = ms.rotated_quadrature_projector(setting, 4)
    return st, setting, P @ st.mean, P @ st.cov @ P.T


def _moment_sums(st, setting, shots, seeds):
    sums = [ms.sample_moment_sums(st, setting, s, shots) for s in seeds]
    return np.array([s1 for s1, _ in sums]), np.array([s2 for _, s2 in sums])


def test_moment_sums_single_shot_is_one_draw():
    # N = 1: no scatter, so the second sum is the outer product of the one shot,
    # and that shot is distributed as N(mu, Sigma)
    st, setting, mu, cov = _displaced_pairs()
    reps = 4000
    s1, s2 = _moment_sums(st, setting, 1, range(reps))
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
    s1, s2 = _moment_sums(st, setting, shots, range(reps))
    W = s2 - s1[:, :, None] * s1[:, None, :] / shots
    dof = shots - 1
    w_var = dof * (np.outer(np.diag(cov), np.diag(cov)) + cov**2)
    assert np.all(np.abs(s1.mean(0) / shots - mu) <= 4.0 * np.sqrt(np.diag(cov) / (shots * reps)))
    assert np.all(np.abs(W.mean(0) - dof * cov) <= 4.0 * np.sqrt(w_var / reps))
    np.testing.assert_allclose(W.var(0, ddof=1) / w_var, 1.0, atol=0.25)
    assert {np.linalg.matrix_rank(w, tol=1e-9) for w in W[:20]} == {min(dof, k)}


def test_moment_sums_edge_counts_and_determinism():
    st, setting, _, _ = _displaced_pairs()
    s1, s2 = ms.sample_moment_sums(st, setting, 0, 0)
    assert not s1.any() and not s2.any() and s2.shape == (4, 4)
    with pytest.raises(ValueError):
        ms.sample_moment_sums(st, setting, 0, -1)
    a = ms.sample_moment_sums(st, setting, 3, 10**9)
    b = ms.sample_moment_sums(st, setting, 3, 10**9)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_allclose(a[1], a[1].T, rtol=1e-12)
