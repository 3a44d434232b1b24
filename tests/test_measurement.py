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
