import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvverify import symplectic as sp


def test_symplectic_form_properties():
    omega = sp.symplectic_form(3)
    np.testing.assert_array_equal(omega, -omega.T)
    np.testing.assert_allclose(omega @ omega, -np.eye(6))


def test_validate_identity():
    assert sp.validate_symplectic(np.eye(4))


def test_validate_two_mode_squeezer():
    assert sp.validate_symplectic(sp.two_mode_squeezer(0.5).S)


def test_validate_rejects_uniform_scaling():
    # diag(2, 2) scales the form by 4, so it is not symplectic
    assert not sp.validate_symplectic(np.diag([2.0, 2.0]))


def test_validate_rejects_odd_dimension():
    with pytest.raises(ValueError):
        sp.validate_symplectic(np.eye(3))


def test_two_mode_squeezer_zero_theta():
    np.testing.assert_array_equal(sp.two_mode_squeezer(0.0).S, np.eye(4))


def test_two_mode_squeezer_structure():
    theta = np.arctanh(1.0 / np.sqrt(2.0))
    S = sp.two_mode_squeezer(theta).S
    c, s = np.cosh(theta), np.sinh(theta)
    np.testing.assert_allclose(S[:2, :2], c * np.eye(2))
    np.testing.assert_allclose(S[:2, 2:], s * np.diag([1.0, -1.0]))


def test_spectral_norm_identity():
    assert sp.spectral_norm(sp.identity(2)) == pytest.approx(1.0)


def test_spectral_norm_squeezer():
    assert sp.spectral_norm(sp.single_mode_squeezer(1.0)) == pytest.approx(np.e)


def test_spectral_norm_two_mode_squeezer():
    # singular values are cosh(theta) +- sinh(theta) = e^{+-theta}
    assert sp.spectral_norm(sp.two_mode_squeezer(0.7)) == pytest.approx(np.exp(0.7))


def test_compose_with_inverse():
    # the inverse followed by a is the identity map: S S_inv = 1 and S d_inv + d = 0
    rng = np.random.default_rng(0)
    a = sp.random_symplectic(2, r_max=1.0, d_scale=1.0, rng=rng)
    inv = sp.inverse(a)
    np.testing.assert_allclose(a.S @ inv.S, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(a.S @ inv.d + a.d, np.zeros(4), atol=1e-12)


def test_inverse_of_two_mode_squeezer():
    inv = sp.inverse(sp.two_mode_squeezer(0.4))
    np.testing.assert_allclose(inv.S, sp.two_mode_squeezer(-0.4).S, atol=1e-12)


def test_serialization_roundtrip():
    rng = np.random.default_rng(1)
    a = sp.random_symplectic(2, r_max=0.5, d_scale=0.7, rng=rng)
    b = sp.SymplecticSpec.from_dict(a.to_dict())
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.d, b.d)


def test_rotation_convention():
    # q -> q cos(phi) - p sin(phi)
    S = sp.rotation(np.pi / 2).S
    np.testing.assert_allclose(S @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_random_specs_are_symplectic(seed, m):
    rng = np.random.default_rng(seed)
    spec = sp.random_symplectic(m, r_max=1.5, d_scale=1.0, rng=rng)
    assert spec.is_valid(tol=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_spectral_norm_of_inverse(seed):
    rng = np.random.default_rng(seed)
    spec = sp.random_symplectic(2, r_max=1.2, rng=rng)
    assert sp.spectral_norm(sp.inverse(spec)) == pytest.approx(
        sp.spectral_norm(spec), rel=1e-9
    )


def test_orthogonal_symplectic_is_orthogonal_and_symplectic():
    rng = np.random.default_rng(5)
    O = sp.orthogonal_symplectic(3, rng)
    np.testing.assert_allclose(O @ O.T, np.eye(6), atol=1e-12)
    assert sp.validate_symplectic(O)
