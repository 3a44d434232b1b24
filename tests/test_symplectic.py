import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvverify import symplectic as sp


def two_mode_squeezer(theta):
    """cosh(theta) on the diagonal blocks and sinh(theta) Z off them."""
    c, s, Z = np.cosh(theta), np.sinh(theta), np.diag([1.0, -1.0])
    return sp.SymplecticSpec(np.block([[c * np.eye(2), s * Z], [s * Z, c * np.eye(2)]]), np.zeros(4))


def test_symplectic_form_properties():
    omega = sp.symplectic_form(3)
    np.testing.assert_array_equal(omega, -omega.T)
    np.testing.assert_allclose(omega @ omega, -np.eye(6))


def test_validate_identity():
    assert sp.validate_symplectic(np.eye(4))


def test_validate_two_mode_squeezer():
    assert sp.validate_symplectic(two_mode_squeezer(0.5).S)


def test_validate_rejects_uniform_scaling():
    # diag(2, 2) scales the form by 4, so it is not symplectic
    assert not sp.validate_symplectic(np.diag([2.0, 2.0]))


def test_validate_rejects_odd_dimension():
    with pytest.raises(ValueError):
        sp.validate_symplectic(np.eye(3))


def test_spectral_norm_identity():
    assert sp.spectral_norm(sp.identity(2)) == pytest.approx(1.0)


def test_spectral_norm_squeezer():
    squeezer = sp.SymplecticSpec(np.diag([np.e, 1.0 / np.e]), np.zeros(2))
    assert sp.spectral_norm(squeezer) == pytest.approx(np.e)


def test_spectral_norm_two_mode_squeezer():
    # singular values are cosh(theta) +- sinh(theta) = e^{+-theta}
    assert sp.spectral_norm(two_mode_squeezer(0.7)) == pytest.approx(np.exp(0.7))


def test_compose_with_inverse():
    # the inverse followed by a is the identity map: S S_inv = 1 and S d_inv + d = 0
    rng = np.random.default_rng(0)
    a = sp.random_symplectic(2, r_max=1.0, d_scale=1.0, rng=rng)
    inv = sp.inverse(a)
    np.testing.assert_allclose(a.S @ inv.S, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(a.S @ inv.d + a.d, np.zeros(4), atol=1e-12)


def test_inverse_of_two_mode_squeezer():
    inv = sp.inverse(two_mode_squeezer(0.4))
    np.testing.assert_allclose(inv.S, two_mode_squeezer(-0.4).S, atol=1e-12)


def test_serialization_roundtrip():
    rng = np.random.default_rng(1)
    a = sp.random_symplectic(2, r_max=0.5, d_scale=0.7, rng=rng)
    b = sp.SymplecticSpec.from_dict(a.to_dict())
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.d, b.d)


def test_rotation_convention():
    # a one-mode passive unitary e^{i phi} rotates q -> q cos(phi) - p sin(phi)
    S = sp.orthogonal_symplectic(1, np.random.default_rng(3))
    phi = np.arctan2(S[1, 0], S[0, 0])
    np.testing.assert_allclose(S, [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]], atol=1e-15)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_random_specs_are_symplectic(seed, m):
    rng = np.random.default_rng(seed)
    spec = sp.random_symplectic(m, r_max=1.5, d_scale=1.0, rng=rng)
    assert spec.is_valid()


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


def test_zero_mode_target_rejected():
    with pytest.raises(ValueError, match="target S must be square with positive even dimension"):
        sp.SymplecticSpec(np.zeros((0, 0)), np.zeros(0))
    with pytest.raises(ValueError, match="target S"):
        sp.SymplecticSpec.from_dict({"m": 0, "S": [], "d": []})
