import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import inverse
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
    inv = inverse(a)
    np.testing.assert_allclose(a.S @ inv.S, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(a.S @ inv.d + a.d, np.zeros(4), atol=1e-12)


def test_inverse_of_two_mode_squeezer():
    inv = inverse(two_mode_squeezer(0.4))
    np.testing.assert_allclose(inv.S, two_mode_squeezer(-0.4).S, atol=1e-12)


def test_serialization_roundtrip():
    rng = np.random.default_rng(1)
    a = sp.random_symplectic(2, r_max=0.5, d_scale=0.7, rng=rng)
    b = sp.SymplecticSpec.from_dict(a.to_dict())
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.d, b.d)


def test_specs_compare_by_value_and_hash_by_bytes():
    """Equal S and d are an equal spec with one hash, whatever the objects,
    and -0.0 is 0.0; one ulp of S or of d, or another mode count, is
    another spec.  A spec never equals what is not a spec, and one read back
    from its pickle is equal and read-only."""
    spec = sp.random_symplectic(2, r_max=0.4, d_scale=0.5, rng=np.random.default_rng(3))
    twin = sp.SymplecticSpec(spec.S.copy(), spec.d.copy())
    assert spec == twin and hash(spec) == hash(twin) and len({spec, twin}) == 1
    signed = sp.SymplecticSpec(np.eye(2), np.array([-0.0, 0.0]))
    assert signed == sp.identity(1) and hash(signed) == hash(sp.identity(1))
    S, d = spec.S.copy(), spec.d.copy()
    S[1, 2] = np.nextafter(S[1, 2], np.inf)
    d[3] = np.nextafter(d[3], np.inf)
    for other in (sp.SymplecticSpec(S, spec.d), sp.SymplecticSpec(spec.S, d), sp.identity(1), sp.identity(2)):
        assert other != spec and not other == spec
    assert spec != spec.to_dict() and spec != "identity"
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and hash(back) == hash(spec) and not back.S.flags.writeable and not back.d.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_spec_entries_rejected(bad):
    # a NaN spec once reached the Fock oracle and failed there as "SVD did not converge"
    with pytest.raises(ValueError, match="target S has an entry that is not finite"):
        sp.SymplecticSpec(np.diag([bad, 1.0]), np.zeros(2))
    with pytest.raises(ValueError, match="target d has an entry that is not finite"):
        sp.SymplecticSpec(np.eye(2), np.array([0.0, bad]))
    with pytest.raises(ValueError, match="target S has an entry that is not finite"):
        sp.SymplecticSpec.from_dict({"m": 1, "S": [1, bad, 0, 1], "d": [0, 0]})


def test_from_dict_names_the_object_it_reads():
    # a config's target and a prover's spec are both read here, each named by its key
    data = {"m": 1, "S": [1, 0, 0, 1], "d": [0, 0], "dd": [0, 0]}
    with pytest.raises(ValueError, match=r"^unknown target fields: 'dd'$"):
        sp.SymplecticSpec.from_dict(data)
    with pytest.raises(ValueError, match=r"^unknown spec fields: 'dd'$"):
        sp.SymplecticSpec.from_dict(data, "spec")
    with pytest.raises(TypeError, match=r"^spec must be an object, got list$"):
        sp.SymplecticSpec.from_dict([1, 0, 0, 1], "spec")


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
    assert sp.spectral_norm(inverse(spec)) == pytest.approx(
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
