import dataclasses
import pickle

import numpy as np
import pytest

from builders import random_prover
from cvverify import channels, gaussian as ga, protocols, symplectic as sp
from cvverify.channels import (
    KINDS,
    PARAMS,
    AmplificationTarget,
    ProverChannel,
    average_fidelity,
    elementary_factors,
    exact_unitary,
    optimal_amplifier,
)


def test_exact_unitary_identity_realizes_identity_channel():
    ch = exact_unitary(sp.identity(1)).realize()
    np.testing.assert_array_equal(ch.X, np.eye(2))
    np.testing.assert_array_equal(ch.Y, np.zeros((2, 2)))


def test_quantum_limited_amplifier_g1_is_identity():
    ch = ProverChannel("QuantumLimitedAmplifier", g=1.0).realize()
    np.testing.assert_array_equal(ch.X, np.eye(2))
    np.testing.assert_array_equal(ch.Y, np.zeros((2, 2)))


def test_attenuator_keeps_vacuum_on_vacuum():
    ch = ProverChannel("Attenuator", eta=0.5).realize()
    out = ga.apply_channel(ga.GaussianState(np.zeros(2), 0.5 * np.eye(2)), ch)
    np.testing.assert_allclose(out.cov, 0.5 * np.eye(2))


def test_parameter_domains_enforced():
    with pytest.raises(ValueError):
        ProverChannel("QuantumLimitedAmplifier", g=0.5)
    with pytest.raises(ValueError):
        ProverChannel("Attenuator", eta=1.5)
    with pytest.raises(ValueError):
        ProverChannel("NoisyUnitary", spec=sp.identity(1), excess=-0.1)
    with pytest.raises(ValueError):
        ProverChannel("NoSuchKind")


@pytest.mark.parametrize("params", [
    {"kind": "QuantumLimitedAmplifier", "g": np.inf},
    {"kind": "QuantumLimitedAmplifier", "g": 1e300},  # g^2 overflows
    {"kind": "NoisyAmplifier", "g": 1.2, "excess": np.nan},
    {"kind": "Attenuator", "eta": np.nan},
    {"kind": "AdditiveNoise", "variance": np.inf},
])
def test_non_finite_channel_parameters_rejected(params):
    with pytest.raises(ValueError, match="finite"):
        ProverChannel(**params)


def test_from_dict_coerces_numbers():
    for modes in ("2", 2.0, "2.0", np.int64(2)):
        p = ProverChannel.from_dict({"kind": "QuantumLimitedAmplifier", "g": "1.5", "modes": modes})
        assert (p.g, p.n_modes) == (1.5, 2)
    with pytest.raises(ValueError):
        ProverChannel.from_dict({"kind": "AdditiveNoise", "variance": "abc"})


@pytest.mark.parametrize("modes", [0, -1])
def test_prover_on_fewer_than_one_mode_rejected(modes):
    # -1 modes used to fail only in realize(), with numpy's "negative dimensions"
    match = rf'^n_modes \("modes"\) must be at least 1, got {modes}$'
    with pytest.raises(ValueError, match=match):
        ProverChannel("AdditiveNoise", variance=0.1, n_modes=modes)
    with pytest.raises(ValueError, match=match):
        ProverChannel.from_dict({"kind": "QuantumLimitedAmplifier", "g": 1.5, "modes": modes})


def test_honest_prover_unit_fidelity():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3, 4):
        spec = sp.random_symplectic(m, r_max=0.8, d_scale=0.5, rng=rng)
        assert average_fidelity(exact_unitary(spec), spec, lam=1.3) == pytest.approx(1.0, abs=1e-12)


def test_optimal_amplifier_attains_max_fidelity():
    for g in (2.0, 2.1, 2.6, 3.0):
        for lam in (0.5, 1.0):
            f = average_fidelity(optimal_amplifier(g, lam), AmplificationTarget(g), lam)
            assert f == pytest.approx((lam + 1.0) / g**2, abs=1e-12)


def test_gain_g_amplifier_is_suboptimal():
    g, lam = 2.0, 1.0
    f = average_fidelity(ProverChannel("QuantumLimitedAmplifier", g=g), AmplificationTarget(g), lam)
    assert f < (lam + 1.0) / g**2


def test_additive_noise_fidelity_closed_form():
    # vs the identity target the mean mismatch vanishes, so F = 1/(1+v)
    for v in (0.1, 0.3, 0.7):
        f = average_fidelity(ProverChannel("AdditiveNoise", variance=v), sp.identity(1), lam=1.0)
        assert f == pytest.approx(1.0 / (1.0 + v), abs=1e-12)


def test_additive_noise_fidelity_monotone():
    vals = [average_fidelity(ProverChannel("AdditiveNoise", variance=float(v)), sp.identity(1), lam=1.0)
            for v in np.linspace(0.0, 0.8, 5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _dense_fidelity(p, target, lam, mc_samples, seed):
    """Reference Monte Carlo: two (N, m) normal draws, the full N x 2m target
    and output means, slogdet and a dense solve."""
    m, ch = p.n_modes, p.realize()
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(1.0 / (2.0 * lam))
    alphas = sigma * (rng.standard_normal((mc_samples, m))
                      + 1j * rng.standard_normal((mc_samples, m)))
    mean_in = np.empty((mc_samples, 2 * m))
    mean_in[:, 0::2] = np.sqrt(2.0) * alphas.real
    mean_in[:, 1::2] = np.sqrt(2.0) * alphas.imag
    mean_out = mean_in @ ch.X.T + ch.d
    if isinstance(target, AmplificationTarget):
        mean_tgt, V_tgt = target.g * mean_in, 0.5 * np.eye(2 * m)
    else:
        mean_tgt, V_tgt = mean_in @ target.S.T + target.d, 0.5 * target.S @ target.S.T
    V_sum = V_tgt + 0.5 * ch.X @ ch.X.T + ch.Y
    delta = mean_tgt - mean_out
    _, logdet = np.linalg.slogdet(V_sum)
    quad = np.einsum("ij,ij->i", delta, np.linalg.solve(V_sum, delta.T).T)
    f = np.exp(-0.5 * quad - 0.5 * logdet)
    return f.mean(), f.std(ddof=1) / np.sqrt(mc_samples)


def test_fidelity_matches_dense_reference():
    """The closed form lies within 4 standard errors of a Monte-Carlo average
    of the per-input fidelity (exactly on it when that fidelity is constant)."""
    rng = np.random.default_rng(4)
    for m in (1, 2, 3):
        for t in range(6):
            p = random_prover(rng, m)
            target = (AmplificationTarget(1.5) if t % 3 == 0 else
                      sp.random_symplectic(m, r_max=0.5, d_scale=0.5, rng=rng))
            mc, se = _dense_fidelity(p, target, 0.7, 20_000, t)
            assert abs(average_fidelity(p, target, 0.7) - mc) <= 4.0 * se + 1e-12


# One single-mode prover of each kind, every field it sets off its default.
SIX = [
    ProverChannel("ExactUnitary", spec=sp.SymplecticSpec(np.diag([np.exp(0.2), np.exp(-0.2)]), np.array([0.3, -0.1]))),
    ProverChannel("NoisyUnitary", spec=sp.SymplecticSpec(np.diag([np.exp(0.3), np.exp(-0.3)]), np.zeros(2)),
                  excess=0.15),
    ProverChannel("QuantumLimitedAmplifier", g=1.3),
    ProverChannel("NoisyAmplifier", g=1.4, excess=0.2),
    ProverChannel("Attenuator", eta=0.7, excess=0.1),
    ProverChannel("AdditiveNoise", variance=0.3),
]


def test_elementary_factors_reproduce_channel():
    # compose the factors in phase space and compare with realize()
    assert [p.kind for p in SIX] == list(KINDS)
    for p in SIX:
        X, Y, d = np.eye(2), np.zeros((2, 2)), np.zeros(2)
        for kind, param in elementary_factors(p):
            if kind == "unitary":
                Xf, Yf, df = param.S, np.zeros((2, 2)), param.d
            elif kind == "attenuator":
                Xf = np.sqrt(param) * np.eye(2)
                Yf = 0.5 * (1.0 - param) * np.eye(2)
                df = np.zeros(2)
            else:
                Xf = param * np.eye(2)
                Yf = 0.5 * (param**2 - 1.0) * np.eye(2)
                df = np.zeros(2)
            X, Y, d = Xf @ X, Xf @ Y @ Xf.T + Yf, Xf @ d + df
        ch = p.realize()
        np.testing.assert_allclose(X, ch.X, atol=1e-12)
        np.testing.assert_allclose(Y, ch.Y, atol=1e-12)
        np.testing.assert_allclose(d, ch.d, atol=1e-12)


def test_serialization_roundtrip():
    provers = SIX + [
        ProverChannel("NoisyUnitary", spec=sp.random_symplectic(2, 0.3, 0.2, np.random.default_rng(1)), excess=0.2),
        ProverChannel("Attenuator", eta=0.6, excess=0.05, n_modes=2),
    ]
    for p in provers:
        data = p.to_dict()
        assert set(data) == {"kind", *("modes" if name == "n_modes" else name for name in PARAMS[p.kind])}
        back = ProverChannel.from_dict(data)
        assert back.to_dict() == data
        for a, b in zip(dataclasses.astuple(back.realize()), dataclasses.astuple(p.realize())):  # X, Y, d
            np.testing.assert_array_equal(a, b)


# A value off each field's default, as a constructor argument and as JSON.
ROTATION = sp.SymplecticSpec(np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]]), np.zeros(2))
OFF_DEFAULT = {"spec": (ROTATION, ROTATION.to_dict()), "g": (1.5, 1.5), "eta": (0.5, 0.5),
               "excess": (0.1, 0.1), "variance": (0.2, 0.2), "n_modes": (2, 2)}
DEFAULTS = {f.name: f.default for f in dataclasses.fields(ProverChannel)}


@pytest.mark.parametrize("p", SIX, ids=KINDS)
def test_each_kind_rejects_the_fields_it_does_not_set(p):
    # an ExactUnitary with excess used to be noisy in realize() but noiseless
    # in elementary_factors() and to_dict()
    unset = [name for name in OFF_DEFAULT if name not in PARAMS[p.kind]]
    assert unset
    for name in unset:
        value, written = OFF_DEFAULT[name]
        with pytest.raises(ValueError, match=f"^{p.kind} takes no '{name}'$"):
            dataclasses.replace(p, **{name: value})
        key = "modes" if name == "n_modes" else name
        # from_dict refuses the key even at its default value
        for given in (written, DEFAULTS[name]):
            with pytest.raises(ValueError, match=f"^{p.kind} takes no '{key}'$"):
                ProverChannel.from_dict({**p.to_dict(), key: given})


def test_random_prover_always_realizable():
    rng = np.random.default_rng(7)
    for _ in range(30):
        p = random_prover(rng, n_modes=rng.integers(1, 3))
        assert p.realize().is_cp()


@pytest.mark.parametrize("p", SIX, ids=KINDS)
def test_channel_is_realized_once_per_prover(p, monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return ga.GaussianChannel(*args)

    monkeypatch.setattr(channels, "GaussianChannel", counting)
    p = dataclasses.replace(p)  # SIX's provers are shared with other tests, which realize them
    twin, data, pickled, digest = dataclasses.replace(p), p.to_dict(), pickle.dumps(p), hash(p)
    ch = p.realize()
    assert p.realize() is ch and len(built) == 1
    for array in (ch.X, ch.Y, ch.d):
        assert not array.flags.writeable
    # the output state, the exact fidelity and a verdict all read the kept channel
    cfg = protocols.VerificationConfig("unitary", lam=1.0, F_t=0.5, delta=0.25, epsilon=0.03,
                                       target=p.spec or sp.identity(1))
    protocols.oracle_report(p, cfg)
    protocols.accept_rate(p, cfg, 2, seed=0, shot_cap=100)
    assert average_fidelity(p, AmplificationTarget(2.0), 1.0) > 0 and len(built) == 1
    # the kept channel enters neither ==, hash, to_dict nor the pickle
    assert p == twin and hash(p) == digest and p.to_dict() == data and pickle.dumps(p) == pickled
    back = pickle.loads(pickled)
    assert back == p and "_realized" not in vars(back) and "_realized" not in vars(twin)
    fresh = dataclasses.replace(p)
    assert fresh.realize() is not ch and len(built) == 2
    for a, b in zip(dataclasses.astuple(fresh.realize()), dataclasses.astuple(ch)):
        np.testing.assert_array_equal(a, b)
