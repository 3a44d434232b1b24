import numpy as np
import pytest

from cvverify import gaussian as ga, symplectic as sp
from cvverify.channels import (
    AmplificationTarget,
    ProverChannel,
    elementary_factors,
    exact_unitary,
    optimal_amplifier,
    random_prover,
    true_average_fidelity,
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
    out = ga.apply_channel(ga.vacuum(1), ch)
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
    p = ProverChannel.from_dict({"kind": "QuantumLimitedAmplifier", "g": "1.5", "modes": "2"})
    assert (p.g, p.n_modes) == (1.5, 2)
    with pytest.raises(ValueError):
        ProverChannel.from_dict({"kind": "AdditiveNoise", "variance": "abc"})


def test_honest_prover_unit_fidelity():
    rng = np.random.default_rng(0)
    spec = sp.random_symplectic(2, r_max=0.8, d_scale=0.5, rng=rng)
    f, se = true_average_fidelity(exact_unitary(spec), spec, lam=1.3, mc_samples=2000)
    assert f == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_optimal_amplifier_attains_max_fidelity():
    g, lam = 2.0, 1.0
    f, se = true_average_fidelity(
        optimal_amplifier(g, lam), AmplificationTarget(g), lam, mc_samples=100_000, seed=1
    )
    assert abs(f - (lam + 1.0) / g**2) <= 3.0 * se + 1e-12


def test_gain_g_amplifier_is_suboptimal():
    g, lam = 2.0, 1.0
    f, se = true_average_fidelity(
        ProverChannel("QuantumLimitedAmplifier", g=g),
        AmplificationTarget(g),
        lam,
        mc_samples=50_000,
        seed=2,
    )
    assert f < (lam + 1.0) / g**2 - 3.0 * se


def test_additive_noise_fidelity_closed_form():
    # vs the identity target the mean mismatch vanishes, so F = 1/(1+v)
    for v in (0.1, 0.3, 0.7):
        f, se = true_average_fidelity(
            ProverChannel("AdditiveNoise", variance=v),
            sp.identity(1),
            lam=1.0,
            mc_samples=5000,
            seed=3,
        )
        assert f == pytest.approx(1.0 / (1.0 + v), abs=1e-10)


def test_additive_noise_fidelity_monotone():
    vals = []
    for v in np.linspace(0.0, 0.8, 5):
        f, _ = true_average_fidelity(
            ProverChannel("AdditiveNoise", variance=float(v)),
            sp.identity(1),
            lam=1.0,
            mc_samples=2000,
            seed=4,
        )
        vals.append(f)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fidelity_seed_determinism():
    p = ProverChannel("Attenuator", eta=0.8, excess=0.1)
    f1, _ = true_average_fidelity(p, sp.identity(1), 1.0, 3000, seed=9)
    f2, _ = true_average_fidelity(p, sp.identity(1), 1.0, 3000, seed=9)
    assert f1 == f2


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
    rng = np.random.default_rng(4)
    for m in (1, 2, 3):
        for t in range(6):
            p = random_prover(rng, m)
            target = (AmplificationTarget(1.5) if t % 3 == 0 else
                      sp.random_symplectic(m, r_max=0.5, d_scale=0.5, rng=rng))
            got = true_average_fidelity(p, target, 0.7, 5000, seed=t)
            np.testing.assert_allclose(got, _dense_fidelity(p, target, 0.7, 5000, t),
                                       rtol=0, atol=1e-12)


def test_elementary_factors_reproduce_channel():
    # compose the factors in phase space and compare with realize()
    provers = [
        ProverChannel("AdditiveNoise", variance=0.3),
        ProverChannel("Attenuator", eta=0.7, excess=0.1),
        ProverChannel("NoisyAmplifier", g=1.4, excess=0.2),
        ProverChannel("NoisyUnitary", spec=sp.single_mode_squeezer(0.3), excess=0.15),
    ]
    for p in provers:
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
    provers = [
        ProverChannel("NoisyUnitary", spec=sp.rotation(0.4), excess=0.2),
        ProverChannel("NoisyAmplifier", g=1.5, excess=0.1),
        ProverChannel("AdditiveNoise", variance=0.25, n_modes=2),
    ]
    for p in provers:
        back = ProverChannel.from_dict(p.to_dict())
        np.testing.assert_allclose(back.realize().X, p.realize().X)
        np.testing.assert_allclose(back.realize().Y, p.realize().Y)


def test_random_prover_always_realizable():
    rng = np.random.default_rng(7)
    for _ in range(30):
        p = random_prover(rng, n_modes=rng.integers(1, 3))
        assert p.realize().is_cp()
