"""Prover channel model library.

Honest and dishonest single/multi-mode Gaussian channels fed to the
verification protocols, a Monte-Carlo oracle for their true average
fidelity, and the decomposition into elementary factors used by the
Fock-space cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gaussian, symplectic
from .gaussian import GaussianChannel, coherent, overlap_pure
from .symplectic import SymplecticSpec

KINDS = (
    "ExactUnitary",
    "NoisyUnitary",
    "QuantumLimitedAmplifier",
    "NoisyAmplifier",
    "Attenuator",
    "AdditiveNoise",
)


@dataclass(frozen=True)
class ProverChannel:
    """Tagged channel model; ``realize`` turns it into a GaussianChannel.

    kind / params:
      - ExactUnitary: spec (SymplecticSpec)
      - NoisyUnitary: spec, excess >= 0 (isotropic added noise)
      - QuantumLimitedAmplifier: g >= 1
      - NoisyAmplifier: g, excess >= 0
      - Attenuator: eta in (0, 1], excess >= 0
      - AdditiveNoise: variance >= 0 (classical Gaussian displacement noise)
    """

    kind: str
    spec: SymplecticSpec | None = None
    g: float = 1.0
    eta: float = 1.0
    excess: float = 0.0
    variance: float = 0.0
    n_modes: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown prover channel kind {self.kind!r}")
        if self.kind in ("ExactUnitary", "NoisyUnitary"):
            if self.spec is None:
                raise ValueError(f"{self.kind} requires a SymplecticSpec")
            object.__setattr__(self, "n_modes", self.spec.n_modes)
        # g * g is inf also when g^2 leaves the float range
        if not all(map(np.isfinite, (self.g * self.g, self.eta, self.excess, self.variance))):
            raise ValueError("channel parameters g^2, eta, excess and variance must be finite")
        if self.excess < 0 or self.variance < 0:
            raise ValueError("noise parameters must be nonnegative")
        if self.kind in ("QuantumLimitedAmplifier", "NoisyAmplifier") and self.g < 1:
            raise ValueError("amplifier gain must be at least 1")
        if self.kind == "Attenuator" and not 0 < self.eta <= 1:
            raise ValueError("transmissivity must lie in (0, 1]")

    def realize(self) -> GaussianChannel:
        n = self.n_modes
        eye = np.eye(2 * n)
        zero_d = np.zeros(2 * n)
        if self.kind in ("ExactUnitary", "NoisyUnitary"):
            return GaussianChannel(self.spec.S, self.excess * eye, self.spec.d)
        if self.kind in ("QuantumLimitedAmplifier", "NoisyAmplifier"):
            Y = (0.5 * (self.g**2 - 1.0) + self.excess) * eye
            return GaussianChannel(self.g * eye, Y, zero_d)
        if self.kind == "Attenuator":
            Y = (0.5 * (1.0 - self.eta) + self.excess) * eye
            return GaussianChannel(np.sqrt(self.eta) * eye, Y, zero_d)
        # AdditiveNoise: identity plus classical displacement noise
        return GaussianChannel(eye, self.variance * eye, zero_d)

    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        if self.spec is not None:
            data["spec"] = self.spec.to_dict()
        if self.kind in ("QuantumLimitedAmplifier", "NoisyAmplifier"):
            data["g"] = self.g
        if self.kind == "Attenuator":
            data["eta"] = self.eta
        if self.kind in ("NoisyUnitary", "NoisyAmplifier", "Attenuator"):
            data["excess"] = self.excess
        if self.kind == "AdditiveNoise":
            data["variance"] = self.variance
        if self.kind in ("QuantumLimitedAmplifier", "NoisyAmplifier", "Attenuator", "AdditiveNoise"):
            data["modes"] = self.n_modes
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProverChannel":
        kind = data["kind"]
        kwargs = {"kind": kind}
        if "spec" in data:
            kwargs["spec"] = SymplecticSpec.from_dict(data["spec"])
        for key, attr, kind in (("g", "g", float), ("eta", "eta", float), ("excess", "excess", float),
                                ("variance", "variance", float), ("modes", "n_modes", int)):
            if key in data:
                kwargs[attr] = kind(data[key])
        return cls(**kwargs)


def exact_unitary(spec: SymplecticSpec) -> ProverChannel:
    return ProverChannel("ExactUnitary", spec=spec)


def optimal_amplifier(g: float, lam: float) -> ProverChannel:
    """The channel maximizing the gain-g average fidelity under the lam-prior.

    A quantum-limited amplifier of gain g/(lam+1): the prior shrinks the
    optimal gain below the target gain, trading transformation accuracy for
    less amplified noise.  Attains F = (lam+1)/g^2 for g > sqrt(lam+1).
    """
    return ProverChannel("QuantumLimitedAmplifier", g=g / (lam + 1.0))


def elementary_factors(p: ProverChannel) -> list[tuple]:
    """Decompose a single-mode prover channel into elementary factors.

    Returns a list of ("unitary", SymplecticSpec), ("attenuator", eta) or
    ("amplifier", g) entries, applied left to right, whose composition equals
    ``p.realize()``.  Isotropic added noise of variance v factors as a
    quantum-limited amplifier of gain sqrt(1+v) after an attenuator of
    transmissivity 1/(1+v).
    """
    if p.n_modes != 1:
        raise ValueError("elementary decomposition supports single-mode channels only")

    def noise_factors(v: float) -> list[tuple]:
        if v <= 0:
            return []
        return [("attenuator", 1.0 / (1.0 + v)), ("amplifier", np.sqrt(1.0 + v))]

    if p.kind == "ExactUnitary":
        return [("unitary", p.spec)]
    if p.kind == "NoisyUnitary":
        return [("unitary", p.spec)] + noise_factors(p.excess)
    if p.kind in ("QuantumLimitedAmplifier", "NoisyAmplifier"):
        ops: list[tuple] = [] if p.g == 1.0 else [("amplifier", p.g)]
        return ops + noise_factors(p.excess)
    if p.kind == "Attenuator":
        ops = [] if p.eta == 1.0 else [("attenuator", p.eta)]
        return ops + noise_factors(p.excess)
    return noise_factors(p.variance)  # AdditiveNoise


@dataclass(frozen=True)
class AmplificationTarget:
    """Target of the amplification test: coherent in, amplified coherent out."""

    g: float

    def __post_init__(self):
        if self.g <= 1:
            raise ValueError("amplification target gain must exceed 1")


def _target_output(target, alpha: np.ndarray) -> gaussian.GaussianState:
    if isinstance(target, AmplificationTarget):
        return coherent(target.g * alpha)
    out = coherent(alpha)
    return gaussian.apply_unitary(out, target)


def true_average_fidelity(
    p: ProverChannel,
    target,
    lam: float,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the average fidelity of ``p`` against ``target``.

    ``target`` is a SymplecticSpec (Gaussian unitary test) or an
    AmplificationTarget.  Coherent amplitudes are drawn from the Gaussian
    prior with density proportional to exp(-lam |alpha|^2) per mode; returns
    (estimate, standard error of the mean).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    m = p.n_modes
    ch = p.realize()
    rng = np.random.default_rng(seed)
    # Re and Im of the amplitudes as one (2, N, m) block, interleaved into the
    # input means sqrt(2) (Re alpha, Im alpha) of variance 1/(2 lam) each
    mean_in = rng.standard_normal((2, mc_samples, m)).transpose(1, 2, 0).reshape(mc_samples, 2 * m)
    mean_in *= np.sqrt(1.0 / lam)

    # Channel output moments are affine in the input mean, so the target
    # output minus the channel output is (T - X) mean_in + d_t - d.  The
    # covariance sum V = L L^T is sample-independent and the fidelity
    # exponent is |L^-1 (target - output)|^2; no more than two N x 2m
    # arrays are alive at once.
    X, Y, d = ch.X, ch.Y, ch.d
    V_out = X @ (0.5 * np.eye(2 * m)) @ X.T + Y
    if isinstance(target, AmplificationTarget):
        T, d_t = target.g * np.eye(2 * m), np.zeros(2 * m)
        V_tgt = 0.5 * np.eye(2 * m)
    else:
        T, d_t = target.S, target.d
        V_tgt = 0.5 * target.S @ target.S.T
    L = np.linalg.cholesky(V_tgt + V_out)  # LinAlgError unless positive definite
    y = mean_in @ (T - X).T
    y += d_t - d
    del mean_in
    y = y @ np.linalg.inv(L).T
    quad = np.einsum("ij,ij->i", y, y)
    f = np.exp(-0.5 * quad - np.log(np.diag(L)).sum())
    return float(f.mean()), float(f.std(ddof=1) / np.sqrt(mc_samples))


def random_prover(rng: np.random.Generator, n_modes: int = 1) -> ProverChannel:
    """Random prover channel for property tests: random kind, moderate noise."""
    kind = rng.choice(KINDS)
    if kind in ("ExactUnitary", "NoisyUnitary"):
        spec = symplectic.random_symplectic(n_modes, r_max=0.5, d_scale=0.3, rng=rng)
        excess = float(rng.uniform(0, 0.5)) if kind == "NoisyUnitary" else 0.0
        return ProverChannel(kind, spec=spec, excess=excess)
    if kind in ("QuantumLimitedAmplifier", "NoisyAmplifier"):
        g = float(rng.uniform(1.0, 2.0))
        excess = float(rng.uniform(0, 0.5)) if kind == "NoisyAmplifier" else 0.0
        return ProverChannel(kind, g=g, excess=excess, n_modes=n_modes)
    if kind == "Attenuator":
        return ProverChannel(
            kind, eta=float(rng.uniform(0.3, 1.0)), excess=float(rng.uniform(0, 0.3)),
            n_modes=n_modes,
        )
    return ProverChannel(kind, variance=float(rng.uniform(0, 0.8)), n_modes=n_modes)
