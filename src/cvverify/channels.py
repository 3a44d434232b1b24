"""Prover channel model library.

Honest and dishonest single/multi-mode Gaussian channels fed to the
verification protocols, their exact average fidelity, and the
decomposition into elementary factors used by the Fock-space cross-check.
``PARAMS`` is the one table of the fields each channel kind sets; the
constructor refuses any other field off its default, so the phase-space
map, the serialization and the Fock factors all read the fields alone.
A ``ProverChannel`` keeps its phase-space map, built on the first
``realize()``, so ``output_state`` and ``average_fidelity`` build it once
per prover.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .gaussian import GaussianChannel
from .symplectic import SymplecticSpec, _as_float, _as_int, _as_str, _fields_state, _read_object

# The fields each kind sets.  Every other field stays at its default, so
# ``realize`` and ``elementary_factors`` read the fields alone.
PARAMS = {
    "ExactUnitary": ("spec",),
    "NoisyUnitary": ("spec", "excess"),
    "QuantumLimitedAmplifier": ("g", "n_modes"),
    "NoisyAmplifier": ("g", "excess", "n_modes"),
    "Attenuator": ("eta", "excess", "n_modes"),
    "AdditiveNoise": ("variance", "n_modes"),
}
KINDS = tuple(PARAMS)


@dataclass(frozen=True)
class ProverChannel:
    """Tagged channel model; ``realize`` turns it into a GaussianChannel.

    ``PARAMS[kind]`` names the fields a kind sets: a unitary's spec
    (SymplecticSpec), an amplifier's gain g >= 1, an attenuator's
    transmissivity eta in (0, 1], isotropic added noise excess >= 0,
    AdditiveNoise's classical displacement noise variance >= 0, and n_modes
    (a unitary's comes from its spec).  Any other field set off its default
    is a ValueError that names it, so every kind is the one affine map
    X = S or sqrt(g^2 eta) 1, Y = (|g^2 eta - 1|/2 + excess + variance) 1.
    ``to_dict`` writes the kind's fields and ``from_dict`` reads back just
    those, n_modes as "modes", by the package's one object reader.  The
    channel keeps the GaussianChannel that ``realize`` builds on first call
    (its arrays are read-only); it enters neither ``==``, ``hash``,
    ``to_dict`` nor a pickle, and ``dataclasses.replace`` builds it afresh.
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
        for f in fields(self):
            if f.name not in ("kind", *PARAMS[self.kind]) and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.kind} takes no {f.name!r}")
        if "spec" in PARAMS[self.kind]:
            if self.spec is None:
                raise ValueError(f"{self.kind} requires a SymplecticSpec")
            object.__setattr__(self, "n_modes", self.spec.n_modes)
        if self.n_modes < 1:
            raise ValueError(f'n_modes ("modes") must be at least 1, got {self.n_modes}')
        # g * g is inf also when g^2 leaves the float range
        if not all(map(np.isfinite, (self.g * self.g, self.eta, self.excess, self.variance))):
            raise ValueError("channel parameters g^2, eta, excess and variance must be finite")
        if self.excess < 0 or self.variance < 0:
            raise ValueError("noise parameters must be nonnegative")
        if self.g < 1:
            raise ValueError("amplifier gain must be at least 1")
        if not 0 < self.eta <= 1:
            raise ValueError("transmissivity must lie in (0, 1]")

    def realize(self) -> GaussianChannel:
        """The affine map X, Y, d, built once per channel."""
        return self._realized

    @cached_property
    def _realized(self) -> GaussianChannel:
        eye = np.eye(2 * self.n_modes)
        Y = (0.5 * abs(self.g**2 * self.eta - 1.0) + self.excess + self.variance) * eye
        if self.spec is not None:
            return GaussianChannel(self.spec.S, Y, self.spec.d)
        return GaussianChannel(self.g * np.sqrt(self.eta) * eye, Y, np.zeros(2 * self.n_modes))

    __getstate__ = _fields_state  # never the realized channel

    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        for name in PARAMS[self.kind]:
            value = getattr(self, name)
            data["modes" if name == "n_modes" else name] = value.to_dict() if name == "spec" else value
        return data

    @classmethod
    def from_dict(cls, data, what: str = "prover") -> "ProverChannel":
        read = _read_object(data, what, READERS, _check_kind)
        return cls(**{"n_modes" if key == "modes" else key: value for key, value in read.items()})


# The reader of each key of a prover object; the field n_modes is the key "modes".
READERS = {"kind": _as_str, "spec": SymplecticSpec.from_dict, "g": _as_float, "eta": _as_float,
           "excess": _as_float, "variance": _as_float, "modes": _as_int}


def _check_kind(data: dict) -> None:
    """The kind, and that it sets each key, even one at its default value."""
    kind = data["kind"]
    if kind not in KINDS:
        raise ValueError(f"unknown prover channel kind {kind!r}")
    unread = sorted(set(data) - {"kind", *("modes" if name == "n_modes" else name for name in PARAMS[kind])})
    if unread:
        raise ValueError(f"{kind} takes no {', '.join(map(repr, unread))}")


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
    ops: list[tuple] = [] if p.spec is None else [("unitary", p.spec)]
    if p.g != 1.0:
        ops.append(("amplifier", p.g))
    if p.eta != 1.0:
        ops.append(("attenuator", p.eta))
    v = p.excess + p.variance
    if v > 0:
        ops += [("attenuator", 1.0 / (1.0 + v)), ("amplifier", np.sqrt(1.0 + v))]
    return ops


@dataclass(frozen=True)
class AmplificationTarget:
    """Target of the amplification test: coherent in, amplified coherent out."""

    g: float

    def __post_init__(self):
        if self.g <= 1:
            raise ValueError("amplification target gain must exceed 1")


def average_fidelity(p: ProverChannel, target, lam: float) -> float:
    """Exact average fidelity of ``p`` against ``target`` under the lam-prior.

    ``target`` is a SymplecticSpec (Gaussian unitary test) or an
    AmplificationTarget.  Coherent amplitudes follow the Gaussian prior with
    density proportional to exp(-lam |alpha|^2) per mode, so the input mean
    mu has covariance 1/lam.  The target output is pure, so each input's
    fidelity is det(V)^-1/2 exp(-1/2 delta^T V^-1 delta) (Scutaru, J. Phys. A
    31, 3659 (1998)) with V = V_T + V_E and delta = (T - X) mu + d_T - d affine
    in mu.  The Gaussian average over mu is then closed (the benchmark setting
    of Hammerer, Wolf, Polzik & Cirac, PRL 94, 150503 (2005)):

        F = det(W)^-1/2 exp(-1/2 b^T W^-1 b),
        W = V_T + V_E + (T - X)(T - X)^T / lam,  b = d_T - d,

    with V_E = X X^T / 2 + Y from ``p.realize()``, and V_T = S S^T / 2, T = S
    for a unitary target (1/2 and g for an amplification target).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    ch = p.realize()
    X, eye = ch.X, np.eye(2 * p.n_modes)
    if isinstance(target, AmplificationTarget):
        T, d_t, V_t = target.g * eye, np.zeros(2 * p.n_modes), 0.5 * eye
    else:
        T, d_t, V_t = target.S, target.d, 0.5 * target.S @ target.S.T
    A, b = T - X, d_t - ch.d
    W = V_t + 0.5 * X @ X.T + ch.Y + A @ A.T / lam
    _, logdet = np.linalg.slogdet(W)
    return float(np.exp(-0.5 * (logdet + b @ np.linalg.solve(W, b))))

