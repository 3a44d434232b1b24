"""Builders that several test files share and the library does not need:
random prover channels for property tests, coherent states, and the dense
matrix of a Fock operator held in a frame."""

import numpy as np

from cvverify import fock, symplectic as sp
from cvverify.channels import KINDS, ProverChannel
from cvverify.gaussian import GaussianState


def random_prover(rng: np.random.Generator, n_modes: int = 1) -> ProverChannel:
    """Random prover channel: random kind, moderate noise."""
    kind = rng.choice(KINDS)
    if kind in ("ExactUnitary", "NoisyUnitary"):
        spec = sp.random_symplectic(n_modes, r_max=0.5, d_scale=0.3, rng=rng)
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


def coherent(alpha) -> GaussianState:
    """Coherent state(s) with mean (sqrt(2) Re a_j, sqrt(2) Im a_j) per mode."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    mean = np.empty(2 * alpha.size)
    mean[0::2] = np.sqrt(2.0) * alpha.real
    mean[1::2] = np.sqrt(2.0) * alpha.imag
    return GaussianState(mean, 0.5 * np.eye(2 * alpha.size))


def dense_matrix(op: fock.FockOperator) -> np.ndarray:
    """The (c^2, c^2) matrix of a FockOperator: its ``matrix`` when it is held
    in sectors, else (U (x) 1) B (U+ (x) 1) for its form (U, sectors of B),
    with U acting on the first index of the (c, c, c, c) view of B."""
    if op.form is None:
        return op.matrix
    c, (U, sectors) = op.cutoff, op.form
    UB = np.tensordot(U, fock._assemble(sectors, c).reshape((c,) * 4), axes=(1, 0))
    return np.tensordot(UB, U.conj(), axes=(2, 1)).transpose(0, 1, 3, 2).reshape(c * c, c * c)
