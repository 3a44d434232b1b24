"""Builders that several test files share and the library does not need:
random prover channels for property tests, the inverse of a Gaussian
unitary, coherent states, the TMSV
covariance from its block form, each plan batch's exact share of the
witness, the dense matrix of a Fock operator held in a frame, and the
per-chain view of the oracle's wrapped n1 - n2 stacks."""

import numpy as np

from cvverify import fock, symplectic as sp
from cvverify.channels import KINDS, ProverChannel
from cvverify.gaussian import GaussianState
from cvverify.measurement import rotated_quadrature_projector


def inverse(a: sp.SymplecticSpec) -> sp.SymplecticSpec:
    """Inverse unitary: (S^-1, -S^-1 d)."""
    S_inv = sp.inverse_matrix(a.S)
    return sp.SymplecticSpec(S_inv, -S_inv @ a.d)


def random_prover(rng: np.random.Generator, n_modes: int = 1, kind: str | None = None) -> ProverChannel:
    """Random prover channel of the given kind (a random kind by default),
    moderate noise."""
    kind = rng.choice(KINDS) if kind is None else kind
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


def tmsv_block_cov(r: float, m: int) -> np.ndarray:
    """The covariance of ``gaussian.tmsv_pairs(r, m)`` from its block form,
    1/2 [[cosh 2r 1, sinh 2r Z], [sinh 2r Z, cosh 2r 1]] with
    Z = 1_m (x) diag(1, -1), signed zeros included."""
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    Zm = np.kron(np.eye(m), np.diag([1.0, -1.0]))
    return 0.5 * np.block([[c * np.eye(2 * m), s * Zm], [s * Zm, c * np.eye(2 * m)]])


def exact_terms(mean: np.ndarray, second: np.ndarray, batches) -> list[float]:
    """Each batch's contribution to omega from exact means and raw second
    moments <x x^T> of the measured state, batch by batch: the reference
    that the library's one affine form per config is pinned to."""
    n_modes = len(mean) // 2
    out = []
    for b in batches:
        P = rotated_quadrature_projector(b.setting, n_modes)
        mu, M = P @ mean, P @ second @ P.T
        out.append(float(sum(w * (mu[i] if j is None else M[i, j]) for i, j, w in b.terms)))
    return out


def dense_matrix(op: fock.FockOperator) -> np.ndarray:
    """The (c^2, c^2) matrix of a FockOperator: its ``matrix`` when it is held
    in sectors, else (U (x) 1) B (U+ (x) 1) for its form (U, the stack of B),
    with U acting on the first index of the (c, c, c, c) view of B."""
    if op.form is None:
        return op.matrix
    c, (U, sectors) = op.cutoff, op.form
    UB = np.tensordot(U, fock._assemble(sectors).reshape((c,) * 4), axes=(1, 0))
    return np.tensordot(UB, U.conj(), axes=(2, 1)).transpose(0, 1, 3, 2).reshape(c * c, c * c)


def chains(cutoff: int) -> list:
    """Photon numbers (i, j) along each of the 2 cutoff - 1 chains of states
    that a1+ a2+ links: from |0, j> for every j (the order of
    ``fock._chain_spectra``'s members), then from |i, 0> for i >= 1."""
    starts = [(0, j) for j in range(cutoff)] + [(i, 0) for i in range(1, cutoff)]
    return [(i + np.arange(cutoff - max(i, j)), j + np.arange(cutoff - max(i, j))) for i, j in starts]


def chain_blocks(W: np.ndarray) -> list:
    """(i, j, B) per chain of :func:`chains` for a wrapped (c, c, c) stack W:
    the chain from |0, k> is rows x < c - k of diagonal k, and the one from
    |k, 0> rows x >= k of diagonal c - k."""
    c = W.shape[0]
    blocks = [(i, j, W[k, : c - k, : c - k]) for k, (i, j) in enumerate(chains(c)[:c])]
    return blocks + [(i, j, W[c - k, k:, k:]) for k, (i, j) in enumerate(chains(c)[c:], start=1)]
