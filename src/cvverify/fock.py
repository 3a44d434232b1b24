"""Truncated Fock-space oracle.

Matrix representations of the operators that back the analytic phase-space
results: photon number, the diagonal damping operator
G_theta = sum_n tanh^{2n}(theta) |n><n|, two-mode squeezers and
beamsplitters, single-mode Gaussian unitaries, the performance operator, the
canonical benchmark observable, and both average-fidelity witnesses.

Two-mode operators act on A' (x) R with index i * cutoff + j for
|i>_{A'} |j>_R (plain ``np.kron`` ordering) and are returned dense, but the
costly ones are built from the photon number they conserve.  The two-mode
squeezer conserves n1 - n2 and the beamsplitter n1 + n2, so each truncated
generator is a direct sum of tridiagonal sector blocks, exponentiated one
block at a time; a diagonal core inside a squeezer sandwich is conjugated
block by block.  The performance operator is the closed-form Gaussian
integral over the coherent prior, element by element.  A channel factor on A'
contracts its Kraus operators (a unitary is a family of one) into one slot of
the (c, c, c, c) view.  Every attenuator and amplifier Kraus operator moves
photon number by a fixed amount, so those channels keep the difference of the
two first-slot indices and act as one small block per diagonal of that pair.
Truncation leakage is reported, never silently renormalized away.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .symplectic import SymplecticSpec

SQUEEZE_LEAKAGE_WARN = 1e-4


def _readonly(a) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on a truncated Fock space of ``modes`` modes."""

    cutoff: int
    modes: int
    matrix: np.ndarray

    def __post_init__(self):
        matrix = _readonly(self.matrix)
        dim = self.cutoff**self.modes
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape}, expected ({dim}, {dim})")
        object.__setattr__(self, "matrix", matrix)

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= 1e-10)


@dataclass(frozen=True)
class FockState:
    """Truncated density matrix; ``leakage`` reports the lost trace."""

    cutoff: int
    modes: int
    rho: np.ndarray

    def __post_init__(self):
        rho = _readonly(self.rho)
        dim = self.cutoff**self.modes
        if rho.shape != (dim, dim):
            raise ValueError(f"rho shape {rho.shape}, expected ({dim}, {dim})")
        object.__setattr__(self, "rho", rho)

    @property
    def leakage(self) -> float:
        return float(1.0 - np.real(np.trace(self.rho)))


def _check_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def number_op(cutoff: int) -> FockOperator:
    return FockOperator(cutoff, 1, np.diag(np.arange(cutoff, dtype=complex)))


def g_theta(theta: float, cutoff: int) -> FockOperator:
    """Diagonal operator with entries tanh^{2n}(theta)."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    _check_finite("theta", theta)
    t2 = np.tanh(theta) ** 2
    return FockOperator(cutoff, 1, np.diag(t2 ** np.arange(cutoff, dtype=float)).astype(complex))


def thermal_fock(nbar: float, cutoff: int) -> FockState:
    if not 0 <= nbar < np.inf:
        raise ValueError(f"mean photon number must be finite and nonnegative, got {nbar}")
    n = np.arange(cutoff, dtype=float)
    p = nbar**n / (nbar + 1.0) ** (n + 1.0) if nbar > 0 else (n == 0).astype(float)
    return FockState(cutoff, 1, np.diag(p).astype(complex))


def tmsv_vector(r: float, cutoff: int) -> np.ndarray:
    """State vector of the two-mode squeezed vacuum, sech(r) sum tanh^n r |nn>."""
    _check_finite("r", r)
    amp = np.tanh(r) ** np.arange(cutoff, dtype=float) / np.cosh(r)
    psi = np.zeros(cutoff * cutoff, dtype=complex)
    psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = amp
    return psi


def tmsv_fock(r: float, cutoff: int) -> FockState:
    psi = tmsv_vector(r, cutoff)
    return FockState(cutoff, 2, np.outer(psi, psi.conj()))


def _two_mode_sectors(theta: float, cutoff: int, step: int) -> list:
    """Sector blocks of exp(theta (L - L+)) for L = a1+ a2+ (step=+1) or a1+ a2 (step=-1).

    L moves |i, j> to |i+1, j+step>, so it conserves n1 - n2 (step=+1) or
    n1 + n2 (step=-1), and the truncated generator is a direct sum of
    tridiagonal blocks, one per chain of states that L links.  Each of the
    2 cutoff - 1 chains starts where L+ leaves the truncated space.  Returns
    (i, j, E) per chain: its photon numbers in order and its exponentiated block.

    A block B (B[k+1, k] = w_k = -B[k, k+1]) is P (-i H) P^-1 with
    P = diag(i^k) and H the real symmetric tridiagonal matrix with
    off-diagonals w, so exp(B) = P V e^{-i Lambda} V^T P^-1 from H = V Lambda V^T.
    Diagonalizing keeps every block in numpy's LAPACK: with threaded BLAS,
    SciPy's ``expm`` runs in a second thread pool, and many small calls
    there contend with numpy's.
    """
    edge = 0 if step > 0 else cutoff - 1
    sectors = []
    for i0, j0 in [(0, j) for j in range(cutoff)] + [(i, edge) for i in range(1, cutoff)]:
        length = min(cutoff - i0, cutoff - j0 if step > 0 else j0 + 1)
        i = i0 + np.arange(length)
        j = j0 + step * np.arange(length)
        w = theta * np.sqrt(i[1:] * np.maximum(j[:-1], j[1:]))  # <i+1, j+step|L|i, j>
        lam, V = np.linalg.eigh(np.diag(w, -1) + np.diag(w, 1))
        phase = 1j ** np.arange(length)
        E = (phase[:, None] * ((V * np.exp(-1j * lam)) @ V.T) * phase.conj()).real
        sectors.append((i, j, E))
    return sectors


def _squeezer_sectors(theta: float, cutoff: int) -> list:
    _check_finite("theta", theta)
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    # the truncated exponential is exactly unitary (anti-Hermitian generator),
    # so quantify leakage as the ideal TMSV tail mass beyond the cutoff
    leak = float(np.tanh(theta) ** (2 * cutoff))
    if leak > SQUEEZE_LEAKAGE_WARN:
        warnings.warn(
            f"two-mode squeezer truncation leakage {leak:.2e} exceeds "
            f"{SQUEEZE_LEAKAGE_WARN:.0e} at theta={theta}, cutoff={cutoff}",
            stacklevel=3,
        )
    return _two_mode_sectors(theta, cutoff, 1)


def _assemble(sectors: list, cutoff: int) -> np.ndarray:
    U = np.zeros((cutoff * cutoff, cutoff * cutoff))
    for i, j, E in sectors:
        idx = i * cutoff + j
        U[np.ix_(idx, idx)] = E
    return U


def squeeze2_fock(theta: float, cutoff: int) -> FockOperator:
    """Two-mode squeezer exp(theta (a1+ a2+ - a1 a2)); S_theta |00> = TMSV(theta)."""
    return FockOperator(cutoff, 2, _assemble(_squeezer_sectors(theta, cutoff), cutoff))


def beamsplitter_fock(transmissivity: float, cutoff: int) -> FockOperator:
    """Beamsplitter with amplitude transmission sqrt(transmissivity)."""
    if not 0 <= transmissivity <= 1:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    t = np.arccos(np.sqrt(transmissivity))
    return FockOperator(cutoff, 2, _assemble(_two_mode_sectors(t, cutoff, -1), cutoff))


def displace_fock(beta: complex, cutoff: int) -> np.ndarray:
    a = destroy(cutoff)
    return expm(beta * a.conj().T - np.conj(beta) * a)


def squeeze1_fock(r: float, cutoff: int) -> np.ndarray:
    a = destroy(cutoff)
    return expm(0.5 * r * (a.conj().T @ a.conj().T - a @ a))


def rotate_fock(phi: float, cutoff: int) -> np.ndarray:
    return np.diag(np.exp(1j * phi * np.arange(cutoff)))


def gaussian_unitary_fock(spec: SymplecticSpec, cutoff: int) -> FockOperator:
    """Single-mode Gaussian unitary via Euler decomposition S = R(a) diag(e^r, e^-r) R(b).

    Conventions chosen so that the induced phase-space action on means matches
    :func:`cvverify.gaussian.apply_unitary` exactly: R(phi) rotates
    q -> q cos(phi) - p sin(phi), the squeezer scales (q, p) -> (e^r q, e^-r p),
    and the displacement shifts the mean by ``spec.d``.
    """
    if spec.n_modes != 1:
        raise ValueError("Fock oracle supports single-mode Gaussian unitaries only")
    W, sig, Vh = np.linalg.svd(spec.S)
    if np.linalg.det(W) < 0:  # fold reflections into the squeeze axis
        F = np.diag([1.0, -1.0])
        W, Vh = W @ F, F @ Vh
    phi1 = np.arctan2(W[1, 0], W[0, 0])
    phi2 = np.arctan2(Vh[1, 0], Vh[0, 0])
    r = np.log(sig[0])
    beta = (spec.d[0] + 1j * spec.d[1]) / np.sqrt(2.0)
    U = (
        displace_fock(beta, cutoff)
        @ rotate_fock(phi1, cutoff)
        @ squeeze1_fock(r, cutoff)
        @ rotate_fock(phi2, cutoff)
    )
    return FockOperator(cutoff, 1, U)


def performance_operator_avg_fidelity(g: float, lam: float, cutoff: int) -> FockOperator:
    """Performance operator of the gain-g average-fidelity test on A' (x) A.

    Omega = int d^2a/pi lam e^{-lam|a|^2} |g a><g a| (x) |a*><a*|, element by
    element: the angle average keeps only m - n = m' - n', and the radial
    integral is a Gamma function, so with s = m + n' and A = lam + 1 + g^2

        <m n|Omega|m' n'> = lam g^(m+m') s! / (A^(s+1) sqrt(m! n! m'! n'!)),

    evaluated in log space.
    """
    if not (0 < g < np.inf and 0 < lam < np.inf):
        raise ValueError(f"g and lam must be positive and finite, got g={g}, lam={lam}")
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 2 * cutoff - 1)))))
    m, n, m2, n2 = np.ogrid[:cutoff, :cutoff, :cutoff, :cutoff]
    s = m + n2
    log_omega = (
        np.log(lam) + (m + m2) * np.log(g) + log_fact[s] - (s + 1) * np.log(lam + 1.0 + g * g)
        - 0.5 * (log_fact[m] + log_fact[n] + log_fact[m2] + log_fact[n2])
    )
    omega = np.where(m - n == m2 - n2, np.exp(log_omega), 0.0)
    return FockOperator(cutoff, 2, omega.reshape(cutoff * cutoff, cutoff * cutoff))


def canonical_observable(
    g: float, lam: float, cutoff: int, check_convergence: bool = True
) -> FockOperator:
    """The single observable on A' (x) R whose mean equals the average fidelity.

    Built from the performance operator by a partial transpose on the input
    slot and an inverse-square-root sandwich with the thermal reference state
    of mean photon number 1/lam.  The performance operator here already
    carries the conjugated amplitude in its second slot, which in the Fock
    basis *is* the input-slot transpose, so only the sandwich remains.

    ``check_convergence`` is accepted and ignored: the performance operator is
    exact, so there is no quadrature left to check.
    """
    p = np.arange(cutoff, dtype=float)
    rho_r = (lam / (1.0 + lam)) * (1.0 / (1.0 + lam)) ** p
    if rho_r.min() < 1e-12:
        raise ValueError(
            f"reference thermal state ill-conditioned: smallest retained eigenvalue "
            f"{rho_r.min():.2e} < 1e-12 (cutoff too large for lam={lam})"
        )
    omega = performance_operator_avg_fidelity(g, lam, cutoff).matrix
    inv_sqrt = np.tile(1.0 / np.sqrt(rho_r), cutoff)  # diagonal of 1 (x) rho_R^(-1/2)
    O = inv_sqrt[:, None] * omega * inv_sqrt
    return FockOperator(cutoff, 2, 0.5 * (O + O.conj().T))


def _squeezed_diagonal(
    theta: float, v: np.ndarray, slot: int, cutoff: int, keep: int | None = None
) -> np.ndarray:
    """S_theta D S_theta+ for the diagonal D that is diag(v) on one slot (0 = A',
    1 = R) and the identity on the other, evaluated at ``cutoff`` and truncated
    to photon numbers below ``keep`` (default ``cutoff``).

    D is diagonal, so each sector block E of the squeezer gives E diag(d) E^T.
    Photon numbers grow along a sector's chain, so the kept states of each
    block are a prefix of it.
    """
    keep = cutoff if keep is None else keep
    out = np.zeros((keep * keep, keep * keep))
    for i, j, E in _squeezer_sectors(theta, cutoff):
        kept = np.count_nonzero((i < keep) & (j < keep))
        if kept:
            d = v[i] if slot == 0 else v[j]
            idx = i[:kept] * keep + j[:kept]
            out[np.ix_(idx, idx)] = (E[:kept] * d) @ E[:kept].T
    return out


def canonical_observable_closed_form(
    g: float, lam: float, cutoff: int, embed_cutoff: int | None = None
) -> FockOperator:
    """Closed form of the canonical observable: one of two squeezed-G branches.

    For g <= sqrt(lam+1): S_theta (G_theta (x) 1) S_theta+ with
    theta = arctanh(g / sqrt(lam+1)); otherwise
    tanh^2(theta') S_theta' (1 (x) G_theta') S_theta'+ with
    theta' = arctanh(sqrt(lam+1) / g).

    The squeezer conjugation is evaluated at ``embed_cutoff`` (default
    ``cutoff + 18``) and truncated back, because at the working cutoff the
    highest photon-number-difference sectors of a truncated squeezer
    degenerate and corrupt the corner entries.
    """
    big = cutoff + 18 if embed_cutoff is None else embed_cutoff
    if big < cutoff:
        raise ValueError("embed_cutoff must be at least cutoff")
    root = np.sqrt(lam + 1.0)
    if not (g < root or g > root):
        raise ValueError("closed form diverges at g = sqrt(lam+1); use the integrated form")
    slot = int(g > root)  # G_theta sits on A' below the transition, on R above it
    theta = np.arctanh(root / g if slot else g / root)
    G = np.diag(g_theta(theta, big).matrix).real
    M = np.tanh(theta) ** (2 * slot) * _squeezed_diagonal(theta, G, slot, big, keep=cutoff)
    return FockOperator(cutoff, 2, M)


def witness_fock_unitary(spec: SymplecticSpec, lam: float, cutoff: int) -> FockOperator:
    """Average-fidelity witness for a single-mode Gaussian unitary target, on A' (x) R.

    1 - lam/(lam+1) (U (x) 1) S_kappa (n (x) 1) S_kappa+ (U+ (x) 1) with
    kappa = arctanh(1 / sqrt(lam+1)).
    """
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    n = np.arange(cutoff, dtype=float)
    U = gaussian_unitary_fock(spec, cutoff).matrix
    core = apply_kraus_first_mode(_squeezed_diagonal(kappa, n, 0, cutoff), [U], cutoff)
    W = np.eye(cutoff * cutoff) - (lam / (lam + 1.0)) * core
    return FockOperator(cutoff, 2, 0.5 * (W + W.conj().T))


def witness_fock_amp(g: float, lam: float, cutoff: int) -> FockOperator:
    """Average-fidelity witness for the gain-g amplification test, on A' (x) R.

    (lam+1)/g^2 (1 - (g^2-lam-1)/g^2 S_theta' (1 (x) n) S_theta'+) with
    theta' = arctanh(sqrt(lam+1) / g).
    """
    root = np.sqrt(lam + 1.0)
    if g <= root:
        raise ValueError(f"amplification witness requires g > sqrt(lam+1) = {root:.4f}")
    theta_p = np.arctanh(root / g)
    core = _squeezed_diagonal(theta_p, np.arange(cutoff, dtype=float), 1, cutoff)
    W = ((lam + 1.0) / g**2) * (np.eye(cutoff * cutoff) - ((g**2 - lam - 1.0) / g**2) * core)
    return FockOperator(cutoff, 2, 0.5 * (W + W.conj().T))


def _dilation_kraus(U: np.ndarray, cutoff: int) -> list[np.ndarray]:
    """Kraus operators <k|_E U |0>_E of a two-mode dilation U on system (x) environment."""
    U4 = U.reshape(cutoff, cutoff, cutoff, cutoff)
    return [np.ascontiguousarray(U4[:, k, :, 0]) for k in range(cutoff)]


def attenuator_kraus(eta: float, cutoff: int) -> list[np.ndarray]:
    """Kraus operators of the pure-loss channel from its beamsplitter dilation."""
    if not 0 < eta <= 1:
        raise ValueError("transmissivity must lie in (0, 1]")
    return _dilation_kraus(beamsplitter_fock(eta, cutoff).matrix, cutoff)


def amplifier_kraus(g: float, cutoff: int) -> list[np.ndarray]:
    """Kraus operators of the quantum-limited amplifier from its squeezer dilation."""
    if g < 1:
        raise ValueError("amplifier gain must be at least 1")
    return _dilation_kraus(squeeze2_fock(np.arccosh(g), cutoff).matrix, cutoff)


def _fixed_shift(K: np.ndarray) -> bool:
    """Whether K moves photon number by one fixed amount: all its nonzeros lie on one diagonal."""
    rows, cols = np.nonzero(K)
    return np.unique(cols - rows).size <= 1


def apply_kraus_first_mode(rho: np.ndarray, kraus: list[np.ndarray], cutoff: int) -> np.ndarray:
    """sum_K (K (x) 1) rho (K (x) 1)+ for any two-mode matrix rho, without
    forming K (x) 1.  With rho[i, j, k, l] = <ij|rho|kl>, K acts on the index
    pair (i, k) and the reference pair (j, l) rides along.

    When every K moves photon number by a fixed amount (every attenuator and
    amplifier Kraus operator does), the channel keeps k - i: it is a direct sum
    over the 2 cutoff - 1 diagonals of the (i, k) pair, and diagonal delta is
    one n x n block S[a, b] = sum_K K[i_a, i_b] conj(K[i_a + delta, i_b + delta])
    applied to the (n, cutoff^2) slab of rho on that diagonal.  Otherwise K
    contracts into i (the rows of the (c, c^3) view) and conj(K) into k (the
    rows of each (k, l) block).
    """
    c = cutoff
    R = np.asarray(rho).reshape(c, c, c, c)
    if not (kraus and all(_fixed_shift(K) for K in kraus)):
        out = np.zeros(R.shape, dtype=complex)
        for K in kraus:
            out += K.conj() @ (K @ R.reshape(c, -1)).reshape(R.shape)
        return out.reshape(c * c, c * c)
    T = R.transpose(0, 2, 1, 3).reshape(c, c, c * c)  # rows (i, k), columns (j, l)
    Ks = np.stack(kraus)
    out = np.empty(T.shape, dtype=complex)
    for delta in range(1 - c, c):
        i = np.arange(max(0, -delta), min(c, c - delta))
        k = i + delta
        S = np.einsum("nab,nab->ab", Ks[:, i[:, None], i], Ks[:, k[:, None], k].conj())
        out[i, k] = S @ T[i, k]
    return out.reshape(c, c, c, c).transpose(0, 2, 1, 3).reshape(c * c, c * c)


def apply_elementary_first_mode(
    rho: np.ndarray, ops: list[tuple], cutoff: int
) -> np.ndarray:
    """Apply a sequence of elementary single-mode channel factors to the first slot.

    Each factor is ("unitary", SymplecticSpec), ("attenuator", eta) or
    ("amplifier", g); see :func:`cvverify.channels.elementary_factors`.
    """
    for kind, param in ops:
        if kind == "unitary":
            kraus = [gaussian_unitary_fock(param, cutoff).matrix]
        elif kind == "attenuator":
            kraus = attenuator_kraus(param, cutoff)
        elif kind == "amplifier":
            kraus = amplifier_kraus(param, cutoff)
        else:
            raise ValueError(f"unknown elementary channel factor {kind!r}")
        rho = apply_kraus_first_mode(rho, kraus, cutoff)
    return rho


def entangled_output_fock(ops: list[tuple], lam: float, cutoff: int) -> FockState:
    """(E (x) I) applied to the TMSV purification of the lam-prior, in Fock space."""
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    rho = tmsv_fock(kappa, cutoff).rho
    return FockState(cutoff, 2, apply_elementary_first_mode(rho, ops, cutoff))


def expectation(op: FockOperator, state: FockState) -> float:
    if op.cutoff != state.cutoff or op.modes != state.modes:
        raise ValueError("operator/state dimension mismatch")
    return float(np.real(np.sum(op.matrix * state.rho.T)))  # tr(A B) in O(d^2)


def default_cutoff(lam: float) -> int:
    """Smallest cutoff keeping the TMSV input's truncation leakage below 1e-6."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    nbar = 1.0 / lam
    x = nbar / (nbar + 1.0)
    if x >= 1.0:
        raise ValueError(f"lam = {lam} is too small for a finite cutoff")
    n = int(np.ceil(np.log(1e-6) / np.log(x)))
    return max(n, 2)
