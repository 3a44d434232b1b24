"""Truncated Fock-space oracle.

Dense matrix representations of the operators that back the analytic
phase-space results: photon number, the diagonal damping operator
G_theta = sum_n tanh^{2n}(theta) |n><n|, two-mode squeezers, single-mode
Gaussian unitaries, performance operators, the canonical benchmark
observable, and both average-fidelity witnesses.

Two-mode operators act on A' (x) R with index i * cutoff + j for
|i>_{A'} |j>_R, i.e. plain ``np.kron`` ordering, but only the two-mode
generators are ``kron`` products: a channel factor on A' contracts its Kraus
operators (a unitary is a family of one) into one slot of the (c, c, c, c)
view, and a diagonal core in a squeezer sandwich scales the squeezer's
columns.  Truncation leakage is reported, never silently renormalized away.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss
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

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)


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


def destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def number_op(cutoff: int) -> FockOperator:
    return FockOperator(cutoff, 1, np.diag(np.arange(cutoff, dtype=complex)))


def g_theta(theta: float, cutoff: int) -> FockOperator:
    """Diagonal operator with entries tanh^{2n}(theta)."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    t2 = np.tanh(theta) ** 2
    return FockOperator(cutoff, 1, np.diag(t2 ** np.arange(cutoff, dtype=float)).astype(complex))


def thermal_fock(nbar: float, cutoff: int) -> FockState:
    if nbar < 0:
        raise ValueError("mean photon number must be nonnegative")
    n = np.arange(cutoff, dtype=float)
    p = nbar**n / (nbar + 1.0) ** (n + 1.0) if nbar > 0 else (n == 0).astype(float)
    return FockState(cutoff, 1, np.diag(p).astype(complex))


def tmsv_vector(r: float, cutoff: int) -> np.ndarray:
    """State vector of the two-mode squeezed vacuum, sech(r) sum tanh^n r |nn>."""
    amp = np.tanh(r) ** np.arange(cutoff, dtype=float) / np.cosh(r)
    psi = np.zeros(cutoff * cutoff, dtype=complex)
    psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = amp
    return psi


def tmsv_fock(r: float, cutoff: int) -> FockState:
    psi = tmsv_vector(r, cutoff)
    return FockState(cutoff, 2, np.outer(psi, psi.conj()))


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff, dtype=float)
    from scipy.special import gammaln

    log_fact = gammaln(n + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.exp(0.5 * log_fact)
    return amp.astype(complex)


def squeeze2_fock(theta: float, cutoff: int) -> FockOperator:
    """Two-mode squeezer exp(theta (a1+ a2+ - a1 a2)); S_theta |00> = TMSV(theta)."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    a = destroy(cutoff)
    gen = theta * (np.kron(a.conj().T, a.conj().T) - np.kron(a, a))
    U = expm(gen)
    # the truncated exponential is exactly unitary (anti-Hermitian generator),
    # so quantify leakage as the ideal TMSV tail mass beyond the cutoff
    leak = float(np.tanh(theta) ** (2 * cutoff))
    if leak > SQUEEZE_LEAKAGE_WARN:
        warnings.warn(
            f"two-mode squeezer truncation leakage {leak:.2e} exceeds "
            f"{SQUEEZE_LEAKAGE_WARN:.0e} at theta={theta}, cutoff={cutoff}",
            stacklevel=2,
        )
    return FockOperator(cutoff, 2, U)


def beamsplitter_fock(transmissivity: float, cutoff: int) -> FockOperator:
    """Beamsplitter with amplitude transmission sqrt(transmissivity)."""
    t = np.arccos(np.sqrt(transmissivity))
    a = destroy(cutoff)
    gen = t * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    return FockOperator(cutoff, 2, expm(gen))


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


def _coherent_grid(lam: float, radial_points: int, n_angles: int):
    """Quadrature nodes alpha_k and weights w_k for int d^2a/pi lam e^{-lam|a|^2} f(a)."""
    u, wu = laggauss(radial_points)
    radii = np.sqrt(u / lam)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    alpha = np.outer(radii, np.exp(1j * angles)).ravel()
    weights = np.repeat(wu / n_angles, n_angles)
    return alpha, weights


def _performance_operator_matrix(
    g: float, lam: float, cutoff: int, radial_points: int
) -> np.ndarray:
    n_angles = max(4 * cutoff, 8)
    alpha, w = _coherent_grid(lam, radial_points, n_angles)
    out = np.stack([coherent_vector(g * a, cutoff) for a in alpha])
    ref = np.stack([coherent_vector(np.conj(a), cutoff) for a in alpha])
    # kron of the per-node vectors, all nodes at once
    u = (out[:, :, None] * ref[:, None, :]).reshape(alpha.size, cutoff * cutoff)
    omega = (u.T * w) @ u.conj()
    return 0.5 * (omega + omega.conj().T)


def performance_operator_avg_fidelity(
    g: float,
    lam: float,
    cutoff: int,
    quad_points: int = 40,
    check_convergence: bool = True,
    convergence_tol: float = 1e-6,
) -> FockOperator:
    """Performance operator of the gain-g average-fidelity test on A' (x) A.

    Numerically integrates the coherent-projector integrand over a polar grid:
    Gauss-Laguerre in radius against the Gaussian prior of inverse variance
    ``lam``, uniform in angle.
    """
    if g <= 0 or lam <= 0:
        raise ValueError("g and lam must be positive")
    omega = _performance_operator_matrix(g, lam, cutoff, quad_points)
    if check_convergence:
        refined = _performance_operator_matrix(g, lam, cutoff, 2 * quad_points)
        err = np.max(np.abs(refined - omega))
        if err > convergence_tol:
            raise RuntimeError(
                f"performance-operator quadrature not converged: doubling the radial "
                f"grid moves entries by {err:.2e} > {convergence_tol:.0e}"
            )
        omega = refined
    return FockOperator(cutoff, 2, omega)


def canonical_observable(
    g: float,
    lam: float,
    cutoff: int,
    quad_points: int = 40,
    check_convergence: bool = True,
) -> FockOperator:
    """The single observable on A' (x) R whose mean equals the average fidelity.

    Built from the performance operator by a partial transpose on the input
    slot and an inverse-square-root sandwich with the thermal reference state
    of mean photon number 1/lam.  The performance operator here already
    carries the conjugated amplitude in its second slot, which in the Fock
    basis *is* the input-slot transpose, so only the sandwich remains.
    """
    p = np.arange(cutoff, dtype=float)
    rho_r = (lam / (1.0 + lam)) * (1.0 / (1.0 + lam)) ** p
    if rho_r.min() < 1e-12:
        raise ValueError(
            f"reference thermal state ill-conditioned: smallest retained eigenvalue "
            f"{rho_r.min():.2e} < 1e-12 (cutoff too large for lam={lam})"
        )
    omega = performance_operator_avg_fidelity(
        g, lam, cutoff, quad_points, check_convergence=check_convergence
    ).matrix
    inv_sqrt = np.tile(1.0 / np.sqrt(rho_r), cutoff)  # diagonal of 1 (x) rho_R^(-1/2)
    O = inv_sqrt[:, None] * omega * inv_sqrt
    return FockOperator(cutoff, 2, 0.5 * (O + O.conj().T))


def _squeezed_diagonal(theta: float, v: np.ndarray, slot: int, cutoff: int) -> np.ndarray:
    """S_theta D S_theta+ for the diagonal D that is diag(v) on one slot (0 = A',
    1 = R) and the identity on the other; D scales the columns of S_theta."""
    S = squeeze2_fock(theta, cutoff).matrix
    d = np.repeat(v, cutoff) if slot == 0 else np.tile(v, cutoff)
    return (S * d) @ S.conj().T


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
    G = np.diag(g_theta(theta, big).matrix)
    M = np.tanh(theta) ** (2 * slot) * _squeezed_diagonal(theta, G, slot, big)
    M4 = M.reshape(big, big, big, big)[:cutoff, :cutoff, :cutoff, :cutoff]
    return FockOperator(cutoff, 2, np.ascontiguousarray(M4).reshape(cutoff**2, cutoff**2))


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


def apply_kraus_first_mode(rho: np.ndarray, kraus: list[np.ndarray], cutoff: int) -> np.ndarray:
    """sum_K (K (x) 1) rho (K (x) 1)+ for any two-mode matrix rho, without
    forming K (x) 1: with rho[i, j, k, l] = <ij|rho|kl>, K contracts into i (the
    rows of the (c, c^3) view) and conj(K) into k (the rows of each (k, l) block)."""
    R = np.asarray(rho).reshape(cutoff, cutoff, cutoff, cutoff)
    out = np.zeros(R.shape, dtype=complex)
    for K in kraus:
        out += K.conj() @ (K @ R.reshape(cutoff, -1)).reshape(R.shape)
    return out.reshape(cutoff * cutoff, cutoff * cutoff)


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


def choi_fock(ops: list[tuple], cutoff: int) -> np.ndarray:
    """Unnormalized Choi-type operator sum_ij E(|i><j|) (x) |i><j|."""
    psi = np.zeros(cutoff * cutoff, dtype=complex)
    psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = 1.0
    rho = np.outer(psi, psi.conj())
    return apply_elementary_first_mode(rho, ops, cutoff)


def expectation(op: FockOperator, state: FockState) -> float:
    if op.cutoff != state.cutoff or op.modes != state.modes:
        raise ValueError("operator/state dimension mismatch")
    return float(np.real(np.trace(op.matrix @ state.rho)))


def default_cutoff(lam: float, leakage: float = 1e-6) -> int:
    """Smallest cutoff keeping the TMSV input's truncation leakage below ``leakage``."""
    nbar = 1.0 / lam
    x = nbar / (nbar + 1.0)
    if x >= 1.0:
        raise ValueError(f"lam = {lam} is too small for a finite cutoff")
    n = int(np.ceil(np.log(leakage) / np.log(x)))
    return max(n, 2)
