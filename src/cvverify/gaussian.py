"""Gaussian states and channels as (mean, covariance) data.

Convention: a = (q + i p) / sqrt(2), so the vacuum has variance 1/2 per
quadrature and n = (q^2 + p^2 - 1) / 2 per mode.  This convention is fixed
package-wide; every derived constant in :mod:`cvverify.protocols` assumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .symplectic import SymplecticSpec, _readonly, symplectic_form

UNCERTAINTY_TOL = 1e-9


@dataclass(frozen=True)
class GaussianState:
    """An N-mode Gaussian state: quadrature mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _readonly(self.mean)
        cov = _readonly(self.cov)
        if mean.ndim != 1 or mean.size % 2 or mean.size == 0:
            raise ValueError(f"state mean must have positive even length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise ValueError("cov must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def is_physical(self) -> bool:
        """Uncertainty relation: cov + (i/2) Omega is positive semidefinite."""
        omega = symplectic_form(self.n_modes)
        h = self.cov + 0.5j * omega
        return bool(np.min(np.linalg.eigvalsh(h)) >= -UNCERTAINTY_TOL)

    def to_dict(self) -> dict:
        return {
            "modes": self.n_modes,
            "mean": self.mean.tolist(),
            "cov": self.cov.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianState":
        n = int(data["modes"])
        mean = np.asarray(data["mean"], dtype=float)
        cov = np.asarray(data["cov"], dtype=float).reshape(2 * n, 2 * n)
        return cls(mean, cov)


@dataclass(frozen=True)
class GaussianChannel:
    """Affine Gaussian CP map: mean -> X mean + d, cov -> X cov X^T + Y."""

    X: np.ndarray
    Y: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        X = _readonly(self.X)
        Y = _readonly(self.Y)
        d = _readonly(self.d)
        if X.ndim != 2 or X.shape[0] % 2 or X.shape[1] % 2:
            raise ValueError(f"X must be 2N_out x 2N_in, got shape {X.shape}")
        if Y.shape != (X.shape[0], X.shape[0]) or d.shape != (X.shape[0],):
            raise ValueError("Y/d shapes incompatible with X")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "d", d)
        if not self.is_cp():
            raise ValueError("channel violates complete positivity")

    @property
    def n_modes_in(self) -> int:
        return self.X.shape[1] // 2

    @property
    def n_modes_out(self) -> int:
        return self.X.shape[0] // 2

    def is_cp(self) -> bool:
        omega_in = symplectic_form(self.n_modes_in)
        omega_out = symplectic_form(self.n_modes_out)
        h = self.Y + 0.5j * (omega_out - self.X @ omega_in @ self.X.T)
        return bool(np.min(np.linalg.eigvalsh(h)) >= -UNCERTAINTY_TOL)


def vacuum(n_modes: int) -> GaussianState:
    return GaussianState(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def coherent(alpha) -> GaussianState:
    """Coherent state(s) with mean (sqrt(2) Re a_j, sqrt(2) Im a_j) per mode."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    mean = np.empty(2 * alpha.size)
    mean[0::2] = np.sqrt(2.0) * alpha.real
    mean[1::2] = np.sqrt(2.0) * alpha.imag
    return GaussianState(mean, 0.5 * np.eye(2 * alpha.size))


def thermal(nbar: float) -> GaussianState:
    if nbar < 0:
        raise ValueError("mean photon number must be nonnegative")
    return GaussianState(np.zeros(2), (nbar + 0.5) * np.eye(2))


def tmsv_pairs(r: float, m: int) -> GaussianState:
    """m two-mode squeezed vacua laid out as modes (A_1..A_m, R_1..R_m) with
    A_j paired to R_j; each reduced mode is thermal with nbar = sinh^2 r."""
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    Zm = np.kron(np.eye(m), np.diag([1.0, -1.0]))
    cov = 0.5 * np.block(
        [[c * np.eye(2 * m), s * Zm], [s * Zm, c * np.eye(2 * m)]]
    )
    return GaussianState(np.zeros(4 * m), cov)


def _embed_indices(modes: Sequence[int], n_total: int) -> np.ndarray:
    modes = np.asarray(modes, dtype=int)
    if modes.size and (modes.min() < 0 or modes.max() >= n_total):
        raise ValueError(f"mode subset {modes.tolist()} out of range for {n_total} modes")
    if len(set(modes.tolist())) != modes.size:
        raise ValueError("mode subset contains duplicates")
    return np.stack([2 * modes, 2 * modes + 1], axis=1).ravel()


def apply_unitary(
    state: GaussianState, u: SymplecticSpec, modes: Sequence[int] | None = None
) -> GaussianState:
    """Apply a Gaussian unitary to the given mode subset (all modes by default)."""
    n = state.n_modes
    modes = range(n) if modes is None else modes
    idx = _embed_indices(modes, n)
    if idx.size != u.S.shape[0]:
        raise ValueError(f"subset size {idx.size // 2} does not match {u.n_modes}-mode unitary")
    S_full = np.eye(2 * n)
    S_full[np.ix_(idx, idx)] = u.S
    d_full = np.zeros(2 * n)
    d_full[idx] = u.d
    return GaussianState(S_full @ state.mean + d_full, S_full @ state.cov @ S_full.T)


def apply_channel(
    state: GaussianState, ch: GaussianChannel, modes: Sequence[int] | None = None
) -> GaussianState:
    """Apply a Gaussian channel to a mode subset; spectator correlations follow X."""
    if ch.n_modes_in != ch.n_modes_out:
        raise ValueError("only mode-preserving channels can act on a subset")
    n = state.n_modes
    modes = range(n) if modes is None else modes
    idx = _embed_indices(modes, n)
    if idx.size != ch.X.shape[1]:
        raise ValueError(f"subset size {idx.size // 2} does not match {ch.n_modes_in}-mode channel")
    X_full = np.eye(2 * n)
    X_full[np.ix_(idx, idx)] = ch.X
    Y_full = np.zeros((2 * n, 2 * n))
    Y_full[np.ix_(idx, idx)] = ch.Y
    d_full = np.zeros(2 * n)
    d_full[idx] = ch.d
    return GaussianState(
        X_full @ state.mean + d_full, X_full @ state.cov @ X_full.T + Y_full
    )
