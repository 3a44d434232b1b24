"""Gaussian states and channels as (mean, covariance) data.

Convention: a = (q + i p) / sqrt(2), so the vacuum has variance 1/2 per
quadrature and n = (q^2 + p^2 - 1) / 2 per mode.  This convention is fixed
package-wide; every derived constant in :mod:`cvverify.protocols` assumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .symplectic import _as_floats, _as_int, _read_object, _readonly, symplectic_form

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

    @classmethod
    def from_dict(cls, data, what: str = "state") -> "GaussianState":
        read = _read_object(data, what, {"modes": _as_int, "mean": _as_floats, "cov": _as_floats})
        n = read["modes"]
        return cls(read["mean"], read["cov"].reshape(2 * n, 2 * n))


@dataclass(frozen=True)
class GaussianChannel:
    """Affine Gaussian CP map on N modes: mean -> X mean + d, cov -> X cov X^T + Y."""

    X: np.ndarray
    Y: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        X = _readonly(self.X)
        Y = _readonly(self.Y)
        d = _readonly(self.d)
        if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] % 2:
            raise ValueError(f"X must be 2N x 2N, got shape {X.shape}")
        if Y.shape != X.shape or d.shape != (X.shape[0],):
            raise ValueError("Y/d shapes incompatible with X")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "d", d)
        if not self.is_cp():
            raise ValueError("channel violates complete positivity")

    @property
    def n_modes(self) -> int:
        return self.X.shape[0] // 2

    def is_cp(self) -> bool:
        omega = symplectic_form(self.n_modes)
        h = self.Y + 0.5j * (omega - self.X @ omega @ self.X.T)
        return bool(np.min(np.linalg.eigvalsh(h)) >= -UNCERTAINTY_TOL)


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


def apply_channel(state: GaussianState, ch: GaussianChannel) -> GaussianState:
    """Apply a Gaussian channel to the state's leading ``ch.n_modes`` modes;
    the other modes' correlations with them follow X."""
    n, k = state.n_modes, 2 * ch.n_modes
    if ch.n_modes > n:
        raise ValueError(f"a {ch.n_modes}-mode channel cannot act on a {n}-mode state")
    X_full = np.eye(2 * n)
    X_full[:k, :k] = ch.X
    Y_full = np.zeros((2 * n, 2 * n))
    Y_full[:k, :k] = ch.Y
    d_full = np.zeros(2 * n)
    d_full[:k] = ch.d
    return GaussianState(X_full @ state.mean + d_full, X_full @ state.cov @ X_full.T + Y_full)
