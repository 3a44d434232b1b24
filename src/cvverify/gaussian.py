"""Gaussian states and channels as (mean, covariance) data.

Convention: a = (q + i p) / sqrt(2), so the vacuum has variance 1/2 per
quadrature and n = (q^2 + p^2 - 1) / 2 per mode.  This convention is fixed
package-wide; every derived constant in :mod:`cvverify.protocols` assumes it.

States and channels follow the one value rule of ``symplectic._Arrays``:
read-only finite float arrays, and equality, hash and pickling by value.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .symplectic import _Arrays, _as_floats, _as_int, _read_object, symplectic_form

UNCERTAINTY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GaussianState(_Arrays, what="state"):
    """An N-mode Gaussian state: quadrature mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def _check(self):
        mean, cov = self.mean, self.cov
        if mean.ndim != 1 or mean.size % 2 or mean.size == 0:
            raise ValueError(f"state mean must have positive even length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise ValueError("cov must be symmetric")

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


@dataclass(frozen=True, eq=False)
class GaussianChannel(_Arrays, what="channel"):
    """Affine Gaussian CP map on N modes: mean -> X mean + d, cov -> X cov X^T + Y."""

    X: np.ndarray
    Y: np.ndarray
    d: np.ndarray

    def _check(self):
        X = self.X
        if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] % 2:
            raise ValueError(f"X must be 2N x 2N, got shape {X.shape}")
        if self.Y.shape != X.shape or self.d.shape != (X.shape[0],):
            raise ValueError("Y/d shapes incompatible with X")
        if not self.is_cp():
            raise ValueError("channel violates complete positivity")

    def is_cp(self) -> bool:
        omega = symplectic_form(self.n_modes)
        h = self.Y + 0.5j * (omega - self.X @ omega @ self.X.T)
        return bool(np.min(np.linalg.eigvalsh(h)) >= -UNCERTAINTY_TOL)


def tmsv_pairs(r: float, m: int) -> GaussianState:
    """m two-mode squeezed vacua laid out as modes (A_1..A_m, R_1..R_m) with
    A_j paired to R_j; each reduced mode is thermal with nbar = sinh^2 r."""
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    n = 2 * m
    c, s = 0.5 * np.cosh(2 * r), 0.5 * np.sinh(2 * r)
    cov = np.zeros((2 * n, 2 * n))
    # cov = 1/2 [[cosh 2r 1, sinh 2r Z], [sinh 2r Z, cosh 2r 1]] with Z = diag(1, -1, ...),
    # and the -0.0 that the product 0 * -1 leaves between the p rows of two pairs
    cov[1:n:2, n + 1::2] = cov[n + 1::2, 1:n:2] = -0.0
    flat = cov.reshape(-1)  # a view: step 2n + 1 walks a diagonal
    flat[:: 2 * n + 1] = c
    flat[n : 2 * n * n : 2 * n + 1] = flat[2 * n * n :: 2 * n + 1] = (s, -s) * m
    return GaussianState(np.zeros(2 * n), cov)


@np.errstate(over="ignore", invalid="ignore")
def apply_channel(state: GaussianState, ch: GaussianChannel) -> GaussianState:
    """Apply a Gaussian channel to the state's leading ``ch.n_modes`` modes;
    the other modes' correlations with them follow X.  It runs with overflow
    warnings off: an output past the float range fails the state's
    finiteness check, a ValueError."""
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
