"""Symplectic phase-space transformations and displacements.

Quadrature ordering is interleaved, ``x = (q1, p1, ..., qN, pN)``, everywhere
in this package.  A Gaussian unitary acts affinely on phase space,
``x -> S x + d`` with ``S`` symplectic: ``S @ Omega @ S.T == Omega``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2N x 2N form Omega = direct sum of [[0, 1], [-1, 0]] blocks."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block
    return omega


def validate_symplectic(S: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-norm of (S Omega S^T - Omega) is at most ``tol``."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"symplectic matrix must be square, got shape {S.shape}")
    if S.shape[0] % 2 != 0:
        raise ValueError(f"symplectic matrix must have even dimension, got {S.shape[0]}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    omega = symplectic_form(S.shape[0] // 2)
    return bool(np.max(np.abs(S @ omega @ S.T - omega)) <= tol)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SymplecticSpec:
    """A Gaussian unitary target: symplectic matrix ``S`` plus displacement ``d``."""

    S: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        S = _readonly(self.S)
        d = _readonly(self.d)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
            raise ValueError(f"S must be square with even dimension, got {S.shape}")
        if d.shape != (S.shape[0],):
            raise ValueError(f"d has shape {d.shape}, expected ({S.shape[0]},)")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "d", d)

    @property
    def n_modes(self) -> int:
        return self.S.shape[0] // 2

    def is_valid(self, tol: float = DEFAULT_TOL) -> bool:
        return validate_symplectic(self.S, tol)

    def to_dict(self) -> dict:
        return {
            "m": self.n_modes,
            "S": self.S.ravel().tolist(),
            "d": self.d.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymplecticSpec":
        m = int(data["m"])
        S = np.asarray(data["S"], dtype=float).reshape(2 * m, 2 * m)
        d = np.asarray(data["d"], dtype=float)
        return cls(S, d)


def identity(n_modes: int) -> SymplecticSpec:
    return SymplecticSpec(np.eye(2 * n_modes), np.zeros(2 * n_modes))


def rotation(phi: float) -> SymplecticSpec:
    """Single-mode phase rotation: q -> q cos(phi) - p sin(phi)."""
    c, s = np.cos(phi), np.sin(phi)
    return SymplecticSpec(np.array([[c, -s], [s, c]]), np.zeros(2))


def single_mode_squeezer(r: float) -> SymplecticSpec:
    """Single-mode squeezer diag(e^r, e^-r)."""
    return SymplecticSpec(np.diag([np.exp(r), np.exp(-r)]), np.zeros(2))


def displacement(d: np.ndarray) -> SymplecticSpec:
    d = np.asarray(d, dtype=float)
    return SymplecticSpec(np.eye(d.size), d)


def two_mode_squeezer(theta: float) -> SymplecticSpec:
    """Two-mode squeezer, cosh(theta) on the diagonal blocks and sinh(theta) Z off-diagonal."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = np.cosh(theta), np.sinh(theta)
    eye2 = np.eye(2)
    Z = np.diag([1.0, -1.0])
    S = np.block([[c * eye2, s * Z], [s * Z, c * eye2]])
    return SymplecticSpec(S, np.zeros(4))


def spectral_norm(spec: SymplecticSpec) -> float:
    """Largest singular value of S; equals exp(r_max) for a symplectic matrix."""
    return float(np.linalg.norm(spec.S, ord=2))


def inverse(a: SymplecticSpec) -> SymplecticSpec:
    """Inverse unitary: (S^-1, -S^-1 d), using S^-1 = -Omega S^T Omega."""
    omega = symplectic_form(a.n_modes)
    S_inv = -omega @ a.S.T @ omega
    return SymplecticSpec(S_inv, -S_inv @ a.d)


def orthogonal_symplectic(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random passive (orthogonal symplectic) matrix from a Haar unitary."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    S = np.zeros((2 * m, 2 * m))
    # unitary u = x + i y maps to 2x2 blocks [[x, -y], [y, x]] in (q, p)
    S[0::2, 0::2] = q.real
    S[0::2, 1::2] = -q.imag
    S[1::2, 0::2] = q.imag
    S[1::2, 1::2] = q.real
    return S


def random_symplectic(
    m: int,
    r_max: float = 1.0,
    d_scale: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SymplecticSpec:
    """Random spec via Euler decomposition O1 diag(e^{+-r}) O2; exact by construction.

    Squeezing parameters are drawn uniformly from [-r_max, r_max], so the
    spectral norm is at most exp(r_max).
    """
    rng = np.random.default_rng() if rng is None else rng
    rs = rng.uniform(-r_max, r_max, size=m)
    D = np.diag(np.stack([np.exp(rs), np.exp(-rs)], axis=1).ravel())
    S = orthogonal_symplectic(m, rng) @ D @ orthogonal_symplectic(m, rng)
    d = d_scale * rng.standard_normal(2 * m)
    return SymplecticSpec(S, d)
