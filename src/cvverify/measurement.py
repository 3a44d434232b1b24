"""Homodyne sampling and the m+5 local measurement plan.

A homodyne setting assigns a quadrature angle to a subset of modes (all
selected quadratures commute since they live on distinct modes).  Shots are
i.i.d. draws from the exact multivariate-Gaussian marginal of the rotated
quadratures, so every moment estimate reads only the shot sum and the
scatter sum; ``sample_moment_sums`` draws those two sufficient statistics
exactly at a cost independent of the shot count, and ``sample_quadratures``
draws the individual shots (its reference).  ``build_measurement_plan``
lists the m+5 settings of the unitary game; which moment each one measures
is stated once, by ``protocols.plan_unitary``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState

UNMEASURED = None


@dataclass(frozen=True)
class HomodyneSetting:
    """Per-mode quadrature angles; ``None`` marks an unmeasured mode.

    Angle 0 is q, pi/2 is p, pi/4 the symmetric (q+p)/sqrt(2) quadrature.
    """

    angles: tuple
    label: str = ""

    def __post_init__(self):
        for phi in self.angles:
            if phi is not None and not 0 <= phi < np.pi:
                raise ValueError(f"quadrature angle {phi} outside [0, pi)")

    @property
    def measured_modes(self) -> list[int]:
        return [j for j, phi in enumerate(self.angles) if phi is not None]


def rotated_quadrature_projector(setting: HomodyneSetting, n_modes: int) -> np.ndarray:
    """Rows map the interleaved phase-space vector to the measured quadratures.

    x_phi on mode j picks cos(phi) q_j + sin(phi) p_j.
    """
    if len(setting.angles) != n_modes:
        raise ValueError(
            f"setting covers {len(setting.angles)} modes, state has {n_modes}"
        )
    modes = setting.measured_modes
    P = np.zeros((len(modes), 2 * n_modes))
    for row, j in enumerate(modes):
        phi = setting.angles[j]
        P[row, 2 * j] = np.cos(phi)
        P[row, 2 * j + 1] = np.sin(phi)
    return P


def _marginal(state: GaussianState, setting: HomodyneSetting):
    """Mean and Cholesky factor (with 1e-14 jitter) of the measured quadratures."""
    P = rotated_quadrature_projector(setting, state.n_modes)
    cov = P @ state.cov @ P.T
    return P @ state.mean, np.linalg.cholesky(cov + 1e-14 * np.eye(cov.shape[0]))


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def sample_quadratures(
    state: GaussianState,
    setting: HomodyneSetting,
    seed,
    shots: int = 1,
) -> np.ndarray:
    """Joint homodyne samples, shape (shots, n_measured).

    ``seed`` may be an int or a numpy SeedSequence/Generator; identical seeds
    reproduce identical shot records.  The protocols draw only the sums of
    ``sample_moment_sums``; this per-shot sampler is its reference.
    """
    mean, L = _marginal(state, setting)
    z = _rng(seed).standard_normal((shots, mean.size))
    return mean + z @ L.T


def sample_moment_sums(
    state: GaussianState,
    setting: HomodyneSetting,
    seed,
    shots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(sum_n x_n, sum_n x_n x_n^T) of ``shots`` joint homodyne shots, drawn
    exactly in O(k^3) for k measured modes whatever the shot count.

    The shots x_n = mu + L z_n are i.i.d. Gaussian, so the two sums are
    sufficient statistics: the sample mean is mu + L z / sqrt(N), and the
    centred scatter is L W L^T with W ~ Wishart(I, N-1) independent of it.
    W is drawn by the Bartlett decomposition W = A A^T (A lower triangular,
    A_ii^2 ~ chi^2(N-1-i), A_ij ~ N(0, 1) below the diagonal; Smith &
    Hocking 1972, AS 53) when N-1 >= k, and as A A^T from a k x (N-1)
    normal block A otherwise.  Mean and L are those of ``sample_quadratures``.
    """
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    return _moment_sums(*_marginal(state, setting), _rng(seed), shots)


def _moment_sums(mean: np.ndarray, L: np.ndarray, rng: np.random.Generator,
                 shots: int) -> tuple[np.ndarray, np.ndarray]:
    """``sample_moment_sums`` from a marginal's mean and Cholesky factor, so
    that batches sharing a setting factor it once."""
    k = mean.size
    if shots == 0:
        return np.zeros(k), np.zeros((k, k))
    xbar = mean + L @ rng.standard_normal(k) / np.sqrt(shots)
    dof = shots - 1
    if dof >= k:
        A = np.tril(rng.standard_normal((k, k)), -1)
        A.flat[:: k + 1] = np.sqrt(rng.chisquare(dof - np.arange(k)))
    else:
        A = rng.standard_normal((k, dof))
    LA = L @ A
    return shots * xbar, LA @ LA.T + shots * np.outer(xbar, xbar)


def build_measurement_plan(m: int) -> tuple:
    """The m+5 local homodyne settings of the unitary game.

    On a 2m-mode state (modes 0..m-1 = A', m..2m-1 = R):
      0: q on every A' and every R mode
      1: p on every A' and every R mode
      2: q on A', p on R
      3: p on A', q on R
      4: 45-degree quadratures on all A' modes (same-mode q p symmetrized
         moments via (q+p)^2/2 - q^2/2 - p^2/2)
      5..4+m: q on A' mode j, p on every other A' mode (q p moments across
         distinct A' modes; unused at m = 1)
    ``protocols.plan_unitary`` states which moment each setting measures.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    Q, P45 = 0.0, np.pi / 4
    P = np.pi / 2

    settings = [
        HomodyneSetting((Q,) * (2 * m), "q(A')+q(R)"),
        HomodyneSetting((P,) * (2 * m), "p(A')+p(R)"),
        HomodyneSetting((Q,) * m + (P,) * m, "q(A')+p(R)"),
        HomodyneSetting((P,) * m + (Q,) * m, "p(A')+q(R)"),
        HomodyneSetting((P45,) * m + (UNMEASURED,) * m, "45deg(A')"),
    ]
    for j in range(m):
        angles = [P] * m
        angles[j] = Q
        settings.append(
            HomodyneSetting(tuple(angles) + (UNMEASURED,) * m, f"q(A'_{j})+p(A'_rest)")
        )
    return tuple(settings)
