"""Homodyne sampling and the m+5 local measurement plan.

A homodyne setting assigns a quadrature angle to a subset of modes (all
selected quadratures commute since they live on distinct modes).  Shots are
i.i.d. draws from the exact multivariate-Gaussian marginal of the rotated
quadratures, so every moment estimate reads only the shot sum and the
scatter sum.  ``marginals`` stacks the exact marginals of many
projections, each the projector rows of the columns a setting's batch
reads (``protocols._compile`` builds them, the one caller of
``rotated_quadrature_projector``), and ``moment_sums`` draws those two
sufficient statistics for all of them at once, at a cost independent of
the shot count; the tests keep a per-shot sampler as its reference.
``build_measurement_plan`` lists the m+5 settings of the unitary game;
which moment each one measures is stated once, by ``protocols.plan_unitary``.
"""

from __future__ import annotations

import math
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
        P[row, 2 * j] = math.cos(phi)
        P[row, 2 * j + 1] = math.sin(phi)
    return P


def marginals(state: GaussianState, P: np.ndarray, settings) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Gaussian marginals of G projections P, shape (G, k, 2n): the
    rows P_b of k quadratures that settings[b] measures.  Returns the mean
    P_b mu, shape (G, k), and a square root R_b of the covariance
    P_b V P_b^T, shape (G, k, k).

    R_b = U diag(sqrt(l)) from the eigendecomposition U diag(l) U^T, so it is
    exact also for a (near-)singular covariance, where a Cholesky factor
    fails or needs jitter.  Eigenvalues within rounding of 0 (|l| at most
    16 k eps max|V|, the error of forming P_b V P_b^T and of the
    eigensolver) count as 0; a lower one is a ValueError naming the setting.
    """
    if P.shape[2] != 2 * state.n_modes:
        raise ValueError(f"the projections cover {P.shape[2] // 2} modes, the state has {state.n_modes}")
    lam, U = np.linalg.eigh(P @ state.cov @ P.transpose(0, 2, 1))
    tol = 16 * P.shape[1] * np.finfo(float).eps * np.abs(state.cov).max()
    bad = np.flatnonzero(lam[:, 0] < -tol)
    if bad.size:
        setting = settings[bad[0]]
        raise ValueError(f"the covariance measured in setting {setting.label or setting.angles} "
                         f"is not positive semidefinite (eigenvalue {lam[bad[0], 0]:.3g})")
    return P @ state.mean, U * np.sqrt(np.maximum(lam, 0.0))[:, None, :]


def moment_sums(mean: np.ndarray, root: np.ndarray, rng: np.random.Generator,
                shots: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_n x_n, sum_n x_n x_n^T), shapes (G, k) and (G, k, k), of ``shots``
    i.i.d. shots x_n ~ N(mean_b, R_b R_b^T) for each of the G stacked
    marginals of ``marginals``, drawn exactly in a few array calls whatever
    the shot count N.

    The two sums are sufficient statistics: the sample mean is
    mean_b + R_b z_b / sqrt(N), and the centred scatter is R_b W_b R_b^T with
    W_b ~ Wishart(I, N-1) independent of it.  ``rng`` supplies, in order:
    z, G x k normals; then, when N-1 >= k, the lower-triangular Bartlett
    factors A of W_b = A A^T (Smith & Hocking 1972, AS 53): a G x k x k
    normal block whose strictly lower triangles are their off-diagonal
    entries, and for i = 0..k-1 G chi-squares with N-1-i degrees of freedom,
    the squares of their i-th diagonal entries; when N-1 < k, a
    G x k x (N-1) normal block A.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    G, k = mean.shape
    xbar = mean + (root @ rng.standard_normal((G, k, 1)))[:, :, 0] / np.sqrt(shots)
    dof = shots - 1
    if dof >= k:
        A = rng.standard_normal((G, k, k))
        for i in range(k):
            A[:, i, i + 1:] = 0.0
            A[:, i, i] = np.sqrt(rng.chisquare(dof - i, G))
    else:
        A = rng.standard_normal((G, k, dof))
    RA = root @ A
    return shots * xbar, RA @ RA.transpose(0, 2, 1) + shots * xbar[:, :, None] * xbar[:, None, :]


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
