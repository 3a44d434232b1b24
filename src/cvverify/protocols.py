"""Protocol drivers: budgets, the affine witness pipeline, verdicts.

Three verifier-vs-prover games are implemented on top of the Gaussian
simulator:

* ``unitary`` — verify an m-mode Gaussian unitary target by sending halves of
  m two-mode squeezed vacua through the prover's channel and homodyning both
  sides (measurement plan of m+5 settings).
* ``amplification`` — verify the gain-g coherent-state amplification test on
  a single mode with four quadrature second moments.
* ``state`` — verify a Gaussian pure-state source from single-mode homodyne
  moments of the supplied state.

Every witness is affine in homodyne moments, omega = c0 + sum_k w_k <O_k>.
A game's plan builder returns ``(batches, c0)``, and one pipeline serves all
three: ``estimate_terms`` turns each ``Batch`` into its share of omega from
fresh shots, ``exact_terms`` from exact moments (the infinite-shot witness).
A batch's estimate reads only the sum and the scatter sum of its i.i.d.
Gaussian shots, and these sufficient statistics are drawn exactly
(``measurement.sample_moment_sums``), so the paper's uncapped budgets run
at a cost independent of the shot count.  All three games reach a verdict
through one core on the state the verifier homodynes.

All additive constants are derived under the fixed vacuum-variance-1/2
convention and pinned by the exact identities "honest prover gives
omega = 1" and "optimal amplifier gives omega = (lam+1)/g^2"; the Fock-oracle
cross-checks in the test suite confirm both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gaussian
from .channels import AmplificationTarget, ProverChannel, true_average_fidelity
from .gaussian import GaussianState, tmsv_pairs
from .measurement import (
    HomodyneSetting,
    _marginal,
    _moment_sums,
    build_measurement_plan,
    required_moments,
    rotated_quadrature_projector,
)
from .symplectic import SymplecticSpec, inverse, spectral_norm


def kappa_for(lam: float) -> float:
    """TMSV squeezing purifying the thermal prior: arctanh(1/sqrt(lam+1))."""
    return float(np.arctanh(1.0 / np.sqrt(lam + 1.0)))


@dataclass(frozen=True)
class VerificationConfig:
    """Inputs of one verification game; ``validate`` enforces the invariants.

    protocol: "unitary", "amplification" or "state".
    target: SymplecticSpec for unitary/state protocols; g: gain for
    amplification.  sigma1/sigma2 bound the homodyne outcome variances of the
    first- and second-moment observables; k is the coupling number of the
    state protocol (nu = 2 min(k^2, m) observable groups per mode pair).
    """

    protocol: str
    lam: float
    F_t: float
    delta: float
    epsilon: float
    sigma1: float = 1.0
    sigma2: float = 1.0
    target: SymplecticSpec | None = None
    g: float | None = None
    k: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.protocol not in ("unitary", "amplification", "state"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        g2 = 0.0 if self.g is None else self.g * self.g  # inf also when g^2 leaves the float range
        values = (self.lam, self.F_t, self.delta, self.epsilon, self.sigma1, self.sigma2, g2)
        if not all(map(math.isfinite, values)):
            raise ValueError("lam, F_t, delta, epsilon, sigma1, sigma2 and g^2 must be finite")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not 0 < self.delta <= 0.5:
            raise ValueError("delta must lie in (0, 1/2]")
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("variance bounds must be positive")
        if self.protocol in ("unitary", "state"):
            if self.target is None:
                raise ValueError(f"{self.protocol} protocol requires a target spec")
            if not (np.all(np.isfinite(self.target.S)) and np.all(np.isfinite(self.target.d))):
                raise ValueError("target S and d must be finite")
            if not self.target.is_valid():
                raise ValueError("target S is not symplectic")
            if not 0 < self.F_t < 1:
                raise ValueError("threshold must lie in (0, 1)")
            if not 0 < self.epsilon < (1.0 - self.F_t) / 2.0:
                raise ValueError("epsilon must lie in (0, (1 - F_t)/2)")
            if self.protocol == "state" and self.k < 1:
                raise ValueError("coupling number k must be positive")
        else:
            if self.g is None:
                raise ValueError("amplification protocol requires a gain g")
            root = math.sqrt(self.lam + 1.0)
            if self.g <= root:
                raise ValueError(
                    f"gain must exceed sqrt(lam+1) = {root:.4f} for a real witness"
                )
            if self.g <= self.lam + 1.0:
                warnings.warn(
                    f"gain g={self.g} is in (sqrt(lam+1), lam+1]; the witness is "
                    "well-defined but the sample-complexity analysis assumes "
                    "g > lam+1",
                    stacklevel=2,
                )
            f_max = (self.lam + 1.0) / self.g**2
            if not 0 < self.F_t < f_max:
                raise ValueError(f"threshold must lie in (0, (lam+1)/g^2 = {f_max:.4f})")
            if not 0 < self.epsilon < (self.lam + 1.0 - self.g**2 * self.F_t) / (2.0 * self.g**2):
                raise ValueError("epsilon must lie in (0, (lam+1-g^2 F_t)/(2 g^2))")

    @property
    def m(self) -> int:
        return self.target.n_modes if self.target is not None else 1

    def to_dict(self) -> dict:
        data = {
            "protocol": self.protocol,
            "lam": self.lam,
            "F_t": self.F_t,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "sigma1": self.sigma1,
            "sigma2": self.sigma2,
        }
        if self.target is not None:
            data["target"] = self.target.to_dict()
        if self.g is not None:
            data["g"] = self.g
        if self.protocol == "state":
            data["k"] = self.k
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationConfig":
        target = SymplecticSpec.from_dict(data["target"]) if "target" in data else None
        return cls(
            protocol=data["protocol"],
            lam=float(data["lam"]),
            F_t=float(data["F_t"]),
            delta=float(data["delta"]),
            epsilon=float(data["epsilon"]),
            sigma1=float(data.get("sigma1", 1.0)),
            sigma2=float(data.get("sigma2", 1.0)),
            target=target,
            g=float(data["g"]) if "g" in data else None,
            k=int(data.get("k", 1)),
        )


def lemma3_sample_count(sigma: float, l: int, epsilon: float, delta: float) -> int:
    """Shots per observable so that l+1 estimates each miss by < epsilon
    simultaneously with probability at least 1 - delta:
    ceil(sigma^2 (l+1) / (epsilon^2 ln(1/(1-delta)))).
    """
    if sigma <= 0 or epsilon <= 0 or l < 0:
        raise ValueError("sigma, epsilon must be positive and l nonnegative")
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    return _count(_lemma3_raw(sigma, l, epsilon, delta))


def _lemma3_raw(sigma: float, l: int, epsilon: float, delta: float) -> float:
    try:
        return sigma**2 * (l + 1) / (epsilon**2 * math.log(1.0 / (1.0 - delta)))
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _count(raw: float) -> int:
    if not math.isfinite(raw):  # sigma too large, or epsilon or delta too small
        raise ValueError(f"shot count {raw} out of range")
    return int(math.ceil(raw))


def _split_delta(delta: float, groups: int) -> float:
    """Per-group failure budget: each group succeeds with prob (1-delta)^(1/groups)."""
    return 1.0 - (1.0 - delta) ** (1.0 / groups)


@dataclass(frozen=True)
class SampleBudget:
    """Per-observable shot counts.  ``raw`` keeps the un-ceiled values so that
    exact scaling ratios of the underlying formulas can be checked."""

    counts: dict
    raw: dict
    channel_uses: int
    tmsv_copies: int

    def to_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "raw": dict(self.raw),
            "channel_uses": self.channel_uses,
            "tmsv_copies": self.tmsv_copies,
        }


def _moment_groups(cfg: VerificationConfig, mean_key: str, second_key: str,
                   extra_groups: int) -> tuple[dict, float, float, float]:
    """Raw counts of the mean group (error bound (2m)^{3/2} |S|^2 |d| e1; none
    when d = 0) and the A' second-moment group (m |S|^2 e2), with epsilon and
    delta split evenly over them and ``extra_groups`` more groups.  Returns
    (raw, epsilon share, delta share, |S|)."""
    m = cfg.m
    norm_s = spectral_norm(cfg.target)
    norm_d = float(np.linalg.norm(cfg.target.d))
    groups = (2 if norm_d > 0 else 1) + extra_groups
    dg = _split_delta(cfg.delta, groups)
    share = cfg.epsilon / groups
    raw = {mean_key: 0.0}
    if norm_d > 0:
        eps1 = share / ((2 * m) ** 1.5 * norm_s**2 * norm_d)
        raw[mean_key] = _lemma3_raw(cfg.sigma1, 2 * m, eps1, dg)
    eps2 = share / (m * norm_s**2)
    raw[second_key] = _lemma3_raw(cfg.sigma2, m * (2 * m + 1), eps2, dg)
    return raw, share, dg, norm_s


def sample_budget_unitary(cfg: VerificationConfig) -> SampleBudget:
    """Budgets c3 (means), c4 (output second moments), c5 (cross moments).

    The mean and output-moment groups are those of ``_moment_groups``; the
    cross-moment term, bounded by 2 m |S| e3 / sqrt(lam+1), is one more group.
    """
    if cfg.protocol != "unitary":
        raise ValueError("config is not for the unitary protocol")
    m = cfg.m
    raw, share, dg, norm_s = _moment_groups(cfg, "c3", "c4", extra_groups=1)
    eps3 = share * math.sqrt(cfg.lam + 1.0) / (2.0 * m * norm_s)
    raw["c5"] = _lemma3_raw(cfg.sigma2, 4 * m * m, eps3, dg)
    counts = {k: _count(v) for k, v in raw.items()}
    uses = 2 * m * counts["c3"] + m * (2 * m + 1) * counts["c4"] + 4 * m * m * counts["c5"]
    return SampleBudget(counts, raw, uses, m * uses)


def sample_budget_amplification(cfg: VerificationConfig) -> SampleBudget:
    """Budgets c6 (A' second moments) and c7 (A'-R cross moments).

    Error terms ((lam+1)/g^2)^2 e6 and 2 ((lam+1)/g^2)^{3/2} e7 get shares
    a*epsilon and (1-a)*epsilon with a = sqrt(lam+1)/(sqrt(lam+1)+2), a split
    chosen so that the un-ceiled counts obey c7/c6 = g^2 exactly.
    """
    if cfg.protocol != "amplification":
        raise ValueError("config is not for the amplification protocol")
    g, lam = cfg.g, cfg.lam
    root = math.sqrt(lam + 1.0)
    a = root / (root + 2.0)
    dg = _split_delta(cfg.delta, 2)

    eps6 = a * cfg.epsilon * g**4 / (lam + 1.0) ** 2
    eps7 = (1.0 - a) * cfg.epsilon * g**3 / (2.0 * (lam + 1.0) ** 1.5)
    raw = {
        "c6": _lemma3_raw(cfg.sigma2, 2, eps6, dg),
        "c7": _lemma3_raw(cfg.sigma2, 2, eps7, dg),
    }
    counts = {k: _count(v) for k, v in raw.items()}
    uses = 2 * counts["c6"] + 2 * counts["c7"]
    return SampleBudget(counts, raw, uses, uses)


def sample_budget_state(cfg: VerificationConfig) -> SampleBudget:
    """Budgets c1 (means) and c2 (second moments) for the pure-state protocol.

    Constants instantiated by the same error-splitting scheme as the unitary
    case (``_moment_groups``: epsilon halved across the two groups, failure
    probability split as sqrt(1-delta) each); nu = 2 min(k^2, m) counts the
    observable groups coupled per measurement round.
    """
    if cfg.protocol != "state":
        raise ValueError("config is not for the state protocol")
    m = cfg.m
    nu = 2 * min(cfg.k**2, m)
    raw, _, _, _ = _moment_groups(cfg, "c1", "c2", extra_groups=0)
    counts = {k: _count(v) for k, v in raw.items()}
    uses = 2 * m * counts["c1"] + 2 * nu * m * counts["c2"]
    return SampleBudget(counts, raw, uses, uses)


def sample_budget(cfg: VerificationConfig) -> SampleBudget:
    return {
        "unitary": sample_budget_unitary,
        "amplification": sample_budget_amplification,
        "state": sample_budget_state,
    }[cfg.protocol](cfg)


def output_state(prover: ProverChannel, cfg: VerificationConfig) -> GaussianState:
    """(E_p (x) I)(TMSV^(x)m): modes 0..m-1 are A' (through the channel),
    modes m..2m-1 the untouched reference halves."""
    m = prover.n_modes
    if m != cfg.m:
        raise ValueError(f"prover acts on {m} modes but the config's target has {cfg.m}")
    state = tmsv_pairs(kappa_for(cfg.lam), m)
    return gaussian.apply_channel(state, prover.realize(), modes=range(m))


class Batch(NamedTuple):
    """One homodyne setting, the budget count key ("c1".."c7") that sizes it,
    and sparse terms (i, j, w) over its measured columns: w <x_i> when j is
    None, w <x_i x_j> otherwise."""

    setting: HomodyneSetting
    key: str
    terms: tuple


def _target_weights(cfg: VerificationConfig):
    """S^-1, then A = S^-T S^-1 and A d as nested lists, and d^T A d."""
    S_inv = inverse(cfg.target).S
    A = S_inv.T @ S_inv
    Ad = A @ cfg.target.d
    return S_inv, A.tolist(), Ad.tolist(), float(cfg.target.d @ Ad)


def _second_weight(A: list, u: int, v: int) -> float:
    """Weight of the raw moment <x_u x_v> (u <= v) in -1/2 tr(A M).

    The same-mode symmetrized q p moment is never estimated directly: it is
    <x_45^2> - <q^2>/2 - <p^2>/2, so its weight -A[2j, 2j+1] goes to the
    45-degree quadrature and half of it, negated, to each diagonal entry.
    """
    return -0.5 * (A[u][u] - A[u][u ^ 1]) if u == v else -A[u][v]


def plan_unitary(cfg: VerificationConfig) -> tuple[list, float]:
    """One batch per estimated moment of the m+5 plan:

    omega = -1/2 tr[S^-T S^-1 (Gamma1 - 2 gamma d^T + d d^T)]
            + tr(Z^(+)m S^-1 Gamma2) / sqrt(lam+1) + 1 + m (lam-2) / (2 lam),

    with gamma, Gamma1 and Gamma2 the A' means, A' second moments and A'-R
    cross moments.  Every setting of the plan measures a prefix of the modes
    or all of them, so mode k is column k.
    """
    m = cfg.m
    S_inv, A, Ad, dAd = _target_weights(cfg)
    B = (np.kron(np.eye(m), np.diag([1.0, -1.0])) @ S_inv / math.sqrt(cfg.lam + 1.0)).tolist()
    plan = build_measurement_plan(m)
    batches = []
    for key in required_moments(m):
        kind, u, v = key[0], key[1], key[-1]
        if kind == "Gamma1" and u % 2 == 0 and v == u + 1:
            continue  # same-mode q p, folded into the rot45 and diagonal weights
        if kind == "gamma":
            count, term = "c3", (u // 2, None, Ad[u])
        elif kind == "rot45":
            count, term = "c4", (u, u, -A[2 * u][2 * u + 1])
        elif kind == "Gamma1":
            count, term = "c4", (u // 2, v // 2, _second_weight(A, u, v))
        else:
            count, term = "c5", (u // 2, m + v // 2, B[v][u])
        batches.append(Batch(plan.settings[plan.setting_index(key)], count, (term,)))
    return batches, 1.0 + m * (cfg.lam - 2.0) / (2.0 * cfg.lam) - 0.5 * dAd


def plan_amplification(cfg: VerificationConfig) -> tuple[list, float]:
    """Four batches: c6 shots each for <q^2>, <p^2>; c7 each for <q q_R>, <p p_R>.

    omega = (lam+1)/g^2 [ K - (lam+1)/(2 g^2) (<q^2> + <p^2>)
                           + sqrt(lam+1)/g (<q q_R> - <p p_R>) ]
    with K = 1 + (g^2 - lam - 1)/(2 g^2) - (lam+2)/(2 lam), pinned by the
    identity omega = (lam+1)/g^2 at the fidelity-optimal amplifier.
    """
    g, lam = cfg.g, cfg.lam
    f = (lam + 1.0) / g**2
    K = 1.0 + (g**2 - lam - 1.0) / (2.0 * g**2) - (lam + 2.0) / (2.0 * lam)
    qq = HomodyneSetting((0.0, 0.0), "q(A')+q(R)")
    pp = HomodyneSetting((np.pi / 2, np.pi / 2), "p(A')+p(R)")
    cross = f * math.sqrt(lam + 1.0) / g
    batches = [
        Batch(qq, "c6", ((0, 0, -0.5 * f * f),)),
        Batch(pp, "c6", ((0, 0, -0.5 * f * f),)),
        Batch(qq, "c7", ((0, 1, cross),)),
        Batch(pp, "c7", ((0, 1, -cross),)),
    ]
    return batches, f * K


def plan_state(cfg: VerificationConfig) -> tuple[list, float]:
    """omega = 1 + m/2 - 1/2 tr[S^-T S^-1 (M - 2 x d^T + d d^T)] from the
    supplied state's means x and raw second moments M.

    Batches: all-q and all-p means (c1), then all-q, all-p and 45-degree
    second moments and, for m > 1 (one mode has no q_j p_k pair), one mixed
    batch per mode j, q on j and p elsewhere (c2).
    """
    m = cfg.m
    _, A, Ad, dAd = _target_weights(cfg)
    Q, P = 0.0, np.pi / 2
    settings = [HomodyneSetting((phi,) * m, name) for phi, name in ((Q, "q"), (P, "p"))]
    batches = [Batch(s, "c1", tuple((j, None, Ad[2 * j + r]) for j in range(m)))
               for r, s in enumerate(settings)]
    batches += [Batch(s, "c2", tuple((j, k, _second_weight(A, 2 * j + r, 2 * k + r))
                                     for j in range(m) for k in range(j, m)))
                for r, s in enumerate(settings)]
    batches.append(Batch(HomodyneSetting((np.pi / 4,) * m, "45deg"), "c2",
                         tuple((j, j, -A[2 * j][2 * j + 1]) for j in range(m))))
    for j in range(m if m > 1 else 0):
        angles = [P] * m
        angles[j] = Q
        batches.append(Batch(HomodyneSetting(tuple(angles)), "c2",
                             tuple((j, k, -A[2 * j][2 * k + 1]) for k in range(m) if k != j)))
    return batches, 1.0 + 0.5 * m - 0.5 * dAd


def witness_plan(cfg: VerificationConfig) -> tuple[list, float]:
    """(batches, c0) of the config's game."""
    return {
        "unitary": plan_unitary,
        "amplification": plan_amplification,
        "state": plan_state,
    }[cfg.protocol](cfg)


def estimate_terms(state: GaussianState, batches, counts: dict, seed) -> list[float]:
    """Each batch's contribution to omega from counts[batch.key] fresh shots.

    A term reads only the shot sum and the scatter sum of its batch, so these
    sufficient statistics are drawn directly (``sample_moment_sums``): the
    cost does not grow with the shot count.  Each distinct setting's marginal
    is factored once per call.  Batch i draws from stream i of
    SeedSequence(seed).spawn(len(batches)), so estimates are reproducible and
    order-independent.  A batch without shots contributes 0 if all its
    weights are 0 and is an error otherwise.
    """
    marginals = {}
    out = []
    for b, stream in zip(batches, np.random.SeedSequence(seed).spawn(len(batches))):
        n, total = counts[b.key], 0.0
        if n > 0:
            if b.setting not in marginals:
                marginals[b.setting] = _marginal(state, b.setting)
            s1, s2 = _moment_sums(*marginals[b.setting], np.random.default_rng(stream), n)
            for i, j, w in b.terms:
                total += w * (s1[i] if j is None else s2[i, j])
            total /= n
        elif any(w for _, _, w in b.terms):
            raise ValueError(f"shot budget {b.key} must be positive")
        out.append(float(total))
    return out


def exact_terms(mean: np.ndarray, second: np.ndarray, batches) -> list[float]:
    """Each batch's contribution to omega from exact means and raw second
    moments <x x^T> of the measured state (the infinite-shot limit)."""
    n_modes = len(mean) // 2
    moments = {}
    out = []
    for b in batches:
        stats = moments.get(b.setting)
        if stats is None:
            P = rotated_quadrature_projector(b.setting, n_modes)
            stats = moments[b.setting] = ((P @ mean).tolist(), (P @ second @ P.T).tolist())
        mu, M = stats
        out.append(float(sum(w * (mu[i] if j is None else M[i][j]) for i, j, w in b.terms)))
    return out


def witness_analytic(prover: ProverChannel, cfg: VerificationConfig) -> float:
    """Infinite-shot witness value for a prover channel under the config."""
    if cfg.protocol == "state":
        raise ValueError("the state game has no prover channel; use witness_estimate_state")
    state = output_state(prover, cfg)
    batches, c0 = witness_plan(cfg)
    return c0 + sum(exact_terms(state.mean, state.cov + np.outer(state.mean, state.mean), batches))


def witness_estimate_state(
    mean_est: np.ndarray, second_moments: np.ndarray, cfg: VerificationConfig
) -> float:
    """Pure-state witness from the means and the (symmetric) raw second-moment
    matrix of the supplied state."""
    batches, c0 = plan_state(cfg)
    return c0 + sum(exact_terms(np.asarray(mean_est), np.asarray(second_moments), batches))


@dataclass(frozen=True)
class Verdict:
    """Outcome of one protocol run; pure function of (measured state, config, seed)."""

    accepted: bool
    omega_star: float
    budget: SampleBudget
    cfg: VerificationConfig
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "accepted": bool(self.accepted),
            "omega_star": float(self.omega_star),
            "threshold": float(self.cfg.F_t + self.cfg.epsilon),
            "budget": self.budget.to_dict(),
            "config": self.cfg.to_dict(),
            "seed": int(self.seed),
            "diagnostics": self.diagnostics,
        }


def _decide(omega_star: float, cfg: VerificationConfig) -> bool:
    # ties at the threshold accept (>= comparison)
    return omega_star >= cfg.F_t + cfg.epsilon


def _verdicts(state: GaussianState, cfg: VerificationConfig, seeds,
              shot_cap: int | None) -> list[Verdict]:
    """One verdict per seed on the measured ``state``: the supplied m modes in
    the state game, else the 2m modes of ``output_state``.  Diagnostics hold
    c0, the shots and the term of every batch, with omega* = c0 + sum(terms)."""
    n_modes = cfg.m if cfg.protocol == "state" else 2 * cfg.m
    if state.n_modes != n_modes:
        raise ValueError(f"state has {state.n_modes} modes, the {cfg.protocol} game measures {n_modes}")
    if cfg.protocol == "state" and not state.is_physical():
        raise ValueError("the supplied state violates the uncertainty relation")
    if not seeds:
        raise ValueError("repetitions must be at least 1")
    budget = sample_budget(cfg)
    counts = budget.counts
    if shot_cap is not None:
        counts = {k: min(c, shot_cap) for k, c in counts.items()}
    batches, c0 = witness_plan(cfg)
    verdicts = []
    for seed in seeds:
        terms = estimate_terms(state, batches, counts, seed)
        omega = c0 + sum(terms)
        if not math.isfinite(omega):
            raise ValueError(f"omega* = {omega} is not finite")
        diag = {"shot_cap": shot_cap, "c0": c0, "shots": [counts[b.key] for b in batches],
                "terms": terms}
        verdicts.append(Verdict(_decide(omega, cfg), omega, budget, cfg, seed, diag))
    return verdicts


def run_verification(
    prover: ProverChannel,
    cfg: VerificationConfig,
    seed: int,
    shot_cap: int | None = None,
) -> Verdict:
    """One full verifier-vs-prover round: budget, sampling, estimate, verdict.

    Each batch's shot and scatter sums are drawn as sufficient statistics, so
    a verdict at the full Lemma-3 budget costs the same as a capped one
    (tens of milliseconds at m = 4, about 1e10 channel uses).  ``shot_cap`` optionally caps
    the per-observable shot count below the worst-case budget, to study the
    protocol at fewer shots than Lemma 3 prescribes.
    """
    return _verdicts(output_state(prover, cfg), cfg, [seed], shot_cap)[0]


def run_state_verification(
    state: GaussianState,
    cfg: VerificationConfig,
    seed: int,
    shot_cap: int | None = None,
) -> Verdict:
    """Verify a prover-supplied Gaussian state against the pure target
    U_{S,d}|0>^m by homodyne moment estimation on the state alone.  Under a
    channel-game config the state is the 2m-mode ``output_state`` instead."""
    return _verdicts(state, cfg, [seed], shot_cap)[0]


def accept_rate(
    prover: ProverChannel,
    cfg: VerificationConfig,
    repetitions: int,
    seed: int,
    shot_cap: int | None = None,
) -> tuple[float, list[Verdict]]:
    """Run the protocol ``repetitions`` times with independent seeds."""
    verdicts = _verdicts(output_state(prover, cfg), cfg, range(seed, seed + repetitions), shot_cap)
    return sum(v.accepted for v in verdicts) / repetitions, verdicts


def oracle_report(prover: ProverChannel, cfg: VerificationConfig, seed: int = 0,
                  mc_samples: int = 100_000) -> dict:
    """True fidelity (Monte Carlo) vs analytic witness, with the gap flag."""
    if cfg.protocol == "amplification":
        target = AmplificationTarget(cfg.g)
    else:
        target = cfg.target
    omega = witness_analytic(prover, cfg)
    if not math.isfinite(omega):
        raise ValueError(f"analytic omega = {omega} is not finite")
    fbar, stderr = true_average_fidelity(prover, target, cfg.lam, mc_samples, seed)
    return {
        "true_fidelity": fbar,
        "true_fidelity_std_error": stderr,
        "analytic_omega": omega,
        "witness_below_fidelity": bool(omega <= fbar + 3.0 * stderr),
    }
