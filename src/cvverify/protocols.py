"""Protocol drivers: budgets, the affine witness pipeline, verdicts.

Three verifier-vs-prover games are implemented on top of the Gaussian
simulator:

* ``unitary`` — verify an m-mode Gaussian unitary target by sending halves of
  m two-mode squeezed vacua through the prover's channel and homodyning both
  sides in the m+5 settings of ``measurement.build_measurement_plan``;
  ``plan_unitary`` states which setting measures which moment.
* ``amplification`` — verify the gain-g coherent-state amplification test on
  a single mode with four quadrature second moments.
* ``state`` — verify a Gaussian pure-state source from single-mode homodyne
  moments of the supplied state.

Every witness is affine in homodyne moments, omega = c0 + sum_k w_k <O_k>.
A game's plan builder returns ``(batches, c0, shares)``, and one pipeline
serves all three.  ``_compile`` reads the plan alone and is the one place a
setting is projected: it groups the batches by count key and number of
columns read, and keeps each group's stacked projector rows and its terms
as (row, column i, column j or none, weight).  The exact (infinite-shot)
witness is one affine form per config, omega = c0 + a^T mu + <C, M> on the
means mu and raw second moments M of the measured state, read off those
rows.  ``shares`` gives each count key its share of epsilon, and the
budget reads the rest of Lemma 3 off the batches: a key sizes as many
observables as its batches have terms.  A config keeps four values, each
built on first use: the TMSV the verifier prepares, the plan (read-only;
``cfg.plan`` is the one caller of ``witness_plan``), the affine form and
the budget (read-only; ``cfg.budget`` is its one builder).  All three
games reach a verdict through one core, which reads ``cfg.plan``,
compiles it once per call and reads its counts off ``cfg.budget``: each
group that draws shots gets the stacked exact marginals of its rows
(``measurement.marginals``), and each seed's one Generator draws their
shot and scatter sums, sufficient statistics, in plan order and in a few
array calls (``measurement.moment_sums``), so an uncapped budget costs no
more than a capped one.  A verdict reads its acceptance and budget
through its config.  The plan is kept, the compile is per call: the
benchmark harness keeps a record per op, so the ops a kept compile would
add raise its peak RSS past its bound until those records are streamed.

All additive constants are derived under the fixed vacuum-variance-1/2
convention and pinned by the exact identities "honest prover gives
omega = 1" and "optimal amplifier gives omega = (lam+1)/g^2"; the Fock-oracle
cross-checks in the test suite confirm both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gaussian
from .channels import AmplificationTarget, ProverChannel, average_fidelity
from .gaussian import GaussianState, tmsv_pairs
from .measurement import (
    HomodyneSetting,
    build_measurement_plan,
    marginals,
    moment_sums,
    rotated_quadrature_projector,
)
from .symplectic import (SymplecticSpec, _as_float, _as_str, _fields_state, _read_object, inverse_matrix,
                         spectral_norm)


def kappa_for(lam: float) -> float:
    """TMSV squeezing purifying the thermal prior: arctanh(1/sqrt(lam+1))."""
    return float(np.arctanh(1.0 / np.sqrt(lam + 1.0)))


# The game-specific field each protocol sets; the other one stays None.
GAME_FIELDS = {"unitary": ("target",), "amplification": ("g",), "state": ("target",)}


@dataclass(frozen=True)
class VerificationConfig:
    """Inputs of one verification game; construction enforces the invariants.

    protocol: "unitary", "amplification" or "state".
    ``GAME_FIELDS[protocol]`` names the game-specific field it sets: target,
    a SymplecticSpec, for the unitary and state protocols; g, the gain, for
    amplification.  Setting the other one is a ValueError that names it.
    sigma1/sigma2 bound the homodyne outcome variances of the first- and
    second-moment observables.  ``from_dict`` reads these nine fields and
    rejects any other key.
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

    def __post_init__(self):
        if self.protocol not in tuple(GAME_FIELDS):  # a tuple: an unhashable protocol is unknown, not a TypeError
            raise ValueError(f"unknown protocol {self.protocol!r}")
        for f in fields(self):  # the game-specific fields are those that default to None
            if f.default is None and f.name not in GAME_FIELDS[self.protocol] and getattr(self, f.name) is not None:
                raise ValueError(f"{self.protocol} protocol takes no {f.name!r}")
        g2 = 0.0 if self.g is None else self.g * self.g  # inf also when g^2 leaves the float range
        values = (self.lam, self.F_t, self.delta, self.epsilon, self.sigma1, self.sigma2, g2)
        if not all(map(math.isfinite, values)):
            raise ValueError("lam, F_t, delta, epsilon, sigma1, sigma2 and g^2 must be finite")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        with np.errstate(divide="ignore"):
            kappa = kappa_for(self.lam)
        if not math.isfinite(kappa):  # 1/sqrt(lam+1) rounds to 1
            raise ValueError(f"lam = {self.lam:g} is too small: the TMSV squeezing "
                             "arctanh(1/sqrt(lam+1)) is infinite")
        if not 0 < self.delta <= 0.5:
            raise ValueError("delta must lie in (0, 1/2]")
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("variance bounds must be positive")
        if "target" in GAME_FIELDS[self.protocol]:
            if self.target is None:
                raise ValueError(f"{self.protocol} protocol requires a target spec")
            if not self.target.is_valid():
                raise ValueError("target S is not symplectic")
            omega_max, bound = 1.0, "1"
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
                    stacklevel=3,
                )
            omega_max = (self.lam + 1.0) / self.g**2
            bound = f"(lam+1)/g^2 = {omega_max:.4f}"
        # omega_max: the witness of the honest prover, or of the optimal amplifier
        if not 0 < self.F_t < omega_max:
            raise ValueError(f"threshold must lie in (0, {bound})")
        half_gap = (omega_max - self.F_t) / 2.0
        if not 0 < self.epsilon < half_gap:
            raise ValueError(f"epsilon must lie in (0, {half_gap:.4g}), half the gap from F_t to {bound}")

    @property
    def m(self) -> int:
        return self.target.n_modes if self.target is not None else 1

    @cached_property
    def tmsv(self) -> GaussianState:
        """The m two-mode squeezed vacua the verifier prepares, built on first use."""
        return tmsv_pairs(kappa_for(self.lam), self.m)

    @cached_property
    def plan(self) -> tuple[tuple, float, dict]:
        """The game's plan ``(batches, c0, shares)``, built on first use and
        read-only: the batches a tuple, the shares a ``_ReadOnlyDict``.  The
        one caller of ``witness_plan``: the budget, the exact witness and
        every verdict of the config read this plan."""
        batches, c0, shares = witness_plan(self)
        return tuple(batches), c0, _ReadOnlyDict(shares)

    @cached_property
    def budget(self) -> SampleBudget:
        """The Lemma-3 budget of the config's plan, built on first use: the
        one builder of the config's budget.  Every verdict of the config
        reads this object."""
        batches, _, shares = self.plan
        return _budget(self, batches, shares)

    @cached_property
    def witness_form(self) -> WitnessForm:
        """The game's exact witness as one affine form, built on first use and
        independently of the TMSV: a term w <x_i> whose projector rows are P
        adds w P[i] to a, and a term w <x_i x_j> adds w P[i]^T P[j] to C."""
        batches, c0, _ = self.plan
        L, R, w, j = map(np.concatenate, zip(*((g.P[g.rows, g.i], g.P[g.rows, g.j], g.weights, g.j)
                                               for g in _compile(batches))))
        L *= w[:, None]
        a, C = L[j < 0].sum(0), L[j >= 0].T @ R[j >= 0]
        a.flags.writeable = C.flags.writeable = False
        return WitnessForm(c0, a, C)

    __getstate__ = _fields_state  # never the built TMSV, plan, form or budget

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}
        if self.target is not None:
            data["target"] = self.target.to_dict()
        return data

    @classmethod
    def from_dict(cls, data, what: str = "config") -> "VerificationConfig":
        return cls(**_read_object(data, what, READERS))


# The reader of each key of a config object, in field order.
READERS = {"protocol": _as_str, **dict.fromkeys(("lam", "F_t", "delta", "epsilon", "sigma1", "sigma2"), _as_float),
           "target": SymplecticSpec.from_dict, "g": _as_float}


def lemma3_sample_count(sigma: float, l: int, epsilon: float, delta: float) -> int:
    """Shots per observable so that l+1 estimates each miss by < epsilon
    simultaneously with probability at least 1 - delta:
    ceil(sigma^2 (l+1) / (epsilon^2 ln(1/(1-delta)))).
    """
    for name, value in (("sigma", sigma), ("epsilon", epsilon)):
        if not 0 < value < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    return _count(_lemma3_raw(sigma, _integer(l, "l", 0), epsilon, delta))


def _lemma3_raw(sigma: float, l: int, epsilon: float, delta: float) -> float:
    try:
        return sigma**2 * (l + 1) / (epsilon**2 * math.log(1.0 / (1.0 - delta)))
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _count(raw: float) -> int:
    if not math.isfinite(raw):  # sigma too large, or epsilon or delta too small
        raise ValueError(f"shot count {raw} out of range")
    return int(math.ceil(raw))


class _ReadOnlyDict(dict):
    """A dict that refuses every change once built.  It compares equal to,
    JSON-dumps as and pickles like the plain dict it copies."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class SampleBudget:
    """Per-observable shot counts and what they cost.  ``raw`` keeps the
    un-ceiled values so that exact scaling ratios of the underlying formulas
    can be checked.  ``channel_uses`` is the number of shots the game's plan
    draws at these counts (one channel use or state copy per shot), and
    ``tmsv_copies`` the two-mode squeezed vacua the verifier prepares for
    them: m per shot in the unitary game, one in the amplification game, and
    none in the state game, whose copies the prover supplies.  ``counts``
    and ``raw`` are read-only copies, since a config shares its budget with
    all of its verdicts; ``to_dict`` gives plain dicts."""

    counts: dict
    raw: dict
    channel_uses: int
    tmsv_copies: int

    def __post_init__(self):
        object.__setattr__(self, "counts", _ReadOnlyDict(self.counts))
        object.__setattr__(self, "raw", _ReadOnlyDict(self.raw))

    def to_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "raw": dict(self.raw),
            "channel_uses": self.channel_uses,
            "tmsv_copies": self.tmsv_copies,
        }


def _budget(cfg: VerificationConfig, batches, shares: dict) -> SampleBudget:
    """Lemma-3 counts of the plan's count keys.  A key sizes l observables,
    the terms of its batches, with variance bound sigma1 if they read means
    and sigma2 otherwise; each of the k keys with an epsilon share fails with
    probability 1 - (1-delta)^(1/k), and a None share is a count of 0.
    ``channel_uses`` is the shots ``batches`` draw at those counts."""
    l, sigma = dict.fromkeys(shares, 0), dict.fromkeys(shares, cfg.sigma2)
    for b in batches:
        l[b.key] += len(b.terms)
        if any(j is None for _, j, _ in b.terms):
            sigma[b.key] = cfg.sigma1
    dg = 1.0 - (1.0 - cfg.delta) ** (1.0 / sum(eps is not None for eps in shares.values()))
    raw = {key: 0.0 if eps is None else _lemma3_raw(sigma[key], l[key], eps, dg)
           for key, eps in shares.items()}
    counts = {key: _count(v) for key, v in raw.items()}
    uses = sum(counts[b.key] for b in batches)
    copies = {"unitary": cfg.m, "amplification": 1, "state": 0}[cfg.protocol]
    return SampleBudget(counts, raw, uses, copies * uses)


def sample_budget(cfg: VerificationConfig) -> SampleBudget:
    """Shot counts of the config's game and the channel uses its plan draws:
    the budget the config keeps."""
    return cfg.budget


def output_state(prover: ProverChannel, cfg: VerificationConfig) -> GaussianState:
    """(E_p (x) I)(TMSV^(x)m): modes 0..m-1 are A' (through the channel),
    modes m..2m-1 the untouched reference halves."""
    m = prover.n_modes
    if m != cfg.m:
        raise ValueError(f"prover acts on {m} modes but the config's target has {cfg.m}")
    ch = prover.realize()
    try:
        return gaussian.apply_channel(cfg.tmsv, ch)
    except ValueError as exc:  # an output past the float range, say: the prover's channel is at fault
        raise ValueError(f"prover {prover.kind}'s channel, X of norm {np.linalg.norm(ch.X, 2):.3g}, "
                         f"gives no output state: {exc}") from None


class Batch(NamedTuple):
    """One homodyne setting, the budget count key ("c1".."c7") that sizes it,
    and sparse terms (i, j, w) over its measured columns: w <x_i> when j is
    None, w <x_i x_j> otherwise."""

    setting: HomodyneSetting
    key: str
    terms: tuple


def _target_weights(cfg: VerificationConfig):
    """S^-1 of the target's S, then A = S^-T S^-1 and A d as nested lists,
    and d^T A d."""
    S_inv = inverse_matrix(cfg.target.S)
    A = S_inv.T @ S_inv
    Ad = A @ cfg.target.d
    return S_inv, A.tolist(), Ad.tolist(), float(cfg.target.d @ Ad)


def _target_shares(cfg: VerificationConfig, mean: str, second: str, cross: str | None = None) -> dict:
    """Epsilon shares of the mean, A' second-moment and (unitary game only)
    cross-moment count keys.  Their error bounds are (2m)^{3/2} |S|^2 |d| e,
    m |S|^2 e and 2 m |S| e / sqrt(lam+1); epsilon is split evenly over the
    keys that draw shots, and the mean key draws none (None) when d = 0."""
    m = cfg.m
    norm_s = spectral_norm(cfg.target)
    norm_d = float(np.linalg.norm(cfg.target.d))
    share = cfg.epsilon / ((2 if norm_d > 0 else 1) + (cross is not None))
    shares = {mean: share / ((2 * m) ** 1.5 * norm_s**2 * norm_d) if norm_d > 0 else None,
              second: share / (m * norm_s**2)}
    if cross is not None:
        shares[cross] = share * math.sqrt(cfg.lam + 1.0) / (2.0 * m * norm_s)
    return shares


def _second_weight(A: list, u: int, v: int) -> float:
    """Weight of the raw moment <x_u x_v> (u <= v) in -1/2 tr(A M).

    The same-mode symmetrized q p moment is never estimated directly: it is
    <x_45^2> - <q^2>/2 - <p^2>/2, so its weight -A[2j, 2j+1] goes to the
    45-degree quadrature and half of it, negated, to each diagonal entry.
    """
    return -0.5 * (A[u][u] - A[u][u ^ 1]) if u == v else -A[u][v]


def plan_unitary(cfg: VerificationConfig) -> tuple[list, float, dict]:
    """One batch per estimated moment, in the settings of
    ``build_measurement_plan``:

    omega = -1/2 tr[S^-T S^-1 (Gamma1 - 2 gamma d^T + d d^T)]
            + tr(Z^(+)m S^-1 Gamma2) / sqrt(lam+1) + 1 + m (lam-2) / (2 lam),

    with gamma, Gamma1 and Gamma2 the A' means, A' second moments and A'-R
    cross moments.  Batches come in that order: the 2m means (c3); the A'
    second moments <x_u x_v>, u <= v, then the m 45-degree moments (c4); the
    4m^2 cross moments (c5).  Quadratures u, v of equal parity are read in
    the all-q or all-p setting, a q p pair on two A' modes in the mixed
    setting of its q mode, and a cross moment in the global setting of its
    parities.  Every setting measures a prefix of the modes or all of them,
    so mode k is column k.
    """
    m = cfg.m
    shares = _target_shares(cfg, "c3", "c4", "c5")  # first: it refuses an S whose S^-T S^-1 overflows
    S_inv, A, Ad, dAd = _target_weights(cfg)
    B = S_inv / math.sqrt(cfg.lam + 1.0)
    B[1::2] *= -1.0  # Z^(+)m S^-1: Z negates the p rows
    B = B.tolist()
    qq, pp, qp, pq, rot45, *mixed = build_measurement_plan(m)
    same, cross = (qq, pp), ((qq, qp), (pq, pp))
    batches = [Batch(same[u % 2], "c3", ((u // 2, None, Ad[u]),)) for u in range(2 * m)]
    for u in range(2 * m):
        for v in range(u, 2 * m):
            if u % 2 == v % 2:
                setting = same[u % 2]
            elif u // 2 == v // 2:
                continue  # same-mode q p, folded into the rot45 and diagonal weights
            else:
                setting = mixed[(v if u % 2 else u) // 2]
            batches.append(Batch(setting, "c4", ((u // 2, v // 2, _second_weight(A, u, v)),)))
    batches += [Batch(rot45, "c4", ((j, j, -A[2 * j][2 * j + 1]),)) for j in range(m)]
    batches += [Batch(cross[u % 2][v % 2], "c5", ((u // 2, m + v // 2, B[v][u]),))
                for u in range(2 * m) for v in range(2 * m)]
    return batches, 1.0 + m * (cfg.lam - 2.0) / (2.0 * cfg.lam) - 0.5 * dAd, shares


def plan_amplification(cfg: VerificationConfig) -> tuple[list, float, dict]:
    """Four batches: c6 shots each for <q^2>, <p^2>; c7 each for <q q_R>, <p p_R>.

    omega = (lam+1)/g^2 [ K - (lam+1)/(2 g^2) (<q^2> + <p^2>)
                           + sqrt(lam+1)/g (<q q_R> - <p p_R>) ]
    with K = 1 + (g^2 - lam - 1)/(2 g^2) - (lam+2)/(2 lam), pinned by the
    identity omega = (lam+1)/g^2 at the fidelity-optimal amplifier.  The
    error terms ((lam+1)/g^2)^2 e6 and 2 ((lam+1)/g^2)^{3/2} e7 get shares
    a*epsilon and (1-a)*epsilon with a = sqrt(lam+1)/(sqrt(lam+1)+2), a split
    chosen so that the un-ceiled counts obey c7/c6 = g^2 exactly.
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
    a = math.sqrt(lam + 1.0) / (math.sqrt(lam + 1.0) + 2.0)
    return batches, f * K, {"c6": a * cfg.epsilon * g**4 / (lam + 1.0) ** 2,
                            "c7": (1.0 - a) * cfg.epsilon * g**3 / (2.0 * (lam + 1.0) ** 1.5)}


def plan_state(cfg: VerificationConfig) -> tuple[list, float, dict]:
    """omega = 1 + m/2 - 1/2 tr[S^-T S^-1 (M - 2 x d^T + d d^T)] from the
    supplied state's means x and raw second moments M.

    Batches: all-q and all-p means (c1), then all-q, all-p and 45-degree
    second moments and, for m > 1 (one mode has no q_j p_k pair), one mixed
    batch per mode j, q on j and p elsewhere (c2).
    """
    m = cfg.m
    shares = _target_shares(cfg, "c1", "c2")  # first, as in plan_unitary
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
    return batches, 1.0 + 0.5 * m - 0.5 * dAd, shares


def witness_plan(cfg: VerificationConfig) -> tuple[list, float, dict]:
    """(batches, c0, shares) of the config's game.  A target or gain so large
    that an epsilon share overflows (through |S|^2 or g^4) is a ValueError naming it."""
    try:
        return {
            "unitary": plan_unitary,
            "amplification": plan_amplification,
            "state": plan_state,
        }[cfg.protocol](cfg)
    except OverflowError:
        what = f"gain g = {cfg.g:g}" if cfg.target is None else f"target S, of norm {spectral_norm(cfg.target):g},"
        raise ValueError(f"{what} is too large: an epsilon share of its plan leaves the float range") from None


class _Group(NamedTuple):
    """The plan's batches of one count key whose terms read k columns,
    compiled: their positions in the plan, their settings, the stacked
    projector rows of the columns they read, shape (G, k, 2n), and every
    term, in term order, as (row in the group, column i, column j or -1 for
    a mean, weight), with its index into the flattened shot sums then
    scatter sums."""

    key: str
    index: np.ndarray
    settings: list
    P: np.ndarray
    rows: np.ndarray
    i: np.ndarray
    j: np.ndarray
    flat: np.ndarray
    weights: np.ndarray


def _compile(batches) -> list[_Group]:
    """Group the plan's batches by (count key, number of columns read), in
    the order each pair first appears in the plan, projecting each distinct
    setting once: the one map from a term to the projector rows it reads."""
    n_modes = len(batches[0].setting.angles)
    first_row, projectors, members = {}, [], {}
    for pos, b in enumerate(batches):
        start = first_row.get(id(b.setting))  # keyed by identity: plans reuse their settings
        if start is None:
            start = first_row[id(b.setting)] = sum(map(len, projectors))
            projectors.append(rotated_quadrature_projector(b.setting, n_modes))
        cols = sorted({c for i, j, _ in b.terms for c in (i, j) if c is not None})
        members.setdefault((b.key, len(cols)), []).append((pos, b, cols, [start + c for c in cols]))
    stacked = np.concatenate(projectors)
    groups = []
    for (key, k), group in members.items():
        rows, i, j, flat, weights = [], [], [], [], []
        for row, (_, b, cols, _) in enumerate(group):
            for ti, tj, w in b.terms:
                i.append(cols.index(ti))
                j.append(-1 if tj is None else cols.index(tj))
                at = row * k + i[-1]  # where column i sits in the flattened shot sums
                rows.append(row)
                flat.append(at if tj is None else len(group) * k + at * k + j[-1])
                weights.append(w)
        pos, grouped, _, read = zip(*group)
        groups.append(_Group(key, np.array(pos), [b.setting for b in grouped],
                             stacked[sum(read, [])].reshape(len(group), k, -1),
                             *np.array((rows, i, j, flat)), np.array(weights, dtype=float)))
    return groups


def estimate_terms(state: GaussianState, batches, counts: dict, seeds) -> list[list[float]]:
    """Each batch's contribution to omega from counts[batch.key] fresh shots,
    once per seed.

    A term reads only the shot sum and the scatter sum of its batch, drawn
    directly (``measurement.moment_sums``), so the cost does not grow with
    the shot count.  The plan is compiled once for all seeds, and each group
    that draws shots gets the exact marginals of its projector rows; a group
    without shots is skipped before any is built, and is an error if a
    weight of it is nonzero, as is a count key missing from ``counts``.
    Each seed's one np.random.default_rng(seed) draws the groups in plan
    order, and a batch's term is sum_t w_t s_t / N, added in term order.
    """
    stats = []
    for g in _compile(batches):
        if g.key not in counts:
            raise ValueError(f"counts has no shot count for key {g.key!r}")
        if counts[g.key] <= 0:
            if g.weights.any():
                raise ValueError(f"shot budget {g.key} must be positive")
            continue
        stats.append((g, counts[g.key], *marginals(state, g.P, g.settings)))
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        terms = np.zeros(len(batches))
        for g, shots, mean, root in stats:
            s1, s2 = moment_sums(mean, root, rng, shots)
            values = np.concatenate((s1.ravel(), s2.ravel()))[g.flat]
            terms[g.index] = np.bincount(g.rows, g.weights * values, g.index.size) / shots
        out.append(terms.tolist())
    return out


class WitnessForm(NamedTuple):
    """omega = c0 + a^T mu + <C, M>, the exact witness of a plan on the means
    mu and the raw second moments M = <x x^T> of the measured state, with
    <C, M> = sum C * M.  ``a`` and ``C`` are read-only."""

    c0: float
    a: np.ndarray
    C: np.ndarray

    def value(self, mean: np.ndarray, second: np.ndarray) -> float:
        return float(self.c0 + self.a @ mean + np.vdot(self.C, second))


def witness_analytic(prover: ProverChannel, cfg: VerificationConfig) -> float:
    """Infinite-shot witness value for a prover channel under the config:
    the config's ``witness_form`` on the moments of ``output_state``."""
    if cfg.protocol == "state":
        raise ValueError("the state game has no prover channel; use witness_estimate_state")
    state = output_state(prover, cfg)
    return cfg.witness_form.value(state.mean, state.cov + np.outer(state.mean, state.mean))


def witness_estimate_state(
    mean_est: np.ndarray, second_moments: np.ndarray, cfg: VerificationConfig
) -> float:
    """Pure-state witness from the means and the symmetric raw second-moment
    matrix of the supplied state, through the config's ``witness_form``.  A
    config of another game, means that are not 2m long, a second-moment
    matrix that is not 2m x 2m or not symmetric, and a witness that is not
    finite (NaN moments, say) are ValueErrors."""
    if cfg.protocol != "state":
        raise ValueError(f"witness_estimate_state scores the state game, not the {cfg.protocol} game")
    mean, second = np.asarray(mean_est, dtype=float), np.asarray(second_moments, dtype=float)
    n = 2 * cfg.m
    if mean.shape != (n,) or second.shape != (n, n):
        raise ValueError(f"a {cfg.m}-mode target takes means of shape ({n},) and second moments of "
                         f"shape ({n}, {n}), got {mean.shape} and {second.shape}")
    if np.max(np.abs(second - second.T)) > 1e-10:
        raise ValueError("the second-moment matrix must be symmetric")
    omega = cfg.witness_form.value(mean, second)
    if not math.isfinite(omega):
        raise ValueError(f"state witness {omega} is not finite")
    return omega


@dataclass(frozen=True)
class Verdict:
    """Outcome of one protocol run; pure function of (measured state, config,
    seed).  ``accepted`` and ``budget`` are read through ``cfg``."""

    omega_star: float
    cfg: VerificationConfig
    seed: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def threshold(self) -> float:
        return self.cfg.F_t + self.cfg.epsilon

    @property
    def accepted(self) -> bool:
        return self.omega_star >= self.threshold  # ties at the threshold accept

    @property
    def budget(self) -> SampleBudget:
        return self.cfg.budget

    def to_dict(self) -> dict:
        return {
            "accepted": bool(self.accepted),
            "omega_star": float(self.omega_star),
            "threshold": float(self.threshold),
            "budget": self.budget.to_dict(),
            "config": self.cfg.to_dict(),
            "seed": int(self.seed),
            "diagnostics": self.diagnostics,
        }


def _integer(value, name: str, least: int) -> int:
    """``value`` as an int; a bool, a fraction or one below ``least`` is a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _verdicts(state: GaussianState, cfg: VerificationConfig, seeds,
              shot_cap: int | None) -> list[Verdict]:
    """One verdict per seed on the measured ``state``, which has the modes of
    the plan's first setting: the supplied m modes in the state game, else the
    2m modes of ``output_state``.  Diagnostics hold
    c0, the shots and the term of every batch, with omega* = c0 + sum(terms)."""
    batches, c0, _ = cfg.plan
    n_modes = len(batches[0].setting.angles)
    if state.n_modes != n_modes:
        raise ValueError(f"state has {state.n_modes} modes, the {cfg.protocol} game measures {n_modes}")
    if cfg.protocol == "state" and not state.is_physical():
        raise ValueError("the supplied state violates the uncertainty relation")
    if not seeds:
        raise ValueError("repetitions must be at least 1")
    for seed in seeds:
        _integer(seed, "seed", 0)
    if shot_cap is not None:
        shot_cap = _integer(shot_cap, "shot_cap", 1)
    counts = {k: c if shot_cap is None else min(c, shot_cap) for k, c in cfg.budget.counts.items()}
    verdicts = []
    for seed, terms in zip(seeds, estimate_terms(state, batches, counts, seeds)):
        omega = c0 + sum(terms)
        if not math.isfinite(omega):
            raise ValueError(f"omega* = {omega} is not finite")
        diag = {"shot_cap": shot_cap, "c0": c0, "shots": [counts[b.key] for b in batches],
                "terms": terms}
        verdicts.append(Verdict(omega, cfg, seed, diag))
    return verdicts


def run_verification(
    prover: ProverChannel,
    cfg: VerificationConfig,
    seed: int,
    shot_cap: int | None = None,
) -> Verdict:
    """One full verifier-vs-prover round: budget, sampling, estimate, verdict.

    Each batch's shot and scatter sums are drawn as sufficient statistics, so
    a verdict at the full Lemma-3 budget (about 1e10 channel uses at m = 4)
    costs the same as a capped one.  ``shot_cap`` optionally caps the
    per-observable shot count below the worst-case budget, to study the
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
    seeds = range(_integer(seed, "seed", 0), seed + _integer(repetitions, "repetitions", 1))
    verdicts = _verdicts(output_state(prover, cfg), cfg, seeds, shot_cap)
    return sum(v.accepted for v in verdicts) / repetitions, verdicts


def oracle_report(prover: ProverChannel, cfg: VerificationConfig, seed: int = 0) -> dict:
    """Exact average fidelity vs analytic witness, with the gap flag.

    ``seed`` is ignored: the report draws nothing, and the parameter stays
    only for callers that pass it positionally.  The flag allows omega to
    exceed the fidelity by the rounding of the witness, 64 eps (1 + 1/lam)^2:
    its moments grow like the TMSV quadrature variance (lam + 2)/(2 lam), so
    its rounding grows like eps/lam^2.  The largest excess measured, over
    honest and random provers at m = 1..4 and lam from 1e-4 to 3, was
    7.3 eps (1 + 1/lam)^2.
    """
    if cfg.protocol == "amplification":
        target = AmplificationTarget(cfg.g)
    else:
        target = cfg.target
    omega = witness_analytic(prover, cfg)
    if not math.isfinite(omega):
        raise ValueError(f"analytic omega = {omega} is not finite")
    fbar = average_fidelity(prover, target, cfg.lam)
    slack = 64.0 * np.finfo(float).eps * (1.0 + 1.0 / cfg.lam) ** 2
    return {
        "true_fidelity": fbar,
        "analytic_omega": omega,
        "witness_below_fidelity": bool(omega <= fbar + slack),
    }
