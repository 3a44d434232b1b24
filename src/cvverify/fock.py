"""Truncated Fock-space oracle.

The operators that back the analytic phase-space results: the diagonal of
the damping operator G_theta = sum_n tanh^{2n}(theta) |n><n|, the two-mode
squeezer's sector blocks, single-mode Gaussian unitaries, attenuator and
amplifier Kraus operators, the performance operator, the canonical benchmark
observable, and both average-fidelity witnesses.

Two-mode operators act on A' (x) R with index i * cutoff + j for
|i>_{A'} |j>_R (plain ``np.kron`` ordering), and are held by the photon
number they conserve.  The two-mode squeezer conserves n1 - n2, so its
truncated generator is a direct sum of tridiagonal blocks, one per chain of
states it links; this is the module's one chain family.
Every matrix exponential goes through one numpy kernel, exp(A) =
V e^{-i Lambda} V+ from a stacked ``eigh`` of the Hermitian i A: the chain
blocks, zero-padded into a few length classes, and the single-mode
displacement and squeezer.  The squeezer's chains from |0, j> and |j, 0>
have the same generator, so each such pair is exponentiated once, and a
diagonal core inside a squeezer sandwich is conjugated in the same stacks.
The performance operator is the closed-form Gaussian integral over the
coherent prior, element by element; it conserves n1 - n2 too, so it and the
canonical observable are built as sector blocks.  The module needs numpy only.

The attenuator's Kraus operators are in closed form; the amplifier's are read
off its truncated squeezer dilation, which is unitary on the truncated space
and so keeps the trace (see :func:`_kraus_diagonals`).  Each Kraus operator
is one diagonal, so these channels act on each difference delta of the two
first-slot indices as one transfer block S_delta, and a run of them composes
block by block.  The TMSV sits in n1 = n2, so its image under them conserves
n1 - n2, as does the amplification witness: both are kept as 2c - 1 sector
blocks (about 2c^3/3 entries instead of c^4).  The unitary witness is kept as
the blocks of 1 - k C in the frame U (x) 1 of the target's unitary U (folded
into the blocks when U is diagonal), and an output with a unitary factor in
amplitude form: psi, the TMSV's c x c amplitudes after the leading unitaries,
and the later factors, so rho = sum_n phi_n phi_n+ over terms phi_n with one
Kraus operator (a shift and scale of rows) per attenuator or amplifier.
``expectation`` contracts these forms without a dense c^4 array: block
traces, f+ B_s f over an operator's blocks for f the terms' U+ phi_n at the
block's states (c^3 per term in O(c^3) memory), or the shared photon-number
shifts of a framed operator and a sector state (c^4).  The ``matrix`` of an
operator held in sectors is assembled, read-only, only when read; a framed
operator and a state have no dense form.  Truncation leakage is reported,
never silently renormalized away.

One cutoff rule holds everywhere: each public function with a ``cutoff``
refuses, on entry and before it forms any array, a cutoff outside
[2, MAX_CUTOFF = 256].  The largest arrays of a two-mode path (the transfer
blocks, the amplitude-form stacks, the framed trace's shift diagonals) hold
about c^3 entries, and 256^3 = 4096^2, a dense matrix of dimension 4096.
A cutoff that is not an integer is refused the same way.

The squeezed cores S_theta D S_theta+ of a specification (the unitary
witness's core, the amplification witness and the closed-form observable's
branches) depend on theta, D and the cutoff only, not on the prover, so
``_squeezed_sectors`` keeps them in a least-recently-used cache keyed on
(theta, the bytes of D's diagonal, its slot, the cutoff, the kept cutoff).
The cache is bounded by its total block entries, _CORE_ENTRIES = 2^22
(32 MB of float64), and drops the least recently used cores first.  A core
kept to cutoff c holds about 2c^3/3 entries, so one at c >= 185 exceeds the
bound alone and is never kept.  Cached blocks are read-only, and each call
returns a fresh list of them.  Argument checks and the squeezer's leakage
warning run on every call, before the lookup; the prover's Kraus
operators, outputs and unitaries are built per call.
"""

from __future__ import annotations

import functools
import operator
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .symplectic import SymplecticSpec

SQUEEZE_LEAKAGE_WARN = 1e-4
MAX_CUTOFF = 256
_TERM_ENTRIES = 1 << 19  # term entries one product of _term_trace may form
_CORE_ENTRIES = 1 << 22  # block entries the squeezed-core cache may hold (32 MB of float64)

# (sectors, block entries) of each squeezed core of _squeezed_sectors, least
# recently used first; a core of more than _CORE_ENTRIES entries is never kept.
_CORES: OrderedDict = OrderedDict()
_CORES_LOCK = threading.Lock()


@dataclass(eq=False, repr=False)
class _Fock:
    """A two-mode matrix at photon-number cutoff ``cutoff`` on each mode,
    held as its n1 - n2 ``sectors`` (a list of (i, j, block) over the chains
    of :func:`_chains`) or in a factored ``form`` that the subclass defines."""

    cutoff: int
    sectors: list | None = None
    form: tuple | None = None

    def __post_init__(self):
        if (self.sectors is None) == (self.form is None):
            raise ValueError("a Fock object holds either its sector blocks or a form")


class FockOperator(_Fock):
    """Two-mode operator.  Its ``form``, if any, is (U, sectors): sector
    blocks B in the frame of a unitary U on the first mode, the operator
    (U (x) 1) B (U+ (x) 1).  The ``matrix`` of an operator held in sectors
    is assembled, read-only, on first read; a framed operator has none."""

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        if self.sectors is None:
            raise ValueError("a dense matrix is assembled only from an operator held in sectors")
        M = _assemble(self.sectors, self.cutoff)
        M.setflags(write=False)
        return M

    def __sub__(self, other: FockOperator) -> FockOperator:
        """The difference, block by block, of two operators held in sectors."""
        held = isinstance(other, FockOperator) and self.sectors is not None and other.sectors is not None
        if not held or self.cutoff != other.cutoff:
            raise ValueError("a difference is taken only between operators held in sectors at one cutoff")
        return FockOperator(self.cutoff, [(i, j, A - B) for (i, j, A), (_, _, B) in zip(self.sectors, other.sectors)])


class FockState(_Fock):
    """Truncated two-mode density matrix; ``leakage`` reports the lost trace.
    Its ``form``, if any, is the amplitude form (psi, factors) of
    :func:`entangled_output_fock`."""

    @property
    def leakage(self) -> float:
        if self.sectors is not None:
            return float(1.0 - sum(np.trace(B) for _, _, B in self.sectors))
        # the terms' squared norms: sum_n tr(B_n+ P B_n), P = sum_m A_m+ A_m
        A, B = _term_stacks(self.form)
        flat = A.reshape(-1, self.cutoff)
        return float(1.0 - np.vdot(B, (flat.conj().T @ flat) @ B).real)


def _check_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_lam(lam: float) -> None:
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")


def _check_cutoff(cutoff: int, name: str = "cutoff") -> None:
    try:
        operator.index(cutoff)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {cutoff!r}") from None
    if not 2 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"{name} must lie in [2, {MAX_CUTOFF}], got {cutoff}")


def _kappa(lam: float) -> float:
    """arctanh(1 / sqrt(lam + 1)), the squeezing of the TMSV that purifies the lam-prior."""
    _check_lam(lam)
    with np.errstate(divide="ignore"):
        kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    if not np.isfinite(kappa):  # 1/sqrt(lam+1) rounds to 1
        raise ValueError(f"lam = {lam:g} is too small: the TMSV squeezing arctanh(1/sqrt(lam+1)) is infinite")
    return kappa


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0 .. n - 1."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n)))))


def destroy(cutoff: int) -> np.ndarray:
    _check_cutoff(cutoff)
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def g_theta(theta: float, cutoff: int) -> np.ndarray:
    """The diagonal tanh^{2n}(theta) of the damping operator G_theta."""
    _check_cutoff(cutoff)
    _check_finite("theta", theta)
    t2 = np.tanh(theta) ** 2
    return t2 ** np.arange(cutoff, dtype=float)


def _tmsv_amplitudes(r: float, cutoff: int) -> np.ndarray:
    """sech(r) tanh^n(r), the amplitude of |nn> in the two-mode squeezed vacuum."""
    return np.tanh(r) ** np.arange(cutoff, dtype=float) / np.cosh(r)


def _chains(cutoff: int) -> list:
    """Photon numbers (i, j) along each chain of states that L = a1+ a2+
    links, in order.

    L moves |i, j> to |i+1, j+1>, so it conserves n1 - n2, and the
    2 cutoff - 1 chains partition the truncated two-mode space.  Each starts
    where L+ leaves it: at |0, j> for every j, then at |i, 0> for i >= 1.
    The chain starting at |0, j> has n1 - n2 = -j and the one at |i, 0> has
    n1 - n2 = i.
    """
    i, j, lengths = _chain_grid(cutoff)
    return [(a[:n], b[:n]) for a, b, n in zip(i, j, lengths)]


def _chain_grid(cutoff: int) -> tuple:
    """(i, j, lengths): row k of i and j holds the photon numbers of chain k
    of :func:`_chains` in its first lengths[k] entries, and runs on past them."""
    c = cutoff
    i0 = np.concatenate([np.zeros(c, dtype=int), np.arange(1, c)])
    j0 = np.concatenate([np.arange(c), np.zeros(c - 1, dtype=int)])
    t = np.arange(c)
    return i0[:, None] + t, j0[:, None] + t, c - np.maximum(i0, j0)


def _exp_i(H: np.ndarray, first_column: bool = False) -> np.ndarray:
    """exp(-i H) for a stack of Hermitian matrices H (..., n, n), as
    V e^{-i Lambda} V+ from one stacked ``np.linalg.eigh``, or only the
    first column of each when ``first_column``.  Every matrix exponential of
    the oracle goes through here.

    A real symmetric H has a real V, so V cos(Lambda) V^T - i V sin(Lambda) V^T
    is one real product.  When max |lambda| eps >= 1, e^{-i lambda} keeps no
    significant digit in double precision, and that is an error rather than
    a result.
    """
    lam, V = np.linalg.eigh(H)
    top = float(np.max(np.abs(lam), initial=0.0))
    if not top * np.finfo(float).eps < 1.0:
        raise ValueError(
            f"matrix exponential of a generator with eigenvalue {top:.3g} is not finite in double precision"
        )
    real = np.isrealobj(V)
    Vh = V.swapaxes(-1, -2) if real else V.conj().swapaxes(-1, -2)
    if first_column:
        Vh = Vh[..., :1]
    if not real:
        X = (V * np.exp(-1j * lam)[..., None, :]) @ Vh
    else:  # cos and -sin interleaved, so the real product is the complex one
        W = np.empty(Vh.shape + (2,))
        np.multiply(np.cos(lam)[..., None], Vh, out=W[..., 0])
        np.multiply(-np.sin(lam)[..., None], Vh, out=W[..., 1])
        X = (V @ W.reshape(*Vh.shape[:-1], -1)).view(complex)
    return X[..., 0] if first_column else X


_PAD = 12  # chains of up to 2 _PAD states are exponentiated padded to _PAD or 2 _PAD
_SIGN = np.array([1.0, -1.0, -1.0, 1.0])  # Re(i^q x) = _SIGN[q] (Re x, Im x)[q % 2]


def _chain_exps(theta: float, cutoff: int, count: int, first_column: bool = False):
    """exp(theta (L - L+)) on the first ``count`` chains of :func:`_chains`, as
    zero-padded stacks: yields (members, E), E[r] holding the block of chain
    members[r] in its leading corner and the identity past its length, or
    only its first column when ``first_column``.

    On a chain, L has the weights w_k = theta <i+1, j+1|L|i, j>, so the
    block B (B[k+1, k] = w_k = -B[k, k+1]) is P (-i H) P^-1 with
    P = diag(i^k) and H the real symmetric tridiagonal matrix with
    off-diagonals w, and exp(B) = Re(P exp(-i H) P^-1).  A chain padded with
    zero weights leaves its padding uncoupled.  Short chains, whose
    exponential costs less than a call, are padded to ``_PAD`` or
    ``2 _PAD`` states; the longer ones run one length per stack.
    """
    i, j, lengths = (x[:count] for x in _chain_grid(cutoff))
    short = -(-lengths // _PAD) * _PAD
    padded = np.where(short <= 2 * _PAD, np.minimum(short, lengths.max()), lengths)
    for length in np.unique(padded):
        members = np.flatnonzero(padded == length)
        t = np.arange(length)
        linked = t[1:] < lengths[members, None]  # w_k links states k and k + 1 of the chain
        w = theta * np.sqrt(np.where(linked, i[members, 1:length] * j[members, 1:length], 0))
        H = np.zeros((members.size, length, length))
        H[:, t[1:], t[:-1]] = H[:, t[:-1], t[1:]] = w
        X, q = _exp_i(H, first_column), (t if first_column else t[:, None] - t) % 4
        yield members, np.where(q % 2, X.imag, X.real) * _SIGN[q]


def _check_squeezer(theta: float, cutoff: int) -> None:
    _check_finite("theta", theta)
    _check_cutoff(cutoff)
    # the truncated exponential is exactly unitary (anti-Hermitian generator),
    # so quantify leakage as the ideal TMSV tail mass beyond the cutoff
    leak = float(np.tanh(theta) ** (2 * cutoff))
    if leak > SQUEEZE_LEAKAGE_WARN:
        warnings.warn(
            f"two-mode squeezer truncation leakage {leak:.2e} exceeds "
            f"{SQUEEZE_LEAKAGE_WARN:.0e} at theta={theta}, cutoff={cutoff}",
            stacklevel=4,
        )


def _assemble(sectors: list, cutoff: int) -> np.ndarray:
    U = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    for i, j, E in sectors:
        idx = i * cutoff + j
        U[np.ix_(idx, idx)] = E
    return U


def displace_fock(beta: complex, cutoff: int) -> np.ndarray:
    """exp(beta a+ - conj(beta) a), the exponential of the Hermitian i (beta a+ - conj(beta) a)."""
    a = destroy(cutoff)
    return _exp_i(1j * (beta * a.conj().T - np.conj(beta) * a))


def squeeze1_fock(r: float, cutoff: int) -> np.ndarray:
    """exp(r (a+^2 - a^2) / 2), the exponential of the Hermitian i r (a+^2 - a^2) / 2."""
    a = destroy(cutoff)
    return _exp_i(0.5j * r * (a.conj().T @ a.conj().T - a @ a))


def rotate_fock(phi: float, cutoff: int) -> np.ndarray:
    _check_cutoff(cutoff)
    return np.diag(np.exp(1j * phi * np.arange(cutoff)))


def gaussian_unitary_fock(spec: SymplecticSpec, cutoff: int) -> np.ndarray:
    """Single-mode Gaussian unitary via Euler decomposition S = R(a) diag(e^r, e^-r) R(b).

    Conventions chosen so that the induced phase-space action on means is
    x -> S x + d, as in :func:`cvverify.gaussian.apply_channel`: R(phi) rotates
    q -> q cos(phi) - p sin(phi), the squeezer scales (q, p) -> (e^r q, e^-r p),
    and the displacement shifts the mean by ``spec.d``.
    """
    _check_cutoff(cutoff)
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
    return (
        displace_fock(beta, cutoff)
        @ rotate_fock(phi1, cutoff)
        @ squeeze1_fock(r, cutoff)
        @ rotate_fock(phi2, cutoff)
    )


def performance_operator_avg_fidelity(g: float, lam: float, cutoff: int) -> FockOperator:
    """Performance operator of the gain-g average-fidelity test on A' (x) A.

    Omega = int d^2a/pi lam e^{-lam|a|^2} |g a><g a| (x) |a*><a*|, element by
    element: the angle average keeps only m - n = m' - n', and the radial
    integral is a Gamma function, so with s = m + n' and A = lam + 1 + g^2

        <m n|Omega|m' n'> = lam g^(m+m') s! / (A^(s+1) sqrt(m! n! m'! n'!)),

    evaluated in log space.  Both states of an entry lie on one chain of
    :func:`_chains`, so the blocks are built over the chain grid at once.
    """
    _check_cutoff(cutoff)
    if not (0 < g < np.inf and 0 < lam < np.inf):
        raise ValueError(f"g and lam must be positive and finite, got g={g}, lam={lam}")
    i, j, lengths = _chain_grid(cutoff)
    live = np.arange(cutoff) < lengths[:, None]
    m, n = np.where(live, i, 0), np.where(live, j, 0)  # past a chain's end the vacuum stands in
    m, n, m2, n2 = m[:, :, None], n[:, :, None], m[:, None, :], n[:, None, :]
    log_fact = _log_factorials(2 * cutoff - 1)
    s = m + n2
    log_omega = (
        np.log(lam) + (m + m2) * np.log(g) + log_fact[s] - (s + 1) * np.log(lam + 1.0 + g * g)
        - 0.5 * (log_fact[m] + log_fact[n] + log_fact[m2] + log_fact[n2])
    )
    omega = np.exp(log_omega)
    return FockOperator(cutoff, [(a[:k], b[:k], B[:k, :k]) for a, b, k, B in zip(i, j, lengths, omega)])


def canonical_observable(
    g: float, lam: float, cutoff: int, check_convergence: bool = True
) -> FockOperator:
    """The single observable on A' (x) R whose mean equals the average fidelity.

    Built from the performance operator by a partial transpose on the input
    slot and an inverse-square-root sandwich with the thermal reference state
    of mean photon number 1/lam.  The performance operator here already
    carries the conjugated amplitude in its second slot, which in the Fock
    basis *is* the input-slot transpose, so only the sandwich remains.  The
    sandwich is diagonal, so it and the symmetrisation act block by block.

    ``check_convergence`` is accepted and ignored: the performance operator is
    exact, so there is no quadrature left to check.
    """
    _check_cutoff(cutoff)
    p = np.arange(cutoff, dtype=float)
    rho_r = (lam / (1.0 + lam)) * (1.0 / (1.0 + lam)) ** p
    if rho_r.min() < 1e-12:
        raise ValueError(
            f"reference thermal state ill-conditioned: smallest retained eigenvalue "
            f"{rho_r.min():.2e} < 1e-12 (cutoff too large for lam={lam})"
        )
    inv_sqrt = 1.0 / np.sqrt(rho_r)  # rho_R^(-1/2) on R's photon number j
    sectors = []
    for i, j, B in performance_operator_avg_fidelity(g, lam, cutoff).sectors:
        O = inv_sqrt[j, None] * B * inv_sqrt[j]
        sectors.append((i, j, 0.5 * (O + O.T)))
    return FockOperator(cutoff, sectors)


def _squeezed_sectors(
    theta: float, v: np.ndarray, slot: int, cutoff: int, keep: int | None = None
) -> list:
    """Sector blocks of S_theta D S_theta+ for the diagonal D that is diag(v)
    on one slot (0 = A', 1 = R) and the identity on the other, evaluated at
    ``cutoff``, truncated to photon numbers below ``keep`` (default
    ``cutoff``) and symmetrized.  :func:`_build_squeezed_sectors` builds
    them once per key while the cache holds the key; cached blocks are
    read-only, and each call gets a fresh list of them.  The squeezer check,
    and so its leakage warning, runs first on every call.
    """
    keep = cutoff if keep is None else keep
    _check_squeezer(theta, cutoff)
    key = (float(theta), v.tobytes(), slot, cutoff, keep)
    with _CORES_LOCK:
        held = _CORES.pop(key, None)
        if held is not None:
            _CORES[key] = held  # the most recently used sits last
            return list(held[0])
    core = _build_squeezed_sectors(theta, v, slot, cutoff, keep)
    size = sum(B.size for _, _, B in core)
    if size > _CORE_ENTRIES:
        return core
    # copies: a view would keep its whole padded stack alive, uncounted by the bound
    core = [(i, j, B.copy()) for i, j, B in core]
    for arrays in core:
        for x in arrays:
            x.setflags(write=False)
    with _CORES_LOCK:
        _CORES[key] = core, size
        while sum(n for _, n in _CORES.values()) > _CORE_ENTRIES:
            _CORES.popitem(last=False)
    return list(core)


def _build_squeezed_sectors(theta: float, v: np.ndarray, slot: int, cutoff: int, keep: int) -> list:
    """Build the blocks that :func:`_squeezed_sectors` caches.

    D is diagonal, so each sector block E of the squeezer gives E diag(d) E^T.
    Photon numbers grow along a sector's chain, so the kept states of each
    block are a prefix of it, and the chains that keep any are those of
    :func:`_chains` at ``keep``, in the same order: the chains from |0, k>
    and from |k, 0>, k < keep.  The two share their block E and swap the
    slots, so d along the first is v[t] on slot 0 and v[k + t] on slot 1,
    and the reverse along the second; both products run in one stack.
    """
    chains = _chains(cutoff)[:keep]  # chain k runs over (t, k + t)
    cores = [None] * keep
    for members, E in _chain_exps(theta, cutoff, keep):
        t = np.arange(E.shape[-1])
        near = np.broadcast_to(v[t], (members.size, t.size))
        far = np.take(v, members[:, None] + t, mode="clip")  # clipped only where E is padding
        d = np.stack([near, far] if slot == 0 else [far, near], axis=1)  # (chain, mirror)
        A = E[:, None, : min(t.size, keep)]
        C = (A * d[:, :, None, :]) @ A.swapaxes(-1, -2)
        C = 0.5 * (C + C.swapaxes(-1, -2))
        for r, k in enumerate(members):
            cores[k] = C[r, :, : keep - k, : keep - k]
    return ([(i[: keep - k], j[: keep - k], cores[k][0]) for k, (i, j) in enumerate(chains)]
            + [(j[: keep - k], i[: keep - k], cores[k][1]) for k, (i, j) in enumerate(chains) if k])


def canonical_observable_closed_form(
    g: float, lam: float, cutoff: int, embed_cutoff: int | None = None
) -> FockOperator:
    """Closed form of the canonical observable: one of two squeezed-G branches.

    For g <= sqrt(lam+1): S_theta (G_theta (x) 1) S_theta+ with
    theta = arctanh(g / sqrt(lam+1)); otherwise
    tanh^2(theta') S_theta' (1 (x) G_theta') S_theta'+ with
    theta' = arctanh(sqrt(lam+1) / g).

    The squeezer conjugation is evaluated at ``embed_cutoff`` and truncated
    back, because at the working cutoff the highest photon-number-difference
    sectors of a truncated squeezer degenerate and corrupt the corner
    entries.  The default embedding is derived from the angle and the cutoff
    by :func:`_embedding`.  Both branches conserve n1 - n2, so the result is
    held as its sector blocks.
    """
    _check_cutoff(cutoff)
    if embed_cutoff is not None:
        _check_cutoff(embed_cutoff, "embed_cutoff")
        if embed_cutoff < cutoff:
            raise ValueError("embed_cutoff must be at least cutoff")
    _check_lam(lam)
    if not 0 < g < np.inf:
        raise ValueError(f"g must be positive and finite, got {g}")
    root = np.sqrt(lam + 1.0)
    if not (g < root or g > root):
        raise ValueError("closed form diverges at g = sqrt(lam+1); use the integrated form")
    slot = int(g > root)  # G_theta sits on A' below the transition, on R above it
    theta = np.arctanh(root / g if slot else g / root)
    scale = np.tanh(theta) ** (2 * slot)
    big = _embedding(theta, cutoff) if embed_cutoff is None else embed_cutoff
    sectors = _squeezed_sectors(theta, g_theta(theta, big), slot, big, keep=cutoff)
    return FockOperator(cutoff, [(i, j, B * scale) for i, j, B in sectors])


def _embedding(theta: float, cutoff: int) -> int:
    """The embedding c + k of the closed-form observable at cutoff c: the
    least k at which two estimates of the truncation error, both taken at
    the corner state |0, c - 1>, are below the double-precision epsilon, or
    MAX_CUTOFF if no k up to it is.

    The tail: the squeezer takes photon number n to n + k with an amplitude
    of order tanh^k(theta) C(n + k, k)^(1/2), and G_theta weighs n + k by
    tanh^(2(n + k))(theta), so the states past c + k add about
    tanh^(4k)(theta) C(c + k, k).  The path: the truncated exponential first
    differs from the full one through the missing link past state k of the
    chain, a return path of 2k + 2 steps whose Taylor term is
    theta^(2k + 2) (k + 1)! (c + k)! / ((c - 1)! (2k + 2)!).  The path term
    dominates at small theta, the tail near the transition, where
    tanh(theta) -> 1 and no embedding up to MAX_CUTOFF meets it.
    """
    k = np.arange(MAX_CUTOFF - cutoff + 1)
    log_fact = _log_factorials(2 * MAX_CUTOFF + 1)
    tail = 4 * k * np.log(np.tanh(theta)) + log_fact[cutoff + k] - log_fact[cutoff] - log_fact[k]
    path = ((2 * k + 2) * np.log(theta) + log_fact[k + 1] + log_fact[cutoff + k] - log_fact[cutoff - 1]
            - log_fact[2 * k + 2])
    fits = np.flatnonzero(np.maximum(tail, path) <= np.log(np.finfo(float).eps))
    return cutoff + int(fits[0]) if fits.size else MAX_CUTOFF


def witness_fock_unitary(spec: SymplecticSpec, lam: float, cutoff: int) -> FockOperator:
    """Average-fidelity witness for a single-mode Gaussian unitary target, on A' (x) R.

    1 - k (U (x) 1) C (U+ (x) 1) with k = lam/(lam+1) and the squeezed core
    C = S_kappa (n (x) 1) S_kappa+, kappa = arctanh(1 / sqrt(lam+1)).  The
    truncated U and S_kappa are unitary, so this is (U (x) 1) B (U+ (x) 1)
    with B = S_kappa ((1 - k n) (x) 1) S_kappa+: B's n1 - n2 sector blocks in
    the frame U, with no dense matrix.  A diagonal U = diag(u) keeps n1 - n2,
    so the frame folds into the blocks as diag(u_i) B_s diag(conj(u_i)) over
    each chain's first-slot photon numbers i.
    """
    _check_cutoff(cutoff)
    kappa = _kappa(lam)
    k = lam / (lam + 1.0)
    U = gaussian_unitary_fock(spec, cutoff)
    sectors = _squeezed_sectors(kappa, 1.0 - k * np.arange(cutoff, dtype=float), 0, cutoff)
    u = np.diagonal(U)
    if np.count_nonzero(U - np.diag(u)):
        return FockOperator(cutoff, form=(U, sectors))
    return FockOperator(cutoff, [(i, j, u[i, None] * B * u[i].conj()) for i, j, B in sectors])


def witness_fock_amp(g: float, lam: float, cutoff: int) -> FockOperator:
    """Average-fidelity witness for the gain-g amplification test, on A' (x) R.

    (lam+1)/g^2 (1 - (g^2-lam-1)/g^2 S_theta' (1 (x) n) S_theta'+) with
    theta' = arctanh(sqrt(lam+1) / g).  S_theta' is unitary, so this is
    S_theta' (1 (x) d) S_theta'+ with d = (lam+1)/g^2 (1 - (g^2-lam-1)/g^2 n),
    held as its n1 - n2 sector blocks E diag(d_R) E^T.
    """
    _check_cutoff(cutoff)
    _check_lam(lam)
    root = np.sqrt(lam + 1.0)
    if not root < g < np.inf:
        raise ValueError(f"amplification witness requires finite g > sqrt(lam+1) = {root:.4f}, got {g}")
    theta_p = np.arctanh(root / g)
    d = (lam + 1.0) / g**2 * (1.0 - (g**2 - lam - 1.0) / g**2 * np.arange(cutoff, dtype=float))
    return FockOperator(cutoff, _squeezed_sectors(theta_p, d, 1, cutoff))


def _kraus_diagonals(kind: str, param: float, cutoff: int) -> list:
    """(shift, values) of each Kraus operator K_k of an "attenuator" or
    "amplifier": K_k lies on the one diagonal K[p, p + shift], and ``values``
    is ``np.diagonal(K_k, shift)``.

    The attenuator's are in closed form (Ivan, Sabapathy & Simon, PRA 84,
    042311 (2011)), K_k[i, i + k] = (-1)^k sqrt(C(i + k, k) eta^i (1 - eta)^k)
    (shift k), the sign that of its beamsplitter dilation.  That dilation
    conserves n1 + n2, so each chain of total i + k < c lies whole inside the
    truncation, and the closed form is the truncated dilation's to rounding.

    The amplifier's are read off its truncated squeezer dilation U:
    K_k[q + k, q] = <q + k, k|U|q, 0> is entry k of the first column of the
    chain starting at |q, 0> (shift -k), whose block is that of the chain from
    |0, q>; past a chain's length, a padded column is zero.  The squeezer's
    chains run on past the cutoff, so no truncation is exact, but the
    truncated U is unitary on the truncated space, so these K_k keep the
    trace.  The closed-form amplifier operators, truncated, do not, and they
    move the dual-path check further from the phase-space value at c = 20:
    a QLA of gain 1.3 under the g = 2 witness deviates by 7.4e-4 with
    leakage 9.0e-4 (1.5e-4 and 9.5e-7 from the dilation), and one of gain
    1.2 in the unitary game by 5.8e-4 (1.8e-4).
    """
    c = cutoff
    if kind == "attenuator":
        if not 0 < param <= 1:
            raise ValueError(f"transmissivity must lie in (0, 1], got {param}")
        i, k = np.ogrid[:c, :c]
        log_fact = _log_factorials(2 * c - 1)
        log_binom = log_fact[i + k] - log_fact[i] - log_fact[k]
        table = (-np.sqrt(1.0 - param)) ** k * np.exp(0.5 * (log_binom + i * np.log(param)))
        return [(s, table[: c - s, s]) for s in range(c)]  # table[i, k] = K_k[i, i + k]
    if kind != "amplifier":
        raise ValueError(f"unknown elementary channel factor {kind!r}")
    if param < 1:
        raise ValueError("amplifier gain must be at least 1")
    theta = np.arccosh(param)
    _check_squeezer(theta, c)
    table = np.zeros((c, c))
    for q, E in _chain_exps(theta, c, c, first_column=True):
        table[q, : E.shape[-1]] = E  # table[q, k] = K_k[q + k, q]
    return [(-k, table[: c - k, k]) for k in range(c)]


def _transfer(diagonals: list, cutoff: int) -> np.ndarray:
    """Transfer blocks of a channel whose every Kraus operator K lies on one
    diagonal, given as (shift, ``np.diagonal(K, shift)``):

        S[delta, p, q] = sum_K K[p, q] conj(K[p + delta, q + delta]),  delta = 0..c-1,

    zero where p or q reaches c - delta.  The channel maps the entries
    (q, q + delta) of rho's first-slot index pair to (p, p + delta) through
    S_delta; for -delta it takes conj(S_delta) on indices shifted by delta.
    Each K adds d[m] conj(d[m + delta]) along its own diagonal.
    """
    c = cutoff
    S = np.zeros((c, c, c), dtype=np.result_type(*(d for _, d in diagonals)))
    delta = np.arange(c)[:, None]
    for shift, d in diagonals:
        m = np.arange(d.size)
        p = m + max(0, -shift)
        S[:, p, p + shift] += d * np.concatenate([d, np.zeros(c)])[delta + m].conj()
    return S


def _kraus_stack(X: np.ndarray, diagonals: list, right: bool = False) -> np.ndarray:
    """K X, or X K when ``right``, for each one-diagonal K of ``diagonals`` and
    each matrix of the stack X (..., c, c): a shift and scale of X's rows
    (columns), stacked K-major on one leading axis."""
    out = np.zeros((len(diagonals),) + X.shape, dtype=complex)
    for k, (shift, d) in enumerate(diagonals):
        p, q, n = max(0, -shift), max(0, shift), d.size  # K[p + m, q + m] = d[m]
        if right:
            out[k, ..., q:q + n] = X[..., p:p + n] * d
        else:
            out[k, ..., p:p + n, :] = d[:, None] * X[..., q:q + n, :]
    return out.reshape((-1,) + X.shape[-2:])


def _term_stacks(form: tuple, frame: np.ndarray | None = None) -> tuple:
    """Stacks A and B whose products A[m] @ B[n] are the terms of the
    amplitude form (psi, factors), left-multiplied by U+ for a frame U: B is
    psi under the first factor (a Kraus list, as the leading unitaries are in
    psi) and A is U+ times the others, so a unitary-attenuator-amplifier
    output has c^2 terms from two stacks of c."""
    psi, factors = form
    B, rest = (_kraus_stack(psi, factors[0][1]), factors[1:]) if factors else (psi[None], [])
    A = (np.eye(psi.shape[0]) if frame is None else frame.conj().T)[None]
    for kind, f in reversed(rest):
        A = A @ f if kind == "unitary" else _kraus_stack(A, f, right=True)
    return A, B


def _term_trace(A: np.ndarray, B: np.ndarray, sectors: list) -> float:
    """sum over the terms X = A[m] @ B[n] of <X|O|X> for O of sector blocks O_s:
    sum_s f+ O_s f, f the terms' entries at chain s's states.  One matrix
    product per chunk of B forms at most max(_TERM_ENTRIES, c^2 M) entries,
    so the memory stays O(c^3) for stacks of c."""
    M, c = A.shape[:2]
    rows = A.transpose(1, 0, 2).reshape(c * M, c)
    step = max(1, _TERM_ENTRIES // (M * c * c))
    total = 0.0
    for n in range(0, B.shape[0], step):
        X = (rows @ B[n:n + step].transpose(1, 2, 0).reshape(c, -1)).reshape(c, M, c, -1)  # [i, m, j, n]
        for i, j, O in sectors:
            F = X[i, :, j].reshape(i.size, -1)
            if np.isrealobj(O):  # Re f+ O f = Re(f) O Re(f) + Im(f) O Im(f): one real product
                F = F.view(float)
            total += np.vdot(F, O @ F).real
    return total


def _diagonals(sectors: list, cutoff: int) -> np.ndarray:
    """D[delta, p, q] = <p + delta, q + delta|M|p, q>, delta >= 0, for M of n1 - n2
    sector blocks (zero where p + delta or q + delta reaches the cutoff)."""
    D = np.zeros((cutoff,) * 3, dtype=np.result_type(*(B for _, _, B in sectors)))
    for i, j, B in sectors:
        t, u = np.tril_indices(i.size)
        D[t - u, i[u], j[u]] = B[t, u]
    return D


def _framed_trace(U: np.ndarray, op_sectors: list, state_sectors: list, cutoff: int) -> float:
    """tr((U (x) 1) O (U+ (x) 1) rho) for Hermitian O and rho held in n1 - n2
    sectors, in c^4.  An entry of either links |p, q> to |p + delta, q + delta>,
    and the two meet only on a shared delta: with X_delta of :func:`_diagonals`,
    the delta term is sum_{p, r} U+[p + delta, r + delta] conj(U+[p, r])
    (conj(O_delta) rho_delta^T)[p, r], and the -delta term its conjugate."""
    Ud = U.conj().T
    DO, Dr = _diagonals(op_sectors, cutoff).conj(), _diagonals(state_sectors, cutoff)
    total = 0.0
    for delta in range(cutoff):
        n = cutoff - delta
        H = Ud[delta:, delta:] * Ud[:n, :n].conj()
        total += (1 + (delta > 0)) * np.sum(H * (DO[delta, :n, :n] @ Dr[delta, :n, :n].T)).real
    return total


def entangled_output_fock(ops: list[tuple], lam: float, cutoff: int) -> FockState:
    """(E (x) I) applied to the TMSV purification of the lam-prior, in Fock
    space, for the factors of :func:`cvverify.channels.elementary_factors`.

    With attenuators and amplifiers only (or no factor), the output keeps
    n1 - n2 and is returned as its sector blocks: the TMSV's amplitudes a_n
    sit on |nn>, so <i j|rho|i+delta j+delta> = S_delta[i, j] a_j a_(j+delta)
    from the composed transfer blocks, and entry (t, u) of a chain's block
    reads S_|u-t| at the chain's earlier state.

    Otherwise the output is returned in amplitude form (psi, factors), with
    no dense matrix: psi[i, j] = <ij|psi> is the TMSV's diag(a) under the
    leading unitaries, and ``factors`` are the rest, each ("unitary", U) or
    ("kraus", the Kraus diagonals of :func:`_kraus_diagonals`).
    """
    _check_cutoff(cutoff)
    kappa = _kappa(lam)
    a = _tmsv_amplitudes(kappa, cutoff)
    factors = [("unitary", gaussian_unitary_fock(p, cutoff)) if kind == "unitary"
               else ("kraus", _kraus_diagonals(kind, p, cutoff)) for kind, p in ops]
    if any(kind == "unitary" for kind, _ in factors):
        psi = np.diag(a).astype(complex)
        while factors and factors[0][0] == "unitary":
            psi = factors.pop(0)[1] @ psi
        return FockState(cutoff, form=(psi, factors))
    # the factors' transfer blocks composed left to right (the identity channel's for none)
    blocks = [_transfer(f, cutoff) for _, f in factors] or [_transfer([(0, np.ones(cutoff))], cutoff)]
    S = functools.reduce(lambda S, T: T @ S, blocks)
    sectors = []
    for i, j in _chains(cutoff):
        t = np.arange(i.size)
        first = np.minimum.outer(t, t)
        sectors.append((i, j, S[np.abs(t[:, None] - t), i[first], j[first]] * np.outer(a[j], a[j])))
    return FockState(cutoff, sectors)


def expectation(op: FockOperator, state: FockState) -> float:
    """tr(op state), contracted from the forms the two hold."""
    if op.cutoff != state.cutoff:
        raise ValueError("operator/state cutoff mismatch")
    frame, sectors = op.form if op.form is not None else (None, op.sectors)
    if state.form is not None:
        return float(_term_trace(*_term_stacks(state.form, frame), sectors))
    if frame is not None:
        return float(_framed_trace(frame, sectors, state.sectors, op.cutoff))
    # both are block diagonal over the n1 - n2 chains, so tr(A B) sums block traces
    return float(np.real(sum(np.sum(A * B.T) for (_, _, A), (_, _, B) in zip(sectors, state.sectors))))


def max_eigenvalue(op: FockOperator) -> float:
    """Largest eigenvalue of a Hermitian operator, the largest over its n1 - n2
    blocks (in its frame, if it has one: a unitary frame keeps the spectrum)."""
    sectors = op.form[1] if op.form is not None else op.sectors
    return float(max(np.linalg.eigvalsh(B)[-1] for _, _, B in sectors))


def default_cutoff(lam: float) -> int:
    """Smallest cutoff keeping the TMSV input's truncation leakage below 1e-6."""
    _check_lam(lam)
    nbar = 1.0 / lam
    x = nbar / (nbar + 1.0)
    if x >= 1.0:
        raise ValueError(f"lam = {lam} is too small for a finite cutoff")
    n = int(np.ceil(np.log(1e-6) / np.log(x)))
    return max(n, 2)
