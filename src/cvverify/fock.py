"""Truncated Fock-space oracle.

Matrix representations of the operators that back the analytic phase-space
results: photon number, the diagonal damping operator
G_theta = sum_n tanh^{2n}(theta) |n><n|, two-mode squeezers and
beamsplitters, single-mode Gaussian unitaries, the performance operator, the
canonical benchmark observable, and both average-fidelity witnesses.

Two-mode operators act on A' (x) R with index i * cutoff + j for
|i>_{A'} |j>_R (plain ``np.kron`` ordering), and the costly ones are built
from the photon number they conserve.  The two-mode squeezer conserves
n1 - n2 and the beamsplitter n1 + n2, so each truncated generator is a direct
sum of tridiagonal blocks, one per chain of states the generator links.
Every matrix exponential goes through one numpy kernel, exp(A) =
V e^{-i Lambda} V+ from a stacked ``eigh`` of the Hermitian i A: the chain
blocks, zero-padded into a few length classes, and the single-mode
displacement and squeezer.  The squeezer's chains from |0, j> and |j, 0>
have the same generator, so each such pair is exponentiated once, and a
diagonal core inside a squeezer sandwich is conjugated in the same stacks.
The performance operator is the closed-form Gaussian integral over the
coherent prior, element by element.  The module needs numpy only.

Every attenuator and amplifier Kraus operator moves photon number by a fixed
amount, so these phase-insensitive channels keep the difference delta of the
two first-slot indices and act on each delta as one transfer block S_delta.
The blocks are read off the dilation's sector chains, one diagonal per Kraus
operator, and a run of such factors composes block by block.  The TMSV input
sits in n1 = n2, so its image under such factors conserves n1 - n2 between
bra and ket, as does the amplification witness: both are kept as their
2c - 1 n1 - n2 sector blocks (about 2c^3/3 entries instead of c^4), and the
dense ``rho`` or ``matrix`` is assembled only when read.  ``expectation``
sums block traces, or gathers a dense operator at a sector state's entries.

A Gaussian unitary U on A' does not conserve n1 - n2 unless it is diagonal.
The unitary witness is built from the sector blocks of its squeezed core
either way: it stays in sectors for a diagonal U (the identity target, or a
rotation), and is gathered from the blocks into one dense product otherwise.
A leading run of unitary factors acts on the TMSV's c x c amplitude matrix
psi.  Attenuators and amplifiers after it act on psi's rows, one
first-slot diagonal at a time, written straight into the dense state; after
any other order of factors the dense state is formed once and the rest run
on it.  Truncation leakage is reported, never silently renormalized away.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from .symplectic import SymplecticSpec

SQUEEZE_LEAKAGE_WARN = 1e-4
PHASE_INSENSITIVE = ("attenuator", "amplifier")


class _Fock:
    """A dense complex matrix on ``modes`` truncated modes or, for two modes
    that conserve n1 - n2, its sector blocks: a list of (i, j, block) over the
    chains of :func:`_chains` (step +1), from which the dense matrix is
    assembled on first read."""

    _field = "matrix"

    def __init__(self, cutoff: int, modes: int, matrix):
        self._hold(cutoff, modes, np.array(matrix, dtype=complex), None)  # a caller's matrix is copied

    @classmethod
    def _built(cls, cutoff: int, modes: int, matrix=None, sectors=None):
        """Take over a matrix or sector list built in this module, without a copy."""
        obj = cls.__new__(cls)
        obj._hold(cutoff, modes, None if matrix is None else np.asarray(matrix, dtype=complex), sectors)
        return obj

    def _hold(self, cutoff, modes, matrix, sectors):
        self.cutoff, self.modes, self._sectors = cutoff, modes, sectors
        self._matrix = None if matrix is None else self._checked(matrix)

    def _checked(self, matrix: np.ndarray) -> np.ndarray:
        dim = self.cutoff**self.modes
        if matrix.shape != (dim, dim):
            raise ValueError(f"{self._field} shape {matrix.shape}, expected ({dim}, {dim})")
        matrix.setflags(write=False)
        return matrix

    def _dense(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._checked(_assemble(self._sectors, self.cutoff))
        return self._matrix


class FockOperator(_Fock):
    """Operator on a truncated Fock space of ``modes`` modes."""

    matrix = property(_Fock._dense)

    def is_hermitian(self) -> bool:
        return bool(max(np.max(np.abs(B - B.conj().T)) for B in _held_blocks(self)) <= 1e-10)

    def __sub__(self, other: FockOperator) -> FockOperator:
        """The difference, block by block when both sides are held in sectors."""
        if (self.cutoff, self.modes) != (other.cutoff, other.modes):
            raise ValueError("operator dimension mismatch")
        if self._sectors is not None and other._sectors is not None:
            sectors = [(i, j, A - B) for (i, j, A), (_, _, B) in zip(self._sectors, other._sectors)]
            return FockOperator._built(self.cutoff, self.modes, sectors=sectors)
        return FockOperator._built(self.cutoff, self.modes, self.matrix - other.matrix)


class FockState(_Fock):
    """Truncated density matrix; ``leakage`` reports the lost trace."""

    _field = "rho"
    rho = property(_Fock._dense)

    @property
    def leakage(self) -> float:
        if self._sectors is not None:
            return float(1.0 - sum(np.trace(B) for _, _, B in self._sectors))
        return float(1.0 - np.real(np.trace(self.rho)))


def _check_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_lam(lam: float) -> None:
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")


def destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def number_op(cutoff: int) -> FockOperator:
    return FockOperator._built(cutoff, 1, np.diag(np.arange(cutoff, dtype=complex)))


def g_theta(theta: float, cutoff: int) -> FockOperator:
    """Diagonal operator with entries tanh^{2n}(theta)."""
    _check_cutoff(cutoff)
    _check_finite("theta", theta)
    t2 = np.tanh(theta) ** 2
    return FockOperator._built(cutoff, 1, np.diag(t2 ** np.arange(cutoff, dtype=float)).astype(complex))


def thermal_fock(nbar: float, cutoff: int) -> FockState:
    if not 0 <= nbar < np.inf:
        raise ValueError(f"mean photon number must be finite and nonnegative, got {nbar}")
    n = np.arange(cutoff, dtype=float)
    p = nbar**n / (nbar + 1.0) ** (n + 1.0) if nbar > 0 else (n == 0).astype(float)
    return FockState._built(cutoff, 1, np.diag(p).astype(complex))


def _tmsv_amplitudes(r: float, cutoff: int) -> np.ndarray:
    """sech(r) tanh^n(r), the amplitude of |nn> in the two-mode squeezed vacuum."""
    _check_finite("r", r)
    return np.tanh(r) ** np.arange(cutoff, dtype=float) / np.cosh(r)


def tmsv_vector(r: float, cutoff: int) -> np.ndarray:
    """State vector of the two-mode squeezed vacuum, sech(r) sum tanh^n r |nn>."""
    psi = np.zeros(cutoff * cutoff, dtype=complex)
    psi[np.arange(cutoff) * cutoff + np.arange(cutoff)] = _tmsv_amplitudes(r, cutoff)
    return psi


def tmsv_fock(r: float, cutoff: int) -> FockState:
    psi = tmsv_vector(r, cutoff)
    return FockState._built(cutoff, 2, np.outer(psi, psi.conj()))


def _chains(cutoff: int, step: int) -> list:
    """Photon numbers (i, j) along each chain of states that L = a1+ a2+
    (step=+1) or a1+ a2 (step=-1) links, in order.

    L moves |i, j> to |i+1, j+step>, so it conserves n1 - n2 (step=+1) or
    n1 + n2 (step=-1), and the 2 cutoff - 1 chains partition the truncated
    two-mode space.  Each starts where L+ leaves it: at |0, j> for every j,
    then at |i, 0> (step=+1) or |i, cutoff-1> (step=-1) for i >= 1.  For
    step=+1 the chain starting at |0, j> has n1 - n2 = -j and the one at
    |i, 0> has n1 - n2 = i.
    """
    i, j, lengths = _chain_grid(cutoff, step)
    return [(a[:n], b[:n]) for a, b, n in zip(i, j, lengths)]


def _chain_grid(cutoff: int, step: int) -> tuple:
    """(i, j, lengths): row k of i and j holds the photon numbers of chain k
    of :func:`_chains` in its first lengths[k] entries, and runs on past them."""
    c = cutoff
    i0 = np.concatenate([np.zeros(c, dtype=int), np.arange(1, c)])
    j0 = np.concatenate([np.arange(c), np.full(c - 1, 0 if step > 0 else c - 1)])
    t = np.arange(c)
    return i0[:, None] + t, j0[:, None] + step * t, np.minimum(c - i0, c - j0 if step > 0 else j0 + 1)


def _exp_i(H: np.ndarray, col: np.ndarray | None = None) -> np.ndarray:
    """exp(-i H) for a stack of Hermitian matrices H (..., n, n), as
    V e^{-i Lambda} V+ from one stacked ``np.linalg.eigh``, or only column
    col[r] of matrix r when ``col`` is given.  Every matrix exponential of
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
    if col is not None:
        Vh = Vh[np.arange(col.size), :, col][..., None]  # column col[r] of V+ for matrix r
    if not real:
        X = (V * np.exp(-1j * lam)[..., None, :]) @ Vh
    else:  # cos and -sin interleaved, so the real product is the complex one
        W = np.empty(Vh.shape + (2,))
        np.multiply(np.cos(lam)[..., None], Vh, out=W[..., 0])
        np.multiply(-np.sin(lam)[..., None], Vh, out=W[..., 1])
        X = (V @ W.reshape(*Vh.shape[:-1], -1)).view(complex)
    return X if col is None else X[..., 0]


_PAD = 12  # chains of up to 2 _PAD states are exponentiated padded to _PAD or 2 _PAD
_SIGN = np.array([1.0, -1.0, -1.0, 1.0])  # Re(i^q x) = _SIGN[q] (Re x, Im x)[q % 2]


def _chain_exps(theta: float, cutoff: int, step: int, count: int, cols: np.ndarray | None = None):
    """exp(theta (L - L+)) on the first ``count`` chains of :func:`_chains`, as
    zero-padded stacks: yields (members, E), E[r] holding the block of chain
    members[r] in its leading corner and the identity past its length, or
    only its column cols[members[r]] when ``cols`` is given.

    On a chain, L has the weights w_k = theta <i+1, j+step|L|i, j>, so the
    block B (B[k+1, k] = w_k = -B[k, k+1]) is P (-i H) P^-1 with
    P = diag(i^k) and H the real symmetric tridiagonal matrix with
    off-diagonals w, and exp(B) = Re(P exp(-i H) P^-1).  A chain padded with
    zero weights leaves its padding uncoupled.  Short chains, whose
    exponential costs less than a call, are padded to ``_PAD`` or
    ``2 _PAD`` states; the longer ones run one length per stack.
    """
    i, j, lengths = (x[:count] for x in _chain_grid(cutoff, step))
    short = -(-lengths // _PAD) * _PAD
    padded = np.where(short <= 2 * _PAD, np.minimum(short, lengths.max()), lengths)
    for length in np.unique(padded):
        members = np.flatnonzero(padded == length)
        t = np.arange(length)
        linked = t[1:] < lengths[members, None]  # w_k links states k and k + 1 of the chain
        im, jm = i[members, :length], j[members, :length]
        w = theta * np.sqrt(np.where(linked, im[:, 1:] * np.maximum(jm[:, :-1], jm[:, 1:]), 0))
        H = np.zeros((members.size, length, length))
        H[:, t[1:], t[:-1]] = H[:, t[:-1], t[1:]] = w
        if cols is None:
            X, q = _exp_i(H), (t[:, None] - t) % 4
        else:
            X, q = _exp_i(H, cols[members]), (t - cols[members][:, None]) % 4
        yield members, np.where(q % 2, X.imag, X.real) * _SIGN[q]


def _two_mode_sectors(theta: float, cutoff: int, step: int, count: int) -> list:
    """Sector blocks of exp(theta (L - L+)) on the first ``count`` chains of
    :func:`_chains`: (i, j, E) per chain, E the exponentiated block over its states."""
    chains = _chains(cutoff, step)[:count]
    blocks = [None] * count
    for members, E in _chain_exps(theta, cutoff, step, count):
        for r, k in enumerate(members):
            n = chains[k][0].size
            blocks[k] = E[r, :n, :n]
    return [(i, j, E) for (i, j), E in zip(chains, blocks)]


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


def _squeezer_sectors(theta: float, cutoff: int) -> list:
    """The squeezer's sector blocks over every chain of :func:`_chains` (step +1).
    L has the same weights on the chain from |j, 0> as on the one from |0, j>,
    so each block is exponentiated once and read on both."""
    _check_squeezer(theta, cutoff)
    half = _two_mode_sectors(theta, cutoff, 1, cutoff)
    return half + [(j, i, E) for i, j, E in half[1:]]


def _assemble(sectors: list, cutoff: int) -> np.ndarray:
    U = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    for i, j, E in sectors:
        idx = i * cutoff + j
        U[np.ix_(idx, idx)] = E
    return U


def squeeze2_fock(theta: float, cutoff: int) -> FockOperator:
    """Two-mode squeezer exp(theta (a1+ a2+ - a1 a2)); S_theta |00> = TMSV(theta)."""
    return FockOperator._built(cutoff, 2, _assemble(_squeezer_sectors(theta, cutoff), cutoff))


def _beamsplitter_angle(transmissivity: float) -> float:
    if not 0 <= transmissivity <= 1:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    return float(np.arccos(np.sqrt(transmissivity)))


def beamsplitter_fock(transmissivity: float, cutoff: int) -> FockOperator:
    """Beamsplitter with amplitude transmission sqrt(transmissivity)."""
    sectors = _two_mode_sectors(_beamsplitter_angle(transmissivity), cutoff, -1, 2 * cutoff - 1)
    return FockOperator._built(cutoff, 2, _assemble(sectors, cutoff))


def displace_fock(beta: complex, cutoff: int) -> np.ndarray:
    """exp(beta a+ - conj(beta) a), the exponential of the Hermitian i (beta a+ - conj(beta) a)."""
    a = destroy(cutoff)
    return _exp_i(1j * (beta * a.conj().T - np.conj(beta) * a))


def squeeze1_fock(r: float, cutoff: int) -> np.ndarray:
    """exp(r (a+^2 - a^2) / 2), the exponential of the Hermitian i r (a+^2 - a^2) / 2."""
    a = destroy(cutoff)
    return _exp_i(0.5j * r * (a.conj().T @ a.conj().T - a @ a))


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
    return FockOperator._built(cutoff, 1, U)


def performance_operator_avg_fidelity(g: float, lam: float, cutoff: int) -> FockOperator:
    """Performance operator of the gain-g average-fidelity test on A' (x) A.

    Omega = int d^2a/pi lam e^{-lam|a|^2} |g a><g a| (x) |a*><a*|, element by
    element: the angle average keeps only m - n = m' - n', and the radial
    integral is a Gamma function, so with s = m + n' and A = lam + 1 + g^2

        <m n|Omega|m' n'> = lam g^(m+m') s! / (A^(s+1) sqrt(m! n! m'! n'!)),

    evaluated in log space.
    """
    if not (0 < g < np.inf and 0 < lam < np.inf):
        raise ValueError(f"g and lam must be positive and finite, got g={g}, lam={lam}")
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 2 * cutoff - 1)))))
    m, n, m2, n2 = np.ogrid[:cutoff, :cutoff, :cutoff, :cutoff]
    s = m + n2
    log_omega = (
        np.log(lam) + (m + m2) * np.log(g) + log_fact[s] - (s + 1) * np.log(lam + 1.0 + g * g)
        - 0.5 * (log_fact[m] + log_fact[n] + log_fact[m2] + log_fact[n2])
    )
    omega = np.where(m - n == m2 - n2, np.exp(log_omega), 0.0)
    return FockOperator._built(cutoff, 2, omega.reshape(cutoff * cutoff, cutoff * cutoff))


def canonical_observable(
    g: float, lam: float, cutoff: int, check_convergence: bool = True
) -> FockOperator:
    """The single observable on A' (x) R whose mean equals the average fidelity.

    Built from the performance operator by a partial transpose on the input
    slot and an inverse-square-root sandwich with the thermal reference state
    of mean photon number 1/lam.  The performance operator here already
    carries the conjugated amplitude in its second slot, which in the Fock
    basis *is* the input-slot transpose, so only the sandwich remains.

    ``check_convergence`` is accepted and ignored: the performance operator is
    exact, so there is no quadrature left to check.
    """
    p = np.arange(cutoff, dtype=float)
    rho_r = (lam / (1.0 + lam)) * (1.0 / (1.0 + lam)) ** p
    if rho_r.min() < 1e-12:
        raise ValueError(
            f"reference thermal state ill-conditioned: smallest retained eigenvalue "
            f"{rho_r.min():.2e} < 1e-12 (cutoff too large for lam={lam})"
        )
    omega = performance_operator_avg_fidelity(g, lam, cutoff).matrix
    inv_sqrt = np.tile(1.0 / np.sqrt(rho_r), cutoff)  # diagonal of 1 (x) rho_R^(-1/2)
    O = inv_sqrt[:, None] * omega * inv_sqrt
    return FockOperator._built(cutoff, 2, 0.5 * (O + O.conj().T))


def _squeezed_sectors(
    theta: float, v: np.ndarray, slot: int, cutoff: int, keep: int | None = None
) -> list:
    """Sector blocks of S_theta D S_theta+ for the diagonal D that is diag(v)
    on one slot (0 = A', 1 = R) and the identity on the other, evaluated at
    ``cutoff``, truncated to photon numbers below ``keep`` (default
    ``cutoff``) and symmetrized.

    D is diagonal, so each sector block E of the squeezer gives E diag(d) E^T.
    Photon numbers grow along a sector's chain, so the kept states of each
    block are a prefix of it, and the chains that keep any are those of
    :func:`_chains` at ``keep``, in the same order: the chains from |0, k>
    and from |k, 0>, k < keep.  The two share their block E and swap the
    slots, so d along the first is v[t] on slot 0 and v[k + t] on slot 1,
    and the reverse along the second; both products run in one stack.
    """
    keep = cutoff if keep is None else keep
    _check_squeezer(theta, cutoff)
    chains = _chains(cutoff, 1)[:keep]  # chain k runs over (t, k + t)
    cores = [None] * keep
    for members, E in _chain_exps(theta, cutoff, 1, keep):
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

    The squeezer conjugation is evaluated at ``embed_cutoff`` (default
    ``cutoff + 18``) and truncated back, because at the working cutoff the
    highest photon-number-difference sectors of a truncated squeezer
    degenerate and corrupt the corner entries.  Both branches conserve
    n1 - n2, so the result is held as its sector blocks.
    """
    big = cutoff + 18 if embed_cutoff is None else embed_cutoff
    if big < cutoff:
        raise ValueError("embed_cutoff must be at least cutoff")
    root = np.sqrt(lam + 1.0)
    if not (g < root or g > root):
        raise ValueError("closed form diverges at g = sqrt(lam+1); use the integrated form")
    slot = int(g > root)  # G_theta sits on A' below the transition, on R above it
    theta = np.arctanh(root / g if slot else g / root)
    G = np.diag(g_theta(theta, big).matrix).real
    scale = np.tanh(theta) ** (2 * slot)
    sectors = [(i, j, B * scale) for i, j, B in _squeezed_sectors(theta, G, slot, big, keep=cutoff)]
    return FockOperator._built(cutoff, 2, sectors=sectors)


def witness_fock_unitary(spec: SymplecticSpec, lam: float, cutoff: int) -> FockOperator:
    """Average-fidelity witness for a single-mode Gaussian unitary target, on A' (x) R.

    1 - k (U (x) 1) C (U+ (x) 1) with k = lam/(lam+1) and the squeezed core
    C = S_kappa (n (x) 1) S_kappa+, kappa = arctanh(1 / sqrt(lam+1)), built
    as its n1 - n2 sector blocks C_s.  A diagonal U = diag(u) keeps n1 - n2,
    so the witness is held as the blocks 1 - k diag(u_i) C_s diag(conj(u_i))
    over each chain's first-slot photon numbers i.  Any other U gives a dense
    witness: <ij|C (U+ (x) 1)|bl> = sum_m <ij|C|ml> conj(U[b, m]) has the
    one term m = i - j + l, so it is gathered from the blocks and scaled,
    with no product, and U (x) 1 multiplies it from the left as one GEMM.
    """
    _check_lam(lam)
    _check_cutoff(cutoff)
    k = lam / (lam + 1.0)
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    U = gaussian_unitary_fock(spec, cutoff).matrix
    core = _squeezed_sectors(kappa, np.arange(cutoff, dtype=float), 0, cutoff)
    u = np.diagonal(U)
    if not np.count_nonzero(U - np.diag(u)):
        sectors = []
        for i, j, C in core:
            W = -k * (u[i, None] * C * u[i].conj())
            W[np.diag_indices(i.size)] += 1.0
            sectors.append((i, j, W))
        return FockOperator._built(cutoff, 2, sectors=sectors)
    c = cutoff
    Ubar = -k * U.conj()
    R = np.zeros((c, c, c, c), dtype=complex)  # -k C (U+ (x) 1) as [i, j, b, l]
    for i, j, C in core:
        # a chain's columns are its own states |i_u j_u>, and i, j step by 1, so slices
        R[i, j, :, j[0]:j[0] + i.size] = C[:, None, :] * Ubar[:, i[0]:i[0] + i.size]
    W = (U @ R.reshape(c, c**3)).reshape(c * c, c * c)
    W[np.diag_indices(c * c)] += 1.0
    return FockOperator._built(cutoff, 2, W)


def witness_fock_amp(g: float, lam: float, cutoff: int) -> FockOperator:
    """Average-fidelity witness for the gain-g amplification test, on A' (x) R.

    (lam+1)/g^2 (1 - (g^2-lam-1)/g^2 S_theta' (1 (x) n) S_theta'+) with
    theta' = arctanh(sqrt(lam+1) / g), held as its n1 - n2 sector blocks: the
    squeezer's chain blocks E diag(n_R) E^T inside the identity's.
    """
    _check_lam(lam)
    root = np.sqrt(lam + 1.0)
    if not root < g < np.inf:
        raise ValueError(f"amplification witness requires finite g > sqrt(lam+1) = {root:.4f}, got {g}")
    theta_p = np.arctanh(root / g)
    scale, weight = (lam + 1.0) / g**2, (g**2 - lam - 1.0) / g**2
    sectors = []
    for i, j, core in _squeezed_sectors(theta_p, np.arange(cutoff, dtype=float), 1, cutoff):
        sectors.append((i, j, scale * (np.eye(i.size) - weight * core)))
    return FockOperator._built(cutoff, 2, sectors=sectors)


def _kraus_diagonals(kind: str, param: float, cutoff: int) -> list:
    """(shift, values) of each Kraus operator <k|_E U |0>_E of the dilation U of
    an "attenuator" (a beamsplitter) or "amplifier" (a squeezer), read off U's sector
    chains: K_k lies on the one diagonal K[p, p + shift], and ``values`` is
    ``np.diagonal(K_k, shift)``.

    The beamsplitter keeps n1 + n2, so K_k[i, i + k] = <i, k|U|i + k, 0> is the
    last column of the chain of total i + k (shift k); the squeezer keeps
    n1 - n2, so K_k[q + k, q] = <q + k, k|U|q, 0> is entry k of the first
    column of the chain starting at |q, 0> (shift -k), whose block is that
    of the chain from |0, q>.  Past a chain's length, a padded column is zero.
    """
    c = cutoff
    table = np.zeros((c, c))
    if kind == "attenuator":
        if not 0 < param <= 1:
            raise ValueError("transmissivity must lie in (0, 1]")
        # the chain starting at |0, N>, N < c, holds |N, 0> last, at position N
        for N, E in _chain_exps(_beamsplitter_angle(param), c, -1, c, cols=np.arange(c)):
            table[N, : E.shape[-1]] = E  # table[i + k, i] = K_k[i, i + k]
        return [(k, np.diagonal(table, -k)) for k in range(c)]
    if param < 1:
        raise ValueError("amplifier gain must be at least 1")
    theta = np.arccosh(param)
    _check_squeezer(theta, c)
    for q, E in _chain_exps(theta, c, 1, c, cols=np.zeros(c, dtype=int)):
        table[q, : E.shape[-1]] = E  # table[q, k] = K_k[q + k, q]
    return [(-k, table[: c - k, k]) for k in range(c)]


def attenuator_kraus(eta: float, cutoff: int) -> list[np.ndarray]:
    """Kraus operators of the pure-loss channel from its beamsplitter dilation."""
    return [np.diag(d.astype(complex), s) for s, d in _kraus_diagonals("attenuator", eta, cutoff)]


def amplifier_kraus(g: float, cutoff: int) -> list[np.ndarray]:
    """Kraus operators of the quantum-limited amplifier from its squeezer dilation."""
    return [np.diag(d.astype(complex), s) for s, d in _kraus_diagonals("amplifier", g, cutoff)]


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


def _run_transfer(ops: list[tuple], cutoff: int) -> np.ndarray:
    """Composed transfer blocks of attenuator and amplifier factors applied
    left to right (the identity's for none)."""
    S = None
    for kind, param in ops:
        T = _transfer(_kraus_diagonals(kind, param, cutoff), cutoff)
        S = T if S is None else T @ S
    if S is None:
        p = np.arange(cutoff)
        S = np.eye(cutoff) * (p[:, None] + p < cutoff)[:, :, None]
    return S


def _apply_transfer(rho: np.ndarray, S: np.ndarray, cutoff: int) -> np.ndarray:
    """The channel of transfer blocks S on the first slot of a dense two-mode rho:
    with rho[i, j, k, l] = <ij|rho|kl>, diagonal delta = k - i of the (i, k)
    pair is an (n, cutoff^2) slab that S_delta multiplies, the reference pair
    (j, l) riding along."""
    c = cutoff
    T = np.asarray(rho).reshape(c, c, c, c).transpose(0, 2, 1, 3).reshape(c, c, c * c)  # rows (i, k)
    out = np.empty(T.shape, dtype=complex)
    for delta in range(1 - c, c):
        n = c - abs(delta)
        i = np.arange(max(0, -delta), min(c, c - delta))
        block = S[delta, :n, :n] if delta >= 0 else S[-delta, :n, :n].conj()
        out[i, i + delta] = block @ T[i, i + delta]
    return out.reshape(c, c, c, c).transpose(0, 2, 1, 3).reshape(c * c, c * c)


def _transfer_pure(psi: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The channel of real transfer blocks S on the first slot of the pure
    state with amplitude matrix psi[i, j] = <ij|psi>, as a dense rho.

    Diagonal delta >= 0 of the (i, k) pair is the (n, c, c) slab
    psi[q, j] conj(psi[q + delta, l]), which S_delta multiplies and writes
    straight into rho[p, :, p + delta, :]; diagonal -delta is its conjugate
    transpose.  S is real, so it multiplies a slab's real and imaginary
    parts as one real product.
    """
    c = psi.shape[0]
    rho = np.empty((c, c, c, c), dtype=complex)  # rho[i, j, k, l] = <ij|rho|kl>
    for delta in range(c):
        n = c - delta
        p = np.arange(n)
        slab = psi[:n, :, None] * psi[delta:, None, :].conj()
        out = (S[delta, :n, :n] @ slab.view(float).reshape(n, -1)).view(complex).reshape(n, c, c)
        rho[p, :, p + delta, :] = out
        if delta:
            rho[p + delta, :, p, :] = out.conj().transpose(0, 2, 1)
    return rho.reshape(c * c, c * c)


def _shift(K: np.ndarray) -> int | None:
    """The fixed amount K moves photon number by, q - p over its nonzeros K[p, q], or None."""
    rows, cols = np.nonzero(K)
    shifts = np.unique(cols - rows)
    return int(shifts[0]) if shifts.size == 1 else None


def apply_kraus_first_mode(rho: np.ndarray, kraus: list[np.ndarray], cutoff: int) -> np.ndarray:
    """sum_K (K (x) 1) rho (K (x) 1)+ for any two-mode matrix rho, without
    forming K (x) 1.  With rho[i, j, k, l] = <ij|rho|kl>, K acts on the index
    pair (i, k) and the reference pair (j, l) rides along.

    When every K moves photon number by a fixed amount (every attenuator and
    amplifier Kraus operator does), the channel keeps k - i and acts through
    its transfer blocks, one per diagonal of the (i, k) pair.  Otherwise K
    contracts into i (the rows of the (c, c^3) view) and conj(K) into k (the
    rows of each (k, l) block).
    """
    c = cutoff
    shifts = [_shift(K) for K in kraus]
    if kraus and None not in shifts:
        diagonals = [(s, np.diagonal(K, s)) for s, K in zip(shifts, kraus)]
        return _apply_transfer(rho, _transfer(diagonals, c), c)
    R = np.asarray(rho).reshape(c, c, c, c)
    out = np.zeros(R.shape, dtype=complex)
    for K in kraus:
        out += K.conj() @ (K @ R.reshape(c, -1)).reshape(R.shape)
    return out.reshape(c * c, c * c)


def apply_elementary_first_mode(
    rho: np.ndarray, ops: list[tuple], cutoff: int
) -> np.ndarray:
    """Apply a sequence of elementary single-mode channel factors to the first slot.

    Each factor is ("unitary", SymplecticSpec), ("attenuator", eta) or
    ("amplifier", g); see :func:`cvverify.channels.elementary_factors`.  A run
    of consecutive attenuators and amplifiers is composed block by block and
    applied to rho once.
    """
    for insensitive, run in itertools.groupby(ops, key=lambda op: op[0] in PHASE_INSENSITIVE):
        run = list(run)
        if insensitive:
            rho = _apply_transfer(rho, _run_transfer(run, cutoff), cutoff)
            continue
        for kind, param in run:
            if kind != "unitary":
                raise ValueError(f"unknown elementary channel factor {kind!r}")
            rho = apply_kraus_first_mode(rho, [gaussian_unitary_fock(param, cutoff).matrix], cutoff)
    return rho


def entangled_output_fock(ops: list[tuple], lam: float, cutoff: int) -> FockState:
    """(E (x) I) applied to the TMSV purification of the lam-prior, in Fock space.

    With attenuators and amplifiers only (or no factor), the output keeps
    n1 - n2 and is returned as its sector blocks: the TMSV's amplitudes a_n
    sit on |nn>, so <i j|rho|i+delta j+delta> = S_delta[i, j] a_j a_(j+delta)
    from the composed transfer blocks, and entry (t, u) of a chain's block
    reads S_|u-t| at the chain's earlier state.

    Otherwise the output is dense.  A leading run of unitary factors acts on
    the TMSV as the c x c amplitude matrix psi[i, j] = <ij|psi>, from
    diag(a) to U diag(a).  When only attenuators and amplifiers follow, their
    composed transfer blocks act on psi's rows (:func:`_transfer_pure`);
    after any other order, rho = |psi><psi| is formed once for the factors
    after the run.
    """
    _check_lam(lam)
    _check_cutoff(cutoff)
    kappa = np.arctanh(1.0 / np.sqrt(lam + 1.0))
    a = _tmsv_amplitudes(kappa, cutoff)
    if not all(kind in PHASE_INSENSITIVE for kind, _ in ops):
        lead = len(list(itertools.takewhile(lambda op: op[0] == "unitary", ops)))
        psi = np.diag(a).astype(complex)
        for _, spec in ops[:lead]:
            psi = gaussian_unitary_fock(spec, cutoff).matrix @ psi
        rest = ops[lead:]
        if rest and all(kind in PHASE_INSENSITIVE for kind, _ in rest):
            return FockState._built(cutoff, 2, _transfer_pure(psi, _run_transfer(rest, cutoff)))
        rho = np.outer(psi, psi.conj())
        return FockState._built(cutoff, 2, apply_elementary_first_mode(rho, rest, cutoff))
    S = _run_transfer(ops, cutoff)
    sectors = []
    for i, j in _chains(cutoff, 1):
        t = np.arange(i.size)
        first = np.minimum.outer(t, t)
        sectors.append((i, j, S[np.abs(t[:, None] - t), i[first], j[first]] * np.outer(a[j], a[j])))
    return FockState._built(cutoff, 2, sectors=sectors)


def _held_blocks(x: _Fock) -> list:
    """x's sector blocks, or its dense matrix as the only block."""
    return [B for _, _, B in x._sectors] if x._sectors is not None else [x._dense()]


def _blocks(x: _Fock) -> list:
    """x's blocks over the n1 - n2 chains: its own, or gathered from its dense matrix."""
    if x._sectors is not None:
        return [B for _, _, B in x._sectors]
    M, c = x._dense(), x.cutoff
    return [M[np.ix_(i * c + j, i * c + j)] for i, j in _chains(c, 1)]


def expectation(op: FockOperator, state: FockState) -> float:
    if op.cutoff != state.cutoff or op.modes != state.modes:
        raise ValueError("operator/state dimension mismatch")
    if op._sectors is None and state._sectors is None:
        return float(np.real(np.sum(op.matrix * state.rho.T)))  # tr(A B) in O(d^2)
    # one side is block diagonal over the n1 - n2 chains, so tr(A B) sums block traces
    return float(np.real(sum(np.sum(A * B.T) for A, B in zip(_blocks(op), _blocks(state)))))


def max_eigenvalue(op: FockOperator) -> float:
    """Largest eigenvalue of a Hermitian operator, the largest over its n1 - n2
    blocks when it is held in sectors."""
    return float(max(np.linalg.eigvalsh(B)[-1] for B in _held_blocks(op)))


def default_cutoff(lam: float) -> int:
    """Smallest cutoff keeping the TMSV input's truncation leakage below 1e-6."""
    _check_lam(lam)
    nbar = 1.0 / lam
    x = nbar / (nbar + 1.0)
    if x >= 1.0:
        raise ValueError(f"lam = {lam} is too small for a finite cutoff")
    n = int(np.ceil(np.log(1e-6) / np.log(x)))
    return max(n, 2)
