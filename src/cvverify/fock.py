"""Truncated Fock-space oracle.

The operators that back the analytic phase-space results: the diagonal of
the damping operator G_theta = sum_n tanh^{2n}(theta) |n><n|, the two-mode
squeezer's chain blocks, single-mode Gaussian unitaries, attenuator and
amplifier Kraus operators, the performance operator, the canonical benchmark
observable, and both average-fidelity witnesses.

Two-mode operators act on A' (x) R with index i * cutoff + j for
|i>_{A'} |j>_R (plain ``np.kron`` ordering), and are held by the photon
number they conserve.  The two-mode squeezer conserves n1 - n2, so its
truncated generator is a direct sum of tridiagonal blocks, one per chain of
states it links; this is the module's one chain family.
Every matrix exponential is an angle theta times a fixed unit generator made
of real antisymmetric tridiagonal blocks: the squeezer's chain blocks,
zero-padded into a few length classes; the displacement's a+ - a, in the
phase frame of beta; and the single-mode squeezer's even and odd chains.
Each unit generator's spectrum (Lambda, V) comes from one stacked ``eigh``
per (generator, cutoff, chain count), and a call only scales it:
exp(-i theta H) = V e^{-i theta Lambda} V+, through one numpy kernel
(:func:`_exp_tridiagonal`), which returns the identity exactly at theta = 0.
The squeezer's chains from |0, j> and |j, 0> have the same generator, so
each such pair is exponentiated once, and a diagonal core inside a squeezer
sandwich is conjugated in the same stacks.
The performance operator is the closed-form Gaussian integral over the
coherent prior, element by element; it conserves n1 - n2 too, so it and the
canonical observable are built over the wrapped grid below at once.  The
module needs numpy only.

Every object that conserves n1 - n2 is held as one (c, c, c) array W, its
wrapped stack: row x of wrapped diagonal s is the state |x, (x + s) mod c>,
which holds the chain from |0, s> (rows x < c - s) and the one from
|c - s, 0> (rows x >= c - s), and W[s] is block diagonal over the two, with
exact zeros between them (c^3 entries instead of c^4).  So each operation
on the chains is one array operation: a difference or a frame fold is one
expression, the dense matrix one scatter, a trace of a product one
``einsum``, and the largest eigenvalue one stacked ``eigvalsh`` (a two-block
diagonal has exactly its chains' eigenvalues).

The attenuator's Kraus operators are in closed form; the amplifier's are read
off its truncated squeezer dilation, which is unitary on the truncated space
and so keeps the trace (see :func:`_kraus_diagonals`).  Each Kraus operator
is one diagonal, so these channels act on each difference delta of the two
first-slot indices as one transfer block S_delta, all of them read off the
Kraus operators' sum in one gather, and a run of them composes block by
block.  A channel factor is held as one Kraus table, T[k, m] entry m of K_k's
diagonal, so its action on a stack of matrices is one padded gather.  The
TMSV sits in n1 = n2, so its image under them conserves n1 - n2, as does the
amplification witness: both are kept as wrapped stacks, the output gathered
at once.  The unitary witness is kept as the stack of 1 - k C in the frame
U (x) 1 of the target's unitary U (folded into the stack when U is
diagonal), and an output with a unitary factor in amplitude form: psi, the
TMSV's c x c amplitudes after the leading unitaries, and the later factors,
so rho = sum_n phi_n phi_n+ over terms phi_n with one Kraus operator (a shift
and scale of rows) per attenuator or amplifier.  ``expectation`` contracts
these forms without a dense c^4 array: the trace of two stacks, F_s+ W[s] F_s
over an operator's wrapped diagonals for F_s the terms' U+ phi_n at the
diagonal's states (c^3 per term in O(c^3) memory), or the shared
photon-number shifts of a framed operator and a stacked state (c^4).  The
``matrix`` of an operator held in sectors is assembled, read-only, only when
read; a framed operator and a state have no dense form.  Truncation leakage
is reported, never silently renormalized away.

One cutoff rule holds everywhere: each public function with a ``cutoff``
refuses, on entry and before it forms any array, a cutoff outside
[2, MAX_CUTOFF = 256].  The largest arrays of a two-mode path (the transfer
blocks, the wrapped stacks, the amplitude-form stacks, the framed trace's
shift diagonals) hold about c^3 entries, and 256^3 = 4096^2, a dense matrix
of dimension 4096.
A cutoff that is not an integer is refused the same way.

Two least-recently-used caches keep what does not depend on the prover, by
one rule (:func:`_cached`).  The squeezed cores S_theta D S_theta+ of a
specification (the unitary witness's core, the amplification witness and
the closed-form observable's branches) depend on theta, D and the cutoff
only, so ``_squeezed_sectors`` keeps them keyed on (theta, the bytes of D's
diagonal, its slot, the cutoff, the kept cutoff).  The unit generators'
spectra are kept keyed on (generator, cutoff, chain count).  Each cache is
bounded by its total entries (stack entries, eigenvector entries),
_CORE_ENTRIES = 2^22 (32 MB of float64), drops the least recently used
values first, and never keeps one above the bound alone: a core kept to
cutoff c is one c^3 stack, so one at c >= 162 is never kept, and the
squeezer's chain spectra hold about c^3/3 entries, so theirs at c >= 233 are
not (5.6e6 entries at c = 256).  Cached arrays are read-only: a core is
returned as the kept array itself, which every use copies as it folds,
scales or subtracts, and the spectra as a fresh list of kept arrays each
call.  Argument checks and the squeezer's leakage
warning run on every call, before the lookup; the prover's Kraus
operators, outputs and unitaries are built per call, by scaling the cached
spectra.
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
_CORE_ENTRIES = 1 << 22  # entries each cache of _cached may hold (32 MB of float64)

# The caches of _cached, each value (a list of tuples of arrays, its entries),
# least recently used first: the squeezed cores of _squeezed_sectors, and the
# spectra of the unit generators that every exponential scales.
_CORES: OrderedDict = OrderedDict()
_SPECTRA: OrderedDict = OrderedDict()
_CACHE_LOCK = threading.Lock()


@dataclass(eq=False, repr=False)
class _Fock:
    """A two-mode matrix M at photon-number cutoff ``cutoff`` = c on each
    mode, held as its wrapped n1 - n2 stack ``sectors`` or in a factored
    ``form`` that the subclass defines.

    The stack is one (c, c, c) array W: row x of wrapped diagonal s is the
    state |x, (x + s) mod c>, and W[s, x, y] = <x, (x + s) mod c|M|y, (y + s) mod c>.
    Diagonal s holds the chain from |0, s> (rows x < c - s) and the one from
    |c - s, 0> (rows x >= c - s), each state at x = its first-slot photon
    number; M conserves n1 - n2, so W[s] is block diagonal over the two,
    with exact zeros between them (see :func:`_wrapped_grid`)."""

    cutoff: int
    sectors: np.ndarray | None = None
    form: tuple | None = None

    def __post_init__(self):
        if (self.sectors is None) == (self.form is None):
            raise ValueError("a Fock object holds either its sector stack or a form")


class FockOperator(_Fock):
    """Two-mode operator.  Its ``form``, if any, is (U, sectors): the wrapped
    stack of B in the frame of a unitary U on the first mode, the operator
    (U (x) 1) B (U+ (x) 1).  The ``matrix`` of an operator held in sectors
    is assembled, read-only, on first read; a framed operator has none."""

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        if self.sectors is None:
            raise ValueError("a dense matrix is assembled only from an operator held in sectors")
        M = _assemble(self.sectors)
        M.setflags(write=False)
        return M

    def __sub__(self, other: FockOperator) -> FockOperator:
        """The difference of two operators held in sectors, one stack minus the other."""
        held = isinstance(other, FockOperator) and self.sectors is not None and other.sectors is not None
        if not held or self.cutoff != other.cutoff:
            raise ValueError("a difference is taken only between operators held in sectors at one cutoff")
        return FockOperator(self.cutoff, self.sectors - other.sectors)


class FockState(_Fock):
    """Truncated two-mode density matrix; ``leakage`` reports the lost trace.
    Its ``form``, if any, is the amplitude form (psi, factors) of
    :func:`entangled_output_fock`."""

    @property
    def leakage(self) -> float:
        if self.sectors is not None:
            return float(1.0 - np.einsum("sxx->", self.sectors).real)
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


def _chain_grid(cutoff: int) -> tuple:
    """(i, j, lengths) of the chains of states that L = a1+ a2+ links: row k
    of i and j holds the photon numbers along chain k, in order, in its first
    lengths[k] entries, and 0, the vacuum, past them.

    L moves |i, j> to |i+1, j+1>, so it conserves n1 - n2, and the
    2 cutoff - 1 chains partition the truncated two-mode space.  Each starts
    where L+ leaves it: at |0, j> for every j (chain j), then at |i, 0> for
    i >= 1 (chain cutoff - 1 + i), the same length as the one from |0, i>.
    """
    c = cutoff
    i0 = np.concatenate([np.zeros(c, dtype=int), np.arange(1, c)])
    j0 = np.concatenate([np.arange(c), np.zeros(c - 1, dtype=int)])
    t = np.arange(c)
    lengths = c - np.maximum(i0, j0)
    live = t < lengths[:, None]
    return np.where(live, i0[:, None] + t, 0), np.where(live, j0[:, None] + t, 0), lengths


def _wrapped_grid(cutoff: int) -> np.ndarray:
    """j[s, x] = (x + s) mod c, the second-slot photon number of row x of
    diagonal s of the wrapped stacks of :class:`_Fock`."""
    x = np.arange(cutoff)
    return (x + x[:, None]) % cutoff


def _cached(store: OrderedDict, key: tuple, build) -> list:
    """``build()``, a list of tuples of arrays, kept in ``store`` under ``key``.

    Each store is a least-recently-used cache bounded by the entries of the
    last array of each tuple (a core's stack, a spectrum's eigenvectors),
    _CORE_ENTRIES in all: it drops the least recently used values first and
    never keeps one above the bound alone.  Kept arrays are read-only, and
    each call returns a fresh list of them.
    """
    with _CACHE_LOCK:
        held = store.pop(key, None)
        if held is not None:
            store[key] = held  # the most recently used sits last
            return list(held[0])
    value = build()
    size = sum(arrays[-1].size for arrays in value)
    if size > _CORE_ENTRIES:
        return value
    # copies: a view would keep its whole padded stack alive, uncounted by the bound
    value = [tuple(x.copy() for x in arrays) for arrays in value]
    for arrays in value:
        for x in arrays:
            x.setflags(write=False)
    with _CACHE_LOCK:
        store[key] = value, size
        while sum(n for _, n in store.values()) > _CORE_ENTRIES:
            store.popitem(last=False)
    return list(value)


def _spectrum(w: np.ndarray) -> tuple:
    """(Lambda, V) from one stacked ``np.linalg.eigh`` of the real symmetric
    tridiagonal matrices H with zero diagonal and off-diagonals w (..., n - 1)."""
    n = w.shape[-1] + 1
    t = np.arange(n)
    H = np.zeros(w.shape[:-1] + (n, n))
    H[..., t[1:], t[:-1]] = H[..., t[:-1], t[1:]] = w
    return np.linalg.eigh(H)


_QUARTER = np.array([1.0, 1.0, -1.0, -1.0])  # exp(theta B)[k, l] = _QUARTER[(k - l) % 4] X[k, l]


def _exp_tridiagonal(spectrum: tuple, theta: float, first_column: bool = False) -> np.ndarray:
    """exp(theta B) for a stack of real antisymmetric tridiagonal B with
    B[k+1, k] = w_k = -B[k, k+1], from the ``spectrum`` (Lambda, V) of
    :func:`_spectrum` of the off-diagonals w, or only the first column of
    each when ``first_column``.  Every matrix exponential of the oracle
    goes through here; theta only scales the cached spectrum.

    B = P (-i H) P^-1 with P = diag(i^k), so exp(theta B)[k, l] =
    i^(k - l) (V e^{-i theta Lambda} V^T)[k, l].  H links only states of
    opposite parity, so V cos(theta Lambda) V^T vanishes where k - l is odd
    and V sin(theta Lambda) V^T where it is even, and exp(theta B) is
    X = V (cos + sin)(theta Lambda) V^T with the signs _QUARTER[(k - l) % 4]:
    one real product per stack.  At theta = 0 it is the identity exactly,
    which V V^T is only to rounding.  When |theta| max |lambda| eps >= 1,
    e^{-i theta lambda} keeps no significant digit in double precision, and
    that is an error rather than a result.
    """
    lam, V = spectrum
    top = abs(theta) * float(np.max(np.abs(lam), initial=0.0))
    if not top * np.finfo(float).eps < 1.0:
        raise ValueError(
            f"matrix exponential of a generator with eigenvalue {top:.3g} is not finite in double precision"
        )
    t = np.arange(V.shape[-1])
    if theta == 0:
        E = np.zeros(V.shape)
        E[..., t, t] = 1.0
        return E[..., 0] if first_column else E
    f = np.cos(theta * lam) + np.sin(theta * lam)
    if first_column:
        return _QUARTER[t % 4] * (V @ (f * V[..., 0, :])[..., None])[..., 0]
    return _QUARTER[(t[:, None] - t) % 4] * ((V * f[..., None, :]) @ V.swapaxes(-1, -2))


_PAD = 12  # chains of up to 2 _PAD states are stacked padded to _PAD or 2 _PAD


def _chain_exps(theta: float, cutoff: int, count: int, first_column: bool = False):
    """exp(theta (L - L+)) on the first ``count`` chains of :func:`_chain_grid`, as
    zero-padded stacks: yields (members, E), E[r] holding the block of chain
    members[r] in its leading corner and the identity past its length, or
    only its first column when ``first_column``.  The spectra of the unit
    blocks, theta = 1, are built once per (cutoff, count) while the cache
    of :func:`_cached` holds them (:func:`_chain_spectra`)."""
    spectra = _cached(_SPECTRA, ("chains", cutoff, count), lambda: _chain_spectra(cutoff, count))
    for members, lam, V in spectra:
        yield members, _exp_tridiagonal((lam, V), theta, first_column)


def _chain_spectra(cutoff: int, count: int) -> list:
    """(members, Lambda, V) per stack of the unit chain blocks of
    :func:`_chain_exps`.  On a chain, L has the weights
    w_k = <i+1, j+1|L|i, j>, the off-diagonals of :func:`_exp_tridiagonal`;
    past a chain's end the grid's vacuum gives zero weights, which leave
    the padding uncoupled.  Short chains, whose spectrum costs less than a
    call, are padded to ``_PAD`` or ``2 _PAD`` states; the longer ones run
    one length per stack."""
    i, j, lengths = (x[:count] for x in _chain_grid(cutoff))
    short = -(-lengths // _PAD) * _PAD
    padded = np.where(short <= 2 * _PAD, np.minimum(short, lengths.max()), lengths)
    spectra = []
    for length in np.unique(padded):
        members = np.flatnonzero(padded == length)
        spectra.append((members, *_spectrum(np.sqrt(i[members, 1:length] * j[members, 1:length]))))
    return spectra


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


def _assemble(sectors: np.ndarray) -> np.ndarray:
    """The dense c^2 x c^2 matrix of a wrapped stack, in one scatter: the
    diagonals partition the states, so each entry of the stack lands once."""
    c = sectors.shape[0]
    state = np.arange(c) * c + _wrapped_grid(c)  # state[s, x], the index i c + j of row x of diagonal s
    M = np.zeros((c * c, c * c), dtype=complex)
    M[state[:, :, None], state[:, None, :]] = sectors
    return M


def displace_fock(beta: complex, cutoff: int) -> np.ndarray:
    """exp(beta a+ - conj(beta) a) = R exp(|beta| (a+ - a)) R+ in the phase
    frame R = e^{i phi n} of beta = |beta| e^{i phi}.  a+ - a is one
    antisymmetric tridiagonal chain with the weights of a's off-diagonal,
    whose spectrum is kept per cutoff (:func:`_cached`)."""
    _check_cutoff(cutoff)
    (spectrum,) = _cached(_SPECTRA, ("displace", cutoff),
                          lambda: [_spectrum(np.diagonal(destroy(cutoff), 1).real)])
    u = np.exp(1j * np.angle(beta) * np.arange(cutoff))
    return u[:, None] * _exp_tridiagonal(spectrum, abs(beta)) * u.conj()


def squeeze1_fock(r: float, cutoff: int) -> np.ndarray:
    """exp(r (a+^2 - a^2) / 2).  a+^2 - a^2 links n only to n + 2, so it is
    two antisymmetric tridiagonal chains, the even and the odd photon
    numbers, with the weights of a^2's second off-diagonal halved; their
    spectra are kept per cutoff as one stack, the odd chain zero-padded to
    the even one's length (:func:`_cached`)."""
    _check_cutoff(cutoff)

    def build():
        a = destroy(cutoff)
        w = np.diagonal(a @ a, 2).real / 2  # w[n] links n and n + 2
        return [_spectrum(np.append(w, np.zeros(cutoff % 2)).reshape(-1, 2).T)]

    (spectrum,) = _cached(_SPECTRA, ("squeeze1", cutoff), build)
    E, odd = _exp_tridiagonal(spectrum, r), cutoff // 2
    U = np.zeros((cutoff, cutoff), dtype=complex)
    U[::2, ::2], U[1::2, 1::2] = E[0], E[1, :odd, :odd]
    return U


def gaussian_unitary_fock(spec: SymplecticSpec, cutoff: int) -> np.ndarray:
    """Single-mode Gaussian unitary via Euler decomposition S = R(a) diag(e^r, e^-r) R(b).

    Conventions chosen so that the induced phase-space action on means is
    x -> S x + d, as in :func:`cvverify.gaussian.apply_channel`: R(phi) rotates
    q -> q cos(phi) - p sin(phi), the squeezer scales (q, p) -> (e^r q, e^-r p),
    and the displacement shifts the mean by ``spec.d``.  The rotations
    R(phi) = e^{i phi n} are diagonal, so they scale the squeezer's rows and
    columns, and the displacement at beta = 0 is the identity, so it is
    skipped: the identity target's unitary is np.eye exactly.
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
    n = 1j * np.arange(cutoff)
    U = np.exp(phi1 * n)[:, None] * squeeze1_fock(r, cutoff) * np.exp(phi2 * n)
    return displace_fock(beta, cutoff) @ U if beta else U


def performance_operator_avg_fidelity(g: float, lam: float, cutoff: int) -> FockOperator:
    """Performance operator of the gain-g average-fidelity test on A' (x) A.

    Omega = int d^2a/pi lam e^{-lam|a|^2} |g a><g a| (x) |a*><a*|, element by
    element: the angle average keeps only m - n = m' - n', and the radial
    integral is a Gamma function, so with s = m + n' and A = lam + 1 + g^2

        <m n|Omega|m' n'> = lam g^(m+m') s! / (A^(s+1) sqrt(m! n! m'! n'!)),

    evaluated in log space.  Both states of an entry lie on one n1 - n2
    chain, so the stack is built over the wrapped grid at once.
    """
    _check_cutoff(cutoff)
    if not (0 < g < np.inf and 0 < lam < np.inf):
        raise ValueError(f"g and lam must be positive and finite, got g={g}, lam={lam}")
    j, x = _wrapped_grid(cutoff), np.arange(cutoff)
    far = x >= cutoff - x[:, None]  # row x of diagonal s lies on the chain from |c - s, 0>
    same = far[:, :, None] == far[:, None, :]  # rows x and y of diagonal s share a chain
    m, n, m2, n2 = x[:, None], j[:, :, None], x, j[:, None, :]
    log_fact = _log_factorials(2 * cutoff - 1)
    s = m + n2
    log_omega = (
        np.log(lam) + (m + m2) * np.log(g) + log_fact[s] - (s + 1) * np.log(lam + 1.0 + g * g)
        - 0.5 * (log_fact[m] + log_fact[n] + log_fact[m2] + log_fact[n2])
    )
    return FockOperator(cutoff, np.where(same, np.exp(log_omega), 0.0))


def canonical_observable(
    g: float, lam: float, cutoff: int, check_convergence: bool = True
) -> FockOperator:
    """The single observable on A' (x) R whose mean equals the average fidelity.

    Built from the performance operator by a partial transpose on the input
    slot and an inverse-square-root sandwich with the thermal reference state
    of mean photon number 1/lam.  The performance operator here already
    carries the conjugated amplitude in its second slot, which in the Fock
    basis *is* the input-slot transpose, so only the sandwich remains.  The
    sandwich is diagonal, so it and the symmetrisation act on the stack.

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
    r = (1.0 / np.sqrt(rho_r))[_wrapped_grid(cutoff)]  # rho_R^(-1/2) on R's photon number j
    O = r[:, :, None] * performance_operator_avg_fidelity(g, lam, cutoff).sectors * r[:, None, :]
    return FockOperator(cutoff, 0.5 * (O + O.swapaxes(1, 2)))


def _squeezed_sectors(
    theta: float, v: np.ndarray, slot: int, cutoff: int, keep: int | None = None
) -> np.ndarray:
    """The wrapped stack of S_theta D S_theta+ for the diagonal D that is
    diag(v) on one slot (0 = A', 1 = R) and the identity on the other,
    evaluated at ``cutoff``, truncated to photon numbers below ``keep``
    (default ``cutoff``) and symmetrized.  :func:`_build_squeezed_sectors`
    builds it once per key while the cache of :func:`_cached` holds the key,
    read-only.  The squeezer check, and so its leakage warning, runs first
    on every call.
    """
    keep = cutoff if keep is None else keep
    _check_squeezer(theta, cutoff)
    key = (float(theta), v.tobytes(), slot, cutoff, keep)
    [(core,)] = _cached(_CORES, key, lambda: [(_build_squeezed_sectors(theta, v, slot, cutoff, keep),)])
    return core


def _build_squeezed_sectors(theta: float, v: np.ndarray, slot: int, cutoff: int, keep: int) -> np.ndarray:
    """Build the stack that :func:`_squeezed_sectors` caches.

    D is diagonal, so each chain block E of the squeezer gives E diag(d) E^T.
    Photon numbers grow along a chain, so the kept states of each block are
    a prefix of it, and the chains that keep any are those from |0, k> and
    from |k, 0>, k < keep: at ``keep`` they fill wrapped diagonal k from row 0
    and diagonal keep - k from row k.  The two share their block E and swap
    the slots, so d along the first is v[t] on slot 0 and v[k + t] on slot 1,
    and the reverse along the second; both products run in one stack.
    """
    core = np.zeros((keep,) * 3)
    for members, E in _chain_exps(theta, cutoff, keep):
        t = np.arange(E.shape[-1])
        near = np.broadcast_to(v[t], (members.size, t.size))
        far = np.take(v, members[:, None] + t, mode="clip")  # clipped only where E is padding
        d = np.stack([near, far] if slot == 0 else [far, near], axis=1)  # (chain, mirror)
        A = E[:, None, : min(t.size, keep)]
        C = (A * d[:, :, None, :]) @ A.swapaxes(-1, -2)
        C = 0.5 * (C + C.swapaxes(-1, -2))
        for r, k in enumerate(members):
            n = keep - k
            core[k, :n, :n] = C[r, 0, :n, :n]
            if k:
                core[n, k:, k:] = C[r, 1, :n, :n]
    return core


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
    by :func:`_embedding`, a ValueError near the transition, where none is
    enough.  Both branches conserve n1 - n2: the result is held as a stack.
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
    if big is None:
        raise ValueError(f"no embedding up to {MAX_CUTOFF} gives the closed form at g = {g}, lam = {lam}, "
                         f"cutoff {cutoff}: g is too near the transition sqrt(lam+1) = {root:.4f}")
    return FockOperator(cutoff, _squeezed_sectors(theta, g_theta(theta, big), slot, big, keep=cutoff) * scale)


def _embedding(theta: float, cutoff: int) -> int | None:
    """The embedding c + k of the closed-form observable at cutoff c: the
    least k at which two estimates of the truncation error, both taken at
    the corner state |0, c - 1>, are below the double-precision epsilon, or
    None if no k up to MAX_CUTOFF - c is.

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
    return cutoff + int(fits[0]) if fits.size else None


def witness_fock_unitary(spec: SymplecticSpec, lam: float, cutoff: int) -> FockOperator:
    """Average-fidelity witness for a single-mode Gaussian unitary target, on A' (x) R.

    1 - k (U (x) 1) C (U+ (x) 1) with k = lam/(lam+1) and the squeezed core
    C = S_kappa (n (x) 1) S_kappa+, kappa = arctanh(1 / sqrt(lam+1)).  The
    truncated U and S_kappa are unitary, so this is (U (x) 1) B (U+ (x) 1)
    with B = S_kappa ((1 - k n) (x) 1) S_kappa+: B's wrapped n1 - n2 stack in
    the frame U, with no dense matrix.  A diagonal U = diag(u) keeps n1 - n2,
    so the frame folds into the stack as u[x] B[s, x, y] conj(u[y]), x and y
    being first-slot photon numbers.
    """
    _check_cutoff(cutoff)
    kappa = _kappa(lam)
    k = lam / (lam + 1.0)
    U = gaussian_unitary_fock(spec, cutoff)
    core = _squeezed_sectors(kappa, 1.0 - k * np.arange(cutoff, dtype=float), 0, cutoff)
    u = np.diagonal(U)
    if np.count_nonzero(U - np.diag(u)):
        return FockOperator(cutoff, form=(U, core))
    return FockOperator(cutoff, u[:, None] * core * u.conj())


def witness_fock_amp(g: float, lam: float, cutoff: int) -> FockOperator:
    """Average-fidelity witness for the gain-g amplification test, on A' (x) R.

    (lam+1)/g^2 (1 - (g^2-lam-1)/g^2 S_theta' (1 (x) n) S_theta'+) with
    theta' = arctanh(sqrt(lam+1) / g).  S_theta' is unitary, so this is
    S_theta' (1 (x) d) S_theta'+ with d = (lam+1)/g^2 (1 - (g^2-lam-1)/g^2 n),
    held as the wrapped stack of its n1 - n2 chain blocks E diag(d_R) E^T.
    """
    _check_cutoff(cutoff)
    _check_lam(lam)
    root = np.sqrt(lam + 1.0)
    if not root < g < np.inf:
        raise ValueError(f"amplification witness requires finite g > sqrt(lam+1) = {root:.4f}, got {g}")
    theta_p = np.arctanh(root / g)
    d = (lam + 1.0) / g**2 * (1.0 - (g**2 - lam - 1.0) / g**2 * np.arange(cutoff, dtype=float))
    return FockOperator(cutoff, _squeezed_sectors(theta_p, d, 1, cutoff))


def _kraus_diagonals(kind: str, param: float, cutoff: int) -> tuple:
    """The Kraus table (sign, T) of an "attenuator" (sign +1) or "amplifier"
    (sign -1): each Kraus operator K_k, k < c, lies on the one diagonal at
    offset sign k, and T[k, m] is entry m of ``np.diagonal(K_k, sign k)``,
    zero past its end (m >= c - k).

    The attenuator's are in closed form (Ivan, Sabapathy & Simon, PRA 84,
    042311 (2011)), K_k[i, i + k] = (-1)^k sqrt(C(i + k, k) eta^i (1 - eta)^k)
    (offset k), the sign that of its beamsplitter dilation.  That dilation
    conserves n1 + n2, so each chain of total i + k < c lies whole inside the
    truncation, and the closed form is the truncated dilation's to rounding.

    The amplifier's are read off its truncated squeezer dilation U:
    K_k[q + k, q] = <q + k, k|U|q, 0> is entry k of the first column of the
    chain starting at |q, 0> (offset -k), whose block is that of the chain from
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
        k, m = np.arange(c)[:, None], np.arange(c)
        log_fact = _log_factorials(2 * c - 1)
        log_binom = log_fact[m + k] - log_fact[m] - log_fact[k]
        table = (-np.sqrt(1.0 - param)) ** k * np.exp(0.5 * (log_binom + m * np.log(param)))
        return 1, np.where(m < c - k, table, 0.0)  # T[k, m] = K_k[m, m + k]
    if kind != "amplifier":
        raise ValueError(f"unknown elementary channel factor {kind!r}")
    if param < 1:
        raise ValueError("amplifier gain must be at least 1")
    theta = np.arccosh(param)
    _check_squeezer(theta, c)
    T = np.zeros((c, c))
    for q, E in _chain_exps(theta, c, c, first_column=True):
        T[: E.shape[-1], q] = E.T  # T[k, q] = K_k[q + k, q]
    return -1, T


def _transfer(kraus: tuple) -> np.ndarray:
    """Transfer blocks of a channel whose Kraus operators K_k lie on the
    diagonals at offsets sign k, from its table (sign, T) (n, c) as
    :func:`_kraus_diagonals` gives it:

        S[delta, p, q] = sum_K K[p, q] conj(K[p + delta, q + delta]),  delta = 0..c-1,

    zero where p or q reaches c - delta.  The channel maps the entries
    (q, q + delta) of rho's first-slot index pair to (p, p + delta) through
    S_delta; for -delta it takes conj(S_delta) on indices shifted by delta.
    Both entries of a term lie on K's diagonal, so with M = sum_K K, the
    whole table written into a zero-padded 2c x 2c array at once (its zeros
    past each diagonal's end land in the padding), the sum has the one term
    M[p, q] conj(M[p + delta, q + delta]): one gather.
    """
    sign, T = kraus
    c = T.shape[1]
    k, m = np.arange(T.shape[0])[:, None], np.arange(c)
    p = m + k * (sign < 0)  # the row of entry m of K_k
    M = np.zeros((2 * c, 2 * c), dtype=T.dtype)
    M[p, p + sign * k] = T
    t, delta = np.arange(c), np.arange(c)[:, None, None]
    return M[:c, :c] * M[delta + t[:, None], delta + t].conj()


def _kraus_stack(X: np.ndarray, kraus: tuple, right: bool = False) -> np.ndarray:
    """K X, or X K when ``right``, for each Kraus operator K of the table
    (sign, T) of :func:`_kraus_diagonals` and each matrix of the stack X
    (n, c, c), stacked K-major on one leading axis: one gather of rows.

    Row dest of K_k X is T[k, min(dest, src)] X[src] with src = dest + sign k,
    and zero where src leaves [0, c): there min(dest, src) mod c lies past
    the end of K_k's diagonal, where T is zero, so src is read mod c.  X K
    is (K^T X^T)^T, and K_k^T has the same entries at offset -sign k.
    """
    sign, T = kraus
    if right:
        return _kraus_stack(X.swapaxes(-1, -2), (-sign, T)).swapaxes(-1, -2)
    n, c = X.shape[0], X.shape[-1]
    k, dest = np.arange(T.shape[0])[:, None], np.arange(c)
    src = dest + sign * k
    rows = X[np.arange(n)[:, None], src[:, None] % c]  # (K, n, c, c)
    return (T[k, np.minimum(dest, src) % c][:, None, :, None] * rows).reshape(-1, c, c)


def _term_stacks(form: tuple, frame: np.ndarray | None = None) -> tuple:
    """Stacks A and B whose products A[m] @ B[n] are the terms of the
    amplitude form (psi, factors), left-multiplied by U+ for a frame U: B is
    psi under the first factor (a Kraus list, as the leading unitaries are in
    psi) and A is U+ times the others, so a unitary-attenuator-amplifier
    output has c^2 terms from two stacks of c."""
    psi, factors = form
    B, rest = (_kraus_stack(psi[None], factors[0][1]), factors[1:]) if factors else (psi[None], [])
    A = (np.eye(psi.shape[0]) if frame is None else frame.conj().T)[None]
    for kind, f in reversed(rest):
        A = A @ f if kind == "unitary" else _kraus_stack(A, f, right=True)
    return A, B


def _term_trace(A: np.ndarray, B: np.ndarray, sectors: np.ndarray) -> float:
    """sum over the terms X = A[m] @ B[n] of <X|O|X> for O of the wrapped
    stack W: sum_s F_s+ W[s] F_s, F_s[x] the terms' entries at
    |x, (x + s) mod c>, one product per wrapped diagonal.  The terms are
    formed as X[i, j, (n, m)], so each F_s is a gather on the leading axes.
    One matrix product per chunk of B forms at most max(_TERM_ENTRIES, c^2 M)
    entries, so the memory stays O(c^3) for stacks of c."""
    M, c = A.shape[:2]
    cols = A.transpose(1, 2, 0)  # [i, l, m]
    step = max(1, _TERM_ENTRIES // (M * c * c))
    x, j = np.arange(c), _wrapped_grid(c)
    total = 0.0
    for n in range(0, B.shape[0], step):
        X = (B[n:n + step].transpose(2, 0, 1).reshape(-1, c) @ cols).reshape(c, c, -1)  # [i, j, (n, m)]
        for s in range(c):
            F = X[x, j[s]]
            if np.isrealobj(sectors):  # Re f+ W f = Re(f) W Re(f) + Im(f) W Im(f): one real product
                F = F.view(float)
            total += np.vdot(F, sectors[s] @ F).real
    return total


def _diagonals(sectors: np.ndarray) -> np.ndarray:
    """D[delta, p, q] = <p + delta, q + delta|M|p, q>, delta >= 0, for M held as a
    wrapped stack (zero where p + delta or q + delta reaches the cutoff), in
    one gather: |p, q> is row p of wrapped diagonal (q - p) mod c, and
    |p + delta, q + delta> row p + delta of the same diagonal, on the other
    chain, where the stack is zero, when q + delta reaches the cutoff."""
    c = sectors.shape[0]
    t = np.arange(c)
    delta, p, q = t[:, None, None], t[:, None], t
    row = p + delta
    return np.where(row < c, sectors[(q - p) % c, np.minimum(row, c - 1), p], 0)


def _framed_trace(U: np.ndarray, op_sectors: np.ndarray, state_sectors: np.ndarray) -> float:
    """tr((U (x) 1) O (U+ (x) 1) rho) for Hermitian O and rho held as wrapped
    n1 - n2 stacks, in c^4.  An entry of either links |p, q> to |p + delta, q + delta>,
    and the two meet only on a shared delta: with X_delta of :func:`_diagonals`,
    the delta term is sum_{p, r} U+[p + delta, r + delta] conj(U+[p, r])
    (conj(O_delta) rho_delta^T)[p, r], and the -delta term its conjugate."""
    cutoff = U.shape[0]
    Ud = U.conj().T
    DO, Dr = _diagonals(op_sectors).conj(), _diagonals(state_sectors)
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
    n1 - n2 and is returned as its wrapped stack: the TMSV's amplitudes a_n
    sit on |nn>, so <i j|rho|i+delta j+delta> = S_delta[i, j] a_j a_(j+delta)
    from the composed transfer blocks, and entry (x, y) of wrapped diagonal s
    reads S_|x-y| at its earlier state, |min(x, y), (min(x, y) + s) mod c>.

    Otherwise the output is returned in amplitude form (psi, factors), with
    no dense matrix: psi[i, j] = <ij|psi> is the TMSV's diag(a) under the
    leading unitaries, and ``factors`` are the rest, each ("unitary", U) or
    ("kraus", the Kraus table of :func:`_kraus_diagonals`).
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
    blocks = [_transfer(f) for _, f in factors] or [_transfer((1, np.ones((1, cutoff))))]
    S = functools.reduce(lambda S, T: T @ S, blocks)
    # one gather over the wrapped grid, as many entries as S; an entry between the two chains
    # of diagonal s, rows x < c - s <= y, reads S_(y - x)[x, x + s] with x + s >= c - (y - x),
    # where every transfer block, and so their product, is zero
    x = np.arange(cutoff)
    first = np.minimum.outer(x, x)
    j = _wrapped_grid(cutoff)
    G = np.take(S, np.abs(x[:, None] - x) * cutoff**2 + (x * cutoff + j)[:, first])
    G *= a[j][:, :, None] * a[j][:, None, :]
    return FockState(cutoff, G)


def expectation(op: FockOperator, state: FockState) -> float:
    """tr(op state), contracted from the forms the two hold."""
    if op.cutoff != state.cutoff:
        raise ValueError("operator/state cutoff mismatch")
    frame, sectors = op.form if op.form is not None else (None, op.sectors)
    if state.form is not None:
        return float(_term_trace(*_term_stacks(state.form, frame), sectors))
    if frame is not None:
        return float(_framed_trace(frame, sectors, state.sectors))
    # both are block diagonal over the wrapped diagonals, so tr(A B) sums their traces
    return float(np.einsum("sxy,syx->", sectors, state.sectors).real)


def max_eigenvalue(op: FockOperator) -> float:
    """Largest eigenvalue of a Hermitian operator, the largest over its wrapped
    diagonals in one stacked ``eigvalsh`` (in its frame, if it has one: a
    unitary frame keeps the spectrum).  A diagonal's two chain blocks, with
    exact zeros between them, have exactly the chains' eigenvalues."""
    sectors = op.form[1] if op.form is not None else op.sectors
    return float(np.linalg.eigvalsh(sectors)[:, -1].max())


def default_cutoff(lam: float) -> int:
    """Smallest cutoff keeping the TMSV input's truncation leakage below 1e-6."""
    _check_lam(lam)
    nbar = 1.0 / lam
    x = nbar / (nbar + 1.0)
    if x >= 1.0:
        raise ValueError(f"lam = {lam} is too small for a finite cutoff")
    n = int(np.ceil(np.log(1e-6) / np.log(x)))
    return max(n, 2)
