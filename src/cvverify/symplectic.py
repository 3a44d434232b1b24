"""Symplectic phase-space transformations and displacements.

Quadrature ordering is interleaved, ``x = (q1, p1, ..., qN, pN)``, everywhere
in this package.  A Gaussian unitary acts affinely on phase space,
``x -> S x + d`` with ``S`` symplectic: ``S @ Omega @ S.T == Omega``.

``SymplecticSpec`` and the ``GaussianState`` and ``GaussianChannel`` of
:mod:`cvverify.gaussian` share one value rule, ``_Arrays``: read-only finite
float fields, and equality, hash and pickling by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

DEFAULT_TOL = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2N x 2N form Omega = direct sum of [[0, 1], [-1, 0]] blocks."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = block
    return omega


def validate_symplectic(S: np.ndarray) -> bool:
    """True iff max-norm of (S Omega S^T - Omega) is at most ``DEFAULT_TOL``."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"symplectic matrix must be square, got shape {S.shape}")
    if S.shape[0] % 2 != 0:
        raise ValueError(f"symplectic matrix must have even dimension, got {S.shape[0]}")
    omega = symplectic_form(S.shape[0] // 2)
    return bool(np.max(np.abs(S @ omega @ S.T - omega)) <= DEFAULT_TOL)


def _as_int(value, name: str) -> int:
    """A count read from JSON: an integral number or a numeric string.  A bool
    or a fraction is a ValueError that names the field, not a truncation."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except ValueError:  # a string that is no number
        number = math.nan
    if not number.is_integer():
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return int(number)


def _as_float(value, name: str) -> float:
    """A number or a numeric string; a bool is a ValueError, as in ``_as_int``."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except ValueError:  # a string that is no number
        pass
    raise ValueError(f"{name!r} must be a number, got {value!r}")


def _as_floats(value, name: str) -> np.ndarray:
    """An array read from JSON, each of its entries by ``_as_float``."""
    entries = np.array(value, dtype=object)
    return np.array([_as_float(x, name) for x in entries.flat]).reshape(entries.shape)


def _as_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name!r} must be a string, got {value!r}")
    return value


def _fields_state(obj) -> dict:
    """A frozen dataclass's pickle state, its fields only: a value it keeps
    beside them (built on first use) never enters a pickle."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _read_object(data, what: str, readers: dict, check=None) -> dict:
    """A scenario object's keys, read by ``readers[key](value, key)`` after ``check(data)``: a
    value that is not an object is a TypeError, a key without a reader a ValueError naming it."""
    if not isinstance(data, dict):
        raise TypeError(f"{what} must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(readers))
    if unknown:
        raise ValueError(f"unknown {what} fields: {', '.join(map(repr, unknown))}")
    if check is not None:
        check(data)
    return {key: read(data[key], key) for key, read in readers.items() if key in data}


class _Arrays:
    """The value rule of a frozen array record, a ``@dataclass(frozen=True,
    eq=False)`` subclass declared with ``what=``, the name its errors give it.
    Each field is kept as a read-only float copy; a NaN or infinite entry is
    a ValueError naming the record and the field, checked before the
    subclass's ``_check``.  Records of one class are equal when their fields
    are equal by value and hash by their bytes (-0.0 as 0.0); a pickle, a
    deep copy or ``dataclasses.replace`` is rebuilt through ``__init__``."""

    def __init_subclass__(cls, what: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._what = what

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            a = np.array(getattr(self, name), dtype=float)
            if not np.isfinite(a).all():
                raise ValueError(f"{self._what} {name} has an entry that is not finite")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        self._check()

    def _arrays(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self._arrays(), other._arrays()))

    def __hash__(self) -> int:
        return hash(tuple((a.shape, (a + 0.0).tobytes()) for a in self._arrays()))

    def __reduce__(self):
        return type(self), self._arrays()

    @property
    def n_modes(self) -> int:
        """N, for the 2N rows of the first field (S, mean or X)."""
        return len(getattr(self, next(iter(self.__dataclass_fields__)))) // 2


@dataclass(frozen=True, eq=False)
class SymplecticSpec(_Arrays, what="target"):
    """A Gaussian unitary target: symplectic matrix ``S`` plus displacement ``d``."""

    S: np.ndarray
    d: np.ndarray

    def _check(self):
        S = self.S
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2 or S.size == 0:
            raise ValueError(f"target S must be square with positive even dimension, got {S.shape}")
        if self.d.shape != (S.shape[0],):
            raise ValueError(f"d has shape {self.d.shape}, expected ({S.shape[0]},)")

    def is_valid(self) -> bool:
        return validate_symplectic(self.S)

    def to_dict(self) -> dict:
        return {
            "m": self.n_modes,
            "S": self.S.ravel().tolist(),
            "d": self.d.tolist(),
        }

    @classmethod
    def from_dict(cls, data, what: str = "target") -> "SymplecticSpec":
        read = _read_object(data, what, {"m": _as_int, "S": _as_floats, "d": _as_floats})
        m = read["m"]
        return cls(read["S"].reshape(2 * m, 2 * m), read["d"])


def identity(n_modes: int) -> SymplecticSpec:
    return SymplecticSpec(np.eye(2 * n_modes), np.zeros(2 * n_modes))


def spectral_norm(spec: SymplecticSpec) -> float:
    """Largest singular value of S; equals exp(r_max) for a symplectic matrix."""
    return float(np.linalg.norm(spec.S, ord=2))


def inverse_matrix(S: np.ndarray) -> np.ndarray:
    """S^-1 = -Omega S^T Omega of a symplectic S."""
    omega = symplectic_form(S.shape[0] // 2)
    return -omega @ S.T @ omega


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
