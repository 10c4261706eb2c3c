"""Linear-algebra substrate for bipartite N x N states.

Validated density matrices, canonical maximally entangled states,
discrete Weyl operators, the orthonormal maximally entangled basis they
generate, and the partial trace.  All matrices are dense complex128
with the first tensor factor on the slow (row-major) index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimension,
    InvalidParameter,
    NotHermitian,
    NotMaximallyEntangled,
    NotPSD,
    NumericalInstability,
    ParseError,
    TraceNotOne,
)

DEFAULT_TOL = 1e-9
PURE_NORM_TOL = 1e-12
BASIS_TOL = 1e-10


def _require_local_dim(n) -> int:
    """Check a local dimension and return it as a Python ``int``, so
    numpy integers are accepted and never reach a JSON payload."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
        raise InvalidDimension(f"local dimension must be an integer >= 2, got {n!r}")
    return int(n)


def _as_complex(matrix) -> np.ndarray:
    return np.ascontiguousarray(matrix, dtype=np.complex128)


@dataclass(frozen=True)
class DensityMatrix:
    """Bipartite N x N mixed state: N^2 x N^2 Hermitian, unit-trace, PSD.

    Direct construction trusts the entries (used by closed-form
    constructors whose output is correct by construction); go through
    ``validate_density`` for anything read from outside.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _require_local_dim(self.n))
        entries = _as_complex(self.entries)
        d = self.n * self.n
        if entries.shape != (d, d):
            raise DimensionMismatch(
                f"expected {d}x{d} entries for local dimension {self.n}, "
                f"got shape {entries.shape}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension N^2."""
        return self.n * self.n


@dataclass(frozen=True)
class PureState:
    """Unit vector of a given dimension."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected {self.dim} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > PURE_NORM_TOL:
            raise InvalidParameter(
                f"|norm^2 - 1| = {abs(norm_sq - 1.0):.3e} exceeds {PURE_NORM_TOL:.0e}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class MaxEntangledBasis:
    """Orthonormal family of N^2 maximally entangled states.

    Index convention k = a*N + b for Weyl labels (a, b); states[0] is
    the seed state itself.
    """

    n: int
    states: tuple[PureState, ...]

    @cached_property
    def stack(self) -> np.ndarray:
        """Amplitudes stacked as rows, shape (N^2, N^2)."""
        out = np.array([s.amplitudes for s in self.states])
        out.setflags(write=False)
        return out


def validate_density(raw, n: int) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity, each to
    ``DEFAULT_TOL``, returning the state.

    The stored matrix is the Hermitian part (M + M^dagger)/2, which
    absorbs file-format rounding; anything whose anti-Hermitian part
    exceeds the tolerance is rejected rather than silently symmetrized
    away.  The input is not modified.
    """
    n = _require_local_dim(n)
    mat = _as_complex(raw)
    d = n * n
    if mat.shape != (d, d):
        raise DimensionMismatch(
            f"expected shape ({d}, {d}) for local dimension {n}, got {mat.shape}"
        )
    if not np.isfinite(mat).all():
        raise InvalidParameter("matrix contains NaN or Inf entries")
    herm_dev = float(np.abs(mat - mat.conj().T).max())
    if herm_dev > DEFAULT_TOL:
        raise NotHermitian(
            f"max |M - M^dagger| = {herm_dev:.3e} exceeds tolerance {DEFAULT_TOL:.1e}"
        )
    sym = (mat + mat.conj().T) / 2.0
    trace_dev = abs(complex(np.trace(sym)) - 1.0)
    if trace_dev > DEFAULT_TOL:
        raise TraceNotOne(
            f"|trace - 1| = {trace_dev:.3e} exceeds tolerance {DEFAULT_TOL:.1e}"
        )
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    if min_eig < -DEFAULT_TOL:
        raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below -{DEFAULT_TOL:.1e}")
    return DensityMatrix(n=n, entries=sym)


def canonical_phi(n: int) -> PureState:
    """Canonical maximally entangled state (1/sqrt(N)) sum_i |ii>."""
    n = _require_local_dim(n)
    amps = np.zeros(n * n, dtype=np.complex128)
    amps[:: n + 1] = 1.0 / math.sqrt(n)
    return PureState(dim=n * n, amplitudes=amps)


def weyl_operator(n: int, a: int, b: int) -> np.ndarray:
    """Discrete Weyl unitary X^a Z^b on C^N.

    X shifts the computational basis, X|j> = |j+1 mod N>, and Z applies
    phases Z|j> = omega^j |j> with omega = exp(2 pi i / N).
    """
    n = _require_local_dim(n)
    if not (
        isinstance(a, (int, np.integer))
        and isinstance(b, (int, np.integer))
        and 0 <= a < n
        and 0 <= b < n
    ):
        raise IndexOutOfRange(
            f"Weyl labels must be integers in [0, {n}), got (a, b) = ({a}, {b})"
        )
    omega = np.exp(2j * np.pi / n)
    j = np.arange(n)
    w = np.zeros((n, n), dtype=np.complex128)
    w[(j + a) % n, j] = omega ** (b * j)
    return w


def bell_basis(n: int, seed_state: PureState | None = None) -> MaxEntangledBasis:
    """Maximally entangled basis states[k] = (W(a,b) (x) I)|seed>, k = a*N + b.

    The seed defaults to ``canonical_phi(n)`` and must be maximally
    entangled (both reduced states equal to I/N within 1e-10); the
    resulting family is orthonormal for any valid seed.
    """
    n = _require_local_dim(n)
    if seed_state is None:
        seed_state = canonical_phi(n)
    if seed_state.dim != n * n:
        raise DimensionMismatch(
            f"seed state has dimension {seed_state.dim}, expected {n * n}"
        )
    seed_mat = seed_state.amplitudes.reshape(n, n)
    target = np.eye(n) / n
    red_first = seed_mat @ seed_mat.conj().T
    dev = float(np.abs(red_first - target).max())
    if dev > BASIS_TOL:
        raise NotMaximallyEntangled(
            f"seed reduced state deviates from I/N by {dev:.3e} (tol {BASIS_TOL:.0e})"
        )
    states = []
    for a in range(n):
        for b in range(n):
            amps = (weyl_operator(n, a, b) @ seed_mat).reshape(n * n)
            states.append(PureState(dim=n * n, amplitudes=amps))
    basis = MaxEntangledBasis(n=n, states=tuple(states))
    _check_basis(basis)
    return basis


def _check_basis(basis: MaxEntangledBasis) -> None:
    """Postcondition check: orthonormal and entrywise maximally entangled."""
    n = basis.n
    stack = basis.stack
    gram = stack.conj() @ stack.T
    gram_dev = float(np.abs(gram - np.eye(n * n)).max())
    if gram_dev > BASIS_TOL:
        raise NumericalInstability(
            f"basis Gram matrix deviates from identity by {gram_dev:.3e}"
        )
    target = np.eye(n) / n
    mats = stack.reshape(n * n, n, n)
    red_first = np.einsum("kij,klj->kil", mats, mats.conj())
    red_second = np.einsum("kji,kjl->kil", mats, mats.conj())
    dev = max(
        float(np.abs(red_first - target).max()),
        float(np.abs(red_second - target).max()),
    )
    if dev > BASIS_TOL:
        raise NumericalInstability(
            f"basis state reduced states deviate from I/N by {dev:.3e}"
        )


def bell_diagonal_coeffs(rho: DensityMatrix, basis: MaxEntangledBasis) -> np.ndarray:
    """Diagonal weights <s_k|rho|s_k> of ``rho`` in a maximally entangled basis.

    For a valid state this is a probability vector up to numerical
    noise; realness and normalization are checked, not assumed.
    """
    if rho.n != basis.n:
        raise DimensionMismatch(f"state has N={rho.n}, basis has N={basis.n}")
    stack = basis.stack
    c = np.einsum("ki,ij,kj->k", stack.conj(), rho.entries, stack, optimize=True)
    imag_dev = float(np.abs(c.imag).max())
    if imag_dev > 1e-10:
        raise NumericalInstability(
            f"basis-diagonal weights have imaginary part {imag_dev:.3e}"
        )
    c = np.ascontiguousarray(c.real)
    if float(c.min()) < -1e-9 or abs(float(c.sum()) - 1.0) > 1e-9:
        raise NumericalInstability(
            "basis-diagonal weights are not a probability vector within tolerance: "
            f"min {c.min():.3e}, sum {c.sum():.12f}"
        )
    return c


def partial_trace(rho: DensityMatrix, which: str = "first") -> np.ndarray:
    """Trace out one tensor factor, returning the remaining N x N state."""
    return _ptrace_array(rho.entries, rho.n, which)


def _ptrace_array(mat: np.ndarray, n: int, which: str) -> np.ndarray:
    t = mat.reshape(n, n, n, n)
    if which == "first":
        return np.einsum("ijil->jl", t)
    if which == "second":
        return np.einsum("ijkj->ik", t)
    raise InvalidParameter(f"which must be 'first' or 'second', got {which!r}")


# --- state file format -----------------------------------------------------
#
# {"n": <int>, "matrix": [[[re, im], ...], ...]} with the matrix row-major
# N^2 x N^2.  NaN / Inf entries are rejected at parse time.


def state_to_dict(rho: DensityMatrix) -> dict:
    matrix = [
        [[float(v.real), float(v.imag)] for v in row] for row in rho.entries
    ]
    return {"n": rho.n, "matrix": matrix}


def state_from_dict(payload) -> DensityMatrix:
    if not isinstance(payload, dict) or "n" not in payload or "matrix" not in payload:
        raise ParseError("state payload must be an object with 'n' and 'matrix' keys")
    n = payload["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"'n' must be an integer, got {n!r}")
    try:
        arr = np.asarray(payload["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"'matrix' is not a numeric array: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ParseError("'matrix' entries must be two-element [re, im] arrays")
    if not np.isfinite(arr).all():
        raise ParseError("'matrix' contains NaN or Inf")
    return validate_density(arr[..., 0] + 1j * arr[..., 1], n)


def load_state(path) -> DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return state_from_dict(payload)


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(rho), fh)
