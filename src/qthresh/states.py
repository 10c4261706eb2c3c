"""Linear-algebra substrate for bipartite N x N states.

The package's scalar input rules, each written once: an integer with
an optional minimum, a seed, a real number in [0, 1], a local dimension
and a perfect-square total dimension.  Density matrices that check
themselves on construction and keep their spectrum, the partial trace
over the first factor, the state file format, and the two closed-form
transforms between a state and its weights in the maximally entangled
basis |s_ab> = (X^a Z^b (x) I)|Phi> (X the cyclic
shift, Z the clock phase, |Phi> = N^(-1/2) sum_j |jj>).  That basis is
never built: its convention lives in ``_weyl_layout`` alone.  All
matrices are dense complex128 with the first tensor factor on the slow
(row-major) index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalInstability, ValidationError

DEFAULT_TOL = 1e-9


def _require_int(value, name: str, minimum: int | None = None) -> int:
    """Check a Python or numpy integer, not a bool, of at least ``minimum``;
    return it as a Python ``int``, which a JSON payload can hold."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _require_seed(seed):
    """Check a seed for ``numpy.random.default_rng``: an integer >= 0,
    returned as a Python ``int``, or a SeedSequence or Generator."""
    if isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        return seed
    return _require_int(seed, "seed", 0)


def _require_unit_interval(value, name: str) -> None:
    """Check a real number, not a bool, in [0, 1], so not NaN."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if not real or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")


def _require_local_dim(n) -> int:
    return _require_int(n, "local dimension", 2)


def _require_square_dim(dim) -> int:
    """Check a total dimension N^2 with N >= 2 and return N."""
    dim = _require_int(dim, "dim")
    if dim < 4 or math.isqrt(dim) ** 2 != dim:
        raise ValidationError(f"dim must be a perfect square N^2 with N >= 2, got {dim}")
    return math.isqrt(dim)


@dataclass(frozen=True)
class DensityMatrix:
    """Bipartite N x N mixed state, checked on construction: finite,
    Hermitian, unit-trace and PSD, each to ``DEFAULT_TOL``.  ``entries``
    is the read-only Hermitian part (M + M^dagger)/2 of the input, and
    ``spectrum`` its read-only ascending ``eigvalsh`` from the PSD check.
    """

    n: int
    entries: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _require_local_dim(self.n)
        mat = np.asarray(self.entries, dtype=np.complex128)
        d = n * n
        if mat.shape != (d, d):
            raise ValidationError(
                f"expected shape ({d}, {d}) for local dimension {n}, got {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise ValidationError("matrix contains NaN or Inf entries")
        herm_dev = float(np.abs(mat - mat.conj().T).max())
        if herm_dev > DEFAULT_TOL:
            raise ValidationError(
                f"max |M - M^dagger| = {herm_dev:.3e} exceeds tolerance {DEFAULT_TOL:.1e}"
            )
        sym = (mat + mat.conj().T) / 2.0
        trace_dev = abs(complex(np.trace(sym)) - 1.0)
        if trace_dev > DEFAULT_TOL:
            raise ValidationError(
                f"|trace - 1| = {trace_dev:.3e} exceeds tolerance {DEFAULT_TOL:.1e}"
            )
        spectrum = np.linalg.eigvalsh(sym)
        min_eig = float(spectrum[0])
        if min_eig < -DEFAULT_TOL:
            raise ValidationError(
                f"minimum eigenvalue {min_eig:.3e} below -{DEFAULT_TOL:.1e}"
            )
        sym.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "spectrum", spectrum)


def _weyl_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the maximally entangled basis states live and what they hold.

    |s_ab> = (X^a Z^b (x) I)|Phi> = N^(-1/2) sum_j omega^(bj) |j+a, j>,
    k = a*N + b, with omega = exp(2 pi i / N): |s_ab> has amplitude
    ``amp[j, b]`` = omega^(bj) / sqrt(N) at position ``index[a, j]`` =
    ((j + a) mod N)*N + j and zero elsewhere.  The rows of ``index``
    partition the N^2 positions, so the states of shift a see only the
    block of rho on row a.
    """
    j = np.arange(n)
    index = ((j[None, :] + j[:, None]) % n) * n + j[None, :]
    amp = np.exp(2j * np.pi / n) ** np.outer(j, j) * (1.0 / math.sqrt(n))
    return index, amp


def bell_diagonal_coeffs(rho: DensityMatrix) -> np.ndarray:
    """Diagonal weights <s_k|rho|s_k> of ``rho`` in the maximally
    entangled basis, k = a*N + b: c_ab = (F^dagger B_a F)_bb / N with B_a
    the block of rho on row a of ``_weyl_layout`` and F the DFT matrix.

    For a valid state this is a probability vector up to numerical
    noise; realness and normalization are checked, not assumed.
    """
    index, amp = _weyl_layout(rho.n)
    blocks = rho.entries[index[:, :, None], index[:, None, :]]
    c = np.einsum("jb,ajk,kb->ab", amp.conj(), blocks, amp).reshape(-1)
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


def _bell_diagonal_entries(n: int, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k |s_k><s_k|, the inverse of ``bell_diagonal_coeffs``: the
    block F diag(w_a) F^dagger / N on row a of ``_weyl_layout``, zero
    elsewhere, formed as (amp diag(w_a)) amp^dagger."""
    index, amp = _weyl_layout(n)
    blocks = (amp * weights.reshape(n, 1, n)) @ amp.conj().T
    entries = np.zeros((n * n, n * n), dtype=np.complex128)
    entries[index[:, :, None], index[:, None, :]] = blocks
    return entries


def partial_trace(rho: DensityMatrix) -> np.ndarray:
    """Trace out the first tensor factor, returning the second one's
    N x N state."""
    n = rho.n
    return np.einsum("ijil->jl", rho.entries.reshape(n, n, n, n))


# --- state file format -----------------------------------------------------
#
# {"n": <int>, "matrix": [[[re, im], ...], ...]} with the matrix row-major
# N^2 x N^2.  NaN / Inf entries are rejected at parse time.


def state_to_dict(rho: DensityMatrix) -> dict:
    matrix = np.stack([rho.entries.real, rho.entries.imag], axis=-1).tolist()
    return {"n": rho.n, "matrix": matrix}


def state_from_dict(payload) -> DensityMatrix:
    if not isinstance(payload, dict) or "n" not in payload or "matrix" not in payload:
        raise ValidationError("state payload must be an object with 'n' and 'matrix' keys")
    try:
        arr = np.asarray(payload["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"'matrix' is not a numeric array: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ValidationError("'matrix' entries must be two-element [re, im] arrays")
    if not np.isfinite(arr).all():
        raise ValidationError("'matrix' contains NaN or Inf")
    return DensityMatrix(payload["n"], arr[..., 0] + 1j * arr[..., 1])


def load_state(path) -> DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return state_from_dict(payload)


def save_state(rho: DensityMatrix, path) -> None:
    # one string and one write: json.dump streams thousands of small
    # writes and takes about twice as long for the same bytes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(state_to_dict(rho)))
