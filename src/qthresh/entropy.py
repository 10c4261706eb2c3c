"""Entropy functionals and the closed-form usefulness thresholds.

All entropies are in bits (logarithm base 2 throughout the toolkit).
Eigenvalues in [-1e-9, 0) are treated as PSD noise and clamped to zero
before any logarithm; anything below -1e-9 is a validation failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, NumericalInstability
from .states import DensityMatrix, _require_local_dim

PSD_CLAMP = 1e-9
RECONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Hermitian eigendecomposition, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_decomposition(matrix: np.ndarray) -> SpectralDecomposition:
    """Checked Hermitian eigendecomposition.

    The reconstruction V diag(lambda) V^dagger is compared against the
    input; a deviation above 1e-8 raises ``NumericalInstability`` rather
    than returning silently degraded values.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalInstability(f"eigendecomposition failed: {exc}") from exc
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    recon_dev = float(np.abs((vecs * vals) @ vecs.conj().T - matrix).max())
    if recon_dev > RECONSTRUCTION_TOL:
        raise NumericalInstability(
            f"eigendecomposition reconstruction error {recon_dev:.3e} "
            f"exceeds {RECONSTRUCTION_TOL:.0e}"
        )
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def shannon_bits(probabilities) -> float:
    """Shannon entropy of a probability vector in bits, with 0 log 0 = 0."""
    p = np.asarray(probabilities, dtype=float)
    pos = p[p > 0.0]
    # the trailing +0.0 turns -0.0 (all-certain distributions) into +0.0
    return float(-(pos * np.log2(pos)).sum() + 0.0)


def _clamped_spectrum(matrix: np.ndarray) -> np.ndarray:
    try:
        vals = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalInstability(f"eigenvalue solve failed: {exc}") from exc
    low = float(vals.min())
    if low < -PSD_CLAMP:
        raise NotPSD(f"eigenvalue {low:.3e} below -{PSD_CLAMP:.0e}")
    return np.where(vals < 0.0, 0.0, vals)


def hermitian_entropy_bits(matrix: np.ndarray) -> float:
    """Entropy of an arbitrary unit-trace Hermitian PSD matrix in bits.

    Used for single-system marginals, which are not ``DensityMatrix``
    instances (those are bipartite by construction).
    """
    return shannon_bits(_clamped_spectrum(matrix))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda_i log2 lambda_i over the clamped spectrum of rho."""
    return shannon_bits(_clamped_spectrum(rho.entries))


def linear_entropy(rho: DensityMatrix) -> float:
    """1 - Tr(rho^2), in [0, 1 - 1/N^2]."""
    purity = float(np.vdot(rho.entries, rho.entries).real)
    return 1.0 - purity


def teleport_threshold_vn(n: int) -> float:
    """Entropy above which an N x N state is useless for teleportation:
    log2 N + (1 - 1/N) log2(N + 1) bits."""
    n = _require_local_dim(n)
    return math.log2(n) + (1.0 - 1.0 / n) * math.log2(n + 1)


def teleport_threshold_linear(n: int) -> float:
    """Linear-entropy counterpart of the teleportation threshold,
    1 - 2/(N(N+1))."""
    n = _require_local_dim(n)
    denom = n * (n + 1)
    # single division keeps exact dyadic values (e.g. 2/3 at N=2) exact
    return (denom - 2) / denom


def densecoding_threshold(n: int) -> float:
    """Entropy above which dense coding cannot beat log2 N bits."""
    n = _require_local_dim(n)
    return math.log2(n)
