"""Entropy functionals and the closed-form usefulness thresholds.

All entropies are in bits (logarithm base 2 throughout the toolkit).
Eigenvalues in [-1e-9, 0] are PSD noise that ``shannon_bits`` skips;
anything below -1e-9 is a validation failure.  A state's entropy reads
the spectrum its ``DensityMatrix`` keeps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalInstability, ValidationError
from .states import DensityMatrix, _require_local_dim

PSD_CLAMP = 1e-9
RECONSTRUCTION_TOL = 1e-8


def spectral_decomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked Hermitian eigendecomposition: (eigenvalues, eigenvectors)
    with the eigenvalues sorted descending and eigenvector k in column k.

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
    return vals, vecs


def shannon_bits(probabilities) -> float:
    """Shannon entropy of a probability vector in bits, with 0 log 0 = 0;
    entries <= 0, PSD noise included, contribute nothing."""
    p = np.asarray(probabilities, dtype=float)
    pos = p[p > 0.0]
    # the trailing +0.0 turns -0.0 (all-certain distributions) into +0.0
    return float(-(pos * np.log2(pos)).sum() + 0.0)


def hermitian_entropy_bits(matrix: np.ndarray) -> float:
    """Entropy of an arbitrary unit-trace Hermitian PSD matrix in bits.

    Used for single-system marginals, which are not ``DensityMatrix``
    instances (those are bipartite by construction) and carry no spectrum.
    """
    try:
        vals = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalInstability(f"eigenvalue solve failed: {exc}") from exc
    low = float(vals.min())
    if low < -PSD_CLAMP:
        raise ValidationError(f"eigenvalue {low:.3e} below -{PSD_CLAMP:.0e}")
    return shannon_bits(vals)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda_i log2 lambda_i over the spectrum rho keeps."""
    return shannon_bits(rho.spectrum)


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
