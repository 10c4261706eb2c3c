"""Seeded random generation of unitaries and bipartite density matrices.

Every direct sampler takes an explicit ``seed`` (anything accepted by
``numpy.random.default_rng``: an integer, a SeedSequence, or a
Generator), and the output is fully determined by its arguments.
``sample(spec, index)`` derives an independent stream per index from the
spec's integer seed, so batch generation is order- and
partition-independent.  Two kinds are sampled: full-rank
Hilbert-Schmidt states, and the same states mixed toward I/N^2, each
checked once, by its ``DensityMatrix`` construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .states import DensityMatrix

KINDS = ("hilbert_schmidt", "high_entropy")


@dataclass(frozen=True)
class SamplerSpec:
    """Which density matrices to sample and from which stream.

    ``kind`` is one of ``KINDS`` and ``dim`` is the total Hilbert-space
    dimension N^2.  ``mix_toward_identity`` applies to ``high_entropy``
    only and is required there.  ``dim`` and ``seed`` are integers
    (Python or numpy, never bool), stored as Python ``int``s; ``seed`` is
    non-negative.  Every check runs here, so ``sample`` never rejects a
    spec.
    """

    kind: str
    dim: int
    mix_toward_identity: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown sampler kind {self.kind!r}")
        if (
            not _is_int(self.dim)
            or self.dim < 4
            or math.isqrt(self.dim) ** 2 != self.dim
        ):
            raise ValidationError(
                f"dim must be a perfect square N^2 with N >= 2, got {self.dim!r}"
            )
        object.__setattr__(self, "dim", int(self.dim))
        if self.kind == "high_entropy" and self.mix_toward_identity is None:
            raise ValidationError("high_entropy sampling requires mix_toward_identity")
        if self.mix_toward_identity is not None and not (
            0.0 <= self.mix_toward_identity <= 1.0
        ):
            raise ValidationError(
                f"mix_toward_identity must lie in [0, 1], got {self.mix_toward_identity}"
            )
        if not _is_int(self.seed):
            raise ValidationError(
                f"SamplerSpec seed must be an integer, got {type(self.seed).__name__}"
            )
        check_seed(self.seed)
        object.__setattr__(self, "seed", int(self.seed))


def _is_int(value) -> bool:
    """A Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Reject a negative integer seed, which ``numpy.random.default_rng``
    would refuse with a bare ``ValueError``; SeedSequence and Generator
    seeds pass through."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def _ginibre(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def haar_unitary(n: int, seed=0) -> np.ndarray:
    """Haar-distributed N x N unitary.

    QR of a complex Ginibre matrix with the triangular factor's diagonal
    phase-fixed positive, which makes the Q factor Haar rather than
    merely unitary.
    """
    if n < 1:
        raise ValidationError(f"unitary dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hs_matrix(dim: int, seed) -> np.ndarray:
    """G G^dagger / Tr(G G^dagger) for a dim x dim complex Ginibre G."""
    g = _ginibre(np.random.default_rng(seed), dim)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return m


def hs_random_density(dim: int, seed=0) -> DensityMatrix:
    """G G^dagger / Tr(G G^dagger) for a square dim x dim complex Ginibre
    G: the Hilbert-Schmidt measure.

    ``dim`` must be a perfect square N^2 so the result is a valid
    bipartite state.
    """
    n = math.isqrt(dim)
    if n * n != dim:
        raise ValidationError(
            f"dim must be a perfect square (bipartite N^2), got {dim}"
        )
    return DensityMatrix(n, _hs_matrix(dim, seed))


def high_entropy_density(n: int, mix: float, seed=0) -> DensityMatrix:
    """Hilbert-Schmidt sample pushed toward I/N^2 by a convex ``mix``.

    Plain Hilbert-Schmidt sampling rarely reaches the high-entropy
    regime at larger N; mixing toward the identity does.  Only the mixture
    is checked; the base is symmetrized first, as G G^dagger is not exactly
    Hermitian in floating point.
    """
    if not (0.0 <= mix <= 1.0):
        raise ValidationError(f"mix must lie in [0, 1], got {mix}")
    d = n * n
    base = _hs_matrix(d, seed)
    base = (base + base.conj().T) / 2.0
    return DensityMatrix(n, (1.0 - mix) * base + mix * np.eye(d) / d)


def sample(spec: SamplerSpec, index: int = 0) -> DensityMatrix:
    """Draw the ``index``-th density matrix of the stream defined by ``spec``.

    Each index gets its own child stream of ``spec.seed``, so draws are
    independent and the result does not depend on how a batch is split.
    """
    seed = np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))
    if spec.kind == "hilbert_schmidt":
        return hs_random_density(spec.dim, seed)
    return high_entropy_density(math.isqrt(spec.dim), spec.mix_toward_identity, seed)
