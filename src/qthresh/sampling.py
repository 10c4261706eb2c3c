"""Seeded random generation of unitaries and bipartite density matrices.

Every direct sampler takes an explicit ``seed``, an integer >= 0, a
SeedSequence or a Generator (anything else, None included, raises
``ValidationError``), and the output is fully determined by its arguments.
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
from .states import DensityMatrix, _require_int, _require_local_dim, _require_seed
from .states import _require_square_dim, _require_unit_interval

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
        object.__setattr__(self, "dim", _require_square_dim(self.dim) ** 2)
        if self.kind == "high_entropy" and self.mix_toward_identity is None:
            raise ValidationError("high_entropy sampling requires mix_toward_identity")
        if self.mix_toward_identity is not None:
            _require_unit_interval(self.mix_toward_identity, "mix_toward_identity")
        object.__setattr__(self, "seed", _require_int(self.seed, "seed", 0))


def _ginibre(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def haar_unitary(n: int, seed=0) -> np.ndarray:
    """Haar-distributed N x N unitary.

    QR of a complex Ginibre matrix with the triangular factor's diagonal
    phase-fixed positive, which makes the Q factor Haar rather than
    merely unitary.
    """
    n = _require_int(n, "unitary dimension", 1)
    rng = np.random.default_rng(_require_seed(seed))
    q, r = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hs_matrix(dim: int, seed) -> np.ndarray:
    """G G^dagger / Tr(G G^dagger) for a dim x dim complex Ginibre G."""
    g = _ginibre(np.random.default_rng(_require_seed(seed)), dim)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return m


def hs_random_density(dim: int, seed=0) -> DensityMatrix:
    """G G^dagger / Tr(G G^dagger) for a square dim x dim complex Ginibre
    G: the Hilbert-Schmidt measure.

    ``dim`` must be a perfect square N^2 so the result is a valid
    bipartite state.
    """
    n = _require_square_dim(dim)
    return DensityMatrix(n, _hs_matrix(n * n, seed))


def high_entropy_density(n: int, mix: float, seed=0) -> DensityMatrix:
    """Hilbert-Schmidt sample pushed toward I/N^2 by a convex ``mix``.

    Plain Hilbert-Schmidt sampling rarely reaches the high-entropy
    regime at larger N; mixing toward the identity does.  Only the mixture
    is checked; the base is symmetrized first, as G G^dagger is not exactly
    Hermitian in floating point.
    """
    n = _require_local_dim(n)
    _require_unit_interval(mix, "mix")
    d = n * n
    base = _hs_matrix(d, seed)
    base = (base + base.conj().T) / 2.0
    return DensityMatrix(n, (1.0 - mix) * base + mix * np.eye(d) / d)


def sample(spec: SamplerSpec, index: int = 0) -> DensityMatrix:
    """Draw the ``index``-th density matrix of the stream defined by ``spec``.

    Each index gets its own child stream of ``spec.seed``, so draws are
    independent and the result does not depend on how a batch is split.
    """
    index = _require_int(index, "index", 0)
    seed = np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))
    if spec.kind == "hilbert_schmidt":
        return hs_random_density(spec.dim, seed)
    return high_entropy_density(math.isqrt(spec.dim), spec.mix_toward_identity, seed)
