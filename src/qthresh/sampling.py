"""Seeded random generation of unitaries and bipartite density matrices.

Every direct sampler takes an explicit ``seed`` (anything accepted by
``numpy.random.default_rng``: an integer, a SeedSequence, or a
Generator), and the output is fully determined by its arguments.
``sample(spec, index)`` derives an independent stream per index from the
spec's integer seed, so batch generation is order- and
partition-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidParameter, InvalidRank
from .states import DensityMatrix, validate_density

KINDS = ("hilbert_schmidt", "rank_limited", "high_entropy")


@dataclass(frozen=True)
class SamplerSpec:
    """Which density matrices to sample and from which stream.

    ``kind`` is one of ``KINDS`` and ``dim`` is the total Hilbert-space
    dimension N^2.  ``rank`` applies to ``rank_limited`` only and
    ``mix_toward_identity`` to ``high_entropy`` only; each is required
    there.  ``seed`` is a non-negative integer, stored as a Python
    ``int``.  Every check runs here, so ``sample`` never rejects a spec.
    """

    kind: str
    dim: int
    rank: int | None = None
    mix_toward_identity: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameter(f"unknown sampler kind {self.kind!r}")
        if self.dim < 4 or math.isqrt(self.dim) ** 2 != self.dim:
            raise InvalidDimension(
                f"dim must be a perfect square N^2 with N >= 2, got {self.dim}"
            )
        if self.kind == "rank_limited" and self.rank is None:
            raise InvalidRank("rank_limited sampling requires a rank")
        if self.rank is not None and not (1 <= self.rank <= self.dim):
            raise InvalidRank(f"rank must lie in [1, {self.dim}], got {self.rank}")
        if self.kind == "high_entropy" and self.mix_toward_identity is None:
            raise InvalidParameter("high_entropy sampling requires mix_toward_identity")
        if self.mix_toward_identity is not None and not (
            0.0 <= self.mix_toward_identity <= 1.0
        ):
            raise InvalidParameter(
                f"mix_toward_identity must lie in [0, 1], got {self.mix_toward_identity}"
            )
        if not isinstance(self.seed, (int, np.integer)):
            raise InvalidParameter(
                f"SamplerSpec seed must be an integer, got {type(self.seed).__name__}"
            )
        check_seed(self.seed)
        object.__setattr__(self, "seed", int(self.seed))


def check_seed(seed) -> None:
    """Reject a negative integer seed, which ``numpy.random.default_rng``
    would refuse with a bare ``ValueError``; SeedSequence and Generator
    seeds pass through."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")


def _ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(n: int, seed=0) -> np.ndarray:
    """Haar-distributed N x N unitary.

    QR of a complex Ginibre matrix with the triangular factor's diagonal
    phase-fixed positive, which makes the Q factor Haar rather than
    merely unitary.
    """
    if n < 1:
        raise InvalidDimension(f"unitary dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hs_random_density(dim: int, rank: int | None = None, seed=0) -> DensityMatrix:
    """G G^dagger / Tr(G G^dagger) for a dim x rank complex Ginibre G.

    ``rank = dim`` (the default) gives the Hilbert-Schmidt measure.
    ``dim`` must be a perfect square N^2 so the result is a valid
    bipartite state.
    """
    n = math.isqrt(dim)
    if n * n != dim:
        raise InvalidDimension(
            f"dim must be a perfect square (bipartite N^2), got {dim}"
        )
    if rank is None:
        rank = dim
    if not (1 <= rank <= dim):
        raise InvalidRank(f"rank must lie in [1, {dim}], got {rank}")
    g = _ginibre(np.random.default_rng(seed), dim, rank)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return validate_density(m, n)


def high_entropy_density(n: int, mix: float, seed=0) -> DensityMatrix:
    """Hilbert-Schmidt sample pushed toward I/N^2 by a convex ``mix``.

    Plain Hilbert-Schmidt sampling rarely reaches the high-entropy
    regime at larger N; mixing toward the identity does.
    """
    if not (0.0 <= mix <= 1.0):
        raise InvalidParameter(f"mix must lie in [0, 1], got {mix}")
    d = n * n
    base = hs_random_density(d, d, seed)
    m = (1.0 - mix) * base.entries + mix * np.eye(d) / d
    return validate_density(m, n)


def sample(spec: SamplerSpec, index: int = 0) -> DensityMatrix:
    """Draw the ``index``-th density matrix of the stream defined by ``spec``.

    Each index gets its own child stream of ``spec.seed``, so draws are
    independent and the result does not depend on how a batch is split.
    """
    seed = np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))
    if spec.kind == "hilbert_schmidt":
        return hs_random_density(spec.dim, spec.dim, seed)
    if spec.kind == "rank_limited":
        return hs_random_density(spec.dim, spec.rank, seed)
    return high_entropy_density(math.isqrt(spec.dim), spec.mix_toward_identity, seed)
