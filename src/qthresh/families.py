"""Closed-form state constructors: generalized Werner mixtures, states
diagonal in the maximally entangled basis, and the extremal state that
sits exactly on the teleportation threshold."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import shannon_bits, teleport_threshold_vn, densecoding_threshold
from .errors import InvalidParameter, NotProbabilityVector
from .states import DensityMatrix, _require_local_dim, bell_basis, canonical_phi

BISECTION_TOL = 1e-10


@dataclass(frozen=True)
class WernerParams:
    """(N, epsilon) for the mixture epsilon |Phi><Phi| + (1-epsilon) I/N^2."""

    n: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "n", _require_local_dim(self.n))
        if not (0.0 <= self.epsilon <= 1.0):
            raise InvalidParameter(
                f"epsilon must lie in [0, 1], got {self.epsilon}"
            )


def werner(params: WernerParams) -> DensityMatrix:
    """epsilon |Phi><Phi| + (1 - epsilon) I / N^2."""
    n, eps = params.n, params.epsilon
    d = n * n
    entries = eps * canonical_phi(n).projector() + (1.0 - eps) * np.eye(d) / d
    return DensityMatrix(n=n, entries=entries)


def _werner_spectrum(params: WernerParams) -> np.ndarray:
    """One eigenvalue eps + (1-eps)/N^2 on |Phi>, the rest (1-eps)/N^2."""
    d = params.n * params.n
    lam2 = (1.0 - params.epsilon) / d
    spectrum = np.full(d, lam2)
    spectrum[0] = params.epsilon + lam2
    return spectrum


def werner_entropy_closed_form(params: WernerParams) -> float:
    """Entropy in bits from the known two-level Werner spectrum."""
    return shannon_bits(_werner_spectrum(params))


def werner_purity_closed_form(params: WernerParams) -> float:
    spectrum = _werner_spectrum(params)
    return float((spectrum * spectrum).sum())


def werner_fef_closed_form(params: WernerParams) -> float:
    """F of a Werner state: eps + (1-eps)/N^2, attained at |Phi> itself."""
    return params.epsilon + (1.0 - params.epsilon) / (params.n * params.n)


def bell_diagonal(n: int, weights) -> DensityMatrix:
    """sum_k w_k |s_k><s_k| over the default maximally entangled basis."""
    w = np.asarray(weights, dtype=float)
    d = n * n
    if w.shape != (d,):
        raise NotProbabilityVector(f"expected {d} weights, got shape {w.shape}")
    if float(w.min()) < -1e-9:
        raise NotProbabilityVector(f"negative weight {w.min():.3e}")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise NotProbabilityVector(f"weights sum to {w.sum():.12f}, not 1")
    stack = bell_basis(n).stack
    entries = np.einsum("k,ki,kj->ij", w, stack, stack.conj(), optimize=True)
    entries = (entries + entries.conj().T) / 2.0
    return DensityMatrix(n=n, entries=entries)


def extremal_threshold_weights(n: int) -> np.ndarray:
    """Weight 1/N on the seed state, the rest uniform: the distribution
    whose Shannon entropy equals the teleportation threshold exactly."""
    n = _require_local_dim(n)
    d = n * n
    w = np.full(d, (1.0 - 1.0 / n) / (d - 1))
    w[0] = 1.0 / n
    return w


def extremal_threshold_state(n: int) -> DensityMatrix:
    """The threshold-saturating state: S equals the teleportation
    threshold, F equals 1/N, and the linear entropy equals its own
    threshold, all simultaneously."""
    return bell_diagonal(n, extremal_threshold_weights(n))


@dataclass(frozen=True)
class CriticalEpsilons:
    """Werner parameters where the usefulness boundaries are crossed."""

    eps_fef_above: float
    eps_entropy_at_teleport_threshold: float
    eps_entropy_at_densecoding_threshold: float


def _bisect_entropy(n: int, target_bits: float) -> float:
    """Solve S(W_N(eps)) = target for eps in [0, 1].

    The Werner entropy decreases strictly from 2 log2 N at eps = 0 to 0
    at eps = 1, so bisection is certifiable; tolerance 1e-10 in eps.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if werner_entropy_closed_form(WernerParams(n, mid)) > target_bits:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_epsilons(n: int) -> CriticalEpsilons:
    """The three epsilon markers of the Werner family.

    Any eps above 1/N makes F exceed 1/N; the other two are where the
    entropy meets the teleportation and dense-coding thresholds.
    """
    n = _require_local_dim(n)
    return CriticalEpsilons(
        eps_fef_above=1.0 / n,
        eps_entropy_at_teleport_threshold=_bisect_entropy(n, teleport_threshold_vn(n)),
        eps_entropy_at_densecoding_threshold=_bisect_entropy(
            n, densecoding_threshold(n)
        ),
    )
