"""Closed-form state constructors: generalized Werner (isotropic)
mixtures, states diagonal in the maximally entangled basis of ``states``
(written entrywise, with no basis vectors built), and the extremal state
that sits exactly on the teleportation threshold, which is the Werner
state whose F is 1/N."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import densecoding_threshold, shannon_bits
from .errors import ValidationError
from .states import DensityMatrix, _bell_diagonal_entries, _require_local_dim

BISECTION_TOL = 1e-10


@dataclass(frozen=True)
class WernerParams:
    """(N, epsilon) for the mixture epsilon |Phi><Phi| + (1-epsilon) I/N^2."""

    n: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "n", _require_local_dim(self.n))
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValidationError(
                f"epsilon must lie in [0, 1], got {self.epsilon}"
            )


def werner(params: WernerParams) -> DensityMatrix:
    """epsilon |Phi><Phi| + (1 - epsilon) I / N^2: |Phi><Phi| is 1/N on the
    [jj, kk] entries and zero elsewhere."""
    n, eps = params.n, params.epsilon
    d = n * n
    entries = (1.0 - eps) * np.eye(d) / d
    diag = np.arange(n) * (n + 1)
    entries[np.ix_(diag, diag)] += eps / n
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
    """sum_k w_k |s_k><s_k| over the maximally entangled basis of
    ``states``, built in closed form by ``states._bell_diagonal_entries``."""
    n = _require_local_dim(n)
    w = np.asarray(weights, dtype=float)
    d = n * n
    if w.shape != (d,):
        raise ValidationError(f"expected {d} weights, got shape {w.shape}")
    if float(w.min()) < -1e-9:
        raise ValidationError(f"negative weight {w.min():.3e}")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"weights sum to {w.sum():.12f}, not 1")
    return DensityMatrix(n, _bell_diagonal_entries(n, w))


def extremal_threshold_state(n: int) -> DensityMatrix:
    """The threshold-saturating state: S equals the teleportation
    threshold, F equals 1/N, and the linear entropy equals its own
    threshold, all simultaneously.

    Its weights are 1/N on |Phi> and 1/(N(N+1)) on every other state of
    the maximally entangled basis, so it is the Werner (isotropic) state
    at epsilon = 1/(N+1), whose F = epsilon + (1 - epsilon)/N^2 is 1/N:
    the boundary where isotropic states become separable (Horodecki &
    Horodecki, PRA 59, 4206 (1999)).
    """
    n = _require_local_dim(n)
    return werner(WernerParams(n, 1.0 / (n + 1)))


@dataclass(frozen=True)
class CriticalEpsilons:
    """Werner parameters where the usefulness boundaries are crossed."""

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
    """The two epsilon markers of the Werner family: where the entropy
    meets the teleportation and the dense-coding threshold.

    The first is exactly 1/(N+1), the extremal state, where F = 1/N too;
    the second is found by bisection.
    """
    n = _require_local_dim(n)
    return CriticalEpsilons(
        eps_entropy_at_teleport_threshold=1.0 / (n + 1),
        eps_entropy_at_densecoding_threshold=_bisect_entropy(
            n, densecoding_threshold(n)
        ),
    )
