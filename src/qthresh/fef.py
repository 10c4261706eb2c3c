"""Certified bounds on the singlet fraction F(rho) = max <Psi|rho|Psi>
over all maximally entangled |Psi>.

At N = 2 F is exact: in the Hill-Wootters magic basis M every maximally
entangled state is a global phase times M x for a real unit vector x,
so F = lambda_max(Re(M^dagger rho M)) (Grondalski, Etlinger & James,
Phys. Lett. A 300, 573 (2002)) and the top eigenvector gives the
optimizing state.  One 4 x 4 real eigenproblem replaces the search, and
the bound pair closes.

For N >= 3 the search runs over the unitary group.  Every maximally
entangled state of an N x N system is (U (x) I)|Phi> for a unitary U.
With u = vec(U) (row-major) the objective is the quadratic form

    f(U) = <Psi_U| rho |Psi_U> = u^dagger rho u / N,

maximized by gradient ascent retracted onto the unitary group by polar
decomposition.  Restarts run batched; each is monotone and the best
objective over restarts is a certified *lower* bound (it is attained by
an explicit state).  The matching upper bound is lambda_max(rho), which
dominates <Psi|rho|Psi> for every unit vector |Psi>.

For states diagonal in a maximally entangled basis no search is needed:
F is the largest diagonal weight (``fef_bell_diagonal_exact``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameter, NotProbabilityVector, NumericalInstability
from .entropy import spectral_decomposition
from .sampling import haar_unitary
from .states import DensityMatrix

INITIAL_STEP = 0.1
STEP_GROWTH = 2.0
STEP_CAP = 1e6
MAX_HALVINGS = 30
GAP_TOL = 1e-6
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    max_iters: int = 500
    step_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidParameter(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise InvalidParameter(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class FefBounds:
    """Certified sandwich lower <= F(rho) <= upper.

    ``lower`` is the overlap achieved by the explicit state
    (best_unitary (x) I)|Phi>; it is recomputable from ``best_unitary``.
    ``restarts_used`` and ``iterations_total`` are 0 where F is exact
    (N = 2).
    """

    lower: float
    upper: float
    best_unitary: np.ndarray
    restarts_used: int
    iterations_total: int
    converged: bool

    @property
    def gap(self) -> float:
        return self.upper - self.lower


class TeleportVerdict(str, Enum):
    USABLE_CERTIFIED = "UsableCertified"
    USELESS_CERTIFIED = "UselessCertified"
    UNDECIDED = "Undecided"


def fef_objective(rho: DensityMatrix, unitary: np.ndarray) -> float:
    """Overlap <Psi_U|rho|Psi_U> for |Psi_U> = (U (x) I)|Phi>."""
    u = np.asarray(unitary, dtype=np.complex128).reshape(-1)
    if u.shape != (rho.dim,):
        raise InvalidParameter(
            f"unitary must be {rho.n} x {rho.n} for this state"
        )
    return float(np.einsum("i,ij,j->", u.conj(), rho.entries, u).real) / rho.n


def fef_bell_diagonal_exact(coeffs) -> tuple[float, int]:
    """Exact F for a state diagonal in a maximally entangled basis.

    Returns (max weight, its index); ties break toward the lowest index.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1:
        raise NotProbabilityVector(f"expected a vector, got shape {c.shape}")
    if float(c.min()) < -1e-9:
        raise NotProbabilityVector(f"negative weight {c.min():.3e}")
    if abs(float(c.sum()) - 1.0) > 1e-9:
        raise NotProbabilityVector(f"weights sum to {c.sum():.12f}, not 1")
    k = int(np.argmax(c))
    return float(c[k]), k


def _polar(batch: np.ndarray) -> np.ndarray:
    """Closest unitaries to a batch of matrices (unitary polar factors)."""
    try:
        w, _, vh = np.linalg.svd(batch)
    except np.linalg.LinAlgError as exc:
        raise NumericalInstability(
            "polar decomposition failed to converge"
        ) from exc
    return w @ vh


def _ascend(rho_entries, n, starts, max_iters, step_tol):
    """Batched monotone gradient ascent over the unitary group.

    Per iteration the Euclidean gradient (rho u)/N is followed and the
    result retracted by polar decomposition.  The step starts at 0.1,
    halves on objective decrease (at most 30 times per iteration) and the
    accepted step carries over, doubling after a clean acceptance: in the
    large-step limit the retraction becomes polar(gradient), a monotone
    power-method step for this convex quadratic objective, which is what
    makes nearly-flat landscapes converge in tens of iterations.  A step
    is accepted only if the objective does not drop, so each restart's
    objective sequence is non-decreasing; a restart stops once its
    accepted improvement falls below ``step_tol`` or no halving produces
    an improvement.

    Returns (unitaries, objectives, iterations, last_deltas).
    """
    b = starts.shape[0]
    units = np.array(starts, dtype=np.complex128)
    rho_t = np.ascontiguousarray(rho_entries.T)
    us = units.reshape(b, n * n)
    ru = us @ rho_t
    f = (us.conj() * ru).sum(axis=1).real / n
    active = np.ones(b, dtype=bool)
    iterations = np.zeros(b, dtype=np.int64)
    last_delta = np.full(b, np.inf)
    steps = np.full(b, INITIAL_STEP)

    for _ in range(max_iters):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        cur_u = units[idx]
        cur_f = f[idx]
        grads = ru[idx].reshape(-1, n, n) / n
        step = steps[idx].copy()

        cand_u = _polar(cur_u + step[:, None, None] * grads)
        cand_us = cand_u.reshape(-1, n * n)
        cand_ru = cand_us @ rho_t
        cand_f = (cand_us.conj() * cand_ru).sum(axis=1).real / n
        halved = np.zeros(idx.size, dtype=bool)
        for _halving in range(MAX_HALVINGS):
            worse = cand_f < cur_f
            if not worse.any():
                break
            halved |= worse
            step[worse] *= 0.5
            retry_u = _polar(cur_u[worse] + step[worse, None, None] * grads[worse])
            retry_us = retry_u.reshape(-1, n * n)
            retry_ru = retry_us @ rho_t
            cand_u[worse] = retry_u
            cand_us[worse] = retry_us
            cand_ru[worse] = retry_ru
            cand_f[worse] = (retry_us.conj() * retry_ru).sum(axis=1).real / n

        improved = cand_f >= cur_f
        acc = idx[improved]
        units[acc] = cand_u[improved]
        us[acc] = cand_us[improved]
        ru[acc] = cand_ru[improved]
        f[acc] = cand_f[improved]
        steps[idx] = np.minimum(
            np.where(halved, step, step * STEP_GROWTH), STEP_CAP
        )
        delta = np.where(improved, cand_f - cur_f, 0.0)
        iterations[idx] += 1
        last_delta[idx] = delta
        finished = ~improved | (delta < step_tol)
        active[idx[finished]] = False

    return units, f, iterations, last_delta


_SPECTRAL_SALT = 0x5FEC7A1
_EXACT_EIG_MAX_DIM = 1024


def _spectral_start(entries: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Deterministic warm start: polar factor of the matricized dominant
    eigenvector of rho.

    For states diagonal in a maximally entangled basis (and for pure
    states) this IS the optimizing unitary, which rescues convergence
    when the top weights are nearly tied and plain ascent stalls.  Small
    dimensions use the exact eigenvector; above 1024 seeded power
    iteration keeps the start cheap (the large-N uses are well-gapped).
    """
    d = n * n
    if d <= _EXACT_EIG_MAX_DIM:
        _, vecs = np.linalg.eigh(entries)
        v = vecs[:, -1]
    else:
        rng = np.random.default_rng((seed ^ _SPECTRAL_SALT) & _SEED_MASK)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        for _ in range(60):
            v = entries @ v
            norm = np.linalg.norm(v)
            if norm < 1e-300:
                return np.eye(n, dtype=np.complex128)
            v /= norm
    return _polar(v.reshape(1, n, n))[0]


# Columns: the magic basis (|00>+|11>, i(|00>-|11>), i(|01>+|10>),
# |01>-|10>)/sqrt(2) of Hill & Wootters, PRL 78, 5022 (1997).
_MAGIC = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]
) / np.sqrt(2)


def _two_qubit_exact(entries: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact F at N = 2 and a unitary attaining it.

    <Mx|rho|Mx> = x^T Re(M^dagger rho M) x for real x, because the
    imaginary part of a Hermitian matrix is antisymmetric; the maximum
    over real unit x is the top eigenvalue, attained by the state M v
    whose 2 x 2 coefficient matrix is U / sqrt(2).
    """
    a = (_MAGIC.conj().T @ entries @ _MAGIC).real
    values, vectors = np.linalg.eigh(a)
    unitary = np.sqrt(2.0) * (_MAGIC @ vectors[:, -1]).reshape(2, 2)
    return float(values[-1]), unitary


def _lower_search(rho: DensityMatrix, cfg: OptimizerConfig):
    """Returns (lower, best unitary, restarts run, total iterations,
    converged).

    At N = 2 the value is exact: no restarts and no iterations.  For
    N >= 3 the spectral warm start plus all seeded restarts ascend, and
    ``converged`` says whether the winning restart's final objective
    change fell below ``step_tol``.
    """
    if rho.n == 2:
        lower, best_u = _two_qubit_exact(rho.entries)
        return lower, best_u, 0, 0, True
    starts = np.stack(
        [_spectral_start(rho.entries, rho.n, cfg.seed)]
        + [
            haar_unitary(rho.n, (cfg.seed ^ r) & _SEED_MASK)
            for r in range(cfg.restarts)
        ]
    )
    units, f, iterations, last_delta = _ascend(
        rho.entries, rho.n, starts, cfg.max_iters, cfg.step_tol
    )
    best = int(np.argmax(f))
    return (
        float(f[best]),
        units[best],
        cfg.restarts,
        int(iterations.sum()),
        bool(last_delta[best] < cfg.step_tol),
    )


def fef_lower_bound(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> FefBounds:
    """A certified lower bound on F: exact at N = 2, the best objective
    over seeded restarts for N >= 3.

    The ``upper`` field is filled with the trivial bound 1.0 here;
    ``fef_certified`` replaces it with a certified upper bound.
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    lower, best_u, restarts, iters, converged = _lower_search(rho, cfg)
    return FefBounds(
        lower=lower,
        upper=1.0,
        best_unitary=best_u,
        restarts_used=restarts,
        iterations_total=iters,
        converged=(1.0 - lower) <= GAP_TOL or converged,
    )


def fef_upper_bound(rho: DensityMatrix) -> float:
    """lambda_max(rho): dominates <Psi|rho|Psi> for every unit vector."""
    return float(spectral_decomposition(rho.entries).eigenvalues[0])


def fef_certified(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> FefBounds:
    """Lower and upper bound together with the optimizing unitary.

    At N = 2 the lower bound is exact, so it is also the upper bound;
    for N >= 3 the upper bound is lambda_max(rho).
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    lower, best_u, restarts, iters, converged = _lower_search(rho, cfg)
    upper = lower if rho.n == 2 else fef_upper_bound(rho)
    return FefBounds(
        lower=lower,
        upper=upper,
        best_unitary=best_u,
        restarts_used=restarts,
        iterations_total=iters,
        converged=(upper - lower) <= GAP_TOL or converged,
    )


def usable_for_teleportation(bounds: FefBounds, n: int) -> TeleportVerdict:
    """Sound verdict from the bound pair against the 1/N borderline.

    A state is called usable only when the certified lower bound clears
    1/N, and useless only when the certified upper bound stays under it;
    everything else is Undecided (at N = 2, only F within 1e-9 of 1/2).
    """
    critical = 1.0 / n
    if bounds.lower > critical + 1e-9:
        return TeleportVerdict.USABLE_CERTIFIED
    if bounds.upper < critical - 1e-9:
        return TeleportVerdict.USELESS_CERTIFIED
    return TeleportVerdict.UNDECIDED
