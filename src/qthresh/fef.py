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

which is convex because rho is positive semidefinite.  It is maximized
by the generalized power method (Journee, Nesterov, Richtarik &
Sepulchre, JMLR 11, 517 (2010)) with the spectral shift of the power
method (Golub & Van Loan, Matrix Computations, Sec. 7.3):
U <- polar(mat((rho - mu I) u)), mu = lambda_min(rho), monotone with no
step size.  All starts ascend in one batch, with one polar
decomposition per iteration, and the batch keeps only the starts still
running: a start runs on only while its step raised f, so every running
start has accepted its candidate, and a start is written out once, when
it stops.  The best objective over all starts is a certified *lower*
bound (it is attained by an explicit state).  The matching upper bound
is lambda_max(rho), which dominates <Psi|rho|Psi> for every unit vector
|Psi>.

Since F <= lambda_max, no start can certify F > 1/N unless lambda_max
does, so lambda_max decides whether to search: the
``OptimizerConfig.restarts`` seeded Haar restarts join the spectral
start's batch exactly when lambda_max > 1/N + ``VERDICT_MARGIN``.
Otherwise ``lower`` is the spectral start's local maximum.

The teleportation verdict compares the bound pair with 1/N, the value
above which the state beats the classical fidelity 2/(N+1), at the one
margin ``VERDICT_MARGIN``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalInstability, ValidationError
from .entropy import spectral_decomposition
from .sampling import _is_int, haar_unitary
from .states import DensityMatrix

GAP_TOL = 1e-6
MAX_ITERS = 500
STEP_TOL = 1e-10
VERDICT_MARGIN = 1e-9  # guard around 1/N against float noise deciding a verdict
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class OptimizerConfig:
    """Seeded Haar restarts for the N >= 3 search.

    All ``restarts`` of them run, in the spectral start's batch, exactly
    when lambda_max > 1/N + ``VERDICT_MARGIN``; otherwise none runs.
    Restart r starts from ``haar_unitary(N, (seed ^ r) & (2**64 - 1))``.
    Both fields take Python or numpy integers, not bools, and are stored
    as Python ints; a negative seed is allowed.
    """

    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValidationError(
                    f"{name} must be an integer, got {type(value).__name__}"
                )
            object.__setattr__(self, name, int(value))
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class FefBounds:
    """Certified sandwich lower <= F(rho) <= upper.

    ``lower`` is the overlap achieved by the explicit state
    (best_unitary (x) I)|Phi>; it is recomputable from ``best_unitary``,
    whose global phase, which that state does not see, is fixed by
    ``_fix_phase``.
    ``upper`` is max(lambda_max(rho), lower): both are upper bounds on
    F, and taking the larger keeps ``gap`` >= 0 when rounding puts the
    attained overlap a few ulps above the computed eigenvalue.
    ``restarts_used`` is the number of seeded Haar restarts that ran
    besides the spectral start: ``OptimizerConfig.restarts`` if
    lambda_max > 1/N + ``VERDICT_MARGIN``, else 0.  ``iterations_total``
    sums the iterations of every start.  Both are 0 where F is exact
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


def _polar(batch: np.ndarray) -> np.ndarray:
    """Closest unitaries to a batch of matrices (unitary polar factors)."""
    try:
        w, _, vh = np.linalg.svd(batch)
    except np.linalg.LinAlgError as exc:
        raise NumericalInstability(
            "polar decomposition failed to converge"
        ) from exc
    return w @ vh


def _ascend(rho_entries, n, starts, max_iters, step_tol, shift):
    """Batched generalized power method over the unitary group.

    Each iteration replaces every running start's U by V, the polar
    factor of mat((rho - shift I) u).  With shift = lambda_min(rho) the
    shifted matrix is still positive semidefinite, so f - shift is
    convex and lies above its tangent plane, and V maximizes the linear
    term over all unitaries, U included: the step never lowers f and
    needs no step size.  On unitaries |u|^2 = N, so the shift lowers f by
    exactly the constant ``shift`` and leaves maximizers and stationary
    points alone; it only removes the shift U that the flat part of rho
    adds to every step direction, which stalls the unshifted step on
    nearly maximally mixed states.  A start keeps running only while its
    gain in the unshifted f is positive and at least ``step_tol``; by the
    same inequality a zero gain means U itself maximizes the linear
    term, the fixed-point condition of the method, so up to rounding a
    stopped start has converged.  A NaN gain stops its start too.

    Every running start has therefore accepted its candidate, and the
    loop carries only the running starts, as dense arrays whose rows are
    their candidates.  A start that stops is written out then, at the
    candidate if its gain is >= 0 and at its previous point otherwise
    (a NaN gain included), so each start's objective sequence is
    non-decreasing even under rounding.  The polar factors, products and
    row sums are taken over exactly the running starts.

    Returns (unitaries, objectives, iterations, last_deltas).
    """
    b = starts.shape[0]
    rho_t = np.ascontiguousarray(rho_entries.T)
    us = np.array(starts, dtype=np.complex128).reshape(b, n * n)
    ru = us @ rho_t
    f = (us.conj() * ru).sum(axis=1).real / n
    units = np.empty((b, n, n), dtype=np.complex128)
    objectives = np.empty(b)
    iterations = np.empty(b, dtype=np.int64)
    last_delta = np.empty(b)
    live = np.arange(b)
    delta = np.full(b, np.inf)
    it = 0

    for it in range(1, max_iters + 1):
        if not live.size:
            break
        cand_us = _polar((ru - shift * us).reshape(-1, n, n)).reshape(-1, n * n)
        cand_ru = cand_us @ rho_t
        cand_f = (cand_us.conj() * cand_ru).sum(axis=1).real / n
        delta = cand_f - f
        running = (delta >= step_tol) & (delta > 0.0)
        if not running.all():
            stop = ~running
            took = delta[stop] >= 0.0
            rows = live[stop]
            final = np.where(took[:, None], cand_us[stop], us[stop])
            units[rows] = final.reshape(-1, n, n)
            objectives[rows] = np.where(took, cand_f[stop], f[stop])
            iterations[rows] = it
            last_delta[rows] = delta[stop]
            live, delta, cand_f = live[running], delta[running], cand_f[running]
            cand_us, cand_ru = cand_us[running], cand_ru[running]
        us, ru, f = cand_us, cand_ru, cand_f

    units[live] = us.reshape(-1, n, n)
    objectives[live] = f
    iterations[live] = it
    last_delta[live] = delta
    return units, objectives, iterations, last_delta


def _spectral_start(top_vector: np.ndarray, n: int) -> np.ndarray:
    """Deterministic warm start: polar factor of the matricized dominant
    eigenvector of rho.

    For states diagonal in a maximally entangled basis (and for pure
    states) this IS the optimizing unitary, which rescues convergence
    when the top weights are nearly tied and the power step crawls.
    """
    return _polar(top_vector.reshape(1, n, n))[0]


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


def _fix_phase(unitary: np.ndarray) -> np.ndarray:
    """The unitary times the global phase that makes the first entry of
    row 0 with modulus >= 1/(2 sqrt N) real and positive; row 0 has unit
    norm, so such an entry exists for every unitary, Tr U = 0 included."""
    floor = 0.5 / math.sqrt(len(unitary))
    row = unitary[0].tolist()
    k = 0
    while abs(row[k]) < floor:
        k += 1
    fixed = unitary * (abs(row[k]) / row[k])
    fixed[0, k] = abs(row[k])
    return fixed


def _winner(f: np.ndarray) -> int:
    """Index of the best start, or 0, the spectral start, when it is
    within 4 ulps of the best: a restart that beats it by rounding alone
    would trade its exact witness, I for a Werner state, for one with
    entries of order 1e-16.  f[0] is attained, so it is a sound lower
    bound either way."""
    best = int(np.argmax(f))
    return 0 if f[0] >= f[best] - 4 * np.spacing(f[best]) else best


def fef_certified(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> FefBounds:
    """Lower and upper bound together with the optimizing unitary.

    At N = 2 F is exact, so lower = upper with no restarts and no
    iterations.  For N >= 3 one eigendecomposition of rho gives the
    spectral warm start (top eigenvector), the shift lambda_min and the
    upper bound lambda_max.  The ``cfg.restarts`` seeded Haar restarts
    run exactly when lambda_max > 1/N + ``VERDICT_MARGIN``, ascending in
    one batch with the warm start; otherwise the warm start ascends
    alone.  ``lower`` is the best objective of the batch, or the spectral
    start's when it is within 4 ulps of the best, ``upper`` is
    max(lambda_max, lower), and ``converged`` says whether the gap is
    within ``GAP_TOL`` or the winning start's last gain fell below
    ``STEP_TOL``.  A winner that stopped on that gain rule more than
    ``STEP_TOL`` but at most ``GAP_TOL`` below lambda_max runs on alone
    until its gain stops, so a gap that can close does; this happens only
    on slowly converging states such as tied top weights in a maximally
    entangled basis.
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    n = rho.n
    if n == 2:
        lower, best_u = _two_qubit_exact(rho.entries)
        return FefBounds(lower, lower, _fix_phase(best_u), 0, 0, True)
    eigenvalues, eigenvectors = spectral_decomposition(rho.entries)
    top, shift = float(eigenvalues[0]), float(eigenvalues[-1])
    # at or below 1/N + margin no start can certify the state usable
    used = cfg.restarts if top > 1.0 / n + VERDICT_MARGIN else 0
    starts = np.stack(
        [_spectral_start(eigenvectors[:, 0], n)]
        + [haar_unitary(n, (cfg.seed ^ r) & _SEED_MASK) for r in range(used)]
    )
    units, f, iterations, last_delta = _ascend(
        rho.entries, n, starts, MAX_ITERS, STEP_TOL, shift
    )
    best = _winner(f)
    total = int(iterations.sum())
    if STEP_TOL < top - f[best] <= GAP_TOL and last_delta[best] > 0.0:
        units, f, more, last_delta = _ascend(
            rho.entries, n, units[best : best + 1], MAX_ITERS, 0.0, shift
        )
        best, total = 0, total + int(more[0])
    lower = float(f[best])
    upper = max(top, lower)
    return FefBounds(
        lower=lower,
        upper=upper,
        best_unitary=_fix_phase(units[best]),
        restarts_used=used,
        iterations_total=total,
        converged=(upper - lower) <= GAP_TOL or bool(last_delta[best] < STEP_TOL),
    )


def usable_for_teleportation(bounds: FefBounds, n: int) -> TeleportVerdict:
    """Sound verdict from the bound pair against the 1/N borderline.

    A state is called usable only when the certified lower bound clears
    1/N, and useless only when the certified upper bound stays under it,
    each by ``VERDICT_MARGIN``; everything else is Undecided (at N = 2,
    only F within that margin of 1/2).
    """
    critical = 1.0 / n
    if bounds.lower > critical + VERDICT_MARGIN:
        return TeleportVerdict.USABLE_CERTIFIED
    if bounds.upper < critical - VERDICT_MARGIN:
        return TeleportVerdict.USELESS_CERTIFIED
    return TeleportVerdict.UNDECIDED
