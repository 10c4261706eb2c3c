"""Independent oracles for the test suite.

The singlet-fraction oracle searches SU(2) directly on three angles with
a shrinking grid; it shares no code path with the package's unitary
ascent, so agreement between the two is meaningful evidence.

The teleportation transfer matrix is built column by column from the
literal measure-and-correct simulator, one N^2-outcome protocol run per
matrix unit; it shares no code with the Weyl-channel closed form that
the Monte Carlo fidelity uses.

The remaining references compute directly what the package computes in
closed form: the overlap of one explicit maximally entangled state, the
materialized dense-coding ensemble with its Holevo quantity, the first-
factor rotation that links the optimizer's witness to the teleportation
fidelity, the Shannon entropy of the weights in a maximally entangled
basis, and the exact singlet fraction of a basis-diagonal state.  The
small constructors at the end (the maximally mixed state, Kronecker
products, Haar-random pure inputs) build test inputs.
"""

from dataclasses import dataclass

import numpy as np

from qthresh.entropy import shannon_bits, von_neumann_entropy
from qthresh.errors import DimensionMismatch, InvalidParameter, NotProbabilityVector
from qthresh.states import (
    DensityMatrix,
    MaxEntangledBasis,
    PureState,
    bell_diagonal_coeffs,
    weyl_operator,
)


def su2_overlap_objective(entries, u00, u01, u10, u11):
    """<Psi_U|rho|Psi_U> for batches of 2x2 unitary entries."""
    vs = np.stack(
        [np.ravel(u00), np.ravel(u01), np.ravel(u10), np.ravel(u11)], axis=-1
    )
    return np.einsum("si,ij,sj->s", vs.conj(), entries, vs).real / 2.0


def fef_bruteforce_n2(entries, points=30, rounds=10):
    """Max of <Psi_U|rho|Psi_U> over U(2) by angle-grid search.

    U = [[cos t e^{ia},  sin t e^{ib}],
         [-sin t e^{-ib}, cos t e^{-ia}]]
    covers SU(2), and a global phase does not change the objective, so
    three angles suffice.  Each round re-grids around the best point with
    a 3x smaller range; 10 rounds from a 30-point grid resolve the
    maximum far below 1e-4.
    """
    t_lo, t_hi = 0.0, np.pi / 2
    a_lo, a_hi = 0.0, 2 * np.pi
    b_lo, b_hi = 0.0, 2 * np.pi
    best = -np.inf
    for _ in range(rounds):
        t = np.linspace(t_lo, t_hi, points)
        a = np.linspace(a_lo, a_hi, points)
        b = np.linspace(b_lo, b_hi, points)
        tt, aa, bb = np.meshgrid(t, a, b, indexing="ij")
        ct, st = np.cos(tt), np.sin(tt)
        vals = su2_overlap_objective(
            entries,
            ct * np.exp(1j * aa),
            st * np.exp(1j * bb),
            -st * np.exp(-1j * bb),
            ct * np.exp(-1j * aa),
        )
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        i, j, l = np.unravel_index(k, tt.shape)
        t_c, a_c, b_c = t[i], a[j], b[l]
        t_lo, t_hi = t_c - (t_hi - t_lo) / 6, t_c + (t_hi - t_lo) / 6
        a_lo, a_hi = a_c - (a_hi - a_lo) / 6, a_c + (a_hi - a_lo) / 6
        b_lo, b_hi = b_c - (b_hi - b_lo) / 6, b_c + (b_hi - b_lo) / 6
    return best


def _channel_transfer_matrix(resource):
    """N^2 x N^2 matrix of the standard teleportation channel acting on
    row-major vectorized inputs."""
    n = resource.n
    cols = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = 1.0
            cols.append(_channel_apply_matrix(resource, e).reshape(-1))
    return np.stack(cols, axis=1)


def fef_objective(rho: DensityMatrix, unitary: np.ndarray) -> float:
    """Overlap <Psi_U|rho|Psi_U> for |Psi_U> = (U (x) I)|Phi>."""
    u = np.asarray(unitary, dtype=np.complex128).reshape(-1)
    if u.shape != (rho.dim,):
        raise InvalidParameter(
            f"unitary must be {rho.n} x {rho.n} for this state"
        )
    return float(np.einsum("i,ij,j->", u.conj(), rho.entries, u).real) / rho.n


def shannon_entropy_in_basis(rho: DensityMatrix, basis: MaxEntangledBasis) -> float:
    """Shannon entropy of the diagonal weights of rho in a maximally
    entangled basis; never below the von Neumann entropy."""
    c = bell_diagonal_coeffs(rho, basis)
    return shannon_bits(np.where(c < 0.0, 0.0, c))


def rotate_first_factor(rho: DensityMatrix, unitary: np.ndarray) -> DensityMatrix:
    """(V (x) I) rho (V (x) I)^dagger.

    With V = best_unitary^dagger from the singlet-fraction optimizer this
    pre-rotates a resource so that its overlap with the canonical |Phi>
    equals the certified lower bound, which is how the simulator's
    fidelity is linked to F(rho).
    """
    v = np.asarray(unitary, dtype=np.complex128)
    if v.shape != (rho.n, rho.n):
        raise DimensionMismatch(
            f"unitary must be {rho.n} x {rho.n}, got {v.shape}"
        )
    full = tensor(v, np.eye(rho.n))
    entries = full @ rho.entries @ full.conj().T
    entries = (entries + entries.conj().T) / 2.0
    return DensityMatrix(n=rho.n, entries=entries)


def _channel_apply_matrix(resource: DensityMatrix, sigma: np.ndarray) -> np.ndarray:
    """Standard-protocol output for an arbitrary (not necessarily
    Hermitian) input matrix; the channel is linear so this also builds
    the transfer matrix.

    Outcome (a, b) of the measurement in the default maximally entangled
    basis leaves Bob holding W(a,b)^dagger-twisted input, so his
    correction is W(a,b) itself.
    """
    n = resource.n
    blocks = resource.entries.reshape(n, n, n, n)
    out = np.zeros((n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            w = weyl_operator(n, a, b)
            twisted = w.conj().T @ sigma @ w
            conditional = np.einsum("mp,mjpl->jl", twisted, blocks) / n
            out += w @ conditional @ w.conj().T
    return out


def teleportation_channel_apply(
    rho_resource: DensityMatrix, input_state: PureState
) -> np.ndarray:
    """Send one N-dimensional pure state through the standard protocol.

    Returns Bob's N x N output state (unit trace, Hermitian, PSD up to
    numerical noise).
    """
    n = rho_resource.n
    if input_state.dim != n:
        raise DimensionMismatch(
            f"input has dimension {input_state.dim}, resource expects {n}"
        )
    return _channel_apply_matrix(rho_resource, input_state.projector())


@dataclass(frozen=True)
class DenseCodingEnsemble:
    """The N^2 Weyl-encoded signal states, uniformly weighted."""

    n: int
    signal_states: tuple[DensityMatrix, ...]
    probabilities: np.ndarray


def densecoding_ensemble(rho: DensityMatrix) -> DenseCodingEnsemble:
    """Signal states (W(a,b) (x) I) rho (W(a,b) (x) I)^dagger, uniform
    over the N^2 messages k = a*N + b."""
    n = rho.n
    eye = np.eye(n)
    signals = []
    for a in range(n):
        for b in range(n):
            full = tensor(weyl_operator(n, a, b), eye)
            entries = full @ rho.entries @ full.conj().T
            entries = (entries + entries.conj().T) / 2.0
            signals.append(DensityMatrix(n=n, entries=entries))
    probs = np.full(n * n, 1.0 / (n * n))
    return DenseCodingEnsemble(n=n, signal_states=tuple(signals), probabilities=probs)


def densecoding_holevo(ensemble: DenseCodingEnsemble) -> float:
    """S(sum_i p_i W_i) - sum_i p_i S(W_i), in bits."""
    avg = np.zeros_like(ensemble.signal_states[0].entries)
    signal_entropy = 0.0
    for p, sig in zip(ensemble.probabilities, ensemble.signal_states):
        avg = avg + p * sig.entries
        signal_entropy += p * von_neumann_entropy(sig)
    avg_entropy = von_neumann_entropy(DensityMatrix(n=ensemble.n, entries=avg))
    return avg_entropy - signal_entropy


def fef_bell_diagonal_exact(coeffs) -> tuple[float, int]:
    """Exact F for a state diagonal in a maximally entangled basis: the
    largest weight and its index, ties broken toward the lowest index."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1:
        raise NotProbabilityVector(f"expected a vector, got shape {c.shape}")
    if float(c.min()) < -1e-9:
        raise NotProbabilityVector(f"negative weight {c.min():.3e}")
    if abs(float(c.sum()) - 1.0) > 1e-9:
        raise NotProbabilityVector(f"weights sum to {c.sum():.12f}, not 1")
    k = int(np.argmax(c))
    return float(c[k]), k


def maximally_mixed(n: int) -> DensityMatrix:
    """I / N^2, the flat-spectrum state."""
    d = n * n
    return DensityMatrix(n=n, entries=np.eye(d, dtype=np.complex128) / d)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, first factor on the slow index."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatch("tensor expects two matrices")
    return np.kron(a, b)


def haar_pure(dim: int, seed=0) -> PureState:
    """Haar-random pure state: a normalized complex standard-normal vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return PureState(dim=dim, amplitudes=v)
