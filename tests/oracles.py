"""Independent oracles for the test suite.

The singlet-fraction oracle searches SU(2) directly on three angles with
a shrinking grid; it shares no code path with the package's unitary
ascent, so agreement between the two is meaningful evidence.

The maximally entangled basis is built literally here, and only here:
the Weyl matrices X^a Z^b, the canonical |Phi>, and the N^2 basis
vectors (X^a Z^b (x) I)|seed> stacked as the rows of a plain amplitude
array, k = a*N + b, for any seed vector.  The package never builds it;
it uses closed forms for the weights of a state in that basis and for
their inverse, and these vectors are what those closed forms are tested
against.

The one-batch singlet-fraction search runs the spectral start and every
seeded Haar restart together on every state.  It is the package's
N >= 3 result bit for bit wherever lambda_max > 1/N + margin leaves the
verdict open; elsewhere the package ascends the spectral start alone,
with the same verdict and a lower bound that may not exceed this one.

The teleportation transfer matrix is built column by column from the
literal measure-and-correct simulator, one N^2-outcome protocol run per
matrix unit; it shares no code with the Weyl-channel closed form that
the Monte Carlo fidelity uses.  The serial Monte Carlo loop is the
package's estimator as it was before its draws moved to a producer
thread, kept with its broadcast kernel so that the pipelined estimator
can be checked against it bit for bit.

The remaining references compute directly what the package computes in
closed form: the materialized dense-coding ensemble with its Holevo
quantity, the first-factor rotation that links the optimizer's witness
to the teleportation fidelity, the Shannon entropy of the weights in a
maximally entangled basis, the entropy from a second eigenvalue solve
of a state's entries, and the exact singlet fraction of a
basis-diagonal state, and the partial trace over the second factor.
The small constructors at the end (|Phi><Phi|, the maximally mixed
state, the antisymmetric Werner state, the extremal state's weights,
Kronecker products, low-rank Ginibre states, Haar-random pure inputs)
build test inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from qthresh.entropy import shannon_bits, spectral_decomposition, von_neumann_entropy
from qthresh.errors import ValidationError
from qthresh.fef import (
    _SEED_MASK,
    GAP_TOL,
    MAX_ITERS,
    STEP_TOL,
    FefBounds,
    OptimizerConfig,
    _ascend,
    _fix_phase,
    _polar,
    _spectral_start,
    _winner,
)
from qthresh.protocols import _fold_weights, _mc_chunk
from qthresh.sampling import haar_unitary
from qthresh.states import DensityMatrix, bell_diagonal_coeffs


def weyl_operator(n: int, a: int, b: int) -> np.ndarray:
    """Discrete Weyl unitary X^a Z^b on C^N, with X|j> = |j+1 mod N> and
    Z|j> = omega^j |j>, omega = exp(2 pi i / N)."""
    x = np.roll(np.eye(n), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    return np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)


def canonical_phi(n: int) -> np.ndarray:
    """Amplitudes of |Phi> = (1/sqrt(N)) sum_i |ii>."""
    amps = np.zeros(n * n, dtype=np.complex128)
    amps[:: n + 1] = 1.0 / np.sqrt(n)
    return amps


def bell_basis(seed: np.ndarray) -> np.ndarray:
    """Rows k = a*N + b are (X^a Z^b (x) I)|seed>; orthonormal and
    maximally entangled whenever the seed is."""
    n = math.isqrt(len(seed))
    seed_mat = np.asarray(seed, dtype=np.complex128).reshape(n, n)
    return np.array(
        [
            (weyl_operator(n, a, b) @ seed_mat).reshape(-1)
            for a in range(n)
            for b in range(n)
        ]
    )


def basis_weights(rho: DensityMatrix, basis: np.ndarray) -> np.ndarray:
    """<s_k|rho|s_k> for every row s_k of ``basis``."""
    return np.einsum("ki,ij,kj->k", basis.conj(), rho.entries, basis).real


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


def fef_one_batch(rho: DensityMatrix, cfg: OptimizerConfig) -> FefBounds:
    """The N >= 3 search with every start in one batch: the spectral start
    plus all ``cfg.restarts`` seeded Haar restarts ascend on every state,
    then the winner, picked by the package's rule, runs on alone under the
    same tie rule as the package."""
    eigenvalues, eigenvectors = spectral_decomposition(rho.entries)
    starts = np.stack(
        [_spectral_start(eigenvectors[:, 0], rho.n)]
        + [
            haar_unitary(rho.n, (cfg.seed ^ r) & _SEED_MASK)
            for r in range(cfg.restarts)
        ]
    )
    top, shift = float(eigenvalues[0]), float(eigenvalues[-1])
    units, f, iterations, last_delta = _ascend(
        rho.entries, rho.n, starts, MAX_ITERS, STEP_TOL, shift
    )
    best = _winner(f)
    total = int(iterations.sum())
    if STEP_TOL < top - f[best] <= GAP_TOL and last_delta[best] > 0.0:
        units, f, more, last_delta = _ascend(
            rho.entries, rho.n, units[best : best + 1], MAX_ITERS, 0.0, shift
        )
        best, total = 0, total + int(more[0])
    lower = float(f[best])
    upper = max(top, lower)
    return FefBounds(
        lower=lower,
        upper=upper,
        best_unitary=_fix_phase(units[best]),
        restarts_used=cfg.restarts,
        iterations_total=total,
        converged=(upper - lower) <= GAP_TOL or bool(last_delta[best] < STEP_TOL),
    )


def ascend_masked(rho_entries, n, starts, max_iters, step_tol, shift):
    """The package's power-step loop as it was before it carried only its
    running starts: every iteration re-selects the active starts with
    ``flatnonzero`` and writes the accepted candidates back by mask.
    Kept verbatim as the oracle for the package's loop, which must match
    it bit for bit; a NaN gain here neither accepts nor stops its start.

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

    for _ in range(max_iters):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        cand_u = _polar((ru[idx] - shift * us[idx]).reshape(-1, n, n))
        cand_us = cand_u.reshape(-1, n * n)
        cand_ru = cand_us @ rho_t
        cand_f = (cand_us.conj() * cand_ru).sum(axis=1).real / n
        delta = cand_f - f[idx]
        improved = delta >= 0.0
        acc = idx[improved]
        units[acc] = cand_u[improved]
        ru[acc] = cand_ru[improved]
        f[acc] = cand_f[improved]
        iterations[idx] += 1
        last_delta[idx] = delta
        active[idx[(delta < step_tol) | (delta <= 0.0)]] = False

    return units, f, iterations, last_delta


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


def _weyl_fidelities_broadcast(folded, psi, transform, out):
    """The Monte Carlo kernel of qthresh 0.8.0, whose broadcast multiply
    ran under numpy's default ufunc buffer size."""
    n = psi.shape[1]
    shifts = np.arange(transform.shape[1])[:, None] + np.arange(n)[None, :]
    np.take(psi, shifts, axis=1, out=transform, mode="wrap")
    np.conjugate(transform, out=transform)
    np.multiply(transform, psi[:, None, :], out=transform)
    np.fft.fft(transform, axis=2, out=transform)
    power = transform.view(np.float64).reshape(len(psi), -1)
    np.square(power, out=power)
    return np.matmul(power, folded, out=out)


def teleportation_mc_serial(rho_resource: DensityMatrix, n_samples: int, seed=0):
    """(f_avg_mc, mc_std_error) from the serial Monte Carlo loop of
    qthresh 0.8.0: every chunk is drawn, normalized and evaluated in turn
    on the calling thread, in the same workspace and stream order as the
    package's pipelined estimator."""
    n = rho_resource.n
    folded = _fold_weights(bell_diagonal_coeffs(rho_resource), n)
    rng = np.random.default_rng(seed)
    chunk = _mc_chunk(n)
    normals = np.empty((2, chunk, n))
    inputs = np.empty((chunk, n), dtype=np.complex128)
    transform = np.empty((chunk, n // 2 + 1, n), dtype=np.complex128)
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n_samples, chunk):
        m = min(chunk, n_samples - start)
        re, im, psi = normals[0, :m], normals[1, :m], inputs[:m]
        rng.standard_normal(out=re)
        rng.standard_normal(out=im)
        psi.real = re
        psi.imag = im
        np.square(normals[:, :m], out=normals[:, :m])
        np.add(re, im, out=re)
        scale = np.add.reduce(re, axis=1, out=im[:, 0])
        np.sqrt(scale, out=scale)
        np.divide(1.0, scale, out=scale)
        parts = psi.view(np.float64)
        np.multiply(parts, scale[:, None], out=parts)
        fid = _weyl_fidelities_broadcast(
            folded, psi, transform[:m], normals.reshape(-1)[:m]
        )
        chunk_mean = float(fid.mean())
        delta = chunk_mean - mean
        total = count + m
        mean += delta * m / total
        fid -= chunk_mean
        m2 += float(np.square(fid, out=fid).sum())
        m2 += delta * delta * count * m / total
        count = total
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)


def fef_objective(rho: DensityMatrix, unitary: np.ndarray) -> float:
    """Overlap <Psi_U|rho|Psi_U> for |Psi_U> = (U (x) I)|Phi>."""
    u = np.asarray(unitary, dtype=np.complex128).reshape(-1)
    if u.shape != (rho.n * rho.n,):
        raise ValidationError(
            f"unitary must be {rho.n} x {rho.n} for this state"
        )
    return float(np.einsum("i,ij,j->", u.conj(), rho.entries, u).real) / rho.n


def entropy_solved_again(rho: DensityMatrix) -> float:
    """The entropy as it was computed before states kept their spectrum:
    a second ``eigvalsh`` of the entries, clamped at zero."""
    vals = np.linalg.eigvalsh(rho.entries)
    return shannon_bits(np.where(vals < 0.0, 0.0, vals))


def shannon_entropy_in_basis(rho: DensityMatrix, basis: np.ndarray) -> float:
    """Shannon entropy of the diagonal weights of rho in a maximally
    entangled basis; never below the von Neumann entropy."""
    c = basis_weights(rho, basis)
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
        raise ValidationError(
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
    rho_resource: DensityMatrix, psi: np.ndarray
) -> np.ndarray:
    """Send the N amplitudes ``psi`` of a pure state through the standard
    protocol.

    Returns Bob's N x N output state (unit trace, Hermitian, PSD up to
    numerical noise).
    """
    n = rho_resource.n
    if psi.shape != (n,):
        raise ValidationError(
            f"input has shape {psi.shape}, resource expects ({n},)"
        )
    return _channel_apply_matrix(rho_resource, np.outer(psi, psi.conj()))


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
        raise ValidationError(f"expected a vector, got shape {c.shape}")
    if float(c.min()) < -1e-9:
        raise ValidationError(f"negative weight {c.min():.3e}")
    if abs(float(c.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"weights sum to {c.sum():.12f}, not 1")
    k = int(np.argmax(c))
    return float(c[k]), k


def partial_trace_second(rho: DensityMatrix) -> np.ndarray:
    """Trace out the second tensor factor, returning the first one's
    N x N state."""
    return np.einsum("ijkj->ik", rho.entries.reshape((rho.n,) * 4))


def phi_projector_state(n: int) -> DensityMatrix:
    """|Phi><Phi|, the perfect resource."""
    phi = canonical_phi(n)
    return DensityMatrix(n=n, entries=np.outer(phi, phi.conj()))


def maximally_mixed(n: int) -> DensityMatrix:
    """I / N^2, the flat-spectrum state."""
    d = n * n
    return DensityMatrix(n=n, entries=np.eye(d, dtype=np.complex128) / d)


def antisymmetric_werner(n: int) -> DensityMatrix:
    """P_a / Tr P_a, the normalized projector onto the antisymmetric
    subspace: P_a = (I - SWAP)/2 with Tr P_a = N(N-1)/2."""
    d = n * n
    j = np.arange(d)
    swap = np.zeros((d, d))
    swap[(j % n) * n + j // n, j] = 1.0
    return DensityMatrix(n=n, entries=(np.eye(d) - swap) / (n * (n - 1)))


def extremal_weights(n: int) -> np.ndarray:
    """Weight 1/N on |Phi> (index 0 of the maximally entangled basis),
    the rest uniform: the weights of the threshold-saturating state."""
    d = n * n
    w = np.full(d, (1.0 - 1.0 / n) / (d - 1))
    w[0] = 1.0 / n
    return w


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices, first factor on the slow index."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("tensor expects two matrices")
    return np.kron(a, b)


def ginibre_density(dim: int, rank: int, seed=0) -> DensityMatrix:
    """G G^dagger / Tr(G G^dagger) for a dim x rank complex Ginibre G,
    drawn as the package's Hilbert-Schmidt sampler draws its square G, so
    rank = dim reproduces ``qthresh.sampling.hs_random_density`` bit for
    bit and rank < dim gives states of rank at most ``rank``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(math.isqrt(dim), m)


def haar_pure(dim: int, seed=0) -> np.ndarray:
    """Amplitudes of a Haar-random pure state: a normalized complex
    standard-normal vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
