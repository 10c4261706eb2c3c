"""Operational layer: the standard teleportation channel with its average
fidelity, and the Weyl-encoded dense-coding ensemble with its Holevo
quantity.

The standard channel is the Weyl channel weighted by the resource's
Bell-basis weights (Horodecki^3, PRA 60, 1888 (1999); Bowen & Bose,
PRL 87, 267901 (2001)), which ``states.bell_diagonal_coeffs`` gives in
closed form; the exact fidelity needs only <Phi|rho|Phi>, a sum of N^2
entries.  The Monte Carlo average fidelity uses the Weyl form:
O(N^2 log N) per Haar input, one DFT per shift a = 0 .. N//2 only,
because the overlaps of shift -a are those of shift a with the phase
index negated and conjugated, O(-a,b) = omega^{ab} conj(O(a,-b)), so
the weights of the two shifts fold together once per call.  Each call
allocates one workspace sized for a chunk of inputs and every chunk runs
in it, so memory is bounded independently of the sample count and no
chunk allocates.  One producer thread per call draws the next chunk's
normals while the calling thread evaluates the current chunk; it takes
the same stream in the same order as a serial loop, so seeded results
are unchanged, and it is told to stop and joined on every exit from the
call, an exception on either thread included.  The literal
measure-and-correct simulation is kept as the reference oracle in
``tests/oracles.py``, with the serial Monte Carlo loop.

Alice is the first tensor factor everywhere: she measures (input (x) her
resource half) in teleportation and applies the encoding unitary to the
first factor in dense coding.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entropy import (
    densecoding_threshold,
    hermitian_entropy_bits,
    von_neumann_entropy,
)
from .errors import ValidationError
from .fef import VERDICT_MARGIN
from .sampling import _is_int, check_seed
from .states import DensityMatrix, bell_diagonal_coeffs, partial_trace

# A Monte Carlo chunk holds _MC_CHUNK_ENTRIES // N^2 inputs: their full
# N x N tables of Weyl overlaps would be this many complex entries (1 MiB),
# and the folded tables in the workspace keep N//2 + 1 of the N rows.  The
# chunk is capped so that its workspace stays within _MC_WORKSPACE_BYTES:
# glibc returns a larger one, such as the uncapped 2 MiB at N = 2, to the
# system after every call, and the next call faults it in again (512
# minor page faults).  The cap binds at N <= 4 only.
_MC_CHUNK_ENTRIES = 2**16
_MC_WORKSPACE_BYTES = 2**20


def _mc_chunk(n: int) -> int:
    """Inputs per Monte Carlo chunk: each takes 2N float64 normals, N
    complex amplitudes and an (N//2 + 1) x N complex table."""
    per_input = 16 * n * (n // 2 + 3)
    return max(1, min(_MC_CHUNK_ENTRIES // (n * n), _MC_WORKSPACE_BYTES // per_input))


@dataclass(frozen=True)
class TeleportResult:
    """Fidelity record for one resource state.

    ``f_phi`` is the overlap with the protocol's canonical target |Phi>;
    ``f_avg_exact`` the closed-form average fidelity (N f_phi + 1)/(N+1).
    Monte Carlo fields stay None unless sampling was run.
    """

    f_phi: float
    f_avg_exact: float
    f_avg_mc: float | None = None
    mc_std_error: float | None = None
    n_samples: int = 0


class DenseCodingVerdict(str, Enum):
    USEFUL = "Useful"
    NOT_USEFUL = "NotUseful"


def classical_fidelity(n: int) -> float:
    """Best average teleportation fidelity without entanglement, 2/(N+1)."""
    return 2.0 / (n + 1.0)


def teleportation_avg_fidelity_exact(rho_resource: DensityMatrix) -> TeleportResult:
    """Average fidelity over Haar-random inputs, in closed form.

    For the standard protocol this is (N f_phi + 1)/(N + 1) with
    f_phi = <Phi|rho|Phi> = sum_jk rho[jj, kk] / N; the Monte Carlo
    sampler below exists to validate exactly this formula.
    """
    n = rho_resource.n
    diag = np.arange(n) * (n + 1)
    f_phi = float(rho_resource.entries[np.ix_(diag, diag)].sum().real) / n
    return TeleportResult(f_phi=f_phi, f_avg_exact=(n * f_phi + 1.0) / (n + 1.0))


def _fold_weights(weights: np.ndarray, n: int) -> np.ndarray:
    """Bell-basis weights folded onto the shifts a = 0 .. N//2.

    The overlap O(a,b) = sum_j conj(psi_j) psi_{j+a} omega^{bj} obeys
    O(-a,b) = omega^{ab} conj(O(a,-b)) (substitute j -> j + a), so
    |O(-a,b)|^2 = |O(a,-b)|^2 and row -a adds its weights to row a as
    w[a,b] = c[a,b] + c[-a,-b] for 0 < a < N/2; rows 0 and N/2 pair with
    themselves and keep c[a,b].  Each weight is repeated twice to meet
    the squared real and imaginary parts of its overlap.
    """
    c = np.asarray(weights, dtype=np.float64).reshape(n, n)
    neg = -np.arange(n) % n
    folded = c[: n // 2 + 1].copy()
    paired = np.arange(1, (n + 1) // 2)
    folded[paired] += c[neg][:, neg][paired]
    return np.repeat(folded.reshape(-1), 2)


def _weyl_fidelities(
    folded: np.ndarray, psi: np.ndarray, transform: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """<psi|channel(|psi><psi|)|psi> for each of the M rows of ``psi``,
    written to ``out`` (length M) and returned.

    The standard channel is sigma -> sum_k c_k W_k^T sigma conj(W_k), so
    the fidelity of a pure input is sum_{a,b} c_{aN+b} |O(a,b)|^2 with
    O(a,b) = <psi|W(a,b)^T|psi> = sum_j conj(psi_j) psi_{j+a mod N} omega^{bj}.
    ``folded`` comes from ``_fold_weights``, so only the shifts
    a = 0 .. N//2 are computed, in ``transform``, an (M, N//2 + 1, N)
    complex workspace that is overwritten: the conjugated products
    psi_j conj(psi_{j+a}) go through one unnormalized forward DFT over j,
    which gives conj(O(a,b)) and so the same squared magnitude.  ``psi``
    is not read once the products are formed, so ``out`` may share its
    memory.  Nothing is allocated beyond the index table and numpy's
    16 KiB buffer for the multiply.
    """
    n = psi.shape[1]
    shifts = np.arange(transform.shape[1])[:, None] + np.arange(n)[None, :]
    # mode="wrap" reduces j + a mod N and, unlike the default mode, fills
    # ``transform`` without an intermediate buffer of its size
    np.take(psi, shifts, axis=1, out=transform, mode="wrap")
    np.conjugate(transform, out=transform)
    # numpy copies the broadcast psi through a buffer, of 8,192 elements
    # (128 KiB) by default; 1,024 are as fast and cost 16 KiB
    with np.errstate():
        np.setbufsize(1024)
        np.multiply(transform, psi[:, None, :], out=transform)
    np.fft.fft(transform, axis=2, out=transform)
    power = transform.view(np.float64).reshape(len(psi), -1)
    np.square(power, out=power)
    return np.matmul(power, folded, out=out)


def teleportation_avg_fidelity_mc(
    rho_resource: DensityMatrix, n_samples: int, seed: int = 0
) -> TeleportResult:
    """Mean and standard error of <psi|channel(|psi><psi|)|psi> over
    Haar-random inputs; deterministic for a fixed seed.

    The channel enters only through the resource's weights in the Bell
    basis (it is the Weyl channel they define), so each input costs
    O(N^2 log N) and no N^2 x N^2 transfer matrix is built; the weights
    are folded once per call onto the shifts a = 0 .. N//2
    (``_fold_weights``), which halves the DFT work.  Inputs are drawn
    from one seeded generator in chunks of ``_mc_chunk(N)`` inputs, real
    parts before imaginary parts, into one workspace of at most
    ``_MC_WORKSPACE_BYTES`` allocated per call, in which every chunk runs
    without allocating.  The count, mean and sum of squared
    deviations of each chunk are merged into the running ones (Chan,
    Golub & LeVeque), so memory does not grow with ``n_samples``.

    The draws run on one producer thread per call: it fills the normals
    block with chunk k+1 while this thread evaluates chunk k, taking the
    same stream in the same order as a serial loop, so the result is the
    same to the bit.  The block changes hands through two semaphores:
    this thread builds and normalizes each chunk's inputs from it, hands
    it back and then runs the kernel, whose fidelities go to the spent
    input memory.  On every exit, including an exception on either
    thread, the producer is told to stop and is joined before the call
    returns; an exception raised by the draws is re-raised here.

    ``n_samples`` must be a Python or numpy integer (not a bool) of at
    least 100 and a negative integer seed raises ``ValidationError``,
    both before the producer starts.
    """
    if not _is_int(n_samples):
        raise ValidationError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 100:
        raise ValidationError(f"n_samples must be >= 100, got {n_samples}")
    n_samples = int(n_samples)
    check_seed(seed)
    n = rho_resource.n
    folded = _fold_weights(bell_diagonal_coeffs(rho_resource), n)
    rng = np.random.default_rng(seed)
    chunk = _mc_chunk(n)
    normals = np.empty((2, chunk, n))
    inputs = np.empty((chunk, n), dtype=np.complex128)
    transform = np.empty((chunk, n // 2 + 1, n), dtype=np.complex128)
    scratch = transform.view(np.float64).reshape(-1)
    fidelities = inputs.view(np.float64).reshape(-1)
    starts = range(0, n_samples, chunk)
    filled, emptied = threading.Semaphore(0), threading.Semaphore(1)
    stop, failure = threading.Event(), []

    def draw() -> None:
        try:
            for start in starts:
                m = min(chunk, n_samples - start)
                emptied.acquire()
                if stop.is_set():
                    return
                rng.standard_normal(out=normals[0, :m])
                rng.standard_normal(out=normals[1, :m])
                filled.release()
        except BaseException as exc:  # re-raised on the calling thread
            failure.append(exc)
            filled.release()

    producer = threading.Thread(target=draw, name="qthresh-mc-draws", daemon=True)
    producer.start()
    count, mean, m2 = 0, 0.0, 0.0
    try:
        for start in starts:
            m = min(chunk, n_samples - start)
            filled.acquire()
            if failure:
                raise failure[0]
            re, im, psi = normals[0, :m], normals[1, :m], inputs[:m]
            # 1 / |z| per row, in the transform block before the kernel
            # overwrites it, and then repeated along each row: numpy
            # multiplies equal-shape operands without buffering them
            squares, squares_im = scratch[: 2 * m * n].reshape(2, m, n)
            np.square(re, out=squares)
            np.square(im, out=squares_im)
            np.add(squares, squares_im, out=squares)
            scale = np.add.reduce(squares, axis=1, out=scratch[m * n : m * n + m])
            np.sqrt(scale, out=scale)
            np.divide(1.0, scale, out=scale)
            np.copyto(squares, scale[:, None])
            np.multiply(re, squares, out=psi.real)
            np.multiply(im, squares, out=psi.imag)
            emptied.release()
            fid = _weyl_fidelities(folded, psi, transform[:m], fidelities[:m])
            chunk_mean = float(fid.mean())
            delta = chunk_mean - mean
            total = count + m
            mean += delta * m / total
            fid -= chunk_mean
            m2 += float(np.square(fid, out=fid).sum())
            m2 += delta * delta * count * m / total
            count = total
    finally:
        stop.set()
        emptied.release()
        producer.join()
    exact = teleportation_avg_fidelity_exact(rho_resource)
    return TeleportResult(
        f_phi=exact.f_phi,
        f_avg_exact=exact.f_avg_exact,
        f_avg_mc=mean,
        mc_std_error=math.sqrt(m2 / (count - 1)) / math.sqrt(count),
        n_samples=n_samples,
    )


def densecoding_chi_standard(rho: DensityMatrix) -> float:
    """Holevo quantity of the standard ensemble without materializing it.

    Averaging over all Weyl encodings fully depolarizes the first factor,
    so the ensemble average is I/N (x) Tr_first(rho) and every signal has
    the entropy of rho itself:

        chi = log2 N + S(Tr_first rho) - S(rho).

    This equals 2 log2 N - S(rho) exactly when Bob's marginal is
    maximally mixed (Werner and basis-diagonal states), and is what makes
    dimensions up to N = 8 tractable.
    """
    marginal = partial_trace(rho)
    return (
        math.log2(rho.n)
        + hermitian_entropy_bits(marginal)
        - von_neumann_entropy(rho)
    )


def densecoding_useful(rho: DensityMatrix) -> DenseCodingVerdict:
    """Useful iff the standard-ensemble Holevo quantity beats log2 N by
    more than ``VERDICT_MARGIN``."""
    return _densecoding_verdict(densecoding_chi_standard(rho), rho.n)


def _densecoding_verdict(chi: float, n: int) -> DenseCodingVerdict:
    """``densecoding_useful``'s rule on a Holevo quantity already known."""
    if chi > densecoding_threshold(n) + VERDICT_MARGIN:
        return DenseCodingVerdict.USEFUL
    return DenseCodingVerdict.NOT_USEFUL
