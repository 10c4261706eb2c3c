"""Independent oracles for the test suite.

The singlet-fraction oracle searches SU(2) directly on three angles with
a shrinking grid; it shares no code path with the package's unitary
ascent, so agreement between the two is meaningful evidence.

The teleportation transfer matrix is built column by column from the
literal measure-and-correct simulator, one N^2-outcome protocol run per
matrix unit; it shares no code with the Weyl-channel closed form that
the Monte Carlo fidelity uses.
"""

import numpy as np

from qthresh.protocols import _channel_apply_matrix


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
