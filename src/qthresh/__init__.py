"""qthresh: entropy thresholds for entanglement applications.

A numerical toolkit for bipartite N x N mixed states centered on one
question: how mixed can a state get before teleportation and dense
coding stop working?  It provides:

- density matrices that validate themselves on construction and keep
  their spectrum, and the closed-form weights of a state in the
  maximally entangled (Weyl) basis (``states``),
- entropy functionals and the closed-form usefulness thresholds
  (``entropy``),
- certified lower/upper bounds on the singlet fraction: exact at N = 2,
  a power-method search over the unitary group above (``fef``),
- Werner mixtures, basis-diagonal states and the extremal
  threshold-saturating state, which is the Werner state at F = 1/N
  (``families``),
- the teleportation fidelity and dense-coding Holevo quantity that give
  the thresholds their operational meaning (``protocols``),
- seeded random state generation (``sampling``) and an experiment
  harness with a CLI (``reports``, ``cli``).

Example:
    >>> import qthresh as qt
    >>> w = qt.werner(qt.WernerParams(2, 0.5))
    >>> round(qt.von_neumann_entropy(w), 12)
    1.548794940695
    >>> round(qt.fef_certified(w).lower, 12)
    0.625
"""

from .entropy import (
    densecoding_threshold,
    hermitian_entropy_bits,
    linear_entropy,
    shannon_bits,
    spectral_decomposition,
    teleport_threshold_linear,
    teleport_threshold_vn,
    von_neumann_entropy,
)
from .errors import (
    NumericalInstability,
    TheoremViolation,
    ToolkitError,
    ValidationError,
)
from .families import (
    CriticalEpsilons,
    WernerParams,
    bell_diagonal,
    critical_epsilons,
    extremal_threshold_state,
    werner,
    werner_entropy_closed_form,
    werner_fef_closed_form,
    werner_purity_closed_form,
)
from .fef import (
    FefBounds,
    OptimizerConfig,
    TeleportVerdict,
    fef_certified,
    usable_for_teleportation,
)
from .protocols import (
    DenseCodingVerdict,
    TeleportResult,
    classical_fidelity,
    densecoding_chi_standard,
    densecoding_useful,
    teleportation_avg_fidelity_exact,
    teleportation_avg_fidelity_mc,
)
from .reports import (
    EntropyVerdict,
    SweepRow,
    ThresholdReport,
    VerificationSummary,
    analyze_rho,
    sweep_csv,
    sweep_werner,
    verify_theorem,
)
from .sampling import (
    SamplerSpec,
    haar_unitary,
    sample,
)
from .states import (
    DensityMatrix,
    bell_diagonal_coeffs,
    load_state,
    partial_trace,
    save_state,
    state_to_dict,
)

__version__ = "0.11.0"
