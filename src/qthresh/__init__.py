"""qthresh: entropy thresholds for entanglement applications.

A numerical toolkit for bipartite N x N mixed states centered on one
question: how mixed can a state get before teleportation and dense
coding stop working?  It provides:

- validated density matrices, Weyl operators and maximally entangled
  bases (``states``),
- entropy functionals and the closed-form usefulness thresholds
  (``entropy``),
- certified lower/upper bounds on the singlet fraction: exact at N = 2,
  a power-method search over the unitary group above (``fef``),
- Werner mixtures, basis-diagonal states and the extremal
  threshold-saturating state (``families``),
- the teleportation fidelity and dense-coding Holevo quantity that give
  the thresholds their operational meaning (``protocols``),
- seeded random state generation (``sampling``) and an experiment
  harness with a CLI (``reports``, ``cli``).

Example:
    >>> import qthresh as qt
    >>> w = qt.werner(qt.WernerParams(2, 0.5))
    >>> qt.von_neumann_entropy(w)
    1.5487949406953985
    >>> qt.fef_certified(w).lower
    0.625...
"""

from .entropy import (
    SpectralDecomposition,
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
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimension,
    InvalidParameter,
    InvalidRank,
    NotHermitian,
    NotMaximallyEntangled,
    NotPSD,
    NotProbabilityVector,
    NumericalInstability,
    ParseError,
    TheoremViolation,
    ToolkitError,
    TraceNotOne,
    ValidationError,
)
from .families import (
    CriticalEpsilons,
    WernerParams,
    bell_diagonal,
    critical_epsilons,
    extremal_threshold_state,
    extremal_threshold_weights,
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
    high_entropy_density,
    hs_random_density,
    sample,
)
from .states import (
    DensityMatrix,
    MaxEntangledBasis,
    PureState,
    bell_basis,
    bell_diagonal_coeffs,
    canonical_phi,
    load_state,
    partial_trace,
    save_state,
    state_from_dict,
    state_to_dict,
    validate_density,
    weyl_operator,
)

__version__ = "0.4.0"
