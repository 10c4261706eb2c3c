"""The public API of ``qthresh`` is this explicit list; a name added to or
removed from the package namespace fails here until the list is updated.
The options are pinned the same way: the fields of ``OptimizerConfig``
and the sampler kinds of ``SamplerSpec``.  The package docstring's
example runs here too."""

import dataclasses
import doctest
import types

import pytest

import qthresh as qt
from qthresh.sampling import KINDS

PUBLIC_NAMES = [
    "CriticalEpsilons",
    "DenseCodingVerdict",
    "DensityMatrix",
    "DimensionMismatch",
    "EntropyVerdict",
    "FefBounds",
    "InvalidDimension",
    "InvalidParameter",
    "InvalidRank",
    "NotHermitian",
    "NotPSD",
    "NotProbabilityVector",
    "NumericalInstability",
    "OptimizerConfig",
    "ParseError",
    "SamplerSpec",
    "SpectralDecomposition",
    "SweepRow",
    "TeleportResult",
    "TeleportVerdict",
    "TheoremViolation",
    "ThresholdReport",
    "ToolkitError",
    "TraceNotOne",
    "ValidationError",
    "VerificationSummary",
    "WernerParams",
    "analyze_rho",
    "bell_diagonal",
    "bell_diagonal_coeffs",
    "classical_fidelity",
    "critical_epsilons",
    "densecoding_chi_standard",
    "densecoding_threshold",
    "densecoding_useful",
    "extremal_threshold_state",
    "extremal_threshold_weights",
    "fef_certified",
    "haar_unitary",
    "hermitian_entropy_bits",
    "high_entropy_density",
    "hs_random_density",
    "linear_entropy",
    "load_state",
    "partial_trace",
    "sample",
    "save_state",
    "shannon_bits",
    "spectral_decomposition",
    "state_from_dict",
    "state_to_dict",
    "sweep_csv",
    "sweep_werner",
    "teleport_threshold_linear",
    "teleport_threshold_vn",
    "teleportation_avg_fidelity_exact",
    "teleportation_avg_fidelity_mc",
    "usable_for_teleportation",
    "validate_density",
    "verify_theorem",
    "von_neumann_entropy",
    "werner",
    "werner_entropy_closed_form",
    "werner_fef_closed_form",
    "werner_purity_closed_form",
]


def test_public_names_are_the_listed_ones():
    # submodules are attributes of the package too, but not API names
    names = sorted(
        name
        for name in dir(qt)
        if not name.startswith("_")
        and not isinstance(getattr(qt, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_optimizer_options_are_the_listed_ones():
    fields = [f.name for f in dataclasses.fields(qt.OptimizerConfig)]
    assert fields == ["restarts", "seed"]


def test_sampler_kinds_are_the_listed_ones():
    assert KINDS == ("hilbert_schmidt", "rank_limited", "high_entropy")


@pytest.mark.parametrize("kind", ["haar_pure", "haar_unitary"])
def test_sampler_spec_rejects_non_density_kinds(kind):
    with pytest.raises(qt.InvalidParameter, match="unknown sampler kind"):
        qt.SamplerSpec(kind=kind, dim=4, seed=0)


def test_package_docstring_example_runs():
    failures, attempted = doctest.testmod(qt, optionflags=doctest.ELLIPSIS)
    assert attempted > 0 and failures == 0
