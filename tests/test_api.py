"""The public API of ``qthresh`` is this explicit list; a name added to or
removed from the package namespace fails here until the list is updated.
The options are pinned the same way: the fields of ``OptimizerConfig``
and ``SamplerSpec``, the sampler kinds and each CLI subcommand's
options.  The package docstring's
example runs here too, the package version is the one in
``pyproject.toml``, and importing the package in a fresh interpreter
loads nothing outside numpy and the standard library."""

import argparse
import dataclasses
import doctest
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qthresh as qt
from qthresh.cli import build_parser
from qthresh.sampling import KINDS

PUBLIC_NAMES = [
    "CriticalEpsilons",
    "DenseCodingVerdict",
    "DensityMatrix",
    "EntropyVerdict",
    "FefBounds",
    "NumericalInstability",
    "OptimizerConfig",
    "SamplerSpec",
    "SweepRow",
    "TeleportResult",
    "TeleportVerdict",
    "TheoremViolation",
    "ThresholdReport",
    "ToolkitError",
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
    "fef_certified",
    "haar_unitary",
    "hermitian_entropy_bits",
    "linear_entropy",
    "load_state",
    "partial_trace",
    "sample",
    "save_state",
    "shannon_bits",
    "spectral_decomposition",
    "state_to_dict",
    "sweep_csv",
    "sweep_werner",
    "teleport_threshold_linear",
    "teleport_threshold_vn",
    "teleportation_avg_fidelity_exact",
    "teleportation_avg_fidelity_mc",
    "usable_for_teleportation",
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


CLI_OPTIONS = {
    "analyze": ["--json", "--seed"],
    "verify": ["--json", "--mix", "--n", "--sampler", "--samples", "--seed"],
    "sweep": ["--json", "--n", "--out", "--points"],
    "fef": ["--json", "--seed"],
    "teleport": ["--json", "--mc-samples", "--seed"],
    "densecode": ["--json"],
    "thresholds": ["--json", "--n"],
}


def test_cli_options_are_the_listed_ones():
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        name: sorted(
            option
            for action in parser._actions
            if action.dest != "help"
            for option in action.option_strings
        )
        for name, parser in commands.choices.items()
    }
    assert options == CLI_OPTIONS


def test_sampler_spec_fields_are_the_listed_ones():
    fields = [f.name for f in dataclasses.fields(qt.SamplerSpec)]
    assert fields == ["kind", "dim", "mix_toward_identity", "seed"]


def test_sampler_kinds_are_the_listed_ones():
    assert KINDS == ("hilbert_schmidt", "high_entropy")


@pytest.mark.parametrize("kind", ["haar_pure", "haar_unitary", "rank_limited"])
def test_sampler_spec_rejects_non_density_kinds(kind):
    with pytest.raises(qt.ValidationError, match="unknown sampler kind"):
        qt.SamplerSpec(kind=kind, dim=4, seed=0)


def test_version_matches_pyproject():
    # a regex, because tomllib is not in the standard library before 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert match is not None and qt.__version__ == match.group(1)


def test_package_docstring_example_runs():
    failures, attempted = doctest.testmod(qt, optionflags=doctest.ELLIPSIS)
    assert attempted > 0 and failures == 0


def test_import_loads_only_numpy_and_the_standard_library():
    # every command's start-up pays for what the import loads, so a new
    # dependency or an eager heavy import shows here first
    code = (
        "import sys; before = set(sys.modules); import qthresh; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "qthresh" in loaded
    outside = {m for m in loaded if m not in sys.stdlib_module_names}
    assert outside <= {"numpy", "qthresh"}
