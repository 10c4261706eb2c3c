"""Every scalar input of every entry point goes through one rule in
``states``: an integer (Python or numpy, not bool, with an optional
minimum), a seed (an integer >= 0, a SeedSequence or a Generator), a
real number in [0, 1], or a perfect-square total dimension.  Each
malformed value raises ``ValidationError``, never a bare ``TypeError``
or ``ValueError`` from deeper code, and the values accepted so far stay
accepted."""

import numpy as np
import pytest

import qthresh as qt
from qthresh.errors import ValidationError
from qthresh.sampling import high_entropy_density, hs_random_density
from qthresh.states import state_from_dict, state_to_dict

HS4 = qt.SamplerSpec(kind="hilbert_schmidt", dim=4)


def _werner2():
    return qt.werner(qt.WernerParams(2, 0.5))


def _state_with_n(n):
    payload = state_to_dict(_werner2())
    payload["n"] = n
    return state_from_dict(payload)


# entry point and input -> a call that puts the value there, and the
# smallest value the rule allows (None where any integer is allowed)
INTEGER_INPUTS = {
    "haar_unitary.n": (lambda v: qt.haar_unitary(v, 0), 1),
    "haar_unitary.seed": (lambda v: qt.haar_unitary(2, v), 0),
    "hs_random_density.dim": (lambda v: hs_random_density(v, 0), 4),
    "hs_random_density.seed": (lambda v: hs_random_density(4, v), 0),
    "high_entropy_density.n": (lambda v: high_entropy_density(v, 0.5, 0), 2),
    "high_entropy_density.seed": (lambda v: high_entropy_density(2, 0.5, v), 0),
    "sample.index": (lambda v: qt.sample(HS4, v), 0),
    "SamplerSpec.dim": (lambda v: qt.SamplerSpec("hilbert_schmidt", v), 4),
    "SamplerSpec.seed": (lambda v: qt.SamplerSpec("hilbert_schmidt", 4, seed=v), 0),
    "OptimizerConfig.restarts": (lambda v: qt.OptimizerConfig(restarts=v), 1),
    "OptimizerConfig.seed": (lambda v: qt.OptimizerConfig(seed=v), None),
    "verify_theorem.n": (lambda v: qt.verify_theorem(v, 1), 2),
    "verify_theorem.samples": (lambda v: qt.verify_theorem(2, v), 1),
    "sweep_werner.n": (lambda v: qt.sweep_werner(v, 2), 2),
    "sweep_werner.grid_points": (lambda v: qt.sweep_werner(2, v), 2),
    "mc.n_samples": (
        lambda v: qt.teleportation_avg_fidelity_mc(_werner2(), v, seed=0), 100
    ),
    "mc.seed": (lambda v: qt.teleportation_avg_fidelity_mc(_werner2(), 100, seed=v), 0),
    "WernerParams.n": (lambda v: qt.WernerParams(v, 0.5), 2),
    "state_from_dict.n": (_state_with_n, 2),
}

UNIT_INPUTS = {
    "WernerParams.epsilon": lambda v: qt.WernerParams(2, v),
    "high_entropy_density.mix": lambda v: high_entropy_density(2, v, 0),
    "SamplerSpec.mix_toward_identity": lambda v: qt.SamplerSpec(
        "high_entropy", 4, mix_toward_identity=v
    ),
}


def _integer_cases():
    for name, (call, minimum) in INTEGER_INPUTS.items():
        good = 4 if minimum is None else max(minimum, 2)
        bad = {
            "float": float(good),
            "fraction": good + 0.5,
            "np_float64": np.float64(good),
            "bool": True,
            "str": str(good),
            "none": None,
        }
        if minimum is not None:
            bad["below_minimum"] = minimum - 1
        for label, value in bad.items():
            yield pytest.param(call, value, id=f"{name}-{label}")


def _unit_cases():
    bad = {"str": "0.5", "nan": float("nan"), "none": None, "bool": True,
           "negative": -0.5, "above_one": 1.5}
    for name, call in UNIT_INPUTS.items():
        for label, value in bad.items():
            yield pytest.param(call, value, id=f"{name}-{label}")


@pytest.mark.parametrize("call, value", [*_integer_cases(), *_unit_cases()])
def test_malformed_scalar_raises_validation_error(call, value):
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: qt.haar_unitary(np.int64(2), np.int64(1)),
        lambda: qt.haar_unitary(2, np.random.SeedSequence(1)),
        lambda: qt.haar_unitary(2, np.random.default_rng(1)),
        lambda: hs_random_density(np.int64(4), np.random.SeedSequence(1)),
        lambda: hs_random_density(4, np.random.default_rng(1)),
        lambda: high_entropy_density(np.int64(2), np.float64(0.5), np.int64(1)),
        lambda: high_entropy_density(2, 1, np.random.default_rng(1)),
        lambda: qt.sample(HS4, np.int64(3)),
        lambda: qt.SamplerSpec(
            "high_entropy", np.int64(4), np.float64(0.5), seed=np.int64(1)
        ),
        lambda: qt.OptimizerConfig(restarts=np.int64(2), seed=-3),
        lambda: qt.verify_theorem(np.int64(2), np.int64(1)),
        lambda: qt.sweep_werner(np.int64(2), np.int64(2)),
        lambda: qt.teleportation_avg_fidelity_mc(
            _werner2(), np.int64(100), seed=np.random.SeedSequence(1)
        ),
        lambda: qt.teleportation_avg_fidelity_mc(
            _werner2(), 100, seed=np.random.default_rng(1)
        ),
        lambda: qt.WernerParams(np.int64(2), np.float64(0.5)),
        lambda: qt.WernerParams(2, 0),
    ],
    ids=[
        "haar_unitary-np_int64",
        "haar_unitary-seed_sequence",
        "haar_unitary-generator",
        "hs_random_density-seed_sequence",
        "hs_random_density-generator",
        "high_entropy_density-numpy_scalars",
        "high_entropy_density-int_mix-generator",
        "sample-np_int64_index",
        "SamplerSpec-numpy_scalars",
        "OptimizerConfig-negative_seed",
        "verify_theorem-np_int64",
        "sweep_werner-np_int64",
        "mc-seed_sequence",
        "mc-generator",
        "WernerParams-numpy_scalars",
        "WernerParams-int_epsilon",
    ],
)
def test_accepted_inputs_stay_accepted(call):
    call()
