"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; any
assertion failure is the FAIL line for that criterion.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import qthresh as qt
from qthresh.sampling import hs_random_density
from oracles import (
    bell_basis,
    canonical_phi,
    densecoding_ensemble,
    densecoding_holevo,
    extremal_weights,
    fef_bell_diagonal_exact,
    fef_bruteforce_n2,
    maximally_mixed,
    phi_projector_state,
    shannon_entropy_in_basis,
)


def _announce(number, text):
    print(f"[PASS] criterion {number}: {text}")


def _mc_within_3_sigma(resource, seed):
    """3-sigma agreement with one reseeded retry, tiny absolute floor for
    resources whose per-input fidelity is constant."""
    for attempt_seed in (seed, seed + 1):
        result = qt.teleportation_avg_fidelity_mc(resource, 100_000, seed=attempt_seed)
        if abs(result.f_avg_mc - result.f_avg_exact) <= 3 * result.mc_std_error + 1e-12:
            return result
    raise AssertionError(
        f"MC fidelity {result.f_avg_mc} vs exact {result.f_avg_exact} "
        f"exceeds 3 sigma ({result.mc_std_error}) twice"
    )


def test_criterion_1_threshold_formulas():
    assert abs(qt.teleport_threshold_vn(2) - 1.7924813) <= 1e-6
    assert abs(qt.teleport_threshold_vn(3) - 2.9182958) <= 1e-6
    assert qt.teleport_threshold_linear(2) == 2 / 3
    _announce(1, "closed-form thresholds at N=2, 3")


def test_criterion_2_extremal_saturation():
    for n in range(2, 7):
        rho = qt.extremal_threshold_state(n)
        assert abs(qt.von_neumann_entropy(rho) - qt.teleport_threshold_vn(n)) <= 1e-9
        value, index = fef_bell_diagonal_exact(extremal_weights(n))
        assert value == 1.0 / n and index == 0
        assert abs(qt.linear_entropy(rho) - qt.teleport_threshold_linear(n)) <= 1e-12
    _announce(2, "extremal states saturate S, F and S_L thresholds for N=2..6")


def test_criterion_3_theorem_verification():
    cfg = qt.OptimizerConfig(restarts=16, seed=0)
    # cells (S>T & F>, S>T & F<=, S<=T & F>, S<=T & F<=) of each run,
    # pinned: a faster search must not move a single verdict
    runs = [
        (
            2,
            10_000,
            qt.SamplerSpec(kind="hilbert_schmidt", dim=4, seed=101),
            (0, 5, 5510, 4485),
        ),
        (
            2,
            1_000,
            qt.SamplerSpec(
                kind="high_entropy", dim=4, mix_toward_identity=0.9, seed=102
            ),
            (0, 1000, 0, 0),
        ),
        (
            3,
            1_000,
            qt.SamplerSpec(kind="hilbert_schmidt", dim=9, seed=103),
            (0, 0, 49, 951),
        ),
    ]
    for n, samples, spec, cells in runs:
        summary = qt.verify_theorem(n, samples, spec, cfg)
        assert summary.violations == 0
        assert summary.contrapositive_violations == 0
        assert summary.samples == samples
        assert (
            summary.s_above_f_above,
            summary.s_above_f_below,
            summary.s_below_f_above,
            summary.s_below_f_below,
        ) == cells
    _announce(3, "zero violations over 12000 sampled states at N=2, 3")


def test_criterion_4_shannon_dominance():
    for n in (2, 3):
        bases = [bell_basis(canonical_phi(n))]
        for seed in range(5):
            u = qt.haar_unitary(n, seed=seed + 900)
            bases.append(bell_basis((u @ canonical_phi(n).reshape(n, n)).reshape(-1)))
        for index in range(1000):
            rho = qt.sample(
                qt.SamplerSpec(kind="hilbert_schmidt", dim=n * n, seed=104), index
            )
            s_vn = qt.von_neumann_entropy(rho)
            for basis in bases:
                assert shannon_entropy_in_basis(rho, basis) >= s_vn - 1e-9
    _announce(4, "basis Shannon entropy dominates S on 2000 states x 6 bases")


def test_criterion_5_werner_closed_forms():
    cfg = qt.OptimizerConfig(restarts=16, seed=0)
    for n in (2, 3, 4):
        for eps in np.linspace(0.0, 1.0, 11):
            params = qt.WernerParams(n, float(eps))
            closed_s = qt.werner_entropy_closed_form(params)
            numeric_s = qt.von_neumann_entropy(qt.werner(params))
            assert abs(closed_s - numeric_s) <= 1e-9
            closed_f = qt.werner_fef_closed_form(params)
            lower = qt.fef_certified(qt.werner(params), cfg).lower
            assert abs(closed_f - lower) <= 1e-6
    for eps in (0.25, 0.5, 0.75):
        oracle = fef_bruteforce_n2(qt.werner(qt.WernerParams(2, eps)).entries)
        assert abs(oracle - qt.werner_fef_closed_form(qt.WernerParams(2, eps))) <= 1e-4
    _announce(5, "Werner entropy and F closed forms vs numeric, optimizer, oracle")


def test_criterion_6_dense_coding_identity():
    rng = np.random.default_rng(105)
    # equality of the Holevo formula needs a maximally mixed Bob marginal;
    # random basis-diagonal states are exactly that family
    for n in (2, 3):
        for _ in range(25):
            rho = qt.bell_diagonal(n, rng.dirichlet(np.ones(n * n)))
            chi = densecoding_holevo(densecoding_ensemble(rho))
            assert abs(chi - (2 * np.log2(n) - qt.von_neumann_entropy(rho))) <= 1e-9
    # threshold direction holds for arbitrary states
    checked = 0
    for n in (2, 3):
        for index in range(25):
            rho = qt.sample(
                qt.SamplerSpec(
                    kind="high_entropy",
                    dim=n * n,
                    mix_toward_identity=0.8,
                    seed=106,
                ),
                index,
            )
            if qt.von_neumann_entropy(rho) > np.log2(n):
                chi = densecoding_holevo(densecoding_ensemble(rho))
                assert chi <= np.log2(n) + 1e-9
                checked += 1
    assert checked > 0
    _announce(6, "Holevo identity on 50 states and threshold direction")


def test_criterion_7_teleportation_operational():
    resources = [
        ("phi n=2", phi_projector_state(2)),
        ("phi n=3", phi_projector_state(3)),
        ("mm n=2", maximally_mixed(2)),
        ("mm n=3", maximally_mixed(3)),
        ("W_2(0.5)", qt.werner(qt.WernerParams(2, 0.5))),
        ("W_3(0.4)", qt.werner(qt.WernerParams(3, 0.4))),
    ]
    rng = np.random.default_rng(107)
    resources.append(("belldiag n=2", qt.bell_diagonal(2, rng.dirichlet(np.ones(4)))))
    resources.append(("belldiag n=3", qt.bell_diagonal(3, rng.dirichlet(np.ones(9)))))
    resources.append(("random n=2", hs_random_density(4, seed=109)))
    resources.append(("random n=3", hs_random_density(9, seed=110)))
    for label, resource in resources:
        result = _mc_within_3_sigma(resource, seed=108)
        if label.startswith("phi"):
            assert abs(result.f_avg_mc - 1.0) <= 1e-10
            assert abs(result.f_avg_exact - 1.0) <= 1e-12
    for rho in (maximally_mixed(2), maximally_mixed(3)):
        assert qt.fef_certified(rho).upper < 1.0 / rho.n
        exact = qt.teleportation_avg_fidelity_exact(rho)
        assert exact.f_avg_exact < qt.classical_fidelity(rho.n) + 1e-9
    _announce(7, "MC fidelity matches (N f_phi + 1)/(N+1) on 10 resources")


def test_criterion_8_threshold_ordering():
    cfg = qt.OptimizerConfig(restarts=16, seed=0)
    for n in range(2, 9):
        assert qt.densecoding_threshold(n) < qt.teleport_threshold_vn(n)
        # the midpoint Werner state sits between the two entropy thresholds
        params = qt.WernerParams(n, 0.5)
        s = qt.werner_entropy_closed_form(params)
        assert qt.densecoding_threshold(n) < s < qt.teleport_threshold_vn(n)
        rho = qt.werner(params)
        assert qt.densecoding_useful(rho) is qt.DenseCodingVerdict.NOT_USEFUL
        bounds = qt.fef_certified(rho, cfg)
        assert (
            qt.usable_for_teleportation(bounds, n)
            is qt.TeleportVerdict.USABLE_CERTIFIED
        )
    _announce(8, "dense coding fails before teleportation for N=2..8")


def test_criterion_9_determinism(tmp_path):
    verify_cmd = [
        sys.executable, "-m", "qthresh.cli", "verify", "--n", "2",
        "--samples", "50", "--sampler", "hs", "--seed", "7", "--json",
    ]
    first = subprocess.run(verify_cmd, capture_output=True, check=True)
    second = subprocess.run(verify_cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout and len(first.stdout) > 0

    path = tmp_path / "extremal.json"
    qt.save_state(qt.extremal_threshold_state(2), path)
    analyze_cmd = [
        sys.executable, "-m", "qthresh.cli", "analyze", str(path),
        "--seed", "11", "--json",
    ]
    first = subprocess.run(analyze_cmd, capture_output=True, check=True)
    second = subprocess.run(analyze_cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout and len(first.stdout) > 0
    json.loads(first.stdout)  # well-formed
    _announce(9, "byte-identical JSON for repeated seeded verify/analyze")
