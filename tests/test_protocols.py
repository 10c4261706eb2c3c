import math
import tracemalloc

import numpy as np
import pytest

import qthresh as qt
from qthresh.errors import DimensionMismatch, InvalidParameter
from oracles import (
    _channel_transfer_matrix,
    densecoding_ensemble,
    densecoding_holevo,
    haar_pure,
    maximally_mixed,
    rotate_first_factor,
    teleportation_channel_apply,
    tensor,
)
from qthresh.protocols import _MC_CHUNK_ENTRIES, _fold_weights, _weyl_fidelities


def phi_projector_state(n):
    return qt.DensityMatrix(n, qt.canonical_phi(n).projector())


class TestTeleportationChannel:
    @pytest.mark.parametrize("n", [2, 3])
    def test_perfect_resource(self, n):
        resource = phi_projector_state(n)
        for seed in range(4):
            psi = haar_pure(n, seed=seed)
            out = teleportation_channel_apply(resource, psi)
            assert np.abs(out - psi.projector()).max() < 1e-10

    def test_maximally_mixed_resource_depolarizes(self):
        ket0 = qt.PureState(2, np.array([1, 0], dtype=complex))
        out = teleportation_channel_apply(maximally_mixed(2), ket0)
        assert np.abs(out - np.eye(2) / 2).max() < 1e-10

    def test_werner_resource_acts_depolarizing(self):
        plus = qt.PureState(2, np.array([1, 1], dtype=complex) / np.sqrt(2))
        out = teleportation_channel_apply(qt.werner(qt.WernerParams(2, 0.5)), plus)
        fidelity = float((plus.amplitudes.conj() @ out @ plus.amplitudes).real)
        assert fidelity == pytest.approx(0.75, abs=1e-9)

    def test_trace_preserving_on_random_pairs(self):
        for n in (2, 3):
            for i in range(50):
                resource = qt.hs_random_density(n * n, n * n, seed=1000 + i)
                psi = haar_pure(n, seed=2000 + i)
                out = teleportation_channel_apply(resource, psi)
                assert abs(float(np.trace(out).real) - 1.0) < 1e-9
                assert np.abs(out - out.conj().T).max() < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            teleportation_channel_apply(
                maximally_mixed(3), haar_pure(2, seed=0)
            )

    def test_transfer_matrix_matches_direct_application(self):
        resource = qt.hs_random_density(4, 4, seed=17)
        transfer = _channel_transfer_matrix(resource)
        psi = haar_pure(2, seed=18)
        direct = teleportation_channel_apply(resource, psi)
        via_matrix = (transfer @ psi.projector().reshape(-1)).reshape(2, 2)
        assert np.abs(direct - via_matrix).max() < 1e-12


class TestAverageFidelity:
    def test_perfect_resource(self):
        result = qt.teleportation_avg_fidelity_exact(phi_projector_state(2))
        assert result.f_phi == pytest.approx(1.0, abs=1e-12)
        assert result.f_avg_exact == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        result = qt.teleportation_avg_fidelity_exact(maximally_mixed(2))
        assert result.f_avg_exact == pytest.approx(0.5, abs=1e-12)

    def test_werner_half(self):
        result = qt.teleportation_avg_fidelity_exact(qt.werner(qt.WernerParams(2, 0.5)))
        assert result.f_phi == pytest.approx(0.625, abs=1e-12)
        assert result.f_avg_exact == pytest.approx(0.75, abs=1e-12)

    def test_classical_benchmark_from_formula(self):
        # f_phi = 1/N plugged into the formula gives 2/(N+1)
        for n in (2, 3, 4):
            assert (n * (1.0 / n) + 1) / (n + 1) == pytest.approx(
                qt.classical_fidelity(n)
            )

    def test_certified_useless_resource_below_classical(self):
        for n in (2, 3):
            rho = maximally_mixed(n)
            assert qt.fef_certified(rho).upper < 1.0 / n
            result = qt.teleportation_avg_fidelity_exact(rho)
            assert result.f_avg_exact < qt.classical_fidelity(n) + 1e-9


class TestMonteCarloFidelity:
    def test_perfect_resource(self):
        result = qt.teleportation_avg_fidelity_mc(phi_projector_state(2), 1000, seed=1)
        assert result.f_avg_mc == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_within_4_sigma(self):
        result = qt.teleportation_avg_fidelity_mc(maximally_mixed(2), 10_000, seed=2)
        assert abs(result.f_avg_mc - 0.5) <= 4 * result.mc_std_error + 1e-12

    def test_werner3_matches_formula(self):
        resource = qt.werner(qt.WernerParams(3, 0.4))
        result = qt.teleportation_avg_fidelity_mc(resource, 100_000, seed=3)
        assert result.f_phi == pytest.approx(0.4 + 0.6 / 9, abs=1e-12)
        assert abs(result.f_avg_mc - result.f_avg_exact) <= (
            3 * result.mc_std_error + 1e-12
        )

    def test_bell_diagonal_resource_within_3_sigma(self):
        resource = qt.bell_diagonal(2, [0.55, 0.25, 0.15, 0.05])
        result = qt.teleportation_avg_fidelity_mc(resource, 100_000, seed=4)
        assert result.mc_std_error > 0
        assert abs(result.f_avg_mc - result.f_avg_exact) <= (
            3 * result.mc_std_error + 1e-12
        )

    def test_determinism(self):
        resource = qt.werner(qt.WernerParams(2, 0.3))
        a = qt.teleportation_avg_fidelity_mc(resource, 500, seed=9)
        b = qt.teleportation_avg_fidelity_mc(resource, 500, seed=9)
        assert a.f_avg_mc == b.f_avg_mc and a.mc_std_error == b.mc_std_error

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(InvalidParameter):
            qt.teleportation_avg_fidelity_mc(maximally_mixed(2), 50)


def weyl_test_resources(n):
    rng = np.random.default_rng(100 + n)
    return {
        "hs": qt.hs_random_density(n * n, n * n, seed=n),
        "werner": qt.werner(qt.WernerParams(n, 0.4)),
        "bell_diagonal": qt.bell_diagonal(n, rng.dirichlet(np.ones(n * n))),
        "extremal": qt.extremal_threshold_state(n),
    }


def haar_inputs(rng, count, n):
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestWeylChannelFidelity:
    """The Monte Carlo fast path against the literal channel simulator and
    the oracle transfer matrix, which share none of its code."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kind", ["hs", "werner", "bell_diagonal", "extremal"])
    def test_per_input_fidelity_matches_channel(self, n, kind):
        rho = weyl_test_resources(n)[kind]
        weights = qt.bell_diagonal_coeffs(rho, qt.bell_basis(n))
        psi = haar_inputs(np.random.default_rng(7 * n), 20, n)
        fast = _weyl_fidelities(
            _fold_weights(weights, n),
            psi,
            np.empty((20, n // 2 + 1, n), dtype=complex),
            np.empty(20),
        )
        for row, f in zip(psi, fast):
            out = teleportation_channel_apply(rho, qt.PureState(n, row))
            assert abs(f - float((row.conj() @ out @ row).real)) < 1e-12

    @pytest.mark.parametrize("n, n_samples", [(2, 40_000), (3, 21_966), (4, 10_000)])
    def test_chunked_estimator_matches_transfer_matrix(self, n, n_samples):
        rho = qt.hs_random_density(n * n, n * n, seed=30 + n)
        transfer = _channel_transfer_matrix(rho)
        chunk = _MC_CHUNK_ENTRIES // (n * n)
        assert n_samples > 2 * chunk and n_samples % chunk
        rng = np.random.default_rng(11)
        fid = []
        for start in range(0, n_samples, chunk):
            psi = haar_inputs(rng, min(chunk, n_samples - start), n)
            vec = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(len(psi), -1)
            fid.append((vec.conj() * (vec @ transfer.T)).sum(axis=1).real)
        fid = np.concatenate(fid)
        result = qt.teleportation_avg_fidelity_mc(rho, n_samples, seed=11)
        assert result.n_samples == n_samples
        assert abs(result.f_avg_mc - fid.mean()) < 1e-12
        assert abs(
            result.mc_std_error - fid.std(ddof=1) / math.sqrt(n_samples)
        ) < 1e-12

    @pytest.mark.parametrize("n_samples", [100_000, 400_000])
    def test_memory_does_not_grow_with_samples(self, n_samples):
        rho = qt.hs_random_density(64, 64, seed=5)
        tracemalloc.start()
        try:
            qt.teleportation_avg_fidelity_mc(rho, n_samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_memory_stays_within_one_workspace(self, n):
        rho = qt.hs_random_density(n * n, n * n, seed=5)
        tracemalloc.start()
        try:
            qt.teleportation_avg_fidelity_mc(rho, 100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_page_faults_do_not_grow_with_samples(self):
        resource = pytest.importorskip("resource")
        rho = qt.hs_random_density(64, 64, seed=5)

        def faults(n_samples):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            qt.teleportation_avg_fidelity_mc(rho, n_samples, seed=0)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        assert abs(faults(400_000) - faults(100_000)) <= 5_000


class TestRotationRecipe:
    def test_prerotation_links_fidelity_to_fef(self):
        resource = qt.bell_diagonal(2, [0.2, 0.5, 0.2, 0.1])
        bounds = qt.fef_certified(resource)
        rotated = rotate_first_factor(resource, bounds.best_unitary.conj().T)
        result = qt.teleportation_avg_fidelity_exact(rotated)
        assert result.f_phi == pytest.approx(bounds.lower, abs=1e-9)
        assert result.f_avg_exact == pytest.approx(
            (2 * bounds.lower + 1) / 3, abs=1e-9
        )

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            rotate_first_factor(maximally_mixed(2), np.eye(3))


class TestDenseCodingEnsemble:
    def test_phi_gives_orthogonal_signals(self):
        ensemble = densecoding_ensemble(phi_projector_state(2))
        assert len(ensemble.signal_states) == 4
        np.testing.assert_allclose(ensemble.probabilities, [0.25] * 4)
        vectors = []
        for sig in ensemble.signal_states:
            vals, vecs = np.linalg.eigh(sig.entries)
            vectors.append(vecs[:, -1])
        gram = np.array(
            [[abs(np.vdot(a, b)) for b in vectors] for a in vectors]
        )
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_maximally_mixed_signals_identical(self):
        ensemble = densecoding_ensemble(maximally_mixed(2))
        for sig in ensemble.signal_states:
            np.testing.assert_allclose(sig.entries, np.eye(4) / 4, atol=1e-12)

    def test_average_first_marginal_maximally_mixed(self):
        for seed in range(5):
            rho = qt.hs_random_density(4, 4, seed=seed)
            ensemble = densecoding_ensemble(rho)
            avg = sum(
                p * sig.entries
                for p, sig in zip(ensemble.probabilities, ensemble.signal_states)
            )
            avg_state = qt.DensityMatrix(2, avg)
            np.testing.assert_allclose(
                qt.partial_trace(avg_state, "second"), np.eye(2) / 2, atol=1e-10
            )
            # the twirl leaves exactly I/N (x) Tr_first(rho)
            expected = tensor(np.eye(2) / 2, qt.partial_trace(rho, "first"))
            np.testing.assert_allclose(avg, expected, atol=1e-10)

    def test_average_entropy_for_basis_diagonal_states(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            rho = qt.bell_diagonal(2, rng.dirichlet(np.ones(4)))
            ensemble = densecoding_ensemble(rho)
            avg = sum(
                p * sig.entries
                for p, sig in zip(ensemble.probabilities, ensemble.signal_states)
            )
            s_avg = qt.von_neumann_entropy(qt.DensityMatrix(2, avg))
            assert s_avg == pytest.approx(2.0, abs=1e-9)


class TestHolevo:
    def test_phi(self):
        chi = densecoding_holevo(densecoding_ensemble(phi_projector_state(2)))
        assert chi == pytest.approx(2.0, abs=1e-9)

    def test_maximally_mixed(self):
        chi = densecoding_holevo(densecoding_ensemble(maximally_mixed(2)))
        assert chi == pytest.approx(0.0, abs=1e-9)

    def test_werner_half(self):
        chi = qt.densecoding_chi_standard(qt.werner(qt.WernerParams(2, 0.5)))
        assert chi == pytest.approx(0.451205, abs=1e-6)

    def test_identity_for_basis_diagonal_states(self):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            for _ in range(5):
                rho = qt.bell_diagonal(n, rng.dirichlet(np.ones(n * n)))
                chi = densecoding_holevo(densecoding_ensemble(rho))
                assert chi == pytest.approx(
                    2 * np.log2(n) - qt.von_neumann_entropy(rho), abs=1e-9
                )

    def test_standard_fast_path_matches_ensemble(self):
        for n in (2, 3):
            for seed in range(5):
                rho = qt.hs_random_density(n * n, n * n, seed=seed)
                via_ensemble = densecoding_holevo(densecoding_ensemble(rho))
                via_identity = qt.densecoding_chi_standard(rho)
                assert via_ensemble == pytest.approx(via_identity, abs=1e-9)

    def test_nonnegative_and_bounded(self):
        for seed in range(10):
            rho = qt.hs_random_density(4, 4, seed=seed)
            chi = qt.densecoding_chi_standard(rho)
            assert chi >= -1e-9
            assert chi <= 2.0 - qt.von_neumann_entropy(rho) + 1e-9


class TestDenseCodingVerdict:
    def test_phi_useful(self):
        assert (
            qt.densecoding_useful(phi_projector_state(2))
            is qt.DenseCodingVerdict.USEFUL
        )

    def test_high_entropy_state_not_useful(self):
        # any two-qubit-pair state with S = 1.2 bits has chi <= 0.8
        eps = 0.0
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            eps = 0.5 * (lo + hi)
            if qt.werner_entropy_closed_form(qt.WernerParams(2, eps)) > 1.2:
                lo = eps
            else:
                hi = eps
        rho = qt.werner(qt.WernerParams(2, eps))
        assert qt.von_neumann_entropy(rho) == pytest.approx(1.2, abs=1e-9)
        assert qt.densecoding_chi_standard(rho) == pytest.approx(0.8, abs=1e-9)
        assert qt.densecoding_useful(rho) is qt.DenseCodingVerdict.NOT_USEFUL

    def test_boundary_epsilon_not_useful(self):
        crit = qt.critical_epsilons(2)
        rho = qt.werner(qt.WernerParams(2, crit.eps_entropy_at_densecoding_threshold))
        chi = qt.densecoding_chi_standard(rho)
        assert chi == pytest.approx(1.0, abs=1e-8)
        assert qt.densecoding_useful(rho) is qt.DenseCodingVerdict.NOT_USEFUL
