import numpy as np
import pytest

import qthresh as qt
from qthresh.errors import InvalidDimension

from oracles import maximally_mixed, shannon_entropy_in_basis

# hand evaluation: W_2(1/2) has spectrum (0.625, 0.125 x3),
# S = -0.625 log2 0.625 - 3 * 0.125 log2 0.125 = 1.548794941...
W2_HALF_ENTROPY = 1.5487949406953985


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert qt.von_neumann_entropy(maximally_mixed(2)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_pure_state(self):
        rho = qt.DensityMatrix(2, qt.canonical_phi(2).projector())
        assert qt.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_werner_half(self):
        val = qt.von_neumann_entropy(qt.werner(qt.WernerParams(2, 0.5)))
        assert val == pytest.approx(W2_HALF_ENTROPY, abs=1e-9)

    def test_range(self):
        for seed in range(10):
            rho = qt.hs_random_density(9, 9, seed=seed)
            s = qt.von_neumann_entropy(rho)
            assert 0.0 <= s <= 2 * np.log2(3) + 1e-9

    def test_unitary_invariance(self):
        for seed in range(10):
            rho = qt.hs_random_density(4, 4, seed=seed)
            u = qt.haar_unitary(4, seed=seed + 100)
            rotated = qt.validate_density(u @ rho.entries @ u.conj().T, 2)
            assert qt.von_neumann_entropy(rotated) == pytest.approx(
                qt.von_neumann_entropy(rho), abs=1e-9
            )


class TestShannonInBasis:
    def test_maximally_mixed(self):
        val = shannon_entropy_in_basis(maximally_mixed(2), qt.bell_basis(2))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_phi(self):
        rho = qt.DensityMatrix(2, qt.canonical_phi(2).projector())
        val = shannon_entropy_in_basis(rho, qt.bell_basis(2))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_dominates_von_neumann(self):
        basis = qt.bell_basis(2)
        for seed in range(50):
            rho = qt.hs_random_density(4, 4, seed=seed)
            assert shannon_entropy_in_basis(rho, basis) >= (
                qt.von_neumann_entropy(rho) - 1e-9
            )


class TestLinearEntropy:
    def test_pure(self):
        rho = qt.DensityMatrix(2, qt.canonical_phi(2).projector())
        assert qt.linear_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert qt.linear_entropy(maximally_mixed(2)) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_werner_half(self):
        # purity 0.625^2 + 3 * 0.125^2 = 0.4375 by hand
        val = qt.linear_entropy(qt.werner(qt.WernerParams(2, 0.5)))
        assert val == pytest.approx(0.5625, abs=1e-12)

    def test_upper_limit(self):
        for n in (2, 3):
            for seed in range(5):
                rho = qt.hs_random_density(n * n, n * n, seed=seed)
                assert qt.linear_entropy(rho) <= 1 - 1 / (n * n) + 1e-12


class TestThresholds:
    def test_teleport_vn_n2(self):
        # 1 + 0.5 log2 3 evaluated by hand
        assert qt.teleport_threshold_vn(2) == pytest.approx(1.7924813, abs=1e-6)

    def test_teleport_vn_n3(self):
        # log2 3 + (2/3) * 2
        assert qt.teleport_threshold_vn(3) == pytest.approx(2.9182958, abs=1e-6)

    def test_teleport_vn_asymptote(self):
        ratio = qt.teleport_threshold_vn(1024) / (2 * np.log2(1024))
        assert abs(ratio - 1.0) < 0.06

    def test_teleport_linear_exact_values(self):
        assert qt.teleport_threshold_linear(2) == 2 / 3
        assert qt.teleport_threshold_linear(3) == 5 / 6

    def test_teleport_linear_monotone(self):
        assert qt.teleport_threshold_linear(8) > qt.teleport_threshold_linear(4)
        values = [qt.teleport_threshold_linear(n) for n in range(2, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_densecoding(self):
        assert qt.densecoding_threshold(2) == pytest.approx(1.0, abs=1e-15)
        assert qt.densecoding_threshold(4) == pytest.approx(2.0, abs=1e-15)

    def test_densecoding_below_teleport(self):
        for n in range(2, 9):
            assert qt.densecoding_threshold(n) < qt.teleport_threshold_vn(n)

    def test_invalid_dimension(self):
        for fn in (
            qt.teleport_threshold_vn,
            qt.teleport_threshold_linear,
            qt.densecoding_threshold,
        ):
            with pytest.raises(InvalidDimension):
                fn(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_extremal_distribution_saturates_threshold(self, n):
        # Shannon entropy of (1/N, uniform rest) equals the closed form exactly
        w = qt.extremal_threshold_weights(n)
        assert abs(qt.shannon_bits(w) - qt.teleport_threshold_vn(n)) < 1e-12


class TestPurityConsistency:
    def test_certified_usable_states_below_linear_threshold(self):
        # F >= 1/N forces the linear entropy under its own threshold:
        # Tr rho^2 >= sum_i c_ii^2 >= 2/(N(N+1)) under the c_11 >= 1/N constraint
        found = 0
        for n in (2, 3):
            for seed in range(15):
                rho = qt.hs_random_density(n * n, n * n, seed=seed)
                bounds = qt.fef_certified(rho)
                if bounds.lower >= 1.0 / n:
                    assert qt.linear_entropy(rho) <= (
                        qt.teleport_threshold_linear(n) + 1e-9
                    )
                    found += 1
        assert found > 0

    def test_werner_family_consistency(self):
        for n in (2, 3):
            for eps in np.linspace(1.0 / n, 1.0, 9):
                params = qt.WernerParams(n, float(eps))
                assert qt.werner_fef_closed_form(params) >= 1.0 / n
                assert qt.linear_entropy(qt.werner(params)) <= (
                    qt.teleport_threshold_linear(n) + 1e-9
                )


class TestSpectralDecomposition:
    def test_reconstruction_and_order(self):
        rho = qt.hs_random_density(9, 9, seed=3)
        dec = qt.spectral_decomposition(rho.entries)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-15)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.abs(recon - rho.entries).max() < 1e-8

    def test_orthonormal_eigenvectors(self):
        rho = qt.hs_random_density(4, 4, seed=4)
        v = qt.spectral_decomposition(rho.entries).eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-9
