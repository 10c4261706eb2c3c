import numpy as np
import pytest

import qthresh as qt
from qthresh.errors import ValidationError
from qthresh import cli
from qthresh.sampling import high_entropy_density, hs_random_density

from oracles import (
    bell_basis,
    canonical_phi,
    entropy_solved_again,
    extremal_weights,
    maximally_mixed,
    phi_projector_state,
    shannon_entropy_in_basis,
)

# hand evaluation: W_2(1/2) has spectrum (0.625, 0.125 x3),
# S = -0.625 log2 0.625 - 3 * 0.125 log2 0.125 = 1.548794941...
W2_HALF_ENTROPY = 1.5487949406953985


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert qt.von_neumann_entropy(maximally_mixed(2)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_pure_state(self):
        rho = phi_projector_state(2)
        assert qt.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_werner_half(self):
        val = qt.von_neumann_entropy(qt.werner(qt.WernerParams(2, 0.5)))
        assert val == pytest.approx(W2_HALF_ENTROPY, abs=1e-9)

    def test_range(self):
        for seed in range(10):
            rho = hs_random_density(9, seed=seed)
            s = qt.von_neumann_entropy(rho)
            assert 0.0 <= s <= 2 * np.log2(3) + 1e-9

    def test_unitary_invariance(self):
        for seed in range(10):
            rho = hs_random_density(4, seed=seed)
            u = qt.haar_unitary(4, seed=seed + 100)
            rotated = qt.DensityMatrix(2, u @ rho.entries @ u.conj().T)
            assert qt.von_neumann_entropy(rotated) == pytest.approx(
                qt.von_neumann_entropy(rho), abs=1e-9
            )


class TestShannonInBasis:
    def test_maximally_mixed(self):
        val = shannon_entropy_in_basis(maximally_mixed(2), bell_basis(canonical_phi(2)))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_phi(self):
        rho = phi_projector_state(2)
        val = shannon_entropy_in_basis(rho, bell_basis(canonical_phi(2)))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_dominates_von_neumann(self):
        basis = bell_basis(canonical_phi(2))
        for seed in range(50):
            rho = hs_random_density(4, seed=seed)
            assert shannon_entropy_in_basis(rho, basis) >= (
                qt.von_neumann_entropy(rho) - 1e-9
            )


class TestLinearEntropy:
    def test_pure(self):
        rho = phi_projector_state(2)
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
                rho = hs_random_density(n * n, seed=seed)
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
            with pytest.raises(ValidationError, match="local dimension"):
                fn(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_extremal_distribution_saturates_threshold(self, n):
        # Shannon entropy of (1/N, uniform rest) equals the closed form exactly
        w = extremal_weights(n)
        assert abs(qt.shannon_bits(w) - qt.teleport_threshold_vn(n)) < 1e-12


class TestPurityConsistency:
    def test_certified_usable_states_below_linear_threshold(self):
        # F >= 1/N forces the linear entropy under its own threshold:
        # Tr rho^2 >= sum_i c_ii^2 >= 2/(N(N+1)) under the c_11 >= 1/N constraint
        found = 0
        for n in (2, 3):
            for seed in range(15):
                rho = hs_random_density(n * n, seed=seed)
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
        rho = hs_random_density(9, seed=3)
        values, vectors = qt.spectral_decomposition(rho.entries)
        assert np.all(np.diff(values) <= 1e-15)
        recon = (vectors * values) @ vectors.conj().T
        assert np.abs(recon - rho.entries).max() < 1e-8

    def test_orthonormal_eigenvectors(self):
        rho = hs_random_density(4, seed=4)
        _, v = qt.spectral_decomposition(rho.entries)
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-9


class TestStoredSpectrum:
    """A state's entropy reads the spectrum its construction solved for:
    the same number, to the bit, as a second solve of its entries."""

    def _states(self, tmp_path):
        for n in range(2, 9):
            for seed in range(3):
                yield hs_random_density(n * n, seed=10 * n + seed)
                yield high_entropy_density(n, 0.9, seed=10 * n + seed)
            yield qt.werner(qt.WernerParams(n, 0.37))
            yield qt.extremal_threshold_state(n)
            yield qt.bell_diagonal(n, extremal_weights(n))
            path = tmp_path / f"state{n}.json"
            qt.save_state(hs_random_density(n * n, seed=n), path)
            yield qt.load_state(path)

    def test_entropy_equals_a_second_solve(self, tmp_path):
        for rho in self._states(tmp_path):
            assert qt.von_neumann_entropy(rho) == entropy_solved_again(rho)

    def test_spectrum_is_read_only_and_the_entries_eigenvalues(self, tmp_path):
        for rho in self._states(tmp_path):
            np.testing.assert_array_equal(
                rho.spectrum, np.linalg.eigvalsh(rho.entries), strict=True
            )
            with pytest.raises(ValueError, match="read-only"):
                rho.spectrum[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                rho.entries[0, 0] = 0.0

    def test_spectrum_is_not_an_argument(self):
        with pytest.raises(TypeError):
            qt.DensityMatrix(2, np.eye(4) / 4, np.full(4, 0.25))


class TestSolvesPerState:
    """eigvalsh and eigh calls on the way from a state to its verdict."""

    @pytest.fixture
    def solves(self, monkeypatch):
        counts = {"eigvalsh": 0, "eigh": 0}
        for name in counts:
            solve = getattr(np.linalg, name)

            def counting(*args, _solve=solve, _name=name, **kwargs):
                counts[_name] += 1
                return _solve(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return counts

    @pytest.mark.parametrize(
        "n, spec",
        [
            (2, qt.SamplerSpec("hilbert_schmidt", 4, seed=3)),
            (3, qt.SamplerSpec("high_entropy", 9, mix_toward_identity=0.9, seed=3)),
        ],
        ids=["n2_hs", "n3_high_entropy"],
    )
    def test_verify_solves_once_per_sample(self, solves, n, spec):
        qt.verify_theorem(n, 6, spec)
        assert solves == {"eigvalsh": 6, "eigh": 6}

    def test_analyze_and_densecode_on_one_file(self, solves, tmp_path, capsys):
        # two file loads and two marginals; the states' own entropies
        # read the spectra the loads solved for
        path = tmp_path / "state.json"
        qt.save_state(hs_random_density(64, seed=5), path)
        solves["eigvalsh"] = 0
        assert cli.main(["analyze", str(path), "--json"]) == 0
        assert cli.main(["densecode", str(path), "--json"]) == 0
        assert solves["eigvalsh"] == 4
