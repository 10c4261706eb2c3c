import json

import numpy as np
import pytest

import qthresh as qt
from qthresh.errors import ValidationError
from qthresh.sampling import hs_random_density
from qthresh.states import state_from_dict

from oracles import (
    basis_weights,
    bell_basis,
    canonical_phi,
    maximally_mixed,
    partial_trace_second,
    phi_projector_state,
    tensor,
    weyl_operator,
)


class TestValidateDensity:
    def test_maximally_mixed_is_valid(self):
        rho = qt.DensityMatrix(2, np.eye(4) / 4)
        assert rho.n == 2
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4)

    def test_not_psd(self):
        with pytest.raises(ValidationError, match="minimum eigenvalue -?0?\\.?0?5"):
            qt.DensityMatrix(2, np.diag([0.55, 0.5, 0.0, -0.05]))

    def test_trace_not_one(self):
        with pytest.raises(ValidationError, match="trace - 1"):
            qt.DensityMatrix(2, np.diag([0.5, 0.6, 0.0, 0.0]))

    def test_wrong_shape(self):
        with pytest.raises(ValidationError, match="expected shape"):
            qt.DensityMatrix(2, np.eye(3) / 3)

    def test_not_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(ValidationError, match="M - M\\^dagger"):
            qt.DensityMatrix(2, mat)

    def test_symmetrizes_small_asymmetry(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 1e-11
        rho = qt.DensityMatrix(2, mat)
        np.testing.assert_allclose(rho.entries, rho.entries.conj().T)

    def test_input_not_modified(self):
        mat = np.eye(4, dtype=complex) / 4
        copy = mat.copy()
        qt.DensityMatrix(2, mat)
        np.testing.assert_array_equal(mat, copy)

    def test_invalid_dimension(self):
        with pytest.raises(ValidationError, match="local dimension"):
            qt.DensityMatrix(1, np.eye(1))


class TestLocalDimension:
    def test_numpy_integers_accepted_and_stored_as_int(self):
        rho = qt.werner(qt.WernerParams(np.int64(3), 0.5))
        assert type(rho.n) is int
        json.dumps(qt.state_to_dict(rho))
        assert type(qt.DensityMatrix(np.int32(2), np.eye(4) / 4).n) is int
        assert qt.teleport_threshold_vn(np.int64(3)) == qt.teleport_threshold_vn(3)
        summary = qt.verify_theorem(np.int64(2), 5)
        assert type(summary.n) is int
        json.dumps(summary.to_dict())


class TestConstructors:
    def test_maximally_mixed_n2(self):
        np.testing.assert_allclose(
            maximally_mixed(2).entries, np.diag([0.25] * 4)
        )

    def test_maximally_mixed_n3(self):
        rho = maximally_mixed(3)
        np.testing.assert_allclose(rho.entries, np.eye(9) / 9)

    def test_maximally_mixed_entropy(self):
        assert qt.von_neumann_entropy(maximally_mixed(2)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_maximally_mixed_rejects_n1(self):
        with pytest.raises(ValidationError, match="local dimension"):
            maximally_mixed(1)

    def test_canonical_phi_n2(self):
        amps = canonical_phi(2)
        np.testing.assert_allclose(
            amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_canonical_phi_n3(self):
        amps = canonical_phi(3)
        nonzero = np.flatnonzero(np.abs(amps) > 1e-12)
        np.testing.assert_array_equal(nonzero, [0, 4, 8])
        np.testing.assert_allclose(amps[nonzero], 1 / np.sqrt(3))

    def test_phi_projector_idempotent_overlap(self):
        phi = canonical_phi(2)
        assert float(
            (phi.conj() @ phi_projector_state(2).entries @ phi).real
        ) == pytest.approx(1.0, abs=1e-12)


class TestWeylOperators:
    def test_identity(self):
        np.testing.assert_allclose(weyl_operator(2, 0, 0), np.eye(2))

    def test_xz_product_n2(self):
        # X = [[0,1],[1,0]], Z = diag(1,-1): X Z = [[0,-1],[1,0]] by hand
        np.testing.assert_allclose(
            weyl_operator(2, 1, 1), np.array([[0, -1], [1, 0]]), atol=1e-15
        )

    def test_orthogonality_n3_all_pairs(self):
        # direct loop oracle: Tr(W(a,b)^dag W(a',b')) = N delta delta
        n = 3
        for a in range(n):
            for b in range(n):
                for ap in range(n):
                    for bp in range(n):
                        val = np.trace(
                            weyl_operator(n, a, b).conj().T
                            @ weyl_operator(n, ap, bp)
                        )
                        expect = n if (a, b) == (ap, bp) else 0.0
                        assert abs(val - expect) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_unitarity(self, n):
        for a in range(n):
            for b in range(n):
                w = weyl_operator(n, a, b)
                assert np.abs(w @ w.conj().T - np.eye(n)).max() < 1e-12


class TestBellBasis:
    """The literal basis of the test oracles: the vectors the closed-form
    transforms of ``states`` are checked against."""

    def test_first_state_is_phi(self):
        basis = bell_basis(canonical_phi(2))
        np.testing.assert_allclose(
            basis[0], np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_gram_matrix_is_identity(self, n):
        stack = bell_basis(canonical_phi(n))
        gram = stack.conj() @ stack.T
        assert np.abs(gram - np.eye(n * n)).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_completeness(self, n):
        stack = bell_basis(canonical_phi(n))
        resolution = np.einsum("ki,kj->ij", stack, stack.conj())
        assert np.abs(resolution - np.eye(n * n)).max() < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_state_maximally_entangled(self, n):
        for amps in bell_basis(canonical_phi(n)):
            mat = amps.reshape(n, n)
            np.testing.assert_allclose(
                mat @ mat.conj().T, np.eye(n) / n, atol=1e-10
            )
            np.testing.assert_allclose(
                (mat.conj().T @ mat).T, np.eye(n) / n, atol=1e-10
            )

    def test_rotated_seed_accepted(self):
        u = qt.haar_unitary(3, seed=5)
        stack = bell_basis((u @ canonical_phi(3).reshape(3, 3)).reshape(9))
        assert np.abs(stack.conj() @ stack.T - np.eye(9)).max() < 1e-10
        for amps in stack:
            mat = amps.reshape(3, 3)
            assert np.abs(mat @ mat.conj().T - np.eye(3) / 3).max() < 1e-10


class TestBellDiagonalCoeffs:
    def test_maximally_mixed(self):
        c = qt.bell_diagonal_coeffs(maximally_mixed(2))
        np.testing.assert_allclose(c, [0.25] * 4, atol=1e-12)

    def test_phi_projector(self):
        c = qt.bell_diagonal_coeffs(phi_projector_state(2))
        np.testing.assert_allclose(c, [1, 0, 0, 0], atol=1e-12)

    def test_random_states_give_probability_vector(self):
        for seed in range(20):
            rho = hs_random_density(4, seed=seed)
            c = qt.bell_diagonal_coeffs(rho)
            assert c.min() > -1e-9
            assert c.max() < 1 + 1e-9
            assert abs(c.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_literal_basis_weights(self, n):
        basis = bell_basis(canonical_phi(n))
        for seed in range(5):
            rho = hs_random_density(n * n, seed=100 * n + seed)
            np.testing.assert_allclose(
                qt.bell_diagonal_coeffs(rho), basis_weights(rho, basis),
                rtol=0, atol=1e-14,
            )

    def test_rejects_non_hermitian_weights(self):
        # an anti-Hermitian part that would put imaginary weights on the
        # basis diagonal cannot reach bell_diagonal_coeffs: construction
        # rejects it
        entries = np.eye(4, dtype=complex) / 4
        entries[0, 3] = 0.25j
        with pytest.raises(ValidationError, match="M - M\\^dagger"):
            qt.DensityMatrix(2, entries)


class TestTensorAndPartialTrace:
    def test_tensor_identities(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_tensor_first_factor_slow(self):
        a = np.diag([1.0, 2.0])
        b = np.eye(2)
        np.testing.assert_allclose(tensor(a, b), np.diag([1.0, 1.0, 2.0, 2.0]))

    def test_tensor_rejects_vectors(self):
        with pytest.raises(ValidationError, match="tensor expects two matrices"):
            tensor(np.ones(2), np.eye(2))

    def test_phi_reduces_to_maximally_mixed(self):
        rho = phi_projector_state(2)
        np.testing.assert_allclose(
            qt.partial_trace(rho), np.eye(2) / 2, atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace_second(rho), np.eye(2) / 2, atol=1e-12
        )

    def test_trace_preserved_on_random_states(self):
        for seed in range(10):
            rho = hs_random_density(9, seed=seed)
            for red in (qt.partial_trace(rho), partial_trace_second(rho)):
                assert abs(np.trace(red).real - 1.0) < 1e-12
                assert np.abs(red - red.conj().T).max() < 1e-12

    def test_product_state_marginals(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.1, 0.9]).astype(complex)
        rho = qt.DensityMatrix(2, tensor(a, b))
        np.testing.assert_allclose(partial_trace_second(rho), a, atol=1e-12)
        np.testing.assert_allclose(qt.partial_trace(rho), b, atol=1e-12)


class TestStateFileFormat:
    def test_round_trip(self, tmp_path):
        rho = qt.werner(qt.WernerParams(2, 0.37))
        path = tmp_path / "state.json"
        qt.save_state(rho, path)
        loaded = qt.load_state(path)
        assert loaded.n == 2
        np.testing.assert_allclose(loaded.entries, rho.entries, atol=1e-12)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read state file"):
            qt.load_state(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="is not valid JSON"):
            qt.load_state(path)

    def test_rejects_nan(self):
        payload = qt.state_to_dict(maximally_mixed(2))
        payload["matrix"][0][0][0] = float("nan")
        with pytest.raises(ValidationError, match="'matrix' contains NaN"):
            state_from_dict(payload)

    def test_rejects_inf(self, tmp_path):
        payload = qt.state_to_dict(maximally_mixed(2))
        payload["matrix"][1][1][1] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="'matrix' contains NaN or Inf"):
            qt.load_state(path)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValidationError, match="'n' and 'matrix' keys"):
            state_from_dict({"matrix": []})
        with pytest.raises(ValidationError, match="'n' and 'matrix' keys"):
            state_from_dict({"n": 2})

    def test_rejects_non_integer_n(self):
        payload = qt.state_to_dict(maximally_mixed(2))
        payload["n"] = 2.0
        with pytest.raises(ValidationError, match="local dimension must be an integer"):
            state_from_dict(payload)

    def test_rejects_flat_entries(self):
        with pytest.raises(ValidationError, match=r"two-element \[re, im\] arrays"):
            state_from_dict({"n": 2, "matrix": [[1.0] * 4] * 4})

    def test_shape_mismatch_from_file(self):
        payload = {
            "n": 2,
            "matrix": [[[1.0 / 3, 0.0]] * 3] * 3,
        }
        with pytest.raises(ValidationError, match="expected shape"):
            state_from_dict(payload)
