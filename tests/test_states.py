import json

import numpy as np
import pytest

import qthresh as qt
from qthresh.errors import (
    DimensionMismatch,
    InvalidDimension,
    IndexOutOfRange,
    NotHermitian,
    NotMaximallyEntangled,
    NotPSD,
    ParseError,
    TraceNotOne,
)

from oracles import maximally_mixed, tensor


class TestValidateDensity:
    def test_maximally_mixed_is_valid(self):
        rho = qt.validate_density(np.eye(4) / 4, 2)
        assert rho.n == 2
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4)

    def test_not_psd(self):
        with pytest.raises(NotPSD, match="-?0?\\.?0?5"):
            qt.validate_density(np.diag([0.55, 0.5, 0.0, -0.05]), 2)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne):
            qt.validate_density(np.diag([0.5, 0.6, 0.0, 0.0]), 2)

    def test_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            qt.validate_density(np.eye(3) / 3, 2)

    def test_not_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            qt.validate_density(mat, 2)

    def test_symmetrizes_small_asymmetry(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 1e-11
        rho = qt.validate_density(mat, 2)
        np.testing.assert_allclose(rho.entries, rho.entries.conj().T)

    def test_input_not_modified(self):
        mat = np.eye(4, dtype=complex) / 4
        copy = mat.copy()
        qt.validate_density(mat, 2)
        np.testing.assert_array_equal(mat, copy)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            qt.validate_density(np.eye(1), 1)


class TestLocalDimension:
    def test_numpy_integers_accepted_and_stored_as_int(self):
        rho = qt.werner(qt.WernerParams(np.int64(3), 0.5))
        assert type(rho.n) is int
        json.dumps(qt.state_to_dict(rho))
        assert type(qt.validate_density(np.eye(4) / 4, np.int32(2)).n) is int
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
        with pytest.raises(InvalidDimension):
            maximally_mixed(1)

    def test_canonical_phi_n2(self):
        amps = qt.canonical_phi(2).amplitudes
        np.testing.assert_allclose(
            amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_canonical_phi_n3(self):
        amps = qt.canonical_phi(3).amplitudes
        nonzero = np.flatnonzero(np.abs(amps) > 1e-12)
        np.testing.assert_array_equal(nonzero, [0, 4, 8])
        np.testing.assert_allclose(amps[nonzero], 1 / np.sqrt(3))

    def test_phi_projector_idempotent_overlap(self):
        phi = qt.canonical_phi(2)
        assert float(
            (phi.amplitudes.conj() @ phi.projector() @ phi.amplitudes).real
        ) == pytest.approx(1.0, abs=1e-12)


class TestWeylOperators:
    def test_identity(self):
        np.testing.assert_allclose(qt.weyl_operator(2, 0, 0), np.eye(2))

    def test_xz_product_n2(self):
        # X = [[0,1],[1,0]], Z = diag(1,-1): X Z = [[0,-1],[1,0]] by hand
        np.testing.assert_allclose(
            qt.weyl_operator(2, 1, 1), np.array([[0, -1], [1, 0]]), atol=1e-15
        )

    def test_orthogonality_n3_all_pairs(self):
        # direct loop oracle: Tr(W(a,b)^dag W(a',b')) = N delta delta
        n = 3
        for a in range(n):
            for b in range(n):
                for ap in range(n):
                    for bp in range(n):
                        val = np.trace(
                            qt.weyl_operator(n, a, b).conj().T
                            @ qt.weyl_operator(n, ap, bp)
                        )
                        expect = n if (a, b) == (ap, bp) else 0.0
                        assert abs(val - expect) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_unitarity(self, n):
        for a in range(n):
            for b in range(n):
                w = qt.weyl_operator(n, a, b)
                assert np.abs(w @ w.conj().T - np.eye(n)).max() < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            qt.weyl_operator(2, 2, 0)
        with pytest.raises(IndexOutOfRange):
            qt.weyl_operator(2, 0, -1)


class TestBellBasis:
    def test_first_state_is_phi(self):
        basis = qt.bell_basis(2)
        np.testing.assert_allclose(
            basis.states[0].amplitudes,
            np.array([1, 0, 0, 1]) / np.sqrt(2),
            atol=1e-15,
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_gram_matrix_is_identity(self, n):
        stack = qt.bell_basis(n).stack
        gram = stack.conj() @ stack.T
        assert np.abs(gram - np.eye(n * n)).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_completeness(self, n):
        stack = qt.bell_basis(n).stack
        resolution = np.einsum("ki,kj->ij", stack, stack.conj())
        assert np.abs(resolution - np.eye(n * n)).max() < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_state_maximally_entangled(self, n):
        for state in qt.bell_basis(n).states:
            mat = state.amplitudes.reshape(n, n)
            np.testing.assert_allclose(
                mat @ mat.conj().T, np.eye(n) / n, atol=1e-10
            )
            np.testing.assert_allclose(
                (mat.conj().T @ mat).T, np.eye(n) / n, atol=1e-10
            )

    def test_product_seed_rejected(self):
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1.0
        with pytest.raises(NotMaximallyEntangled):
            qt.bell_basis(2, qt.PureState(4, ket00))

    def test_rotated_seed_accepted(self):
        u = qt.haar_unitary(3, seed=5)
        seed_amps = (u @ qt.canonical_phi(3).amplitudes.reshape(3, 3)).reshape(9)
        basis = qt.bell_basis(3, qt.PureState(9, seed_amps))
        stack = basis.stack
        assert np.abs(stack.conj() @ stack.T - np.eye(9)).max() < 1e-10


class TestBellDiagonalCoeffs:
    def test_maximally_mixed(self):
        c = qt.bell_diagonal_coeffs(maximally_mixed(2), qt.bell_basis(2))
        np.testing.assert_allclose(c, [0.25] * 4, atol=1e-12)

    def test_phi_projector(self):
        phi = qt.canonical_phi(2)
        rho = qt.DensityMatrix(2, phi.projector())
        c = qt.bell_diagonal_coeffs(rho, qt.bell_basis(2))
        np.testing.assert_allclose(c, [1, 0, 0, 0], atol=1e-12)

    def test_random_states_give_probability_vector(self):
        basis = qt.bell_basis(2)
        for seed in range(20):
            rho = qt.hs_random_density(4, 4, seed=seed)
            c = qt.bell_diagonal_coeffs(rho, basis)
            assert c.min() > -1e-9
            assert c.max() < 1 + 1e-9
            assert abs(c.sum() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qt.bell_diagonal_coeffs(maximally_mixed(3), qt.bell_basis(2))


class TestTensorAndPartialTrace:
    def test_tensor_identities(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_tensor_first_factor_slow(self):
        a = np.diag([1.0, 2.0])
        b = np.eye(2)
        np.testing.assert_allclose(tensor(a, b), np.diag([1.0, 1.0, 2.0, 2.0]))

    def test_tensor_rejects_vectors(self):
        with pytest.raises(DimensionMismatch):
            tensor(np.ones(2), np.eye(2))

    def test_phi_reduces_to_maximally_mixed(self):
        phi = qt.canonical_phi(2)
        rho = qt.DensityMatrix(2, phi.projector())
        np.testing.assert_allclose(
            qt.partial_trace(rho, "first"), np.eye(2) / 2, atol=1e-12
        )
        np.testing.assert_allclose(
            qt.partial_trace(rho, "second"), np.eye(2) / 2, atol=1e-12
        )

    def test_trace_preserved_on_random_states(self):
        for seed in range(10):
            rho = qt.hs_random_density(9, 9, seed=seed)
            for which in ("first", "second"):
                red = qt.partial_trace(rho, which)
                assert abs(np.trace(red).real - 1.0) < 1e-12
                assert np.abs(red - red.conj().T).max() < 1e-12

    def test_partial_trace_rejects_bad_selector(self):
        with pytest.raises(qt.InvalidParameter):
            qt.partial_trace(maximally_mixed(2), "third")

    def test_product_state_marginals(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.1, 0.9]).astype(complex)
        rho = qt.validate_density(tensor(a, b), 2)
        np.testing.assert_allclose(qt.partial_trace(rho, "second"), a, atol=1e-12)
        np.testing.assert_allclose(qt.partial_trace(rho, "first"), b, atol=1e-12)


class TestStateFileFormat:
    def test_round_trip(self, tmp_path):
        rho = qt.werner(qt.WernerParams(2, 0.37))
        path = tmp_path / "state.json"
        qt.save_state(rho, path)
        loaded = qt.load_state(path)
        assert loaded.n == 2
        np.testing.assert_allclose(loaded.entries, rho.entries, atol=1e-12)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            qt.load_state(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            qt.load_state(path)

    def test_rejects_nan(self):
        payload = qt.state_to_dict(maximally_mixed(2))
        payload["matrix"][0][0][0] = float("nan")
        with pytest.raises(ParseError, match="NaN"):
            qt.state_from_dict(payload)

    def test_rejects_inf(self, tmp_path):
        payload = qt.state_to_dict(maximally_mixed(2))
        payload["matrix"][1][1][1] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            qt.load_state(path)

    def test_rejects_missing_keys(self):
        with pytest.raises(ParseError):
            qt.state_from_dict({"matrix": []})
        with pytest.raises(ParseError):
            qt.state_from_dict({"n": 2})

    def test_rejects_non_integer_n(self):
        payload = qt.state_to_dict(maximally_mixed(2))
        payload["n"] = 2.0
        with pytest.raises(ParseError):
            qt.state_from_dict(payload)

    def test_rejects_flat_entries(self):
        with pytest.raises(ParseError):
            qt.state_from_dict({"n": 2, "matrix": [[1.0] * 4] * 4})

    def test_shape_mismatch_from_file(self):
        payload = {
            "n": 2,
            "matrix": [[[1.0 / 3, 0.0]] * 3] * 3,
        }
        with pytest.raises(DimensionMismatch):
            qt.state_from_dict(payload)
