import dataclasses

import numpy as np
import pytest

import qthresh as qt
from qthresh.errors import ValidationError

from oracles import (
    bell_basis,
    canonical_phi,
    extremal_weights,
    fef_bell_diagonal_exact,
    phi_projector_state,
)


class TestWernerConstruction:
    def test_eps_one_is_phi_projector(self):
        rho = qt.werner(qt.WernerParams(2, 1.0))
        np.testing.assert_allclose(
            rho.entries, phi_projector_state(2).entries, atol=1e-15
        )

    def test_eps_zero_is_maximally_mixed(self):
        rho = qt.werner(qt.WernerParams(2, 0.0))
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-15)

    def test_spectrum_at_half(self):
        vals = np.linalg.eigvalsh(qt.werner(qt.WernerParams(2, 0.5)).entries)
        np.testing.assert_allclose(
            np.sort(vals), [0.125, 0.125, 0.125, 0.625], atol=1e-12
        )

    def test_passes_validation(self):
        for n in (2, 3):
            for eps in (0.0, 0.3, 1.0):
                rho = qt.werner(qt.WernerParams(n, eps))
                qt.DensityMatrix(n, rho.entries)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError, match="epsilon must lie in"):
            qt.WernerParams(2, 1.2)
        with pytest.raises(ValidationError, match="epsilon must lie in"):
            qt.WernerParams(2, -0.1)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValidationError, match="local dimension"):
            qt.WernerParams(1, 0.5)
        with pytest.raises(ValidationError, match="local dimension"):
            qt.WernerParams(3.0, 0.5)


class TestWernerClosedForms:
    def test_entropy_extremes(self):
        assert qt.werner_entropy_closed_form(qt.WernerParams(3, 0.0)) == pytest.approx(
            2 * np.log2(3), abs=1e-12
        )
        assert qt.werner_entropy_closed_form(qt.WernerParams(3, 1.0)) == 0.0

    def test_entropy_at_half(self):
        assert qt.werner_entropy_closed_form(
            qt.WernerParams(2, 0.5)
        ) == pytest.approx(1.548795, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_entropy_matches_numeric_on_grid(self, n):
        for eps in np.linspace(0.0, 1.0, 11):
            closed = qt.werner_entropy_closed_form(qt.WernerParams(n, float(eps)))
            numeric = qt.von_neumann_entropy(qt.werner(qt.WernerParams(n, float(eps))))
            assert abs(closed - numeric) <= 1e-9

    def test_fef_extremes(self):
        assert qt.werner_fef_closed_form(qt.WernerParams(2, 1.0)) == 1.0
        assert qt.werner_fef_closed_form(qt.WernerParams(2, 0.0)) == 0.25

    def test_fef_slightly_above_critical(self):
        assert qt.werner_fef_closed_form(qt.WernerParams(2, 0.501)) == pytest.approx(
            0.62575, abs=1e-12
        )
        assert qt.werner_fef_closed_form(qt.WernerParams(2, 0.501)) > 0.5

    def test_purity_matches_numeric(self):
        for eps in (0.0, 0.4, 1.0):
            params = qt.WernerParams(3, eps)
            closed = qt.werner_purity_closed_form(params)
            numeric = 1.0 - qt.linear_entropy(qt.werner(params))
            assert closed == pytest.approx(numeric, abs=1e-12)


class TestBellDiagonalConstructor:
    def test_uniform_weights_give_maximally_mixed(self):
        rho = qt.bell_diagonal(2, [0.25] * 4)
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-12)

    def test_e0_gives_phi(self):
        rho = qt.bell_diagonal(2, [1, 0, 0, 0])
        np.testing.assert_allclose(
            rho.entries, phi_projector_state(2).entries, atol=1e-12
        )

    def test_round_trip_coefficients(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.dirichlet(np.ones(9))
            rho = qt.bell_diagonal(3, w)
            got = qt.bell_diagonal_coeffs(rho)
            np.testing.assert_allclose(got, w, atol=1e-10)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_literal_basis_mixture(self, n):
        rng = np.random.default_rng(40 + n)
        basis = bell_basis(canonical_phi(n))
        for _ in range(3):
            w = rng.dirichlet(np.ones(n * n))
            expected = np.einsum("k,ki,kj->ij", w, basis, basis.conj())
            np.testing.assert_allclose(
                qt.bell_diagonal(n, w).entries, expected, rtol=0, atol=1e-14
            )
            np.testing.assert_allclose(
                qt.bell_diagonal_coeffs(qt.bell_diagonal(n, w)), w,
                rtol=0, atol=1e-14,
            )

    @pytest.mark.parametrize("n", [2.0, 1])
    def test_rejects_bad_dimension(self, n):
        with pytest.raises(ValidationError, match="local dimension"):
            qt.bell_diagonal(n, [1.0] + [0.0] * (int(n * n) - 1))

    def test_rejects_non_probability(self):
        with pytest.raises(ValidationError, match="negative weight"):
            qt.bell_diagonal(2, [0.5, 0.5, 0.5, -0.5])
        with pytest.raises(ValidationError, match="weights sum to"):
            qt.bell_diagonal(2, [0.3, 0.3, 0.3, 0.3])
        with pytest.raises(ValidationError, match="expected 4 weights"):
            qt.bell_diagonal(2, [0.5, 0.5])

    def test_rejects_non_numeric_weights(self):
        # np.asarray(..., dtype=float) raised a bare ValueError
        with pytest.raises(ValidationError, match="weights are not a numeric array"):
            qt.bell_diagonal(2, ["a"] * 4)


class TestExtremalState:
    def test_weights_n2(self):
        np.testing.assert_allclose(
            qt.bell_diagonal_coeffs(qt.extremal_threshold_state(2)),
            [0.5, 1 / 6, 1 / 6, 1 / 6],
            rtol=0, atol=1e-15,
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_basis_mixture_of_oracle_weights(self, n):
        # built as the Werner state at epsilon = 1/(N+1), it is the
        # basis-diagonal state with weight 1/N on |Phi> and the rest uniform
        np.testing.assert_allclose(
            qt.extremal_threshold_state(n).entries,
            qt.bell_diagonal(n, extremal_weights(n)).entries,
            rtol=0, atol=1e-15,
        )

    def test_entropy_n2(self):
        s = qt.von_neumann_entropy(qt.extremal_threshold_state(2))
        assert s == pytest.approx(1.7924813, abs=1e-6)

    def test_entropy_n3(self):
        s = qt.von_neumann_entropy(qt.extremal_threshold_state(3))
        assert s == pytest.approx(2.9182958, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_saturates_both_thresholds(self, n):
        rho = qt.extremal_threshold_state(n)
        assert abs(
            qt.von_neumann_entropy(rho) - qt.teleport_threshold_vn(n)
        ) <= 1e-9
        assert abs(
            qt.linear_entropy(rho) - qt.teleport_threshold_linear(n)
        ) <= 1e-12
        value, _ = fef_bell_diagonal_exact(extremal_weights(n))
        assert value == 1.0 / n

    @pytest.mark.parametrize(
        "n",
        [
            1,
            3.0,
            True,
            pytest.param(np.float64(3.0), id="np_float64"),
            pytest.param(np.True_, id="np_bool"),
        ],
    )
    def test_rejects_bad_dimension(self, n):
        with pytest.raises(ValidationError, match="local dimension"):
            qt.extremal_threshold_state(n)

    def test_linear_entropy_n2_exact(self):
        # purity 1/4 + 3*(1/6)^2 = 1/3 by hand
        assert qt.linear_entropy(qt.extremal_threshold_state(2)) == pytest.approx(
            2 / 3, abs=1e-12
        )


class TestCriticalEpsilons:
    def test_fef_marker(self):
        # F = eps + (1 - eps)/N^2 meets 1/N at the teleportation marker
        # 1/(N+1), not at 1/N, so there is no marker of its own for F
        fields = [f.name for f in dataclasses.fields(qt.CriticalEpsilons)]
        assert fields == [
            "eps_entropy_at_teleport_threshold",
            "eps_entropy_at_densecoding_threshold",
        ]
        for n in range(2, 9):
            crit = qt.critical_epsilons(n)
            params = qt.WernerParams(n, crit.eps_entropy_at_teleport_threshold)
            assert abs(qt.werner_fef_closed_form(params) - 1.0 / n) <= 1e-16

    @pytest.mark.parametrize("n", [1, 3.0, True])
    def test_rejects_bad_dimension(self, n):
        with pytest.raises(ValidationError, match="local dimension"):
            qt.critical_epsilons(n)

    def test_teleport_marker_matches_closed_form(self):
        # the threshold-saturating Werner state is eps = 1/(N+1): its top
        # weight is then exactly 1/N with the rest uniform
        for n in range(2, 9):
            crit = qt.critical_epsilons(n)
            assert crit.eps_entropy_at_teleport_threshold == 1.0 / (n + 1)

    def test_markers_reproduce_thresholds(self):
        for n in (2, 3):
            crit = qt.critical_epsilons(n)
            s_tel = qt.werner_entropy_closed_form(
                qt.WernerParams(n, crit.eps_entropy_at_teleport_threshold)
            )
            assert abs(s_tel - qt.teleport_threshold_vn(n)) <= 1e-8
            s_dc = qt.werner_entropy_closed_form(
                qt.WernerParams(n, crit.eps_entropy_at_densecoding_threshold)
            )
            assert abs(s_dc - qt.densecoding_threshold(n)) <= 1e-8

    def test_entropy_strictly_decreasing(self):
        for n in (2, 3, 4):
            grid = [
                qt.werner_entropy_closed_form(qt.WernerParams(n, float(e)))
                for e in np.linspace(0.0, 1.0, 21)
            ]
            diffs = np.diff(grid)
            assert diffs.max() < -1e-12

    def test_usable_region_consistency(self):
        # eps > 1/(N+1) gives F > 1/N and S below the threshold
        for n in (2, 3, 4):
            for eps in np.linspace(1.0 / (n + 1) + 0.01, 1.0, 7):
                params = qt.WernerParams(n, float(eps))
                assert qt.werner_fef_closed_form(params) > 1.0 / n
                assert qt.werner_entropy_closed_form(params) < qt.teleport_threshold_vn(n)
