import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qthresh as qt
from qthresh import fef
from qthresh.errors import InvalidParameter, NotProbabilityVector
from qthresh.fef import _ascend, _spectral_start

from oracles import (
    fef_bell_diagonal_exact,
    fef_bruteforce_n2,
    fef_objective,
    maximally_mixed,
    tensor,
)


def top_vector(rho):
    return np.linalg.eigh(rho.entries)[1][:, -1]


def schmidt_state(n, coeffs):
    amps = np.zeros(n * n, dtype=complex)
    for i, c in enumerate(coeffs):
        amps[i * (n + 1)] = np.sqrt(c)
    return qt.DensityMatrix(n, np.outer(amps, amps.conj()))


class TestBellDiagonalExact:
    def test_uniform_ties_break_low(self):
        assert fef_bell_diagonal_exact([0.25, 0.25, 0.25, 0.25]) == (0.25, 0)

    def test_pure(self):
        assert fef_bell_diagonal_exact([1, 0, 0, 0]) == (1.0, 0)

    def test_extremal_distribution(self):
        value, index = fef_bell_diagonal_exact([0.5, 1 / 6, 1 / 6, 1 / 6])
        assert value == 0.5 and index == 0

    def test_argmax_position(self):
        value, index = fef_bell_diagonal_exact([0.1, 0.2, 0.6, 0.1])
        assert value == pytest.approx(0.6) and index == 2

    def test_rejects_negative(self):
        with pytest.raises(NotProbabilityVector):
            fef_bell_diagonal_exact([0.7, 0.4, -0.1, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(NotProbabilityVector):
            fef_bell_diagonal_exact([0.5, 0.5, 0.5, 0.5])

    def test_rejects_matrix(self):
        with pytest.raises(NotProbabilityVector):
            fef_bell_diagonal_exact(np.eye(2) / 2)


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = qt.OptimizerConfig()
        assert cfg.restarts == 16 and fef.MAX_ITERS == 500
        assert fef.STEP_TOL == 1e-10 and cfg.seed == 0

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidParameter):
            qt.OptimizerConfig(restarts=0)


class TestLowerBound:
    def test_phi_reaches_one(self):
        rho = qt.DensityMatrix(2, qt.canonical_phi(2).projector())
        bounds = qt.fef_certified(rho)
        assert bounds.lower == pytest.approx(1.0, abs=1e-9)
        # optimal unitary is a global phase times identity
        assert abs(np.trace(bounds.best_unitary)) / 2 == pytest.approx(
            1.0, abs=1e-6
        )

    def test_maximally_mixed_constant_objective(self):
        bounds = qt.fef_certified(maximally_mixed(2))
        assert bounds.lower == pytest.approx(0.25, abs=1e-9)

    def test_werner_06(self):
        bounds = qt.fef_certified(qt.werner(qt.WernerParams(2, 0.6)))
        assert bounds.lower == pytest.approx(0.7, abs=1e-6)

    def test_lower_recomputable_from_unitary(self):
        rho = qt.hs_random_density(4, 4, seed=8)
        bounds = qt.fef_certified(rho)
        assert fef_objective(rho, bounds.best_unitary) == pytest.approx(
            bounds.lower, abs=1e-10
        )


class TestUpperBound:
    def test_phi(self):
        rho = qt.DensityMatrix(2, qt.canonical_phi(2).projector())
        assert qt.fef_certified(rho).upper == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert qt.fef_certified(maximally_mixed(2)).upper == pytest.approx(
            0.25, abs=1e-12
        )

    def test_werner_top_eigenvalue(self):
        bounds = qt.fef_certified(qt.werner(qt.WernerParams(2, 0.6)))
        assert bounds.upper == pytest.approx(0.7, abs=1e-12)


class TestCertified:
    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 1.0])
    def test_werner_family_tight(self, eps):
        bounds = qt.fef_certified(qt.werner(qt.WernerParams(2, eps)))
        assert bounds.gap <= 1e-6
        assert bounds.lower == pytest.approx(eps + (1 - eps) / 4, abs=1e-6)

    def test_bell_diagonal_cross_check(self):
        weights = [0.4, 0.3, 0.2, 0.1]
        bounds = qt.fef_certified(qt.bell_diagonal(2, weights))
        exact, _ = fef_bell_diagonal_exact(weights)
        assert bounds.lower == pytest.approx(exact, abs=1e-6)

    def test_schmidt_state(self):
        # (sqrt(0.8) + sqrt(0.2))^2 / 2 = 0.9 for Schmidt coefficients (0.8, 0.2)
        rho = schmidt_state(2, [0.8, 0.2])
        bounds = qt.fef_certified(rho)
        assert bounds.lower == pytest.approx(0.9, abs=1e-6)
        assert fef_bruteforce_n2(rho.entries) == pytest.approx(0.9, abs=1e-4)

    def test_sandwich_and_ranges(self):
        for seed in range(20):
            rho = qt.hs_random_density(4, 4, seed=seed)
            bounds = qt.fef_certified(rho)
            assert bounds.lower <= bounds.upper + 1e-9
            assert -1e-12 <= bounds.lower <= 1 + 1e-12
            assert -1e-12 <= bounds.upper <= 1 + 1e-12
            assert bounds.gap == pytest.approx(bounds.upper - bounds.lower)

    def test_oracle_agreement_on_random_states(self):
        for seed in (11, 12, 13):
            rho = qt.hs_random_density(4, 4, seed=seed)
            opt = qt.fef_certified(rho).lower
            oracle = fef_bruteforce_n2(rho.entries)
            assert opt == pytest.approx(oracle, abs=1e-6)

    def test_bell_diagonal_agreement_battery(self):
        # invariant: 100 random basis-diagonal states at n in {2, 3};
        # their largest weight is both lambda_max and the exact F, so the
        # sandwich must close
        rng = np.random.default_rng(11)
        for n in (2, 3):
            for _ in range(50):
                w = rng.dirichlet(np.ones(n * n))
                bounds = qt.fef_certified(qt.bell_diagonal(n, w))
                assert bounds.lower == pytest.approx(float(w.max()), abs=1e-6)
                assert bounds.gap <= 1e-6

    def test_local_unitary_invariance(self):
        for n, count in ((2, 8), (3, 4)):
            for i in range(count):
                rho = qt.hs_random_density(n * n, n * n, seed=100 + i)
                v = qt.haar_unitary(n, seed=200 + i)
                w = qt.haar_unitary(n, seed=300 + i)
                vw = tensor(v, w)
                rotated = qt.validate_density(vw @ rho.entries @ vw.conj().T, n)
                assert qt.fef_certified(rotated).lower == pytest.approx(
                    qt.fef_certified(rho).lower, abs=1e-6
                )

    def test_determinism(self):
        rho = qt.hs_random_density(9, 9, seed=21)
        cfg = qt.OptimizerConfig(restarts=6, seed=42)
        a = qt.fef_certified(rho, cfg)
        b = qt.fef_certified(rho, cfg)
        assert a.lower == b.lower
        assert a.iterations_total == b.iterations_total
        assert a.restarts_used == b.restarts_used
        np.testing.assert_array_equal(a.best_unitary, b.best_unitary)

    def test_monotone_ascent_history(self):
        # the unshifted step on an HS state and the shifted step (mu =
        # lambda_min, as fef_certified runs it) on a nearly mixed state
        for rho, shifted in (
            (qt.hs_random_density(4, 4, seed=33), False),
            (qt.high_entropy_density(3, 0.9, seed=33), True),
        ):
            n = rho.n
            shift = float(np.linalg.eigvalsh(rho.entries)[0]) if shifted else 0.0
            starts = np.stack(
                [_spectral_start(top_vector(rho), n)]
                + [qt.haar_unitary(n, seed=r) for r in range(4)]
            )
            # replaying with max_iters = 0 .. K gives each restart's
            # objective after every iteration, K being the most any ran
            iterations = _ascend(rho.entries, n, starts, 500, 1e-10, shift)[2]
            history = np.stack(
                [
                    _ascend(rho.entries, n, starts, k, 1e-10, shift)[1]
                    for k in range(int(iterations.max()) + 1)
                ]
            )
            assert np.diff(history, axis=0).min() >= -1e-12

    def test_best_unitary_is_unitary(self):
        rho = qt.hs_random_density(9, 9, seed=5)
        u = qt.fef_certified(rho).best_unitary
        assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12


    def test_converged_follows_winning_restart(self, monkeypatch):
        # the winning restart (index 0) is still moving; the last one stopped
        def fake_ascend(rho_entries, n, starts, max_iters, step_tol, shift):
            b = starts.shape[0]
            f = np.linspace(0.01, 0.0, b)
            last_delta = np.zeros(b)
            last_delta[0] = 1e-3
            return starts, f, np.ones(b, dtype=np.int64), last_delta

        monkeypatch.setattr(fef, "_ascend", fake_ascend)
        bounds = qt.fef_certified(qt.hs_random_density(9, 9, seed=4))
        assert bounds.gap > fef.GAP_TOL
        assert bounds.converged is False


class TestTwoQubitExact:
    """The N = 2 closed form against oracles that share none of its code."""

    def test_matches_bruteforce_oracle(self):
        for seed in (40, 41, 42, 43):
            rho = qt.hs_random_density(4, 4, seed=seed)
            assert qt.fef_certified(rho).lower == pytest.approx(
                fef_bruteforce_n2(rho.entries), abs=1e-4
            )

    def test_dominates_and_matches_direct_ascent(self):
        haar = [qt.haar_unitary(2, seed=r) for r in range(16)]
        for seed in range(200):
            rho = qt.hs_random_density(4, 4, seed=1000 + seed)
            starts = np.stack([_spectral_start(top_vector(rho), 2)] + haar)
            _, f, _, _ = _ascend(rho.entries, 2, starts, 500, 1e-10, 0.0)
            ascent = float(f.max())
            exact = qt.fef_certified(rho).lower
            assert exact >= ascent - 1e-12
            assert exact - ascent <= 1e-6

    @pytest.mark.parametrize(
        "rho",
        [
            qt.DensityMatrix(2, qt.canonical_phi(2).projector()),
            maximally_mixed(2),
            qt.extremal_threshold_state(2),
            qt.hs_random_density(4, 1, seed=3),
            qt.hs_random_density(4, 4, seed=3),
        ],
        ids=["phi", "maximally_mixed", "extremal", "pure", "hs"],
    )
    def test_witness_unitary(self, rho):
        bounds = qt.fef_certified(rho)
        u = bounds.best_unitary
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        assert abs(fef_objective(rho, u) - bounds.lower) < 1e-12

    def test_no_search_and_closed_gap(self):
        rho = qt.hs_random_density(4, 4, seed=9)
        certified = qt.fef_certified(rho)
        assert certified.upper == certified.lower
        assert certified.converged is True
        assert certified.restarts_used == 0 and certified.iterations_total == 0


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestTwoQubitProperties:
    @settings(derandomize=True)
    @given(seed=_SEEDS, rank=st.integers(min_value=1, max_value=4))
    def test_below_top_eigenvalue(self, seed, rank):
        rho = qt.hs_random_density(4, rank, seed=seed)
        lower = qt.fef_certified(rho).lower
        assert lower <= np.linalg.eigvalsh(rho.entries)[-1] + 1e-12

    @settings(derandomize=True)
    @given(seed=_SEEDS, v_seed=_SEEDS, w_seed=_SEEDS)
    def test_local_unitary_invariance(self, seed, v_seed, w_seed):
        rho = qt.hs_random_density(4, 4, seed=seed)
        vw = tensor(qt.haar_unitary(2, seed=v_seed), qt.haar_unitary(2, seed=w_seed))
        rotated = qt.validate_density(vw @ rho.entries @ vw.conj().T, 2)
        assert abs(
            qt.fef_certified(rotated).lower - qt.fef_certified(rho).lower
        ) <= 1e-9

    @settings(derandomize=True)
    @given(
        raw=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
        ).filter(lambda w: sum(w) > 1e-3)
    )
    def test_bell_diagonal_is_max_weight(self, raw):
        w = np.asarray(raw) / sum(raw)
        lower = qt.fef_certified(qt.bell_diagonal(2, w)).lower
        assert abs(lower - float(w.max())) <= 1e-12

    @settings(derandomize=True)
    @given(seed=_SEEDS, rank=st.integers(min_value=1, max_value=4))
    def test_certified_gap_is_zero(self, seed, rank):
        assert qt.fef_certified(qt.hs_random_density(4, rank, seed=seed)).gap == 0


_BELL_WEIGHTS = st.integers(min_value=3, max_value=5).flatmap(
    lambda n: st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n * n, max_size=n * n
    ).filter(lambda w: sum(w) > 1e-3)
)


class TestPowerStep:
    """The step-free search for N >= 3 against exact values."""

    def test_one_polar_per_iteration(self, monkeypatch):
        polar = fef._polar
        calls = []

        def counting_polar(batch):
            calls.append(len(batch))
            return polar(batch)

        monkeypatch.setattr(fef, "_polar", counting_polar)
        rho = qt.hs_random_density(9, 9, seed=2)
        starts = np.stack([qt.haar_unitary(3, seed=r) for r in range(5)])
        iterations = _ascend(rho.entries, 3, starts, 500, 1e-10, 0.0)[2]
        assert len(calls) == int(iterations.max())
        assert sum(calls) == int(iterations.sum())

    @settings(derandomize=True, deadline=None)
    @given(raw=_BELL_WEIGHTS)
    def test_bell_diagonal_is_max_weight(self, raw):
        n = int(np.sqrt(len(raw)))
        w = np.asarray(raw) / sum(raw)
        top, runner_up = np.sort(w)[::-1][:2]
        lower = qt.fef_certified(qt.bell_diagonal(n, w)).lower
        assert lower <= top + 1e-12
        # a tied top weight leaves a flat direction in which the search
        # stops on its step_tol = 1e-10 gain rule (measured: up to 1.8e-10
        # short, with or without a step size); a unique one is found exactly
        assert top - lower <= (1e-12 if top - runner_up > 1e-9 else 1e-9)

    def test_tied_top_weights_reach_the_bound(self):
        # two tied top weights and a close third: every restart crawls and
        # stops on the gain rule about 1.4e-9 short of F, so the winner
        # has to run on until its gain stops
        w = np.array([0.0] * 13 + [1.0, 1.0, 0.96875]) / 2.96875
        bounds = qt.fef_certified(qt.bell_diagonal(4, w))
        assert bounds.lower <= w.max() + 1e-12
        assert w.max() - bounds.lower <= fef.STEP_TOL
        assert bounds.converged

    @pytest.mark.parametrize("n", range(3, 9))
    def test_werner_matches_closed_form(self, n):
        for eps in (0.0, 1.0 / (n + 1), 1.0 / n, 0.5, 0.9, 1.0):
            params = qt.WernerParams(n, eps)
            lower = qt.fef_certified(qt.werner(params)).lower
            assert abs(lower - qt.werner_fef_closed_form(params)) <= 1e-12

    def test_invariant_under_u_tensor_u_conj(self):
        # (U (x) U*)|Phi> = |Phi>, so the rotation maps maximally entangled
        # states onto maximally entangled states and leaves F unchanged
        for i in range(20):
            rho = qt.hs_random_density(9, 9, seed=500 + i)
            u = qt.haar_unitary(3, seed=600 + i)
            uu = tensor(u, u.conj())
            rotated = qt.validate_density(uu @ rho.entries @ uu.conj().T, 3)
            assert abs(
                qt.fef_certified(rotated).lower - qt.fef_certified(rho).lower
            ) <= 1e-9


class TestSpectralShift:
    """The lambda_min-shifted step and the bounds from one eigendecomposition."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_lower_never_exceeds_upper(self, n):
        # the attained overlap of these states rounds a few ulps above the
        # computed lambda_max; the bound pair must still be ordered exactly
        states = [qt.werner(qt.WernerParams(n, eps)) for eps in (0.1, 0.5, 0.9)]
        states.append(qt.extremal_threshold_state(n))
        for rho in states:
            for seed in range(10):
                bounds = qt.fef_certified(rho, qt.OptimizerConfig(seed=seed))
                assert bounds.lower <= bounds.upper
                assert bounds.gap >= 0.0

    @pytest.mark.parametrize("n", (3, 4))
    def test_mixing_toward_identity_is_affine_and_no_slower(self, n):
        # F((1 - t) rho + t I/N^2) = (1 - t) F(rho) + t/N^2, and the shifted
        # step on the mixture is the same step scaled by 1 - t
        d = n * n
        for seed in range(10):
            rho = qt.hs_random_density(d, d, seed=seed)
            base = qt.fef_certified(rho)
            for t in (0.5, 0.9, 0.99):
                mixed = qt.DensityMatrix(n, (1 - t) * rho.entries + t * np.eye(d) / d)
                bounds = qt.fef_certified(mixed)
                assert abs(bounds.lower - ((1 - t) * base.lower + t / d)) <= 1e-8
                assert bounds.iterations_total <= base.iterations_total

    def test_high_entropy_iterations(self):
        # measured: about 700 per state with the shift, 3,600 without it
        spec = qt.SamplerSpec("high_entropy", 9, seed=7, mix_toward_identity=0.9)
        totals = [
            qt.fef_certified(qt.sample(spec, i)).iterations_total for i in range(40)
        ]
        assert np.mean(totals) <= 1200

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        states = [qt.hs_random_density(n * n, n * n, seed=n) for n in (3, 4, 5)]
        states += [qt.werner(qt.WernerParams(3, 0.5)), qt.extremal_threshold_state(4)]
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for rho in states:
            calls.clear()
            qt.fef_certified(rho)
            assert calls == [(rho.n**2, rho.n**2)]


class TestTeleportVerdict:
    def test_phi_usable(self):
        rho = qt.DensityMatrix(2, qt.canonical_phi(2).projector())
        bounds = qt.fef_certified(rho)
        assert (
            qt.usable_for_teleportation(bounds, 2)
            is qt.TeleportVerdict.USABLE_CERTIFIED
        )

    def test_maximally_mixed_useless(self):
        bounds = qt.fef_certified(maximally_mixed(2))
        assert (
            qt.usable_for_teleportation(bounds, 2)
            is qt.TeleportVerdict.USELESS_CERTIFIED
        )

    def test_extremal_state_undecided(self):
        bounds = qt.fef_certified(qt.extremal_threshold_state(2))
        assert qt.usable_for_teleportation(bounds, 2) is qt.TeleportVerdict.UNDECIDED
