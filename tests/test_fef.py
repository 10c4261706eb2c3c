import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qthresh as qt
from qthresh import fef
from qthresh.entropy import spectral_decomposition
from qthresh.errors import ValidationError
from qthresh.fef import _ascend, _spectral_start
from qthresh.sampling import high_entropy_density, hs_random_density

from oracles import (
    antisymmetric_werner,
    ascend_masked,
    fef_bell_diagonal_exact,
    fef_bruteforce_n2,
    fef_objective,
    fef_one_batch,
    ginibre_density,
    maximally_mixed,
    phi_projector_state,
    tensor,
)


def top_vector(rho):
    return np.linalg.eigh(rho.entries)[1][:, -1]


def spectral_start_ascent(rho):
    """(objective, iterations) of the spectral start's ascent alone, the
    whole N >= 3 search when lambda_max <= 1/N + margin."""
    values, vectors = np.linalg.eigh(rho.entries)
    start = _spectral_start(vectors[:, -1], rho.n)[None]
    _, f, iterations, _ = _ascend(
        rho.entries, rho.n, start, fef.MAX_ITERS, fef.STEP_TOL, float(values[0])
    )
    return float(f[0]), int(iterations[0])


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
        with pytest.raises(ValidationError, match="negative weight"):
            fef_bell_diagonal_exact([0.7, 0.4, -0.1, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="weights sum to"):
            fef_bell_diagonal_exact([0.5, 0.5, 0.5, 0.5])

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError, match="expected a vector"):
            fef_bell_diagonal_exact(np.eye(2) / 2)


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = qt.OptimizerConfig()
        assert cfg.restarts == 16 and fef.MAX_ITERS == 500
        assert fef.STEP_TOL == 1e-10 and cfg.seed == 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError, match="restarts must be >= 1"):
            qt.OptimizerConfig(restarts=0)

    @pytest.mark.parametrize(
        "field, value",
        [("restarts", 2.5), ("restarts", True), ("seed", 1.5), ("seed", False)],
    )
    def test_rejects_non_integers(self, field, value):
        # 2.5 restarts used to fail later in range(), True ran as one
        # restart printed as true, and a float seed failed in seed ^ r
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            qt.OptimizerConfig(**{field: value})

    def test_numpy_seed_runs_restarts(self):
        # np.int64 ^ r & (2**64 - 1) overflowed; the seed is stored as int
        cfg = qt.OptimizerConfig(seed=np.int64(4))
        assert type(cfg.seed) is int
        rho = qt.werner(qt.WernerParams(3, 0.9))
        bounds = qt.fef_certified(rho, cfg)
        reference = qt.fef_certified(rho, qt.OptimizerConfig(seed=4))
        assert bounds.restarts_used == 16
        assert bounds.lower == reference.lower
        assert np.array_equal(bounds.best_unitary, reference.best_unitary)

    def test_numpy_restarts_serialize(self):
        cfg = qt.OptimizerConfig(restarts=np.int64(2))
        assert type(cfg.restarts) is int
        spec = qt.SamplerSpec("hilbert_schmidt", 9, seed=7)
        payload = json.loads(json.dumps(qt.verify_theorem(3, 2, spec, cfg).to_dict()))
        assert payload["restarts"] == 2

    def test_negative_seed_allowed(self):
        # analyze --seed -3 exits 0; restart r starts from (seed ^ r) & mask
        cfg = qt.OptimizerConfig(seed=-3)
        assert cfg.seed == -3
        rho = qt.werner(qt.WernerParams(3, 0.9))
        assert qt.fef_certified(rho, cfg).restarts_used == 16


class TestLowerBound:
    def test_phi_reaches_one(self):
        rho = phi_projector_state(2)
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
        rho = hs_random_density(4, seed=8)
        bounds = qt.fef_certified(rho)
        assert fef_objective(rho, bounds.best_unitary) == pytest.approx(
            bounds.lower, abs=1e-10
        )


class TestUpperBound:
    def test_phi(self):
        rho = phi_projector_state(2)
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
            rho = hs_random_density(4, seed=seed)
            bounds = qt.fef_certified(rho)
            assert bounds.lower <= bounds.upper + 1e-9
            assert -1e-12 <= bounds.lower <= 1 + 1e-12
            assert -1e-12 <= bounds.upper <= 1 + 1e-12
            assert bounds.gap == pytest.approx(bounds.upper - bounds.lower)

    def test_oracle_agreement_on_random_states(self):
        for seed in (11, 12, 13):
            rho = hs_random_density(4, seed=seed)
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
                rho = hs_random_density(n * n, seed=100 + i)
                v = qt.haar_unitary(n, seed=200 + i)
                w = qt.haar_unitary(n, seed=300 + i)
                vw = tensor(v, w)
                rotated = qt.DensityMatrix(n, vw @ rho.entries @ vw.conj().T)
                assert qt.fef_certified(rotated).lower == pytest.approx(
                    qt.fef_certified(rho).lower, abs=1e-6
                )

    def test_determinism(self):
        rho = hs_random_density(9, seed=21)
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
            (hs_random_density(4, seed=33), False),
            (high_entropy_density(3, 0.9, seed=33), True),
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
        rho = hs_random_density(9, seed=5)
        u = qt.fef_certified(rho).best_unitary
        assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12


    @pytest.mark.parametrize("n", range(2, 9))
    def test_werner_witness_is_identity(self, n):
        # the optimum e^{i theta} I of a Werner state with its phase fixed,
        # exactly: for N >= 3 it is the spectral start's witness
        u = qt.fef_certified(qt.werner(qt.WernerParams(n, 0.5))).best_unitary
        assert np.array_equal(u, np.eye(n))

    @pytest.mark.parametrize(
        "rho",
        [
            hs_random_density(4, seed=14),
            hs_random_density(9, seed=14),
            hs_random_density(25, seed=14),
            # |s_10><s_10| at N = 3: its optimum X has trace 0
            qt.bell_diagonal(3, np.eye(9)[3]),
        ],
        ids=["hs2", "hs3", "hs5", "s10"],
    )
    def test_witness_phase_is_fixed(self, rho):
        bounds = qt.fef_certified(rho)
        row = bounds.best_unitary[0]
        first = row[np.flatnonzero(np.abs(row) >= 0.5 / np.sqrt(rho.n))[0]]
        assert first.imag == 0.0 and first.real > 0.0
        assert abs(fef_objective(rho, bounds.best_unitary) - bounds.lower) <= 1e-12

    def test_converged_follows_winning_restart(self, monkeypatch):
        # the winning restart (index 0) is still moving; the last one stopped
        def fake_ascend(rho_entries, n, starts, max_iters, step_tol, shift):
            b = starts.shape[0]
            f = np.linspace(0.01, 0.0, b)
            last_delta = np.zeros(b)
            last_delta[0] = 1e-3
            return starts, f, np.ones(b, dtype=np.int64), last_delta

        monkeypatch.setattr(fef, "_ascend", fake_ascend)
        bounds = qt.fef_certified(hs_random_density(9, seed=4))
        assert bounds.gap > fef.GAP_TOL
        assert bounds.converged is False


class TestTwoQubitExact:
    """The N = 2 closed form against oracles that share none of its code."""

    def test_matches_bruteforce_oracle(self):
        for seed in (40, 41, 42, 43):
            rho = hs_random_density(4, seed=seed)
            assert qt.fef_certified(rho).lower == pytest.approx(
                fef_bruteforce_n2(rho.entries), abs=1e-4
            )

    def test_dominates_and_matches_direct_ascent(self):
        haar = [qt.haar_unitary(2, seed=r) for r in range(16)]
        for seed in range(200):
            rho = hs_random_density(4, seed=1000 + seed)
            starts = np.stack([_spectral_start(top_vector(rho), 2)] + haar)
            _, f, _, _ = _ascend(rho.entries, 2, starts, 500, 1e-10, 0.0)
            ascent = float(f.max())
            exact = qt.fef_certified(rho).lower
            assert exact >= ascent - 1e-12
            assert exact - ascent <= 1e-6

    @pytest.mark.parametrize(
        "rho",
        [
            phi_projector_state(2),
            maximally_mixed(2),
            qt.extremal_threshold_state(2),
            ginibre_density(4, 1, seed=3),
            hs_random_density(4, seed=3),
        ],
        ids=["phi", "maximally_mixed", "extremal", "pure", "hs"],
    )
    def test_witness_unitary(self, rho):
        bounds = qt.fef_certified(rho)
        u = bounds.best_unitary
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        assert abs(fef_objective(rho, u) - bounds.lower) < 1e-12

    def test_no_search_and_closed_gap(self):
        rho = hs_random_density(4, seed=9)
        certified = qt.fef_certified(rho)
        assert certified.upper == certified.lower
        assert certified.converged is True
        assert certified.restarts_used == 0 and certified.iterations_total == 0


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestTwoQubitProperties:
    @settings(derandomize=True)
    @given(seed=_SEEDS, rank=st.integers(min_value=1, max_value=4))
    def test_below_top_eigenvalue(self, seed, rank):
        rho = ginibre_density(4, rank, seed=seed)
        lower = qt.fef_certified(rho).lower
        assert lower <= np.linalg.eigvalsh(rho.entries)[-1] + 1e-12

    @settings(derandomize=True)
    @given(seed=_SEEDS, v_seed=_SEEDS, w_seed=_SEEDS)
    def test_local_unitary_invariance(self, seed, v_seed, w_seed):
        rho = hs_random_density(4, seed=seed)
        vw = tensor(qt.haar_unitary(2, seed=v_seed), qt.haar_unitary(2, seed=w_seed))
        rotated = qt.DensityMatrix(2, vw @ rho.entries @ vw.conj().T)
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
        assert qt.fef_certified(ginibre_density(4, rank, seed=seed)).gap == 0


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
        rho = hs_random_density(9, seed=2)
        starts = np.stack([qt.haar_unitary(3, seed=r) for r in range(5)])
        iterations = _ascend(rho.entries, 3, starts, 500, 1e-10, 0.0)[2]
        assert len(calls) == int(iterations.max())
        assert sum(calls) == int(iterations.sum())

    @settings(derandomize=True, deadline=None)
    @given(raw=_BELL_WEIGHTS)
    # two tied top weights and a close third, where every start crawls
    @example(raw=[0.0] * 13 + [1.0, 1.0, 0.96875])
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
            rho = hs_random_density(9, seed=500 + i)
            u = qt.haar_unitary(3, seed=600 + i)
            uu = tensor(u, u.conj())
            rotated = qt.DensityMatrix(3, uu @ rho.entries @ uu.conj().T)
            assert abs(
                qt.fef_certified(rotated).lower - qt.fef_certified(rho).lower
            ) <= 1e-9


def _case_args(kind, n, seed, count, max_iters, step_tol):
    """``_ascend``'s arguments with the starts laid out as ``fef_certified``
    lays them out: the spectral start of a seeded state, then ``count`` - 1
    Haar restarts.  On a "bell" state, diagonal in a maximally entangled
    basis, the spectral start is already the optimum and stops at
    iteration 1."""
    if kind == "hs":
        rho = hs_random_density(n * n, seed=seed)
    elif kind == "bell":
        weights = np.random.default_rng(seed).dirichlet(np.ones(n * n))
        rho = qt.bell_diagonal(n, weights)
    else:
        rho = high_entropy_density(n, {"mix5": 0.5, "mix9": 0.9}[kind], seed=seed)
    values, vectors = np.linalg.eigh(rho.entries)
    starts = np.stack(
        [_spectral_start(vectors[:, -1], n)]
        + [qt.haar_unitary(n, seed=seed + r) for r in range(1, count)]
    )
    return rho.entries, n, starts, max_iters, step_tol, float(values[0])


def _assert_matches_masked(*args):
    got, want = _ascend(*args), ascend_masked(*args)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# the spectral start stops at iteration 1, the restarts each later
_STAGGERED = dict(kind="bell", n=3, seed=1, count=5, max_iters=500, step_tol=1e-10)
# three iterations end the loop with every start still running
_EXHAUSTED = dict(kind="hs", n=4, seed=2, count=5, max_iters=3, step_tol=1e-10)
_SINGLE = dict(kind="mix9", n=3, seed=3, count=1, max_iters=500, step_tol=1e-10)


class TestLiveBatch:
    """The loop that carries only its running starts against the masked
    loop it replaced (``oracles.ascend_masked``), bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_matches_masked_loop(self, n):
        for case in itertools.product(
            ("hs", "mix5", "mix9"), [n], [n], (1, 17), (0, 1, 7, 500), (1e-10, 0.0)
        ):
            _assert_matches_masked(*_case_args(*case))

    @settings(derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from(["hs", "mix5", "mix9", "bell"]),
        n=st.integers(3, 5),
        seed=st.integers(0, 1000),
        count=st.integers(1, 6),
        max_iters=st.integers(0, 60),
        step_tol=st.sampled_from([1e-10, 0.0]),
    )
    @example(**_STAGGERED)
    @example(**_EXHAUSTED)
    @example(**_SINGLE)
    def test_matches_masked_loop_property(
        self, kind, n, seed, count, max_iters, step_tol
    ):
        args = _case_args(kind, n, seed, count, max_iters, step_tol)
        _assert_matches_masked(*args)

    def test_examples_are_the_hard_cases(self):
        iterations = _ascend(*_case_args(**_STAGGERED))[2]
        assert iterations[0] == 1 and len(set(iterations.tolist())) >= 3
        _, _, iterations, last_delta = _ascend(*_case_args(**_EXHAUSTED))
        assert (iterations == 3).all() and (last_delta >= 1e-10).all()

    def test_nan_gain_stops_at_last_accepted_point(self, monkeypatch):
        args = _case_args("hs", 3, 5, 4, 500, 1e-10)
        entries, n, starts, _, step_tol, shift = args
        after_two = _ascend(entries, n, starts, 2, step_tol, shift)
        polar = fef._polar
        calls = []

        def nan_on_third_call(batch):
            calls.append(len(batch))
            out = polar(batch)
            if len(calls) == 3:
                out[0] = np.nan
            return out

        monkeypatch.setattr(fef, "_polar", nan_on_third_call)
        units, f, iterations, last_delta = _ascend(*args)
        assert calls[2] == 4  # every start was still running at iteration 3
        assert np.array_equal(units[0], after_two[0][0])
        assert f[0] == after_two[1][0]
        assert iterations[0] == 3 and np.isnan(last_delta[0])
        assert (iterations[1:] > 3).all()


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
        # step on the mixture is the same step scaled by 1 - t.  The mixture's
        # spectrum can decide its verdict while the base's stays open, so
        # searches of the same extent are compared: the spectral start's
        # ascent on both, and the full search when both ran the same restarts
        d = n * n
        for seed in range(10):
            rho = hs_random_density(d, seed=seed)
            base_start = spectral_start_ascent(rho)
            base = qt.fef_certified(rho)
            for t in (0.5, 0.9, 0.99):
                mixed = qt.DensityMatrix(n, (1 - t) * rho.entries + t * np.eye(d) / d)
                pairs = [(spectral_start_ascent(mixed), base_start)]
                bounds = qt.fef_certified(mixed)
                if bounds.restarts_used == base.restarts_used:
                    pairs.append(
                        (
                            (bounds.lower, bounds.iterations_total),
                            (base.lower, base.iterations_total),
                        )
                    )
                for (lower, iterations), (base_lower, base_iterations) in pairs:
                    assert abs(lower - ((1 - t) * base_lower + t / d)) <= 1e-8
                    assert iterations <= base_iterations

    def test_high_entropy_iterations(self):
        # measured: about 700 per state with the shift, 3,600 without it
        spec = qt.SamplerSpec("high_entropy", 9, seed=7, mix_toward_identity=0.9)
        totals = [
            qt.fef_certified(qt.sample(spec, i)).iterations_total for i in range(40)
        ]
        assert np.mean(totals) <= 1200

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        states = [hs_random_density(n * n, seed=n) for n in (3, 4, 5)]
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


def _sampled(spec, count):
    return [qt.sample(spec, i) for i in range(count)]


def _searches(rho):
    """Whether the Haar restarts must run: lambda_max > 1/N + margin."""
    top = float(spectral_decomposition(rho.entries)[0][0])
    return top > 1.0 / rho.n + fef.VERDICT_MARGIN


@pytest.fixture
def haar_draws(monkeypatch):
    """Seeds of the Haar starts that ``fef_certified`` draws."""
    draw = fef.haar_unitary
    seeds = []

    def counting_draw(n, seed):
        seeds.append(seed)
        return draw(n, seed)

    monkeypatch.setattr(fef, "haar_unitary", counting_draw)
    return seeds


def _assert_one_batch_or_no_restarts(rho, cfg, seeds):
    """Where lambda_max leaves the verdict open the result is the one-batch
    search bit for bit; elsewhere no Haar start is drawn and ``lower`` is
    the spectral start's, never above the one-batch search's."""
    seeds.clear()
    bounds, oracle = qt.fef_certified(rho, cfg), fef_one_batch(rho, cfg)
    if _searches(rho):
        assert bounds.lower == oracle.lower and bounds.upper == oracle.upper
        assert bounds.iterations_total == oracle.iterations_total
        assert np.array_equal(bounds.best_unitary, oracle.best_unitary)
        assert bounds.restarts_used == cfg.restarts
    else:
        assert seeds == [] and bounds.restarts_used == 0
        assert bounds.lower <= oracle.lower + 1e-12
    assert qt.usable_for_teleportation(
        bounds, rho.n
    ) is qt.usable_for_teleportation(oracle, rho.n)
    return bounds, oracle


class TestSearchWhileOpen:
    """Haar restarts run exactly when lambda_max > 1/N + margin, in one
    batch with the spectral start, against the one-batch search that runs
    all of them on every state."""

    @pytest.mark.parametrize(
        "spec, count",
        [
            # the first states of acceptance criterion 3's N = 3 stream
            (qt.SamplerSpec("hilbert_schmidt", 9, seed=103), 300),
            (qt.SamplerSpec("hilbert_schmidt", 16, seed=103), 40),
            (qt.SamplerSpec("high_entropy", 9, seed=103, mix_toward_identity=0.9), 100),
        ],
        ids=["hs3", "hs4", "noisy3"],
    )
    def test_matches_one_batch_search(self, spec, count, haar_draws):
        cfg = qt.OptimizerConfig()
        for rho in _sampled(spec, count):
            bounds, oracle = _assert_one_batch_or_no_restarts(rho, cfg, haar_draws)
            assert bounds.upper == oracle.upper

    @pytest.mark.parametrize("n", range(3, 9))
    def test_families_match_one_batch_search(self, n, haar_draws):
        cfg = qt.OptimizerConfig()
        states = [
            qt.werner(qt.WernerParams(n, eps))
            for eps in (0.0, 1.0 / (n + 1), 1.0 / n, 0.5, 0.9, 1.0)
        ]
        states.append(qt.extremal_threshold_state(n))
        for rho in states:
            bounds, oracle = _assert_one_batch_or_no_restarts(rho, cfg, haar_draws)
            # F = lambda_max on these states, and an attained overlap can
            # round a few ulps above the computed lambda_max; upper is then
            # that overlap, and the one-batch search attains more of them
            top = float(spectral_decomposition(rho.entries)[0][0])
            if max(bounds.lower, oracle.lower) <= top:
                assert bounds.upper == oracle.upper == top
            else:
                assert abs(bounds.upper - oracle.upper) <= 1e-15

    @pytest.mark.parametrize("cap", (2, 16))
    def test_restarts_run_only_while_open(self, haar_draws, cap):
        cfg = qt.OptimizerConfig(restarts=cap, seed=3)
        states = _sampled(qt.SamplerSpec("hilbert_schmidt", 9, seed=103), 60)
        states += _sampled(qt.SamplerSpec("hilbert_schmidt", 16, seed=103), 10)
        states += _sampled(
            qt.SamplerSpec("high_entropy", 9, seed=103, mix_toward_identity=0.9), 10
        )
        used = set()
        for rho in states:
            haar_draws.clear()
            bounds = qt.fef_certified(rho, cfg)
            used.add(bounds.restarts_used)
            # the whole count is drawn, once, or nothing
            drawn = [3 ^ r for r in range(cap)] if _searches(rho) else []
            assert bounds.restarts_used == len(drawn) and haar_draws == drawn
        assert used == {0, cap}

    def test_gate_is_strict_at_the_line(self, monkeypatch):
        # lambda_max exactly on 1/N + margin leaves nothing to search for;
        # one ulp above it the restarts run
        rho = qt.extremal_threshold_state(3)
        line = 1.0 / 3 + fef.VERDICT_MARGIN
        for top, used in ((line, 0), (np.nextafter(line, 1.0), 16)):

            def pinned(entries, top=top):
                values, vectors = spectral_decomposition(entries)
                values = values.copy()
                values[0] = top
                return values, vectors

            monkeypatch.setattr(fef, "spectral_decomposition", pinned)
            assert qt.fef_certified(rho).restarts_used == used

    @pytest.mark.parametrize("n", range(3, 9))
    def test_borderline_werner_verdicts(self, n):
        # Werner at eps = 1/(N+1) + delta: F - 1/N = delta (1 - 1/N^2), so
        # the verdict is decided only for |delta| = 1e-7, and only then
        # above the line does the search run
        for delta in (-1e-7, -1e-12, 0.0, 1e-12, 1e-7):
            params = qt.WernerParams(n, 1.0 / (n + 1) + delta)
            f_closed = qt.werner_fef_closed_form(params)
            closed = qt.usable_for_teleportation(
                qt.FefBounds(f_closed, f_closed, np.eye(n), 0, 0, True), n
            )
            plain = qt.werner(params)
            states = [plain]
            for seed in (1, 2):
                local = tensor(qt.haar_unitary(n, seed), qt.haar_unitary(n, seed + 10))
                entries = local @ plain.entries @ local.conj().T
                states.append(qt.DensityMatrix(n, (entries + entries.conj().T) / 2))
            for rho in states:
                bounds = qt.fef_certified(rho)
                assert qt.usable_for_teleportation(bounds, n) is closed
                assert bounds.restarts_used == (16 if delta == 1e-7 else 0)


class TestTeleportVerdict:
    def test_phi_usable(self):
        rho = phi_projector_state(2)
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

    def test_antisymmetric_werner_n3_undecided(self):
        # P_a/3 at N = 3: the search attains 2/9 and lambda_max is 1/3.  The
        # relaxation max Tr(rho X) over X >= 0 with both marginals I/N is
        # 1/3 here too (X = P_a/3 is feasible), so no upper bound from its
        # dual can decide this state: it stays Undecided.
        rho = antisymmetric_werner(3)
        bounds = qt.fef_certified(rho)
        assert abs(bounds.lower - 2 / 9) <= 1e-9
        assert abs(bounds.upper - 1 / 3) <= 1e-12
        assert qt.usable_for_teleportation(bounds, 3) is qt.TeleportVerdict.UNDECIDED
