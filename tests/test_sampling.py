import json

import numpy as np
import pytest

import qthresh as qt
from qthresh.errors import ValidationError
from qthresh.sampling import high_entropy_density, hs_random_density

from oracles import ginibre_density, haar_pure


class TestHaarUnitary:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_unitarity(self, n):
        u = qt.haar_unitary(n, seed=1)
        assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-12

    def test_determinism(self):
        np.testing.assert_array_equal(
            qt.haar_unitary(3, seed=9), qt.haar_unitary(3, seed=9)
        )

    def test_seed_changes_output(self):
        assert not np.allclose(qt.haar_unitary(3, seed=1), qt.haar_unitary(3, seed=2))

    def test_first_entry_moment(self):
        # |U_00|^2 is uniform on [0, 1] at n=2: mean 1/2, variance 1/12
        draws = 10_000
        vals = np.array(
            [abs(qt.haar_unitary(2, seed=s)[0, 0]) ** 2 for s in range(draws)]
        )
        tol = 5 * np.sqrt(1 / 12 / draws)
        assert abs(vals.mean() - 0.5) < tol


class TestHaarPure:
    def test_unit_norm(self):
        psi = haar_pure(9, seed=4)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12

    def test_determinism(self):
        np.testing.assert_array_equal(
            haar_pure(4, seed=3), haar_pure(4, seed=3)
        )

    def test_fidelity_moment(self):
        draws = 10_000
        vals = np.array(
            [abs(haar_pure(2, seed=s)[0]) ** 2 for s in range(draws)]
        )
        tol = 5 * np.sqrt(1 / 12 / draws)
        assert abs(vals.mean() - 0.5) < tol


class TestHSRandomDensity:
    def test_validates(self):
        for seed in range(20):
            rho = hs_random_density(9, seed=seed)
            qt.DensityMatrix(3, rho.entries)

    def test_rank_one_is_pure(self):
        # the oracle's low-rank draws, used by the fef property tests
        rho = ginibre_density(4, 1, seed=6)
        assert qt.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [4, 9, 16])
    def test_full_rank_oracle_draw_is_bit_identical(self, dim):
        for seed in range(5):
            np.testing.assert_array_equal(
                ginibre_density(dim, dim, seed=seed).entries,
                hs_random_density(dim, seed=seed).entries,
            )

    def test_determinism(self):
        np.testing.assert_array_equal(
            hs_random_density(4, seed=5).entries,
            hs_random_density(4, seed=5).entries,
        )

    @pytest.mark.parametrize("dim,draws", [(4, 10_000), (9, 3_000)])
    def test_mean_purity_moment(self, dim, draws):
        # Hilbert-Schmidt mean purity is 2d/(d^2+1)
        purities = np.array(
            [
                1.0 - qt.linear_entropy(hs_random_density(dim, seed=s))
                for s in range(draws)
            ]
        )
        expected = 2 * dim / (dim**2 + 1)
        stderr = purities.std(ddof=1) / np.sqrt(draws)
        assert abs(purities.mean() - expected) < 5 * stderr

    def test_rejects_non_square_dim(self):
        with pytest.raises(ValidationError, match="perfect square"):
            hs_random_density(5, seed=0)


class TestHighEntropyDensity:
    def test_mix_one_is_maximally_mixed(self):
        rho = high_entropy_density(2, 1.0, seed=3)
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-12)

    def test_mix_zero_matches_plain_hs(self):
        a = high_entropy_density(2, 0.0, seed=11)
        b = hs_random_density(4, seed=11)
        np.testing.assert_allclose(a.entries, b.entries, atol=1e-15)

    def test_rejects_bad_mix(self):
        with pytest.raises(ValidationError, match="mix must lie in"):
            high_entropy_density(2, 1.5, seed=0)

    def test_calibration_fraction_above_threshold(self):
        # regression value: at n=2, mix=0.9 nearly every draw lands above
        # the teleportation threshold
        threshold = qt.teleport_threshold_vn(2)
        above = sum(
            qt.von_neumann_entropy(high_entropy_density(2, 0.9, seed=s))
            > threshold
            for s in range(1000)
        )
        assert above >= 990


class TestSamplerSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown sampler kind"):
            qt.SamplerSpec(kind="bures", dim=4)

    def test_rejects_bad_mix(self):
        with pytest.raises(ValidationError, match="mix_toward_identity must lie in"):
            qt.SamplerSpec(kind="high_entropy", dim=4, mix_toward_identity=2.0)

    def test_sample_dispatch(self):
        assert isinstance(
            qt.sample(qt.SamplerSpec(kind="hilbert_schmidt", dim=4, seed=1)),
            qt.DensityMatrix,
        )
        rho = qt.sample(
            qt.SamplerSpec(kind="high_entropy", dim=4, mix_toward_identity=0.5, seed=1)
        )
        assert isinstance(rho, qt.DensityMatrix)

    def test_sample_streams_deterministic_and_distinct(self):
        spec = qt.SamplerSpec(kind="hilbert_schmidt", dim=4, seed=9)
        a = qt.sample(spec, index=7)
        b = qt.sample(spec, index=7)
        np.testing.assert_array_equal(a.entries, b.entries)
        c = qt.sample(spec, index=8)
        assert not np.allclose(a.entries, c.entries)

    def test_high_entropy_requires_mix(self):
        with pytest.raises(ValidationError, match="requires mix_toward_identity"):
            qt.SamplerSpec(kind="high_entropy", dim=4, seed=0)

    @pytest.mark.parametrize("kind", ["hilbert_schmidt", "high_entropy"])
    def test_density_kinds_need_square_dim(self, kind):
        with pytest.raises(ValidationError, match="perfect square"):
            qt.SamplerSpec(kind=kind, dim=5, mix_toward_identity=0.5)

    @pytest.mark.parametrize(
        "seed",
        [np.random.SeedSequence(1), np.random.default_rng(1), 1.0, "1", True],
        ids=["seed_sequence", "generator", "float", "str", "bool"],
    )
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            qt.SamplerSpec(kind="hilbert_schmidt", dim=4, seed=seed)

    @pytest.mark.parametrize(
        "dim", [4.0, True, np.float64(9.0)], ids=["float", "bool", "np_float64"]
    )
    def test_rejects_non_integer_dim(self, dim):
        with pytest.raises(ValidationError, match="dim must be an integer"):
            qt.SamplerSpec(kind="hilbert_schmidt", dim=dim)

    def test_numpy_integer_dim_stored_as_int(self):
        spec = qt.SamplerSpec(kind="hilbert_schmidt", dim=np.int64(4))
        assert type(spec.dim) is int
        assert spec == qt.SamplerSpec(kind="hilbert_schmidt", dim=4)

    def test_numpy_integer_seed_matches_int(self):
        spec = qt.SamplerSpec(kind="hilbert_schmidt", dim=4, seed=np.int64(5))
        a = qt.sample(spec, 3)
        b = qt.sample(qt.SamplerSpec(kind="hilbert_schmidt", dim=4, seed=5), 3)
        np.testing.assert_array_equal(a.entries, b.entries)
        # stored as a Python int, so a verify summary stays JSON-serializable
        assert type(spec.seed) is int
        json.dumps(qt.verify_theorem(2, 2, spec).to_dict())

    def test_direct_samplers_still_take_seed_objects(self):
        seq = np.random.SeedSequence(4)
        np.testing.assert_array_equal(
            qt.haar_unitary(3, seq), qt.haar_unitary(3, np.random.SeedSequence(4))
        )
        rho = hs_random_density(4, seed=np.random.default_rng(4))
        result = qt.teleportation_avg_fidelity_mc(rho, 100, seed=np.random.SeedSequence(4))
        assert result.n_samples == 100
