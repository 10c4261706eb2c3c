import json
import re

import numpy as np
import pytest

import qthresh as qt
from qthresh.errors import TheoremViolation, ValidationError
from qthresh.reports import CSV_HEADER
from qthresh.sampling import hs_random_density

from oracles import maximally_mixed, phi_projector_state


class TestAnalyze:
    def test_maximally_mixed_report(self, tmp_path):
        path = tmp_path / "mm.json"
        qt.save_state(maximally_mixed(2), path)
        report = qt.analyze_rho(qt.load_state(path))
        assert report.s_vn == pytest.approx(2.0, abs=1e-9)
        assert report.entropy_verdict_teleport is qt.EntropyVerdict.ABOVE
        assert report.fef_upper == pytest.approx(0.25, abs=1e-9)
        assert report.teleport_verdict is qt.TeleportVerdict.USELESS_CERTIFIED

    def test_phi_report(self, tmp_path):
        path = tmp_path / "phi.json"
        qt.save_state(phi_projector_state(2), path)
        report = qt.analyze_rho(qt.load_state(path))
        assert report.s_vn == pytest.approx(0.0, abs=1e-9)
        assert report.entropy_verdict_teleport is qt.EntropyVerdict.BELOW
        assert report.teleport_verdict is qt.TeleportVerdict.USABLE_CERTIFIED
        assert report.holevo_chi == pytest.approx(2.0, abs=1e-9)

    def test_extremal_report(self, tmp_path):
        path = tmp_path / "extremal.json"
        qt.save_state(qt.extremal_threshold_state(2), path)
        report = qt.analyze_rho(qt.load_state(path))
        assert report.s_vn == pytest.approx(1.7924813, abs=1e-6)
        assert report.teleport_verdict is qt.TeleportVerdict.UNDECIDED

    @pytest.mark.parametrize("n", range(2, 9))
    def test_extremal_state_is_at_the_threshold(self, tmp_path, n):
        # S = T exactly, so rounding must not pick a side
        path = tmp_path / "extremal.json"
        qt.save_state(qt.extremal_threshold_state(n), path)
        report = qt.analyze_rho(qt.load_state(path))
        assert report.entropy_verdict_teleport is qt.EntropyVerdict.AT
        assert report.entropy_verdict_densecoding is qt.EntropyVerdict.ABOVE

    def test_densecoding_verdict_at_threshold(self):
        # two equal weights in the maximally entangled basis: S = 1 = log2 2
        report = qt.analyze_rho(qt.bell_diagonal(2, [0.5, 0.5, 0.0, 0.0]))
        assert report.entropy_verdict_densecoding is qt.EntropyVerdict.AT
        assert report.entropy_verdict_teleport is qt.EntropyVerdict.BELOW

    def test_report_internal_consistency(self):
        for seed in range(8):
            rho = hs_random_density(4, seed=seed)
            report = qt.analyze_rho(rho)
            assert report.fef_lower <= report.fef_upper + 1e-9
            assert report.s_linear <= 1 - 1 / report.n**2 + 1e-12
            # verdicts recomputable from the numeric fields: a side only
            # beyond the 1e-9 margin, on the threshold within it
            for verdict, threshold in (
                (report.entropy_verdict_teleport, report.t_vn),
                (report.entropy_verdict_densecoding, report.densecoding_t),
            ):
                assert (verdict is qt.EntropyVerdict.ABOVE) == (
                    report.s_vn > threshold + 1e-9
                )
                assert (verdict is qt.EntropyVerdict.BELOW) == (
                    report.s_vn < threshold - 1e-9
                )
            if report.teleport_verdict is qt.TeleportVerdict.USABLE_CERTIFIED:
                assert report.fef_lower > 1 / report.n + 1e-9
            if report.teleport_verdict is qt.TeleportVerdict.USELESS_CERTIFIED:
                assert report.fef_upper < 1 / report.n - 1e-9


class TestVerifyTheorem:
    def test_hilbert_schmidt_small_run(self):
        summary = qt.verify_theorem(
            2, 100, qt.SamplerSpec(kind="hilbert_schmidt", dim=4, seed=7)
        )
        assert summary.violations == 0
        assert summary.contrapositive_violations == 0
        total = (
            summary.s_above_f_above
            + summary.s_above_f_below
            + summary.s_below_f_above
            + summary.s_below_f_below
        )
        assert total == 100

    def test_high_entropy_small_run(self):
        summary = qt.verify_theorem(
            2,
            50,
            qt.SamplerSpec(
                kind="high_entropy", dim=4, mix_toward_identity=0.9, seed=7
            ),
        )
        assert summary.violations == 0
        assert summary.s_above_f_above + summary.s_above_f_below >= 45

    def test_sampler_dimension_checked(self):
        with pytest.raises(ValidationError, match="does not match bipartite N=2"):
            qt.verify_theorem(
                2, 10, qt.SamplerSpec(kind="hilbert_schmidt", dim=9, seed=0)
            )

    @pytest.mark.parametrize("samples", [True, 2.5], ids=["bool", "float"])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(ValidationError, match="samples must be an integer"):
            qt.verify_theorem(2, samples)

    def test_numpy_integer_samples_stored_as_int(self):
        summary = qt.verify_theorem(2, np.int64(3))
        assert type(summary.samples) is int
        assert json.loads(json.dumps(summary.to_dict()))["samples"] == 3

    def test_rejects_zero_samples(self):
        with pytest.raises(ValidationError, match="samples must be >= 1"):
            qt.verify_theorem(2, 0)

    @pytest.mark.parametrize(
        "excess, raises", [(5e-8, True), (5e-10, False)], ids=["above", "inside"]
    )
    def test_verify_and_analyze_share_the_margin(self, monkeypatch, excess, raises):
        # F_lower = 1/N + excess on a state above the entropy threshold: both
        # entry points must call it a violation exactly when it clears the
        # verdict margin
        def fake_certified(rho, cfg):
            lower = 1.0 / rho.n + excess
            return qt.FefBounds(lower, lower, np.eye(rho.n), 0, 0, True)

        monkeypatch.setattr("qthresh.reports.fef_certified", fake_certified)
        spec = qt.SamplerSpec(
            kind="high_entropy", dim=4, mix_toward_identity=0.9, seed=7
        )
        rho = qt.sample(spec, 0)
        assert qt.von_neumann_entropy(rho) > qt.teleport_threshold_vn(2)
        if raises:
            with pytest.raises(TheoremViolation):
                qt.analyze_rho(rho)
            with pytest.raises(TheoremViolation):
                qt.verify_theorem(2, 1, spec)
        else:
            report = qt.analyze_rho(rho)
            assert report.teleport_verdict is qt.TeleportVerdict.UNDECIDED
            summary = qt.verify_theorem(2, 1, spec)
            assert summary.s_above_f_below == 1 and summary.violations == 0

    def test_violation_message_replays_the_sample(self, monkeypatch):
        def fake_certified(rho, cfg):
            return qt.FefBounds(0.99, 1.0, np.eye(rho.n), 0, 0, True)

        monkeypatch.setattr("qthresh.reports.fef_certified", fake_certified)
        spec = qt.SamplerSpec(
            kind="high_entropy", dim=4, mix_toward_identity=0.9, seed=7
        )
        cfg = qt.OptimizerConfig(restarts=3, seed=42)
        with pytest.raises(TheoremViolation) as info:
            qt.verify_theorem(2, 50, spec, cfg)
        message = str(info.value)
        index = int(re.match(r"sample (\d+):", message).group(1))
        assert (
            "replay: sample(SamplerSpec(kind='high_entropy', dim=4, "
            f"mix_toward_identity=0.9, seed=7), {index}) under OptimizerConfig("
            "restarts=3, seed=42)"
        ) in message
        state = json.loads(message.split("offending state: ", 1)[1])
        assert state == qt.state_to_dict(qt.sample(spec, index))


class TestWernerSweep:
    def test_endpoint_rows(self):
        rows = qt.sweep_werner(2, 11)
        first, last = rows[0], rows[-1]
        assert first.epsilon == 0.0
        assert first.s_bits == pytest.approx(2.0, abs=1e-12)
        assert first.f_closed == pytest.approx(0.25, abs=1e-12)
        assert first.chi_bits == pytest.approx(0.0, abs=1e-12)
        assert first.f_avg == pytest.approx(0.5, abs=1e-12)
        assert last.epsilon == 1.0
        assert last.s_bits == pytest.approx(0.0, abs=1e-12)
        assert last.f_closed == pytest.approx(1.0, abs=1e-12)
        assert last.chi_bits == pytest.approx(2.0, abs=1e-12)
        assert last.f_avg == pytest.approx(1.0, abs=1e-12)

    def test_contains_critical_markers(self):
        rows = qt.sweep_werner(2, 11)
        eps = [r.epsilon for r in rows]
        crit = qt.critical_epsilons(2)
        assert any(
            abs(e - crit.eps_entropy_at_teleport_threshold) < 1e-9 for e in eps
        )
        assert any(
            abs(e - crit.eps_entropy_at_densecoding_threshold) < 1e-9 for e in eps
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_marker_rows_read_zero(self, n):
        # each marker row sits on its threshold, so rounding must not pick
        # a side; a grid point on the teleportation marker 1/(N+1) gives
        # one row, not two
        crit = qt.critical_epsilons(n)
        rows = qt.sweep_werner(n, n + 2)
        tel = [r for r in rows if abs(r.epsilon - 1.0 / (n + 1)) < 1e-9]
        dc = [
            r
            for r in rows
            if abs(r.epsilon - crit.eps_entropy_at_densecoding_threshold) < 1e-9
        ]
        assert len(tel) == 1 and len(dc) == 1
        assert not tel[0].above_t_vn and not dc[0].above_t_dc

    def test_grid_ordered_and_entropy_monotone(self):
        rows = qt.sweep_werner(3, 17)
        eps = np.array([r.epsilon for r in rows])
        assert np.all(np.diff(eps) > 0)
        s = np.array([r.s_bits for r in rows])
        assert np.all(np.diff(s) < 0)

    def test_dense_coding_flag_flips_after_teleport_flag(self):
        rows = qt.sweep_werner(2, 101)
        last_above_vn = max(r.epsilon for r in rows if r.above_t_vn)
        last_above_dc = max(r.epsilon for r in rows if r.above_t_dc)
        assert last_above_dc > last_above_vn

    def test_csv_round_trip(self):
        rows = qt.sweep_werner(2, 11)
        text = qt.sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            fields = line.split(",")
            assert len(fields) == 8
            assert abs(float(fields[0]) - row.epsilon) <= 1e-6
            assert abs(float(fields[1]) - row.s_bits) <= 1e-6
            assert abs(float(fields[2]) - row.s_linear) <= 1e-6
            assert abs(float(fields[3]) - row.f_closed) <= 1e-6
            assert abs(float(fields[4]) - row.chi_bits) <= 1e-6
            assert abs(float(fields[5]) - row.f_avg) <= 1e-6
            assert int(fields[6]) == int(row.above_t_vn)
            assert int(fields[7]) == int(row.above_t_dc)

    @pytest.mark.parametrize("points", [True, 3.5], ids=["bool", "float"])
    def test_rejects_non_integer_grid_points(self, points):
        with pytest.raises(ValidationError, match="grid_points must be an integer"):
            qt.sweep_werner(2, points)

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError, match="grid_points must be >= 2"):
            qt.sweep_werner(2, 1)
