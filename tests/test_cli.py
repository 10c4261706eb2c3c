import json

import numpy as np
import pytest

import qthresh as qt
from qthresh.cli import main
from qthresh.errors import TheoremViolation

from oracles import maximally_mixed


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner.json"
    qt.save_state(qt.werner(qt.WernerParams(2, 0.5)), path)
    return str(path)


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "missing.json")]) == 2

    def test_invalid_state_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = qt.state_to_dict(maximally_mixed(2))
        payload["matrix"][0][0] = [0.9, 0.0]  # trace becomes 1.65
        path.write_text(json.dumps(payload))
        assert main(["analyze", str(path)]) == 2

    def test_usage_error(self):
        assert main(["verify", "--n", "2"]) == 1  # --samples missing
        assert main(["nonsense"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_success(self, capsys):
        assert main(["thresholds", "--n", "2"]) == 0
        capsys.readouterr()

    def test_negative_teleport_seed_is_input_error(self, werner_file, capsys):
        argv = ["teleport", werner_file, "--mc-samples", "1000", "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")

    def test_negative_verify_seed_is_input_error(self, capsys):
        assert main(["verify", "--n", "3", "--samples", "2", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")

    def test_theorem_violation_maps_to_3(self, monkeypatch, werner_file):
        def boom(rho, cfg):
            raise TheoremViolation("synthetic")

        monkeypatch.setattr("qthresh.cli.analyze_rho", boom)
        assert main(["analyze", werner_file]) == 3


class TestThresholdsCommand:
    def test_plain_output(self, capsys):
        main(["thresholds", "--n", "2"])
        out = capsys.readouterr().out
        assert "1.792481" in out
        assert "0.666667" in out
        assert "1.000000" in out

    def test_json_output(self, capsys):
        main(["thresholds", "--n", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["teleport_threshold_vn_bits"] == pytest.approx(
            2.9182958, abs=1e-6
        )
        assert payload["teleport_threshold_linear"] == pytest.approx(5 / 6)
        assert payload["densecoding_threshold_bits"] == pytest.approx(np.log2(3))


class TestAnalyzeCommand:
    def test_json_fields(self, werner_file, capsys):
        assert main(["analyze", werner_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s_vn_bits"] == pytest.approx(1.548795, abs=1e-6)
        assert payload["teleport_verdict"] == "UsableCertified"
        assert payload["holevo_chi_bits"] == pytest.approx(0.451205, abs=1e-6)

    def test_byte_identical_reruns(self, werner_file, capsys):
        main(["analyze", werner_file, "--json", "--seed", "5"])
        first = capsys.readouterr().out
        main(["analyze", werner_file, "--json", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestVerifyCommand:
    def test_small_run(self, capsys):
        code = main(
            ["verify", "--n", "2", "--samples", "25", "--sampler", "hs",
             "--seed", "7"]
        )
        assert code == 0
        assert "violations" in capsys.readouterr().out

    def test_byte_identical_reruns(self, capsys):
        args = ["verify", "--n", "2", "--samples", "25", "--sampler",
                "high-entropy", "--mix", "0.8", "--seed", "3", "--json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["violations"] == 0


    # stdout recorded before the N >= 3 restarts became conditional on an
    # open verdict; the verdicts, and so these bytes, must not move
    @pytest.mark.parametrize(
        "n, sampler, expected",
        [
            (2, ["hs"], '{"cells": {"s_above_f_above": 0, "s_above_f_below": 0, '
             '"s_below_f_above": 33, "s_below_f_below": 27}, '
             '"contrapositive_violations": 0, "fef_margin": 1e-09, "n": 2, '
             '"optimizer_seed": 7, "restarts": 16, "sampler_kind": '
             '"hilbert_schmidt", "sampler_seed": 7, "samples": 60, '
             '"threshold_bits": 1.79248125036, "violations": 0}\n'),
            (2, ["high-entropy", "--mix", "0.5"], '{"cells": {"s_above_f_above": 0, '
             '"s_above_f_below": 54, "s_below_f_above": 0, "s_below_f_below": 6}, '
             '"contrapositive_violations": 0, "fef_margin": 1e-09, "n": 2, '
             '"optimizer_seed": 7, "restarts": 16, "sampler_kind": "high_entropy", '
             '"sampler_seed": 7, "samples": 60, "threshold_bits": 1.79248125036, '
             '"violations": 0}\n'),
            (3, ["hs"], '{"cells": {"s_above_f_above": 0, "s_above_f_below": 0, '
             '"s_below_f_above": 3, "s_below_f_below": 57}, '
             '"contrapositive_violations": 0, "fef_margin": 1e-09, "n": 3, '
             '"optimizer_seed": 7, "restarts": 16, "sampler_kind": '
             '"hilbert_schmidt", "sampler_seed": 7, "samples": 60, '
             '"threshold_bits": 2.91829583405, "violations": 0}\n'),
            (3, ["high-entropy", "--mix", "0.5"], '{"cells": {"s_above_f_above": 0, '
             '"s_above_f_below": 60, "s_below_f_above": 0, "s_below_f_below": 0}, '
             '"contrapositive_violations": 0, "fef_margin": 1e-09, "n": 3, '
             '"optimizer_seed": 7, "restarts": 16, "sampler_kind": "high_entropy", '
             '"sampler_seed": 7, "samples": 60, "threshold_bits": 2.91829583405, '
             '"violations": 0}\n'),
        ],
        ids=["n2-hs", "n2-high-entropy", "n3-hs", "n3-high-entropy"],
    )
    def test_json_bytes_are_pinned(self, n, sampler, expected, capsys):
        args = ["verify", "--n", str(n), "--samples", "60", "--sampler", *sampler,
                "--seed", "7", "--json"]
        assert main(args) == 0
        assert capsys.readouterr().out == expected


class TestPlainTables:
    """Plain text is the JSON payload as a table: one row per scalar,
    nested values under dotted keys, None and arrays left out."""

    def rows(self, capsys, argv):
        assert main(argv) == 0
        return dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())

    def test_verify_shows_nested_cells(self, capsys):
        rows = self.rows(capsys, ["verify", "--n", "2", "--samples", "25", "--seed", "7"])
        assert rows["n"] == "2"
        assert rows["sampler_kind"] == "hilbert_schmidt"
        assert rows["fef_margin"] == "1.000e-09"
        cells = [int(rows[k]) for k in rows if k.startswith("cells.")]
        assert len(cells) == 4 and sum(cells) == 25

    def test_teleport_skips_none(self, werner_file, capsys):
        rows = self.rows(capsys, ["teleport", werner_file])
        assert rows["f_avg_exact"] == "0.750000"
        assert "f_avg_mc" not in rows and "mc_std_error" not in rows

    def test_fef_skips_arrays(self, werner_file, capsys):
        rows = self.rows(capsys, ["fef", werner_file])
        assert rows["lower"] == "0.625000" and rows["converged"] == "True"
        assert "best_unitary" not in rows

    def test_enum_values(self, werner_file, capsys):
        rows = self.rows(capsys, ["densecode", werner_file])
        assert rows["verdict"] == "NotUseful"

    def test_json_matches_table(self, werner_file, capsys):
        rows = self.rows(capsys, ["analyze", werner_file])
        assert main(["analyze", werner_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(rows) == set(payload)


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "2", "--points", "11", "--out", str(out)]) == 0
        assert capsys.readouterr().err.startswith("wrote ")
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "epsilon,S_bits,S_linear,F,chi_bits,f_avg,above_T_vn,above_T_dc"
        )
        assert len(lines) >= 12

    @pytest.mark.parametrize("target", ["missing/sweep.csv", "."])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        # a missing directory, then a directory: exit 2 as for bad input,
        # not a traceback and the usage-error code 1
        out = tmp_path / target
        argv = ["sweep", "--n", "2", "--points", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_json_rows_use_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--n", "3", "--points", "5", "--out", str(out), "--json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        header = out.read_text().split("\n", 1)[0].split(",")
        assert len(rows) == len(out.read_text().splitlines()) - 1
        assert all(sorted(row) == sorted(header) for row in rows)


class TestStateCommands:
    def test_fef_json(self, werner_file, capsys):
        assert main(["fef", werner_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] == pytest.approx(0.625, abs=1e-6)
        assert payload["upper"] == pytest.approx(0.625, abs=1e-6)
        unitary = np.asarray(payload["best_unitary"])
        assert unitary.shape == (2, 2, 2)

    def test_fef_gap_not_negative(self, tmp_path, capsys):
        # Werner N = 8: the attained overlap rounds above lambda_max
        path = tmp_path / "werner8.json"
        qt.save_state(qt.werner(qt.WernerParams(8, 0.5)), path)
        assert main(["fef", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap"] == 0.0
        assert payload["lower"] <= payload["upper"]

    def test_teleport_exact_only(self, werner_file, capsys):
        assert main(["teleport", werner_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_avg_exact"] == pytest.approx(0.75, abs=1e-9)
        assert payload["f_avg_mc"] is None

    def test_teleport_with_mc(self, werner_file, capsys):
        assert main(
            ["teleport", werner_file, "--mc-samples", "500", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_samples"] == 500
        assert payload["f_avg_mc"] == pytest.approx(0.75, abs=1e-6)

    def test_densecode(self, werner_file, capsys):
        assert main(["densecode", werner_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holevo_chi_bits"] == pytest.approx(0.451205, abs=1e-6)
        assert payload["verdict"] == "NotUseful"
