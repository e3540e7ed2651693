"""Command-line behaviour: outputs, exit codes, file round-trips."""

import json
import math

import pytest

from zflim.cli import main
from zflim.plants import BUILTIN, dump_plant, load_plant, parse_plant


def run(args):
    return main(args)


class TestNyquist:
    def test_ex3_value(self, tmp_path, capsys):
        out = tmp_path / "n.json"
        assert run(["nyquist", "--example", "ex3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["k_nyquist"] - 2.74550) < 1e-3
        assert "ex3" in capsys.readouterr().out

    def test_unknown_example(self, capsys):
        assert run(["nyquist", "--example", "nope"]) == 3


class TestLimits:
    def test_beta_two(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run(["limits", "--beta-max", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,omega,bound_monotone_rad,bound_odd_rad"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [("1", "1"), ("1", "2")]
        assert float(rows[0][3]) == 0.0 and float(rows[0][4]) == 0.0
        assert float(rows[1][3]) == pytest.approx(math.pi / 4)
        assert float(rows[1][4]) == pytest.approx(math.pi / 4)

    def test_row_count_matches_totient_sum(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run(["limits", "--beta-max", "50", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        expected = 1 + sum(
            sum(1 for a in range(1, b) if math.gcd(a, b) == 1) for b in range(2, 51)
        )
        assert len(rows) == expected

    def test_two_thirds_row(self, tmp_path):
        out = tmp_path / "l.csv"
        run(["limits", "--beta-max", "3", "--out", str(out)])
        for line in out.read_text().splitlines():
            if line.startswith("2,3,"):
                parts = line.split(",")
                assert float(parts[3]) == pytest.approx(math.pi / 6)
                assert float(parts[4]) == pytest.approx(math.pi / 3)
                return
        raise AssertionError("missing 2/3 row")


class TestConstruct:
    def test_worked_example(self, tmp_path):
        out = tmp_path / "c.json"
        code = run([
            "construct", "--alpha", "4", "--beta", "7",
            "--class", "odd", "--sign", "+", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["taps"] in ({"-5": -1.0}, {"5": -1.0})
        assert payload["phase"] == pytest.approx(3 * math.pi / 7, abs=1e-12)


class TestCertify:
    def test_ex1_odd_above_lp_bound(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run([
            "certify", "--example", "ex1", "--k", "13.6", "--beta", "250",
            "--class", "odd", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["beta"] == 250
        assert len(payload["lambdas"]) == 249
        assert payload["residual_max"] <= 1e-9

    def test_no_certificate_exits_one(self):
        code = run([
            "certify", "--example", "ex1", "--k", "5.0", "--beta", "12", "--class", "monotone",
        ])
        assert code == 1


class TestSearch:
    def test_ex2_finds_multiplier(self, tmp_path):
        out = tmp_path / "m.json"
        code = run([
            "search", "--example", "ex2", "--k", "3.8", "--nz", "5",
            "--class", "monotone", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        taps = {int(k): v for k, v in payload["taps"].items()}
        assert 0 not in taps
        assert sum(abs(v) for v in taps.values()) <= 1.0

    def test_beyond_bound_exits_one(self):
        code = run([
            "search", "--example", "ex2", "--k", "3.83", "--nz", "5", "--class", "monotone",
        ])
        assert code == 1


class TestCtCheck:
    def test_round_trip(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({
            "freqs": [1.0, "inf"],
            "values": [[0.0, 0.0], [-1.0, 0.0]],
            "lambdas": [0.0, 1.0],
            "check": "odd",
        }))
        out = tmp_path / "out.json"
        assert run(["ct-check", "--input", str(inp), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["holds"] is True

    def test_failing_check_exits_one(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({
            "freqs": [1.0],
            "values": [[-1.0, 0.0]],
            "lambdas": [1.0],
        }))
        assert run(["ct-check", "--input", str(inp), "--check", "odd"]) == 1


class TestPlantFiles:
    def test_round_trip_bit_for_bit(self, tmp_path):
        path = tmp_path / "plant.json"
        text = dump_plant(BUILTIN["ex4"])
        path.write_text(text)
        record = load_plant(str(path))
        assert record == BUILTIN["ex4"]
        assert dump_plant(record) == text

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            parse_plant(json.dumps({"name": "x", "num": [1.0]}))

    def test_builtin_matches_published_coefficients(self):
        assert BUILTIN["ex1"].num == (0.1, 0.0)
        assert BUILTIN["ex1"].den == (1.0, -1.8, 0.81)
        assert BUILTIN["ex6"].num == (-0.08658, 0.007162)

    def test_custom_plant_file_analysis(self, tmp_path):
        path = tmp_path / "plant.json"
        path.write_text(dump_plant(BUILTIN["ex1"]))
        assert run(["nyquist", "--plant", str(path)]) == 0


class TestAnalyze:
    def test_ex2_monotone_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "analyze", "--example", "ex2", "--class", "monotone",
            "--nz", "5", "--lp-beta", "40", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert abs(payload["k_nyquist"] - 7.907) < 1e-3
        assert abs(payload["k_upper_single"]["value"] - 3.824040) < 1e-4
        assert payload["k_upper_single"]["alpha"] == 1
        assert payload["k_upper_single"]["beta"] == 2
        assert payload["dual_gap_percent"] < 0.1
        lower = payload["k_lower"]["value"]
        assert lower <= payload["k_upper_single"]["value"] + 1e-6
        assert lower <= payload["k_upper_lp"]["value"] + 1e-6
        assert set(payload["wall_times"]) >= {"nyquist", "scan_upper", "lower_bound", "lp_upper"}

    def test_passive_plant_notes_trivial_regime(self, tmp_path):
        plant = tmp_path / "p.json"
        plant.write_text(json.dumps({"name": "unit", "num": [1.0], "den": [1.0]}))
        out = tmp_path / "r.json"
        code = run(["analyze", "--plant", str(plant), "--class", "monotone", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["k_nyquist"] == "inf"
        assert payload["k_upper_single"]["value"] == "inf"
        assert payload["k_lower"]["value"] == "inf"
        assert "passive" in payload["note"]

    def test_unstable_plant_exit_code(self, tmp_path):
        plant = tmp_path / "p.json"
        plant.write_text(json.dumps({"name": "bad", "num": [1.0], "den": [1.0, -1.0]}))
        assert run(["analyze", "--plant", str(plant), "--class", "monotone"]) == 2

    def test_parse_error_exit_code(self, tmp_path):
        plant = tmp_path / "p.json"
        plant.write_text("{not json")
        assert run(["analyze", "--plant", str(plant), "--class", "monotone"]) == 3

    def test_nan_tol_k_exit_code(self):
        assert run([
            "analyze", "--example", "ex2", "--class", "monotone",
            "--nz", "5", "--lp-beta", "40", "--tol-k", "nan",
        ]) == 3


class TestLegacy:
    def test_zero_tol_k_exit_code(self):
        assert run([
            "legacy", "--example", "ex1", "--class", "monotone",
            "--k-lo", "10", "--k-hi", "36", "--resolution", "1e-2", "--tol-k", "0",
        ]) == 3

    def test_infinite_k_hi_exit_code(self):
        assert run([
            "legacy", "--example", "ex1", "--class", "monotone",
            "--k-lo", "10", "--k-hi", "inf",
        ]) == 4
