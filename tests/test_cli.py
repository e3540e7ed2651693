"""Command-line behaviour: outputs, exit codes, file round-trips."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zflim import cli
from zflim.cli import build_parser, main
from zflim.errors import BracketInvalid
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

    def test_residual_is_minus_the_margin(self, tmp_path):
        # the residual skips only the zero i = 0 row, as the acceptance gate does
        out = tmp_path / "cert.json"
        assert run(["certify", "--example", "ex1", "--k", "13.56", "--beta", "160",
                    "--class", "monotone", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["residual_max"] == -payload["margin"] < 0.0

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

    def test_trivially_passive_random_plant(self, tmp_path, capsys):
        # perfbench.workloads.random_plant(default_rng(21)): Re{G + 2} >= 1, so
        # M = 1 works; the first cold solve (65x33) returns an x that breaks a
        # seed row by 1.5e-6, and generate_rows recomputes it from the basis
        path = tmp_path / "plant.json"
        path.write_text(json.dumps({
            "name": "rand21",
            "num": [0.05943846605261329, -0.08723547593378288, 0.021517295730577528],
            "den": [1.0, 1.4831610020773018, 0.9394297846217065, 0.2880775448274309],
        }))
        code = run(["search", "--plant", str(path), "--class", "odd", "--k", "0.5"])
        assert code == 0, capsys.readouterr().err


# every flag of every subcommand: a flag added or removed shows as an edit here
SUBCOMMAND_FLAGS = {
    "analyze": {"--example", "--plant", "--class", "--beta-max", "--lp-beta", "--nz",
                "--tol-k", "--out"},
    "nyquist": {"--example", "--plant", "--out"},
    "limits": {"--beta-max", "--out"},
    "certify": {"--example", "--plant", "--class", "--k", "--beta", "--out"},
    "search": {"--example", "--plant", "--class", "--k", "--nz", "--out"},
    "construct": {"--alpha", "--beta", "--class", "--sign", "--out"},
    "legacy": {"--example", "--plant", "--class", "--resolution", "--k-lo", "--k-hi",
               "--tol-k", "--out"},
    "ct-check": {"--input", "--check", "--out"},
    "show-plant": {"--example", "--plant"},
}


def test_one_parser_serves_every_command(tmp_path, monkeypatch):
    # `main` builds its parser once per process; two commands in a row each
    # see only their own options
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        parsed.append((self, set(vars(namespace))))
        return namespace

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert main(["certify", "--example", "ex4", "--class", "odd", "--k", "1.2",
                 "--beta", "12", "--out", str(tmp_path / "c.json")]) == 0
    assert main(["nyquist", "--example", "ex3"]) == 0
    (first, certify), (second, nyquist) = parsed
    assert first is second
    common = {"command", "func", "example", "plant", "out"}
    assert certify == common | {"class_tag", "k", "beta"}
    assert nyquist == common


def test_subcommand_flags_are_pinned():
    actions = build_parser()._actions
    [subcommands] = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.choices.items()
    }
    assert flags == SUBCOMMAND_FLAGS


@pytest.mark.parametrize("command", [["search"], ["certify", "--beta", "12"]],
                         ids=["search", "certify"])
@pytest.mark.parametrize("k", ["-1", "0", "nan", "inf"])
def test_invalid_gain_exits_three(command, k, capsys):
    assert run(command + ["--example", "ex2", f"--k={k}", "--class", "monotone"]) == 3
    assert "gain must be positive and finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["search"], ["certify", "--beta", "12"]],
                         ids=["search", "certify"])
@pytest.mark.parametrize("k", ["1e308", "5e-324"])
def test_gain_whose_shift_is_not_finite_exits_three(command, k, capsys):
    assert run(command + ["--example", "ex1", f"--k={k}", "--class", "odd"]) == 3
    assert capsys.readouterr().err.startswith("error: gain")


@pytest.mark.parametrize("argv", [
    ["analyze", "--example", "ex1", "--class", "bogus"],
    ["analyze", "--example", "ex1"],
    ["search", "--example", "ex1", "--class", "odd", "--nz", "abc"],
    ["bogus"],
    [],
    ["search", "--example", "ex1", "--plant", "x.json", "--class", "odd"],
    ["search", "--class", "odd"],
    ["show-plant", "--example", "nope"],
], ids=["bad-class", "no-class", "bad-nz", "unknown-command", "no-command",
        "example-and-plant", "no-plant", "unknown-example"])
def test_usage_error_exits_three(argv, capsys):
    assert run(argv) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 9.31 GiB"),
                                   np.linalg.LinAlgError("Eigenvalues did not converge")],
                         ids=["memory", "linalg"])
def test_unexpected_failure_exits_two(error, monkeypatch, capsys):
    # LinAlgError is a ValueError, but a numerical failure, not an invalid argument
    def failing(tf):
        raise error

    monkeypatch.setattr(cli, "nyquist_value", failing)
    assert run(["nyquist", "--example", "ex1"]) == 2
    assert capsys.readouterr().err == f"error: {type(error).__name__}: {error}\n"


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert run(argv) == 0
    assert "usage:" in capsys.readouterr().out


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

    def test_last_frequency_may_be_infinity(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({
            "freqs": [1.0, math.inf],
            "values": [[0.0, 0.0], [-1.0, 0.0]],
            "lambdas": [0.0, 1.0],
        }))
        assert "Infinity" in inp.read_text()
        assert run(["ct-check", "--input", str(inp)]) == 0


PLANT = {"name": "p", "num": [1.0], "den": [1.0, -0.5]}
CT_INPUT = {"freqs": [1.0], "values": [[-1.0, 0.0]], "lambdas": [1.0]}
ANALYZE_PLANT = ["analyze", "--class", "monotone", "--plant"]
CT_CHECK = ["ct-check", "--input"]


@pytest.mark.parametrize("command, text", [
    pytest.param(ANALYZE_PLANT, json.dumps(dict(PLANT, num=5)), id="plant-num-number"),
    pytest.param(ANALYZE_PLANT, json.dumps(dict(PLANT, num=[None])), id="plant-num-null"),
    pytest.param(ANALYZE_PLANT, json.dumps(dict(PLANT, num=[[1, 2]])), id="plant-num-nested"),
    pytest.param(ANALYZE_PLANT, json.dumps(dict(PLANT, den=[])), id="plant-den-empty"),
    pytest.param(ANALYZE_PLANT, json.dumps(dict(PLANT, num=[math.nan])), id="plant-nan"),
    pytest.param(ANALYZE_PLANT, json.dumps(dict(PLANT, den=[1.0, math.inf])), id="plant-inf"),
    pytest.param(ANALYZE_PLANT, json.dumps(dict(PLANT, num=[10 ** 400])), id="plant-huge-int"),
    pytest.param(ANALYZE_PLANT, json.dumps(dict(PLANT, num=[True])), id="plant-num-bool"),
    pytest.param(CT_CHECK, json.dumps({k: v for k, v in CT_INPUT.items() if k != "freqs"}),
                 id="ct-missing-freqs"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, values=[[1]])), id="ct-short-pair"),
    pytest.param(CT_CHECK, json.dumps([CT_INPUT]), id="ct-top-level-list"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, t_step="x")), id="ct-string-t-step"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, check="foo")), id="ct-unknown-check"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, lambdas=[10 ** 400])), id="ct-huge-int"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, lambdas=[True])), id="ct-bool-weight"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, freqs=[1.0, math.nan], values=[[-1, 0]] * 2,
                                           lambdas=[1, 1])), id="ct-nan-freq"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, freqs=[math.nan])), id="ct-only-nan-freq"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, freqs=[-math.inf])), id="ct-minus-inf-freq"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, freqs=["nan"])), id="ct-nan-string-freq"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, values=[[math.nan, 0]])), id="ct-nan-value"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, values=[[-math.inf, 0]])), id="ct-inf-value"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, values=["-1+infj"])), id="ct-inf-string"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, lambdas=[math.inf])), id="ct-inf-weight"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, t_horizon=math.inf)), id="ct-inf-t-horizon"),
    pytest.param(CT_CHECK, json.dumps(dict(CT_INPUT, t_step=math.nan)), id="ct-nan-t-step"),
])
def test_malformed_file_exits_three(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert run(command + [str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


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


# k_lower / k_upper_lp of `analyze` at default settings, per plant and class
DEFAULT_ANALYZE_BOUNDS = {
    ("ex1", "monotone"): (13.0282567, 13.0283737),
    ("ex1", "odd"): (13.4821646, 13.5122787),
    ("ex2", "monotone"): (3.8240308, 3.8240402),
    ("ex2", "odd"): (3.8240083, 3.8240402),
    ("ex3", "monotone"): (0.8027321, 0.8027452),
    ("ex3", "odd"): (1.1056414, 1.1056487),
    ("ex4", "monotone"): (0.8466238, 0.8466566),
    ("ex4", "odd"): (0.9876631, 0.9876706),
    ("ex5", "monotone"): (0.3744343, 0.3744914),
    ("ex5", "odd"): (0.3744206, 0.3744914),
    ("ex6", "monotone"): (13.2619911, 13.2620354),
    ("ex6", "odd"): (22.6868983, 22.6869073),
}


class TestAnalyze:
    @pytest.mark.parametrize("plant,class_tag", sorted(DEFAULT_ANALYZE_BOUNDS))
    def test_default_settings_bounds(self, tmp_path, plant, class_tag):
        out = tmp_path / "report.json"
        code = run(["analyze", "--example", plant, "--class", class_tag, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        k_lower, k_upper_lp = DEFAULT_ANALYZE_BOUNDS[(plant, class_tag)]
        tol_k = payload["k_upper_lp"]["tol_k"]
        assert payload["k_lower"]["value"] == pytest.approx(k_lower, abs=tol_k)
        assert payload["k_upper_lp"]["value"] == pytest.approx(k_upper_lp, abs=tol_k)

    def test_ex2_monotone_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run([
            "analyze", "--example", "ex2", "--class", "monotone",
            "--nz", "5", "--lp-beta", "40", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 2
        assert set(payload["k_lower"]) == {"value", "n_z"}
        assert abs(payload["k_nyquist"] - 7.907) < 1e-3
        assert abs(payload["k_upper_single"]["value"] - 3.824040) < 1e-4
        assert payload["k_upper_single"]["alpha"] == 1
        assert payload["k_upper_single"]["beta"] == 2
        assert payload["dual_gap_percent"] < 0.1
        lower = payload["k_lower"]["value"]
        assert lower <= payload["k_upper_single"]["value"] + 1e-6
        assert lower <= payload["k_upper_lp"]["value"] + 1e-6
        assert set(payload["wall_times"]) >= {"nyquist", "scan_upper", "lower_bound", "lp_upper"}

    def test_ex1_monotone_report_at_beta_60(self, tmp_path, capsys):
        # the scan witness (2/7)*pi is not on the beta = 60 grid, so no
        # certificate exists at the cap and the LP bracket fails
        out = tmp_path / "report.json"
        code = run(["analyze", "--example", "ex1", "--class", "monotone",
                    "--lp-beta", "60", "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().out.splitlines() == [
            "plant            ex1",
            "class            monotone",
            "k_nyquist        36.100000",
            "k_lower          13.028257  (n_z=8)",
            "k_upper_single   13.028374  at (2/7)*pi",
            "k_upper_lp       inf  (beta=60)",
            "dual_gap         0.0009%",
            "note             upper-bound bracket failed: "
            "no certificate at k_hi=13.028373692567094",
        ]
        payload = json.loads(out.read_text())
        assert payload["k_upper_lp"] == {"value": "inf", "beta": 60, "tol_k": 0.0001}
        assert list(payload["wall_times"]) == ["nyquist", "scan_upper", "lower_bound", "lp_upper"]

    def test_scan_bound_above_nyquist_is_no_chain_violation(self, tmp_path, capsys):
        # perfbench.workloads.random_plant(default_rng(2)): k_nyquist 1.00233
        # caps the monotone scan bound 1.01588, and no certificate exists at
        # the cap; the scan bound is a looser upper bound, not a violation
        path = tmp_path / "plant.json"
        path.write_text(json.dumps({
            "name": "rand2",
            "num": [0.356574925484507, 0.6847291724466128, 0.247024291268094,
                    -0.14032025714997784, -0.05225425906847654, 0.009749913046510187],
            "den": [1.0, 0.8017346530015825, 0.542450973014058, -0.03427240424658186,
                    0.035776300343025896, -0.020929840951778536, 0.006927729642513331],
        }))
        out = tmp_path / "report.json"
        run(["analyze", "--plant", str(path), "--class", "monotone", "--out", str(out)])
        assert "chain violation" not in capsys.readouterr().err
        assert json.loads(out.read_text())["note"].startswith("upper-bound bracket failed")

    def test_failed_lower_bracket_is_no_chain_violation(self, tmp_path, capsys, monkeypatch):
        # a failed lower-bound bracket leaves k_lower = inf, which is no bound
        # to compare with the upper ones
        def failing(*args):
            raise BracketInvalid("search fails already at k_lo")

        monkeypatch.setattr(cli, "bisect_lower_bound", failing)
        out = tmp_path / "report.json"
        code = run(["analyze", "--example", "ex1", "--class", "odd", "--out", str(out)])
        assert code == 4
        assert "chain violation" not in capsys.readouterr().err
        assert json.loads(out.read_text())["note"] == (
            "lower-bound bracket failed: search fails already at k_lo")

    def test_nyquist_capped_gap_is_taken_against_k_nyquist(self, tmp_path, monkeypatch):
        # perfbench.workloads.random_plant(default_rng(2)), monotone class:
        # k_nyquist 1.00233 caps the scan bound 1.01588, the LP bracket fails
        # at the cap (exit 4), and the gap is taken against the smallest upper
        # bound, k_nyquist, not the scan bound
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import random_plant

        path, out = tmp_path / "plant.json", tmp_path / "report.json"
        path.write_text(dump_plant(random_plant(np.random.default_rng(2), "rand2")))
        code = run(["analyze", "--plant", str(path), "--class", "monotone", "--out", str(out)])
        assert code == 4
        r = json.loads(out.read_text())
        k_lower, k_nyquist = r["k_lower"]["value"], r["k_nyquist"]
        assert k_nyquist < r["k_upper_single"]["value"] and r["k_upper_lp"]["value"] == "inf"
        assert r["dual_gap_percent"] == 100.0 * (k_nyquist - k_lower) / k_lower

    def test_passive_plant_notes_trivial_regime(self, tmp_path, capsys):
        plant = tmp_path / "p.json"
        plant.write_text(json.dumps({"name": "unit", "num": [1.0], "den": [1.0]}))
        out = tmp_path / "r.json"
        code = run(["analyze", "--plant", str(plant), "--class", "monotone", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "plant            unit",
            "class            monotone",
            "k_nyquist        inf",
            "k_lower          inf  (n_z=None)",
            "k_upper_single   inf  at -",
            "k_upper_lp       inf  (beta=None)",
            "dual_gap         -",
            "note             passive regime: no finite upper bound, "
            "any slope admits the trivial multiplier",
        ]
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

    def test_runs_as_a_module_from_a_checkout(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = tmp_path / "report.json"
        done = subprocess.run(
            [sys.executable, "-m", "zflim", "analyze", "--example", "ex2", "--class", "monotone",
             "--nz", "5", "--lp-beta", "40", "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "k_lower" in done.stdout
        assert json.loads(out.read_text())["plant"] == "ex2"

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
