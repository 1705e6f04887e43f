import csv
import io
import itertools
import math
import re
import signal
from dataclasses import replace
from fractions import Fraction

import pytest

from swarmrel import analytic, cli, mc, scenario, specfun

from conftest import make_config, record_kernel_calls, write_config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    write_config(make_config(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_analyze_matches_library(capsys, config_path):
    code, out, err = run_cli(capsys, "analyze", "--config", config_path)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == cli._ANALYZE_HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    br = analytic.reliability(make_config())
    assert float(row["eta"]) == br.eta
    assert float(row["one_minus_eta"]) == 1.0 - br.eta
    assert float(row["p_head"]) == br.p_head
    assert row["in_regime"] == "1"
    assert "eta=" in err


def test_analyze_zero_bits_row(capsys, tmp_path):
    path = tmp_path / "zero.cfg"
    write_config(make_config(message_bits=0.0), path)
    code, out, _ = run_cli(capsys, "analyze", "--config", str(path))
    header, rows = parse_csv(out)
    assert code == 0
    assert dict(zip(header, rows[0]))["eta"] == "1.0"


def _analytic_cells(header, row):
    skip = ("engine", "protocol", "trials", "seed", "std_err", "in_regime")
    return {k: v for k, v in zip(header, row) if k not in skip}


def test_analyze_quadrature_route_writes_plain_floats(capsys, tmp_path):
    # at 150 bits the head probability takes the quadrature route
    path = tmp_path / "quad.cfg"
    write_config(make_config(message_bits=150.0), path)
    code, out, _ = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 0
    header, rows = parse_csv(out)
    for name, cell in _analytic_cells(header, rows[0]).items():
        assert repr(float(cell)) == cell, (name, cell)


def test_analyze_large_rician_k(capsys, tmp_path):
    path = tmp_path / "los.cfg"
    write_config(make_config(rician_k=1500.0), path)
    code, out, _ = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 0
    header, rows = parse_csv(out)
    cells = _analytic_cells(header, rows[0])
    for name in ("p_head", "p_member", "p_phase2", "eta", "one_minus_eta"):
        value = float(cells[name])
        assert math.isfinite(value) and 0.0 <= value <= 1.0, (name, value)


def test_analyze_tiny_member_argument(capsys, tmp_path):
    # one Rayleigh interferer at 50,000 bits puts the Tricomi argument near
    # 1e-149 with shape below 1, where the member probability is about 0
    path = tmp_path / "tiny.cfg"
    write_config(make_config(rician_k=0.0, m_occupied=1, message_bits=50000.0), path)
    code, out, _ = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 0
    header, rows = parse_csv(out)
    assert 0.0 <= float(_analytic_cells(header, rows[0])["p_member"]) < 1e-6


def test_analyze_without_min_separation_is_a_numerical_error(capsys, tmp_path):
    # the pair-distance density is ~ w near 0, so E[w^-alpha_d2d] is
    # infinite for every alpha_d2d >= 2 when UAVs may touch
    path = tmp_path / "touching.cfg"
    write_config(make_config(min_separation_m=0.0), path)
    code, out, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == cli.EXIT_NUMERICAL == 3
    assert out == ""
    assert "min_separation_m" in err


@pytest.mark.parametrize("name, bits, failing", [
    ("head", 150.0, "adaptive_quad"),  # at 150 bits the head takes the quadrature route
    ("member", 40.0, "log_tricomi_u_scaled"),
])
def test_closed_form_failure_names_its_probability(capsys, tmp_path, monkeypatch, name, bits,
                                                   failing):
    def fail(*args, **kwargs):
        raise specfun.QuadratureError("trapezoid estimates did not settle")

    monkeypatch.setattr(specfun, failing, fail)
    path = tmp_path / "scenario.cfg"
    write_config(make_config(message_bits=bits), path)
    code, out, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == cli.EXIT_NUMERICAL
    assert f"{name} decode probability" in err and "fitted shapes" in err
    assert "did not settle" in err and out == ""


def test_analyze_flags_out_of_regime(capsys, tmp_path):
    # an oversized message leaves fewer than one expected decoder
    path = tmp_path / "big.cfg"
    write_config(make_config(message_bits=500.0), path)
    code, out, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 0
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["in_regime"] == "0"
    assert "out of its regime" in err


def test_analyze_single_uav_is_in_regime(capsys, tmp_path):
    path = tmp_path / "one.cfg"
    write_config(make_config(n_uavs=1, message_bits=150.0), path)
    code, out, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["in_regime"] == "1" and row["eta"] == row["p_head"]
    assert "out of its regime" not in err


@pytest.mark.parametrize("overrides", [dict(n_uavs=1, min_separation_m=0.0),
                                       dict(m_occupied=0, min_separation_m=0.0)])
def test_analyze_leaves_p_phase2_empty_without_a_relay_stage(capsys, tmp_path, overrides):
    # no UAV is left to hear a relay, so the touching UAVs' D2D fit is never formed
    path = tmp_path / "no-relay.cfg"
    write_config(make_config(**overrides), path)
    code, out, _ = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 0
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["p_phase2"] == ""


@pytest.mark.parametrize("argv", [["simulate"], ["simulate", "--protocol", "multi_round",
                                                 "--rounds", "2"], ["compare"],
                                  ["sweep", "--var", "message_bits", "--values", "8,40"]])
def test_one_trial_rows_leave_std_err_empty(capsys, config_path, argv):
    # one trial has no standard error: its cell is empty, as an analytic
    # row's, and every other numeric cell is a plain finite float
    code, out, _ = run_cli(capsys, *argv, "--config", config_path, "--trials", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert rows and all(dict(zip(header, row))["std_err"] == "" for row in rows)
    for row in rows:
        cells = dict(zip(header, row))
        for name in ("eta", "one_minus_eta"):
            assert math.isfinite(float(cells[name])) and repr(float(cells[name])) == cells[name]


def test_simulate_matches_library(capsys, config_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--config", config_path, "--trials", "60", "--seed", "99"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == cli._EST_HEADER
    row = dict(zip(header, rows[0]))
    est = mc.estimate(make_config(), mc.PROPOSED, 60, 99)[-1]
    assert float(row["eta"]) == est.eta_mean
    assert float(row["std_err"]) == est.std_err
    assert row["trials"] == "60" and row["seed"] == "99"


def test_simulate_deterministic_rerun(capsys, config_path):
    _, out1, _ = run_cli(capsys, "simulate", "--config", config_path, "--trials", "40", "--seed", "5")
    _, out2, _ = run_cli(capsys, "simulate", "--config", config_path, "--trials", "40", "--seed", "5")
    assert out1 == out2


def test_seed_env_fallback(capsys, config_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "4242")
    _, out, _ = run_cli(capsys, "simulate", "--config", config_path, "--trials", "20")
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["seed"] == "4242"
    # explicit flag wins over the environment
    _, out, _ = run_cli(
        capsys, "simulate", "--config", config_path, "--trials", "20", "--seed", "7"
    )
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["seed"] == "7"


@pytest.mark.parametrize("env", ["abc", "-1", "18446744073709551616"])
def test_bad_seed_env_exit_code(capsys, config_path, monkeypatch, env):
    monkeypatch.setenv(cli.SEED_ENV_VAR, env)
    code, out, err = run_cli(capsys, "analyze", "--config", config_path)
    assert code == cli.EXIT_CONFIG
    assert cli.SEED_ENV_VAR in err and out == ""


def test_main_builds_the_parser_once(capsys, config_path):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "analyze", "--config", config_path)[0] == 0
    assert cli.build_parser.cache_info().misses == 1


def test_compare_emits_four_rows_with_shared_seed(capsys, config_path):
    code, out, _ = run_cli(
        capsys, "compare", "--config", config_path, "--trials", "30", "--seed", "3"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["proposed", "nearest_gbs", "all_gbs", "head_relay"]
    assert {r[3] for r in rows} == {"3"}


def test_sweep_both_engines(capsys, config_path):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--config", config_path,
        "--var", "message_bits",
        "--values", "8,40",
        "--engine", "both",
        "--trials", "30",
        "--seed", "11",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == cli._SWEEP_HEADER
    assert len(rows) == 4  # 2 values x 2 engines, in input order
    assert [r[0] for r in rows] == ["message_bits"] * 4
    assert [r[2] for r in rows] == ["analytic", "mc", "analytic", "mc"]
    for r in rows:
        assert float(r[6]) + float(r[7]) == pytest.approx(1.0, abs=1e-15)


def test_sweep_range_form(capsys, config_path):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--config", config_path,
        "--var", "swarm_altitude_m",
        "--start", "300", "--stop", "650", "--step", "175",
        "--engine", "analytic",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["300.0", "475.0", "650.0"]


def test_sweep_rounds_requires_multiround(capsys, config_path):
    code, _, err = run_cli(
        capsys, "sweep", "--config", config_path, "--var", "rounds", "--values", "1,2",
        "--engine", "mc", "--trials", "10",
    )
    assert code == cli.EXIT_CONFIG
    assert "multi_round" in err


def test_sweep_over_rounds_refuses_zero_rounds(capsys, config_path):
    # each round count forms its multi_round protocol, which takes rounds >= 1
    code, out, err = run_cli(capsys, "sweep", "--config", config_path, "--var", "rounds",
                             "--values", "0,1", "--protocol", "multi_round", "--engine", "mc",
                             "--trials", "10")
    assert code == cli.EXIT_CONFIG and out == ""
    assert "rounds: multi_round requires rounds >= 1" in err


@pytest.mark.parametrize("protocol", [["--engine", "both", "--protocol", "all_gbs"],
                                      ["--engine", "analytic", "--protocol", "multi_round",
                                       "--rounds", "2"]], ids=["both-all_gbs", "analytic-multi"])
def test_analytic_sweep_refuses_other_protocols(capsys, config_path, protocol):
    code, out, err = run_cli(capsys, "sweep", "--config", config_path, "--var", "message_bits",
                             "--values", "40", "--trials", "10", *protocol)
    assert code == cli.EXIT_CONFIG
    assert "the analytic engine models the proposed two-phase protocol only" in err
    assert out == "" and "eta=" not in err


@pytest.mark.parametrize("option, value, message", [
    ("--seed", "18446744073709551616", "seed must be in [0, 2^64)"),
    ("--trials", "0", "must be >= 1, got 0"),
])
def test_out_of_range_option_is_an_argparse_error(capsys, config_path, option, value, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--config", config_path, option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and option in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, option", [
    (("simulate", "--protocol", "head_relay", "--rounds", "4"), "--rounds"),
    (("simulate", "--no-head"), "--no-head"),
    (("sweep", "--var", "message_bits", "--values", "40", "--engine", "mc",
      "--protocol", "all_gbs", "--rounds", "2"), "--rounds"),
    (("sweep", "--var", "message_bits", "--values", "40", "--engine", "mc", "--no-head"),
     "--no-head"),
    (("sweep", "--var", "rounds", "--values", "1,2", "--engine", "mc",
      "--protocol", "multi_round", "--rounds", "9"), "--rounds"),
], ids=["simulate-rounds", "simulate-no-head", "sweep-rounds", "sweep-no-head",
        "sweep-var-rounds"])
def test_an_option_the_protocol_would_drop_is_refused(capsys, config_path, argv, option):
    # each of these was dropped without a word: its row was the one without it
    code, out, err = run_cli(capsys, *argv, "--config", config_path, "--trials", "5")
    assert code == cli.EXIT_CONFIG
    assert f"config error: {option}:" in err and out == "" and "eta=" not in err


def test_multi_round_defaults_to_one_round(capsys, config_path):
    common = ("--config", config_path, "--protocol", "multi_round", "--trials", "5")
    default = run_cli(capsys, "simulate", *common)
    assert default[0] == 0 and parse_csv(default[1])[1][0][1] == "multi_round1"
    assert run_cli(capsys, "simulate", *common, "--rounds", "1") == default


def test_sweep_rounds_with_multiround(capsys, config_path):
    code, out, _ = run_cli(
        capsys, "sweep", "--config", config_path, "--var", "rounds", "--values", "1,2",
        "--engine", "mc", "--protocol", "multi_round", "--trials", "20", "--seed", "2",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[3] for r in rows] == ["multi_round1", "multi_round2"]
    assert float(rows[0][6]) <= float(rows[1][6]) + 1e-12


def test_sweep_rounds_runs_the_trials_once(capsys, config_path, monkeypatch):
    # every value is read off one run at the largest, not one run per value:
    # 64 trials are one pass over 16 chunks of 4, in two kernel calls of
    # eight chunks at N=40
    calls = []
    record_kernel_calls(monkeypatch, calls)
    code, out, _ = run_cli(
        capsys, "sweep", "--config", config_path, "--var", "rounds", "--values", "1,2,3",
        "--engine", "mc", "--protocol", "multi_round", "--trials", "64", "--workers", "1",
    )
    assert code == 0
    assert len(parse_csv(out)[1]) == 3
    assert [(max(p.rounds for p, _, _ in curves), sizes) for _, curves, sizes in calls] == [
        (3, [4] * 8), (3, [4] * 8)]


@pytest.mark.parametrize("no_head", [(), ("--no-head",)])
def test_sweep_rounds_rows_equal_simulate(capsys, tmp_path, no_head):
    path = tmp_path / "small.cfg"
    write_config(make_config(n_uavs=10, message_bits=150.0), path)
    common = ("--config", str(path), "--protocol", "multi_round", *no_head,
              "--trials", "40", "--seed", "13")
    code, out, _ = run_cli(capsys, "sweep", *common, "--var", "rounds",
                           "--values", "3,1,3,2", "--engine", "mc")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[:2] for r in rows] == [["rounds", v] for v in ("3", "1", "3", "2")]
    for row in rows:
        code, out, _ = run_cli(capsys, "simulate", *common, "--rounds", row[1])
        assert code == 0
        assert row[2:] == parse_csv(out)[1][0]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("var, values, protocol, overrides", [
    ("message_bits", "8,40,24", ("--protocol", "proposed"), {}),
    ("tau_phase1_s", "0.0002,0.0006", ("--protocol", "head_relay"), {}),
    ("message_bits", "150,100", ("--protocol", "multi_round", "--rounds", "2"),
     {"n_uavs": 10}),
], ids=["message_bits", "tau_phase1_s", "multi_round2"])
def test_threshold_sweep_rows_equal_simulate(capsys, tmp_path, workers, var, values, protocol,
                                             overrides):
    # the rows share one draw per chunk, yet each is its own simulate run
    path = tmp_path / "sweep.cfg"
    write_config(make_config(**overrides), path)
    common = ("--trials", "40", "--seed", "17", "--workers", workers, *protocol)
    code, out, _ = run_cli(capsys, "sweep", "--config", str(path), *common, "--var", var,
                           "--values", values, "--engine", "mc")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[:2] for r in rows] == [[var, repr(float(v))] for v in values.split(",")]
    for row in rows:
        point = tmp_path / f"{var}-{row[1]}.cfg"
        write_config(make_config(**overrides, **{var: float(row[1])}), point)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(point), *common)
        assert code == 0
        assert row[2:] == parse_csv(out)[1][0]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_compare_rows_equal_simulate(capsys, config_path, workers):
    common = ("--config", config_path, "--trials", "40", "--seed", "19", "--workers", workers)
    code, out, _ = run_cli(capsys, "compare", *common)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == list(mc.PROTOCOLS)
    for row in rows:
        code, out, _ = run_cli(capsys, "simulate", *common, "--protocol", row[1])
        assert code == 0
        assert row == parse_csv(out)[1][0]


def test_threshold_sweep_runs_the_trials_once(capsys, config_path, monkeypatch):
    # all five rows share each chunk's draw: 64 trials are one pass over 16
    # chunks of 4, in two kernel calls of eight chunks at N=40, not one pass
    # per row
    calls = []
    record_kernel_calls(monkeypatch, calls)
    code, out, _ = run_cli(
        capsys, "sweep", "--config", config_path, "--var", "message_bits",
        "--values", "8,16,24,32,40", "--engine", "both", "--trials", "64", "--workers", "1",
    )
    assert code == 0
    assert len(parse_csv(out)[1]) == 10
    assert [(len(curves), sizes) for _, curves, sizes in calls] == [(5, [4] * 8), (5, [4] * 8)]


def test_threshold_sweep_bad_value_fails_before_any_row(capsys, config_path):
    code, out, err = run_cli(
        capsys, "sweep", "--config", config_path, "--var", "message_bits",
        "--values", "8,102374", "--engine", "mc", "--trials", "10",
    )
    assert code == cli.EXIT_CONFIG
    assert "overflow" in err
    assert out == "" and "eta=" not in err


def test_sweep_rounds_bad_value_fails_before_any_row(capsys, config_path):
    code, out, err = run_cli(
        capsys, "sweep", "--config", config_path, "--var", "rounds", "--values", "2,-1",
        "--engine", "mc", "--protocol", "multi_round", "--trials", "10",
    )
    assert code == cli.EXIT_CONFIG
    assert "rounds:" in err
    assert out == "" and "eta=" not in err


def test_optimize_tau_flat_grid_tie_break(capsys, tmp_path):
    # zero-size message: eta = 1 on the whole grid, smallest split wins
    path = tmp_path / "flat.cfg"
    write_config(make_config(message_bits=0.0), path)
    code, out, err = run_cli(
        capsys,
        "optimize-tau",
        "--config", str(path),
        "--start", "0.0002", "--stop", "0.0008", "--step", "0.0002",
        "--engine", "analytic",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == cli._OPT_HEADER
    best = [r for r in rows if r[-1] == "1"]
    assert len(best) == 1
    assert float(best[0][1]) == pytest.approx(0.0002)


def test_optimize_tau_grid_must_be_interior(capsys, config_path):
    code, _, err = run_cli(
        capsys, "optimize-tau", "--config", config_path,
        "--start", "0.0", "--stop", "0.0008", "--step", "0.0002",
        "--engine", "analytic",
    )
    assert code == cli.EXIT_CONFIG
    assert "tau_phase1_s: must satisfy 0 < tau_phase1_s < tau_total_s, got 0.0" in err


def test_range_grid_points_are_formed_once_from_the_decimals_given(capsys, config_path):
    # point i is start + i step in decimal, rounded once: repeated float
    # addition once gave 0.00030000000000000003, 0.0006000000000000001 and
    # 0.0009000000000000002, and their closed-form rows
    code, out, _ = run_cli(capsys, "optimize-tau", "--config", config_path,
                           "--start", "0.0001", "--stop", "0.0009", "--step", "0.0001")
    assert code == 0
    _, rows = parse_csv(out)
    values = [f"0.000{i}" for i in range(1, 10)]
    assert [r[1] for r in rows] == values
    config = make_config()
    assert [r[6] for r in rows] == [
        repr(analytic.reliability(replace(config, tau_phase1_s=float(v))).eta) for v in values]


@pytest.mark.parametrize("var, grid, option", [
    ("n_uavs", ("10", "12", "0.5"), "step"),
    ("m_available", ("1.6", "4", "1"), "start"),
])
def test_integer_grid_refuses_a_fractional_start_or_step(capsys, config_path, var, grid,
                                                         option):
    # rounding each point once repeated rows (10, 10, 11, 12, 12) or shifted
    # the grid (1.6 began at 2)
    start, stop, step = grid
    code, out, err = run_cli(capsys, "sweep", "--config", config_path, "--var", var,
                             "--start", start, "--stop", stop, "--step", step,
                             "--engine", "analytic")
    assert code == cli.EXIT_CONFIG and out == ""
    assert f"{option}: must be a whole number for {var}" in err


def test_integer_grid_ends_at_its_last_point_not_past_stop(capsys, config_path):
    code, out, _ = run_cli(capsys, "sweep", "--config", config_path, "--var", "n_uavs",
                           "--start", "10", "--stop", "12.5", "--step", "1",
                           "--engine", "analytic")
    assert code == 0
    assert [r[1] for r in parse_csv(out)[1]] == ["10", "11", "12"]


class _Unfinished(Exception):
    pass


def test_a_step_below_the_float_spacing_is_refused_at_once(capsys, config_path):
    # adding 1e-30 to 0.0001 leaves it unchanged, so the grid once grew
    # without end, and a step of 1e-15 (8e11 points) or an n_uavs grid of
    # 1e12 points was formed point by point before any row; an alarm ends a
    # command that has not returned in a second
    def unfinished(signum, frame):
        raise _Unfinished("the grid did not return within a second")

    tau = ("optimize-tau", "--config", config_path, "--start", "0.0001", "--stop", "0.0009")
    cases = [((*tau, "--step", "1e-30"), "step: 1e-30 is below the float spacing of the grid"),
             ((*tau, "--step", "1e-15"), "step: 1e-15 gives 800000000001 grid points, "
                                         "more than 1,000,000"),
             (("sweep", "--config", config_path, "--engine", "analytic", "--var", "n_uavs",
               "--start", "1", "--stop", "1e12", "--step", "1"),
              "step: 1.0 gives 1000000000000 grid points, more than 1,000,000")]
    previous = signal.signal(signal.SIGALRM, unfinished)
    try:
        for argv, message in cases:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                code, out, err = run_cli(capsys, *argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            assert code == cli.EXIT_CONFIG and out == ""
            assert message in err
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_a_range_grid_of_the_most_points_is_formed(monkeypatch):
    # the bound refuses a grid past it, not one at it
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 17)
    args = cli.build_parser().parse_args(["optimize-tau", "--config", "-", "--start", "0.0001",
                                          "--stop", "0.0017", "--step", "0.0001"])
    assert len(cli._parse_values(args)) == 17
    args.stop = 0.0018
    with pytest.raises(scenario.ConfigError, match="step: 0.0001 gives 18 grid points, more "
                                                   "than 17"):
        cli._parse_values(args)


@pytest.mark.parametrize("argv, kind", [
    (("optimize-tau", "--start", "0.0001", "--stop", "0.0001999999", "--step", "1e-10"), float),
    (("sweep", "--var", "n_uavs", "--start", "1", "--stop", "1000000", "--step", "1"), int),
], ids=["tau", "n_uavs"])
def test_a_grid_at_the_point_bound_is_formed_within_seconds(argv, kind):
    # a million points, each once formed as a Fraction (about 4 s in all),
    # within a 3 s alarm, and every 997th point with the bits of that form
    def unfinished(signum, frame):
        raise _Unfinished("the grid was not formed within 3 s")

    args = cli.build_parser().parse_args([*argv, "--config", "-"])
    previous = signal.signal(signal.SIGALRM, unfinished)
    try:
        signal.setitimer(signal.ITIMER_REAL, 3.0)
        try:
            values = cli._parse_values(args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert len(values) == cli.MAX_GRID_POINTS
    start, step = Fraction(argv[argv.index("--start") + 1]), Fraction(argv[argv.index("--step") + 1])
    for i in [*range(0, len(values), 997), len(values) - 1]:
        want = kind(start + i * step)
        assert type(values[i]) is kind and values[i] == want, (i, values[i], want)


@pytest.mark.parametrize("protocol", [*mc.PROTOCOLS.values(), mc.multi_round(2),
                                      mc.multi_round(2, with_head=False)],
                         ids=lambda p: p.label)
def test_each_protocol_s_thresholds_are_its_slot_s_stage_thresholds(protocol):
    # the split slot for proposed and head_relay, the whole slot else, and no
    # D2D threshold without relay rounds
    config = make_config()
    whole_slot = protocol.name in ("nearest_gbs", "all_gbs", "multi_round")
    cell, d2d = scenario.stage_thresholds(config, whole_slot=whole_slot)
    assert mc._thresholds(config, protocol) == (cell, d2d if protocol.rounds else None)


@pytest.mark.parametrize("protocol, code", [("all_gbs", 0), ("proposed", cli.EXIT_CONFIG)])
def test_a_d2d_threshold_is_formed_only_for_relay_rounds(capsys, tmp_path, protocol, code):
    # a D2D rate cap that overflows the threshold fails only a protocol that relays
    path = tmp_path / "narrow-d2d.cfg"
    write_config(make_config(bandwidth_d2d_hz=0.001), path)
    got, _, err = run_cli(capsys, "simulate", "--config", str(path), "--protocol", protocol,
                          "--trials", "10")
    assert got == code, err
    assert ("overflow" in err) == (code != 0)


@pytest.mark.parametrize("size", [["--trials", "1000000000000000"],
                                  ["--protocol", "multi_round", "--rounds", "1000000000000000",
                                   "--trials", "10"]], ids=["trials", "rounds"])
def test_oversized_run_is_a_config_error(capsys, config_path, size):
    # 10^15 trials, or relay rounds, ask for petabytes: no machine holds the
    # arrays, so the allocation fails at once and the run ends cleanly
    code, out, err = run_cli(capsys, "simulate", "--config", config_path, *size)
    assert code == cli.EXIT_CONFIG
    assert "--trials" in err and "--rounds" in err and "memory" in err
    assert out == "" and "Traceback" not in err


def test_dist_k_sums_to_one(capsys, config_path):
    code, out, _ = run_cli(
        capsys, "dist-k", "--config", config_path, "--trials", "40", "--seed", "6"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == cli._DIST_HEADER
    assert len(rows) == 41
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-12)
    assert {r[2] for r in rows} == {"40"} and {r[3] for r in rows} == {"6"}


def test_dist_k_zero_bits_point_mass(capsys, tmp_path):
    path = tmp_path / "zero.cfg"
    write_config(make_config(message_bits=0.0), path)
    _, out, _ = run_cli(capsys, "dist-k", "--config", str(path), "--trials", "10")
    _, rows = parse_csv(out)
    assert float(rows[40][1]) == 1.0


def test_config_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    write_config(make_config(), path)
    text = path.read_text().replace("tau_phase1_s = 0.0005", "tau_phase1_s = 0.001")
    path.write_text(text)
    code, _, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == cli.EXIT_CONFIG
    assert "tau_phase1_s" in err


def test_non_finite_config_exit_code(capsys, tmp_path):
    for argv, field, value in (
        (["simulate", "--trials", "5"], "message_bits", "nan"),
        (["analyze"], "tau_total_s", "inf"),
        (["analyze"], "tx_power_gbs_dbm", "5000"),
    ):
        path = tmp_path / f"{field}.cfg"
        write_config(make_config(), path)
        text = re.sub(rf"^{field} = .*$", f"{field} = {value}", path.read_text(), flags=re.M)
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == cli.EXIT_CONFIG, (field, err)
        assert field in err and out == ""


# an overflow on the way to a number is a fault even when the number is right
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field, value", [
    ("swarm_radius_m", "1e300"),
    ("coverage_radius_m", "1e308"),
    ("swarm_altitude_m", "1e-300"),
    ("rician_k", "1e200"),
    ("swarm_altitude_m", "1e300"),
    ("coverage_radius_m", "1e-300"),
])
def test_extreme_finite_config_gives_probabilities_or_a_named_error(capsys, tmp_path, field,
                                                                     value):
    # finite values whose squares leave the float range
    path = tmp_path / f"{field}.cfg"
    write_config(make_config(), path)
    path.write_text(re.sub(rf"^{field} = .*$", f"{field} = {value}", path.read_text(),
                           flags=re.M))
    # every protocol and the multi-round draws, on chunks of several trials
    rounds = ["sweep", "--var", "rounds", "--values", "1,2", "--protocol", "multi_round",
              "--engine", "mc", "--trials", "40"]
    for argv, cells in ((["analyze"], ("p_head", "p_member", "p_phase2", "eta")),
                        (["simulate", "--trials", "5"], ("eta", "one_minus_eta")),
                        (["compare", "--trials", "40"], ("eta", "one_minus_eta")),
                        # control-variate rows, whose layout features may not be finite
                        (["compare", "--trials", str(mc.CONTROL_MIN_TRIALS)],
                         ("eta", "one_minus_eta", "std_err")),
                        (rounds, ("eta", "one_minus_eta"))):
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        if code == 0:
            header, rows = parse_csv(out)
            for row, name in itertools.product(rows, cells):
                cell = dict(zip(header, row))[name]
                assert repr(float(cell)) == cell and 0.0 <= float(cell) <= 1.0, (name, cell)
        else:
            assert code in (cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), err
            assert out == "" and "error: " in err


@pytest.mark.parametrize("bits", [102374.0, 102400.0])
def test_threshold_past_float_range_exit_code(capsys, tmp_path, bits):
    # a finite rate whose decode threshold (2^x - 1)/gap is not finite
    path = tmp_path / "overflow.cfg"
    write_config(make_config(message_bits=bits), path)
    for argv in (["analyze"], ["simulate", "--trials", "5"], ["dist-k", "--trials", "5"]):
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == cli.EXIT_CONFIG, (argv, err)
        assert "overflow" in err and out == ""


def test_zero_stage_capacity_exit_code(capsys, tmp_path):
    # cellular bandwidth times stage duration underflows to 0: a validated
    # config whose decode threshold does not exist
    path = tmp_path / "zero-capacity.cfg"
    write_config(make_config(bandwidth_cell_hz=1e-200, tau_total_s=1e-199,
                             tau_phase1_s=5e-200), path)
    for argv in (["analyze"], ["simulate", "--trials", "5"],
                 ["sweep", "--var", "message_bits", "--values", "8,40", "--engine", "mc",
                  "--trials", "5"]):
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == cli.EXIT_CONFIG, (argv, err)
        assert "overflow" in err and out == ""


def test_unparseable_sweep_values_exit_code(capsys, config_path):
    for var, values in (("n_uavs", "10.5"), ("message_bits", "abc")):
        code, _, err = run_cli(capsys, "sweep", "--config", config_path, "--var", var,
                               "--values", values, "--engine", "analytic")
        assert code == cli.EXIT_CONFIG, err
        assert "values" in err and var in err
    # no values at all, an incomplete range, a step that never advances and
    # a range whose start lies past its stop
    for grid, message in ((["--values", ","], "values: must be non-empty"),
                          (["--start", "1", "--stop", "2"],
                           "values: give either --values or all of --start/--stop/--step"),
                          (["--start", "1", "--stop", "2", "--step", "0"],
                           "step: must be > 0, got 0.0"),
                          (["--start", "2", "--stop", "1", "--step", "1"], "values: empty grid")):
        code, out, err = run_cli(capsys, "sweep", "--config", config_path,
                                 "--var", "message_bits", "--engine", "analytic", *grid)
        assert code == cli.EXIT_CONFIG, (grid, err)
        assert message in err and out == "", (grid, err)
    code, _, err = run_cli(capsys, "optimize-tau", "--config", config_path,
                           "--start", "0.0001", "--stop", "inf", "--step", "0.0001")
    assert code == cli.EXIT_CONFIG
    assert "must be finite" in err


def test_missing_config_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--config", "/nonexistent/x.cfg")
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("case", ["out is a directory", "config is a directory",
                                  "config is not UTF-8"])
def test_unusable_path_exit_code(capsys, tmp_path, config_path, case):
    # a path that cannot be written or read as text is a configuration
    # error naming that path, not a traceback
    argv = ["analyze", "--config", config_path]
    if case == "out is a directory":
        named = str(tmp_path)
        argv += ["--out", named]
    elif case == "config is a directory":
        named = argv[2] = str(tmp_path)
    else:
        named = argv[2] = str(tmp_path / "latin-1.cfg")
        with open(config_path, "rb") as fh:
            text = fh.read()
        with open(named, "wb") as fh:
            fh.write("# scénario\n".encode("latin-1") + text)
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert named in err
    assert "Traceback" not in err and out == ""


def test_placement_failure_exit_code(capsys, tmp_path):
    # just inside the packing bound but beyond what dart throwing can place
    path = tmp_path / "dense.cfg"
    write_config(
        make_config(n_uavs=16, swarm_radius_m=10.0, min_separation_m=5.0), path
    )
    # one chunk of one trial, and chunks of several trials in pool workers
    for trials, workers in (("1", "1"), ("48", "2")):
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(path), "--trials", trials, "--seed", "1",
            "--workers", workers,
        )
        assert code == cli.EXIT_NUMERICAL
        assert "place" in err
        assert re.search(r"the best layout placed \d+;", err)
        assert "area coverage n*(d_min/2)^2/radius^2 = 100.0%" in err
        assert "54.7%" in err


def test_out_file_written(capsys, config_path, tmp_path):
    out_path = tmp_path / "result.csv"
    code, out, _ = run_cli(
        capsys, "analyze", "--config", config_path, "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    header, rows = parse_csv(out_path.read_text())
    assert header == cli._ANALYZE_HEADER and len(rows) == 1
