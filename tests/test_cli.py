import csv
import io
import math
import re

import pytest

from swarmrel import analytic, cli, mc

from conftest import make_config, write_config


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


def test_analyze_flags_out_of_regime(capsys, tmp_path):
    # an oversized message leaves fewer than one expected decoder
    path = tmp_path / "big.cfg"
    write_config(make_config(message_bits=500.0), path)
    code, out, err = run_cli(capsys, "analyze", "--config", str(path))
    assert code == 0
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["in_regime"] == "0"
    assert "out of its regime" in err


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
    # every value is read off one run at the largest, not one run per value
    calls = []
    run_trial = mc.run_trial
    monkeypatch.setattr(mc, "run_trial", lambda *a: calls.append(1) or run_trial(*a))
    code, out, _ = run_cli(
        capsys, "sweep", "--config", config_path, "--var", "rounds", "--values", "1,2,3",
        "--engine", "mc", "--protocol", "multi_round", "--trials", "12", "--workers", "1",
    )
    assert code == 0
    assert len(parse_csv(out)[1]) == 3
    assert len(calls) == 12


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
    assert "strictly inside" in err


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
    for argv, cells in ((["analyze"], ("p_head", "p_member", "p_phase2", "eta")),
                        (["simulate", "--trials", "5"], ("eta", "one_minus_eta"))):
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        if code == 0:
            header, rows = parse_csv(out)
            for name in cells:
                cell = dict(zip(header, rows[0]))[name]
                assert repr(float(cell)) == cell and 0.0 <= float(cell) <= 1.0, (name, cell)
        else:
            assert code in (cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), err
            assert out == "" and "error: " in err


def test_unparseable_sweep_values_exit_code(capsys, config_path):
    for var, values in (("n_uavs", "10.5"), ("message_bits", "abc")):
        code, _, err = run_cli(capsys, "sweep", "--config", config_path, "--var", var,
                               "--values", values, "--engine", "analytic")
        assert code == cli.EXIT_CONFIG, err
        assert "values" in err and var in err
    code, _, err = run_cli(capsys, "optimize-tau", "--config", config_path,
                           "--start", "0.0001", "--stop", "inf", "--step", "0.0001")
    assert code == cli.EXIT_CONFIG
    assert "must be finite" in err


def test_missing_config_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--config", "/nonexistent/x.cfg")
    assert code == cli.EXIT_CONFIG


def test_placement_failure_exit_code(capsys, tmp_path):
    # just inside the packing bound but beyond what dart throwing can place
    path = tmp_path / "dense.cfg"
    write_config(
        make_config(n_uavs=16, swarm_radius_m=10.0, min_separation_m=5.0), path
    )
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(path), "--trials", "1", "--seed", "1"
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
