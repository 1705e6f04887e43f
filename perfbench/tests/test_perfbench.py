"""Tests of the benchmark's own arithmetic, checks and patching.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from phase import Outcome, Pass  # noqa: E402
from workloads import REFERENCE, Command  # noqa: E402

from swarmrel import analytic, cli, fading, geometry, mc, specfun  # noqa: E402


def test_self_time_of_synthetic_nested_call():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    recorded = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["d", 5.0, 9.0, 0, 0, None],
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]


def test_live_spans_link_parents():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert all(s >= 0 for s in spans.self_times(tracer.spans))


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = spans.tail(list(range(100)))
    assert (value, n) == (89, 100)
    assert pct == pytest.approx(90.0)
    assert spans.tail(list(range(10)))[0] is None


def test_block_tail_is_median_of_block_tails():
    values = list(range(100)) + list(range(1000, 1100)) + list(range(100))
    assert spans.block_tail(values) == (89, pytest.approx(90.0), 100)
    assert spans.block_tail(list(range(20)))[:2] == (9, pytest.approx(50.0))


def _outcome(argv, seconds, text, trials=0, points=0):
    command = Command(tuple(argv), trials=trials, points=points)
    return Outcome(command, seconds, 0, text, checks.check("", 0, text))


def test_time_to_se_on_hand_computed_example():
    # 1000 MC trials in 2 s is 500 trials/s.  Rows at se 2e-3 and 1e-3 need
    # 1000 * 2^2 + 1000 * 1^2 = 5000 trials to reach se 1e-3, which is 10 s;
    # the exact analytic command adds its own 0.5 s.
    mc_csv = ("engine,protocol,trials,seed,eta,one_minus_eta,std_err\n"
              "mc,proposed,1000,1,0.9,0.1,0.002\n"
              "mc,all_gbs,1000,1,0.8,0.2,0.001\n")
    analytic_csv = ("variable,value,engine,protocol,trials,seed,eta,one_minus_eta,std_err\n"
                    "message_bits,8,analytic,proposed,,1,0.99,0.01,\n")
    # ten instant commands give the latency tail the samples it needs
    instant = [_outcome(["analyze"], 0.0, analytic_csv, points=1) for _ in range(10)]
    passes = [Pass(2.5, [_outcome(["compare"], 2.0, mc_csv, trials=1000),
                         _outcome(["analyze"], 0.5, analytic_csv, points=1), *instant])]
    values, _ = run.end_to_end(passes, 0.2)
    assert values["trials_per_s"] == pytest.approx(500.0)
    assert values["time_to_se_s"] == pytest.approx(10.5)
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["wall_s"] == pytest.approx(2.5)


def test_csv_check_rejects_numpy_scalar_repr():
    assert checks.plain_float("0.5")
    assert not checks.plain_float("np.float64(0.5)")
    assert not checks.plain_float("nan")
    assert not checks.plain_float("1_0")
    header = "engine,protocol,trials,seed,eta,one_minus_eta,std_err\n"
    good = checks.check("", 0, header + "analytic,proposed,,1,0.5,0.5,\n")
    assert not good.failed
    bad = checks.check("", 0, header + "analytic,proposed,,1,np.float64(0.5),0.5,\n")
    assert bad.failed and bad.format_errors and not bad.value_errors


def test_value_checks():
    header = "variable,value,engine,protocol,trials,seed,eta,one_minus_eta,std_err\n"
    far = header + ("message_bits,8,analytic,proposed,,1,0.99,0.01,\n"
                    "message_bits,8,mc,proposed,100,1,0.95,0.05,0.01\n")
    assert checks.check("engines", 0, far).value_errors
    falling = header + ("rounds,1,mc,multi_round1,100,1,0.9,0.1,0.01\n"
                        "rounds,2,mc,multi_round2,100,1,0.8,0.2,0.01\n")
    assert checks.check("rounds", 0, falling).value_errors
    pmf = "k,probability,trials,seed\n0,0.25,4,1\n1,0.5,4,1\n"
    assert checks.check("pmf", 0, pmf).value_errors
    assert checks.check("", 3, "").failed


def test_module_attributes_restored_after_traced_run():
    modules = {"cli": cli, "mc": mc, "geometry": geometry, "fading": fading,
               "analytic": analytic, "specfun": specfun}
    names = spans.TRACED + spans.COUNTED
    before = {(m, a): getattr(modules[m], a) for m, a in names}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patch():
            assert cli.main is not before[("cli", "main")]
            assert cli.main(["analyze", "--config", str(REFERENCE)]) == 0
            raise RuntimeError("leave the block early")
    assert all(getattr(modules[m], a) is before[(m, a)] for m, a in names)
    recorded = {s[0] for s in tracer.spans}
    assert {"cli.main", "analytic.reliability", "analytic.head_decode_prob"} <= recorded


def test_pass_count_depends_on_arguments_alone():
    from phase import MIN_OPS, MIN_PASSES, cpu_groups, passes_for
    from workloads import WORKLOADS

    groups = len(cpu_groups(1))
    # whole rounds over the CPUs, enough operations per CPU for a tail
    assert passes_for("mc-reference", 0.1) == groups * max(MIN_PASSES, -(-MIN_OPS // 2))
    assert passes_for("analytic-grid", 0.1) == groups * MIN_PASSES
    per_round = groups * WORKLOADS["analytic-grid"].pass_seconds
    assert passes_for("analytic-grid", 100 * per_round) == 100 * groups
