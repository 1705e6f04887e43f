"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single summary line so a plain ``pytest -s`` run reads as
a checklist.  Monte Carlo criteria run at desk scale (at most 2e4 trials)
with fixed seeds, so every verdict is reproducible bit for bit.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from swarmrel import analytic, geometry, mc, scenario, specfun

from conftest import make_config, run_kernel

WORKERS = 2


def _report(criterion, message):
    print(f"[criterion {criterion}] {message} -> PASS")


# --- 1. special functions vs independent oracles --------------------------------


def test_criterion_1_special_function_oracles():
    t0 = time.time()
    mp.mp.dps = 30
    rng = np.random.default_rng(101)

    worst = {}
    for _ in range(40):
        a = rng.uniform(0.3, 40.0)
        z = rng.uniform(0.0, 80.0)
        got = specfun.regularized_gamma(a, math.log(z))
        ref = float(special.gammainc(a, z))
        worst["gamma"] = max(worst.get("gamma", 0.0), abs(got - ref))
        assert got == pytest.approx(ref, abs=1e-12)

    # kappa = 30 is the seam of laguerre_half: the power-series loop of the
    # Bessel form below, the asymptotic series from 30 up
    for kappa in np.concatenate([np.linspace(0.0, 120.0, 49), [29.8, 30.2]]):
        got = specfun.laguerre_half(-float(kappa))
        ref = float(mp.laguerre(0.5, 0, -float(kappa)))
        worst["laguerre"] = max(worst.get("laguerre", 0.0), abs(got - ref) / abs(ref))
        assert got == pytest.approx(ref, rel=1e-10)

    # alternating series below z ~ -10 sit above the float64 cancellation
    # floor, so the oracle grid stays inside the advertised accuracy domain
    for _ in range(25):
        a = rng.uniform(-2.0, 4.0)
        b = rng.uniform(0.5, 5.0)
        z = rng.uniform(-10.0, 15.0)
        # 1F1(a; b; z) as 2F2(a, 1; b, 1; z)
        got = specfun.hyp2f2_with_scale(a, 1.0, b, 1.0, z)[0]
        ref = float(mp.hyp1f1(a, b, z))
        worst["1f1"] = max(worst.get("1f1", 0.0), abs(got - ref) / max(1e-30, abs(ref)))
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)

    for _ in range(25):
        a1, a2 = rng.uniform(0.3, 6.0, 2)
        b1, b2 = rng.uniform(0.4, 6.0, 2)
        z = rng.uniform(-10.0, 18.0)
        got = specfun.hyp2f2_with_scale(a1, a2, b1, b2, z)[0]
        ref = float(mp.hyper([a1, a2], [b1, b2], z))
        worst["2f2"] = max(worst.get("2f2", 0.0), abs(got - ref) / max(1e-30, abs(ref)))
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)

    for _ in range(20):
        a = rng.uniform(0.3, 8.0)
        b = rng.uniform(-3.0, 4.0)
        z = rng.uniform(0.05, 50.0)
        got = math.exp(specfun.log_tricomi_u_scaled(a, b, z) - a * math.log(z))
        ref = float(mp.hyperu(a, b, z))
        worst["tricomi"] = max(worst.get("tricomi", 0.0), abs(got - ref) / abs(ref))
        assert got == pytest.approx(ref, rel=1e-8)

    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, "special functions vs oracles, worst rel err "
               + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
               + f", {elapsed:.1f}s")


# --- 2. closed forms vs direct integration -----------------------------------------


def test_criterion_2_closed_forms_vs_quadrature():
    t0 = time.time()
    cfg = make_config()  # (8, 8) reference geometry

    num = analytic.gamma_fit(*(np.array(analytic.moments_head_signal(cfg)) * 8.0))
    den = analytic.gamma_fit(*analytic.moments_interference(cfg))
    sig = analytic.inv_gamma_fit(*analytic.moments_pathloss_sum(cfg))

    def head_oracle(theta):
        def f(v):
            dens = math.exp((den.a - 1.0) * math.log(v) - v - special.gammaln(den.a))
            return dens * special.gammainc(num.a, num.b * math.sqrt(theta * v / den.b))

        return 1.0 - integrate.quad(f, 0.0, np.inf, limit=400)[0]

    def member_oracle(theta):
        def f(v):
            dens = math.exp((den.a - 1.0) * math.log(v) - v - special.gammaln(den.a))
            return dens * (sig.b / (sig.b + theta * v / den.b)) ** sig.a

        return integrate.quad(f, 0.0, np.inf, limit=400)[0]

    grid = np.geomspace(0.01, 2.0, 15)
    worst_head = worst_member = 0.0
    for theta in grid:
        worst_head = max(worst_head, abs(analytic.head_decode_prob(float(theta), cfg) - head_oracle(theta)))
        worst_member = max(
            worst_member, abs(analytic.member_decode_prob(float(theta), cfg) - member_oracle(theta))
        )
    elapsed = time.time() - t0
    assert worst_head <= 1e-4
    assert worst_member <= 1e-4
    assert elapsed < 30.0
    _report(2, f"ratio-CDF closed forms vs integrals over theta in [0.01, 2]: "
               f"head {worst_head:.2e}, member {worst_member:.2e} (tol 1e-4), {elapsed:.1f}s")


# --- 3. analytic vs Monte Carlo reliability -----------------------------------------


def test_criterion_3_analytic_matches_monte_carlo():
    t0 = time.time()
    worst = 0.0
    lines = []
    # the rows of one GBS split differ only in message_bits, so they share
    # each chunk's draw, and each estimate is that of its own mc.estimate
    cfgs = [make_config(m_available=m0, m_occupied=m1, message_bits=bits)
            for m0, m1 in ((8, 8), (8, 2)) for bits in (8.0, 16.0, 24.0, 32.0, 40.0)]
    curves = mc.estimate_variants([(cfg, mc.PROPOSED) for cfg in cfgs], 20_000, 301,
                                  workers=WORKERS)
    for cfg, curve in zip(cfgs, curves):
        eta_a = analytic.reliability(cfg).eta
        gap = abs(eta_a - curve[-1].eta_mean)
        worst = max(worst, gap)
        lines.append(f"({cfg.m_available},{cfg.m_occupied}) D={cfg.message_bits:g}: "
                     f"|gap|={gap:.4f}")
        assert gap <= 0.02
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(3, f"analytic vs MC eta across 10 operating points, worst gap {worst:.4f} "
               f"(tol 0.02), {elapsed:.0f}s")


# --- 4. dependence on the serving/interfering ratio -----------------------------------


def test_criterion_4_phase1_depends_on_gbs_ratio():
    dists = {}
    for m0, m1 in ((8, 8), (8, 2), (4, 4)):
        cfg = make_config(m_available=m0, m_occupied=m1)
        dists[(m0, m1)] = mc.phase1_count_distribution(cfg, 4000, 401, workers=WORKERS)
    frac = {k: d.mean_count / 40.0 for k, d in dists.items()}
    se = {k: d.std_err_count / 40.0 for k, d in dists.items()}
    separation = (frac[(8, 2)] - frac[(8, 8)]) / math.hypot(se[(8, 2)], se[(8, 8)])
    ratio_gap = abs(frac[(4, 4)] - frac[(8, 8)])
    assert separation >= 3.0
    assert ratio_gap <= 0.02
    _report(4, f"phase-1 fraction: (8,2)={frac[(8,2)]:.4f} vs (8,8)={frac[(8,8)]:.4f} "
               f"({separation:.0f} sigma); |(4,4)-(8,8)|={ratio_gap:.4f} (tol 0.02)")


# --- 5. protocol ordering ------------------------------------------------------------


def test_criterion_5_protocol_ordering():
    protocols = (mc.PROPOSED, mc.NEAREST_GBS, mc.ALL_GBS, mc.HEAD_RELAY)

    def sep(x, y):
        return (x.eta_mean - y.eta_mean) / math.hypot(x.std_err, y.std_err)

    msgs = []
    cases = ((4.0, True), (40.0, False))
    # every row shares each chunk's draw: the protocols split one draw, and
    # the message sizes differ only in their thresholds
    variants = [(make_config(message_bits=bits), p) for bits, _ in cases for p in protocols]
    curves = iter(mc.estimate_variants(variants, 2500, 501, workers=WORKERS))
    for bits, expect_nearest_wins in cases:
        ests = {p.label: next(curves)[-1] for p in protocols}
        if expect_nearest_wins:
            assert sep(ests["nearest_gbs"], ests["all_gbs"]) >= 3.0
        else:
            assert sep(ests["all_gbs"], ests["nearest_gbs"]) >= 3.0
        for other in ("nearest_gbs", "all_gbs", "head_relay"):
            assert sep(ests["proposed"], ests[other]) >= 3.0
        order = " > ".join(
            f"{k}={v.eta_mean:.4f}"
            for k, v in sorted(ests.items(), key=lambda kv: -kv[1].eta_mean)
        )
        msgs.append(f"D={bits:g}: {order}")
    _report(5, "; ".join(msgs))


# --- 6. relay rounds and the head's role ----------------------------------------------


def test_criterion_6_multiround_head_effect():
    cfg = make_config(n_uavs=10, message_bits=150.0)
    # the two protocols share each chunk's draw
    with_head, without = mc.estimate_variants(
        [(cfg, mc.multi_round(6, True)), (cfg, mc.multi_round(6, False))], 4000, 601,
        workers=WORKERS)
    etas_h = [e.eta_mean for e in with_head]
    etas_n = [e.eta_mean for e in without]
    assert all(a <= b + 1e-12 for a, b in zip(etas_h, etas_h[1:]))
    for r in range(2, 7):
        assert etas_h[r] > etas_n[r]
    assert abs(etas_n[6] - 0.99) <= 0.01
    _report(6, f"multi-round: with-head {etas_h[-1]:.4f} non-decreasing and above "
               f"no-head {etas_n[-1]:.4f} from round 2; no-head round-6 value within 0.99+-0.01")


# --- 7. parameter trends ----------------------------------------------------------------


def test_criterion_7_parameter_trends():
    # swarm radius: smaller swarm, stronger relays (N=10 keeps every radius
    # placeable under the separation constraint)
    radii = (10.0, 20.0, 30.0, 40.0, 50.0)
    r_est = [
        mc.estimate(make_config(n_uavs=10, swarm_radius_m=r), mc.PROPOSED, 2000, 701,
                    workers=WORKERS)[-1]
        for r in radii
    ]
    for a, b in zip(r_est, r_est[1:]):
        assert b.eta_mean <= a.eta_mean + 2.0 * math.hypot(a.std_err, b.std_err)

    heights = (300.0, 475.0, 650.0, 825.0, 1000.0)
    h_est = [
        mc.estimate(make_config(swarm_altitude_m=h), mc.PROPOSED, 2000, 702,
                    workers=WORKERS)[-1]
        for h in heights
    ]
    for a, b in zip(h_est, h_est[1:]):
        assert b.eta_mean >= a.eta_mean - 2.0 * math.hypot(a.std_err, b.std_err)

    grid = np.arange(0.10e-3, 0.9001e-3, 0.05e-3)
    etas = [
        analytic.reliability(make_config(tau_phase1_s=float(t))).eta for t in grid
    ]
    best = int(np.argmax(etas))
    t_best = float(grid[best])
    assert 0.45e-3 <= t_best <= 0.65e-3
    assert 0 < best < len(grid) - 1
    assert etas[best] > etas[0] and etas[best] > etas[-1]
    _report(7, f"eta falls with swarm radius ({r_est[0].eta_mean:.4f} -> {r_est[-1].eta_mean:.4f}), "
               f"rises with altitude ({h_est[0].eta_mean:.4f} -> {h_est[-1].eta_mean:.4f}); "
               f"interior stage-split optimum at {t_best*1e3:.2f} ms")


# --- 8. structural invariants -------------------------------------------------------------


def test_criterion_8_structural_invariants():
    cfg = make_config(n_uavs=20, message_bits=60.0)
    uav = geometry.sample_swarm_layout(cfg, mc.trial_rng(801, 0), 100)[0]
    rows, cols = np.triu_indices(20, k=1)
    diff = uav[:, rows] - uav[:, cols]
    off = np.hypot(diff[..., 0], diff[..., 1])
    assert off.shape == (100, 190)
    assert off.min() >= 5.0

    masks = run_kernel([(cfg, mc.PROPOSED)], mc.trial_rng(802, 0), 100)[0][0]
    assert (masks[:, 0] <= masks[:, -1]).all()

    cfg_mr = make_config(n_uavs=10, message_bits=150.0)
    masks = run_kernel([(cfg_mr, mc.multi_round(4))], mc.trial_rng(803, 0), 100)[0][0]
    assert (masks[:, :-1] <= masks[:, 1:]).all()

    serial = mc.estimate(cfg, mc.PROPOSED, 600, 804, workers=1)[-1]
    parallel = mc.estimate(cfg, mc.PROPOSED, 600, 804, workers=WORKERS)[-1]
    assert serial.eta_mean == parallel.eta_mean and serial.std_err == parallel.std_err
    _report(8, "hard-core separation, cellular decoders kept by the relay stage, "
               "nested relay rounds, and bit-identical estimates across worker counts")


# --- 9. cellular-stage decoder-count distribution ---------------------------------------


def test_criterion_9_phase1_count_distribution():
    # message size chosen so the split-slot cellular threshold is exactly 0.25
    bits = 0.5e-3 * 200e3 * math.log2(1.0 + 0.25 * (5.0 / 6.0))
    cfg = make_config(n_uavs=30, m_available=8, m_occupied=4, message_bits=bits)
    assert scenario.stage_thresholds(cfg)[0] == pytest.approx(0.25, rel=1e-12)
    dist = mc.phase1_count_distribution(cfg, 1000, 1, workers=WORKERS)
    expected = analytic.reliability(cfg).expected_phase1
    gap = abs(dist.mean_count - expected)
    assert gap <= 3.0 * dist.std_err_count
    assert dist.mode >= 0.85 * 30
    _report(9, f"decoder-count mean {dist.mean_count:.3f} vs closed form {expected:.3f} "
               f"(gap {gap:.3f} <= 3se {3*dist.std_err_count:.3f}); mode {dist.mode} >= 25.5")
