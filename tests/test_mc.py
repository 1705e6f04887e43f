import math
import os
from dataclasses import replace

import numpy as np
import pytest

from swarmrel import analytic, fading, geometry, mc, scenario

from conftest import make_config


def test_protocol_labels_and_validation():
    assert mc.PROPOSED.label == "proposed"
    assert [p.rounds for p in (mc.PROPOSED, mc.HEAD_RELAY, mc.NEAREST_GBS, mc.ALL_GBS)] == [
        1, 1, 0, 0
    ]
    assert mc.multi_round(3).label == "multi_round3"
    assert mc.multi_round(6, with_head=False).label == "multi_round6_nohead"
    with pytest.raises(ValueError):
        mc.multi_round(0)


def test_zero_bits_all_decode_in_phase1():
    cfg = make_config(message_bits=0.0)
    probs = mc.run_trial(cfg, mc.PROPOSED, mc.trial_rng(1, 0))
    assert probs.shape == (2, 40)
    assert (probs == 1.0).all()


def test_sets_disjoint_and_within_range(config):
    for i in range(50):
        probs = mc.run_trial(config, mc.PROPOSED, mc.trial_rng(2, i))
        assert probs.shape == (2, 40) and probs.dtype == np.float64
        assert np.isin(probs[0], (0.0, 1.0)).all()  # the cellular stage is sampled
        assert ((0.0 <= probs) & (probs <= 1.0)).all()
        assert (probs[0] <= probs[-1]).all()


def test_head_relay_without_head_means_no_phase2():
    # large message: the head frequently fails the cellular stage, and then
    # nobody relays
    cfg = make_config(n_uavs=10, message_bits=150.0)
    protocol = mc.HEAD_RELAY
    seen = 0
    for i in range(200):
        masks = mc.run_trial(cfg, protocol, mc.trial_rng(3, i))
        if not masks[0, 0]:
            seen += 1
            assert (masks[-1] == masks[0]).all()
    assert seen > 0


def test_estimate_deterministic(config):
    e1 = mc.estimate(config, mc.PROPOSED, 100, 1234)[-1]
    e2 = mc.estimate(config, mc.PROPOSED, 100, 1234)[-1]
    assert e1 == e2
    e3 = mc.estimate(config, mc.PROPOSED, 100, 1235)[-1]
    assert e3.eta_mean != e1.eta_mean


def _worker_pid(start, stop):
    return os.getpid()


def test_one_pool_serves_every_call_at_a_worker_count():
    # three two-worker calls share at most two processes; a pool per call
    # would bring at least one new process each time
    pids = set()
    for _ in range(3):
        pids |= set(mc._map_chunks(_worker_pid, 64, 2))
    assert os.getpid() not in pids and len(pids) <= 2


def test_estimate_worker_count_invariance(config):
    serial = mc.estimate(config, mc.PROPOSED, 300, 77, workers=1)[-1]
    parallel = mc.estimate(config, mc.PROPOSED, 300, 77, workers=2)[-1]
    assert serial == parallel


def test_estimate_single_trial_stderr_undefined(config):
    est = mc.estimate(config, mc.PROPOSED, 1, 5)[-1]
    assert math.isnan(est.std_err)
    assert 0.0 <= est.eta_mean <= 1.0


def test_estimate_clt_scaling(config):
    # quadrupling the trials should halve the standard error, roughly
    ratios = []
    for seed in range(6):
        a = mc.estimate(config, mc.PROPOSED, 250, 1000 + seed)[-1]
        b = mc.estimate(config, mc.PROPOSED, 1000, 2000 + seed)[-1]
        ratios.append(b.std_err / a.std_err)
    assert 0.5 * 0.8 < np.mean(ratios) < 0.5 * 1.2


def test_multiround_sets_nested_and_curve_monotone():
    cfg = make_config(n_uavs=10, message_bits=150.0)
    for i in range(30):
        masks = mc.run_trial(cfg, mc.multi_round(4), mc.trial_rng(6, i))
        assert masks.shape == (5, 10)
        assert (masks[:-1] <= masks[1:]).all()
    curve = mc.estimate(cfg, mc.multi_round(4, True), 200, 6)
    etas = [e.eta_mean for e in curve]
    assert len(etas) == 5
    assert all(a <= b + 1e-12 for a, b in zip(etas, etas[1:]))


def test_multiround_prefix_property():
    # extending the horizon must not change the shared early rounds
    cfg = make_config(n_uavs=10, message_bits=150.0)
    short = mc.estimate(cfg, mc.multi_round(2, True), 150, 9)
    long = mc.estimate(cfg, mc.multi_round(5, True), 150, 9)
    for a, b in zip(short, long[: len(short)]):
        assert a.eta_mean == b.eta_mean


def test_protocols_on_one_seed_share_the_cellular_stage():
    # same serving set, combining and threshold on the same trial rng give
    # the same row 0, whatever happens in the relay rounds afterwards
    cfg = make_config(n_uavs=10, message_bits=150.0)
    for i in range(30):
        row0 = lambda p: mc.run_trial(cfg, p, mc.trial_rng(10, i))[0]
        assert np.array_equal(row0(mc.PROPOSED), row0(mc.HEAD_RELAY))
        all_gbs = mc.run_trial(cfg, mc.ALL_GBS, mc.trial_rng(10, i))
        assert all_gbs.shape == (1, 10)
        for rounds in (1, 3):
            assert np.array_equal(all_gbs[0], row0(mc.multi_round(rounds)))
        cellular = mc.run_trial(cfg, replace(mc.PROPOSED, rounds=0), mc.trial_rng(10, i))
        assert cellular.shape == (1, 10)
        assert np.array_equal(cellular[0], row0(mc.PROPOSED))


def test_proposed_protocol_dominates_at_reference_point(config):
    ests = {
        p.label: mc.estimate(config, p, 1500, 31)[-1]
        for p in (mc.PROPOSED, mc.ALL_GBS, mc.HEAD_RELAY)
    }
    sep = lambda x, y: (x.eta_mean - y.eta_mean) / math.hypot(x.std_err, y.std_err)
    assert sep(ests["proposed"], ests["head_relay"]) > 3.0
    assert sep(ests["proposed"], ests["all_gbs"]) > 3.0


def test_phase1_count_distribution_basics(config):
    dist = mc.phase1_count_distribution(config, 400, 8)
    assert dist.pmf.shape == (41,)
    assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= dist.mean_count <= 40.0


def test_phase1_count_point_mass_at_n():
    cfg = make_config(message_bits=0.0)
    dist = mc.phase1_count_distribution(cfg, 50, 8)
    assert dist.pmf[40] == 1.0
    assert dist.mode == 40
    assert dist.mean_count == 40.0


def test_phase1_count_matches_expectation(config):
    # the closed form is an approximation: allow 2% relative plus Monte Carlo noise
    dist = mc.phase1_count_distribution(config, 1500, 12, workers=2)
    expected = analytic.reliability(config).expected_phase1
    assert abs(dist.mean_count - expected) < 0.02 * expected + 3.0 * dist.std_err_count


def test_estimate_validates_trials(config):
    with pytest.raises(ValueError):
        mc.estimate(config, mc.PROPOSED, 0, 1)


# --- the split protocols' relay round, exact over its fading ------------------


def test_phase2_decode_probs_match_sampled_frequency(config):
    # fixed layout and relay set: the exact probability against the share of
    # Rayleigh draws whose SINR reaches the threshold
    swarm = geometry.sample_swarm_layout(config, np.random.default_rng(40))
    relays, receivers = np.arange(3), np.arange(3, 40)
    theta2 = scenario.phase2_threshold(config)
    exact = fading.phase2_decode_probs(swarm, relays, config, receivers, theta2)
    assert ((0.05 < exact) & (exact < 0.95)).sum() >= 30
    rng = np.random.default_rng(41)
    draws = 20_000
    hits = np.zeros(len(receivers))
    for _ in range(draws):
        gains = fading.draw_phase2(len(receivers), len(relays), rng)
        hits += fading.phase2_sinrs(swarm, relays, gains, config, receivers) >= theta2
    sigma = np.sqrt(exact * (1.0 - exact) / draws)
    assert (np.abs(hits / draws - exact) <= 4.0 * sigma).all()


def test_phase2_decode_probs_limits(config):
    swarm = geometry.sample_swarm_layout(config, np.random.default_rng(42))
    relays, receivers = np.arange(3), np.arange(3, 40)
    probs = lambda theta: fading.phase2_decode_probs(swarm, relays, config, receivers, theta)
    assert (probs(0.0) == 1.0).all()
    assert (fading.phase2_decode_probs(swarm, relays[:0], config, receivers, 0.0) == 0.0).all()
    grid = [probs(t) for t in (0.1, 0.5, 2.0, 1e3)]
    assert all((a >= b).all() for a, b in zip(grid, grid[1:]))
    # a path gain that underflows to 0, and a ratio past exp's range, give 0
    far = replace(swarm, pair_distances=np.full_like(swarm.pair_distances, np.inf))
    with np.errstate(all="raise"):
        assert (fading.phase2_decode_probs(far, relays, config, receivers, 0.5) == 0.0).all()
        assert (fading.phase2_decode_probs(far, relays, config, receivers, 0.0) == 1.0).all()
        assert (probs(1e300) == 0.0).all()


def sampled_relay_fractions(config, protocol, trials, seed):
    """Per-trial decoded fractions of a split protocol with its relay round sampled.

    The relay round is one Rayleigh draw and a threshold test on the trial's
    rng, right after the cellular stage; the geometry is replayed from a
    second copy of the trial's stream.
    """
    theta2 = scenario.phase2_threshold(config)
    out = np.empty(trials)
    for i in range(trials):
        rng = mc.trial_rng(seed, i)
        decoded = mc.run_trial(config, replace(protocol, rounds=0), rng)[0] > 0
        replay = mc.trial_rng(seed, i)
        geometry.sample_gbs_layout(config, replay)
        swarm = geometry.sample_swarm_layout(config, replay)
        speakers = decoded.copy()
        if protocol.name == "head_relay":
            speakers[np.arange(config.n_uavs) != swarm.head_idx] = False
        relays, receivers = np.flatnonzero(speakers), np.flatnonzero(~decoded)
        if len(relays) and len(receivers):
            gains = fading.draw_phase2(len(receivers), len(relays), rng)
            sinrs = fading.phase2_sinrs(swarm, relays, gains, config, receivers)
            decoded[receivers] = sinrs >= theta2
        out[i] = decoded.sum() / config.n_uavs
    return out


@pytest.mark.parametrize("protocol, overrides", [
    (mc.PROPOSED, {}),
    (mc.PROPOSED, {"message_bits": 24.0}),
    (mc.PROPOSED, {"m_occupied": 2}),
    (mc.HEAD_RELAY, {}),
])
def test_exact_relay_stage_agrees_with_sampling_at_lower_variance(protocol, overrides):
    cfg = make_config(**overrides)
    trials = 1000
    exact = mc.estimate(cfg, protocol, trials, 43)[-1]
    sampled = sampled_relay_fractions(cfg, protocol, trials, 43)
    sampled_se = sampled.std(ddof=1) / math.sqrt(trials)
    assert abs(exact.eta_mean - sampled.mean()) <= 4.0 * math.hypot(exact.std_err, sampled_se)
    assert exact.std_err < sampled_se
