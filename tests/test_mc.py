import math
import os
from dataclasses import replace

import numpy as np
import pytest

from swarmrel import analytic, fading, geometry, mc, scenario

import per_trial_kernel
from conftest import (cellular_sinrs, complex_gain_sinrs, gather_counts, make_config,
                      planned_curves, record_kernel_calls, relay_power_everywhere, run_kernel)


def test_protocol_labels_and_validation():
    assert mc.PROPOSED.label == "proposed"
    assert [p.rounds for p in (mc.PROPOSED, mc.HEAD_RELAY, mc.NEAREST_GBS, mc.ALL_GBS)] == [
        1, 1, 0, 0
    ]
    assert mc.multi_round(3).label == "multi_round3"
    assert mc.multi_round(6, with_head=False).label == "multi_round6_nohead"
    with pytest.raises(scenario.ConfigError, match="rounds: multi_round requires rounds >= 1"):
        mc.multi_round(0)
    assert list(mc.PROTOCOLS) == ["proposed", "nearest_gbs", "all_gbs", "head_relay"]
    assert all(p.name == name for name, p in mc.PROTOCOLS.items())


def test_a_protocol_s_stages_are_its_fields_not_its_name():
    # protocols built from the stage fields alone, under names the kernel
    # has never seen, give the fixed protocols' curves bit for bit, raw and
    # controlled; each field changes the curve, so none is ignored
    cfg = make_config(n_uavs=10, message_bits=150.0)
    split_head = mc.Protocol("split_head", rounds=1, split_slot=True, head_only=True)
    one_server = mc.Protocol("one_server", nearest=True)
    for trials in (40, mc.CONTROL_MIN_TRIALS):
        curves = mc.estimate_variants([(cfg, p) for p in (split_head, one_server, mc.HEAD_RELAY,
                                                          mc.NEAREST_GBS, mc.PROPOSED,
                                                          mc.ALL_GBS)], trials, 21)
        assert curves[0] == curves[2] and curves[1] == curves[3]
        assert curves[0] != curves[4] and curves[1] != curves[5]


def test_zero_bits_all_decode_in_phase1():
    cfg = make_config(message_bits=0.0)
    probs = run_kernel([(cfg, mc.PROPOSED)], mc.trial_rng(1, 0), 5)[0][0]
    assert probs.shape == (5, 2, mc._RELAY_SETS, 40)
    assert (probs == 1.0).all()


def test_sets_disjoint_and_within_range(config):
    # in every relay set of every trial
    probs = run_kernel([(config, mc.PROPOSED)], mc.trial_rng(2, 0), 50)[0][0]
    assert probs.shape == (50, 2, mc._RELAY_SETS, 40) and probs.dtype == np.float64
    assert np.isin(probs[:, 0], (0.0, 1.0)).all()  # the cellular stage is sampled
    assert ((0.0 <= probs) & (probs <= 1.0)).all()
    assert (probs[:, 0] <= probs[:, -1]).all()


def test_head_relay_without_head_means_no_phase2():
    # large message: the head frequently fails the cellular stage, and then
    # nobody relays
    cfg = make_config(n_uavs=10, message_bits=150.0)
    masks = run_kernel([(cfg, mc.HEAD_RELAY)], mc.trial_rng(3, 0), 200)[0][0]
    headless = masks[:, 0, 0, 0] == 0.0
    assert headless.sum() > 0 and (masks[headless, 0, :, 0] == 0.0).all()
    assert (masks[headless, -1] == masks[headless, 0]).all()


def test_estimate_deterministic(config):
    e1 = mc.estimate(config, mc.PROPOSED, 100, 1234)[-1]
    e2 = mc.estimate(config, mc.PROPOSED, 100, 1234)[-1]
    assert e1 == e2
    e3 = mc.estimate(config, mc.PROPOSED, 100, 1235)[-1]
    assert e3.eta_mean != e1.eta_mean


def _worker_pid(bounds):
    return os.getpid()


def test_one_pool_serves_every_call_at_a_worker_count():
    # three two-worker calls of 16 one-chunk runs share at most two
    # processes; a pool per call would bring at least one new process each time
    pids = set()
    for _ in range(3):
        pids |= set(mc._pool(2).map(_worker_pid, mc._runs(64, 2, mc._RUN_ELEMENTS)))
    assert os.getpid() not in pids and len(pids) <= 2


def test_estimate_worker_count_invariance(config):
    serial = mc.estimate(config, mc.PROPOSED, 300, 77, workers=1)[-1]
    parallel = mc.estimate(config, mc.PROPOSED, 300, 77, workers=2)[-1]
    assert serial == parallel


def _layout_features(config, trials, seed):
    """The eight control features of each trial, chunk by chunk (chunks of
    ceil(trials / 16), at most 64): six from the GBS layouts run_trial
    draws, and the two member-fading ones from a redraw of each chunk's
    layouts and cellular fading on a copy of its rng."""
    chunk = max(1, min(64, math.ceil(trials / 16)))
    rows = []
    for start in range(0, trials, chunk):
        n = min(chunk, trials - start)
        gbs, _ = run_kernel([(config, mc.ALL_GBS)], mc.trial_rng(seed, start), n)[2]
        replay = mc.trial_rng(seed, start)
        assert np.array_equal(geometry.sample_gbs_layout(config, replay, n), gbs)
        geometry.sample_swarm_layout(config, replay, n)
        h, _ = fading.draw_phase1(config, replay, n)
        d2 = (gbs ** 2).sum(axis=2) + config.swarm_altitude_m ** 2
        gain = d2 ** (-config.pathloss_exp_cell / 2.0)
        m0 = config.m_available
        a = np.sqrt(gain[:, :m0]).sum(axis=1)
        s, i = gain[:, :m0].sum(axis=1), gain[:, m0:].sum(axis=1)
        phase = np.exp(-1j * np.angle(h[:, 0, :m0]))  # the head's conjugate phases
        combined = (h[:, 1:, :m0] * (phase * np.sqrt(gain[:, :m0]))[:, None, :]).sum(axis=2)
        signal = (np.abs(combined) ** 2).mean(axis=1)
        interference = (np.abs(h[:, 1:, m0:]) ** 2 * gain[:, None, m0:]).sum(axis=2).mean(axis=1)
        rows.append(np.column_stack([a, s, i, a * a, i * i, a * i, signal, interference]))
    return np.concatenate(rows)


def _intercept(y, features, config):
    """The intercept of y on the features less their exact means, its standard
    error (residual, n - p - 1 degrees of freedom, times the Lavenberg-Welch
    factor (n - 2) / (n - p - 2)) and the design's rank."""
    n, p = features.shape
    x = (features - mc._feature_means(config)) / features.std(axis=0)
    design = np.column_stack([np.ones(n), x])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    std_err = math.sqrt(residuals @ residuals / (n - p - 1) * (n - 2) / (n - p - 2) / n)
    return coef[0], std_err, rank


@pytest.mark.parametrize("n_uavs, runs", [
    # 300 trials are 16 chunks of at most 19; at N=40 a run holds two
    # chunks, and at N=10 one run holds all sixteen
    (40, [[19, 19]] * 7 + [[19, 15]]),
    (10, [[19] * 15 + [15]]),
], ids=["n40", "n10"])
def test_each_run_is_one_kernel_call_with_a_stream_per_chunk(monkeypatch, n_uavs, runs):
    # each run is one run_trial call, each chunk of it on the stream of its
    # first trial, for both variants of the draw
    config = make_config(n_uavs=n_uavs)
    calls = []
    record_kernel_calls(monkeypatch, calls)
    variants = [(config, mc.PROPOSED), (config, mc.multi_round(1))]
    est = mc.estimate_variants(variants, 300, 77)
    assert calls == [(config, planned_curves(variants), sizes) for sizes in runs]
    monkeypatch.undo()
    starts = range(0, 19 * len(runs[0]), 19)
    first = run_kernel(variants, [mc.trial_rng(77, s) for s in starts], runs[0])
    last = run_kernel(variants, mc.trial_rng(77, 285), 15)
    gathered = gather_counts(variants, 300, 77, control=True)
    head = sum(runs[0])
    for v, (counts, _) in enumerate(gathered):
        assert np.array_equal(counts[:head], _expected_counts(first, v))
        assert np.array_equal(counts[285:], _expected_counts(last, v))
    # both variants, multi_round too, share their draw's regression, and
    # each entry regresses the chunk-ordered counts on the chunk-ordered layouts
    assert gathered[0][1] is gathered[1][1]
    features = _layout_features(config, 300, 77)
    for (counts, regression), curve in zip(gathered, est):
        fractions = counts[:, -1] / n_uavs
        assert curve[-1] == mc._entry(fractions, regression, 300, 77)
        eta, std_err, _ = _intercept(fractions, features, config)
        assert curve[-1].eta_mean == pytest.approx(eta, rel=1e-9)
        assert curve[-1].std_err == pytest.approx(std_err, rel=1e-9)


def _expected_counts(kernel, v):
    """Curve ``v``'s per-trial counts from a ``run_trial`` output: the cellular
    column sum_i q_i, and relay round r's (1 - pi_0) times the mean count of
    its row over the relay sets, less the round-1 control in round 1."""
    probs, cellular, _ = kernel
    exact, weight, control = cellular[v]
    counts = probs[v].sum(axis=3).mean(axis=2)
    counts[:, 0] = exact.sum(axis=1)
    counts[:, 1:2] -= control[:, None]
    counts[:, 1:] *= weight[:, None]
    return counts


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("overrides", [
    {"n_uavs": 10, "message_bits": 150.0},
    {},
    # first blocks often fall short of the prefix: the lockstep windows
    # judge whole blocks
    {"n_uavs": 8, "swarm_radius_m": 15.0, "message_bits": 150.0},
    {"n_uavs": 1},
    {"n_uavs": 10, "message_bits": 150.0, "m_occupied": 0},
], ids=["n10", "n40", "dense-n8", "n1", "no-interferers"])
def test_a_run_of_chunks_is_one_kernel_call_per_chunk_bit_for_bit(monkeypatch, overrides):
    # ragged chunks, a one-trial chunk among them, each on its own stream
    cfg = make_config(**overrides)
    variants = [(cfg, p) for p in (mc.PROPOSED, mc.NEAREST_GBS, mc.ALL_GBS, mc.HEAD_RELAY,
                                   mc.multi_round(3), mc.multi_round(2, with_head=False))]
    sizes = [16, 16, 1, 9]
    starts = [0, 16, 32, 33]
    run, cellular, draws = run_kernel(variants, [mc.trial_rng(5, s) for s in starts], sizes)
    ones = [run_kernel(variants, mc.trial_rng(5, s), n) for s, n in zip(starts, sizes)]
    for v, curve in enumerate(run):
        assert _same_bits(curve, np.concatenate([curves[v] for curves, _, _ in ones]))
        for k in range(3):
            assert _same_bits(cellular[v][k], np.concatenate([c[v][k] for _, c, _ in ones]))
    assert _same_bits(mc._control_features(draws, cfg),
                      np.concatenate([mc._control_features(d, cfg) for _, _, d in ones]))
    # and so the counts and regressions of a command, against one chunk per run
    gathered = gather_counts(variants, 250, 6, control=True)
    monkeypatch.setattr(mc, "_RUN_ELEMENTS", 0)
    for (counts, regression), (one_counts, one_regression) in zip(
            gathered, gather_counts(variants, 250, 6, control=True)):
        assert _same_bits(counts, one_counts)
        assert (regression is None) == (one_regression is None)
        assert regression is None or _same_bits(regression, one_regression)


def relay_sets(sinrs, base, swing, threshold):
    """A relaying curve's relay sets (S, trials, N) before any redraw, each set's
    shares (S, trials, N) and the decode probabilities q (trials, N).

    q is each UAV's decode probability over its line-of-sight phase, or its
    drawn outcome where its SINR does not turn on that phase.  Set 0 is the
    sampled decoders.  Set k takes each UAV's share s of the phases that
    reach its drawn SINR, shifted by k / S modulo 1, and decodes the UAV iff
    that is below q; a NaN share, where the SINR does not turn on the
    phase, decodes iff q = 1.
    """
    decoded = sinrs >= threshold
    exact = fading.phase1_decode_probs(base, swing, threshold)
    q = np.where(np.isnan(exact), decoded, exact)
    share = fading.phase1_decode_probs(base, swing, sinrs)
    shares = [share] + [(share + k / mc._RELAY_SETS) % 1.0 for k in range(1, mc._RELAY_SETS)]
    sets = [decoded] + [np.where(np.isnan(u), q == 1.0, u < q) for u in shares[1:]]
    return np.stack(sets), np.stack(shares), q


def redraw_given_a_decoder(decoded, share, q):
    """Redraw, one trial at a time, the relay set (trials, N) of each trial where
    none decoded but some could, from its law given at least one.

    A UAV that failed has a uniform spare v = (u - q) / (1 - q), u its
    ``share`` (``relay_sets``).  The first decoder is the inverse CDF of the
    first one at the first spare, and each later UAV decodes iff its spare
    is below its q.
    """
    for t in np.flatnonzero(~decoded.any(axis=1)):
        survive, reached = 1.0, []
        for qi in q[t]:
            survive *= 1.0 - qi
            reached.append(1.0 - survive)
        if survive == 1.0:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            spare = np.clip((share[t] - q[t]) / (1.0 - q[t]), 0.0, np.nextafter(1.0, 0.0))
        first = spare[~np.isnan(spare)][0]
        pick = next(j for j, mass in enumerate(reached) if mass > first * reached[-1])
        decoded[t, pick] = True
        for j in range(pick + 1, len(q[t])):
            decoded[t, j] = spare[j] < q[t, j]


def whole_matrix_relay(config, protocol, rng, trials):
    """Decode probabilities (trials, 1 + rounds, S, N) of one chunk by the whole-matrix relay
    loop, one relay set per trial without relay rounds.

    The chunk's draws are replayed from ``rng`` in ``mc.run_trial``'s order.
    Each relay round sums every UAV's relay power over the (trials, N, N)
    pair gains, forms every UAV's decode probability, and then scores a UAV
    that has decoded 1: what ``mc.run_trial`` did before it kept to the
    listeners still to decode.  Every round but the last is then sampled,
    whatever the protocol, on draws that every relay set shares.  Each of
    the ``relay_sets`` whose cellular stage decoded nobody, though somebody
    could have, relays from its ``redraw_given_a_decoder``.
    """
    n, rounds = config.n_uavs, protocol.rounds
    gbs = geometry.sample_gbs_layout(config, rng, trials)
    uav = geometry.sample_swarm_layout(config, rng, trials)[0]
    gains, phasors = fading.draw_phase1(config, rng, trials)
    draws = [fading.draw_phase2(config, rng, trials) for _ in range(rounds - 1)]
    split = protocol.name in ("proposed", "head_relay")
    cell, d2d = scenario.stage_thresholds(config, whole_slot=not split, relays=rounds > 0)
    m0 = config.m_available
    server = np.hypot(np.hypot(gbs[:, :m0, 0], gbs[:, :m0, 1]),
                      config.swarm_altitude_m).argmin(axis=1)
    sinrs, base, swing = fading.phase1_sinrs(gbs, uav, gains, config, protocol.with_head,
                                             protocol.name == "nearest_gbs",
                                             phasors[np.arange(trials), :, server], server)
    if not rounds:
        return (sinrs >= cell).astype(float)[:, None, None]
    sets, shares, q = relay_sets(sinrs, base, swing, cell)
    ratio = d2d * config.intf_noise_phase2_w / config.tx_power_uav_w
    with np.errstate(over="ignore", divide="ignore"):
        gain = uav[:, :, None, 0] - uav[:, None, :, 0]
        dy = uav[:, :, None, 1] - uav[:, None, :, 1]
        gain *= gain
        dy *= dy
        gain += dy
        np.sqrt(gain, out=gain)
        gain[:, np.arange(n), np.arange(n)] = np.inf
        np.power(gain, -config.pathloss_exp_d2d, out=gain)
        gain *= config.ref_gain_d2d
    speakers = np.arange(n) == 0 if protocol.name == "head_relay" else np.ones(n, dtype=bool)
    out = np.empty((trials, 1 + rounds, len(sets), n))
    for decoded, share, probs in zip(sets, shares, out.transpose(2, 0, 1, 3)):
        redraw_given_a_decoder(decoded, share, q)
        probs[:, 0] = decoded
        for r in range(1, rounds + 1):
            relays = decoded & speakers
            power = np.where(relays[:, None, :], gain, 0.0).sum(axis=2)
            if d2d == 0.0:
                heard = np.broadcast_to(relays.any(axis=1, keepdims=True),
                                        relays.shape).astype(float)
            else:
                with np.errstate(divide="ignore", over="ignore", under="ignore"):
                    heard = np.exp(-ratio / power)
            np.maximum(np.where(decoded, 1.0, heard), probs[:, r - 1], out=probs[:, r])
            if r < rounds:
                sinrs = config.tx_power_uav_w * power * draws[r - 1] / config.intf_noise_phase2_w
                decoded |= (sinrs >= d2d) & relays.any(axis=1, keepdims=True)
    return out


@pytest.mark.parametrize("overrides, raw", [
    ({"n_uavs": 10, "message_bits": 150.0}, {}),
    ({}, {}),
    ({"n_uavs": 1}, {}),
    ({"n_uavs": 10, "message_bits": 150.0, "m_occupied": 0}, {}),
    # the cellular stage decodes every UAV, at thresholds of 0: no listener
    # is pending
    ({"message_bits": 0.0}, {}),
    # nearly every listener is pending
    ({"n_uavs": 10, "message_bits": 150.0, "m_available": 1}, {}),
    # a D2D threshold of 0 with listeners pending
    ({"n_uavs": 10, "message_bits": 150.0}, {"bandwidth_d2d_hz": math.inf}),
    # coincident UAVs: pair gains of inf
    ({"n_uavs": 10, "message_bits": 150.0},
     {"swarm_radius_m": 1e-160, "min_separation_m": 1e-170}),
], ids=["n10", "n40", "n1", "no-interferers", "all-decode", "weak-cellular", "d2d-threshold-0",
        "inf-gains"])
def test_relay_rows_match_the_whole_matrix_bit_for_bit(overrides, raw):
    # every protocol, multi_round at 1-6 rounds with and without the head,
    # the split protocols at three rounds, sampled between them, and a
    # second and third threshold on the same draw, in one run of ragged
    # chunks, and each protocol alone on one chunk: every curve has the bits
    # of the whole-matrix loop on its own draws
    cfg = replace(make_config(**overrides), **raw)
    protocols = [mc.PROPOSED, mc.NEAREST_GBS, mc.ALL_GBS, mc.HEAD_RELAY,
                 replace(mc.PROPOSED, rounds=3), replace(mc.HEAD_RELAY, rounds=3)]
    protocols += [mc.multi_round(r, h) for r in range(1, 7) for h in (True, False)]
    variants = [(cfg, p) for p in protocols]
    variants += [(replace(cfg, message_bits=cfg.message_bits / 2), mc.PROPOSED),
                 (replace(cfg, message_bits=cfg.message_bits / 4), mc.multi_round(3))]
    sizes, starts = [16, 16, 1, 9], [0, 16, 32, 33]
    with np.errstate(over="ignore", divide="ignore"):
        run, _, _ = run_kernel(variants, [mc.trial_rng(8, s) for s in starts], sizes)
        for (config, protocol), curve in zip(variants, run):
            want = [whole_matrix_relay(config, protocol, mc.trial_rng(8, s), n)
                    for s, n in zip(starts, sizes)]
            assert _same_bits(curve, np.concatenate(want)), protocol.label
        for protocol in protocols:
            [alone], _, _ = run_kernel([(cfg, protocol)], mc.trial_rng(9, 0), 20)
            assert _same_bits(alone, whole_matrix_relay(cfg, protocol, mc.trial_rng(9, 0), 20))


@pytest.mark.parametrize("trials", [1, 5, 17, 250, 1000, 20_000])
@pytest.mark.parametrize("elements", [1, 160, mc._RUN_ELEMENTS // 96, 1_600, 1 << 14, 3 << 14,
                                      mc._RUN_ELEMENTS, 3 * mc._RUN_ELEMENTS])
def test_every_run_keeps_to_the_element_budget_or_is_one_chunk(trials, elements):
    chunk = max(1, min(64, math.ceil(trials / 16)))
    chunks = len(range(0, trials, chunk))
    for workers in (1, 2, 3):
        runs = mc._runs(trials, workers, elements)
        # the runs cover the trial count's chunks in order, whatever the budget
        assert [start for bounds in runs for start in bounds[:-1]] == list(range(0, trials, chunk))
        assert [bounds[-1] for bounds in runs[:-1]] == [bounds[0] for bounds in runs[1:]]
        assert runs[-1][-1] == trials
        for bounds in runs:
            assert len(bounds) == 2 or (bounds[-1] - bounds[0]) * elements <= mc._RUN_ELEMENTS
        # a multiple of the workers unless each run is one chunk, at most a
        # chunk apart, and no fewer by a multiple of the workers keeps the budget
        sizes = [len(bounds) - 1 for bounds in runs]
        assert len(runs) % workers == 0 or sizes == [1] * len(runs), (workers, sizes)
        assert max(sizes) - min(sizes) <= 1
        assert len(runs) <= workers or (
            -(-chunks // (len(runs) - workers)) * chunk * elements > mc._RUN_ELEMENTS)
        if (trials, elements) == (250, mc._RUN_ELEMENTS // 96):
            # 16 chunks of 16 trials, six to a run: the fewest runs are
            # three, and at two workers four of four chunks
            assert sizes == {1: [5, 5, 6], 2: [4, 4, 4, 4], 3: [5, 5, 6]}[workers]


def test_control_variates_start_at_the_trial_floor_for_every_protocol():
    # below the floor every entry is the sample mean with its sample
    # standard error, bit for bit; from it every entry, multi_round's too,
    # is the draw's control-variate estimate, and none is the sample mean
    cfg = make_config(n_uavs=10, message_bits=150.0)
    variants = [(cfg, mc.multi_round(3)), (cfg, mc.PROPOSED)]

    def raw(counts, trials):
        fractions = counts / 10
        return mc.ReliabilityEstimate(float(fractions.mean()),
                                      float(fractions.std(ddof=1) / math.sqrt(trials)), trials, 8)

    for trials in (mc.CONTROL_MIN_TRIALS - 1, mc.CONTROL_MIN_TRIALS):
        controlled = trials >= mc.CONTROL_MIN_TRIALS
        gathered = gather_counts(variants, trials, 8, control=controlled)
        curves = mc.estimate_variants(variants, trials, 8)
        for curve, (all_counts, regression) in zip(curves, gathered):
            assert (regression is None) != controlled
            assert curve == [mc._entry(counts / 10, regression, trials, 8)
                             for counts in all_counts.T]
            for est, counts in zip(curve, all_counts.T):
                assert (est == raw(counts, trials)) != controlled


def test_controlled_entry_is_the_intercept_of_a_regression_on_the_centered_features(config):
    # eta = mean(y) - beta . (mean(x) - mu) is the intercept of y on x - mu
    n = 150
    [(counts, _)] = gather_counts([(config, mc.ALL_GBS)], n, 21)
    eta, std_err, rank = _intercept(counts[:, -1] / config.n_uavs,
                                    _layout_features(config, n, 21), config)
    [[est]] = mc.estimate_variants([(config, mc.ALL_GBS)], n, 21)
    assert rank == 9
    assert est.eta_mean == pytest.approx(eta, rel=1e-9)
    assert est.std_err == pytest.approx(std_err, rel=1e-9)


def test_controlled_rows_of_a_shared_draw_equal_their_own_estimates(config):
    trials = mc.CONTROL_MIN_TRIALS
    pairs = [(replace(config, message_bits=bits), protocol) for bits in (40.0, 80.0)
             for protocol in (mc.PROPOSED, mc.NEAREST_GBS, mc.ALL_GBS, mc.HEAD_RELAY)]
    own = [mc.estimate(c, p, trials, 16) for c, p in pairs]
    assert mc.estimate_variants(pairs, trials, 16) == own
    assert mc.estimate_variants(pairs, trials, 16, workers=2) == own


@pytest.mark.parametrize("overrides", [{}, {"m_available": 4, "m_occupied": 2,
                                            "pathloss_exp_cell": 3.0, "rician_k": 10.0},
                                       {"coverage_radius_m": 1e4, "pathloss_exp_cell": 3.0}])
def test_layout_feature_means_are_exact(overrides):
    # each of the eight means within 4 standard errors of the mean of 10^6
    # draws of a layout and its cellular fading, on a wide cell too, whose
    # squared distances are floored; no mean depends on the swarm size, so
    # one member per draw keeps the fading draws small
    cfg = make_config(n_uavs=2, **overrides)
    rng = np.random.default_rng(17)
    sums, squares, draws = np.zeros(8), np.zeros(8), 1_000_000
    for _ in range(10):
        gbs = geometry.sample_gbs_layout(cfg, rng, draws // 10)
        features = mc._control_features((gbs, fading.draw_phase1(cfg, rng, draws // 10)[0]), cfg)
        sums += features.sum(axis=0)
        squares += (features * features).sum(axis=0)
    mean = sums / draws
    std_err = np.sqrt((squares / draws - mean * mean) / draws)
    gap = np.abs(mean - mc._feature_means(cfg)) / std_err
    assert (gap <= 4.0).all(), gap


def test_a_draw_without_interferers_gives_finite_rows():
    # with m_occupied = 0 the interference features are 0 and are dropped
    cfg = make_config(n_uavs=10, message_bits=150.0, m_occupied=0)
    protocols = (mc.PROPOSED, mc.NEAREST_GBS, mc.ALL_GBS, mc.HEAD_RELAY)
    for curve in mc.estimate_variants([(cfg, p) for p in protocols], mc.CONTROL_MIN_TRIALS, 4):
        for est in curve:
            assert 0.0 <= est.eta_mean <= 1.0 and math.isfinite(est.std_err), est


def test_a_draw_without_members_gives_finite_rows():
    # with n_uavs = 1 the member features are 0 and are dropped
    cfg = make_config(n_uavs=1)
    protocols = (mc.PROPOSED, mc.NEAREST_GBS, mc.ALL_GBS, mc.HEAD_RELAY)
    for curve in mc.estimate_variants([(cfg, p) for p in protocols], mc.CONTROL_MIN_TRIALS, 4):
        for est in curve:
            assert 0.0 <= est.eta_mean <= 1.0 and math.isfinite(est.std_err), est


def test_controlled_standard_error_is_honest():
    # over 200 independent 100-trial draws the spread of the controlled eta
    # matches its reported standard error, and its mean that of the sample
    # means of the same draws: mid-range at 150 bits, and near 1 at 4 bits
    # (eta about 0.9998 and 0.986), where no entry meets the clamp at 1.
    # At 150 bits the last entries of six-round multi_round curves, with and
    # without the head, are held to the same bounds; they reach 1 (eta about
    # 0.9986 and 0.985), in 37 and 2 of the draws, of which 1 each is
    # clamped and the rest decoded every UAV of every trial.  So are wide
    # cells at 40 bits, where the features' distances are floored (eta
    # about 0.02-0.88).  The gap of the means is bounded by 3 standard
    # errors of the paired gap, whose spread grows as the controls strengthen
    trials, seeds = 100, 200
    points = [({"message_bits": 150.0}, (mc.PROPOSED, mc.ALL_GBS, mc.multi_round(6),
                                         mc.multi_round(6, with_head=False))),
              ({"message_bits": 4.0}, (mc.PROPOSED, mc.ALL_GBS))]
    points += [({"pathloss_exp_cell": alpha, "coverage_radius_m": radius},
                (mc.PROPOSED, mc.ALL_GBS)) for alpha in (2.5, 3.0) for radius in (1e4, 1e5)]
    for overrides, protocols in points:
        cfg = make_config(n_uavs=10, **overrides)
        variants = [(cfg, protocol) for protocol in protocols]
        eta, std_err, sample_mean = (np.empty((seeds, len(variants))) for _ in range(3))
        for seed in range(seeds):
            gathered = gather_counts(variants, trials, 3000 + seed, control=True)
            for j, (counts, regression) in enumerate(gathered):
                fractions = counts[:, -1] / cfg.n_uavs
                est = mc._entry(fractions, regression, trials, 3000 + seed)
                eta[seed, j], std_err[seed, j] = est.eta_mean, est.std_err
                sample_mean[seed, j] = fractions.mean()
        assert (eta[:, :2] < 1.0).all()
        spread = eta.std(axis=0, ddof=1)
        honesty = spread / np.sqrt((std_err * std_err).mean(axis=0))
        assert ((0.85 <= honesty) & (honesty <= 1.15)).all(), (overrides, honesty)
        gap = eta - sample_mean
        bias = np.abs(gap.mean(axis=0))
        assert (bias <= 3.0 * gap.std(axis=0, ddof=1) / math.sqrt(seeds)).all(), (overrides, bias)


def test_controlled_eta_stays_near_the_sample_mean_on_a_wide_cell():
    # CI's wide-cell repro, the reference config with R = 1e6 m and
    # alpha_cell = 3, whose trials' sample mean is about 0.0006: without the
    # floor on the features' GBS distances, their exact means are carried by
    # near GBSs too rare to be drawn, and the controlled eta read about 0.48
    cfg = make_config(coverage_radius_m=1e6, pathloss_exp_cell=3.0)
    est = mc.estimate(cfg, mc.PROPOSED, 500, 3)[-1]
    [(counts, _)] = gather_counts([(cfg, mc.PROPOSED)], 500, 3)
    fractions = counts[:, -1] / cfg.n_uavs
    raw_std_err = float(fractions.std(ddof=1)) / math.sqrt(500)
    assert abs(est.eta_mean - fractions.mean()) <= 4.0 * max(est.std_err, raw_std_err)


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
    # the cellular stage is sampled, the relay rounds exact, and each UAV's
    # curve is non-decreasing within each trial, with and without the head
    cfg = make_config(n_uavs=10, message_bits=150.0)
    for with_head in (True, False):
        masks = run_kernel([(cfg, mc.multi_round(4, with_head))], mc.trial_rng(6, 0),
                             30)[0][0]
        assert masks.shape == (30, 5, mc._RELAY_SETS, 10)
        for k in range(mc._RELAY_SETS):  # in every relay set
            assert np.isin(masks[:, 0, k], (0.0, 1.0)).all()
            assert ((0.0 <= masks[:, :, k]) & (masks[:, :, k] <= 1.0)).all()
            assert not np.isin(masks[:, 1:, k], (0.0, 1.0)).all()
            assert (masks[:, :-1, k] <= masks[:, 1:, k]).all()
        curve = mc.estimate(cfg, mc.multi_round(4, with_head), 200, 6)
        etas = [e.eta_mean for e in curve]
        assert len(etas) == 5
        assert all(a <= b + 1e-12 for a, b in zip(etas, etas[1:]))


def test_controlled_multi_round_curves_never_fall():
    # each entry fits its own coefficients, so nothing forces a controlled
    # curve up: seeded draws at the benchmark's rounds sweep (N=10, 150
    # bits, 250 trials) and at the reference point, where the curve
    # saturates (N=40, 40 bits, 100 trials), with and without the head
    for cfg, trials, seeds in ((make_config(n_uavs=10, message_bits=150.0), 250, 100),
                               (make_config(), 100, 40)):
        variants = [(cfg, mc.multi_round(6)), (cfg, mc.multi_round(6, with_head=False))]
        for seed in range(seeds):
            for curve in mc.estimate_variants(variants, trials, seed):
                etas = [est.eta_mean for est in curve]
                assert all(a <= b for a, b in zip(etas, etas[1:])), (trials, seed, etas)


def test_multiround_prefix_property():
    # extending the horizon must not change the shared early rounds
    cfg = make_config(n_uavs=10, message_bits=150.0)
    short = mc.estimate(cfg, mc.multi_round(2, True), 150, 9)
    long = mc.estimate(cfg, mc.multi_round(5, True), 150, 9)
    for a, b in zip(short, long[: len(short)]):
        assert a.eta_mean == b.eta_mean
    short = run_kernel([(cfg, mc.multi_round(2))], mc.trial_rng(9, 0), 10)[0][0]
    long = run_kernel([(cfg, mc.multi_round(5))], mc.trial_rng(9, 0), 10)[0][0]
    assert np.array_equal(short, long[:, :3])
    # entry r of a curve is the last entry of an r-round run, bit for bit
    for with_head in (True, False):
        curve = mc.estimate(cfg, mc.multi_round(4, with_head), 120, 19)
        for r in range(1, 5):
            assert mc.estimate(cfg, mc.multi_round(r, with_head), 120, 19)[-1] == curve[r]


def replay_chunk(config, rng, trials, relay_draws, with_head):
    """A chunk's planar UAVs, its first ``relay_draws`` relay draws and its cellular
    law (sinrs, base, swing) over every serving GBS, replayed from ``rng`` in
    ``mc.run_trial``'s order."""
    gbs = geometry.sample_gbs_layout(config, rng, trials)
    uav = geometry.sample_swarm_layout(config, rng, trials)[0]
    gains, phasors = fading.draw_phase1(config, rng, trials)
    draws = [fading.draw_phase2(config, rng, trials) for _ in range(relay_draws)]
    server = fading.nearest_server(gbs, config)
    los = phasors[np.arange(trials), :, server]
    return uav, draws, fading.phase1_sinrs(gbs, uav, gains, config, with_head, False, los, server)


def sampled_rounds(config, rounds, with_head, rng, trials):
    """Each UAV's sampled decode indicator (trials, 1 + rounds, S, N) of ``multi_round``.

    A chunk's geometry, cellular fading and relay draws are replayed from
    ``rng`` (``replay_chunk``).  Each relay set starts from its decoders
    before any redraw (``relay_sets``), and every relay round is sampled on
    draws that the sets share: a listener decodes once its SINR clears the
    threshold.  The last round is sampled on one more draw, which the
    kernel does not make.
    """
    uav, draws, law = replay_chunk(config, rng, trials, rounds, with_head)
    cell, d2d = scenario.stage_thresholds(config, whole_slot=True)
    out = []
    for decoded in relay_sets(*law, cell)[0]:
        rows = [decoded.copy()]
        for draw in draws:
            sinrs = fading.phase2_sinrs(relay_power_everywhere(uav, decoded, config), draw, config)
            decoded |= (sinrs >= d2d) & decoded.any(axis=1, keepdims=True)
            rows.append(decoded.copy())
        out.append(np.stack(rows, axis=1))
    return np.stack(out, axis=2)


@pytest.mark.parametrize("with_head", [True, False])
def test_exact_relay_rounds_agree_with_the_sampled_indicator(with_head):
    # each round is exact over its fading given the sampled relay set of the
    # round before, in every relay set: in a trial whose set has a cellular
    # decoder, and so is not redrawn, a UAV that the sampled rounds had
    # decoded scores 1, and over 200 seeds the paired gap of the curves'
    # means, each trial's rounds weighted by 1 - pi_0, has |z| <= 3
    cfg = make_config(n_uavs=10, message_bits=150.0)
    rounds, trials, seeds = 4, 50, 200
    gaps = np.empty((seeds, rounds, mc._RELAY_SETS))
    for seed in range(seeds):
        [exact], [(_, weight, _)], _ = run_kernel([(cfg, mc.multi_round(rounds, with_head))],
                                               mc.trial_rng(2400 + seed, 0), trials)
        sampled = sampled_rounds(cfg, rounds, with_head, mc.trial_rng(2400 + seed, 0), trials)
        kept = sampled[:, 0].any(axis=2)  # (trials, S)
        assert np.array_equal(exact[:, 0][kept], sampled[:, 0][kept])
        assert (exact[:, 1:][sampled[:, :-1] & kept[:, None, :, None]] == 1.0).all()
        gaps[seed] = (weight[:, None, None, None] * exact[:, 1:] - sampled[:, 1:]).mean(axis=(0, 3))
    z = gaps.mean(axis=0) / (gaps.std(axis=0, ddof=1) / math.sqrt(seeds))
    assert (np.abs(z) <= 3.0).all(), z


# --- the cellular stage, conditioned on one line-of-sight phase per UAV ------


@pytest.mark.parametrize("with_head, nearest", [(True, False), (False, False), (True, True)],
                         ids=["head", "no-head", "nearest"])
def test_cellular_decode_probs_match_resampled_line_of_sight_phases(with_head, nearest):
    # at two trials, each UAV's q against the share of 10^5 copies of the
    # trial, the line-of-sight phases of every UAV's link to the nearest
    # serving GBS redrawn (but the head's, which set the weights), whose
    # SINR reaches the threshold: within 4 standard errors.  Each UAV's SINR
    # turns on its own phase alone, so one copy redraws them all
    cfg = make_config(n_uavs=6, m_available=4, m_occupied=4, message_bits=100.0)
    rng = np.random.default_rng(46)
    trials, copies, batches = 2, 10_000, 10
    gbs = geometry.sample_gbs_layout(cfg, rng, trials)
    uav = geometry.sample_swarm_layout(cfg, rng, trials)[0]
    gains, phasors = fading.draw_phase1(cfg, rng, trials)
    server = fading.nearest_server(gbs, cfg)
    theta = scenario.stage_thresholds(cfg, whole_slot=True)[0]
    sinrs, base, swing = fading.phase1_sinrs(gbs, uav, gains, cfg, with_head, nearest,
                                             phasors[np.arange(trials), :, server], server)
    exact = fading.phase1_decode_probs(base, swing, theta)
    assert (swing[:, 0] == 0.0).all() == with_head and (swing[:, 1:] > 0.0).all()
    assert ((0.05 < exact) & (exact < 0.95)).sum() >= 4
    los = math.sqrt(cfg.rician_k / (cfg.rician_k + 1.0))
    for t in range(trials):
        scattered = gains[t] - los * phasors[t]
        redrawn = np.repeat(phasors[t][None], copies, axis=0)
        hits = np.zeros(cfg.n_uavs)
        for _ in range(batches):
            redrawn[:, 1 if with_head else 0:, server[t]] = np.exp(
                2j * np.pi * rng.random((copies, cfg.n_uavs - with_head)))
            copy = los * redrawn + scattered
            hits += (cellular_sinrs(np.repeat(gbs[t][None], copies, axis=0),
                                    np.repeat(uav[t][None], copies, axis=0), copy, cfg,
                                    with_head, nearest) >= theta).sum(axis=0)
        q = np.where(np.isnan(exact[t]), sinrs[t] >= theta, exact[t])
        freq = hits / (copies * batches)
        sigma = np.sqrt(q * (1.0 - q) / (copies * batches))
        assert (np.abs(freq - q) <= 4.0 * sigma).all(), (t, freq, q)


def _all_protocols():
    return [mc.PROPOSED, mc.NEAREST_GBS, mc.ALL_GBS, mc.HEAD_RELAY,
            mc.multi_round(6), mc.multi_round(6, with_head=False)]


def test_at_rician_k_0_the_cellular_stage_stays_sampled():
    # with no line-of-sight term no SINR turns on a phase: every q is the
    # sampled outcome, pi_0 is 1 or 0, and no relaying curve redraws its
    # relay set, though a weak cellular stage leaves many trials without
    # a decoder
    cfg = make_config(n_uavs=10, message_bits=150.0, m_available=2, rician_k=0.0)
    probs, cellular, _ = run_kernel([(cfg, p) for p in _all_protocols()], mc.trial_rng(47, 0),
                                    200)
    for curve, (exact, weight, _) in zip(probs, cellular):
        assert all(_same_bits(exact, curve[:, 0, k]) for k in range(curve.shape[2]))
        assert _same_bits(weight, curve[:, 0, 0].any(axis=1).astype(float))
    assert (~probs[-1][:, 0, 0].any(axis=1)).sum() >= 20


def _poisson_binomial(q):
    """The pmf over {0..N} of the number of independent Bernoulli(q_i) successes."""
    pmf = np.zeros(len(q) + 1)
    pmf[0] = 1.0
    for qi in q:
        pmf[1:] = pmf[1:] * (1.0 - qi) + pmf[:-1] * qi
        pmf[0] *= 1.0 - qi
    return pmf


def _law_given_a_decoder(sets, exact, weight, trials):
    """Over ``trials``, the relay sets' (trials, N) size counts against the Poisson-binomial
    pmf of the q given at least one success, and each UAV's presence against
    q_i / (1 - pi_0): (counts, expected, variance) of the sizes and of the presences."""
    sizes, expected, variance = np.zeros((3, exact.shape[1] + 1))
    present, marginal, spread = np.zeros((3, exact.shape[1]))
    for t in trials:
        pmf = _poisson_binomial(exact[t])
        pmf[0] = 0.0
        pmf /= weight[t]
        sizes[sets[t].sum()] += 1
        expected += pmf
        variance += pmf * (1.0 - pmf)
        p = exact[t] / weight[t]
        present += sets[t]
        marginal += p
        spread += p * (1.0 - p)
    return (sizes, expected, variance), (present, marginal, spread)


@pytest.mark.parametrize("with_head", [True, False])
def test_redrawn_relay_sets_follow_the_decoders_law_given_one(with_head):
    # in every relay set, over the trials where it had no cellular decoder
    # though some UAV could decode, the redrawn set's size against the
    # Poisson-binomial pmf of the q given at least one success, and each
    # UAV's presence against q_i / (1 - pi_0): within 4 standard errors,
    # summed over trials
    cfg = make_config(n_uavs=10, message_bits=150.0, m_available=2)
    protocol = mc.multi_round(1, with_head)
    variants = [(cfg, protocol), (cfg, replace(protocol, rounds=0))]
    theta = mc._thresholds(cfg, protocol)[0]
    for k in range(mc._RELAY_SETS):
        totals = np.zeros((3, 11)), np.zeros((3, 10))
        redrawn = 0
        for seed in range(20):
            probs, [(exact, weight, _), _], _ = run_kernel(variants, mc.trial_rng(4800 + seed, 0),
                                                        200)
            law = replay_chunk(cfg, mc.trial_rng(4800 + seed, 0), 200, 0, with_head)[2]
            drawn, relays = relay_sets(*law, theta)[0][k], probs[0][:, 0, k] > 0
            assert k or np.array_equal(drawn, probs[1][:, 0, 0] > 0)
            assert np.array_equal(relays[drawn.any(axis=1)], drawn[drawn.any(axis=1)])
            redo = np.flatnonzero(~drawn.any(axis=1) & (weight > 0.0))
            redrawn += len(redo)
            for total, part in zip(totals, _law_given_a_decoder(relays, exact, weight, redo)):
                total += part
            if with_head:
                assert not relays[~drawn[:, 0], 0].any()
        (sizes, expected, variance), (present, marginal, spread) = totals
        assert redrawn >= 400 and sizes[0] == 0 and sizes[2] >= 20
        assert (np.abs(sizes - expected) <= 4.0 * np.sqrt(variance)).all(), (k, sizes, expected)
        assert (np.abs(present - marginal) <= 4.0 * np.sqrt(spread)).all(), (k, present, marginal)


@pytest.mark.parametrize("with_head", [True, False])
def test_every_relay_set_follows_the_decoders_law_given_one(with_head):
    # each relay set of a trial, redrawn or not, is the decoders' law given
    # at least one: over every trial where some UAV could decode, its size
    # against the Poisson-binomial pmf of the q given at least one success,
    # and each UAV's presence against q_i / (1 - pi_0), within 4 standard errors
    cfg = make_config(n_uavs=10, message_bits=150.0, m_available=2)
    for k in range(mc._RELAY_SETS):
        totals = np.zeros((3, 11)), np.zeros((3, 10))
        for seed in range(20):
            [probs], [(exact, weight, _)], _ = run_kernel([(cfg, mc.multi_round(1, with_head))],
                                                       mc.trial_rng(5800 + seed, 0), 200)
            some = np.flatnonzero(weight > 0.0)
            for total, part in zip(totals, _law_given_a_decoder(probs[:, 0, k] > 0, exact,
                                                                weight, some)):
                total += part
        (sizes, expected, variance), (present, marginal, spread) = totals
        assert sizes[0] == 0
        assert (np.abs(sizes - expected) <= 4.0 * np.sqrt(variance)).all(), (k, sizes, expected)
        assert (np.abs(present - marginal) <= 4.0 * np.sqrt(spread)).all(), (k, present, marginal)


def test_conditioned_values_agree_with_the_sampled_ones():
    # the values before this conditioning, readable from the kernel as the
    # sampled decoders' count y(D) 1{K1 >= 1} (a trial without a cellular
    # decoder relays to nobody), against the conditioned ones on the same
    # draws: over 200 seeds of 100 trials the paired gap of each entry of
    # every protocol's curve, six-round multi_round with and without the
    # head included, has |z| <= 3, and vanishes where pi_0 is 0
    cfg = make_config(n_uavs=10, message_bits=150.0)
    protocols = _all_protocols()
    variants = [(cfg, p) for p in protocols] + [(cfg, replace(p, rounds=0)) for p in protocols]
    seeds, k = 200, len(protocols)
    gaps = [np.empty((seeds, 1 + p.rounds)) for p in protocols]
    for seed in range(seeds):
        kernel = run_kernel(variants, mc.trial_rng(5000 + seed, 0), 100)
        for v, protocol in enumerate(protocols):
            drawn = kernel[0][k + v][:, 0, 0]
            sampled = kernel[0][v][:, :, 0].sum(axis=2) * drawn.any(axis=1)[:, None]
            sampled[:, 0] = drawn.sum(axis=1)
            gaps[v][seed] = (_expected_counts(kernel, v) - sampled).mean(axis=0) / cfg.n_uavs
    for protocol, gap in zip(protocols, gaps):
        mean, std_err = gap.mean(axis=0), gap.std(axis=0, ddof=1) / math.sqrt(seeds)
        assert ((mean == 0.0) | (np.abs(mean) <= 3.0 * std_err)).all(), (protocol.label, mean,
                                                                        std_err)
        assert (std_err[0] > 0.0) and (protocol.with_head or (std_err[1:] > 0.0).all())


def test_averaged_relay_sets_agree_with_one_set(monkeypatch):
    # the values averaged over the relay sets against those of the first set
    # alone, on the same draws: over 200 seeds of 100 trials the paired gap
    # of each entry of every protocol's curve, six-round multi_round with and
    # without the head included, has |z| <= 3; the cellular entry is the same
    cfg = make_config(n_uavs=10, message_bits=150.0)
    protocols = _all_protocols()
    variants = [(cfg, p) for p in protocols]
    seeds = 200
    gaps = [np.empty((seeds, 1 + p.rounds)) for p in protocols]
    for seed in range(seeds):
        kernel = run_kernel(variants, mc.trial_rng(6200 + seed, 0), 100)
        with monkeypatch.context() as patch:
            patch.setattr(mc, "_RELAY_SETS", 1)
            one = run_kernel(variants, mc.trial_rng(6200 + seed, 0), 100)
        for v in range(len(protocols)):
            gap = _expected_counts(kernel, v) - _expected_counts(one, v)
            gaps[v][seed] = gap.mean(axis=0) / cfg.n_uavs
    for protocol, gap in zip(protocols, gaps):
        mean, std_err = gap.mean(axis=0), gap.std(axis=0, ddof=1) / math.sqrt(seeds)
        assert (gap[:, 0] == 0.0).all() and (std_err[1:] > 0.0).all(), protocol.label
        assert (np.abs(mean) <= 3.0 * std_err)[1:].all(), (protocol.label, mean, std_err)


def test_with_one_relay_set_the_kernel_is_the_first_set_alone(monkeypatch):
    # one relay set is the kernel before the sets were averaged: on ragged
    # chunks each curve is the first set of the whole-matrix loop and of the
    # kernel's two, bit for bit, and each command's counts are those of
    # that set, formed as they were, sum_i q_i and (1 - pi_0) sum_i p_ri,
    # round 1 less its control (1 - pi_0) (sum_i p_1i - control)
    cfg = make_config(n_uavs=10, message_bits=150.0)
    variants = [(cfg, p) for p in _all_protocols()]
    variants += [(replace(cfg, message_bits=75.0), mc.PROPOSED)]
    sizes, starts = [16, 16, 1, 9], [0, 16, 32, 33]
    many = run_kernel(variants, [mc.trial_rng(8, s) for s in starts], sizes)
    monkeypatch.setattr(mc, "_RELAY_SETS", 1)
    one = run_kernel(variants, [mc.trial_rng(8, s) for s in starts], sizes)
    for v, (config, protocol) in enumerate(variants):
        curve = one[0][v]
        assert curve.shape[2] == 1 and _same_bits(curve[:, :, 0], many[0][v][:, :, 0])
        want = [whole_matrix_relay(config, protocol, mc.trial_rng(8, s), n)
                for s, n in zip(starts, sizes)]
        assert _same_bits(curve, np.concatenate(want))
        for k in range(2):
            assert _same_bits(one[1][v][k], many[1][v][k])
    columns = []
    for curve, (exact, weight, control) in zip(*one[:2]):
        counts = curve[:, :, 0].sum(axis=2)
        counts[:, 0] = exact.sum(axis=1)
        counts[:, 1:2] -= control[:, None]
        counts[:, 1:] *= weight[:, None]
        columns.append(counts)
    table = mc._decoded_counts(cfg, planned_curves(variants), False, False, 8, [*starts, 42])
    assert _same_bits(table, np.concatenate(columns, axis=1))


# --- the round-1 control, of mean 0 over the relay sets' law -----------------


def first_round_terms(sets, q, gain, speakers, ratio):
    """Each UAV's round-1 control term (copies, N) for relay sets (copies, N) of one trial.

    ``q`` (N,) are the trial's decode probabilities, ``gain`` (N, N) its pair
    gains g_jt, listener j by speaker t, and ``speakers`` the curve's
    speaker mask.  With h(P) = exp(-ratio / P), mu_j = sum_t s_t q_t g_jt,
    beta = h'(mu) and gamma = h(mu) - 1 - beta mu (0 and -1 at mu = 0), the
    term is beta (Z_j - E Z_j) + gamma (L_j - E L_j), L_j = 1{j not in the
    set} and Z_j = L_j sum_t s_t 1{t in the set} g_jt, whose means given a
    decoder are (1 - q_j) mu_j / (1 - pi_0) and (1 - q_j - pi_0) / (1 - pi_0).
    """
    none = np.prod(1.0 - q)
    mu = gain @ (speakers * q)
    h = np.exp(-np.divide(ratio, mu, where=mu > 0.0, out=np.full_like(mu, np.inf)))
    beta = np.divide(ratio * h, mu * mu, where=h > 0.0, out=np.zeros_like(mu))
    gamma = h - 1.0 - beta * mu
    listening = ~sets
    heard = listening * ((sets & speakers) @ gain.T)
    return (beta * (heard - (1.0 - q) * mu / (1.0 - none))
            + gamma * (listening - (1.0 - q - none) / (1.0 - none)))


@pytest.mark.parametrize("overrides, protocol", [
    ({"n_uavs": 10, "message_bits": 150.0}, mc.PROPOSED),
    ({"n_uavs": 10, "message_bits": 150.0}, mc.multi_round(1, with_head=False)),
    ({}, mc.PROPOSED),
], ids=["n10-head", "n10-no-head", "n40"])
def test_first_round_control_has_mean_zero_over_the_relay_sets_law(overrides, protocol):
    # the kernel's control of two trials is the sum of first_round_terms
    # over its own relay sets, averaged over the sets; and each UAV's term,
    # averaged over the S sets of 10^5 redraws of the trial's line-of-sight
    # phases (relay_sets, then redraw_given_a_decoder), has mean 0 within
    # 4 standard errors
    cfg = make_config(**overrides)
    cell, d2d = mc._thresholds(cfg, protocol)
    ratio = d2d * cfg.intf_noise_phase2_w / cfg.tx_power_uav_w
    n = cfg.n_uavs
    speakers = np.ones(n, dtype=bool)
    [probs], [(exact, _, control)], _ = run_kernel([(cfg, protocol)], mc.trial_rng(61, 0), 20)
    uav, _, (_, base, swing) = replay_chunk(cfg, mc.trial_rng(61, 0), 20, 0, protocol.with_head)
    gains = fading.relay_gains(uav, np.ones(exact.shape, dtype=bool), cfg).reshape(20, n, n)
    mixed = np.flatnonzero(((0.05 < exact) & (exact < 0.95)).sum(axis=1) >= 3)[:2]
    assert len(mixed) == 2
    rng = np.random.default_rng(65)
    copies = 100_000
    for t in mixed:
        own = first_round_terms(probs[t, 0] > 0.0, exact[t], gains[t], speakers, ratio)
        assert control[t] == pytest.approx(own.sum(axis=1).mean(), rel=1e-9, abs=1e-12)
        phases = np.cos(2.0 * np.pi * rng.random((copies, n)))
        sinrs = base[t] + swing[t] * phases
        sets, shares, q = relay_sets(sinrs, np.broadcast_to(base[t], sinrs.shape),
                                     np.broadcast_to(swing[t], sinrs.shape), cell)
        terms = np.zeros((copies, n))
        for decoded, share in zip(sets, shares):
            redraw_given_a_decoder(decoded, share, q)
            terms += first_round_terms(decoded, exact[t], gains[t], speakers, ratio)
        terms /= len(sets)
        assert (terms != 0.0).any(axis=0).sum() >= 3
        spread = terms.std(axis=0)
        z = terms.mean(axis=0)[spread > 0.0] / (spread[spread > 0.0] / math.sqrt(copies))
        assert (np.abs(z) <= 4.0).all(), (t, z)


def test_head_relay_s_controlled_first_round_is_its_conditional_mean():
    # the head alone relays, so a member's round-1 relay power is the head's
    # path gain or 0: the control is exact, and the controlled round-1 count
    # is (1 - pi_0) sum_j [1 - (1 - h_j) E L_j] to rounding, h_j = h(q_0 g_0j),
    # where the head decoded (q_0 = 1) and where it did not (q_0 = 0)
    cfg = make_config(n_uavs=10, message_bits=150.0)
    kernel = run_kernel([(cfg, mc.HEAD_RELAY)], mc.trial_rng(63, 0), 200)
    [(exact, weight, _)] = kernel[1]
    uav = replay_chunk(cfg, mc.trial_rng(63, 0), 200, 0, True)[0]
    head = np.zeros(exact.shape, dtype=bool)
    head[:, 0] = True
    mu = exact[:, :1] * relay_power_everywhere(uav, head, cfg)
    ratio = mc._thresholds(cfg, mc.HEAD_RELAY)[1] * cfg.intf_noise_phase2_w / cfg.tx_power_uav_w
    h = np.exp(-np.divide(ratio, mu, where=mu > 0.0, out=np.full_like(mu, np.inf)))
    none = 1.0 - weight[:, None]
    want = (weight[:, None] - (1.0 - h) * (1.0 - exact - none)).sum(axis=1)
    assert np.isin(exact[:, 0], (0.0, 1.0)).all() and 0 < exact[:, 0].sum() < 200
    assert np.allclose(_expected_counts(kernel, 0)[:, 1], want, rtol=1e-12, atol=1e-12)


def test_first_round_control_agrees_with_the_uncontrolled_entry():
    # over 200 seeds of 100 trials, each relaying curve's round-1 entry with
    # the control against the same trials without it: the paired gap has
    # |z| <= 3, and the control is not 0
    cfg = make_config(n_uavs=10, message_bits=150.0)
    protocols = [mc.PROPOSED, mc.HEAD_RELAY, mc.multi_round(6), mc.multi_round(6, False)]
    seeds = 200
    gaps = np.empty((seeds, len(protocols)))
    for seed in range(seeds):
        kernel = run_kernel([(cfg, p) for p in protocols], mc.trial_rng(6600 + seed, 0), 100)
        for v, (_, weight, control) in enumerate(kernel[1]):
            gaps[seed, v] = -(weight * control).mean() / cfg.n_uavs
    mean, std_err = gaps.mean(axis=0), gaps.std(axis=0, ddof=1) / math.sqrt(seeds)
    assert (std_err > 0.0).all() and (np.abs(mean) <= 3.0 * std_err).all(), (mean, std_err)


def test_first_round_control_cuts_the_per_trial_variance(monkeypatch, config):
    # at the criterion-3 point, 4,000 trials of proposed at 40 bits on one
    # seed: round 1's per-trial variance, raw and after the layout
    # regression, is lower with the control than without it
    trials = 4_000
    [(counts, regression)] = gather_counts([(config, mc.PROPOSED)], trials, 64, control=True)
    monkeypatch.setattr(mc, "_first_round_controls",
                        lambda relaying, laws, gains, pending: np.zeros((len(relaying),
                                                                         len(pending))))
    [(raw, raw_regression)] = gather_counts([(config, mc.PROPOSED)], trials, 64, control=True)
    assert np.array_equal(counts[:, 0], raw[:, 0])
    assert counts[:, 1].var() < raw[:, 1].var()
    assert (mc._entry(counts[:, 1] / 40, regression, trials, 64).std_err
            < mc._entry(raw[:, 1] / 40, raw_regression, trials, 64).std_err)


def test_first_round_control_vanishes_where_pair_gains_are_infinite():
    # coincident UAVs: every pair gain is inf, so every control term is
    # left out, and the counts are the uncontrolled ones bit for bit
    cfg = replace(make_config(n_uavs=10, message_bits=150.0), swarm_radius_m=1e-160,
                  min_separation_m=1e-170)
    with np.errstate(over="ignore", divide="ignore"):
        _, cellular, _ = run_kernel([(cfg, p) for p in _all_protocols()], mc.trial_rng(3, 0), 50)
    assert all((control == 0.0).all() for _, _, control in cellular)


def _count_calls(monkeypatch, calls, module, name):
    """Append ``name`` to ``calls`` at each call of ``module.name`` while the test runs."""
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("with_head", [True, False])
def test_round_counts_of_one_protocol_share_one_curve(monkeypatch, with_head):
    # each row equals its own estimate, and the 16 chunks of 4, one run at
    # N=10, compute one three-round curve: one kernel call, handed that one
    # curve alone, and two relay draws per chunk and two sampled relay
    # rounds, for the two rounds that a later round reads
    cfg = make_config(n_uavs=10, message_bits=150.0)
    pairs = [(cfg, mc.multi_round(rounds, with_head)) for rounds in (3, 1, 3, 2)]
    own = [mc.estimate(c, p, 64, 14) for c, p in pairs]
    calls = []
    record_kernel_calls(monkeypatch, calls)
    _count_calls(monkeypatch, calls, fading, "draw_phase2")
    _count_calls(monkeypatch, calls, fading, "phase2_sinrs")
    assert mc.estimate_variants(pairs, 64, 14) == own
    curve = planned_curves([(cfg, mc.multi_round(3, with_head))])
    assert calls == [(cfg, curve, [4] * 16), *["draw_phase2"] * 2 * 16, *["phase2_sinrs"] * 2]


@pytest.mark.parametrize("protocols, sampled", [
    (list(mc.PROTOCOLS.values()), 0),
    ([mc.multi_round(1)], 0),
    ([mc.multi_round(1, with_head=False)], 0),
    ([replace(mc.PROPOSED, rounds=3)], 2),
], ids=["compare", "multi_round1", "multi_round1_nohead", "proposed3"])
def test_only_a_round_that_a_later_round_reads_is_sampled(monkeypatch, protocols, sampled):
    # compare and a one-round curve draw no relay fading and sample no
    # round; a split protocol run for three rounds samples its first two,
    # as multi_round does, so its curve grows past the one-round curve,
    # which stays its prefix
    cfg = make_config(n_uavs=10, message_bits=150.0)
    calls = []
    _count_calls(monkeypatch, calls, fading, "draw_phase2")
    _count_calls(monkeypatch, calls, fading, "phase2_sinrs")
    curves = mc.estimate_variants([(cfg, p) for p in protocols], 64, 14)
    assert calls == [*["draw_phase2"] * sampled * 16, *["phase2_sinrs"] * sampled]
    if protocols[0].rounds == 3:
        assert curves[0][:2] == mc.estimate(cfg, mc.PROPOSED, 64, 14)
        assert curves[0][1].eta_mean < curves[0][2].eta_mean < curves[0][3].eta_mean


def test_a_curve_asked_for_twice_apart_is_drawn_once(monkeypatch):
    # the multi_round curve of the first config is asked for again after
    # another draw, yet its 15 chunks of at most 7 trials are drawn once
    # with it and once for the other config, not twice
    cfg = make_config(n_uavs=10, message_bits=150.0)
    pairs = [(cfg, mc.multi_round(3)), (replace(cfg, n_uavs=8), mc.PROPOSED),
             (cfg, mc.multi_round(2))]
    trials = mc.CONTROL_MIN_TRIALS
    own = [mc.estimate(c, p, trials, 14) for c, p in pairs]
    calls = []
    _count_calls(monkeypatch, calls, geometry, "sample_swarm_layout")
    assert mc.estimate_variants(pairs, trials, 14) == own
    assert len(calls) == 2 * 15


def test_a_draw_asked_for_again_apart_is_drawn_once(monkeypatch):
    # the first config's draw is asked for again, at another threshold and
    # protocol, after another draw's curve, yet its 15 chunks are drawn once
    # with both of its curves and once for the other config, not a third time
    cfg = make_config(n_uavs=10, message_bits=150.0)
    pairs = [(cfg, mc.PROPOSED), (replace(cfg, n_uavs=8), mc.PROPOSED),
             (replace(cfg, message_bits=80.0), mc.ALL_GBS)]
    trials = mc.CONTROL_MIN_TRIALS
    own = [mc.estimate(c, p, trials, 14) for c, p in pairs]
    calls = []
    _count_calls(monkeypatch, calls, geometry, "sample_swarm_layout")
    assert mc.estimate_variants(pairs, trials, 14) == own
    assert len(calls) == 2 * 15


def test_variants_of_one_curve_share_its_controlled_entries(monkeypatch):
    # each row equals its own estimate, and the four entries of the
    # three-round curve are formed once, also for an equal config drawn
    # again after another draw; the other draw's curve has two entries, and
    # the no-head curve of the first draw three
    cfg = make_config(n_uavs=10, message_bits=150.0)
    pairs = [(cfg, mc.multi_round(rounds)) for rounds in (3, 1, 2)]
    pairs += [(cfg, mc.multi_round(2, with_head=False)), (replace(cfg, n_uavs=8), mc.PROPOSED),
              (cfg, mc.multi_round(3))]
    trials = mc.CONTROL_MIN_TRIALS
    own = [mc.estimate(c, p, trials, 14) for c, p in pairs]
    calls = []
    _count_calls(monkeypatch, calls, mc, "_entry")
    assert mc.estimate_variants(pairs, trials, 14) == own
    assert len(calls) == 4 + 3 + 2


def test_relay_gains_are_formed_once_per_kernel_call_and_only_to_relay(monkeypatch, config):
    # the five rows of a message_bits sweep share each run's draw and its
    # D2D pair gains, 64 trials at N=40 being runs of ten and six chunks of
    # 4; dist-k stops after the cellular stage and forms none, and neither
    # does a relaying curve whose cellular stage decodes every UAV
    pairs = [(replace(config, message_bits=bits), mc.PROPOSED) for bits in (8, 16, 24, 32, 40)]
    calls = []
    _count_calls(monkeypatch, calls, mc, "run_trial")
    _count_calls(monkeypatch, calls, fading, "relay_gains")
    mc.estimate_variants(pairs, 64, 15)
    assert calls == ["run_trial", "relay_gains"] * 2
    calls.clear()
    mc.phase1_count_distribution(config, 64, 15)
    assert calls == ["run_trial"] * 2
    calls.clear()
    everyone = mc.estimate(replace(config, message_bits=0.0), mc.multi_round(2), 64, 15)
    assert calls == ["run_trial"] * 2
    assert [est.eta_mean for est in everyone] == [1.0] * 3


def test_each_curve_s_thresholds_are_formed_once_per_command(monkeypatch, config):
    # the criterion-3 sweep at 100 trials is three kernel calls at N=40, yet
    # the cellular threshold of each of its five rows is formed once
    pairs = [(replace(config, message_bits=bits), mc.PROPOSED) for bits in (8, 16, 24, 32, 40)]
    kernel, calls = [], []
    record_kernel_calls(monkeypatch, kernel)
    _count_calls(monkeypatch, calls, scenario, "stage_thresholds")
    mc.estimate_variants(pairs, mc.CONTROL_MIN_TRIALS, 15)
    assert len(kernel) == 3 and calls == ["stage_thresholds"] * 5


def test_a_run_hands_each_chunk_the_blocks_its_last_placed_on(monkeypatch, config):
    # the lockstep windows go on from chunk to chunk: a 250-trial command at
    # N=10, one run of 16 chunks, places only its first trial with the
    # sampler (one call a chunk before), and the criterion-3 sweep at N=40,
    # three runs of five chunks, makes 11 calls, against 21 when each chunk
    # began with the sampler; the other calls are window breaks and lone
    # remainders
    calls = []
    _count_calls(monkeypatch, calls, geometry, "sample_hardcore_disk")
    mc.estimate(make_config(n_uavs=10, message_bits=150.0), mc.PROPOSED, 250, 7)
    assert len(calls) == 1
    calls.clear()
    pairs = [(replace(config, message_bits=bits), mc.PROPOSED) for bits in (8, 16, 24, 32, 40)]
    mc.estimate_variants(pairs, mc.CONTROL_MIN_TRIALS, 7)
    assert len(calls) <= 11


def test_a_bad_threshold_of_a_later_draw_fails_before_any_kernel_call(monkeypatch):
    # the second draw's decode threshold overflows: the command fails
    # before the first draw's trials are run
    cfg = make_config(n_uavs=10, message_bits=150.0)
    pairs = [(cfg, mc.PROPOSED), (replace(cfg, n_uavs=8, message_bits=102374.0), mc.PROPOSED)]
    calls = []
    record_kernel_calls(monkeypatch, calls)
    with pytest.raises(scenario.ConfigError, match="overflow"):
        mc.estimate_variants(pairs, mc.CONTROL_MIN_TRIALS, 12)
    assert calls == []


def test_protocols_on_one_seed_share_the_cellular_stage():
    # same serving set, combining and threshold on the same trial rng give
    # the same row 0 in each relay set, whatever happens in the relay rounds
    # afterwards; a curve without relay rounds has one set, the first
    cfg = make_config(n_uavs=10, message_bits=150.0)
    trials = 30
    row0 = lambda p: run_kernel([(cfg, p)], mc.trial_rng(10, 0), trials)[0][0][:, 0]
    assert np.array_equal(row0(mc.PROPOSED), row0(mc.HEAD_RELAY))
    all_gbs = run_kernel([(cfg, mc.ALL_GBS)], mc.trial_rng(10, 0), trials)[0][0]
    assert all_gbs.shape == (trials, 1, 1, 10)
    assert np.array_equal(row0(mc.multi_round(1)), row0(mc.multi_round(3)))
    for rounds in (1, 3):
        assert np.array_equal(all_gbs[:, 0, 0], row0(mc.multi_round(rounds))[:, 0])
    cellular = run_kernel([(cfg, replace(mc.PROPOSED, rounds=0))], mc.trial_rng(10, 0),
                            trials)[0][0]
    assert cellular.shape == (trials, 1, 1, 10)
    assert np.array_equal(cellular[:, 0, 0], row0(mc.PROPOSED)[:, 0])
    # nearest_gbs serves from one of the same layouts and fading
    nearest = row0(mc.NEAREST_GBS)
    assert nearest.shape == (trials, 1, 10) and not np.array_equal(nearest[:, 0], all_gbs[:, 0, 0])


def test_variants_share_a_draw_only_when_only_thresholds_differ():
    # estimate_variants draws a variant with a wider swarm on its own
    cfg = make_config(n_uavs=10)
    wider = replace(cfg, swarm_radius_m=2.0 * cfg.swarm_radius_m)
    pairs = [(cfg, mc.PROPOSED), (replace(cfg, message_bits=80.0), mc.ALL_GBS),
             (wider, mc.PROPOSED)]
    assert mc.estimate_variants(pairs, 30, 12) == [mc.estimate(c, p, 30, 12) for c, p in pairs]
    # an unvalidated config with a NaN is named not finite, field by field,
    # and the trials do not compute from it without a word
    nan = replace(cfg, rician_k=math.nan)
    with pytest.raises(ValueError, match="rician_k: must be finite, got nan"):
        mc.estimate(nan, mc.PROPOSED, 10, 12)
    with pytest.raises(ValueError, match="rician_k: must be finite, got nan"):
        mc.estimate_variants([(cfg, mc.PROPOSED), (nan, mc.PROPOSED)], 10, 12)
    with pytest.raises(ValueError, match="rician_k: must be finite, got nan"):
        mc.phase1_count_distribution(nan, 10, 12)


@pytest.mark.parametrize("field, value", [("rician_k", math.nan), ("coverage_radius_m", -900.0)])
def test_library_calls_refuse_invalid_configs(monkeypatch, field, value):
    # each entry point validates every config it is handed before any draw,
    # a valid one handed first included
    cfg = make_config(n_uavs=10)
    bad = replace(cfg, **{field: value})
    calls = []
    record_kernel_calls(monkeypatch, calls)
    for call in (lambda: mc.estimate(bad, mc.PROPOSED, 50, 3),
                 lambda: mc.estimate_variants([(cfg, mc.PROPOSED), (bad, mc.ALL_GBS)], 50, 3),
                 lambda: mc.phase1_count_distribution(bad, 50, 3)):
        with pytest.raises(scenario.ConfigError, match=f"{field}: must be"):
            call()
    assert calls == []


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
    # one trial has no spread to estimate its standard error from
    one = mc.phase1_count_distribution(cfg, 1, 8)
    assert one.pmf[40] == 1.0 and math.isnan(one.std_err_count)


def test_phase1_count_matches_expectation(config):
    # the closed form is an approximation: allow 2% relative plus Monte Carlo noise
    dist = mc.phase1_count_distribution(config, 1500, 12, workers=2)
    expected = analytic.reliability(config).expected_phase1
    assert abs(dist.mean_count - expected) < 0.02 * expected + 3.0 * dist.std_err_count


def test_estimate_validates_trials(config):
    with pytest.raises(ValueError):
        mc.estimate(config, mc.PROPOSED, 0, 1)


# --- the split protocols' relay round, exact over its fading ------------------


def _relay_scene(config, seed, trials):
    """One sampled swarm repeated over ``trials`` trials, with UAVs 0-2 relaying."""
    one = geometry.sample_swarm_layout(config, np.random.default_rng(seed), 1)[0]
    uav = np.broadcast_to(one, (trials, config.n_uavs, 2))
    relays = np.zeros((trials, config.n_uavs), dtype=bool)
    relays[:, :3] = True
    return uav, relays


def _decode_probs(uav, relays, config, threshold):
    """``fading.phase2_decode_probs`` of every UAV (trials, N) at planar ``uav`` when the
    ``relays`` relay: one row per UAV, each with its trial's relays."""
    rows = np.repeat(relays, relays.shape[1], axis=0)
    power = relay_power_everywhere(uav, relays, config).ravel()
    return fading.phase2_decode_probs(power, rows, config, threshold).reshape(relays.shape)


def test_phase2_decode_probs_match_sampled_frequency(config):
    # fixed layout and relay set: the exact probability against the share of
    # complex Rayleigh draws whose combined SINR reaches the threshold
    batch = 2_000
    uav, relays = _relay_scene(config, 40, batch)
    theta2 = scenario.stage_thresholds(config)[1]
    exact = _decode_probs(uav, relays, config, theta2)
    assert (exact == exact[0]).all()
    exact = exact[0, 3:]
    assert ((0.05 < exact) & (exact < 0.95)).sum() >= 30
    rng = np.random.default_rng(41)
    draws = 20_000
    hits = np.zeros(len(exact))
    gains = np.zeros((batch, 40, 40), dtype=complex)  # only the relays' columns are heard
    for _ in range(draws // batch):
        gains[:, :, :3] = fading.sample_rayleigh(rng, size=(batch, 40, 3))
        hits += (complex_gain_sinrs(uav, relays, gains, config)[:, 3:] >= theta2).sum(axis=0)
    sigma = np.sqrt(exact * (1.0 - exact) / draws)
    assert (np.abs(hits / draws - exact) <= 4.0 * sigma).all()


@pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
def test_phase2_sinrs_decode_as_often_as_complex_gains(config, scale):
    # fixed layout and relay set: per listener, the share of exponential
    # draws of phase2_sinrs that reach the threshold against the share of
    # complex Rayleigh draws combined by the oracle
    batch, draws = 2_000, 20_000
    uav, relays = _relay_scene(config, 44, batch)
    power = relay_power_everywhere(uav, relays, config)
    threshold = scale * scenario.stage_thresholds(config)[1]
    rng = np.random.default_rng(45)
    ours = np.zeros(37)
    oracle = np.zeros(37)
    gains = np.zeros((batch, 40, 40), dtype=complex)  # only the relays' columns are heard
    for _ in range(draws // batch):
        sinrs = fading.phase2_sinrs(power, fading.draw_phase2(config, rng, batch), config)
        ours += (sinrs[:, 3:] >= threshold).sum(axis=0)
        gains[:, :, :3] = fading.sample_rayleigh(rng, size=(batch, 40, 3))
        oracle += (complex_gain_sinrs(uav, relays, gains, config)[:, 3:] >= threshold).sum(axis=0)
    exact = _decode_probs(uav, relays, config, threshold)[0, 3:]
    assert ((0.05 < exact) & (exact < 0.95)).sum() >= 10
    sigma = np.sqrt(2.0 * exact * (1.0 - exact) / draws)
    assert (np.abs(ours - oracle) / draws <= 4.0 * sigma).all()


def test_phase2_decode_probs_limits(config):
    uav, relays = _relay_scene(config, 42, 2)
    nobody = np.zeros_like(relays)
    probs = lambda theta: _decode_probs(uav, relays, config, theta)[:, 3:]
    assert (probs(0.0) == 1.0).all()
    assert (_decode_probs(uav, nobody, config, 0.0) == 0.0).all()
    assert (_decode_probs(uav, nobody, config, 0.5) == 0.0).all()
    # at threshold 0 too, one probability per row, each of its own trial
    rows = np.array([[True, False], [False, False], [False, True]])
    assert _same_bits(fading.phase2_decode_probs(np.zeros(3), rows, config, 0.0),
                      np.array([1.0, 0.0, 1.0]))
    grid = [probs(t) for t in (0.1, 0.5, 2.0, 1e3)]
    assert all((a >= b).all() for a, b in zip(grid, grid[1:]))
    # one trial relays and the other does not: each gets its own answer
    mixed = relays.copy()
    mixed[1] = False
    got = _decode_probs(uav, mixed, config, 0.5)
    assert np.array_equal(got[0], _decode_probs(uav, relays, config, 0.5)[0])
    assert (got[1] == 0.0).all()
    # a path gain that underflows to 0, and a ratio past exp's range, give 0
    with np.errstate(over="ignore"):
        far = fading.relay_gains(uav * 1e300, np.ones_like(relays), config)
    assert (far == 0.0).all()
    rows = np.repeat(relays, relays.shape[1], axis=0)
    far_probs = lambda theta: fading.phase2_decode_probs(fading.relay_power(far, rows), rows,
                                                         config, theta).reshape(relays.shape)
    with np.errstate(all="raise"):
        assert (far_probs(0.5)[:, 3:] == 0.0).all()
        assert (far_probs(0.0)[:, 3:] == 1.0).all()
        assert (probs(1e300) == 0.0).all()


def test_phase2_decode_probs_at_edge_powers_match_the_masked_divide(config):
    # exp(-ratio / power) against the guarded form it replaced, bit for bit:
    # a power of 0 or a subnormal one, the powers around ratio/746 and
    # ratio/745 where exp leaves the float range, inf, and a spread between
    theta = scenario.stage_thresholds(config)[1]
    ratio = theta * config.intf_noise_phase2_w / config.tx_power_uav_w
    edges = np.array([0.0, 5e-324, 1e-310, ratio / 746.0, ratio / 745.0, ratio, np.inf])
    power = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, 0.0),
                            ratio * np.logspace(-4, 4, 2_000)])
    relays = np.ones((len(power), 1), dtype=bool)  # each row's trial has a relay
    guarded = np.exp(-np.divide(ratio, power, out=np.full(power.shape, np.inf),
                                where=power > ratio / 746.0))
    with np.errstate(all="raise"):
        probs = fading.phase2_decode_probs(power, relays, config, theta)
    assert _same_bits(probs, guarded)
    assert probs[0] == 0.0 and probs[len(edges) - 1] == 1.0


def sampled_relay_fractions(config, protocol, trials, seed):
    """Per-trial decoded fractions of a split protocol with its relay round sampled.

    On the chunks of ``mc.estimate``, the relay round is one Rayleigh draw
    and a threshold test on the chunk's rng, right after the cellular stage;
    the geometry is replayed from a second copy of the chunk's stream.
    """
    theta2 = scenario.stage_thresholds(config)[1]

    def chunk(start, stop):
        rng = mc.trial_rng(seed, start)
        cellular = [(config, replace(protocol, rounds=0))]
        decoded = run_kernel(cellular, rng, stop - start)[0][0][:, 0, 0] > 0
        replay = mc.trial_rng(seed, start)
        geometry.sample_gbs_layout(config, replay, stop - start)
        uav = geometry.sample_swarm_layout(config, replay, stop - start)[0]
        relays = decoded.copy()
        if protocol.name == "head_relay":
            relays[:, 1:] = False
        gains = fading.draw_phase2(config, rng, stop - start)
        sinrs = fading.phase2_sinrs(relay_power_everywhere(uav, relays, config), gains, config)
        decoded |= (sinrs >= theta2) & relays.any(axis=1, keepdims=True)
        return decoded.sum(axis=1) / config.n_uavs

    runs = mc._runs(trials, 1, 1)  # chunk bounds, whatever the runs
    return np.concatenate([chunk(start, stop) for bounds in runs
                           for start, stop in zip(bounds, bounds[1:])])


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


# --- the chunk kernel against the per-trial kernel it replaced ----------------


@pytest.mark.parametrize("protocol", [
    mc.PROPOSED, mc.NEAREST_GBS, mc.ALL_GBS, mc.HEAD_RELAY,
    mc.multi_round(4), mc.multi_round(4, with_head=False),
], ids=lambda p: p.label)
@pytest.mark.parametrize("overrides", [{}, {"n_uavs": 10, "message_bits": 150.0}],
                         ids=["reference", "n10-150bits"])
def test_chunk_kernel_agrees_with_per_trial_kernel(protocol, overrides):
    # different streams, same distribution: the cellular row and the last
    # row agree within 4 combined standard errors over 2,000 trials
    cfg = make_config(**overrides)
    trials = 2_000
    chunked = mc.estimate(cfg, protocol, trials, 1010)
    oracle = per_trial_kernel.decoded_fractions(cfg, protocol, trials, 1011)
    for row in (0, -1):
        ref = oracle[:, row]
        ref_se = ref.std(ddof=1) / math.sqrt(trials)
        gap = abs(chunked[row].eta_mean - ref.mean())
        assert gap <= 4.0 * math.hypot(chunked[row].std_err, ref_se), (row, gap)
