import math

import numpy as np
import pytest
from scipy import integrate, stats

from swarmrel import analytic, fading, geometry
from swarmrel.geometry import PlacementError

from conftest import make_config


def seed_hardcore_disk(n, radius, d_min, rng, attempts_per_point=10_000, layout_retries=100):
    """The one-dart-at-a-time sequential inhibition loop, kept as the oracle.

    ``geometry.sample_hardcore_disk`` must return the same placement, leave the
    rng in the same state and fail in the same cases.  On failure the oracle
    raises ``PlacementError`` whose message is the most points any layout
    placed.
    """
    if n == 0:
        return np.empty((0, 2))
    dmin2 = d_min * d_min
    most = 0
    for _ in range(layout_retries):
        pts = np.empty((n, 2))
        count = 0
        budget = attempts_per_point
        buf = np.empty((0, 2))
        pos = 0
        wedged = False
        while count < n:
            if pos >= len(buf):
                block = min(64, budget)
                if block == 0:
                    wedged = True
                    break
                buf = geometry.sample_uniform_disk(block, radius, rng)
                pos = 0
                budget -= block
            x, y = buf[pos]
            pos += 1
            if count == 0 or np.min((pts[:count, 0] - x) ** 2 + (pts[:count, 1] - y) ** 2) >= dmin2:
                pts[count, 0] = x
                pts[count, 1] = y
                count += 1
                budget = attempts_per_point
        if not wedged:
            return pts
        most = max(most, count)
    raise PlacementError(str(most))


def _placement(sampler, rng, args, kwargs):
    try:
        return sampler(*args, rng, **kwargs), None
    except PlacementError as exc:
        return None, exc


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((1, 30.0, 5.0), {}),
        ((10, 30.0, 5.0), {}),
        ((40, 30.0, 5.0), {}),
        ((60, 30.0, 5.0), {}),
        ((10, 10.0, 5.0), {}),
        ((8, 30.0, 0.0), {}),
        ((16, 10.0, 5.0), dict(attempts_per_point=200, layout_retries=5)),
    ],
    ids=["n1", "n10", "n40", "n60", "n10-r10", "dmin0", "wedged"],
)
def test_hardcore_matches_one_dart_oracle(args, kwargs, monkeypatch):
    # same darts, same points, same failures, same rng state afterwards; the
    # sampler's budget is its module constants
    for name, value in kwargs.items():
        monkeypatch.setattr(geometry, f"_{name.upper()}", value)
    failures = 0
    for seed in range(25):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            got, err = _placement(geometry.sample_hardcore_disk, rng_new, args, {})
            ref, ref_err = _placement(seed_hardcore_disk, rng_ref, args, kwargs)
            if ref_err is None:
                assert err is None and np.array_equal(got[0], ref)
            else:
                failures += 1
                assert err is not None
                assert f"the best layout placed {ref_err};" in str(err)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    if "layout_retries" in kwargs:
        assert failures == 50  # the short budget wedges every draw: the failure path ran


def test_uniform_disk_inside_radius():
    rng = np.random.default_rng(0)
    pts = geometry.sample_uniform_disk(10_000, 5.0, rng)
    assert (np.hypot(pts[:, 0], pts[:, 1]) <= 5.0).all()


def test_uniform_disk_mean_squared_radius():
    # E[r^2] = R^2 / 2 for a uniform disk
    rng = np.random.default_rng(1)
    r2 = (geometry.sample_uniform_disk(100_000, 900.0, rng) ** 2).sum(axis=1)
    se = r2.std(ddof=1) / np.sqrt(len(r2))
    assert abs(r2.mean() - 900.0**2 / 2.0) < 3.0 * se


def test_uniform_disk_radius_cdf():
    # r^2/R^2 CDF, Kolmogorov-Smirnov at the 1% level over 1e5 draws
    rng = np.random.default_rng(2)
    pts = geometry.sample_uniform_disk(100_000, 900.0, rng)
    r = np.hypot(pts[:, 0], pts[:, 1])
    result = stats.kstest(r, lambda x: (x / 900.0) ** 2)
    assert result.pvalue > 0.01


def test_gbs_layout_empty():
    cfg = make_config()
    # the sampler produces an empty layout when both counts are zero
    from dataclasses import replace

    raw = replace(cfg, m_available=0, m_occupied=0)  # bypasses validate on purpose
    rng = np.random.default_rng(3)
    layout = geometry.sample_gbs_layout(raw, rng, 4)
    assert layout.shape == (4, 0, 2)


def test_gbs_layout_distances_bounded(config):
    rng = np.random.default_rng(4)
    layout = geometry.sample_gbs_layout(config, rng, 50)
    assert layout.shape == (50, 16, 2)
    assert (np.hypot(layout[..., 0], layout[..., 1]) <= 900.0).all()


def test_swarm_layout_single_point():
    cfg = make_config(n_uavs=1)
    layout = geometry.sample_swarm_layout(cfg, np.random.default_rng(5), 3)[0]
    assert layout.shape == (3, 1, 2)
    gain = fading.relay_gains(layout, np.ones((3, 1), dtype=bool), cfg)
    assert gain.shape == (3, 1) and (gain == 0.0).all()


def test_swarm_layout_separation(config):
    cfg = make_config(n_uavs=30)
    rng = np.random.default_rng(6)
    layout = geometry.sample_swarm_layout(cfg, rng, 20)[0]
    assert layout.shape == (20, 30, 2)
    rows, cols = np.triu_indices(30, k=1)
    diff = layout[:, rows] - layout[:, cols]
    off = np.hypot(diff[..., 0], diff[..., 1])
    assert off.shape == (20, 435)
    assert off.min() >= 5.0
    planar = np.hypot(layout[..., 0], layout[..., 1])
    assert (planar <= 30.0).all()


def _count_per_trial_calls(monkeypatch):
    """The hard-core sampler, and the list of calls that ``geometry`` makes to it from now on."""
    per_trial = geometry.sample_hardcore_disk
    calls = []

    def counted(*args):
        calls.append(args)
        return per_trial(*args)

    monkeypatch.setattr(geometry, "sample_hardcore_disk", counted)
    return per_trial, calls


def _uniform_chunk_sampler_calls(trials, handed, blocks, n):
    """Sampler calls that place a chunk whose placements all take ``blocks`` blocks.

    A chunk handed a B of at most two opens a window at its first trial;
    otherwise the sampler places that trial.  A first slot that takes more
    than the handed B is placed by the sampler, one that takes fewer is
    kept, and a window of the placements' own B fills all its slots, as
    many as ``_WINDOW_PAIRS`` allows; one trial left goes to the sampler.
    """
    width = min(64, max(8, 2 * n)) if blocks == 1 else 64
    slots = max(1, geometry._WINDOW_PAIRS // (width * max(width, n)))
    calls, left = 0, trials
    if left and (handed is None or handed > geometry._WINDOW_BLOCKS):
        calls, left = 1, left - 1
    elif left > 1 and handed != blocks:
        calls, left = int(handed < blocks), left - 1
    while left > 1 and blocks <= geometry._WINDOW_BLOCKS:
        left -= min(slots, left)
    return calls + left


@pytest.mark.parametrize(
    "n, radius",
    [(10, 30.0), (40, 30.0), (20, 20.0), (1, 30.0), (40, 27.0), (40, 25.0), (8, 15.0)],
    ids=["n10-r30", "n40-r30", "n20-r20", "n1-r30", "n40-r27", "n40-r25", "n8-r15"],
)
def test_swarm_layouts_are_per_trial_placements_in_trial_order(n, radius, monkeypatch):
    # a chunk's swarms are the hard-core sampler's placements, one per trial,
    # in trial order on the chunk's rng, whether lockstep windows or the
    # sampler itself place them, and whatever B the chunk is handed: none,
    # as a run's first chunk, or the 1, 2 or 3 blocks a previous chunk ended
    # on.  Swarms of N=10 take one block of darts and N=40 ones two, so
    # windows place every trial of their chunks but a lone remainder; N=20
    # in a 20 m disk (4% take two blocks) and N=40 in 27 m (18% take three)
    # break windows mid-chunk; N=40 in 25 m mostly takes three, and the
    # sampler places such chunks; N=8 in 15 m often needs more than the
    # first 2N darts, and windows judge its whole blocks
    per_trial, calls = _count_per_trial_calls(monkeypatch)
    cfg = make_config(n_uavs=n, swarm_radius_m=radius)
    routed = []
    for handed in (None, 1, 2, 3):
        for trials in (1, 2, 7, 16, 64):
            for seed in range(9, 17):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                calls.clear()
                layout, ended = geometry.sample_swarm_layout(cfg, rng, trials, handed)
                sampled = len(calls)
                want = [per_trial(n, radius, 5.0, ref) for _ in range(trials)]
                assert np.array_equal(layout, np.stack([points for points, _ in want]))
                assert rng.bit_generator.state == ref.bit_generator.state
                blocks = {b for _, b in want}
                routed.append((handed, trials, sampled, blocks))
                if len(blocks) == 1:
                    # a chunk whose trials all take the handed B makes no
                    # sampler call, a lone remainder one
                    [b] = blocks
                    assert sampled == _uniform_chunk_sampler_calls(trials, handed, b, n)
                    # the B a next window takes: a lone trial opens none
                    alone = trials == 1 and handed is not None and handed <= 2
                    assert ended == (handed if alone else b)
                if want[0][1] > 2:
                    assert sampled == trials
                assert 0 <= sampled <= trials
    uniform = [(handed, trials, sampled) for handed, trials, sampled, blocks in routed
               if len(blocks) == 1]
    if n in (1, 10, 40) and radius == 30.0:
        assert max(trials for _, trials, _ in uniform) == 64
        assert any(sampled == 0 and trials >= 7 for _, trials, sampled in uniform)
    if (n, radius) in ((20, 20.0), (40, 27.0)):
        assert any(1 < sampled < trials for _, trials, sampled, _ in routed)
    if radius == 25.0:
        assert any(sampled == trials > 1 for _, trials, sampled, _ in routed)


def test_swarm_layout_fails_as_the_per_trial_loop_does(monkeypatch):
    # one layout and a budget of a few blocks of darts per point wedge some
    # placements: 16-dart blocks of 6 UAVs in a 10 m disk, and 64-dart ones
    # of 9 UAVs, which take one to three blocks, where a block that accepts
    # none leaves a 32-dart one.  The chunk then raises what the per-trial
    # loop raises, the best layout's count included, also when windows, of
    # one block a slot and of two, placed the trials before the wedged one,
    # and whatever B it is handed; and it leaves the rng where the loop does
    per_trial, calls = _count_per_trial_calls(monkeypatch)
    window, windows = geometry._place_window, []

    def recorded(out, radius, d_min, blocks, rng):
        windows.append(blocks)
        return window(out, radius, d_min, blocks, rng)

    monkeypatch.setattr(geometry, "_place_window", recorded)
    monkeypatch.setattr(geometry, "_LAYOUT_RETRIES", 1)
    for attempts, n, blocks in ((16, 6, 1), (96, 9, 2)):
        monkeypatch.setattr(geometry, "_ATTEMPTS_PER_POINT", attempts)
        cfg = make_config(n_uavs=n, swarm_radius_m=10.0)
        for handed in (None, 1, 2):
            after_windows = 0
            for seed in range(20):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                want = []
                try:
                    for _ in range(16):
                        want.append(per_trial(n, 10.0, 5.0, ref)[0])
                except PlacementError as exc:
                    calls.clear()
                    windows.clear()
                    with pytest.raises(PlacementError, match="the best layout placed") as got:
                        geometry.sample_swarm_layout(cfg, rng, 16, handed)
                    assert str(got.value) == str(exc)
                    after_windows += len(calls) < len(want) + 1 and blocks in windows
                else:
                    layout, _ = geometry.sample_swarm_layout(cfg, rng, 16, handed)
                    assert np.array_equal(layout, np.stack(want))
                assert rng.bit_generator.state == ref.bit_generator.state
            assert after_windows


def test_relay_gains_match_summed_squares_bitwise(config):
    # the in-place dx*dx + dy*dy, its root, the power and then the reference
    # gain give the bits of the reduction over the last axis; a UAV's own
    # link gains 0, and the gains are symmetric; the rows of some listeners
    # are those rows of every listener's, in row-major order, and no
    # listener gives no rows
    rng = np.random.default_rng(10)
    layout = geometry.sample_swarm_layout(config, rng, 50)[0]
    diff = layout[:, :, None, :] - layout[:, None, :, :]
    own = np.eye(40, dtype=bool)
    some = rng.random((50, 40)) < 0.3
    for alpha in (2.0, 3.0188):
        cfg = make_config(pathloss_exp_d2d=alpha)
        with np.errstate(divide="ignore"):
            want = cfg.ref_gain_d2d * np.sqrt((diff**2).sum(axis=-1)) ** -alpha
        gain = fading.relay_gains(layout, np.ones((50, 40), dtype=bool), cfg).reshape(50, 40, 40)
        assert np.array_equal(gain, np.where(own, 0.0, want))
        assert np.array_equal(gain, gain.transpose(0, 2, 1))
        assert np.array_equal(fading.relay_gains(layout, some, cfg), gain[some])
        assert fading.relay_gains(layout, np.zeros((50, 40), dtype=bool), cfg).shape == (0, 40)


def test_hardcore_feasible_at_reference_density():
    # N=40 in a 30 m disk with 5 m separation places without retries running out
    cfg = make_config()
    rng = np.random.default_rng(7)
    geometry.sample_swarm_layout(cfg, rng, 1000)


def test_hardcore_failure_is_reported(monkeypatch):
    rng = np.random.default_rng(8)
    monkeypatch.setattr(geometry, "_ATTEMPTS_PER_POINT", 200)
    monkeypatch.setattr(geometry, "_LAYOUT_RETRIES", 5)
    with pytest.raises(PlacementError, match=r"\(5 layouts x 200 attempts per point\)"):
        geometry.sample_hardcore_disk(16, 10.0, 5.0, rng)


def _pair_distance_pdf(w, radius):
    """Density of the distance between two uniform points in a disk, on [0, 2 radius]."""
    if w < 0.0 or w > 2.0 * radius:
        return 0.0
    x = w / (2.0 * radius)
    return (4.0 * w / (math.pi * radius**2)) * math.acos(x) - (
        2.0 * w**2 / (math.pi * radius**3)
    ) * math.sqrt(max(0.0, 1.0 - x * x))


def test_pair_distance_pdf_edges():
    assert _pair_distance_pdf(60.0, 30.0) == pytest.approx(0.0, abs=1e-12)
    assert _pair_distance_pdf(-1.0, 30.0) == 0.0
    assert _pair_distance_pdf(61.0, 30.0) == 0.0
    # full (untruncated) density normalizes over [0, 2R]
    total = integrate.quad(lambda w: _pair_distance_pdf(w, 30.0), 0.0, 60.0)[0]
    assert total == pytest.approx(1.0, abs=1e-10)


def test_truncated_pair_pdf_is_scaled_raw():
    mass = analytic.pair_distance_truncation(30.0, 5.0)
    # mass matches an independent quadrature of the raw density
    ref = integrate.quad(lambda w: _pair_distance_pdf(w, 30.0), 5.0, 60.0)[0]
    assert mass == pytest.approx(ref, abs=1e-10)


def test_truncated_pair_mass_near_the_diameter():
    # as d_min nears 2R the mass falls to ~1e-8, which 1 - [...] / pi, the
    # closed form in x = d_min / 2R, gets only to ~5e-8 relative
    mpmath = pytest.importorskip("mpmath")
    for d_min in (3.0, 36.0, 57.0, 59.97):
        x = mpmath.mpf(d_min) / 60
        with mpmath.workdps(40):
            ref = 1 - (8 * x**2 * mpmath.acos(x) + 2 * mpmath.asin(x)
                       - 2 * x * (1 + 2 * x**2) * mpmath.sqrt(1 - x**2)) / mpmath.pi
        assert analytic.pair_distance_truncation(30.0, d_min) == pytest.approx(float(ref), rel=1e-9)
