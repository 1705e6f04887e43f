"""Monte Carlo estimation of delivery reliability for every protocol.

Each trial draws fresh geometry and fading, runs the selected protocol, and
reports each UAV's decode probability after the cellular stage and after
each relay round; ``estimate`` averages that into the reliability curve, one
estimate per stage.  Every relay round is ``Protocol``'s one step, exact
over its Rayleigh fading given the relay set, for a smaller standard error.

The cellular stage is conditioned on one line-of-sight phase per UAV, that
of its link to the serving GBS nearest the swarm center (a choice made from
the layout alone).  Given everything else, a UAV's outcome turns on that
phase alone, except the head's under its own weights, so its decode
probability q is exact (``fading.phase1_decode_probs``) and the outcomes are
independent.  A trial's cellular entry is sum_i q_i / N.  Its relay rounds
are averaged over S = ``_RELAY_SETS`` relay sets, each redrawn given at
least one decoder where it has none though some UAV could decode, and
weighted by 1 - pi_0, pi_0 = prod_i (1 - q_i): nobody relays without a
decoder, so both entries are unbiased.  Set 0 is the sampled decoders.  Set
k decodes UAV i iff its share of the phases that reach its drawn SINR, a
uniform, shifted by k / S modulo 1, is below q_i: each set has the
decoders' law, the S are stratified, and none draws anything (``run_trial``).
Relay round 1 is less a control of mean 0 over the sets' law, each UAV's
first-order expansion about its expected relay power (``run_trial``).

Trials run in chunks whose bounds depend only on the trial count, and each
chunk is drawn on its own rng seeded from (master_seed, the chunk's first
trial).  One kernel call takes a run of consecutive chunks, by one rule at
any worker count (``_runs``): it draws each chunk on its own rng, then
decodes the whole run at once, one curve for each (protocol, thresholds)
it is handed, all of one draw.  Which of a command's (config, protocol)
pairs share a curve, which curves a draw, and each curve's thresholds are
decided once, in ``estimate_variants``.  A trial's values are those of a
call on its chunk alone, so results are a function of (config, seed,
trials), whatever the runs or the worker count.

From ``CONTROL_MIN_TRIALS`` trials up, each entry of every curve, relay
rounds included, is a regression control-variate estimate: the sample mean
less the fitted effect of eight features of each trial's GBS layout and
cellular fading, whose means are exact (``_control_features``,
``_feature_means``).  It draws nothing more.  Each entry fits its own
coefficients to its own column, so the prefix property holds, but a
curve of several relay rounds is not non-decreasing by construction: none
has been seen to fall, and an entry whose trials all decoded is exactly 1.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, fading, geometry, scenario
from .scenario import ScenarioConfig

__all__ = [
    "Protocol",
    "PROPOSED",
    "NEAREST_GBS",
    "ALL_GBS",
    "HEAD_RELAY",
    "PROTOCOLS",
    "multi_round",
    "ReliabilityEstimate",
    "Phase1CountDistribution",
    "run_trial",
    "estimate",
    "estimate_variants",
    "phase1_count_distribution",
]


@dataclass(frozen=True)
class Protocol:
    """A delivery protocol: a cellular stage, then ``rounds`` relay rounds.

    Its fields are its stages, and ``name`` only labels it.  ``split_slot``
    gives the cellular stage ``tau_phase1_s`` and the relays the rest, else
    each stage gets the whole slot; ``nearest`` has only the serving GBS
    nearest the swarm center transmit, else all serving GBSs do, with the
    head's pilot weights or unweighted with ``with_head=False``; and
    ``head_only`` has only the head relay, else every decoder does.
    ``PROPOSED`` (split slot) and ``HEAD_RELAY`` (split slot, head only)
    relay for one round, ``NEAREST_GBS`` (nearest) and ``ALL_GBS`` not at
    all, and ``multi_round`` for its rounds.

    The cellular stage gives each UAV its decode probability over one
    line-of-sight phase and takes S stratified relay sets from its phases,
    each given at least one decoder, which share every relay round's draw
    (the module docstring).  Every relay round is one step, whatever
    the protocol: each speaker that has decoded relays over D2D, over the
    fixed geometry with fresh fading, to every UAV still to decode.  A
    listener's probability is exact over the round's Rayleigh fading given
    that relay set, and never below the round before's.  Only if a later
    round follows is each listener's outcome sampled from the same law, to
    add its decoders to the next round's relays, so an R-round protocol
    samples R - 1 rounds.
    """

    name: str
    rounds: int = 0
    with_head: bool = True
    split_slot: bool = False
    nearest: bool = False
    head_only: bool = False

    @property
    def label(self) -> str:
        if self.name != "multi_round":
            return self.name
        suffix = "" if self.with_head else "_nohead"
        return f"multi_round{self.rounds}{suffix}"


PROPOSED = Protocol("proposed", rounds=1, split_slot=True)
NEAREST_GBS = Protocol("nearest_gbs", nearest=True)
ALL_GBS = Protocol("all_gbs")
HEAD_RELAY = Protocol("head_relay", rounds=1, split_slot=True, head_only=True)
# the fixed protocols by name, in the order ``compare`` reports them
PROTOCOLS = {p.name: p for p in (PROPOSED, NEAREST_GBS, ALL_GBS, HEAD_RELAY)}


def multi_round(rounds: int, with_head: bool = True) -> Protocol:
    if rounds < 1:
        raise scenario.ConfigError("rounds: multi_round requires rounds >= 1")
    return Protocol("multi_round", rounds=rounds, with_head=with_head)


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Mean decoded fraction with its standard error.

    It is the sample mean of the trials' decoded fractions, each
    conditioned on one line-of-sight phase per UAV (the module docstring),
    or from ``CONTROL_MIN_TRIALS`` trials up, whatever the protocol, its
    control-variate estimate on the eight layout and member-fading features
    (``_entry``), with the residual standard error.  An entry whose trials
    all read 0, or all 1, has a ``std_err`` of 0.0, yet its rate is not
    known exactly: with no other trial seen, eta (or 1 - eta) is below
    about 3 / trials at 95% (the rule of three).
    """

    eta_mean: float
    std_err: float  # NaN when trials == 1
    trials: int
    seed: int


@dataclass(frozen=True)
class Phase1CountDistribution:
    """Empirical pmf of the cellular-stage decoder count over {0..N}."""

    pmf: np.ndarray
    trials: int
    seed: int

    @property
    def mean_count(self) -> float:
        return float((np.arange(len(self.pmf)) * self.pmf).sum())

    @property
    def mode(self) -> int:
        return int(np.argmax(self.pmf))

    @property
    def std_err_count(self) -> float:
        second = float((np.arange(len(self.pmf)) ** 2 * self.pmf).sum())
        var = max(0.0, second - self.mean_count**2)
        if self.trials < 2:
            return math.nan
        return math.sqrt(var / self.trials)


# trials from which a curve entry is a control-variate estimate: the
# regression spends up to nine degrees of freedom, eight features and the
# mean, and the benchmark's sweeps run 100 trials
CONTROL_MIN_TRIALS = 100
# a feature whose spread is below this share of its mean is constant to half
# the float digits, and a direction of the features whose singular value is
# below this share of a unit-spread column's norm is spanned by the others:
# neither is used as a control
_RESOLVABLE = math.sqrt(float(np.finfo(float).eps))
# trials times per-trial elements (N max(N, M)) that one kernel call may
# draw over several chunks: it bounds a run's (trials, N, M) cellular gains
# and its (K, N) pair gains, K <= trials N rows left to the relay stage, to
# about a MB, and decodes 100 trials at N=40 in 3 calls.  It does not count
# each curve's (1 + rounds) N probabilities or the (rounds - 1) N relay draws
# per trial, which grow with the round count past it, nor the S-fold relay rows
_RUN_ELEMENTS = 1 << 16
# the share q of R^2 at which the control features floor each squared GBS
# distance: on a wide cell their exact means are carried by near GBSs too
# rare to be drawn.  At q <= 1/9, a cell with R <= 3H is not floored
_DISTANCE_FLOOR = 0.1
# the largest float below 1: a uniform on [0, 1) picks an index by its inverse CDF
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
# the relay sets S of each trial of a relaying curve (``run_trial``): S = 3
# cut variance further, but added about three times S = 2's N=40 kernel time
_RELAY_SETS = 2


def trial_rng(master_seed: int, start: int) -> np.random.Generator:
    """The rng of the chunk that begins at trial ``start``; depends only on (master_seed, start)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, start)))


def _draw_key(config: ScenarioConfig) -> tuple:
    """Each (name, value) a draw reads: every attribute but message_bits and tau_phase1_s."""
    return tuple(kv for kv in vars(config).items() if kv[0] not in ("message_bits", "tau_phase1_s"))


def _thresholds(config: ScenarioConfig, protocol: Protocol) -> tuple[float, float | None]:
    """A curve's (cellular, D2D) decode thresholds (``scenario.stage_thresholds``)."""
    return scenario.stage_thresholds(config, whole_slot=not protocol.split_slot,
                                     relays=protocol.rounds > 0)


def run_trial(config: ScenarioConfig, curves, rngs, trials):
    """Decode probabilities of a run of chunks of trials, each chunk drawn on its own rng.

    ``config`` is the draw's config, and ``rngs`` and ``trials`` are the
    Generators and trial counts of a run of consecutive chunks.  Each of
    ``curves`` is (protocol, cellular threshold, D2D threshold), the last
    None without relay rounds, as ``estimate_variants`` plans them
    (``_thresholds``).  Returns ``(probs, cellular, draws)`` over the
    run's trials, in chunk order.  ``probs`` holds one float (trials, 1 +
    relay rounds, S, N) array per curve, S = ``_RELAY_SETS`` with relay
    rounds and 1 without: row 0 of a trial's set is its relay set (0 or 1),
    and row r the probability that each UAV has decoded by relay round r,
    each round ``Protocol``'s one step (``fading.phase2_decode_probs``).
    Set 0 is the sampled decoders, and set k decodes a UAV iff its phase
    share u (``fading.phase1_decode_probs`` at the drawn SINR), a uniform,
    shifted by k / S modulo 1 is below its q; a set with no decoder is
    redrawn given at least one (``_condition_on_a_decoder``).  A shifted
    uniform is uniform, so every set has the decoders' law given at least
    one and the sets' mean is unbiased; the sets draw nothing.  ``cellular``
    holds each curve's (trials, N) cellular decode probabilities q over the
    line-of-sight phases (the module docstring), its (trials,) relay
    weights 1 - pi_0 and its (trials,) round-1 control, 0 without relay
    rounds.  Round 1 scores UAV j 1 - L_j + L_j h(Z_j), h(P) = exp(-c / P),
    L_j = 1{j listens} and Z_j = L_j sum_t s_t 1{t in the set} g_tj (s the
    speakers, g the pair gains): to first order about mu_j = sum_t s_t q_t
    g_tj, 1 + beta_j Z_j + gamma_j L_j.  Nobody relays without a decoder, so
    under each set's law E Z_j = (1 - q_j) mu_j / (1 - pi_0) and E L_j = (1 -
    q_j - pi_0) / (1 - pi_0) exactly, and the control sum_j beta_j (Z_j - E
    Z_j) + gamma_j (L_j - E L_j), averaged over the sets, has mean 0: its
    coefficients read q and the gains, never the sets, and are not fitted.
    ``draws`` are the GBS layouts (trials, M, 2) and cellular gains
    (trials, N, M), whence the control features (``_control_features``).

    Each chunk's draw order is fixed: the GBS layouts, one hard-core
    placement per trial in trial order, the cellular fading, then one D2D
    draw (``fading.draw_phase2``) per relay round that a later round reads,
    R - 1 for the curves' most rounds R, whatever the outcomes.  So relay
    round r draws the same whatever the round count.  Which route places
    each swarm, as the run's chunks hand on their block count, is set out
    in ``geometry``'s module docstring; no route changes a draw.  Which
    curves share a draw is ``estimate_variants``' to decide.
    Everything after the draws works trial by trial, so a trial's values
    are those of a call on its chunk alone, bit for bit.  The D2D pair
    gains (``fading.relay_gains``) draw nothing; they are formed once, one
    row for each UAV whose q is below 1 in some relaying curve, as its
    control reads them, or that one leaves to the relay stage in some set.
    A round sums, decodes and samples only its curve's listeners still to
    decode, set by set on the round's one draw, each row's sum with the
    bits of the whole matrix's.
    """
    sampled = max(0, max(p.rounds for p, _, _ in curves) - 1)
    n, m, total = config.n_uavs, config.m_total, sum(trials)
    gbs, uav = np.empty((total, m, 2)), np.empty((total, n, 2))
    gains, relay_draws = np.empty((total, n, m), dtype=complex), np.empty((sampled, total, n))
    los, server = np.empty((total, n), dtype=complex), np.empty(total, dtype=np.intp)
    # the flat index of each (trial, UAV) link to GBS 0 in a chunk's (trials, N, M) draw
    first_links = (np.arange(max(trials))[:, None] * n + np.arange(n)) * m
    stop, blocks = 0, None
    for chunk_rng, size in zip(rngs, trials):
        start, stop = stop, stop + size
        gbs[start:stop] = geometry.sample_gbs_layout(config, chunk_rng, size)
        uav[start:stop], blocks = geometry.sample_swarm_layout(config, chunk_rng, size, blocks)
        gains[start:stop], phasors = fading.draw_phase1(config, chunk_rng, size)
        # of the line-of-sight terms only those of each UAV's link to the
        # serving GBS nearest the swarm center are kept
        server[start:stop] = fading.nearest_server(gbs[start:stop], config)
        np.take(phasors, first_links[:size] + server[start:stop, None], out=los[start:stop])
        for draw in relay_draws:
            draw[start:stop] = fading.draw_phase2(config, chunk_rng, size)
    laws, shares = {}, {}  # by head weighting and serving set
    decodes, cellular = [], []
    pending = np.zeros((total, n), dtype=bool)  # some relaying curve's q < 1, or a listener
    for protocol, cell_threshold, _ in curves:
        cell = (protocol.with_head, protocol.nearest)
        if cell not in laws:
            laws[cell] = fading.phase1_sinrs(gbs, uav, gains, config, *cell, los, server)
        sinrs, base, swing = laws[cell]
        decoded = sinrs >= cell_threshold
        exact = fading.phase1_decode_probs(base, swing, cell_threshold)
        np.copyto(exact, decoded, where=np.isnan(exact))
        none = np.prod(1.0 - exact, axis=1)  # pi_0, the chance that nobody decodes
        if protocol.rounds:
            if cell not in shares:
                # set k's share u of the phases that reach the drawn SINR is
                # set 0's shifted by k / S modulo 1: NaN where no phase turns it
                u = (fading.phase1_decode_probs(base, swing, sinrs)
                     + np.arange(_RELAY_SETS)[:, None, None] / _RELAY_SETS)
                u[1:] -= u[1:] >= 1.0
                shares[cell] = u, np.fmin(u[1:], _BELOW_ONE)
            u, below = shares[cell]
            sets = np.concatenate([decoded[None], below < exact])  # NaN decodes iff q = 1
            decoded = sets.reshape(-1, n)
            _condition_on_a_decoder(decoded, exact, none, u.reshape(-1, n))
            pending |= ~sets.all(axis=0) | (exact < 1.0)
        decodes.append(decoded)
        cellular.append((exact, none))
    path_gain = fading.relay_gains(uav, pending, config) if pending.any() else np.empty((0, n))
    # the pair gains' row of each pending (trial, UAV), in every relay set
    slot = np.tile(np.cumsum(pending).reshape(total, n) - 1, (_RELAY_SETS, 1))
    out, relaying = [], []  # each relaying curve's index, round-1 (Z, L), speakers and c
    for v, ((protocol, _, d2d_threshold), decoded) in enumerate(zip(curves, decodes)):
        rounds, sets = protocol.rounds, len(decoded) // total
        probs = np.empty((1 + rounds, len(decoded), n))  # round by round, returned trial by trial
        probs[0] = decoded
        speakers = np.arange(n) == 0 if protocol.head_only else np.ones(n, dtype=bool)
        for r in range(1, rounds + 1):
            # one row per listener still to decode, set by set in row-major order
            listening = ~decoded
            relays = decoded & speakers
            counts = listening.sum(axis=1)
            row_relays = np.repeat(relays, counts, axis=0)
            power = fading.relay_power(np.take(path_gain, slot[listening], axis=0), row_relays)
            heard = fading.phase2_decode_probs(power, row_relays, config, d2d_threshold)
            if r == 1:  # each UAV's relay power Z and listening L, averaged over the sets
                first = np.zeros((2, len(decoded), n))
                first[0][listening], first[1] = power, listening
                ratio = d2d_threshold * config.intf_noise_phase2_w / config.tx_power_uav_w
                relaying.append((v, first.reshape(2, sets, total, n).mean(axis=1), speakers, ratio))
            # exact over this round's fading given the relay set; a curve
            # that relays from a grown set never falls, and the maximum
            # keeps rounding from making it
            probs[r] = decoded
            probs[r][listening] = heard
            np.maximum(probs[r], probs[r - 1], out=probs[r])
            if r < rounds:
                # the sampled outcome sets the next round's relays; with
                # nobody relaying there is no transmission to decode.  The
                # sets share the round's draw
                draw = np.tile(relay_draws[r - 1], (sets, 1))[listening]
                sinrs = fading.phase2_sinrs(power, draw, config)
                decoded[listening] = ((sinrs >= d2d_threshold)
                                      & np.repeat(relays.any(axis=1), counts))
        out.append(probs.reshape(1 + rounds, sets, total, n).transpose(2, 0, 1, 3))
    controls = np.zeros((len(curves), total))
    if relaying:
        controls[[v for v, *_ in relaying]] = _first_round_controls(relaying, cellular, path_gain,
                                                                    pending)
    cellular = [(exact, 1.0 - none, control) for (exact, none), control in zip(cellular, controls)]
    return out, cellular, (gbs, gains)


def _first_round_controls(relaying, laws, path_gain, pending):
    """``run_trial``'s round-1 controls (curves, trials), all relaying curves in one pass.

    beta = h'(mu) and gamma = h(mu) - 1 - beta mu are 0 and -1, their
    limits, at mu = 0.  A UAV's term is left out where it is not finite: an
    infinite pair gain, or pi_0 = 1.
    """
    rows, first, speakers, ratio = zip(*relaying)
    (heard, listening), ratio = np.stack(first, axis=1), np.array(ratio)[:, None, None]
    exact = np.stack([laws[v][0] for v in rows])
    none = np.stack([laws[v][1] for v in rows])[:, :, None]
    gains = np.zeros((*pending.shape, pending.shape[1]))  # (trials, j, t)
    gains[pending] = path_gain
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        mu = np.einsum("cit,ijt->cij", exact * np.stack(speakers)[:, None], gains)
        h = np.where(mu > 0.0, np.exp(-ratio / mu), 0.0)  # h(0) = 0, whatever c
        beta = np.where(h > 0.0, ratio / (mu * mu) * h, 0.0)
        gamma = h - 1.0 - beta * mu
        term = (beta * (heard - (1.0 - exact) * mu / (1.0 - none))
                + gamma * (listening - (1.0 - exact - none) / (1.0 - none)))
    term[~np.isfinite(term)] = 0.0
    return term.sum(axis=2)


def _condition_on_a_decoder(decoded, exact, none, shares):
    """Redraw, in place, the cellular decoders of each trial where none decoded but some could.

    ``decoded`` (S trials, N) are the relay sets of ``run_trial``, set by
    set, and ``shares`` their shares u, ``exact`` the trials' decode
    probabilities q over the line-of-sight phases and ``none`` pi_0 = prod_i
    (1 - q_i).  A UAV whose SINR turns on its phase is in a set iff u, a
    uniform, is below q; so given that it is not, v = (u - q) / (1 - q) is
    uniform on (0, 1) and independent of everything else.  A redrawn set's
    first decoder is the inverse CDF of the first one at the first such UAV's v,
    and each later UAV decodes iff its own v < q: the decoders' law given
    at least one.  Trials with a decoder, or with pi_0 = 1, are left alone.
    """
    trials = len(exact)
    redo = np.flatnonzero(~decoded.reshape(-1, *exact.shape).any(axis=2) & (none < 1.0))
    if not len(redo):
        return
    q = exact[redo % trials]
    with np.errstate(divide="ignore", invalid="ignore"):
        spare = (shares[redo] - q) / (1.0 - q)
    np.clip(spare, 0.0, _BELOW_ONE, out=spare)  # NaN where the SINR does not turn on the phase
    rows = np.arange(len(redo))
    first = spare[rows, np.argmax(~np.isnan(spare), axis=1)]
    reached = 1.0 - np.cumprod(1.0 - q, axis=1)  # P(one of UAVs 0..j decodes)
    pick = np.argmax(reached > first[:, None] * reached[:, -1:], axis=1)
    chosen = (spare < q) & (np.arange(q.shape[1]) > pick[:, None])
    chosen[rows, pick] = True
    decoded[redo] = chosen


def _control_features(draws, config: ScenarioConfig) -> np.ndarray:
    """The eight control features (trials, 8) of a run's ``run_trial`` draws.

    ``draws`` are the GBS layouts (trials, M, 2) and the cellular gains
    (trials, N, M).  With D_m GBS m's 3-D distance to the swarm center,
    floored at sqrt(c) for c = max(H^2, q R^2), q = ``_DISTANCE_FLOOR``, and
    alpha the cellular path-loss exponent, A = sum of D_m^(-alpha/2) and S =
    sum of D_m^-alpha over the serving GBSs, and I = sum of D_m^-alpha over
    the occupied ones; the features are A, S, I, A^2, I^2, A I and, over
    the members i >= 1, the mean member signal mean_i |sum_serving h_im w_m
    D_m^(-alpha/2)|^2, w the head's weights (``fading.head_weights``), and
    the mean member interference mean_i sum_occupied |h_im|^2 D_m^-alpha,
    both 0 without members.  Their exact means are ``_feature_means``.
    """
    gbs, gains = draws
    m0, members = config.m_available, max(1, config.n_uavs - 1)
    h, r = config.swarm_altitude_m, config.coverage_radius_m
    # a feature that is not finite only leaves its draw's entries raw
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        amp = np.einsum("tmk,tmk->tm", gbs, gbs)
        amp += h * h
        np.maximum(amp, max(h * h, _DISTANCE_FLOOR * r * r), out=amp)
        np.power(amp, -config.pathloss_exp_cell / 4.0, out=amp)
        serving, occupied = amp[:, :m0], amp[:, m0:]
        a = serving.sum(axis=1)
        i = np.einsum("tm,tm->t", occupied, occupied)
        signal = np.einsum("tnm,tm->tn", gains[:, 1:, :m0],
                           fading.head_weights(gains[:, 0, :m0]) * serving)
        scattered = gains[:, 1:, m0:]
        interference = np.einsum("tnm,tm->t", scattered.real ** 2 + scattered.imag ** 2,
                                 occupied * occupied)
        return np.stack([a, np.einsum("tm,tm->t", serving, serving), i, a * a, i * i, a * i,
                         (signal.real ** 2 + signal.imag ** 2).sum(axis=1) / members,
                         interference / members], axis=1)


def _feature_means(config: ScenarioConfig) -> np.ndarray | None:
    """The exact means of the eight control features, or None where they are not finite.

    D^2 is uniform on [H^2, H^2 + R^2] (``analytic._distance_power_moments``),
    so the floored one of ``_control_features`` has a mass (c - H^2) / R^2
    at c and is uniform on [c, H^2 + R^2] else.  The GBS distances are
    i.i.d., so E[A^2] = m0 E[D^-alpha] + m0 (m0 - 1) E[D^(-alpha/2)]^2, and
    so on.  The fading is independent of the layout, with E h = 0 under its
    random line-of-sight phase and E|h|^2 = 1, and the head's weights are
    independent of the members' fading, so the mean member signal has mean
    m0 E[D^-alpha] and the mean member interference m1 E[D^-alpha].
    """
    alpha, h, r = config.pathloss_exp_cell, config.swarm_altitude_m, config.coverage_radius_m

    def moments(s):  # E[D^-s] and E[D^-2s]
        if _DISTANCE_FLOOR * r * r <= h * h:
            mean, var = analytic._distance_power_moments(h, r, s, 1.0, 1.0)
            return mean, var + mean * mean
        low, mass = math.sqrt(_DISTANCE_FLOOR) * r, _DISTANCE_FLOOR - (h / r) ** 2
        radius = math.hypot(h, math.sqrt(1.0 - _DISTANCE_FLOOR) * r)
        mean, var = analytic._distance_power_moments(low, radius, s, 1.0, 1.0)
        return (mass * low ** -s + (1.0 - mass) * mean,
                mass * low ** (-2.0 * s) + (1.0 - mass) * (var + mean * mean))

    try:
        (half, _), (full, second) = moments(alpha / 2.0), moments(alpha)
    except (analytic.MomentFitError, OverflowError):
        return None
    m0, m1 = config.m_available, config.m_occupied
    means = np.array([m0 * half, m0 * full, m1 * full,
                      m0 * full + m0 * (m0 - 1) * half * half,
                      m1 * second + m1 * (m1 - 1) * full * full,
                      m0 * m1 * half * full, m0 * full, m1 * full])
    return means if np.isfinite(means).all() else None


def _decoded_counts(config, curves, control, sampled, master_seed, bounds):
    """A run's table (trials, columns): each curve's expected decoded counts, 1 + rounds
    columns each, then the run's eight ``_control_features`` if ``control``.

    ``bounds`` are the run's chunk boundaries: chunk i holds trials
    [bounds[i], bounds[i + 1]) and is drawn on ``trial_rng(master_seed,
    bounds[i])``.  A trial's cellular column is sum_i q_i, and relay round
    r's is (1 - pi_0) sum_i p_ri, its mean over the S relay sets, each drawn
    given at least one decoder (``run_trial``), round 1's less its control,
    (1 - pi_0) (sum_i p_1i - control), whose mean over the sets' law is
    exactly 0: every column is unbiased for the decoded count.  With
    ``sampled`` the columns are the counts of ``run_trial``'s per-UAV values
    instead, the cellular one that of the sampled decoders.
    """
    rngs = [trial_rng(master_seed, start) for start in bounds[:-1]]
    # a squared length past the float range overflows to inf, which clears
    # every separation in placement and gives a path gain of 0, and a pair
    # distance that underflows to 0 a pair gain of inf: the limits wanted,
    # so neither is reported
    with np.errstate(over="ignore", divide="ignore"):
        probs, cellular, draws = run_trial(config, curves, rngs, np.diff(bounds).tolist())
    columns = [curve.sum(axis=3).mean(axis=2) for curve in probs]
    if not sampled:
        for counts, (exact, weight, first) in zip(columns, cellular):
            counts[:, 0] = exact.sum(axis=1)
            counts[:, 1:2] -= first[:, None]
            counts[:, 1:] *= weight[:, None]
    features = [_control_features(draws, config)] if control else []
    return np.concatenate(columns + features, axis=1)


@functools.cache
def _pool(workers: int):
    """The process pool of ``workers`` processes, started on first use and kept until exit."""
    from concurrent.futures import ProcessPoolExecutor  # here, so only pooled runs pay for it
    pool = ProcessPoolExecutor(max_workers=workers)
    # imported after this module, concurrent.futures is torn down first at exit
    atexit.register(pool.shutdown)
    return pool


def _runs(trials: int, workers: int, elements: int) -> list[list[int]]:
    """The chunk bounds of each kernel run of ``trials`` trials, in trial order.

    Chunk bounds depend only on ``trials``: about 16 chunks of at most 64
    trials.  A run is a stretch of consecutive chunks, given by its chunk
    boundaries, chunk i holding trials [bounds[i], bounds[i + 1]).  The
    runs are the fewest that keep each run's trials times ``elements`` per
    trial within ``_RUN_ELEMENTS`` (one chunk a run where a chunk alone
    does not), rounded up to a multiple of ``workers`` but at most one run
    a chunk, and the chunks are split evenly among them, so no worker draws
    most of the trials.  No trial's values depend on the runs.
    """
    chunk = max(1, min(64, math.ceil(trials / 16)))
    bounds = [*range(0, trials, chunk), trials]
    chunks = len(bounds) - 1
    fewest = -(-chunks // max(1, _RUN_ELEMENTS // (chunk * elements)))
    count = min(chunks, -(-fewest // workers) * workers)
    starts = [i * chunks // count for i in range(count)]
    return [bounds[a:b + 1] for a, b in zip(starts, [*starts[1:], chunks])]


def _gather_counts(config, curves, trials, master_seed, workers, control=False, sampled=False):
    """Each curve's (trials, 1 + rounds) counts and the draw's ``_regression``, or None.

    ``curves`` are the planned curves (``run_trial``) of ``config``'s draw,
    each computed once.  Each of the ``_runs`` is one ``_decoded_counts``
    call, here at one worker, else a task of the one pool per worker count,
    whose queued work is cancelled after a failed run.  The runs' tables
    come back in run order and fill one (trials, columns) table in chunk
    order, the same bit for bit at any worker count, and each curve gets a
    view of its columns.  The draw's features, and its regression, are
    formed only with ``control``, and every curve gets that regression.
    ``sampled`` is ``_decoded_counts``'.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    edges = [0, *itertools.accumulate(1 + protocol.rounds for protocol, _, _ in curves)]
    table = np.empty((trials, edges[-1] + (8 if control else 0)))
    start = 0
    # the largest per-trial arrays are the (N, N) pair gains and the (N, M) cellular ones
    elements = config.n_uavs * max(config.n_uavs, config.m_total)
    worker = functools.partial(_decoded_counts, config, curves, control, sampled, master_seed)
    mapper = map if workers <= 1 else _pool(workers).map
    for piece in mapper(worker, _runs(trials, workers, elements)):
        table[start:start + len(piece)] = piece
        start += len(piece)
    regression = _regression(table[:, edges[-1]:], config) if control else None
    return [(table[:, a:b], regression) for a, b in zip(edges, edges[1:])]


def _regression(features: np.ndarray, config: ScenarioConfig) -> np.ndarray | None:
    """What the controlled entries of one draw share, or None if they stay raw.

    The features, centered and scaled to unit spread, are U diag(s) V^T
    over the trials.  The columns of U whose singular values are
    resolvable from 0 span the controls; the features' mean offset o from
    the exact means rides along as a last row o V / s, which, dotted with
    an entry's coefficients on those columns, gives beta . o.  So the
    result is (trials + 1, p).  A feature with no resolvable spread is
    dropped (the interference terms when m_occupied = 0, the member terms
    when n_uavs = 1), and a direction the others span is too.  If a
    feature or an exact mean is not finite, none is used.
    """
    means = _feature_means(config)
    if means is None or not np.isfinite(features).all():
        return None
    center = features.mean(axis=0)
    spread = features.std(axis=0)
    kept = spread > _RESOLVABLE * np.abs(center)
    u, s, vt = np.linalg.svd((features[:, kept] - center[kept]) / spread[kept],
                             full_matrices=False)
    # a unit-spread column has norm sqrt(trials)
    rank = s > _RESOLVABLE * math.sqrt(len(features))
    offset = (center[kept] - means[kept]) / spread[kept]
    return np.vstack([u[:, rank], offset @ vt[rank].T / s[rank]])


def _entry(fractions: np.ndarray, regression, trials: int, master_seed: int):
    """One curve entry from each trial's decoded fraction.

    Without a ``_regression`` it is the sample mean; with one, the
    control-variate estimate mean - beta . (feature mean - exact mean),
    clamped to [0, 1], beta fitted to this entry's fractions alone.
    """
    mean = float(fractions.mean())
    if regression is None:
        std_err = math.nan if trials == 1 else float(fractions.std(ddof=1) / math.sqrt(trials))
        return ReliabilityEstimate(eta_mean=mean, std_err=std_err, trials=trials,
                                   seed=master_seed)
    basis, offset = regression[:-1], regression[-1]
    centered = fractions - mean
    # one entry at a time, so its bits do not depend on the other rows
    coef = np.einsum("ij,i->j", basis, centered)
    residuals = centered - np.einsum("ij,j->i", basis, coef)
    # residual variance on n - p - 1 degrees of freedom, times the
    # Lavenberg-Welch factor (n - 2) / (n - p - 2) for an estimated beta
    n, p = trials, basis.shape[1]
    squares = float(np.einsum("i,i->", residuals, residuals))
    variance = squares / (n - p - 1) * (n - 2) / (n - p - 2) / n
    eta = min(1.0, max(0.0, mean - float(np.einsum("i,i->", coef, offset))))
    return ReliabilityEstimate(eta_mean=eta, std_err=math.sqrt(variance), trials=trials,
                               seed=master_seed)


def estimate(
    config: ScenarioConfig,
    protocol: Protocol,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> list[ReliabilityEstimate]:
    """Mean decoded fraction after the cellular stage and after each relay round.

    Entry r is after relay round r, so entry ``protocol.rounds`` (the last)
    is the protocol's final figure.  The entries share their trials, and
    relay round r of an R-round trial draws what an r-round trial draws, so
    entry r is the last entry of an r-round run, bit for bit.
    """
    return estimate_variants([(config, protocol)], trials, master_seed, workers)[0]


def estimate_variants(variants, trials: int, master_seed: int, workers: int = 1) -> list:
    """The ``estimate`` curve of each (config, protocol) pair of ``variants``, on one seed.

    Which pairs share a curve, and which curves a draw, is decided here
    alone, over the whole command.  Pairs that differ only in relay round
    count are one curve: it is computed at the most rounds any of them
    asks, its entries are formed once, and each takes its prefix.  Curves
    whose configs differ only in ``message_bits`` and ``tau_phase1_s``
    (equal ``_draw_key``), wherever they are asked, share one draw per
    chunk, yet each equals its own ``estimate``.  Every config is
    validated (``scenario.validate``) and every curve's thresholds formed
    here once, before any draw, so a bad one fails first.
    """
    plan = {}  # draw -> curve -> its protocol at the most rounds asked, in order of first ask
    for config, protocol in variants:
        curves = plan.setdefault(_draw_key(scenario.validate(config)), {})
        key = (config, replace(protocol, rounds=0))
        curves[key] = max(curves.get(key, protocol), protocol, key=lambda p: p.rounds)
    planned = [[(p, *_thresholds(key[0], p)) for key, p in curves.items()]
               for curves in plan.values()]
    entries = {}
    for curves, draw in zip(plan.values(), planned):
        gathered = _gather_counts(next(iter(curves))[0], draw, trials, master_seed, workers,
                                  control=trials >= CONTROL_MIN_TRIALS)
        for key, (all_counts, regression) in zip(curves, gathered):
            entries[key] = [_entry(counts / key[0].n_uavs, regression, trials, master_seed)
                            for counts in all_counts.T]
    return [entries[config, replace(protocol, rounds=0)][:1 + protocol.rounds]
            for config, protocol in variants]


def phase1_count_distribution(
    config: ScenarioConfig,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> Phase1CountDistribution:
    """Empirical distribution of the cellular-stage decoder count.

    The trials stop after the cellular stage; the relay draws come after
    the cellular ones, so the counts are those of full ``PROPOSED`` trials.
    ``config`` is validated first (``scenario.validate``).
    """
    cellular = replace(PROPOSED, rounds=0)
    curve = (cellular, *_thresholds(scenario.validate(config), cellular))
    [(counts, _)] = _gather_counts(config, [curve], trials, master_seed, workers, sampled=True)
    pmf = np.bincount(counts[:, 0].astype(int), minlength=config.n_uavs + 1) / trials
    return Phase1CountDistribution(pmf=pmf, trials=trials, seed=master_seed)
