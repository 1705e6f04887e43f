"""Spans recorded from outside swarmrel by wrapping public module attributes.

Nothing in ``src/`` knows about tracing.  ``Tracer.patch()`` replaces the
module attributes listed in ``TRACED`` with wrappers that record one span per
call, and puts every original back when the block ends, even on error.  The
program looks these names up through the module at call time (``mc`` calls
``fading.draw_phase1``, ``reliability`` calls the global
``head_decode_prob``), so the wrappers see every call made in this process.
Worker processes are out of reach, so a traced run uses ``--workers 1``.

A span is ``(name, start, end, parent, command, tag)``: ``parent`` is the
index of the enclosing span or -1, ``command`` the id of the CLI command
that was running, and ``tag`` an optional value taken from the arguments.
Spans stay in memory and are written once, by ``write``.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) pairs that get a span per call
TRACED = (
    ("cli", "main"),
    ("mc", "trial_rng"),
    ("mc", "run_trial"),
    ("geometry", "sample_gbs_layout"),
    ("geometry", "sample_swarm_layout"),
    ("geometry", "sample_hardcore_disk"),
    ("fading", "draw_phase1"),
    ("fading", "phase1_sinrs"),
    ("fading", "draw_phase2"),
    ("fading", "phase2_sinrs"),
    ("analytic", "reliability"),
    ("analytic", "head_decode_prob"),
    ("analytic", "member_decode_prob"),
    ("analytic", "phase2_decode_prob"),
    ("specfun", "adaptive_quad"),
    ("specfun", "hyp2f2_with_scale"),
    ("specfun", "log_tricomi_u_scaled"),
)
# counted, not spanned: one span per 64-dart block would swamp the trace
COUNTED = (("geometry", "sample_uniform_disk"),)

HARDCORE = "geometry.sample_hardcore_disk"
QUAD = "specfun.adaptive_quad"
RELIABILITY = "analytic.reliability"

FIELDS = ("name", "start", "end", "parent", "command", "tag")


class Tracer:
    """Span and counter store for one traced phase of the benchmark."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.command = -1
        self._stack: list[int] = []

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, name, fn, tag=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.command,
                      tag(args) if tag else None]
            spans.append(record)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter()

        return traced

    def _wrap(self, module, attr, fn):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if name == RELIABILITY:
            return self.span(name, fn, tag=lambda args: args[0].swarm_radius_m)
        if name == HARDCORE:
            inner = self.span(name, fn)

            def hardcore(n, *args, **kwargs):
                out = inner(n, *args, **kwargs)
                self.counts["uavs_placed"] += n
                return out

            return hardcore
        if name == QUAD:
            inner = self.span(name, fn)

            def adaptive_quad(f, *args, **kwargs):
                # an infinite range recurses through adaptive_quad; count the
                # caller's integrand once, at the outermost call
                if self._parent_name() == QUAD:
                    return inner(f, *args, **kwargs)
                self.counts["quad_calls"] += 1

                def counted(x):
                    self.counts["quad_evals"] += 1
                    return f(x)

                return inner(counted, *args, **kwargs)

            return adaptive_quad
        if name == "geometry.sample_uniform_disk":

            def uniform_disk(n, *args, **kwargs):
                if self._parent_name() == HARDCORE:
                    self.counts["darts"] += n
                return fn(n, *args, **kwargs)

            return uniform_disk
        return self.span(name, fn)

    @contextmanager
    def patch(self):
        """Install the wrappers for the duration of the block."""
        from swarmrel import analytic, cli, fading, geometry, mc, specfun

        modules = {"cli": cli, "mc": mc, "geometry": geometry, "fading": fading,
                   "analytic": analytic, "specfun": specfun}
        saved = []
        try:
            for mod_name, attr in TRACED + COUNTED:
                module = modules[mod_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def tail(values):
    """(value, percentile, samples): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no such percentile exists and the value is None.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None, None, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


def block_tail(values, block=100):
    """Median over consecutive blocks of ``block`` values of each block's ``tail``.

    The tail of a whole run rests on its ten slowest samples, which on a
    shared host are bursts as often as the program; per block of 100 it is
    p89 and the median over blocks holds still.  With fewer than ``block``
    values the whole sample is one block.  Returns (value, percentile, block size).
    """
    blocks = [values[i:i + block] for i in range(0, len(values) - block + 1, block)] or [values]
    value, pct, n = tail(blocks[0])
    if value is None:
        return None, None, n
    return statistics.median(tail(b)[0] for b in blocks), pct, n


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer figures from one traced phase (see perfbench/README.md)."""
    selfs = self_times(spans)
    total = defaultdict(float)
    calls = Counter()
    for (name, *_), s in zip(spans, selfs):
        total[name] += s
        calls[name] += 1

    # the direct children of cli.main are the mc and analytic spans, so its
    # self time is parsing, validation, MC dispatch and CSV writing
    cli_self_ms = _ratio(1e3 * total["cli.main"], calls["cli.main"])

    trials = calls["mc.run_trial"]

    def per_trial_us(name):
        return _ratio(1e6 * total[name], trials)

    def per_call_us(name):
        return _ratio(1e6 * total[name], calls[name])

    seen, warm, cold = set(), [], []
    for name, start, end, _, _, radius in spans:
        if name != RELIABILITY:
            continue
        (warm if radius in seen else cold).append(end - start)
        seen.add(radius)
    p50 = 1e6 * statistics.median(warm) if warm else 0.0
    warm_tail = tail(warm)[0]

    head_idx = {i for i, s in enumerate(spans) if s[0] == "analytic.head_decode_prob"}
    head_quad = {s[3] for s in spans if s[0] == QUAD and s[3] in head_idx}
    n_rel = calls[RELIABILITY]
    return {
        "geometry.hardcore_us": per_trial_us(HARDCORE),
        "geometry.swarm_layout_us": per_trial_us("geometry.sample_swarm_layout"),
        "geometry.gbs_layout_us": per_trial_us("geometry.sample_gbs_layout"),
        "geometry.darts_per_uav": _ratio(counts["darts"], counts["uavs_placed"]),
        "fading.draw_phase1_us": per_trial_us("fading.draw_phase1"),
        "fading.phase1_sinrs_us": per_trial_us("fading.phase1_sinrs"),
        "fading.draw_phase2_us": per_trial_us("fading.draw_phase2"),
        "fading.phase2_sinrs_us": per_trial_us("fading.phase2_sinrs"),
        "fading.relay_calls_per_trial": _ratio(calls["fading.draw_phase2"], trials),
        "mc.trial_rng_us": per_trial_us("mc.trial_rng"),
        "mc.run_trial_self_us": per_trial_us("mc.run_trial"),
        "analytic.reliability_p50_us": p50,
        "analytic.reliability_tail_us": 1e6 * warm_tail if warm_tail is not None else 0.0,
        "analytic.cold_ms": 1e3 * statistics.median(cold) if cold else 0.0,
        "analytic.head_us": per_call_us("analytic.head_decode_prob"),
        "analytic.member_us": per_call_us("analytic.member_decode_prob"),
        "analytic.phase2_us": per_call_us("analytic.phase2_decode_prob"),
        "analytic.head_quad_share": _ratio(len(head_quad), len(head_idx)),
        "specfun.quad_calls": _ratio(counts["quad_calls"], n_rel),
        "specfun.quad_evals": _ratio(counts["quad_evals"], n_rel),
        "specfun.adaptive_quad_us": _ratio(1e6 * total[QUAD], n_rel),
        "specfun.hyp2f2_us": _ratio(1e6 * total["specfun.hyp2f2_with_scale"], n_rel),
        "specfun.tricomi_us": _ratio(1e6 * total["specfun.log_tricomi_u_scaled"], n_rel),
        "cli.self_ms": cli_self_ms,
    }
