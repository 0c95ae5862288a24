"""Per-layer tracing of tandemlearn from outside the package.

The tracer replaces selected public functions and methods of the
package's modules with wrappers that record a span per call (id, name,
start, end, parent span id, repetition) and accumulate self time, call
counts and a few work counts.  Nothing inside the package changes; the
originals are restored when the tracer is uninstalled.

Self time of a span is its duration minus the time its child spans
cover.  Calls of functions that are not wrapped count toward the self
time of the nearest wrapped caller.

Hot leaf functions are called millions of times per repetition, so only
the first ``SPAN_CAP`` spans of each name in a repetition are kept as
records; every call still counts toward the totals, and the number of
spans not kept is written out with the spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

SPAN_CAP = 100
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "rep")
CHECK = "game.check_equilibrium"
PROPAGATE = "chain.propagate_dist"
COUNTED_CALLS = (
    "schedule.role_codes", "schedule.role_of", "profiles.rule", PROPAGATE, "rng.uniform"
)


def _sweep_agents(tr, args, kwargs, out, before):
    tr.counts["chain.sweep.agents"] += int(kwargs.get("N", args[2] if len(args) > 2 else 0))


def _chunk_bytes(tr, args, kwargs, out, before):
    tr.counts["profiles.rule_table_chunk.bytes"] += out.nbytes


def _draws(tr, args, kwargs, out, before):
    tr.counts["rng.uniform.draws"] += int(np.size(out))


def _agent_reps(tr, args, kwargs, out, before):
    config = kwargs.get("config", args[0] if args else None)
    tr.counts["montecarlo.agent_reps"] += config.N * config.reps


def _propagate_before(tr):
    return tr.calls[PROPAGATE]


def _checked(tr, args, kwargs, out, before):
    tr.counts["game.checked"] += out.checked
    tr.counts["game.propagate_in_check"] += tr.calls[PROPAGATE] - before


def layer_targets():
    """(span name, owner, attribute, pre hook, post hook) for every traced
    entry point.  Methods are patched on the class that defines them."""
    from tandemlearn import chain, cli, game, montecarlo, profiles, rng, schedule

    return [
        ("cli.main", cli, "main", None, None),
        ("schedule.role_codes", schedule.SegmentTable, "role_codes", None, None),
        ("schedule.role_of", schedule.SegmentTable, "role_of", None, None),
        ("profiles.rule", profiles.Profile, "rule", None, None),
        ("profiles.rule_table_chunk", profiles.DesignedProfile, "rule_table_chunk", None,
         _chunk_bytes),
        ("profiles.searching_mask", profiles.DesignedProfile, "searching_mask", None, None),
        ("chain.sweep", chain, "sweep", None, _sweep_agents),
        (PROPAGATE, chain, "propagate_dist", None, None),
        ("chain.window_distributions", chain, "window_distributions", None, None),
        ("rng.uniform", rng, "uniform", None, _draws),
        ("montecarlo.estimate_error", montecarlo, "estimate_error", None, _agent_reps),
        (CHECK, game, "check_equilibrium", _propagate_before, _checked),
    ]


class Tracer:
    """Span recorder for one benchmark run; install around traced calls."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, rep)
        self.dropped = Counter()
        self.reps = []  # per-repetition totals, see end_rep
        self._stack = []  # frames [span id, time covered by children]
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)
        self._rep = None
        self._kept = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _wrap(self, name, fn, pre, post):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(tracer) if pre else None
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.self_s[name] += dur - frame[1]
                tracer.total_s[name] += dur
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if tracer._kept[name] < SPAN_CAP:
                    tracer._kept[name] += 1
                    tracer.spans.append((frame[0], name, start, end, parent, tracer._rep))
                else:
                    tracer.dropped[name] += 1
            if post:
                post(tracer, args, kwargs, out, before)
            return out

        return traced

    def install(self):
        """Patch every target, including names other package modules
        imported from it (``from .chain import propagate_dist``)."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "tandemlearn"]
        for name, owner, attr, pre, post in layer_targets():
            original = owner.__dict__[attr]
            traced = self._wrap(name, original, pre, post)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def begin_rep(self, rep: int):
        self._rep = rep
        self._kept.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()

    def end_rep(self):
        self.reps.append(
            {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }
        )
        self._rep = None

    def write(self, path):
        """Spans as JSON lines, after a header line with the dropped counts."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"span_cap_per_rep": SPAN_CAP, "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def rep_metrics(rep: dict, factor: float) -> dict:
    """Per-layer metrics of one traced repetition, times scaled by the
    repetition's normalisation ``factor``."""
    calls, counts = rep["calls"], rep["counts"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    metrics = {
        f"{name}.s": factor * rep["self_s"].get(name, 0.0) for name, *_ in layer_targets()
    }
    metrics.update({f"{name}.calls": calls.get(name, 0) for name in COUNTED_CALLS})
    agents = counts.get("chain.sweep.agents", 0)
    draws = counts.get("rng.uniform.draws", 0)
    total_s = {name: factor * t for name, t in rep["total_s"].items()}
    metrics.update(
        {
            "profiles.rule_table_chunk.bytes": counts.get("profiles.rule_table_chunk.bytes", 0),
            "chain.sweep.agents": agents,
            "chain.sweep.ns_per_agent": ratio(total_s.get("chain.sweep", 0.0), agents, 1e9),
            "rng.uniform.draws": draws,
            "rng.ns_per_draw": ratio(total_s.get("rng.uniform", 0.0), draws, 1e9),
            "rng.draws_per_agent_rep": ratio(draws, counts.get("montecarlo.agent_reps", 0)),
            "game.propagate_per_check": ratio(
                counts.get("game.propagate_in_check", 0), counts.get("game.checked", 0)
            ),
        }
    )
    return metrics
