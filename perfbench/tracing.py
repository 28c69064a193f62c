"""Spans around the calls into each layer, recorded from outside the package.

Tracer.install() replaces every binding of each traced function, in every
loaded flipwait module, with a timing wrapper; modules import names with
`from flipwait.X import f`, so patching only flipwait.X.f would leave the
internal calls untraced.  restore() puts the original objects back.  Spans
stay in memory; self time is a span's duration minus the time its child
spans cover.  Generator functions are timed per resumption, so the work a
caller pulls out of them lands in their span and not in the caller's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
from dataclasses import dataclass, field
from time import perf_counter

# Each traced function, the end-to-end metric it should move and the
# workloads it should move it on; the workloads in parentheses should show
# no change.
LAYERS = {
    "pattern.parse": ("ops_per_s; latency_p50_ms", "scan; expect"),
    "pattern.enumerate_patterns": ("ops_per_s", "scan"),
    "automaton.build": ("latency_p90_ms; ops_per_s", "expect die ops; simulate once the kernel is compiled"),
    "exact.absorption_times": ("ops_per_s, latency_p90_ms", "expect, scan (not series, simulate)"),
    "exact.correlation_set": ("ops_per_s", "scan (negligible on expect)"),
    "closed_form.dispatch": ("latency_p50_ms", "expect"),
    "counting.count_first_occurrence": ("ops_per_s, latency_p90_ms", "series (not expect, scan)"),
    "sequences.values": ("ops_per_s", "series"),
    "sequences.iter_values": ("ops_per_s", "series sum ops, through identities.verify_corollary"),
    "identities.partial_expectation": ("ops_per_s, latency_p90_ms", "series"),
    "identities.tail_bound": ("ops_per_s, latency_p90_ms", "series"),
    "identities.verify_corollary": ("ops_per_s, latency_p90_ms", "series"),
    "conjectures.scan": ("ops_per_s", "scan"),
    "simulate.simulate_wait": ("ops_per_s, latency_p50_ms", "simulate only"),
    "cli.main": ("latency_p50_ms", "expect, series"),
}
TRACED = tuple(LAYERS)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _add(extra: dict, key: str, amount) -> None:
    extra[key] = extra.get(key, 0) + amount


# Work counts recorded at the call boundary: (extra, args, kwargs, result).
def _states(extra, args, kwargs, result):
    _add(extra, "states", len(_arg(args, kwargs, 0, "p")))


def _cells(extra, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    _add(extra, "cells", (len(p) + 1) * p.alphabet_size)


def _hits(extra, args, kwargs, result):
    _add(extra, "hits", result is not None)


def _dp_cells(extra, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    _add(extra, "dp_cells", _arg(args, kwargs, 1, "N") * len(p) * p.alphabet_size)


def _scanned(extra, args, kwargs, result):
    _add(extra, "patterns", result.scanned)
    _add(extra, "spot_checks", result.spot_checks)


def _draws(extra, args, kwargs, result):
    _add(extra, "draws", result.total_flips)


EXTRAS = {
    "exact.absorption_times": _states,
    "automaton.build": _cells,
    "closed_form.dispatch": _hits,
    "counting.count_first_occurrence": _dp_cells,
    "conjectures.scan": _scanned,
    "simulate.simulate_wait": _draws,
}


@dataclass
class Stat:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    extra: dict = field(default_factory=dict)


class Tracer:
    """Wrappers record only while `enabled`; the harness sets it around each op."""

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.stats = {name: Stat() for name in TRACED}
        self.spans: list[tuple] = []  # (span_id, parent_id, op_id, name, start, end)
        self._stack: list[list] = []  # [span_id, start, seconds covered by children]
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "flipwait" or name.startswith("flipwait."))]
        for name in TRACED:
            module_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"flipwait.{module_name}"), fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _enter(self) -> list:
        frame = [next(self._ids), perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, stat: Stat, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, start, covered = frame
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        stat.self_s += duration - covered
        stat.total_s += duration
        self.spans.append((span_id, parent, self.op_id, name, start, end))

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        extra = EXTRAS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not self.enabled:
                    return gen
                stat.calls += 1
                return self._resumptions(name, stat, gen)
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stat.calls += 1
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                self._exit(name, stat, frame)
            if extra is not None:
                extra(stat.extra, args, kwargs, result)
            return result
        return traced

    def _resumptions(self, name: str, stat: Stat, gen):
        while True:
            if not self.enabled:
                yield from gen
                return
            frame = self._enter()
            try:
                item = next(gen)
            except StopIteration:
                return
            except BaseException:
                stat.errors += 1
                raise
            finally:
                self._exit(name, stat, frame)
            yield item

    def self_seconds(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-function calls, self time and errors, plus the work counts and ratios."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.errors"] = stat.errors
        s = self.stats
        out["exact.absorption_times.states"] = s["exact.absorption_times"].extra.get("states", 0)
        out["automaton.build.cells"] = s["automaton.build"].extra.get("cells", 0)
        out["closed_form.dispatch.hit_ratio"] = _ratio(
            s["closed_form.dispatch"].extra.get("hits", 0), s["closed_form.dispatch"].calls)
        count = s["counting.count_first_occurrence"]
        out["counting.count_first_occurrence.dp_cells"] = count.extra.get("dp_cells", 0)
        out["counting.count_first_occurrence.calls_per_op"] = _ratio(count.calls, ops)
        scan = s["conjectures.scan"]
        out["conjectures.scan.patterns"] = scan.extra.get("patterns", 0)
        out["conjectures.scan.spot_checks"] = scan.extra.get("spot_checks", 0)
        out["conjectures.scan.spot_check_share"] = _ratio(
            scan.extra.get("spot_checks", 0), scan.extra.get("patterns", 0))
        sim = s["simulate.simulate_wait"]
        out["simulate.simulate_wait.draws"] = sim.extra.get("draws", 0)
        out["simulate.simulate_wait.draws_per_s"] = _ratio(sim.extra.get("draws", 0), sim.total_s)
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
