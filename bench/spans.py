"""Span tracing for the traced run.

``Tracer.install`` wraps the public functions of each layer at every
``marketcells`` module attribute that binds them, which is where callers
look them up (``response`` calls ``fast_area`` through
``marketcells.response.fast_area``, for example).  Each call records a
span ``[name, start, end, parent, extra]`` in memory; ``uninstall``
restores the originals.  A target the package no longer defines is
skipped and the metrics built on it are left out.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path


def _area_kind(args, kwargs) -> str:
    scenario = args[0] if args else kwargs["scenario"]
    if scenario.dimension == 2:
        return "plane_cell"
    return "line_q1" if scenario.q == 1 else "line_q0"


def _sweeps(report) -> int:
    """Sweeps run: every sweep that moved prices plus the final quiet one."""
    return report.iterations + int(report.converged)


# (span name, defining module, attribute path, name suffix, extra from result)
TARGETS = (
    ("model.load_scenario", "marketcells.model", "load_scenario", None, None),
    ("model.scenario", "marketcells.model", "Scenario.__post_init__", None, None),
    ("geometry.clip_cell", "marketcells.geometry", "clip_cell", None, None),
    ("areas.fast_area", "marketcells.areas", "fast_area", _area_kind, None),
    ("areas.fast_signature", "marketcells.areas", "fast_signature", None, None),
    ("areas.partition", "marketcells.areas", "solve_partition", None, None),
    ("areas.partition", "marketcells.areas", "solve_areas_q0", None, None),
    ("areas.partition", "marketcells.areas", "solve_areas_q1_1d", None, None),
    ("response.best_response", "marketcells.response", "best_response", None, None),
    ("response.profit_curve", "marketcells.response", "profit_curve", None, None),
    ("equilibrium.iterate", "marketcells.equilibrium", "iterate_best_response", None, _sweeps),
    ("equilibrium.verify", "marketcells.equilibrium", "verify_equilibrium", None, None),
    ("equilibrium.activation", "marketcells.equilibrium", "construct_activation", None, None),
    ("equilibrium.audit", "marketcells.equilibrium", "audit_unilateral_deviations", None, None),
    ("cli.main", "marketcells.cli", "main", None, None),
    ("svg.render", "marketcells.svg", "render_partition_svg", None, None),
)

LAYERS = ("model", "geometry", "areas", "response", "equilibrium", "cli", "svg")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, suffix, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = f"{name}.{suffix(args, kwargs)}" if suffix else name
            rec = [full, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if extra is not None:
                rec[4] = extra(result)
            return result

        return traced

    def install(self) -> None:
        for name, modname, path, suffix, extra in TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ModuleNotFoundError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, original, suffix, extra)
            if outer:  # a method: patch the class, which every caller goes through
                self._patch(owner, attr, original, wrapper)
            else:
                for module in list(sys.modules.values()):
                    mod_name = getattr(module, "__name__", "")
                    if mod_name != "marketcells" and not mod_name.startswith("marketcells."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
            self.installed.add(name)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        rows = [[n, round(s, 9), round(e, 9), p] for n, s, e, p, _ in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": rows}))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for k, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[k]
        layer_of = [s[0].split(".", 1)[0] for s in spans]

        def nearest(prefix: str) -> list[int]:
            """Index of the nearest enclosing span (itself included) whose
            name starts with ``prefix``, or -1."""
            out = [-1] * n
            for k, s in enumerate(spans):
                if s[0].startswith(prefix):
                    out[k] = k
                elif s[3] >= 0:
                    out[k] = out[s[3]]
            return out

        def top(prefix: str) -> list[int]:
            """Spans of ``prefix`` not nested in another span of it."""
            enclosing = nearest(prefix)
            return [
                k for k, s in enumerate(spans)
                if s[0].startswith(prefix) and (s[3] < 0 or enclosing[s[3]] < 0)
            ]

        def mean(idx, scale):
            return statistics.fmean(dur[k] for k in idx) * scale if idx else 0.0

        def named(name):
            return [k for k, s in enumerate(spans) if s[0] == name]

        def under(name_prefix, ancestor):
            enclosing = nearest(ancestor)
            return sum(
                1 for k, s in enumerate(spans)
                if s[0].startswith(name_prefix) and s[3] >= 0 and enclosing[s[3]] >= 0
            )

        have = self.installed
        m: dict[str, tuple[float, str]] = {}
        if {"model.load_scenario", "model.scenario"} & have:
            m["model.scenario_ms"] = (mean(top("model."), 1e3), "ms")
        if "geometry.clip_cell" in have:
            idx = named("geometry.clip_cell")
            m["geometry.clip_cell.calls"] = (len(idx), "count")
            m["geometry.clip_cell.us"] = (mean(idx, 1e6), "us")
        if "areas.fast_area" in have:
            solves = [k for k, s in enumerate(spans) if s[0].startswith("areas.fast_area.")]
            m["areas.solves"] = (len(solves), "count")
            for kind in ("line_q0", "line_q1", "plane_cell"):
                m[f"areas.{kind}.us"] = (mean(named(f"areas.fast_area.{kind}"), 1e6), "us")
        if "areas.partition" in have:
            idx = top("areas.partition")
            m["areas.partition.calls"] = (len(idx), "count")
            m["areas.partition.ms"] = (mean(idx, 1e3), "ms")
        for name, key in (("response.best_response", "br"), ("response.profit_curve", "curve")):
            if name not in have:
                continue
            idx = named(name)
            m[f"{name}.calls"] = (len(idx), "count")
            m[f"{name}.ms"] = (mean(idx, 1e3), "ms")
            if "areas.fast_area" in have:
                solves = under("areas.fast_area.", name)
                m[f"response.solves_per_{key}"] = (solves / len(idx) if idx else 0.0, "ratio")
        if "equilibrium.iterate" in have:
            idx = named("equilibrium.iterate")
            m["equilibrium.iterate.ms"] = (mean(idx, 1e3), "ms")
            m["equilibrium.sweeps"] = (sum(spans[k][4] or 0 for k in idx), "count")
            if "response.best_response" in have:
                brs = under("response.best_response", "equilibrium.iterate")
                m["equilibrium.br_per_eq"] = (brs / len(idx) if idx else 0.0, "ratio")
        for name in ("equilibrium.verify", "equilibrium.activation", "equilibrium.audit",
                     "cli.main", "svg.render"):
            if name in have:
                m[f"{name}.ms"] = (mean(named(name), 1e3), "ms")
        for layer in LAYERS:
            if any(name.startswith(layer + ".") for name in have):
                own = sum(dur[k] - child[k] for k in range(n) if layer_of[k] == layer)
                m[f"{layer}.self_s"] = (own, "s")
        return m
