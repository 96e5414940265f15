"""In-memory span recording around the calls into each ultradiff layer.

A traced iteration replaces selected functions at the import site their
caller uses (``ultradiff.cli.run_paths``, ``ultradiff.sim.split_stream``,
``SpectralCache.build`` on its class, ...) with wrappers that record one
span per call: (name, start, end, parent). Nothing under ``src/`` changes;
``Tracer.installed()`` puts every original object back when it exits.

Span names are ``<layer>.<function>``, where the layer is the module that
defines the function (padic, landscape, heat, sim, fpt, cli). A layer's
self time is the time its spans cover minus the time their child spans
cover.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("padic", "landscape", "heat", "sim", "fpt", "cli")


@dataclass(frozen=True)
class Target:
    """One call site to wrap: ``owner`` is a module, or ``module:Class``."""

    owner: str
    attr: str
    span: str
    # records counts from (tracer, args, result); None records only the span
    count: Callable | None = None
    # count-only hooks are too hot for a span per call (one per jump)
    span_each_call: bool = True


def _count_paths(tr, args, batch):
    tr.add("sim.paths", len(batch.tau))
    tr.add("sim.jumps", int(batch.n_jumps.sum()))


def _count_jump(tr, args, j):
    tr.add("sim.jump_draws", 1)
    if j >= 1:
        tr.add("sim.moving_jumps", 1)


def _count_laplace(tr, args, ev):
    tr.add("fpt.laplace_G_calls", 1)
    tr.add("fpt.laplace_inner_terms", ev.inner_terms_max)


def _counter(name: str, size: Callable = lambda args, result: 1):
    return lambda tr, args, result: tr.add(name, size(args, result))


TARGETS: tuple[Target, ...] = (
    # cli
    Target("ultradiff.cli", "load_run_config", "cli.load_run_config"),
    # landscape, called from cli and (the cache) from heat.HeatState
    Target("ultradiff.cli", "normalize", "landscape.normalize"),
    Target("ultradiff.cli", "exterior_mass", "landscape.exterior_mass"),
    Target("ultradiff.cli", "spectral_gap_at_one", "landscape.spectral_gap_at_one"),
    Target("ultradiff.cli", "divergence_diagnostic", "landscape.divergence_diagnostic"),
    Target("ultradiff.cli", "spectral_bound_check", "landscape.spectral_bound_check"),
    Target("ultradiff.cli", "spectral_by_quadrature", "landscape.spectral_by_quadrature"),
    Target("ultradiff.cli", "spectral", "landscape.spectral"),
    Target(
        "ultradiff.landscape:SpectralCache", "build", "landscape.spectral_cache_build",
        _counter("landscape.spectral_cache_entries", lambda a, c: len(c.values)),
    ),
    # heat, called from cli
    Target("ultradiff.cli", "u_radial_profile", "heat.u_radial_profile"),
    Target("ultradiff.cli", "ztilde_radial_profile", "heat.ztilde_radial_profile"),
    Target("ultradiff.cli", "u_profile", "heat.u_profile"),
    Target("ultradiff.cli", "ztilde", "heat.ztilde"),
    Target("ultradiff.cli", "du_dt", "heat.du_dt"),
    Target("ultradiff.cli", "survival", "heat.survival"),
    Target(
        "ultradiff.cli", "conservation_audit", "heat.conservation_audit",
        _counter("heat.conservation_audit_calls"),
    ),
    Target("ultradiff.cli", "decay_bound_check", "heat.decay_bound_check"),
    Target("ultradiff.cli", "chapman_kolmogorov_defect", "heat.chapman_kolmogorov_defect"),
    Target("ultradiff.cli", "pde_residual", "heat.pde_residual"),
    # sim, called from cli and (the table) from SimConfig
    Target("ultradiff.cli", "run_paths", "sim.run_paths", _count_paths),
    Target("ultradiff.cli", "survival_estimates", "sim.survival_estimates"),
    Target("ultradiff.cli", "fpt_cdf_estimate", "sim.fpt_cdf_estimate"),
    Target(
        "ultradiff.sim:JumpNormTable", "build", "sim.jump_table_build",
        _counter("sim.jump_table_entries", lambda a, t: len(t.js)),
    ),
    Target("ultradiff.sim", "sample_jump_norm", "sim.sample_jump_norm", _count_jump,
           span_each_call=False),
    # padic, called from sim once per path
    Target("ultradiff.sim", "split_stream", "padic.split_stream"),
    # fpt, called from cli and from inside fpt itself
    Target(
        "ultradiff.cli", "g_grid", "fpt.g_grid",
        _counter("fpt.grid_points", lambda a, g: len(g)),
    ),
    Target(
        "ultradiff.fpt", "g_grid", "fpt.g_grid",
        _counter("fpt.grid_points", lambda a, g: len(g)),
    ),
    Target("ultradiff.cli", "g_of_t", "fpt.g_of_t"),
    Target("ultradiff.cli", "solve_volterra", "fpt.solve_volterra"),
    Target("ultradiff.fpt:VolterraGrid", "residual", "fpt.residual"),
    Target("ultradiff.cli", "laplace_G", "fpt.laplace_G", _count_laplace),
    Target("ultradiff.fpt", "laplace_G", "fpt.laplace_G", _count_laplace),
    Target("ultradiff.cli", "laplace_g_quadrature", "fpt.laplace_g_quadrature"),
    Target("ultradiff.cli", "recurrence_diagnostic", "fpt.recurrence_diagnostic"),
    Target("ultradiff.cli", "return_probability", "fpt.return_probability"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@dataclass
class Tracer:
    """Spans and counts of one traced iteration, kept in memory.

    ``spans`` holds ``[name, start, end, parent]`` lists; ``parent`` is the
    index of the enclosing span or -1 for a root.
    """

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name, count = target.span, target.count
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if not target.span_each_call:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self, args, result)
                return result

            return counted

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: tuple[Target, ...] = TARGETS):
        """Wrap every target that exists; restore every original on exit.

        A target the program no longer has is skipped and listed in
        ``missing``, so the benchmark keeps running when internals move.
        """
        saved = []
        try:
            for t in targets:
                try:
                    owner = _resolve(t.owner)
                except (ImportError, AttributeError):
                    self.missing.append(f"{t.owner}.{t.attr}")
                    continue
                # a class's __dict__ keeps the classmethod object itself
                raw = (owner.__dict__.get(t.attr) if isinstance(owner, type)
                       else getattr(owner, t.attr, None))
                if raw is None:
                    self.missing.append(f"{t.owner}.{t.attr}")
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, t))
                else:
                    new = self.wrap(raw, t)
                saved.append((owner, t.attr, raw))
                setattr(owner, t.attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def span_times(spans: list) -> tuple[dict, dict]:
    """(inclusive, self) seconds per span name.

    Inclusive time counts only the outermost span of a name on each call
    chain, so a name that re-enters itself is not counted twice. Self time
    is a span's duration minus the time its direct children cover; spans
    are recorded on one thread, so children never overlap.
    """
    child_cover = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    inclusive: dict = {}
    self_time: dict = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_time[name] = self_time.get(name, 0.0) + dur - child_cover[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] = inclusive.get(name, 0.0) + dur
    return inclusive, self_time


def layer_self_times(self_time: dict) -> dict:
    """Self seconds summed per layer (the span name's first component)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, secs in self_time.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + secs
    return out
