"""Span and count recorder for the traced benchmark run.

Nothing inside the package is instrumented.  ``patched`` replaces public
functions of each layer with recording wrappers *where they are looked
up*: the modules import kernel functions by name (``from .numerics import
sum_decaying``), so ``thermo.sum_decaying`` and ``superstat.derivative``
are patched, not only their definitions.  Every patch is undone on exit.

Spans are (id, name, start, end, parent id), kept in memory.  The two hot
leaves, ``SpectrumCoefficients.energy`` and the erf family, are counted
and timed but store no span each (hundreds of thousands per pass); their
time is still charged to the enclosing span, so self times stay exact.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    """Counts, busy time and self time per span name, plus the span list.

    busy[name] sums only outermost spans of that name (closed forms call
    each other, so nested time is not counted twice); self_time[name] is
    span time not covered by child spans.
    """

    def __init__(self, failure_type: type[BaseException]):
        self.counts: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.quad_err_ratios: list[float] = []
        self.missing: list[str] = []
        self._failure_type = failure_type
        self._last_failure: BaseException | None = None
        self._stack: list[list] = [[0, 0.0]]  # [span id, seconds in children]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 1

    def call(self, name: str, fn, args, kwargs):
        self.counts[name + ".calls"] += 1
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        except self._failure_type as exc:
            if exc is not self._last_failure:  # count each error once, not per span
                self._last_failure = exc
                self.counts["numerics.failures"] += 1
            raise
        finally:
            t1 = _clock()
            self._stack.pop()
            self._depth[name] -= 1
            dur = t1 - t0
            parent[1] += dur
            self.self_time[name] += dur - frame[1]
            if self._depth[name] == 0:
                self.busy[name] += dur
            self.spans.append((sid, name, t0, t1, parent[0]))

    def leaf(self, name: str, fn):
        """Wrapper for a function that calls no other wrapped function."""
        calls_key = name + ".calls"
        counts, busy, self_time, stack = self.counts, self.busy, self.self_time, self._stack

        def wrapper(*args):
            counts[calls_key] += 1
            t0 = _clock()
            try:
                return fn(*args)
            finally:
                dur = _clock() - t0
                busy[name] += dur
                self_time[name] += dur
                stack[-1][1] += dur
        return wrapper

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def sum_decaying(self, fn):
        """Counts the terms and tail-bound checks by wrapping the callables."""
        counts = self.counts

        def wrapper(term, tail_bound, *args, **kwargs):
            def counted_term(n):
                counts["numerics.sum.terms"] += 1
                return term(n)

            def counted_bound(n):
                counts["numerics.sum.bound_checks"] += 1
                return tail_bound(n)

            return self.call("numerics.sum", fn, (counted_term, counted_bound) + args, kwargs)
        return wrapper

    def derivative(self, fn):
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            def counted(x):
                counts["numerics.derivative.f_evals"] += 1
                return f(x)

            return self.call("numerics.derivative", fn, (counted,) + args, kwargs)
        return wrapper

    def quadrature(self, fn):
        """Counts evaluations and GK15 panels from the returned
        QuadratureResult; a semi-infinite call adds fewer than 15 tail
        probes, so panels = evals // 15 on both routes."""
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            res = self.call("numerics.quad", fn, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["numerics.quad.evals"] += res.evals
            self.counts["numerics.quad.panels"] += res.evals // 15
            target = bound.arguments["tol"].target(res.value)
            if target > 0.0:
                self.quad_err_ratios.append(res.error_estimate / target)
            return res
        return wrapper

    def superstat_thermo(self, fn):
        """One entry point, two layers: the quadrature engine or the
        typeset closed forms, chosen by its method argument."""
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            method = sig.bind(*args, **kwargs).arguments.get("method", "engine")
            name = "superstat.engine" if method == "engine" else "superstat.closed"
            return self.call(name, fn, args, kwargs)
        return wrapper


def _patch_points(pkg):
    """(owner, attribute, wrapper factory) for every traced lookup site.
    Kernel-internal calls (semi-infinite -> finite quadrature) stay
    unwrapped, so each quadrature counts once."""
    cli, spectrum, superstat, sweeps, thermo, verify = (
        pkg.cli, pkg.spectrum, pkg.superstat, pkg.sweeps, pkg.thermo, pkg.verify)

    def leaf(name):
        return lambda rec, fn: rec.leaf(name, fn)

    def span(name):
        return lambda rec, fn: rec.span(name, fn)

    points = [
        (thermo, "integrate_finite", Recorder.quadrature),
        (thermo, "integrate_semi_infinite", Recorder.quadrature),
        (superstat, "integrate_semi_infinite", Recorder.quadrature),
        (thermo, "sum_decaying", Recorder.sum_decaying),
        (thermo, "derivative", Recorder.derivative),
        (superstat, "derivative", Recorder.derivative),
        (verify, "derivative", Recorder.derivative),
        (thermo, "erf", leaf("numerics.erf")),
        (thermo, "erfcx", leaf("numerics.erf")),
        (superstat, "erfcx", leaf("numerics.erf")),
        (spectrum.SpectrumCoefficients, "energy", leaf("spectrum.energy")),
        (thermo, "thermo_sum_engine", span("thermo.sum_engine")),
        (superstat, "superstat_thermo", Recorder.superstat_thermo),
        (superstat, "superstat_partition_quadrature", span("superstat.zs_quad")),
        (verify, "audit_grid", span("verify.audit_grid")),
        (verify, "render_audit_csv", span("verify.render_csv")),
        (sweeps, "run_sweep", span("sweeps.run_sweep")),
        (sweeps, "figure_preset", span("sweeps.figure_preset")),
        (cli, "main", span("cli.main")),
    ]
    # the remaining thermo oracle routes, so their time is not charged to
    # the sweeps or verify layer that calls them
    points += [(thermo, name, span("thermo.routes")) for name in
               ("partition_sum", "partition_quadrature", "thermo_from_logZ")]
    points += [(thermo, name, span("thermo.closed")) for name in
               ("partition_closed", "log_partition_closed", "mean_energy_closed",
                "heat_capacity_closed", "entropy_closed", "free_energy_closed",
                "thermo_closed_point")]
    points += [(superstat, name, span("superstat.closed")) for name in
               ("superstat_partition_closed", "log_superstat_partition_closed",
                "mean_energy_superstat_closed", "entropy_superstat_closed",
                "free_energy_superstat_closed")]
    return points


@contextlib.contextmanager
def patched(pkg, rec: Recorder):
    """Install every wrapper recording into rec; restore all on exit.  A
    lookup site the package no longer has is listed in rec.missing."""
    saved = []
    try:
        for owner, attr, factory in _patch_points(pkg):
            original = owner.__dict__.get(attr)
            if original is None:
                rec.missing.append(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(rec, original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_layer(recs: list[Recorder]) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced pass (they repeat
    exactly), times as medians over the passes."""
    first = recs[0]
    c = first.counts

    def t(table: str, *names: str) -> float:
        return statistics.median(sum(getattr(r, table)[n] for n in names) for r in recs)

    engine_calls = c["superstat.engine.calls"]
    return {
        "numerics.quad.calls": c["numerics.quad.calls"],
        "numerics.quad.evals": c["numerics.quad.evals"],
        "numerics.quad.panels": c["numerics.quad.panels"],
        "numerics.quad.busy_s": t("busy", "numerics.quad"),
        "numerics.quad.err_over_target":
            statistics.median(first.quad_err_ratios) if first.quad_err_ratios else 0.0,
        "numerics.sum.calls": c["numerics.sum.calls"],
        "numerics.sum.terms": c["numerics.sum.terms"],
        "numerics.sum.bound_checks": c["numerics.sum.bound_checks"],
        "numerics.sum.busy_s": t("busy", "numerics.sum"),
        "numerics.derivative.calls": c["numerics.derivative.calls"],
        "numerics.derivative.f_evals": c["numerics.derivative.f_evals"],
        "numerics.derivative.busy_s": t("busy", "numerics.derivative"),
        "numerics.erf.calls": c["numerics.erf.calls"],
        "numerics.erf.busy_s": t("busy", "numerics.erf"),
        "numerics.failures": c["numerics.failures"],
        "spectrum.energy.calls": c["spectrum.energy.calls"],
        "spectrum.energy.busy_s": t("busy", "spectrum.energy"),
        "thermo.sum_engine.calls": c["thermo.sum_engine.calls"],
        "thermo.sum_engine.busy_s": t("busy", "thermo.sum_engine"),
        "thermo.sum_engine.self_s": t("self_time", "thermo.sum_engine"),
        "thermo.closed.calls": c["thermo.closed.calls"],
        "thermo.closed.busy_s": t("busy", "thermo.closed"),
        "superstat.engine.calls": engine_calls,
        "superstat.engine.busy_s": t("busy", "superstat.engine"),
        "superstat.engine.self_s": t("self_time", "superstat.engine"),
        "superstat.zs_quad.calls": c["superstat.zs_quad.calls"],
        "superstat.zs_quad_per_point":
            c["superstat.zs_quad.calls"] / engine_calls if engine_calls else 0.0,
        "superstat.closed.calls": c["superstat.closed.calls"],
        "superstat.closed.busy_s": t("busy", "superstat.closed"),
        "verify.audit_grid.busy_s": t("busy", "verify.audit_grid"),
        "verify.self_s": t("self_time", "verify.audit_grid"),
        "verify.render_csv_s": t("busy", "verify.render_csv"),
        "sweeps.run_sweep.calls": c["sweeps.run_sweep.calls"],
        "sweeps.self_s": t("self_time", "sweeps.run_sweep", "sweeps.figure_preset"),
        "cli.main.calls": c["cli.main.calls"],
        "cli.self_s": t("self_time", "cli.main"),
    }
