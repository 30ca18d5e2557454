"""Layer timings taken from outside the program.

`traced()` replaces each public function where its caller looks it up
(module attributes) by a wrapper that records a span, and restores the
originals on exit.  The integrand handed to `integrate_adaptive` is wrapped
too, so that quadrature, integrand, transmission and spectrum self times
separate.  Spans stay in memory until `write_spans`.  The run must be
serial and in-process: worker processes would not see the wrappers.
"""

from __future__ import annotations

import gzip
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from tunneltime import experiments, peakfind, phasetime, spectrum, transmission, wavepacket

COMPUTE_ROW = "experiments.compute_row"
DENSITY_TRACE = "experiments.density_trace"
PEAK_ARRIVAL = "peakfind.peak_arrival"
MOMENTS = "phasetime.moments_closed_form"
TRANSMITTED = "wavepacket.transmitted_integral"
INTEGRAND = "wavepacket.integrand"
QUADRATURE = "quadrature.integrate_adaptive"
MODULUS_PHASE = "transmission.modulus_phase"
SPECTRUM = "spectrum.evaluate"


@dataclass
class Span:
    id: int
    parent: int  # -1 for a top-level span
    name: str
    start_ns: int
    end_ns: int
    self_ns: int
    attr: object = None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[list[int]] = field(default_factory=list)  # [span id, child ns]

    def wrap(self, name: str, fn, attr=None):
        spans, stack = self.spans, self._stack

        def traced_call(*args, **kwargs):
            sid = len(spans) + len(stack)  # spans started so far: finished + open
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                spans.append(
                    Span(
                        sid,
                        -1 if parent is None else parent[0],
                        name,
                        t0,
                        t1,
                        t1 - t0 - frame[1],
                        None if attr is None or result is None else attr(args, result),
                    )
                )

        return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on the program's call paths for the block."""
    originals = []

    def patch(module, attr_name, span_name, attr=None, fn=None):
        original = getattr(module, attr_name)
        originals.append((module, attr_name, original))
        setattr(module, attr_name, tracer.wrap(span_name, fn or original, attr))

    real_quadrature = wavepacket.integrate_adaptive

    def quadrature_with_traced_integrand(f, *args, **kwargs):
        return real_quadrature(tracer.wrap(INTEGRAND, f), *args, **kwargs)

    patch(transmission, "modulus_phase", MODULUS_PHASE, lambda a, r: np.size(a[0]))
    patch(spectrum, "evaluate", SPECTRUM, lambda a, r: np.size(a[1]))
    patch(
        wavepacket, "integrate_adaptive", QUADRATURE,
        lambda a, r: (r.evaluations, r.panels), quadrature_with_traced_integrand,
    )
    patch(wavepacket, "transmitted_integral", TRANSMITTED)
    patch(peakfind, "peak_arrival", PEAK_ARRIVAL, lambda a, r: r.refine_iters)
    patch(phasetime, "moments_closed_form", MOMENTS)
    patch(experiments, "compute_row", COMPUTE_ROW)
    patch(experiments, "density_trace", DENSITY_TRACE)
    try:
        yield tracer
    finally:
        for module, attr_name, original in reversed(originals):
            setattr(module, attr_name, original)


def write_spans(path, tracers: list[Tracer]) -> None:
    """One JSON object per span, tagged with its traced round."""
    with gzip.open(path, "wt") as fh:
        for rnd, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps({"round": rnd, **s.__dict__}) + "\n")


def layer_metrics(tracers: list[Tracer], nodes_per_panel: int, coarse_points: int) -> dict:
    """Per-layer numbers over all traced rounds; counts are per round."""
    rounds = len(tracers)
    by_name: dict[str, list[Span]] = {}
    coarse_ms, refine_ms, evals_per_point = [], [], []
    compute_ns = 0
    moments_in_rows = 0
    for tracer in tracers:
        spans = tracer.spans
        by_id = {s.id: s for s in spans}
        children: dict[int, list[Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
            children.setdefault(s.parent, []).append(s)
        compute_ns += sum(s.ns for s in children.get(-1, ()))
        for pa in (s for s in spans if s.name == PEAK_ARRIVAL):
            calls = sorted(
                (c for c in children.get(pa.id, ()) if c.name == TRANSMITTED),
                key=lambda c: c.start_ns,
            )
            coarse_end = calls[coarse_points - 1].end_ns if len(calls) >= coarse_points else pa.end_ns
            coarse_ms.append((coarse_end - pa.start_ns) / 1e6)
            refine_ms.append((pa.end_ns - coarse_end) / 1e6)
            evals_per_point.append(len(calls))
        for m in (s for s in spans if s.name == MOMENTS):
            root = m
            while root.parent != -1:
                root = by_id[root.parent]
            moments_in_rows += root.name == COMPUTE_ROW

    def spans_of(name):
        return by_name.get(name, [])

    def total_ns(name, self_only=False):
        return sum(s.self_ns if self_only else s.ns for s in spans_of(name))

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    rows = spans_of(COMPUTE_ROW)
    rows_ms = [s.ns / 1e6 for s in rows]
    quad = [s.attr for s in spans_of(QUADRATURE) if s.attr is not None]
    evaluations = sum(e for e, _ in quad)
    mp_nodes = sum(s.attr or 0 for s in spans_of(MODULUS_PHASE))
    se_nodes = sum(s.attr or 0 for s in spans_of(SPECTRUM))
    n_transmitted = len(spans_of(TRANSMITTED))
    return {
        "experiments.compute_row.ms_p50": (statistics.median(rows_ms), "ms"),
        "experiments.compute_row.ms_max": (max(rows_ms), "ms"),
        "peakfind.peak_arrival.ms": (mean([s.ns / 1e6 for s in spans_of(PEAK_ARRIVAL)]), "ms"),
        "peakfind.coarse.ms": (mean(coarse_ms), "ms"),
        "peakfind.refine.ms": (mean(refine_ms), "ms"),
        "peakfind.density_evals_per_point": (mean(evals_per_point), "count"),
        "peakfind.refine_iters": (
            mean([s.attr for s in spans_of(PEAK_ARRIVAL) if s.attr is not None]), "count"),
        "wavepacket.transmitted_integral.calls": (n_transmitted / rounds, "count"),
        "wavepacket.transmitted_integral.us_per_call": (
            total_ns(TRANSMITTED) / max(n_transmitted, 1) / 1e3, "us"),
        "wavepacket.integrand_self_ms": (total_ns(INTEGRAND, True) / rounds / 1e6, "ms"),
        "quadrature.integrate_adaptive.calls": (len(quad) / rounds, "count"),
        "quadrature.integrate_adaptive.evals_per_call": (evaluations / max(len(quad), 1), "count"),
        "quadrature.integrate_adaptive.panels_max": (max((p for _, p in quad), default=0), "count"),
        "quadrature.useful_ratio": (
            sum(p for _, p in quad) * nodes_per_panel / max(evaluations, 1), "ratio"),
        "quadrature.self_ms": (total_ns(QUADRATURE, True) / rounds / 1e6, "ms"),
        "transmission.modulus_phase.ns_per_node": (total_ns(MODULUS_PHASE) / max(mp_nodes, 1), "ns"),
        "transmission.modulus_phase.nodes": (mp_nodes / rounds, "count"),
        "transmission.modulus_phase.share": (100.0 * total_ns(MODULUS_PHASE) / compute_ns, "%"),
        "spectrum.evaluate.ns_per_node": (total_ns(SPECTRUM) / max(se_nodes, 1), "ns"),
        "phasetime.moments_closed_form.calls_per_point": (moments_in_rows / len(rows), "count"),
    }
