"""In-memory spans around the calls the benchmark makes into nmqubit's layers.

A span is (name, start, end, parent).  The layer of a span is the part of its
name before the first dot.  Spans are recorded by replacing module attributes
with timing wrappers, so the program's own files stay untouched; the wrappers
are removed again by ``Tracer.restore``.  Only the process that created the
tracer records: pool workers forked from it run the wrappers as plain calls.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# Public names that ``cli`` and ``experiments`` import from the other layers,
# with the layer each belongs to.  ``(module attribute) -> span name``.
CLI_IMPORTS = {
    "parse_config": "config.parse_config",
    "preset": "config.preset",
    "run_unconditional": "experiments.run_unconditional",
    "run_baseline": "experiments.run_baseline",
    "run_ensemble": "experiments.run_ensemble",
    "run_filter_trajectory": "experiments.run_filter_trajectory",
    "decay_time": "experiments.decay_time",
    "nested_fits": "spectra.nested_fits",
    "mixture_psd": "spectra.mixture_psd",
    "write_table": "cli.write_table",
}
EXPERIMENTS_IMPORTS = {
    "with_truncation": "config.with_truncation",
    "build_probed_model": "experiments.build_probed_model",
    "filter_ingredients": "experiments.filter_ingredients",
    "build_ancilla_bank": "slh.build_ancilla_bank",
    "build_augmented": "slh.build_augmented",
    "build_probed": "slh.build_probed",
    "generator_spec": "master.generator_spec",
    "integrate_master": "master.integrate_master",
    "markovian_baseline_spec": "master.markovian_baseline_spec",
    "augmented_initial_state": "master.augmented_initial_state",
    "ensemble_average": "filtering.ensemble_average",
    "simulate_trajectory": "filtering.simulate_trajectory",
}
# The phase spans an untraced job keeps: one per job, for its step rate.
PHASES = {
    "run_unconditional": "experiments.run_unconditional",
    "run_ensemble": "experiments.run_ensemble",
    "run_filter_trajectory": "experiments.run_filter_trajectory",
}


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, module, names: dict[str, str]) -> None:
        for attr, span_name in names.items():
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span never overlap)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self._self_times()):
            layer = span[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def span_self_time(self, name: str) -> float:
        return sum(own for span, own in zip(self.spans, self._self_times()) if span[0] == name)

    def dump(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


def span_cost(calls: int = 20000, batches: int = 7) -> float:
    """Seconds one traced call adds to a plain call: a wrapped no-op against
    the bare no-op, in alternating batches; the median per-call difference."""

    def noop():
        return None

    diffs = []
    for _ in range(batches):
        wrapped = Tracer().wrap(noop, "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(diffs)


def install(tracer: Tracer, full: bool) -> Tracer:
    """Wrap the layer boundaries: every cli/experiments import when ``full``,
    else only the three phase functions the step rates need."""
    from nmqubit import cli, experiments

    if full:
        tracer.patch(cli, CLI_IMPORTS)
        tracer.patch(experiments, EXPERIMENTS_IMPORTS)
    else:
        tracer.patch(cli, PHASES)
    return tracer


class LinalgCounter:
    """Counts ``numpy.linalg.cholesky`` and ``eigh`` calls made while active,
    the matrices ``eigh`` decomposed and how many of those had a smallest
    eigenvalue below -1e-12, the filter's clip screen: the repairs that
    changed a state."""

    def __init__(self) -> None:
        self.cholesky_calls = 0
        self.eigh_calls = 0
        self.eigh_matrices = 0
        self.eigh_negative = 0

    @contextmanager
    def active(self):
        import numpy as np

        chol, eigh = np.linalg.cholesky, np.linalg.eigh

        def counted_cholesky(a, *args, **kwargs):
            self.cholesky_calls += 1
            return chol(a, *args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            self.eigh_calls += 1
            w, v = eigh(a, *args, **kwargs)
            lowest = w[..., 0]
            self.eigh_matrices += lowest.size
            self.eigh_negative += int(np.count_nonzero(lowest < -1e-12))
            return w, v

        np.linalg.cholesky, np.linalg.eigh = counted_cholesky, counted_eigh
        try:
            yield self
        finally:
            np.linalg.cholesky, np.linalg.eigh = chol, eigh
