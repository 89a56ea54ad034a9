"""Span tracing of malalab's layers, installed from outside the package.

``Tracer`` replaces every public function of each malalab module, and the
``Potential`` and ``CDFTable`` evaluation methods, by a wrapper that records
one span per call: its name, start, end, parent span and, for potential
evaluations, the number of rows evaluated. Every module that bound a
function by ``from .x import f`` is patched too, so a call is seen whichever
name it goes through. Leaving the ``with`` block restores the originals.
Spans are kept in memory; :func:`layer_metrics` reduces them, and
:meth:`Tracer.write` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "diagnostics", "finite_chain", "kernels", "oracle1d",
           "potentials", "rng", "verify")

ROUND = "bench.round"

# Span names whose outermost calls make up oracle1d.quadrature.s.
QUADRATURE = frozenset({"oracle1d.quad_expectation", "oracle1d.normalizing_constant",
                        "oracle1d.coordinate_factor", "oracle1d.kl_gaussian_vs_adversarial"})


class Tracer:
    """Context manager that records a span at every wrapped call."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, rows)
        self._current = -1
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, count_rows=False):
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            index = len(spans)
            spans.append(None)
            self._current = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._current = parent
                # Potential methods are called as (self, x): rows = x.size / d.
                rows = np.size(args[1]) // args[0].d if count_rows else 0
                spans[index] = (name, start, end, parent, rows)

        return traced

    def __enter__(self):
        from malalab import oracle1d, potentials

        modules = [importlib.import_module(f"malalab.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in [importlib.import_module("malalab"), *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for attr in ("value", "grad", "value_and_grad"):
            fn = vars(potentials.Potential)[attr]
            self._patch(potentials.Potential, attr,
                        self._wrap(f"potentials.{attr}", fn, count_rows=True))
        for attr in ("inverse", "cdf_at"):
            fn = vars(oracle1d.CDFTable)[attr]
            self._patch(oracle1d.CDFTable, attr, self._wrap(f"oracle1d.CDFTable.{attr}", fn))
        return self

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def round(self, fn, *args):
        """Run fn(*args) under a root span named ``bench.round``."""
        return self._wrap(ROUND, fn)(*args)

    def write(self, path: str) -> None:
        """Write every span as a CSV line: index,name,start,end,parent,rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,rows\n")
            for i, (name, start, end, parent, rows) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{rows}\n")


def _outermost_time(spans, member) -> float:
    """Total duration of spans with member(name) that have no such ancestor."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        outer = parent >= 0 and inside[parent]
        if member(name):
            if not outer:
                total += end - start
            outer = True
        inside[i] = outer
    return total


def layer_metrics(spans, work: dict, untraced_wall_s: float) -> dict:
    """Per-round layer metrics from the spans of whole traced rounds.

    ``work`` holds the traced rounds' totals of ``proposals``, ``steps`` and
    ``replica_steps`` (0 where a workload has none); a ratio over a total of
    0 reads 0. Times are seconds per round unless the name says otherwise.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls, incl, own, rows = (defaultdict(int), defaultdict(float),
                              defaultdict(float), defaultdict(int))
    for i, (name, start, end, parent, n_rows) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        own[name] += end - start - children[i]
        rows[name] += n_rows
    module_self = defaultdict(float)
    for name, t in own.items():
        module_self[name.split(".", 1)[0]] += t

    rounds = calls[ROUND]
    if rounds == 0:
        raise ValueError("no traced round")

    def per_round(x):
        return x / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    potentials_s = _outermost_time(spans, lambda n: n.startswith("potentials."))
    steps = work.get("steps", 0)
    m = {
        "potentials.grad.s": (per_round(incl["potentials.grad"]), "s"),
        "potentials.value.s": (per_round(incl["potentials.value"]), "s"),
        "potentials.grad.rows_per_proposal":
            (ratio(rows["potentials.grad"], work.get("proposals", 0)), "count"),
        "potentials.value.rows_per_proposal":
            (ratio(rows["potentials.value"], work.get("proposals", 0)), "count"),
        "potentials.grad.rows_per_replica_step":
            (ratio(rows["potentials.grad"], work.get("replica_steps", 0)), "count"),
        "potentials.value.rows_per_replica_step":
            (ratio(rows["potentials.value"], work.get("replica_steps", 0)), "count"),
        "potentials.calls_per_step":
            (ratio(calls["potentials.grad"] + calls["potentials.value"], steps), "count"),
        "kernels.propose_mala.s": (per_round(incl["kernels.propose_mala"]), "s"),
        "kernels.log_accept_ratio.s": (per_round(incl["kernels.log_accept_ratio"]), "s"),
        "kernels.batch_mala_update.s": (per_round(incl["kernels.batch_mala_update"]), "s"),
        "kernels.run_chain.us_per_step": (1e6 * ratio(incl["kernels.run_chain"], steps), "us"),
        "kernels.step_overhead_us":
            (1e6 * ratio(incl["kernels.run_chain"] - potentials_s, steps), "us"),
        "kernels.sample_separable_target.s":
            (per_round(incl["kernels.sample_separable_target"]), "s"),
        "kernels.cdf_table_for.s": (per_round(incl["kernels.cdf_table_for"]), "s"),
        "oracle1d.inverse_cdf_table.s": (per_round(incl["oracle1d.inverse_cdf_table"]), "s"),
        "diagnostics.mean_acceptance.self_s":
            (per_round(own["diagnostics.mean_acceptance"]), "s"),
        "rng.substream.calls": (per_round(calls["rng.substream"]), "count"),
        "rng.substream.s": (per_round(incl["rng.substream"]), "s"),
        "diagnostics.sliced_tv_to_target.s":
            (per_round(incl["diagnostics.sliced_tv_to_target"]), "s"),
        "diagnostics.sliced_tv_to_target.calls":
            (per_round(calls["diagnostics.sliced_tv_to_target"]), "count"),
        "diagnostics.mixing_time_measure.self_s":
            (per_round(own["diagnostics.mixing_time_measure"]), "s"),
        "oracle1d.CDFTable.cdf_at.s": (per_round(incl["oracle1d.CDFTable.cdf_at"]), "s"),
        "oracle1d.CDFTable.inverse.s": (per_round(incl["oracle1d.CDFTable.inverse"]), "s"),
        "oracle1d.quadrature.s": (per_round(_outermost_time(spans, QUADRATURE.__contains__)), "s"),
        "finite_chain.spectral_quantities.s":
            (per_round(incl["finite_chain.spectral_quantities"]), "s"),
        "finite_chain.spectral_quantities.calls":
            (per_round(calls["finite_chain.spectral_quantities"]), "count"),
        "finite_chain.evolve_and_check.self_s":
            (per_round(own["finite_chain.evolve_and_check"]), "s"),
        "finite_chain.metropolize.s": (per_round(incl["finite_chain.metropolize"]), "s"),
        "finite_chain.projection_check.s": (per_round(incl["finite_chain.projection_check"]), "s"),
        "verify.oracle_checks.s": (per_round(incl["verify.oracle_checks"]), "s"),
        "verify.kernel_checks.s": (per_round(incl["verify.kernel_checks"]), "s"),
        "verify.finite_chain_checks.s": (per_round(incl["verify.finite_chain_checks"]), "s"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (per_round(module_self[module]), "s")
    wall = per_round(incl[ROUND])
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    m["trace.overhead_s"] = (wall - untraced_wall_s, "s")
    # What the layers' self times leave of the traced wall time: the
    # benchmark's own code between calls, inside the root span.
    m["trace.remainder_s"] = (per_round(own[ROUND]), "s")
    m["trace.spans_per_round"] = (per_round(len(spans)), "count")
    return m
