"""The benchmark's fault injection and tracer still reach the program.

``bench/selftest.py`` patches named functions of malalab with wrappers that
call them with fixed argument lists. A refactor that renames one of them or
changes its parameters breaks the selftest only when it runs (about 90 s);
these checks find that in well under a second. Importing the selftest runs
nothing. ``bench/spans.py`` reads its per-layer metrics from spans by name,
and a name that no longer resolves reads 0 without any error.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from malalab import cli, diagnostics, kernels, verify
from malalab.oracle1d import CDFTable
from malalab.potentials import Potential, adversarial_cosine, gaussian

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def selftest():
    # The selftest imports run, workloads and oracles as top-level modules.
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_selftest", BENCH / "selftest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_every_patched_attribute_resolves(selftest):
    # A new mutation needs its argument list added to the binding test below.
    assert len(selftest.MUTATIONS) == 9
    for description, owner, attr, _, _ in selftest.MUTATIONS:
        assert callable(getattr(owner, attr, None)), description
    assert callable(kernels.init_chain)


@pytest.mark.parametrize("fn, args, kwargs", [
    (kernels.batch_mala_update, ("p", "h", "X", "rng"), {}),
    (cli.step_size, ("cfg", "d", "p"), {}),
    (diagnostics.sliced_tv_to_target, ("samples", "table"), {}),
    (verify.run_all_checks, ("seed",), {"corrupt_accept": False}),
    (verify.run_all_checks, ("seed",), {}),
    (kernels.init_chain, ("p", "x0", "seed"), {}),
    (kernels._uniform_open, ("rng",), {"size": None}),
    (kernels._uniform_open, ("rng", 8), {}),
    (Potential.value, ("self", "x"), {}),
    (Potential.grad, ("self", "x"), {}),
    (cli.adversarial_cosine, ("d", "eta"), {}),
], ids=lambda v: getattr(v, "__qualname__", None) if callable(v) else None)
def test_patched_callables_bind_the_arguments_their_patches_pass(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_the_batched_mala_patches_reach_every_step_and_block(monkeypatch):
    # The selftest's "step 2h" fault wraps batch_mala_update, which mix must
    # call once per step; its "+0.05" fault wraps _log_ratio_parts, which
    # must see every row of a call however the rows are blocked.
    update, ratio_parts = kernels.batch_mala_update, kernels._log_ratio_parts
    rows_per_update = []

    def counted_update(p, h, X, rng):
        rows_per_update.append([])
        return update(p, h, X, rng)

    def counted_ratio_parts(*args):
        rows_per_update[-1].append(len(args[4]))
        return ratio_parts(*args)

    monkeypatch.setattr(kernels, "batch_mala_update", counted_update)
    monkeypatch.setattr(kernels, "_log_ratio_parts", counted_ratio_parts)
    n, far_start = 1200, lambda m, rng: 3.0 + rng.standard_normal((m, 64))
    steps = diagnostics.mixing_time_measure(gaussian(64), 0.002, far_start, eps=0.05,
                                            max_steps=3, n_replicas=n, seed=0)
    assert steps == len(rows_per_update) == 3
    assert [sum(rows) for rows in rows_per_update] == [n] * steps
    assert all(len(rows) > 1 for rows in rows_per_update)  # n spans several blocks


@pytest.mark.parametrize("attr", ["_log_ratio_parts", "value"])
def test_the_collapse_faults_reach_the_acceptance_worker_threads(selftest, monkeypatch,
                                                                  attr):
    # The selftest's "+0.05" and "drops the cosine" faults must move
    # mean_acceptance's estimate, whose blocks run on worker threads. This
    # stands in for the selftest's collapse expectations, which take about 90 s.
    _, owner, _, patch, expected = next(m for m in selftest.MUTATIONS if m[2] == attr)
    assert "collapse" in expected
    d = 2**12
    p, h = adversarial_cosine(d, 0.2), d**-0.4
    clean = diagnostics.mean_acceptance(p, h, 3, 64, seed=60).estimate
    faulty, threads = patch(getattr(owner, attr)), set()

    def seen(*args):
        threads.add(threading.current_thread())
        return faulty(*args)

    monkeypatch.setattr(owner, attr, seen)
    moved = diagnostics.mean_acceptance(p, h, 3, 64, seed=60).estimate
    assert abs(moved.value - clean.value) > 0.5 * clean.std_error
    assert threads - {threading.main_thread()}


@pytest.mark.parametrize("d", [1, 3])
def test_run_chain_starts_through_one_init_chain_call(monkeypatch, d):
    # The selftest's "run_chain ignores its seed" fault wraps init_chain as
    # (p, x0, seed); the chain must draw from the stream the wrapper returns,
    # on the float loop (d = 1) and on the array step alike.
    init, seeds = kernels.init_chain, []

    def counted_init(p, x0, seed):
        seeds.append(seed)
        return init(p, x0, seed + 1)

    p, params = gaussian(d), kernels.KernelParams(h=0.5)
    unpatched = kernels.run_chain(p, params, np.zeros(d), 20, seed=8)
    monkeypatch.setattr(kernels, "init_chain", counted_init)
    patched = kernels.run_chain(p, params, np.zeros(d), 20, seed=7)
    assert seeds == [7]
    assert patched.final_x.tobytes() == unpatched.final_x.tobytes()


def _span_names():
    """The span names ``layer_metrics`` reads: its incl/own/calls keys and QUADRATURE."""
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    names = {node.slice.value for node in ast.walk(tree)
             if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
             and node.value.id in ("incl", "own", "calls")
             and isinstance(node.slice, ast.Constant)}
    quadrature = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                      and [t.id for t in node.targets] == ["QUADRATURE"])
    names |= {const.value for const in ast.walk(quadrature) if isinstance(const, ast.Constant)}
    return sorted(names)


def test_the_tracer_reads_26_span_names():
    # Guards the parse above: a name it misses is a case never collected.
    assert len(_span_names()) == 26


@pytest.mark.parametrize("name", _span_names())
def test_every_span_name_the_tracer_reads_resolves(name):
    # The tracer wraps a module's own public functions under "module.name",
    # Potential's methods under "potentials.name" and CDFTable's under
    # "oracle1d.CDFTable.name".
    module, _, attr = name.partition(".")
    if module == "potentials":
        owner = Potential
    elif attr.startswith("CDFTable."):
        owner, attr = CDFTable, attr.removeprefix("CDFTable.")
    else:
        owner = importlib.import_module(f"malalab.{module}")
    fn = vars(owner).get(attr)
    assert callable(fn) and not attr.startswith("_"), name
    assert fn.__module__ == f"malalab.{module}", name
