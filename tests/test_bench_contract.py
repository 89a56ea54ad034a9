"""The benchmark's fault injection still reaches the program it patches.

``bench/selftest.py`` patches named functions of malalab with wrappers that
call them with fixed argument lists. A refactor that renames one of them or
changes its parameters breaks the selftest only when it runs (about 90 s);
these checks find that in well under a second. Importing the selftest runs
nothing.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from malalab import cli, diagnostics, kernels, verify
from malalab.potentials import Potential

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

