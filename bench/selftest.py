"""Shows that every workload's checks pass on malalab and fail on wrong programs.

    python3 bench/selftest.py

Each mutation patches one function of malalab in this process, runs a few
rounds of the workloads it should break, and expects ``check`` to report a
failure; the same rounds on the unpatched program must pass. Exits 1 if any
expectation is not met.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from malalab import cli, diagnostics, kernels, verify  # noqa: E402
from malalab.potentials import ADVERSARIAL, Potential, gaussian  # noqa: E402
from run import round_seed  # noqa: E402

SEED = 20_250
ROUNDS = {"collapse": 6, "chain": 2, "mix": 1, "verify": 1}


def log_ratio_plus_005(orig):
    return lambda *args: orig(*args) + 0.05


def value_without_cosine(orig):
    def value(self, x):
        if self.kind == ADVERSARIAL:
            return 0.5 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
        return orig(self, x)
    return value


def gaussian_in_place_of_perturbed(orig):
    return lambda d, eta: gaussian(d)


def accept_every_proposal(orig):
    return lambda rng, size=None: 1e-300 if size is None else np.full(size, 1e-300)


def gradient_times_1_1(orig):
    return lambda self, x: 1.1 * orig(self, x)


def step_size_doubled(orig):
    return lambda p, h, X, rng: orig(p, 2.0 * h, X, rng)


def step_rule_off_by_1_percent(orig):
    return lambda cfg, d, p: 1.01 * orig(cfg, d, p)


def sliced_tv_reads_zero(orig):
    return lambda samples, table: 0.0


def corrupt_accept_ignored(orig):
    return lambda seed, corrupt_accept=False: orig(seed)


def chain_seed_ignored(orig):
    return lambda p, x0, seed: orig(p, x0, int.from_bytes(os.urandom(4), "little"))


# (description, owner, attribute, patch, {workload: text of an expected failure})
MUTATIONS = (
    ("log acceptance ratio + 0.05", kernels, "_log_ratio_parts", log_ratio_plus_005,
     {"collapse": "Gaussian acceptance", "verify": "exit code 1"}),
    ("V drops the cosine term", Potential, "value", value_without_cosine,
     {"collapse": "independent estimate", "chain": "mala_adversarial"}),
    ("sweeps build the Gaussian for the perturbed target", cli, "adversarial_cosine",
     gaussian_in_place_of_perturbed, {"collapse": "not below the Gaussian"}),
    ("MALA accepts every proposal", kernels, "_uniform_open", accept_every_proposal,
     {"chain": "mala_gaussian"}),
    ("gradient scaled by 1.1", Potential, "grad", gradient_times_1_1,
     {"chain": "ula_gaussian"}),
    ("batched MALA uses step 2h", kernels, "batch_mala_update", step_size_doubled,
     {"mix": "from the independent implementation"}),
    ("step-size rule 1 % off", cli, "step_size", step_rule_off_by_1_percent,
     {"mix": "theorem1 rule gives", "collapse": "expected d^-0.4"}),
    ("sliced TV reads 0", diagnostics, "sliced_tv_to_target", sliced_tv_reads_zero,
     {"mix": "already mixed at start"}),
    ("verify ignores --corrupt-accept", verify, "run_all_checks", corrupt_accept_ignored,
     {"verify": "--corrupt-accept exited 0"}),
)


@contextlib.contextmanager
def patched(owner, attr, patch):
    original = getattr(owner, attr)
    setattr(owner, attr, patch(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def failures_of(workload) -> list[str]:
    outs = [workload.run(round_seed(SEED, r)) for r in range(ROUNDS[workload.name])]
    return workload.check(outs)


def traced_result(argv) -> dict:
    """The result line of an in-process benchmark run."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        run.main(argv)
    return json.loads(buffer.getvalue().splitlines()[-1])


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    loaded = {}
    ok = True

    def report(passed, what, detail):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {what}: {detail}", flush=True)

    for name in ROUNDS:
        loaded[name] = workloads.WORKLOADS[name](run.OUT_DIR)
        loaded[name].setup()
        failures = failures_of(loaded[name])
        report(not failures, f"{name}, unpatched", failures or "every check passes")
    for description, owner, attr, patch, expected in MUTATIONS:
        for name, text in expected.items():
            with patched(owner, attr, patch):
                failures = failures_of(loaded[name])
            hits = [f for f in failures if text in f]
            report(bool(hits), f"{name}, {description}",
                   hits[0] if hits else f"no failure mentions {text!r}: {failures}")
    argv = ["--workload", "chain", "--seed", str(SEED), "--seconds", "4", "--trace", "1"]
    report(traced_result(argv)["correct"], "chain traced, unpatched", "traced rounds agree")
    with patched(kernels, "init_chain", chain_seed_ignored):
        result = traced_result(argv)
    report(not result["correct"], "chain traced, run_chain ignores its seed",
           "traced rounds differ" if not result["correct"] else "no check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
