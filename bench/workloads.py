"""The four workloads: what each runs through malalab's public entry points,
how much work a round does, and how its outputs are checked.

A round is a fixed set of operations on inputs derived from one round seed.
``setup`` builds what a user's process builds once (targets, CDF tables) and
makes one warm-up call. ``run`` does one round and returns its outputs;
``check`` takes the outputs of every round of a run and returns the failed
checks, each compared with a computation in :mod:`oracles` or with a
property the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

import oracles
from malalab import cli, kernels, verify
from malalab.potentials import adversarial_cosine, gaussian

Z_GATE = 4.0


def call_cli(argv) -> int:
    """``malalab <argv>`` in this process; its progress line is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def pooled(estimates):
    """Mean of independent (value, se) estimates and its standard error."""
    values = [v for v, _ in estimates]
    return (sum(values) / len(values),
            math.sqrt(sum(se * se for _, se in estimates)) / len(estimates))


class Collapse:
    """``malalab sweep-collapse`` at d = 2^12 and 2^14, eta = 0.2, h = d^-0.4."""

    name = "collapse"
    unit = "proposals"
    ops_per_round = 1
    N_STATES = 12
    N_MC = 48

    def __init__(self, out_dir):
        self.csv = os.path.join(out_dir, "collapse.csv")

    def _argv(self, seed, n_states):
        dims = ",".join(str(d) for d in oracles.COLLAPSE_DIMS)
        return ["sweep-collapse", "--seed", seed, "--threads", 1, "--out", self.csv,
                "--set", f"d_grid={dims}", "--set", f"eta={oracles.ETA}",
                "--set", "h_rule=power", "--set", "c=1", "--set", "p=-0.4",
                "--set", f"n_states={n_states}", "--set", f"n_mc={self.N_MC}"]

    def setup(self):
        for d in oracles.COLLAPSE_DIMS:
            for p in (gaussian(d), adversarial_cosine(d, oracles.ETA)):
                kernels.cdf_table_for(p)
        call_cli(self._argv(0, 2))

    def run(self, seed):
        rc = call_cli(self._argv(seed, self.N_STATES))
        return {"rc": rc, "rows": read_csv(self.csv)}

    def work(self, out):
        return {"proposals": sum(int(r["n"]) for r in out["rows"])}

    def check(self, outs):
        failures = [f"exit code {o['rc']}" for o in outs if o["rc"] != 0]
        ref = oracles.load_reference()["collapse_adversarial"]["by_d"]
        for d in oracles.COLLAPSE_DIMS:
            h = d**-0.4
            cells = {"gaussian": [], "adversarial": []}
            for o in outs:
                for r in o["rows"]:
                    if int(r["d"]) != d:
                        continue
                    if abs(float(r["h"]) - h) > 1e-12 * h:
                        failures.append(f"d={d}: h={r['h']}, expected d^-0.4 = {h!r}")
                    kind = "gaussian" if r["eta"] == "" else "adversarial"
                    cells[kind].append((float(r["value"]), float(r["std_error"])))
            if not cells["gaussian"] or not cells["adversarial"]:
                failures.append(f"d={d}: missing rows")
                continue
            exact = oracles.gaussian_mean_acceptance(d, h)
            g, g_se = pooled(cells["gaussian"])
            if abs(g - exact) > Z_GATE * g_se:
                failures.append(f"d={d}: Gaussian acceptance {g:.5f} ± {g_se:.5f}, "
                                f"exact {exact:.5f}")
            a, a_se = pooled(cells["adversarial"])
            r_val, r_se = ref[str(d)]["value"], ref[str(d)]["std_error"]
            se = math.hypot(a_se, r_se)
            if abs(a - r_val) > Z_GATE * se:
                failures.append(f"d={d}: adversarial acceptance {a:.5f} ± {a_se:.5f}, "
                                f"independent estimate {r_val:.5f} ± {r_se:.5f}")
            if exact - a <= 3.0 * a_se:
                failures.append(f"d={d}: adversarial acceptance {a:.5f} ± {a_se:.5f} "
                                f"not below the Gaussian's {exact:.5f} by 3 SE")
        return failures


class Chain:
    """``kernels.run_chain`` at d = 1, h = 0.2, thin = 1: MALA on the Gaussian
    and on the perturbed target, and ULA on the Gaussian."""

    name = "chain"
    unit = "steps"
    H = 0.2
    STEPS = 16_000
    BATCH = 400
    ops_per_round = 3

    def __init__(self, out_dir):
        self.chains = None

    def setup(self):
        self.chains = (
            ("mala_gaussian", gaussian(1), kernels.KernelParams(h=self.H)),
            ("mala_adversarial", adversarial_cosine(1, oracles.ETA),
             kernels.KernelParams(h=self.H)),
            ("ula_gaussian", gaussian(1), kernels.KernelParams(h=self.H, variant=kernels.ULA)),
        )
        for _, p, params in self.chains:
            kernels.run_chain(p, params, np.zeros(1), 200, seed=0, thin=1)

    def run(self, seed):
        rng = np.random.default_rng(seed)
        out = {}
        for label, p, params in self.chains:
            x0 = rng.standard_normal(1)
            res = kernels.run_chain(p, params, x0, self.STEPS,
                                    seed=int(rng.integers(2**31)), thin=1)
            # Batch means of x^2 over the chain after its start state.
            sq = res.trajectory[1:, 0] ** 2
            out[label] = sq.reshape(-1, self.BATCH).mean(axis=1).tolist()
        return out

    def work(self, out):
        return {"steps": self.STEPS * len(out)}

    def check(self, outs):
        d = 1
        amp, w = 0.5 * d ** (-2.0 * oracles.ETA), d**oracles.ETA
        targets = {
            "mala_gaussian": 1.0,
            "mala_adversarial": oracles.marginal_second_moment(amp, w),
            "ula_gaussian": 1.0 / (1.0 - self.H / 2.0),
        }
        failures = []
        for label, target in targets.items():
            batches = np.concatenate([o[label] for o in outs])
            mean = float(batches.mean())
            se = float(batches.std(ddof=1)) / math.sqrt(len(batches))
            if abs(mean - target) > Z_GATE * se:
                failures.append(f"{label}: mean x^2 {mean:.5f} ± {se:.5f}, "
                                f"expected {target:.5f}")
        return failures


class Mix:
    """``malalab mix`` on N(0, I_64), theorem1 h, warm-half start, 4096
    replicas, eps = 0.05 (below the start's sliced TV of about 0.1)."""

    name = "mix"
    unit = "replica_steps"
    ops_per_round = 1

    def __init__(self, out_dir):
        self.csv = os.path.join(out_dir, "mix.csv")

    def _argv(self, seed, max_steps):
        return ["mix", "--seed", seed, "--threads", 1, "--out", self.csv,
                "--set", "kind=gaussian", "--set", f"d_grid={oracles.MIX_D}",
                "--set", "h_rule=theorem1", "--set", "c=0.1",
                "--set", f"eps={oracles.MIX_EPS}", "--set", "start=warm-half",
                "--set", f"n_replicas={oracles.MIX_REPLICAS}",
                "--set", f"max_steps={max_steps}"]

    def setup(self):
        kernels.cdf_table_for(gaussian(oracles.MIX_D))
        call_cli(self._argv(0, 3))

    def run(self, seed):
        rc = call_cli(self._argv(seed, oracles.MIX_MAX_STEPS))
        (row,) = read_csv(self.csv)
        return {"rc": rc, "steps": int(float(row["value"])), "h": float(row["h"])}

    def work(self, out):
        return {"replica_steps": oracles.MIX_REPLICAS * out["steps"]}

    def check(self, outs):
        ref = np.array(oracles.load_reference()["mix_steps"]["steps"], dtype=float)
        h = oracles.theorem1_step(oracles.MIX_D, oracles.MIX_EPS)
        failures = []
        for o in outs:
            if o["rc"] != 0:
                failures.append(f"exit code {o['rc']}")
            if abs(o["h"] - h) > 1e-12 * h:
                failures.append(f"h={o['h']!r}, theorem1 rule gives {h!r}")
            if not 0 < o["steps"] < oracles.MIX_MAX_STEPS:
                failures.append(f"{o['steps']} steps: censored or already mixed at start")
        # The run's mean step count against the independent implementation's,
        # both with the independent runs' spread.
        mean = float(np.mean([o["steps"] for o in outs]))
        spread = float(ref.std(ddof=1))
        band = Z_GATE * spread * math.sqrt(1.0 / len(outs) + 1.0 / len(ref))
        if abs(mean - ref.mean()) > band:
            failures.append(f"mean of {len(outs)} step counts {mean:.1f} outside "
                            f"{ref.mean():.1f} ± {band:.1f} from the independent implementation")
        return failures


class Verify:
    """``malalab verify`` on one seed of the pool 0..63 per round."""

    name = "verify"
    unit = "seeds"
    ops_per_round = 1
    SEED_POOL = 64

    def __init__(self, out_dir):
        self.csv = os.path.join(out_dir, "verify.csv")

    def setup(self):
        verify.kernel_checks(0)

    def run(self, seed):
        rc = call_cli(["verify", "--seed", seed % self.SEED_POOL, "--out", self.csv])
        rows = read_csv(self.csv)
        return {"rc": rc, "rows": len(rows),
                "failed": [r["check"] for r in rows if r["passed"] != "true"]}

    def work(self, out):
        return {"seeds": 1}

    def check(self, outs):
        failures = []
        for o in outs:
            if o["rc"] != 0 or o["rows"] == 0 or o["failed"]:
                failures.append(f"exit code {o['rc']}, {o['rows']} rows, failed {o['failed']}")
        # Negative control: a biased acceptance ratio must make verify fail.
        if call_cli(["verify", "--seed", 0, "--corrupt-accept", "--out", self.csv]) == 0:
            failures.append("verify --corrupt-accept exited 0")
        return failures


WORKLOADS = {w.name: w for w in (Collapse, Chain, Mix, Verify)}
