"""Run a pinned set of malalab invocations and print one md5 per output.

    python3 tools/golden_outputs.py OUT_DIR [--source CHECKOUT]

Each invocation runs in a fresh interpreter with ``CHECKOUT/src`` first on
``PYTHONPATH`` (default: the checkout holding this script) and with
``OUT_DIR`` as its working directory, so the progress line it prints names
a relative path. The CSV and the captured stdout of every CLI run are
written to ``OUT_DIR``, and so are ``run_chain.txt``, ``oracles.txt`` and
``projection.txt`` from the pinned ``run_chain``, oracle and projection-check
scripts; the script prints ``<md5>  <file>`` for each, sorted by name. Running it on two commits and comparing the listings shows whether a
refactor left every output byte-identical. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

# (name, argv after ``malalab``); each run writes <name>.csv and <name>.stdout.
PINNED = (
    ("verify_seed0", ["verify", "--seed", "0"]),
    ("verify_seed42", ["verify", "--seed", "42"]),
    ("sweep_collapse", ["sweep-collapse", "--seed", "5", "--set", "d_grid=256,4096",
                        "--set", "n_states=12", "--set", "n_mc=48"]),
    ("sweep_accept", ["sweep-accept", "--seed", "3", "--set", "d_grid=64,256",
                      "--set", "n_states=20", "--set", "n_mc=20"]),
    ("sweep_gap", ["sweep-gap", "--seed", "3", "--set", "d_grid=16",
                   "--set", "n_states=2000"]),
    ("mix", ["mix", "--seed", "3", "--set", "d_grid=16,64"]),
    ("finite_selftest", ["finite-selftest", "--seed", "7", "--set", "n_instances=30"]),
)

# run_chain, which no CLI command reaches: MALA and ULA on both targets at
# d = 1 (the float loop) and d = 7, every state recorded. Floats are written
# by repr, which round-trips every bit.
RUN_CHAIN = """
import sys
from malalab.kernels import MALA, ULA, KernelParams, run_chain
from malalab.potentials import adversarial_cosine, gaussian
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    for d in (1, 7):
        for p in (gaussian(d), adversarial_cosine(d, 0.2)):
            for variant in (MALA, ULA):
                res = run_chain(p, KernelParams(h=0.2, variant=variant), [0.5] * d,
                                1000, seed=11, thin=1)
                print(p.kind, d, variant, res.n_accepted, repr(res.mean_sq_displacement_coord1),
                      res.final_x.tolist(), file=fh)
                for row in res.trajectory.tolist():
                    print(*map(repr, row), file=fh)
"""

# The oracle layer, which verify.csv reads only through the worst case over d:
# the inverse-CDF tables of four targets, the KL divergence at every octave of
# criterion 6 and the coordinate factor with its first-order part. Only names
# that a checkout from before the oracles took a Potential also has.
ORACLES = """
import sys
from malalab.kernels import cdf_table_for
from malalab.oracle1d import (coordinate_factor, coordinate_factor_first_order,
                              kl_gaussian_vs_adversarial)
from malalab.potentials import adversarial_cosine, gaussian
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    for p in (gaussian(1), gaussian(4096), adversarial_cosine(64, 0.2),
              adversarial_cosine(4096, 0.195)):
        table = cdf_table_for(p)
        print(p.kind, p.d, p.eta, file=fh)
        print(*map(repr, table.grid.tolist()), file=fh)
        print(*map(repr, table.cdf.tolist()), file=fh)
    for k in range(8, 17):
        print("kl", 2**k, repr(kl_gaussian_vs_adversarial(0.2, 2**k)), file=fh)
    for d in (256, 4096):
        h = d**-0.4
        for x1 in (-4.0, -1.3, 0.0, 0.7, 2.2):
            print("coordinate_factor", d, x1, repr(coordinate_factor(x1, h, 0.2, d)),
                  repr(coordinate_factor_first_order(x1, h, 0.2, d)), file=fh)
"""

# Criterion 8's estimator, which no CLI command reaches: both sides of the
# projection inequality and the threshold at two small configs.
PROJECTION = """
import sys
from malalab.diagnostics import projection_check_gaussian
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    for h, d, n_states, n_mc, seed in ((0.05, 32, 20, 1000, 1010), (0.2, 8, 10, 500, 3)):
        rep = projection_check_gaussian(h, d, n_states, n_mc, seed)
        print(h, d, n_states, n_mc, seed, repr(rep.lhs), repr(rep.rhs), repr(rep.threshold),
              file=fh)
"""


def run_pinned(source: str, out_dir: str) -> list[str]:
    """Run every pinned invocation; return the names of the files written."""
    env = dict(os.environ)
    env.pop("SEED", None)
    src = os.path.join(source, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def run(name, args):
        proc = subprocess.run([sys.executable, *args], cwd=out_dir, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    written = []
    for name, argv in PINNED:
        csv_name, stdout_name = f"{name}.csv", f"{name}.stdout"
        stdout = run(name, ["-m", "malalab", *argv, "--out", csv_name])
        with open(os.path.join(out_dir, stdout_name), "w", encoding="utf-8") as fh:
            fh.write(stdout)
        written += [csv_name, stdout_name]
    run("run_chain", ["-c", RUN_CHAIN, "run_chain.txt"])
    run("oracles", ["-c", ORACLES, "oracles.txt"])
    run("projection", ["-c", PROJECTION, "projection.txt"])
    return sorted(written + ["run_chain.txt", "oracles.txt", "projection.txt"])


def md5_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.md5(fh.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory for the outputs (created if absent)")
    parser.add_argument("--source", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="source checkout to run (default: this one)")
    args = parser.parse_args(argv)
    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    for name in run_pinned(os.path.abspath(args.source), out_dir):
        print(f"{md5_of(os.path.join(out_dir, name))}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
