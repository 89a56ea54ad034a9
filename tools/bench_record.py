"""Record benchmark runs of one or more checkouts in one BENCH_*.json file.

    python3 tools/bench_record.py OUT.json LABEL=CHECKOUT [LABEL=CHECKOUT ...] \
        [--seed 9601]

The benchmark is the one each checkout's ``BENCHMARK.json`` declares; all
checkouts must declare the same command, run length, workloads and
end-to-end metrics. For each workload W and each of the 10 seeds
S = seed, seed + 1, ..., every checkout runs

    COMMAND --workload W --seed S --seconds RUN_SECONDS --trace 0

in its own root. The checkouts take turns, and which one goes first
alternates from seed to seed, so a drift of the machine falls on both
alike. Then each checkout makes one ``--trace 1`` run of each workload.
Runs are sequential, so no run of this script competes with a timed one.

The file holds the machine (nproc, the CPUs this process may use and the
cgroup's cpu.max where readable, platform, python, numpy and scipy versions) and, per checkout, its git revision and per workload: every
run's seed, ``correct`` and ``failed`` counts and end-to-end metrics; the
q1/median/q3 of each end-to-end metric; and the per-layer metrics of the traced run. A summary of the medians is
printed. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

# Pairs of parent and change needed before a gain can be claimed.
RUNS = 10


def benchmark_spec(checkout: str) -> dict:
    """What ``BENCHMARK.json`` in ``checkout`` fixes about a run."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"command": spec["command"], "seconds": spec["run_seconds"],
            "workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": [m["name"] for m in spec["end_to_end"]]}


def bench_run(checkout: str, spec: dict, workload: str, seed: int, trace: int) -> dict:
    """The result line of one benchmark run in ``checkout``."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * spec["seconds"] + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_revision(checkout: str) -> str | None:
    """The checkout's commit, with -dirty if it has changes; None outside git."""
    proc = subprocess.run(["git", "-C", checkout, "describe", "--always", "--dirty",
                           "--abbrev=40"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    def cgroup_cpu_max():
        # "QUOTA PERIOD" in microseconds, or "max PERIOD"; None where unreadable.
        try:
            with open("/sys/fs/cgroup/cpu.max", encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    # nproc is the host's count; a gain from a second core needs usable_cpus >= 2.
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"nproc": os.cpu_count(), "usable_cpus": usable, "cgroup_cpu_max": cgroup_cpu_max(),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT",
                        help="a label and the root of a source checkout")
    parser.add_argument("--seed", type=int, default=9601, help="seed of the first run")
    args = parser.parse_args(argv)
    labels, specs = {}, []
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not sep or not os.path.isfile(os.path.join(path, "BENCHMARK.json")):
            parser.error(f"{item!r} is not LABEL=CHECKOUT with CHECKOUT/BENCHMARK.json")
        labels[label] = os.path.abspath(path)
        specs.append(benchmark_spec(path))
    if any(spec != specs[0] for spec in specs):
        parser.error("the checkouts' BENCHMARK.json files declare different runs")
    args.checkouts, args.spec = labels, specs[0]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec, labels = args.spec, list(args.checkouts)
    records = {label: {"git_revision": git_revision(path), "workloads": {}}
               for label, path in args.checkouts.items()}
    for workload in spec["workloads"]:
        runs = {label: [] for label in labels}
        for i in range(RUNS):
            seed = args.seed + i
            order = labels if i % 2 == 0 else labels[::-1]
            for label in order:
                result = bench_run(args.checkouts[label], spec, workload, seed, 0)
                runs[label].append({
                    "seed": seed, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    **{m: result["metrics"][m]["value"] for m in spec["end_to_end"]},
                })
                print(f"{workload} seed {seed} {label}: work_per_s "
                      f"{runs[label][-1]['work_per_s']:.6g}", file=sys.stderr, flush=True)
        for label in labels:
            traced = bench_run(args.checkouts[label], spec, workload, args.seed, 1)
            records[label]["workloads"][workload] = {
                "runs": runs[label],
                "end_to_end": {m: quartiles([r[m] for r in runs[label]])
                               for m in spec["end_to_end"]},
                "per_layer": {"seed": args.seed, "correct": traced["correct"],
                              **{name: m["value"] for name, m in traced["metrics"].items()}},
            }
    record = {"machine": machine(), "seconds": spec["seconds"], "records": records}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload in spec["workloads"]:
        for m in spec["end_to_end"]:
            medians = "  ".join(
                f"{label} {records[label]['workloads'][workload]['end_to_end'][m]['median']:.6g}"
                for label in labels)
            print(f"{workload} {m}: {medians}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
