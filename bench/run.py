"""malalab benchmark: one workload per invocation, in a fresh process.

    python3 bench/run.py --workload {collapse,chain,mix,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; malalab is imported from ``src/``.
The run sets up (imports, targets, CDF tables, one warm-up call), then runs
whole rounds of the workload for S seconds, then checks every round's output
against computations made apart from the program (see ``workloads.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
of three set-ups: this process and two fresh ones), ``wall_s`` (median round
time), ``work_per_s`` (median of the rounds' work units per second; the unit
is the workload's) and ``peak_rss_mb``. With ``--trace 1`` the first half of
the time runs untraced and the second half traced, and the metrics are the
per-layer ones of ``spans.layer_metrics``; the spans are written to
``bench/out/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_CHILDREN = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("collapse", "chain", "mix", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def round_seed(seed: int, r: int) -> int:
    """Seed of round r of a run with seed ``seed``."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def child_setup_s(args) -> float:
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(workload, seed, seconds, tracer=None, replay=None):
    """Whole rounds until ``seconds`` have passed (at least one).

    Round r runs on round_seed(seed, r), or on round_seed(seed, r % replay)
    to repeat the inputs of an earlier phase of ``replay`` rounds. Returns
    (time, output) per round; the output of a round that raised is None.
    """
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r = len(rounds) % replay if replay else len(rounds)
        t0 = time.perf_counter()
        try:
            out = (tracer.round(workload.run, round_seed(seed, r)) if tracer
                   else workload.run(round_seed(seed, r)))
        except Exception as exc:  # a failing operation is counted, not fatal
            print(f"round {r} failed: {exc!r}", file=sys.stderr)
            out = None
        rounds.append((time.perf_counter() - t0, out))
    return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "malalab", "__init__.py")):
        print(f"bench: no malalab source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    import workloads

    workload = workloads.WORKLOADS[args.workload](OUT_DIR)
    workload.setup()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        import spans

        untraced = measure(workload, args.seed, args.seconds / 2)
        with spans.Tracer() as tracer:
            traced = measure(workload, args.seed, args.seconds / 2, tracer, len(untraced))
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.csv"))
        # Traced rounds repeat the untraced rounds' inputs, so they must give
        # the same outputs, and their time difference is the tracing overhead.
        twins = [untraced[i % len(untraced)] for i in range(len(traced))]
        differ = sum(out is not None and out != twin_out
                     for (_, out), (_, twin_out) in zip(traced, twins))
        totals = {}
        for _, out in traced:
            for key, n in (workload.work(out) if out is not None else {}).items():
                totals[key] = totals.get(key, 0) + n
        layer = spans.layer_metrics(tracer.spans, totals,
                                    statistics.fmean(t for t, _ in twins))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        rounds = untraced + traced
        checked = [out for _, out in untraced if out is not None]
    else:
        setup_samples = [setup_s] + [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
        rounds = measure(workload, args.seed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rates = [workload.work(out)[workload.unit] / t for t, out in rounds if out is not None]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": statistics.median(t for t, _ in rounds), "unit": "s"},
            "work_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        checked = [out for _, out in rounds if out is not None]
        differ = 0

    failures = workload.check(checked) if checked else ["no round completed"]
    if differ:
        failures.append(f"{differ} traced rounds differ from the same rounds untraced")
    for msg in failures:
        print(f"CHECK FAILED [{args.workload}]: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(rounds) * workload.ops_per_round,
        "failed": sum(out is None for _, out in rounds) * workload.ops_per_round,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
