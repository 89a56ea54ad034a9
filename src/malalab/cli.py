"""Command-line driver: verification suite and experiment sweeps.

Subcommands
-----------
verify          run the oracle + kernel + finite-chain verification suite
sweep-accept    mean acceptance across a dimension grid (Gaussian default)
sweep-collapse  adversarial acceptance collapse with Gaussian companion rows
sweep-gap       Dirichlet-form spectral-gap upper estimates over an h grid
mix             steps until the replicas' sliced TV is <= eps (trend only)
finite-selftest per-instance exact finite-chain report

Configuration is a plain-text key=value file (``--config``), overridable
with repeated ``--set key=value`` flags; ``--seed`` beats the ``SEED``
environment variable, which beats the config file. Sweep cells execute in
parallel under ``--threads`` with per-cell derived seeds and rows are
written in a canonical sorted order, so output files are byte-identical for
identical config+seed regardless of scheduling.

Sweep CSV header (stable): ``experiment,d,h,eta,estimator,value,std_error,n,seed``.

The theorem1 step-size rule is h = c·alpha^{1/2} / (beta^{4/3}·d^{1/2}·
log(d·kappa·M0/eps)); its constant c (default 0.1) and the acceptance-floor
constant c0 = 0.5 used by sweep-accept are calibration choices, not derived
values. A mixing count is the first step at which the replicas' sliced TV,
its finite-sample noise floor included, is at most eps; it is not a lower
bound on the TV mixing time, although the rows keep the pinned label
``sliced_tv_mixing_steps_lower_bound``.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NoReturn, get_args, get_origin, get_type_hints

import numpy as np

from . import diagnostics, kernels, verify
from .potentials import Potential, adversarial_cosine
from .rng import substream

SWEEP_HEADER = ("experiment", "d", "h", "eta", "estimator", "value",
                "std_error", "n", "seed")


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; every field can come from a key=value config file."""

    kind: str = "gaussian"
    eta: float = 0.2
    d_grid: tuple[int, ...] = (64,)
    h_rule: str = "power"  # fixed | power | theorem1
    c: float = 0.5
    p: float = -1.0 / 3.0
    h_grid: tuple[float, ...] = ()
    n_states: int = 200
    n_mc: int = 200
    n_replicas: int = 4096
    m0: float = 1.0
    eps: float = 0.25
    max_steps: int = 2000
    start: str = "warm-half"  # a key of _STARTS
    n_instances: int = 500
    seed: int = 0


_FIELD_TYPES = get_type_hints(SweepConfig)


def _coerce(key: str, raw: str):
    """Parse ``raw`` as field ``key``'s annotated type; tuples are comma-separated."""
    kind = _FIELD_TYPES[key]
    try:
        if get_origin(kind) is tuple:
            item = get_args(kind)[0]
            return tuple(item(tok) for tok in raw.split(",") if tok.strip())
        return kind(raw)
    except ValueError:
        raise ValueError(f"config line {key}={raw}: not a valid value") from None


def load_config(base: SweepConfig, path: str | None, sets: list[str]) -> SweepConfig:
    """Apply a key=value file and then --set overrides to the defaults."""
    updates = {}
    entries: list[str] = []
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            entries.extend(fh.read().splitlines())
    entries.extend(sets)
    for raw in entries:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {line!r}")
        key, val = (tok.strip() for tok in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        updates[key] = _coerce(key, val)
    return replace(base, **updates)


def target_for(cfg: SweepConfig, d: int) -> Potential:
    if cfg.kind == "adversarial":
        return adversarial_cosine(d, cfg.eta)
    return Potential(cfg.kind, d)  # the Gaussian; any other kind raises ValueError


def step_size(cfg: SweepConfig, d: int, p: Potential) -> float:
    """Resolve the step-size rule at dimension d."""
    if cfg.h_rule == "fixed":
        return cfg.c
    if cfg.h_rule == "power":
        return cfg.c * d**cfg.p
    if cfg.h_rule == "theorem1":
        kappa = p.beta / p.alpha
        return (cfg.c * math.sqrt(p.alpha)
                / (p.beta ** (4.0 / 3.0) * math.sqrt(d)
                   * math.log(d * kappa * cfg.m0 / cfg.eps)))
    raise ValueError(f"unknown h_rule {cfg.h_rule!r}")


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    seed = _config(args, SweepConfig()).seed
    rows = verify.run_all_checks(seed, corrupt_accept=args.corrupt_accept)
    rows = sorted(rows, key=lambda r: r.name)
    out = args.out or "verify.csv"
    _write_csv(out, ("check", "value", "bound", "slack", "passed"),
               ((r.name, repr(r.value), repr(r.bound), repr(r.slack),
                 str(r.passed).lower()) for r in rows))
    failures = [r for r in rows if not r.passed]
    print(f"verify: {len(rows) - len(failures)}/{len(rows)} checks passed -> {out}")
    for r in failures:
        print(f"FAIL {r.name}: value={r.value:.6g} bound={r.bound:.6g} "
              f"slack={r.slack:.3g}")
    return 0 if not failures else 1


def _row(cfg: SweepConfig, experiment: str, d: int, h: float, estimator: str,
         value: float, std_error: float, n: int) -> tuple:
    eta = "" if cfg.kind == "gaussian" else cfg.eta
    return (experiment, d, h, eta, estimator, value, std_error, n, cfg.seed)


def _cell(run, cfg: SweepConfig, d: int, *args):
    """run(cfg, p, h, *args) as a cell, with the target p and step h at d checked now."""
    p = target_for(cfg, d)
    h = step_size(cfg, d, p)
    kernels._check_step(h)
    return partial(run, cfg, p, h, *args)


def _acceptance_cell(cfg: SweepConfig, p: Potential, h: float, experiment: str, idx: int):
    res = diagnostics.mean_acceptance(
        p, h, cfg.n_states, cfg.n_mc,
        seed=substream(cfg.seed, "sweep", experiment, idx),
    )
    return _row(cfg, experiment, p.d, h, "mean_acceptance",
                res.estimate.value, res.estimate.std_error, res.n_states * res.n_mc)


def _gap_cell(cfg: SweepConfig, p: Potential, h: float, idx: int):
    res = diagnostics.dirichlet_gap_upper(p, h, cfg.n_states,
                                          substream(cfg.seed, "sweep", "gap", idx))
    return _row(cfg, "gap", p.d, h, "dirichlet_gap_upper",
                res.value, res.std_error, res.n_samples)


# The mix replicas' starting laws: (p, n, rng) -> n rows of dimension p.d.
_STARTS = {
    "warm-half": lambda p, n, rng: math.sqrt(0.5) * rng.standard_normal((n, p.d)),
    "exact": lambda p, n, rng: kernels.sample_separable_target(p, n, rng),
    "origin": lambda p, n, rng: np.zeros((n, p.d)),
}


def _mix_cell(cfg: SweepConfig, p: Potential, h: float, idx: int):
    steps = diagnostics.mixing_time_measure(
        p, h, partial(_STARTS[cfg.start], p), cfg.eps, cfg.max_steps, cfg.n_replicas,
        substream(cfg.seed, "sweep", "mix", idx),
    )
    return _row(cfg, "mix", p.d, h, "sliced_tv_mixing_steps_lower_bound",
                float(steps), 0.0, cfg.n_replicas)


def _acceptance_cells(cfg: SweepConfig, experiment: str, kinds: tuple[str, ...]):
    if cfg.n_states < 2 or cfg.n_mc < 1:
        raise ValueError("need n_states >= 2 and n_mc >= 1")
    # Cell i·len(kinds) + j is the target of kinds[j] at d_grid[i].
    return [_cell(_acceptance_cell, replace(cfg, kind=kind), d, experiment,
                  i * len(kinds) + j)
            for i, d in enumerate(cfg.d_grid) for j, kind in enumerate(kinds)]


def _mix_cells(cfg: SweepConfig):
    if cfg.start not in _STARTS:
        raise ValueError(f"unknown start {cfg.start!r}")
    n_min = diagnostics._TV_MIN_ROWS
    if not 0.0 < cfg.eps < 1.0 or cfg.max_steps < 0 or cfg.n_replicas < n_min:
        raise ValueError(f"mix needs eps in (0, 1), max_steps >= 0 and n_replicas >= {n_min}")
    return [_cell(_mix_cell, cfg, d, i) for i, d in enumerate(cfg.d_grid)]


def _gap_cells(cfg: SweepConfig):
    if not cfg.h_grid or cfg.n_states < 2:
        raise ValueError("sweep-gap needs a nonempty h_grid and n_states >= 2")
    # Each h of h_grid is a fixed step.
    return [_cell(_gap_cell, replace(cfg, h_rule="fixed", c=h), d, i * len(cfg.h_grid) + j)
            for i, d in enumerate(cfg.d_grid) for j, h in enumerate(cfg.h_grid)]


@dataclass(frozen=True)
class _Sweep:
    """A sweep subcommand: its defaults, the builder of its cells (zero-argument
    callables, one row each), its default output path and its progress note."""

    defaults: SweepConfig
    cells: Callable[[SweepConfig], list]
    out: str
    note: str = ""


SWEEPS = {
    "sweep-accept": _Sweep(
        SweepConfig(kind="gaussian", d_grid=tuple(2**k for k in range(6, 13)),
                    h_rule="power", c=0.5, p=-1.0 / 3.0),
        lambda cfg: _acceptance_cells(cfg, "accept", (cfg.kind,)), "sweep_accept.csv"),
    "sweep-collapse": _Sweep(
        SweepConfig(kind="adversarial", eta=0.2,
                    d_grid=tuple(2**k for k in range(8, 17)),
                    h_rule="power", c=1.0, p=-0.4, n_states=256, n_mc=64),
        # Each perturbed target has a Gaussian companion at the same d.
        lambda cfg: _acceptance_cells(cfg, "collapse", ("adversarial", "gaussian")),
        "sweep_collapse.csv"),
    "sweep-gap": _Sweep(
        SweepConfig(kind="adversarial", eta=0.2, d_grid=(64,),
                    h_grid=(1e-3, 1e-2, 0.05, 0.1, 0.3, 0.5), n_states=100_000),
        _gap_cells, "sweep_gap.csv"),
    "mix": _Sweep(
        SweepConfig(kind="gaussian", d_grid=(64,), h_rule="theorem1",
                    c=0.1, eps=0.05, n_replicas=4096, max_steps=2000),
        # The note is stale (see mixing_time_measure), but tools/golden_outputs.md5 pins it.
        _mix_cells, "mix.csv", " (lower-bound proxy, trend only)"),
}


def cmd_sweep(args) -> int:
    sweep = SWEEPS[args.command]
    cfg = _config(args, sweep.defaults)
    try:  # building the cells resolves every target and step size
        if not cfg.d_grid:
            raise ValueError("d_grid must not be empty")
        cells = sweep.cells(cfg)
    except ValueError as exc:
        _usage_error(str(exc))
    if args.threads <= 1:
        rows = [cell() for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(lambda cell: cell(), cells))
    rows.sort(key=lambda r: (r[0], r[1], r[2], str(r[3]), r[4]))
    out = args.out or sweep.out
    _write_csv(out, SWEEP_HEADER, ([_fmt(v) for v in row] for row in rows))
    print(f"{args.command}: {len(rows)} rows{sweep.note} -> {out}")
    return 0


def cmd_finite_selftest(args) -> int:
    cfg = _config(args, SweepConfig())
    rows, all_ok = verify.finite_selftest_rows(cfg.n_instances, cfg.seed)
    out = args.out or "finite_selftest.csv"
    _write_csv(out, ("instance", "check", "slack"),
               ((i, check, repr(slack)) for i, check, slack in rows))
    print(f"finite-selftest: {len(rows)} rows, "
          f"{'all passed' if all_ok else 'FAILURES'} -> {out}")
    return 0 if all_ok else 1


def _config(args, defaults: SweepConfig) -> SweepConfig:
    """Defaults, then the config file and ``--set`` lines, then the seed.

    Seed precedence: ``--seed`` > ``SEED`` > a ``seed=`` config line > 0.
    A config error or a seed that is not a non-negative integer ends the run
    with one line on stderr and status 2, before any cell runs.
    """
    try:
        cfg = load_config(defaults, args.config, args.set)
    except (OSError, ValueError) as exc:
        _usage_error(str(exc))
    if args.seed is not None:
        raw, source = args.seed, "--seed"
    elif "SEED" in os.environ:
        raw, source = os.environ["SEED"], "SEED"
    else:
        raw, source = cfg.seed, "seed= line"
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        _usage_error(f"{source} must be a non-negative integer, got {raw!r}")
    return replace(cfg, seed=seed)


def _usage_error(message: str) -> NoReturn:
    print(f"malalab: {message}", file=sys.stderr)
    raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malalab",
        description="Langevin sampling laboratory: verification and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--seed", default=None,
                        help="master seed (default: SEED env var, then a "
                             "seed= config line, then 0)")
        sp.add_argument("--out", default=None, help="output CSV path")
        sp.add_argument("--threads", type=int, default=1,
                        help="parallel sweep cells (default 1)")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        help="override a config key (repeatable)")

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    sp.add_argument("--corrupt-accept", action="store_true",
                    help="test fixture: bias the acceptance ratio (must fail)")
    sp.set_defaults(func=cmd_verify)

    for name, func in ([(name, cmd_sweep) for name in SWEEPS]
                       + [("finite-selftest", cmd_finite_selftest)]):
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
