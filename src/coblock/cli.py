"""Command-line driver.

Commands:
    fit        fit a single (g, d) model and write labels/params/trace
    select     grid-search (g, d) by the BIC-style criterion
    simulate   draw a synthetic dataset from a params JSON file
    influence  fit, then rank columns by influence score
    benchmark  time fits over a grid of n and d, write timing.csv

Every command takes --seed and writes deterministic files: rerunning
with identical inputs and seed reproduces the bytes exactly (benchmark's
timing.csv is the one exception, since it records wall-clock time).
Each writes manifest.json with the keys "command", "version", the
arguments it echoes, "config" (the BemConfig; not for simulate) and its
results, in that order, from one writer (_manifest).
Errors exit with status 1 and a one-line diagnostic on stderr; unusable
counts, tolerances, seeds and ranges are reported before any file is read.
fit, select and influence create --out once their input has loaded and
before they fit, so an --out that cannot be made fails before the work;
a fit that fails after that point leaves the directory behind.

fit, select and influence stop a restart once a sweep raises the free
energy by less than --tol relative. benchmark has no --tol: it fits
with a tolerance of 0, which disables that stop, so each restart runs
exactly --max-iters sweeps and timing.csv records the count.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .bem import BemConfig, fit
from .dataio import (
    load_dataset,
    read_params_json,
    write_bic_grid_csv,
    write_free_energy_csv,
    write_influence_csv,
    write_json,
    write_labels_csv,
    write_params_json,
    write_timing_csv,
    write_x_csv,
    write_y_csv,
)
from .errors import CoblockError, ParseError
from .influence import influence_report
from .selection import select
from .simulate import SimConfig, generate, separated_params


def _parse_range(text: str):
    """Inclusive integer range "A:B" -> [A, ..., B]."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"range {text!r} is not of the form A:B")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"range {text!r} has non-integer endpoints") from exc
    if lo < 1 or hi < lo:
        raise ParseError(f"range {text!r} must satisfy 1 <= A <= B")
    return list(range(lo, hi + 1))


def _parse_int_list(text: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"list {text!r} must be comma-separated integers") from exc
    if not values:
        raise ParseError(f"list {text!r} is empty")
    return values


def _add_fit_flags(sub, restarts: int, max_iters: int) -> None:
    """--seed, --restarts and --max-iters, for every command that fits."""
    sub.add_argument(
        "--seed", type=int, default=BemConfig().seed, help="random seed (default %(default)s)"
    )
    sub.add_argument("--restarts", type=int, default=restarts, help="independent restarts")
    sub.add_argument("--max-iters", type=int, default=max_iters, help="outer iteration cap")


def _add_bem_flags(sub) -> None:
    """The data flags and fitting settings of fit, select and influence."""
    sub.add_argument("--x", required=True, help="binary matrix CSV")
    sub.add_argument("--y", required=True, help="covariate CSV")
    sub.add_argument("--out", required=True, help="output directory")
    cfg = BemConfig()  # the library's defaults are the CLI's
    _add_fit_flags(sub, cfg.n_restarts, cfg.max_outer_iters)
    sub.add_argument(
        "--tol", type=float, default=cfg.free_energy_rel_tol, help="relative free-energy tolerance"
    )


def _check_counts(args) -> None:
    """Reject counts, tolerances, seeds and ranges no run can use, before any file is read."""
    # benchmark's --g is worded by separated_params; fit checks g <= n, d <= m
    fitted = ("g", "d") if args.command in ("fit", "influence") else ()
    for flag in ("restarts", "max_iters", "reps", *fitted):
        value = getattr(args, flag, 1)
        if value < 1:
            raise ParseError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
    if not getattr(args, "tol", 0.0) >= 0:  # NaN fails too
        raise ParseError(f"--tol must be >= 0, got {args.tol}")
    if args.seed < 0:
        raise ParseError(f"--seed must be >= 0, got {args.seed}")
    if args.command == "select":
        args.gs, args.ds = _parse_range(args.g_range), _parse_range(args.d_range)


def _bem_config(args, **fixed) -> BemConfig:
    """The BemConfig of the fitting flags; fixed sets what the command has no
    flag for (benchmark's tolerance and refinement)."""
    if "tol" in args:
        fixed["free_energy_rel_tol"] = args.tol
    return BemConfig(
        max_outer_iters=args.max_iters, n_restarts=args.restarts, seed=args.seed, **fixed
    )


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CoblockError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _manifest(out: Path, args, echo, cfg: BemConfig | None = None, **results) -> None:
    """Write out/manifest.json in the layout the module docstring gives."""
    record = {"command": args.command, "version": __version__}
    record.update((name, getattr(args, name)) for name in echo)
    if cfg is not None:
        record["config"] = asdict(cfg)
    record.update(results)
    write_json(out / "manifest.json", record)


def _cmd_fit(args) -> int:
    x, y = load_dataset(args.x, args.y)
    out = _outdir(args)
    cfg = _bem_config(args)
    result = fit(x, y, args.g, args.d, cfg)
    write_labels_csv(out / "labels.csv", result.map_labels)
    write_params_json(out / "params.json", result.params)
    write_free_energy_csv(out / "free_energy.csv", result.free_energy_trace)
    _manifest(
        out, args, ("x", "y", "g", "d"), cfg,
        converged=result.converged, n_iters=result.n_iters, free_energy=result.final_free_energy,
    )
    print(
        f"fit g={args.g} d={args.d}: converged={result.converged} "
        f"iters={result.n_iters} free_energy={result.final_free_energy:.6f}"
    )
    return 0


def _cmd_select(args) -> int:
    x, y = load_dataset(args.x, args.y)
    out = _outdir(args)
    cfg = _bem_config(args)
    grid = select(x, y, args.gs, args.ds, cfg)
    write_bic_grid_csv(out / "bic_grid.csv", grid)
    best_g, best_d = grid.best
    _manifest(
        out, args, ("x", "y", "g_range", "d_range"), cfg,
        best_g=best_g, best_d=best_d, best_bic=grid.best_cell().bic,
        failures={f"{g},{d}": msg for (g, d), msg in sorted(grid.failures.items())},
    )
    print(f"best: g={best_g} d={best_d} bic={grid.best_cell().bic:.6f}")
    return 0


def _cmd_simulate(args) -> int:
    params = read_params_json(args.params)
    sim = generate(SimConfig(n=args.n, m=args.m, params=params, seed=args.seed))
    out = _outdir(args)
    # y first: it refuses p = 0, and then no x.csv is left behind
    write_y_csv(out / "y.csv", sim.y)
    write_x_csv(out / "x.csv", sim.x)
    write_labels_csv(out / "truth_labels.csv", sim.truth)
    _manifest(out, args, ("params", "n", "m", "seed"))
    print(f"simulated n={args.n} m={args.m} from {args.params}")
    return 0


def _cmd_influence(args) -> int:
    x, y = load_dataset(args.x, args.y)
    out = _outdir(args)
    cfg = _bem_config(args)
    result = fit(x, y, args.g, args.d, cfg)
    report = influence_report(x, y, result)
    write_influence_csv(out / "influence.csv", report, result.map_labels)
    write_labels_csv(out / "labels.csv", result.map_labels)
    write_params_json(out / "params.json", result.params)
    _manifest(out, args, ("x", "y", "g", "d"), cfg, top_column=int(report.ranking[0]))
    print(f"influence: top column {int(report.ranking[0])} of {x.m}")
    return 0


def _cmd_benchmark(args) -> int:
    n_values = _parse_int_list(args.n_list)
    d_values = _parse_int_list(args.d_list)
    # timing probe of the alternating loop itself: tol 0 runs every restart
    # for exactly --max-iters sweeps, and refinement refits would add a
    # data-dependent number of extra fits and muddy the n-scaling
    cfg = _bem_config(args, free_energy_rel_tol=0.0, split_merge_rounds=0)
    rows = []
    draw = 0
    for d in d_values:
        truth = separated_params(args.g, d, p=1, seed=args.seed)
        for n in n_values:
            for rep in range(args.reps):
                draw += 1
                sim = generate(SimConfig(n=n, m=args.m, params=truth, seed=args.seed + draw))
                t0 = time.perf_counter()
                result = fit(sim.x, sim.y, args.g, d, cfg)
                seconds = time.perf_counter() - t0
                rows.append((n, d, rep + 1, result.n_iters, seconds))
                print(
                    f"benchmark n={n} d={d} rep={rep + 1}: "
                    f"{result.n_iters} sweeps {seconds:.3f}s"
                )
    out = _outdir(args)
    write_timing_csv(out / "timing.csv", rows)
    _manifest(out, args, ("n_list", "m", "g", "d_list", "reps"), cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coblock",
        description="Co-clustering of binary matrices with row covariates via block EM.",
    )
    parser.add_argument("--version", action="version", version=f"coblock {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_fit = commands.add_parser("fit", help="fit one (g, d) model")
    p_fit.add_argument("--g", type=int, required=True, help="row clusters")
    p_fit.add_argument("--d", type=int, required=True, help="column clusters")
    _add_bem_flags(p_fit)
    p_fit.set_defaults(handler=_cmd_fit)

    p_sel = commands.add_parser("select", help="grid search over (g, d)")
    p_sel.add_argument("--g-range", required=True, help="inclusive range A:B")
    p_sel.add_argument("--d-range", required=True, help="inclusive range A:B")
    _add_bem_flags(p_sel)
    p_sel.set_defaults(handler=_cmd_select)

    p_sim = commands.add_parser("simulate", help="draw a synthetic dataset")
    p_sim.add_argument("--params", required=True, help="ModelParams JSON file")
    p_sim.add_argument("--n", type=int, required=True, help="rows to draw")
    p_sim.add_argument("--m", type=int, required=True, help="columns to draw")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_inf = commands.add_parser("influence", help="fit and rank columns by influence")
    p_inf.add_argument("--g", type=int, required=True)
    p_inf.add_argument("--d", type=int, required=True)
    _add_bem_flags(p_inf)
    p_inf.set_defaults(handler=_cmd_influence)

    p_bench = commands.add_parser("benchmark", help="time fits over n and d grids")
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--n-list", required=True, help="comma-separated row counts")
    p_bench.add_argument("--m", type=int, default=100, help="columns (default 100)")
    p_bench.add_argument("--g", type=int, default=2, help="row clusters (default 2)")
    p_bench.add_argument("--d-list", default="2", help="comma-separated column-cluster counts")
    p_bench.add_argument("--reps", type=int, default=1, help="repetitions per grid point")
    _add_fit_flags(p_bench, restarts=1, max_iters=10)
    p_bench.set_defaults(handler=_cmd_benchmark)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.handler(args)
    except CoblockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
