"""Command line front end and experiment orchestration.

Four experiment kinds: benchmark (one target, one scheme, N repeated runs),
phase (dimension sweep of the known-truth covariance estimate), gamma
(max-weight growth regression), table1 (the full benchmark grid). Output is
CSV plus JSON summaries plus standalone SVG figures.

``config`` parses and validates a config and builds the command's cell
groups, once. ``run`` makes the output directories, sends every cell of
every group through one ``seeding.map_cells`` call, over one process pool
when there is more than one worker, and hands the results to the writer of
the command's kind. Every cell draws from a random stream keyed by (seed,
kind, cell, rep), and results are merged in cell order, so output files are
byte-identical for any worker count. If a cell raises, every output file is
still written, with the cells that finished.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .ce_schemes import RunResult, SchemeConfig, run_scheme
from .config import GAMMA_N_GRID, ConfigError, ExperimentConfig, load_config
from .phase_lab import GammaEstimate, gamma_cell, gamma_fit, median_by_d, sweep_cell
from .seeding import map_cells
from .targets import LimitState
from . import svg

# The set-up step of bench/setup_probe.py reaches these through this module.
from .phase_lab import build_alignment, prop_range_width  # noqa: F401
from .targets import benchmark_target  # noqa: F401

# The dimension bench/setup_probe.py builds a gamma law in; nothing else
# reads it, since a gamma cell draws its decisive coordinates alone.
GAMMA_DEFAULT_DIM = 2


# ---------------------------------------------------------------- plumbing


def _num(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_num(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _quartiles(values: list[float]) -> dict:
    """Quartiles of values; None (JSON null, not NaN) for an empty list."""
    if not values:
        return {"q25": None, "median": None, "q75": None}
    arr = np.asarray(values, dtype=float)
    q25, med, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
    return {"q25": float(q25), "median": float(med), "q75": float(q75)}


# ---------------------------------------------------------------- run


def run(cfg: ExperimentConfig) -> None:
    """Run every cell of cfg.groups and write the command's outputs.

    The output directories are made before the first cell. All cells go
    through one map_cells call, so a pool starts once per command. The
    writer gets one list of results per group (a benchmark or table1 cell,
    a phase kappa branch, a gamma grid point), in group order. It is called
    also when a cell raises: each group then holds the cells that finished
    before the failure, and a group the failure never reached is empty. The
    cell's exception propagates; a failure of that write only goes to stderr.
    """
    # Looked up here, not at import, so a test can replace a cell function.
    cell, write = {"benchmark": (run_scheme, _write_scheme_grid),
                   "table1": (run_scheme, _write_scheme_grid),
                   "phase": (sweep_cell, _write_phase_outputs),
                   "gamma": (gamma_cell, _write_gamma_outputs)}[cfg.kind]
    if cfg.kind in ("benchmark", "table1"):
        # The scheme kernels import scipy on first call. Importing it here
        # (scipy.linalg loads its BLAS and LAPACK modules), before map_cells
        # forks its pool, lets every worker inherit this copy instead of
        # importing its own.
        import scipy.linalg  # noqa: F401
        import scipy.special  # noqa: F401
    out = Path(cfg.output_dir)
    # One directory per group: table1 writes each cell to a subdirectory.
    # A scheme group's cells share run_scheme's first two arguments.
    dirs = [out / _cell_name(*group[0][:2]) if cfg.kind == "table1" else out
            for group in cfg.groups]
    for cell_dir in dirs:
        cell_dir.mkdir(parents=True, exist_ok=True)
    cells = [c for group in cfg.groups for c in group]
    owners = [i for i, group in enumerate(cfg.groups) for _ in group]
    results: list[list] = [[] for _ in cfg.groups]
    failed = True
    try:
        for res, i in zip(map_cells(cell, cells, cfg.workers), owners):
            results[i].append(res)
        failed = False
    finally:
        try:
            write(cfg, dirs, results)
        except Exception as exc:
            if not failed:
                raise
            print(f"writing the finished cells failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)


# ---------------------------------------------------------------- benchmark, table1


def _write_scheme_grid(cfg: ExperimentConfig, dirs: list[Path],
                       results: list[list[RunResult]]) -> None:
    """benchmark writes its one cell to the output directory; table1 writes
    each of its cells to a subdirectory and every cell's summary to the top
    summary.json."""
    summaries = {cell_dir.name: _write_benchmark_outputs(cell_dir, res, *group[0][:2])
                 for cell_dir, res, group in zip(dirs, results, cfg.groups)}
    if cfg.kind == "table1":
        write_json(Path(cfg.output_dir) / "summary.json", summaries)


def _cell_name(scheme_cfg: SchemeConfig, target: LimitState) -> str:
    name = f"{target.name}_{scheme_cfg.scheme}"
    if scheme_cfg.strategy != "none":
        name += f"_{scheme_cfg.strategy}"
    return name


def _write_benchmark_outputs(out: Path, results: list[RunResult], scheme_cfg: SchemeConfig,
                             target: LimitState) -> dict:
    ref = target.reference_p
    errors = [abs(r.p_hat - ref) / ref if ref else math.nan for r in results]
    run_rows = [(rep, r.p_hat, err, r.converged, r.iterations_used)
                for rep, (r, err) in enumerate(zip(results, errors))]
    # run_scheme appends one trace per iteration, so a trace's index is its t.
    trace_rows = [(rep, t, tr.q_or_sigma, tr.lambda_min_proj, tr.lambda_max_raw, tr.diverged)
                  for rep, r in enumerate(results) for t, tr in enumerate(r.traces)]
    write_csv(out / "runs.csv",
              ["rep", "p_hat", "relative_error", "converged", "iterations"], run_rows)
    write_csv(out / "traces.csv",
              ["rep", "t", "q_or_sigma", "lambda_min_proj", "lambda_max_raw", "diverged"],
              trace_rows)

    rel = sorted(e for e in errors if math.isfinite(e))
    # The CE diagnostic 1 / min_t lambda_min of a run's sampling laws, over
    # its non-diverged iterations; a run with none, or a floor <= 0, has none.
    floors = [min((tr.lambda_min_proj for tr in r.traces
                   if not tr.diverged and math.isfinite(tr.lambda_min_proj)), default=0.0)
              for r in results]
    n = len(results)
    summary = {
        "target": target.name,
        "scheme": scheme_cfg.scheme,
        "strategy": scheme_cfg.strategy,
        "d": target.dim,
        "m": scheme_cfg.m,
        "n": scheme_cfg.n,
        "n_p": scheme_cfg.n_p,
        "reps_completed": n,
        "p_hat": _quartiles([r.p_hat for r in results]),
        "relative_error": _quartiles(rel),
        "divergence_rate": (sum(r.diverged for r in results) / n) if n else None,
        "converged_rate": (sum(r.converged for r in results) / n) if n else None,
        "iterations": _quartiles([float(r.iterations_used) for r in results]),
        "kappa_diagnostic": _quartiles([1.0 / f for f in floors if f > 0.0]),
    }
    write_json(out / "summary.json", summary)
    _write_benchmark_figures(out, results, rel)
    return summary


def _write_benchmark_figures(out: Path, results: list[RunResult], rel: list[float]) -> None:
    err_panel = svg.Panel(title="relative error across repetitions",
                          xlabel="quantile level", ylabel="|p_hat - p| / p",
                          ylog=bool(rel) and min(rel) > 0.0)
    if rel:
        levels = [(i + 0.5) / len(rel) for i in range(len(rel))]
        err_panel.line(levels, rel, label="empirical quantile")
        err_panel.scatter(levels, rel)
    (out / "error_violin.svg").write_text(svg.render([err_panel]))

    t_max = max((len(r.traces) for r in results), default=0)
    lo_panel = svg.Panel(title="sampling spectrum floor (median, interquartile band)",
                         xlabel="iteration t", ylabel="lambda_min", ylog=True)
    hi_panel = svg.Panel(title="raw update spectrum peak",
                         xlabel="iteration t", ylabel="lambda_max", ylog=True)
    for panel, attr in ((lo_panel, "lambda_min_proj"), (hi_panel, "lambda_max_raw")):
        ts, med, q25, q75 = [], [], [], []
        for t in range(t_max):
            vals = [getattr(r.traces[t], attr) for r in results
                    if len(r.traces) > t and math.isfinite(getattr(r.traces[t], attr))]
            if not vals:
                continue
            stats = _quartiles(vals)
            ts.append(float(t))
            med.append(stats["median"])
            q25.append(stats["q25"])
            q75.append(stats["q75"])
        if ts:
            panel.band(ts, q25, q75, label="interquartile")
            panel.line(ts, med, label="median")
    (out / "spectrum.svg").write_text(svg.render([lo_panel, hi_panel]))


# ---------------------------------------------------------------- phase


def _write_phase_outputs(cfg: ExperimentConfig, dirs: list[Path], rows: list[list]) -> None:
    out = dirs[0]
    header = ["d", "rep", "n", "op_error", "lambda_max_hat", "max_weight", "q_hat"]
    single = len(rows) == 1
    mc_note = " (Monte Carlo)" if cfg.lambda1 == 1.0 else ""
    err_panel = svg.Panel(title="median operator-norm error",
                          xlabel="dimension d", ylabel="op error", ylog=True)
    lam_panel = svg.Panel(title="median top eigenvalue of the estimate",
                          xlabel="dimension d", ylabel="lambda_max", ylog=True)
    for idx, (kappa, branch) in enumerate(zip(cfg.kappa, rows), start=1):
        name = "sweep.csv" if single else f"sweep_{idx}.csv"
        write_csv(out / name, header,
                  [(r.d, r.rep, r.n, r.op_error, r.lambda_max_hat, r.max_weight, r.q_hat)
                   for r in branch])
        label = f"kappa={kappa:g}{mc_note}"
        for panel, attr in ((err_panel, "op_error"), (lam_panel, "lambda_max_hat")):
            med = median_by_d(branch, attr)
            panel.line(list(med), list(med.values()), label=label)
            panel.scatter(list(med), list(med.values()))
    (out / "phase.svg").write_text(svg.render([err_panel, lam_panel]))


# ---------------------------------------------------------------- gamma


def _write_gamma_outputs(cfg: ExperimentConfig, dirs: list[Path],
                         results: list[list[float]]) -> None:
    out = dirs[0]
    geo = cfg.groups[0][0][0]  # gamma_cell's LabGeometry, the same for every cell
    rows = [(n, rep, math.exp(v)) for n, values in zip(GAMMA_N_GRID, results)
            for rep, v in enumerate(values)]
    write_csv(out / "gamma.csv", ["n", "rep", "max_weight"], rows)

    complete = all(len(values) == len(group) for group, values in zip(cfg.groups, results))
    summary: dict = {"kind": "gamma", "target": geo.target, "alignment": geo.alignment,
                     "lambda1": geo.lambda1, "alpha": geo.alpha, "complete": complete}
    if complete:
        est = gamma_fit(GAMMA_N_GRID, results, seed=cfg.seed)
        summary.update({
            "slope": est.slope,
            "intercept": est.intercept,
            "band": list(est.band),
            "predicted_gamma_star": geo.predicted_gamma_star(),
            "dropped_points": list(est.dropped),
        })
        _write_gamma_figure(out, rows, est)
    write_json(out / "gamma.json", summary)


def _write_gamma_figure(out: Path, rows, est: GammaEstimate) -> None:
    panel = svg.Panel(title=f"max weight growth, slope {est.slope:.3f} "
                            f"[{est.band[0]:.3f}, {est.band[1]:.3f}]",
                      xlabel="n", ylabel="max weight", xlog=True, ylog=True)
    panel.scatter([r[0] for r in rows], [r[2] for r in rows], label="repetitions")
    if est.n_grid:
        fit_y = [math.exp(est.intercept + est.slope * math.log(n)) for n in est.n_grid]
        panel.line(list(est.n_grid), fit_y, label="least-squares fit", dash=True)
        panel.line(list(est.n_grid), [math.exp(v) for v in est.medians], label="medians")
    (out / "gamma.svg").write_text(svg.render([panel]))


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ce-spectra",
        description="Adaptive importance sampling with spiked covariances, "
                    "and the sample-size phase laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("benchmark", "repeated runs of one scheme on one rare-event target"),
        ("phase", "dimension sweep of the known-truth covariance estimate"),
        ("gamma", "max-weight growth regression over a sample-size grid"),
        ("table1", "full benchmark grid: three targets, six scheme variants"),
    ):
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--config", required=True, help="key=value configuration file")
        sp.add_argument("--seed", type=int, default=None, help="override master seed")
        sp.add_argument("--workers", type=int, default=None, help="override worker count")
        sp.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)

    overrides = {"seed": args.seed, "workers": args.workers, "output_dir": args.out}
    try:
        run(load_config(args.config, overrides=overrides, expected_kind=args.command))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
