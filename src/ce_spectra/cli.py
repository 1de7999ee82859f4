"""Command line front end and experiment orchestration.

Four experiment kinds: benchmark (one target, one scheme, N repeated runs),
phase (dimension sweep of the known-truth covariance estimate), gamma
(max-weight growth regression), table1 (the full benchmark grid). Output is
CSV plus JSON summaries plus standalone SVG figures.

Configs are parsed, validated and translated into library objects by
``config``. Cells run through ``seeding.map_cells``, over a process pool
when there is more than one worker. Every cell draws from a random stream
keyed by (seed, kind, cell, rep), and results are merged in cell order, so
output files are byte-identical for any worker count. Partial results are
flushed if a run dies midway.

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
from .config import (
    GAMMA_N_GRID,
    ConfigError,
    ExperimentConfig,
    gamma_cell_args,
    load_config,
    scheme_cells,
    sweep_configs,
)
from .phase_lab import (
    GammaEstimate,
    SweepResult,
    gamma_cell,
    gamma_fit,
    kappa_conjecture_report,
    predicted_gamma_star,
    sweep_cell,
    sweep_cells,
)
from .seeding import map_cells
from .targets import LimitState
from . import svg

# The set-up step of bench/setup_probe.py reaches these through this module.
from .config import GAMMA_DEFAULT_DIM  # noqa: F401
from .phase_lab import build_alignment  # noqa: F401
from .targets import benchmark_target, prop_range_width  # noqa: F401


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


# ---------------------------------------------------------------- benchmark


def run_benchmark_cell(target: LimitState, scheme_cfg: SchemeConfig, reps: int,
                       workers: int, out_dir: Path) -> dict:
    """Run one (target, scheme) cell and write its output files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [
        (scheme_cfg, target, (scheme_cfg.seed, "benchmark", target.name,
                              scheme_cfg.scheme, scheme_cfg.strategy, rep))
        for rep in range(reps)
    ]
    results: list[RunResult] = []
    try:
        for res in map_cells(run_scheme, cells, workers):
            results.append(res)
    finally:
        summary = _write_benchmark_outputs(out_dir, results, target, scheme_cfg)
    return summary


def _write_benchmark_outputs(out: Path, results: list[RunResult], target: LimitState,
                             scheme_cfg: SchemeConfig) -> dict:
    run_rows = []
    trace_rows = []
    for rep, res in enumerate(results):
        run_rows.append((rep, res.p_hat, res.relative_error,
                         res.converged, res.iterations_used))
        for tr in res.traces:
            trace_rows.append((rep, tr.t, tr.q_or_sigma, tr.lambda_min_proj,
                               tr.lambda_max_raw, tr.diverged))
    write_csv(out / "runs.csv",
              ["rep", "p_hat", "relative_error", "converged", "iterations"], run_rows)
    write_csv(out / "traces.csv",
              ["rep", "t", "q_or_sigma", "lambda_min_proj", "lambda_max_raw", "diverged"],
              trace_rows)

    rel = [r.relative_error for r in results if math.isfinite(r.relative_error)]
    diagnostics = []
    for r in results:
        try:
            diagnostics.append(kappa_conjecture_report(r.traces))
        except ValueError:
            pass
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
        "kappa_diagnostic": _quartiles(diagnostics),
    }
    write_json(out / "summary.json", summary)
    _write_benchmark_figures(out, results)
    return summary


def _write_benchmark_figures(out: Path, results: list[RunResult]) -> None:
    rel = sorted(r.relative_error for r in results if math.isfinite(r.relative_error))
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


def run_benchmark(cfg: ExperimentConfig) -> dict:
    [(target, scheme_cfg)] = scheme_cells(cfg)
    return run_benchmark_cell(target, scheme_cfg, cfg.N, cfg.workers, Path(cfg.output_dir))


# ---------------------------------------------------------------- table1


def run_table1(cfg: ExperimentConfig) -> dict:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = {}
    try:
        for target, scheme_cfg in scheme_cells(cfg):
            cell = f"{target.name}_{scheme_cfg.scheme}"
            if scheme_cfg.strategy != "none":
                cell += f"_{scheme_cfg.strategy}"
            summaries[cell] = run_benchmark_cell(target, scheme_cfg, cfg.N, cfg.workers,
                                                 out / cell)
    finally:
        write_json(out / "summary.json", summaries)
    return summaries


# ---------------------------------------------------------------- phase


def run_phase(cfg: ExperimentConfig) -> dict:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    sweeps = [(sweep_cfg, []) for sweep_cfg in sweep_configs(cfg)]
    try:
        for sweep_cfg, rows in sweeps:
            for row in map_cells(sweep_cell, sweep_cells(sweep_cfg), cfg.workers):
                rows.append(row)
    finally:
        summary = _write_phase_outputs(
            out, cfg, [SweepResult(config=c, rows=tuple(rows)) for c, rows in sweeps])
    return summary


def _write_phase_outputs(out: Path, cfg: ExperimentConfig,
                         sweeps: list[SweepResult]) -> dict:
    header = ["d", "rep", "n", "op_error", "lambda_max_hat", "max_weight", "q_hat"]
    single = len(sweeps) == 1
    summary: dict = {"kind": "phase", "target": cfg.target, "alignment": cfg.alignment,
                     "lambda1": cfg.lambda1, "branches": {}}
    err_panel = svg.Panel(title="median operator-norm error",
                          xlabel="dimension d", ylabel="op error", ylog=True)
    lam_panel = svg.Panel(title="median top eigenvalue of the estimate",
                          xlabel="dimension d", ylabel="lambda_max", ylog=True)
    mc_note = " (Monte Carlo)" if cfg.lambda1 == 1.0 else ""
    for idx, sweep in enumerate(sweeps, start=1):
        kappa = sweep.config.kappa
        name = "sweep.csv" if single else f"sweep_{idx}.csv"
        write_csv(out / name, header,
                  [(r.d, r.rep, r.n, r.op_error, r.lambda_max_hat, r.max_weight, r.q_hat)
                   for r in sweep.rows])
        errs = sweep.medians("op_error")
        dims = list(errs)
        med_err = list(errs.values())
        med_lam = list(sweep.medians("lambda_max_hat").values())
        label = f"kappa={kappa:g}{mc_note}"
        err_panel.line(dims, med_err, label=label)
        err_panel.scatter(dims, med_err)
        lam_panel.line(dims, med_lam, label=label)
        lam_panel.scatter(dims, med_lam)
        summary["branches"][f"kappa={kappa:g}"] = {
            "file": name,
            "median_op_error": dict(zip(map(str, dims), med_err)),
            "median_lambda_max": dict(zip(map(str, dims), med_lam)),
        }
    (out / "phase.svg").write_text(svg.render([err_panel, lam_panel]))
    return summary


# ---------------------------------------------------------------- gamma


def run_gamma(cfg: ExperimentConfig) -> dict:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = gamma_cell_args(cfg)
    values: list[float] = []
    try:
        for v in map_cells(gamma_cell, cells, cfg.workers):
            values.append(v)
    finally:
        summary = _finish_gamma(out, cfg, cells, values)
    return summary


def _finish_gamma(out: Path, cfg: ExperimentConfig, cells, values) -> dict:
    rows = [(c[4], c[5], math.exp(v) if math.isfinite(v) else 0.0)
            for c, v in zip(cells, values)]
    write_csv(out / "gamma.csv", ["n", "rep", "max_weight"], rows)

    reps = cfg.N
    complete = len(values) == len(cells)
    summary: dict = {"kind": "gamma", "target": cfg.target, "alignment": cfg.alignment,
                     "lambda1": cfg.lambda1, "alpha": cfg.alpha, "complete": complete}
    if complete:
        log_max = [values[i * reps:(i + 1) * reps] for i in range(len(GAMMA_N_GRID))]
        est = gamma_fit(GAMMA_N_GRID, log_max, seed=cfg.seed)
        summary.update({
            "slope": est.slope,
            "intercept": est.intercept,
            "band": list(est.band),
            "predicted_gamma_star": predicted_gamma_star(cfg.target, cfg.alignment,
                                                         cfg.lambda1, cfg.alpha),
            "dropped_points": list(est.dropped),
        })
        _write_gamma_figure(out, rows, est)
    write_json(out / "gamma.json", summary)
    return summary


def _write_gamma_figure(out: Path, rows, est: GammaEstimate) -> None:
    panel = svg.Panel(title=f"max weight growth, slope {est.slope:.3f} "
                            f"[{est.band[0]:.3f}, {est.band[1]:.3f}]",
                      xlabel="n", ylabel="max weight", xlog=True, ylog=True)
    xs = [r[0] for r in rows if r[2] > 0.0]
    ys = [r[2] for r in rows if r[2] > 0.0]
    panel.scatter(xs, ys, label="repetitions")
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
    runners = {"benchmark": run_benchmark, "phase": run_phase,
               "gamma": run_gamma, "table1": run_table1}
    try:
        cfg = load_config(args.config, overrides=overrides, expected_kind=args.command)
        runners[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
