"""ce-spectra benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``ce-spectra`` experiment at the published sizes. The
benchmark writes its config from the workload and ``--seed``, and runs the
CLI from ``src/`` in a subprocess, one run at a time (closed loop), with
BLAS pinned to one thread. ``--trace 0`` repeats a set-up run, a
``--workers 1`` run and a ``--workers 2`` run until ``--seconds`` is spent,
and reports medians. ``--trace 1`` adds an in-process run at
``--workers 1`` (bench/tracer.py) that times every call into each module and
reports the per-layer metrics. Every run's outputs are checked: exit code,
the expected files, byte identity of the CSVs across worker counts and
repeats, and a workload-specific check against an independent reference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, the environment and any
failed check. The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
from scipy import integrate, special

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_tmp"

CHILD_TIMEOUT_S = 120.0
MIN_PAIRS = 3
MIN_TRACED_PAIRS = 2
WORKERS = 2
COVERAGE_FLOOR = 0.9

# Sizes are the published ones; N (repetitions) is chosen so that one CLI
# run takes a few seconds and several fit in a measured run.
WORKLOADS = {
    "dense_quad": ("benchmark", {"target": "quad", "scheme": "ce", "m": 5000, "n": 5000,
                                 "n_p": 2000, "N": 8}),
    "proj_lin": ("benchmark", {"target": "lin", "scheme": "ice_proj", "strategy": "mean",
                               "m": 10000, "n": 10000, "N": 4}),
    "phase_ladder": ("phase", {"target": "halfspace", "alignment": "v_in_u_perp",
                               "lambda1": 0.5, "kappa": "1.2, 1.6",
                               "dims": "50, 100, 200, 400", "N": 10}),
    "gamma_tall": ("gamma", {"target": "slab", "alignment": "v_in_u", "lambda1": 0.5,
                             "alpha": 1.0, "N": 20}),
}

CSVS = {
    "benchmark": ("runs.csv", "traces.csv"),
    "phase": ("sweep_1.csv", "sweep_2.csv"),
    "gamma": ("gamma.csv",),
}
OTHER_OUTPUTS = {
    "benchmark": ("summary.json", "error_violin.svg", "spectrum.svg"),
    "phase": ("phase.svg",),
    "gamma": ("gamma.json", "gamma.svg"),
}

# Workload-specific accuracy tolerances; generous against seed-to-seed
# scatter, tight against a broken estimator.
LIN_REL_ERROR_MAX = 0.1
GAMMA_SLOPE_ERR_MAX = 0.2

CELL_SPANS = ("ce_schemes.run", "phase_lab.sweep_cell", "phase_lab.gamma_cell")


class Checks:
    """Correctness checks and CLI runs attempted, with the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], log: Path) -> dict:
    """Run one process to completion; wall, CPU of its tree and peak RSS."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                _kill_group(proc.pid)
                proc.wait()
        wall = time.perf_counter() - start
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def cli_argv(kind: str, config: Path, seed: int, workers: int, out: Path) -> list[str]:
    return ["-m", "ce_spectra.cli", kind, "--config", str(config), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out)]


# ---------------------------------------------------------------- checks


def _stderr_tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return (" | " + lines[-1]) if lines else ""


def check_run(checks: Checks, kind: str, run: dict, out: Path, log: Path, label: str) -> bool:
    if not checks.check(run["code"] == 0, f"{label}: exit code {run['code']}{_stderr_tail(log)}"):
        return False
    ok = True
    for name in CSVS[kind] + OTHER_OUTPUTS[kind]:
        ok &= checks.check((out / name).is_file(), f"{label}: missing output {name}")
    return ok


def check_same_bytes(checks: Checks, kind: str, ref: Path, other: Path, label: str) -> None:
    for name in CSVS[kind]:
        a, b = ref / name, other / name
        same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
        checks.check(same, f"{label}: {name} differs from {ref.name}")


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _column(rows: list[list[float]], header: list[str], name: str) -> list[float]:
    i = header.index(name)
    return [r[i] for r in rows]


def lin_reference() -> float:
    """P(<x, 1>/sqrt(d) >= 5) = 1 - Phi(5), from scipy, not the package."""
    return float(special.ndtr(-5.0))


def quad_reference() -> float:
    """P(z >= 4 + 1.25 w^2) for independent z ~ N(0, 1), w = x_1 - x_2 ~ N(0, 2)."""
    def integrand(w):
        return special.ndtr(-(4.0 + 1.25 * w * w)) * math.exp(-0.25 * w * w) / math.sqrt(4.0 * math.pi)
    value, _ = integrate.quad(integrand, -math.inf, math.inf, epsabs=0.0, epsrel=1e-12)
    return value


def validate(workload: str, cfg: dict, out: Path, checks: Checks) -> dict:
    """Workload-specific correctness; returns the accuracy figures it computed."""
    kind = WORKLOADS[workload][0]
    reps = cfg["N"]
    acc: dict = {}
    if kind == "benchmark":
        header, rows = _read_csv(out / "runs.csv")
        checks.check(len(rows) == reps, f"runs.csv has {len(rows)} rows, expected {reps}")
        p_ref = lin_reference() if cfg["target"] == "lin" else quad_reference()
        p_hat = _column(rows, header, "p_hat")
        rel = [abs(p - p_ref) / p_ref for p in p_hat]
        acc["rel_error.median"] = statistics.median(rel) if rel else math.inf
        converged = _column(rows, header, "converged")
        if workload == "dense_quad":
            checks.check(not any(converged), "dense_quad: a repetition converged")
            t_header, t_rows = _read_csv(out / "traces.csv")
            diverged_reps = {int(r[0]) for r in t_rows if r[t_header.index("diverged")]}
            checks.check(diverged_reps == set(range(reps)),
                         f"dense_quad: diverged repetitions {sorted(diverged_reps)}")
        else:
            checks.check(all(converged), "proj_lin: a repetition did not converge")
            checks.check(acc["rel_error.median"] <= LIN_REL_ERROR_MAX,
                         f"proj_lin: median relative error {acc['rel_error.median']:.4g}")
            reported = _column(rows, header, "relative_error")
            checks.check(all(abs(a - b) <= 1e-8 for a, b in zip(reported, rel)),
                         "proj_lin: runs.csv relative_error disagrees with 1 - Phi(5)")
    elif kind == "phase":
        dims = [int(d) for d in cfg["dims"].split(",")]
        kappas = [float(k) for k in cfg["kappa"].split(",")]
        medians = {}
        for idx, kappa in enumerate(kappas, start=1):
            header, rows = _read_csv(out / f"sweep_{idx}.csv")
            checks.check(len(rows) == len(dims) * reps,
                         f"sweep_{idx}.csv has {len(rows)} rows, expected {len(dims) * reps}")
            sizes = {int(r[0]): int(r[header.index("n")]) for r in rows}
            checks.check(sizes == {d: math.ceil(d ** kappa) for d in dims},
                         f"sweep_{idx}.csv: n is not ceil(d^{kappa}) for every d")
            err = _column(rows, header, "op_error")
            checks.check(all(math.isfinite(e) and e > 0.0 for e in err),
                         f"sweep_{idx}.csv: non-finite or zero op_error")
            for key in ("op_error", "lambda_max_hat"):
                medians[kappa, key] = {d: statistics.median(r[header.index(key)] for r in rows
                                                            if int(r[0]) == d) for d in dims}
        lo, hi = min(kappas), max(kappas)
        # The halfspace through the origin, conditioned, has covariance
        # eigenvalues 1 and 1 - 2/pi, so its top eigenvalue is 1; the blow-up
        # regime overshoots twice that, as in the acceptance gate.
        peak = medians[lo, "lambda_max_hat"][dims[-1]]
        checks.check(peak > 2.0, f"phase_ladder: kappa={lo} top eigenvalue {peak:.3g} "
                                 f"at d={dims[-1]} does not exceed twice the true one")
        checks.check(all(medians[hi, "op_error"][d] < medians[lo, "op_error"][d] for d in dims),
                     f"phase_ladder: kappa={hi} error not below kappa={lo} at every d")
    elif kind == "gamma":
        header, rows = _read_csv(out / "gamma.csv")
        summary = json.loads((out / "gamma.json").read_text())
        checks.check(summary.get("complete") is True, "gamma.json: run not complete")
        weights = _column(rows, header, "max_weight")
        ok = checks.check(all(w > 0.0 for w in weights), "gamma.csv: a cell had no hits")
        if ok and summary.get("complete") is True:
            grid = sorted({int(n) for n in _column(rows, header, "n")})
            med = [np.median([math.log(r[2]) for r in rows if int(r[0]) == n]) for n in grid]
            slope = float(np.polyfit(np.log(grid), med, 1)[0])
            checks.check(abs(slope - summary["slope"]) <= 1e-9,
                         f"gamma.json slope {summary['slope']} != refit {slope}")
            predicted = cfg["alpha"] * (1.0 - cfg["lambda1"])
            acc["gamma_slope_err"] = abs(slope - predicted)
            checks.check(acc["gamma_slope_err"] <= GAMMA_SLOPE_ERR_MAX,
                         f"gamma_tall: slope {slope:.4f} vs predicted {predicted}")
    return acc


# ---------------------------------------------------------------- tracing


def aggregate(spans: list[list]) -> dict:
    """Per span name: self time (duration minus direct children), calls, counts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, cell, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    per: dict = {}
    for i, (name, start, end, parent, cell, counts) in enumerate(spans):
        entry = per.setdefault(name, {"self_s": 0.0, "calls": 0, "busy_s": 0.0})
        entry["self_s"] += (end - start) - child[i]
        entry["busy_s"] += end - start
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return per


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(per: dict) -> dict:
    """Per-layer counts, which must repeat exactly for a given seed."""
    def get(name, key):
        return per.get(name, {}).get(key, 0)

    return {
        "seeding.draw.values": get("seeding.draw", "values"),
        "seeding.stream.calls": get("seeding.stream", "calls"),
        "gauss_core.sample.rows": get("gauss_core.sample", "rows"),
        "gauss_core.sample.gflop": get("gauss_core.sample", "flop") / 1e9,
        "gauss_core.sample.gbytes": get("gauss_core.sample", "bytes") / 1e9,
        "gauss_core.log_ratio.gflop": get("gauss_core.log_ratio", "flop") / 1e9,
        "gauss_core.log_ratio.gbytes": get("gauss_core.log_ratio", "bytes") / 1e9,
        "gauss_core.proj_r.floor_clamps": get("gauss_core.proj_r", "floor_clamps"),
        "numerics.cholesky.calls": get("numerics.cholesky", "calls"),
        "numerics.cholesky.failures": get("numerics.cholesky", "failures"),
        "numerics.eigen.calls": get("numerics.eigen", "calls"),
        "numerics.eigen.gflop": get("numerics.eigen", "flop") / 1e9,
        "numerics.eigen.gbytes": get("numerics.eigen", "bytes") / 1e9,
        "targets.score.rows": get("targets.score", "rows"),
        "estimators.moments.calls": get("estimators.moments", "calls"),
        "estimators.moments.gflop": get("estimators.moments", "flop") / 1e9,
        "estimators.moments.gbytes": get("estimators.moments", "bytes") / 1e9,
        "estimators.spread.calls": get("estimators.spread", "calls"),
        "estimators.hit_ratio": _ratio(get("estimators.moments", "hits"),
                                       get("estimators.moments", "points")),
        "ce_schemes.bandwidth.evals_per_call": _ratio(get("ce_schemes.bandwidth", "evals"),
                                                      get("ce_schemes.bandwidth", "searches")),
        "ce_schemes.iterations": get("ce_schemes.run", "iterations"),
        "ce_schemes.diverged_runs": get("ce_schemes.run", "diverged"),
        "ce_schemes.converged_runs": get("ce_schemes.run", "converged"),
        "ce_schemes.rows_per_run": _ratio(get("gauss_core.sample", "rows"),
                                          get("ce_schemes.run", "calls")),
        "phase_lab.sweep_cell.calls": get("phase_lab.sweep_cell", "calls"),
        "phase_lab.gamma_cell.calls": get("phase_lab.gamma_cell", "calls"),
    }


SELF_TIMES = (
    "seeding.draw", "gauss_core.sample", "gauss_core.log_ratio", "gauss_core.proj_r",
    "numerics.cholesky", "numerics.eigen", "numerics.symcheck", "numerics.special",
    "targets.score", "estimators.moments", "estimators.spread", "estimators.stats",
    "ce_schemes.bandwidth", "ce_schemes.run", "phase_lab.sweep_cell",
    "phase_lab.gamma_cell", "phase_lab.gamma_fit", "svg.render", "cli.write",
    "cli.main", "cli.import", "config.load",
)

UNITS = {"self_s": "s", "gflop": "gflop", "gbytes": "GB", "hit_ratio": "ratio",
         "evals_per_call": "count", "idle_frac": "ratio", "overhead_frac": "ratio",
         "coverage_frac": "ratio", "wall_s": "s", "bytes_written": "B",
         "rel_error.median": "ratio", "gamma_slope_err": "exponent"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------- environment


def environment(seed: int, kind: str, config: Path, work: Path, checks: Checks) -> dict:
    """Environment record. Its probe is also the untimed first set-up run, which
    compiles bytecode and fills the page cache."""
    log = work / "env.log"
    with open(log, "wb") as err:
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), kind, str(config),
                               "--env"], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=err, timeout=CHILD_TIMEOUT_S)
    env: dict = {}
    if checks.check(proc.returncode == 0, f"environment probe failed{_stderr_tail(log)}"):
        env = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        threads = set(env["blas_threads"].values())
        checks.check(threads == {1}, f"BLAS not pinned to one thread: {env['blas_threads']}")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ce_spectra").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env.update({"seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
                "git_commit": commit, "src_sha256": digest.hexdigest()})
    return env


# ---------------------------------------------------------------- main


def write_config(path: Path, kind: str, cfg: dict, seed: int) -> None:
    lines = [f"kind = {kind}"] + [f"{k} = {v}" for k, v in cfg.items()] + [f"seed = {seed}"]
    path.write_text("\n".join(lines) + "\n")


def time_setup(kind: str, config: Path, log: Path, checks: Checks) -> float | None:
    """Wall time of one fresh-interpreter set-up run, None if it failed."""
    run = run_child([sys.executable, str(BENCH / "setup_probe.py"), kind, str(config)], log)
    if checks.check(run["code"] == 0, f"set-up run failed{_stderr_tail(log)}"):
        return run["wall"]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ce_spectra" / "cli.py").is_file():
        print(f"no ce-spectra sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.perf_counter()
    deadline = start + args.seconds
    kind, cfg = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return measure(args, kind, cfg, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, kind: str, cfg: dict, work: Path, deadline: float) -> int:
    checks = Checks()
    config = work / "workload.cfg"
    write_config(config, kind, cfg, args.seed)
    env = environment(args.seed, kind, config, work, checks)

    def cli(workers: int, tag: str, traced: bool = False) -> tuple[dict, Path, bool]:
        out = work / tag
        log = work / f"{tag}.log"
        argv = [sys.executable]
        if traced:
            argv += [str(BENCH / "tracer.py"), str(work / f"{tag}.spans.json"), "--"]
            argv += cli_argv(kind, config, args.seed, workers, out)[2:]
        else:
            argv += cli_argv(kind, config, args.seed, workers, out)
        run = run_child(argv, log)
        return run, out, check_run(checks, kind, run, out, log, tag)

    min_pairs = MIN_TRACED_PAIRS if args.trace else MIN_PAIRS
    ref = None
    accuracy: dict = {}
    setup: list[float] = []
    w1_runs: list[dict] = []
    w2_runs: list[dict] = []
    traced_runs: list[dict] = []
    per_runs: list[dict] = []
    i = 0
    while True:
        pair_start = time.perf_counter()
        # Set-up runs are spread over the run, one per pair, so that their
        # median does not hang on one slow stretch of the machine.
        setup_wall = time_setup(kind, config, work / f"setup_{i}.log", checks)
        if setup_wall is not None:
            setup.append(setup_wall)
        run1, out1, ok = cli(1, f"w1_{i}")
        w1_runs.append(run1)
        if ref is None:
            ref = out1
            if ok:
                accuracy = validate(args.workload, cfg, out1, checks)
        else:
            check_same_bytes(checks, kind, ref, out1, f"w1_{i}")
        if not args.trace or i == 0:
            run2, out2, _ = cli(WORKERS, f"w{WORKERS}_{i}")
            w2_runs.append(run2)
            check_same_bytes(checks, kind, ref, out2, f"w{WORKERS}_{i}")
        if args.trace:
            tag = f"traced_{i}"
            run_t, out_t, _ = cli(1, tag, traced=True)
            check_same_bytes(checks, kind, ref, out_t, tag)
            spans_file = work / f"{tag}.spans.json"
            if checks.check(spans_file.is_file(), f"{tag}: no span file"):
                data = json.loads(spans_file.read_text())
                per = aggregate(data["spans"])
                per["cli.bytes_written"] = sum(p.stat().st_size for p in out_t.iterdir())
                per["cell_busy_s"] = sum(per.get(n, {}).get("busy_s", 0.0) for n in CELL_SPANS)
                per_runs.append(per)
                traced_runs.append(run_t)
                if len(per_runs) > 1:
                    checks.check(layer_counts(per) == layer_counts(per_runs[0]),
                                 f"{tag}: layer counts differ from the first traced run")
        i += 1
        now = time.perf_counter()
        if checks.failures or (i >= min_pairs and now + (now - pair_start) > deadline):
            break

    ok_w1 = [r for r in w1_runs if r["code"] == 0]
    ok_w2 = [r for r in w2_runs if r["code"] == 0]
    samples: dict = {}
    if ok_w1 and ok_w2 and setup:
        samples = {
            "setup_s": (setup, "s"),
            "wall_s.w1": ([r["wall"] for r in ok_w1], "s"),
            f"wall_s.w{WORKERS}": ([r["wall"] for r in ok_w2], "s"),
            f"cpu_s.w{WORKERS}": ([r["cpu"] for r in ok_w2], "s"),
            "peak_rss_mb": ([r["rss_mb"] for r in ok_w1], "MB"),
        }
    lines = [f"{name} = {statistics.median(values):.4f} {unit} (median of {len(values)}, "
             f"min {min(values):.4f}, max {max(values):.4f})"
             for name, (values, unit) in samples.items()]
    lines += [f"{name} = {value:.6g} {unit_of(name)} (identical in every repeat)"
              for name, value in accuracy.items()]
    metrics: dict = {}
    if args.trace:
        if per_runs and samples:
            metrics = trace_metrics(per_runs, traced_runs, samples, accuracy, checks)
            lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        metrics = {name: {"value": statistics.median(values), "unit": unit}
                   for name, (values, unit) in samples.items()}

    correct = not checks.failures and bool(metrics)
    lines.append(f"ops_attempted = {checks.attempted} count")
    lines.append(f"ops_failed = {len(checks.failures)} count")
    for failure in checks.failures:
        lines.append(f"FAILED: {failure}")
    lines.append(json.dumps({"workload": args.workload, "environment": env,
                             "accuracy": accuracy, "checks_failed": checks.failures},
                            sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0 if correct else 1


def trace_metrics(per_runs, traced_runs, samples, accuracy, checks) -> dict:
    med = statistics.median
    values: dict = {}
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = med(p.get(name, {}).get("self_s", 0.0) for p in per_runs)
    values.update(layer_counts(per_runs[0]))
    values["cli.bytes_written"] = per_runs[0]["cli.bytes_written"]

    wall1 = med(samples["wall_s.w1"][0])
    wall2 = med(samples[f"wall_s.w{WORKERS}"][0])
    setup = med(samples["setup_s"][0])
    traced_wall = med(r["wall"] for r in traced_runs)
    busy = med(p["cell_busy_s"] for p in per_runs)
    span_total = med(sum(e["self_s"] for e in p.values() if isinstance(e, dict)) for p in per_runs)
    values["cli.pool.idle_frac"] = 1.0 - busy / (WORKERS * (wall2 - setup))
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / wall1 - 1.0
    values["trace.coverage_frac"] = span_total / traced_wall
    checks.check(values["trace.coverage_frac"] >= COVERAGE_FLOOR,
                 f"span self times cover {values['trace.coverage_frac']:.3f} of traced wall")
    values["rel_error.median"] = accuracy.get("rel_error.median", 0.0)
    values["gamma_slope_err"] = accuracy.get("gamma_slope_err", 0.0)
    return {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
