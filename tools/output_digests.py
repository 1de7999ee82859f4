"""Digest every output file the CLI writes for the frozen refactor configs,
and compare two such runs column by column.

Usage:

    python3 tools/output_digests.py OUT_DIR [SEED ...]
    python3 tools/output_digests.py --compare OLD_OUT_DIR NEW_OUT_DIR

OUT_DIR must not exist yet (exit 2 if it does). Writes the four workload
configs of bench/run.py (through its ``WORKLOADS`` and ``write_config``),
the reduced table1 config of the CLI test ``test_cli_table1_reduced_grid`` and
the two lab geometries of ``LAB_BRANCHES`` under OUT_DIR. Runs each with
the ``ce-spectra`` CLI from this checkout's ``src/``, with BLAS pinned to
one thread, at ``--workers 1`` and ``--workers 2`` for every seed
(default 1 and 5). Prints ``sha256  relative/path`` for every output
file, sorted by path. Run it in two checkouts and diff the listings to
check that a change leaves the output bytes alone. Within one listing, the
``w1`` and ``w2`` files of a run must agree too: after the listing it
names every ``w1`` file that differs from its ``w2`` twin on stderr and
exits 1.

``--compare`` takes two OUT_DIRs this tool wrote, say in the parent
checkout and in a changed one. It lists every file whose bytes differ. For
every CSV it requires the same header, the same row count and equal values
in the integer and flag columns (``FLAG_COLUMNS``), and it prints the
largest relative change of each float column per workload and file name.
It exits 1 on a missing file, an empty CSV, a row whose width differs
from its header's, a header, row-count or flag difference, a float that
turns finite or non-finite, or a ``w1`` file that differs from its ``w2``
twin in either directory, with 2 when either directory holds no
``runs/``, else 0.
A change that moves output only by rounding passes and shows how far.
"""
from __future__ import annotations

import csv
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = (1, 2)
DEFAULT_SEEDS = (1, 5)

# CSV columns that must match exactly between two runs.
FLAG_COLUMNS = ("rep", "t", "d", "n", "diverged", "converged", "iterations")

# The reduced table1 grid of tests/test_cli.py::test_cli_table1_reduced_grid;
# the seed comes from the command line.
TABLE1_REDUCED = {"N": 1, "dims": 12, "m": 400, "n": 400, "n_p": 200, "t_max": 6}

# Lab geometries the workloads leave out: a widening slab with the spike on
# its direction in phase, and a halfspace with the spike orthogonal to it in
# gamma, which takes no dimension. The seed comes from the command line.
LAB_BRANCHES = {
    "phase_slab_alpha": ("phase", {"target": "slab", "alignment": "v_in_u", "alpha": 0.5,
                                   "lambda1": 0.7, "kappa": "1.5, 2.5", "dims": "4, 8",
                                   "N": 10}),
    "gamma_halfspace_perp": ("gamma", {"target": "halfspace", "alignment": "v_in_u_perp",
                                       "lambda1": 0.7, "N": 10}),
}


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def frozen_configs(bench) -> dict[str, tuple[str, dict]]:
    """(kind, keys) of every config this tool runs, by name; bench is
    bench/run.py as ``load_bench_run`` loads it."""
    configs = dict(bench.WORKLOADS)
    configs["table1_reduced"] = ("table1", TABLE1_REDUCED)
    configs.update(LAB_BRANCHES)
    return configs


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def output_files(out: Path) -> dict[str, Path]:
    runs = out / "runs"
    return {p.relative_to(runs).as_posix(): p for p in sorted(runs.rglob("*")) if p.is_file()}


def relative_change(old: float, new: float) -> float | None:
    """|new - old| / |old|; None when a non-finite value appears, goes or
    changes, which no relative size describes."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return None
    if old == 0.0:
        return math.inf
    return abs(new - old) / abs(old)


def ragged_rows(label: str, rows: list[list[str]]) -> list[str]:
    """An empty file, or rows whose width differs from the header's."""
    if not rows:
        return [f"{label}: empty file"]
    width = len(rows[0])
    return [f"{label}: row {i} has {len(row)} fields, header {width}"
            for i, row in enumerate(rows[1:], start=1) if len(row) != width]


def compare_csv(rel: str, old: Path, new: Path, largest: dict) -> list[str]:
    """Problems with one CSV pair; float changes go into largest[(workload,
    file name, column)]."""
    with open(old, newline="") as fh:
        old_rows = list(csv.reader(fh))
    with open(new, newline="") as fh:
        new_rows = list(csv.reader(fh))
    problems = ragged_rows(f"old {rel}", old_rows) + ragged_rows(f"new {rel}", new_rows)
    if problems:
        return problems
    if old_rows[0] != new_rows[0]:
        return [f"{rel}: header {old_rows[0]} -> {new_rows[0]}"]
    if len(old_rows) != len(new_rows):
        return [f"{rel}: {len(old_rows) - 1} rows -> {len(new_rows) - 1}"]
    workload, name = rel.split("/")[0], rel.rsplit("/", 1)[-1]
    for j, column in enumerate(old_rows[0]):
        key = (workload, name, column)
        if column not in FLAG_COLUMNS:
            largest.setdefault(key, 0.0)
        for i, (a, b) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
            if a[j] == b[j]:
                continue
            try:
                change = relative_change(float(a[j]), float(b[j]))
            except ValueError:
                change = None
            if column in FLAG_COLUMNS or change is None:
                problems.append(f"{rel}: row {i} {column} {a[j]} -> {b[j]}")
            else:
                largest[key] = max(largest[key], change)
    return problems


def worker_mismatches(files: dict[str, Path]) -> list[str]:
    """Files of a --workers 1 run whose --workers 2 twin has other bytes."""
    out = []
    for rel, path in files.items():
        parts = rel.split("/")
        if len(parts) > 2 and parts[2] == "w1":
            twin = files.get("/".join(parts[:2] + ["w2"] + parts[3:]))
            if twin is None or twin.read_bytes() != path.read_bytes():
                out.append(rel)
    return out


def compare(old_dir: Path, new_dir: Path) -> int:
    for out in (old_dir, new_dir):
        if not (out / "runs").is_dir():
            print(f"{out} holds no runs/ directory of this tool", file=sys.stderr)
            return 2
    old, new = output_files(old_dir), output_files(new_dir)
    problems = [f"only in {old_dir}: {rel}" for rel in sorted(old.keys() - new.keys())]
    problems += [f"only in {new_dir}: {rel}" for rel in sorted(new.keys() - old.keys())]
    for label, files in (("old", old), ("new", new)):
        problems += [f"{label}: w1 differs from w2: {rel}" for rel in worker_mismatches(files)]
    largest: dict = {}
    changed = 0
    for rel in sorted(old.keys() & new.keys()):
        if rel.endswith(".csv"):
            problems += compare_csv(rel, old[rel], new[rel], largest)
        if old[rel].read_bytes() != new[rel].read_bytes():
            changed += 1
            print(f"changed  {rel}")
    print(f"{changed} of {len(old.keys() & new.keys())} common files changed")
    for (workload, name, column), change in sorted(largest.items()):
        print(f"max_rel  {workload:<16} {name:<12} {column:<16} {change:.3g}")
    for problem in problems:
        print(f"PROBLEM  {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if not argv or argv[0].startswith("--"):
        print("usage: python3 tools/output_digests.py OUT_DIR [SEED ...]\n"
              "       python3 tools/output_digests.py --compare OLD_OUT_DIR NEW_OUT_DIR",
              file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists():
        print(f"{out} exists already; OUT_DIR must be a new directory", file=sys.stderr)
        return 2
    seeds = [int(s) for s in argv[1:]] or list(DEFAULT_SEEDS)
    bench = load_bench_run()
    configs = frozen_configs(bench)

    runs = out / "runs"
    (out / "configs").mkdir(parents=True)
    for name, (kind, cfg) in configs.items():
        for seed in seeds:
            path = out / "configs" / f"{name}_s{seed}.cfg"
            bench.write_config(path, kind, cfg, seed)
            for workers in WORKERS:
                argv_ = [sys.executable, "-m", "ce_spectra.cli", kind, "--config", str(path),
                         "--workers", str(workers),
                         "--out", str(runs / name / f"s{seed}" / f"w{workers}")]
                proc = subprocess.run(argv_, env=child_env(), capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{name} seed {seed} workers {workers}: exit {proc.returncode}\n"
                          f"{proc.stderr}", file=sys.stderr)
                    return 1

    files = output_files(out)
    for rel, path in files.items():
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
    mismatches = worker_mismatches(files)
    for rel in mismatches:
        print(f"PROBLEM  w1 differs from w2: {rel}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
