"""Digest every output file the CLI writes for the frozen refactor configs.

Usage:

    python3 tools/output_digests.py OUT_DIR [SEED ...]

OUT_DIR must not exist yet. Writes the four workload configs of
bench/run.py (through its ``WORKLOADS`` and ``write_config``) and the
reduced table1 config of the CLI test ``test_cli_table1_reduced_grid``
under OUT_DIR. Runs each with the ``ce-spectra`` CLI from this checkout's
``src/``, with BLAS pinned to one thread, at ``--workers 1`` and
``--workers 2`` for every seed (default 1 and 5). Prints
``sha256  relative/path`` for every output file, sorted by path. Run it in
two checkouts and diff the listings to check that a change leaves the
output bytes alone; within one listing, the ``w1`` and ``w2`` files of a
run must agree too.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = (1, 2)
DEFAULT_SEEDS = (1, 5)

# The reduced table1 grid of tests/test_cli.py::test_cli_table1_reduced_grid;
# the seed comes from the command line.
TABLE1_REDUCED = {"N": 1, "dims": 12, "m": 400, "n": 400, "n_p": 200, "t_max": 6}


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/output_digests.py OUT_DIR [SEED ...]", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    seeds = [int(s) for s in argv[1:]] or list(DEFAULT_SEEDS)
    bench = load_bench_run()
    configs = dict(bench.WORKLOADS)
    configs["table1_reduced"] = ("table1", TABLE1_REDUCED)

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

    for path in sorted(p for p in runs.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(runs).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
