"""Set-up step of one workload, timed from outside as a fresh interpreter.

Usage: python3 bench/setup_probe.py KIND CONFIG [--env]

Imports ``ce_spectra.cli``, loads CONFIG with ``load_config`` and builds the
workload's target, which is everything a CLI run does before its first cell.
With ``--env`` it then prints, as one JSON line, the software stack the CLI
runs on, including the BLAS thread count that OpenBLAS actually uses under
the caller's environment.
"""
from __future__ import annotations

import sys


def build_target(kind: str, config_path: str) -> None:
    from ce_spectra import cli
    from ce_spectra.config import benchmark_sizes, load_config

    cfg = load_config(config_path, expected_kind=kind)
    if kind == "benchmark":
        cli.benchmark_target(cfg.target, benchmark_sizes(cfg)[0])
    elif kind == "phase":
        for d in cfg.dims:
            cli.build_alignment(cfg.target, cfg.alignment, cfg.lambda1, d)
    elif kind == "gamma":
        d = cfg.dims[0] if cfg.dims else cli.GAMMA_DEFAULT_DIM
        width = cli.prop_range_width(cfg.alpha, cfg.lambda1, max(cli.GAMMA_N_GRID))
        cli.build_alignment(cfg.target, cfg.alignment, cfg.lambda1, d, width)
    else:
        raise SystemExit(f"no set-up step for kind {kind!r}")


def _openblas_threads(libdir: str) -> dict:
    """Thread count reported by each OpenBLAS build bundled in libdir."""
    import ctypes
    import glob
    import os

    found = {}
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def environment() -> None:
    import json
    import os
    import platform

    import numpy
    import scipy

    import ce_spectra

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for mod in (numpy, scipy):
        threads.update(_openblas_threads(os.path.dirname(mod.__file__) + ".libs"))
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ce_spectra": ce_spectra.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps(env, sort_keys=True))


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[3:] not in ([], ["--env"]):
        raise SystemExit(__doc__.splitlines()[2])
    build_target(sys.argv[1], sys.argv[2])
    if sys.argv[3:]:
        environment()
