"""Run the ce-spectra CLI in this process with a span around each layer call.

Usage: python3 bench/tracer.py SPANS_JSON -- <ce-spectra arguments>

Every public function of the package's modules listed in LAYERS is rebound,
in its defining module and in every module that imported it by name, to a
wrapper that records a span: name, start, end, parent span, cell id and a
few counts computed from the call's arguments and result. The generator that
``seeding.stream`` returns is wrapped too, so time in ``standard_normal``
becomes its own ``seeding.draw`` span. Spans are kept in memory and written
to SPANS_JSON when the run ends. Only meaningful at ``--workers 1``: pool
workers re-import the package without the wrappers.

Flop and byte counts are computed from array shapes, not measured.
"""
from __future__ import annotations

import functools
import json
import sys
import time

T0 = time.perf_counter()


class Recorder:
    """Spans as [name, start, end, parent, cell, counts]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cells = 0

    def call(self, name, fn, args, kwargs, count=None, cell=False, errors=()):
        parent = self.stack[-1] if self.stack else -1
        if cell:
            cell_id = self.cells
            self.cells += 1
        else:
            cell_id = self.spans[parent][4] if parent >= 0 else -1
        span = [name, 0.0, 0.0, parent, cell_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except errors:
            span[5] = {"failures": 1}
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        if count is not None:
            span[5] = count(args, kwargs, out)
        return out

    def wrap(self, name, fn, count=None, cell=False, errors=()):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, cell, errors)
        return traced


class TracedGenerator:
    """Generator proxy whose normal draws are ``seeding.draw`` spans."""

    def __init__(self, rec: Recorder, gen):
        self._rec = rec
        self._gen = gen

    def standard_normal(self, *args, **kwargs):
        return self._rec.call("seeding.draw", self._gen.standard_normal, args, kwargs,
                              lambda a, k, out: {"values": int(out.size)})

    def __getattr__(self, name):
        return getattr(self._gen, name)


# ------------------------------------------------------------ count helpers


def _sample_counts(args, kwargs, out):
    law = args[0]
    n, d = out.shape
    counts = {"rows": n}
    if law.dense_chol is not None:
        counts["flop"] = 2 * n * d * d
        counts["bytes"] = 8 * (2 * n * d + d * d)
    elif law.spiked is not None:
        r = law.spiked.rank
        counts["flop"] = 4 * n * d * r
        counts["bytes"] = 8 * (2 * n * d + r * d)
    return counts


def _points(x):
    import numpy as np
    x = np.asarray(x)
    return (1, x.shape[0]) if x.ndim == 1 else x.shape


def _log_density_counts(args, kwargs, out):
    law, x = args[0], args[1]
    n, d = _points(x)
    if law.dense_chol is not None:
        return {"flop": n * d * d, "bytes": 8 * (n * d + d * d)}
    if law.spiked is not None:
        r = law.spiked.rank
        return {"flop": 2 * n * d * r, "bytes": 8 * (n * d + r * d)}
    return None


def _spiked_ratio_counts(args, kwargs, out):
    sigma, x = args[0], args[1]
    n, d = _points(x)
    return {"flop": 2 * n * d * sigma.rank, "bytes": 8 * (n * d + sigma.rank * d)}


def _proj_r_counts(args, kwargs, out):
    from ce_spectra import gauss_core
    floor = args[2] if len(args) > 2 else kwargs.get("floor", gauss_core.LAMBDA_FLOOR)
    return {"floor_clamps": int((out.lambdas <= floor).sum())}


def _eigh_counts(args, kwargs, out):
    d = len(out.v_min)
    # Symmetric eigendecomposition with vectors: about 9 d^3 flops
    # (Golub & Van Loan, symmetric QR); reads the matrix, writes the vectors.
    return {"flop": 9 * d ** 3, "bytes": 8 * 2 * d * d}


def _eigvalsh_counts(args, kwargs, out):
    import numpy as np
    d = np.asarray(args[0]).shape[0]
    # Eigenvalues only: tridiagonal reduction, about 4/3 d^3 flops.
    return {"flop": 4 * d ** 3 // 3, "bytes": 8 * d * d}


def _moment_counts(sample, hits):
    n, d = sample.size, sample.dim
    return {"flop": 2 * n * d * d, "bytes": 8 * (2 * n * d + d * d),
            "hits": int(hits), "points": n}


def _scheme_moment_counts(args, kwargs, out):
    return _moment_counts(args[0], out.n_hits)


def _sigma_a_counts(args, kwargs, out):
    sample = args[0]
    return _moment_counts(sample, sample.indicators.sum())


def _score_counts(args, kwargs, out):
    return {"rows": _points(args[1])[0]}


def _run_counts(args, kwargs, out):
    return {"iterations": out.iterations_used, "diverged": int(out.diverged),
            "converged": int(out.converged)}


# ------------------------------------------------------------ installation

# (module, function, span name, count helper, starts a cell)
LAYERS = (
    ("gauss_core", "sample", "gauss_core.sample", _sample_counts, False),
    ("gauss_core", "log_ratio_to_standard", "gauss_core.log_ratio", None, False),
    ("gauss_core", "log_density", "gauss_core.log_ratio", _log_density_counts, False),
    ("gauss_core", "log_likelihood_ratio", "gauss_core.log_ratio", _spiked_ratio_counts, False),
    ("gauss_core", "proj_r", "gauss_core.proj_r", _proj_r_counts, False),
    ("numerics", "sym_eigen_extremes", "numerics.eigen", _eigh_counts, False),
    ("numerics", "operator_norm_diff", "numerics.eigen", _eigvalsh_counts, False),
    ("numerics", "require_symmetric", "numerics.symcheck", None, False),
    ("numerics", "std_normal_cdf", "numerics.special", None, False),
    ("numerics", "log_std_normal_cdf", "numerics.special", None, False),
    ("numerics", "std_normal_pdf", "numerics.special", None, False),
    ("numerics", "std_normal_quantile", "numerics.special", None, False),
    ("numerics", "gamma_inverse_cdf", "numerics.special", None, False),
    ("estimators", "weighted_mean_cov", "estimators.moments", _scheme_moment_counts, False),
    ("estimators", "smooth_weighted_mean_cov", "estimators.moments", _scheme_moment_counts, False),
    ("estimators", "sigma_a_estimator", "estimators.moments", _sigma_a_counts, False),
    ("estimators", "ice_delta", "estimators.spread", None, False),
    ("estimators", "indicator_delta", "estimators.spread", None, False),
    ("estimators", "is_probability", "estimators.stats", None, False),
    ("estimators", "quantile_threshold", "estimators.stats", None, False),
    ("estimators", "max_weight_statistic", "estimators.stats", None, False),
    ("estimators", "log_max_hit_ratio", "estimators.stats", None, False),
    ("ce_schemes", "run_scheme", "ce_schemes.run", _run_counts, True),
    ("ce_schemes", "optimize_bandwidth", "ce_schemes.bandwidth",
     lambda a, k, out: {"searches": 1}, False),
    ("ce_schemes", "bandwidth_objective", "ce_schemes.bandwidth",
     lambda a, k, out: {"evals": 1}, False),
    ("phase_lab", "sweep_cell", "phase_lab.sweep_cell", None, True),
    ("phase_lab", "gamma_cell", "phase_lab.gamma_cell", None, True),
    ("phase_lab", "gamma_fit", "phase_lab.gamma_fit", None, False),
    ("svg", "render", "svg.render", None, False),
    ("cli", "write_csv", "cli.write", None, False),
    ("cli", "write_json", "cli.write", None, False),
    ("config", "load_config", "config.load", None, False),
)


def _rebind(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    import importlib

    pkg = "ce_spectra"
    modules = [importlib.import_module(f"{pkg}.{m}") for m in
               ("seeding", "numerics", "gauss_core", "targets", "estimators",
                "ce_schemes", "phase_lab", "svg", "config", "cli")]
    modules.append(importlib.import_module(pkg))
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

    for mod_name, fn_name, span, count, cell in LAYERS:
        original = getattr(by_name[mod_name], fn_name)
        _rebind(modules, original, rec.wrap(span, original, count, cell))

    numerics = by_name["numerics"]
    cholesky = numerics.cholesky
    _rebind(modules, cholesky,
            rec.wrap("numerics.cholesky", cholesky, errors=(numerics.NotPositiveDefiniteError,)))

    stream = by_name["seeding"].stream

    @functools.wraps(stream)
    def traced_stream(*key):
        return TracedGenerator(rec, rec.call("seeding.stream", stream, key, {}))

    _rebind(modules, stream, traced_stream)

    limit_state = by_name["targets"].LimitState
    limit_state.__call__ = rec.wrap("targets.score", limit_state.__call__, _score_counts)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    rec = Recorder()
    start = time.perf_counter()
    import ce_spectra.cli as cli
    rec.spans.append(["cli.import", start, time.perf_counter(), -1, -1, None])
    install(rec)
    code = rec.call("cli.main", cli.main, (cli_args,), {})
    wall = time.perf_counter() - T0
    with open(spans_path, "w") as fh:
        json.dump({"exit": code, "wall_s": wall, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
