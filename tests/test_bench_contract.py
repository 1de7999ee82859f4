"""What the benchmark harness in bench/ relies on from the package: the
functions its tracer rebinds by name, the set-up step it times, and a
traced CLI run. The harness files are loaded by path and left unchanged."""
import csv
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_cfg(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


TINY = {
    "benchmark": "kind = benchmark\ntarget = lin\nscheme = ice_proj\nstrategy = mean\n"
                 "dims = 5\nm = 200\nn = 200\nn_p = 100\nt_max = 3\nN = 2\n",
    "phase": "kind = phase\ntarget = halfspace\nalignment = v_in_u_perp\nlambda1 = 0.5\n"
             "kappa = 1.2\ndims = 4, 8\nN = 10\n",
    "gamma": "kind = gamma\ntarget = slab\nalignment = v_in_u\nlambda1 = 0.5\n"
             "alpha = 1.0\nN = 10\n",
}


def test_every_traced_layer_resolves():
    tracer = load_bench_module("tracer")
    for mod_name, fn_name, *_ in tracer.LAYERS:
        module = importlib.import_module(f"ce_spectra.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    # Rebound outside the LAYERS table by install().
    assert callable(importlib.import_module("ce_spectra.numerics").cholesky)
    assert callable(importlib.import_module("ce_spectra.seeding").stream)
    assert callable(importlib.import_module("ce_spectra.targets").LimitState.__call__)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_setup_probe_builds_each_target(tmp_path, kind):
    probe = load_bench_module("setup_probe")
    probe.build_target(kind, write_cfg(tmp_path / f"{kind}.cfg", TINY[kind]))


def traced_cli(tmp_path: Path, kind: str, text: str) -> tuple[list[list], Path]:
    """Run one CLI command under bench/tracer.py; (spans, output dir)."""
    cfg = write_cfg(tmp_path / f"{kind}.cfg", text)
    spans = tmp_path / "spans.json"
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", kind,
         "--config", cfg, "--workers", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["exit"] == 0
    return record["spans"], out


def test_traced_run_records_scheme_spans(tmp_path):
    spans, _ = traced_cli(tmp_path, "benchmark", TINY["benchmark"])
    names = {span[0] for span in spans}
    assert {"ce_schemes.run", "ce_schemes.bandwidth", "estimators.moments",
            "gauss_core.sample", "targets.score"} <= names


def test_traced_dense_run_decomposes_once_per_iteration(tmp_path):
    # Dense updates: every iteration that reaches the estimate decomposes it
    # once (recorded as a finite lambda_max_raw), and the next law reuses
    # those extremes instead of decomposing again.
    spans, out = traced_cli(
        tmp_path, "benchmark", "kind = benchmark\ntarget = lin\nscheme = ce\ndims = 5\nm = 200\n"
                  "n = 200\nn_p = 100\nt_max = 3\nN = 2\n")
    names = [span[0] for span in spans]
    assert {"gauss_core.sample", "numerics.cholesky", "numerics.eigen"} <= set(names)
    with open(out / "traces.csv") as fh:
        rows = list(csv.DictReader(fh))
    finite = sum(math.isfinite(float(row["lambda_max_raw"])) for row in rows)
    assert finite > 0
    assert names.count("numerics.eigen") == finite


def test_traced_phase_cell_decomposes_once(tmp_path):
    # A phase cell reports the operator-norm error and the top eigenvalue of
    # its estimate. Both are eigenvalues only; the traced decomposition is
    # the operator-norm call, and no cell pays for an eigenvector basis.
    spans, _ = traced_cli(tmp_path, "phase", TINY["phase"])
    names = {span[0] for span in spans}
    assert {"phase_lab.sweep_cell", "estimators.moments", "numerics.eigen"} <= names
    cells = [span[4] for span in spans if span[0] == "phase_lab.sweep_cell"]
    assert len(cells) == 2 * 10
    eigen = [span[4] for span in spans if span[0] == "numerics.eigen"]
    assert sorted(eigen) == sorted(cells)
