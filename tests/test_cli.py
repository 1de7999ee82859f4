"""Configuration parsing and the command line runners, end to end on
small workloads. Worker-count independence is asserted byte for byte."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ce_spectra import cli, config
from ce_spectra.cli import main
from ce_spectra.config import (
    GAMMA_N_GRID,
    TABLE1_CELLS,
    TABLE1_TARGETS,
    ConfigError,
    benchmark_sizes,
    load_config,
)
from ce_spectra.phase_lab import (
    LabGeometry,
    gamma_cell,
    gamma_cells,
    gamma_fit,
    sweep_cell,
    sweep_cells,
)


def write_cfg(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


PHASE_BASE = "kind = phase\ntarget = halfspace\nalignment = v_in_u_perp\ndims = 4, 8\n"
GAMMA_BASE = "kind = gamma\ntarget = slab\nalignment = v_in_u\n"


# ---------------------------------------------------------------- parsing


def test_parse_types_comments_and_lists(tmp_path):
    cfg_path = write_cfg(tmp_path / "c.cfg", """
# comment line
kind = phase          # trailing comment
target = halfspace
alignment = v_in_u_perp
lambda1 = 0.5
kappa = 1.2, 2.5
dims = 10, 20, 40
N = 12
""")
    cfg = load_config(cfg_path)
    assert cfg.kind == "phase"
    assert cfg.kappa == (1.2, 2.5)
    assert cfg.dims == (10, 20, 40)
    assert cfg.N == 12


@pytest.mark.parametrize("line,fragment", [
    ("bogus_key = 1", "unknown key"),
    ("kind benchmark", "expected key=value"),
    ("N = plenty", "bad value"),
    ("kind = benchmark\nkind = phase", "duplicate key"),
    # Without a command to expect, the file's kind is checked alone.
    ("kind = foo", "unknown kind 'foo'"),
    ("N = 3", "missing required key 'kind'"),
])
def test_parse_rejects_malformed_lines(tmp_path, line, fragment):
    cfg_path = write_cfg(tmp_path / "bad.cfg", line + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path)
    assert fragment in str(err.value)


def test_validation_per_kind(tmp_path):
    with pytest.raises(ConfigError, match="requires keys"):
        load_config(write_cfg(tmp_path / "a.cfg", "kind = benchmark\n"))
    # Each kind rejects the keys it does not read, instead of ignoring them.
    for key in ("target = lin", "scheme = ce", "strategy = mean", "alignment = v_in_u"):
        with pytest.raises(ConfigError, match=f"kind=table1 does not read keys: {key.split()[0]}$"):
            load_config(write_cfg(tmp_path / "b.cfg", f"kind = table1\n{key}\n"))
    for text, unread in (
        (PHASE_BASE + "lambda1 = 0.5\nkappa = 2.0\nscheme = ce\nm = 7\nrho = 0.3\n",
         "phase does not read keys: scheme, m, rho"),
        ("kind = benchmark\ntarget = lin\nscheme = ce\n"
         "kappa = 2.0\nlambda1 = 0.5\nalignment = v_in_u\n",
         "benchmark does not read keys: kappa, lambda1, alignment"),
        (GAMMA_BASE + "lambda1 = 0.5\nkappa = 2.0\nn = 1000\n",
         "gamma does not read keys: kappa, n"),
        # A scheme reads one level option; benchmark runs one scheme.
        ("kind = benchmark\ntarget = lin\nscheme = ice\nrho = 0.3\n",
         "scheme=ice does not read keys: rho"),
        ("kind = benchmark\ntarget = lin\nscheme = ce_proj\nstrategy = mean\n"
         "delta_target = 3.0\n", "scheme=ce_proj does not read keys: delta_target"),
    ):
        with pytest.raises(ConfigError, match=unread):
            load_config(write_cfg(tmp_path / "k.cfg", text))
    bench = write_cfg(tmp_path / "w.cfg", "kind = benchmark\ntarget = lin\nscheme = ce\n")
    with pytest.raises(ConfigError, match="workers must be 0"):
        load_config(bench, overrides={"workers": -4})
    assert load_config(bench, overrides={"workers": 0}).workers == (os.cpu_count() or 1)
    # Outputs do not depend on the worker count, so no more processes than
    # cores are ever asked for; loading the config starts no pool.
    assert load_config(bench, overrides={"workers": 10 ** 6}).workers == (os.cpu_count() or 1)
    # A seed outside [0, 2^32) would alias an in-range one in the streams.
    for seed in (-1, 2 ** 32):
        with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\^32\)"):
            load_config(bench, overrides={"seed": seed})
    assert load_config(bench, overrides={"seed": 2 ** 32 - 1}).seed == 2 ** 32 - 1
    with pytest.raises(ConfigError, match="dims grid"):
        load_config(write_cfg(
            tmp_path / "c.cfg",
            "kind = phase\ntarget = slab\nalignment = v_in_u\n"
            "lambda1 = 0.5\nkappa = 2.0\ndims = 10\n"))
    with pytest.raises(ConfigError, match="strategy"):
        load_config(write_cfg(
            tmp_path / "d.cfg",
            "kind = benchmark\ntarget = lin\nscheme = ce_proj\n"))

    # Range and membership rules come from load_config's own checks and from
    # the library objects it builds, re-raised as ConfigError.
    phase = PHASE_BASE + "lambda1 = 0.5\n"
    gamma = GAMMA_BASE + "lambda1 = 0.5\n"
    for text, fragment in (
        (phase + "kappa = 2.0\nN = 5\n", "at least 10 repetitions"),
        (phase + "kappa = 1.0, 0.0\n", "kappa must be positive"),
        (phase.replace("halfspace", "lin") + "kappa = 2.0\n", "unknown target kind"),
        (gamma + "N = 3\n", "at least 10 repetitions"),
        (gamma + "alpha = 2.0\n", "alpha must lie"),
        (phase + "kappa = 2.0\nalpha = 0.5\n", "alpha applies to the slab target only"),
        (gamma.replace("slab", "halfspace") + "alpha = 0.5\n",
         "alpha applies to the slab target only"),
        (GAMMA_BASE + "lambda1 = 1.5\n", "lambda1 must lie"),
        ("kind = benchmark\ntarget = quad\nscheme = ce\ndims = 1\n", "needs d >= 2"),
        ("kind = benchmark\ntarget = fin\nscheme = ce\ndims = 2\n", "needs d >= 3"),
        ("kind = benchmark\ntarget = slab\nscheme = ce\n", "unknown benchmark target"),
        ("kind = benchmark\ntarget = lin\nscheme = ce\nm = 1\n", "m must be at least 2"),
        ("kind = table1\ndims = 2\n", "needs d >= 3"),
        (phase + "kappa = 2.0, nan\n", "kappa must be positive"),
        (phase + "kappa = inf\n", "kappa must be positive"),
        ("kind = benchmark\ntarget = lin\nscheme = ice\ndelta_target = nan\n",
         r"delta_target must lie in \[1, inf\)"),
        # inf would meet the stop test on every level batch: no iteration runs.
        ("kind = benchmark\ntarget = lin\nscheme = ice\ndelta_target = inf\n",
         r"delta_target must lie in \[1, inf\)"),
        ("kind = table1\ndivergence_lambda_cap = nan\n", "divergence_lambda_cap must be positive"),
        ("kind = benchmark\ntarget = lin\nscheme = ce\nN = 0\n", "N must be positive"),
        ("kind = benchmark\ntarget = lin\nscheme = ce\ndims = 5, 10\n",
         "benchmark takes at most one dimension"),
        ("kind = table1\nn_p = 0\n", "n_p must be positive"),
        ("kind = table1\nt_max = 0\n", "t_max must be positive"),
        ("kind = benchmark\ntarget = lin\nscheme = ce_proj\nstrategy = best\n",
         "unknown strategy 'best'"),
    ):
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_cfg(tmp_path / "lib.cfg", text))


# Each kind's keys and required keys, in the order of their messages.
COMMON_KEYS = ("kind", "seed", "workers", "output_dir", "N")
SCHEME_OPTIONS = ("rho", "delta_target", "n_p", "t_max", "divergence_lambda_cap")
KIND_KEYS = {
    "benchmark": COMMON_KEYS + ("target", "scheme", "m", "n", "dims", "strategy")
    + SCHEME_OPTIONS,
    "table1": COMMON_KEYS + ("m", "n", "dims") + SCHEME_OPTIONS,
    "phase": COMMON_KEYS + ("target", "alignment", "lambda1", "kappa", "dims", "alpha"),
    "gamma": COMMON_KEYS + ("target", "alignment", "lambda1", "alpha"),
}
REQUIRED_KEYS = {
    "benchmark": ("target", "scheme"),
    "phase": ("target", "alignment", "lambda1", "kappa", "dims"),
    "gamma": ("target", "alignment", "lambda1"),
    "table1": (),
}
# A value each key's parser takes and, for table1, its rules accept.
KEY_VALUES = {
    "kind": None, "seed": "3", "workers": "1", "output_dir": "out", "N": "2",
    "target": "lin", "scheme": "ce", "strategy": "mean", "m": "40", "n": "40",
    "dims": "4", "rho": "0.2", "delta_target": "2.0", "n_p": "10", "t_max": "3",
    "divergence_lambda_cap": "100.0", "alignment": "v_in_u", "lambda1": "0.5",
    "kappa": "2.0", "alpha": "0.5",
}


def test_key_values_cover_the_key_table():
    assert set(KEY_VALUES) == set(config._KEYS)


@pytest.mark.parametrize("key", KEY_VALUES)
@pytest.mark.parametrize("kind", KIND_KEYS)
def test_key_read_and_required_per_kind(tmp_path, kind, key):
    text = f"kind = {kind}\n"
    if key != "kind":
        text += f"{key} = {KEY_VALUES[key]}\n"
    path = write_cfg(tmp_path / "k.cfg", text)
    if key not in KIND_KEYS[kind]:
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"kind={kind} does not read keys: {key}"
        return
    missing = [k for k in REQUIRED_KEYS[kind] if k != key]
    if missing:
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"kind={kind} requires keys: {', '.join(missing)}"
    else:
        assert load_config(path).kind == kind


def test_readme_lists_the_keys_of_each_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for kind in KIND_KEYS:
        lines = [ln for ln in readme.splitlines() if ln.startswith(f"- `{kind}` reads:")]
        assert len(lines) == 1, kind
        listed = re.findall(r"`([^`]+)`", lines[0].split(":", 1)[1])
        assert len(listed) == len(set(listed)), kind
        assert set(listed) == {k for k, key in config._KEYS.items() if kind in key["kinds"]}


def test_default_repetitions(tmp_path):
    bench = load_config(write_cfg(
        tmp_path / "b.cfg", "kind = benchmark\ntarget = lin\nscheme = ce\n"))
    assert bench.N == 200
    gam = load_config(write_cfg(
        tmp_path / "g.cfg",
        "kind = gamma\ntarget = slab\nalignment = v_in_u\nlambda1 = 0.5\n"))
    assert gam.N == 30


def test_overrides_and_expected_kind(tmp_path):
    cfg_path = write_cfg(
        tmp_path / "o.cfg",
        "kind = benchmark\ntarget = lin\nscheme = ce\nseed = 1\n")
    cfg = load_config(cfg_path, overrides={"seed": 9, "workers": 2,
                                           "output_dir": None})
    assert cfg.seed == 9 and cfg.workers == min(2, os.cpu_count() or 1)
    with pytest.raises(ConfigError, match="conflicts with command"):
        load_config(cfg_path, expected_kind="gamma")


def test_benchmark_sizes_published_defaults(tmp_path):
    cfg = load_config(write_cfg(
        tmp_path / "s.cfg", "kind = benchmark\ntarget = lin\nscheme = ce\n"))
    assert benchmark_sizes(cfg) == (100, 10000, 10000)
    cfg2 = load_config(write_cfg(
        tmp_path / "s2.cfg", "kind = benchmark\ntarget = quad\nscheme = ce\n"))
    assert benchmark_sizes(cfg2) == (334, 5000, 5000)
    cfg3 = load_config(write_cfg(
        tmp_path / "s3.cfg",
        "kind = benchmark\ntarget = fin\nscheme = ce\ndims = 50\nn = 700\n"))
    assert benchmark_sizes(cfg3) == (50, 700, 700)


# ------------------------------------------------------------ CLI smoke


BENCH_TEMPLATE = """
kind = benchmark
target = lin
scheme = ice_proj
strategy = mean
N = 2
m = 1500
n = 1500
n_p = 800
seed = 7
workers = {workers}
output_dir = {out}
"""


def run_cli(args) -> int:
    return main([str(a) for a in args])


def test_cli_benchmark_outputs(tmp_path):
    out = tmp_path / "bench"
    cfg = write_cfg(tmp_path / "b.cfg",
                    BENCH_TEMPLATE.format(workers=1, out=out))
    assert run_cli(["benchmark", "--config", cfg]) == 0
    for name in ("runs.csv", "traces.csv", "summary.json",
                 "error_violin.svg", "spectrum.svg"):
        assert (out / name).exists(), name
    header = (out / "runs.csv").read_text().splitlines()[0]
    assert header == "rep,p_hat,relative_error,converged,iterations"
    theader = (out / "traces.csv").read_text().splitlines()[0]
    assert theader == "rep,t,q_or_sigma,lambda_min_proj,lambda_max_raw,diverged"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reps_completed"] == 2
    assert summary["relative_error"]["median"] < 1.0
    assert (out / "error_violin.svg").read_text().startswith("<svg")


PHASE_TEMPLATE = """
kind = phase
target = halfspace
alignment = v_in_u_perp
lambda1 = 0.5
kappa = 1.5, 2.5
dims = 4, 8
N = 10
seed = 3
workers = {workers}
output_dir = {out}
"""

GAMMA_TEMPLATE = """
kind = gamma
target = slab
alignment = v_in_u
lambda1 = 0.5
alpha = 1.0
N = 10
seed = 11
workers = {workers}
output_dir = {out}
"""


TABLE1_TEMPLATE = """
kind = table1
N = 1
dims = 12
m = 400
n = 400
n_p = 200
t_max = 6
seed = 5
workers = {workers}
output_dir = {out}
"""


TEMPLATES = {"benchmark": BENCH_TEMPLATE, "phase": PHASE_TEMPLATE, "gamma": GAMMA_TEMPLATE}


@pytest.mark.parametrize("kind", ["benchmark", "phase", "gamma"])
def test_cli_worker_count_does_not_change_bytes(tmp_path, kind):
    outs = []
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        cfg = write_cfg(tmp_path / f"w{workers}.cfg",
                        TEMPLATES[kind].format(workers=workers, out=out))
        assert run_cli([kind, "--config", cfg]) == 0
        outs.append(out)
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_worker_count_does_not_change_reduced_level_bytes(tmp_path):
    # ce on quad draws its hard level scores from the decisive coordinates.
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        cfg = write_cfg(tmp_path / f"w{workers}.cfg",
                        "kind = benchmark\ntarget = quad\nscheme = ce\nm = 1000\nn = 1000\n"
                        f"n_p = 500\nN = 2\nseed = 7\nworkers = {workers}\noutput_dir = {out}\n")
        assert run_cli(["benchmark", "--config", cfg]) == 0
        outs.append(out)
    for name in ("runs.csv", "traces.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_worker_count_does_not_change_dense_smoothed_bytes(tmp_path):
    # ice updates a dense covariance, and its smoothed level stage draws
    # full points once the law is dense.
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        cfg = write_cfg(tmp_path / f"w{workers}.cfg",
                        "kind = benchmark\ntarget = lin\nscheme = ice\ndims = 20\nm = 1000\n"
                        "n = 1000\nn_p = 500\nt_max = 3\nN = 2\nseed = 7\n"
                        f"workers = {workers}\noutput_dir = {out}\n")
        assert run_cli(["benchmark", "--config", cfg]) == 0
        outs.append(out)
    for name in ("runs.csv", "traces.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_phase_rows_match_library_sweep(tmp_path):
    out = tmp_path / "phase"
    cfg = write_cfg(tmp_path / "p.cfg", PHASE_TEMPLATE.format(workers=2, out=out))
    assert run_cli(["phase", "--config", cfg]) == 0
    lines = (out / "sweep_1.csv").read_text().splitlines()[1:]
    got = [tuple(float(v) for v in line.split(",")) for line in lines]
    cells = sweep_cells(LabGeometry("halfspace", "v_in_u_perp", 0.5),
                        kappa=1.5, dims=(4, 8), reps=10, seed=3)
    rows = [sweep_cell(*cell) for cell in cells]
    want = [(r.d, r.rep, r.n, r.op_error, r.lambda_max_hat, r.max_weight, r.q_hat)
            for r in rows]
    assert got == want


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("kind,failing_call", [("benchmark", 3), ("benchmark", 1),
                                                ("table1", 3)],
                         ids=["third_cell", "first_cell", "table1_third_cell"])
def test_cli_flushes_finished_cells_when_a_cell_fails(tmp_path, monkeypatch, kind,
                                                      failing_call):
    # Every cell of the command goes through one map_cells call; when a cell
    # raises, every output is still written with the repetitions that finished.
    real, real_map = cli.run_scheme, cli.map_cells
    calls, maps = [], []

    def cell_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == failing_call:
            raise RuntimeError("cell failed")
        return real(*args, **kwargs)

    def counted_map(*args):
        maps.append(args)
        return real_map(*args)

    monkeypatch.setattr(cli, "run_scheme", cell_fails)
    monkeypatch.setattr(cli, "map_cells", counted_map)
    out = tmp_path / "partial"
    if kind == "benchmark":
        text = BENCH_TEMPLATE.format(workers=1, out=out).replace("N = 2", "N = 4")
    else:
        text = TABLE1_TEMPLATE.format(workers=1, out=out)
    cfg = write_cfg(tmp_path / "f.cfg", text)
    with pytest.raises(RuntimeError, match="cell failed"):
        run_cli([kind, "--config", cfg])
    assert len(maps) == 1
    if kind == "table1":
        # N = 1: the first two cells finished, the third failed, and the
        # other fifteen never started; all 18 are written.
        cells = json.loads((out / "summary.json").read_text(),
                           parse_constant=_reject_constant)
        order = [f"{target}_{scheme}" + ("" if strategy == "none" else f"_{strategy}")
                 for target in TABLE1_TARGETS for scheme, strategy in TABLE1_CELLS]
        assert sorted(cells) == sorted(order)
        assert [cells[name]["reps_completed"] for name in order] == [1, 1] + [0] * 16
        for name in order:
            assert (out / name / "runs.csv").exists(), name
        return
    completed = failing_call - 1
    rows = (out / "runs.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [str(rep) for rep in range(completed)]
    # The summary is strict JSON: empty statistics are null, never NaN.
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["reps_completed"] == completed
    if completed == 0:
        assert summary["divergence_rate"] is None and summary["converged_rate"] is None
        assert summary["p_hat"] == {"q25": None, "median": None, "q75": None}


def test_cli_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "again"
    cfg = write_cfg(tmp_path / "a.cfg", BENCH_TEMPLATE.format(workers=2, out=out))
    assert run_cli(["benchmark", "--config", cfg]) == 0
    first = (out / "runs.csv").read_bytes()
    assert run_cli(["benchmark", "--config", cfg]) == 0
    assert (out / "runs.csv").read_bytes() == first


def test_cli_seed_override_changes_results(tmp_path):
    out = tmp_path / "seed"
    cfg = write_cfg(tmp_path / "s.cfg", BENCH_TEMPLATE.format(workers=1, out=out))
    assert run_cli(["benchmark", "--config", cfg]) == 0
    base = (out / "runs.csv").read_bytes()
    assert run_cli(["benchmark", "--config", cfg, "--seed", 99]) == 0
    assert (out / "runs.csv").read_bytes() != base


def test_cli_phase_outputs(tmp_path):
    out = tmp_path / "phase"
    cfg = write_cfg(tmp_path / "p.cfg", f"""
kind = phase
target = halfspace
alignment = v_in_u_perp
lambda1 = 0.5
kappa = 2.0
dims = 4, 8
N = 10
seed = 3
workers = 2
output_dir = {out}
""")
    assert run_cli(["phase", "--config", cfg]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "d,rep,n,op_error,lambda_max_hat,max_weight,q_hat"
    assert len(lines) == 1 + 2 * 10
    assert (out / "phase.svg").exists()


def test_cli_phase_multiple_kappas_split_files(tmp_path):
    out = tmp_path / "phase2"
    cfg = write_cfg(tmp_path / "p2.cfg", f"""
kind = phase
target = halfspace
alignment = v_in_u_perp
lambda1 = 0.5
kappa = 1.5, 2.5
dims = 4, 8
N = 10
seed = 3
workers = 1
output_dir = {out}
""")
    assert run_cli(["phase", "--config", cfg]) == 0
    assert (out / "sweep_1.csv").exists() and (out / "sweep_2.csv").exists()
    assert not (out / "sweep.csv").exists()


def test_cli_phase_maps_every_branch_at_once(tmp_path, monkeypatch):
    # Both kappa branches go through one map_cells call (one pool per
    # command); a cell failing in the second branch still leaves the first
    # branch complete and the second one's finished cells on disk.
    real_cell, real_map = cli.sweep_cell, cli.map_cells
    cells, maps = [], []

    def cell_fails(*args):
        cells.append(args)
        if len(cells) == 25:
            raise RuntimeError("cell failed")
        return real_cell(*args)

    def counted_map(*args):
        maps.append(args)
        return real_map(*args)

    monkeypatch.setattr(cli, "sweep_cell", cell_fails)
    monkeypatch.setattr(cli, "map_cells", counted_map)
    out = tmp_path / "partial"
    cfg = write_cfg(tmp_path / "p.cfg", PHASE_BASE + "lambda1 = 0.5\nkappa = 1.5, 2.5\nN = 10\n"
                                                     f"workers = 1\noutput_dir = {out}\n")
    with pytest.raises(RuntimeError, match="cell failed"):
        run_cli(["phase", "--config", cfg])
    assert len(maps) == 1
    first = (out / "sweep_1.csv").read_text().splitlines()[1:]
    second = (out / "sweep_2.csv").read_text().splitlines()[1:]
    assert len(first) == 20
    assert [row.split(",")[:2] for row in second] == [["4", str(rep)] for rep in range(4)]


def test_cli_gamma_outputs(tmp_path):
    out = tmp_path / "gamma"
    cfg = write_cfg(tmp_path / "g.cfg", GAMMA_TEMPLATE.format(workers=2, out=out))
    assert run_cli(["gamma", "--config", cfg]) == 0
    lines = (out / "gamma.csv").read_text().splitlines()
    assert lines[0] == "n,rep,max_weight"
    assert len(lines) == 1 + 4 * 10
    payload = json.loads((out / "gamma.json").read_text())
    assert payload["complete"] is True
    assert payload["predicted_gamma_star"] == 0.5
    assert abs(payload["slope"] - 0.5) < 0.15
    assert (out / "gamma.svg").exists()


def test_cli_gamma_writes_finished_cells_when_a_cell_fails(tmp_path, monkeypatch):
    # The 13th of 40 cells raises: the first grid point's 10 repetitions and
    # two of the second's are written, without a fit or a figure.
    real = cli.gamma_cell
    calls = []

    def cell_fails(*args):
        calls.append(args)
        if len(calls) == 13:
            raise RuntimeError("cell failed")
        return real(*args)

    monkeypatch.setattr(cli, "gamma_cell", cell_fails)
    out = tmp_path / "partial"
    cfg = write_cfg(tmp_path / "g.cfg", GAMMA_TEMPLATE.format(workers=1, out=out))
    with pytest.raises(RuntimeError, match="cell failed"):
        run_cli(["gamma", "--config", cfg])
    rows = [line.split(",")[:2] for line in (out / "gamma.csv").read_text().splitlines()[1:]]
    assert rows == ([[str(GAMMA_N_GRID[0]), str(rep)] for rep in range(10)]
                    + [[str(GAMMA_N_GRID[1]), str(rep)] for rep in range(2)])
    payload = json.loads((out / "gamma.json").read_text(), parse_constant=_reject_constant)
    assert payload["complete"] is False
    assert "slope" not in payload
    assert not (out / "gamma.svg").exists()


@pytest.mark.parametrize("cell_fails", [True, False], ids=["cell_and_write", "write_only"])
def test_cli_write_failure_does_not_mask_a_cell_failure(tmp_path, monkeypatch, capsys,
                                                        cell_fails):
    # With a cell failure the cell's exception propagates and the failed
    # partial write is only reported; a write failure alone exits 3.
    real = cli.gamma_cell
    calls = []

    def cell(*args):
        calls.append(args)
        if cell_fails and len(calls) == 13:
            raise RuntimeError("cell failed")
        return real(*args)

    def disk_full(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "gamma_cell", cell)
    monkeypatch.setattr(cli, "write_csv", disk_full)
    cfg = write_cfg(tmp_path / "g.cfg", GAMMA_TEMPLATE.format(workers=1, out=tmp_path / "g"))
    if cell_fails:
        with pytest.raises(RuntimeError, match="cell failed"):
            run_cli(["gamma", "--config", cfg])
        err = capsys.readouterr().err
        assert "disk full" in err and "i/o error" not in err
    else:
        assert run_cli(["gamma", "--config", cfg]) == 3
        assert "i/o error: disk full" in capsys.readouterr().err


def test_cli_gamma_fit_matches_library_estimate(tmp_path):
    out = tmp_path / "gamma"
    cfg = write_cfg(tmp_path / "g.cfg", GAMMA_TEMPLATE.format(workers=2, out=out))
    assert run_cli(["gamma", "--config", cfg]) == 0
    payload = json.loads((out / "gamma.json").read_text())
    groups = gamma_cells(LabGeometry("slab", "v_in_u", 0.5, alpha=1.0), GAMMA_N_GRID,
                         reps=10, seed=11)
    est = gamma_fit(GAMMA_N_GRID, [[gamma_cell(*cell) for cell in group] for group in groups],
                    seed=11)
    assert payload["slope"] == est.slope
    assert payload["intercept"] == est.intercept
    assert payload["band"] == list(est.band)


def test_cli_gamma_prediction_spike_off_the_slab(tmp_path):
    # The spike on e_2 is not bounded by the slab, so the widening slab's
    # alpha does not enter: gamma* = 1 - lambda1.
    out = tmp_path / "gamma_perp"
    text = GAMMA_TEMPLATE.format(workers=1, out=out).replace("v_in_u", "v_in_u_perp")
    cfg = write_cfg(tmp_path / "g.cfg", text.replace("alpha = 1.0", "alpha = 0.5"))
    assert run_cli(["gamma", "--config", cfg]) == 0
    payload = json.loads((out / "gamma.json").read_text())
    assert payload["predicted_gamma_star"] == 0.5
    assert abs(payload["slope"] - 0.5) < 0.15


def test_cli_table1_reduced_grid(tmp_path):
    out = tmp_path / "t1"
    cfg = write_cfg(tmp_path / "t.cfg", TABLE1_TEMPLATE.format(workers=4, out=out))
    assert run_cli(["table1", "--config", cfg]) == 0
    cells = json.loads((out / "summary.json").read_text())
    assert len(cells) == 18
    assert (out / "lin_ce" / "runs.csv").exists()
    assert (out / "fin_ice_proj_mean" / "traces.csv").exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path / "bad.cfg", "kind = benchmark\nwhat = 1\n")
    assert run_cli(["benchmark", "--config", bad]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert run_cli(["benchmark", "--config", tmp_path / "missing.cfg"]) == 2
    # Library-level rules are config errors too, raised before any output.
    # A NaN or infinite value must fail its range rule too, not the first cell.
    small = "dims = 4\nm = 50\nn = 50\nn_p = 20\nt_max = 2\nN = 1\nworkers = 1\n"
    for i, (kind, text) in enumerate((
        ("phase", PHASE_BASE + "lambda1 = 0.5\nkappa = 2.0\nN = 5\n"),
        ("gamma", GAMMA_BASE + "lambda1 = 0.5\nN = 3\n"),
        # No dimension moves a gamma cell, which draws its decisive
        # coordinates alone, so gamma does not read the key.
        ("gamma", GAMMA_BASE + "lambda1 = 0.5\ndims = 3\n"),
        ("benchmark", "kind = benchmark\ntarget = quad\nscheme = ce\ndims = 1\n"),
        ("table1", "kind = table1\ndims = 2\n"),
        ("phase", PHASE_BASE + "lambda1 = 0.5\nkappa = nan\nN = 10\nworkers = 1\n"),
        ("phase", PHASE_BASE + "lambda1 = 0.5\nkappa = inf\nN = 10\nworkers = 1\n"),
        # n = 50^200 overflows a float: refused with the ladder, not by a cell.
        ("phase", PHASE_BASE.replace("4, 8", "50, 400")
         + "lambda1 = 0.5\nkappa = 200\nN = 10\nworkers = 1\n"),
        # n = 50^20 is a float, but no cell that size would ever finish.
        ("phase", PHASE_BASE.replace("4, 8", "50, 100")
         + "lambda1 = 0.5\nkappa = 20\nN = 10\nworkers = 1\n"),
        ("benchmark", "kind = benchmark\ntarget = lin\nscheme = ce\nseed = 4294967296\n"
         + small),
        ("benchmark", "kind = benchmark\ntarget = lin\nscheme = ice\ndelta_target = nan\n"
         + small),
        ("benchmark", "kind = benchmark\ntarget = lin\nscheme = ice\ndelta_target = inf\n"
         + small),
        ("benchmark", "kind = benchmark\ntarget = lin\nscheme = ce\n"
         "divergence_lambda_cap = nan\n" + small),
        # A Latin-1 comment: the file is not UTF-8, so it cannot be read.
        ("benchmark", b"kind = benchmark\ntarget = lin\nscheme = ce\n# caf\xe9\n"
         + small.encode()),
    )):
        out = tmp_path / f"never_{i}"
        cfg = tmp_path / f"{i}.cfg"
        body = text if isinstance(text, bytes) else text.encode()
        cfg.write_bytes(body + f"output_dir = {out}\n".encode())
        assert run_cli([kind, "--config", cfg]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("kind,cell", [("benchmark", "run_scheme"), ("phase", "sweep_cell"),
                                       ("gamma", "gamma_cell"), ("table1", "run_scheme")])
def test_cli_unwritable_out_exits_3_before_any_cell(tmp_path, monkeypatch, kind, cell):
    calls = []
    monkeypatch.setattr(cli, cell, lambda *args: calls.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    # mkdir below a regular file raises NotADirectoryError.
    text = dict(TEMPLATES, table1=TABLE1_TEMPLATE)[kind]
    cfg = write_cfg(tmp_path / "io.cfg", text.format(workers=1, out=blocker / "out"))
    assert run_cli([kind, "--config", cfg]) == 3
    assert calls == []


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------- start-up


def fresh_python(code: str, *args) -> list[str]:
    """Run code in a new interpreter on this checkout's package; its
    standard output lines. The test runner has scipy loaded already."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


LAB_WITHOUT_SCIPY = """
import sys
from ce_spectra import cli
cli.benchmark_target("lin")
cli.benchmark_target("quad")
for kind, cfg in zip(("phase", "gamma"), sys.argv[1:]):
    assert cli.main([kind, "--config", cfg, "--workers", "1"]) == 0
    print(kind, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_lab_commands_never_import_scipy(tmp_path):
    # Importing scipy takes longer than a small lab command; only the scheme
    # kernels need it, so building targets, phase and gamma load none of it.
    cfgs = [write_cfg(tmp_path / f"{kind}.cfg",
                      TEMPLATES[kind].format(workers=1, out=tmp_path / kind))
            for kind in ("phase", "gamma")]
    assert fresh_python(LAB_WITHOUT_SCIPY, *cfgs) == ["phase []", "gamma []"]


SCHEME_POOL_IMPORTS = """
import sys
from ce_spectra import cli
real_map = cli.map_cells
loaded = []
def recording_map(*args):
    loaded.append([m for m in ("scipy.linalg", "scipy.special") if m in sys.modules])
    return real_map(*args)
cli.map_cells = recording_map
assert cli.main(["benchmark", "--config", sys.argv[1]]) == 0
print(loaded)
"""


def test_scheme_commands_import_scipy_before_the_pool(tmp_path):
    # Forked workers inherit the parent's scipy instead of importing their own.
    cfg = write_cfg(tmp_path / "b.cfg", BENCH_TEMPLATE.format(workers=2, out=tmp_path / "b"))
    assert fresh_python(SCHEME_POOL_IMPORTS, cfg) == ["[['scipy.linalg', 'scipy.special']]"]
