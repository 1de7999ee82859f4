"""Configuration parsing and the command line runners, end to end on
small workloads. Worker-count independence is asserted byte for byte."""
import json
import math
from pathlib import Path

import pytest

from ce_spectra import cli
from ce_spectra.cli import main
from ce_spectra.config import GAMMA_N_GRID, ConfigError, benchmark_sizes, load_config
from ce_spectra.phase_lab import (
    SweepConfig,
    build_alignment,
    estimate_gamma_star,
    phase_sweep,
    widened_alignment,
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
])
def test_parse_rejects_malformed_lines(tmp_path, line, fragment):
    cfg_path = write_cfg(tmp_path / "bad.cfg", line + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg_path)
    assert fragment in str(err.value)


def test_validation_per_kind(tmp_path):
    with pytest.raises(ConfigError, match="requires keys"):
        load_config(write_cfg(tmp_path / "a.cfg", "kind = benchmark\n"))
    for key in ("target = lin", "scheme = ce", "strategy = mean"):
        with pytest.raises(ConfigError, match="fixes its own"):
            load_config(write_cfg(tmp_path / "b.cfg", f"kind = table1\n{key}\n"))
    with pytest.raises(ConfigError, match="dims grid"):
        load_config(write_cfg(
            tmp_path / "c.cfg",
            "kind = phase\ntarget = slab\nalignment = v_in_u\n"
            "lambda1 = 0.5\nkappa = 2.0\ndims = 10\n"))
    with pytest.raises(ConfigError, match="strategy"):
        load_config(write_cfg(
            tmp_path / "d.cfg",
            "kind = benchmark\ntarget = lin\nscheme = ce_proj\n"))

    # Range and membership rules come from the library objects that
    # load_config builds, re-raised as ConfigError.
    phase = PHASE_BASE + "lambda1 = 0.5\n"
    gamma = GAMMA_BASE + "lambda1 = 0.5\n"
    for text, fragment in (
        (phase + "kappa = 2.0\nN = 5\n", "at least 10 repetitions"),
        (phase + "kappa = 1.0, 0.0\n", "kappa must be positive"),
        (phase.replace("halfspace", "lin") + "kappa = 2.0\n", "unknown target kind"),
        (gamma + "N = 3\n", "at least 10 repetitions"),
        (gamma + "alpha = 2.0\n", "alpha must lie"),
        (GAMMA_BASE + "lambda1 = 1.5\n", "lambda1 must lie"),
        ("kind = benchmark\ntarget = quad\nscheme = ce\ndims = 1\n", "needs d >= 2"),
        ("kind = benchmark\ntarget = fin\nscheme = ce\ndims = 2\n", "needs d >= 3"),
        ("kind = benchmark\ntarget = slab\nscheme = ce\n", "unknown benchmark target"),
        ("kind = benchmark\ntarget = lin\nscheme = ce\nm = 1\n", "m must be at least 2"),
        ("kind = table1\ndims = 2\n", "needs d >= 3"),
    ):
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_cfg(tmp_path / "lib.cfg", text))


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
    assert cfg.seed == 9 and cfg.workers == 2
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


def test_cli_phase_rows_match_library_sweep(tmp_path):
    out = tmp_path / "phase"
    cfg = write_cfg(tmp_path / "p.cfg", PHASE_TEMPLATE.format(workers=2, out=out))
    assert run_cli(["phase", "--config", cfg]) == 0
    lines = (out / "sweep_1.csv").read_text().splitlines()[1:]
    got = [tuple(float(v) for v in line.split(",")) for line in lines]
    res = phase_sweep(SweepConfig(target="halfspace", alignment="v_in_u_perp", lambda1=0.5,
                                  kappa=1.5, dims=(4, 8), reps=10, seed=3))
    want = [(r.d, r.rep, r.n, r.op_error, r.lambda_max_hat, r.max_weight, r.q_hat)
            for r in res.rows]
    assert got == want


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("failing_call", [3, 1], ids=["third_cell", "first_cell"])
def test_cli_flushes_finished_cells_when_a_cell_fails(tmp_path, monkeypatch, failing_call):
    real = cli.run_scheme
    calls = []

    def cell_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == failing_call:
            raise RuntimeError("cell failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scheme", cell_fails)
    out = tmp_path / "partial"
    cfg = write_cfg(tmp_path / "f.cfg",
                    BENCH_TEMPLATE.format(workers=1, out=out).replace("N = 2", "N = 4"))
    with pytest.raises(RuntimeError, match="cell failed"):
        run_cli(["benchmark", "--config", cfg])
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


def test_cli_gamma_fit_matches_library_estimate(tmp_path):
    out = tmp_path / "gamma"
    cfg = write_cfg(tmp_path / "g.cfg", GAMMA_TEMPLATE.format(workers=2, out=out))
    assert run_cli(["gamma", "--config", cfg]) == 0
    payload = json.loads((out / "gamma.json").read_text())
    _, cov = build_alignment("slab", "v_in_u", 0.5, 2)
    est = estimate_gamma_star(
        lambda n: widened_alignment("slab", "v_in_u", 0.5, 2, n, 1.0)[0],
        cov, GAMMA_N_GRID, reps=10, seed=11)
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
    cfg = write_cfg(tmp_path / "t.cfg", f"""
kind = table1
N = 1
dims = 12
m = 400
n = 400
n_p = 200
t_max = 6
seed = 5
workers = 4
output_dir = {out}
""")
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
    io_cfg = write_cfg(tmp_path / "io.cfg", """
kind = gamma
target = slab
alignment = v_in_u
lambda1 = 0.5
N = 10
output_dir = /proc/definitely/not/writable
""")
    assert run_cli(["gamma", "--config", io_cfg]) == 3
    # Library-level rules are config errors too, raised before any output.
    for kind, text in (
        ("phase", PHASE_BASE + "lambda1 = 0.5\nkappa = 2.0\nN = 5\n"),
        ("gamma", GAMMA_BASE + "lambda1 = 0.5\nN = 3\n"),
        ("benchmark", "kind = benchmark\ntarget = quad\nscheme = ce\ndims = 1\n"),
        ("table1", "kind = table1\ndims = 2\n"),
    ):
        out = tmp_path / f"never_{kind}"
        cfg = write_cfg(tmp_path / f"{kind}.cfg", text + f"output_dir = {out}\n")
        assert run_cli([kind, "--config", cfg]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
