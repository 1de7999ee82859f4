"""tools/output_digests.py: its frozen configs load, its digest mode
enforces its own rules, and its column-level comparator works on small
hand-written output trees."""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from ce_spectra.config import load_config

ROOT = Path(__file__).resolve().parents[1]


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tool():
    return load_module("output_digests", ROOT / "tools" / "output_digests.py")


def test_frozen_configs_load(tmp_path):
    # Every config the tool runs passes load_config, which builds its cell
    # groups; no cell runs here.
    tool = load_tool()
    bench = tool.load_bench_run()
    configs = tool.frozen_configs(bench)
    assert len(configs) == len(bench.WORKLOADS) + 1 + len(tool.LAB_BRANCHES)
    for name, (kind, keys) in configs.items():
        path = tmp_path / f"{name}.cfg"
        bench.write_config(path, kind, keys, 1)
        assert load_config(path, expected_kind=kind).groups, name


def test_table1_reduced_mirrors_the_cli_test():
    template = load_module("cli_tests", ROOT / "tests" / "test_cli.py").TABLE1_TEMPLATE
    keys = dict(line.split(" = ") for line in template.strip().splitlines())
    for key in ("kind", "seed", "workers", "output_dir"):
        del keys[key]
    assert keys == {k: str(v) for k, v in load_tool().TABLE1_REDUCED.items()}


def fake_cli(text_for_workers):
    """A stand-in for subprocess.run that writes one runs.csv per CLI run,
    its text a function of the worker count, and records every call."""
    calls = []

    def run(argv, **kwargs):
        calls.append(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "runs.csv").write_text(text_for_workers(argv[argv.index("--workers") + 1]))
        return SimpleNamespace(returncode=0, stderr="")

    return run, calls


@pytest.mark.parametrize("split", [False, True], ids=["twins_agree", "twins_differ"])
def test_digest_mode_fails_when_worker_counts_disagree(tmp_path, monkeypatch, capsys, split):
    tool = load_tool()
    run, calls = fake_cli(lambda workers: RUNS + (f"w{workers}\n" if split else ""))
    monkeypatch.setattr(tool, "subprocess", SimpleNamespace(run=run))
    assert tool.main([str(tmp_path / "out"), "1"]) == (1 if split else 0)
    names = tool.frozen_configs(tool.load_bench_run())
    assert len(calls) == len(names) * len(tool.WORKERS)
    captured = capsys.readouterr()
    listing = captured.out.splitlines()
    assert [line.split("  ")[1] for line in listing] == sorted(
        f"{name}/s1/w{workers}/runs.csv" for name in names for workers in tool.WORKERS)
    flagged = [line for line in captured.err.splitlines() if "w1 differs from w2" in line]
    assert len(flagged) == (len(names) if split else 0)
    assert all(line.endswith("/s1/w1/runs.csv") for line in flagged)


def test_digest_mode_refuses_an_existing_out_dir(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    run, calls = fake_cli(lambda workers: RUNS)
    monkeypatch.setattr(tool, "subprocess", SimpleNamespace(run=run))
    out = tmp_path / "out"
    out.mkdir()
    assert tool.main([str(out)]) == 2
    assert "exists already" in capsys.readouterr().err
    assert calls == [] and list(out.iterdir()) == []


RUNS = "rep,p_hat,converged,iterations\n0,1.5e-06,1,4\n1,2.5e-06,0,7\n"


def write_tree(out: Path, runs: str, w2_runs: str | None = None) -> Path:
    for workers, text in (("w1", runs), ("w2", runs if w2_runs is None else w2_runs)):
        cell = out / "runs" / "proj_lin" / "s1" / workers
        cell.mkdir(parents=True)
        (cell / "runs.csv").write_text(text)
        (cell / "summary.json").write_text("{}\n")
    return out


def test_compare_reports_float_changes_and_passes(tmp_path, capsys):
    tool = load_tool()
    old = write_tree(tmp_path / "old", RUNS)
    new = write_tree(tmp_path / "new", RUNS.replace("2.5e-06", "2.5000000000001e-06"))
    assert tool.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "changed  proj_lin/s1/w1/runs.csv" in out
    assert "2 of 4 common files changed" in out
    line = next(x for x in out.splitlines() if x.startswith("max_rel") and "p_hat" in x)
    assert 3e-14 < float(line.split()[-1]) < 5e-14


def test_compare_identical_trees(tmp_path, capsys):
    tool = load_tool()
    assert tool.compare(write_tree(tmp_path / "a", RUNS), write_tree(tmp_path / "b", RUNS)) == 0
    assert "0 of 4 common files changed" in capsys.readouterr().out


def test_compare_fails_on_flag_rows_or_workers(tmp_path):
    tool = load_tool()
    old = write_tree(tmp_path / "old", RUNS)
    bad = {
        "flag": RUNS.replace("0,1.5e-06,1,4", "0,1.5e-06,0,4"),
        "iterations": RUNS.replace("1,2.5e-06,0,7", "1,2.5e-06,0,8"),
        "rows": RUNS + "2,3.5e-06,1,4\n",
        "header": RUNS.replace("p_hat", "q_hat"),
        "empty": "",
        "ragged": RUNS.replace("1,2.5e-06,0,7", "1,2.5e-06,0"),
        "to_nan": RUNS.replace("2.5e-06", "nan"),
        "to_inf": RUNS.replace("2.5e-06", "inf"),
    }
    for name, text in bad.items():
        assert tool.compare(old, write_tree(tmp_path / name, text)) == 1, name
    # A non-finite value that turns into a number; an unchanged NaN passes.
    nan_old = write_tree(tmp_path / "nan_old", bad["to_nan"])
    assert tool.compare(nan_old, write_tree(tmp_path / "nan_new", RUNS)) == 1
    assert tool.compare(nan_old, write_tree(tmp_path / "nan_same", bad["to_nan"])) == 0
    # A 1-worker file that differs from its 2-worker twin.
    split = write_tree(tmp_path / "split", RUNS, RUNS.replace("1.5e-06", "1.6e-06"))
    assert tool.compare(old, split) == 1
    # Not an output directory of the tool.
    assert tool.compare(old, tmp_path / "missing") == 2
    # A file present on one side only.
    for workers in ("w1", "w2"):
        (old / "runs" / "proj_lin" / "s1" / workers / "extra.csv").write_text(RUNS)
    assert tool.compare(old, write_tree(tmp_path / "same", RUNS)) == 1
