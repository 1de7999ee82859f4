"""The column-level comparator of tools/output_digests.py on small
hand-written output trees."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
