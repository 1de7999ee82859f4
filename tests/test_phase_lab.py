"""Phase-transition laboratory: alignment layouts, sweep cells, and the
weight-growth regression on problems with known exponents."""
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ce_spectra import cli, phase_lab
from ce_spectra.ce_schemes import IterationTrace, RunResult, SchemeConfig
from ce_spectra.gauss_core import GaussianLaw, sample
from ce_spectra.phase_lab import (
    LabGeometry,
    SweepRow,
    build_alignment,
    gamma_cell,
    gamma_cells,
    gamma_fit,
    median_by_d,
    prop_range_width,
    sample_size,
    sweep_cell,
    sweep_cells,
)
from ce_spectra.seeding import stream
from ce_spectra.targets import linear_target


HALFSPACE_PERP = LabGeometry("halfspace", "v_in_u_perp", 0.5)


def phase_cells(**kw) -> list[tuple]:
    """sweep_cells of one kappa branch: a halfspace with the spike orthogonal
    to it, kappa 2, d = 5 and 10, 10 repetitions, seed 0, unless kw says
    otherwise."""
    base = dict(geometry=HALFSPACE_PERP, kappa=2.0, dims=(5, 10), reps=10, seed=0)
    base.update(kw)
    return sweep_cells(**base)


def sweep_rows(cells: list[tuple]) -> list[SweepRow]:
    """The rows of one kappa branch of the phase command, in this process."""
    return [sweep_cell(*cell) for cell in cells]


def gamma_estimate(geometry: LabGeometry, n_grid, reps: int, seed: int):
    """The gamma command's fit of its cells over n_grid x reps, in this process."""
    groups = gamma_cells(geometry, n_grid, reps, seed)
    return gamma_fit(n_grid, [[gamma_cell(*cell) for cell in group] for group in groups],
                     seed=seed)


# ---------------------------------------------------------- build_alignment


def test_alignment_geometry():
    state, cov = build_alignment("halfspace", "v_in_u", 0.5, 6)
    assert state.name == "halfspace" and state.dim == 6
    assert cov.lambdas[0] == 0.5
    assert np.array_equal(cov.directions[0], np.eye(6)[0])
    _, cov_perp = build_alignment("halfspace", "v_in_u_perp", 0.5, 6)
    assert np.array_equal(cov_perp.directions[0], np.eye(6)[1])


def test_alignment_unit_lambda_is_monte_carlo():
    _, cov = build_alignment("slab", "v_in_u", 1.0, 4)
    x = sample(GaussianLaw.with_spiked(cov), stream(0, "pl", "mc").standard_normal((64, 4)))
    y = sample(GaussianLaw.identity(4), stream(0, "pl", "mc").standard_normal((64, 4)))
    assert np.array_equal(x, y)


def test_alignment_validation():
    with pytest.raises(ValueError):
        build_alignment("disk", "v_in_u", 0.5, 4)
    with pytest.raises(ValueError):
        build_alignment("slab", "diag", 0.5, 4)
    with pytest.raises(ValueError):
        build_alignment("slab", "v_in_u", 1.5, 4)
    with pytest.raises(ValueError):
        build_alignment("slab", "v_in_u", 0.5, 1)


def test_geometry_validation():
    with pytest.raises(ValueError, match="unknown target kind"):
        LabGeometry("disk", "v_in_u", 0.5)
    with pytest.raises(ValueError, match="unknown alignment"):
        LabGeometry("slab", "diag", 0.5)
    for lambda1 in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"lambda1 must lie in \(0, 1\]"):
            LabGeometry("slab", "v_in_u", lambda1)
    for alpha in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            LabGeometry("slab", "v_in_u", 0.5, alpha=alpha)
    # alpha widens the slab only; on a halfspace it is rejected, not ignored,
    # so neither pipeline can be built from such a geometry.
    for build in (
        lambda: LabGeometry("halfspace", "v_in_u_perp", 0.5, alpha=0.5),
        lambda: phase_cells(geometry=LabGeometry("halfspace", "v_in_u_perp", 0.5, alpha=0.5)),
        lambda: gamma_cells(LabGeometry("halfspace", "v_in_u", 0.5, alpha=0.5),
                            (100, 1000), reps=10),
    ):
        with pytest.raises(ValueError, match="alpha applies to the slab target only"):
            build()


def test_geometry_cell_matches_build_alignment():
    # With alpha, the cell of n samples is the slab of half-width
    # prop_range_width(alpha, lambda1, n); without, the default layout.
    for geometry, width in (
        (LabGeometry("slab", "v_in_u", 0.7, alpha=0.5), prop_range_width(0.5, 0.7, 1000)),
        (LabGeometry("slab", "v_in_u_perp", 0.7), None),
        (LabGeometry("halfspace", "v_in_u", 0.7), None),
    ):
        state, cov = geometry.at(5, 1000)
        want_state, want_cov = build_alignment(geometry.target, geometry.alignment,
                                               geometry.lambda1, 5, width=width)
        assert state.reference_p == want_state.reference_p
        assert np.array_equal(state.analytic.mu, want_state.analytic.mu)
        assert np.array_equal(state.analytic.sigma.dense(), want_state.analytic.sigma.dense())
        x = stream(0, "pl", "geo").standard_normal((64, 5))
        assert np.array_equal(state(x), want_state(x))
        assert np.array_equal(cov.lambdas, want_cov.lambdas)
        assert np.array_equal(cov.directions, want_cov.directions)


def test_sweep_cells_validation():
    with pytest.raises(ValueError, match="dims grid"):
        phase_cells(dims=(10, 5))  # not ascending
    with pytest.raises(ValueError, match="dims grid"):
        phase_cells(dims=(1, 5))
    # A ladder of one dimension has no trend to show.
    with pytest.raises(ValueError, match="dims grid"):
        phase_cells(dims=(6,))
    with pytest.raises(ValueError):
        phase_cells(reps=3)
    with pytest.raises(ValueError):
        phase_cells(kappa=0.0)
    # n = 50^200 is no float; refused here, not by the first cell.
    with pytest.raises(ValueError, match="overflows a float"):
        phase_cells(kappa=200.0, dims=(50, 400))
    # n = 50^20 is a float, but a cell that size would never finish.
    with pytest.raises(ValueError, match="past MAX_CELL_VALUES"):
        phase_cells(kappa=20.0, dims=(50, 100))
    # The largest ladders the lab is meant to run stay within the bound.
    for geometry, kappa, dims in ((LabGeometry("halfspace", "v_in_u_perp", 0.7), 2.0, (320, 640)),
                                  (HALFSPACE_PERP, 2.4, (160, 320))):
        assert len(phase_cells(geometry=geometry, kappa=kappa, dims=dims)) == 20
    # A float seed would otherwise run the streams of its integer part.
    with pytest.raises(ValueError, match="seed must be an integer"):
        phase_cells(seed=1.5)
    # A float dimension would likewise run at its integer part; a string is
    # no dimension.
    for dims in ((4.5, 8), ("4", "8")):
        with pytest.raises(ValueError, match="dims grid entries must be integers"):
            phase_cells(dims=dims)
    assert {cell[2] for cell in phase_cells(dims=np.array([4, 8]))} == {4, 8}
    # A seed is one stream key word; checked here, not at the first draw.
    for seed in (-1, 2 ** 32):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^32\)"):
            phase_cells(seed=seed)
    assert {cell[1] for cell in phase_cells(seed=2 ** 32 - 1)} == {2 ** 32 - 1}


# --------------------------------------------------------------- sweeps


def test_sample_size_is_ceil_power():
    assert sample_size(10, 2.0) == 100
    assert sample_size(10, 2.5) == math.ceil(10 ** 2.5)
    assert sample_size(3, 1.1) == math.ceil(3 ** 1.1)


def test_sweep_cell_fields_and_determinism():
    cell = (HALFSPACE_PERP, 0, 5, sample_size(5, 2.0), 3)
    row = sweep_cell(*cell)
    again = sweep_cell(*cell)
    assert row == again
    assert row.d == 5 and row.rep == 3 and row.n == 25
    assert row.op_error >= 0.0
    assert 0.0 <= row.q_hat <= 1.0
    assert row.max_weight >= 0.0


def test_sweep_cell_q_hat_matches_analytic():
    # Halfspace at 0 with an orthogonal spike: hits are a fair coin.
    row = sweep_cell(HALFSPACE_PERP, 0, 20, sample_size(20, 3.0), 0)
    state, cov = build_alignment("halfspace", "v_in_u_perp", 0.5, 20)
    want = state.analytic.q_of(cov)
    assert want == 0.5
    assert row.q_hat == pytest.approx(want, abs=4.0 * math.sqrt(0.25 / row.n))


def test_sweep_cells_shape():
    cells = phase_cells(reps=10, dims=(4, 8))
    assert [cell[2:] for cell in cells] == [(d, sample_size(d, 2.0), rep)
                                            for d in (4, 8) for rep in range(10)]
    rows = sweep_rows(cells)
    assert len(rows) == 20
    meds = median_by_d(rows, "op_error")
    assert set(meds) == {4, 8}
    assert meds[8] == np.median([row.op_error for row in rows[10:]])


def test_convergent_regime_error_shrinks_with_dimension():
    # kappa well above the critical exponent: the median error must drop
    # from d=5 to d=25.
    meds = median_by_d(sweep_rows(phase_cells(kappa=2.5, dims=(5, 25), reps=10)), "op_error")
    assert meds[25] < meds[5]


# ------------------------------------------------------------ row blocks


def test_consecutive_draw_blocks_are_one_draw():
    # What streaming rests on: row blocks of any sizes, drawn one after
    # another from one stream, are the bytes of one (n, d) draw.
    n, d = 1000, 7
    whole = stream(3, "pl", "blocks").standard_normal((n, d))
    for rows in (3, 7, 64, 333, 999):
        assert n % rows
        rng = stream(3, "pl", "blocks")
        parts = [rng.standard_normal((min(rows, n - s), d)) for s in range(0, n, rows)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


# Cells whose tiny blocks do not divide n: a halfspace with the spike
# orthogonal to it, and a slab widening with n, its spike on the slab's axis.
# (phase_cells arguments, d, BLOCK_VALUES)
TINY_BLOCK_CELLS = (
    ({}, 10, 70),
    (dict(geometry=LabGeometry("slab", "v_in_u", 0.7, alpha=0.5), kappa=2.5, dims=(6, 12)),
     6, 30),
    # Fewer values than d: one-row blocks.
    ({}, 10, 7),
)


@pytest.mark.parametrize("cfg, d, values", TINY_BLOCK_CELLS)
def test_tiny_blocks_keep_sweep_cell(monkeypatch, cfg, d, values):
    cells = [cell for cell in phase_cells(**cfg) if cell[2] == d]
    whole = [sweep_cell(*cell) for cell in cells]
    monkeypatch.setattr(phase_lab, "BLOCK_VALUES", values)
    n = cells[0][3]
    # Blocks of max(values // d, 1) rows, as _decisive_blocks cuts them: more
    # than one, and the last one short unless each is a single row.
    rows = max(values // d, 1)
    assert rows < n and (n % rows or rows == 1)
    blocked = [sweep_cell(*cell) for cell in cells]
    for one, many in zip(whole, blocked):
        # Exact over blocks: the sample size, the peak weight, the hit fraction.
        assert (one.n, one.max_weight, one.q_hat) == (many.n, many.max_weight, many.q_hat)
        # The estimate sums the same terms in another order.
        assert many.op_error == pytest.approx(one.op_error, rel=1e-12, abs=0)
        assert many.lambda_max_hat == pytest.approx(one.lambda_max_hat, rel=1e-12)
    assert len({row.max_weight for row in blocked}) > 1


def test_tiny_blocks_keep_gamma_cell(monkeypatch):
    geometry = LabGeometry("slab", "v_in_u_perp", 0.5, alpha=1.0)
    n_grid = (50, 302)
    cells = [(geometry, 7, i, n, rep) for i, n in enumerate(n_grid) for rep in range(4)]
    whole = [gamma_cell(*cell) for cell in cells]
    # 7 rows a block: a gamma block holds the decisive columns alone.
    monkeypatch.setattr(phase_lab, "BLOCK_VALUES", 7 * geometry.decisive_dim)
    assert all(n % (phase_lab.BLOCK_VALUES // geometry.decisive_dim) for n in n_grid)
    assert [gamma_cell(*cell) for cell in cells] == whole


def test_tiny_blocks_keep_kappa_prefix(monkeypatch):
    # The kappa branches of a phase run share the two streams of a (d, rep),
    # so the smaller batch's decisive rows are the first rows of the larger
    # one, and its hit rows' fill values the first fill values drawn for
    # the larger one, in blocks or not.
    geometry = LabGeometry("halfspace", "v_in_u_perp", 0.5)
    d, k = 8, geometry.decisive_dim
    small, large = sample_size(d, 1.2), sample_size(d, 1.6)
    assert (small, large) == (13, 28)

    def rows(n):
        blocks = list(phase_lab._phase_blocks(geometry, d, n, (1, "pl", "prefix")))
        decisive = np.concatenate([block.points for block, _ in blocks])
        fill = np.concatenate([hits.points[:, k:] for _, hits in blocks])
        return [block.size for block, _ in blocks], decisive, fill

    _, whole, whole_fill = rows(large)
    monkeypatch.setattr(phase_lab, "BLOCK_VALUES", 5 * d)
    sizes, small_rows, small_fill = rows(small)
    assert sizes == [5, 5, 3]
    _, large_rows, large_fill = rows(large)
    assert large_rows.tobytes() == whole.tobytes()
    assert large_fill.tobytes() == whole_fill.tobytes()
    assert small_rows.tobytes() == large_rows[:small].tobytes()
    assert 0 < len(small_fill) < len(large_fill)
    assert small_fill.tobytes() == large_fill[:len(small_fill)].tobytes()


class CountingGenerator:
    """A generator that adds the size of every normal draw to counts[key]."""

    def __init__(self, gen, counts, key):
        self._gen, self._counts, self._key = gen, counts, key

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self._counts[self._key] += out.size
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def count_draws(monkeypatch) -> Counter:
    """Normal values drawn per stream key by phase_lab from now on."""
    counts = Counter()
    monkeypatch.setattr(phase_lab, "stream",
                        lambda *key: CountingGenerator(stream(*key), counts, key))
    return counts


@pytest.mark.parametrize("geometry", [
    LabGeometry("slab", "v_in_u", 0.5, alpha=1.0),
    LabGeometry("halfspace", "v_in_u_perp", 0.5),
], ids=["slab-v_in_u", "halfspace-v_in_u_perp"])
def test_gamma_cell_draws_decisive_coordinates_only(monkeypatch, geometry):
    # The hit and the weight read k = 1 or 2 coordinates; a gamma cell draws
    # n k values.
    k, n = geometry.decisive_dim, 1000
    counts = count_draws(monkeypatch)
    gamma_cell(geometry, 7, 0, n, 1)
    assert counts == {(7, "gamma", 0, 1): n * k}


@pytest.mark.parametrize("geometry", [
    LabGeometry("slab", "v_in_u", 0.7),
    LabGeometry("halfspace", "v_in_u_perp", 0.5),
], ids=["slab-v_in_u", "halfspace-v_in_u_perp"])
def test_sweep_cell_draws_fill_for_hit_rows_only(monkeypatch, geometry):
    # n k decisive values from the cell's stream, then d - k fill values for
    # each of its H = q_hat n hit rows from the fill stream.
    k, d = geometry.decisive_dim, 40
    counts = count_draws(monkeypatch)
    row = sweep_cell(geometry, 0, d, sample_size(d, 1.6), 2)
    hits = round(row.q_hat * row.n)
    assert 0 < hits < row.n
    key = (0, "phase", geometry.target, geometry.alignment, d, 2)
    assert counts == {key: row.n * k, key + ("fill",): hits * (d - k)}
    assert sum(counts.values()) == row.n * k + hits * (d - k)


@pytest.mark.parametrize("geometry", [
    LabGeometry(target, alignment, 0.8)
    for target in ("halfspace", "slab") for alignment in phase_lab.ALIGNMENTS
], ids=lambda g: f"{g.target}-{g.alignment}")
def test_cell_estimate_is_unbiased(geometry):
    # Sigma-hat_A is unbiased at any n. Averaged over many repetitions of a
    # tiny cell, every entry lies within 4 standard errors of the analytic
    # Sigma_A: the decisive block, the fill diagonal (1), the fill
    # off-diagonal and the cross terms (0). lambda1 = 0.8 keeps the
    # estimate's variance finite.
    d, reps = 4, 2000
    n = sample_size(d, 2.0)
    state = geometry.at(d, n)[0]
    want = state.analytic.sigma.dense()
    assert np.array_equal(want[2:, 2:], np.eye(d - 2)) and not want[2:, :2].any()
    estimates = np.array([phase_lab._cell_estimate(geometry, 0, d, n, rep, state)[0]
                          for rep in range(reps)])
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(se > 0.0)
    assert np.all(np.abs(mean - want) <= 4.0 * se), (mean - want) / se


def test_sweep_cell_memory_is_bounded():
    # d = 100, kappa = 2.8: n = 398 108 rows, 320 MB per (n, d) array if the
    # batch were drawn whole. Streamed, the cell stays near the interpreter's
    # own footprint.
    measure = (
        "import resource\n"
        "from ce_spectra.phase_lab import LabGeometry, sample_size, sweep_cell\n"
        "row = sweep_cell(LabGeometry('halfspace', 'v_in_u_perp', 0.5), 0, 100,\n"
        "                 sample_size(100, 2.8), 0)\n"
        "print(row.n, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    # A spawned process's ru_maxrss starts at its spawner's high-water mark
    # (vfork shares the spawner's memory until exec), so the measured
    # interpreter is started by a bare one rather than by the test runner.
    launch = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", launch, measure], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    n, peak_kb = (int(v) for v in proc.stdout.split())
    assert n == 398_108
    assert peak_kb < 200 * 1024


# ---------------------------------------------------------------- gamma


def test_gamma_cell_deterministic_given_key():
    geometry = LabGeometry("slab", "v_in_u", 0.5)
    a = gamma_cell(geometry, 7, 0, 500, 1)
    b = gamma_cell(geometry, 7, 0, 500, 1)
    c = gamma_cell(geometry, 7, 1, 500, 1)
    assert a == b and a != c
    assert math.isfinite(a)


def test_gamma_fit_recovers_planted_slope():
    # Synthetic data with a known slope and no noise.
    n_grid = (100, 1000, 10000)
    log_max = [[0.3 * math.log(n)] * 10 for n in n_grid]
    est = gamma_fit(n_grid, log_max)
    assert est.slope == pytest.approx(0.3, abs=1e-12)
    assert est.band[0] == pytest.approx(0.3, abs=1e-9)
    assert est.dropped == ()


def test_gamma_fit_drops_empty_grid_points():
    n_grid = (100, 1000, 10000)
    log_max = [[0.5] * 10, [-math.inf] + [0.5] * 9, [1.0] * 10]
    with pytest.warns(UserWarning):
        est = gamma_fit(n_grid, log_max)
    assert est.dropped == (1000,)
    assert est.n_grid == (100, 10000)


def test_gamma_fit_too_few_points():
    with pytest.warns(UserWarning), pytest.raises(ValueError):
        gamma_fit((10, 100), [[-math.inf] * 10, [0.0] * 10])


@pytest.mark.parametrize("n_grid,log_max", [
    ((), []),
    ((10, 100), [[], []]),
    ((10, 100, 1000), [[0.0] * 10, [0.5] * 10, [1.0] * 9]),
    ((10, 100), [[0.0] * 10]),
], ids=["empty_grid", "no_repetitions", "ragged", "one_list_short"])
def test_gamma_fit_rejects_unequal_or_empty_repetitions(n_grid, log_max):
    # The bootstrap resamples every grid point at one repetition count.
    with pytest.raises(ValueError, match="one repetition list per grid point"):
        gamma_fit(n_grid, log_max)


def test_gamma_fit_monte_carlo_is_flat():
    # lambda1 = 1: weights are constant one, so the exponent is zero.
    est = gamma_estimate(LabGeometry("slab", "v_in_u", 1.0), (100, 1000, 10000),
                         reps=10, seed=0)
    assert est.slope == pytest.approx(0.0, abs=1e-12)


def test_gamma_fit_slab_growth():
    # Slab with a width that scales with n: gamma* = alpha (1 - lambda1).
    geometry = LabGeometry("slab", "v_in_u", 0.5, alpha=1.0)
    est = gamma_estimate(geometry, (1000, 10000, 100000, 1000000), reps=30, seed=2)
    assert est.slope == pytest.approx(0.5, abs=0.1)
    assert est.band[0] < est.slope < est.band[1]


def test_predicted_gamma_star_branches():
    # Slab with the spike on its direction: the weight sees only the bounded
    # coordinate, so only a widening slab (alpha) lets it grow.
    def predicted(*args):
        return LabGeometry(*args).predicted_gamma_star()

    assert predicted("slab", "v_in_u", 0.5, 0.5) == 0.25
    assert predicted("slab", "v_in_u", 0.5, None) == 0.0
    # Otherwise the unbounded spike coordinate gives 1 - lambda1.
    assert predicted("slab", "v_in_u_perp", 0.5, 0.5) == 0.5
    assert predicted("slab", "v_in_u_perp", 0.25, None) == 0.75
    assert predicted("halfspace", "v_in_u", 0.5, None) == 0.5
    assert predicted("halfspace", "v_in_u_perp", 0.5, None) == 0.5
    # Plain Monte Carlo.
    for target, alignment, alpha in (("slab", "v_in_u", 1.0), ("slab", "v_in_u_perp", None),
                                     ("halfspace", "v_in_u", None)):
        assert predicted(target, alignment, 1.0, alpha) == 0.0


def test_gamma_cells_validation():
    geometry = LabGeometry("slab", "v_in_u", 0.5)
    with pytest.raises(ValueError):
        gamma_cells(geometry, (100,), reps=10)
    with pytest.raises(ValueError):
        gamma_cells(geometry, (100, 100), reps=10)
    with pytest.raises(ValueError):
        gamma_cells(geometry, (100, 1000), reps=5)
    # Checked when the cells are listed, before any draw: the widening slab
    # needs n >= 2.
    with pytest.raises(ValueError, match="n >= 2"):
        gamma_cells(geometry, (1, 1000), reps=10)
    with pytest.raises(ValueError, match="seed must be an integer"):
        gamma_cells(geometry, (100, 1000), 10, seed=2.7)
    # A float or string sample size is refused, not truncated.
    for n_grid in ((1000.9, 10000), ("1000", "10000")):
        with pytest.raises(ValueError, match="n_grid entries must be integers"):
            gamma_cells(geometry, n_grid, reps=10)


def test_gamma_cells_reject_seed_outside_key_range():
    geometry = LabGeometry("slab", "v_in_u", 0.5)
    for seed in (-1, 2 ** 32):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^32\)"):
            gamma_cells(geometry, (100, 1000), 10, seed)
    assert [len(group) for group in gamma_cells(geometry, (100, 1000), 10, 2 ** 32 - 1)] == [10, 10]



# ------------------------------------------------------- kappa diagnostic
# The CE side of the phase transition: summary.json's kappa_diagnostic holds
# the quartiles over runs of 1 / min_t lambda_min of the sampling laws, taken
# over a run's non-diverged iterations with a finite floor. A run without
# one, or with a floor <= 0, is left out.


def floor_run(*floors: tuple[float, bool]) -> RunResult:
    """A run whose iterations have the given (lambda_min_proj, diverged)."""
    traces = tuple(IterationTrace(q_or_sigma=-1.0, p_hat_t=0.1, lambda_min_proj=lam,
                                  lambda_max_raw=2.0, diverged=diverged, n_hits=5)
                   for lam, diverged in floors)
    return RunResult(p_hat=1e-6, traces=traces, converged=False)


def kappa_diagnostic(out: Path, results: list[RunResult]) -> dict:
    out.mkdir()
    cli._write_benchmark_outputs(out, results, SchemeConfig(scheme="ce"), linear_target(3))

    def reject_constant(name):
        raise ValueError(f"{name} is not strict JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    return summary["kappa_diagnostic"]


def test_kappa_report_uses_min_eigenvalue(tmp_path):
    run = floor_run((1.0, False), (0.25, False), (0.5, False))
    assert kappa_diagnostic(tmp_path / "one", [run]) == {"q25": 4.0, "median": 4.0, "q75": 4.0}
    runs = [run, floor_run((1.0, False)), floor_run((0.5, False), (math.nan, False))]
    assert kappa_diagnostic(tmp_path / "three", runs) == {"q25": 1.5, "median": 2.0, "q75": 3.0}


def test_kappa_report_skips_diverged(tmp_path):
    ignored = floor_run((1.0, False), (1e-9, True))
    assert kappa_diagnostic(tmp_path / "ignored", [ignored]) == {
        "q25": 1.0, "median": 1.0, "q75": 1.0}
    left_out = {"all_diverged": floor_run((1.0, True)),
                "no_iterations": floor_run(),
                "negative_floor": floor_run((-0.5, False))}
    usable = [floor_run((1.0, False), (0.25, False), (0.5, False)), ignored,
              floor_run((0.5, False), (math.nan, False))]
    assert kappa_diagnostic(tmp_path / "mixed", usable + list(left_out.values())) == {
        "q25": 1.5, "median": 2.0, "q75": 3.0}
    for name, run in left_out.items():
        assert kappa_diagnostic(tmp_path / name, [run]) == {
            "q25": None, "median": None, "q75": None}, name
