"""End-to-end acceptance gate: one test per shipped guarantee.

Each test is self-contained, uses frozen seeds, and asserts the stated
tolerance and runtime budget. Run with ``pytest -v tests/test_acceptance.py``
to get one pass/fail line per guarantee.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ce_spectra import cli, numerics
from ce_spectra.ce_schemes import SchemeConfig, optimize_bandwidth, run_scheme
from ce_spectra.estimators import quantile_threshold, weighted_mean_cov
from ce_spectra.gauss_core import (
    SpikedCovariance,
    WeightedSample,
    log_likelihood_ratio,
    proj_r,
)
from ce_spectra.phase_lab import (
    LabGeometry,
    gamma_cell,
    gamma_cells,
    gamma_fit,
    median_by_d,
    sweep_cell,
    sweep_cells,
)
from ce_spectra.seeding import map_cells
from ce_spectra.targets import benchmark_target, halfspace_target, slab_target

# Frozen with mpmath at 50 digits: 1 - Phi(5).
TAIL_5 = 2.8665157187919391167e-7

GAMMA_GRID = (1000, 10000, 100000, 1000000)


def _invariant_settings(fn):
    return settings(max_examples=100, deadline=None, derandomize=True)(fn)


def test_01_linear_tail_reference_probability():
    t = benchmark_target("lin")
    assert t.reference_p == pytest.approx(TAIL_5, rel=1e-12, abs=0)
    assert f"{t.reference_p:.1e}" == "2.9e-07"


def test_02_likelihood_ratio_matches_dense_ratio():
    start = time.time()
    rng = np.random.default_rng(42)
    d, r = 50, 3
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = SpikedCovariance(dim=d, lambdas=np.array([0.5, 2.0, 4.0]), directions=q[:r])
    x = rng.normal(size=(1000, d))

    dense = cov.dense()
    sign, logdet = np.linalg.slogdet(dense)
    assert sign > 0
    quad = np.einsum("ij,ij->i", x @ (np.linalg.inv(dense) - np.eye(d)), x)
    expected = 0.5 * logdet + 0.5 * quad

    got = log_likelihood_ratio(cov, x)
    assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected))
    assert time.time() - start < 1.0


def test_03_conditional_moments_match_monte_carlo():
    start = time.time()
    rng = np.random.default_rng(2026)
    d = 4
    for state, zero_mean in ((slab_target(d, 1.0), True), (halfspace_target(d, 0.0), False)):
        a = state.analytic
        u = a.sigma.directions[0]
        x = rng.normal(size=(1_000_000, d))
        hits = state(x) >= 0.0
        p_mc = float(np.mean(hits))
        along = x[hits] @ u
        mean_mc = float(np.mean(along))
        var_mc = float(np.var(along))

        assert abs(a.p - p_mc) <= 0.01 * p_mc
        if zero_mean:
            # mean is exactly 0 by symmetry; relative error is undefined there
            assert abs(float(a.mu @ u) - mean_mc) <= 0.01
        else:
            assert abs(float(a.mu @ u) - mean_mc) <= 0.01 * abs(mean_mc)
        assert abs(float(a.sigma.lambdas[0]) - var_mc) <= 0.01 * var_mc
    assert time.time() - start < 30.0


def _sweep_medians(lambda1, kappa, attr, seed=1):
    cells = sweep_cells(LabGeometry("halfspace", "v_in_u_perp", lambda1),
                        kappa, (20, 40, 80), reps=30, seed=seed)
    return median_by_d([sweep_cell(*cell) for cell in cells], attr)


def test_04_misaligned_spike_phase_transition():
    errors = _sweep_medians(0.5, 2.5, "op_error")
    assert errors[20] > errors[40] > errors[80], errors

    peaks = _sweep_medians(0.5, 1.2, "lambda_max_hat")
    assert peaks[20] < peaks[40] < peaks[80], peaks
    sigma_a = halfspace_target(80, 0.0).analytic.sigma
    bar = 2.0 * max(1.0, float(np.max(sigma_a.lambdas)))
    assert peaks[80] > bar, (peaks[80], bar)


def test_05_monte_carlo_error_decay():
    errors = _sweep_medians(1.0, 1.5, "op_error")
    assert errors[20] > errors[40] > errors[80], errors


def _gamma_estimate(geometry):
    groups = gamma_cells(geometry, GAMMA_GRID, reps=30, seed=1)
    return gamma_fit(GAMMA_GRID, [[gamma_cell(*cell) for cell in group] for group in groups],
                     seed=1)


def test_06_weight_growth_exponent():
    growing = LabGeometry("slab", "v_in_u", 0.5, alpha=1.0)
    est = _gamma_estimate(growing)
    assert abs(est.slope - 0.5) <= 0.1, est.slope
    assert est.band[0] <= est.slope <= est.band[1]

    # identical sampling and nominal laws on a fixed set: weights stay at 1
    flat = _gamma_estimate(LabGeometry("slab", "v_in_u", 1.0))
    assert abs(flat.slope) <= 0.05, flat.slope


def test_07_bandwidth_search_matches_brute_force():
    # The budget covers the searches only; the brute-force reference grid
    # below is the test's own cost, not the package's.
    searching = 0.0
    target_spread = 1.5
    for k in range(20):
        rng = np.random.default_rng(9000 + k)
        m = 1000
        scores = rng.normal(-2.0, 1.0, m)
        log_ratios = rng.normal(0.0, 0.3, m)
        ws = WeightedSample(np.zeros((m, 1)), log_ratios, scores)
        sigma_hi = 2.0 * float(np.max(np.abs(scores)))

        start = time.perf_counter()
        got = optimize_bandwidth(ws, sigma_hi, target_spread)
        searching += time.perf_counter() - start

        grid = np.exp(np.linspace(np.log(1e-6), np.log(sigma_hi), 10_000))
        log_w = log_ratios[None, :] + numerics.log_std_normal_cdf(scores[None, :] / grid[:, None])
        peak = np.max(log_w, axis=1, keepdims=True)
        a = np.exp(log_w - peak)
        spread = np.sqrt(m * np.sum(a * a, axis=1)) / np.sum(a, axis=1)
        brute = float(grid[int(np.argmin((spread - target_spread) ** 2))])

        assert abs(got - brute) <= 1e-3 * brute, (k, got, brute)
    assert searching < 2.0, searching


def test_08_benchmark_scheme_behavior():
    # The 120 runs are independent and keyed, so they go through map_cells
    # at one worker per core; gate 9 shows results do not depend on the
    # worker count.
    workers = os.cpu_count() or 1

    def runs(cfg, target, keys):
        return list(map_cells(run_scheme, [(cfg, target, key) for key in keys], workers))

    # (a) smoothed projected scheme estimates the linear tail accurately
    lin = benchmark_target("lin")
    cfg = SchemeConfig(scheme="ice_proj", strategy="mean", m=10_000, n=10_000,
                       n_p=2000)
    errs = [r.relative_error for r in runs(cfg, lin, [(1, "acc8a", rep) for rep in range(20)])]
    assert np.median(errs) <= 0.5, np.median(errs)

    # (b) the unprojected hard-threshold scheme diverges on the quadratic target
    quad = benchmark_target("quad")
    cfg = SchemeConfig(scheme="ce", strategy="none", m=5000, n=5000, n_p=2000)
    diverged = sum(r.diverged for r in runs(cfg, quad, [(1, "acc8b", rep) for rep in range(20)]))
    assert diverged > 10, diverged

    # (c) reduced-size spectral ordering: mean-based direction choices keep the
    # sampling floor higher, and the lower-floor runs blow up the next spectrum
    start = time.time()
    quad_small = benchmark_target("quad", d=100)

    def cell(scheme, strategy, tag):
        c = SchemeConfig(scheme=scheme, strategy=strategy, m=5000, n=5000,
                         n_p=1000, t_max=12)
        floor3, peak3 = [], []
        for r in runs(c, quad_small, [(1, "acc8c", tag, rep) for rep in range(20)]):
            if len(r.traces) > 3:
                floor3.append(r.traces[3].lambda_min_proj)
                peak3.append(r.traces[3].lambda_max_raw)
        assert len(floor3) >= 5, (tag, len(floor3))
        return float(np.median(floor3)), float(np.median(peak3))

    results = {(scheme, strategy): cell(scheme, strategy, f"{scheme}_{strategy}")
               for scheme in ("ce_proj", "ice_proj") for strategy in ("mean", "eig_min")}
    mean_floor = np.median([results[s, "mean"][0] for s in ("ce_proj", "ice_proj")])
    eig_floor = np.median([results[s, "eig_min"][0] for s in ("ce_proj", "ice_proj")])
    mean_peak = np.median([results[s, "mean"][1] for s in ("ce_proj", "ice_proj")])
    eig_peak = np.median([results[s, "eig_min"][1] for s in ("ce_proj", "ice_proj")])
    assert mean_floor > eig_floor, (mean_floor, eig_floor)
    assert eig_peak > mean_peak, (eig_peak, mean_peak)
    assert time.time() - start < 300.0


BENCH_CONFIG = """\
kind = benchmark
target = lin
scheme = ice_proj
strategy = mean
N = 2
m = 1500
n = 1500
n_p = 800
seed = 7
"""

GAMMA_CONFIG = """\
kind = gamma
target = slab
alignment = v_in_u
lambda1 = 0.5
alpha = 1.0
N = 10
seed = 3
"""

PHASE_CONFIG = """\
kind = phase
target = halfspace
alignment = v_in_u_perp
lambda1 = 0.5
kappa = 1.3
dims = 5, 8
N = 10
seed = 2
"""


def _run_cli(tmp_path, command, text, out_name, workers):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    out = tmp_path / out_name
    rc = cli.main([command, "--config", str(cfg),
                   "--workers", str(workers), "--out", str(out)])
    assert rc == 0
    return out


def test_09_worker_count_determinism(tmp_path):
    for command, text, files in (("benchmark", BENCH_CONFIG, ("runs.csv", "traces.csv")),
                                 ("gamma", GAMMA_CONFIG, ("gamma.csv",))):
        serial = _run_cli(tmp_path, command, text, f"{command}_w1", workers=1)
        pooled = _run_cli(tmp_path, command, text, f"{command}_w4", workers=4)
        again = _run_cli(tmp_path, command, text, f"{command}_w4b", workers=4)
        for f in files:
            ref = (serial / f).read_bytes()
            assert (pooled / f).read_bytes() == ref, (command, f)
            assert (again / f).read_bytes() == ref, (command, f)


def _orthonormal_rows(seed, d, r):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return rng, q[:r]


def _check_csv(path, header, int_cols, flag_cols):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header, (path, rows[0])
    assert len(rows) > 1, path
    for row in rows[1:]:
        assert len(row) == len(header)
        for i, cell in enumerate(row):
            if i in flag_cols:
                assert cell in ("0", "1"), (path, cell)
            elif i in int_cols:
                int(cell)
            else:
                float(cell)


def test_10_invariant_suite(tmp_path):
    @_invariant_settings
    @given(st.integers(0, 10**6), st.integers(2, 12))
    def projection_round_trip(seed, d):
        rng, v = _orthonormal_rows(seed, d, 1)
        spiked = SpikedCovariance(dim=d, lambdas=rng.uniform(0.2, 5.0, 1), directions=v)
        back = proj_r(spiked.dense(), v[0])
        assert np.allclose(back.dense(), spiked.dense(), atol=1e-10)

    @_invariant_settings
    @given(st.integers(0, 10**6), st.integers(2, 12))
    def identity_is_fixed_point(seed, d):
        _, v = _orthonormal_rows(seed, d, 1)
        back = proj_r(np.eye(d), v[0])
        assert np.allclose(back.dense(), np.eye(d), atol=1e-12)
        assert np.allclose(back.lambdas, 1.0)

    @_invariant_settings
    @given(st.integers(0, 10**6), st.integers(2, 12), st.integers(1, 4))
    def ratio_depends_on_projection_only(seed, d, r):
        assume(r < d)
        rng, v = _orthonormal_rows(seed, d, r)
        lambdas = np.sort(rng.uniform(0.2, 5.0, r))
        cov = SpikedCovariance(dim=d, lambdas=lambdas, directions=v)
        x = rng.normal(size=(8, d))
        projected = x @ (v.T @ v)
        assert np.allclose(log_likelihood_ratio(cov, x),
                           log_likelihood_ratio(cov, projected),
                           rtol=1e-10, atol=1e-10)

    @_invariant_settings
    @given(st.integers(0, 10**6), st.integers(5, 60), st.integers(1, 6))
    def weighted_moments_match_textbook(seed, m, d):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(m, d))
        log_ratios = rng.normal(0.0, 0.5, m)
        scores = rng.normal(0.0, 1.0, m)
        assume(bool(np.any(scores >= 0.0)))
        ws = WeightedSample(points, log_ratios, scores)
        res = weighted_mean_cov(ws, 0.0)

        w = np.exp(log_ratios) * (scores >= 0.0)
        mu = (w[:, None] * points).sum(0) / w.sum()
        centered = points - mu
        cov = (w[:, None, None] * np.einsum("ni,nj->nij", centered, centered)).sum(0) / w.sum()
        assert math.isclose(res.p_hat, float(np.mean(w)), rel_tol=1e-9)
        assert np.allclose(res.mu_hat, mu, rtol=1e-9, atol=1e-9)
        assert np.allclose(res.sigma_hat, cov, rtol=1e-9, atol=1e-9)

    @_invariant_settings
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
           st.floats(0.01, 0.99))
    def quantile_picks_clamped_order_statistic(values, rho):
        scores = np.array(values)
        k = max(int(math.floor((1.0 - rho) * scores.size)), 1)
        assert quantile_threshold(scores, rho) == float(np.sort(scores)[k - 1])

    projection_round_trip()
    identity_is_fixed_point()
    ratio_depends_on_projection_only()
    weighted_moments_match_textbook()
    quantile_picks_clamped_order_statistic()

    # every emitted table parses against its fixed schema
    bench = _run_cli(tmp_path, "benchmark", BENCH_CONFIG, "bench", workers=1)
    gamma = _run_cli(tmp_path, "gamma", GAMMA_CONFIG, "gamma", workers=1)
    phase = _run_cli(tmp_path, "phase", PHASE_CONFIG, "phase", workers=1)
    _check_csv(bench / "runs.csv",
               ["rep", "p_hat", "relative_error", "converged", "iterations"],
               int_cols={0, 4}, flag_cols={3})
    _check_csv(bench / "traces.csv",
               ["rep", "t", "q_or_sigma", "lambda_min_proj", "lambda_max_raw", "diverged"],
               int_cols={0, 1}, flag_cols={5})
    _check_csv(gamma / "gamma.csv", ["n", "rep", "max_weight"],
               int_cols={0, 1}, flag_cols=set())
    _check_csv(phase / "sweep.csv",
               ["d", "rep", "n", "op_error", "lambda_max_hat", "max_weight", "q_hat"],
               int_cols={0, 1, 2}, flag_cols=set())
    json.loads((bench / "summary.json").read_text())
