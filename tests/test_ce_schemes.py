"""Adaptive scheme drivers: the noise-free halfspace template, the
bandwidth tuner against brute force, and full runs on small problems."""
import json
import math
import tracemalloc
from dataclasses import astuple, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_spectra import ce_schemes, cli
from ce_spectra.ce_schemes import (
    BANDWIDTH_FLOOR,
    IterationTrace,
    SchemeConfig,
    bandwidth_objective,
    iterate,
    optimize_bandwidth,
    run_scheme,
    select_direction,
)
from ce_spectra.estimators import EstimationResult
from ce_spectra.gauss_core import CollapsedEstimateError, GaussianLaw, WeightedSample
from ce_spectra.seeding import stream
from ce_spectra.targets import LimitState, halfspace_target, linear_target
from ce_spectra.numerics import (
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    sym_eigen_extremes,
)

Z90 = 1.281551565544600467
PHI_MINUS_2 = 0.0227501319481792072


def always_true_target(d: int = 3) -> LimitState:
    return LimitState(name="sure", dim=d,
                      evaluator=lambda x: np.ones(x.shape[0]), reference_p=1.0)


def cfg_for(scheme: str, strategy: str = "none", **kw) -> SchemeConfig:
    base = dict(scheme=scheme, strategy=strategy, m=2000, n=2000, n_p=1000)
    base.update(kw)
    return SchemeConfig(**base)


# ------------------------------------------------------------ SchemeConfig


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_for("nope")
    with pytest.raises(ValueError):
        cfg_for("ce", strategy="mean")  # strategy only with projection
    with pytest.raises(ValueError):
        cfg_for("ce_proj", strategy="none")
    with pytest.raises(ValueError):
        cfg_for("ce", rho=0.0)
    for delta_target in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"delta_target must lie in \[1, inf\)"):
            cfg_for("ice", delta_target=delta_target)
    with pytest.raises(ValueError):
        cfg_for("ce", m=0)
    assert cfg_for("ice_proj", strategy="eig_min").projected
    assert cfg_for("ice").smoothed and not cfg_for("ce").smoothed


# -------------------------------------------------------- select_direction


def test_select_direction_eig_min():
    sigma = np.diag([4.0, 0.25, 1.0])
    v = select_direction(sym_eigen_extremes(sigma), np.zeros(3), "eig_min")
    assert np.allclose(np.abs(v), [0.0, 1.0, 0.0], atol=1e-12)


def test_select_direction_mean():
    mu = np.array([3.0, 0.0, 4.0])
    extremes = sym_eigen_extremes(np.eye(3))
    v = select_direction(extremes, mu, "mean")
    assert np.allclose(v, mu / 5.0)
    with pytest.raises(CollapsedEstimateError):
        select_direction(extremes, np.zeros(3), "mean")
    with pytest.raises(ValueError):
        select_direction(extremes, mu, "median")


# --------------------------------------------- deterministic halfspace path


@dataclass(frozen=True)
class HalfspacePath:
    """Noise-free level recursion for a halfspace target.

    For phi(x) = <u, x> - K and sampling laws N(m_t u, I + (s_t - 1) u u^T),
    every stage is Gaussian in the score, so the level threshold and the
    conditional moments of f are closed form:

        q_t     = m_t - K + sqrt(s_t) z_rho
        c_t     = K + min(q_t, 0)
        m_{t+1} = h(c_t),  s_{t+1} = 1 - h(c_t)(h(c_t) - c_t)

    with h the standard normal hazard. Serves as the exact template the
    stochastic scheme is checked against.
    """

    thresholds: tuple[float, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.thresholds)


def deterministic_halfspace_path(offset: float, rho: float, t_max: int = 100) -> HalfspacePath:
    z_rho = float(std_normal_quantile(1.0 - rho))
    m, s = 0.0, 1.0
    thresholds: list[float] = []
    means = [m]
    variances = [s]
    converged = False
    for _ in range(t_max):
        q = m - offset + math.sqrt(s) * z_rho
        thresholds.append(q)
        if q >= 0.0:
            converged = True
            break
        c = offset + q  # q < 0 here, so this is K + min(q, 0)
        tail = float(std_normal_cdf(-c))
        hazard = float(std_normal_pdf(c)) / tail
        m = hazard
        s = 1.0 - hazard * (hazard - c)
        means.append(m)
        variances.append(s)
    return HalfspacePath(thresholds=tuple(thresholds), means=tuple(means),
                         variances=tuple(variances), converged=converged)


def test_halfspace_path_structure():
    path = deterministic_halfspace_path(3.0, 0.1)
    assert path.converged
    q = np.array(path.thresholds)
    assert np.all(np.diff(q) > 0.0)  # levels only move up
    assert q[0] == pytest.approx(-3.0 + Z90, rel=1e-12)
    assert q[-1] >= 0.0
    assert np.all(np.array(path.variances) <= 1.0 + 1e-12)
    assert np.all(np.array(path.variances) > 0.0)
    assert np.all(np.diff(path.means) > 0.0)


def test_halfspace_path_first_update_moments():
    # After one step the law is the conditional on <u, x> >= c_0.
    path = deterministic_halfspace_path(3.0, 0.1)
    c0 = 3.0 + path.thresholds[0]
    tail = float(std_normal_cdf(-c0))
    h = math.exp(-0.5 * c0 * c0) / math.sqrt(2.0 * math.pi) / tail
    assert path.means[1] == pytest.approx(h, rel=1e-12)
    assert path.variances[1] == pytest.approx(1.0 - h * (h - c0), rel=1e-12, abs=0)


def test_halfspace_path_trivial_offset_converges_immediately():
    path = deterministic_halfspace_path(0.5, 0.1)
    assert path.converged
    assert path.thresholds[0] == pytest.approx(-0.5 + Z90, rel=1e-12, abs=0)
    assert path.iterations == 1


@given(st.floats(min_value=0.5, max_value=6.0),
       st.floats(min_value=0.05, max_value=0.5))
@settings(max_examples=100)
def test_halfspace_path_always_converges(offset, rho):
    path = deterministic_halfspace_path(offset, rho, t_max=200)
    assert path.converged
    assert path.thresholds[-1] >= 0.0


# ------------------------------------------- stochastic versus deterministic


def test_ce_tracks_deterministic_template():
    offset, rho, d = 3.0, 0.1, 4
    path = deterministic_halfspace_path(offset, rho)
    cfg = cfg_for("ce", m=50000, n=50000, rho=rho)
    target = halfspace_target(d, offset)
    res = run_scheme(cfg, target, (17, "track"))
    assert res.converged and not res.diverged
    assert res.iterations_used == path.iterations
    for trace, q_want in zip(res.traces, path.thresholds):
        q_used = min(q_want, 0.0)
        assert trace.q_or_sigma == pytest.approx(q_used, abs=0.08)


def test_first_linear_threshold_matches_quantile():
    cfg = cfg_for("ce", m=20000, n=2000, t_max=1)
    res = run_scheme(cfg, linear_target(100), (3, "q0"))
    # Initial scores are standard normal minus 5.
    se = math.sqrt(0.1 * 0.9 / 20000) / (math.exp(-0.5 * Z90 ** 2) /
                                          math.sqrt(2 * math.pi))
    assert res.traces[0].q_or_sigma == pytest.approx(Z90 - 5.0, abs=5 * se)
    # The level is still short of 0 when the budget ends the run.
    assert not res.converged and not res.diverged and res.iterations_used == 1


@pytest.mark.parametrize("scheme,strategy", [("ice", "none"), ("ice_proj", "mean")])
def test_smoothed_run_ends_on_its_budget(scheme, strategy):
    # Under the start law the stop test fails on the rare event, and the one
    # update succeeds, so a one-iteration budget ends the run: neither
    # converged nor diverged.
    res = run_scheme(cfg_for(scheme, strategy, t_max=1), linear_target(20), (3, "q0"))
    assert not res.converged and not res.diverged and res.iterations_used == 1


# ----------------------------------------------------------- bandwidth fit


def random_weighted_sample(seed: int, m: int = 800, d: int = 2) -> WeightedSample:
    rng = stream(seed, "schemes", "bw")
    x = rng.standard_normal((m, d))
    lr = 0.3 * rng.standard_normal(m)
    scores = rng.standard_normal(m) - 1.0
    return WeightedSample(x, lr, scores)


def brute_force_bandwidth(ws, sigma_hi, delta_target, points=10 ** 4):
    grid = np.exp(np.linspace(math.log(BANDWIDTH_FLOOR), math.log(sigma_hi), points))
    vals = [bandwidth_objective(ws, float(s), delta_target) for s in grid]
    return float(grid[int(np.argmin(vals))])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimize_bandwidth_matches_brute_force(seed):
    ws = random_weighted_sample(seed)
    q25, q75 = np.percentile(ws.scores, [25.0, 75.0])
    hi = max(10.0 * float(q75 - q25), BANDWIDTH_FLOOR)
    got = optimize_bandwidth(ws, hi, 1.5)
    want = brute_force_bandwidth(ws, hi, 1.5)
    assert got is not None
    assert abs(math.log(got) - math.log(want)) < 1e-2
    assert bandwidth_objective(ws, got, 1.5) <= bandwidth_objective(ws, want, 1.5) * (1 + 1e-6) + 1e-12


def test_optimize_bandwidth_respects_ceiling():
    ws = random_weighted_sample(5)
    got = optimize_bandwidth(ws, 1e-5, 1.5)
    assert got is not None and got <= 1e-5 + 1e-18
    # A ceiling at or below the floor leaves the floor alone to try.
    assert optimize_bandwidth(ws, BANDWIDTH_FLOOR, 1.5) == BANDWIDTH_FLOOR
    assert optimize_bandwidth(ws, BANDWIDTH_FLOOR / 2, 1.5) == BANDWIDTH_FLOOR


def test_optimize_bandwidth_all_underflow_returns_none():
    # Scores so deep in the tail that even the log of the smoothed weight
    # overflows to -inf for every bandwidth in range.
    x = np.zeros((4, 1))
    ws = WeightedSample(x, np.zeros(4), np.full(4, -1e300))
    assert optimize_bandwidth(ws, 1e-4, 1.5) is None
    assert optimize_bandwidth(ws, BANDWIDTH_FLOOR, 1.5) is None


# ------------------------------------------------------------- full runs


@pytest.mark.parametrize("scheme,strategy", [("ce", "none"), ("ice", "none")])
def test_always_true_event_estimates_one_exactly(scheme, strategy):
    cfg = cfg_for(scheme, strategy, m=500, n=500, n_p=300)
    res = run_scheme(cfg, always_true_target(), (0,))
    assert res.converged and not res.diverged
    assert res.p_hat == 1.0
    if scheme == "ice":
        # Stop fires before any update is recorded.
        assert res.iterations_used == 0
    else:
        assert res.iterations_used == 1
        assert res.traces[0].q_or_sigma == 0.0  # capped at zero


def test_ce_easy_halfspace_estimates_tail():
    cfg = cfg_for("ce", m=5000, n=5000, n_p=2000)
    res = run_scheme(cfg, halfspace_target(3, 2.0), (23, "easy"))
    assert res.converged and not res.diverged
    assert res.p_hat == pytest.approx(PHI_MINUS_2, rel=0.2)
    assert all(tr.n_hits > 0 for tr in res.traces)


def test_ice_easy_halfspace_estimates_tail(monkeypatch):
    ceilings = []
    search = ce_schemes.optimize_bandwidth
    monkeypatch.setattr(ce_schemes, "optimize_bandwidth",
                        lambda ws, hi, delta: ceilings.append(hi) or search(ws, hi, delta))
    cfg = cfg_for("ice", m=5000, n=5000, n_p=2000)
    res = run_scheme(cfg, halfspace_target(3, 2.0), (23, "ice"))
    assert res.converged and not res.diverged
    assert res.p_hat == pytest.approx(PHI_MINUS_2, rel=0.2)
    # Recorded bandwidths are positive and shrink overall.
    sigmas = [tr.q_or_sigma for tr in res.traces]
    assert all(s > 0.0 for s in sigmas)
    assert sigmas[-1] < sigmas[0]
    # Each search after the first is capped by the bandwidth recorded before it.
    assert len(ceilings) == len(sigmas) > 1 and ceilings[1:] == sigmas[:-1]


def test_projected_run_spiked_law_and_trace_spectra():
    cfg = cfg_for("ice_proj", "mean", m=4000, n=4000, n_p=2000)
    target = halfspace_target(6, 2.5)
    law, trace = iterate(
        GaussianLaw.identity(6), None, target, cfg,
        stream(1, "pi", "y"), stream(1, "pi", "x"))
    assert trace is not None and not trace.diverged
    assert law.spiked is not None and law.spiked.rank == 1
    assert trace.lambda_min_proj == 1.0  # identity law on the way in
    # Next iteration reads the projected spike as its input floor.
    law2, trace2 = iterate(
        law, trace.q_or_sigma, target, cfg, stream(2, "pi", "y"), stream(2, "pi", "x"))
    assert trace2 is not None
    assert trace2.lambda_min_proj == pytest.approx(
        law.lambda_min(), rel=1e-12, abs=0)


def test_divergence_cap_flags_and_keeps_last_law():
    # An absurdly low eigenvalue cap turns the very first update into a
    # divergence; the estimate must still be produced from the start law.
    # The first level, about 1.28 - 2, stays below 0, so the run has not
    # converged when its update fails.
    cfg = cfg_for("ce", m=2000, n=2000, n_p=50000, divergence_lambda_cap=0.5)
    target = halfspace_target(2, 2.0)
    res = run_scheme(cfg, target, (29, "cap"))
    assert res.diverged and not res.converged
    assert res.iterations_used == 1
    assert res.traces[0].diverged and res.traces[0].q_or_sigma < 0.0
    assert res.traces[0].lambda_max_raw > 0.5
    # Estimating from the identity law still works for this common event.
    p = float(std_normal_cdf(-2.0))
    assert res.p_hat == pytest.approx(p, rel=0.1)


def test_capped_level_converges_even_if_its_update_fails():
    # At d = 50 the first level is already capped at 0, but its 200-row
    # update has too few hits for a positive definite 50 x 50 estimate. The
    # run converges on the law it has; the discarded update's trace still
    # records the failure.
    cfg = SchemeConfig("ce", m=200, n=200, n_p=200)
    res = run_scheme(cfg, halfspace_target(50, 1.0), (0, "x"))
    assert res.converged and not res.diverged
    assert res.iterations_used == 1
    trace = res.traces[0]
    assert trace.q_or_sigma == 0.0 and trace.n_hits == 35 and trace.diverged


# Divergence branches. The evaluator is keyed on the batch size, so the
# level batch (M rows), the learning batch (N rows) and the final batch
# (N_P rows) each get their own scores; every run diverges on its first
# iteration and estimates from the standard normal start law. A hard
# threshold is set at -1 by a level batch `below`, short of 0, so the run
# has not converged when its update fails.
D, M, N, N_P = 3, 40, 30, 50


def batch_keyed_target(level, learn) -> LimitState:
    def score(x):
        if x.shape[0] == M:
            return level(x)
        if x.shape[0] == N:
            return learn(x)
        return x[:, 0] - 0.5
    return LimitState(name="keyed", dim=D, evaluator=score)


def above(x):
    return np.ones(x.shape[0])


def one_hit(x):
    return np.where(np.arange(x.shape[0]) == 0, 1.0, -2.0)


def below(x):
    return -np.ones(x.shape[0])


def hopeless(x):
    return np.full(x.shape[0], -1e300)


def first_smoothed_bandwidth() -> float:
    """The bandwidth the first smoothed iteration tunes on its level batch."""
    y = stream(0, "y", 0).standard_normal((M, D))
    scores = y[:, 0] - 1.0
    ws = WeightedSample(y, np.zeros(M), scores)
    q25, q75 = np.percentile(scores, [25.0, 75.0])
    bw = optimize_bandwidth(ws, max(10.0 * float(q75 - q25), BANDWIDTH_FLOOR), 1.5)
    assert bw is not None and bw > 0.0
    return bw


@pytest.mark.parametrize("case", [
    # zero hits at the threshold -1
    ("ce", "none", below, hopeless, (-1.0, 0.0, math.nan, 0)),
    # one hit: sigma_hat is exactly zero, the Cholesky factor fails
    ("ce", "none", below, one_hit, (-1.0, 1.0 / N, 0.0, 1)),
    # one hit: the mean direction carries zero variance, the projection collapses
    ("ce_proj", "mean", below, one_hit, (-1.0, 1.0 / N, 0.0, 1)),
    # no bandwidth gives a finite spread
    ("ice", "none", hopeless, hopeless, (math.nan, math.nan, math.nan, 0)),
    # a usable bandwidth, but every smoothed learning weight underflows
    ("ice", "none", lambda x: x[:, 0] - 1.0, hopeless, (None, 0.0, math.nan, 0)),
], ids=["zero_hits", "cholesky", "collapsed_projection", "no_bandwidth",
        "smoothed_underflow"])
def test_divergence_branches_record_their_trace(case):
    scheme, strategy, level, learn, (q, p_t, lam_max, hits) = case
    if q is None:
        q = first_smoothed_bandwidth()
    cfg = SchemeConfig(scheme=scheme, strategy=strategy, m=M, n=N, n_p=N_P)
    res = run_scheme(cfg, batch_keyed_target(level, learn), (0,))
    assert res.diverged and not res.converged and res.iterations_used == 1
    want = IterationTrace(q_or_sigma=q, p_hat_t=p_t, lambda_min_proj=1.0,
                          lambda_max_raw=lam_max, diverged=True, n_hits=hits)
    np.testing.assert_equal([astuple(tr) for tr in res.traces], [astuple(want)])
    start = stream(0, "final").standard_normal((N_P, D))
    assert res.p_hat == float(np.mean(start[:, 0] >= 0.5))


@pytest.mark.parametrize("p_hat,mu_hat,sigma_hat,lam_max", [
    # A non-finite estimate: no eigenvalue is taken of it.
    (0.25, np.full(D, math.nan), np.full((D, D), math.nan), math.nan),
    (0.25, np.zeros(D), np.diag([1.0, math.inf, 1.0]), math.nan),
    # The level probability overflows (exp_saturated gives inf).
    (math.inf, np.zeros(D), 2.0 * np.eye(D), 2.0),
], ids=["nan_estimate", "inf_estimate", "inf_p_hat"])
def test_update_failures_keep_the_law_and_record_their_trace(monkeypatch, p_hat, mu_hat,
                                                             sigma_hat, lam_max):
    est = EstimationResult(p_hat=p_hat, mu_hat=mu_hat, sigma_hat=sigma_hat, n_hits=7)
    monkeypatch.setattr(ce_schemes, "weighted_mean_cov", lambda ws, level: est)
    law = GaussianLaw.identity(D)
    cfg = SchemeConfig(scheme="ce", m=M, n=N, n_p=N_P)
    nxt, trace = iterate(law, None, batch_keyed_target(above, above), cfg,
                         stream(0, "y", 0), stream(0, "x", 0))
    assert nxt is law
    want = IterationTrace(q_or_sigma=0.0, p_hat_t=p_hat, lambda_min_proj=1.0,
                          lambda_max_raw=lam_max, diverged=True, n_hits=7)
    np.testing.assert_equal(astuple(trace), astuple(want))


def test_run_scheme_bit_reproducible():
    cfg = cfg_for("ice_proj", "mean", m=1500, n=1500, n_p=800)
    t = linear_target(30)
    a = run_scheme(cfg, t, (5, "rep"))
    b = run_scheme(cfg, t, (5, "rep"))
    c = run_scheme(cfg, t, (6, "rep"))
    assert a.p_hat == b.p_hat
    assert a.traces == b.traces
    assert a.p_hat != c.p_hat


def test_missing_reference_gives_nan_error(tmp_path):
    # The benchmark writer derives the relative error from the target's
    # reference: none gives nan in runs.csv and null quartiles in summary.json.
    t = LimitState(name="anon", dim=2,
                   evaluator=lambda x: 1.0 - np.abs(x[:, 0]))
    cfg = cfg_for("ce", m=800, n=800, n_p=400)
    res = run_scheme(cfg, t, (0,))
    assert 0.0 < res.p_hat < 1.0
    cli._write_benchmark_outputs(tmp_path, [res], cfg, t)
    header, row = (tmp_path / "runs.csv").read_text().splitlines()
    assert math.isnan(float(row.split(",")[header.split(",").index("relative_error")]))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["relative_error"] == {"q25": None, "median": None, "q75": None}


@pytest.mark.parametrize("scheme,strategy,bound", [("ce", "none", 1.32),
                                                   ("ice", "none", 1.32),
                                                   ("ice_proj", "mean", 1.32)])
def test_iteration_peak_memory_in_batches(scheme, strategy, bound):
    # sample writes the points over the draws, and the smoothed level batch
    # is released before the learn batch is drawn, so one iteration holds
    # the learn batch plus what its estimator forms: the hit rows for ce,
    # scaled in place, and nothing for the smoothed schemes, whose moments
    # scale the learn batch itself. Measured from the identity start and
    # from the law one update later (dense for ce and ice, spiked with a
    # mean for ice_proj), each after an untraced warm-up of the same call.
    m = n = 2000
    d = 50
    batch = m * d * 8
    target = linear_target(d)
    cfg = cfg_for(scheme, strategy, m=m, n=n)
    law, bandwidth = GaussianLaw.identity(d), None
    for t in range(2):
        args = (law, bandwidth, target, cfg)
        iterate(*args, stream(3, "y", t), stream(3, "x", t))
        tracemalloc.start()
        try:
            law, trace = iterate(*args, stream(3, "y", t), stream(3, "x", t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not trace.diverged
        assert peak < bound * batch, (t, peak / batch)
        bandwidth = trace.q_or_sigma
