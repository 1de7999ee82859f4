"""Plain-text experiment configuration: key=value lines, validated strictly.

The key set is closed: an unknown key is an error, not a warning, so a
typoed parameter cannot silently fall back to a default. Values are typed
per key; lists are comma separated. Lines starting with # and inline
#-comments are ignored.

This module also translates a configuration into the library objects each
experiment runs on (scheme configs and targets, sweep configs, gamma
cells). Range and membership rules live in those objects; building them
in load_config is the validation, and their ValueError becomes a
ConfigError.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from .ce_schemes import SchemeConfig
from .phase_lab import SweepConfig, build_alignment, gamma_cells, widened_alignment
from .targets import TABLE_DIMS, LimitState, benchmark_target


class ConfigError(ValueError):
    """Malformed, unknown, missing, or out-of-range configuration entry."""


KINDS = ("benchmark", "phase", "gamma", "table1")
_REQUIRED = {
    "benchmark": ("target", "scheme"),
    "phase": ("target", "alignment", "lambda1", "kappa", "dims"),
    "gamma": ("target", "alignment", "lambda1"),
    "table1": (),
}

TABLE1_TARGETS = ("lin", "quad", "fin")
TABLE1_CELLS = (
    ("ce", "none"),
    ("ce_proj", "eig_min"),
    ("ce_proj", "mean"),
    ("ice", "none"),
    ("ice_proj", "eig_min"),
    ("ice_proj", "mean"),
)

GAMMA_N_GRID = (1000, 10000, 100000, 1000000)
GAMMA_DEFAULT_DIM = 2


def _parse_int(raw: str) -> int:
    return int(raw.strip())


def _parse_float(raw: str) -> float:
    return float(raw.strip())


def _parse_str(raw: str) -> str:
    return raw.strip()


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in raw.split(",") if p.strip())


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(p.strip()) for p in raw.split(",") if p.strip())


# key -> parser
_PARSERS = {
    "kind": _parse_str,
    "target": _parse_str,
    "scheme": _parse_str,
    "strategy": _parse_str,
    "rho": _parse_float,
    "delta_target": _parse_float,
    "m": _parse_int,
    "n": _parse_int,
    "n_p": _parse_int,
    "t_max": _parse_int,
    "N": _parse_int,
    "lambda1": _parse_float,
    "kappa": _parse_float_list,
    "dims": _parse_int_list,
    "alpha": _parse_float,
    "alignment": _parse_str,
    "seed": _parse_int,
    "workers": _parse_int,
    "output_dir": _parse_str,
    "divergence_lambda_cap": _parse_float,
}


@dataclass
class ExperimentConfig:
    kind: str
    target: str | None = None
    scheme: str | None = None
    strategy: str | None = None
    rho: float | None = None
    delta_target: float | None = None
    m: int | None = None
    n: int | None = None
    n_p: int | None = None
    t_max: int | None = None
    N: int | None = None
    lambda1: float | None = None
    kappa: tuple[float, ...] = ()
    dims: tuple[int, ...] = ()
    alpha: float | None = None
    alignment: str | None = None
    seed: int = 0
    workers: int = 0
    output_dir: str = "."
    divergence_lambda_cap: float | None = None

    def __post_init__(self):
        if self.workers <= 0:
            self.workers = os.cpu_count() or 1


def parse_file(path: str | Path) -> dict:
    """Read and type the raw key=value pairs; no cross-field checks yet."""
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def load_config(path: str | Path, overrides: dict | None = None,
                expected_kind: str | None = None) -> ExperimentConfig:
    """Parse, apply CLI overrides, and validate the combined configuration.

    expected_kind is the CLI subcommand; a conflicting kind in the file is
    an error rather than silently resolved.
    """
    values = parse_file(path)
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                values[key] = val
    if expected_kind is not None:
        if values.get("kind", expected_kind) != expected_kind:
            raise ConfigError(
                f"config kind {values['kind']!r} conflicts with command {expected_kind!r}"
            )
        values["kind"] = expected_kind
    if "kind" not in values:
        raise ConfigError("missing required key 'kind'")
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Rules no library type knows, then the library objects themselves."""
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown kind {cfg.kind!r}; expected one of {KINDS}")
    missing = [k for k in _REQUIRED[cfg.kind] if getattr(cfg, k) in (None, ())]
    if missing:
        raise ConfigError(f"kind={cfg.kind} requires keys: {', '.join(missing)}")
    if cfg.kind == "table1" and (cfg.target, cfg.scheme, cfg.strategy) != (None,) * 3:
        raise ConfigError("table1 fixes its own targets, schemes and strategies")
    if cfg.kind == "phase":
        if len(cfg.dims) < 2:
            raise ConfigError("phase needs an ascending dims grid with >= 2 entries")
    elif len(cfg.dims) > 1:
        raise ConfigError(f"{cfg.kind} takes at most one dimension in 'dims'")
    if cfg.kind in ("phase", "gamma") and cfg.alpha is not None and cfg.target != "slab":
        raise ConfigError("alpha applies to the slab target only")
    if cfg.N is None:
        cfg.N = 200 if cfg.kind in ("benchmark", "table1") else 30
    if cfg.N < 1:
        raise ConfigError(f"N must be positive, got {cfg.N}")
    try:
        _TRANSLATIONS[cfg.kind](cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def benchmark_sizes(cfg: ExperimentConfig) -> tuple[int, int, int]:
    """(d, m, n) for a benchmark cell, falling back to the published sizes.

    d is None for an unknown target, which benchmark_target rejects.
    """
    d = cfg.dims[0] if cfg.dims else TABLE_DIMS.get(cfg.target)
    n = cfg.n if cfg.n is not None else (10000 if cfg.target == "lin" else 5000)
    m = cfg.m if cfg.m is not None else n
    return d, m, n


# Scheme options a file may set; unset ones take SchemeConfig's defaults.
_SCHEME_KEYS = ("strategy", "rho", "delta_target", "n_p", "t_max", "divergence_lambda_cap")


def scheme_cells(cfg: ExperimentConfig) -> list[tuple[LimitState, SchemeConfig]]:
    """(target, scheme config) for each benchmark or table1 cell, in run order."""
    if cfg.kind == "table1":
        grid = [(t, {"scheme": s, "strategy": st}) for t in TABLE1_TARGETS
                for s, st in TABLE1_CELLS]
    else:
        grid = [(cfg.target, {"scheme": cfg.scheme})]
    options = {k: getattr(cfg, k) for k in _SCHEME_KEYS if getattr(cfg, k) is not None}
    cells = []
    for name, cell in grid:
        d, m, n = benchmark_sizes(replace(cfg, target=name))
        scheme_cfg = SchemeConfig(**{**options, **cell}, m=m, n=n, seed=cfg.seed)
        cells.append((benchmark_target(name, d), scheme_cfg))
    return cells


def sweep_configs(cfg: ExperimentConfig) -> list[SweepConfig]:
    """One sweep per kappa of a phase config."""
    return [SweepConfig(target=cfg.target, alignment=cfg.alignment, lambda1=cfg.lambda1,
                        kappa=kappa, dims=cfg.dims, reps=cfg.N, alpha=cfg.alpha,
                        seed=cfg.seed)
            for kappa in cfg.kappa]


def gamma_cell_args(cfg: ExperimentConfig) -> list[tuple]:
    """gamma_cell arguments of a gamma config over GAMMA_N_GRID x N."""
    d = cfg.dims[0] if cfg.dims else GAMMA_DEFAULT_DIM
    _, cov = build_alignment(cfg.target, cfg.alignment, cfg.lambda1, d)

    def state_at(n: int) -> LimitState:
        return widened_alignment(cfg.target, cfg.alignment, cfg.lambda1, d, n, cfg.alpha)[0]

    return gamma_cells(state_at, cov, GAMMA_N_GRID, cfg.N, cfg.seed)


_TRANSLATIONS = {"benchmark": scheme_cells, "table1": scheme_cells,
                 "phase": sweep_configs, "gamma": gamma_cell_args}
