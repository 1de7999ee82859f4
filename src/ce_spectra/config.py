"""Plain-text experiment configuration: key=value lines, validated strictly.

The key set is closed: an unknown key is an error, not a warning, so a
typoed parameter cannot silently fall back to a default, and so is a key
the experiment kind does not read. Values are typed per key; lists are
comma separated. Lines starting with # and inline #-comments are ignored.

Each key is described once, by its ExperimentConfig field: the default is
the field's, and the field's metadata holds the parser, the kinds that
read the key and the kinds that require it (_KEYS collects them).

load_config also builds the cell groups a command runs: the argument
tuples of its cells, stream keys included, grouped per output (one benchmark
cell, one kappa branch, one gamma grid point). Range and membership rules
live in the library objects those tuples hold and in the library
functions that build them (sweep_cells, gamma_cells); building them is the
validation, and their ValueError becomes a ConfigError.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .ce_schemes import SchemeConfig
from .phase_lab import LabGeometry, gamma_cells, sweep_cells
from .seeding import check_seed
from .targets import TABLE_SIZES, benchmark_target


class ConfigError(ValueError):
    """Malformed, unknown, missing, or out-of-range configuration entry."""


KINDS = ("benchmark", "phase", "gamma", "table1")
_LAB_KINDS = ("phase", "gamma")
_SCHEME_KINDS = ("benchmark", "table1")
# Scheme options a file may set; unset ones take SchemeConfig's defaults.
_SCHEME_KEYS = ("strategy", "rho", "delta_target", "n_p", "t_max", "divergence_lambda_cap")

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


def _comma_list(item):
    return lambda raw: tuple(item(p) for p in raw.split(",") if p.strip())


def _key(parse, kinds=KINDS, required=(), default=None):
    """A config key: parse types its stripped value, kinds read it and
    required lists the kinds that reject a config without it."""
    return field(default=default, metadata=dict(parse=parse, kinds=kinds, required=required))


@dataclass
class ExperimentConfig:
    # The field order is the order of a "requires keys" message.
    kind: str = _key(str)
    target: str | None = _key(str, ("benchmark",) + _LAB_KINDS, ("benchmark",) + _LAB_KINDS)
    scheme: str | None = _key(str, ("benchmark",), ("benchmark",))
    alignment: str | None = _key(str, _LAB_KINDS, _LAB_KINDS)
    lambda1: float | None = _key(float, _LAB_KINDS, _LAB_KINDS)
    kappa: tuple[float, ...] = _key(_comma_list(float), ("phase",), ("phase",), ())
    dims: tuple[int, ...] = _key(_comma_list(int), _SCHEME_KINDS + ("phase",), ("phase",), ())
    alpha: float | None = _key(float, _LAB_KINDS)
    # table1 fixes its own strategies.
    strategy: str | None = _key(str, ("benchmark",))
    rho: float | None = _key(float, _SCHEME_KINDS)
    delta_target: float | None = _key(float, _SCHEME_KINDS)
    m: int | None = _key(int, _SCHEME_KINDS)
    n: int | None = _key(int, _SCHEME_KINDS)
    n_p: int | None = _key(int, _SCHEME_KINDS)
    t_max: int | None = _key(int, _SCHEME_KINDS)
    divergence_lambda_cap: float | None = _key(float, _SCHEME_KINDS)
    N: int | None = _key(int)
    seed: int = _key(int, default=0)
    workers: int = _key(int, default=0)
    output_dir: str = _key(str, default=".")
    # Set by load_config: the cells of the command, as lists of map_cells
    # argument tuples, one list per output.
    groups: list[list[tuple]] = field(init=False, repr=False, compare=False)


# key -> metadata of its field: the one table parse_file and load_config read.
_KEYS = {f.name: f.metadata for f in fields(ExperimentConfig) if f.init}


def parse_file(path: str | Path) -> dict:
    """Read and type the raw key=value pairs; no cross-field checks yet."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key]["parse"](raw.strip())
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
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    if expected_kind is not None:
        if values.get("kind", expected_kind) != expected_kind:
            raise ConfigError(f"config kind {values['kind']!r} conflicts with "
                              f"command {expected_kind!r}")
        values["kind"] = expected_kind
    kind = values.get("kind")
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
    unread = [k for k in values if k not in _KEYS or kind not in _KEYS[k]["kinds"]]
    if unread:
        raise ConfigError(f"kind={kind} does not read keys: {', '.join(unread)}")
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Rules no library type knows, then the cell groups, which build the
    library objects themselves."""
    missing = [k for k, key in _KEYS.items()
               if cfg.kind in key["required"] and getattr(cfg, k) in (None, ())]
    if missing:
        raise ConfigError(f"kind={cfg.kind} requires keys: {', '.join(missing)}")
    if cfg.kind in _SCHEME_KINDS and len(cfg.dims) > 1:
        raise ConfigError(f"{cfg.kind} takes at most one dimension in 'dims'")
    if cfg.N is None:
        cfg.N = 200 if cfg.kind in _SCHEME_KINDS else 30
    if cfg.N < 1:
        raise ConfigError(f"N must be positive, got {cfg.N}")
    if cfg.workers < 0:
        raise ConfigError(f"workers must be 0 (all cores) or positive, got {cfg.workers}")
    # Output bytes do not depend on the worker count: cap it at the cores (0: all cores).
    cores = os.cpu_count() or 1
    cfg.workers = min(cfg.workers or cores, cores)
    try:
        cfg.groups = _GROUP_BUILDERS[cfg.kind](cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def benchmark_sizes(cfg: ExperimentConfig) -> tuple[int, int, int]:
    """(d, m, n) for a benchmark cell, falling back to the published sizes.

    d and n are None for an unknown target, which benchmark_target rejects.
    """
    d, n = TABLE_SIZES.get(cfg.target, (None, None))
    d = cfg.dims[0] if cfg.dims else d
    n = cfg.n if cfg.n is not None else n
    m = cfg.m if cfg.m is not None else n
    return d, m, n


def _scheme_groups(cfg: ExperimentConfig) -> list[list[tuple]]:
    """run_scheme arguments of each benchmark or table1 cell, in run order:
    N repetitions keyed (seed, "benchmark", target, scheme, strategy, rep).

    A scheme reads rho (ce, ce_proj) or delta_target (ice, ice_proj), so
    benchmark rejects the other; table1 has cells that read each."""
    check_seed(cfg.seed)
    if cfg.kind == "table1":
        grid = [(t, {"scheme": s, "strategy": st}) for t in TABLE1_TARGETS
                for s, st in TABLE1_CELLS]
    else:
        grid = [(cfg.target, {"scheme": cfg.scheme})]
    options = {k: getattr(cfg, k) for k in _SCHEME_KEYS if getattr(cfg, k) is not None}
    groups = []
    for name, cell in grid:
        d, m, n = benchmark_sizes(replace(cfg, target=name))
        target = benchmark_target(name, d)
        scheme_cfg = SchemeConfig(**{**options, **cell}, m=m, n=n)
        unread = "rho" if scheme_cfg.smoothed else "delta_target"
        if cfg.kind == "benchmark" and unread in options:
            raise ConfigError(f"scheme={cfg.scheme} does not read keys: {unread}")
        groups.append([(scheme_cfg, target, (cfg.seed, "benchmark", target.name,
                                             scheme_cfg.scheme, scheme_cfg.strategy, rep))
                       for rep in range(cfg.N)])
    return groups


def _phase_groups(cfg: ExperimentConfig) -> list[list[tuple]]:
    """sweep_cell arguments of each kappa branch of a phase config; sweep_cells
    checks the dims ladder and computes each dimension's n."""
    geometry = LabGeometry(cfg.target, cfg.alignment, cfg.lambda1, cfg.alpha)
    return [sweep_cells(geometry, kappa, cfg.dims, cfg.N, cfg.seed) for kappa in cfg.kappa]


def _gamma_groups(cfg: ExperimentConfig) -> list[list[tuple]]:
    """gamma_cell arguments of each GAMMA_N_GRID point of a gamma config."""
    geometry = LabGeometry(cfg.target, cfg.alignment, cfg.lambda1, cfg.alpha)
    return gamma_cells(geometry, GAMMA_N_GRID, cfg.N, cfg.seed)


_GROUP_BUILDERS = {"benchmark": _scheme_groups, "table1": _scheme_groups,
                   "phase": _phase_groups, "gamma": _gamma_groups}
