"""Strict JSON run configuration.

Unknown keys are rejected and every violation is reported at once; all
defaults become explicit on serialization, so the manifest never
contains silently defaulted parameters.
"""

import json
from dataclasses import dataclass, fields

from .exceptions import ConfigurationError

TASKS = ("ids", "verify", "tails", "decay", "all")
BC_NAMES = ("N", "Dt", "D")
# cluster labeling and the shape table's key columns and rows hold
# vertex indices and coordinates as int32
MAX_VERTICES = 2**31 - 1
# the counter-based RNG keys on a uint64 seed; a larger seed would alias
MAX_SEED = 2**64 - 1
# grid_points, grid_refine and decay_samples size float64/int64 arrays, as
# does the d=1 tail series truncation; numpy refuses 2**63 bytes or more
# with a ValueError, while a smaller size that cannot be allocated fails
# as MemoryError (exit 3)
MAX_ARRAY_ITEMS = 2**59 - 1
SIZE_FIELDS = ("grid_points", "grid_refine", "decay_samples")
# the default energy grid: uniform points on [0, 4d], plus the refine
# geometric steps toward each band edge
GRID_POINTS = 512
GRID_REFINE = 40


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    L: int
    p: float
    task: str = "all"
    realizations: int = 1
    seed: int = 0
    boundary_conditions: tuple = BC_NAMES
    grid_points: int = GRID_POINTS
    grid_refine: int = GRID_REFINE
    tail_mode: str = "analytic"
    tail_window: tuple = (1e-8, 1e-3)
    decay_samples: int = 100000
    decay_radius: int | None = None
    emit_graph: bool = False

    def to_dict(self) -> dict:
        """Every field by name, tuples as lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    problems = []
    for key in data:
        if key not in _FIELD_NAMES:
            problems.append(f"unknown key: {key!r}")
    for key in ("d", "L", "p"):
        if key not in data:
            problems.append(f"missing required key: {key!r}")
    if problems:
        raise ConfigurationError("; ".join(problems))

    kwargs = dict(data)
    for key in ("boundary_conditions", "tail_window"):
        if isinstance(kwargs.get(key), list):
            kwargs[key] = tuple(kwargs[key])
    cfg = ExperimentConfig(**kwargs)

    problems = validate(cfg)
    if problems:
        raise ConfigurationError("; ".join(problems))
    return cfg


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def validate(cfg: ExperimentConfig) -> list:
    problems = []

    def need_int(name, lowest):
        value = getattr(cfg, name)
        if not _is_int(value) or value < lowest:
            problems.append(f"{name} must be an integer >= {lowest}, got {value!r}")

    if not _is_int(cfg.d) or not 1 <= cfg.d <= 3:
        problems.append(f"d must be an integer in [1,3], got {cfg.d!r}")
    need_int("L", 2)
    if not _is_real(cfg.p) or not 0.0 < cfg.p < 1.0:
        problems.append(f"p must satisfy 0 < p < 1, got {cfg.p!r}")
    need_int("realizations", 1)
    if cfg.task not in TASKS:
        problems.append(f"task must be one of {TASKS}, got {cfg.task!r}")
    if (
        not isinstance(cfg.boundary_conditions, (list, tuple))
        or not cfg.boundary_conditions
        or any(b not in BC_NAMES for b in cfg.boundary_conditions)
    ):
        problems.append(
            f"boundary_conditions must be a nonempty subset of {BC_NAMES}, "
            f"got {cfg.boundary_conditions!r}"
        )
    need_int("seed", 0)
    if _is_int(cfg.seed) and cfg.seed > MAX_SEED:
        problems.append(f"seed must be at most 2**64 - 1, got {cfg.seed!r}")
    need_int("grid_points", 2)
    need_int("grid_refine", 0)
    if cfg.tail_mode not in ("analytic", "mc"):
        problems.append(f"tail_mode must be 'analytic' or 'mc', got {cfg.tail_mode!r}")
    width = 4 * cfg.d if _is_int(cfg.d) else float("inf")
    if not (
        isinstance(cfg.tail_window, (list, tuple))
        and len(cfg.tail_window) == 2
        and all(_is_real(x) for x in cfg.tail_window)
        and 0.0 < cfg.tail_window[0] < cfg.tail_window[1] <= width
    ):
        problems.append(
            f"tail_window must be [lo, hi] with 0 < lo < hi <= 4d, got {cfg.tail_window!r}"
        )
    need_int("decay_samples", 1)
    for name in SIZE_FIELDS:
        value = getattr(cfg, name)
        if _is_int(value) and value > MAX_ARRAY_ITEMS:
            problems.append(f"{name} must be at most 2**59 - 1, got {value!r}")
    if cfg.decay_radius is not None:
        need_int("decay_radius", 2)
    if not isinstance(cfg.emit_graph, bool):
        problems.append(f"emit_graph must be true or false, got {cfg.emit_graph!r}")
    if _is_int(cfg.d) and 1 <= cfg.d <= 3:
        if _is_int(cfg.L) and cfg.L ** cfg.d > MAX_VERTICES:
            problems.append(
                f"box L**d = {cfg.L}**{cfg.d} exceeds {MAX_VERTICES} vertices"
            )
        # the shape table keeps the key columns of every realization
        elif (_is_int(cfg.L) and _is_int(cfg.realizations)
              and cfg.realizations * cfg.L ** cfg.d > MAX_VERTICES):
            problems.append(
                f"ensemble realizations * L**d = {cfg.realizations} * {cfg.L}**{cfg.d} "
                f"exceeds {MAX_VERTICES} vertices"
            )
        if _is_int(cfg.decay_radius) and (2 * cfg.decay_radius + 1) ** cfg.d > MAX_VERTICES:
            problems.append(
                f"decay box (2*decay_radius+1)**d = {2 * cfg.decay_radius + 1}**{cfg.d} "
                f"exceeds {MAX_VERTICES} vertices"
            )
    return problems


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, bytes that are not UTF-8, integer literals past
        # the int-to-str digit limit, and arrays nested past the recursion limit
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc
    return config_from_dict(data)

