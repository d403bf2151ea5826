"""Strict nested configuration: validated defaults, dotted-path errors, manifests.

Configuration is YAML with one section per module. Unknown and repeated keys
are rejected naming the offending dotted path (a silent typo in a safety
parameter is a safety bug), every value is checked by the range rule of the
library object it feeds, and the full effective configuration -- defaults
included -- can be dumped back out as a manifest that reproduces the run
with no hidden state.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .barrier import SafetyParams, _noise_bounds
from .field import DistanceField, GridSpec, _check_map_axis
from .geometry import GateGeometry, _check_level, _positive
from .report import _g
from .sim import (
    MODES, SimEnv, _check_count, _check_dt, _check_non_negative, _check_track_length, generate_track, run_experiment,
)


class ConfigError(ValueError):
    """Configuration rejected: parse failure, unknown key, or out-of-range value."""


def _number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the largest float
        raise ConfigError(f"{path} must be a number, got an integer too large for a float") from None


def _int(path: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _list(path: str, value, n: int | None = None) -> list:
    """A YAML list of n entries, or a non-empty one when n is None."""
    if not isinstance(value, (list, tuple)) or not value or n not in (None, len(value)):
        raise ConfigError(f"{path} must be a {'non-empty' if n is None else f'{n}-entry'} list, got {value!r}")
    return list(value)


def _numbers(path: str, value, n: int | None = None) -> tuple[float, ...]:
    return tuple(_number(path, v) for v in _list(path, value, n))


def _distinct(path: str, names: list[str]) -> None:
    if len(set(names)) < len(names):  # each level and mode names its own trajectory files
        raise ConfigError(f"{path} repeats an entry of {names}: trajectory files would overwrite each other")


def _levels(path: str, value) -> tuple[float, ...]:
    levels = _numbers(path, value)
    for v in levels:
        _check_level(v, path)
    _distinct(path, [_g(v) for v in levels])
    return levels


def _modes(path: str, value) -> tuple[str, ...]:
    modes = _list(path, value)
    for m in modes:
        if m not in MODES:
            raise ConfigError(f"{path} entry {m!r} is not one of {list(MODES)}")
    _distinct(path, modes)
    return tuple(modes)


def _whole_cells(length: float, resolution: float) -> int | None:
    """length / resolution as a cell count, or None unless within 1e-6 of a whole number."""
    n = length / resolution  # inf when the length or the count overflows
    if math.isfinite(n) and abs(n - round(n)) <= 1e-6:
        return round(n)
    return None


def _setting(default, parse, rule=None, **kwargs):
    """A section field read by ``parse(path, value, **kwargs)`` and range-checked
    by ``rule(value, path)``, the check of the library object it feeds."""
    return field(default=default, metadata={"parse": functools.partial(parse, **kwargs), "rule": rule})


def _default(owner, name: str):
    """The default a library dataclass field or function parameter states for ``name``."""
    if isinstance(owner, type):
        return getattr(owner, name)
    return inspect.signature(owner).parameters[name].default


@dataclass
class GeometryConfig:
    inner_size: float = _setting(_default(GateGeometry, "inner_size"), _number, _positive)
    bar_thickness: float = _setting(_default(GateGeometry, "bar_thickness"), _number, _positive)


@dataclass
class MapConfig:
    resolution: float = _setting(0.1, _number, _positive)
    x: tuple[float, float] = _setting((-6.0, 6.0), _numbers, _check_map_axis, n=2)
    y: tuple[float, float] = _setting((-6.0, 6.0), _numbers, _check_map_axis, n=2)
    z: tuple[float, float] = _setting((-4.0, 4.0), _numbers, _check_map_axis, n=2)


@dataclass
class SafetyConfig:
    R: float = _setting(_default(SafetyParams, "R"), _number, _positive)
    gamma: float = _setting(_default(SafetyParams, "gamma"), _number, _positive)
    alpha: float = _setting(_default(SafetyParams, "alpha"), _number, _positive)


@dataclass
class NoiseConfig:
    dw: tuple[float, float, float] = _setting(_default(SafetyParams, "dw"), _numbers, _noise_bounds, n=3)
    dv: tuple[float, float, float] = _setting(_default(SafetyParams, "dv"), _numbers, _noise_bounds, n=3)


@dataclass
class SimSectionConfig:
    dt: float = _setting(_default(SimEnv, "dt"), _number, _check_dt)
    laps: int = _setting(_default(generate_track, "laps"), _int, _check_count)
    max_steps: int = _setting(_default(SimEnv, "max_steps"), _int, _check_count)


@dataclass
class TrackConfig:
    num_gates: int = _setting(_default(generate_track, "num_gates"), _int, _check_count)
    spacing: float = _setting(_default(generate_track, "spacing"), _number, _positive)


@dataclass
class PolicyConfig:
    gain: float = _setting(_default(SimEnv, "gain"), _number, _positive)
    pass_offset: float = _setting(_default(SimEnv, "pass_offset"), _number, _check_level)


@dataclass
class RunSectionConfig:
    levels: tuple[float, ...] = _setting(_default(run_experiment, "levels"), _levels)
    tracks: int = _setting(_default(run_experiment, "tracks_per_level"), _int, _check_count)
    modes: tuple[str, ...] = _setting(_default(run_experiment, "modes"), _modes)
    seed_base: int = _setting(_default(run_experiment, "seed_base"), _int, _check_non_negative)


@dataclass
class Config:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    map: MapConfig = field(default_factory=MapConfig)
    safety: SafetyConfig = field(default_factory=SafetyConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    sim: SimSectionConfig = field(default_factory=SimSectionConfig)
    track: TrackConfig = field(default_factory=TrackConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    run: RunSectionConfig = field(default_factory=RunSectionConfig)

    def gate(self) -> GateGeometry:
        return GateGeometry(inner_size=self.geometry.inner_size, bar_thickness=self.geometry.bar_thickness)

    def grid_spec(self) -> GridSpec:
        res = self.map.resolution
        dims = []
        for key, (lo, hi) in (("x", self.map.x), ("y", self.map.y), ("z", self.map.z)):
            cells = _whole_cells(hi - lo, res)
            if cells is None or cells < 1:
                raise ConfigError(
                    f"map.{key} extent {hi - lo:g} is not a whole number (>= 1) of {res:g} m cells"
                )
            dims.append(cells + 1)
        origin = np.array([self.map.x[0], self.map.y[0], self.map.z[0]])
        return GridSpec(origin=origin, resolution=res, dims=tuple(dims))

    def safety_params(self) -> SafetyParams:
        return SafetyParams(
            R=self.safety.R,
            gamma=self.safety.gamma,
            alpha=self.safety.alpha,
            dw=np.array(self.noise.dw),
            dv=np.array(self.noise.dv),
        )

    def sim_env(self, nominal: DistanceField, inflated: DistanceField | None) -> SimEnv:
        return SimEnv(
            gate=self.gate(),
            nominal_field=nominal,
            inflated_field=inflated,
            params=self.safety_params(),
            dt=self.sim.dt,
            max_steps=self.sim.max_steps,
            gain=self.policy.gain,
            pass_offset=self.policy.pass_offset,
        )

    def to_dict(self) -> dict:
        return {
            name: {key: list(v) if isinstance(v, tuple) else v for key, v in body.items()}
            for name, body in asdict(self).items()
        }


_SECTIONS = {f.name: f.default_factory for f in fields(Config)}


def _parse_section(name: str, body: dict):
    """Validate one section mapping through its dataclass fields' checks."""
    known = {f.name: f for f in fields(_SECTIONS[name])}
    values = {}
    for key, value in body.items():
        if key not in known:
            raise ConfigError(f"unknown key {name}.{key}")
        path, meta = f"{name}.{key}", known[key].metadata
        try:
            values[key] = meta["parse"](path, value)
            if meta["rule"] is not None:
                meta["rule"](values[key], path)
        except ValueError as exc:  # a library rule's, naming the dotted path; a ConfigError keeps its text
            raise ConfigError(str(exc)) from None
    return _SECTIONS[name](**values)


def parse_config(data: dict | None) -> Config:
    """Validate an already-parsed mapping into a Config (empty -> defaults)."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping of sections, got {type(data).__name__}")
    cfg = Config()
    for section, body in data.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r} (expected one of {sorted(_SECTIONS)})")
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be a mapping, got {type(body).__name__}")
        setattr(cfg, section, _parse_section(section, body))
    # The rules that span keys; the library's other checks hold per value.
    cfg.grid_spec()
    try:
        _check_track_length(cfg.track.spacing, cfg.track.num_gates, cfg.sim.laps, "track.spacing")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _reject_repeated_keys(node, path: str, walked: set[int]) -> None:
    """Raise ConfigError for a key given twice in one mapping of a YAML node tree.

    PyYAML keeps only the last of two equal keys, so a section written twice
    would silently drop every value set in its first copy. ``walked`` holds
    the nodes already checked: an alias may make the tree recursive.
    """
    if id(node) in walked:
        return
    walked.add(id(node))
    if isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _reject_repeated_keys(item, f"{path}[{i}]", walked)
    elif isinstance(node, yaml.MappingNode):
        keys = set()
        for key, value in node.value:
            if not isinstance(key, yaml.ScalarNode):
                continue  # unhashable: constructing the mapping rejects it
            name = f"{path}.{key.value}" if path else key.value
            if key.value in keys:
                raise ConfigError(f"{name} is given twice (again on line {key.start_mark.line + 1})")
            keys.add(key.value)
            _reject_repeated_keys(value, name, walked)


def load_config(path: str) -> Config:
    """Read, parse, and validate a YAML config file; empty file means defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        # yaml.safe_load, with the node tree checked before it is constructed.
        loader = yaml.SafeLoader(raw)
        node = loader.get_single_node()
        _reject_repeated_keys(node, "", set())
        try:
            data = None if node is None else loader.construct_document(node)
        except ValueError as exc:  # a scalar Python cannot hold, such as an integer of over 4,300 digits
            raise ConfigError(f"config {path} holds a value that cannot be read: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_config(data)


def dump_manifest(cfg: Config, path: str) -> None:
    """Write the full effective configuration (defaults included) as YAML."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True, default_flow_style=None)
