"""Strict nested configuration: validated defaults, dotted-path errors, manifests.

Configuration is YAML with one section per module. Unknown and repeated keys
are rejected naming the offending dotted path (a silent typo in a safety
parameter is a safety bug), every value is range-checked at load, and the
full effective configuration -- defaults included -- can be dumped back out
as a manifest that reproduces the run with no hidden state.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .barrier import SafetyParams
from .field import DistanceField, GridSpec
from .geometry import GateGeometry
from .report import _g
from .sim import MODES, SimEnv, _check_level


class ConfigError(ValueError):
    """Configuration rejected: parse failure, unknown key, or out-of-range value."""


def _number(path: str, value, *, minimum=None, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    if positive and v <= 0.0:
        raise ConfigError(f"{path} must be > 0, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {v}")
    return v


def _int(path: str, value, *, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value}")
    return value


def _extent(path: str, value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path} must be a [lo, hi] pair, got {value!r}")
    lo = _number(path, value[0])
    hi = _number(path, value[1])
    if lo >= hi:
        raise ConfigError(f"{path} must satisfy lo < hi, got [{lo}, {hi}]")
    return (lo, hi)


def _vec3(path: str, value) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path} must be three per-axis values, got {value!r}")
    return tuple(_number(path, v, minimum=0.0) for v in value)  # type: ignore[return-value]


def _dt(path: str, value) -> float:
    v = _number(path, value, positive=True)
    if v >= 1.0:
        raise ConfigError(f"{path} must be < 1 s, got {v}")
    return v


def _nonempty_list(path: str, value) -> None:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path} must be a non-empty list, got {value!r}")


def _distinct(path: str, names: list[str]) -> None:
    if len(set(names)) < len(names):  # each level and mode names its own trajectory files
        raise ConfigError(f"{path} repeats an entry of {names}: trajectory files would overwrite each other")


def _levels(path: str, value) -> tuple[float, ...]:
    _nonempty_list(path, value)
    levels = tuple(_number(path, v) for v in value)
    for v in levels:
        _check_level(v, path, ConfigError)
    _distinct(path, [_g(v) for v in levels])
    return levels


def _modes(path: str, value) -> tuple[str, ...]:
    _nonempty_list(path, value)
    for m in value:
        if m not in MODES:
            raise ConfigError(f"{path} entry {m!r} is not one of {list(MODES)}")
    _distinct(path, list(value))
    return tuple(value)


def _setting(default, check, **bounds):
    """A section field whose value is validated by ``check(path, value, **bounds)``."""
    return field(default=default, metadata={"check": functools.partial(check, **bounds)})


@dataclass
class GeometryConfig:
    inner_size: float = _setting(1.5, _number, positive=True)
    bar_thickness: float = _setting(0.25, _number, positive=True)


@dataclass
class MapConfig:
    resolution: float = _setting(0.1, _number, positive=True)
    x: tuple[float, float] = _setting((-6.0, 6.0), _extent)
    y: tuple[float, float] = _setting((-6.0, 6.0), _extent)
    z: tuple[float, float] = _setting((-4.0, 4.0), _extent)


@dataclass
class SafetyConfig:
    R: float = _setting(0.3, _number, positive=True)
    gamma: float = _setting(4.0, _number, positive=True)
    alpha: float = _setting(3.0, _number, positive=True)


@dataclass
class NoiseConfig:
    dw: tuple[float, float, float] = _setting((0.1, 0.1, 0.1), _vec3)
    dv: tuple[float, float, float] = _setting((0.25, 0.25, 0.25), _vec3)


@dataclass
class SimSectionConfig:
    dt: float = _setting(0.02, _dt)
    laps: int = _setting(3, _int, minimum=1)
    max_steps: int = _setting(12000, _int, minimum=1)


@dataclass
class TrackConfig:
    num_gates: int = _setting(8, _int, minimum=1)
    spacing: float = _setting(6.25, _number, positive=True)


@dataclass
class PolicyConfig:
    gain: float = _setting(2.0, _number, positive=True)
    pass_offset: float = _setting(3.0, _number, minimum=0.0)


@dataclass
class RunSectionConfig:
    levels: tuple[float, ...] = _setting((0.0, 0.5, 1.0, 1.5), _levels)
    tracks: int = _setting(10, _int, minimum=1)
    modes: tuple[str, ...] = _setting(MODES, _modes)
    seed_base: int = _setting(1000, _int, minimum=0)


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
            n = (hi - lo) / res  # inf when the extent or the cell count overflows
            cells = round(n) if math.isfinite(n) else 0
            if cells < 1 or abs(n - cells) > 1e-6:
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
        values[key] = known[key].metadata["check"](f"{name}.{key}", value)
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
    # The one rule that spans keys; the library's other checks hold per value.
    cfg.grid_spec()
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
        data = None if node is None else loader.construct_document(node)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_config(data)


def dump_manifest(cfg: Config, path: str) -> None:
    """Write the full effective configuration (defaults included) as YAML."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True, default_flow_style=None)
