"""Experiment configuration: one JSON file drives every subcommand.

The config hash (over the canonical JSON) is stamped into every output file,
so an artifact names the config that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace

from .cones import ConeParams
from .errors import ConfigError
from .fibers import MpFamily
from .potential import TrigPotential

_POWER_OF_TWO_FIELDS = ("n_fiber", "n_x", "n_y", "n_x_base", "n_theta")
# the accepted types of each annotated scalar field: a float field takes an
# int too, and bool, a subclass of int, is accepted only as a bool field
_TYPES = {"int": int, "float": (int, float), "bool": bool}


def _finite(v) -> bool:
    """Whether every number in v, a JSON value, is a finite double: NaN,
    inf and an int no double can hold are not."""
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, (list, tuple)):
        return all(map(_finite, v))
    try:
        return not isinstance(v, (int, float)) or math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    family: MpFamily = field(default_factory=MpFamily)
    potential: TrigPotential = field(
        default_factory=lambda: TrigPotential(
            terms=((0, 1, 0.002), (1, 1, 0.0015))))
    alpha: float = 1.0
    eps_phi: float = 0.04
    iota: float = 0.995
    eps: float = 0.05
    n_fiber: int = 512
    n_x: int = 256
    n_y: int = 256
    n_x_base: int = 512
    n_theta: int = 64
    cone_k: float = 50.0
    anchor_y: float = 0.5
    capacity: int = 128
    phi_tol: float = 1e-9
    power_tol: float = 1e-10
    max_power_iter: int = 10000
    constants_samples: int = 20000
    pair_distance: float = 1e-4
    seed: int = 12345
    exploratory: bool = False

    def __post_init__(self):
        # checked as given, never coerced, so a valid config keeps its hash
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type in _TYPES and (not isinstance(v, _TYPES[f.type])
                                     or isinstance(v, bool) != (f.type == "bool")):
                raise ConfigError(f"{f.name} must be {f.type}, not {v!r}")
        # NaN, inf and integers no double can hold pass every range check
        # below, so none gets that far
        types = {f.name: f.type for f in fields(self)}
        for name, v in self.to_json().items():
            if types.get(name) not in ("int", "bool") and not _finite(v):
                raise ConfigError(f"{name} must be finite, not {v!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        # the cone of every cone check, built here so that its bound on
        # cone_k is a config error
        try:
            object.__setattr__(self, "cone",
                               ConeParams(K=self.cone_k, alpha=self.alpha))
        except ValueError as exc:
            raise ConfigError(f"cone_k: {exc}") from exc
        if self.eps_phi <= 0.0:
            raise ConfigError("eps_phi must be positive")
        if not 0.0 < self.iota < 1.0:
            raise ConfigError("iota must be in (0, 1)")
        if self.eps <= 0.0:
            raise ConfigError("eps must be positive")
        for name in _POWER_OF_TWO_FIELDS:
            v = getattr(self, name)
            if v < 16 or v & (v - 1):
                raise ConfigError(f"{name} must be a power of two >= 16")
        if self.n_x * self.n_y > 1 << 20:
            raise ConfigError("n_x * n_y exceeds the 2^20 node cap")
        if self.n_theta > min(self.n_fiber, 1024):
            raise ConfigError("n_theta must be at most n_fiber and 1024")
        if not 0.0 <= self.anchor_y < 1.0:
            raise ConfigError("anchor_y must lie in [0, 1)")
        if self.capacity < 16:
            raise ConfigError("capacity must be >= 16")
        for name in ("phi_tol", "power_tol", "pair_distance"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.max_power_iter < 1:
            raise ConfigError("max_power_iter must be >= 1")
        if self.constants_samples < 1000:
            raise ConfigError("constants_samples must be >= 1000")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "family":
                out["fiber_family"] = v.to_json()
            elif f.name == "potential":
                out["potential"] = v.to_json()
            else:
                out[f.name] = v
        return out

    @classmethod
    def from_json(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        kwargs = {}
        known = {f.name for f in fields(cls)}
        try:
            for key, value in raw.items():
                # checked before the family's own checks, which a NaN
                # exponent would send into a solve that cannot converge
                if key in ("fiber_family", "potential") and not _finite(value):
                    raise ConfigError(f"{key} must be finite, not {value!r}")
                if key == "fiber_family":
                    kwargs["family"] = MpFamily.from_json(value)
                elif key == "potential":
                    kwargs["potential"] = TrigPotential.from_json(value)
                elif key in known:
                    kwargs[key] = value
                else:
                    raise ConfigError(f"unknown config key: {key}")
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except ValueError as exc:  # also an integer past the parser's digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_json(raw)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)
