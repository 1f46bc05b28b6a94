"""Pipeline configuration: every tunable threshold in one place.

``PipelineConfig`` is the only validator of these settings: every field is
checked for type and range on construction, and a bad value raises
``ConfigError`` naming the key.  ``check_field_types`` is the type check
and ``read_json_object`` the file loader, both shared with the synthetic
scene config.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError

# Class-specific confidence gates for pseudo-label filtering.
DEFAULT_TAU_CONF = {"Car": 0.5, "Pedestrian": 0.4}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_reals(v, n: int) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == n and all(_is_real(x) for x in v)


# Annotations for fixed-length number sequences: a [lo, hi] range with
# lo <= hi, and a 3-vector.
Range = tuple
Vec3 = tuple

# Field annotation (a string under postponed evaluation) -> (type test,
# description in the error message).
_TYPE_CHECKS = {
    "float": (_is_real, "a finite number"),
    "int": (_is_int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "bool | None": (lambda v: v is None or isinstance(v, bool), "true, false or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "Range": (lambda v: _is_reals(v, 2) and v[0] <= v[1], "finite numbers [lo, hi], lo <= hi"),
    "Vec3": (lambda v: _is_reals(v, 3), "three finite numbers"),
}


def check_field_types(obj) -> None:
    """Raise ConfigError naming the first dataclass field whose value does not
    match its annotation; annotations missing from ``_TYPE_CHECKS`` are not checked."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        check = _TYPE_CHECKS.get(f.type)
        if check is not None and not check[0](value):
            raise ConfigError(f"{f.name} must be {check[1]}, got {value!r}")


def read_json_object(path) -> dict:
    """Load a config file that must hold one JSON object; ConfigError otherwise."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


@dataclass(frozen=True)
class PipelineConfig:
    tau_static: float = 0.5          # max pairwise centroid displacement, meters
    mask_conf_min: float = 0.6       # below this, fall back to the 2D box
    centroid: str = "mean"           # "mean" | "median"
    dbscan_eps: float = 0.5          # meters
    dbscan_min_pts: int = 10
    min_cluster_points: int = 10     # quality gate on |C*|
    min_views: int = 2
    tau_iou: float = 0.6             # geometric verification gate
    hull_metric: str = "iou"         # "iou" | "coverage" (see verify_geometry)
    extent_floor: float = 0.05       # meters; minimum box extent
    lambda_2d: float = 0.5           # weight of the multi-view 2D loss
    mu_fit: float = 1.0              # weight of the point-fit loss
    refine_budget: int = 2000        # objective evaluations per track
    refine: bool = True
    tau_conf: dict = field(default_factory=lambda: dict(DEFAULT_TAU_CONF))
    tau_conf_default: float = 0.5
    z_near: float = 1e-3             # meters; camera near plane
    curve_thresholds: tuple = (0, 5, 10, 25, 50, 100, 200)

    def __post_init__(self):
        check_field_types(self)
        if not isinstance(self.tau_conf, dict) or not all(
            isinstance(cls, str) and _is_real(tau) for cls, tau in self.tau_conf.items()
        ):
            raise ConfigError(
                f"tau_conf must be an object of class names to numbers, got {self.tau_conf!r}"
            )
        if not isinstance(self.curve_thresholds, (list, tuple)) or not all(
            _is_int(t) for t in self.curve_thresholds
        ):
            raise ConfigError(
                f"curve_thresholds must be a list of integers, got {self.curve_thresholds!r}"
            )
        object.__setattr__(self, "curve_thresholds", tuple(self.curve_thresholds))
        if self.centroid not in ("mean", "median"):
            raise ConfigError(f"centroid must be 'mean' or 'median', got {self.centroid!r}")
        if self.hull_metric not in ("iou", "coverage"):
            raise ConfigError(f"hull_metric must be 'iou' or 'coverage', got {self.hull_metric!r}")
        for name in ("tau_static", "dbscan_eps", "extent_floor", "z_near"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("lambda_2d", "mu_fit", "refine_budget", "min_cluster_points", "min_views"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        if self.dbscan_min_pts < 1:
            raise ConfigError(f"dbscan_min_pts must be >= 1, got {self.dbscan_min_pts!r}")
        gates = {f"tau_conf[{cls!r}]": tau for cls, tau in self.tau_conf.items()}
        for name in ("mask_conf_min", "tau_iou", "tau_conf_default"):
            gates[name] = getattr(self, name)
        for name, value in gates.items():
            if not 0 <= value <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {value!r}")

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(PipelineConfig)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return PipelineConfig(**d)

    @staticmethod
    def from_json_file(path) -> "PipelineConfig":
        return PipelineConfig.from_dict(read_json_object(path))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["curve_thresholds"] = list(self.curve_thresholds)
        return d
