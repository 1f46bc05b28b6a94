"""Pipeline configuration: every tunable threshold in one place.

Each field of a config dataclass declares its type and range in its
annotation: ``Positive`` is a number > 0, ``Unit`` a number in [0, 1],
``Count`` an integer >= 0, ``Centroid`` one of two names, and so on.
``check_field_types`` reads the annotation's row of ``TYPE_CHECKS`` and
raises ``ConfigError`` naming the key; the manifest and label readers in
``scene_io`` use the same table for the records in ``scene``.
A number must lie within float range.  ``JsonConfig`` is the base of
``PipelineConfig`` and of the synthetic scene specs: its ``from_dict``
rejects unknown and missing keys, naming the section, turns JSON arrays
into tuples and builds nested specs from their annotations; ``to_dict`` is
its inverse.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import MISSING, dataclass, field

from .errors import ConfigError

# Class-specific confidence gates for pseudo-label filtering.
DEFAULT_TAU_CONF = {"Car": 0.5, "Pedestrian": 0.4}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # False for NaN, and no OverflowError on an integer past float range.
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_unit(v) -> bool:
    return _is_real(v) and 0 <= v <= 1


def _is_range(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_real, v)) and v[0] <= v[1]


def _one_of(*names):
    return (lambda v: v in names, " or ".join(map(repr, names)))


# Field annotations that carry a range or a set of names; each is checked by
# its row of TYPE_CHECKS.  Ranges are [lo, hi] pairs with lo <= hi.
Positive = NonNeg = Unit = float
Count = PosInt = Budget = int
Range = NonNegRange = PosRange = Vec3 = Ints = tuple
Gates = dict                        # class name -> number in [0, 1]
Source = World = Centroid = HullMetric = str
SOURCES = ("coarse", "refined")     # where a pseudo-label's box comes from

# Field annotation (a string under postponed evaluation) or JSON kind ->
# (value test, description in the error message).
TYPE_CHECKS = {
    "float": (_is_real, "a finite number"),
    "float | None": (lambda v: v is None or _is_real(v), "a finite number or null"),
    "Positive": (lambda v: _is_real(v) and v > 0, "a finite number > 0"),
    "NonNeg": (lambda v: _is_real(v) and v >= 0, "a finite number >= 0"),
    "Unit": (_is_unit, "a number in [0, 1]"),
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "Count": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "PosInt": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "Budget": (lambda v: _is_int(v) and 1 <= v <= 100_000, "an integer in [1, 100000]"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "bool | None": (lambda v: v is None or isinstance(v, bool), "true, false or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "Range": (_is_range, "finite numbers [lo, hi], lo <= hi"),
    "NonNegRange": (lambda v: _is_range(v) and v[0] >= 0, "finite numbers [lo, hi], 0 <= lo <= hi"),
    "PosRange": (lambda v: _is_range(v) and v[0] > 0, "finite numbers [lo, hi], 0 < lo <= hi"),
    "Vec3": (lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_real, v)),
             "three finite numbers"),
    "Ints": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)), "a list of integers"),
    "Gates": (lambda v: isinstance(v, dict) and all(isinstance(k, str) and _is_unit(g)
                                                    for k, g in v.items()),
              "an object of class names to numbers in [0, 1]"),
    "Source": _one_of(*SOURCES),
    "World": _one_of("world"),
    "Centroid": _one_of("mean", "median"),
    "HullMetric": _one_of("iou", "coverage"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
}


def check_field_types(obj) -> None:
    """Raise ConfigError naming the first dataclass field whose value does not
    match its annotation; annotations missing from ``TYPE_CHECKS`` are not checked."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        check = TYPE_CHECKS.get(f.type)
        if check is not None and not check[0](value):
            raise ConfigError(f"{f.name} must be {check[1]}, got {value!r}")


def read_json_object(path) -> dict:
    """Load a config file that must hold one JSON object; ConfigError otherwise."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


def _listify(value):
    if isinstance(value, (tuple, list)):
        return [_listify(v) for v in value]
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    return value


def _from_json(hint, value, key: str):
    """A JSON value as the field annotated ``hint`` takes it: a nested spec
    (``EgoSpec``, ``tuple[CameraSpec, ...]``) built by its ``from_dict``, any
    other array as a tuple."""
    if isinstance(hint, type) and issubclass(hint, JsonConfig):
        return hint.from_dict(value, key)
    args = typing.get_args(hint)
    if args and isinstance(args[0], type) and issubclass(args[0], JsonConfig):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be an array, got {value!r}")
        return tuple(args[0].from_dict(v, f"{key}[{i}]") for i, v in enumerate(value))
    return tuple(value) if isinstance(value, list) else value


class JsonConfig:
    """Base of the config dataclasses: field checks, JSON loading and dumping."""

    def __post_init__(self):
        check_field_types(self)

    @classmethod
    def from_dict(cls, d, section: str = "config"):
        if not isinstance(d, dict):
            raise ConfigError(f"{section} must be an object, got {d!r}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(d) - {f.name for f in fields})
        if unknown:
            raise ConfigError(f"{section}: unknown keys {unknown}")
        for f in fields:
            if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{f.name} is missing from {section}")
        hints = typing.get_type_hints(cls)
        return cls(**{key: _from_json(hints[key], value, key) for key, value in d.items()})

    @classmethod
    def from_json_file(cls, path):
        return cls.from_dict(read_json_object(path), str(path))

    def to_dict(self) -> dict:
        return _listify(dataclasses.asdict(self))


@dataclass(frozen=True)
class PipelineConfig(JsonConfig):
    tau_static: Positive = 0.5       # max pairwise centroid displacement, meters
    mask_conf_min: Unit = 0.6        # below this, fall back to the 2D box
    centroid: Centroid = "mean"
    dbscan_eps: Positive = 0.5       # meters
    dbscan_min_pts: PosInt = 10
    min_cluster_points: Count = 10   # quality gate on |C*|
    min_views: Count = 2
    tau_iou: Unit = 0.6              # geometric verification gate
    hull_metric: HullMetric = "iou"  # see verify_geometry
    extent_floor: Positive = 0.05    # meters; minimum box extent
    lambda_2d: NonNeg = 0.5          # weight of the multi-view 2D loss
    mu_fit: NonNeg = 1.0             # weight of the point-fit loss
    refine_budget: Budget = 2000     # objective evaluations per track
    refine: bool = True
    tau_conf: Gates = field(default_factory=lambda: dict(DEFAULT_TAU_CONF))
    tau_conf_default: Unit = 0.5
    z_near: Positive = 1e-3          # meters; camera near plane
    curve_thresholds: Ints = (0, 5, 10, 25, 50, 100, 200)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "curve_thresholds", tuple(self.curve_thresholds))
