"""On-disk formats: scene manifests, .mvpc point clouds, pseudo-label JSONL.

A scene directory holds ``scene.json`` plus one ``.mvpc`` file per frame.
The manifest references point clouds by relative path; clouds are stored
in the ego frame as little-endian float32 triplets.  All writes go through
a temp-file + rename so readers never observe partial files.

A record below the top level (camera, annotation, mask, ground-truth span
and track, label and its quality) is stored as its dataclass (the camera
``geometry.CameraModel``, the mask ``masks.Mask``, the rest in ``scene``):
one key per field, named by the field or by its ``json`` metadata.
``_record`` reads a record, checking each value against the
``TYPE_CHECKS`` row its annotation names unless a reader is given for the
field; ``_plain`` writes it and leaves out a None whose field defaults to
None.  A new field therefore needs no reader or writer of its own.  Checks
against other records (span bounds, box keys that are frame ids, a box
inside its image, one class per track, one label per track) stay
hand-written.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import struct
import typing
from dataclasses import MISSING
from pathlib import Path, PurePosixPath

import numpy as np

from .config import RANGES, TYPE_CHECKS
from .errors import ParseError, SceneIoError
from .geometry import Box2D, Box3D, CameraModel, Pose
from .masks import Mask
from .scene import Annotation2D, Frame, GtSpan, GtTrack, PseudoLabel, QualityRecord, Scene

MVPC_MAGIC = b"MVPC"
MVPC_VERSION = 1


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path) -> None:
    """Write ``obj`` as indented, key-sorted JSON with a trailing newline."""
    _atomic_write(Path(path), (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


# ---------------------------------------------------------------------------
# .mvpc binary point clouds
# ---------------------------------------------------------------------------


def write_mvpc(path, points: np.ndarray) -> None:
    pts = np.ascontiguousarray(np.asarray(points, dtype="<f4").reshape(-1, 3))
    header = MVPC_MAGIC + struct.pack("<HI", MVPC_VERSION, len(pts))
    _atomic_write(Path(path), header + pts.tobytes())


def read_mvpc(path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise SceneIoError(f"missing point cloud file: {path}")
    data = path.read_bytes()
    if len(data) < 10 or data[:4] != MVPC_MAGIC:
        raise ParseError("not an MVPC file", str(path))
    version, count = struct.unpack("<HI", data[4:10])
    if version != MVPC_VERSION:
        raise ParseError(f"unsupported MVPC version {version}", str(path))
    expected = 10 + count * 12
    if len(data) != expected:
        raise ParseError(f"expected {expected} bytes, found {len(data)}", str(path))
    points = np.frombuffer(data, dtype="<f4", offset=10).reshape(count, 3).copy()
    # One reduction: NaN fails the comparison, and so does an infinity.
    if not np.abs(points).max(initial=0.0) <= RANGES["Position"][1]:
        raise ParseError(f"point coordinates must be {TYPE_CHECKS['Position'][1]}", str(path))
    return points


# ---------------------------------------------------------------------------
# manifest and label records
# ---------------------------------------------------------------------------


def _check(value, kind: str, path: str):
    """Return ``value`` if it passes the ``kind`` row of ``TYPE_CHECKS``, else raise."""
    test, description = TYPE_CHECKS[kind]
    if not test(value):
        raise ParseError(f"expected {description}", path)
    return value


def _build(cls, path: str, *args, **kwargs):
    """Construct ``cls``; the ValueError of a broken invariant becomes a ParseError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def _get(obj: dict, key: str, path: str):
    if key not in _check(obj, "object", path):
        raise ParseError(f"missing key {key!r}", path)
    return obj[key]


def _str(obj: dict, key: str, path: str) -> str:
    return _check(_get(obj, key, path), "str", f"{path.rstrip('/')}/{key}")


def _numbers(values, n: int, path: str, shape: str, kind: str = "float") -> tuple[float, ...]:
    """A JSON array of exactly ``n`` numbers of the ``kind`` row, ``shape`` in errors."""
    if not (isinstance(values, list) and len(values) == n):
        raise ParseError(f"expected {shape}", path)
    return tuple(float(_check(v, kind, f"{path}/{k}")) for k, v in enumerate(values))


@functools.cache
def _layout(cls) -> tuple:
    """(field, JSON key, whether it holds a float) per field of record type ``cls``."""
    hints = typing.get_type_hints(cls)
    floats = {name for name, hint in hints.items() if float in (hint, *typing.get_args(hint))}
    return tuple((f, f.metadata.get("json", f.name), f.name in floats)
                 for f in dataclasses.fields(cls))


def _record(cls, obj, path: str, **readers):
    """Read the record dataclass ``cls`` from the JSON object ``obj`` at ``path``.

    A field is stored under its name, or under its ``json`` metadata.  The
    field's reader in ``readers`` reads it, called with the value and its
    JSON pointer; without one, the value must pass the ``TYPE_CHECKS`` row
    the annotation names, and then an array becomes a tuple and a number in
    a float field a float (an integer past int64 would make numpy build an
    object array from it).  A field with a default may be absent.
    """
    _check(obj, "object", path)
    values = {}
    for f, key, holds_float in _layout(cls):
        if key not in obj:
            if f.default is MISSING:
                raise ParseError(f"missing key {key!r}", path)
            continue
        value, where = obj[key], f"{path.rstrip('/')}/{key}"
        if f.name in readers:
            value = readers[f.name](value, where)
        else:
            _check(value, f.type, where)
            if holds_float and value is not None:
                value = float(value)
            elif isinstance(value, list):
                value = tuple(value)
        values[f.name] = value
    return _build(cls, path, **values)


def _plain(record, **writers) -> dict:
    """The JSON object that ``_record`` reads back as ``record``; ``writers``
    invert its ``readers``.  A None whose field defaults to None is left out."""
    out = {}
    for f, key, _ in _layout(type(record)):
        value = getattr(record, f.name)
        if value is None and f.default is None:
            continue
        out[key] = writers[f.name](value) if f.name in writers else value
    return out


def _pose(obj, path: str) -> Pose:
    q = _numbers(_get(obj, "q", path), 4, f"{path}/q", "[w, x, y, z]")
    t = _numbers(_get(obj, "t", path), 3, f"{path}/t", "[x, y, z]", "Position")
    return _build(Pose, path, q, t)


def _box2d(values, path: str) -> Box2D:
    return _build(Box2D, path, *_numbers(values, 4, path, "[x_min, y_min, x_max, y_max]"))


def _box3d(values, path: str) -> Box3D:
    return _build(Box3D, path, *_numbers(values, 7, path, "[cx, cy, cz, l, w, h, yaw]"))


def _box_list(box: Box2D | Box3D) -> list:
    return box.as_array().tolist()


def _gt_span(obj, path: str, n_points: int) -> GtSpan:
    span = _record(GtSpan, obj, path)
    if span.start < 0 or span.start + span.count > n_points:
        raise ParseError(f"[start, start + count) is outside the frame's {n_points} points", path)
    if not 0 <= span.n_bleed <= span.count:
        raise ParseError("needs 0 <= n_bleed <= count", path)
    return span


def _gt_boxes(obj, path: str, frame_ids: set[str]) -> dict[int, Box3D]:
    """Ground-truth boxes, each keyed by one of the ``frame_ids`` in decimal."""
    boxes = {}
    for key, values in _check(obj, "object", path).items():
        if key not in frame_ids:
            raise ParseError("not the frame_id of any frame", f"{path}/{key}")
        boxes[int(key)] = _box3d(values, f"{path}/{key}")
    return boxes


# ---------------------------------------------------------------------------
# scene save / load
# ---------------------------------------------------------------------------


def scene_to_manifest(scene: Scene) -> dict:
    manifest: dict = {
        "scene_id": scene.scene_id,
        "cameras": {
            cid: _plain(cam, pose=Pose.to_dict)
            for cid, cam in sorted(scene.cameras.items())
        },
        "frames": [
            {
                "frame_id": fr.frame_id,
                "timestamp": fr.timestamp,
                "world_from_ego": fr.world_from_ego.to_dict(),
                "pointcloud": fr.pointcloud,
                "annotations": [_plain(a, box=_box_list, mask=_plain) for a in fr.annotations],
                **({} if fr.gt_spans is None else {"gt_spans": [_plain(s) for s in fr.gt_spans]}),
            }
            for fr in scene.frames
        ],
    }
    if scene.gt_tracks is not None:
        manifest["gt_tracks"] = {
            tid: _plain(gt, boxes=lambda boxes: {str(f): _box_list(b) for f, b in boxes.items()})
            for tid, gt in sorted(scene.gt_tracks.items())
        }
    if scene.generator is not None:
        manifest["generator"] = scene.generator
    return manifest


def save_scene(scene: Scene, directory) -> Path:
    """Write scene.json plus per-frame .mvpc files; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for frame in scene.frames:
        target = directory / frame.pointcloud
        target.parent.mkdir(parents=True, exist_ok=True)
        write_mvpc(target, frame.points_ego)
    write_json(scene_to_manifest(scene), directory / "scene.json")
    return directory


def manifest_to_scene(manifest: dict, directory: Path) -> Scene:
    cameras = {
        cid: _record(CameraModel, cam, f"/cameras/{cid}", pose=_pose)
        for cid, cam in _check(_get(manifest, "cameras", "/"), "object", "/cameras").items()
    }
    frames = []
    track_classes: dict[str, str] = {}
    last = None
    for i, fr in enumerate(_check(_get(manifest, "frames", "/"), "array", "/frames")):
        path = f"/frames/{i}"
        frame_id = _check(_get(fr, "frame_id", path), "int", f"{path}/frame_id")
        timestamp = float(_check(_get(fr, "timestamp", path), "float", f"{path}/timestamp"))
        if last is not None and (frame_id <= last[0] or timestamp <= last[1]):
            raise ParseError("frame ids and timestamps must be strictly increasing", path)
        last = (frame_id, timestamp)
        rel = _str(fr, "pointcloud", path)
        # save_scene writes the cloud back to this path, so it must stay inside the directory.
        cloud = PurePosixPath(rel)
        if cloud.is_absolute() or ".." in cloud.parts:
            raise ParseError("must be a relative path inside the scene directory",
                             f"{path}/pointcloud")
        annotations = [
            _record(Annotation2D, a, f"{path}/annotations/{k}", box=_box2d,
                    mask=lambda m, p: None if m is None else _record(Mask, m, p))
            for k, a in enumerate(
                _check(_get(fr, "annotations", path), "array", f"{path}/annotations")
            )
        ]
        points = read_mvpc(directory / rel)
        spans = None
        if fr.get("gt_spans") is not None:
            spans = [
                _gt_span(s, f"{path}/gt_spans/{k}", len(points))
                for k, s in enumerate(_check(fr["gt_spans"], "array", f"{path}/gt_spans"))
            ]
        frame_tracks: set[str] = set()
        for ann_idx, ann in enumerate(annotations):
            ann_path = f"{path}/annotations/{ann_idx}"
            if ann.track_id in frame_tracks:
                raise ParseError(
                    f"track {ann.track_id!r} is annotated twice in this frame",
                    f"{ann_path}/track_id",
                )
            frame_tracks.add(ann.track_id)
            if ann.camera_id not in cameras:
                raise ParseError(
                    f"annotation references unknown camera {ann.camera_id!r}",
                    f"{ann_path}/camera_id",
                )
            cam = cameras[ann.camera_id]
            box = ann.box
            if box.x_min < 0 or box.y_min < 0 or box.x_max > cam.width or (
                box.y_max > cam.height
            ):
                raise ParseError(
                    f"2D box exceeds the {cam.width}x{cam.height} image",
                    f"{ann_path}/box",
                )
            mask = ann.mask
            if mask is not None and (mask.width, mask.height) != (cam.width, cam.height):
                raise ParseError(
                    f"{mask.width}x{mask.height} mask on the {cam.width}x{cam.height} image",
                    f"{ann_path}/mask",
                )
            first = track_classes.setdefault(ann.track_id, ann.class_label)
            if ann.class_label != first:
                raise ParseError(
                    f"track {ann.track_id!r} was annotated {first!r} in an earlier annotation",
                    f"{ann_path}/class",
                )
        frames.append(
            Frame(
                frame_id=frame_id,
                timestamp=timestamp,
                world_from_ego=_pose(_get(fr, "world_from_ego", path), f"{path}/world_from_ego"),
                pointcloud=rel,
                annotations=annotations,
                points_ego=points,
                gt_spans=spans,
            )
        )
    gt_tracks = None
    if manifest.get("gt_tracks") is not None:
        frame_ids = {str(fr.frame_id) for fr in frames}
        gt_tracks = {
            tid: _record(GtTrack, gt, f"/gt_tracks/{tid}",
                         boxes=lambda obj, path: _gt_boxes(obj, path, frame_ids))
            for tid, gt in _check(manifest["gt_tracks"], "object", "/gt_tracks").items()
        }
    generator = manifest.get("generator")
    if generator is not None:
        # Reports echo the seed, and their schema allows an integer or null.
        seed = _check(generator, "object", "/generator").get("seed")
        if seed is not None:
            _check(seed, "int", "/generator/seed")
    return Scene(
        scene_id=_str(manifest, "scene_id", "/"),
        cameras=cameras,
        frames=frames,
        gt_tracks=gt_tracks,
        generator=generator,
    )


def load_scene(path) -> Scene:
    """Load a scene from its directory or its manifest path."""
    path = Path(path)
    manifest_path = path / "scene.json" if path.is_dir() else path
    if not manifest_path.exists():
        raise SceneIoError(f"missing manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON: {exc}", str(manifest_path)) from exc
    if not isinstance(manifest, dict):
        raise ParseError("manifest must be a JSON object", "/")
    return manifest_to_scene(manifest, manifest_path.parent)


# ---------------------------------------------------------------------------
# pseudo-label JSONL
# ---------------------------------------------------------------------------


def write_pseudo_labels(labels, path) -> None:
    lines = [json.dumps(_plain(lb, box=_box_list, quality=_plain), sort_keys=True)
             for lb in labels]
    _atomic_write(Path(path), "".join(line + "\n" for line in lines).encode())


def read_pseudo_labels(path) -> list[PseudoLabel]:
    path = Path(path)
    if not path.exists():
        raise SceneIoError(f"missing label file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", str(path)) from exc
    labels: dict[str, PseudoLabel] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            label = _record(PseudoLabel, json.loads(line), "/", box=_box3d,
                            quality=functools.partial(_record, QualityRecord))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", lineno) from exc
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from exc
        if label.track_id in labels:
            raise ParseError(f"a second label for track {label.track_id!r}", lineno)
        labels[label.track_id] = label
    return list(labels.values())
