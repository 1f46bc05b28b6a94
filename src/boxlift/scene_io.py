"""On-disk formats: scene manifests, .mvpc point clouds, pseudo-label JSONL.

A scene directory holds ``scene.json`` plus one ``.mvpc`` file per frame.
The manifest references point clouds by relative path; clouds are stored
in the ego frame as little-endian float32 triplets.  All writes go through
a temp-file + rename so readers never observe partial files.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import ParseError, SceneIoError
from .geometry import Box2D, Box3D, Pose
from .masks import Mask
from .refine import PseudoLabel, QualityRecord
from .scene import Annotation2D, CameraRigEntry, Frame, GtSpan, GtTrack, Scene

MVPC_MAGIC = b"MVPC"
MVPC_VERSION = 1


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


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
    if not np.isfinite(points).all():
        raise ParseError("non-finite point coordinates", str(path))
    return points


# ---------------------------------------------------------------------------
# manifest and label parsing helpers
# ---------------------------------------------------------------------------


_KINDS = {
    dict: "an object", list: "an array", int: "an integer", bool: "true or false", str: "a string",
}


def _expect(value, kind: type, path: str):
    """Return ``value`` if it is a ``kind`` (a bool is not an integer), else raise."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"expected {_KINDS[kind]}", path)
    return value


def _get(obj: dict, key: str, path: str):
    if key not in _expect(obj, dict, path):
        raise ParseError(f"missing key {key!r}", path)
    return obj[key]


def _str(obj: dict, key: str, path: str) -> str:
    return _expect(_get(obj, key, path), str, f"{path.rstrip('/')}/{key}")


def _num(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError("expected a number", path)
    if not abs(value) <= sys.float_info.max:   # NaN, infinities, integers past float range
        raise ParseError("expected a finite number", path)
    return float(value)


def _ints(values, path: str) -> tuple[int, ...]:
    return tuple(_expect(v, int, f"{path}/{k}") for k, v in enumerate(_expect(values, list, path)))


def _opt_num(obj: dict, key: str, path: str) -> float | None:
    """``obj[key]`` as a number, or None when the key is absent or null."""
    return None if obj.get(key) is None else _num(obj[key], f"{path}/{key}")


def _pose(obj, path: str) -> Pose:
    q = _get(obj, "q", path)
    t = _get(obj, "t", path)
    if not (isinstance(q, list) and len(q) == 4):
        raise ParseError("pose q must be [w, x, y, z]", f"{path}/q")
    if not (isinstance(t, list) and len(t) == 3):
        raise ParseError("pose t must be [x, y, z]", f"{path}/t")
    q = [_num(v, f"{path}/q/{k}") for k, v in enumerate(q)]
    t = [_num(v, f"{path}/t/{k}") for k, v in enumerate(t)]
    try:
        return Pose(np.array(q), np.array(t))
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def _annotation(obj, path: str) -> Annotation2D:
    box = _get(obj, "box", path)
    if not (isinstance(box, list) and len(box) == 4):
        raise ParseError("box must be [x_min, y_min, x_max, y_max]", f"{path}/box")
    try:
        box2d = Box2D(*(_num(v, f"{path}/box") for v in box))
    except ValueError as exc:
        raise ParseError(str(exc), f"{path}/box") from exc
    mask = None
    if obj.get("mask") is not None:
        m, mp = obj["mask"], f"{path}/mask"
        mask = Mask(
            _ints(_get(m, "rle", mp), f"{mp}/rle"),
            _expect(_get(m, "width", mp), int, f"{mp}/width"),
            _expect(_get(m, "height", mp), int, f"{mp}/height"),
        )
    return Annotation2D(
        track_id=_str(obj, "track_id", path),
        class_label=_str(obj, "class", path),
        camera_id=_str(obj, "camera_id", path),
        box=box2d,
        mask=mask,
        mask_confidence=_opt_num(obj, "mask_confidence", path),
    )


def _box3d(values, path: str) -> Box3D:
    if not (isinstance(values, list) and len(values) == 7):
        raise ParseError("box must be [cx, cy, cz, l, w, h, yaw]", path)
    try:
        return Box3D(*(_num(v, path) for v in values))
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def _gt_span(obj, path: str, n_points: int) -> GtSpan:
    span = GtSpan(
        track_id=_str(obj, "track_id", path),
        start=_expect(_get(obj, "start", path), int, f"{path}/start"),
        count=_expect(_get(obj, "count", path), int, f"{path}/count"),
        n_bleed=_expect(obj.get("n_bleed", 0), int, f"{path}/n_bleed"),
        faces=_ints(obj.get("faces", []), f"{path}/faces"),
    )
    if span.start < 0 or span.start + span.count > n_points:
        raise ParseError(f"[start, start + count) is outside the frame's {n_points} points", path)
    if not 0 <= span.n_bleed <= span.count:
        raise ParseError("needs 0 <= n_bleed <= count", path)
    if "faces" in obj and len(span.faces) != span.count:
        raise ParseError(f"{len(span.faces)} faces for {span.count} points", path)
    return span


def _gt_track(obj, path: str) -> GtTrack:
    velocity = _expect(_get(obj, "velocity", path), list, f"{path}/velocity")
    boxes = {}
    for fid, values in _expect(_get(obj, "boxes", path), dict, f"{path}/boxes").items():
        try:
            frame_id = int(fid)
        except ValueError as exc:
            raise ParseError("expected an integer frame id", f"{path}/boxes/{fid}") from exc
        boxes[frame_id] = _box3d(values, f"{path}/boxes/{fid}")
    return GtTrack(
        class_label=_str(obj, "class", path),
        static=_expect(_get(obj, "static", path), bool, f"{path}/static"),
        velocity=tuple(_num(v, f"{path}/velocity/{k}") for k, v in enumerate(velocity)),
        boxes=boxes,
    )


# ---------------------------------------------------------------------------
# scene save / load
# ---------------------------------------------------------------------------


def _annotation_to_dict(ann: Annotation2D) -> dict:
    out = {
        "track_id": ann.track_id,
        "class": ann.class_label,
        "camera_id": ann.camera_id,
        "box": [ann.box.x_min, ann.box.y_min, ann.box.x_max, ann.box.y_max],
    }
    if ann.mask is not None:
        out["mask"] = {
            "rle": list(ann.mask.rle),
            "width": ann.mask.width,
            "height": ann.mask.height,
        }
    if ann.mask_confidence is not None:
        out["mask_confidence"] = ann.mask_confidence
    return out


def scene_to_manifest(scene: Scene) -> dict:
    manifest: dict = {
        "scene_id": scene.scene_id,
        "cameras": {
            cid: {
                "fx": cam.fx,
                "fy": cam.fy,
                "cx": cam.cx,
                "cy": cam.cy,
                "width": cam.width,
                "height": cam.height,
                "ego_from_camera": cam.ego_from_camera.to_dict(),
            }
            for cid, cam in sorted(scene.cameras.items())
        },
        "frames": [
            {
                "frame_id": fr.frame_id,
                "timestamp": fr.timestamp,
                "world_from_ego": fr.world_from_ego.to_dict(),
                "pointcloud": fr.pointcloud,
                "annotations": [_annotation_to_dict(a) for a in fr.annotations],
                **(
                    {
                        "gt_spans": [
                            {
                                "track_id": s.track_id,
                                "start": s.start,
                                "count": s.count,
                                "n_bleed": s.n_bleed,
                                "faces": list(s.faces),
                            }
                            for s in fr.gt_spans
                        ]
                    }
                    if fr.gt_spans is not None
                    else {}
                ),
            }
            for fr in scene.frames
        ],
    }
    if scene.gt_tracks is not None:
        manifest["gt_tracks"] = {
            tid: {
                "class": gt.class_label,
                "static": gt.static,
                "velocity": list(gt.velocity),
                "boxes": {
                    str(fid): list(box.as_array()) for fid, box in sorted(gt.boxes.items())
                },
            }
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
    text = json.dumps(scene_to_manifest(scene), indent=2, sort_keys=True) + "\n"
    _atomic_write(directory / "scene.json", text.encode())
    return directory


def manifest_to_scene(manifest: dict, directory: Path) -> Scene:
    cameras = {}
    for cid, cam in _expect(_get(manifest, "cameras", "/"), dict, "/cameras").items():
        path = f"/cameras/{cid}"
        width = _expect(_get(cam, "width", path), int, f"{path}/width")
        height = _expect(_get(cam, "height", path), int, f"{path}/height")
        fx = _num(_get(cam, "fx", path), f"{path}/fx")
        fy = _num(_get(cam, "fy", path), f"{path}/fy")
        if fx <= 0 or fy <= 0 or width <= 0 or height <= 0:
            raise ParseError("camera intrinsics must be positive", path)
        cameras[cid] = CameraRigEntry(
            fx=fx,
            fy=fy,
            cx=_num(_get(cam, "cx", path), f"{path}/cx"),
            cy=_num(_get(cam, "cy", path), f"{path}/cy"),
            width=width,
            height=height,
            ego_from_camera=_pose(_get(cam, "ego_from_camera", path), f"{path}/ego_from_camera"),
        )
    frames = []
    track_classes: dict[str, str] = {}
    last = None
    for i, fr in enumerate(_expect(_get(manifest, "frames", "/"), list, "/frames")):
        path = f"/frames/{i}"
        frame_id = _expect(_get(fr, "frame_id", path), int, f"{path}/frame_id")
        timestamp = _num(_get(fr, "timestamp", path), f"{path}/timestamp")
        if last is not None and (frame_id <= last[0] or timestamp <= last[1]):
            raise ParseError("frame ids and timestamps must be strictly increasing", path)
        last = (frame_id, timestamp)
        rel = _str(fr, "pointcloud", path)
        annotations = [
            _annotation(a, f"{path}/annotations/{k}")
            for k, a in enumerate(
                _expect(_get(fr, "annotations", path), list, f"{path}/annotations")
            )
        ]
        points = read_mvpc(directory / rel)
        spans = None
        if fr.get("gt_spans") is not None:
            spans = [
                _gt_span(s, f"{path}/gt_spans/{k}", len(points))
                for k, s in enumerate(_expect(fr["gt_spans"], list, f"{path}/gt_spans"))
            ]
        for ann_idx, ann in enumerate(annotations):
            ann_path = f"{path}/annotations/{ann_idx}"
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
        gt_tracks = {
            tid: _gt_track(gt, f"/gt_tracks/{tid}")
            for tid, gt in _expect(manifest["gt_tracks"], dict, "/gt_tracks").items()
        }
    generator = manifest.get("generator")
    return Scene(
        scene_id=_str(manifest, "scene_id", "/"),
        cameras=cameras,
        frames=frames,
        gt_tracks=gt_tracks,
        generator=None if generator is None else _expect(generator, dict, "/generator"),
    )


def load_scene(path) -> Scene:
    """Load a scene from its directory or its manifest path."""
    path = Path(path)
    manifest_path = path / "scene.json" if path.is_dir() else path
    if not manifest_path.exists():
        raise SceneIoError(f"missing manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", str(manifest_path)) from exc
    if not isinstance(manifest, dict):
        raise ParseError("manifest must be a JSON object", "/")
    return manifest_to_scene(manifest, manifest_path.parent)


# ---------------------------------------------------------------------------
# pseudo-label JSONL
# ---------------------------------------------------------------------------


def _label_to_dict(label: PseudoLabel) -> dict:
    q = label.quality
    out = {
        "track_id": label.track_id,
        "class": label.class_label,
        "box": [float(v) for v in label.box.as_array()],
        "frame_of_reference": "world",
        "source": label.source,
        "quality": {
            "n_points": q.n_points,
            "n_views": q.n_views,
            "hull_iou": q.hull_iou,
            "l2d": q.l2d,
            "fit": q.fit,
        },
        "kept": label.kept,
    }
    if label.drop_reason is not None:
        out["drop_reason"] = label.drop_reason
    if label.confidence is not None:
        out["confidence"] = label.confidence
    if label.anchor_frame_id is not None:
        out["anchor_frame_id"] = label.anchor_frame_id
    return out


def _label_from_dict(d) -> PseudoLabel:
    """Parse one label record; ParseError locations are JSON pointers into it."""
    source = _get(d, "source", "/")
    if source not in ("coarse", "refined"):
        raise ParseError(f"bad source {source!r}", "/source")
    if d.get("frame_of_reference", "world") != "world":
        raise ParseError("frame_of_reference must be 'world'", "/frame_of_reference")
    q = _get(d, "quality", "/")
    drop_reason = d.get("drop_reason")
    anchor = d.get("anchor_frame_id")
    fields = dict(
        track_id=_str(d, "track_id", "/"),
        class_label=_str(d, "class", "/"),
        box=_box3d(_get(d, "box", "/"), "/box"),
        source=source,
        quality=QualityRecord(
            n_points=_expect(_get(q, "n_points", "/quality"), int, "/quality/n_points"),
            n_views=_expect(_get(q, "n_views", "/quality"), int, "/quality/n_views"),
            hull_iou=_opt_num(q, "hull_iou", "/quality"),
            l2d=_opt_num(q, "l2d", "/quality"),
            fit=_opt_num(q, "fit", "/quality"),
        ),
        kept=_expect(_get(d, "kept", "/"), bool, "/kept"),
        drop_reason=None if drop_reason is None else _expect(drop_reason, str, "/drop_reason"),
        confidence=_opt_num(d, "confidence", ""),
        anchor_frame_id=None if anchor is None else _expect(anchor, int, "/anchor_frame_id"),
    )
    try:
        return PseudoLabel(**fields)
    except ValueError as exc:
        raise ParseError(str(exc), "/") from exc


def write_pseudo_labels(labels, path) -> None:
    lines = [json.dumps(_label_to_dict(lb), sort_keys=True) for lb in labels]
    _atomic_write(Path(path), "".join(line + "\n" for line in lines).encode())


def read_pseudo_labels(path) -> list[PseudoLabel]:
    path = Path(path)
    if not path.exists():
        raise SceneIoError(f"missing label file: {path}")
    labels = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            labels.append(_label_from_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", lineno) from exc
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from exc
    return labels
