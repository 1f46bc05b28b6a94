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
from pathlib import Path

import numpy as np

from .config import TYPE_CHECKS
from .errors import ParseError, SceneIoError
from .geometry import Box2D, Box3D, Pose
from .masks import Mask
from .refine import PseudoLabel, QualityRecord
from .scene import Annotation2D, CameraRigEntry, Frame, GtSpan, GtTrack, Scene

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
    if not np.isfinite(points).all():
        raise ParseError("non-finite point coordinates", str(path))
    return points


# ---------------------------------------------------------------------------
# manifest and label parsing helpers
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


def _num(value, path: str) -> float:
    return float(_check(value, "float", path))


def _numbers(values, n: int, path: str, shape: str) -> tuple[float, ...]:
    """A JSON array of exactly ``n`` numbers; ``shape`` names them in the error."""
    if not (isinstance(values, list) and len(values) == n):
        raise ParseError(f"expected {shape}", path)
    return tuple(_num(v, f"{path}/{k}") for k, v in enumerate(values))


def _ints(values, path: str) -> tuple[int, ...]:
    return tuple(_check(values, "Ints", path))


def _opt_num(obj: dict, key: str, path: str) -> float | None:
    """``obj[key]`` as a number, or None when the key is absent or null."""
    return None if obj.get(key) is None else _num(obj[key], f"{path}/{key}")


def _pose(obj, path: str) -> Pose:
    q = _numbers(_get(obj, "q", path), 4, f"{path}/q", "[w, x, y, z]")
    t = _numbers(_get(obj, "t", path), 3, f"{path}/t", "[x, y, z]")
    return _build(Pose, path, q, t)


def _annotation(obj, path: str) -> Annotation2D:
    box = _numbers(_get(obj, "box", path), 4, f"{path}/box", "[x_min, y_min, x_max, y_max]")
    mask = None
    if obj.get("mask") is not None:
        m, mp = obj["mask"], f"{path}/mask"
        mask = _build(
            Mask,
            mp,
            _ints(_get(m, "rle", mp), f"{mp}/rle"),
            _check(_get(m, "width", mp), "int", f"{mp}/width"),
            _check(_get(m, "height", mp), "int", f"{mp}/height"),
        )
    return Annotation2D(
        track_id=_str(obj, "track_id", path),
        class_label=_str(obj, "class", path),
        camera_id=_str(obj, "camera_id", path),
        box=_build(Box2D, f"{path}/box", *box),
        mask=mask,
        mask_confidence=_opt_num(obj, "mask_confidence", path),
    )


def _box3d(values, path: str) -> Box3D:
    return _build(Box3D, path, *_numbers(values, 7, path, "[cx, cy, cz, l, w, h, yaw]"))


def _gt_span(obj, path: str, n_points: int) -> GtSpan:
    span = GtSpan(
        track_id=_str(obj, "track_id", path),
        start=_check(_get(obj, "start", path), "int", f"{path}/start"),
        count=_check(_get(obj, "count", path), "int", f"{path}/count"),
        n_bleed=_check(obj.get("n_bleed", 0), "int", f"{path}/n_bleed"),
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
    boxes = {}
    for fid, values in _check(_get(obj, "boxes", path), "object", f"{path}/boxes").items():
        boxes[_build(int, f"{path}/boxes/{fid}", fid)] = _box3d(values, f"{path}/boxes/{fid}")
    return GtTrack(
        class_label=_str(obj, "class", path),
        static=_check(_get(obj, "static", path), "bool", f"{path}/static"),
        velocity=_numbers(_get(obj, "velocity", path), 3, f"{path}/velocity", "[vx, vy, vz]"),
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
    write_json(scene_to_manifest(scene), directory / "scene.json")
    return directory


def manifest_to_scene(manifest: dict, directory: Path) -> Scene:
    cameras = {}
    for cid, cam in _check(_get(manifest, "cameras", "/"), "object", "/cameras").items():
        path = f"/cameras/{cid}"
        cameras[cid] = CameraRigEntry(
            fx=float(_check(_get(cam, "fx", path), "Positive", f"{path}/fx")),
            fy=float(_check(_get(cam, "fy", path), "Positive", f"{path}/fy")),
            cx=_num(_get(cam, "cx", path), f"{path}/cx"),
            cy=_num(_get(cam, "cy", path), f"{path}/cy"),
            width=_check(_get(cam, "width", path), "PosInt", f"{path}/width"),
            height=_check(_get(cam, "height", path), "PosInt", f"{path}/height"),
            ego_from_camera=_pose(_get(cam, "ego_from_camera", path), f"{path}/ego_from_camera"),
        )
    frames = []
    track_classes: dict[str, str] = {}
    last = None
    for i, fr in enumerate(_check(_get(manifest, "frames", "/"), "array", "/frames")):
        path = f"/frames/{i}"
        frame_id = _check(_get(fr, "frame_id", path), "int", f"{path}/frame_id")
        timestamp = _num(_get(fr, "timestamp", path), f"{path}/timestamp")
        if last is not None and (frame_id <= last[0] or timestamp <= last[1]):
            raise ParseError("frame ids and timestamps must be strictly increasing", path)
        last = (frame_id, timestamp)
        rel = _str(fr, "pointcloud", path)
        annotations = [
            _annotation(a, f"{path}/annotations/{k}")
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
        gt_tracks = {
            tid: _gt_track(gt, f"/gt_tracks/{tid}")
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
            n_points=_check(_get(q, "n_points", "/quality"), "int", "/quality/n_points"),
            n_views=_check(_get(q, "n_views", "/quality"), "int", "/quality/n_views"),
            hull_iou=_opt_num(q, "hull_iou", "/quality"),
            l2d=_opt_num(q, "l2d", "/quality"),
            fit=_opt_num(q, "fit", "/quality"),
        ),
        kept=_check(_get(d, "kept", "/"), "bool", "/kept"),
        drop_reason=None if drop_reason is None else _check(drop_reason, "str", "/drop_reason"),
        confidence=_opt_num(d, "confidence", ""),
        anchor_frame_id=None if anchor is None else _check(anchor, "int", "/anchor_frame_id"),
    )
    return _build(PseudoLabel, "/", **fields)


def write_pseudo_labels(labels, path) -> None:
    lines = [json.dumps(_label_to_dict(lb), sort_keys=True) for lb in labels]
    _atomic_write(Path(path), "".join(line + "\n" for line in lines).encode())


def read_pseudo_labels(path) -> list[PseudoLabel]:
    path = Path(path)
    if not path.exists():
        raise SceneIoError(f"missing label file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", str(path)) from exc
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            labels.append(_label_from_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", lineno) from exc
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from exc
    return labels
