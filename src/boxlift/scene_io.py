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

from .errors import ParseError, SceneIoError
from .geometry import Box2D, Box3D, Pose
from .masks import Mask
from .refine import PseudoLabel, QualityRecord
from .scene import Annotation2D, CameraRigEntry, Frame, GtSpan, GtTrack, Scene

MVPC_MAGIC = b"MVPC"
MVPC_VERSION = 1


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# .mvpc binary point clouds
# ---------------------------------------------------------------------------


def write_mvpc(path, points: np.ndarray) -> None:
    pts = np.ascontiguousarray(np.asarray(points, dtype="<f4").reshape(-1, 3))
    header = MVPC_MAGIC + struct.pack("<HI", MVPC_VERSION, len(pts))
    _atomic_write_bytes(Path(path), header + pts.tobytes())


def read_mvpc(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
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
    return np.frombuffer(data, dtype="<f4", offset=10).reshape(count, 3).copy()


# ---------------------------------------------------------------------------
# manifest parsing helpers
# ---------------------------------------------------------------------------


_KINDS = {dict: "an object", list: "an array", int: "an integer"}


def _expect(value, kind: type, path: str):
    """Return ``value`` if it is a ``kind`` (a bool is not an integer), else raise."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"expected {_KINDS[kind]}", path)
    return value


def _get(obj: dict, key: str, path: str):
    if key not in _expect(obj, dict, path):
        raise ParseError(f"missing key {key!r}", path)
    return obj[key]


def _num(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError("expected a number", path)
    return float(value)


def _pose(obj, path: str) -> Pose:
    q = _get(obj, "q", path)
    t = _get(obj, "t", path)
    if not (isinstance(q, list) and len(q) == 4):
        raise ParseError("pose q must be [w, x, y, z]", f"{path}/q")
    if not (isinstance(t, list) and len(t) == 3):
        raise ParseError("pose t must be [x, y, z]", f"{path}/t")
    try:
        return Pose(np.asarray(q, float), np.asarray(t, float))
    except (ValueError, TypeError) as exc:
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
        rle = _expect(_get(m, "rle", mp), list, f"{mp}/rle")
        mask = Mask(
            tuple(_expect(v, int, f"{mp}/rle/{k}") for k, v in enumerate(rle)),
            _expect(_get(m, "width", mp), int, f"{mp}/width"),
            _expect(_get(m, "height", mp), int, f"{mp}/height"),
        )
    conf = obj.get("mask_confidence")
    if conf is not None:
        conf = _num(conf, f"{path}/mask_confidence")
    return Annotation2D(
        track_id=str(_get(obj, "track_id", path)),
        class_label=str(_get(obj, "class", path)),
        camera_id=str(_get(obj, "camera_id", path)),
        box=box2d,
        mask=mask,
        mask_confidence=conf,
    )


def _box3d(values, path: str) -> Box3D:
    if not (isinstance(values, list) and len(values) == 7):
        raise ParseError("box must be [cx, cy, cz, l, w, h, yaw]", path)
    try:
        return Box3D(*(_num(v, path) for v in values))
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


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
    _atomic_write_text(directory / "scene.json", text)
    return directory


def manifest_to_scene(manifest: dict, directory: Path) -> Scene:
    cameras = {}
    for cid, cam in _expect(_get(manifest, "cameras", "/"), dict, "/cameras").items():
        path = f"/cameras/{cid}"
        width = int(_num(_get(cam, "width", path), f"{path}/width"))
        height = int(_num(_get(cam, "height", path), f"{path}/height"))
        fx = _num(_get(cam, "fx", path), f"{path}/fx")
        fy = _num(_get(cam, "fy", path), f"{path}/fy")
        if fx <= 0 or fy <= 0 or width <= 0 or height <= 0:
            raise ParseError("camera intrinsics must be positive", path)
        cameras[cid] = CameraRigEntry(
            camera_id=cid,
            fx=fx,
            fy=fy,
            cx=_num(_get(cam, "cx", path), f"{path}/cx"),
            cy=_num(_get(cam, "cy", path), f"{path}/cy"),
            width=width,
            height=height,
            ego_from_camera=_pose(_get(cam, "ego_from_camera", path), f"{path}/ego_from_camera"),
        )
    frames = []
    last = None
    for i, fr in enumerate(_expect(_get(manifest, "frames", "/"), list, "/frames")):
        path = f"/frames/{i}"
        frame_id = int(_num(_get(fr, "frame_id", path), f"{path}/frame_id"))
        timestamp = _num(_get(fr, "timestamp", path), f"{path}/timestamp")
        if last is not None and (frame_id <= last[0] or timestamp <= last[1]):
            raise ParseError("frame ids and timestamps must be strictly increasing", path)
        last = (frame_id, timestamp)
        rel = str(_get(fr, "pointcloud", path))
        annotations = [
            _annotation(a, f"{path}/annotations/{k}")
            for k, a in enumerate(
                _expect(_get(fr, "annotations", path), list, f"{path}/annotations")
            )
        ]
        spans = None
        if fr.get("gt_spans") is not None:
            spans = [
                GtSpan(
                    track_id=str(_get(s, "track_id", f"{path}/gt_spans/{k}")),
                    start=int(s["start"]),
                    count=int(s["count"]),
                    n_bleed=int(s.get("n_bleed", 0)),
                    faces=tuple(int(f) for f in s.get("faces", ())),
                )
                for k, s in enumerate(_expect(fr["gt_spans"], list, f"{path}/gt_spans"))
            ]
        points = read_mvpc(directory / rel)
        for ann_idx, ann in enumerate(annotations):
            if ann.camera_id not in cameras:
                raise ParseError(
                    f"annotation references unknown camera {ann.camera_id!r}",
                    f"{path}/annotations/{ann_idx}/camera_id",
                )
            cam = cameras[ann.camera_id]
            box = ann.box
            if box.x_min < 0 or box.y_min < 0 or box.x_max > cam.width or (
                box.y_max > cam.height
            ):
                raise ParseError(
                    f"2D box exceeds the {cam.width}x{cam.height} image",
                    f"{path}/annotations/{ann_idx}/box",
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
        gt_tracks = {}
        for tid, gt in _expect(manifest["gt_tracks"], dict, "/gt_tracks").items():
            path = f"/gt_tracks/{tid}"
            boxes = _expect(_get(gt, "boxes", path), dict, f"{path}/boxes")
            gt_tracks[tid] = GtTrack(
                class_label=str(_get(gt, "class", path)),
                static=bool(_get(gt, "static", path)),
                velocity=tuple(float(v) for v in _get(gt, "velocity", path)),
                boxes={
                    int(fid): _box3d(b, f"{path}/boxes/{fid}")
                    for fid, b in boxes.items()
                },
            )
    return Scene(
        scene_id=str(_get(manifest, "scene_id", "/")),
        cameras=cameras,
        frames=frames,
        gt_tracks=gt_tracks,
        generator=manifest.get("generator"),
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


def _label_from_dict(d: dict, where: int) -> PseudoLabel:
    for key in ("track_id", "class", "box", "source", "quality", "kept"):
        if key not in d:
            raise ParseError(f"missing key {key!r}", where)
    if d.get("frame_of_reference", "world") != "world":
        raise ParseError("frame_of_reference must be 'world'", where)
    if d["source"] not in ("coarse", "refined"):
        raise ParseError(f"bad source {d['source']!r}", where)
    q = d["quality"]
    try:
        box = _box3d(d["box"], f"line {where}")
        quality = QualityRecord(
            n_points=int(q["n_points"]),
            n_views=int(q["n_views"]),
            hull_iou=None if q.get("hull_iou") is None else float(q["hull_iou"]),
            l2d=None if q.get("l2d") is None else float(q["l2d"]),
            fit=None if q.get("fit") is None else float(q["fit"]),
        )
        return PseudoLabel(
            track_id=str(d["track_id"]),
            class_label=str(d["class"]),
            box=box,
            source=d["source"],
            quality=quality,
            kept=bool(d["kept"]),
            drop_reason=d.get("drop_reason"),
            confidence=None if d.get("confidence") is None else float(d["confidence"]),
            anchor_frame_id=None
            if d.get("anchor_frame_id") is None
            else int(d["anchor_frame_id"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(exc), where) from exc


def write_pseudo_labels(labels, path) -> None:
    lines = [json.dumps(_label_to_dict(lb), sort_keys=True) for lb in labels]
    _atomic_write_text(Path(path), "".join(line + "\n" for line in lines))


def read_pseudo_labels(path) -> list[PseudoLabel]:
    path = Path(path)
    if not path.exists():
        raise SceneIoError(f"missing label file: {path}")
    labels = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", lineno) from exc
        if not isinstance(record, dict):
            raise ParseError("expected a JSON object", lineno)
        labels.append(_label_from_dict(record, lineno))
    return labels
