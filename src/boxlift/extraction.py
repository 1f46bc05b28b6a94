"""Object-centric point extraction and static/moving classification.

Extraction keeps a LiDAR point for an annotation when its projection into
the annotation's camera lands inside the instance mask; when the mask is
missing or its confidence is below the configured floor, the 2D box is
used instead.  Motion is classified from the per-frame centroids of the
extracted points in the world frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .geometry import CameraModel, project_points
from .masks import decode_mask
from .scene import Annotation2D, Observation, ObjectTrack, Scene

STATIC = "static"
MOVING = "moving"


def extraction_mask(
    camera: CameraModel,
    points_world: np.ndarray,
    annotation: Annotation2D,
    mask_conf_min: float = 0.6,
    z_near: float = 1e-3,
) -> np.ndarray:
    """Boolean keep-mask over ``points_world`` for one annotation."""
    uv, valid = project_points(camera, points_world, z_near=z_near)
    keep = valid.copy()
    if not keep.any():
        return keep
    mask = annotation.mask
    use_mask = mask is not None and (
        annotation.mask_confidence is None or annotation.mask_confidence >= mask_conf_min
    )
    u, v = uv[valid, 0], uv[valid, 1]
    if use_mask:
        bitmap = decode_mask(mask)
        c = np.floor(u).astype(np.int64)
        r = np.floor(v).astype(np.int64)
        in_bounds = (c >= 0) & (c < mask.width) & (r >= 0) & (r < mask.height)
        hit = np.zeros(len(u), dtype=bool)
        hit[in_bounds] = bitmap[r[in_bounds], c[in_bounds]]
    else:
        box = annotation.box
        hit = (u >= box.x_min) & (u <= box.x_max) & (v >= box.y_min) & (v <= box.y_max)
    keep[valid] = hit
    return keep


@dataclass(frozen=True)
class MotionVerdict:
    state: str                        # STATIC or MOVING
    max_pairwise_displacement: float  # meters
    n_observations: int
    low_evidence: bool = False        # single observation: nothing to compare

    @property
    def is_static(self) -> bool:
        return self.state == STATIC


def classify_motion(centroids, tau_static: float = 0.5) -> MotionVerdict:
    """Static iff the max pairwise centroid distance stays below tau_static.

    A single observation carries no motion evidence and defaults to static
    with the low_evidence flag set.
    """
    c = np.asarray(centroids, dtype=float).reshape(-1, 3)
    if len(c) == 0:
        raise ValueError("classify_motion needs at least one centroid")
    if len(c) == 1:
        return MotionVerdict(STATIC, 0.0, 1, low_evidence=True)
    diff = c[:, None, :] - c[None, :, :]
    disp = float(np.sqrt((diff**2).sum(axis=2)).max())
    state = STATIC if disp < tau_static else MOVING
    return MotionVerdict(state, disp, len(c))


def track_centroids(track: ObjectTrack, mode: str = "mean") -> np.ndarray:
    """Per-frame world centroids of the extracted points, frame order.

    Frames whose extraction came up empty are skipped.
    """
    rows = []
    for fid in track.frame_ids:
        pts = track.observations[fid].points
        if len(pts) == 0:
            continue
        rows.append(np.median(pts, axis=0) if mode == "median" else pts.mean(axis=0))
    return np.array(rows).reshape(-1, 3)


def build_tracks(scene: Scene, config: PipelineConfig | None = None) -> list[ObjectTrack]:
    """Group annotations by track id and run extraction for each observation.

    Returns the tracks sorted by track id.  Each observation carries the
    world-posed camera that produced its annotation.
    """
    cfg = config or PipelineConfig()
    observations: dict[str, dict[int, Observation]] = {}
    for frame in scene.frames:
        pts = frame.points_world
        for ann in frame.annotations:
            cam = scene.cameras[ann.camera_id].world_camera(frame.world_from_ego)
            if len(pts):
                keep = extraction_mask(cam, pts, ann, cfg.mask_conf_min, cfg.z_near)
                idx = np.flatnonzero(keep)
                obs = Observation(ann, cam, pts[idx], idx)
            else:
                obs = Observation(ann, cam, np.empty((0, 3)), np.empty(0, dtype=np.int64))
            observations.setdefault(ann.track_id, {})[frame.frame_id] = obs
    # The loader guarantees that every annotation of a track names one class.
    return [
        ObjectTrack(tid, next(iter(obs.values())).annotation.class_label, obs)
        for tid, obs in sorted(observations.items())
    ]
