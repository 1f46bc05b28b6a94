"""Object-centric point extraction and static/moving classification.

Extraction keeps a LiDAR point for an annotation when its projection into
the annotation's camera lands inside the instance mask; when the mask is
missing or its confidence is below the configured floor, the 2D box is
used instead.  Each frame is projected once per camera that annotated it,
and each annotation of that camera is tested on the shared pixel
coordinates; a mask is tested on its run-length encoding, so no bitmap is
decoded.  Cameras, poses and points lie in their ``config.RANGES``, so no
projection overflows.  Motion is classified from the per-frame centroids
of the extracted points in the world frame.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .geometry import CameraModel, project_points
from .masks import decode_mask, mask_contains
from .scene import Annotation2D, Observation, ObjectTrack, Scene

# Extraction decodes no mask.  The name stays bound because the benchmark's
# tracer wraps ``boxlift.extraction.decode_mask`` (bench/tracer.py).
_KEPT_FOR_TRACER = (decode_mask,)


def _front_pixels(
    camera: CameraModel, points_world: np.ndarray, z_near: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n,) mask of the points in front of the near plane, and their pixel u and v."""
    uv, front = project_points(camera, points_world, z_near=z_near)
    return front, uv[front, 0], uv[front, 1]


def _hits(u: np.ndarray, v: np.ndarray, annotation: Annotation2D,
          mask_conf_min: float) -> np.ndarray:
    """Which pixels ``(u, v)`` lie in the annotation's mask, or else in its box.

    Mask bounds are tested on the floats, in the mask's own width and
    height, so no out-of-image coordinate reaches the integer cast.
    """
    mask = annotation.mask
    use_mask = mask is not None and (
        annotation.mask_confidence is None or annotation.mask_confidence >= mask_conf_min
    )
    if not use_mask:
        box = annotation.box
        return (u >= box.x_min) & (u <= box.x_max) & (v >= box.y_min) & (v <= box.y_max)
    inside = (u >= 0) & (u < mask.width) & (v >= 0) & (v < mask.height)
    pixels = (np.floor(v[inside]).astype(np.int64) * mask.width
              + np.floor(u[inside]).astype(np.int64))
    hit = np.zeros(len(u), dtype=bool)
    hit[inside] = mask_contains(mask, pixels)
    return hit


def extraction_mask(camera: CameraModel, points_world: np.ndarray, annotation: Annotation2D,
                    mask_conf_min: float, z_near: float) -> np.ndarray:
    """Boolean keep-mask over ``points_world`` for one annotation.

    The test ``build_tracks`` applies, for one annotation alone: project
    the points into ``camera``, then keep those in front of the near plane
    whose pixel lies in the mask, or in the box when the mask is missing or
    its confidence is below ``mask_conf_min``.
    """
    front, u, v = _front_pixels(camera, points_world, z_near)
    keep = front.copy()
    keep[front] = _hits(u, v, annotation, mask_conf_min)
    return keep


@dataclass(frozen=True)
class MotionVerdict:
    is_static: bool
    max_pairwise_displacement: float  # meters
    n_observations: int
    low_evidence: bool = False        # single observation: nothing to compare


def classify_motion(centroids, tau_static: float) -> MotionVerdict:
    """Static iff the max pairwise centroid distance stays below tau_static.

    A single observation carries no motion evidence and defaults to static
    with the low_evidence flag set.
    """
    c = np.asarray(centroids, dtype=float).reshape(-1, 3)
    if len(c) == 0:
        raise ValueError("classify_motion needs at least one centroid")
    if len(c) == 1:
        return MotionVerdict(True, 0.0, 1, low_evidence=True)
    diff = c[:, None, :] - c[None, :, :]
    disp = float(np.sqrt((diff**2).sum(axis=2)).max())
    return MotionVerdict(disp < tau_static, disp, len(c))


def track_centroids(track: ObjectTrack, mode: str) -> np.ndarray:
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


def build_tracks(scene: Scene, config: PipelineConfig,
                 track_ids: Collection[str] | None = None) -> list[ObjectTrack]:
    """Group annotations by track id and extract each observation's points.

    Each frame is posed and projected once per camera that annotated it
    (only the annotations of ``track_ids``, when given), and every such
    annotation keeps the points ``extraction_mask`` would keep, in
    ascending index order.  Returns the tracks sorted by track id.  Each
    observation carries the world-posed camera that produced its
    annotation.
    """
    observations: dict[str, dict[int, Observation]] = {}
    for frame in scene.frames:
        by_camera: dict[str, list[Annotation2D]] = {}
        for ann in frame.annotations:
            if track_ids is None or ann.track_id in track_ids:
                by_camera.setdefault(ann.camera_id, []).append(ann)
        for camera_id, anns in by_camera.items():
            cam = scene.cameras[camera_id].posed(frame.world_from_ego)
            pts = frame.points_world
            front, u, v = _front_pixels(cam, pts, config.z_near)
            front_idx = np.flatnonzero(front)
            for ann in anns:
                idx = front_idx[_hits(u, v, ann, config.mask_conf_min)]
                observations.setdefault(ann.track_id, {})[frame.frame_id] = Observation(
                    ann, cam, pts[idx], idx
                )
    # The loader guarantees that every annotation of a track names one class.
    return [
        ObjectTrack(tid, next(iter(obs.values())).annotation.class_label, obs)
        for tid, obs in sorted(observations.items())
    ]
