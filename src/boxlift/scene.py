"""Dataset model: scenes, frames, annotations, object tracks and pseudo-labels.

Point clouds are stored in the ego frame (as on disk) and transformed to
world coordinates on first access, using each frame's ego pose; cameras
are ego-frame ``CameraModel``s, posed in the world per observation.  On disk
a record is its fields, each checked on load by the ``config.TYPE_CHECKS``
row its annotation names (see ``scene_io``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import Count, DropReason, Source, Unit, Velocity, World
from .geometry import Box2D, Box3D, CameraModel, Pose
from .masks import Mask


@dataclass(frozen=True)
class Annotation2D:
    track_id: str
    class_label: str = field(metadata={"json": "class"})
    camera_id: str
    box: Box2D
    mask: Mask | None = None
    mask_confidence: Unit | None = None


@dataclass(frozen=True)
class GtSpan:
    """Synthetic-only provenance of a contiguous run of frame points.

    The span covers points [start, start + count); the last ``n_bleed`` of
    them are injected outliers.
    """

    track_id: str
    start: int
    count: int
    n_bleed: int = 0


@dataclass(eq=False)
class Frame:
    frame_id: int
    timestamp: float
    world_from_ego: Pose
    pointcloud: str                      # path relative to the scene directory
    annotations: list[Annotation2D]
    points_ego: np.ndarray               # (n, 3) float32, ego frame
    gt_spans: list[GtSpan] | None = None

    @property
    def n_points(self) -> int:
        return len(self.points_ego)

    @cached_property
    def points_world(self) -> np.ndarray:
        pts = self.world_from_ego.apply(self.points_ego.astype(np.float64))
        pts.flags.writeable = False
        return pts


@dataclass(frozen=True)
class GtTrack:
    """Synthetic-only ground truth for one object instance."""

    class_label: str = field(metadata={"json": "class"})
    static: bool
    velocity: Velocity
    boxes: dict[int, Box3D]              # frame_id -> world-frame box


@dataclass(eq=False)
class Scene:
    scene_id: str
    cameras: dict[str, CameraModel]      # ego-frame cameras
    frames: list[Frame]
    gt_tracks: dict[str, GtTrack] | None = None
    generator: dict | None = None        # synthetic provenance (config echo, seed)

    @property
    def seed(self) -> int | None:
        if self.generator is None:
            return None
        return self.generator.get("seed")


@dataclass(frozen=True)
class Observation:
    """One frame's view of a track: its annotation, world-posed camera and extracted points."""

    annotation: Annotation2D
    camera: CameraModel
    points: np.ndarray                   # (k, 3) world frame
    indices: np.ndarray                  # (k,) indices into the frame's cloud


@dataclass(eq=False)
class ObjectTrack:
    track_id: str
    class_label: str
    observations: dict[int, Observation]  # frame_id -> observation

    def __post_init__(self):
        if not self.observations:
            raise ValueError(f"track {self.track_id!r} has no observations")

    @property
    def frame_ids(self) -> list[int]:
        return sorted(self.observations)

    @property
    def n_views_with_points(self) -> int:
        return sum(1 for ob in self.observations.values() if len(ob.points) > 0)


@dataclass(frozen=True)
class QualityRecord:
    n_points: Count
    n_views: Count
    hull_iou: Unit | None
    l2d: float | None
    fit: float | None


@dataclass(frozen=True)
class PseudoLabel:
    track_id: str
    class_label: str = field(metadata={"json": "class"})
    box: Box3D
    source: Source
    quality: QualityRecord
    kept: bool
    drop_reason: DropReason | None = None
    confidence: Unit | None = None
    anchor_frame_id: int | None = None # frame whose pose the box was fitted at
    frame_of_reference: World = "world"

    def __post_init__(self):
        if not self.kept and self.drop_reason is None:
            raise ValueError("dropped label must carry a drop_reason")
        if self.kept and self.drop_reason is not None:
            raise ValueError("kept label must not carry a drop_reason")
        if self.kept and self.anchor_frame_id is None:
            raise ValueError("kept label must carry an anchor_frame_id")
