"""Synthetic driving-scene generator used as the ground-truth oracle.

Objects are boxes on the ground plane observed by an ego vehicle moving
along a configured trajectory.  Per frame, LiDAR-style points are sampled
uniformly on the box faces whose outward normal faces the sensor
(back-face culling), jittered with Gaussian noise, and stored in the ego
frame.  2D annotations are produced by projecting each ground-truth box
through the exact projection code the pipeline uses, so annotation boxes
match ``project_box3d`` of the ground-truth box bit for bit.  Instance
masks are the rasterized silhouette of the projected box corners.  A
configurable fraction of "bleed" outliers is pushed along the sensor ray
past the surface to mimic camera/LiDAR misalignment noise.

Generation is deterministic: every random draw comes from one seeded
generator in a fixed traversal order (object setup, then frames x objects
x faces, then bleed, then background clutter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    Count, JsonConfig, NonNeg, NonNegRange, PosInt, Positive, PosRange, Range, Unit, Vec3,
)
from .errors import ConfigError, DegenerateHull
from .geometry import (
    Box3D, Pose, convex_hull, project_box3d, project_box_silhouette, yaw_rotation,
)
from .masks import encode_mask, rasterize_convex_polygon
from .scene import Annotation2D, CameraRigEntry, Frame, GtSpan, GtTrack, Scene

# Camera axes in the ego frame: +z optical axis forward (+x ego), +x right
# (-y ego), +y down (-z ego).
_CAM_BASE = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


@dataclass(frozen=True)
class CameraSpec(JsonConfig):
    camera_id: str
    fx: Positive = 500.0
    fy: Positive = 500.0
    cx: float = 400.0
    cy: float = 225.0
    width: PosInt = 800
    height: PosInt = 450
    mount_yaw_deg: float = 0.0
    mount_offset: Vec3 = (0.0, 0.0, 0.0)

    def rig_entry(self) -> CameraRigEntry:
        rz = yaw_rotation(math.radians(self.mount_yaw_deg))
        return CameraRigEntry(
            fx=self.fx,
            fy=self.fy,
            cx=self.cx,
            cy=self.cy,
            width=self.width,
            height=self.height,
            ego_from_camera=Pose.from_matrix(rz @ _CAM_BASE, np.asarray(self.mount_offset, float)),
        )


@dataclass(frozen=True)
class EgoSpec(JsonConfig):
    start: Vec3 = (0.0, 0.0, 1.8)
    velocity: Vec3 = (4.0, 0.0, 0.0)    # m/s
    yaw0: float = 0.0
    yaw_rate: float = 0.0               # rad/s

    def pose_at(self, t: float) -> Pose:
        pos = np.asarray(self.start, float) + np.asarray(self.velocity, float) * t
        return Pose.from_yaw(self.yaw0 + self.yaw_rate * t, pos)


@dataclass(frozen=True)
class ObjectClassSpec(JsonConfig):
    class_label: str
    count: Count
    length_range: PosRange
    width_range: PosRange
    height_range: PosRange
    speed_range: NonNegRange = (1.0, 4.0)   # moving objects only, m/s
    static: bool | None = None          # None: sample from static_fraction
    density: Positive = 8.0             # surface points per m^2 per frame
    sigma: NonNeg = 0.02                # sensor noise std, meters


@dataclass(frozen=True)
class PlacementSpec(JsonConfig):
    x_range: Range = (8.0, 40.0)
    y_range: Range = (-10.0, 10.0)
    min_separation: float = 6.0         # BEV meters between object centers
    # Silhouettes of distinct objects must stay this far apart in bearing
    # from every ego position, so one object's mask never swallows another
    # object's points (inter-object occlusion is not modelled).
    min_angular_margin_deg: float = 3.0
    min_sensor_distance: float = 3.0    # BEV meters from ego to any object edge


@dataclass(frozen=True)
class SceneConfig(JsonConfig):
    scene_id: str = "synthetic"
    n_frames: PosInt = 10
    dt: Positive = 0.5                  # seconds between frames
    seed: Count = 0
    cameras: tuple[CameraSpec, ...] = (CameraSpec("cam_front"),)
    ego: EgoSpec = EgoSpec()
    objects: tuple[ObjectClassSpec, ...] = ()
    static_fraction: Unit = 0.74
    bleed_fraction: Unit = 0.02         # share of points turned into outliers
    bleed_offset_range: NonNegRange = (0.0, 0.5)  # meters past the surface, along the ray
    placement: PlacementSpec = PlacementSpec()
    emit_masks: bool = True
    mask_confidence: Unit = 1.0
    n_background: Count = 0             # ground-plane clutter points per frame

    def __post_init__(self):
        super().__post_init__()
        if not self.cameras:
            raise ConfigError("cameras must name at least one camera")
        ids = [spec.camera_id for spec in self.cameras]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"cameras must have distinct camera_id values, got {ids}")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


@dataclass
class _ObjectState:
    track_id: str
    spec: ObjectClassSpec
    size: tuple      # (l, w, h)
    yaw: float
    center0: np.ndarray
    velocity: np.ndarray
    static: bool

    def box_at(self, t: float) -> Box3D:
        c = self.center0 + self.velocity * t
        l, w, h = self.size
        return Box3D(float(c[0]), float(c[1]), float(c[2]), l, w, h, self.yaw)


def _uniform(rng: np.random.Generator, rng_pair) -> float:
    lo, hi = rng_pair
    return float(lo) if hi == lo else float(rng.uniform(lo, hi))


def _placement_ok(
    cfg: SceneConfig,
    times: np.ndarray,
    sensors: np.ndarray,
    cand0: np.ndarray,
    cand_vel: np.ndarray,
    cand_radius: float,
    others: list[_ObjectState],
) -> bool:
    margin = math.radians(cfg.placement.min_angular_margin_deg)
    for t, sensor in zip(times, sensors):
        a = cand0[:2] + cand_vel[:2] * t
        da = float(np.linalg.norm(a - sensor))
        if da < cand_radius + cfg.placement.min_sensor_distance:
            return False
        bearing_a = math.atan2(a[1] - sensor[1], a[0] - sensor[0])
        ang_a = math.atan2(cand_radius, da)
        for other in others:
            radius = 0.5 * math.hypot(other.size[0], other.size[1])
            b = other.center0[:2] + other.velocity[:2] * t
            db = float(np.linalg.norm(b - sensor))
            bearing_b = math.atan2(b[1] - sensor[1], b[0] - sensor[0])
            gap = abs(math.remainder(bearing_a - bearing_b, 2.0 * math.pi))
            if gap < ang_a + math.atan2(radius, db) + margin or (
                float(np.linalg.norm(a - b)) < cfg.placement.min_separation
            ):
                return False
    return True


def _setup_objects(cfg: SceneConfig, rng: np.random.Generator) -> list[_ObjectState]:
    objects: list[_ObjectState] = []
    times = np.arange(cfg.n_frames) * cfg.dt
    sensors = np.array([cfg.ego.pose_at(t).t[:2] for t in times])
    k = 0
    for spec in cfg.objects:
        for _ in range(spec.count):
            l = _uniform(rng, spec.length_range)
            w = _uniform(rng, spec.width_range)
            h = _uniform(rng, spec.height_range)
            static = spec.static if spec.static is not None else bool(
                rng.random() < cfg.static_fraction
            )
            heading = float(rng.uniform(-math.pi, math.pi))
            if static:
                velocity = np.zeros(3)
            else:
                speed = _uniform(rng, spec.speed_range)
                velocity = speed * np.array([math.cos(heading), math.sin(heading), 0.0])
            radius = 0.5 * math.hypot(l, w)
            pos = None
            for _ in range(500):
                cand = np.array(
                    [
                        rng.uniform(*cfg.placement.x_range),
                        rng.uniform(*cfg.placement.y_range),
                        0.5 * h,
                    ]
                )
                if _placement_ok(cfg, times, sensors, cand, velocity, radius, objects):
                    pos = cand
                    break
            if pos is None:
                pos = cand  # crowded config: accept the last sample
            objects.append(
                _ObjectState(
                    track_id=f"obj-{k:03d}",
                    spec=spec,
                    size=(l, w, h),
                    yaw=heading,
                    center0=pos,
                    velocity=velocity,
                    static=static,
                )
            )
            k += 1
    return objects


# Face f covers axis f // 2, positive side when f % 2 == 1.
_FACE_AXES = [(f // 2, 1 if f % 2 else -1) for f in range(6)]


def _sample_object_points(
    box: Box3D, spec: ObjectClassSpec, sensor: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample surface points on the sensor-facing faces, in face order."""
    rot = yaw_rotation(box.yaw)
    half = 0.5 * np.array([box.l, box.w, box.h])
    chunks = []
    for axis, sign in _FACE_AXES:
        normal_local = np.zeros(3)
        normal_local[axis] = sign
        normal_world = rot @ normal_local
        face_center = box.center + rot @ (normal_local * half[axis])
        if float(np.dot(sensor - face_center, normal_world)) <= 0.0:
            continue
        others = [a for a in range(3) if a != axis]
        area = 4.0 * half[others[0]] * half[others[1]]
        n = int(rng.poisson(spec.density * area))
        if n == 0:
            continue
        local = np.zeros((n, 3))
        local[:, axis] = sign * half[axis]
        local[:, others[0]] = rng.uniform(-half[others[0]], half[others[0]], n)
        local[:, others[1]] = rng.uniform(-half[others[1]], half[others[1]], n)
        pts = local @ rot.T + box.center
        if spec.sigma > 0:
            pts = pts + rng.normal(0.0, spec.sigma, (n, 3))
        chunks.append(pts)
    return np.concatenate(chunks) if chunks else np.empty((0, 3))


def _ray_box_exit(
    origin: np.ndarray, directions: np.ndarray, box: Box3D, fallback: np.ndarray
) -> np.ndarray:
    """Distance along each ray to where it leaves the box (slab method).

    Rays that miss the box fall back to the given per-ray distance (the
    surface sample the ray passed through).
    """
    rot = yaw_rotation(box.yaw)
    o = (origin - box.center) @ rot
    d = directions @ rot
    half = 0.5 * np.array([box.l, box.w, box.h])
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - o) / d
        t2 = (half - o) / d
    t_far = np.nanmin(np.maximum(t1, t2), axis=1)
    return np.where(np.isfinite(t_far) & (t_far > 0), np.maximum(t_far, fallback), fallback)


def _silhouette_mask(camera, box, width, height):
    try:
        hull = convex_hull(project_box_silhouette(camera, box))
    except DegenerateHull:
        return None
    bitmap = rasterize_convex_polygon(hull.vertices, width, height)
    if not bitmap.any():
        return None
    return encode_mask(bitmap)


def generate_scene(cfg: SceneConfig, seed: int | None = None) -> Scene:
    """Generate a scene with hidden ground truth; deterministic per (cfg, seed)."""
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    rig = {spec.camera_id: spec.rig_entry() for spec in cfg.cameras}
    objects = _setup_objects(cfg, rng)

    frames: list[Frame] = []
    for i in range(cfg.n_frames):
        t = i * cfg.dt
        ego = cfg.ego.pose_at(t)
        sensor = ego.t
        chunks: list[np.ndarray] = []
        spans: list[GtSpan] = []
        annotations: list[Annotation2D] = []
        cursor = 0
        for obj in objects:
            box = obj.box_at(t)
            pts = _sample_object_points(box, obj.spec, sensor, rng)
            n = len(pts)
            n_bleed = 0
            if n and cfg.bleed_fraction > 0:
                n_bleed = int(rng.binomial(n, cfg.bleed_fraction))
            if n_bleed:
                # Bleed mimics mask pixels that see past the object: the ray
                # continues through the body and lands behind its exit point.
                sel = rng.choice(n, size=n_bleed, replace=False)
                rays = pts[sel] - sensor
                dists = np.linalg.norm(rays, axis=1, keepdims=True)
                rays /= dists
                exit_t = _ray_box_exit(sensor, rays, box, fallback=dists[:, 0])
                off = rng.uniform(*cfg.bleed_offset_range, n_bleed)
                pts = np.concatenate([pts, sensor + rays * (exit_t + off)[:, None]])
            if len(pts):
                chunks.append(pts)
                spans.append(GtSpan(obj.track_id, cursor, len(pts), n_bleed))
                cursor += len(pts)
            # Annotation draws no random numbers, so it may share this loop.
            best = None
            for cid in sorted(rig):
                cam = rig[cid].world_camera(ego)
                proj = project_box3d(cam, box)
                if proj is None:
                    continue
                key = (proj.area, cid)
                if best is None or key > best[0]:
                    best = (key, cid, cam, proj)
            if best is None:
                continue
            _, cid, cam, proj = best
            mask = None
            if cfg.emit_masks:
                mask = _silhouette_mask(cam, box, rig[cid].width, rig[cid].height)
            annotations.append(
                Annotation2D(
                    track_id=obj.track_id,
                    class_label=obj.spec.class_label,
                    camera_id=cid,
                    box=proj,
                    mask=mask,
                    mask_confidence=cfg.mask_confidence if mask is not None else None,
                )
            )
        if cfg.n_background:
            bg = np.column_stack(
                [
                    rng.uniform(*cfg.placement.x_range, cfg.n_background),
                    rng.uniform(*cfg.placement.y_range, cfg.n_background),
                    rng.normal(0.0, 0.02, cfg.n_background),
                ]
            )
            chunks.append(bg)
        points_world = np.concatenate(chunks) if chunks else np.empty((0, 3))
        ego_points = ego.inverse().apply(points_world).astype("<f4") if len(points_world) else np.empty((0, 3), dtype="<f4")
        frames.append(
            Frame(
                frame_id=i,
                timestamp=t,
                world_from_ego=ego,
                pointcloud=f"pc/frame_{i:06d}.mvpc",
                annotations=annotations,
                points_ego=ego_points,
                gt_spans=spans,
            )
        )

    gt_tracks = {
        obj.track_id: GtTrack(
            class_label=obj.spec.class_label,
            static=obj.static,
            velocity=tuple(float(v) for v in obj.velocity),
            boxes={i: obj.box_at(i * cfg.dt) for i in range(cfg.n_frames)},
        )
        for obj in objects
    }
    return Scene(
        scene_id=cfg.scene_id,
        cameras=rig,
        frames=frames,
        gt_tracks=gt_tracks,
        generator={"seed": int(seed), "config": cfg.to_dict()},
    )
