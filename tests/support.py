"""Shared scene builders for the test suite."""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from boxlift.clustering import AggregatedInstance, aggregate_static
from boxlift.config import PipelineConfig
from boxlift.extraction import build_tracks
from boxlift.geometry import Box3D, CameraModel, Pose, project_box3d, yaw_rotation
from boxlift.scene import Annotation2D, ObjectTrack, Observation
from boxlift.synthetic import (
    CameraSpec, EgoSpec, ObjectClassSpec, PlacementSpec, SceneConfig, generate_scene,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Camera axes in the world/ego frame when yaw = 0: optical axis +x, image
# x-axis -y (right), image y-axis -z (down).
CAM_BASE = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def transform_box3d(box: Box3D, yaw: float, translation=(0.0, 0.0, 0.0)) -> Box3D:
    """Apply a world-frame rigid transform (rotate about +z, then translate)."""
    c, s = math.cos(yaw), math.sin(yaw)
    t = np.asarray(translation, float)
    return Box3D(
        c * box.cx - s * box.cy + t[0],
        s * box.cx + c * box.cy + t[1],
        box.cz + t[2],
        box.l,
        box.w,
        box.h,
        box.yaw + yaw,
    )


def face_ids(points, box: Box3D) -> np.ndarray:
    """Id of the face of ``box`` each point lies on: axis * 2, plus 1 on the
    positive side.  The face's axis is the one where the point's local
    coordinate is largest relative to the half extent."""
    local = (np.asarray(points, float).reshape(-1, 3) - box.center) @ yaw_rotation(box.yaw)
    axis = np.argmax(np.abs(local) / (0.5 * np.array([box.l, box.w, box.h])), axis=1)
    return 2 * axis + (local[np.arange(len(local)), axis] > 0)


def identity_pose() -> Pose:
    """The rigid transform that maps every point to itself."""
    return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


def camera_looking(position, yaw_deg: float, fx: float = 600.0,
                   width: int = 960, height: int = 600) -> CameraModel:
    """A camera at ``position`` whose optical axis points along ``yaw_deg``."""
    pose = Pose.from_matrix(yaw_rotation(math.radians(yaw_deg)) @ CAM_BASE,
                            np.asarray(position, float))
    return CameraModel(fx, fx, width / 2, height / 2, width, height, pose)


def rig4() -> tuple[CameraSpec, ...]:
    """Four-camera surround rig (front/left/rear/right)."""
    return tuple(
        CameraSpec(f"cam_{name}", mount_yaw_deg=deg)
        for name, deg in [("front", 0.0), ("left", 90.0), ("rear", 180.0), ("right", -90.0)]
    )


def passing_config(
    seed: int,
    n_cars: int = 3,
    n_frames: int = 10,
    sigma: float = 0.02,
    bleed_fraction: float = 0.0,
    bleed_offset_range=(1.0, 4.0),
    static: bool | None = True,
    density: float = 10.0,
    extra_objects: tuple = (),
    static_fraction: float = 0.74,
) -> SceneConfig:
    """Surround-rig scene whose trajectory fully passes every object.

    This is the geometry where temporal aggregation sees 3+ faces of each
    static object, which is what the coarse fit needs to recover well.
    """
    return SceneConfig(
        scene_id=f"synth-{seed}",
        n_frames=n_frames,
        dt=0.5,
        seed=seed,
        cameras=rig4(),
        ego=EgoSpec(start=(-5.0, 0.0, 1.8), velocity=(6.0, 0.0, 0.0)),
        objects=(
            ObjectClassSpec(
                "Car", n_cars, (4.0, 4.8), (1.7, 2.0), (1.4, 1.7), (2.0, 6.0),
                static=static, density=density, sigma=sigma,
            ),
            *extra_objects,
        ),
        static_fraction=static_fraction,
        bleed_fraction=bleed_fraction,
        bleed_offset_range=bleed_offset_range,
        placement=PlacementSpec(x_range=(2.0, 18.0), y_range=(-11.0, 11.0)),
    )


def two_view_track(rng: np.random.Generator):
    """A track seen end-on by camera A and laterally by camera B.

    Returns (gt_box, track_a_only, track_both); observations carry no
    points, so only the 2D consistency loss applies.
    """
    l = rng.uniform(4.0, 5.0)
    w = rng.uniform(1.7, 2.0)
    h = rng.uniform(1.4, 1.7)
    gt = Box3D(0.0, 0.0, h / 2, l, w, h, 0.0)
    cam_a = camera_looking([-rng.uniform(18.0, 28.0), rng.uniform(-1.0, 1.0), 1.6], 0.0)
    cam_b = camera_looking([rng.uniform(-1.0, 1.0), -rng.uniform(12.0, 18.0), 1.6], 90.0)

    def obs(cam):
        box2d = project_box3d(cam, gt)
        assert box2d is not None
        ann = Annotation2D("t-0", "Car", "cam", box2d)
        return Observation(ann, cam, np.empty((0, 3)), np.empty(0, dtype=np.int64))

    track_a = ObjectTrack("t-0", "Car", {0: obs(cam_a)})
    track_ab = ObjectTrack("t-0", "Car", {0: obs(cam_a), 1: obs(cam_b)})
    return gt, track_a, track_ab


def single_view_track(points: np.ndarray, camera: CameraModel, box2d,
                      track_id: str = "t-0", class_label: str = "Car") -> ObjectTrack:
    ann = Annotation2D(track_id, class_label, "cam", box2d)
    obs = Observation(ann, camera, np.asarray(points, float), np.arange(len(points)))
    return ObjectTrack(track_id, class_label, {0: obs})


@functools.lru_cache(maxsize=None)
def bench_tracks(name: str) -> tuple[ObjectTrack, ...]:
    """The tracks of ``gen`` on a bench scene (``bench/scenes/<name>.json``),
    extracted with the bench pipeline config.  Only reads the bench files."""
    scene = generate_scene(SceneConfig.from_json_file(BENCH / "scenes" / f"{name}.json"))
    return tuple(build_tracks(scene, PipelineConfig.from_json_file(BENCH / "pipeline.json")))


@functools.lru_cache(maxsize=None)
def dense_coarse_instances() -> tuple[AggregatedInstance, ...]:
    """The aggregated instance of each track of the dense_coarse bench scene
    (2.7k-3.7k points each)."""
    return tuple(aggregate_static(track) for track in bench_tracks("dense_coarse"))


@functools.lru_cache(maxsize=None)
def corridor_instances() -> tuple[AggregatedInstance, ...]:
    """The aggregated instance of each track of the corridor bench scene
    (0.7k-1.9k points each, 3 to 24 clusters at the bench eps and min_pts)."""
    return tuple(aggregate_static(track) for track in bench_tracks("corridor"))
