import math

import numpy as np
import pytest

from boxlift.errors import ConfigError
from boxlift.geometry import project_box3d
from boxlift.scene_io import save_scene
from boxlift.synthetic import EgoSpec, ObjectClassSpec, PlacementSpec, SceneConfig, generate_scene
from reference import points_in_box3d
from support import face_ids, passing_config


def scene_bytes(tmp_path, scene, name):
    out = save_scene(scene, tmp_path / name)
    blobs = [(out / "scene.json").read_bytes()]
    for frame in scene.frames:
        blobs.append((out / frame.pointcloud).read_bytes())
    return b"".join(blobs)


class TestDeterminism:
    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = passing_config(11, n_cars=2, n_frames=4, bleed_fraction=0.02)
        a = generate_scene(cfg)
        b = generate_scene(cfg)
        assert scene_bytes(tmp_path, a, "a") == scene_bytes(tmp_path, b, "b")

    def test_different_seed_differs(self, tmp_path):
        cfg = passing_config(11, n_cars=2, n_frames=4)
        a = generate_scene(cfg)
        b = generate_scene(cfg, seed=12)
        assert scene_bytes(tmp_path, a, "a") != scene_bytes(tmp_path, b, "b")


class TestSelfConsistency:
    def test_annotation_box_equals_projected_gt(self):
        scene = generate_scene(passing_config(13, n_cars=3, n_frames=6, bleed_fraction=0.02))
        checked = 0
        for frame in scene.frames:
            for ann in frame.annotations:
                cam = scene.cameras[ann.camera_id].world_camera(frame.world_from_ego)
                gt = scene.gt_tracks[ann.track_id].boxes[frame.frame_id]
                proj = project_box3d(cam, gt)
                assert proj is not None
                assert proj.as_array().tolist() == ann.box.as_array().tolist()
                checked += 1
        assert checked > 10

    def test_annotation_box_within_image(self):
        scene = generate_scene(passing_config(14, n_cars=3, n_frames=6))
        for frame in scene.frames:
            for ann in frame.annotations:
                cam = scene.cameras[ann.camera_id]
                assert 0 <= ann.box.x_min < ann.box.x_max <= cam.width
                assert 0 <= ann.box.y_min < ann.box.y_max <= cam.height


class TestPointModel:
    def test_points_within_inflated_gt_box(self):
        cfg = passing_config(15, n_cars=3, n_frames=6, sigma=0.02)
        scene = generate_scene(cfg)
        inside = 0
        total = 0
        for frame in scene.frames:
            pts = frame.points_world
            for span in frame.gt_spans:
                body = pts[span.start : span.start + span.count - span.n_bleed]
                gt = scene.gt_tracks[span.track_id].boxes[frame.frame_id]
                grown = type(gt)(
                    gt.cx, gt.cy, gt.cz, gt.l + 0.12, gt.w + 0.12, gt.h + 0.12, gt.yaw
                )
                inside += int(points_in_box3d(body, grown).sum())
                total += len(body)
        assert total > 500
        assert inside / total >= 0.99

    def test_bleed_points_outside_box(self):
        cfg = passing_config(16, n_cars=2, n_frames=5, bleed_fraction=0.05,
                             bleed_offset_range=(1.0, 3.0))
        scene = generate_scene(cfg)
        outside = 0
        total = 0
        for frame in scene.frames:
            pts = frame.points_world
            for span in frame.gt_spans:
                if span.n_bleed == 0:
                    continue
                bleed = pts[span.start + span.count - span.n_bleed : span.start + span.count]
                gt = scene.gt_tracks[span.track_id].boxes[frame.frame_id]
                outside += int((~points_in_box3d(bleed, gt)).sum())
                total += span.n_bleed
        assert total > 0
        assert outside / total >= 0.95

    def test_expected_point_count_scale(self):
        # One static box and a static sensor: the expected count per frame
        # is density times the area of faces whose normal faces the sensor.
        density = 10.0
        cfg = SceneConfig(
            n_frames=5,
            seed=21,
            ego=EgoSpec(start=(0.0, 0.0, 1.8), velocity=(0.0, 0.0, 0.0)),
            objects=(
                ObjectClassSpec(
                    "Car", 1, (4.0, 4.0), (2.0, 2.0), (1.5, 1.5),
                    static=True, density=density, sigma=0.0,
                ),
            ),
            placement=PlacementSpec(x_range=(12.0, 12.0), y_range=(0.0, 0.0)),
            bleed_fraction=0.0,
        )
        scene = generate_scene(cfg)
        gt = scene.gt_tracks["obj-000"].boxes[0]
        sensor = np.array([0.0, 0.0, 1.8])
        c, s = math.cos(gt.yaw), math.sin(gt.yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        half = np.array([gt.l, gt.w, gt.h]) / 2
        visible_area = 0.0
        for axis in range(3):
            for sign in (-1, 1):
                normal = np.zeros(3)
                normal[axis] = sign
                center = np.array([gt.cx, gt.cy, gt.cz]) + rot @ (normal * half[axis])
                if np.dot(sensor - center, rot @ normal) > 0:
                    others = [a for a in range(3) if a != axis]
                    visible_area += 4 * half[others[0]] * half[others[1]]
        expected = 5 * density * visible_area
        total = sum(f.n_points for f in scene.frames)
        assert abs(total - expected) < 5 * math.sqrt(expected)

    def test_spans_partition_object_points(self):
        scene = generate_scene(passing_config(17, n_cars=3, n_frames=4, bleed_fraction=0.03))
        for frame in scene.frames:
            spans = sorted(frame.gt_spans, key=lambda s: s.start)
            cursor = 0
            for span in spans:
                assert span.start == cursor
                cursor += span.count
            assert cursor == frame.n_points


class TestKinematics:
    def test_moving_object_displacement(self):
        cfg = SceneConfig(
            n_frames=5,
            dt=0.5,
            seed=22,
            objects=(
                ObjectClassSpec(
                    "Car", 1, (4.2, 4.2), (1.9, 1.9), (1.5, 1.5),
                    speed_range=(2.0, 2.0), static=False,
                ),
            ),
            placement=PlacementSpec(x_range=(10.0, 20.0), y_range=(-5.0, 5.0)),
        )
        scene = generate_scene(cfg)
        gt = scene.gt_tracks["obj-000"]
        assert not gt.static
        first = gt.boxes[0]
        last = gt.boxes[4]  # 2 seconds later at 2 m/s
        dist = math.hypot(last.cx - first.cx, last.cy - first.cy)
        assert dist == pytest.approx(4.0, abs=1e-9)

    def test_static_object_constant_box(self):
        scene = generate_scene(passing_config(23, n_cars=2, n_frames=5))
        for gt in scene.gt_tracks.values():
            assert gt.static
            boxes = list(gt.boxes.values())
            assert all(b == boxes[0] for b in boxes)

    def test_timestamps_strictly_increasing(self):
        scene = generate_scene(passing_config(24, n_cars=1, n_frames=6))
        stamps = [f.timestamp for f in scene.frames]
        ids = [f.frame_id for f in scene.frames]
        assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)
        assert ids == sorted(ids) and len(set(ids)) == len(ids)


class TestFaceCoverage:
    def test_full_pass_covers_three_faces(self):
        # Ego drives past every object with a surround rig: bearings span
        # more than 90 degrees, so at least 3 distinct faces get sampled.
        scene = generate_scene(passing_config(25, n_cars=3, n_frames=10, sigma=0.0))
        for tid, gt in scene.gt_tracks.items():
            bearings = []
            faces = set()
            for frame in scene.frames:
                annotated = any(a.track_id == tid for a in frame.annotations)
                if not annotated:
                    continue
                box = gt.boxes[frame.frame_id]
                sensor = frame.world_from_ego.t
                bearings.append(math.atan2(box.cy - sensor[1], box.cx - sensor[0]))
                for span in frame.gt_spans:
                    if span.track_id == tid:
                        end = span.start + span.count - span.n_bleed
                        faces.update(face_ids(frame.points_world[span.start : end], box).tolist())
            span_deg = math.degrees(
                max(
                    abs(math.remainder(a - b, 2 * math.pi))
                    for a in bearings
                    for b in bearings
                )
            )
            if span_deg > 90:
                assert len(faces) >= 3


class TestConfig:
    def test_config_round_trip(self):
        cfg = passing_config(1, n_cars=2, bleed_fraction=0.02)
        again = SceneConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SceneConfig.from_dict({"frames": 3})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            SceneConfig(n_frames=0)
        with pytest.raises(ConfigError):
            SceneConfig(static_fraction=1.5)
        with pytest.raises(ConfigError):
            ObjectClassSpec("Car", 1, (4, 4), (2, 2), (1.5, 1.5), density=0.0)
        car = {"class_label": "Car", "count": 1, "length_range": [4, 4],
               "width_range": [2, 2], "height_range": [1.5, 1.5]}
        bad = [
            ({"n_frames": "x"}, "n_frames"),
            ({"dt": None}, "dt"),
            ({"static_fraction": "a"}, "static_fraction"),
            ({"objects": [dict(car, count=2.5)]}, "count"),
            ({"objects": [dict(car, length_range=[1, 2, 3])]}, "length_range"),
            ({"cameras": [{"camera_id": "c", "fx": "500"}], "objects": [car]}, "fx"),
            ({"cameras": [{"camera_id": "c", "fx": "500"}]}, "fx"),
            ({"cameras": [{"camera_id": "c", "fx": 0}]}, "fx"),
            ({"cameras": [5]}, "cameras"),
            ({"cameras": 5}, "cameras"),
            ({"objects": car}, "objects"),
            ({"mask_confidence": 2.0}, "mask_confidence"),
            ({"mask_confidence": -0.5}, "mask_confidence"),
            ({"ego": {"velocity": [1, "a", 0]}}, "velocity"),
            ({"placement": {"x_range": [1, float("nan")]}}, "x_range"),
            ({"placement": {"x_range": [40, 8]}}, "x_range"),
            ({"n_background": -1}, "n_background"),
            ({"seed": -1}, "seed"),
            ({"dt": 10**400}, "dt"),
            ({"objects": [dict(car, length_range=[0, 0])]}, "length_range"),
            ({"objects": [dict(car, width_range=[0, 2])]}, "width_range"),
            ({"objects": [dict(car, height_range=[0.0, 0.0])]}, "height_range"),
        ]
        for config, key in bad:
            with pytest.raises(ConfigError, match=key):
                SceneConfig.from_dict(config)

    def test_static_fraction_drives_mix(self):
        cfg = SceneConfig(
            n_frames=2,
            seed=30,
            objects=(
                ObjectClassSpec("Car", 40, (4.2, 4.2), (1.9, 1.9), (1.5, 1.5), static=None),
            ),
            static_fraction=0.74,
            placement=PlacementSpec(x_range=(5.0, 400.0), y_range=(-200.0, 200.0)),
        )
        scene = generate_scene(cfg)
        n_static = sum(gt.static for gt in scene.gt_tracks.values())
        assert 0.5 <= n_static / 40 <= 0.95
