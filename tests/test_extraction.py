import math

import numpy as np
import pytest

from boxlift.extraction import (
    build_tracks,
    classify_motion,
    extraction_mask,
    track_centroids,
)
from boxlift.geometry import Box2D, Pose
from boxlift.masks import Mask, encode_mask
from boxlift.refine import annotate_track
from boxlift.scene import Annotation2D, CameraRigEntry, Frame, Scene
from boxlift.synthetic import generate_scene
from reference import point_in_mask, project_point
from support import CAM_BASE, camera_looking, identity_pose, passing_config


def make_frame(points_world, frame_id=0):
    # identity ego pose: ego frame == world frame
    return Frame(
        frame_id=frame_id,
        timestamp=float(frame_id),
        world_from_ego=identity_pose(),
        pointcloud="pc/x.mvpc",
        annotations=[],
        points_ego=np.asarray(points_world, dtype="<f4"),
    )


def masked_points(frame, annotation, camera):
    pts = frame.points_world
    return pts[extraction_mask(camera, pts, annotation)]


class TestExtraction:
    def setup_method(self):
        self.cam = camera_looking([0.0, 0.0, 0.0], 0.0, fx=500.0, width=800, height=450)

    def test_point_in_masked_pixel_kept(self):
        bitmap = np.zeros((450, 800), dtype=bool)
        pix = project_point(self.cam, [10.0, 0.0, 0.0])
        bitmap[int(pix[1]), int(pix[0])] = True
        ann = Annotation2D("t", "Car", "cam", Box2D(0, 0, 800, 450),
                           mask=encode_mask(bitmap), mask_confidence=0.9)
        frame = make_frame([[10.0, 0.0, 0.0], [10.0, 3.0, 0.0]])
        kept = masked_points(frame, ann, self.cam)
        assert kept.shape == (1, 3)
        assert np.allclose(kept[0], [10.0, 0.0, 0.0], atol=1e-6)

    def test_point_behind_camera_dropped(self):
        ann = Annotation2D("t", "Car", "cam", Box2D(0, 0, 800, 450),
                           mask=Mask((0, 800 * 450), 800, 450), mask_confidence=1.0)
        frame = make_frame([[-5.0, 0.0, 0.0]])
        assert len(masked_points(frame, ann, self.cam)) == 0

    def test_full_frame_mask_matches_brute_force(self):
        rng = np.random.default_rng(31)
        pts = np.column_stack([
            rng.uniform(-20, 30, 400), rng.uniform(-25, 25, 400), rng.uniform(-2, 4, 400),
        ])
        ann = Annotation2D("t", "Car", "cam", Box2D(0, 0, 800, 450),
                           mask=Mask((0, 800 * 450), 800, 450), mask_confidence=1.0)
        frame = make_frame(pts)
        got = masked_points(frame, ann, self.cam)
        expected = []
        for p in frame.points_world:
            pix = project_point(self.cam, p)
            if pix is not None and point_in_mask(ann.mask, pix):
                expected.append(tuple(p))
        assert {tuple(p) for p in got} == set(expected)

    def test_low_confidence_mask_falls_back_to_box(self):
        # empty mask would keep nothing; the box keeps the on-axis point
        ann = Annotation2D("t", "Car", "cam", Box2D(390, 215, 410, 235),
                           mask=Mask((800 * 450,), 800, 450), mask_confidence=0.5)
        frame = make_frame([[10.0, 0.0, 0.0], [10.0, 5.0, 0.0]])
        kept = masked_points(frame, ann, self.cam)
        assert len(kept) == 1

    def test_missing_mask_uses_box(self):
        ann = Annotation2D("t", "Car", "cam", Box2D(390, 215, 410, 235))
        frame = make_frame([[10.0, 0.0, 0.0], [10.0, 5.0, 0.0]])
        assert len(masked_points(frame, ann, self.cam)) == 1

    def test_order_independence(self):
        rng = np.random.default_rng(32)
        pts = np.column_stack([
            rng.uniform(5, 25, 200), rng.uniform(-10, 10, 200), rng.uniform(-1, 3, 200),
        ])
        ann = Annotation2D("t", "Car", "cam", Box2D(100, 100, 700, 350))
        perm = rng.permutation(len(pts))
        keep = extraction_mask(self.cam, pts, ann)
        keep_perm = extraction_mask(self.cam, pts[perm], ann)
        assert np.array_equal(keep[perm], keep_perm)

    def test_mask_shrink_monotone(self):
        rng = np.random.default_rng(33)
        pts = np.column_stack([
            rng.uniform(5, 25, 300), rng.uniform(-10, 10, 300), rng.uniform(-1, 3, 300),
        ])
        big = rng.random((450, 800)) < 0.5
        small = big & (rng.random((450, 800)) < 0.5)
        ann_big = Annotation2D("t", "Car", "cam", Box2D(0, 0, 800, 450),
                               mask=encode_mask(big), mask_confidence=1.0)
        ann_small = Annotation2D("t", "Car", "cam", Box2D(0, 0, 800, 450),
                                 mask=encode_mask(small), mask_confidence=1.0)
        keep_big = extraction_mask(self.cam, pts, ann_big)
        keep_small = extraction_mask(self.cam, pts, ann_small)
        assert not np.any(keep_small & ~keep_big)


class TestClassifyMotion:
    def test_small_displacement_static(self):
        v = classify_motion([[0, 0, 0], [0.2, 0.1, 0.0]], tau_static=0.5)
        assert v.is_static is True
        assert v.max_pairwise_displacement == pytest.approx(math.sqrt(0.05), abs=1e-12)
        assert v.n_observations == 2
        assert not v.low_evidence

    def test_large_displacement_moving(self):
        v = classify_motion([[0, 0, 0], [0.6, 0, 0]], tau_static=0.5)
        assert v.is_static is False

    def test_exact_threshold_is_moving(self):
        v = classify_motion([[0, 0, 0], [0.5, 0, 0]], tau_static=0.5)
        assert v.is_static is False  # strict less-than for static

    def test_max_over_all_pairs(self):
        # middle point close to both ends; ends far apart
        v = classify_motion([[0, 0, 0], [0.3, 0, 0], [0.6, 0, 0]], tau_static=0.5)
        assert v.is_static is False
        assert v.max_pairwise_displacement == pytest.approx(0.6)

    def test_single_observation_low_evidence_static(self):
        v = classify_motion([[1, 2, 3]], tau_static=0.5)
        assert v.is_static is True
        assert v.low_evidence
        assert v.max_pairwise_displacement == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            classify_motion(np.empty((0, 3)))

    def test_rigid_invariance(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            cents = rng.uniform(-5, 5, (6, 3))
            yaw = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-20, 20, 3)
            pose = Pose.from_yaw(yaw, t)
            a = classify_motion(cents, 0.5)
            b = classify_motion(pose.apply(cents), 0.5)
            assert a.is_static == b.is_static
            assert a.max_pairwise_displacement == pytest.approx(
                b.max_pairwise_displacement, abs=1e-9
            )

    def test_generator_flags_match_with_margin(self):
        scene = generate_scene(
            passing_config(36, n_cars=4, n_frames=8, sigma=0.01, static=None,
                           static_fraction=0.5)
        )
        for track in build_tracks(scene):
            gt = scene.gt_tracks[track.track_id]
            gt_centers = np.array(
                [
                    [gt.boxes[fid].cx, gt.boxes[fid].cy, gt.boxes[fid].cz]
                    for fid in track.frame_ids
                    if len(track.observations[fid].points) > 0
                ]
            )
            if len(gt_centers) < 2:
                continue
            cents = track_centroids(track)
            # empirical per-frame centroid error, dominated by partial views
            sigma_c = float(
                np.linalg.norm(cents - gt_centers, axis=1).max()
            )
            diff = gt_centers[:, None, :] - gt_centers[None, :, :]
            true_disp = float(np.sqrt((diff**2).sum(axis=2)).max())
            if abs(true_disp - 0.5) <= 3 * sigma_c:
                continue  # ambiguous under viewpoint noise: no claim
            verdict = classify_motion(cents, 0.5)
            assert verdict.is_static == gt.static


class TestBuildTracks:
    def test_tracks_sorted_and_complete(self):
        scene = generate_scene(passing_config(37, n_cars=3, n_frames=5))
        tracks = build_tracks(scene)
        ids = [t.track_id for t in tracks]
        assert ids == sorted(ids)
        annotated = {a.track_id for f in scene.frames for a in f.annotations}
        assert set(ids) == annotated
        frames = {f.frame_id: f for f in scene.frames}
        for track in tracks:
            for fid, obs in track.observations.items():
                rig = scene.cameras[obs.annotation.camera_id]
                expected = rig.world_camera(frames[fid].world_from_ego).world_from_camera
                assert obs.camera.fx == rig.fx and obs.camera.width == rig.width
                assert np.array_equal(obs.camera.world_from_camera.t, expected.t)
                assert np.array_equal(obs.camera.world_from_camera.q, expected.q)

    def test_median_centroid_mode(self):
        scene = generate_scene(passing_config(38, n_cars=1, n_frames=4))
        track = build_tracks(scene)[0]
        mean_c = track_centroids(track, "mean")
        med_c = track_centroids(track, "median")
        assert mean_c.shape == med_c.shape
        assert not np.allclose(mean_c, med_c)

    def test_empty_cloud_gives_empty_observation(self):
        # Frame 1 has no points: its observations are empty, and a track seen
        # only there is dropped as "empty".
        full = make_frame([[10.0, 0.0, 0.0], [10.0, 0.5, 0.0]], frame_id=0)
        empty = make_frame(np.empty((0, 3)), frame_id=1)
        box = Box2D(300, 150, 500, 300)
        full.annotations.append(Annotation2D("a", "Car", "cam", box))
        empty.annotations += [Annotation2D("a", "Car", "cam", box),
                              Annotation2D("b", "Car", "cam", box)]
        rig = CameraRigEntry(500, 500, 400, 225, 800, 450,
                             Pose.from_matrix(CAM_BASE, np.zeros(3)))
        tracks = build_tracks(Scene("s", {"cam": rig}, [full, empty]))
        assert [t.track_id for t in tracks] == ["a", "b"]
        assert len(tracks[0].observations[0].points) == 2
        for track in tracks:
            obs = track.observations[1]
            assert obs.points.shape == (0, 3) and obs.points.dtype == np.float64
            assert obs.indices.shape == (0,) and obs.indices.dtype == np.int64
        label = annotate_track(tracks[1])
        assert not label.kept and label.drop_reason == "empty"
