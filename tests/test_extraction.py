import math

import numpy as np
import pytest

from boxlift.config import PipelineConfig
from boxlift.extraction import (
    build_tracks,
    classify_motion,
    extraction_mask,
    track_centroids,
)
from boxlift.geometry import Box2D, CameraModel, Pose
from boxlift.masks import Mask, encode_mask
from boxlift.refine import annotate_track, stage_tracks
from boxlift.scene import Annotation2D, Frame, Scene
from boxlift.synthetic import SceneConfig, generate_scene
from reference import extraction_per_annotation, point_in_mask, project_point
from support import BENCH, CAM_BASE, DEFAULTS, camera_looking, identity_pose, passing_config


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
    return pts[extraction_mask(camera, pts, annotation, DEFAULTS.mask_conf_min, DEFAULTS.z_near)]


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
        keep = extraction_mask(self.cam, pts, ann, DEFAULTS.mask_conf_min, DEFAULTS.z_near)
        keep_perm = extraction_mask(self.cam, pts[perm], ann, DEFAULTS.mask_conf_min,
                                    DEFAULTS.z_near)
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
        keep_big = extraction_mask(self.cam, pts, ann_big, DEFAULTS.mask_conf_min, DEFAULTS.z_near)
        keep_small = extraction_mask(self.cam, pts, ann_small, DEFAULTS.mask_conf_min,
                                     DEFAULTS.z_near)
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
            classify_motion(np.empty((0, 3)), DEFAULTS.tau_static)

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
        for track in build_tracks(scene, DEFAULTS):
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
            cents = track_centroids(track, DEFAULTS.centroid)
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
        tracks = build_tracks(scene, DEFAULTS)
        ids = [t.track_id for t in tracks]
        assert ids == sorted(ids)
        annotated = {a.track_id for f in scene.frames for a in f.annotations}
        assert set(ids) == annotated
        frames = {f.frame_id: f for f in scene.frames}
        for track in tracks:
            for fid, obs in track.observations.items():
                rig = scene.cameras[obs.annotation.camera_id]
                expected = rig.posed(frames[fid].world_from_ego).pose
                assert obs.camera.fx == rig.fx and obs.camera.width == rig.width
                assert np.array_equal(obs.camera.pose.t, expected.t)
                assert np.array_equal(obs.camera.pose.q, expected.q)

    def test_median_centroid_mode(self):
        scene = generate_scene(passing_config(38, n_cars=1, n_frames=4))
        track = build_tracks(scene, DEFAULTS)[0]
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
        rig = CameraModel(500, 500, 400, 225, 800, 450,
                          Pose.from_matrix(CAM_BASE, np.zeros(3)))
        tracks = build_tracks(Scene("s", {"cam": rig}, [full, empty]), DEFAULTS)
        assert [t.track_id for t in tracks] == ["a", "b"]
        assert len(tracks[0].observations[0].points) == 2
        for track in tracks:
            obs = track.observations[1]
            assert obs.points.shape == (0, 3) and obs.points.dtype == np.float64
            assert obs.indices.shape == (0,) and obs.indices.dtype == np.int64
        label = annotate_track(tracks[1], DEFAULTS, stage_tracks([tracks[1]], DEFAULTS)[0])
        assert not label.kept and label.drop_reason == "empty"


def assert_matches_per_annotation(scene, cfg, track_ids=None):
    """``build_tracks`` (and ``extraction_mask`` for each annotation) keeps
    exactly the points, and poses exactly the cameras, of the per-annotation
    oracle."""
    expected = extraction_per_annotation(scene, cfg)
    if track_ids is not None:
        expected = {tid: obs for tid, obs in expected.items() if tid in track_ids}
    tracks = build_tracks(scene, cfg, track_ids)
    assert [t.track_id for t in tracks] == sorted(expected)
    frames = {f.frame_id: f for f in scene.frames}
    for track in tracks:
        assert list(track.observations) == list(expected[track.track_id])
        for fid, obs in track.observations.items():
            idx, cam = expected[track.track_id][fid]
            pts = frames[fid].points_world
            assert obs.indices.dtype == np.int64
            assert np.array_equal(obs.indices, idx)
            assert np.array_equal(obs.points, pts[idx])
            pose, expected_pose = obs.camera.pose, cam.pose
            assert np.array_equal(pose.q, expected_pose.q)
            assert np.array_equal(pose.t, expected_pose.t)
            keep = extraction_mask(cam, pts, obs.annotation, cfg.mask_conf_min, cfg.z_near)
            assert np.array_equal(np.flatnonzero(keep), idx)
    return tracks


# A 10 x 5 image seen by cameras whose axes are the world's: with fx = fy = 10,
# cx = cy = 0 and every point at depth 10, a point (x, y, 10) lands exactly on
# pixel (x - camera x, y).
WIDTH, HEIGHT = 10, 5


def grid_frame(frame_id, annotations, depths=(10.0,)):
    xs = [-0.5, -1e-3, 0.0, 0.5, 1.0, 2.0, 3.5, 4.0, 6.0, 9.0, 9.999, 10.0, 10.5, 11.0, 1e12]
    ys = [-0.25, 0.0, 1.0, 2.5, 4.0, 4.75, 5.0, 6.0, -1e12]
    pts = [(x, y, z) for z in depths for x in xs for y in ys]
    frame = make_frame(pts, frame_id)
    frame.annotations.extend(annotations)
    return frame


def axis_camera(x):
    return CameraModel(10.0, 10.0, 0.0, 0.0, WIDTH, HEIGHT,
                       Pose.from_matrix(np.eye(3), np.array([x, 0.0, 0.0])))


class TestBuildTracksMatchesPerAnnotation:
    @pytest.mark.parametrize("name", ["tiny", "static_multiview", "dense_coarse", "corridor"])
    def test_bench_scenes(self, name):
        scene = generate_scene(SceneConfig.from_json_file(BENCH / "scenes" / f"{name}.json"))
        cfg = PipelineConfig.from_json_file(BENCH / "pipeline.json")
        tracks = assert_matches_per_annotation(scene, cfg)
        assert sum(len(t.observations) for t in tracks) == sum(
            len(f.annotations) for f in scene.frames)
        assert_matches_per_annotation(scene, cfg, {t.track_id for t in tracks[::2]})

    @pytest.mark.parametrize("cfg", [PipelineConfig(), PipelineConfig(mask_conf_min=0.4),
                                     PipelineConfig(mask_conf_min=1.0, z_near=10.0)],
                             ids=["default", "conf-0.4", "conf-1-z-10"])
    def test_hand_built_edges(self, cfg):
        n = WIDTH * HEIGHT
        rng = np.random.default_rng(40)
        box = Box2D(2.0, 1.0, 4.0, 4.0)
        whole = Box2D(0.0, 0.0, WIDTH, HEIGHT)

        def ann(track_id, camera_id, rle=None, confidence=None, box2d=box):
            mask = None if rle is None else Mask(tuple(rle), WIDTH, HEIGHT)
            return Annotation2D(track_id, "Car", camera_id, box2d, mask, confidence)

        frames = [
            # Two annotations of camera a, one of camera b, in one frame.
            grid_frame(0, [ann("lead-zero", "a", (0, 3, n - 3), 0.9),
                           ann("last-fg", "b", (n - 12, 12), 0.9),
                           ann("box", "a")]),
            # Points behind, on and just past the near plane of either config.
            grid_frame(1, [ann("lead-zero", "a", (0, n), 0.6),
                           ann("last-fg", "a", (n,), 0.9),
                           ann("box", "b", box2d=whole),
                           ann("zero-runs", "a", (5, 0, 3, 0, 0, 22, n - 30), None)],
                       depths=(-10.0, 0.0, 1e-4, 1e-3, 2e-3, 10.0, 20.0)),
            # Masks below and at the confidence floor, and a random mask.
            grid_frame(2, [ann("lead-zero", "b", (0, 7, n - 7), 0.5),
                           ann("last-fg", "b", (3, n - 3), 0.4),
                           ann("zero-runs", "a", encode_mask(rng.random((HEIGHT, WIDTH)) < 0.5)
                               .rle, 1.0)]),
            make_frame(np.empty((0, 3)), 3),
        ]
        frames[3].annotations.append(ann("box", "a", (0, n), 1.0))
        scene = Scene("hand", {"a": axis_camera(0.0), "b": axis_camera(1.5)}, frames)
        tracks = assert_matches_per_annotation(scene, cfg)
        assert [t.track_id for t in tracks] == ["box", "last-fg", "lead-zero", "zero-runs"]
        assert any(len(ob.indices) for t in tracks for ob in t.observations.values())
        assert_matches_per_annotation(scene, cfg, {"lead-zero", "box"})
        assert build_tracks(scene, cfg, set()) == []
