"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import math
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from boxlift.cli import cli_main
from boxlift.clustering import aggregate_static, dbscan, quality_gate, select_dominant_cluster
from boxlift.coarse import fit_coarse_box, verify_geometry
from boxlift.config import PipelineConfig
from boxlift.errors import DegenerateHull, DegenerateSpread
from boxlift.evaluate import (
    SegmentationInstance,
    build_report,
    segmentation_curve,
)
from boxlift.extraction import build_tracks, classify_motion, track_centroids
from boxlift.geometry import (
    Box2D,
    Box3D,
    Pose,
    convex_hull,
    convex_intersection_area,
    giou_2d,
    iou_3d,
    pca_2d,
    project_box3d,
)
from boxlift.masks import encode_mask
from boxlift.refine import (
    annotate_track,
    filter_pseudo_label,
    l2d_multiview,
    objective_value,
    refine_box,
    stage_tracks,
)
from boxlift.scene import Annotation2D, ObjectTrack
from boxlift.scene_io import scene_to_manifest
from boxlift.synthetic import (
    CameraSpec,
    EgoSpec,
    ObjectClassSpec,
    PlacementSpec,
    SceneConfig,
    generate_scene,
)
from reference import brute_force_dbscan, mc_iou_3d, point_in_convex_polygon
from support import DEFAULTS, passing_config, transform_box3d, two_view_track

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs/report.schema.json").read_text()
)


def verdict(num, name, ok, detail):
    print(f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def random_box(rng, center_spread=1.0):
    return Box3D(
        *rng.uniform(-center_spread, center_spread, 3),
        *rng.uniform(0.5, 3.0, 3),
        rng.uniform(-math.pi, math.pi),
    )


def static_track_pool(seeds, sigma=0.02, bleed=0.0, offsets=(1.0, 4.0), n_cars=3):
    """(scene, track, gt, inst, cluster) tuples from full-pass scenes."""
    pool = []
    for seed in seeds:
        scene = generate_scene(
            passing_config(seed, n_cars=n_cars, n_frames=10, sigma=sigma,
                           bleed_fraction=bleed, bleed_offset_range=offsets)
        )
        for track in build_tracks(scene, DEFAULTS):
            inst = aggregate_static(track)
            labels = dbscan(inst.points_agg, 0.5, 10)
            cluster = select_dominant_cluster(inst, labels)
            gt = scene.gt_tracks[track.track_id].boxes[0]
            pool.append((scene, track, gt, inst, cluster))
    return pool


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------


def test_c01_iou3d_monte_carlo_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    errors = []
    for _ in range(500):
        a = random_box(rng)
        b = Box3D(
            a.cx + rng.uniform(-1.5, 1.5),
            a.cy + rng.uniform(-1.5, 1.5),
            a.cz + rng.uniform(-1.5, 1.5),
            *rng.uniform(0.5, 3.0, 3),
            rng.uniform(-math.pi, math.pi),
        )
        errors.append(abs(iou_3d(a, b) - mc_iou_3d(a, b, 1_000_000, rng)))
    elapsed = time.monotonic() - t0
    mae = float(np.mean(errors))
    ok = mae <= 0.01 and elapsed < 60.0
    verdict(1, "iou_3d vs 1e6-sample Monte-Carlo", ok,
            f"MAE={mae:.5f} (<=0.01), {elapsed:.1f}s (<60s), 500 pairs")


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------


def relabel(labels):
    labels = np.asarray(labels)
    out = np.full(len(labels), -1, dtype=np.int64)
    mapping = {}
    for i, lab in enumerate(labels):
        if lab == -1:
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


def test_c02_dbscan_brute_force_equivalence():
    rng = np.random.default_rng(102)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 201))
        scale = rng.uniform(0.3, 3.0)
        pts = rng.normal(0.0, scale, (n, 3))
        eps = float(rng.uniform(0.1, 1.5))
        min_pts = int(rng.integers(1, 15))
        mine = relabel(dbscan(pts, eps, min_pts))
        ref = relabel(brute_force_dbscan(pts, eps, min_pts))
        if not np.array_equal(mine, ref):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    verdict(2, "DBSCAN vs brute-force reference", ok,
            f"{mismatches} mismatches over 200 sets, {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------


def test_c03_coarse_fit_recovery():
    t0 = time.monotonic()
    # part A: clean scenes (sigma = 0.02, no bleed, no occlusion)
    clean = static_track_pool(range(300, 334), sigma=0.02, bleed=0.0)
    ious = []
    for _scene, _track, gt, inst, cluster in clean:
        if inst.n_views < 5 or cluster.size < 200:
            continue
        box, _ = fit_coarse_box(inst.points_agg[cluster], DEFAULTS.extent_floor)
        ious.append(iou_3d(box, gt))
    mean_clean = float(np.mean(ious))

    # part B: 2% bleed; fits on the cleaned cluster vs the raw aggregate
    bled = static_track_pool(range(400, 434), sigma=0.02, bleed=0.02)
    cluster_ious, raw_ious = [], []
    for _scene, _track, gt, inst, cluster in bled:
        box_c, _ = fit_coarse_box(inst.points_agg[cluster], DEFAULTS.extent_floor)
        box_r, _ = fit_coarse_box(inst.points_agg, DEFAULTS.extent_floor)
        cluster_ious.append(iou_3d(box_c, gt))
        raw_ious.append(iou_3d(box_r, gt))
    elapsed = time.monotonic() - t0
    mean_cluster = float(np.mean(cluster_ious))
    mean_raw = float(np.mean(raw_ious))
    ok = (
        len(ious) >= 100
        and mean_clean >= 0.80
        and mean_cluster > mean_raw
        and elapsed < 120.0
    )
    verdict(3, "coarse-fit recovery", ok,
            f"mean IoU={mean_clean:.3f} (>=0.80, n={len(ious)}); "
            f"with bleed: C*={mean_cluster:.3f} > raw={mean_raw:.3f}; "
            f"{elapsed:.1f}s (<120s)")


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------


def test_c04_multiview_disambiguation():
    rng = np.random.default_rng(104)
    cfg = PipelineConfig(lambda_2d=1.0, mu_fit=0.0, refine_budget=500)
    improved = 0
    err_single, err_both = [], []
    for _ in range(50):
        gt, track_a, track_ab = two_view_track(rng)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        init = Box3D(gt.cx + sign * 0.2 * gt.l, gt.cy, gt.cz,
                     1.2 * gt.l, gt.w, gt.h, gt.yaw)
        empty = np.empty((0, 3))
        one, _ = refine_box(init, track_a, empty, cfg)
        both, _ = refine_box(init, track_ab, empty, cfg)
        e1, e2 = abs(one.l - gt.l), abs(both.l - gt.l)
        err_single.append(e1)
        err_both.append(e2)
        improved += e2 < e1
    mae_single = float(np.mean(err_single))
    mae_both = float(np.mean(err_both))
    ok = improved >= 40 and mae_both < mae_single
    verdict(4, "multi-view length disambiguation", ok,
            f"improved {improved}/50 (>=40), MAE single={mae_single:.3f} "
            f"-> both={mae_both:.3f}")


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------


def test_c05_refinement_descent():
    rng = np.random.default_rng(105)
    pool = static_track_pool(range(500, 509), sigma=0.02)
    cfg = PipelineConfig(refine_budget=300)
    n_descent = 0
    gains = []
    cases = 0
    while cases < 100:
        _scene, track, gt, inst, cluster = pool[cases % len(pool)]
        pts = inst.points_agg[cluster]
        init = Box3D(
            gt.cx + rng.uniform(-0.8, 0.8),
            gt.cy + rng.uniform(-0.8, 0.8),
            gt.cz + rng.uniform(-0.2, 0.2),
            gt.l * rng.uniform(0.75, 1.3),
            gt.w * rng.uniform(0.75, 1.3),
            gt.h * rng.uniform(0.85, 1.2),
            gt.yaw + rng.uniform(-0.3, 0.3),
        )
        j_init = objective_value(init, track, pts, cfg)
        out, _ = refine_box(init, track, pts, cfg)
        j_out = objective_value(out, track, pts, cfg)
        if j_out <= j_init + 1e-12:
            n_descent += 1
        gains.append(iou_3d(out, gt) - iou_3d(init, gt))
        cases += 1
    mean_gain = float(np.mean(gains))
    ok = n_descent == 100 and mean_gain >= 0.05
    verdict(5, "refinement descent", ok,
            f"descent {n_descent}/100 (=100), mean IoU gain {mean_gain:+.3f} (>=0.05)")


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------


def test_c06_l2d_exactness_and_averaging():
    worst = 0.0
    n_tracks = 0
    for seed in range(600, 606):
        scene = generate_scene(
            passing_config(seed, n_cars=3, n_frames=8, sigma=0.0, static=None,
                           static_fraction=0.6)
        )
        for track in build_tracks(scene, DEFAULTS):
            gt_boxes = scene.gt_tracks[track.track_id].boxes
            n_tracks += 1
            if scene.gt_tracks[track.track_id].static:
                worst = max(worst, abs(l2d_multiview(gt_boxes[0], track, DEFAULTS.z_near)))
            else:
                # a moving object's ground truth is per frame
                for fid in track.frame_ids:
                    single = ObjectTrack(
                        track.track_id, track.class_label,
                        {fid: track.observations[fid]},
                    )
                    worst = max(worst, abs(l2d_multiview(gt_boxes[fid], single, DEFAULTS.z_near)))

    # averaging identity: adding a view combines as a weighted mean, 1e-12
    rng = np.random.default_rng(106)
    scene = generate_scene(passing_config(610, n_cars=2, n_frames=8, sigma=0.02))
    identity_err = 0.0
    for track in build_tracks(scene, DEFAULTS):
        fids = track.frame_ids
        for _ in range(25):
            box = random_box(rng, center_spread=8.0)
            sub = ObjectTrack(track.track_id, track.class_label,
                              {f: track.observations[f] for f in fids[:-1]})
            new = ObjectTrack(track.track_id, track.class_label,
                              {fids[-1]: track.observations[fids[-1]]})
            n = len(fids) - 1
            combined = (n * l2d_multiview(box, sub, DEFAULTS.z_near)
                        + l2d_multiview(box, new, DEFAULTS.z_near)) / (n + 1)
            identity_err = max(
                identity_err, abs(l2d_multiview(box, track, DEFAULTS.z_near) - combined)
            )
    ok = worst <= 1e-9 and identity_err <= 1e-12 and n_tracks >= 15
    verdict(6, "multi-view 2D loss exactness", ok,
            f"max |l2d(GT)|={worst:.2e} (<=1e-9, {n_tracks} tracks), "
            f"averaging identity err={identity_err:.2e} (<=1e-12)")


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------


def test_c07_filter_truth_table():
    rng = np.random.default_rng(107)
    cfg = PipelineConfig()  # gates: Car 0.5, Pedestrian 0.4, default 0.5
    classes = ["Car", "Pedestrian", "Bicycle", "Bus"]
    failures = 0
    for _ in range(1000):
        cls = classes[rng.integers(len(classes))]
        confidence = float(rng.uniform(0, 1))
        got = filter_pseudo_label(cls, confidence, cfg)
        tau = {"Car": 0.5, "Pedestrian": 0.4}.get(cls, 0.5)
        expect_reason = None if confidence >= tau else "confidence"
        if got != expect_reason:
            failures += 1
    verdict(7, "pseudo-label filter truth table", failures == 0,
            f"{failures} rule mismatches over 1000 randomized cases")


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------


def test_c08_motion_classification():
    # Narrow-sweep, high-density scenes keep per-frame centroid error nearly
    # constant; sigma_c is the worst deviation of that error from its track
    # mean, so |true displacement - tau| > 3 sigma_c guarantees the verdict.
    n_checked = 0
    n_correct = 0
    n_static_checked = 0
    n_moving_checked = 0
    for seed in range(800, 825):
        cfg = SceneConfig(
            scene_id=f"motion-{seed}",
            n_frames=8,
            dt=0.5,
            seed=seed,
            cameras=(CameraSpec("cam_front"),),
            ego=EgoSpec(start=(0.0, 0.0, 1.8), velocity=(0.0, 0.0, 0.0)),
            objects=(
                ObjectClassSpec(
                    "Car", 2, (4.0, 4.8), (1.7, 2.0), (1.4, 1.7),
                    speed_range=(1.0, 2.5), static=None, density=240.0, sigma=0.02,
                ),
            ),
            static_fraction=0.5,
            bleed_fraction=0.0,
            placement=PlacementSpec(x_range=(25.0, 55.0), y_range=(-12.0, 12.0)),
        )
        scene = generate_scene(cfg)
        for track in build_tracks(scene, DEFAULTS):
            gt = scene.gt_tracks[track.track_id]
            fids = [f for f in track.frame_ids if len(track.observations[f].points) > 0]
            if len(fids) < 2:
                continue
            gt_centers = np.array(
                [[gt.boxes[f].cx, gt.boxes[f].cy, gt.boxes[f].cz] for f in fids]
            )
            cents = track_centroids(track, DEFAULTS.centroid)
            errors = cents - gt_centers
            sigma_c = float(np.linalg.norm(errors - errors.mean(axis=0), axis=1).max())
            diff = gt_centers[:, None, :] - gt_centers[None, :, :]
            true_disp = float(np.sqrt((diff**2).sum(axis=2)).max())
            if abs(true_disp - 0.5) <= 3 * sigma_c:
                continue
            n_checked += 1
            if gt.static:
                n_static_checked += 1
            else:
                n_moving_checked += 1
            if classify_motion(cents, 0.5).is_static == gt.static:
                n_correct += 1
    ok = n_checked >= 30 and n_static_checked >= 10 and n_moving_checked >= 10 and (
        n_correct == n_checked
    )
    verdict(8, "motion classification", ok,
            f"{n_correct}/{n_checked} correct (need 100%), "
            f"{n_static_checked} static / {n_moving_checked} moving qualified")


# ---------------------------------------------------------------------------
# criterion 9
# ---------------------------------------------------------------------------


def test_c09_end_to_end_determinism(tmp_path):
    scene_cfg = passing_config(900, n_cars=2, n_frames=6, sigma=0.02,
                               bleed_fraction=0.02)
    cfg_path = tmp_path / "scene_config.json"
    cfg_path.write_text(json.dumps(scene_cfg.to_dict()))
    pipe_path = tmp_path / "pipeline.json"
    pipe_path.write_text(json.dumps({"tau_static": 4.0, "refine_budget": 150}))

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    scene_dir = tmp_path / "scene"
    run("gen", "--config", cfg_path, "--seed", 42, "--out", scene_dir)

    outputs = {}
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        labels = tmp_path / f"labels_{name}.jsonl"
        report = tmp_path / f"report_{name}.json"
        run("annotate", "--dataset", scene_dir, "--out", labels,
            "--config", pipe_path, "--threads", threads)
        run("eval", "--dataset", scene_dir, "--labels", labels,
            "--report", report, "--config", pipe_path)
        outputs[name] = (labels.read_bytes(), report.read_bytes())

    same_runs = outputs["a"] == outputs["b"]
    same_threads = outputs["a"] == outputs["c"]
    ok = same_runs and same_threads
    verdict(9, "end-to-end determinism", ok,
            f"repeat-run identical={same_runs}, threads 1 vs 8 identical={same_threads}")


# ---------------------------------------------------------------------------
# criterion 10: every module's invariants, 1000 randomized cases each
# ---------------------------------------------------------------------------

N_CASES = 1000


def prop_pose_algebra():
    rng = np.random.default_rng(1001)
    for _ in range(N_CASES):
        p = Pose(rng.normal(size=4), rng.uniform(-5, 5, 3))
        q = Pose(rng.normal(size=4), rng.uniform(-5, 5, 3))
        x = rng.uniform(-10, 10, 3)
        assert np.abs(p.compose(q).apply(x) - p.apply(q.apply(x))).max() < 1e-9
        ident = p.compose(p.inverse())
        assert np.abs(ident.rotation_matrix - np.eye(3)).max() < 1e-9
        assert np.abs(ident.t).max() < 1e-9


def prop_giou_range_identity_symmetry():
    rng = np.random.default_rng(1002)
    for _ in range(N_CASES):
        def mk():
            x0, y0 = rng.uniform(-20, 20, 2)
            return Box2D(x0, y0, x0 + rng.uniform(0.1, 30), y0 + rng.uniform(0.1, 30))

        a, b = mk(), mk()
        g = giou_2d(a, b)
        assert -1.0 < g <= 1.0
        assert abs(g - giou_2d(b, a)) < 1e-12
        assert giou_2d(a, a) == 1.0


def prop_hull_contains_inputs():
    rng = np.random.default_rng(1003)
    for _ in range(N_CASES):
        pts = rng.uniform(-10, 10, (int(rng.integers(3, 25)), 2))
        try:
            hull = convex_hull(pts)
        except DegenerateHull:
            continue
        for p in pts:
            assert point_in_convex_polygon(p, hull.vertices, tol=1e-9)


def prop_intersection_bounded_symmetric():
    rng = np.random.default_rng(1004)
    for _ in range(N_CASES):
        a = convex_hull(rng.uniform(-3, 3, (10, 2)))
        b = convex_hull(rng.uniform(-3, 3, (10, 2)))
        ab = convex_intersection_area(a.vertices, b.vertices)
        assert abs(ab - convex_intersection_area(b.vertices, a.vertices)) < 1e-9
        assert -1e-12 <= ab <= min(a.area, b.area) + 1e-9


def prop_iou3d_rigid_invariance():
    rng = np.random.default_rng(1005)
    for _ in range(N_CASES):
        a = random_box(rng, 2.0)
        b = random_box(rng, 2.0)
        yaw = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(-10, 10, 3)
        before = iou_3d(a, b)
        after = iou_3d(transform_box3d(a, yaw, t), transform_box3d(b, yaw, t))
        assert abs(before - after) < 1e-9


def prop_pca_rotation_equivariance():
    rng = np.random.default_rng(1006)
    base = rng.normal(size=(50, 2)) * np.array([3.0, 0.6])
    v1_base, _ = pca_2d(base)
    for _ in range(N_CASES):
        phi = rng.uniform(-math.pi, math.pi)
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        v1, _ = pca_2d(base @ rot.T)
        expected = rot @ v1_base
        assert min(np.linalg.norm(v1 - expected), np.linalg.norm(v1 + expected)) < 1e-9


_CONSISTENCY_SCENES: list | None = None


def _consistency_scenes():
    # Sized so the per-annotation checks reach 1000 cases.  Crowded scenes
    # can overlap in the image, which is harmless here: these properties
    # touch projections and sampled points, not extraction.
    global _CONSISTENCY_SCENES
    if _CONSISTENCY_SCENES is None:
        _CONSISTENCY_SCENES = [
            generate_scene(passing_config(1100 + k, n_cars=6, n_frames=14,
                                          sigma=0.02, bleed_fraction=0.02))
            for k in range(14)
        ]
    return _CONSISTENCY_SCENES


def prop_generator_self_consistency():
    checked = 0
    for scene in _consistency_scenes():
        for frame in scene.frames:
            for ann in frame.annotations:
                cam = scene.cameras[ann.camera_id].posed(frame.world_from_ego)
                gt = scene.gt_tracks[ann.track_id].boxes[frame.frame_id]
                proj = project_box3d(cam, gt)
                assert proj is not None
                assert proj.as_array().tolist() == ann.box.as_array().tolist()
                checked += 1
    assert checked >= N_CASES, f"only {checked} annotations generated"


def prop_points_within_3sigma():
    from reference import points_in_box3d

    inside = total = 0
    for scene in _consistency_scenes():
        for frame in scene.frames:
            pts = frame.points_world
            for span in frame.gt_spans:
                body = pts[span.start : span.start + span.count - span.n_bleed]
                gt = scene.gt_tracks[span.track_id].boxes[frame.frame_id]
                grown = Box3D(gt.cx, gt.cy, gt.cz, gt.l + 0.12, gt.w + 0.12,
                              gt.h + 0.12, gt.yaw)
                inside += int(points_in_box3d(body, grown).sum())
                total += len(body)
    assert total >= N_CASES
    assert inside / total >= 0.99, f"containment {inside / total:.4f}"


def prop_generation_deterministic():
    rng = np.random.default_rng(1009)
    base = SceneConfig(
        n_frames=2,
        objects=(ObjectClassSpec("Car", 1, (4.0, 4.6), (1.7, 2.0), (1.4, 1.7),
                                 density=3.0),),
        bleed_fraction=0.02,
    )
    for _ in range(N_CASES):
        seed = int(rng.integers(0, 2**63))
        blobs = []
        for _rep in range(2):
            scene = generate_scene(base, seed=seed)
            manifest = json.dumps(scene_to_manifest(scene), sort_keys=True)
            clouds = b"".join(fr.points_ego.tobytes() for fr in scene.frames)
            blobs.append((manifest, clouds))
        assert blobs[0] == blobs[1]


def prop_extraction_order_independence():
    from boxlift.extraction import extraction_mask
    from support import camera_looking

    rng = np.random.default_rng(1010)
    cam = camera_looking([0, 0, 0], 0.0, fx=100.0, width=64, height=48)
    for _ in range(N_CASES):
        pts = np.column_stack([
            rng.uniform(2, 20, 50), rng.uniform(-5, 5, 50), rng.uniform(-2, 2, 50),
        ])
        ann = Annotation2D("t", "Car", "cam", Box2D(5, 5, 60, 40))
        perm = rng.permutation(50)
        assert np.array_equal(
            extraction_mask(cam, pts, ann, DEFAULTS.mask_conf_min, DEFAULTS.z_near)[perm],
            extraction_mask(cam, pts[perm], ann, DEFAULTS.mask_conf_min, DEFAULTS.z_near),
        )


def prop_classify_rigid_invariance():
    rng = np.random.default_rng(1011)
    for _ in range(N_CASES):
        cents = rng.uniform(-5, 5, (int(rng.integers(2, 8)), 3))
        pose = Pose.from_yaw(rng.uniform(-math.pi, math.pi), rng.uniform(-20, 20, 3))
        a = classify_motion(cents, 0.5)
        b = classify_motion(pose.apply(cents), 0.5)
        assert a.is_static == b.is_static
        assert abs(a.max_pairwise_displacement - b.max_pairwise_displacement) < 1e-9


def prop_mask_shrink_monotone():
    from boxlift.extraction import extraction_mask
    from support import camera_looking

    rng = np.random.default_rng(1012)
    cam = camera_looking([0, 0, 0], 0.0, fx=100.0, width=64, height=48)
    for _ in range(N_CASES):
        pts = np.column_stack([
            rng.uniform(2, 20, 40), rng.uniform(-5, 5, 40), rng.uniform(-2, 2, 40),
        ])
        big = rng.random((48, 64)) < 0.6
        small = big & (rng.random((48, 64)) < 0.6)
        ann_b = Annotation2D("t", "Car", "cam", Box2D(0, 0, 64, 48),
                             mask=encode_mask(big), mask_confidence=1.0)
        ann_s = Annotation2D("t", "Car", "cam", Box2D(0, 0, 64, 48),
                             mask=encode_mask(small), mask_confidence=1.0)
        keep_b = extraction_mask(cam, pts, ann_b, DEFAULTS.mask_conf_min, DEFAULTS.z_near)
        keep_s = extraction_mask(cam, pts, ann_s, DEFAULTS.mask_conf_min, DEFAULTS.z_near)
        assert not np.any(keep_s & ~keep_b)


def prop_dbscan_matches_reference():
    rng = np.random.default_rng(1013)
    for _ in range(N_CASES):
        n = int(rng.integers(0, 61))
        pts = rng.normal(0, rng.uniform(0.3, 2.0), (n, 3))
        eps = float(rng.uniform(0.15, 1.2))
        min_pts = int(rng.integers(1, 10))
        assert np.array_equal(
            dbscan(pts, eps, min_pts), brute_force_dbscan(pts, eps, min_pts)
        )


def prop_dbscan_labels_partition():
    rng = np.random.default_rng(1014)
    for _ in range(N_CASES):
        n = int(rng.integers(1, 80))
        pts = rng.normal(0, 1.0, (n, 3))
        labels = dbscan(pts, 0.4, 3)
        ids = sorted(set(labels) - {-1})
        assert ids == list(range(len(ids)))
        assert sum((labels == c).sum() for c in ids) == (labels != -1).sum()


def prop_gate_monotone():
    from boxlift.clustering import AggregatedInstance

    rng = np.random.default_rng(1015)
    for _ in range(N_CASES):
        n = int(rng.integers(0, 40))
        extra = int(rng.integers(1, 25))
        views = int(rng.integers(1, 6))
        min_pts = int(rng.integers(1, 30))
        min_views = int(rng.integers(1, 5))
        inst = AggregatedInstance("t", np.zeros((max(n, 1), 3)),
                                  np.zeros(max(n, 1), dtype=np.int64),
                                  np.arange(max(n, 1)), views)
        before = quality_gate(np.arange(n), inst,
                              min_pts, min_views)
        after = quality_gate(np.arange(n + extra), inst,
                             min_pts, min_views)
        if before.passed:
            assert after.passed


def prop_fit_contains_points():
    rng = np.random.default_rng(1016)
    for _ in range(N_CASES):
        pts = rng.normal(0, 1.0, (int(rng.integers(3, 40)), 3)) * rng.uniform(0.3, 3.0, 3)
        try:
            box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
        except DegenerateSpread:
            continue
        footprint = box.footprint()
        for p in pts:
            assert point_in_convex_polygon(p[:2], footprint, tol=1e-9)
        assert pts[:, 2].min() >= box.cz - box.h / 2 - 1e-9
        assert pts[:, 2].max() <= box.cz + box.h / 2 + 1e-9


def prop_fit_equivariant():
    rng = np.random.default_rng(1017)
    base = rng.normal(size=(30, 3)) * np.array([2.0, 0.8, 0.5])
    box0, _ = fit_coarse_box(base, DEFAULTS.extent_floor)
    for _ in range(N_CASES):
        phi = rng.uniform(-math.pi, math.pi)
        t2 = rng.uniform(-10, 10, 2)
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        box1, _ = fit_coarse_box(base @ rot.T + np.array([t2[0], t2[1], 0.0]),
                                 DEFAULTS.extent_floor)
        expect = rot[:2, :2] @ np.array([box0.cx, box0.cy]) + t2
        assert abs(box1.cx - expect[0]) < 1e-6 and abs(box1.cy - expect[1]) < 1e-6
        assert np.allclose((box1.l, box1.w, box1.h), (box0.l, box0.w, box0.h), atol=1e-6)
        assert abs(math.remainder(box1.yaw - (box0.yaw + phi), math.pi)) < 1e-6


def prop_hull_iou_unit_interval():
    rng = np.random.default_rng(1018)
    for k in range(N_CASES):
        if k % 4 == 0:
            # hull == footprint: score exactly 1
            box = random_box(rng, 2.0)
            bev = np.repeat(box.footprint(), 2, axis=0)
            result = verify_geometry(box, bev, DEFAULTS.tau_iou, DEFAULTS.hull_metric)
            assert abs(result.hull_iou - 1.0) < 1e-9
        else:
            pts = rng.normal(0, 1.0, (int(rng.integers(4, 30)), 3))
            try:
                box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
                result = verify_geometry(box, pts[:, :2], DEFAULTS.tau_iou, DEFAULTS.hull_metric)
            except (DegenerateSpread, DegenerateHull):
                continue
            assert 0.0 <= result.hull_iou <= 1.0


def prop_heading_mod_pi():
    rng = np.random.default_rng(1019)
    for _ in range(N_CASES):
        box = random_box(rng, 3.0)
        flipped = Box3D(box.cx, box.cy, box.cz, box.l, box.w, box.h,
                        box.yaw + math.pi)
        assert iou_3d(box, flipped) > 1.0 - 1e-9


_REFINE_POOL: list | None = None


def _refine_pool():
    global _REFINE_POOL
    if _REFINE_POOL is None:
        pool = []
        for seed in (1200, 1201, 1202):
            scene = generate_scene(passing_config(seed, n_cars=2, n_frames=6,
                                                  sigma=0.02, density=4.0))
            for track in build_tracks(scene, DEFAULTS):
                inst = aggregate_static(track)
                labels = dbscan(inst.points_agg, 0.5, 10)
                cluster = select_dominant_cluster(inst, labels)
                gt = scene.gt_tracks[track.track_id].boxes[0]
                pool.append((track, inst.points_agg[cluster], gt))
        _REFINE_POOL = pool
    return _REFINE_POOL


def prop_l2d_gt_zero():
    checked = 0
    for seed in range(1300, 1312):
        scene = generate_scene(passing_config(seed, n_cars=6, n_frames=14,
                                              sigma=0.0, density=2.0))
        for track in build_tracks(scene, DEFAULTS):
            gt = scene.gt_tracks[track.track_id].boxes[0]
            for fid in track.frame_ids:
                single = ObjectTrack(track.track_id, track.class_label,
                                     {fid: track.observations[fid]})
                assert abs(l2d_multiview(gt, single, DEFAULTS.z_near)) <= 1e-12
                checked += 1
            assert abs(l2d_multiview(gt, track, DEFAULTS.z_near)) <= 1e-12
    assert checked >= N_CASES, f"only {checked} view terms"


def prop_refine_never_increases():
    rng = np.random.default_rng(1021)
    pool = _refine_pool()
    for k in range(N_CASES):
        track, pts, gt = pool[k % len(pool)]
        init = Box3D(gt.cx + rng.uniform(-1, 1), gt.cy + rng.uniform(-1, 1), gt.cz,
                     gt.l * rng.uniform(0.8, 1.3), gt.w * rng.uniform(0.8, 1.3),
                     gt.h, gt.yaw + rng.uniform(-0.3, 0.3))
        budget = int(rng.integers(1, 25))
        cfg = PipelineConfig(refine_budget=budget)
        out, trace = refine_box(init, track, pts, cfg)
        j_init = objective_value(init, track, pts, cfg)
        j_out = objective_value(out, track, pts, cfg)
        assert j_out <= j_init + 1e-12
        assert trace.n_evals <= budget


def prop_l2d_averaging_identity():
    rng = np.random.default_rng(1022)
    pool = [entry for entry in _refine_pool() if len(entry[0].frame_ids) >= 3]
    for k in range(N_CASES):
        track, _pts, _gt = pool[k % len(pool)]
        fids = track.frame_ids
        box = random_box(rng, 10.0)
        sub = ObjectTrack(track.track_id, track.class_label,
                          {f: track.observations[f] for f in fids[:-1]})
        new = ObjectTrack(track.track_id, track.class_label,
                          {fids[-1]: track.observations[fids[-1]]})
        n = len(fids) - 1
        combined = (n * l2d_multiview(box, sub, DEFAULTS.z_near)
                    + l2d_multiview(box, new, DEFAULTS.z_near)) / (n + 1)
        assert abs(l2d_multiview(box, track, DEFAULTS.z_near) - combined) <= 1e-12


def prop_filter_monotone():
    rng = np.random.default_rng(1023)
    cfg = PipelineConfig()  # gates: Car 0.5, Pedestrian 0.4, default 0.5
    classes = ["Car", "Pedestrian", "Bicycle"]
    for _ in range(N_CASES):
        cls = classes[rng.integers(len(classes))]
        c1, c2 = sorted(rng.uniform(0, 1, 2))
        if filter_pseudo_label(cls, c1, cfg) is None:
            assert filter_pseudo_label(cls, c2, cfg) is None


def prop_refine_weight_scale_invariance():
    rng = np.random.default_rng(1024)
    pool = _refine_pool()
    for k in range(N_CASES):
        track, pts, gt = pool[k % len(pool)]
        init = Box3D(gt.cx + rng.uniform(-0.6, 0.6), gt.cy + rng.uniform(-0.6, 0.6),
                     gt.cz, gt.l, gt.w, gt.h, gt.yaw + rng.uniform(-0.2, 0.2))
        scale = float(rng.uniform(0.1, 20.0))
        budget = int(rng.integers(1, 15))
        a, _ = refine_box(init, track, pts,
                          PipelineConfig(lambda_2d=0.5, mu_fit=1.0, refine_budget=budget))
        b, _ = refine_box(init, track, pts,
                          PipelineConfig(lambda_2d=0.5 * scale, mu_fit=1.0 * scale,
                                         refine_budget=budget))
        assert a == b


_REPORT_POOL: list | None = None


def _report_pool():
    global _REPORT_POOL
    if _REPORT_POOL is None:
        pool = []
        cfg = PipelineConfig(tau_static=4.0, refine_budget=60)
        for seed in (1400, 1401):
            scene = generate_scene(passing_config(seed, n_cars=3, n_frames=6,
                                                  sigma=0.02, density=4.0))
            labels = [annotate_track(t, cfg, stage_tracks([t], cfg)[0])
                      for t in build_tracks(scene, DEFAULTS)]
            pool.append((scene, labels, cfg))
        _REPORT_POOL = pool
    return _REPORT_POOL


def prop_report_schema_and_idempotence():
    rng = np.random.default_rng(1025)
    validator = jsonschema.Draft7Validator(SCHEMA)
    pool = _report_pool()
    for k in range(N_CASES):
        scene, labels, cfg = pool[k % len(pool)]
        subset = [lb for lb in labels if rng.random() < 0.7] or labels[:1]
        r1 = build_report(scene, subset, cfg)
        r2 = build_report(scene, subset, cfg)
        assert r1 == r2
        serialized = json.loads(json.dumps(r1))
        validator.validate(serialized)


def prop_curve_retained_non_increasing():
    rng = np.random.default_rng(1026)
    for _ in range(N_CASES):
        n_inst = int(rng.integers(0, 12))
        instances = []
        for i in range(n_inst):
            # G = [0, n_gt), P_agg = [0, n_agg) and C* = a random subset of [0, 80).
            n_gt = int(rng.integers(1, 60))
            n_agg = int(rng.integers(1, 80))
            cluster = rng.choice(80, int(rng.integers(0, 60)), replace=False)
            common_agg, common_cluster = min(n_agg, n_gt), int((cluster < n_gt).sum())
            instances.append(SegmentationInstance(
                f"t{i}", len(cluster), common_agg / (n_agg + n_gt - common_agg),
                common_cluster / (len(cluster) + n_gt - common_cluster)))
        thresholds = sorted(int(v) for v in rng.integers(0, 80, 6))
        curve = segmentation_curve(instances, thresholds)
        counts = [c["n_retained"] for c in curve]
        assert counts == sorted(counts, reverse=True)


PROPERTIES = [
    ("geom-core: pose algebra", prop_pose_algebra),
    ("geom-core: giou range/identity/symmetry", prop_giou_range_identity_symmetry),
    ("geom-core: hull contains inputs", prop_hull_contains_inputs),
    ("geom-core: intersection bounded+symmetric", prop_intersection_bounded_symmetric),
    ("geom-core: iou_3d rigid invariance", prop_iou3d_rigid_invariance),
    ("geom-core: pca rotation equivariance", prop_pca_rotation_equivariance),
    ("scene-io: generator self-consistency", prop_generator_self_consistency),
    ("scene-io: points within 3-sigma box", prop_points_within_3sigma),
    ("scene-io: generation deterministic", prop_generation_deterministic),
    ("extract-motion: order independence", prop_extraction_order_independence),
    ("extract-motion: classify rigid invariance", prop_classify_rigid_invariance),
    ("extract-motion: mask shrink monotone", prop_mask_shrink_monotone),
    ("aggregate-cluster: dbscan matches reference", prop_dbscan_matches_reference),
    ("aggregate-cluster: labels partition", prop_dbscan_labels_partition),
    ("aggregate-cluster: gate monotone", prop_gate_monotone),
    ("coarse-box: fit contains points", prop_fit_contains_points),
    ("coarse-box: fit equivariant", prop_fit_equivariant),
    ("coarse-box: hull_iou in [0,1], 1 iff coincide", prop_hull_iou_unit_interval),
    ("coarse-box: heading mod pi", prop_heading_mod_pi),
    ("refine-filter: l2d(GT) = 0", prop_l2d_gt_zero),
    ("refine-filter: descent", prop_refine_never_increases),
    ("refine-filter: averaging identity", prop_l2d_averaging_identity),
    ("refine-filter: filter monotone", prop_filter_monotone),
    ("refine-filter: weight-scale argmin invariance", prop_refine_weight_scale_invariance),
    ("eval-cli: report schema + idempotent", prop_report_schema_and_idempotence),
    ("eval-cli: curve retained non-increasing", prop_curve_retained_non_increasing),
]


def test_c10_invariant_suite():
    failures = []
    for name, prop in PROPERTIES:
        t0 = time.monotonic()
        try:
            prop()
            status = "ok"
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
            status = "FAILED"
        print(f"    - {name}: {status} ({time.monotonic() - t0:.1f}s)")
    verdict(10, "invariant suite", not failures,
            f"{len(PROPERTIES) - len(failures)}/{len(PROPERTIES)} properties x "
            f"{N_CASES} cases" + (f"; failures: {failures}" if failures else ""))
