import dataclasses
import math

import numpy as np
import pytest

from boxlift import geometry, refine
from boxlift.config import PipelineConfig
from boxlift.errors import ConfigError
from boxlift.extraction import build_tracks
from boxlift.geometry import (
    Box2D, Box3D, box3d_corners, giou_2d, iou_3d, normalize_yaw, project_box3d,
)
from boxlift.refine import (
    MISSING_PROJECTION_PENALTY,
    RefineTrace,
    _nelder_mead,
    _view_term,
    annotate_track,
    filter_pseudo_label,
    l2d_multiview,
    l_fit,
    objective_value,
    refine_box,
)
from boxlift.scene import Annotation2D, ObjectTrack, Observation
from boxlift.synthetic import generate_scene
from reference import l2d_multiview_loop, l_fit_rows
from support import DEFAULTS, camera_looking, passing_config, two_view_track


def random_view_track(rng, k):
    """A track seen by k random cameras looking roughly at the origin, each with a random 2D box."""
    obs = {}
    for fid in range(k):
        x, y = rng.uniform(-6, 6, 2)
        yaw = math.degrees(math.atan2(-y, -x)) + rng.uniform(-135, 135)
        cam = camera_looking([x, y, 1.6], yaw, fx=rng.uniform(300, 1500), width=480, height=300)
        x0, y0 = rng.uniform(0, [cam.width - 1, cam.height - 1])
        box = Box2D(x0, y0, rng.uniform(x0 + 0.5, cam.width), rng.uniform(y0 + 0.5, cam.height))
        ann = Annotation2D("t", "Car", f"cam{fid}", box)
        obs[fid] = Observation(ann, cam, np.empty((0, 3)), np.empty(0, dtype=int))
    return ObjectTrack("t", "Car", obs)


def view_kind(cam, box, z_near):
    pose = cam.pose
    n_front = int((((box3d_corners(box) - pose.t) @ pose.rotation_matrix)[:, 2] > z_near).sum())
    if n_front == 0:
        return "behind"
    if n_front < 8:
        return "straddling"
    return "off_image" if project_box3d(cam, box, z_near) is None else "front"


def scene_track(seed=60, **kw):
    scene = generate_scene(passing_config(seed, n_cars=1, **kw))
    track = build_tracks(scene, DEFAULTS)[0]
    gt = scene.gt_tracks[track.track_id].boxes[0]
    return scene, track, gt


class TestL2dMultiview:
    def test_gt_box_scores_zero_on_noise_free_track(self):
        _, track, gt = scene_track(sigma=0.0)
        assert l2d_multiview(gt, track, DEFAULTS.z_near) == pytest.approx(0.0, abs=1e-12)

    def test_behind_every_camera_hits_penalty(self):
        cam = camera_looking([0.0, 0.0, 1.6], 0.0)
        gt = Box3D(20.0, 0.0, 0.8, 4, 2, 1.5, 0)
        ann = Annotation2D("t", "Car", "cam", project_box3d(cam, gt))
        obs = Observation(ann, cam, np.empty((0, 3)), np.empty(0, dtype=int))
        track = ObjectTrack("t", "Car", {0: obs})
        behind = Box3D(-20.0, 0.0, 0.8, 4, 2, 1.5, 0)
        assert l2d_multiview(behind, track, DEFAULTS.z_near) == MISSING_PROJECTION_PENALTY

    def test_depth_shift_caught_by_second_view(self):
        rng = np.random.default_rng(61)
        gt, track_a, track_ab = two_view_track(rng)
        shifted = Box3D(gt.cx + 1.0, gt.cy, gt.cz, gt.l, gt.w, gt.h, gt.yaw)
        loss_a = l2d_multiview(shifted, track_a, DEFAULTS.z_near)
        loss_ab = l2d_multiview(shifted, track_ab, DEFAULTS.z_near)
        assert loss_ab > 0
        # the end-on view barely sees a depth shift; adding the lateral
        # view raises the average loss
        assert loss_ab > loss_a

    def test_averaging_identity_over_added_view(self):
        _, track, gt = scene_track(sigma=0.02, n_frames=6)
        fids = track.frame_ids
        box = Box3D(gt.cx + 0.3, gt.cy, gt.cz, gt.l * 1.1, gt.w, gt.h, gt.yaw + 0.1)
        sub = ObjectTrack(track.track_id, track.class_label,
                          {f: track.observations[f] for f in fids[:-1]})
        single = ObjectTrack(track.track_id, track.class_label,
                             {fids[-1]: track.observations[fids[-1]]})
        full = l2d_multiview(box, track, DEFAULTS.z_near)
        partial = l2d_multiview(box, sub, DEFAULTS.z_near)
        new_term = l2d_multiview(box, single, DEFAULTS.z_near)
        n = len(fids) - 1
        assert full == pytest.approx((n * partial + new_term) / (n + 1), abs=1e-12)

    @pytest.mark.parametrize("k,n_boxes", [(1, 1800), (2, 900), (12, 150), (40, 45)])
    def test_batched_equals_per_view_loop(self, k, n_boxes):
        rng = np.random.default_rng(1000 + k)
        seen = dict.fromkeys(("front", "straddling", "behind", "off_image"), 0)
        for _ in range(n_boxes):
            track = random_view_track(rng, k)
            z_near = float(rng.choice([1e-3, 0.5]))
            box = Box3D(*rng.uniform(-4, 4, 2), rng.uniform(0, 2),
                        *rng.uniform(0.3, 5, 3), rng.uniform(-math.pi, math.pi))
            for fid in track.frame_ids:
                seen[view_kind(track.observations[fid].camera, box, z_near)] += 1
            assert l2d_multiview(box, track, z_near) == l2d_multiview_loop(
                box, track, z_near)
        assert min(seen.values()) >= 300, seen


class TestViewTerm:
    """``_view_term`` on hand-built pixel bounds, tie and edge cases.

    The reference feeds the same bounds through ``project_box3d``'s image
    clip (with the silhouette replaced by the two bound corners) and scores
    them with ``1 - giou_2d``.  The conditionals of ``_view_term`` pick the
    operand the builtin ``max``/``min`` picks, ties included.  They also
    give the values of the batched ``np.maximum``/``np.minimum`` they
    replaced: the two differ only on NaN, which cannot arise because every
    corner is finite and strictly in front of a positive near plane, and
    on the sign of a zero tie.  A signed zero cannot reach the returned
    term: a zero bound is only subtracted from a strictly larger bound, or
    feeds an intersection of zero area, which enters the term as
    ``1.0 - (0 / union - ...)``.
    """

    CAMERA = camera_looking([0.0, 0.0, 1.6], 0.0, width=960, height=600)
    ANNOTATED = Box2D(100.0, 50.0, 400.0, 300.0)
    FULL_FRAME = Box2D(0.0, 0.0, 960.0, 600.0)

    @staticmethod
    def reference(monkeypatch, lo, hi, annotated):
        monkeypatch.setattr(geometry, "project_box_silhouette",
                            lambda *args, **kwargs: np.array([lo, hi]))
        pred = project_box3d(TestViewTerm.CAMERA, Box3D(0, 0, 0, 1, 1, 1, 0))
        return pred, MISSING_PROJECTION_PENALTY if pred is None else 1.0 - giou_2d(pred, annotated)

    @pytest.mark.parametrize("annotated", [ANNOTATED, FULL_FRAME])
    @pytest.mark.parametrize("lo,hi,on_image", [
        ([100.0, 50.0], [400.0, 300.0], True),     # every bound on an annotated edge
        ([100.0, 20.0], [250.0, 300.0], True),     # left and bottom edges shared
        ([400.0, 50.0], [500.0, 300.0], True),     # touches the right edge: no overlap
        ([0.0, 0.0], [50.0, 60.0], True),
        ([-0.0, -0.0], [50.0, 60.0], True),
        ([-0.0, 0.0], [960.0, 600.0], True),       # the whole image, exactly
        ([900.0, 500.0], [960.0, 600.0], True),
        ([-30.0, -5.0], [1000.0, 700.0], True),    # clipped on every side
        ([-50.0, 10.0], [0.0, 100.0], False),      # zero width after clipping
        ([-50.0, 10.0], [-0.0, 100.0], False),
        ([960.0, 10.0], [1200.0, 100.0], False),
        ([10.0, 600.0], [100.0, 900.0], False),    # zero height after clipping
        ([1000.0, 10.0], [1200.0, 100.0], False),  # fully off the image
        ([10.0, -300.0], [100.0, -20.0], False),
    ])
    def test_matches_clip_and_giou(self, monkeypatch, lo, hi, on_image, annotated):
        pred, expected = self.reference(monkeypatch, lo, hi, annotated)
        assert (pred is not None) == on_image
        cam, b = self.CAMERA, annotated
        target = (float(cam.width), float(cam.height), b.x_min, b.y_min, b.x_max, b.y_max, b.area)
        assert _view_term(lo, hi, target) == expected


class TestLFit:
    def test_matches_row_oracle_exactly(self):
        rng = np.random.default_rng(62)
        for _ in range(1800):
            box = Box3D(*rng.uniform(-3, 3, 3), *rng.uniform(0.2, 5, 3), rng.uniform(-4, 4))
            pts = rng.normal(box.center, rng.uniform(0.1, 4), (int(rng.integers(1, 200)), 3))
            assert l_fit(box, pts) == l_fit_rows(box, pts)
        # One batch of twelve tracks, so that every slice but the first
        # starts past offset 0.  The point counts sit on both sides of each
        # regime of numpy's pairwise sum (a plain loop below 8, eight
        # accumulators up to 128, halving above); the search points' extents
        # sit at, just above and below the floor, and their yaws at and past
        # +-pi.
        floor = DEFAULTS.extent_floor
        counts = [1, 7, 8, 9, 127, 128, 129, 1000, 2, 16, 255, 257]
        near = [floor, math.nextafter(floor, 1.0), math.nextafter(floor, 0.0), 0.5 * floor, -1.0]
        past_pi = math.nextafter(math.pi, 4.0)
        yaws = [math.pi, -math.pi, past_pi, -past_pi, 3.5, -7.0]
        xs, clouds = [], []
        for k, n in enumerate(counts):
            center = rng.uniform(-3, 3, 3)
            extents = rng.permutation([near[k % 5], near[(k + 2) % 5], rng.uniform(0.2, 5)])
            xs.append(np.array([*center, *extents, yaws[k % 6]]))
            clouds.append(rng.normal(center, rng.uniform(0.02, 2), (n, 3)))
        params = [refine._params(x, floor) for x in xs]
        fits, l2ds = refine._Batch([None] * 12, clouds, DEFAULTS.z_near, l2d=False).terms(params)
        assert l2ds == [None] * 12
        for p, fit, cloud in zip(params, fits, clouds):
            assert type(fit) is float
            assert fit == l_fit_rows(Box3D(*p), cloud)

    def test_search_point_box_floors_like_max(self):
        # _params floors each extent as max(extent, floor) does, on ties,
        # below the floor and on NaN, and wraps the yaw with normalize_yaw.
        floor = DEFAULTS.extent_floor
        nan = math.nan
        for x in ([0.0, 0.0, 0.0, floor, floor, floor, math.pi],
                  [1.0, -2.0, 3.0, math.nextafter(floor, 0.0), 0.5 * floor, -2.0, -math.pi],
                  [0.0, 0.0, 0.0, math.nextafter(floor, 1.0), 4.0, 0.0, 7.0],
                  [0.0, 0.0, 0.0, nan, floor, nan, -3.5],
                  [0.0, 0.0, 0.0, 1.0, nan, -0.0, nan]):
            got = refine._params(np.array(x), floor)
            cx, cy, cz, l, w, h, yaw = x
            expected = (cx, cy, cz, max(l, floor), max(w, floor), max(h, floor), normalize_yaw(yaw))
            assert [type(v) for v in got] == [float] * 7
            assert [v.hex() for v in got] == [v.hex() for v in expected]

    def test_zero_when_points_fill_box(self):
        box = Box3D(0, 0, 0, 4, 2, 2, 0)
        pts = np.array([
            [-2, -1, -1], [2, 1, 1], [0, 0, 0], [1.5, -0.5, 0.5],
        ], float)
        assert l_fit(box, pts) == pytest.approx(0.0, abs=1e-12)

    def test_outside_term_formula(self):
        # one point 1 m past a face among n points, over the box diagonal
        box = Box3D(0, 0, 0, 4.0, 2.0, 1.0, 0.0)
        diag = math.sqrt(16 + 4 + 1)
        inside = np.array([[-2, -1, -0.5], [2, 1, 0.5], [0, 0, 0]], float)
        outside = np.array([[3.0, 0, 0]])  # 1 m past the +x face
        pts = np.concatenate([inside, outside])
        expected = (1.0 / len(pts)) * (1.0 / diag)
        assert l_fit(box, pts) == pytest.approx(expected, abs=1e-12)

    def test_slack_grows_when_box_shrinks(self):
        pts = np.array([[-2, -1, -1], [2, 1, 1], [0, 0, 0]], float)
        full = Box3D(0, 0, 0, 4, 2, 2, 0)
        # points span the full length; halving l leaves points outside and
        # adds no slack for l, but halving the box while points still span
        # increases the objective overall
        halved = Box3D(0, 0, 0, 8, 2, 2, 0)  # doubled: slack on l = 0.5
        assert l_fit(full, pts) == pytest.approx(0.0, abs=1e-12)
        assert l_fit(halved, pts) == pytest.approx(0.5 / 3, abs=1e-12)

    def test_needs_points(self):
        with pytest.raises(ValueError):
            l_fit(Box3D(0, 0, 0, 1, 1, 1, 0), np.empty((0, 3)))


def nelder_mead_oracle_points(f, simplex, budget):
    """The points scipy's Nelder-Mead evaluates from ``simplex`` within ``budget`` calls."""
    from scipy.optimize import minimize

    seen = []
    minimize(lambda x: seen.append(np.array(x)) or f(x), simplex[0], method="Nelder-Mead",
             options={"initial_simplex": simplex, "xatol": 0, "fatol": 0, "maxfev": budget})
    return seen


def run_nelder_mead(f, simplex, budget):
    """Drive the ``_nelder_mead`` generator with ``f`` until it ends."""
    search = _nelder_mead(simplex, budget)
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration:
        pass


class TestNelderMead:
    @pytest.mark.parametrize("dim", [7, 9])
    @pytest.mark.parametrize("kind", ["quadratic", "kinked", "steps"])
    @pytest.mark.parametrize("budget", [0, 4, 10, 90, 800])
    def test_evaluates_the_points_scipy_evaluates(self, dim, kind, budget):
        rng = np.random.default_rng([dim, budget, len(kind)])
        a, c = rng.normal(size=(dim, dim)), rng.normal(size=dim)
        f = {
            "quadratic": lambda x: float(((a @ (x - c)) ** 2).sum()),
            "kinked": lambda x: float(np.abs(x - c).sum() + np.sin(3 * x).sum()),
            # Zero over the whole starting simplex, so the search ends when
            # the simplex collapses, before a large budget is spent.
            "steps": lambda x: float(np.floor(np.abs(x).max())),
        }[kind]
        simplex = np.tile(rng.uniform(-0.5, 0.5, dim), (dim + 1, 1))
        simplex[1:] += np.diag(rng.uniform(0.1, 0.4, dim))
        seen = []
        run_nelder_mead(lambda x: seen.append(np.array(x)) or f(x), simplex, budget)
        expected = nelder_mead_oracle_points(f, simplex, budget)
        assert len(seen) == len(expected)
        assert all((p == q).all() for p, q in zip(seen, expected))
        if kind == "steps" and budget == 800:
            assert len(seen) < budget
        else:
            assert len(seen) == budget

    @pytest.mark.parametrize("values", [
        [1.5] * 8,
        [0.0] * 4 + [-0.0] * 4,
        [np.inf] * 8,
        [-np.inf] * 8,
        [-np.inf] * 4 + [np.inf] * 4,
        [3.0] * 7 + [np.inf],
        [-np.inf] + [3.0] * 7,
        [np.nan] * 8,
        [2.0] * 7 + [np.nan],
        [np.nan] + [2.0] * 7,
        [np.inf] * 7 + [np.nan],
        [0.0] * 7 + [5e-324],
        [1.0] * 7 + [np.nextafter(1.0, 2.0)],
        [1e308] * 4 + [-1e308] * 4,
    ])
    def test_stops_on_values_as_scipy_does(self, values):
        # All 8 vertices coincide, so only the values decide whether the
        # search stops after scoring them.  The sorted-value spread must
        # agree with scipy's max |fsim[0] - fsim[1:]| <= 0 on every case,
        # NaN (sorted last), infinities and overflowing spreads included.
        with np.errstate(invalid="ignore", over="ignore"):
            fsim = np.asarray(values)[np.argsort(values)]
            expected = np.abs(fsim[0] - fsim[1:]).max() <= 0
            search = _nelder_mead(np.zeros((8, 7)), 100)
            next(search)
            try:
                for value in values:
                    search.send(value)
                stopped = False
            except StopIteration:
                stopped = True
        assert stopped == expected


def refine_box_oracle(init, track, points, cfg, objective=None):
    """``refine_box`` rebuilt from the row and per-view oracles and scipy's Nelder-Mead.

    The objective is ``mu_fit * l_fit_rows + lambda_2d * l2d_multiview_loop``
    on the box with its extents floored, or ``objective(box)`` when given.
    The schedule is ``refine_box``'s: score ``init``, run scipy from the
    documented initial simplex around it with the budget's first half less
    that evaluation, then restart from the best point with the rest.
    Returns the best box, its trace and every objective value in
    evaluation order.
    """
    from scipy.optimize import minimize

    floor = cfg.extent_floor
    trace = RefineTrace(0, math.inf, math.inf)
    best_x, values = None, []

    def to_box(x):
        return Box3D(float(x[0]), float(x[1]), float(x[2]), max(float(x[3]), floor),
                     max(float(x[4]), floor), max(float(x[5]), floor), float(x[6]))

    def f(x):
        nonlocal best_x
        trace.n_evals += 1
        box = to_box(x)
        if objective is not None:
            j = objective(box)
        else:
            j = (cfg.mu_fit * l_fit_rows(box, points)
                 + cfg.lambda_2d * l2d_multiview_loop(box, track, cfg.z_near))
        values.append(j)
        if j < trace.j_final:
            trace.j_final, best_x = j, np.array(x)
            trace.improvements.append((trace.n_evals, j))
        return j

    def leg(x0, budget):
        steps = [0.25, 0.25, 0.25, 0.1 * x0[3], 0.1 * x0[4], 0.1 * x0[5], math.radians(5.0)]
        simplex = np.tile(x0, (8, 1))
        for k, step in enumerate(steps):
            simplex[k + 1, k] += step
        minimize(f, x0, method="Nelder-Mead", options={
            "initial_simplex": simplex, "xatol": 0, "fatol": 0, "maxfev": budget})

    x0 = init.as_array()
    trace.j_init = f(x0)
    leg(x0, cfg.refine_budget // 2 - 1)
    leg(best_x, cfg.refine_budget - trace.n_evals)
    return to_box(best_x), trace, values


class TestRefineBox:
    @pytest.mark.parametrize("n_views", [12, 1])
    def test_matches_oracle_end_to_end(self, n_views, monkeypatch):
        # The 12-view track is static; the 1-view track is its densest
        # view alone, as the moving path refines.  Twenty stray points 2-6 m
        # off the box on every axis, like a neighbour caught in the
        # frustum, keep overshooting on all three axes near the optimum,
        # so the order the fit term sums them in shows in the values.
        _, track, gt = scene_track(sigma=0.02, n_frames=12)
        assert len(track.frame_ids) == 12
        if n_views == 1:
            fid = max(track.frame_ids, key=lambda f: len(track.observations[f].points))
            track = ObjectTrack(track.track_id, track.class_label, {fid: track.observations[fid]})
        rng = np.random.default_rng(0)
        stray = gt.center + rng.uniform(2, 6, (20, 3)) * rng.choice([-1, 1], (20, 3))
        pts = np.concatenate([o.points for o in track.observations.values()] + [stray])
        init = Box3D(gt.cx + 0.4, gt.cy - 0.3, gt.cz, gt.l * 1.15, gt.w * 0.9, gt.h,
                     gt.yaw + 0.12)
        cfg = PipelineConfig(refine_budget=150)
        values = []
        objective = refine._weighted
        monkeypatch.setattr(refine, "_weighted",
                            lambda *args: values.append(objective(*args)) or values[-1])
        box, trace = refine_box(init, track, pts, cfg)
        expected_box, expected, expected_values = refine_box_oracle(init, track, pts, cfg)
        assert values == expected_values
        assert box == expected_box
        assert (trace.j_init, trace.j_final) == (expected.j_init, expected.j_final)
        assert trace.improvements == expected.improvements
        assert trace.n_evals == expected.n_evals == 150
        assert len(trace.improvements) > 10

    def test_clipped_projection_only_for_straddling_views(self, monkeypatch):
        # Views with every corner in front of the near plane are scored
        # from the batched projection; only a straddling view may take the
        # slower clipped path through project_box3d.  Two cameras see the
        # box from 12-15 m; the third sits inside it, so the box straddles
        # its near plane.
        box = Box3D(0.0, 0.0, 0.8, 4.2, 1.8, 1.5, 0.3)
        cams = [camera_looking([-15.0, 0.0, 1.6], 0.0), camera_looking([0.0, -12.0, 1.6], 90.0),
                camera_looking([0.5, 0.0, 1.0], 0.0)]
        pts = np.random.default_rng(72).uniform(-0.5, 0.5, (200, 3)) * [4.2, 1.8, 1.5] + box.center
        obs = {fid: Observation(Annotation2D("t", "Car", f"cam{fid}", project_box3d(cam, box)),
                                cam, pts, np.arange(len(pts)))
               for fid, cam in enumerate(cams)}
        track = ObjectTrack("t", "Car", obs)
        seen = []
        clip = refine.project_box3d
        monkeypatch.setattr(refine, "project_box3d",
                            lambda cam, b, **kw: seen.append(cam) or clip(cam, b, **kw))
        init = Box3D(box.cx + 0.3, box.cy, box.cz, box.l, box.w * 1.2, box.h, box.yaw)
        front_only = ObjectTrack("t", "Car", {f: track.observations[f] for f in (0, 1)})
        cfg = PipelineConfig(refine_budget=150)
        refine_box(init, front_only, pts, cfg)
        assert seen == []
        _, trace = refine_box(init, track, pts, cfg)
        assert len(seen) == trace.n_evals
        assert all(cam is cams[2] for cam in seen)

    def test_never_increases_objective(self):
        rng = np.random.default_rng(62)
        _, track, gt = scene_track(sigma=0.02)
        pts = np.concatenate([o.points for o in track.observations.values()])
        for _ in range(10):
            init = Box3D(
                gt.cx + rng.uniform(-1, 1), gt.cy + rng.uniform(-1, 1), gt.cz,
                gt.l * rng.uniform(0.7, 1.4), gt.w * rng.uniform(0.7, 1.4), gt.h,
                gt.yaw + rng.uniform(-0.4, 0.4),
            )
            budget = int(rng.integers(1, 120))
            cfg = PipelineConfig(refine_budget=budget)
            out, trace = refine_box(init, track, pts, cfg)
            j_init = objective_value(init, track, pts, cfg)
            j_out = objective_value(out, track, pts, cfg)
            assert j_out <= j_init + 1e-12
            assert trace.n_evals <= budget

    def test_gt_init_is_fixed_point_on_noise_free_scene(self):
        _, track, gt = scene_track(sigma=0.0)
        spans_pts = np.concatenate([o.points for o in track.observations.values()])
        out, trace = refine_box(gt, track, spans_pts, PipelineConfig(refine_budget=300))
        # l2d(GT) is exactly zero; only the tiny extent-slack from finite
        # surface sampling remains, so the box must stay put within it
        assert l2d_multiview(gt, track, DEFAULTS.z_near) == 0.0
        assert trace.j_init < 0.01
        assert iou_3d(out, gt) > 0.99

    def test_perturbed_init_improves(self):
        _, track, gt = scene_track(sigma=0.02)
        from boxlift.clustering import aggregate_static, dbscan, select_dominant_cluster

        inst = aggregate_static(track)
        cluster = select_dominant_cluster(inst, dbscan(inst.points_agg, 0.5, 10))
        pts = inst.points_agg[cluster]
        init = Box3D(gt.cx + 0.5, gt.cy + 0.5, gt.cz, gt.l * 1.2, gt.w, gt.h,
                     gt.yaw + math.radians(10))
        out, _ = refine_box(init, track, pts, PipelineConfig(refine_budget=600))
        assert iou_3d(out, gt) > iou_3d(init, gt)
        z_near = DEFAULTS.z_near
        assert l2d_multiview(out, track, z_near) < l2d_multiview(init, track, z_near)

    def test_points_only_ignores_views(self):
        _, track, gt = scene_track(sigma=0.02)
        pts = np.concatenate([o.points for o in track.observations.values()])
        cfg = PipelineConfig(lambda_2d=0.0, mu_fit=1.0, refine_budget=150)
        init = Box3D(gt.cx + 0.4, gt.cy, gt.cz, gt.l, gt.w, gt.h, gt.yaw)
        fids = track.frame_ids
        sub = ObjectTrack(track.track_id, track.class_label,
                          {f: track.observations[f] for f in fids[:2]})
        out_full, _ = refine_box(init, track, pts, cfg)
        out_sub, _ = refine_box(init, sub, pts, cfg)
        assert out_full == out_sub

    def test_weight_scaling_leaves_argmin_unchanged(self):
        _, track, gt = scene_track(sigma=0.02)
        pts = np.concatenate([o.points for o in track.observations.values()])
        init = Box3D(gt.cx + 0.5, gt.cy - 0.3, gt.cz, gt.l * 1.1, gt.w, gt.h, gt.yaw)
        a, _ = refine_box(init, track, pts,
                          PipelineConfig(lambda_2d=0.5, mu_fit=1.0, refine_budget=200))
        b, _ = refine_box(init, track, pts,
                          PipelineConfig(lambda_2d=1.5, mu_fit=3.0, refine_budget=200))
        assert a == b

    def test_deterministic(self):
        _, track, gt = scene_track(sigma=0.02)
        pts = np.concatenate([o.points for o in track.observations.values()])
        init = Box3D(gt.cx + 0.5, gt.cy, gt.cz, gt.l, gt.w, gt.h, gt.yaw)
        cfg = PipelineConfig(refine_budget=180)
        a, ta = refine_box(init, track, pts, cfg)
        b, tb = refine_box(init, track, pts, cfg)
        assert a == b
        assert ta.n_evals == tb.n_evals

    def test_extents_clamped_during_search(self):
        _, track, gt = scene_track(sigma=0.02)
        pts = np.concatenate([o.points for o in track.observations.values()])
        init = Box3D(gt.cx, gt.cy, gt.cz, 0.06, 0.06, 0.06, gt.yaw)
        out, _ = refine_box(init, track, pts,
                            PipelineConfig(refine_budget=200, extent_floor=0.05))
        assert out.l >= 0.05 and out.w >= 0.05 and out.h >= 0.05


def straddled_track():
    """A static track seen by two far cameras and one inside the box, so it straddles that near plane."""
    box = Box3D(0.0, 0.0, 0.8, 4.2, 1.8, 1.5, 0.3)
    cams = [camera_looking([-15.0, 0.0, 1.6], 0.0), camera_looking([0.0, -12.0, 1.6], 90.0),
            camera_looking([0.5, 0.0, 1.0], 0.0)]
    pts = np.random.default_rng(72).uniform(-0.5, 0.5, (200, 3)) * [4.2, 1.8, 1.5] + box.center
    obs = {fid: Observation(Annotation2D("t", "Car", f"cam{fid}", project_box3d(cam, box)),
                            cam, pts, np.arange(len(pts)))
           for fid, cam in enumerate(cams)}
    return box, cams, pts, ObjectTrack("t", "Car", obs)


def mixed_tracks(cfg):
    """One static 12-view track, a track with no points, which is dropped
    before refinement, one moving track refined on its single anchor view,
    and the straddled 3-view track, with its cameras.  Point counts differ.
    The static track's centroid wanders by up to 10 m as the views change,
    so ``cfg.tau_static`` must be loose."""
    _, multi, _ = scene_track(sigma=0.02, n_frames=12)
    scene = generate_scene(passing_config(68, n_cars=3, sigma=0.02, static=False, n_frames=10))
    moving = next(t for t in build_tracks(scene, DEFAULTS)
                  if len(refine._stage(t, cfg).views.frame_ids) == 1)
    _, cams, _, straddled = straddled_track()
    empty = ObjectTrack("e", "Car", {0: Observation(
        Annotation2D("e", "Car", "cam0", Box2D(0, 0, 10, 10)), cams[0],
        np.empty((0, 3)), np.empty(0, dtype=int))})
    return [multi, empty, moving, straddled], cams


class TestLockstep:
    """Tracks refined together equal each track refined alone, and the scipy oracle."""

    def test_mixed_batch_matches_oracle(self, monkeypatch):
        cfg = PipelineConfig(refine_budget=150, tau_static=10.0)
        tracks, cams = mixed_tracks(cfg)
        clipped = []
        clip = refine.project_box3d
        monkeypatch.setattr(refine, "project_box3d",
                            lambda cam, b, **kw: clipped.append(cam) or clip(cam, b, **kw))
        built = []
        batch = refine._Batch
        monkeypatch.setattr(refine, "_Batch",
                            lambda *args, **kw: built.append(args) or batch(*args, **kw))
        staged = refine.stage_tracks(tracks, cfg)
        assert [len(views) for views, *_ in built] == [3]      # one batch of the 3 survivors
        coarse = refine.stage_tracks(tracks, dataclasses.replace(cfg, refine=False))
        assert [len(views) for views, *_ in built] == [3, 3]
        assert staged[1].drop_reason == "empty"
        live = (0, 2, 3)
        assert [len(staged[i].views.frame_ids) for i in live] == [12, 1, 3]
        assert len({len(staged[i].points) for i in live}) == 3
        assert clipped and all(cam is cams[2] for cam in clipped)
        for i in live:
            expected_box, expected, _ = refine_box_oracle(
                coarse[i].box, coarse[i].views, coarse[i].points, cfg)
            trace = staged[i].trace
            assert staged[i].box == expected_box
            assert (trace.j_init, trace.j_final) == (expected.j_init, expected.j_final)
            assert trace.improvements == expected.improvements
            assert trace.n_evals == expected.n_evals == 150
        labels = [annotate_track(t, cfg, s) for t, s in zip(tracks, staged)]
        assert labels == [annotate_track(t, cfg, refine.stage_tracks([t], cfg)[0]) for t in tracks]

    @pytest.mark.parametrize("weights", [{}, {"refine": False}, {"lambda_2d": 0.0},
                                         {"mu_fit": 0.0}],
                             ids=["refined", "coarse", "no_2d", "no_fit"])
    def test_staged_terms_score_the_final_box(self, weights):
        # The scoring pass gives every survivor both terms at its final box,
        # a term at weight 0 included, and the label records them.
        cfg = PipelineConfig(refine_budget=40, tau_static=10.0, **weights)
        tracks, _ = mixed_tracks(cfg)
        staged = refine.stage_tracks(tracks, cfg)
        assert staged[1].drop_reason == "empty"
        for i in (0, 2, 3):
            s = staged[i]
            assert s.fit == l_fit(s.box, s.points)
            assert s.l2d == l2d_multiview(s.box, s.views, cfg.z_near)
            label = annotate_track(tracks[i], cfg, s)
            assert (label.quality.fit, label.quality.l2d) == (s.fit, s.l2d)
            assert label.confidence == math.exp(-(cfg.mu_fit * s.fit + cfg.lambda_2d * s.l2d))
            assert label.source == ("refined" if cfg.refine else "coarse")
            assert (s.trace is None) == (not cfg.refine)

    def test_search_that_ends_early_leaves_the_others_running(self):
        # A stub objective per track.  The simplex collapses onto the kink's
        # non-smooth minimum before the budget is spent, and the other two
        # searches go on; the kink is scored again at its last point, but
        # not told.  "flat" is constant near the start, so every step
        # shrinks the simplex, yet rounding keeps it from collapsing.
        objectives = {
            "flat": lambda b: float(math.floor(max(abs(b.cx), abs(b.cy), abs(b.cz)) / 50)),
            "bowl": lambda b: (b.cx - 1) ** 2 + (b.cy + 2) ** 2 + (b.l - 3) ** 2 + b.yaw ** 2,
            "kink": lambda b: abs(b.cx - 0.3) + abs(b.w - 1.1) + math.sin(3 * b.cz),
        }
        names = ["bowl", "flat", "kink"]

        class StubBatch:
            def terms(self, params):
                return ([objectives[name](Box3D(*p)) for name, p in zip(names, params)],
                        [None] * len(params))

        cfg = PipelineConfig(refine_budget=2000, mu_fit=1.0, lambda_2d=0.0)
        init = Box3D(0.2, -0.1, 0.4, 4.0, 1.8, 1.5, 0.1)
        searches = refine._refine_all(StubBatch(), [init] * 3, cfg)
        for name, search in zip(names, searches):
            box, trace = search.result(cfg.extent_floor)
            expected_box, expected, _ = refine_box_oracle(init, None, None, cfg, objectives[name])
            assert box == expected_box
            assert (trace.j_init, trace.j_final) == (expected.j_init, expected.j_final)
            assert trace.improvements == expected.improvements
            assert trace.n_evals == expected.n_evals
            assert (trace.n_evals < 2000) == (name == "kink")

    def test_zero_fit_points_raise(self):
        _, _, pts, track = straddled_track()
        init = Box3D(0.3, 0.0, 0.8, 4.2, 2.0, 1.5, 0.3)
        none = np.empty((0, 3))
        with pytest.raises(ValueError):
            refine_box(init, track, none, PipelineConfig(mu_fit=1.0, refine_budget=20))
        with pytest.raises(ValueError):
            refine._Batch([track, track], [pts, none], 1e-3)
        _, trace = refine_box(init, track, none,
                              PipelineConfig(mu_fit=0.0, refine_budget=20))
        assert trace.n_evals == 20


class TestFilter:
    # PipelineConfig's default gates: Car 0.5, Pedestrian 0.4, others 0.5.

    def test_published_examples(self):
        cfg = PipelineConfig()
        assert filter_pseudo_label("Car", 0.6, cfg) is None
        assert filter_pseudo_label("Pedestrian", 0.39, cfg) == "confidence"

    def test_unknown_class_uses_default(self):
        cfg = PipelineConfig()
        assert filter_pseudo_label("Bus", 0.45, cfg) == "confidence"
        assert filter_pseudo_label("Bus", 0.55, cfg) is None

    def test_monotone_in_confidence(self):
        rng = np.random.default_rng(63)
        cfg = PipelineConfig()
        for _ in range(200):
            cls = rng.choice(["Car", "Pedestrian", "Bus"])
            c1, c2 = sorted(rng.uniform(0, 1, 2))
            if filter_pseudo_label(cls, c1, cfg) is None:
                assert filter_pseudo_label(cls, c2, cfg) is None

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(tau_conf={"Car": 1.5})


class TestAnnotateTrack:
    def test_static_happy_path(self):
        scene = generate_scene(passing_config(64, n_cars=1, sigma=0.02))
        track = build_tracks(scene, DEFAULTS)[0]
        cfg = PipelineConfig(refine_budget=300, tau_static=4.0)
        label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
        assert label.kept
        assert label.source == "refined"
        assert label.drop_reason is None
        assert label.quality.n_points >= 10
        assert label.quality.hull_iou is not None
        gt = scene.gt_tracks[track.track_id].boxes[0]
        assert iou_3d(label.box, gt) > 0.6

    def test_no_refine_emits_coarse(self):
        scene = generate_scene(passing_config(65, n_cars=1, sigma=0.02))
        track = build_tracks(scene, DEFAULTS)[0]
        cfg = PipelineConfig(refine=False, tau_static=4.0)
        label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
        assert label.source == "coarse"

    def test_sparse_track_dropped(self):
        scene = generate_scene(passing_config(66, n_cars=1, sigma=0.02))
        track = build_tracks(scene, DEFAULTS)[0]
        cfg = PipelineConfig(min_cluster_points=10**6, tau_static=4.0)
        label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
        assert not label.kept
        assert label.drop_reason == "sparse"

    def test_min_views_gate(self):
        scene = generate_scene(passing_config(67, n_cars=1, n_frames=1))
        track = build_tracks(scene, DEFAULTS)[0]
        cfg = PipelineConfig(min_views=2, tau_static=4.0)
        label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
        assert not label.kept
        assert label.drop_reason == "views"

    def test_dropped_label_carries_extent_floor(self):
        # A track dropped before its coarse fit gets a placeholder box at the
        # origin whose extents are the run's floor, not the default's.
        cam = camera_looking([0.0, 0.0, 0.0], 0.0)
        track = ObjectTrack("e", "Car", {0: Observation(
            Annotation2D("e", "Car", "cam", Box2D(0, 0, 10, 10)), cam,
            np.empty((0, 3)), np.empty(0, dtype=int))})
        cfg = PipelineConfig(extent_floor=0.2)
        label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
        assert label.drop_reason == "empty"
        assert label.box == Box3D(0.0, 0.0, 0.0, 0.2, 0.2, 0.2, 0.0)

    def test_moving_track_uses_densest_view_anchor(self):
        scene = generate_scene(
            passing_config(68, n_cars=3, sigma=0.02, static=False, n_frames=6)
        )
        found_moving = False
        for track in build_tracks(scene, DEFAULTS):
            cfg = PipelineConfig(refine_budget=200)
            label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
            gt = scene.gt_tracks[track.track_id]
            cents = [
                (fid, len(track.observations[fid].points)) for fid in track.frame_ids
            ]
            from boxlift.extraction import classify_motion, track_centroids

            verdict = classify_motion(track_centroids(track, DEFAULTS.centroid), 0.5)
            if not verdict.is_static:
                found_moving = True
                densest = max(cents, key=lambda kv: (kv[1], -kv[0]))[0]
                assert label.anchor_frame_id == densest
        assert found_moving

    def test_confidence_is_exp_of_objective(self):
        scene = generate_scene(passing_config(69, n_cars=1, sigma=0.02))
        track = build_tracks(scene, DEFAULTS)[0]
        cfg = PipelineConfig(refine_budget=200, tau_static=4.0)
        label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
        j = cfg.mu_fit * label.quality.fit + cfg.lambda_2d * label.quality.l2d
        assert label.confidence == pytest.approx(math.exp(-j), abs=1e-12)

    def test_mixed_dataset_end_to_end_quality(self):
        # 54 mixed static/moving tracks across three classes; every track
        # gets a label and the kept labels stay accurate on average.  The
        # static majority carries the mean: movers are fit from one view
        # and inherit its depth ambiguity.
        from boxlift.synthetic import EgoSpec, ObjectClassSpec, PlacementSpec, SceneConfig
        from support import rig4

        def mixed_cfg(seed):
            return SceneConfig(
                scene_id=f"mix-{seed}", n_frames=10, dt=0.5, seed=seed,
                cameras=rig4(),
                ego=EgoSpec(start=(-5.0, 0.0, 1.8), velocity=(6.5, 0.0, 0.0)),
                objects=(
                    ObjectClassSpec("Car", 3, (4.0, 4.8), (1.7, 2.0), (1.4, 1.7),
                                    (2.5, 6.0)),
                    ObjectClassSpec("Pedestrian", 2, (0.5, 0.7), (0.5, 0.7),
                                    (1.6, 1.8), (1.5, 2.5), density=40.0),
                    ObjectClassSpec("Bicycle", 1, (1.6, 1.9), (0.5, 0.7),
                                    (1.0, 1.3), (1.5, 4.0), density=25.0),
                ),
                static_fraction=0.74,
                bleed_fraction=0.02, bleed_offset_range=(1.0, 4.0),
                placement=PlacementSpec(x_range=(2.0, 24.0), y_range=(-12.0, 12.0)),
            )

        cfg = PipelineConfig(tau_static=4.0, refine_budget=300)
        labels, ious = [], []
        for seed in range(7200, 7209):
            scene = generate_scene(mixed_cfg(seed))
            for track in build_tracks(scene, DEFAULTS):
                label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
                labels.append(label)
                if label.kept:
                    gt = scene.gt_tracks[label.track_id].boxes[label.anchor_frame_id or 0]
                    ious.append(iou_3d(label.box, gt))
        assert len(labels) >= 50
        keep_rate = len(ious) / len(labels)
        mean_iou = float(np.mean(ious))
        print(f"mixed dataset: {len(labels)} tracks, keep rate {keep_rate:.2f}, "
              f"mean kept IoU {mean_iou:.3f}")
        assert keep_rate > 0.5
        assert mean_iou >= 0.7

    def test_near_duplicate_hull_vertices_drop_as_degenerate(self):
        # The cluster's hull has the vertices (0, 1) and (1e-10, 1 + 1e-10),
        # which ConvexPolygon2D rejects as duplicates.
        bev = [[0, 0], [1, 0], [1, 1], [0, 1], [1e-10, 1 + 1e-10]]
        pts = np.array([[x, y, z] for z in (0.0, 1.0) for x, y in bev])
        cam = camera_looking([-10.0, 0.5, 0.5], 0.0)
        ann = Annotation2D("t", "Car", "cam", Box2D(0, 0, 100, 100))
        track = ObjectTrack("t", "Car", {fid: Observation(ann, cam, pts, np.arange(len(pts)))
                                         for fid in (0, 1)})
        cfg = PipelineConfig(dbscan_eps=2.0, dbscan_min_pts=1)
        label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
        assert (label.kept, label.drop_reason) == (False, "degenerate")
        assert label.quality.n_points == len(bev) * 4
        staged = refine._stage(track, cfg)
        assert (staged.drop_reason, staged.n_points) == ("degenerate", len(bev) * 4)

    def test_verification_failure_drops_with_coarse_box(self):
        # strict tau forces the verification gate to fire
        scene = generate_scene(passing_config(70, n_cars=1, sigma=0.02))
        track = build_tracks(scene, DEFAULTS)[0]
        cfg = PipelineConfig(tau_iou=1.0, tau_static=5.0)
        label = annotate_track(track, cfg, refine.stage_tracks([track], cfg)[0])
        assert not label.kept
        assert label.drop_reason == "verification"
        assert label.source == "coarse"
