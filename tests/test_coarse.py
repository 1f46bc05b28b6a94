import math

import numpy as np
import pytest

from boxlift.coarse import fit_coarse_box, verify_geometry
from boxlift.errors import DegenerateSpread
from boxlift.geometry import Box3D, iou_3d
from reference import point_in_convex_polygon
from support import DEFAULTS


def box_surface_points(l, w, h, yaw=0.0, center=(0, 0, 0), step=0.25):
    """Symmetric grid of points on all six faces of a box.

    The grid is mirror-symmetric about the center, so the sample covariance
    cross-term vanishes and principal axes align with the box exactly.
    """
    pts = []
    half = np.array([l, w, h]) / 2
    for axis in range(3):
        for sign in (-1, 1):
            others = [a for a in range(3) if a != axis]
            na = max(2, int(round(2 * half[others[0]] / step)) + 1)
            nb = max(2, int(round(2 * half[others[1]] / step)) + 1)
            ua, ub = np.meshgrid(
                np.linspace(-half[others[0]], half[others[0]], na),
                np.linspace(-half[others[1]], half[others[1]], nb),
            )
            p = np.zeros((na * nb, 3))
            p[:, axis] = sign * half[axis]
            p[:, others[0]] = ua.ravel()
            p[:, others[1]] = ub.ravel()
            pts.append(p)
    pts = np.concatenate(pts)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    return pts @ rot.T + np.asarray(center, float)


class TestFitCoarseBox:
    def test_axis_aligned_recovery(self):
        pts = box_surface_points(4.0, 2.0, 1.5, yaw=0.0, center=(3, -2, 0.75))
        box, clamped = fit_coarse_box(pts, DEFAULTS.extent_floor)
        assert not clamped
        assert (box.cx, box.cy, box.cz) == pytest.approx((3, -2, 0.75), abs=1e-6)
        assert (box.l, box.w, box.h) == pytest.approx((4.0, 2.0, 1.5), abs=1e-6)
        assert math.sin(box.yaw) == pytest.approx(0.0, abs=1e-6)

    def test_rotated_recovery_mod_pi(self):
        yaw = math.radians(30)
        pts = box_surface_points(4.0, 2.0, 1.5, yaw=yaw)
        box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
        assert (box.l, box.w, box.h) == pytest.approx((4.0, 2.0, 1.5), abs=1e-6)
        delta = math.remainder(box.yaw - yaw, math.pi)
        assert abs(delta) < 1e-6

    def test_rotate_then_fit_equals_fit_then_rotate(self):
        rng = np.random.default_rng(50)
        base = box_surface_points(4.4, 1.8, 1.5, yaw=0.2)
        box0, _ = fit_coarse_box(base, DEFAULTS.extent_floor)
        for _ in range(20):
            phi = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-10, 10, 2)
            c, s = math.cos(phi), math.sin(phi)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
            moved = base @ rot.T + np.array([t[0], t[1], 0.0])
            box1, _ = fit_coarse_box(moved, DEFAULTS.extent_floor)
            expect_c = rot[:2, :2] @ np.array([box0.cx, box0.cy]) + t
            assert (box1.cx, box1.cy) == pytest.approx(tuple(expect_c), abs=1e-6)
            assert (box1.l, box1.w, box1.h) == pytest.approx(
                (box0.l, box0.w, box0.h), abs=1e-6
            )
            assert abs(math.remainder(box1.yaw - (box0.yaw + phi), math.pi)) < 1e-6

    def test_all_points_inside_fitted_footprint(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            pts = rng.normal(0, 1.0, (40, 3)) * rng.uniform(0.5, 3.0, 3)
            box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
            footprint = box.footprint()
            for p in pts:
                assert point_in_convex_polygon(p[:2], footprint, tol=1e-9)
            assert pts[:, 2].min() >= box.cz - box.h / 2 - 1e-9
            assert pts[:, 2].max() <= box.cz + box.h / 2 + 1e-9

    def test_extent_floor_clamps_thin_input(self):
        pts = np.column_stack([
            np.linspace(0, 4, 50), np.zeros(50), np.zeros(50),
        ])
        box, clamped = fit_coarse_box(pts + np.array([0, 0, 0.0]), DEFAULTS.extent_floor)
        assert clamped
        assert box.w == 0.05 and box.h == 0.05

    def test_too_few_points(self):
        with pytest.raises(DegenerateSpread):
            fit_coarse_box(np.zeros((2, 3)), DEFAULTS.extent_floor)

    def test_synthetic_multiview_recovery(self):
        # dense rim coverage with light noise recovers the box well
        rng = np.random.default_rng(52)
        gt = Box3D(5.0, -3.0, 0.8, 4.5, 1.9, 1.6, 0.7)
        pts = box_surface_points(gt.l, gt.w, gt.h, gt.yaw, (gt.cx, gt.cy, gt.cz))
        pts = pts + rng.normal(0, 0.02, pts.shape)
        box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
        assert iou_3d(box, gt) >= 0.8


class TestVerifyGeometry:
    def test_dense_rectangle_verified(self):
        pts = box_surface_points(4.0, 2.0, 1.5)
        box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
        result = verify_geometry(box, pts[:, :2], tau_iou=0.6, metric=DEFAULTS.hull_metric)
        assert result.verified
        assert result.hull_iou > 0.95

    def test_l_shape_rejected(self):
        # two thin strips at right angles: principal axes tilt diagonally and
        # the fitted footprint far exceeds the hull of the L
        rng = np.random.default_rng(53)
        strip_a = np.column_stack([
            rng.uniform(0, 4, 300), rng.uniform(0, 0.3, 300), rng.uniform(0, 1, 300),
        ])
        strip_b = np.column_stack([
            rng.uniform(0, 0.3, 300), rng.uniform(0.3, 4, 300), rng.uniform(0, 1, 300),
        ])
        pts = np.concatenate([strip_a, strip_b])
        box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
        result = verify_geometry(box, pts[:, :2], tau_iou=0.6, metric=DEFAULTS.hull_metric)
        assert not result.verified
        assert result.hull_iou < 0.6

    def test_hull_equal_footprint_scores_one(self):
        # points exactly at the footprint corners: hull == footprint
        box = Box3D(0, 0, 0, 4, 2, 1, 0.3)
        corners = box.footprint()
        bev = np.repeat(corners, 3, axis=0)
        result = verify_geometry(box, bev, tau_iou=0.6, metric=DEFAULTS.hull_metric)
        assert result.hull_iou == pytest.approx(1.0, abs=1e-12)
        assert result.verified

    def test_hull_iou_in_unit_interval(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            pts = rng.normal(0, 1.0, (25, 3)) * rng.uniform(0.3, 2.0, 3)
            box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
            result = verify_geometry(box, pts[:, :2], DEFAULTS.tau_iou, DEFAULTS.hull_metric)
            assert 0.0 <= result.hull_iou <= 1.0

    def test_coverage_metric_option(self):
        pts = box_surface_points(4.0, 2.0, 1.5)
        box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
        iou = verify_geometry(box, pts[:, :2], metric="iou", tau_iou=DEFAULTS.tau_iou).hull_iou
        cov = verify_geometry(box, pts[:, :2], metric="coverage", tau_iou=DEFAULTS.tau_iou).hull_iou
        # hull lies inside the footprint, so the two scores coincide here
        assert cov == pytest.approx(iou, abs=1e-9)

    def test_yaw_ambiguity_never_resolved(self):
        pts = box_surface_points(4.0, 2.0, 1.5, yaw=2.5)
        box, _ = fit_coarse_box(pts, DEFAULTS.extent_floor)
        assert -math.pi / 2 <= box.yaw <= math.pi / 2  # v1.x >= 0 convention
        gt = Box3D(0, 0, 0, 4.0, 2.0, 1.5, 2.5)
        assert iou_3d(box, gt) > 0.999
