import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlift.clustering import dbscan, select_dominant_cluster
from boxlift.errors import DegenerateHull, DegenerateSpread
from boxlift.geometry import (
    Box2D,
    Box3D,
    CameraModel,
    ConvexPolygon2D,
    Pose,
    _candidates,
    _clip_convex,
    box3d_corners,
    convex_hull,
    convex_intersection_area,
    giou_2d,
    iou_3d,
    normalize_yaw,
    pca_2d,
    project_box3d,
    project_box_silhouette,
    project_points,
)
from reference import (
    clip_convex_rows,
    clipped_silhouette_loop,
    mc_iou_3d,
    monotone_chain_hull,
    point_in_convex_polygon,
)
from support import bench_tracks, dense_coarse_instances, identity_pose, transform_box3d


def random_pose(rng):
    q = rng.normal(size=4)
    return Pose(q, rng.uniform(-5, 5, 3))


class TestPose:
    def test_rotation_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_pose(rng)
            r = p.rotation_matrix
            assert np.abs(r @ r.T - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_pose(rng)
            ident = p.compose(p.inverse())
            assert np.abs(ident.rotation_matrix - np.eye(3)).max() < 1e-9
            assert np.abs(ident.t).max() < 1e-9

    def test_compose_apply_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, q = random_pose(rng), random_pose(rng)
            x = rng.uniform(-10, 10, 3)
            lhs = p.compose(q).apply(x)
            rhs = p.apply(q.apply(x))
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_from_yaw_matches_matrix(self):
        yaw = 0.7
        p = Pose.from_yaw(yaw)
        c, s = math.cos(yaw), math.sin(yaw)
        expect = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        assert np.abs(p.rotation_matrix - expect).max() < 1e-12

    def test_dict_round_trip_is_exact(self):
        p = random_pose(np.random.default_rng(3))
        again = Pose(**p.to_dict())
        assert np.array_equal(p.q, again.q)
        assert np.array_equal(p.t, again.t)


class TestProjectPoint:
    def test_principal_point(self):
        cam = CameraModel(1000, 1000, 500, 500, 1000, 1000, identity_pose())
        uv, valid = project_points(cam, [[0, 0, 5]])
        assert valid.tolist() == [True]
        assert uv.tolist() == [[500.0, 500.0]]

    def test_zero_depth_is_absent(self):
        cam = CameraModel(1000, 1000, 500, 500, 1000, 1000, identity_pose())
        uv, valid = project_points(cam, [[0, 0, 0], [0, 0, -3]])
        assert valid.tolist() == [False, False]
        assert np.isnan(uv).all()

    def test_offset_point(self):
        # u = fx * x / z + cx = 1000 * (1 / 5) + 500
        cam = CameraModel(1000, 1000, 500, 500, 1000, 1000, identity_pose())
        uv, valid = project_points(cam, [[1, 0, 5]])
        assert valid.tolist() == [True]
        u, v = uv[0]
        assert u == pytest.approx(700.0, abs=1e-12)
        assert v == pytest.approx(500.0, abs=1e-12)

    def test_outside_image_still_returned(self):
        cam = CameraModel(1000, 1000, 500, 500, 1000, 1000, identity_pose())
        uv, valid = project_points(cam, [[10, 0, 5]])
        assert valid.tolist() == [True]
        assert uv[0, 0] > 1000


class TestBoxCorners:
    def test_unit_cube(self):
        corners = box3d_corners(Box3D(0, 0, 0, 1, 1, 1, 0))
        expect = {(sx / 2, sy / 2, sz / 2) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        got = {tuple(np.round(c, 12)) for c in corners}
        assert got == expect

    def test_yaw_pi_same_corner_set(self):
        a = box3d_corners(Box3D(1, 2, 3, 2, 1, 1, 0.0))
        b = box3d_corners(Box3D(1, 2, 3, 2, 1, 1, math.pi))
        sort = lambda arr: np.array(sorted(map(tuple, np.round(arr, 9))))
        assert np.abs(sort(a) - sort(b)).max() < 1e-9

    def test_quarter_turn_swaps_footprint(self):
        corners = box3d_corners(Box3D(0, 0, 0, 2, 1, 1, math.pi / 2))
        assert corners[:, 0].min() == pytest.approx(-0.5)
        assert corners[:, 0].max() == pytest.approx(0.5)
        assert corners[:, 1].min() == pytest.approx(-1.0)
        assert corners[:, 1].max() == pytest.approx(1.0)


class TestProjectBox3d:
    def setup_method(self):
        self.cam = CameraModel(1000, 1000, 500, 500, 1000, 1000, identity_pose())

    def test_behind_camera_absent(self):
        assert project_box3d(self.cam, Box3D(0, 0, -10, 1, 1, 1, 0)) is None

    def test_centered_cube_bounds(self):
        # Near face at depth 9.5 dominates: half-extent 1000 * 0.5 / 9.5.
        box = project_box3d(self.cam, Box3D(0, 0, 10, 1, 1, 1, 0))
        half = 1000 * 0.5 / 9.5
        assert box.x_min == pytest.approx(500 - half, abs=1e-9)
        assert box.x_max == pytest.approx(500 + half, abs=1e-9)
        assert box.y_min == pytest.approx(500 - half, abs=1e-9)
        assert box.y_max == pytest.approx(500 + half, abs=1e-9)

    def test_straddling_box_clipped_to_image(self):
        box = project_box3d(self.cam, Box3D(0, 0, 0.4, 1, 1, 1, 0.3))
        assert box is not None
        assert box.x_min >= 0 and box.y_min >= 0
        assert box.x_max <= 1000 and box.y_max <= 1000

    def test_box_outside_image_absent(self):
        assert project_box3d(self.cam, Box3D(100, 0, 5, 1, 1, 1, 0)) is None

    def test_silhouette_matches_per_edge_clipping(self):
        rng = np.random.default_rng(12)
        seen = {"front": 0, "straddling": 0, "behind": 0}
        for _ in range(3000):
            z_near = float(rng.choice([1e-3, 0.5]))
            box = Box3D(*rng.uniform(-2, 2, 2), rng.uniform(-2.5, 2.5),
                        *rng.uniform(0.2, 3.0, 3), rng.uniform(-math.pi, math.pi))
            n_front = int((box3d_corners(box)[:, 2] > z_near).sum())  # identity camera
            seen["front" if n_front == 8 else "behind" if n_front == 0 else "straddling"] += 1
            mine = project_box_silhouette(self.cam, box, z_near)
            ref = clipped_silhouette_loop(self.cam, box, z_near)
            assert mine.shape[1] == 2
            assert {tuple(p) for p in mine} == {tuple(p) for p in ref}
        assert min(seen.values()) >= 300, seen


class TestGiou2d:
    def test_identical_is_one(self):
        a = Box2D(3.5, 2.0, 10.0, 8.25)
        assert giou_2d(a, a) == 1.0

    def test_disjoint_unit_squares(self):
        a, b = Box2D(0, 0, 1, 1), Box2D(2, 2, 3, 3)
        assert giou_2d(a, b) == pytest.approx(-7.0 / 9.0, abs=1e-12)

    def test_half_overlap(self):
        a, b = Box2D(0, 0, 1, 1), Box2D(0.5, 0, 1.5, 1)
        assert giou_2d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=8, max_size=8))
    def test_range_and_symmetry(self, vals):
        def mk(v):
            x0, x1 = sorted((v[0], v[1]))
            y0, y1 = sorted((v[2], v[3]))
            return Box2D(x0, y0, x1 + 1.0, y1 + 1.0)

        a, b = mk(vals[:4]), mk(vals[4:])
        g = giou_2d(a, b)
        assert -1.0 < g <= 1.0
        assert g == pytest.approx(giou_2d(b, a), abs=1e-12)


class TestConvexHull:
    def test_square_with_interior_points(self):
        rng = np.random.default_rng(4)
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
        pts = np.concatenate([corners, rng.uniform(0.1, 0.9, (10, 2))])
        hull = convex_hull(pts)
        assert {tuple(v) for v in hull.vertices} == {tuple(c) for c in corners}

    def test_triangle(self):
        tri = [[0, 0], [2, 0], [1, 1]]
        hull = convex_hull(tri)
        assert len(hull.vertices) == 3

    def test_collinear_boundary_points_removed(self):
        pts = [[0, 0], [1, 0], [2, 0], [2, 2], [0, 2]]
        hull = convex_hull(pts)
        assert len(hull.vertices) == 4
        assert [1.0, 0.0] not in hull.vertices.tolist()

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateHull):
            convex_hull([[0, 0], [1, 1]])
        with pytest.raises(DegenerateHull):
            convex_hull([[0, 0], [1, 1], [2, 2], [3, 3]])

    def test_random_disk_points_contained(self):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, 2 * math.pi, 100)
        r = np.sqrt(rng.uniform(0, 1, 100))
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        hull = convex_hull(pts)
        assert hull.area <= math.pi + 1e-9
        for p in pts:
            assert point_in_convex_polygon(p, hull.vertices)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_hull_contains_all_inputs(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-10, 10, (rng.integers(3, 40), 2))
        try:
            hull = convex_hull(pts)
        except DegenerateHull:
            return
        for p in pts:
            assert point_in_convex_polygon(p, hull.vertices, tol=1e-9)

    def test_matches_numpy_scalar_chain(self):
        # The same float64 arithmetic as the chain on numpy scalars, so the
        # vertices must match exactly, degenerate inputs included.
        rng = np.random.default_rng(6)
        clouds = []
        for _ in range(50):
            n = int(rng.integers(3, 300))
            clouds.append(rng.normal(0, rng.uniform(0.1, 10), (n, 2)))
            clouds.append(rng.uniform(-50, 50, (n, 2)))
        # Integer lattices: collinear runs along the edges, and duplicates.
        for _ in range(50):
            n = int(rng.integers(1, 60))
            clouds.append(rng.integers(-3, 4, (n, 2)) * rng.choice([1.0, 0.1, 0.25]))
        # Points on one line, and the same line jittered by about 1e-12:
        # orientation signs there come down to the last bits.
        for _ in range(30):
            t = rng.uniform(-10, 10, (int(rng.integers(3, 40)), 1))
            line = rng.normal(size=2) + t * rng.normal(size=2)
            clouds.append(line)
            clouds.append(line + rng.normal(0, 1e-12, line.shape))
        # Bird's-eye views of the dense_coarse clouds and their clusters.
        for inst in dense_coarse_instances():
            cluster = select_dominant_cluster(inst, dbscan(inst.points_agg, 0.5, 10))
            clouds.append(inst.points_agg[:, :2])
            clouds.append(inst.points_agg[cluster, :2])
        # Above the prefilter cutoff, where the chain sees only the points
        # outside the octagon of directional extremes.  On a circle every
        # point is a vertex, and far from the origin the turns between
        # neighbours come down to the last bits.
        for _ in range(40):
            n = int(rng.integers(17, 501))
            theta = rng.uniform(0, 2 * math.pi, n)
            circle = rng.uniform(0.5, 20) * np.column_stack([np.cos(theta), np.sin(theta)])
            clouds.append(rng.uniform(-1e4, 1e4, 2) + circle)
        # 40 x 40 lattices, square and turned 45 degrees: hull edges lie on
        # the octagon's edges, with collinear points along them.
        i, j = (a.ravel() for a in np.meshgrid(np.arange(40.0), np.arange(40.0)))
        for spacing in (1.0, 0.1, 0.25):
            clouds.append(np.column_stack([i, j]) * spacing)
            clouds.append(np.column_stack([i + j, i - j]) * spacing + rng.uniform(-100, 100, 2))
        # Lines of 100+ points, exact and jittered by about 1e-12.
        for _ in range(10):
            t = rng.uniform(-10, 10, (int(rng.integers(100, 400)), 1))
            line = rng.normal(size=2) + t * rng.normal(size=2)
            clouds.append(line)
            clouds.append(line + rng.normal(0, 1e-12, line.shape))
        # Many exact duplicates of a few points.
        for _ in range(10):
            base = rng.normal(0, 5, (int(rng.integers(3, 40)), 2))
            clouds.append(base[rng.integers(0, len(base), 400)])
        # Every per-frame observation of the three bench scenes.
        for name in ("static_multiview", "dense_coarse", "corridor"):
            for track in bench_tracks(name):
                clouds += [obs.points[:, :2] for obs in track.observations.values()]
        n_degenerate = 0
        for pts in clouds:
            ref = monotone_chain_hull(pts)
            if len(ref) < 3:
                n_degenerate += 1
                with pytest.raises(DegenerateHull):
                    convex_hull(pts)
            else:
                assert np.array_equal(convex_hull(pts).vertices, ref)
        assert 0 < n_degenerate < len(clouds) // 2

    def test_near_duplicate_vertices_raise_degenerate_hull(self):
        # (0, 1) and (1e-10, 1 + 1e-10) are both vertices, 1.4e-10 apart.
        with pytest.raises(DegenerateHull, match="duplicate consecutive vertices"):
            convex_hull([[0, 0], [1, 0], [1, 1], [0, 1], [1e-10, 1 + 1e-10]])

    def test_tiny_circles_far_out_match_or_raise_degenerate_hull(self):
        # Vertices closer than ConvexPolygon2D's 1e-9 make the hull
        # degenerate; every other hull is the scalar chain's.
        rng = np.random.default_rng(7)
        n_degenerate = 0
        for _ in range(300):
            n = int(rng.integers(3, 60))
            theta = rng.uniform(0, 2 * math.pi, n)
            circle = 10.0 ** rng.uniform(-9, -5) * np.column_stack([np.cos(theta), np.sin(theta)])
            pts = rng.uniform(-1e3, 1e3, 2) + circle
            ref = monotone_chain_hull(pts)
            try:
                ConvexPolygon2D(ref)
            except ValueError:
                n_degenerate += 1
                with pytest.raises(DegenerateHull):
                    convex_hull(pts)
            else:
                assert np.array_equal(convex_hull(pts).vertices, ref)
        assert 0 < n_degenerate < 300

    @pytest.mark.parametrize("scale", [2.0**-500, 1.0, 2.0**490, 2.0**510, 1e300])
    def test_prefilter_near_float_range_warns_nothing(self, scale):
        # Past 2**500 the prefilter drops nothing rather than overflow.
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 1, (300, 2)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keep = _candidates(pts)
        assert keep.sum() < 100 if scale < 2.0**500 else keep.all()
        # Below 1e-9 every vertex is a near-duplicate, and near 1e300 the
        # polygon's own checks overflow.
        if 1.0 <= scale < 1e300:
            assert np.array_equal(convex_hull(pts).vertices, monotone_chain_hull(pts))


class TestConvexIntersection:
    def square(self, x0=0.0, y0=0.0, side=1.0):
        return ConvexPolygon2D(
            [[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side]]
        ).vertices

    def test_self_intersection(self):
        s = self.square()
        assert convex_intersection_area(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_offset_squares(self):
        assert convex_intersection_area(self.square(), self.square(0.5)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_rotated_square_octagon(self):
        s = self.square()
        c, ang = 0.5, math.pi / 4
        rot = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        rotated = ConvexPolygon2D((s - c) @ rot.T + c).vertices
        area = convex_intersection_area(s, rotated)
        assert area == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-9)

    def test_disjoint_is_zero(self):
        assert convex_intersection_area(self.square(), self.square(5.0)) == 0.0

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = convex_hull(rng.uniform(-3, 3, (12, 2)))
            b = convex_hull(rng.uniform(-3, 3, (12, 2)))
            ab = convex_intersection_area(a.vertices, b.vertices)
            ba = convex_intersection_area(b.vertices, a.vertices)
            assert ab == pytest.approx(ba, abs=1e-9)
            assert ab <= min(a.area, b.area) + 1e-9


    def test_clip_matches_numpy_rows(self):
        # The clip runs on Python floats; clip_convex_rows is the same loop
        # on numpy rows.  Both must give the same vertices bit for bit.
        rng = np.random.default_rng(7)
        sq = self.square
        pairs = [(sq(), sq()), (sq(), sq(1.0)), (sq(0.0, 0.0, 3.0), sq(1.0, 1.0)),
                 (sq(), sq(5.0)), (sq(), sq(1.0, 1.0)), (sq(), sq(0.5, 0.5))]
        for _ in range(100):
            pairs.append((convex_hull(rng.uniform(-3, 3, (12, 2))).vertices,
                          convex_hull(rng.uniform(-3, 3, (12, 2))).vertices))
            a = Box3D(*rng.uniform(-2, 2, 3), *rng.uniform(0.5, 4, 3), rng.uniform(-3, 3))
            b = Box3D(*rng.uniform(-2, 2, 3), *rng.uniform(0.5, 4, 3), rng.uniform(-3, 3))
            pairs.append((a.footprint(), b.footprint()))
            # Near-parallel edges: the same box turned by a hair.
            turned = Box3D(a.cx, a.cy, a.cz, a.l, a.w, a.h, a.yaw + rng.uniform(-1e-9, 1e-9))
            pairs.append((a.footprint(), turned.footprint()))
            # Coordinates up to 1e7: wide hulls, and small ones far out.
            pairs.append((convex_hull(rng.uniform(-1e7, 1e7, (12, 2))).vertices,
                          convex_hull(rng.uniform(-1e7, 1e7, (12, 2))).vertices))
            far = rng.uniform(-1e7, 1e7, 2)
            pairs.append((convex_hull(far + rng.uniform(-3, 3, (12, 2))).vertices,
                          convex_hull(far + rng.uniform(-3, 3, (12, 2))).vertices))
        for a, b in pairs:
            for subject, clipper in ((a, b), (b, a)):
                assert np.array_equal(_clip_convex(subject, clipper),
                                      clip_convex_rows(subject, clipper))


class TestIou3d:
    def test_identical(self):
        b = Box3D(1, 2, 3, 4, 2, 1.5, 0.3)
        assert iou_3d(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_offset_unit_cubes(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0.5, 0, 0, 1, 1, 1, 0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        errs = []
        for _ in range(20):
            a = Box3D(*rng.uniform(-1, 1, 3), *rng.uniform(0.5, 3.0, 3), rng.uniform(-3, 3))
            b = Box3D(
                *(rng.uniform(-1, 1, 3) + rng.uniform(-1.0, 1.0, 3)),
                *rng.uniform(0.5, 3.0, 3),
                rng.uniform(-3, 3),
            )
            errs.append(abs(iou_3d(a, b) - mc_iou_3d(a, b, 200_000, rng)))
        assert np.mean(errs) < 0.01

    def test_rigid_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = Box3D(*rng.uniform(-2, 2, 3), *rng.uniform(0.5, 3.0, 3), rng.uniform(-3, 3))
            b = Box3D(*rng.uniform(-2, 2, 3), *rng.uniform(0.5, 3.0, 3), rng.uniform(-3, 3))
            yaw = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-5, 5, 3)
            before = iou_3d(a, b)
            after = iou_3d(transform_box3d(a, yaw, t), transform_box3d(b, yaw, t))
            assert after == pytest.approx(before, abs=1e-9)

    def test_yaw_mod_pi_equivalence(self):
        a = Box3D(0, 0, 0, 4, 2, 1.5, 0.4)
        flipped = Box3D(0, 0, 0, 4, 2, 1.5, 0.4 + math.pi)
        assert iou_3d(a, flipped) == pytest.approx(1.0, abs=1e-9)


class TestPca2d:
    def test_axis_aligned_rectangle_corners(self):
        v1, v2 = pca_2d([[1, 0.5], [1, -0.5], [-1, 0.5], [-1, -0.5]])
        assert np.allclose(v1, [1, 0])
        assert np.allclose(v2, [0, 1])

    def test_rotated_rectangle(self):
        ang = math.radians(30)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        pts = np.array([[1, 0.5], [1, -0.5], [-1, 0.5], [-1, -0.5]]) @ rot.T
        v1, _ = pca_2d(pts)
        assert np.allclose(v1, [math.cos(ang), math.sin(ang)], atol=1e-12)

    def test_isotropic_tie_breaks_to_x(self):
        v1, v2 = pca_2d([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        assert np.allclose(v1, [1, 0])
        assert np.allclose(v2, [0, 1])

    def test_zero_covariance_raises(self):
        with pytest.raises(DegenerateSpread):
            pca_2d([[2, 3], [2, 3], [2, 3]])
        with pytest.raises(DegenerateSpread):
            pca_2d([[2, 3]])

    def test_rotation_equivariance_mod_pi(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(60, 2)) * np.array([3.0, 0.7])
        v1_base, _ = pca_2d(base)
        for _ in range(25):
            phi = rng.uniform(-math.pi, math.pi)
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            v1_rot, _ = pca_2d(base @ rot.T)
            # mod pi: rotated axis matches up to sign
            expected = rot @ v1_base
            assert min(np.linalg.norm(v1_rot - expected), np.linalg.norm(v1_rot + expected)) < 1e-9


class TestValidation:
    def test_box2d_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Box2D(1, 0, 1, 2)
        with pytest.raises(ValueError):
            Box2D(0, 5, 2, 5)

    def test_box3d_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1, -1, 1, 0)

    def test_box3d_normalizes_yaw(self):
        assert Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi).yaw == pytest.approx(math.pi)
        assert normalize_yaw(-math.pi) == pytest.approx(math.pi)
        assert normalize_yaw(0.1) == pytest.approx(0.1)

    def test_polygon_rejects_clockwise(self):
        with pytest.raises(ValueError):
            ConvexPolygon2D([[0, 0], [0, 1], [1, 1], [1, 0]])

    def test_polygon_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ConvexPolygon2D([[0, 0], [0, 0], [1, 1], [0, 1]])
