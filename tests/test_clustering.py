import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlift.clustering import (
    AggregatedInstance,
    _neighbour_pairs,
    aggregate_static,
    dbscan,
    quality_gate,
    select_dominant_cluster,
)
from boxlift.errors import EmptyAggregate, NoClusterError
from boxlift.extraction import build_tracks
from boxlift.geometry import Box2D
from boxlift.scene import Annotation2D, ObjectTrack, Observation
from boxlift.synthetic import generate_scene
from reference import brute_force_dbscan
from support import (
    DEFAULTS, camera_looking, corridor_instances, dense_coarse_instances, face_ids,
    passing_config,
)


def relabel_canonical(labels):
    """Map cluster ids to first-appearance order so labelings compare."""
    labels = np.asarray(labels)
    mapping = {}
    out = np.full(len(labels), -1, dtype=np.int64)
    nxt = 0
    for i, lab in enumerate(labels):
        if lab == -1:
            continue
        if lab not in mapping:
            mapping[lab] = nxt
            nxt += 1
        out[i] = mapping[lab]
    return out


CAMERA = camera_looking([0.0, 0.0, 0.0], 0.0)


def track_from_points(per_frame_points, class_label="Car"):
    observations = {}
    for fid, pts in per_frame_points.items():
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        ann = Annotation2D("t-0", class_label, "cam", Box2D(0, 0, 10, 10))
        observations[fid] = Observation(ann, CAMERA, pts, np.arange(len(pts)))
    return ObjectTrack("t-0", class_label, observations)


class TestAggregate:
    def test_counts_and_views(self):
        rng = np.random.default_rng(40)
        track = track_from_points({i: rng.normal(size=(10, 3)) for i in range(3)})
        inst = aggregate_static(track)
        assert len(inst.points_agg) == 30
        assert inst.n_views == 3
        assert len(inst.point_frame_ids) == 30

    def test_single_frame_identity(self):
        pts = np.arange(15, dtype=float).reshape(5, 3)
        inst = aggregate_static(track_from_points({7: pts}))
        assert np.array_equal(inst.points_agg, pts)
        assert inst.n_views == 1

    def test_empty_union_raises(self):
        track = track_from_points({0: np.empty((0, 3)), 1: np.empty((0, 3))})
        with pytest.raises(EmptyAggregate):
            aggregate_static(track)

    def test_face_coverage_from_multi_view(self):
        scene = generate_scene(passing_config(41, n_cars=2, n_frames=8, sigma=0.0))
        spans = {
            (f.frame_id, s.track_id): s for f in scene.frames for s in f.gt_spans
        }
        for track in build_tracks(scene, DEFAULTS):
            inst = aggregate_static(track)
            boxes = scene.gt_tracks[track.track_id].boxes
            faces = set()
            for fid, idxs, point in zip(inst.point_frame_ids, inst.point_indices, inst.points_agg):
                span = spans[(int(fid), track.track_id)]
                rel = int(idxs) - span.start
                if rel < span.count - span.n_bleed:
                    faces.update(face_ids(point, boxes[int(fid)]).tolist())
            assert len(faces) >= 3


def range_edge_clouds() -> list[tuple[np.ndarray, float, int]]:
    """(points, eps, min_pts) at the edges of the contiguous-range pair
    search: cells are a hair wider than eps, sorted by x-y column, then z."""
    rng = np.random.default_rng(52)
    # One column with z cells 0, 1, 3 and 7 apart by gaps of 1, 2 and 4.
    z = np.repeat([0.1, 0.95, 1.05, 1.9, 3.3, 3.95, 7.5, 7.9], 3) + rng.uniform(0, 0.05, 24)
    column = np.column_stack([rng.uniform(0, 0.9, (24, 2)), z])
    # A 4 x 4 x 4 lattice at exactly eps: 0 and eps share a cell, so pairs
    # at eps cross column and z boundaries and also lie inside one cell.
    lattice = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), axis=-1).reshape(-1, 3) * 0.5
    # The column right of the first holds cells only at z - 2 and z + 2.
    gap = np.array([[0.5, 0.5, 2.5], [0.5, 0.5, 2.6], [1.5, 0.5, 0.5], [1.5, 0.5, 4.5],
                    [1.5, 0.5, 4.6], [1.6, 0.5, 0.6]])
    one_cell = rng.uniform(0, 0.4, (60, 3))
    return [
        (column, 1.0, 3),
        (lattice, 0.5, 5),
        (lattice + 1e3, 0.5, 7),
        (gap, 1.0, 2),
        (np.array([[1.0, 2.0, 3.0]]), 0.5, 1),
        (one_cell, 0.5, 10),
        (one_cell, 0.5, 61),
    ]


class TestDbscan:
    def test_two_blobs(self):
        rng = np.random.default_rng(42)
        a = rng.normal(0, 0.1, (20, 3))
        b = rng.normal(0, 0.1, (20, 3)) + [10, 0, 0]
        labels = dbscan(np.concatenate([a, b]), eps=0.5, min_pts=3)
        assert set(labels) == {0, 1}
        assert (labels[:20] == labels[0]).all()
        assert (labels[20:] == labels[20]).all()

    def test_isolated_points_all_noise(self):
        pts = np.array([[0, 0, 0], [5, 0, 0], [10, 0, 0], [15, 0, 0], [20, 0, 0]], float)
        labels = dbscan(pts, eps=0.5, min_pts=10)
        assert (labels == -1).all()

    def test_single_dense_blob(self):
        rng = np.random.default_rng(43)
        pts = rng.normal(0, 0.2, (50, 3))
        labels = dbscan(pts, eps=0.5, min_pts=5)
        assert set(labels) == {0}

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(44)
        cases = []
        for _ in range(50):
            n = int(rng.integers(1, 120))
            pts = rng.uniform(-3, 3, (n, 3))
            eps = float(rng.uniform(0.2, 1.5))
            cases.append((pts, eps, int(rng.integers(1, 12))))
        # Integer lattices with eps equal to the spacing: neighbour distances
        # tie exactly at eps, where the `<= eps` boundary decides.
        for spacing in (0.25, 0.5, 1.0):
            for _ in range(20):
                n = int(rng.integers(1, 120))
                pts = rng.integers(-3, 4, (n, 3)) * spacing
                cases.append((pts, spacing, int(rng.integers(1, 8))))
        # A cloud spanning +-1e6 m at eps 0.05: about 4e7 cells per axis, so
        # a cell key multiplied out over the three axes would overflow int64.
        centres = rng.uniform(-1e6, 1e6, (30, 3))
        far = np.repeat(centres, 5, axis=0) + rng.normal(0, 0.02, (150, 3))
        cases.append((far, 0.05, 3))
        # Chains with links eps long along one axis.  From an integer start
        # with eps 0.25 every link is exactly eps, on the inclusive boundary;
        # from a random start with eps 0.3, rounding puts links either side.
        for axis in range(3):
            for start, eps in ((rng.integers(-50, 50, 3), 0.25), (rng.uniform(-50, 50, 3), 0.3)):
                step = np.zeros(3)
                step[axis] = eps
                cases.append((start + np.arange(6)[:, None] * step, eps, 3))
        # Duplicate points: each copy is a neighbour of the others.
        dup = rng.uniform(-1, 1, (20, 3))
        cases.append((np.concatenate([dup, dup, dup[:7]]), 0.3, 3))
        # Fewer points than min_pts: everything is noise.
        cases.append((rng.uniform(-0.1, 0.1, (4, 3)), 0.5, 5))
        cases += range_edge_clouds()
        # The bench scenes' aggregates, shuffled so that input order says
        # nothing about cell order: cluster ids and border points must
        # still follow input indices.
        for inst in dense_coarse_instances() + corridor_instances():
            cases.append((rng.permutation(inst.points_agg), 0.5, 10))
        # Random walks with steps just under eps, and a helix: each is one
        # chain that takes 3 to 5 rounds of hooking and pointer jumping.
        for seed in (0, 3):
            steps = np.random.default_rng(seed).normal(size=(300, 3))
            steps *= 0.45 / np.linalg.norm(steps, axis=1)[:, None]
            cases.append((np.cumsum(steps, axis=0), 0.5, 2))
        t = np.linspace(0, 12 * np.pi, 400)
        cases.append((np.column_stack([np.cos(t), np.sin(t), 0.05 * t]), 0.2, 2))
        # Many small components in shuffled order: 200 tight triples on a
        # wide grid, then every other point of them, 100 pairs and 100 lone
        # points, which min_pts 2 splits into clusters and noise.
        grid = np.stack(np.meshgrid(np.arange(10), np.arange(10), np.arange(2)), -1)
        triples = np.repeat(grid.reshape(-1, 3) * 3.0, 3, axis=0) + rng.normal(0, 0.05, (600, 3))
        cases.append((rng.permutation(triples), 0.5, 3))
        cases.append((rng.permutation(triples[::2]), 0.5, 2))
        cases.append((rng.permutation(triples[::2]), 0.5, 1))
        # Duplicates: one point 40 times, and a cloud with every point twice
        # in shuffled order.
        cases.append((np.tile([[0.3, -1.2, 4.0]], (40, 1)), 0.1, 40))
        cloud = rng.uniform(-2, 2, (150, 3))
        cases.append((rng.permutation(np.concatenate([cloud, cloud])), 0.4, 4))
        # min_pts 1 makes every point core; min_pts above n makes all noise.
        cases.append((rng.uniform(-2, 2, (200, 3)), 0.3, 1))
        cases.append((rng.uniform(-0.2, 0.2, (200, 3)), 0.5, 201))
        cases.append((dense_coarse_instances()[0].points_agg, 0.5, 1))
        for pts, eps, min_pts in cases:
            mine = dbscan(pts, eps, min_pts)
            ref = brute_force_dbscan(pts, eps, min_pts)
            assert np.array_equal(mine, ref)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", [1e-300, 5e-324])
    def test_matches_brute_force_at_tiny_eps(self, eps):
        # The cell quotients pass int64 range, and at 5e-324 overflow to
        # inf: only exact duplicates are neighbours, and each distinct
        # point keeps a cell of its own.  A cast of an out-of-range quotient
        # would warn, and would put every point in one cell.
        rng = np.random.default_rng(52)
        cloud = rng.uniform(-3, 3, (60, 3))
        far = rng.uniform(-1e6, 1e6, (30, 3))
        lattice = rng.integers(-2, 3, (80, 3)) * 0.5
        for pts, min_pts in ((np.concatenate([cloud, cloud[:40], cloud[:20]]), 2),
                             (np.concatenate([far, far[:10]]), 2),
                             (lattice, 3),
                             (cloud, 1)):
            pts = rng.permutation(pts)
            labels = dbscan(pts, eps, min_pts)
            assert labels.max() >= 0
            assert np.array_equal(labels, brute_force_dbscan(pts, eps, min_pts))

    def test_matches_brute_force_on_crowded_cells(self):
        # About 1,500 points in a 1.2 m cube at eps 0.5: each cell holds
        # hundreds of points.  Neighbour counts run from about 60 in the
        # corners to about 460 in the middle, so min_pts 350 leaves core,
        # border and noise points.
        pts = np.random.default_rng(50).uniform(0, 1.2, (1500, 3))
        labels = dbscan(pts, 0.5, 350)
        assert {-1, 0} <= set(labels.tolist())
        assert np.array_equal(labels, brute_force_dbscan(pts, 0.5, 350))

    @pytest.mark.parametrize("track", range(3))
    def test_matches_brute_force_on_dense_coarse(self, track):
        # The aggregated clouds DBSCAN cleans on the dense_coarse bench
        # scene, at the bench pipeline's eps and min_pts.
        pts = dense_coarse_instances()[track].points_agg
        assert np.array_equal(dbscan(pts, 0.5, 10), brute_force_dbscan(pts, 0.5, 10))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force_up_to_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 80))
        pts = rng.normal(0, 1.0, (n, 3)) * rng.uniform(0.3, 2.0)
        eps = float(rng.uniform(0.1, 1.0))
        min_pts = int(rng.integers(1, 10))
        mine = relabel_canonical(dbscan(pts, eps, min_pts))
        ref = relabel_canonical(brute_force_dbscan(pts, eps, min_pts))
        assert np.array_equal(mine, ref)

    def test_labels_partition_non_noise(self):
        rng = np.random.default_rng(45)
        pts = rng.normal(0, 1.0, (200, 3))
        labels = dbscan(pts, eps=0.4, min_pts=4)
        ids = sorted(set(labels) - {-1})
        assert ids == list(range(len(ids)))
        assert sum((labels == cid).sum() for cid in ids) == (labels != -1).sum()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((3, 3)), eps=0.0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan(np.zeros((3, 3)), eps=0.5, min_pts=0)


class TestNeighbourPairs:
    def test_each_close_pair_exactly_once(self):
        rng = np.random.default_rng(51)
        clouds = [
            (rng.uniform(0, 1.2, (1500, 3)), 0.5),
            # Lattice points tie at eps, on the inclusive boundary.
            (rng.integers(-3, 4, (300, 3)) * 0.25, 0.25),
            (dense_coarse_instances()[0].points_agg, 0.5),
        ]
        clouds += [(pts, eps) for pts, eps, _ in range_edge_clouds()]
        for pts, eps in clouds:
            i, j, order = _neighbour_pairs(pts, eps)
            # Positions in cell order: position p is input point order[p].
            assert np.array_equal(np.sort(order), np.arange(len(pts)))
            i, j = order[i], order[j]
            assert not (i == j).any()
            found = np.sort(np.column_stack([i, j]), axis=1)
            found = found[np.lexsort((found[:, 1], found[:, 0]))]
            within = np.array([((pts - p) ** 2).sum(axis=1) <= eps * eps for p in pts])
            assert np.array_equal(found, np.argwhere(np.triu(within, 1)))


def make_instance(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    return AggregatedInstance(
        track_id="t-0",
        points_agg=points,
        point_frame_ids=np.zeros(n, dtype=np.int64),
        point_indices=np.arange(n),
        n_views=1,
    )


class TestDominantCluster:
    def test_largest_wins(self):
        rng = np.random.default_rng(46)
        big = rng.normal(0, 0.2, (120, 3))
        small = rng.normal(0, 0.2, (30, 3)) + [10, 0, 0]
        pts = np.concatenate([big, small])
        inst = make_instance(pts)
        labels = dbscan(pts, eps=0.6, min_pts=5)
        cluster = select_dominant_cluster(inst, labels)
        assert cluster.size == 120
        assert (cluster < 120).all() and (np.diff(cluster) > 0).all()

    def test_all_noise_raises(self):
        pts = np.array([[0, 0, 0], [5, 0, 0], [10, 0, 0]], float)
        inst = make_instance(pts)
        labels = dbscan(pts, eps=0.5, min_pts=5)
        with pytest.raises(NoClusterError):
            select_dominant_cluster(inst, labels)

    def test_equal_clusters_tie_break_lowest_id(self):
        rng = np.random.default_rng(47)
        a = rng.normal(0, 0.1, (25, 3)) + [-5, 0, 0]
        b = rng.normal(0, 0.1, (25, 3)) + [5, 0, 0]
        pts = np.concatenate([a, b])
        inst = make_instance(pts)
        labels = dbscan(pts, eps=0.6, min_pts=5)
        assert {tuple(sorted(set(labels)))} == {(0, 1)}
        cluster = select_dominant_cluster(inst, labels)
        assert labels[cluster[0]] == 0

    def test_excludes_injected_bleed(self):
        scene = generate_scene(
            passing_config(48, n_cars=2, n_frames=8, bleed_fraction=0.02,
                           bleed_offset_range=(1.0, 4.0))
        )
        spans = {(f.frame_id, s.track_id): s for f in scene.frames for s in f.gt_spans}
        for track in build_tracks(scene, DEFAULTS):
            inst = aggregate_static(track)
            labels = dbscan(inst.points_agg, 0.5, 10)
            cluster = select_dominant_cluster(inst, labels)
            chosen = set(map(tuple, np.column_stack(
                [inst.point_frame_ids[cluster], inst.point_indices[cluster]]
            )))
            n_bleed_total = 0
            n_bleed_kept = 0
            for fid in track.frame_ids:
                span = spans.get((fid, track.track_id))
                if span is None:
                    continue
                for raw in range(span.start + span.count - span.n_bleed,
                                 span.start + span.count):
                    n_bleed_total += 1
                    if (fid, raw) in chosen:
                        n_bleed_kept += 1
            if n_bleed_total >= 10:
                assert n_bleed_kept / n_bleed_total <= 0.05


class TestQualityGate:
    def cluster_of(self, n):
        return np.arange(n)

    def inst_with_views(self, n_views, n_points=50):
        inst = make_instance(np.zeros((n_points, 3)))
        inst.n_views = n_views
        return inst

    def test_sparse(self):
        gate = quality_gate(self.cluster_of(9), self.inst_with_views(5), 10, 2)
        assert not gate.passed and gate.reason == "sparse"

    def test_views(self):
        gate = quality_gate(self.cluster_of(200), self.inst_with_views(1), 10, 2)
        assert not gate.passed and gate.reason == "views"

    def test_pass(self):
        gate = quality_gate(self.cluster_of(50), self.inst_with_views(4), 10, 2)
        assert gate.passed and gate.reason is None

    def test_monotone_in_points(self):
        rng = np.random.default_rng(49)
        for _ in range(100):
            n = int(rng.integers(0, 40))
            views = int(rng.integers(1, 6))
            min_pts = int(rng.integers(1, 30))
            min_views = int(rng.integers(1, 4))
            before = quality_gate(self.cluster_of(n), self.inst_with_views(views),
                                  min_pts, min_views)
            after = quality_gate(self.cluster_of(n + int(rng.integers(1, 20))),
                                 self.inst_with_views(views), min_pts, min_views)
            if before.passed:
                assert after.passed
