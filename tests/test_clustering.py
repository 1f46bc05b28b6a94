import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxlift.clustering import (
    AggregatedInstance,
    CleanCluster,
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
from support import camera_looking, passing_config


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
        for track in build_tracks(scene):
            inst = aggregate_static(track)
            faces = set()
            for fid, idxs in zip(inst.point_frame_ids, inst.point_indices):
                span = spans[(int(fid), track.track_id)]
                rel = int(idxs) - span.start
                if rel < span.count - span.n_bleed:
                    faces.add(span.faces[rel])
            assert len(faces) >= 3


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
        for pts, eps, min_pts in cases:
            mine = dbscan(pts, eps, min_pts)
            ref = brute_force_dbscan(pts, eps, min_pts)
            assert np.array_equal(mine, ref)

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
        assert (cluster.indices < 120).all()

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
        assert labels[cluster.indices[0]] == 0

    def test_excludes_injected_bleed(self):
        scene = generate_scene(
            passing_config(48, n_cars=2, n_frames=8, bleed_fraction=0.02,
                           bleed_offset_range=(1.0, 4.0))
        )
        spans = {(f.frame_id, s.track_id): s for f in scene.frames for s in f.gt_spans}
        for track in build_tracks(scene):
            inst = aggregate_static(track)
            labels = dbscan(inst.points_agg, 0.5, 10)
            cluster = select_dominant_cluster(inst, labels)
            chosen = set(map(tuple, np.column_stack(
                [inst.point_frame_ids[cluster.indices], inst.point_indices[cluster.indices]]
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
        return CleanCluster(indices=np.arange(n))

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
