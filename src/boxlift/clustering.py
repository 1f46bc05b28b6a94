"""Temporal aggregation, DBSCAN cleaning and the quality gate.

Aggregation unions the per-frame extracted points of a static track into
one world-frame cloud; DBSCAN separates the object body from stray
background points that leaked through the 2D annotation, and the largest
cluster is kept for box fitting.  DBSCAN's eps-neighbour search is a
``scipy.spatial.cKDTree`` ball query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyAggregate, NoClusterError
from .scene import ObjectTrack

NOISE = -1


@dataclass(eq=False)
class AggregatedInstance:
    track_id: str
    points_agg: np.ndarray                 # (n, 3) world frame
    point_frame_ids: np.ndarray            # (n,) source frame per point
    point_indices: np.ndarray              # (n,) index within the source frame cloud
    n_views: int                           # frames with a non-empty extraction


def aggregate_static(track: ObjectTrack) -> AggregatedInstance:
    """Concatenate per-frame extracted points, keeping per-point provenance."""
    chunks, fids, idxs = [], [], []
    n_views = 0
    for fid in track.frame_ids:
        obs = track.observations[fid]
        if len(obs.points) == 0:
            continue
        n_views += 1
        chunks.append(obs.points)
        fids.append(np.full(len(obs.points), fid, dtype=np.int64))
        idxs.append(np.asarray(obs.indices, dtype=np.int64))
    if not chunks:
        raise EmptyAggregate(f"track {track.track_id!r} has no extracted points")
    return AggregatedInstance(
        track_id=track.track_id,
        points_agg=np.concatenate(chunks),
        point_frame_ids=np.concatenate(fids),
        point_indices=np.concatenate(idxs),
        n_views=n_views,
    )


def dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Euclidean DBSCAN; returns per-point cluster labels, noise = -1.

    Neighbourhoods (distance <= eps, self included) come from one KD-tree:
    core points are counted for all points at once, and the expansion and
    border passes query a point's neighbours only when they visit it, so
    the neighbour lists are never all held in memory.

    Labeling is deterministic for a fixed input order: cluster ids are
    assigned in order of each cluster's first core point, and a border
    point joins the cluster of its lowest-index core neighbor.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels
    tree = cKDTree(pts)
    core = tree.query_ball_point(pts, eps, return_length=True) >= min_pts
    cluster = 0
    for start in range(n):
        if not core[start] or labels[start] != NOISE:
            continue
        labels[start] = cluster
        queue = [start]
        while queue:
            j = queue.pop()
            for nb in tree.query_ball_point(pts[j], eps):
                if core[nb] and labels[nb] == NOISE:
                    labels[nb] = cluster
                    queue.append(nb)
        cluster += 1
    for i in range(n):
        if core[i] or labels[i] != NOISE:
            continue
        for nb in tree.query_ball_point(pts[i], eps, return_sorted=True):
            if core[nb]:
                labels[i] = labels[nb]
                break
    return labels


def select_dominant_cluster(inst: AggregatedInstance, labels: np.ndarray) -> np.ndarray:
    """Ascending indices into ``points_agg`` of the largest cluster; ties
    are resolved toward the aggregate median, then by cluster id."""
    labels = np.asarray(labels)
    ids = np.unique(labels[labels != NOISE])
    if len(ids) == 0:
        raise NoClusterError(f"track {inst.track_id!r}: all points labelled noise")
    sizes = {int(cid): int((labels == cid).sum()) for cid in ids}
    best_size = max(sizes.values())
    tied = [cid for cid, s in sizes.items() if s == best_size]
    if len(tied) > 1:
        median = np.median(inst.points_agg, axis=0)
        dist = {
            cid: float(np.linalg.norm(inst.points_agg[labels == cid].mean(axis=0) - median))
            for cid in tied
        }
        best_dist = min(dist.values())
        tied = [cid for cid in tied if dist[cid] == best_dist]
    winner = min(tied)
    return np.flatnonzero(labels == winner)


@dataclass(frozen=True)
class GateResult:
    passed: bool
    reason: str | None = None


def quality_gate(
    cluster: np.ndarray,
    inst: AggregatedInstance,
    min_points: int = 10,
    min_views: int = 2,
) -> GateResult:
    """Reject instances whose clean cluster is too sparse or too few-viewed."""
    if cluster.size < min_points:
        return GateResult(False, "sparse")
    if inst.n_views < min_views:
        return GateResult(False, "views")
    return GateResult(True)
