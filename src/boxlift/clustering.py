"""Temporal aggregation, DBSCAN cleaning and the quality gate.

Aggregation unions the per-frame extracted points of a static track into
one world-frame cloud; DBSCAN separates the object body from stray
background points that leaked through the 2D annotation, and the largest
cluster is kept for box fitting.  DBSCAN finds its eps-neighbour pairs
with a voxel hash of cell size eps: each occupied cell is compared with
itself and with 13 of its 26 neighbour cells, so every pair of points in
touching cells is tested once.  The points' coordinates are copied into
three arrays in cell order, so a cell is one contiguous run in each and
the distance test reads 1-D gathers; only the close pairs are mapped
back to input indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


# The cell offsets o > (0, 0, 0): one of each neighbour pair (o, -o).
_HALF_OFFSETS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
                 if (dx, dy, dz) > (0, 0, 0)]


def _squeeze(coords: np.ndarray) -> np.ndarray:
    """Integer coordinates renumbered from 1 with every gap wider than 2
    closed to 2: neighbouring values stay 1 apart, the rest stay apart,
    and the range is at most twice the number of distinct values."""
    values, inverse = np.unique(coords, return_inverse=True)
    return np.concatenate([[1], 1 + np.cumsum(np.minimum(np.diff(values), 2))])[inverse]


def _find(sorted_keys: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each target in ``sorted_keys``, and whether it is there."""
    at = np.minimum(np.searchsorted(sorted_keys, targets), len(sorted_keys) - 1)
    return at, sorted_keys[at] == targets


def _neighbour_pairs(pts: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Every pair i != j with squared distance <= eps**2, each pair once.

    Points are binned into cells a hair wider than eps (by 2**-20), which
    absorbs the rounding of the division for coordinates up to about 1e9
    cells: two points within eps are never more than one cell apart.
    Cell coordinates are squeezed per axis and keyed in two steps (x-y
    column, then z), so the keys fit in int64 for any coordinate range.
    The coordinates are copied into three arrays in cell order, so each
    cell's points are one contiguous run and a candidate pair is two
    positions in those runs.  Its squared distance is dx*dx + dy*dy + dz*dz
    on 1-D gathers, the same sum in the same order as a row reduction.
    Candidates are filtered offset by offset, with the arithmetic done in
    place, and only the close pairs are mapped back to input indices, so
    only the close pairs of all offsets are held at once.
    """
    cells = np.floor(pts / (eps * (1 + 2.0**-20))).astype(np.int64)
    x, y, z = (_squeeze(cells[:, axis]) for axis in range(3))
    y_span, z_span = int(y.max()) + 2, int(z.max()) + 2
    columns, column_of = np.unique(x * y_span + y, return_inverse=True)
    keys, cell_of = np.unique(column_of * z_span + z, return_inverse=True)
    order = np.argsort(cell_of, kind="stable")     # point indices grouped by cell
    px, py, pz = (np.ascontiguousarray(pts[order, axis]) for axis in range(3))
    counts = np.bincount(cell_of)
    starts = np.cumsum(counts) - counts
    cell_column, cell_z = columns[keys // z_span], keys % z_span
    eps2 = eps * eps
    found_i, found_j = [], []
    for offset in [(0, 0, 0)] + _HALF_OFFSETS:
        column, in_columns = _find(columns, cell_column + offset[0] * y_span + offset[1])
        other, in_keys = _find(keys, column * z_span + cell_z + offset[2])
        a = np.flatnonzero(in_columns & in_keys)
        b = other[a]
        # All (point of cell a, point of cell b) candidates, enumerated flat:
        # candidate k of cell pair p is point k // width of a, k % width of b.
        sizes = counts[a] * counts[b]
        pair = np.repeat(np.arange(len(a)), sizes)
        rank = np.arange(len(pair))
        rank -= np.repeat(np.cumsum(sizes) - sizes, sizes)
        width = counts[b][pair]
        pi, pj = np.divmod(rank, width, out=(rank, width))
        pi += starts[a][pair]
        pj += starts[b][pair]
        del pair
        if offset == (0, 0, 0):
            upper = pi < pj
            pi, pj = pi[upper], pj[upper]
        dist2 = px[pi]
        dist2 -= px[pj]
        dist2 *= dist2
        for c in (py, pz):
            delta = c[pi]
            delta -= c[pj]
            delta *= delta
            dist2 += delta
        close = dist2 <= eps2
        del dist2
        found_i.append(order[pi[close]])
        found_j.append(order[pj[close]])
    return np.concatenate(found_i), np.concatenate(found_j)


def dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Euclidean DBSCAN; returns per-point cluster labels, noise = -1.

    Neighbours are the points within eps, boundary included, found as
    pairs with a voxel hash (see ``_neighbour_pairs``); a point is core
    when its neighbours, itself included, number at least ``min_pts``.
    Core points joined by a pair form a cluster: every core point takes
    the lowest index in its cluster, by min-label propagation along the
    core-core pairs with pointer jumping.  All work is array operations
    over the pairs, with no per-point Python loop.

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
    i, j = _neighbour_pairs(pts, eps)
    core = 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n) >= min_pts
    # Each non-core point's lowest-index core neighbour, found first so that
    # only the core-core pairs are held through the propagation loop.
    border = core[i] != core[j]
    nearest_core = np.full(n, n)
    np.minimum.at(nearest_core, np.where(core[i], j, i)[border], np.where(core[i], i, j)[border])
    linked = core[i] & core[j]
    ci, cj = i[linked], j[linked]
    del i, j, border, linked
    root = np.arange(n)
    while True:
        ri, rj = root[ci], root[cj]
        low = np.minimum(ri, rj)
        hooked = root.copy()
        np.minimum.at(hooked, ri, low)
        np.minimum.at(hooked, rj, low)
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, root):
            break
        root = hooked
    # A cluster's root is its first core point, so ranking roots orders clusters.
    first = core & (root == np.arange(n))
    labels[core] = (np.cumsum(first) - 1)[root[core]]
    joined = nearest_core < n
    labels[joined] = labels[nearest_core[joined]]
    return labels


def select_dominant_cluster(inst: AggregatedInstance, labels: np.ndarray) -> np.ndarray:
    """Ascending indices into ``points_agg`` of the largest cluster; ties
    are resolved toward the aggregate median, then by cluster id."""
    labels = np.asarray(labels)
    sizes = np.bincount(labels[labels != NOISE])
    if not sizes.any():
        raise NoClusterError(f"track {inst.track_id!r}: all points labelled noise")
    tied = np.flatnonzero(sizes == sizes.max()).tolist()
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
