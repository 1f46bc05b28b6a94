"""Temporal aggregation, DBSCAN cleaning and the quality gate.

Aggregation unions the per-frame extracted points of a static track into
one world-frame cloud; DBSCAN separates the object body from stray
background points that leaked through the 2D annotation, and the largest
cluster is kept for box fitting.  DBSCAN finds its eps-neighbour pairs
with a voxel hash of cell size eps, sorted by x-y column and then by z,
so the cells z-1..z+1 of a column hold one contiguous range of points.
Each point is compared with the later points of its own cell and the
next z cell, and with one such range in each of 4 neighbour columns:
every pair of points in touching cells is tested once, and the cost
grows with the points in each point's 3 x 3-column block.  Clusters are
joined on the points' positions in that cell order too; only the
finished labels go back to input order.
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


# The x-y column offsets (dx, dy) > (0, 0): one of each neighbour pair.
_HALF_COLUMNS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _squeeze(coords: np.ndarray) -> np.ndarray:
    """Integer-valued float coordinates, infinities included, renumbered
    from 1 as int64 with every gap wider than 2 closed to 2: neighbouring
    values stay 1 apart, the rest stay apart, and the range is at most
    twice the number of distinct values."""
    values, inverse = np.unique(coords, return_inverse=True)
    gaps = np.minimum(np.diff(values), 2).astype(np.int64)
    return np.concatenate([[1], 1 + np.cumsum(gaps)])[inverse]


def _find(sorted_keys: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each target in ``sorted_keys``, and whether it is there."""
    at = np.minimum(np.searchsorted(sorted_keys, targets), len(sorted_keys) - 1)
    return at, sorted_keys[at] == targets


def _neighbour_pairs(pts: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair i != j with squared distance <= eps**2, each pair once,
    as positions in cell order: returns ``(i, j, order)``, where position
    ``p`` is input point ``order[p]``.

    Points are binned into cells a hair wider than eps (by 2**-20), which
    absorbs the rounding of the division for coordinates up to about 1e9
    cells: two points within eps are never more than one cell apart.
    Cell coordinates are squeezed per axis and keyed in two steps (x-y
    column, then z), so the keys fit in int64 for any coordinate range.
    The coordinates are copied into three arrays in cell order: a column's
    cells follow each other by z, so the points of any run of its cells
    are one contiguous range of positions.

    Each point is compared with one range of later positions per range
    set: the rest of its own cell and the next z cell, and, for each of
    the 4 column offsets in ``_HALF_COLUMNS``, cells z-1..z+1 of that
    column.  Two ``searchsorted`` calls per cell find a range; squeezing
    keeps z in [1, z_span - 2], so z-1 and z+2 stay inside the column.
    Each unordered pair of touching cells is covered once.  A candidate's
    squared distance is dx*dx + dy*dy + dz*dz on 1-D gathers, the same sum
    in the same order as a row reduction.  One range set's candidates are
    held at a time.
    """
    # A tiny eps takes the quotients past int64 range, or to inf; they are
    # squeezed as floats, and only the squeezed values, below 2n, are cast.
    with np.errstate(over="ignore"):
        cells = np.floor(pts / (eps * (1 + 2.0**-20)))
        x, y, z = (_squeeze(cells[:, axis]) for axis in range(3))
    y_span, z_span = int(y.max()) + 2, int(z.max()) + 2
    columns, column_of = np.unique(x * y_span + y, return_inverse=True)
    keys, cell_of = np.unique(column_of * z_span + z, return_inverse=True)
    order = np.argsort(cell_of, kind="stable")     # point indices grouped by cell
    coords = [np.ascontiguousarray(pts[order, axis]) for axis in range(3)]
    counts = np.bincount(cell_of)
    bounds = np.concatenate([[0], np.cumsum(counts)])   # cell c is bounds[c]:bounds[c + 1]
    cell_column, cell_z = keys // z_span, keys % z_span
    eps2 = eps * eps
    found_i, found_j = [], []
    for half in (None,) + _HALF_COLUMNS:
        if half is None:
            lo = np.arange(1, len(pts) + 1)
            hi = np.repeat(bounds[np.searchsorted(keys, keys + 2)], counts)
        else:
            column, present = _find(columns, columns + half[0] * y_span + half[1])
            base = column[cell_column] * z_span + cell_z
            cell_lo = bounds[np.searchsorted(keys, base - 1)]
            cell_hi = np.where(present[cell_column], bounds[np.searchsorted(keys, base + 2)],
                               cell_lo)
            lo, hi = np.repeat(cell_lo, counts), np.repeat(cell_hi, counts)
        # Candidate k is point i = searchsorted(ends, k, "right") and
        # position pj[k] of its range.
        sizes = hi - lo
        ends = np.cumsum(sizes)
        pj = np.arange(ends[-1])
        pj += np.repeat(lo - (ends - sizes), sizes)
        del lo, hi
        # (b - a)**2 == (a - b)**2 exactly, so the sign of a delta is free.
        dist2 = None
        for c in coords:
            delta = c.take(pj)
            delta -= np.repeat(c, sizes)
            delta *= delta
            if dist2 is None:
                dist2 = delta
            else:
                dist2 += delta
        del delta
        close = np.flatnonzero(dist2 <= eps2)
        del dist2
        found_i.append(np.searchsorted(ends, close, side="right"))
        found_j.append(pj[close])
    return np.concatenate(found_i), np.concatenate(found_j), order


def dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Euclidean DBSCAN; returns per-point cluster labels, noise = -1.

    Neighbours are the points within eps, boundary included, found as
    pairs with a voxel hash (see ``_neighbour_pairs``); a point is core
    when its neighbours, itself included, number at least ``min_pts``.
    Core points joined by a pair form a cluster.  Clusters are found by
    min-label propagation with pointer jumping along the core-core pairs,
    on the points' positions in cell order, where a pair's two ends lie
    close in memory; after each round the pairs whose ends share a root
    are dropped.  All work is array operations over the pairs, with no
    per-point Python loop.

    Labeling is deterministic for a fixed input order: cluster ids are
    assigned in order of each cluster's first core point (its lowest
    input index), and a border point joins the cluster of its
    lowest-index core neighbor.
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
    i, j, order = _neighbour_pairs(pts, eps)
    core = 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n) >= min_pts
    # Each non-core point's lowest-index core neighbour, by input index,
    # found first so that only the core-core pairs are held through the
    # propagation loop.
    border = core[i] != core[j]
    nearest_core = np.full(n, n)
    np.minimum.at(nearest_core, order[np.where(core[i], j, i)[border]],
                  order[np.where(core[i], i, j)[border]])
    linked = core[i] & core[j]
    ci, cj = i[linked], j[linked]
    del i, j, border, linked
    root = np.arange(n)
    while len(ci):
        ri, rj = root[ci], root[cj]
        low = np.minimum(ri, rj)
        np.minimum.at(root, ri, low)
        np.minimum.at(root, rj, low)
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
        apart = root[ci] != root[cj]
        ci, cj = ci[apart], cj[apart]
    # Clusters are numbered in order of their lowest input index.
    lowest = np.full(n, n)
    np.minimum.at(lowest, root[core], order[core])
    first = np.zeros(n, dtype=bool)
    first[lowest[lowest < n]] = True
    labels[order[core]] = (np.cumsum(first) - 1)[lowest[root[core]]]
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


def quality_gate(cluster: np.ndarray, inst: AggregatedInstance, min_points: int,
                 min_views: int) -> GateResult:
    """Reject instances whose clean cluster is too sparse or too few-viewed."""
    if cluster.size < min_points:
        return GateResult(False, "sparse")
    if inst.n_views < min_views:
        return GateResult(False, "views")
    return GateResult(True)
