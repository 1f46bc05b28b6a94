"""Independent oracle implementations used to check the production code.

Everything here is deliberately written from scratch against the textbook
definition (O(n^2) scans, Monte-Carlo sampling, per-pixel and per-edge
loops) and never calls the code paths it verifies.
"""

from __future__ import annotations

import math

import numpy as np

from boxlift.clustering import aggregate_static, dbscan, select_dominant_cluster
from boxlift.errors import BoxliftError
from boxlift.extraction import build_tracks
from boxlift.geometry import (BOX_EDGES, DEFAULT_Z_NEAR, Box3D, box3d_corners, giou_2d,
                              project_box3d, project_points)
from boxlift.masks import decode_mask


def brute_force_dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Textbook DBSCAN on a full distance matrix.

    Core points are those with >= min_pts neighbors (self included) within
    eps; clusters are connected components of the core-to-core adjacency;
    a border point joins the cluster of its lowest-index core neighbor.
    Cluster ids count up in order of each cluster's first core point.

    Exact only for eps above about 1e-150: it compares squared distances
    with eps * eps, and below about 2e-162 both underflow to 0, so any two
    points that close count as neighbours.  A pipeline ``dbscan_eps`` is at
    least 1e-6.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    # One row of the distance matrix at a time: a few thousand points fit.
    within = np.array([((pts - p) ** 2).sum(axis=1) <= eps * eps for p in pts])
    degree = within.sum(axis=1)
    core = degree >= min_pts

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        if not core[i]:
            continue
        for j in np.flatnonzero(within[i]):
            if core[j]:
                ri, rj = find(i), find(int(j))
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    next_id = 0
    root_label: dict[int, int] = {}
    for i in range(n):
        if not core[i]:
            continue
        root = find(i)
        if root not in root_label:
            root_label[root] = next_id
            next_id += 1
        labels[i] = root_label[root]
    for i in range(n):
        if core[i]:
            continue
        for j in np.flatnonzero(within[i]):
            if core[j]:
                labels[i] = labels[j]
                break
    return labels


def monotone_chain_hull(points) -> np.ndarray:
    """Monotone-chain convex hull on numpy rows, one numpy scalar at a time.

    Rows are deduplicated and sorted lexicographically; the vertices run
    CCW from the lowest row, collinear boundary points removed.  Fewer
    than 3 vertices come back for fewer than 3 distinct or all-collinear
    points.
    """
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)

    def half(chain_pts):
        out = []
        for p in chain_pts:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    return np.array(half(pts)[:-1] + half(pts[::-1])[:-1]).reshape(-1, 2)


def clip_convex_rows(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of one convex CCW polygon by another, on
    numpy rows and numpy scalars.  ``geometry._clip_convex`` runs the same
    float64 operations in the same order on Python floats, so the two
    must agree bit for bit."""
    out = subject
    m = len(clipper)
    for i in range(m):
        if len(out) == 0:
            break
        a = clipper[i]
        b = clipper[(i + 1) % m]
        ex, ey = b[0] - a[0], b[1] - a[1]
        # inside = on or left of the directed edge a->b
        side = ex * (out[:, 1] - a[1]) - ey * (out[:, 0] - a[0])
        inside = side >= -1e-12
        nxt: list[np.ndarray] = []
        n = len(out)
        for k in range(n):
            cur, nxt_pt = out[k], out[(k + 1) % n]
            cur_in, nxt_in = inside[k], inside[(k + 1) % n]
            if cur_in:
                nxt.append(cur)
            if cur_in != nxt_in:
                d = nxt_pt - cur
                denom = ex * d[1] - ey * d[0]
                if denom != 0.0:
                    s = (ey * (cur[0] - a[0]) - ex * (cur[1] - a[1])) / denom
                    nxt.append(cur + s * d)
        out = np.array(nxt) if nxt else np.empty((0, 2))
    return out


def points_in_box3d(points: np.ndarray, box) -> np.ndarray:
    """Inclusive point-in-box test via the box frame (independent of iou_3d)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    dx = pts[:, 0] - box.cx
    dy = pts[:, 1] - box.cy
    dz = pts[:, 2] - box.cz
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return (
        (np.abs(lx) <= 0.5 * box.l)
        & (np.abs(ly) <= 0.5 * box.w)
        & (np.abs(dz) <= 0.5 * box.h)
    )


def mc_iou_3d(a, b, n_samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo 3D IoU: uniform samples in the pair's bounding box.

    Samples are held in float32 to keep a million-sample draw cheap; the
    boundary blur this causes (~1e-7 relative) is far below the Monte-Carlo
    noise floor.
    """
    corners = np.concatenate([_corners(a), _corners(b)])
    lo = corners.min(axis=0).astype(np.float32)
    hi = corners.max(axis=0).astype(np.float32)
    samples = lo + rng.random((n_samples, 3), dtype=np.float32) * (hi - lo)
    in_a = _in_box_f32(samples, a)
    in_b = _in_box_f32(samples, b)
    union = int((in_a | in_b).sum())
    if union == 0:
        return 0.0
    return int((in_a & in_b).sum()) / union


def _in_box_f32(samples: np.ndarray, box) -> np.ndarray:
    c = np.float32(np.cos(box.yaw))
    s = np.float32(np.sin(box.yaw))
    dx = samples[:, 0] - np.float32(box.cx)
    dy = samples[:, 1] - np.float32(box.cy)
    dz = samples[:, 2] - np.float32(box.cz)
    lx = c * dx + s * dy
    ly = c * dy - s * dx
    return (
        (np.abs(lx) <= np.float32(0.5 * box.l))
        & (np.abs(ly) <= np.float32(0.5 * box.w))
        & (np.abs(dz) <= np.float32(0.5 * box.h))
    )


def _corners(box) -> np.ndarray:
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    out = []
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                x = sx * 0.5 * box.l
                y = sy * 0.5 * box.w
                out.append(
                    [
                        box.cx + c * x - s * y,
                        box.cy + s * x + c * y,
                        box.cz + sz * 0.5 * box.h,
                    ]
                )
    return np.array(out)


def clipped_silhouette_loop(camera, box, z_near: float) -> np.ndarray:
    """Box silhouette points by clipping each of the 12 edges in turn.

    Corners are moved into the camera frame; an edge with both ends at or
    behind ``z_near`` is dropped, and an edge crossing it keeps its front
    end plus the crossing point, interpolated from the lower-index corner.
    Returns the (n, 2) pixels of every kept point, duplicates included.
    """
    pose = camera.pose
    cam_pts = (box3d_corners(box) - pose.t) @ pose.rotation_matrix
    kept = []
    for i, j in BOX_EDGES:
        a, b = cam_pts[i], cam_pts[j]
        a_in, b_in = a[2] > z_near, b[2] > z_near
        if a_in:
            kept.append(a)
        if b_in:
            kept.append(b)
        if a_in != b_in:
            s = (z_near - a[2]) / (b[2] - a[2])
            p = a + s * (b - a)
            p[2] = z_near
            kept.append(p)
    if not kept:
        return np.empty((0, 2))
    pts = np.array(kept)
    u = camera.fx * pts[:, 0] / pts[:, 2] + camera.cx
    v = camera.fy * pts[:, 1] / pts[:, 2] + camera.cy
    return np.column_stack([u, v])


def l2d_multiview_loop(box, track, z_near: float = DEFAULT_Z_NEAR) -> float:
    """Multi-view 2D loss one view at a time: mean of 1 - GIoU, 2 for a missing projection.

    Each view is projected alone with ``project_box3d`` and scored with
    ``giou_2d``; the batched loss routes only its near-plane views through
    those, so this checks the batching, the routing and the summation order.
    """
    terms = []
    for fid in track.frame_ids:
        obs = track.observations[fid]
        pred = project_box3d(obs.camera, box, z_near=z_near)
        if pred is None:
            terms.append(2.0)
        else:
            terms.append(1.0 - giou_2d(pred, obs.annotation.box))
    return float(sum(terms) / len(terms))


def l_fit_rows(box, points) -> float:
    """Point-fit loss on an (n, 3) array of rows in the box frame."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    d = pts - box.center
    local = np.empty_like(d)
    local[:, 0] = c * d[:, 0] + s * d[:, 1]
    local[:, 1] = -s * d[:, 0] + c * d[:, 1]
    local[:, 2] = d[:, 2]
    half = 0.5 * np.array([box.l, box.w, box.h])
    overshoot = np.maximum(np.abs(local) - half, 0.0)
    diagonal = math.sqrt(box.l**2 + box.w**2 + box.h**2)
    outside = np.sqrt((overshoot**2).sum(axis=1)).mean() / diagonal
    observed = local.max(axis=0) - local.min(axis=0)
    extents = np.array([box.l, box.w, box.h])
    slack = (np.maximum(extents - observed, 0.0) / extents).mean()
    return float(outside + slack)


class RowBatch:
    """``refine._Batch`` one track at a time: ``l_fit_rows`` and ``l2d_multiview_loop``.

    Takes ``_Batch``'s arguments and gives its ``terms``: each track's
    ``(l_fit, l2d_multiview)`` at its box ``(cx, cy, cz, l, w, h, yaw)``,
    None for a term that ``fit`` or ``l2d`` switches off.
    """

    def __init__(self, tracks, points, z_near: float, fit: bool = True, l2d: bool = True):
        self.tracks, self.points, self.z_near = tracks, points, z_near
        self.fit, self.l2d = fit, l2d

    def terms(self, params):
        boxes = [Box3D(*p) for p in params]
        fits = [l_fit_rows(b, p) if self.fit else None for b, p in zip(boxes, self.points)]
        l2ds = [l2d_multiview_loop(b, t, self.z_near) if self.l2d else None
                for b, t in zip(boxes, self.tracks)]
        return fits, l2ds


def project_point(camera, p_world, z_near: float = DEFAULT_Z_NEAR) -> tuple[float, float] | None:
    """Project one world point to pixels; None when at or behind the near plane.

    Points projecting outside the image are still returned.
    """
    pose = camera.pose
    p = pose.rotation_matrix.T @ (np.asarray(p_world, float) - pose.t)
    if p[2] <= z_near:
        return None
    return (
        camera.fx * p[0] / p[2] + camera.cx,
        camera.fy * p[1] / p[2] + camera.cy,
    )


def point_in_mask(mask, pixel) -> bool:
    """Membership of a continuous pixel coordinate via integer floor."""
    c = math.floor(pixel[0])
    r = math.floor(pixel[1])
    if not (0 <= c < mask.width and 0 <= r < mask.height):
        return False
    return bool(decode_rle_loop(mask.rle, mask.width, mask.height)[r, c])


def point_in_convex_polygon(point, vertices: np.ndarray, tol: float = 1e-9) -> bool:
    """Point inside/on a CCW convex polygon via per-edge half-plane checks."""
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


def decode_rle_loop(rle, width: int, height: int) -> np.ndarray:
    """Per-run Python-loop RLE decode (background first, row-major)."""
    flat = np.zeros(width * height, dtype=bool)
    pos = 0
    value = False
    for run in rle:
        flat[pos : pos + run] = value
        pos += run
        value = not value
    return flat.reshape(height, width)


def extraction_per_annotation(scene, config) -> dict[str, dict[int, tuple]]:
    """``{track_id: {frame_id: (indices, camera)}}``, extracted one annotation
    at a time: pose the annotation's camera, project the whole frame, then
    index the decoded mask bitmap at the floored pixel (or test the box when
    the mask is missing or below ``config.mask_conf_min``)."""
    out: dict[str, dict[int, tuple]] = {}
    for frame in scene.frames:
        pts = frame.points_world
        for ann in frame.annotations:
            cam = scene.cameras[ann.camera_id].posed(frame.world_from_ego)
            uv, valid = project_points(cam, pts, z_near=config.z_near)
            u, v = uv[valid, 0], uv[valid, 1]
            mask = ann.mask
            if mask is not None and (ann.mask_confidence is None
                                     or ann.mask_confidence >= config.mask_conf_min):
                bitmap = decode_mask(mask)
                c = np.floor(u).astype(np.int64)
                r = np.floor(v).astype(np.int64)
                in_bounds = (c >= 0) & (c < mask.width) & (r >= 0) & (r < mask.height)
                hit = np.zeros(len(u), dtype=bool)
                hit[in_bounds] = bitmap[r[in_bounds], c[in_bounds]]
            else:
                box = ann.box
                hit = (u >= box.x_min) & (u <= box.x_max) & (v >= box.y_min) & (v <= box.y_max)
            keep = valid.copy()
            keep[valid] = hit
            out.setdefault(ann.track_id, {})[frame.frame_id] = (np.flatnonzero(keep), cam)
    return out


def segmentation_scores_sets(scene, config) -> list[tuple[str, int, float, float]]:
    """``(track_id, |C*|, IoU(P_agg, G), IoU(C*, G))`` per ground-truth-static
    track, scored on sets of ``(frame_id, point_index)`` tuples.

    P_agg is rebuilt from each observation's ``indices``, G from every
    annotated frame's span of the track less its bleed, and C* from the
    aggregate's provenance at the dominant cluster's positions.
    """
    spans = {frame.frame_id: {s.track_id: s for s in frame.gt_spans or []}
             for frame in scene.frames}
    out = []
    for track in build_tracks(scene, config):
        if not scene.gt_tracks[track.track_id].static:
            continue
        agg, gt = set(), set()
        for fid in track.frame_ids:
            agg.update((fid, int(i)) for i in track.observations[fid].indices)
            span = spans[fid].get(track.track_id)
            if span is not None:
                gt.update((fid, i) for i in range(span.start, span.start + span.count - span.n_bleed))
        try:
            inst = aggregate_static(track)
            cluster = select_dominant_cluster(
                inst, dbscan(inst.points_agg, config.dbscan_eps, config.dbscan_min_pts))
        except BoxliftError:
            continue
        kept = {(int(inst.point_frame_ids[i]), int(inst.point_indices[i])) for i in cluster}
        out.append((track.track_id, len(kept), len(agg & gt) / len(agg | gt),
                    len(kept & gt) / len(kept | gt)))
    return out
