"""Multi-view objective, numerical box refinement and pseudo-label filtering.

The refinement objective combines a geometric point-fit term with the
multi-view 2D consistency loss: every frame that annotated the object
contributes 1 - GIoU between the box's projection and the annotated 2D
box, and the per-object mean keeps instances visible in many frames from
dominating.  A derivative-free simplex search minimizes the weighted sum;
the objective is piecewise smooth (min/max and clipping everywhere), so
no gradients are assumed.  The term weights, evaluation budget, extent
floor, near plane and confidence gates all come from ``PipelineConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .clustering import aggregate_static, dbscan, quality_gate, select_dominant_cluster
from .coarse import fit_coarse_box, verify_geometry
from .config import PipelineConfig
from .errors import BoxliftError
from .extraction import classify_motion, track_centroids
from .geometry import Box3D, box3d_corners, giou_2d, project_box3d
from .scene import ObjectTrack

# 1 - GIoU is bounded by 2; an absent projection is charged the supremum so
# the optimizer sees a finite, stable penalty for leaving every frustum.
MISSING_PROJECTION_PENALTY = 2.0


class _Views:
    """A track's K annotated views, stacked for the batched 2D loss.

    The camera poses and intrinsics are (K, ...) arrays for the one batched
    corner projection; each view's image size and annotated box are a
    tuple of Python floats, ``(width, height, x_min, y_min, x_max, y_max,
    area)``, for ``_view_term``.  Building the stack costs about as much as
    one loss evaluation, so ``refine_box`` builds it once and reuses it for
    every evaluation.
    """

    def __init__(self, track: ObjectTrack):
        views = [track.observations[fid] for fid in track.frame_ids]
        self.cameras = [ob.camera for ob in views]
        self.boxes = [ob.annotation.box for ob in views]
        poses = [cam.world_from_camera for cam in self.cameras]
        self.rot = np.array([pose.rotation_matrix for pose in poses])             # (K, 3, 3)
        self.t = np.array([pose.t for pose in poses])[:, None, :]                 # (K, 1, 3)
        self.focal = np.array([[c.fx, c.fy] for c in self.cameras])[:, None, :]   # (K, 1, 2)
        self.principal = np.array([[c.cx, c.cy] for c in self.cameras])[:, None, :]
        self.targets = [
            tuple(map(float, (c.width, c.height, b.x_min, b.y_min, b.x_max, b.y_max, b.area)))
            for c, b in zip(self.cameras, self.boxes)
        ]

    def loss(self, box: Box3D, z_near: float) -> float:
        """Mean over the views of 1 - GIoU, equal to the per-view scalar loop bit for bit.

        The 8 corners move into all K cameras with one matmul.  Views with
        every corner in front of ``z_near`` take their pixel bounds from one
        batched projection and are scored on Python floats by
        ``_view_term``; the few that cross or sit behind the near plane go
        through ``project_box3d``, which owns the near-plane clipping.  The
        terms are summed in view order as Python floats, as the loop does.
        """
        cam = (box3d_corners(box) - self.t) @ self.rot                           # (K, 8, 3)
        ahead = cam[:, :, 2] > z_near
        if ahead.all():
            terms = _front_terms(cam, self.focal, self.principal, self.targets)
        else:
            front = ahead.all(axis=1)
            batched = iter(_front_terms(cam[front], self.focal[front], self.principal[front],
                                        compress(self.targets, front)))
            terms = [next(batched) if f else self._clipped_term(k, box, z_near)
                     for k, f in enumerate(front.tolist())]
        return sum(terms) / len(terms)

    def _clipped_term(self, k: int, box: Box3D, z_near: float) -> float:
        pred = project_box3d(self.cameras[k], box, z_near=z_near)
        if pred is None:
            return MISSING_PROJECTION_PENALTY
        return 1.0 - giou_2d(pred, self.boxes[k])


def _front_terms(cam: np.ndarray, focal: np.ndarray, principal: np.ndarray,
                 targets) -> list[float]:
    """``_view_term`` of each view whose corners ``cam`` (k, 8, 3) are all in front."""
    uv = cam[:, :, :2] * focal / cam[:, :, 2:] + principal
    return list(map(_view_term, uv.min(axis=1).tolist(), uv.max(axis=1).tolist(), targets))


def _view_term(lo, hi, target) -> float:
    """1 - GIoU of the pixel bounds ``lo`` = (u, v) min, ``hi`` = max against one view's box.

    ``target`` is the view's ``(width, height, x_min, y_min, x_max, y_max,
    area)``.  The bounds are clipped to the image as ``project_box3d``
    clips them, and bounds with no area inside the image are charged
    ``MISSING_PROJECTION_PENALTY``.  The rest is ``giou_2d``'s arithmetic
    in its order; each conditional picks the same operand as the builtin
    ``max``/``min`` call it replaces, ties included.
    """
    width, height, bx0, by0, bx1, by1, b_area = target
    u0, v0 = lo
    u1, v1 = hi
    x0 = u0 if u0 > 0.0 else 0.0
    y0 = v0 if v0 > 0.0 else 0.0
    x1 = u1 if u1 < width else width
    y1 = v1 if v1 < height else height
    w, h = x1 - x0, y1 - y0
    if w <= 0.0 or h <= 0.0:
        return MISSING_PROJECTION_PENALTY
    iw = (bx1 if bx1 < x1 else x1) - (bx0 if bx0 > x0 else x0)
    ih = (by1 if by1 < y1 else y1) - (by0 if by0 > y0 else y0)
    inter = (iw if iw > 0.0 else 0.0) * (ih if ih > 0.0 else 0.0)
    union = w * h + b_area - inter
    enclosing = ((bx1 if bx1 > x1 else x1) - (bx0 if bx0 < x0 else x0)) * (
        (by1 if by1 > y1 else y1) - (by0 if by0 < y0 else y0)
    )
    return 1.0 - (inter / union - (enclosing - union) / enclosing)


def l2d_multiview(box: Box3D, track: ObjectTrack, z_near: float = 1e-3) -> float:
    """Mean over the track's views of (1 - GIoU(projected box, annotated box))."""
    return _Views(track).loss(box, z_near)


def _coordinates(points) -> np.ndarray:
    """(n, 3) points as one contiguous (3, n) array of x, y and z rows."""
    return np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1, 3).T)


def l_fit(box: Box3D, points) -> float:
    """Geometric fit of points to a box, 0 when points fill the box exactly.

    Outside term: mean distance of points past the box surface, over the
    box diagonal.  Slack term: mean relative shortfall of the observed
    extent along each box axis, penalizing boxes larger than their
    evidence.
    """
    return _fit_loss(box, _coordinates(points))


def _fit_loss(box: Box3D, coords: np.ndarray) -> float:
    """``l_fit`` on the points' (3, n) coordinate rows.

    The rows move into the box frame together: one subtraction of the
    center, one yaw rotation of the x and y rows, and one chain for the
    overshoot past each half extent.  Every element sees the operations
    the per-axis formula applies, in its order, and the squared
    overshoots add as x + y, then + z, so the result equals the same
    formula evaluated one point at a time, bit for bit.
    """
    n = coords.shape[1]
    if n == 0:
        raise ValueError("l_fit needs at least one point")
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local = coords - np.array([[box.cx], [box.cy], [box.cz]])
    local[:2] = np.array([[c], [-s]]) * local[0] + np.array([[s], [c]]) * local[1]
    extents = (box.l, box.w, box.h)
    over = np.abs(local)
    over -= np.array([[0.5 * box.l], [0.5 * box.w], [0.5 * box.h]])
    np.maximum(over, 0.0, out=over)
    over *= over
    r = over[0] + over[1]
    r += over[2]
    np.sqrt(r, out=r)
    outside = np.add.reduce(r) / n / box.diagonal
    slack = 0.0
    for extent, top, bottom in zip(extents, local.max(axis=1).tolist(),
                                   local.min(axis=1).tolist()):
        slack += max(extent - (top - bottom), 0.0) / extent
    return float(outside + slack / 3)


def _objective(box: Box3D, views: _Views, coords: np.ndarray, cfg: PipelineConfig) -> float:
    total = 0.0
    if cfg.mu_fit > 0:
        total += cfg.mu_fit * _fit_loss(box, coords)
    if cfg.lambda_2d > 0:
        total += cfg.lambda_2d * views.loss(box, cfg.z_near)
    return total


def objective_value(
    box: Box3D,
    track: ObjectTrack,
    points,
    config: PipelineConfig | None = None,
) -> float:
    """``mu_fit * l_fit + lambda_2d * l2d_multiview`` with the config's weights.

    A term is skipped at weight 0, so a pure 2D objective needs no points.
    """
    cfg = config or PipelineConfig()
    return _objective(box, _Views(track), _coordinates(points), cfg)


@dataclass
class RefineTrace:
    n_evals: int
    j_init: float
    j_final: float
    improvements: list[tuple[int, float]] = field(default_factory=list)


def _vec_to_box(x: np.ndarray, extent_floor: float) -> Box3D:
    return Box3D(
        float(x[0]),
        float(x[1]),
        float(x[2]),
        max(float(x[3]), extent_floor),
        max(float(x[4]), extent_floor),
        max(float(x[5]), extent_floor),
        float(x[6]),
    )


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    # Documented steps: 0.25 m translation, 10% of each extent, 5 deg yaw.
    steps = np.array(
        [0.25, 0.25, 0.25, 0.1 * x0[3], 0.1 * x0[4], 0.1 * x0[5], math.radians(5.0)]
    )
    simplex = np.tile(x0, (8, 1))
    for k in range(7):
        simplex[k + 1, k] += steps[k]
    return simplex


def _nelder_mead(f, simplex: np.ndarray, budget: int) -> None:
    """Minimize ``f`` from the (N + 1, N) ``simplex``, calling it at most ``budget`` times.

    The non-adaptive Nelder-Mead of ``scipy.optimize.minimize`` with
    ``xatol = fatol = 0``, ported operation for operation: the same vertex
    arithmetic, comparisons and sorts, so ``f`` sees the same points bit
    for bit.  It stops when the budget is spent, or when the simplex has
    collapsed to one point with one value.  ``f`` may be handed a view of
    a simplex row and must copy any point it keeps.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    calls = min(budget, n + 1)
    for k in range(calls):
        fsim[k] = f(sim[k])
    # scipy sorts the starting simplex twice; argsort need not keep tied
    # values in order, so the second sort is kept too.
    for _ in range(2):
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    while calls < budget:
        if np.abs(sim[1:] - sim[0]).max() <= 0 and np.abs(fsim[0] - fsim[1:]).max() <= 0:
            return
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        calls += 1
        if fxr < fsim[0]:
            if calls == budget:
                return
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            calls += 1
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if calls == budget:
                return
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            calls += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    if calls == budget:
                        return
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
                    calls += 1
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]


def refine_box(
    init: Box3D,
    track: ObjectTrack,
    points,
    config: PipelineConfig | None = None,
) -> tuple[Box3D, RefineTrace]:
    """Minimize ``objective_value`` within ``config.refine_budget`` evaluations.

    Nelder-Mead from the documented initial simplex, restarted once from
    the best point found with the budget's second half.  Extents are
    clamped to ``config.extent_floor`` during the search.  The best
    evaluated box is returned, so the result never scores worse than
    ``init``.  Deterministic.
    """
    cfg = config or PipelineConfig()
    budget = cfg.refine_budget
    extent_floor = cfg.extent_floor
    views = _Views(track)
    coords = _coordinates(points)
    evals = 0
    best_x: np.ndarray | None = None
    best_j = math.inf
    improvements: list[tuple[int, float]] = []

    def objective(x: np.ndarray) -> float:
        nonlocal evals, best_x, best_j
        evals += 1
        j = _objective(_vec_to_box(x, extent_floor), views, coords, cfg)
        if j < best_j:
            best_j = j
            best_x = np.array(x, dtype=float)
            improvements.append((evals, j))
        return j

    x0 = init.as_array()
    j_init = objective(x0)
    _nelder_mead(objective, _initial_simplex(x0), max(1, budget // 2) - evals)
    _nelder_mead(objective, _initial_simplex(best_x), budget - evals)
    return _vec_to_box(best_x, extent_floor), RefineTrace(evals, j_init, best_j, improvements)


# ---------------------------------------------------------------------------
# pseudo-label filtering
# ---------------------------------------------------------------------------


def filter_pseudo_label(
    predicted_class: str,
    annotation_class: str,
    confidence: float,
    config: PipelineConfig,
) -> str | None:
    """Drop reason for a label, or None to keep it.

    A class mismatch drops first ("class"); then a confidence below the
    class's ``tau_conf`` gate, or ``tau_conf_default`` for unlisted
    classes, drops it ("confidence").
    """
    if predicted_class != annotation_class:
        return "class"
    if confidence < config.tau_conf.get(predicted_class, config.tau_conf_default):
        return "confidence"
    return None


# ---------------------------------------------------------------------------
# per-track pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QualityRecord:
    n_points: int
    n_views: int
    hull_iou: float | None
    l2d: float | None
    fit: float | None


@dataclass(frozen=True)
class PseudoLabel:
    track_id: str
    class_label: str = field(metadata={"json": "class"})
    box: Box3D
    source: str                        # "coarse" | "refined"
    quality: QualityRecord
    kept: bool
    drop_reason: str | None = None
    confidence: float | None = None
    anchor_frame_id: int | None = None # frame whose pose the box was fitted at

    def __post_init__(self):
        if not self.kept and self.drop_reason is None:
            raise ValueError("dropped label must carry a drop_reason")
        if self.kept and self.anchor_frame_id is None:
            raise ValueError("kept label must carry an anchor_frame_id")


# Emitted when a track yields no usable geometry at all; kept is always False.
_SENTINEL_BOX = Box3D(0.0, 0.0, 0.0, 0.05, 0.05, 0.05, 0.0)


def _dropped(track, reason, box=None, quality=None, anchor=None, source="coarse"):
    return PseudoLabel(
        track_id=track.track_id,
        class_label=track.class_label,
        box=box or _SENTINEL_BOX,
        source=source,
        quality=quality or QualityRecord(0, track.n_views_with_points, None, None, None),
        kept=False,
        drop_reason=reason,
        anchor_frame_id=anchor,
    )


def annotate_track(track: ObjectTrack, config: PipelineConfig | None = None) -> PseudoLabel:
    """Run the full per-track pipeline and emit one pseudo-label.

    Static tracks: aggregate across frames, clean with DBSCAN, gate on
    cluster size and view count, fit, verify, then refine against every
    view's 2D annotation.  Moving tracks: fit on the single densest view,
    record but do not gate on verification, and refine against that view
    only; the object moves between frames, so one world-frame box cannot
    satisfy other timestamps' annotations and including them would drag
    the box off the anchor frame.  Both paths share one fit-and-verify
    step.  Every failure path emits a kept=False label whose drop_reason
    names the stage.
    """
    cfg = config or PipelineConfig()
    centroids = track_centroids(track, cfg.centroid)
    if len(centroids) == 0:
        return _dropped(track, "empty")
    verdict = classify_motion(centroids, cfg.tau_static)

    if verdict.is_static:
        inst = aggregate_static(track)
        labels = dbscan(inst.points_agg, cfg.dbscan_eps, cfg.dbscan_min_pts)
        try:
            cluster = select_dominant_cluster(inst, labels)
        except BoxliftError:
            return _dropped(track, "clustering")
        fit_points = inst.points_agg[cluster]
        n_views = inst.n_views
        anchor = track.frame_ids[0]
        loss_track = track
        gate = quality_gate(cluster, inst, cfg.min_cluster_points, cfg.min_views)
        if not gate.passed:
            return _dropped(track, gate.reason,
                            quality=QualityRecord(cluster.size, n_views, None, None, None))
    else:
        anchor = max(
            track.frame_ids, key=lambda fid: (len(track.observations[fid].points), -fid)
        )
        fit_points = track.observations[anchor].points
        n_views = track.n_views_with_points
        loss_track = ObjectTrack(
            track.track_id, track.class_label, {anchor: track.observations[anchor]}
        )

    n_points = len(fit_points)
    try:
        box, _ = fit_coarse_box(fit_points, cfg.extent_floor)
        geometry = verify_geometry(box, fit_points[:, :2], cfg.tau_iou, cfg.hull_metric)
    except BoxliftError:
        return _dropped(track, "degenerate",
                        quality=QualityRecord(n_points, n_views, None, None, None))
    hull_iou = geometry.hull_iou
    # A moving fit is single-view: its hull IoU is recorded, not gated on.
    if verdict.is_static and not geometry.verified:
        return _dropped(
            track,
            "verification",
            box=box,
            quality=QualityRecord(n_points, n_views, hull_iou, None, None),
            anchor=anchor,
        )

    source = "coarse"
    if cfg.refine:
        box, _ = refine_box(box, loss_track, fit_points, cfg)
        source = "refined"

    final_l2d = l2d_multiview(box, loss_track, z_near=cfg.z_near)
    final_fit = l_fit(box, fit_points)
    j_final = cfg.mu_fit * final_fit + cfg.lambda_2d * final_l2d
    confidence = math.exp(-j_final)
    quality = QualityRecord(n_points, n_views, hull_iou, final_l2d, final_fit)

    # No classifier runs here, so the predicted class is the annotated one;
    # the class check can only fire for callers that pass a real prediction.
    reason = filter_pseudo_label(track.class_label, track.class_label, confidence, cfg)
    return PseudoLabel(
        track_id=track.track_id,
        class_label=track.class_label,
        box=box,
        source=source,
        quality=quality,
        kept=reason is None,
        drop_reason=reason,
        confidence=confidence,
        anchor_frame_id=anchor,
    )
