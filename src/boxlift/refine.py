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
    """A track's K annotated views stacked into arrays for the batched 2D loss.

    Building the stack costs about as much as one loss evaluation, so
    ``refine_box`` builds it once and reuses it for every evaluation.
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
        self.size = np.array([[float(c.width), float(c.height)] for c in self.cameras])
        self.gt_lo = np.array([[b.x_min, b.y_min] for b in self.boxes])           # (K, 2)
        self.gt_hi = np.array([[b.x_max, b.y_max] for b in self.boxes])
        self.gt_area = np.array([b.area for b in self.boxes])

    def loss(self, box: Box3D, z_near: float) -> float:
        """Mean over the views of 1 - GIoU, equal to the per-view scalar loop bit for bit.

        The 8 corners move into all K cameras with one matmul.  Views with
        every corner in front of ``z_near`` are scored as array expressions;
        the few that cross or sit behind the near plane go through
        ``project_box3d``, which owns the near-plane clipping.  The terms
        are summed in view order as Python floats, as the loop does.
        """
        cam = (box3d_corners(box) - self.t) @ self.rot                           # (K, 8, 3)
        ahead = cam[:, :, 2] > z_near
        if ahead.all():
            terms = self._front_terms(cam, slice(None)).tolist()
        else:
            front = ahead.all(axis=1)
            batched = iter(self._front_terms(cam[front], front).tolist())
            terms = [next(batched) if f else self._clipped_term(k, box, z_near)
                     for k, f in enumerate(front.tolist())]
        return sum(terms) / len(terms)

    def _front_terms(self, cam: np.ndarray, sel) -> np.ndarray:
        """1 - GIoU for the views ``sel``, whose corners ``cam`` are all in front."""
        uv = cam[:, :, :2] * self.focal[sel] / cam[:, :, 2:] + self.principal[sel]
        lo = np.maximum(0.0, uv.min(axis=1))
        hi = np.minimum(self.size[sel], uv.max(axis=1))
        wh = hi - lo
        empty = wh <= 0.0
        off_image = None
        if empty.any():
            # The projection misses the image: a zero area keeps its GIoU
            # finite, and the view is charged the penalty below.
            off_image = empty.any(axis=1)
            wh = np.maximum(wh, 0.0)
        gt_lo, gt_hi = self.gt_lo[sel], self.gt_hi[sel]
        iwh = np.maximum(0.0, np.minimum(hi, gt_hi) - np.maximum(lo, gt_lo))
        inter = iwh[:, 0] * iwh[:, 1]
        union = wh[:, 0] * wh[:, 1] + self.gt_area[sel] - inter
        ewh = np.maximum(hi, gt_hi) - np.minimum(lo, gt_lo)
        enclosing = ewh[:, 0] * ewh[:, 1]
        terms = 1.0 - (inter / union - (enclosing - union) / enclosing)
        if off_image is not None:
            terms[off_image] = MISSING_PROJECTION_PENALTY
        return terms

    def _clipped_term(self, k: int, box: Box3D, z_near: float) -> float:
        pred = project_box3d(self.cameras[k], box, z_near=z_near)
        if pred is None:
            return MISSING_PROJECTION_PENALTY
        return 1.0 - giou_2d(pred, self.boxes[k])


def l2d_multiview(box: Box3D, track: ObjectTrack, z_near: float = 1e-3) -> float:
    """Mean over the track's views of (1 - GIoU(projected box, annotated box))."""
    return _Views(track).loss(box, z_near)


def _coordinates(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, 3) points as three contiguous 1-D coordinate arrays."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return tuple(np.ascontiguousarray(col) for col in pts.T)


def l_fit(box: Box3D, points) -> float:
    """Geometric fit of points to a box, 0 when points fill the box exactly.

    Outside term: mean distance of points past the box surface, over the
    box diagonal.  Slack term: mean relative shortfall of the observed
    extent along each box axis, penalizing boxes larger than their
    evidence.
    """
    return _fit_loss(box, *_coordinates(points))


def _fit_loss(box: Box3D, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """``l_fit`` on the points' coordinate arrays."""
    if len(x) == 0:
        raise ValueError("l_fit needs at least one point")
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx, dy, lz = x - box.cx, y - box.cy, z - box.cz
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    ox = np.maximum(np.abs(lx) - 0.5 * box.l, 0.0)
    oy = np.maximum(np.abs(ly) - 0.5 * box.w, 0.0)
    oz = np.maximum(np.abs(lz) - 0.5 * box.h, 0.0)
    outside = np.sqrt(ox**2 + oy**2 + oz**2).mean() / box.diagonal
    slack = 0.0
    for local, extent in ((lx, box.l), (ly, box.w), (lz, box.h)):
        slack += max(extent - (float(local.max()) - float(local.min())), 0.0) / extent
    return float(outside + slack / 3)


def _objective(box: Box3D, views: _Views, coords, cfg: PipelineConfig) -> float:
    total = 0.0
    if cfg.mu_fit > 0:
        total += cfg.mu_fit * _fit_loss(box, *coords)
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
    j_init: float | None
    j_final: float | None
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
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    while calls < budget:
        if np.max(np.abs(sim[1:] - sim[0])) <= 0 and np.max(np.abs(fsim[0] - fsim[1:])) <= 0:
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
        order = np.argsort(fsim)
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
    ``init``; a budget of zero returns ``init`` untouched.  Deterministic.
    """
    cfg = config or PipelineConfig()
    budget = cfg.refine_budget
    extent_floor = cfg.extent_floor
    if budget <= 0:
        return init, RefineTrace(0, None, None)
    views = _Views(track)
    coords = _coordinates(points)
    evals = 0
    best_x: np.ndarray | None = None
    best_j = math.inf
    trace = RefineTrace(0, None, None)

    def objective(x: np.ndarray) -> float:
        nonlocal evals, best_x, best_j
        evals += 1
        j = _objective(_vec_to_box(x, extent_floor), views, coords, cfg)
        if j < best_j:
            best_j = j
            best_x = np.array(x, dtype=float)
            trace.improvements.append((evals, j))
        return j

    x0 = init.as_array()
    trace.j_init = objective(x0)
    _nelder_mead(objective, _initial_simplex(x0), max(1, budget // 2) - evals)
    _nelder_mead(objective, _initial_simplex(best_x), budget - evals)
    trace.n_evals = evals
    trace.j_final = best_j
    return _vec_to_box(best_x, extent_floor), trace


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
