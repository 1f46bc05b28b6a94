"""Multi-view objective, numerical box refinement and pseudo-label filtering.

The refinement objective combines a geometric point-fit term with the
multi-view 2D consistency loss: every frame that annotated the object
contributes 1 - GIoU between the box's projection and the annotated 2D
box, and the per-object mean keeps instances visible in many frames from
dominating.  A derivative-free simplex search minimizes the weighted sum;
the objective is piecewise smooth (min/max and clipping everywhere), so
no gradients are assumed.  The term weights, evaluation budget, extent
floor, near plane and confidence gates all come from ``PipelineConfig``:
each function that reads one takes the config, or the value, with no
default.

``stage_tracks`` stacks the views and fit points of every track that
reaches refinement once, in one ``_Batch``.  The tracks are refined in
lockstep: each track's search is a generator of the points it wants
scored, every round scores the pending point of all of them in one
``_Batch.terms`` call, and one more call scores every final box.
``annotate_track`` builds each track's label from its staged record.  The
one-track functions (``refine_box``, ``objective_value``, ``l_fit``,
``l2d_multiview``) stack one track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, compress

import numpy as np

from .clustering import aggregate_static, dbscan, quality_gate, select_dominant_cluster
from .coarse import fit_coarse_box, verify_geometry
from .config import PipelineConfig
from .errors import BoxliftError
from .extraction import classify_motion, track_centroids
from .geometry import CORNER_SIGNS, Box3D, giou_2d, normalize_yaw, project_box3d
from .scene import ObjectTrack, PseudoLabel, QualityRecord

# 1 - GIoU is bounded by 2; an absent projection is charged the supremum so
# the optimizer sees a finite, stable penalty for leaving every frustum.
MISSING_PROJECTION_PENALTY = 2.0


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


def _bounds(counts: list[int]) -> list[tuple[int, int]]:
    """Consecutive ``(start, end)`` slices of the given lengths."""
    ends = list(accumulate(counts))
    return list(zip([0] + ends[:-1], ends))


class _Batch:
    """The objective's two terms for T tracks, each at its own box, in one pass per call.

    ``tracks`` gives each track's annotated views and ``points`` its fit
    points.  The constructor stacks them once: the points into one (3, N)
    array, each track's points a contiguous slice, and the views into one
    (V, ...) stack of camera poses and intrinsics, each track's views
    contiguous and in its view order.  Each view's image size and
    annotated box are also kept as a tuple of Python floats, ``(width,
    height, x_min, y_min, x_max, y_max, area)``, for ``_view_term``.
    ``terms`` takes one box per track as ``_params`` gives it and returns
    each track's ``l_fit`` and ``l2d_multiview``, equal bit for bit to
    scoring the track alone:

    - One (T, 10) table holds each box's center, ``math.cos``/``math.sin``
      of its yaw and its half extents.  One ``np.repeat`` along the
      contiguous axis expands it to the points, so every point sees the
      operations of ``l_fit``'s formula in its order, and the squared
      overshoots add as x + y, then + z.  The extremes come from
      ``np.maximum``/``np.minimum.reduceat``; the outside term is
      ``np.add.reduce`` over each track's own slice, so its pairwise
      summation order is the single-track one.
    - One matmul builds every box's corners as ``box3d_corners`` does.
      They are repeated per view and moved into all V cameras with one
      more.  Views with every corner in front of ``z_near`` take their
      pixel bounds from one batched projection and are scored on Python
      floats by ``_view_term``; the few that cross or sit behind the near
      plane go through ``project_box3d``, which owns the near-plane
      clipping.  Each track's terms are summed in view order as Python
      floats.

    A term that ``fit`` or ``l2d`` switches off is neither stacked nor
    computed, and reads None; its ``points`` or ``tracks`` entries are
    not read.
    """

    def __init__(self, tracks, points, z_near: float, fit: bool = True, l2d: bool = True):
        self.z_near = z_near
        self.fit = fit
        self.l2d = l2d
        if fit:
            coords = [_coordinates(p) for p in points]
            counts = [c.shape[1] for c in coords]
            if not all(counts):
                raise ValueError("l_fit needs at least one point")
            self.coords = np.concatenate(coords, axis=1)
            self.point_counts = np.array(counts)
            self.point_bounds = _bounds(counts)
            self.point_starts = np.array([a for a, _ in self.point_bounds])
        if l2d:
            views = [[t.observations[fid] for fid in t.frame_ids] for t in tracks]
            counts = [len(v) for v in views]
            self.cameras = [ob.camera for v in views for ob in v]
            self.boxes = [ob.annotation.box for v in views for ob in v]
            self.rot = np.array([c.pose.rotation_matrix for c in self.cameras])       # (V, 3, 3)
            self.t = np.array([c.pose.t for c in self.cameras])[:, None, :]           # (V, 1, 3)
            self.focal = np.array([[c.fx, c.fy] for c in self.cameras])[:, None, :]   # (V, 1, 2)
            self.principal = np.array([[c.cx, c.cy] for c in self.cameras])[:, None, :]
            self.targets = [
                tuple(map(float, (c.width, c.height, b.x_min, b.y_min, b.x_max, b.y_max, b.area)))
                for c, b in zip(self.cameras, self.boxes)
            ]
            self.view_counts = np.array(counts)
            self.view_bounds = _bounds(counts)
            self.view_track = [i for i, k in enumerate(counts) for _ in range(k)]
            self.rot_t = np.zeros((len(tracks), 3, 3))  # yaw_rotation(yaw).T of each box
            self.rot_t[:, 2, 2] = 1.0

    def terms(self, params: list[tuple]) -> tuple[list, list]:
        """Each track's ``(l_fit, l2d_multiview)`` at its box ``(cx, cy, cz, l, w, h, yaw)``."""
        # Columns 3-6 are yaw_rotation(yaw).T's upper 2 x 2 block, row by
        # row; read column-wise they are the fit's (c, -s) and (s, c) rows.
        rows = []
        for cx, cy, cz, l, w, h, yaw in params:
            c, s = math.cos(yaw), math.sin(yaw)
            rows.append((cx, cy, cz, c, s, -s, c, 0.5 * l, 0.5 * w, 0.5 * h))
        table = np.array(rows)
        fits = self._fit(table, params) if self.fit else [None] * len(params)
        l2ds = self._l2d(table, params) if self.l2d else [None] * len(params)
        return fits, l2ds

    def _fit(self, table: np.ndarray, params: list[tuple]) -> list[float]:
        cols = np.repeat(table.T, self.point_counts, axis=1)
        local = self.coords - cols[:3]
        local[:2] = cols[3:7:2] * local[0] + cols[4:7:2] * local[1]
        over = np.abs(local)
        over -= cols[7:]
        np.maximum(over, 0.0, out=over)
        over *= over
        r = over[0] + over[1]
        r += over[2]
        np.sqrt(r, out=r)
        tops = np.maximum.reduceat(local, self.point_starts, axis=1).T.tolist()
        bottoms = np.minimum.reduceat(local, self.point_starts, axis=1).T.tolist()
        fits = []
        for (a, b), (_, _, _, l, w, h, _), top, bottom in zip(self.point_bounds, params,
                                                             tops, bottoms):
            diagonal = math.sqrt(l**2 + w**2 + h**2)
            outside = np.add.reduce(r[a:b]) / (b - a) / diagonal
            slack = 0.0
            for extent, hi, lo in zip((l, w, h), top, bottom):
                slack += max(extent - (hi - lo), 0.0) / extent
            fits.append(float(outside + slack / 3))
        return fits

    def _l2d(self, table: np.ndarray, params: list[tuple]) -> list[float]:
        self.rot_t[:, :2, :2] = table[:, 3:7].reshape(-1, 2, 2)
        corners = (CORNER_SIGNS * table[:, None, 7:]) @ self.rot_t + table[:, None, :3]
        corners = np.repeat(corners, self.view_counts, axis=0)
        cam = (corners - self.t) @ self.rot                                      # (V, 8, 3)
        ahead = cam[:, :, 2] > self.z_near
        if ahead.all():
            terms = _front_terms(cam, self.focal, self.principal, self.targets)
        else:
            front = ahead.all(axis=1)
            batched = iter(_front_terms(cam[front], self.focal[front], self.principal[front],
                                        compress(self.targets, front)))
            terms = [next(batched) if f else self._clipped_term(v, params[i])
                     for v, (f, i) in enumerate(zip(front.tolist(), self.view_track))]
        return [sum(terms[a:b]) / (b - a) for a, b in self.view_bounds]

    def _clipped_term(self, v: int, params: tuple) -> float:
        pred = project_box3d(self.cameras[v], Box3D(*params), z_near=self.z_near)
        if pred is None:
            return MISSING_PROJECTION_PENALTY
        return 1.0 - giou_2d(pred, self.boxes[v])


def _params(x, extent_floor: float) -> tuple:
    """The fields of the box a search point ``x`` stands for: extents floored, yaw wrapped."""
    cx, cy, cz, l, w, h, yaw = x.tolist()
    return (cx, cy, cz, max(l, extent_floor), max(w, extent_floor), max(h, extent_floor),
            normalize_yaw(yaw))


def _one_track_terms(box: Box3D, track, points, z_near: float, fit: bool, l2d: bool):
    return _Batch([track], [points], z_near, fit, l2d).terms([_params(box.as_array(), 0.0)])


def l2d_multiview(box: Box3D, track: ObjectTrack, z_near: float) -> float:
    """Mean over the track's views of (1 - GIoU(projected box, annotated box))."""
    return _one_track_terms(box, track, (), z_near, False, True)[1][0]


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
    return _one_track_terms(box, None, points, 0.0, True, False)[0][0]


def _weighted(fit, l2d, cfg: PipelineConfig) -> float:
    """The objective from its two terms; a term at weight 0 is skipped, and may be None."""
    total = 0.0
    if cfg.mu_fit > 0:
        total += cfg.mu_fit * fit
    if cfg.lambda_2d > 0:
        total += cfg.lambda_2d * l2d
    return total


def objective_value(box: Box3D, track: ObjectTrack, points, config: PipelineConfig) -> float:
    """``mu_fit * l_fit + lambda_2d * l2d_multiview`` with the config's weights.

    A term is skipped at weight 0, so a pure 2D objective needs no points.
    """
    (fit,), (l2d,) = _one_track_terms(box, track, points, config.z_near,
                                      config.mu_fit > 0, config.lambda_2d > 0)
    return _weighted(fit, l2d, config)


@dataclass
class RefineTrace:
    n_evals: int
    j_init: float
    j_final: float
    improvements: list[tuple[int, float]] = field(default_factory=list)


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    # Documented steps: 0.25 m translation, 10% of each extent, 5 deg yaw.
    steps = np.array(
        [0.25, 0.25, 0.25, 0.1 * x0[3], 0.1 * x0[4], 0.1 * x0[5], math.radians(5.0)]
    )
    simplex = np.tile(x0, (8, 1))
    for k in range(7):
        simplex[k + 1, k] += steps[k]
    return simplex


def _nelder_mead(simplex: np.ndarray, budget: int):
    """Minimize from the (N + 1, N) ``simplex`` with at most ``budget`` evaluations.

    A generator: it yields each point to evaluate and takes the point's
    value by ``send``.  The non-adaptive Nelder-Mead of
    ``scipy.optimize.minimize`` with ``xatol = fatol = 0``, ported
    operation for operation: the same vertex arithmetic, comparisons and
    sorts, so it asks for the same points bit for bit.  It stops when the
    budget is spent, or when the simplex has collapsed to one point with
    one value.  A yielded point may be a view of a simplex row; the caller
    must copy any point it keeps.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    calls = min(budget, n + 1)
    for k in range(calls):
        fsim[k] = yield sim[k]
    # scipy sorts the starting simplex twice; argsort need not keep tied
    # values in order, so the second sort is kept too.
    for _ in range(2):
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    while calls < budget:
        # fsim is sorted with NaN last, so this is scipy's max |fsim[0] - fsim[1:]| <= 0,
        # and it is cheaper than the vertex test, which runs only when it holds.
        if fsim[-1] - fsim[0] <= 0 and np.abs(sim[1:] - sim[0]).max() <= 0:
            return
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = yield xr
        calls += 1
        if fxr < fsim[0]:
            if calls == budget:
                return
            xe = 3 * xbar - 2 * sim[-1]
            fxe = yield xe
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
                fxc = yield xc
                shrink = not fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = yield xc
                shrink = not fxc < fsim[-1]
            calls += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    if calls == budget:
                        return
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = yield sim[j]
                    calls += 1
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]


class _Search:
    """One track's refinement schedule, a point at a time, and its best point so far.

    The schedule scores ``init``, runs Nelder-Mead from the documented
    initial simplex around it with the budget's first half, then restarts
    from the best point found with the rest.  ``x`` is the point waiting
    for its value; ``tell`` records that value and moves ``x`` on.
    """

    def __init__(self, init: Box3D, budget: int):
        self.evals = 0
        self.best_x: np.ndarray | None = None
        self.best_j = math.inf
        self.improvements: list[tuple[int, float]] = []
        self._steps = self._schedule(init.as_array(), budget)
        self.x = next(self._steps)

    def _schedule(self, x0: np.ndarray, budget: int):
        self.j_init = yield x0
        yield from _nelder_mead(_initial_simplex(x0), max(1, budget // 2) - self.evals)
        yield from _nelder_mead(_initial_simplex(self.best_x), budget - self.evals)

    def tell(self, j: float) -> bool:
        """Record the value ``j`` of ``x``; False once the schedule has ended."""
        self.evals += 1
        if j < self.best_j:
            self.best_j = j
            self.best_x = np.array(self.x, dtype=float)
            self.improvements.append((self.evals, j))
        try:
            self.x = self._steps.send(j)
        except StopIteration:
            return False
        return True

    def result(self, extent_floor: float) -> tuple[Box3D, RefineTrace]:
        trace = RefineTrace(self.evals, self.j_init, self.best_j, self.improvements)
        return Box3D(*_params(self.best_x, extent_floor)), trace


def _refine_all(batch: _Batch, inits: list[Box3D], cfg: PipelineConfig) -> list[_Search]:
    """Run one search per track of ``batch`` in lockstep, from its box in ``inits``.

    Each round scores the pending point of every search in one
    ``batch.terms`` call, until every schedule has ended.  A search that
    has ended is scored again at its last point, and that value is not
    passed on, so the batch never changes.  A track's values do not
    depend on the other tracks, so each search evaluates the same points,
    in the same order, as it would alone.
    """
    searches = [_Search(init, cfg.refine_budget) for init in inits]
    going = [True] * len(searches)
    while any(going):
        fits, l2ds = batch.terms([_params(s.x, cfg.extent_floor) for s in searches])
        going = [g and s.tell(_weighted(fit, l2d, cfg))
                 for g, s, fit, l2d in zip(going, searches, fits, l2ds)]
    return searches


def refine_box(init: Box3D, track: ObjectTrack, points,
               config: PipelineConfig) -> tuple[Box3D, RefineTrace]:
    """Minimize ``objective_value`` within ``config.refine_budget`` evaluations.

    Nelder-Mead from the documented initial simplex, restarted once from
    the best point found with the budget's second half.  Extents are
    clamped to ``config.extent_floor`` during the search.  The best
    evaluated box is returned, so the result never scores worse than
    ``init``.  Deterministic.
    """
    batch = _Batch([track], [points], config.z_near, config.mu_fit > 0, config.lambda_2d > 0)
    return _refine_all(batch, [init], config)[0].result(config.extent_floor)


# ---------------------------------------------------------------------------
# pseudo-label filtering
# ---------------------------------------------------------------------------


def filter_pseudo_label(class_label: str, confidence: float, config: PipelineConfig) -> str | None:
    """Drop reason for a label, or None to keep it.

    A confidence below the class's ``tau_conf`` gate, or
    ``tau_conf_default`` for unlisted classes, drops it ("confidence").
    """
    if confidence < config.tau_conf.get(class_label, config.tau_conf_default):
        return "confidence"
    return None


# ---------------------------------------------------------------------------
# per-track pipeline
# ---------------------------------------------------------------------------


# The box of a track dropped before it has a coarse box; kept is always False.
_SENTINEL_BOX = Box3D(0.0, 0.0, 0.0, 0.05, 0.05, 0.05, 0.0)


@dataclass
class StagedTrack:
    """One track's staging record, from which ``annotate_track`` builds its label.

    A track dropped before refinement carries its stage's ``drop_reason``
    and the counts that stage reached, and, past the coarse fit, its
    ``box``, ``hull_iou`` and ``anchor``.  A survivor's ``views`` is the
    track whose annotations the 2D loss scores (the anchor view alone for
    a moving track) and ``points`` are the fit points.  ``box`` is the
    coarse box until refinement replaces it and sets ``trace``.  ``fit``
    and ``l2d`` are the objective's terms at the final box.
    """

    drop_reason: str | None
    n_points: int
    n_views: int
    box: Box3D = _SENTINEL_BOX
    hull_iou: float | None = None
    anchor: int | None = None
    views: ObjectTrack | None = None
    points: np.ndarray | None = None
    trace: RefineTrace | None = None
    fit: float | None = None
    l2d: float | None = None


def _stage(track: ObjectTrack, cfg: PipelineConfig) -> StagedTrack:
    """The per-track stages up to refinement, as the track's ``StagedTrack``.

    A static track is aggregated across frames, cleaned with DBSCAN, gated
    on cluster size and view count, fitted and verified; its 2D loss
    scores every view.  A moving track is fitted on its single densest
    view, and its verification is recorded but not gated on; its 2D loss
    scores that view only, since the object moves between frames, so one
    world-frame box cannot satisfy other timestamps' annotations and
    including them would drag the box off the anchor frame.  Both paths
    share one fit-and-verify step.
    """
    centroids = track_centroids(track, cfg.centroid)
    if len(centroids) == 0:
        return StagedTrack("empty", 0, track.n_views_with_points)
    verdict = classify_motion(centroids, cfg.tau_static)

    if verdict.is_static:
        inst = aggregate_static(track)
        labels = dbscan(inst.points_agg, cfg.dbscan_eps, cfg.dbscan_min_pts)
        try:
            cluster = select_dominant_cluster(inst, labels)
        except BoxliftError:
            return StagedTrack("clustering", 0, track.n_views_with_points)
        fit_points = inst.points_agg[cluster]
        n_views = inst.n_views
        anchor = track.frame_ids[0]
        loss_track = track
        gate = quality_gate(cluster, inst, cfg.min_cluster_points, cfg.min_views)
        if not gate.passed:
            return StagedTrack(gate.reason, cluster.size, n_views)
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
        return StagedTrack("degenerate", n_points, n_views)
    hull_iou = geometry.hull_iou
    # A moving fit is single-view: its hull IoU is recorded, not gated on.
    if verdict.is_static and not geometry.verified:
        return StagedTrack("verification", n_points, n_views, box, hull_iou, anchor)
    return StagedTrack(None, n_points, n_views, box, hull_iou, anchor, loss_track, fit_points)


def stage_tracks(tracks: list[ObjectTrack], config: PipelineConfig) -> list[StagedTrack]:
    """Run each track's stages up to refinement, then refine and score every survivor together.

    Entry i is track i's ``StagedTrack``; the survivors are the entries
    with no ``drop_reason``.  Their views and fit points are stacked once,
    in one ``_Batch`` that scores both terms; the search skips a term at
    weight 0.  With ``config.refine`` their searches run in lockstep on
    it, one batched objective evaluation per round, and each staged box
    is replaced by its refined one.  One more evaluation of the same
    batch then scores both terms at every final box.
    """
    staged = [_stage(track, config) for track in tracks]
    live = [s for s in staged if s.drop_reason is None]
    if not live:
        return staged
    batch = _Batch([s.views for s in live], [s.points for s in live], config.z_near)
    if config.refine:
        for s, search in zip(live, _refine_all(batch, [s.box for s in live], config)):
            s.box, s.trace = search.result(config.extent_floor)
    fits, l2ds = batch.terms([_params(s.box.as_array(), 0.0) for s in live])
    for s, fit, l2d in zip(live, fits, l2ds):
        s.fit, s.l2d = fit, l2d
    return staged


def annotate_track(track: ObjectTrack, config: PipelineConfig, staged: StagedTrack) -> PseudoLabel:
    """The track's pseudo-label, built from ``staged``, its entry of ``stage_tracks``.

    A track dropped before refinement keeps its stage's ``drop_reason``
    and has no confidence; otherwise the confidence is ``exp(-J)`` of the
    objective's terms at the final box, and ``filter_pseudo_label`` keeps
    or drops the label on it.
    """
    reason, confidence = staged.drop_reason, None
    if reason is None:
        confidence = math.exp(-_weighted(staged.fit, staged.l2d, config))
        reason = filter_pseudo_label(track.class_label, confidence, config)
    return PseudoLabel(
        track_id=track.track_id,
        class_label=track.class_label,
        box=staged.box,
        source="coarse" if staged.trace is None else "refined",
        quality=QualityRecord(staged.n_points, staged.n_views, staged.hull_iou,
                              staged.l2d, staged.fit),
        kept=reason is None,
        drop_reason=reason,
        confidence=confidence,
        anchor_frame_id=staged.anchor,
    )
